"""The Dinic max-flow engine against a brute-force min-cut oracle.

Max-flow = min-cut is the whole correctness story for the flow engine:
on every graph small enough to enumerate all vertex cuts we demand
exact agreement, and on larger random instances we check the invariants
that make a function *a flow* at all (capacity, conservation,
antisymmetry of the paired-arc layout).  The witness verifier and the
router both sit on this engine, so a wrong flow value here would
silently corrupt their certificates.
"""

from __future__ import annotations

import itertools
import random

import pytest

import repro.flow.dinitz as dinitz
from repro.flow.dinitz import (
    DisjointPathNetwork,
    FlowNetwork,
    FlowWorkspace,
    decompose_paths,
    dinitz_max_flow,
)
from repro.graph import generators
from repro.graph.csr import CSRGraph


def brute_force_min_cut(net: FlowNetwork, s: int, t: int) -> int:
    """Minimum s-t cut by enumerating every vertex subset.

    The cut value of S (with s in S, t not in S) is the total *base*
    capacity of arcs leaving S -- the textbook definition, computed
    with no flow machinery whatsoever.
    """
    others = [x for x in range(net.num_nodes) if x not in (s, t)]
    best = None
    for r in range(len(others) + 1):
        for chosen in itertools.combinations(others, r):
            side = {s, *chosen}
            value = sum(
                net.base[a]
                for x in side
                for a in net.adj[x]
                if net.head[a] not in side
            )
            if best is None or value < best:
                best = value
    return best


def undirected_unit_net(n, edges) -> FlowNetwork:
    """One arc pair of capacity 1/1 per undirected edge."""
    net = FlowNetwork(n)
    for u, v in edges:
        net.add_arc(u, v, 1, rev_cap=1)
    return net


def random_directed_net(n, rng) -> FlowNetwork:
    """A dense-ish random directed network with small integer caps."""
    net = FlowNetwork(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.6:
                net.add_arc(u, v, rng.randint(0, 3),
                            rev_cap=rng.randint(0, 3))
    return net


class TestMinCutOracle:
    def test_all_graphs_up_to_four_nodes(self):
        # Every undirected graph on <= 4 labelled nodes, every s-t pair,
        # unit capacities: 64 graphs x 6 pairs, all cuts enumerated.
        pairs4 = list(itertools.combinations(range(4), 2))
        for bits in range(64):
            edges = [e for i, e in enumerate(pairs4) if bits >> i & 1]
            for s, t in pairs4:
                net = undirected_unit_net(4, edges)
                flow = dinitz_max_flow(net, s, t)
                assert flow == brute_force_min_cut(net, s, t), (
                    f"graph {edges}, pair ({s}, {t})"
                )

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_random_graphs_up_to_seven_nodes(self, n):
        rng = random.Random(900 + n)
        for trial in range(40):
            net = random_directed_net(n, rng)
            s, t = rng.sample(range(n), 2)
            flow = dinitz_max_flow(net, s, t)
            cut = brute_force_min_cut(net, s, t)
            assert flow == cut, f"n={n} trial={trial}: flow {flow} != cut {cut}"

    def test_unit_random_graphs_seven_nodes(self):
        rng = random.Random(41)
        for trial in range(40):
            edges = [
                e for e in itertools.combinations(range(7), 2)
                if rng.random() < 0.5
            ]
            net = undirected_unit_net(7, edges)
            s, t = rng.sample(range(7), 2)
            assert dinitz_max_flow(net, s, t) == brute_force_min_cut(
                net, s, t
            )


class TestFlowInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_conservation_and_capacity(self, seed):
        rng = random.Random(seed)
        net = random_directed_net(12, rng)
        s, t = 0, 11
        value = dinitz_max_flow(net, s, t)
        # Capacity: no residual capacity ever goes negative, and no arc
        # carries more than its base capacity.
        for a in range(len(net.cap)):
            assert net.cap[a] >= 0
            assert net.flow_on(a) <= net.base[a]
            # Antisymmetry of the paired layout.
            assert net.flow_on(a) == -net.flow_on(a ^ 1)
        # Conservation: net outflow is +value at s, -value at t, 0
        # everywhere else.
        for x in range(net.num_nodes):
            out = sum(net.flow_on(a) for a in net.adj[x])
            expected = value if x == s else -value if x == t else 0
            assert out == expected, f"node {x}"

    def test_decomposition_realizes_flow(self):
        rng = random.Random(7)
        net = random_directed_net(10, rng)
        value = dinitz_max_flow(net, 0, 9)
        paths = decompose_paths(net, 0, 9)
        assert len(paths) == value
        for path in paths:
            assert path[0] == 0 and path[-1] == 9
            assert len(set(path)) == len(path), f"not simple: {path}"

    def test_limit_caps_the_flow(self):
        net = undirected_unit_net(
            5, itertools.combinations(range(5), 2)
        )  # K5: max flow 0 -> 4 is 4
        assert dinitz_max_flow(net, 0, 4) == 4
        net.reset()
        assert dinitz_max_flow(net, 0, 4, limit=2) == 2
        assert len(decompose_paths(net, 0, 4)) == 2

    def test_banned_arcs_do_not_leak_flow(self):
        # C6 with the two 0-side edges banned: no path at all, and the
        # decomposition must see zero flow on the banned arcs.
        net = FlowNetwork(6)
        arcs = []
        for u, v in zip(range(6), [*range(1, 6), 0]):
            arcs.append(net.add_arc(u, v, 1, rev_cap=1))
        net.ban_arc(arcs[0])
        net.ban_arc(arcs[0] ^ 1)
        net.ban_arc(arcs[5])
        net.ban_arc(arcs[5] ^ 1)
        assert dinitz_max_flow(net, 0, 3) == 0
        assert decompose_paths(net, 0, 3) == []
        net.reset()  # bans clear with the reset
        assert dinitz_max_flow(net, 0, 3) == 2

    def test_terminal_validation(self):
        net = undirected_unit_net(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            dinitz_max_flow(net, 0, 0)
        with pytest.raises(ValueError):
            dinitz_max_flow(net, 0, 5)


def full_bfs_phase(net, s, t, ws):
    """The textbook level phase: label every residual-reachable node.

    The engine's phase stops expanding at ``t``'s level; this one does
    not, so running both proves the cut-off changes no push.
    """
    gen = ws.next_generation()
    ws.stamp[s], ws.level[s], ws.arc_it[s] = gen, 0, 0
    queue = [s]
    for x in queue:
        for a in net.adj[x]:
            y = net.head[a]
            if net.cap[a] > 0 and ws.stamp[y] != gen:
                ws.stamp[y], ws.level[y], ws.arc_it[y] = gen, ws.level[x] + 1, 0
                queue.append(y)
    return ws.stamp[t] == gen


class TestLevelCutoff:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_pushes_as_the_full_level_graph(self, monkeypatch, seed):
        rng = random.Random(300 + seed)
        for trial in range(10):
            net_seed = rng.getrandbits(32)
            unit = trial % 2 == 0
            s, t = rng.sample(range(14), 2)
            limit = rng.choice([None, 1, 2])

            def build():
                r = random.Random(net_seed)
                if not unit:
                    return random_directed_net(14, r)
                return undirected_unit_net(14, [
                    e for e in itertools.combinations(range(14), 2)
                    if r.random() < 0.3
                ])

            results = []
            for phase in (dinitz._bfs_phase, full_bfs_phase):
                net = build()
                monkeypatch.setattr(dinitz, "_bfs_phase", phase)
                value = dinitz_max_flow(net, s, t, limit=limit)
                results.append((value, net.cap, decompose_paths(net, s, t)))
            monkeypatch.undo()
            assert results[0] == results[1], f"trial {trial}"


class TestDeterminism:
    def test_same_input_same_paths(self):
        g = generators.ensure_connected(
            generators.gnp_random_graph(16, 0.3, seed=5), seed=5
        )
        csr = CSRGraph.from_graph(g)
        runs = []
        for _ in range(3):
            network = DisjointPathNetwork(csr, "vertex")
            runs.append(network.disjoint_paths(0, csr.num_nodes - 1))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0], "expected at least one path in a connected graph"

    def test_workspace_reuse_is_invisible(self):
        g = generators.ensure_connected(
            generators.gnp_random_graph(14, 0.35, seed=6), seed=6
        )
        csr = CSRGraph.from_graph(g)
        shared = FlowWorkspace()
        network = DisjointPathNetwork(csr, "edge")
        with_shared = [
            network.disjoint_paths(0, i, workspace=shared)
            for i in range(1, csr.num_nodes)
        ]
        fresh = [
            network.disjoint_paths(0, i, workspace=FlowWorkspace())
            for i in range(1, csr.num_nodes)
        ]
        assert with_shared == fresh


class TestDisjointPathNetwork:
    @pytest.mark.parametrize("model", ["vertex", "edge"])
    def test_k5_has_four_disjoint_paths(self, model):
        csr = CSRGraph.from_graph(generators.complete_graph(5))
        network = DisjointPathNetwork(csr, model)
        paths = network.disjoint_paths(0, 4)
        assert len(paths) == 4
        interiors = [tuple(p[1:-1]) for p in paths]
        if model == "vertex":
            flat = [x for i in interiors for x in i]
            assert len(flat) == len(set(flat))

    @pytest.mark.parametrize("model", ["vertex", "edge"])
    def test_bans_respected(self, model):
        csr = CSRGraph.from_graph(generators.cycle_graph(6))
        network = DisjointPathNetwork(csr, model)
        assert len(network.disjoint_paths(0, 3)) == 2
        if model == "vertex":
            paths = network.disjoint_paths(0, 3, banned_vertices=[1])
        else:
            paths = network.disjoint_paths(
                0, 3, banned_edges=[csr.edge_id(0, 1)]
            )
        assert len(paths) == 1
        assert paths[0] == [0, 5, 4, 3]


def random_csr(seed: int, n: int = 14, p: float = 0.35) -> CSRGraph:
    g = generators.ensure_connected(
        generators.gnp_random_graph(n, p, seed=seed), seed=seed
    )
    return CSRGraph.from_graph(g)


class TestRestrictedQueries:
    """``allowed_edges=`` runs on a view of those edges only; it must
    answer exactly as the whole network with every other edge banned --
    the same value and the same paths, arc order included."""

    @pytest.mark.parametrize("model", ["vertex", "edge"])
    @pytest.mark.parametrize("seed", range(6))
    def test_restricted_equals_banned_complement(self, model, seed):
        rng = random.Random(seed)
        csr = random_csr(seed)
        m = csr.num_edges
        restricted = DisjointPathNetwork(csr, model)
        for _ in range(15):
            u, v = rng.sample(range(csr.num_nodes), 2)
            keep = rng.choice([0.05, 0.3, 0.7, 1.0])
            allowed = [e for e in range(m) if rng.random() < keep]
            others = sorted(set(range(m)) - set(allowed))
            # Order and repeats of the allowed ids do not matter.
            given = allowed + allowed[: len(allowed) // 2]
            rng.shuffle(given)
            limit = rng.choice([None, 1, 2])
            banned = DisjointPathNetwork(csr, model)
            assert restricted.max_flow(
                u, v, limit=limit, allowed_edges=given
            ) == banned.max_flow(u, v, limit=limit, banned_edges=others)
            assert restricted.disjoint_paths(
                u, v, limit=limit, allowed_edges=given
            ) == banned.disjoint_paths(
                u, v, limit=limit, banned_edges=others
            )

    @pytest.mark.parametrize("model", ["vertex", "edge"])
    def test_no_allowed_edges_no_paths(self, model):
        csr = CSRGraph.from_graph(generators.complete_graph(5))
        network = DisjointPathNetwork(csr, model)
        assert network.max_flow(0, 4, allowed_edges=[]) == 0
        assert network.disjoint_paths(0, 4, allowed_edges=[]) == []
        assert network.disjoint_paths(
            0, 4, allowed_edges=[csr.edge_id(0, 4)]
        ) == [[0, 4]]

    def test_allowed_edges_exclude_bans(self):
        csr = CSRGraph.from_graph(generators.cycle_graph(6))
        network = DisjointPathNetwork(csr, "vertex")
        with pytest.raises(ValueError):
            network.max_flow(0, 3, allowed_edges=[0], banned_vertices=[1])
        with pytest.raises(ValueError):
            network.disjoint_paths(0, 3, allowed_edges=[0], banned_edges=[1])

    @pytest.mark.parametrize("model", ["vertex", "edge"])
    @pytest.mark.parametrize("seed", range(4))
    def test_reset_hygiene_across_query_kinds(self, model, seed):
        # One network serves restricted, banned (router-style) and
        # unrestricted queries in random order; each answer must equal
        # a freshly built network's.  After a restricted query on a
        # small view (a 4x4 block of a 16x16 grid) the next restricted
        # query resets only that view's rows, so residual capacity a
        # partial reset leaves stale shows up here; repeated and
        # reversed queries make sure stale arcs get used.
        rng = random.Random(100 + seed)
        side = 16
        csr = CSRGraph.from_graph(generators.grid_graph(side, side))
        index = csr.indexer.index
        n, m = csr.num_nodes, csr.num_edges
        shared = DisjointPathNetwork(csr, model)
        workspace = FlowWorkspace()
        history = []
        query = None
        for _ in range(60):
            roll = rng.random()
            if query is not None and roll < 0.2:
                u, v, kind, kwargs = query
            elif query is not None and roll < 0.35:
                v, u, kind, kwargs = query
            else:
                kind = rng.choice(
                    ["block", "block", "block", "large", "banned", "full"]
                )
                u, v = rng.sample(range(n), 2)
                kwargs = {}
                if kind == "block":
                    r, c = rng.randrange(side - 3), rng.randrange(side - 3)
                    block = {
                        index((r + i, c + j))
                        for i in range(4) for j in range(4)
                    }
                    u, v = rng.sample(sorted(block), 2)
                    kwargs["allowed_edges"] = [
                        e for e in range(m)
                        if csr.edge_u[e] in block and csr.edge_v[e] in block
                    ]
                elif kind == "large":
                    kwargs["allowed_edges"] = [
                        e for e in range(m) if rng.random() < 0.5
                    ]
                elif kind == "banned":
                    others = [x for x in range(n) if x not in (u, v)]
                    kwargs["banned_vertices"] = rng.sample(others, 2)
                    kwargs["banned_edges"] = rng.sample(range(m), 3)
            query = (u, v, kind, kwargs)
            history.append(kind)
            got = shared.disjoint_paths(u, v, workspace=workspace, **kwargs)
            fresh = DisjointPathNetwork(csr, model).disjoint_paths(
                u, v, **kwargs
            )
            assert got == fresh, f"query {len(history)} after {history}"
