"""Reference constructions over the dict ``Graph`` and lazy fault views.

Each function mirrors a production construction's signature (minus the
CSR-only options) and examines the identical candidate order, so the
output must match edge for edge -- certificates and BFS counts included.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.core.greedy_modified import (
    EdgeOrder,
    _ordered_edges,
    _validate_params,
)
from repro.core.spanner import FaultModel, SpannerResult
from repro.graph.graph import Edge, Graph, Node, edge_key
from repro.graph.traversal import dijkstra, shortest_path
from repro.graph.views import EdgeFaultView, VertexFaultView
from repro.lbc.approx import LBCAnswer, lbc_edge, lbc_vertex
from repro.lbc.exact import exact_edge_lbc, exact_vertex_lbc

# --------------------------------------------------------------------- #
# Algorithms 3 and 4: the modified greedy
# --------------------------------------------------------------------- #


def fault_tolerant_spanner(
    g: Graph,
    k: int,
    f: int,
    fault_model: Union[FaultModel, str] = FaultModel.VERTEX,
) -> SpannerResult:
    """Algorithm 4 on weighted inputs, Algorithm 3 otherwise."""
    if g.is_unit_weighted():
        return modified_greedy_unweighted(g, k, f, fault_model=fault_model)
    return modified_greedy_weighted(g, k, f, fault_model=fault_model)


def modified_greedy_unweighted(
    g: Graph,
    k: int,
    f: int,
    fault_model: Union[FaultModel, str] = FaultModel.VERTEX,
    order: EdgeOrder = "arbitrary",
    seed: Optional[int] = None,
) -> SpannerResult:
    _validate_params(k, f)
    model = FaultModel.coerce(fault_model)
    return _greedy_loop(
        g, _ordered_edges(g, order, seed), k, f, model, "modified-greedy"
    )


def modified_greedy_weighted(
    g: Graph,
    k: int,
    f: int,
    fault_model: Union[FaultModel, str] = FaultModel.VERTEX,
) -> SpannerResult:
    _validate_params(k, f)
    model = FaultModel.coerce(fault_model)
    return _greedy_loop(
        g, _ordered_edges(g, "weight", None), k, f, model,
        "modified-greedy-weighted",
    )


def lbc_only_greedy(
    g: Graph,
    k: int,
    f: int,
    fault_model: Union[FaultModel, str] = FaultModel.VERTEX,
    order: Optional[EdgeOrder] = None,
    seed: Optional[int] = None,
) -> SpannerResult:
    """Algorithms 3/4 as the paper states them: one LBC per candidate.

    No forced-YES test, so this is the oracle the production greedy's
    spanner must equal edge for edge.  ``order`` defaults to insertion
    order on unit-weighted graphs and weight order otherwise.
    """
    _validate_params(k, f)
    model = FaultModel.coerce(fault_model)
    if order is None:
        order = "arbitrary" if g.is_unit_weighted() else "weight"
    return _greedy_loop(
        g, _ordered_edges(g, order, seed), k, f, model, "lbc-only-greedy",
        forced_yes=False,
    )


def _forced_yes_cut(
    h: Graph, u: Node, v: Node, f: int, model: FaultModel
) -> Optional[FrozenSet]:
    """The H-neighbourhood (vertex model) or incident H-edges (edge
    model) of u, else of v, when it has at most f members: a cut, since
    {u, v} is not in H."""
    for end in (u, v):
        if h.degree(end) <= f:
            if model is FaultModel.VERTEX:
                return frozenset(h.neighbors(end))
            return frozenset(edge_key(end, x) for x in h.neighbors(end))
    return None


def _greedy_loop(
    g: Graph,
    edges: List[Tuple[Node, Node]],
    k: int,
    f: int,
    model: FaultModel,
    algorithm: str,
    forced_yes: bool = True,
) -> SpannerResult:
    """One dict LBC(2k-1, f) run on the current H per candidate edge,
    except (with ``forced_yes``) where an endpoint's small neighbourhood
    already cuts it."""
    t = 2 * k - 1
    h = g.spanning_skeleton()
    certificates: Dict[Edge, FrozenSet] = {}
    bfs_calls = lbc_calls = 0
    decide = lbc_vertex if model is FaultModel.VERTEX else lbc_edge
    for u, v in edges:
        cut = _forced_yes_cut(h, u, v, f, model) if forced_yes else None
        if cut is None:
            lbc_calls += 1
            result = decide(h, u, v, t, f)
            bfs_calls += result.iterations
            if result.answer is not LBCAnswer.YES:
                continue
            cut = result.cut
        h.add_edge(u, v, weight=g.weight(u, v))
        certificates[edge_key(u, v)] = cut
    return SpannerResult(
        spanner=h,
        k=k,
        f=f,
        fault_model=model,
        algorithm=algorithm,
        certificates=certificates,
        edges_considered=len(edges),
        bfs_calls=bfs_calls,
        extra={"degree_shortcuts": float(len(edges) - lbc_calls)},
    )


# --------------------------------------------------------------------- #
# Algorithm 1: the exponential greedy
# --------------------------------------------------------------------- #


def exponential_greedy_spanner(
    g: Graph,
    k: int,
    f: int,
    fault_model: Union[FaultModel, str] = FaultModel.VERTEX,
) -> SpannerResult:
    model = FaultModel.coerce(fault_model)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if f < 0:
        raise ValueError(f"need f >= 0, got {f}")
    t = 2 * k - 1
    h = g.spanning_skeleton()
    certificates: Dict[Edge, FrozenSet] = {}
    considered = 0
    unit = g.is_unit_weighted()
    for u, v, w in sorted(g.weighted_edges(), key=lambda e: e[2]):
        considered += 1
        cut = _find_violating_fault_set(h, u, v, t, f, w, model, unit)
        if cut is not None:
            h.add_edge(u, v, weight=w)
            certificates[edge_key(u, v)] = cut
    return SpannerResult(
        spanner=h,
        k=k,
        f=f,
        fault_model=model,
        algorithm="exponential-greedy",
        certificates=certificates,
        edges_considered=considered,
    )


def _find_violating_fault_set(
    h: Graph,
    u: Node,
    v: Node,
    t: int,
    f: int,
    weight: float,
    model: FaultModel,
    unit: bool,
) -> Optional[FrozenSet]:
    """A fault set F, |F| <= f, with d_{H\\F}(u, v) > t w(u,v), or None."""
    if unit:
        # Lemma 3 reduces the condition to hop distance > t.
        if model is FaultModel.VERTEX:
            return exact_vertex_lbc(h, u, v, t, max_size=f)
        return exact_edge_lbc(h, u, v, t, max_size=f)
    budget = t * weight
    if model is FaultModel.VERTEX:
        return _weighted_vertex_search(h, u, v, budget, f)
    return _weighted_edge_search(h, u, v, budget, f)


def _weighted_vertex_search(
    h: Graph, u: Node, v: Node, budget: float, f: int
) -> Optional[FrozenSet[Node]]:
    """Branch on the interior vertices of a too-short path."""
    found: List[Optional[FrozenSet[Node]]] = [None]

    def search(faults: Set[Node], remaining: int) -> None:
        if found[0] is not None:
            return
        view = VertexFaultView(h, faults) if faults else h
        path = _short_weighted_path(view, u, v, budget)
        if path is None:
            found[0] = frozenset(faults)
            return
        interior = path[1:-1]
        if not interior or remaining == 0:
            return
        for x in interior:
            faults.add(x)
            search(faults, remaining - 1)
            faults.remove(x)
            if found[0] is not None:
                return

    search(set(), f)
    return found[0]


def _weighted_edge_search(
    h: Graph, u: Node, v: Node, budget: float, f: int
) -> Optional[FrozenSet[Edge]]:
    """Branch on the edges of a too-short path."""
    found: List[Optional[FrozenSet[Edge]]] = [None]

    def search(faults: Set[Edge], remaining: int) -> None:
        if found[0] is not None:
            return
        view = EdgeFaultView(h, faults) if faults else h
        path = _short_weighted_path(view, u, v, budget)
        if path is None:
            found[0] = frozenset(faults)
            return
        if remaining == 0:
            return
        for i in range(len(path) - 1):
            e = edge_key(path[i], path[i + 1])
            faults.add(e)
            search(faults, remaining - 1)
            faults.remove(e)
            if found[0] is not None:
                return

    search(set(), f)
    return found[0]


def _short_weighted_path(
    view, u: Node, v: Node, budget: float
) -> Optional[List[Node]]:
    """A shortest u-v path in ``view`` if its weight is <= budget."""
    path = shortest_path(view, u, v)
    if path is None:
        return None
    total = sum(
        view.weight(path[i], path[i + 1]) for i in range(len(path) - 1)
    )
    return path if total <= budget else None


# --------------------------------------------------------------------- #
# Baselines
# --------------------------------------------------------------------- #


def classic_greedy_spanner(g: Graph, k: int) -> SpannerResult:
    """[ADD+93]: keep an edge unless H already has a short enough path."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    t = 2 * k - 1
    h = g.spanning_skeleton()
    considered = 0
    for u, v, w in sorted(g.weighted_edges(), key=lambda item: item[2]):
        considered += 1
        budget = t * w
        dist = dijkstra(h, u, target=v, max_dist=budget)
        if dist.get(v, float("inf")) > budget:
            h.add_edge(u, v, weight=w)
    return SpannerResult(
        spanner=h,
        k=k,
        f=0,
        fault_model=FaultModel.VERTEX,
        algorithm="classic-greedy",
        edges_considered=considered,
    )


def baswana_sen_spanner(
    g: Graph, k: int, seed: Union[int, random.Random, None] = None
) -> SpannerResult:
    """[BS07] with clustering state keyed by node label."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = g.num_nodes
    h = g.spanning_skeleton()
    if n == 0:
        return _baswana_sen_result(h, g, k)
    # center[v]: the center of v's cluster, or None once v has left.
    center: Dict[Node, Optional[Node]] = {v: v for v in g.nodes()}
    # live[v]: edges of v not yet resolved (intra-cluster or discarded).
    live: Dict[Node, Dict[Node, float]] = {
        v: dict(g.neighbor_items(v)) for v in g.nodes()
    }
    p = n ** (-1.0 / k)
    for _ in range(k - 1):
        centers = sorted(
            {c for c in center.values() if c is not None}, key=repr
        )
        survivors = {c for c in centers if rng.random() < p}
        new_center: Dict[Node, Optional[Node]] = {}
        for v in g.nodes():
            c = center[v]
            if c is None or c in survivors:
                new_center[v] = c
                continue
            best = _lightest_edge_per_cluster(live[v], center)
            surviving_best = None
            for cluster, (w, u) in best.items():
                if cluster in survivors:
                    cand = (w, repr(u), u, cluster)
                    if surviving_best is None or cand[:2] < surviving_best[:2]:
                        surviving_best = cand
            if surviving_best is not None:
                join_weight, _, u, cluster = surviving_best
                h.add_edge(v, u, weight=live[v][u])
                new_center[v] = cluster
                resolved = {cluster}
                for other, (w, x) in best.items():
                    if other != cluster and w < join_weight:
                        h.add_edge(v, x, weight=live[v][x])
                        resolved.add(other)
                live[v] = {
                    x: w
                    for x, w in live[v].items()
                    if center.get(x) not in resolved
                }
            else:
                for cluster, (w, u) in best.items():
                    h.add_edge(v, u, weight=live[v][u])
                new_center[v] = None
                live[v] = {}
        center = new_center
    for v in g.nodes():
        if center[v] is None:
            continue
        best = _lightest_edge_per_cluster(dict(g.neighbor_items(v)), center)
        for cluster, (w, u) in best.items():
            if cluster != center[v]:
                h.add_edge(v, u, weight=g.weight(v, u))
    return _baswana_sen_result(h, g, k)


def _lightest_edge_per_cluster(
    incident: Dict[Node, float], center: Dict[Node, Optional[Node]]
) -> Dict[Node, Tuple[float, Node]]:
    """Cluster -> (weight, endpoint) of the lightest edge, repr tie-break."""
    best: Dict[Node, Tuple[float, Node]] = {}
    for u, w in incident.items():
        c = center.get(u)
        if c is None:
            continue
        cur = best.get(c)
        if cur is None or (w, repr(u)) < (cur[0], repr(cur[1])):
            best[c] = (w, u)
    return best


def _baswana_sen_result(h: Graph, g: Graph, k: int) -> SpannerResult:
    return SpannerResult(
        spanner=h,
        k=k,
        f=0,
        fault_model=FaultModel.VERTEX,
        algorithm="baswana-sen",
        edges_considered=g.num_edges,
    )


# --------------------------------------------------------------------- #
# Online Algorithm 3
# --------------------------------------------------------------------- #


def incremental_spanner(
    g: Graph,
    k: int,
    f: int = 0,
    fault_model: Union[FaultModel, str] = FaultModel.VERTEX,
) -> SpannerResult:
    """Every node declared, then the edges of ``g`` streamed in order."""
    inc = IncrementalSpanner(k, f, fault_model=fault_model)
    for u in g.nodes():
        inc.add_node(u)
    for u, v in g.edges():
        inc.insert(u, v)
    return SpannerResult(
        spanner=inc.spanner,
        k=k,
        f=f,
        fault_model=inc.fault_model,
        algorithm="incremental-greedy",
        certificates=dict(inc.certificates),
        edges_considered=g.num_edges,
        bfs_calls=inc.bfs_calls,
    )


class IncrementalSpanner:
    """The insertion stream with the dict LBC run on the maintained H."""

    def __init__(
        self,
        k: int,
        f: int,
        fault_model: Union[FaultModel, str] = FaultModel.VERTEX,
    ) -> None:
        self.k = k
        self.f = f
        self.fault_model = FaultModel.coerce(fault_model)
        self.graph = Graph()
        self.spanner = Graph()
        self.certificates: Dict[Edge, FrozenSet] = {}
        self.bfs_calls = 0

    def add_node(self, u: Node) -> None:
        self.graph.add_node(u)
        self.spanner.add_node(u)

    def insert(self, u: Node, v: Node) -> bool:
        if self.graph.has_edge(u, v):
            return self.spanner.has_edge(u, v)
        self.graph.add_edge(u, v)
        self.spanner.add_node(u)
        self.spanner.add_node(v)
        decide = (
            lbc_vertex if self.fault_model is FaultModel.VERTEX else lbc_edge
        )
        result = decide(self.spanner, u, v, 2 * self.k - 1, self.f)
        self.bfs_calls += result.iterations
        if result.answer is LBCAnswer.YES:
            self.spanner.add_edge(u, v)
            self.certificates[edge_key(u, v)] = result.cut
            return True
        return False
