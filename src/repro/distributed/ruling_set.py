"""Deterministic ruling sets and network decomposition (CONGEST).

The padded decomposition of Theorem 11 is randomized (exponential
shifts).  Derandomizing such clustering is exactly the problem solved
by the deterministic network-decomposition line of work -- Rozhon and
Ghaffari's poly(log n)-round construction (arXiv:1907.10937) and its
CONGEST ruling-set refinements by Pai and Pemmaraju (arXiv:2205.12686).
This module implements the classic building block those papers
bootstrap from, as an honest CONGEST protocol on the simulator:

**(2, beta)-ruling set by ID-bit merging** (the [AGLP89]-style
construction, beta = ceil(log2 n)): every node starts as a ruler; in
step t = 1..beta, two ruler sets that agree on ID bits >= t merge, and
a ruler whose bit t-1 is 1 drops out iff it is adjacent to a surviving
ruler of the same merged class whose bit t-1 is 0.  Inductively each
merged class's rulers stay pairwise non-adjacent, so after beta steps
the survivors form an independent set; a node that dropped at step t
is one hop from a ruler that survived step t, so chasing drops gives
every node a ruler within beta hops.  Each step is one CONGEST round
(rulers announce ``(tag, id)``: two words).

**Voronoi claim flood**: surviving rulers then flood claims
``(distance, ruler_id)`` for beta rounds; every node adopts the
lexicographically smallest claim it hears and remembers the neighbor
it came from.  Consistent tie-breaking makes every cell a connected
cluster of hop radius <= beta with a BFS-style tree toward its ruler
-- the same interface the randomized decomposition exposes.

**Deterministic decomposition** iterates that clustering on the
subgraph of still-uncovered edges: every node with an uncovered
incident edge covers its tree-parent edge, so each partition strictly
shrinks the uncovered set and the loop terminates.  Leftover uncovered
edges (when the partition budget runs out first) are reported to the
caller, which adds them to the spanner directly -- a stretch-1 edge
never weakens the (2k-1) guarantee, so the fault-tolerance claim
survives derandomization unconditionally.

Node IDs are ranks in the engine's sorted node order -- the standard
unique-O(log n)-bit-ID assumption, handed to each protocol instance at
construction time like the decomposition rows in
:mod:`repro.distributed.local_spanner`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.distributed.decomposition import Decomposition
from repro.distributed.runtime import (
    Message,
    NodeContext,
    NodeProtocol,
    RunStats,
    SyncNetwork,
)
from repro.graph.graph import Graph, Node

__all__ = [
    "RulingSet",
    "deterministic_decomposition",
    "deterministic_ruling_set",
    "verify_ruling_set",
]


@dataclass
class RulingSet:
    """A (2, ``radius_bound``)-ruling set with its Voronoi clustering.

    ``rulers`` are pairwise non-adjacent; every node's ``assignment``
    points to a ruler within ``radius_bound`` hops, reachable by
    following ``parent`` pointers (``None`` at the ruler itself,
    ``depth`` hops in total).
    """

    rulers: Tuple[Node, ...]
    assignment: Dict[Node, Node]
    parent: Dict[Node, Optional[Node]]
    depth: Dict[Node, int]
    radius_bound: int
    rounds: int


class _RulingSetProtocol(NodeProtocol):
    """Node-local merge steps + claim flood, driven by the round number.

    Rounds 1..beta run the ID-bit merge (messages ``('r', id)``); at
    round beta the survivors open the claim flood (``('c', dist, id)``)
    which runs through round ``2 * beta``; everyone halts after that.
    All messages are at most three words -- CONGEST-compatible, and the
    engine enforces it.
    """

    def __init__(self, my_id: int, beta: int) -> None:
        self.my_id = my_id
        self.beta = beta
        self.ruler = True
        # Best claim seen: (distance, ruler_id, via-neighbor).
        self.best: Optional[Tuple[int, int, Optional[Node]]] = None

    def init(self, ctx: NodeContext) -> None:
        ctx.broadcast(("r", self.my_id))

    def receive(self, ctx: NodeContext, messages: List[Message]) -> None:
        t = ctx.round
        if t <= self.beta:
            self._merge_step(ctx, t, messages)
        else:
            self._flood_step(ctx, messages)
        if t >= 2 * self.beta + 1:
            ctx.halt()

    def _merge_step(
        self, ctx: NodeContext, t: int, messages: List[Message]
    ) -> None:
        # Announcements reflect ruler status after step t-1 (init is
        # step 0): exactly what merge step t needs.
        if self.ruler and (self.my_id >> (t - 1)) & 1:
            for _, _, payload in messages:
                if payload[0] != "r":
                    continue
                other = payload[1]
                if other >> t == self.my_id >> t and not (
                    (other >> (t - 1)) & 1
                ):
                    self.ruler = False
                    break
        if t < self.beta:
            if self.ruler:
                ctx.broadcast(("r", self.my_id))
        else:
            # Merge finished: survivors seed the Voronoi claim flood.
            if self.ruler:
                self.best = (0, self.my_id, None)
                ctx.broadcast(("c", 1, self.my_id))

    def _flood_step(self, ctx: NodeContext, messages: List[Message]) -> None:
        improved = False
        for sender, _, payload in messages:
            if payload[0] != "c":
                continue
            _, dist, rid = payload
            if self.best is None or (dist, rid) < self.best[:2]:
                self.best = (dist, rid, sender)
                improved = True
        if improved and self.best[0] + 1 <= self.beta:
            ctx.broadcast(("c", self.best[0] + 1, self.best[1]))

    def output(self):
        dist, rid, via = self.best if self.best is not None else (-1, -1, None)
        return (self.ruler, rid, dist, via)


class _RulingSetFactory:
    """Module-level factory: hands each node its rank ID."""

    def __init__(self, ids: Dict[Node, int], beta: int) -> None:
        self.ids = ids
        self.beta = beta

    def __call__(self, node: Node) -> _RulingSetProtocol:
        return _RulingSetProtocol(self.ids[node], self.beta)


def deterministic_ruling_set(
    g: Graph,
    congest_word_limit: int = 8,
) -> Tuple[RulingSet, RunStats]:
    """Compute a (2, ceil(log2 n))-ruling set of ``g`` on the simulator.

    Fully deterministic: no node draws randomness, so the output is a
    pure function of the graph.  Runs in ``2 * ceil(log2 n) + 1``
    CONGEST rounds with <= 3-word messages (engine-enforced).
    """
    n = g.num_nodes
    if n == 0:
        return RulingSet((), {}, {}, {}, radius_bound=0, rounds=0), RunStats()
    nodes = sorted(g.nodes(), key=repr)
    ids = {v: i for i, v in enumerate(nodes)}
    beta = max(1, math.ceil(math.log2(max(n, 2))))
    network = SyncNetwork(
        g, model="CONGEST", congest_word_limit=congest_word_limit, seed=0
    )
    outputs = network.run(
        _RulingSetFactory(ids, beta),
        max_rounds=2 * beta + 4,
    )
    by_id = {ids[v]: v for v in nodes}
    rulers = tuple(v for v in nodes if outputs[v][0])
    assignment: Dict[Node, Node] = {}
    parent: Dict[Node, Optional[Node]] = {}
    depth: Dict[Node, int] = {}
    for v in nodes:
        _is_ruler, rid, dist, via = outputs[v]
        if rid < 0:
            # Unreachable within beta hops cannot happen (the drop
            # chain has length <= beta), but keep the accounting total.
            raise RuntimeError(
                f"node {v!r} received no ruling-set claim within "
                f"{beta} hops"
            )
        assignment[v] = by_id[rid]
        parent[v] = via
        depth[v] = dist
    return (
        RulingSet(
            rulers=rulers,
            assignment=assignment,
            parent=parent,
            depth=depth,
            radius_bound=beta,
            rounds=network.stats.rounds,
        ),
        network.stats,
    )


def verify_ruling_set(g: Graph, rs: RulingSet) -> List[str]:
    """Check the (2, beta)-ruling-set properties; return violations."""
    problems: List[str] = []
    rulers = set(rs.rulers)
    for u, v in g.edges():
        if u in rulers and v in rulers:
            problems.append(f"rulers {u!r} and {v!r} are adjacent")
    for v in g.nodes():
        center = rs.assignment.get(v)
        if center is None:
            problems.append(f"node {v!r} has no assignment")
            continue
        if center not in rulers:
            problems.append(f"node {v!r} assigned to non-ruler {center!r}")
            continue
        # Walk the tree: must reach the ruler in depth[v] <= beta hops.
        cur, hops = v, 0
        while rs.parent[cur] is not None and hops <= rs.radius_bound:
            cur = rs.parent[cur]
            hops += 1
        if cur != center:
            problems.append(
                f"node {v!r}: parent chain ends at {cur!r}, not its "
                f"ruler {center!r}"
            )
        elif hops != rs.depth[v]:
            problems.append(
                f"node {v!r}: depth {rs.depth[v]} but chain length {hops}"
            )
        elif hops > rs.radius_bound:
            problems.append(
                f"node {v!r} is {hops} > {rs.radius_bound} hops from "
                f"its ruler"
            )
    return problems


def deterministic_decomposition(
    g: Graph,
    num_partitions: Optional[int] = None,
    congest_word_limit: int = 8,
) -> Tuple[Decomposition, List[Tuple[Node, Node]], RunStats]:
    """Deterministic replacement for :func:`padded_decomposition`.

    Iterates the ruling-set Voronoi clustering: partition 0 clusters the
    whole graph; partition i + 1 clusters the subgraph of edges no
    earlier partition covered.  Every node incident to an uncovered
    edge covers its tree-parent edge, so the uncovered set strictly
    shrinks each partition and the loop terminates on its own; the
    partition budget (default ``2 * ceil(2 log2 n) + 2``, twice the
    randomized default) is a cost cap, not a correctness requirement.

    Returns ``(decomposition, uncovered, stats)``: a
    :class:`~repro.distributed.decomposition.Decomposition` with the
    exact interface of the randomized one, the edges still uncovered
    when the budget ran out (the caller adds them to its spanner
    directly -- stretch 1 preserves every guarantee), and the merged
    engine statistics (rounds are summed: the partitions run
    sequentially, each on the clustered remainder of the last).
    """
    n = g.num_nodes
    stats = RunStats()
    if n == 0:
        return Decomposition(0, [], [], [], radius_bound=0, rounds=0), [], stats
    if num_partitions is None:
        num_partitions = 2 * max(1, math.ceil(2 * math.log2(max(n, 2)))) + 2
    assignment: List[Dict[Node, Node]] = []
    parent: List[Dict[Node, Optional[Node]]] = []
    depth: List[Dict[Node, int]] = []
    radius_bound = 0
    uncovered = sorted(g.edges(), key=repr)
    current = g
    while uncovered and len(assignment) < num_partitions:
        rs, run_stats = deterministic_ruling_set(
            current, congest_word_limit=congest_word_limit
        )
        stats.rounds += run_stats.rounds
        stats.merge(run_stats)
        assignment.append(rs.assignment)
        parent.append(rs.parent)
        depth.append(rs.depth)
        radius_bound = max(radius_bound, rs.radius_bound)
        still = [
            (u, v)
            for u, v in uncovered
            if rs.assignment[u] != rs.assignment[v]
        ]
        if len(still) == len(uncovered):  # cannot happen; belt and braces
            break
        uncovered = still
        nxt = g.spanning_skeleton()
        for u, v in uncovered:
            nxt.add_edge(u, v, weight=g.weight(u, v))
        current = nxt
    decomposition = Decomposition(
        num_partitions=len(assignment),
        assignment=assignment,
        parent=parent,
        depth=depth,
        radius_bound=radius_bound,
        rounds=stats.rounds,
    )
    return decomposition, uncovered, stats
