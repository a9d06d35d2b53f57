"""Padded network decomposition (Theorem 11) in the LOCAL model.

The paper cites [DK11] (and implicitly [LS93, Bar96, MPX13, MPVX15]) for
an O(log n)-round LOCAL algorithm producing partitions P_1, ..., P_l of V
such that:

1. each P_i is a partition into clusters,
2. every cluster has hop diameter O(log n) and a designated center,
3. l = O(log n),
4. whp every edge is contained in some cluster of some partition.

We implement the Miller-Peng-Xu random-shift construction: in each
partition, every node u draws an exponential shift ``delta_u ~ Exp(beta)``
(truncated at R = O(log n / beta), which changes nothing whp) and joins
the node c maximizing ``delta_c - d_hop(u, c)``, ties broken by node ID.
A node's own candidacy (value ``delta_u >= 0``) guarantees the maximum is
non-negative, so offers only travel ``<= R`` hops and the flood runs in
R + 1 = O(log n) rounds.  Standard analysis: each cluster is connected
with hop radius <= R, and each edge is cut with probability
``<= 1 - e^(-beta) <= beta``; with ``l = O(log n)`` independent
partitions every edge is covered somewhere whp.

All ``l`` partitions are flooded **in parallel** in a single LOCAL
protocol (messages carry the partition index; LOCAL has no size limit),
so the whole decomposition costs O(log n) rounds total -- matching
Theorem 11.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.distributed.runtime import (
    Message,
    NodeContext,
    NodeProtocol,
    RunStats,
    SyncNetwork,
)
from repro.graph.graph import Graph, Node
from repro.graph.traversal import bfs_distances


@dataclass(frozen=True)
class Cluster:
    """One cluster of one partition."""

    partition: int
    center: Node
    members: Tuple[Node, ...]

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class Decomposition:
    """The output of :func:`padded_decomposition`.

    ``assignment[i][v]`` is the center of v's cluster in partition i;
    ``parent[i][v]`` is v's tree parent toward that center (None at the
    center itself); ``depth[i][v]`` the hop distance along that tree.
    """

    num_partitions: int
    assignment: List[Dict[Node, Node]]
    parent: List[Dict[Node, Optional[Node]]]
    depth: List[Dict[Node, int]]
    radius_bound: int
    rounds: int

    def clusters(self) -> List[Cluster]:
        """Materialize all clusters of all partitions."""
        out: List[Cluster] = []
        for i in range(self.num_partitions):
            groups: Dict[Node, List[Node]] = {}
            for v, c in self.assignment[i].items():
                groups.setdefault(c, []).append(v)
            for c, members in sorted(groups.items(), key=lambda kv: repr(kv[0])):
                out.append(
                    Cluster(
                        partition=i,
                        center=c,
                        members=tuple(sorted(members, key=repr)),
                    )
                )
        return out

    def covers_edge(self, u: Node, v: Node) -> bool:
        """Whether some partition places u and v in the same cluster."""
        return any(
            self.assignment[i][u] == self.assignment[i][v]
            for i in range(self.num_partitions)
        )


class _ShiftFloodProtocol(NodeProtocol):
    """Per-node logic: parallel shifted-BFS floods, one per partition.

    State per partition: the best offer ``(value, center, parent)`` seen,
    initialized to the node's own candidacy ``(delta_self, self, None)``.
    Each round the node broadcasts every offer that improved since its
    last broadcast, decremented by one hop.  After ``radius + 1`` quiet
    rounds... offers of value <= 0 are not forwarded, so the flood
    self-limits to ``radius`` hops; nodes halt at round ``radius + 1``.
    """

    def __init__(self, num_partitions: int, beta: float, radius: int) -> None:
        self.num_partitions = num_partitions
        self.beta = beta
        self.radius = radius
        self.best: List[Tuple[float, str, Node, Optional[Node]]] = []

    def init(self, ctx: NodeContext) -> None:
        for _ in range(self.num_partitions):
            delta = min(
                ctx.rng.expovariate(self.beta), float(self.radius)
            )
            # Tie-break by repr of the center so assignment is a function
            # of (value, center) alone -- consistency makes clusters
            # connected.
            self.best.append((delta, repr(ctx.node), ctx.node, None))
        self._announce(ctx, range(self.num_partitions))

    def receive(self, ctx: NodeContext, messages: List[Message]) -> None:
        improved = set()
        for sender, _, payload in messages:
            i, value, center_repr, center = payload
            offer = (value, center_repr, center, sender)
            if self._better(offer, self.best[i]):
                self.best[i] = offer
                improved.add(i)
        if improved:
            self._announce(ctx, sorted(improved))
        if ctx.round >= self.radius + 1:
            ctx.halt()

    @staticmethod
    def _better(a, b) -> bool:
        """Lexicographic on (value, center-repr); higher value wins."""
        return (a[0], a[1]) > (b[0], b[1])

    def _announce(self, ctx: NodeContext, partitions) -> None:
        for i in partitions:
            value, center_repr, center, _ = self.best[i]
            if value - 1.0 <= 0.0:
                continue  # the decremented offer can never win anywhere
            ctx.broadcast((i, value - 1.0, center_repr, center))

    def output(self):
        return [
            (center, parent, value) for value, _, center, parent in self.best
        ]


class _ShiftFloodFactory:
    """Module-level protocol factory: one fresh protocol per node."""

    def __init__(self, num_partitions: int, beta: float, radius: int) -> None:
        self.num_partitions = num_partitions
        self.beta = beta
        self.radius = radius

    def __call__(self) -> _ShiftFloodProtocol:
        return _ShiftFloodProtocol(self.num_partitions, self.beta, self.radius)


def padded_decomposition(
    g: Graph,
    beta: float = 0.25,
    num_partitions: Optional[int] = None,
    seed: Optional[int] = None,
) -> Tuple[Decomposition, RunStats]:
    """Run the Theorem 11 decomposition on the LOCAL simulator.

    Returns the decomposition plus the engine's round/message statistics.
    ``beta`` trades cluster radius (``O(log n / beta)``) against per-
    partition edge-cut probability (``<= beta``); ``num_partitions``
    defaults to ``ceil(2 * log2 n) + 1``.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    n = g.num_nodes
    if n == 0:
        return (
            Decomposition(0, [], [], [], radius_bound=0, rounds=0),
            RunStats(),
        )
    if num_partitions is None:
        num_partitions = max(1, math.ceil(2 * math.log2(max(n, 2)))) + 1
    radius = max(1, math.ceil(2 * math.log(max(n, 2)) / beta))
    network = SyncNetwork(g, model="LOCAL", seed=seed)
    outputs = network.run(
        _ShiftFloodFactory(num_partitions, beta, radius),
        max_rounds=radius + 4,
    )
    assignment: List[Dict[Node, Node]] = [dict() for _ in range(num_partitions)]
    parent: List[Dict[Node, Optional[Node]]] = [
        dict() for _ in range(num_partitions)
    ]
    depth_maps: List[Dict[Node, int]] = [dict() for _ in range(num_partitions)]
    for v, per_partition in outputs.items():
        for i, (center, par, _value) in enumerate(per_partition):
            assignment[i][v] = center
            parent[i][v] = par
    for i in range(num_partitions):
        depth_maps[i] = _tree_depths(parent[i])
    decomposition = Decomposition(
        num_partitions=num_partitions,
        assignment=assignment,
        parent=parent,
        depth=depth_maps,
        radius_bound=radius,
        rounds=network.stats.rounds,
    )
    return decomposition, network.stats


def _tree_depths(parent: Dict[Node, Optional[Node]]) -> Dict[Node, int]:
    """Depths along parent pointers (centers have depth 0)."""
    depth: Dict[Node, int] = {}

    def resolve(v: Node) -> int:
        if v in depth:
            return depth[v]
        chain = []
        cur = v
        while cur not in depth and parent[cur] is not None:
            chain.append(cur)
            cur = parent[cur]
        base = depth.get(cur, 0)
        if cur not in depth:
            depth[cur] = 0
        for node in reversed(chain):
            base += 1
            depth[node] = base
        return depth[v]

    for v in parent:
        resolve(v)
    return depth


def verify_decomposition(
    g: Graph, decomposition: Decomposition, diameter_bound: Optional[int] = None
) -> List[str]:
    """Check the four Theorem 11 properties; return a list of violations.

    ``diameter_bound`` defaults to twice the construction's radius bound.
    Edge coverage is a whp property -- the caller decides whether a small
    number of uncovered edges is within tolerance; we report them all.
    """
    problems: List[str] = []
    if diameter_bound is None:
        diameter_bound = 2 * decomposition.radius_bound
    nodes = set(g.nodes())
    for i in range(decomposition.num_partitions):
        assigned = decomposition.assignment[i]
        if set(assigned) != nodes:
            problems.append(f"partition {i} does not cover V")
            continue
        groups: Dict[Node, List[Node]] = {}
        for v, c in assigned.items():
            groups.setdefault(c, []).append(v)
        for c, members in groups.items():
            if c not in members:
                problems.append(
                    f"partition {i}: center {c!r} outside its own cluster"
                )
            sub = g.subgraph(members)
            dist = bfs_distances(sub, c)
            if len(dist) != len(members):
                problems.append(
                    f"partition {i}: cluster of {c!r} is disconnected"
                )
                continue
            radius = max(dist.values(), default=0)
            if 2 * radius > diameter_bound:
                problems.append(
                    f"partition {i}: cluster of {c!r} has diameter "
                    f">= {2 * radius} > {diameter_bound}"
                )
    uncovered = [
        (u, v) for u, v in g.edges() if not decomposition.covers_edge(u, v)
    ]
    for u, v in uncovered:
        problems.append(f"edge ({u!r}, {v!r}) covered by no cluster")
    return problems
