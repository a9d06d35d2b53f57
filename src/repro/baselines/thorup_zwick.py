"""The Thorup-Zwick (2k-1)-spanner [TZ05].

The sampling-hierarchy construction behind approximate distance oracles:

1. Sample a hierarchy ``V = A_0 ⊇ A_1 ⊇ ... ⊇ A_{k-1} ⊇ A_k = ∅`` where
   each ``A_i`` keeps every element of ``A_{i-1}`` independently with
   probability ``n^(-1/k)``.
2. For each vertex v and level i, let ``p_i(v)`` be the nearest vertex of
   ``A_i`` and define the *bunch*
   ``B_i(v) = { w in A_i \\ A_{i+1} : d(v, w) < d(v, A_{i+1}) }``.
3. The spanner keeps, for every v, a shortest-path tree edge-set
   realizing ``d(v, w)`` for each ``w`` in its bunch (plus the pivots).

Expected size O(k n^(1+1/k)); stretch 2k - 1.  [CLPR10]'s fault-tolerant
construction is this object with fattened samples and bunches
(:mod:`repro.baselines.chechik`).

Execution: dict only.  The construction is k single-source Dijkstra
sweeps plus bunch assembly -- O(k m + k n log n) with no repeated
fault-set probes to amortize, so the CSR workspace/mask machinery has
nothing to win here (contrast :mod:`repro.baselines.greedy_classic`,
which is on the CSR substrate).

For library purposes the implementation keeps, for each bunch member, the
*first edge* of a shortest v-w path and recurses greedily -- equivalently
we retain the shortest path itself; paths are computed with truncated
Dijkstra runs from each vertex, which is O(n (m + n log n)) worst case
but fast on the sparse workloads used in the experiments.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.core.spanner import FaultModel, SpannerResult
from repro.graph.graph import Graph, Node
from repro.graph.traversal import dijkstra, shortest_path
from repro.registry import register_algorithm

RngLike = Union[int, random.Random, None]

INFINITY = math.inf


@register_algorithm(
    "thorup-zwick",
    summary="The [TZ05] clustering construction (substrate of [CLPR10])",
    guarantee="stretch 2k-1, expected O(k n^(1+1/k)) edges; no fault "
              "tolerance",
    seedable=True,
)
def thorup_zwick_spanner(
    g: Graph, k: int, seed: RngLike = None
) -> SpannerResult:
    """Build a (2k-1)-spanner via the Thorup-Zwick hierarchy.

    Randomized: expected size O(k n^(1+1/k)).  Deterministic given
    ``seed``.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = g.num_nodes
    if n == 0:
        return _result(g.spanning_skeleton(), g, k)
    levels = _sample_hierarchy(sorted(g.nodes(), key=repr), k, n, rng)
    h = g.spanning_skeleton()
    for v in g.nodes():
        _add_bunch_paths(g, h, v, levels, k)
    return _result(h, g, k)


def _sample_hierarchy(
    nodes: List[Node], k: int, n: int, rng: random.Random
) -> List[Set[Node]]:
    """Levels A_0 ⊇ ... ⊇ A_{k-1}; A_k = ∅ is implicit.

    Retries until A_{k-1} is nonempty (standard: otherwise pivots at the
    top level are undefined; the retry probability is constant).
    """
    p = n ** (-1.0 / k)
    for _ in range(64):
        levels = [set(nodes)]
        for _ in range(1, k):
            levels.append({v for v in levels[-1] if rng.random() < p})
        if k == 1 or levels[k - 1]:
            return levels
    # Extremely unlucky stream: force one survivor at the top.
    levels[k - 1] = {nodes[0]}
    for i in range(k - 1, 0, -1):
        levels[i - 1] |= levels[i]
    return levels


def _add_bunch_paths(
    g: Graph, h: Graph, v: Node, levels: List[Set[Node]], k: int
) -> None:
    """Add shortest paths from v to every member of its bunch to ``h``."""
    dist = dijkstra(g, v)
    # d(v, A_{i+1}) for each level; d(v, A_k) = inf.
    next_level_dist: List[float] = []
    for i in range(k):
        if i + 1 < k:
            d = min(
                (dist[w] for w in levels[i + 1] if w in dist),
                default=INFINITY,
            )
        else:
            d = INFINITY
        next_level_dist.append(d)
    targets: Set[Node] = set()
    for i in range(k):
        tier = levels[i] - (levels[i + 1] if i + 1 < k else set())
        for w in tier:
            if w in dist and dist[w] < next_level_dist[i]:
                targets.add(w)
        # The pivot p_i(v) is also connected (it satisfies the strict
        # inequality at its own tier or is v itself); including the
        # nearest A_i vertex explicitly matches [TZ05].
        pivot = _nearest(levels[i], dist)
        if pivot is not None:
            targets.add(pivot)
    for w in targets:
        if w == v:
            continue
        path = shortest_path(g, v, w)
        if path is None:
            continue
        for a, b in zip(path, path[1:]):
            if not h.has_edge(a, b):
                h.add_edge(a, b, weight=g.weight(a, b))


def _nearest(level: Set[Node], dist: Dict[Node, float]) -> Optional[Node]:
    """The closest member of ``level`` under ``dist`` (ties by repr)."""
    best: Optional[Node] = None
    best_d = INFINITY
    for w in level:
        d = dist.get(w, INFINITY)
        if d < best_d or (d == best_d and best is not None and repr(w) < repr(best)):
            best = w
            best_d = d
    return best if best_d < INFINITY else None


def _result(h: Graph, g: Graph, k: int) -> SpannerResult:
    return SpannerResult(
        spanner=h,
        k=k,
        f=0,
        fault_model=FaultModel.VERTEX,
        algorithm="thorup-zwick",
        edges_considered=g.num_edges,
    )
