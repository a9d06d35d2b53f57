"""The Chechik-Langberg-Peleg-Roditty fault-tolerant spanner [CLPR10].

The first fault-tolerant spanner construction for general graphs: modify
Thorup-Zwick by (a) fattening each sampled level so that pivots survive
faults, and (b) connecting each vertex not to single pivots but to the
``f + 1`` nearest members of each level, so that after ``f`` vertex
faults at least one connection survives.

The original construction achieves size ``O~(k f n^(1+1/k))`` -- the
``~ k f`` multiplicative overhead the later work ([DK11], [BDPW18],
[BP19], and this paper) successively improved.  We implement the natural
simplified form:

* sample levels with probability ``(n / (f+1))^(-1/k) ... `` -- in line
  with [CLPR10] the sampling probability is adjusted so each level's
  *surviving* density matches TZ after f faults;
* every vertex stores shortest paths to the ``f + 1`` nearest vertices
  of each level tier (instead of 1), all of which enter the spanner.

This baseline exists to make the experiment E12 comparison three-way
(CLPR10 vs DK11 vs modified greedy); its exact polylog factors are not
load-bearing for any theorem.

Execution: dict only.  One pass of O(k f) Dijkstra sweeps over the full
graph -- O(k f (m + n log n)) -- with no per-fault-set inner loop, so
there is no mask-reuse pattern for the CSR substrate to exploit.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Set, Union

from repro.core.spanner import FaultModel, SpannerResult
from repro.graph.graph import Graph, Node
from repro.graph.traversal import dijkstra, shortest_path
from repro.registry import register_algorithm

RngLike = Union[int, random.Random, None]

INFINITY = math.inf


@register_algorithm(
    "clpr",
    summary="The first FT construction for general graphs [CLPR10]",
    guarantee="stretch 2k-1, ~O(k f n^(1+1/k) polylog) edges",
    fault_models=("vertex",),
    seedable=True,
)
def clpr_fault_tolerant_spanner(
    g: Graph, k: int, f: int, seed: RngLike = None
) -> SpannerResult:
    """Build an f-VFT (2k-1)-spanner in the style of [CLPR10].

    Size ~ O(k f n^(1+1/k) polylog) -- intentionally the *weakest*
    fault-tolerant baseline, predating [DK11] and the greedy line.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if f < 0:
        raise ValueError(f"need f >= 0, got {f}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = g.num_nodes
    h = g.spanning_skeleton()
    if n == 0:
        return _result(h, g, k, f)
    nodes = sorted(g.nodes(), key=repr)
    levels = _sample_levels(nodes, k, n, f, rng)
    fan_out = f + 1
    for v in nodes:
        dist = dijkstra(g, v)
        targets: Set[Node] = set()
        for i in range(k):
            tier = levels[i]
            nxt = levels[i + 1] if i + 1 < k else set()
            # Fault-tolerant pivot distance: how far the (f+1)-th nearest
            # member of the *next* level is; f faults cannot remove all of
            # the f+1 nearest, so some next-level anchor within this radius
            # always survives.
            next_dists = sorted(
                dist[w] for w in nxt if w in dist and w != v
            )
            radius = (
                next_dists[fan_out - 1]
                if len(next_dists) >= fan_out
                else INFINITY
            )
            # Fault-tolerant bunch: every tier member strictly inside the
            # radius, plus the f+1 nearest tier members (the anchors).
            for w in tier - nxt:
                if w in dist and w != v and dist[w] < radius:
                    targets.add(w)
            anchors = sorted(
                (w for w in tier if w in dist and w != v),
                key=lambda w: (dist[w], repr(w)),
            )[:fan_out]
            targets.update(anchors)
        for w in targets:
            path = shortest_path(g, v, w)
            if path is None:
                continue
            for a, b in zip(path, path[1:]):
                if not h.has_edge(a, b):
                    h.add_edge(a, b, weight=g.weight(a, b))
    return _result(h, g, k, f)


def _sample_levels(
    nodes: List[Node], k: int, n: int, f: int, rng: random.Random
) -> List[Set[Node]]:
    """Nested levels A_0 ⊇ ... ⊇ A_{k-1}, fattened for f faults.

    Per-level survival probability ``((f + 1) / n)^(1/k) * (f + 1)^(...)``
    is approximated by ``(n / (f + 1))^(-1/k)``: each successive level
    thins by that factor, leaving ~ (f+1) expected vertices at the top
    so the f+1-redundant anchoring works at every level.
    """
    thin = (max(n, 2) / (f + 1)) ** (-1.0 / k) if n > f + 1 else 1.0
    for _ in range(64):
        levels = [set(nodes)]
        for _ in range(1, k):
            levels.append({v for v in levels[-1] if rng.random() < thin})
        if k == 1 or levels[k - 1]:
            return levels
    levels[k - 1] = set(nodes[: f + 1])
    for i in range(k - 1, 0, -1):
        levels[i - 1] |= levels[i]
    return levels


def _result(h: Graph, g: Graph, k: int, f: int) -> SpannerResult:
    return SpannerResult(
        spanner=h,
        k=k,
        f=f,
        fault_model=FaultModel.VERTEX,
        algorithm="clpr",
        edges_considered=g.num_edges,
    )
