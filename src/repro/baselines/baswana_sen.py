"""The Baswana-Sen randomized (2k-1)-spanner [BS07] (centralized form).

The classic cluster-growing construction, here in its sequential form;
:mod:`repro.distributed.congest_bs` implements the same logic as a
node-local CONGEST protocol (Theorem 14).

Phase 1 (k - 1 rounds): maintain a clustering, initially every vertex a
singleton cluster.  Each round, cluster centers survive independently
with probability ``n^(-1/k)``.  A vertex v adjacent to a surviving
cluster joins the one offering its lightest connecting edge (adding that
edge to the spanner); a vertex adjacent to no surviving cluster adds its
lightest edge to *every* adjacent (old) cluster and leaves the clustering.

Phase 2: every vertex still clustered adds its lightest edge to each
adjacent cluster of the final clustering.

Expected size O(k n^(1+1/k)); stretch 2k - 1 for weighted graphs.

Execution: the k - 1 clustering rounds touch every edge a constant
number of times each -- O(k m) total, no shortest-path probes -- so the
fold onto the CSR substrate is about the *clustering state*, not
traversal kernels.  The logic runs over integer node indices: center
assignments live in a flat list, per-vertex live-edge sets are built
from the frozen CSR rows (which preserve dict neighbor order), and the
label-keyed formulation's ``repr``-based tie-breaks and center-sampling
order are reproduced through one precomputed repr-rank permutation.
The label-keyed dict reference in ``tests/reference/`` therefore
consumes the identical RNG stream and emits the identical spanner, edge
for edge, in the identical insertion order (asserted by the parity
suite).
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple, Union

from repro.core.spanner import FaultModel, SpannerResult
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.graph.index import NodeIndexer
from repro.registry import register_algorithm

RngLike = Union[int, random.Random, None]


@register_algorithm(
    "baswana-sen",
    summary="The [BS07] randomized clustering spanner (centralized form)",
    guarantee="stretch 2k-1, expected O(k n^(1+1/k)) edges; no fault "
              "tolerance",
    seedable=True,
)
def baswana_sen_spanner(
    g: Graph, k: int, seed: RngLike = None
) -> SpannerResult:
    """Build a (2k-1)-spanner of (possibly weighted) ``g`` per [BS07].

    Runs over integer node indices: every structure lives in a flat
    list keyed by CSR node index; the one non-trivial bridge is
    ``rank``, the permutation sorting indices by their labels' ``repr``
    -- comparing ``(w, rank[u])`` is the ``(w, repr(u))`` tie-break, and
    sorting centers by rank fixes the center-sampling order, so the RNG
    stream matches the label-keyed formulation draw for draw.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = g.num_nodes
    h = g.spanning_skeleton()
    if n == 0:
        return _result(h, g, k)
    indexer = NodeIndexer.from_graph(g)
    csr = CSRGraph.from_graph(g, indexer=indexer)
    node_of = indexer.node
    rank = [0] * n
    order = sorted(range(n), key=lambda i: repr(node_of(i)))
    for r, i in enumerate(order):
        rank[i] = r

    NONE = -1  # a vertex that has left the clustering
    center = list(range(n))
    # live[v]: unresolved incident edges, in CSR row order -- which is
    # the graph's neighbor insertion order, so the per-cluster
    # "first encountered" bookkeeping below matches it exactly.
    live = [
        dict(zip(csr.neighbors[v], csr.weight_rows[v])) for v in range(n)
    ]
    p = n ** (-1.0 / k)

    for _ in range(k - 1):
        centers = sorted({c for c in center if c != NONE}, key=rank.__getitem__)
        survivors = {c for c in centers if rng.random() < p}
        new_center = [NONE] * n
        for v in range(n):
            c = center[v]
            if c == NONE:
                continue
            if c in survivors:
                new_center[v] = c
                continue
            best = _lightest_by_index(live[v], center, rank)
            surviving_best: Optional[Tuple[float, int, int, int]] = None
            for cluster, (w, ru, u) in best.items():
                if cluster in survivors:
                    if surviving_best is None or (w, ru) < surviving_best[:2]:
                        surviving_best = (w, ru, u, cluster)
            if surviving_best is not None:
                # Join the surviving cluster with the lightest edge.
                join_weight, _, u, cluster = surviving_best
                h.add_edge(node_of(v), node_of(u), weight=live[v][u])
                new_center[v] = cluster
                # [BS07] join rule: also connect to every adjacent cluster
                # whose lightest edge is strictly lighter than the joining
                # edge (these clusters would otherwise offer shortcuts the
                # stretch argument needs), then drop edges into the joined
                # and the connected clusters.
                resolved = {cluster}
                for other, (w, rx, x) in best.items():
                    if other != cluster and w < join_weight:
                        h.add_edge(node_of(v), node_of(x), weight=live[v][x])
                        resolved.add(other)
                live[v] = {
                    x: w
                    for x, w in live[v].items()
                    if center[x] not in resolved
                }
            else:
                # No adjacent surviving cluster: connect to every adjacent
                # old cluster with its lightest edge, then leave.
                for cluster, (w, ru, u) in best.items():
                    h.add_edge(node_of(v), node_of(u), weight=live[v][u])
                live[v] = {}
        center = new_center

    # Phase 2: lightest edge to each adjacent final cluster.
    for v in range(n):
        if center[v] == NONE:
            continue
        incident = dict(zip(csr.neighbors[v], csr.weight_rows[v]))
        best = _lightest_by_index(incident, center, rank)
        for cluster, (w, ru, u) in best.items():
            if cluster == center[v]:
                continue
            h.add_edge(node_of(v), node_of(u), weight=w)
    return _result(h, g, k)


def _lightest_by_index(
    incident: Dict[int, float], center, rank
) -> Dict[int, Tuple[float, int, int]]:
    """For each adjacent cluster: (weight, rank, endpoint) of the lightest
    incident edge, ties broken by endpoint rank (``repr`` order)."""
    best: Dict[int, Tuple[float, int, int]] = {}
    for u, w in incident.items():
        c = center[u]
        if c == -1:
            continue
        cur = best.get(c)
        if cur is None or (w, rank[u]) < cur[:2]:
            best[c] = (w, rank[u], u)
    return best


def _result(h: Graph, g: Graph, k: int) -> SpannerResult:
    return SpannerResult(
        spanner=h,
        k=k,
        f=0,
        fault_model=FaultModel.VERTEX,
        algorithm="baswana-sen",
        edges_considered=g.num_edges,
    )
