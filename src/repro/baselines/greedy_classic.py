"""The classic [ADD+93] greedy (2k-1)-spanner.

For each edge {u, v} in nondecreasing weight order: add it to H unless H
already contains a path of weight at most (2k - 1) * w(u, v) between u
and v.  Output has girth > 2k, hence < n^(1+1/k) + n edges by the Moore
bound, and is a (2k-1)-spanner.

This is simultaneously:

* the f = 0 special case of every fault-tolerant greedy in the paper
  (footnote 1: the fault-free LBC test degenerates to "is there already a
  short path?"), and
* the optimal-size non-fault-tolerant baseline for the experiments.

Execution: the growing spanner is mirrored into a
:class:`~repro.graph.csr.CSRBuilder` and the per-edge "already short
enough?" probe is a truncated CSR Dijkstra through one shared
:class:`~repro.graph.traversal.DijkstraWorkspace` -- the same substrate
the fault-tolerant greedy family runs on, which makes cross-algorithm
benchmark timings comparable.  The dict-Dijkstra reference in
``tests/reference/`` produces the identical spanner.
"""

from __future__ import annotations

from repro.core.spanner import FaultModel, SpannerResult
from repro.graph.csr import CSRBuilder
from repro.graph.graph import Graph
from repro.graph.index import NodeIndexer
from repro.registry import register_algorithm
from repro.graph.traversal import DijkstraWorkspace, csr_weighted_distance


@register_algorithm(
    "classic",
    summary="The [ADD+93] greedy: the f=0 ancestor of the whole line",
    guarantee="stretch 2k-1, O(n^(1+1/k)) edges; no fault tolerance",
)
def classic_greedy_spanner(g: Graph, k: int) -> SpannerResult:
    """Build the [ADD+93] greedy (2k-1)-spanner of ``g``.

    Works for weighted and unweighted graphs; runs in O(m * (m' + n log n))
    where m' is the spanner size (one truncated Dijkstra per edge).
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    t = 2 * k - 1
    h = g.spanning_skeleton()
    considered = 0
    indexer = NodeIndexer.from_graph(g)
    index = indexer.index
    builder = CSRBuilder(len(indexer))
    workspace = DijkstraWorkspace(len(indexer))
    for u, v, w in sorted(g.weighted_edges(), key=lambda item: item[2]):
        considered += 1
        budget = t * w
        d = csr_weighted_distance(
            builder, index(u), index(v), max_dist=budget, workspace=workspace,
        )
        if d > budget:
            h.add_edge(u, v, weight=w)
            builder.add_edge(index(u), index(v), w)
    return SpannerResult(
        spanner=h,
        k=k,
        f=0,
        fault_model=FaultModel.VERTEX,
        algorithm="classic-greedy",
        edges_considered=considered,
    )
