"""Algorithm 1: the exponential-time greedy of [BDPW18, BP19].

For each edge ``{u, v}`` in nondecreasing weight order, add it to ``H``
iff there exists a fault set ``F`` (``|F| <= f``) such that
``d_{H \\ F}(u, v) > (2k - 1) * w(u, v)``.  The existence test is NP-hard,
so this construction is exponential in ``f`` -- but its output meets the
*optimal* size bound ``O(f^(1-1/k) n^(1+1/k))`` [BP19], which makes it the
reference baseline for experiment E8 (the optimality gap of the
polynomial-time modified greedy).

Implementation notes
--------------------
* For unweighted graphs the condition simplifies (Lemma 3) to "some F with
  |F| <= f makes the hop distance exceed 2k - 1", which is exactly an
  existence query for a vertex/edge length-bounded cut -- answered by the
  branch-and-bound solver in :mod:`repro.lbc.exact`.
* For weighted graphs the condition is the weighted distance exceeding
  ``(2k - 1) w(u, v)``.  We enumerate fault sets with the same
  branch-on-a-violating-path strategy, but paths are weighted shortest
  paths truncated at the stretch budget.

The cut search runs over a growing flat-array spanner: unit-weighted
inputs use hop-bounded BFS with a shared :class:`BFSWorkspace` (exactly
like the modified greedy), weighted inputs use truncated Dijkstra with a
shared :class:`DijkstraWorkspace` and generation-stamped fault masks in
place of per-candidate fault views.  The dict reference construction in
``tests/reference/`` (fault views plus dict Dijkstra) yields identical
spanners and certificates.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Union

from repro.core.spanner import FaultModel, SpannerResult
from repro.graph.csr import CSRBuilder
from repro.graph.graph import Graph, edge_key
from repro.graph.index import NodeIndexer
from repro.graph.traversal import (
    BFSWorkspace,
    DijkstraWorkspace,
    csr_bounded_dijkstra_path,
    csr_bounded_dijkstra_path_edges,
)
from repro.registry import register_algorithm
from repro.lbc.exact import exact_edge_lbc_csr, exact_vertex_lbc_csr


@register_algorithm(
    "exact-greedy",
    summary="Algorithm 1: the size-optimal exponential-time greedy",
    guarantee="stretch 2k-1, optimal size [BDPW18, BP19]; exp time in f",
    fault_models=("vertex", "edge"),
)
def exponential_greedy_spanner(
    g: Graph,
    k: int,
    f: int,
    fault_model: Union[FaultModel, str] = FaultModel.VERTEX,
) -> SpannerResult:
    """Run Algorithm 1 and return the (size-optimal) greedy FT spanner.

    Warning: worst-case exponential in ``f``; intended for n up to a few
    dozen and f up to ~3.  Use
    :func:`repro.core.greedy_modified.fault_tolerant_spanner` for anything
    larger.
    """
    model = FaultModel.coerce(fault_model)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if f < 0:
        raise ValueError(f"need f >= 0, got {f}")
    t = 2 * k - 1
    h = g.spanning_skeleton()
    certificates = {}
    considered = 0
    unit = g.is_unit_weighted()
    indexer = NodeIndexer.from_graph(g)
    index = indexer.index
    builder = CSRBuilder(len(indexer))
    if unit:
        workspace = BFSWorkspace(len(indexer))
    else:
        dworkspace = DijkstraWorkspace(len(indexer))

    edges = sorted(g.weighted_edges(), key=lambda e: e[2])
    for u, v, w in edges:
        considered += 1
        if unit:
            cut = _csr_violating_fault_set(
                builder, index(u), index(v), t, f, model, workspace, indexer
            )
        else:
            cut = _csr_weighted_violating_fault_set(
                builder, index(u), index(v), t * w, f, model, dworkspace,
                indexer,
            )
        if cut is not None:
            h.add_edge(u, v, weight=w)
            builder.add_edge(index(u), index(v), w)
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


def _csr_violating_fault_set(
    builder: CSRBuilder,
    ui: int,
    vi: int,
    t: int,
    f: int,
    model: FaultModel,
    workspace: BFSWorkspace,
    indexer: NodeIndexer,
) -> Optional[FrozenSet]:
    """A fault set F, |F| <= f, with hop distance > t in H, or None.

    Unit weights only: Lemma 3 reduces the condition to a length-bounded
    cut.  Runs the exact LBC search on indices, then translates the cut
    back to node objects / canonical edge tuples.  The empty set counts:
    if u and v are already too far apart in H (e.g. disconnected), the
    edge must be added.
    """
    if model is FaultModel.VERTEX:
        cut = exact_vertex_lbc_csr(
            builder, ui, vi, t, max_size=f, workspace=workspace
        )
        if cut is None:
            return None
        return frozenset(indexer.node(i) for i in cut)
    cut = exact_edge_lbc_csr(
        builder, ui, vi, t, max_size=f, workspace=workspace
    )
    if cut is None:
        return None
    node = indexer.node
    edge_u, edge_v = builder.edge_u, builder.edge_v
    return frozenset(
        edge_key(node(edge_u[e]), node(edge_v[e])) for e in cut
    )


def _csr_weighted_violating_fault_set(
    builder: CSRBuilder,
    ui: int,
    vi: int,
    budget: float,
    f: int,
    model: FaultModel,
    workspace: DijkstraWorkspace,
    indexer: NodeIndexer,
) -> Optional[FrozenSet]:
    """Branch-and-bound: find F (|F| <= f) with weighted d > budget.

    Branches on the interior vertices (vertex model) or edges (edge
    model) of a currently-too-short path; any violating F must hit
    every path of weight <= budget, in particular the one found, so the
    search is complete for the same reason as the LBC exact solver.
    The "remove F and re-probe" step is a mask re-stamp (O(|F|),
    |F| <= f) plus a truncated CSR Dijkstra.  The fault stack and both
    masks live in ``workspace``, so the whole exponential search
    allocates nothing but the heaps and found paths.  Cuts are
    translated back to node objects / canonical edge tuples.
    """
    faults: List[int] = []
    found: List[Optional[FrozenSet]] = [None]
    if model is FaultModel.VERTEX:
        mask = workspace.vertex_mask
        mask.ensure(builder.num_nodes)

        def probe() -> Optional[List[int]]:
            mask.clear()
            mask.add_all(faults)
            return csr_bounded_dijkstra_path(
                builder, ui, vi, max_dist=budget, workspace=workspace,
                vertex_mask=mask,
            )

        def search(remaining: int) -> None:
            path = probe()
            if path is None:
                found[0] = frozenset(
                    indexer.node(i) for i in faults
                )
                return
            interior = path[1:-1]
            if not interior or remaining == 0:
                return
            for x in interior:
                faults.append(x)
                search(remaining - 1)
                faults.pop()
                if found[0] is not None:
                    return

        search(f)
        return found[0]

    mask = workspace.edge_mask
    mask.ensure(builder.num_edges)
    node = indexer.node
    edge_u, edge_v = builder.edge_u, builder.edge_v

    def probe_edges() -> Optional[List[int]]:
        mask.clear()
        mask.add_all(faults)
        result = csr_bounded_dijkstra_path_edges(
            builder, ui, vi, max_dist=budget, workspace=workspace,
            edge_mask=mask,
        )
        return None if result is None else result[1]

    def search_edges(remaining: int) -> None:
        eids = probe_edges()
        if eids is None:
            found[0] = frozenset(
                edge_key(node(edge_u[e]), node(edge_v[e])) for e in faults
            )
            return
        if remaining == 0:
            return
        for e in eids:
            faults.append(e)
            search_edges(remaining - 1)
            faults.pop()
            if found[0] is not None:
                return

    search_edges(f)
    return found[0]

