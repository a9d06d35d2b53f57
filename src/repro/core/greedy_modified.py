"""Algorithms 3 and 4: the paper's polynomial-time modified greedy.

This is the headline contribution.  The exponential "does a small fault
set exist?" test of Algorithm 1 is replaced by the LBC(t, alpha) gap
decision (Algorithm 2) with ``t = 2k - 1`` and ``alpha = f``:

* **Algorithm 3 (unweighted):** iterate over the edges in any order; add
  ``{u, v}`` to ``H`` iff LBC(2k-1, f) answers YES on the current ``H``
  with terminals u, v.  Output: an f-fault-tolerant (2k-1)-spanner with
  ``O(k f^(1-1/k) n^(1+1/k))`` edges (Theorems 5 and 8) in
  ``O(m k f^(2-1/k) n^(1+1/k))`` time (Theorem 9).

* **Algorithm 4 (weighted):** sort the edges by nondecreasing weight, then
  run the *unweighted* loop in that order, ignoring weights entirely.
  Theorem 10 shows the result is nevertheless a valid weighted f-FT
  (2k-1)-spanner of the same size: any pair that the LBC test declined has
  a surviving <= (2k-1)-hop path in H whose edges were all considered
  earlier, hence all have weight <= w(u, v).

Both fault models (vertex / edge) are supported through the corresponding
LBC variant -- the "trivial change" the paper describes.

Execution
---------
The spanner under construction is mirrored into a growing
:class:`~repro.graph.csr.CSRBuilder`; all LBC tests run on flat arrays
with one shared :class:`~repro.graph.traversal.BFSWorkspace` and fault
masks, so the m-edge loop makes zero per-BFS allocations.  At ``k = 2``
(t = 3) no LBC test runs a BFS at all: each search is a two-hop meet at
the target that finds the BFS's path (see :mod:`repro.lbc.approx`), and
``bfs_calls`` still counts one per search.  An edge with
an endpoint of H-degree <= f is kept without any LBC run: that
endpoint's neighbourhood is a cut of size <= f, so Theorem 4 forces the
YES answer (see ``_greedy_loop``).  The dict
reference construction in ``tests/reference/`` examines the identical
candidate order and finds identical BFS paths, so the parity suite
(`tests/test_backend_parity.py`) asserts identical spanners,
certificates, and BFS counts.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.spanner import FaultModel, SpannerResult
from repro.graph.csr import CSRBuilder
from repro.graph.graph import Graph, Node, edge_key
from repro.graph.index import NodeIndexer
from repro.graph.traversal import BFSWorkspace
from repro.registry import register_algorithm
from repro.lbc.approx import LBCAnswer, lbc_edge_csr, lbc_vertex_csr

EdgeOrder = Union[str, Sequence[Tuple[Node, Node]]]

_ORDERINGS = ("weight", "arbitrary", "random", "degree")


@register_algorithm(
    "greedy",
    summary="The paper's modified greedy (Algorithms 3/4, Theorem 2)",
    guarantee="stretch 2k-1, O(k f^(1-1/k) n^(1+1/k)) edges, poly time",
    fault_models=("vertex", "edge"),
)
def fault_tolerant_spanner(
    g: Graph,
    k: int,
    f: int,
    fault_model: Union[FaultModel, str] = FaultModel.VERTEX,
    seed: Optional[int] = None,
) -> SpannerResult:
    """Build an f-fault-tolerant (2k-1)-spanner of ``g`` in polynomial time.

    This is the library's main entry point (the paper's Theorem 2).  It
    dispatches to Algorithm 4 when ``g`` carries non-unit weights and to
    Algorithm 3 otherwise; the two only differ in edge ordering.

    Parameters
    ----------
    g:
        The input graph (weighted or unweighted).
    k:
        Stretch parameter; the spanner preserves distances within
        ``2k - 1`` under any ``f`` faults.
    f:
        Number of simultaneous faults to tolerate (``f = 0`` degrades to
        the classic [ADD+93] greedy behavior).
    fault_model:
        ``'vertex'`` (default) or ``'edge'``.
    seed:
        Unused by the deterministic weight ordering; accepted for API
        uniformity with the randomized constructions.

    Returns
    -------
    SpannerResult
        With per-edge cut certificates (Lemma 6) and BFS-call counts.
    """
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
    """Algorithm 3 on an unweighted graph, with a pluggable edge order.

    Theorem 8's size bound holds for *any* edge order, which experiment
    E14 verifies empirically; ``order`` may be ``'arbitrary'`` (insertion
    order), ``'random'`` (shuffled with ``seed``), ``'degree'``
    (max-endpoint-degree first), ``'weight'`` (nondecreasing weight,
    which on a unit-weighted graph equals insertion order), or an explicit
    sequence of edges.
    """
    _validate_params(k, f)
    model = FaultModel.coerce(fault_model)
    edges = _ordered_edges(g, order, seed)
    return _greedy_loop(g, edges, k, f, model, algorithm="modified-greedy")


def modified_greedy_weighted(
    g: Graph,
    k: int,
    f: int,
    fault_model: Union[FaultModel, str] = FaultModel.VERTEX,
) -> SpannerResult:
    """Algorithm 4: nondecreasing-weight order, unweighted LBC test."""
    _validate_params(k, f)
    model = FaultModel.coerce(fault_model)
    edges = _ordered_edges(g, "weight", seed=None)
    return _greedy_loop(
        g, edges, k, f, model, algorithm="modified-greedy-weighted"
    )


def _greedy_loop(
    g: Graph,
    edges: List[Tuple[Node, Node]],
    k: int,
    f: int,
    model: FaultModel,
    algorithm: str,
) -> SpannerResult:
    """The shared greedy loop of Algorithms 3 and 4.

    For each candidate edge, run LBC(2k-1, f) on the *current* spanner H.
    YES means some fault set can push the endpoints too far apart in H, so
    the edge is needed; its certificate cut is retained for the blocking
    set.  NO means every fault set of size <= f leaves a short path, so
    the edge is redundant.

    Forced YES: the candidate edge is never in H, so when an endpoint
    (u first, then v) has at most f H-neighbours, faulting all of them
    (vertex model) or all its incident H-edges (edge model) isolates it
    -- a length-t cut of size <= f, on which Theorem 4 guarantees LBC
    answers YES.  Such an edge is kept without running LBC, with that
    cut as its certificate (Lemma 6 needs only a cut), so the spanner is
    the one an LBC run on every edge builds; ``extra['degree_shortcuts']``
    counts these edges.  The test reads the length of one adjacency row.

    The growing H is mirrored into a :class:`~repro.graph.csr.CSRBuilder`
    built once for the whole run: the node indexer, adjacency chunks, BFS
    workspace, and fault masks are all shared across the ``m * (f + 1)``
    searches.  The dict ``Graph`` H is still maintained (cheaply
    -- it only mutates on kept edges): it is the returned spanner.
    """
    t = 2 * k - 1
    h = g.spanning_skeleton()
    certificates = {}
    bfs_calls = 0
    lbc_calls = 0
    indexer = NodeIndexer.from_graph(g)
    index, node = indexer.index, indexer.node
    builder = CSRBuilder(len(indexer))
    rows = builder.neighbors
    # H never holds more than g's m edges: size the edge mask once.
    workspace = BFSWorkspace(len(indexer), g.num_edges)
    vertex = model is FaultModel.VERTEX
    # Looked up in the module namespace on every build, so a caller that
    # wraps these names (a tracer) sees every LBC call.
    decide = lbc_vertex_csr if vertex else lbc_edge_csr

    def isolating_cut(end: Node, row: List[int]) -> frozenset:
        if vertex:
            return frozenset(map(node, row))
        return frozenset(edge_key(end, node(x)) for x in row)

    for u, v in edges:
        iu, iv = index(u), index(v)
        if len(rows[iu]) <= f:
            cut = isolating_cut(u, rows[iu])
        elif len(rows[iv]) <= f:
            cut = isolating_cut(v, rows[iv])
        else:
            lbc_calls += 1
            result = decide(builder, iu, iv, t, f, workspace, indexer)
            bfs_calls += result.iterations
            if result.answer is not LBCAnswer.YES:
                continue
            cut = result.cut
        w = g.weight(u, v)
        h.add_edge(u, v, weight=w)
        builder.add_edge(iu, iv, w)
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


def _ordered_edges(
    g: Graph, order: EdgeOrder, seed: Optional[int]
) -> List[Tuple[Node, Node]]:
    """Materialize the candidate edge sequence for the greedy loop."""
    if isinstance(order, str):
        if order == "arbitrary":
            return list(g.edges())
        if order == "weight":
            return [
                (u, v)
                for u, v, _ in sorted(
                    g.weighted_edges(), key=lambda item: item[2]
                )
            ]
        if order == "random":
            edges = list(g.edges())
            random.Random(seed).shuffle(edges)
            return edges
        if order == "degree":
            return sorted(
                g.edges(),
                key=lambda e: -(max(g.degree(e[0]), g.degree(e[1]))),
            )
        raise ValueError(
            f"unknown order {order!r}; expected one of {_ORDERINGS} "
            "or an explicit edge sequence"
        )
    explicit = [edge_key(u, v) for u, v in order]
    missing = [e for e in explicit if not g.has_edge(*e)]
    if missing:
        raise ValueError(f"explicit order contains non-edges: {missing[:3]}")
    if len(explicit) != g.num_edges or len(set(explicit)) != g.num_edges:
        raise ValueError(
            "explicit order must cover every edge exactly once "
            f"(got {len(explicit)} entries, {len(set(explicit))} distinct, "
            f"of {g.num_edges})"
        )
    return explicit


def _validate_params(k: int, f: int) -> None:
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if f < 0:
        raise ValueError(f"need f >= 0, got {f}")
