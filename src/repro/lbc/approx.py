"""Algorithm 2: the gap-decision approximation for Length-Bounded Cut.

Faithful transcription of the paper's Algorithm 2.  Starting from an empty
fault set ``F``, repeat ``alpha + 1`` times: find (by hop-bounded BFS) a
path of at most ``t`` hops between the terminals in ``G \\ F``; if none
exists answer YES, otherwise add the path's interior vertices (vertex
version) or its edges (edge version) to ``F``.  If all ``alpha + 1``
iterations find a path, answer NO.

Correctness (the paper's Theorem 4):

* If a length-t cut ``F*`` with ``|F*| <= alpha`` exists, every removed
  path intersects ``F*``, so after at most ``alpha`` removals no length-t
  path remains -> YES.
* If every length-t cut has size > ``alpha * t``, then the accumulated
  ``F`` (at most ``t`` elements per iteration, so at most ``alpha * t``
  after ``alpha`` iterations) is never a cut -> a path exists in every
  iteration -> NO.

Running time: O((m + n) * alpha).

The YES answer also carries the accumulated fault set ``F`` as a
*certificate*: ``F`` is an actual length-t cut of size at most
``alpha * t`` (this is exactly the set ``F_e`` used to build the blocking
set in Lemma 6, so the greedy algorithms keep it).

Two execution paths implement the identical loop:

* :func:`lbc_vertex` / :func:`lbc_edge` -- the dict path, working on a
  ``Graph`` (or any ``GraphView``) with per-iteration fault views.
* :func:`lbc_vertex_csr` / :func:`lbc_edge_csr` -- the CSR fast path,
  taking a :class:`~repro.graph.csr.CSRGraph`/``CSRBuilder``, a reusable
  :class:`~repro.graph.traversal.BFSWorkspace`, and stamping faults into
  the workspace's :class:`~repro.graph.csr.FaultMask` instead of building
  views.  Results are translated back through a
  :class:`~repro.graph.index.NodeIndexer`, so the returned
  :class:`LBCResult` is indistinguishable from the dict path's (both
  find the same BFS paths, hence the same cuts and answers).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Set, Tuple, Union

from repro.graph.csr import CSRLike
from repro.graph.graph import Edge, Graph, Node, edge_key
from repro.graph.index import NodeIndexer
from repro.graph.traversal import (
    BFSWorkspace,
    _csr_path,
    _csr_path_edges,
    _csr_search,
    bounded_bfs_path,
)
from repro.graph.views import EdgeFaultView, GraphView, VertexFaultView


class LBCAnswer(enum.Enum):
    """The two answers of the gap decision problem."""

    YES = "yes"  # a length-t cut of size <= alpha exists (or may exist)
    NO = "no"  # no length-t cut of size <= alpha exists (certainly)


@dataclass(frozen=True)
class LBCResult:
    """Outcome of one LBC(t, alpha) run.

    Attributes
    ----------
    answer:
        YES or NO per the gap-decision contract.
    cut:
        On YES: the accumulated fault set, which is a genuine length-t cut
        of size at most ``alpha * t`` (vertices or canonical edge tuples
        depending on the variant).  On NO: the accumulated set is *not* a
        cut; it is still reported for diagnostics.
    paths:
        The hop-bounded paths removed in successive iterations (node
        sequences).  ``len(paths)`` equals the number of BFS calls that
        found a path.
    iterations:
        Total BFS invocations performed (including the final one that
        found no path, when the answer is YES).
    """

    answer: LBCAnswer
    cut: FrozenSet
    paths: Tuple[Tuple[Node, ...], ...]
    iterations: int

    @property
    def is_yes(self) -> bool:
        """Convenience: whether the answer is YES."""
        return self.answer is LBCAnswer.YES


def lbc_vertex(
    g: Union[Graph, GraphView],
    source: Node,
    target: Node,
    t: int,
    alpha: int,
) -> LBCResult:
    """Vertex-cut LBC(t, alpha) on ``g`` with terminals ``source, target``.

    Returns YES iff the iterated-BFS procedure certifies that some vertex
    set ``F`` (excluding the terminals) of size at most ``alpha * t`` has
    ``d_{g \\ F}(source, target) > t``; guaranteed YES when a cut of size
    <= alpha exists and guaranteed NO when none of size <= alpha * t does.

    When the terminals are adjacent in ``g`` the answer is immediately NO:
    the direct edge survives every interior-vertex removal, so no vertex
    length-t cut exists at all.  (The paper's greedy only queries pairs
    whose edge is absent from ``H``, so it never hits this case.)
    """
    _validate(g, source, target, t, alpha)
    faults: Set[Node] = set()
    removed_paths: List[Tuple[Node, ...]] = []
    for iteration in range(1, alpha + 2):
        view = VertexFaultView(g, faults) if faults else g
        path = bounded_bfs_path(view, source, target, max_hops=t)
        if path is None:
            return LBCResult(
                answer=LBCAnswer.YES,
                cut=frozenset(faults),
                paths=tuple(removed_paths),
                iterations=iteration,
            )
        if len(path) == 2:
            # Direct edge: un-cuttable by vertex faults, so certainly NO.
            return LBCResult(
                answer=LBCAnswer.NO,
                cut=frozenset(faults),
                paths=tuple(removed_paths) + (tuple(path),),
                iterations=iteration,
            )
        removed_paths.append(tuple(path))
        faults.update(path[1:-1])  # interior vertices only (P \ {u, v})
    return LBCResult(
        answer=LBCAnswer.NO,
        cut=frozenset(faults),
        paths=tuple(removed_paths),
        iterations=alpha + 1,
    )


def lbc_edge(
    g: Union[Graph, GraphView],
    source: Node,
    target: Node,
    t: int,
    alpha: int,
) -> LBCResult:
    """Edge-cut LBC(t, alpha): identical loop, faulting path *edges*.

    This is the paper's "trivial change" for edge fault-tolerance: ``F``
    is an edge set and each iteration adds every edge of the found path.
    """
    _validate(g, source, target, t, alpha)
    faults: Set[Edge] = set()
    removed_paths: List[Tuple[Node, ...]] = []
    for iteration in range(1, alpha + 2):
        view = EdgeFaultView(g, faults) if faults else g
        path = bounded_bfs_path(view, source, target, max_hops=t)
        if path is None:
            return LBCResult(
                answer=LBCAnswer.YES,
                cut=frozenset(faults),
                paths=tuple(removed_paths),
                iterations=iteration,
            )
        removed_paths.append(tuple(path))
        faults.update(
            edge_key(path[i], path[i + 1]) for i in range(len(path) - 1)
        )
    return LBCResult(
        answer=LBCAnswer.NO,
        cut=frozenset(faults),
        paths=tuple(removed_paths),
        iterations=alpha + 1,
    )


def lbc_decide(
    g: Union[Graph, GraphView],
    source: Node,
    target: Node,
    t: int,
    alpha: int,
    fault_model: str = "vertex",
) -> LBCResult:
    """Dispatch to :func:`lbc_vertex` or :func:`lbc_edge` by name.

    ``fault_model`` is ``"vertex"`` or ``"edge"`` -- the same switch the
    spanner construction API exposes.
    """
    if fault_model == "vertex":
        return lbc_vertex(g, source, target, t, alpha)
    if fault_model == "edge":
        return lbc_edge(g, source, target, t, alpha)
    raise ValueError(f"unknown fault model {fault_model!r}")


def _validate(g, source: Node, target: Node, t: int, alpha: int) -> None:
    """Shared argument validation for the LBC entry points."""
    if t < 1:
        raise ValueError(f"hop bound t must be >= 1, got {t}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if source == target:
        raise ValueError("terminals must be distinct")
    if not g.has_node(source):
        raise KeyError(f"source {source!r} not in graph")
    if not g.has_node(target):
        raise KeyError(f"target {target!r} not in graph")


# --------------------------------------------------------------------- #
# CSR fast path
# --------------------------------------------------------------------- #


def _validate_csr(
    csr: CSRLike, source: int, target: int, t: int, alpha: int
) -> None:
    """Index-level twin of :func:`_validate`."""
    if t < 1:
        raise ValueError(f"hop bound t must be >= 1, got {t}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if source == target:
        raise ValueError("terminals must be distinct")
    n = csr.num_nodes
    if not 0 <= source < n:
        raise KeyError(f"source index {source} not in graph")
    if not 0 <= target < n:
        raise KeyError(f"target index {target} not in graph")


def _translate_paths(
    removed: List[List[int]], indexer: Optional[NodeIndexer]
) -> Tuple[Tuple[Node, ...], ...]:
    """Index paths -> node-object paths (identity when no indexer)."""
    if indexer is None:
        return tuple(tuple(p) for p in removed)
    node = indexer.node
    return tuple(tuple(node(i) for i in p) for p in removed)


def lbc_vertex_csr(
    csr: CSRLike,
    source: int,
    target: int,
    t: int,
    alpha: int,
    workspace: Optional[BFSWorkspace] = None,
    indexer: Optional[NodeIndexer] = None,
) -> LBCResult:
    """Vertex-cut LBC(t, alpha) on a CSR graph: the zero-allocation twin
    of :func:`lbc_vertex`.

    ``source`` / ``target`` are node *indices*; the accumulated fault set
    lives in ``workspace.vertex_mask`` (cleared on entry), so no views or
    frozensets are built during the loop.  When ``indexer`` is given the
    returned :class:`LBCResult` reports node objects (identical to what
    :func:`lbc_vertex` on the equivalent dict graph returns); otherwise it
    reports raw indices.
    """
    _validate_csr(csr, source, target, t, alpha)
    ws = workspace if workspace is not None else BFSWorkspace(
        csr.num_nodes, csr.num_edges
    )
    ws.ensure(csr.num_nodes, csr.num_edges)
    vmask = ws.vertex_mask
    vmask.clear()
    # The accumulated fault set lives solely in the mask; its `members`
    # list doubles as the iteration-order record for the certificate.
    faults = vmask.members
    removed: List[List[int]] = []
    node = indexer.node if indexer is not None else (lambda i: i)
    for iteration in range(1, alpha + 2):
        # Terminals were validated once above and are never faulted, so
        # the search core is invoked directly (no per-BFS re-checks).
        found = _csr_search(
            csr, source, target, t, ws,
            vmask if faults else None, None, False,
        )
        path = _csr_path(ws, target) if found else None
        if path is None:
            return LBCResult(
                answer=LBCAnswer.YES,
                cut=frozenset(node(i) for i in faults),
                paths=_translate_paths(removed, indexer),
                iterations=iteration,
            )
        if len(path) == 2:
            # Direct edge: un-cuttable by vertex faults, so certainly NO.
            removed.append(path)
            return LBCResult(
                answer=LBCAnswer.NO,
                cut=frozenset(node(i) for i in faults),
                paths=_translate_paths(removed, indexer),
                iterations=iteration,
            )
        removed.append(path)
        for i in path[1:-1]:  # interior vertices only (P \ {u, v})
            vmask.add(i)
    return LBCResult(
        answer=LBCAnswer.NO,
        cut=frozenset(node(i) for i in faults),
        paths=_translate_paths(removed, indexer),
        iterations=alpha + 1,
    )


def lbc_edge_csr(
    csr: CSRLike,
    source: int,
    target: int,
    t: int,
    alpha: int,
    workspace: Optional[BFSWorkspace] = None,
    indexer: Optional[NodeIndexer] = None,
) -> LBCResult:
    """Edge-cut LBC(t, alpha) on a CSR graph: twin of :func:`lbc_edge`.

    Fault edges are stamped into ``workspace.edge_mask`` by dense edge id
    (the BFS reports the ids of the path it walked, so no endpoint->id
    lookups happen in the loop).  With an ``indexer`` the certificate cut
    is reported as canonical node-pair tuples exactly like
    :func:`lbc_edge`; without one it holds ``(low_index, high_index)``
    pairs.
    """
    _validate_csr(csr, source, target, t, alpha)
    ws = workspace if workspace is not None else BFSWorkspace(
        csr.num_nodes, csr.num_edges
    )
    ws.ensure(csr.num_nodes, csr.num_edges)
    emask = ws.edge_mask
    emask.clear()
    faults = emask.members  # edge ids, in the order they were faulted
    removed: List[List[int]] = []
    edge_u, edge_v = csr.edge_u, csr.edge_v

    def cut_edges() -> FrozenSet[Edge]:
        if indexer is None:
            return frozenset(
                (edge_u[e], edge_v[e]) for e in faults
            )
        node = indexer.node
        return frozenset(
            edge_key(node(edge_u[e]), node(edge_v[e])) for e in faults
        )

    for iteration in range(1, alpha + 2):
        reached = _csr_search(
            csr, source, target, t, ws,
            None, emask if faults else None, True,
        )
        found = _csr_path_edges(ws, target) if reached else None
        if found is None:
            return LBCResult(
                answer=LBCAnswer.YES,
                cut=cut_edges(),
                paths=_translate_paths(removed, indexer),
                iterations=iteration,
            )
        path, eids = found
        removed.append(path)
        for e in eids:
            emask.add(e)
    return LBCResult(
        answer=LBCAnswer.NO,
        cut=cut_edges(),
        paths=_translate_paths(removed, indexer),
        iterations=alpha + 1,
    )
