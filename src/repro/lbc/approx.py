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
  :class:`~repro.graph.index.NodeIndexer` (the cut and the removed
  paths only when first read), so the returned :class:`LBCResult` is
  indistinguishable from the dict path's (both find the same BFS paths,
  hence the same cuts and answers).

At ``t <= 3`` (the greedy's ``k = 2``) the CSR path runs no BFS: every
such path ends in the target's neighbourhood, where
:func:`_meet_paths_vertex` / :func:`_meet_paths_edge` find the BFS's
path directly.  Results, and ``iterations`` (one per search), are
unchanged.  Longer bounds run :func:`~repro.graph.traversal._csr_search`.
"""

from __future__ import annotations

import enum
from typing import (
    FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple, Union,
)

from repro.graph.csr import CSRLike, FaultMask
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
        cut; it is still reported for diagnostics.  The CSR entry points
        keep a copy of the fault ids and translate them only when ``cut``
        is first read: the greedy drops the cut of every NO answer.
    paths:
        The hop-bounded paths removed in successive iterations (node
        sequences).  ``len(paths)`` equals the number of searches that
        found a path.  The CSR entry points record index paths and
        translate them to nodes only when ``paths`` is first read: the
        greedy never reads them.
    iterations:
        Total searches performed, one per iteration (including the
        final one that found no path, when the answer is YES).  The
        greedy sums them as ``bfs_calls``.

    Results compare and hash by these four values; treat them as
    read-only.
    """

    __slots__ = ("answer", "iterations", "_cut", "_paths", "_index_cut",
                 "_edge_ends", "_index_paths", "_indexer")

    def __init__(
        self,
        answer: LBCAnswer,
        cut: Optional[FrozenSet],
        paths: Optional[Tuple[Tuple[Node, ...], ...]],
        iterations: int,
    ) -> None:
        self.answer = answer
        self.iterations = iterations
        self._cut = cut
        self._paths = paths
        self._index_cut: List[int] = []
        self._edge_ends: Optional[Tuple[Sequence[int], Sequence[int]]] = None
        self._index_paths: List[List[int]] = []
        self._indexer: Optional[NodeIndexer] = None

    @classmethod
    def _from_indices(
        cls,
        answer: LBCAnswer,
        faults: List[int],
        edge_ends: Optional[Tuple[Sequence[int], Sequence[int]]],
        removed: List[List[int]],
        iterations: int,
        indexer: Optional[NodeIndexer],
    ) -> "LBCResult":
        """A result whose ``cut`` and ``paths`` are translated from
        index data on first read.

        ``faults`` is copied (it is the workspace mask's member list,
        which the next LBC run clears).  ``edge_ends`` is the graph's
        ``(edge_u, edge_v)`` pair when ``faults`` holds edge ids, or
        None when it holds vertex indices; every CSR graph only appends
        to those arrays, so an id's endpoints never change.
        """
        result = cls(answer, None, None, iterations)
        result._index_cut = faults[:]
        result._edge_ends = edge_ends
        result._index_paths = removed
        result._indexer = indexer
        return result

    @property
    def cut(self) -> FrozenSet:
        if self._cut is None:
            self._cut = _translate_cut(
                self._index_cut, self._edge_ends, self._indexer
            )
        return self._cut

    @property
    def paths(self) -> Tuple[Tuple[Node, ...], ...]:
        if self._paths is None:
            self._paths = _translate_paths(self._index_paths, self._indexer)
        return self._paths

    @property
    def is_yes(self) -> bool:
        """Convenience: whether the answer is YES."""
        return self.answer is LBCAnswer.YES

    def _key(self) -> tuple:
        return (self.answer, self.cut, self.paths, self.iterations)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LBCResult):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"LBCResult(answer={self.answer!r}, cut={self.cut!r}, "
            f"paths={self.paths!r}, iterations={self.iterations!r})"
        )


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


def _translate_cut(
    faults: List[int],
    edge_ends: Optional[Tuple[Sequence[int], Sequence[int]]],
    indexer: Optional[NodeIndexer],
) -> FrozenSet:
    """Fault ids -> the cut :func:`lbc_vertex` / :func:`lbc_edge` report
    (raw indices or ``(low_index, high_index)`` pairs without an
    indexer)."""
    if edge_ends is None:
        if indexer is None:
            return frozenset(faults)
        return frozenset(map(indexer.node, faults))
    edge_u, edge_v = edge_ends
    if indexer is None:
        return frozenset((edge_u[e], edge_v[e]) for e in faults)
    node = indexer.node
    return frozenset(
        edge_key(node(edge_u[e]), node(edge_v[e])) for e in faults
    )


def _translate_paths(
    removed: List[List[int]], indexer: Optional[NodeIndexer]
) -> Tuple[Tuple[Node, ...], ...]:
    """Index paths -> node-object paths (identity when no indexer)."""
    if indexer is None:
        return tuple(tuple(p) for p in removed)
    node = indexer.node
    return tuple(tuple(node(i) for i in p) for p in removed)


def _meet_paths_vertex(
    rows: Sequence[Sequence[int]],
    source: int,
    target: int,
    t: int,
    vmask: FaultMask,
) -> Iterator[List[int]]:
    """The paths successive BFS calls of the vertex LBC loop find, at
    ``t <= 3``, without a BFS.

    Every such path ends in the target's neighbourhood.  ``near`` holds
    the target's live neighbours: it is built once and, on each resume
    (the caller has faulted the yielded path's interior by then), loses
    the path's last interior vertex, the only one that can be in it.
    Each path is the first hit of these tests, in order:

    * the direct edge (``source in near``; the caller stops there);
    * the first x of the source row in ``near``: s -> x -> t;
    * the first live a of the source row whose row meets ``near`` (a
      C-level set test), then that row's first b in ``near``:
      s -> a -> b -> t.

    That is the BFS's path, by the queue-order argument of
    :func:`~repro.graph.traversal._csr_search`: its depth-1 queue is the
    source row's live nodes in row order.
    """
    near = set(rows[target])
    if source in near:
        yield [source, target]
        return
    srow = rows[source]
    stamp, gen = vmask.stamp, vmask.gen
    while near and t >= 2:
        path = None
        if not near.isdisjoint(srow):
            for x in srow:
                if x in near:
                    path = [source, x, target]
                    break
        elif t == 3:
            for a in srow:
                if stamp[a] == gen:
                    continue
                row = rows[a]
                if near.isdisjoint(row):
                    continue
                for b in row:
                    if b in near:
                        path = [source, a, b, target]
                        break
                break  # the row meets near, so a path was found
        if path is None:
            return
        yield path
        near.discard(path[-2])


def _meet_paths_edge(
    csr: CSRLike,
    source: int,
    target: int,
    t: int,
    emask: FaultMask,
) -> Iterator[Tuple[List[int], List[int]]]:
    """Edge-model twin of :func:`_meet_paths_vertex`: yields each path
    with its edge ids, in path order.

    ``near`` maps each neighbour of the target whose edge to it is live
    to that edge's id; each resume drops the yielded path's last hop.
    Every other edge is tested against the mask, so a faulted first
    hop makes the search move on exactly as the BFS does.
    """
    rows = csr.neighbors
    eid_rows = csr.edge_id_rows
    near = dict(zip(rows[target], eid_rows[target]))
    keys = near.keys()
    srow = rows[source]
    serow = eid_rows[source]
    stamp, gen = emask.stamp, emask.gen
    while near:
        found = None
        e = near.get(source)
        if e is not None:
            found = [source, target], [e]
        elif t >= 2 and not keys.isdisjoint(srow):
            for x, e in zip(srow, serow):
                if x in near and stamp[e] != gen:
                    found = [source, x, target], [e, near[x]]
                    break
        if found is None and t >= 3:
            for a, e in zip(srow, serow):
                if stamp[e] == gen:
                    continue
                row = rows[a]
                if keys.isdisjoint(row):
                    continue
                for b, eb in zip(row, eid_rows[a]):
                    if b in near and stamp[eb] != gen:
                        found = [source, a, b, target], [e, eb, near[b]]
                        break
                if found is not None:
                    break
        if found is None:
            return
        yield found
        del near[found[0][-2]]


def _bfs_paths_vertex(
    csr: CSRLike, source: int, target: int, t: int,
    ws: BFSWorkspace, vmask: FaultMask,
) -> Iterator[List[int]]:
    """The vertex LBC loop's searches at ``t >= 4``: one BFS per resume.

    Terminals were validated once by the caller and are never faulted,
    so the search core is invoked directly (no per-BFS re-checks).
    """
    while _csr_search(csr, source, target, t, ws,
                      vmask if vmask.members else None, None, False):
        yield _csr_path(ws, target)


def _bfs_paths_edge(
    csr: CSRLike, source: int, target: int, t: int,
    ws: BFSWorkspace, emask: FaultMask,
) -> Iterator[Tuple[List[int], List[int]]]:
    """Edge-model twin of :func:`_bfs_paths_vertex`."""
    while _csr_search(csr, source, target, t, ws,
                      None, emask if emask.members else None, True):
        yield _csr_path_edges(ws, target)


def lbc_vertex_csr(
    csr: CSRLike,
    source: int,
    target: int,
    t: int,
    alpha: int,
    workspace: Optional[BFSWorkspace] = None,
    indexer: Optional[NodeIndexer] = None,
) -> LBCResult:
    """Vertex-cut LBC(t, alpha) on a CSR graph: the index-level twin of
    :func:`lbc_vertex`.

    ``source`` / ``target`` are node *indices*; the accumulated fault set
    lives in ``workspace.vertex_mask`` (cleared on entry), so no views or
    frozensets are built during the loop.  Each iteration's search is a
    two-hop meet at the target at ``t <= 3``
    (:func:`_meet_paths_vertex`) and one :func:`_csr_search` at
    ``t >= 4``; both find the path a BFS finds.  When ``indexer`` is
    given the returned :class:`LBCResult` reports node objects
    (identical to what :func:`lbc_vertex` on the equivalent dict graph
    returns); otherwise it reports raw indices.
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
    paths = (
        _meet_paths_vertex(csr.neighbors, source, target, t, vmask)
        if t <= 3
        else _bfs_paths_vertex(csr, source, target, t, ws, vmask)
    )
    for iteration in range(1, alpha + 2):
        path = next(paths, None)
        if path is None:
            return LBCResult._from_indices(
                LBCAnswer.YES, faults, None, removed, iteration, indexer
            )
        removed.append(path)
        if len(path) == 2:
            # Direct edge: un-cuttable by vertex faults, so certainly NO.
            return LBCResult._from_indices(
                LBCAnswer.NO, faults, None, removed, iteration, indexer
            )
        vmask.add_all(path[1:-1])  # interior vertices only (P \ {u, v})
    return LBCResult._from_indices(
        LBCAnswer.NO, faults, None, removed, alpha + 1, indexer
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
    (each search reports the ids of the path it found, so no
    endpoint->id lookups happen in the loop).  The searches are
    :func:`_meet_paths_edge` at ``t <= 3`` and :func:`_csr_search`
    beyond.  With an ``indexer`` the certificate cut is reported as
    canonical node-pair tuples exactly like :func:`lbc_edge`; without
    one it holds ``(low_index, high_index)`` pairs.
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
    ends = (csr.edge_u, csr.edge_v)
    paths = (
        _meet_paths_edge(csr, source, target, t, emask)
        if t <= 3
        else _bfs_paths_edge(csr, source, target, t, ws, emask)
    )
    for iteration in range(1, alpha + 2):
        found = next(paths, None)
        if found is None:
            return LBCResult._from_indices(
                LBCAnswer.YES, faults, ends, removed, iteration, indexer
            )
        path, eids = found
        removed.append(path)
        emask.add_all(eids)
    return LBCResult._from_indices(
        LBCAnswer.NO, faults, ends, removed, alpha + 1, indexer
    )
