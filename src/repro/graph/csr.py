"""Flat-array (CSR) graph substrate for the BFS/LBC hot path.

The dict-of-dict :class:`~repro.graph.graph.Graph` is convenient and keeps
``G \\ F`` trivial, but the paper's Algorithm 2 spends its whole life in
hop-bounded BFS, where per-neighbor dict lookups and lazy-view generator
frames dominate.  This module provides the standard remedy: an
integer-indexed graph whose adjacency lives in contiguous ``array``
buffers (classic compressed-sparse-row layout), with O(1)-clear fault
*masks* instead of per-call frozenset views.  Everything is stdlib-only
(``array`` / ``bytearray``) so there is no numpy dependency.

Three pieces:

* :class:`CSRGraph` -- a frozen snapshot built once from a ``Graph``
  (``indptr`` / ``indices`` / per-edge ``weights``), with per-node list
  rows for fast neighbor iteration.
* :class:`CSRBuilder` -- an appendable variant for the greedy loop, where
  the spanner ``H`` grows one edge at a time: per-node adjacency rows
  with O(1) amortized appends, and :meth:`CSRBuilder.repack` to
  consolidate into a frozen :class:`CSRGraph` when mutation stops.
* :class:`FaultMask` -- a generation-stamped ``bytearray`` membership
  mask over integer ids (node indices or edge ids).  ``clear()`` is O(1)
  (bump the generation), so the LBC loop reuses one mask across all of a
  run's fault sets without allocating.

Edges carry dense integer ids assigned at insertion (or first-seen order
for ``from_graph``); ``edge_u[eid]`` / ``edge_v[eid]`` give the canonical
(low-index, high-index) endpoints and ``weights[eid]`` the weight.

Neighbor rows preserve the insertion order of the source ``Graph``, so a
BFS over these arrays visits nodes in exactly the order a dict BFS over
the ``Graph`` does -- the property that makes the constructions produce
the identical spanners of the dict reference in ``tests/reference/``,
not merely equally good ones.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.graph.graph import Edge, Graph, Node
from repro.graph.index import NodeIndexer

_ITEMSIZE = array("q").itemsize


def _zeros_q(count: int) -> array:
    """A zero-filled ``array('q')`` of the given length."""
    return array("q", bytes(_ITEMSIZE * count))


class FaultMask:
    """O(1)-clear membership mask over dense integer ids.

    A ``bytearray`` of stamps plus a generation counter: an id is a
    member iff its stamp equals the current generation.  ``clear()``
    bumps the generation; when the 1-byte stamp space wraps (every 255
    clears) the buffer is zero-filled once, keeping the amortized cost
    O(1) per clear.

    ``members`` lists the ids added since the last ``clear()`` (with
    duplicates if an id is added twice).  Fault sets are tiny (at most
    ``alpha * t`` in the LBC loop), so keeping the list costs nothing
    and lets the BFS pre-stamp the whole fault set into its visited
    array in O(|F|) -- removing the mask test from the per-neighbor
    inner loop entirely.
    """

    __slots__ = ("stamp", "gen", "members")

    def __init__(self, size: int = 0) -> None:
        self.stamp = bytearray(size)
        self.gen = 1
        self.members: List[int] = []

    def ensure(self, size: int) -> None:
        """Grow the mask to cover ids up to ``size - 1`` (never shrinks)."""
        if len(self.stamp) < size:
            self.stamp.extend(bytes(size - len(self.stamp)))

    def clear(self) -> None:
        """Empty the mask in O(1) (amortized)."""
        self.gen += 1
        if self.gen == 256:
            self.stamp[:] = bytes(len(self.stamp))
            self.gen = 1
        self.members.clear()

    def add(self, i: int) -> None:
        """Mark id ``i`` as a member."""
        self.stamp[i] = self.gen
        self.members.append(i)

    def add_all(self, ids: Iterable[int]) -> None:
        """Mark every id in ``ids``."""
        stamp, gen = self.stamp, self.gen
        members = self.members
        for i in ids:
            stamp[i] = gen
            members.append(i)

    def __contains__(self, i: int) -> bool:
        return self.stamp[i] == self.gen

    def __repr__(self) -> str:
        return f"FaultMask(size={len(self.stamp)})"


class CSRGraph:
    """A frozen integer-indexed graph in compressed-sparse-row layout.

    Attributes
    ----------
    indptr, indices:
        The classic CSR pair: node ``i``'s neighbors are
        ``indices[indptr[i]:indptr[i+1]]``.
    nbr_edge_ids:
        Parallel to ``indices``: the edge id of each incidence.
    weights, edge_u, edge_v:
        Per-edge-id weight and canonical endpoints (``edge_u < edge_v``).
    neighbors, edge_id_rows, weight_rows:
        Per-node list rows materialized from the flat arrays -- what the
        traversal inner loops iterate.  ``weight_rows`` repeats each
        edge weight per incidence so Dijkstra reads weights in row order
        instead of the indirect ``weights[erow[j]]``; it is built lazily
        on first access, so BFS-only consumers never pay for it.
    indexer:
        The :class:`NodeIndexer` mapping node objects to indices (may be
        ``None`` for purely index-level graphs).
    """

    __slots__ = (
        "num_nodes", "num_edges", "indptr", "indices", "nbr_edge_ids",
        "weights", "edge_u", "edge_v", "neighbors", "edge_id_rows",
        "_weight_rows", "indexer", "_eid_of",
    )

    def __init__(
        self,
        indptr: array,
        indices: array,
        nbr_edge_ids: array,
        weights: array,
        edge_u: array,
        edge_v: array,
        indexer: Optional[NodeIndexer] = None,
        eid_of: Optional[Dict[Tuple[int, int], int]] = None,
    ) -> None:
        self.num_nodes = len(indptr) - 1
        self.num_edges = len(weights)
        self.indptr = indptr
        self.indices = indices
        self.nbr_edge_ids = nbr_edge_ids
        self.weights = weights
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.indexer = indexer
        if eid_of is None:
            eid_of = {
                (edge_u[e], edge_v[e]): e for e in range(len(weights))
            }
        self._eid_of = eid_of
        # Rows are materialized as plain lists: iterating a list of
        # already-boxed ints/floats is measurably faster in CPython than
        # iterating an array/memoryview slice (which must box every
        # element on each pass), and these rows are scanned millions of
        # times per run.  The flat arrays above stay the storage of
        # record for edge-level data.
        self.neighbors: List[Sequence[int]] = [
            indices[indptr[i]:indptr[i + 1]].tolist()
            for i in range(self.num_nodes)
        ]
        self.edge_id_rows: List[Sequence[int]] = [
            nbr_edge_ids[indptr[i]:indptr[i + 1]].tolist()
            for i in range(self.num_nodes)
        ]
        self._weight_rows: Optional[List[Sequence[float]]] = None

    @property
    def weight_rows(self) -> List[Sequence[float]]:
        """Per-incidence weight rows, built on first (Dijkstra) access."""
        rows = self._weight_rows
        if rows is None:
            weights = self.weights
            rows = [[weights[e] for e in row] for row in self.edge_id_rows]
            self._weight_rows = rows
        return rows

    @classmethod
    def from_graph(
        cls, g: Graph, indexer: Optional[NodeIndexer] = None
    ) -> "CSRGraph":
        """Snapshot ``g`` into CSR form (one O(n + m) pass).

        ``indexer`` may be supplied to reuse an existing node numbering;
        any nodes of ``g`` it does not know yet are added to it.  Rows
        preserve ``g``'s neighbor iteration order.
        """
        if indexer is None:
            indexer = NodeIndexer.from_graph(g)
        else:
            for u in g.nodes():
                indexer.add(u)
        n = len(indexer)
        index = indexer.index
        indptr = _zeros_q(n + 1)
        for u in g.nodes():
            indptr[index(u) + 1] = g.degree(u)
        for i in range(n):
            indptr[i + 1] += indptr[i]
        indices = _zeros_q(indptr[n])
        nbr_edge_ids = _zeros_q(indptr[n])
        weights = array("d")
        edge_u = array("q")
        edge_v = array("q")
        eid_of: Dict[Tuple[int, int], int] = {}
        fill = list(indptr[:n])
        for u in g.nodes():
            ui = index(u)
            for v, w in g.neighbor_items(u):
                vi = index(v)
                key = (ui, vi) if ui < vi else (vi, ui)
                eid = eid_of.get(key)
                if eid is None:
                    eid = len(weights)
                    eid_of[key] = eid
                    weights.append(w)
                    edge_u.append(key[0])
                    edge_v.append(key[1])
                pos = fill[ui]
                indices[pos] = vi
                nbr_edge_ids[pos] = eid
                fill[ui] = pos + 1
        return cls(
            indptr, indices, nbr_edge_ids, weights, edge_u, edge_v,
            indexer=indexer, eid_of=eid_of,
        )

    # ------------------------------------------------------------------ #
    # Queries (index-level)
    # ------------------------------------------------------------------ #

    def degree(self, i: int) -> int:
        """Degree of node index ``i``."""
        return self.indptr[i + 1] - self.indptr[i]

    def has_edge(self, i: int, j: int) -> bool:
        """Whether the edge ``{i, j}`` (node indices) exists."""
        key = (i, j) if i < j else (j, i)
        return key in self._eid_of

    def edge_id(self, i: int, j: int) -> int:
        """Dense edge id of ``{i, j}``; raises ``KeyError`` if absent."""
        key = (i, j) if i < j else (j, i)
        return self._eid_of[key]

    # ------------------------------------------------------------------ #
    # Fault-mask construction (object-level convenience)
    # ------------------------------------------------------------------ #

    def vertex_mask(
        self, faults: Iterable[Node] = (), mask: Optional[FaultMask] = None
    ) -> FaultMask:
        """A cleared :class:`FaultMask` stamped with the given fault nodes.

        Node objects are translated through :attr:`indexer`; pass ``mask``
        to reuse a buffer instead of allocating.
        """
        if self.indexer is None:
            raise ValueError("this CSRGraph carries no NodeIndexer")
        if mask is None:
            mask = FaultMask(self.num_nodes)
        mask.ensure(self.num_nodes)
        mask.clear()
        mask.add_all(self.indexer.index(u) for u in faults)
        return mask

    def edge_mask(
        self, faults: Iterable[Edge] = (), mask: Optional[FaultMask] = None
    ) -> FaultMask:
        """Edge-fault analogue of :meth:`vertex_mask` (edges as node pairs)."""
        if self.indexer is None:
            raise ValueError("this CSRGraph carries no NodeIndexer")
        if mask is None:
            mask = FaultMask(self.num_edges)
        mask.ensure(self.num_edges)
        mask.clear()
        index = self.indexer.index
        mask.add_all(self.edge_id(index(u), index(v)) for u, v in faults)
        return mask

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.num_nodes}, m={self.num_edges})"


class CSRBuilder:
    """An appendable CSR-style graph for the greedy's growing spanner.

    Adjacency is chunked per node (one list of neighbor indices, one of
    edge ids, and one of weights per node), so ``add_edge`` is O(1)
    amortized and neighbor iteration is a C-speed scan over
    already-boxed elements.  :meth:`repack` consolidates the chunks into
    a frozen :class:`CSRGraph` once mutation stops (or periodically, if
    a long-lived builder wants flat edge arrays back).

    The builder exposes the same attributes the traversal layer reads
    from :class:`CSRGraph` (``num_nodes``, ``num_edges``, ``neighbors``,
    ``edge_id_rows``, ``weight_rows``, ``weights``, ``edge_u``,
    ``edge_v``), so BFS and Dijkstra code is agnostic between the two.
    """

    __slots__ = (
        "neighbors", "edge_id_rows", "weight_rows", "weights", "edge_u",
        "edge_v", "_eid_of",
    )

    def __init__(self, num_nodes: int = 0) -> None:
        # Plain-list rows for the same reason as CSRGraph: the traversal
        # inner loops iterate them constantly, and list iteration skips
        # the per-element boxing an array would pay.
        self.neighbors: List[List[int]] = [[] for _ in range(num_nodes)]
        self.edge_id_rows: List[List[int]] = [[] for _ in range(num_nodes)]
        self.weight_rows: List[List[float]] = [[] for _ in range(num_nodes)]
        self.weights = array("d")
        self.edge_u = array("q")
        self.edge_v = array("q")
        self._eid_of: Dict[Tuple[int, int], int] = {}

    @property
    def num_nodes(self) -> int:
        return len(self.neighbors)

    @property
    def num_edges(self) -> int:
        return len(self.weights)

    def add_node(self) -> int:
        """Append a fresh isolated node; returns its index."""
        i = len(self.neighbors)
        self.neighbors.append([])
        self.edge_id_rows.append([])
        self.weight_rows.append([])
        return i

    def ensure_nodes(self, n: int) -> None:
        """Grow to at least ``n`` nodes (no-op when already that large)."""
        while len(self.neighbors) < n:
            self.add_node()

    def add_edge(self, i: int, j: int, weight: float = 1.0) -> int:
        """Append the undirected edge ``{i, j}``; returns its edge id.

        Re-adding an existing edge overwrites its weight and returns the
        original id, mirroring ``Graph.add_edge`` semantics.  Self-loops
        raise ``ValueError``.
        """
        if i == j:
            raise ValueError(f"self-loop on index {i} is not allowed")
        key = (i, j) if i < j else (j, i)
        eid = self._eid_of.get(key)
        if eid is not None:
            self.weights[eid] = weight
            # Keep the per-incidence weight copies in sync (O(deg) scan;
            # re-adding an edge is rare -- the greedy never does).
            for x in key:
                erow = self.edge_id_rows[x]
                for pos in range(len(erow)):
                    if erow[pos] == eid:
                        self.weight_rows[x][pos] = weight
                        break
            return eid
        eid = len(self.weights)
        self._eid_of[key] = eid
        self.weights.append(weight)
        self.edge_u.append(key[0])
        self.edge_v.append(key[1])
        self.neighbors[i].append(j)
        self.edge_id_rows[i].append(eid)
        self.weight_rows[i].append(weight)
        self.neighbors[j].append(i)
        self.edge_id_rows[j].append(eid)
        self.weight_rows[j].append(weight)
        return eid

    def degree(self, i: int) -> int:
        """Degree of node index ``i``."""
        return len(self.neighbors[i])

    def has_edge(self, i: int, j: int) -> bool:
        """Whether the edge ``{i, j}`` has been added."""
        key = (i, j) if i < j else (j, i)
        return key in self._eid_of

    def edge_id(self, i: int, j: int) -> int:
        """Dense edge id of ``{i, j}``; raises ``KeyError`` if absent."""
        key = (i, j) if i < j else (j, i)
        return self._eid_of[key]

    def repack(self, indexer: Optional[NodeIndexer] = None) -> CSRGraph:
        """Consolidate the chunked rows into a frozen :class:`CSRGraph`.

        Edge ids, weights, and per-row neighbor order are preserved, so
        masks and workspaces built against this builder remain valid
        against the repacked graph.
        """
        n = self.num_nodes
        indptr = _zeros_q(n + 1)
        for i in range(n):
            indptr[i + 1] = indptr[i] + len(self.neighbors[i])
        indices = _zeros_q(indptr[n])
        nbr_edge_ids = _zeros_q(indptr[n])
        for i in range(n):
            start = indptr[i]
            row = self.neighbors[i]
            erow = self.edge_id_rows[i]
            for j in range(len(row)):
                indices[start + j] = row[j]
                nbr_edge_ids[start + j] = erow[j]
        return CSRGraph(
            indptr, indices, nbr_edge_ids,
            array("d", self.weights), array("q", self.edge_u),
            array("q", self.edge_v),
            indexer=indexer, eid_of=dict(self._eid_of),
        )

    def __repr__(self) -> str:
        return f"CSRBuilder(n={self.num_nodes}, m={self.num_edges})"


CSRLike = Union[CSRGraph, CSRBuilder]
