"""Lazy fault views: the paper's ``G \\ F`` without copying.

Every fault-tolerance routine in the library reasons about the graph that
remains after deleting a fault set ``F`` of vertices or edges.  Materializing
that subgraph would cost O(n + m) per fault set, and the Length-Bounded Cut
approximation (Algorithm 2) inspects up to ``f + 1`` different augmented
fault sets per candidate edge.  These views make ``G \\ F`` an O(|F|)
construction whose ``neighbors`` iteration filters on the fly.

All views expose the same read-only protocol (:class:`GraphView`):
``has_node``, ``neighbors``, ``neighbor_items``, ``weight``, ``nodes``,
``num_nodes`` -- which is exactly what the dict traversal
primitives consume.

These views are the *general* mechanism: they work for any fault set on
any ``Graph`` and remain the reference semantics.  The CSR execution
substrate replaces them on the hot path with O(1)-clear
:class:`~repro.graph.csr.FaultMask` stamp arrays over integer node/edge
ids (see ``CSRGraph.vertex_mask`` / ``CSRGraph.edge_mask`` for the
equivalent of :func:`fault_view`); property tests assert the two give
identical traversals.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from repro.graph.graph import Edge, Graph, Node, edge_key


class GraphView:
    """Read-only protocol shared by graphs-with-faults.

    Subclasses implement node/neighbor filtering; traversal code is written
    against this interface so the same BFS works on the full graph, on
    ``G \\ F`` for vertex faults, and on ``G \\ F`` for edge faults.
    """

    base: Graph

    def has_node(self, u: Node) -> bool:
        raise NotImplementedError

    def neighbors(self, u: Node) -> Iterator[Node]:
        raise NotImplementedError

    def neighbor_items(self, u: Node) -> Iterator[Tuple[Node, float]]:
        raise NotImplementedError

    def weight(self, u: Node, v: Node) -> float:
        raise NotImplementedError

    def nodes(self) -> Iterator[Node]:
        raise NotImplementedError

    @property
    def num_nodes(self) -> int:
        raise NotImplementedError

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether edge ``{u, v}`` survives in this view."""
        return self.has_node(u) and any(v == x for x in self.neighbors(u))


class IdentityView(GraphView):
    """A view of the whole graph with no faults (``F = emptyset``)."""

    __slots__ = ("base",)

    def __init__(self, base: Graph) -> None:
        self.base = base

    def has_node(self, u: Node) -> bool:
        return self.base.has_node(u)

    def neighbors(self, u: Node) -> Iterator[Node]:
        return self.base.neighbors(u)

    def neighbor_items(self, u: Node) -> Iterator[Tuple[Node, float]]:
        return self.base.neighbor_items(u)

    def weight(self, u: Node, v: Node) -> float:
        return self.base.weight(u, v)

    def nodes(self) -> Iterator[Node]:
        return self.base.nodes()

    @property
    def num_nodes(self) -> int:
        return self.base.num_nodes

    def has_edge(self, u: Node, v: Node) -> bool:
        return self.base.has_edge(u, v)

    def __repr__(self) -> str:
        return f"IdentityView({self.base!r})"


class VertexFaultView(GraphView):
    """The subgraph ``G \\ F`` for a vertex fault set ``F``.

    Faulted vertices disappear along with all incident edges, exactly as in
    Definition 1 of the paper (``G[V \\ F]``).
    """

    __slots__ = ("base", "faults")

    def __init__(self, base: Graph, faults: Iterable[Node]) -> None:
        self.base = base
        self.faults: FrozenSet[Node] = frozenset(faults)

    def has_node(self, u: Node) -> bool:
        return u not in self.faults and self.base.has_node(u)

    def neighbors(self, u: Node) -> Iterator[Node]:
        if u in self.faults:
            raise KeyError(f"node {u!r} is faulted")
        faults = self.faults
        for v in self.base.neighbors(u):
            if v not in faults:
                yield v

    def neighbor_items(self, u: Node) -> Iterator[Tuple[Node, float]]:
        if u in self.faults:
            raise KeyError(f"node {u!r} is faulted")
        faults = self.faults
        for v, w in self.base.neighbor_items(u):
            if v not in faults:
                yield v, w

    def weight(self, u: Node, v: Node) -> float:
        if u in self.faults or v in self.faults:
            raise KeyError(f"edge ({u!r}, {v!r}) touches the fault set")
        return self.base.weight(u, v)

    def nodes(self) -> Iterator[Node]:
        faults = self.faults
        return (u for u in self.base.nodes() if u not in faults)

    @property
    def num_nodes(self) -> int:
        return self.base.num_nodes - sum(
            1 for u in self.faults if self.base.has_node(u)
        )

    def has_edge(self, u: Node, v: Node) -> bool:
        return (
            u not in self.faults
            and v not in self.faults
            and self.base.has_edge(u, v)
        )

    def __repr__(self) -> str:
        return f"VertexFaultView({self.base!r}, |F|={len(self.faults)})"


class EdgeFaultView(GraphView):
    """The subgraph ``(V, E \\ F)`` for an edge fault set ``F``.

    Edges are stored canonically (via :func:`repro.graph.graph.edge_key`), so
    faults may be given in either orientation.
    """

    __slots__ = ("base", "faults")

    def __init__(self, base: Graph, faults: Iterable[Edge]) -> None:
        self.base = base
        self.faults: FrozenSet[Edge] = frozenset(
            edge_key(u, v) for u, v in faults
        )

    def has_node(self, u: Node) -> bool:
        return self.base.has_node(u)

    def neighbors(self, u: Node) -> Iterator[Node]:
        faults = self.faults
        for v in self.base.neighbors(u):
            if edge_key(u, v) not in faults:
                yield v

    def neighbor_items(self, u: Node) -> Iterator[Tuple[Node, float]]:
        faults = self.faults
        for v, w in self.base.neighbor_items(u):
            if edge_key(u, v) not in faults:
                yield v, w

    def weight(self, u: Node, v: Node) -> float:
        if edge_key(u, v) in self.faults:
            raise KeyError(f"edge ({u!r}, {v!r}) is faulted")
        return self.base.weight(u, v)

    def nodes(self) -> Iterator[Node]:
        return self.base.nodes()

    @property
    def num_nodes(self) -> int:
        return self.base.num_nodes

    def has_edge(self, u: Node, v: Node) -> bool:
        return self.base.has_edge(u, v) and edge_key(u, v) not in self.faults

    def __repr__(self) -> str:
        return f"EdgeFaultView({self.base!r}, |F|={len(self.faults)})"


def fault_view(
    base: Graph,
    vertex_faults: Optional[Iterable[Node]] = None,
    edge_faults: Optional[Iterable[Edge]] = None,
) -> GraphView:
    """Build the appropriate view of ``base`` minus the given fault set.

    Exactly one of ``vertex_faults`` / ``edge_faults`` may be non-None;
    passing neither returns an :class:`IdentityView`.
    """
    if vertex_faults is not None and edge_faults is not None:
        raise ValueError("give either vertex faults or edge faults, not both")
    if vertex_faults is not None:
        return VertexFaultView(base, vertex_faults)
    if edge_faults is not None:
        return EdgeFaultView(base, edge_faults)
    return IdentityView(base)
