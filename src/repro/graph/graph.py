"""Core undirected graph data structure (dict-of-dict adjacency).

The algorithms in this library spend nearly all of their time running
hop-bounded BFS over subgraphs with a handful of vertices or edges removed
(the fault sets of the paper).  A plain dict-of-dict adjacency structure is
both faster than heavier graph libraries for that access pattern and keeps
the semantics of ``G \\ F`` trivial to reason about.

Nodes may be any hashable object.  Edges are undirected and carry a float
weight (1.0 for unweighted graphs).  Self-loops are rejected -- spanners are
defined on simple graphs -- and parallel edges are impossible by
construction (re-adding an edge overwrites its weight).

Two representations share this public API:

* **dict** (this module + :mod:`repro.graph.views`): ``Graph`` holds
  dict-of-dict adjacency over arbitrary hashable nodes, and ``G \\ F`` is
  a lazy :class:`~repro.graph.views.GraphView` that filters neighbors on
  the fly.  Flexible, easy to reason about, and the reference semantics
  for everything else (``tests/reference/`` builds its oracle on it).
* **csr** (:mod:`repro.graph.index` + :mod:`repro.graph.csr`): nodes are
  mapped to dense integers by a :class:`~repro.graph.index.NodeIndexer`
  and adjacency lives in contiguous stdlib ``array`` buffers
  (:class:`~repro.graph.csr.CSRGraph` for frozen snapshots,
  :class:`~repro.graph.csr.CSRBuilder` for the greedy's growing spanner).
  Fault sets become O(1)-clear :class:`~repro.graph.csr.FaultMask` stamps
  and BFS scratch is preallocated in a
  :class:`~repro.graph.traversal.BFSWorkspace`.  This is the hot path
  every spanner construction, sweep, and query runs on; results are
  translated back to node objects, so callers only ever see this
  module's types.

``Graph`` remains the canonical in-memory representation: CSR structures
are *derived* from it (``CSRGraph.from_graph``), and both representations
order each node's neighbors identically (insertion order), which is what
lets the CSR constructions reproduce the dict reference bit for bit.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Iterator, Optional, Tuple

Node = Hashable
Edge = Tuple[Node, Node]


def edge_key(u: Node, v: Node) -> Edge:
    """Return a canonical (order-independent) tuple for the edge ``{u, v}``.

    Node pairs are ordered by ``<=`` when that yields a definite order;
    everything else -- incomparable types raising ``TypeError`` (``1`` vs
    ``"1"``) *and* partially ordered types where neither ``u <= v`` nor
    ``v <= u`` holds (disjoint ``frozenset`` nodes) -- falls back to a
    deterministic ``(type qualname, repr)`` ordering.  Ordering by
    ``repr`` alone is not deterministic for mixed-type graphs: two
    distinct nodes of different types can share a repr (e.g. the int
    ``1`` and a custom object printing ``1``), in which case the same
    physical edge would map to two different keys depending on mention
    order.  When even type and repr tie, ``id()`` breaks the tie, which
    is stable for the objects' lifetime -- all a canonical key needs
    within one graph.
    """
    try:
        if u <= v:  # type: ignore[operator]
            return (u, v)
        if v <= u:  # type: ignore[operator]
            return (v, u)
    except TypeError:
        pass
    ku = (type(u).__qualname__, repr(u))
    kv = (type(v).__qualname__, repr(v))
    if ku == kv:
        return (u, v) if id(u) <= id(v) else (v, u)
    return (u, v) if ku <= kv else (v, u)


class Graph:
    """An undirected, optionally weighted, simple graph.

    Examples
    --------
    >>> g = Graph()
    >>> g.add_edge(1, 2)
    >>> g.add_edge(2, 3, weight=5.0)
    >>> g.num_nodes, g.num_edges
    (3, 2)
    >>> sorted(g.neighbors(2))
    [1, 3]
    >>> g.weight(2, 3)
    5.0
    """

    __slots__ = ("_adj", "_num_edges", "mutations")

    def __init__(self, edges: Optional[Iterable[Tuple]] = None) -> None:
        """Create a graph, optionally from an iterable of edges.

        ``edges`` items may be ``(u, v)`` pairs or ``(u, v, weight)`` triples.
        """
        self._adj: Dict[Node, Dict[Node, float]] = {}
        self._num_edges = 0
        # Monotonic edge-mutation stamp: bumps on every add_edge /
        # remove_edge (weight overwrites included).  Consumers that
        # cache derived answers (oracle LRU, routing tables) compare it
        # to detect streaming updates; never reset, never decremented.
        self.mutations = 0
        if edges is not None:
            for item in edges:
                if len(item) == 2:
                    self.add_edge(item[0], item[1])
                elif len(item) == 3:
                    self.add_edge(item[0], item[1], weight=float(item[2]))
                else:
                    raise ValueError(
                        f"edge items must be (u, v) or (u, v, w); got {item!r}"
                    )

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add_node(self, u: Node) -> None:
        """Add an isolated node (no-op if already present)."""
        if u not in self._adj:
            self._adj[u] = {}

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Add every node in ``nodes``."""
        for u in nodes:
            self.add_node(u)

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Add the undirected edge ``{u, v}`` with the given weight.

        Adding an existing edge overwrites its weight.  Self-loops raise
        ``ValueError`` because spanners are defined on simple graphs.
        """
        if u == v:
            raise ValueError(f"self-loop on node {u!r} is not allowed")
        if weight < 0:
            raise ValueError(f"negative edge weight {weight!r} is not allowed")
        self.add_node(u)
        self.add_node(v)
        if v not in self._adj[u]:
            self._num_edges += 1
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self.mutations += 1

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``{u, v}``; raises ``KeyError`` if absent."""
        if u not in self._adj or v not in self._adj[u]:
            raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
        del self._adj[u][v]
        del self._adj[v][u]
        self._num_edges -= 1
        self.mutations += 1

    def remove_node(self, u: Node) -> None:
        """Remove node ``u`` and all incident edges; KeyError if absent."""
        if u not in self._adj:
            raise KeyError(f"node {u!r} not in graph")
        for v in list(self._adj[u]):
            self.remove_edge(u, v)
        del self._adj[u]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def has_node(self, u: Node) -> bool:
        """Whether node ``u`` is present."""
        return u in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether the edge ``{u, v}`` is present."""
        return u in self._adj and v in self._adj[u]

    def weight(self, u: Node, v: Node) -> float:
        """Weight of edge ``{u, v}``; raises ``KeyError`` if absent."""
        try:
            return self._adj[u][v]
        except KeyError:
            raise KeyError(f"edge ({u!r}, {v!r}) not in graph") from None

    def neighbors(self, u: Node) -> Iterator[Node]:
        """Iterate over the neighbors of ``u``."""
        return iter(self._adj[u])

    def neighbor_items(self, u: Node) -> Iterator[Tuple[Node, float]]:
        """Iterate over ``(neighbor, weight)`` pairs of ``u``."""
        return iter(self._adj[u].items())

    def degree(self, u: Node) -> int:
        """Degree of node ``u``."""
        return len(self._adj[u])

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges as canonical ``(u, v)`` tuples.

        Each edge is yielded once, at whichever endpoint comes first in
        node order.
        """
        visited = set()
        for u, nbrs in self._adj.items():
            visited.add(u)
            for v in nbrs:
                if v not in visited:
                    yield edge_key(u, v)

    def weighted_edges(self) -> Iterator[Tuple[Node, Node, float]]:
        """Iterate over all edges as ``(u, v, weight)`` triples."""
        for u, v in self.edges():
            yield u, v, self._adj[u][v]

    @property
    def num_nodes(self) -> int:
        """Number of nodes (the paper's ``n``)."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of edges (the paper's ``m``)."""
        return self._num_edges

    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return sum(w for _, _, w in self.weighted_edges())

    def is_unit_weighted(self, tol: float = 0.0) -> bool:
        """Whether every edge has weight exactly (or within ``tol`` of) 1."""
        return all(
            abs(w - 1.0) <= tol
            for nbrs in self._adj.values() for w in nbrs.values()
        )

    def max_degree(self) -> int:
        """Maximum degree over all nodes (0 for the empty graph)."""
        return max((len(nbrs) for nbrs in self._adj.values()), default=0)

    def density(self) -> float:
        """Edge density m / C(n, 2), or 0.0 when n < 2."""
        n = self.num_nodes
        if n < 2:
            return 0.0
        return 2.0 * self._num_edges / (n * (n - 1))

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #

    def copy(self) -> "Graph":
        """Deep copy of the structure (nodes are shared, not copied)."""
        g = Graph()
        g._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        g._num_edges = self._num_edges
        return g

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """The subgraph induced by ``nodes`` (the paper's ``G[C]``).

        Nodes and edges keep this graph's insertion order, whatever the
        order (or hash) of ``nodes``; unknown nodes are ignored.
        """
        keep = set(nodes)
        order = [u for u in self._adj if u in keep]
        g = Graph()
        g.add_nodes(order)
        for u in order:
            for v, w in self._adj[u].items():
                if v in keep:
                    g.add_edge(u, v, weight=w)
        return g

    def edge_subgraph(self, edges: Iterable[Edge]) -> "Graph":
        """Spanning subgraph with all nodes of ``self`` but only ``edges``."""
        g = Graph()
        g.add_nodes(self.nodes())
        for u, v in edges:
            g.add_edge(u, v, weight=self.weight(u, v))
        return g

    def spanning_skeleton(self) -> "Graph":
        """An empty spanning subgraph: all nodes of ``self``, no edges.

        This is the ``H <- (V, emptyset, w)`` initialization used by every
        greedy algorithm in the paper.
        """
        g = Graph()
        g.add_nodes(self.nodes())
        return g

    def unit_weighted(self) -> "Graph":
        """A copy of this graph with every edge weight set to 1."""
        g = Graph()
        g.add_nodes(self.nodes())
        for u, v in self.edges():
            g.add_edge(u, v, weight=1.0)
        return g

    # ------------------------------------------------------------------ #
    # Dunder protocol
    # ------------------------------------------------------------------ #

    def __contains__(self, u: Node) -> bool:
        return u in self._adj

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def __len__(self) -> int:
        return len(self._adj)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"

    # ------------------------------------------------------------------ #
    # Interop
    # ------------------------------------------------------------------ #

    @classmethod
    def from_adjacency(cls, adj: Dict[Node, Dict[Node, float]]) -> "Graph":
        """Build a graph from a dict-of-dict adjacency mapping.

        The mapping must be symmetric; asymmetry raises ``ValueError``.
        """
        g = cls()
        for u, nbrs in adj.items():
            g.add_node(u)
            for v, w in nbrs.items():
                if v not in adj or u not in adj[v]:
                    raise ValueError(f"asymmetric adjacency at ({u!r}, {v!r})")
                if adj[v][u] != w:
                    raise ValueError(
                        f"conflicting weights for edge ({u!r}, {v!r})"
                    )
                g.add_edge(u, v, weight=w)
        return g

    def to_networkx(self):  # pragma: no cover - convenience shim
        """Convert to a ``networkx.Graph`` (requires networkx installed)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.nodes())
        g.add_weighted_edges_from(self.weighted_edges())
        return g

    @classmethod
    def from_networkx(cls, nxg) -> "Graph":
        """Build from a ``networkx.Graph`` (weights default to 1)."""
        g = cls()
        g.add_nodes(nxg.nodes())
        for u, v, data in nxg.edges(data=True):
            g.add_edge(u, v, weight=float(data.get("weight", 1.0)))
        return g
