"""Stable node <-> integer index mapping for the flat-array substrate.

The CSR execution substrate (:mod:`repro.graph.csr`) works on dense integer
node ids so that adjacency, visited stamps, and fault masks can live in
contiguous ``array``/``bytearray`` buffers.  :class:`NodeIndexer` is the
bridge: it assigns each node object a small integer the first time it is
seen and never changes an assignment afterwards, so indices handed out
while a graph (or a growing spanner) is being built stay valid for its
whole lifetime.

Indices are assigned densely in first-seen order, which for
``NodeIndexer.from_graph`` means the graph's node insertion order.  That
property matters for parity with the dict reference: a BFS over the CSR
arrays visits neighbors in exactly the order the dict-of-dict
:class:`~repro.graph.graph.Graph` yields them, so both find the *same*
shortest paths.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from repro.graph.graph import Graph, Node


class NodeIndexer:
    """A bijection between arbitrary hashable nodes and ``0..n-1``.

    Examples
    --------
    >>> ix = NodeIndexer(["a", "b"])
    >>> ix.index("b")
    1
    >>> ix.add("c")
    2
    >>> ix.add("a")  # idempotent
    0
    >>> ix.node(2)
    'c'
    >>> len(ix)
    3
    """

    __slots__ = ("_index", "_nodes")

    def __init__(self, nodes: Iterable[Node] = ()) -> None:
        self._index: Dict[Node, int] = {}
        self._nodes: List[Node] = []
        for u in nodes:
            self.add(u)

    @classmethod
    def from_graph(cls, g: Graph) -> "NodeIndexer":
        """Index every node of ``g`` in the graph's iteration order."""
        return cls(g.nodes())

    def add(self, node: Node) -> int:
        """Return the index of ``node``, assigning a fresh one if unseen."""
        i = self._index.get(node)
        if i is None:
            i = len(self._nodes)
            self._index[node] = i
            self._nodes.append(node)
        return i

    def index(self, node: Node) -> int:
        """The index of a known node; raises ``KeyError`` if unseen."""
        return self._index[node]

    def get(self, node: Node, default: Optional[int] = None) -> Optional[int]:
        """The index of ``node`` or ``default`` when unseen."""
        return self._index.get(node, default)

    def node(self, i: int) -> Node:
        """The node assigned index ``i``; raises ``IndexError`` if unused."""
        return self._nodes[i]

    def nodes_of(self, indices: Iterable[int]) -> List[Node]:
        """Translate a batch of indices back to node objects."""
        nodes = self._nodes
        return [nodes[i] for i in indices]

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: Node) -> bool:
        return node in self._index

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def __repr__(self) -> str:
        return f"NodeIndexer(n={len(self._nodes)})"
