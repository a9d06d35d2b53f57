"""Incremental fault-tolerant spanner maintenance (extension).

The paper proves Theorem 8 for an *arbitrary* edge order (Algorithm 3)
-- which has a practical consequence the paper doesn't dwell on: the
greedy works **online** for unweighted graphs.  Feed edges as they
arrive; each new edge goes through the same LBC(2k-1, f) test against
the current spanner; the maintained subgraph at every point in time is
exactly what a batch run of Algorithm 3 with that arrival order would
have produced, so the size bound AND the fault-tolerance guarantee hold
continuously.

Limits (inherited from the theory, enforced here):

* Unweighted (unit weights) only.  The weighted Theorem 10 needs the
  nondecreasing-weight order, which an online arrival cannot promise;
  attempting to insert a non-unit weight raises.
* Insertions only.  Deletions would invalidate earlier NO decisions
  (an edge declined because of paths through a later-deleted edge); a
  decremental variant is an open problem.

This is the natural building block for streaming topologies -- overlay
networks adding links, incremental network design -- and experiment E19
measures its per-insertion latency against periodic batch rebuilds.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Union

from repro.core.spanner import FaultModel, SpannerResult
from repro.graph.csr import CSRBuilder
from repro.graph.graph import Edge, Graph, Node, edge_key
from repro.graph.index import NodeIndexer
from repro.graph.traversal import BFSWorkspace
from repro.lbc.approx import LBCAnswer, LBCResult, lbc_edge_csr, lbc_vertex_csr
from repro.registry import register_algorithm


@register_algorithm(
    "incremental",
    summary="Online Algorithm 3: the LBC-gated insertion stream, run "
            "once over a static edge list",
    guarantee="stretch 2k-1, O(k f^(1-1/k) n^(1+1/k)) edges, online "
              "insertions; unit weights only",
    weighted=False,
    fault_models=("vertex", "edge"),
)
def incremental_spanner(
    g: Graph,
    k: int,
    f: int = 0,
    fault_model: Union[FaultModel, str] = FaultModel.VERTEX,
) -> SpannerResult:
    """One-shot registry form of :class:`IncrementalSpanner`.

    Declares every node, then feeds the edges of ``g`` in iteration
    order through the online LBC test -- exactly what a batch run of
    Algorithm 3 with that arrival order produces, so the size bound and
    fault-tolerance guarantee hold.  This is the registry's one
    genuinely unit-only construction (Theorem 10's nondecreasing-weight
    order cannot be honored online): the spec is tagged
    ``weighted=False`` and :func:`repro.registry.build_spanner` rejects
    weighted inputs with a typed error; calling this function directly
    with a weighted graph raises ``ValueError`` from
    :meth:`IncrementalSpanner.insert`.
    """
    inc = IncrementalSpanner(k=k, f=f, fault_model=fault_model)
    for u in g.nodes():
        inc.add_node(u)
    for u, v, w in g.weighted_edges():
        inc.insert(u, v, weight=w)
    return inc.as_result()


class IncrementalSpanner:
    """Maintain an f-FT (2k-1)-spanner of a growing unweighted graph.

    Examples
    --------
    >>> inc = IncrementalSpanner(k=2, f=1)
    >>> inc.insert(1, 2)
    True
    >>> inc.insert(2, 3)
    True
    >>> inc.spanner.num_edges
    2
    """

    def __init__(
        self,
        k: int,
        f: int,
        fault_model: Union[FaultModel, str] = FaultModel.VERTEX,
    ) -> None:
        if k < 1:
            raise ValueError(f"need k >= 1, got {k}")
        if f < 0:
            raise ValueError(f"need f >= 0, got {f}")
        self.k = k
        self.f = f
        self.fault_model = FaultModel.coerce(fault_model)
        self._decide = (
            lbc_vertex_csr
            if self.fault_model is FaultModel.VERTEX
            else lbc_edge_csr
        )
        self.graph = Graph()  # everything ever inserted
        self.spanner = Graph()  # the maintained subgraph
        # CSR mirror of the maintained spanner: the indexer, builder,
        # and workspace persist across all insertions, so the
        # steady-state per-insert cost is the LBC BFS work alone.
        self._indexer = NodeIndexer()
        self._builder = CSRBuilder()
        self._workspace = BFSWorkspace()
        self.certificates: Dict[Edge, FrozenSet] = {}
        self.inserted = 0
        self.kept = 0
        self.bfs_calls = 0

    @property
    def stretch(self) -> int:
        """The guarantee ``2k - 1``."""
        return 2 * self.k - 1

    def add_node(self, u: Node) -> None:
        """Declare a node before any of its edges arrive (optional)."""
        self.graph.add_node(u)
        self.spanner.add_node(u)
        self._indexer.add(u)
        self._builder.ensure_nodes(len(self._indexer))

    def insert(self, u: Node, v: Node, weight: float = 1.0) -> bool:
        """Process an arriving edge; returns True iff it was kept.

        Re-inserting a known edge is a no-op returning whether it had
        been kept.  Non-unit weights raise ``ValueError`` (see module
        docs).
        """
        if weight != 1.0:
            raise ValueError(
                "incremental maintenance is unweighted-only (Theorem 10's "
                "weight ordering cannot be honored online)"
            )
        if self.graph.has_edge(u, v):
            return self.spanner.has_edge(u, v)
        self.graph.add_edge(u, v)
        self.spanner.add_node(u)
        self.spanner.add_node(v)
        self.inserted += 1
        result = self._run_lbc(u, v)
        self.bfs_calls += result.iterations
        if result.answer is LBCAnswer.YES:
            self.spanner.add_edge(u, v)
            self._builder.add_edge(
                self._indexer.index(u), self._indexer.index(v)
            )
            self.certificates[edge_key(u, v)] = result.cut
            self.kept += 1
            return True
        return False

    def _run_lbc(self, u: Node, v: Node) -> LBCResult:
        """LBC(2k-1, f) for the arriving edge on the CSR mirror."""
        ui = self._indexer.add(u)
        vi = self._indexer.add(v)
        self._builder.ensure_nodes(len(self._indexer))
        return self._decide(
            self._builder, ui, vi, self.stretch, self.f,
            self._workspace, self._indexer,
        )

    def insert_many(self, edges) -> int:
        """Insert a batch of ``(u, v)`` pairs; returns how many were kept."""
        kept = 0
        for u, v in edges:
            if self.insert(u, v):
                kept += 1
        return kept

    def as_result(self) -> SpannerResult:
        """Snapshot the current state as a standard :class:`SpannerResult`.

        The snapshot is live (shares the spanner graph); copy it if you
        need isolation.
        """
        return SpannerResult(
            spanner=self.spanner,
            k=self.k,
            f=self.f,
            fault_model=self.fault_model,
            algorithm="incremental-greedy",
            certificates=dict(self.certificates),
            edges_considered=self.inserted,
            bfs_calls=self.bfs_calls,
        )

    def __repr__(self) -> str:
        return (
            f"IncrementalSpanner(k={self.k}, f={self.f}, "
            f"inserted={self.inserted}, kept={self.kept})"
        )
