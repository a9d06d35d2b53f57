"""Graph substrate for the fault-tolerant spanner library.

This subpackage provides the minimal, fast graph machinery the paper's
algorithms are phrased on:

- :class:`~repro.graph.graph.Graph` -- an undirected (optionally weighted)
  graph with dict-of-dict adjacency.
- :class:`~repro.graph.views.VertexFaultView` /
  :class:`~repro.graph.views.EdgeFaultView` -- lazy ``G \\ F`` views used by
  every fault-tolerance routine (O(1) to construct, no copying).
- The CSR execution substrate (:mod:`~repro.graph.index`,
  :mod:`~repro.graph.csr`): :class:`~repro.graph.index.NodeIndexer`,
  :class:`~repro.graph.csr.CSRGraph`, :class:`~repro.graph.csr.CSRBuilder`,
  and :class:`~repro.graph.csr.FaultMask` -- the flat-array twin of the
  dict structures that the spanner hot path runs on.
- The snapshot/sweep substrate (:mod:`~repro.graph.snapshot`):
  :class:`~repro.graph.snapshot.CSRSnapshot`,
  :class:`~repro.graph.snapshot.ScenarioSweep`, and
  :class:`~repro.graph.snapshot.DualCSRSnapshot` -- freeze a graph once,
  then batch many fault scenarios as O(|F|) mask re-stamps (the engine
  behind the verification sweeps and the applications layer).
- Traversal primitives (:mod:`~repro.graph.traversal`): BFS distances,
  hop-bounded BFS path extraction (the inner loop of the paper's Algorithm 2),
  and Dijkstra for weighted distances -- each with a dict implementation
  (over a ``Graph`` or a lazy fault view) and a CSR one (``csr_*`` +
  :class:`~repro.graph.traversal.BFSWorkspace`).
- Girth computation (:mod:`~repro.graph.girth`), used to validate the
  Moore-bound argument behind the size analysis (Lemma 7 / Theorem 8).
- Workload generators (:mod:`~repro.graph.generators`) for every experiment
  in EXPERIMENTS.md.
- Edge-list I/O (:mod:`~repro.graph.io`).
"""

from repro.graph.graph import Graph, edge_key
from repro.graph.index import NodeIndexer
from repro.graph.csr import CSRBuilder, CSRGraph, FaultMask
from repro.graph.views import (
    EdgeFaultView,
    GraphView,
    IdentityView,
    VertexFaultView,
    fault_view,
)
from repro.graph.traversal import (
    BFSWorkspace,
    DijkstraWorkspace,
    bfs_distances,
    bfs_tree,
    bounded_bfs_path,
    connected_components,
    csr_bfs_distances,
    csr_bfs_parents,
    csr_bounded_bfs_path,
    csr_bounded_bfs_path_edges,
    csr_bounded_dijkstra_path,
    csr_bounded_dijkstra_path_edges,
    csr_dijkstra,
    csr_dijkstra_parents,
    csr_weighted_distance,
    dijkstra,
    hop_distance,
    is_connected,
    shortest_path,
    weighted_distance,
)
from repro.graph.snapshot import CSRSnapshot, DualCSRSnapshot, ScenarioSweep
from repro.graph.girth import girth, has_cycle_shorter_than
from repro.graph import generators
from repro.graph import io
from repro.graph import metrics

__all__ = [
    "Graph",
    "edge_key",
    "NodeIndexer",
    "CSRGraph",
    "CSRBuilder",
    "FaultMask",
    "BFSWorkspace",
    "DijkstraWorkspace",
    "CSRSnapshot",
    "DualCSRSnapshot",
    "ScenarioSweep",
    "csr_bfs_distances",
    "csr_bfs_parents",
    "csr_bounded_bfs_path",
    "csr_bounded_bfs_path_edges",
    "csr_bounded_dijkstra_path",
    "csr_bounded_dijkstra_path_edges",
    "csr_dijkstra",
    "csr_dijkstra_parents",
    "csr_weighted_distance",
    "GraphView",
    "IdentityView",
    "VertexFaultView",
    "EdgeFaultView",
    "fault_view",
    "bfs_distances",
    "bfs_tree",
    "bounded_bfs_path",
    "connected_components",
    "dijkstra",
    "hop_distance",
    "is_connected",
    "shortest_path",
    "weighted_distance",
    "girth",
    "has_cycle_shorter_than",
    "generators",
    "io",
    "metrics",
]
