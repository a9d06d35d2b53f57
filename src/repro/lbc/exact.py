"""Exact Length-Bounded Cut solvers (exponential time).

Length-Bounded Cut is NP-hard [BEH+06], so these solvers enumerate
candidate fault sets and are only usable on small instances.  They serve
two roles:

1. Ground truth for experiment E1 (quality of the Algorithm 2
   approximation) and for unit/property tests.
2. The inner "if" condition of the paper's Algorithm 1 (the exponential
   greedy), via :func:`exists_vertex_cut` / :func:`exists_edge_cut`.

Two pruning tricks keep the enumeration tolerable:

* Candidates are restricted to vertices (edges) that lie on *some*
  hop-bounded path between the terminals: anything else can never help a
  minimal cut.
* Enumeration proceeds by branching on an uncovered short path (every cut
  must hit every short path), which is exponentially better than the naive
  "all C(n, f) subsets" scan for sparse instances.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.graph.csr import CSRLike
from repro.graph.graph import Edge, Graph, Node, edge_key
from repro.graph.traversal import (
    BFSWorkspace,
    bounded_bfs_path,
    csr_bounded_bfs_path,
    csr_bounded_bfs_path_edges,
)
from repro.graph.views import EdgeFaultView, GraphView, VertexFaultView

GraphLike = Union[Graph, GraphView]


# --------------------------------------------------------------------- #
# Cut predicates
# --------------------------------------------------------------------- #


def is_vertex_length_cut(
    g: GraphLike, source: Node, target: Node, t: int, faults: Iterable[Node]
) -> bool:
    """Whether removing ``faults`` pushes the terminals > ``t`` hops apart.

    ``faults`` must not contain the terminals (a cut is a subset of
    ``V \\ {u, v}`` by definition); violating that raises ``ValueError``.
    """
    fault_set = set(faults)
    if source in fault_set or target in fault_set:
        raise ValueError("a length-bounded cut may not contain a terminal")
    view = VertexFaultView(g, fault_set) if fault_set else g
    return bounded_bfs_path(view, source, target, max_hops=t) is None


def is_edge_length_cut(
    g: GraphLike, source: Node, target: Node, t: int, faults: Iterable[Edge]
) -> bool:
    """Edge-fault analogue of :func:`is_vertex_length_cut`."""
    fault_set = {edge_key(u, v) for u, v in faults}
    view = EdgeFaultView(g, fault_set) if fault_set else g
    return bounded_bfs_path(view, source, target, max_hops=t) is None


# --------------------------------------------------------------------- #
# Exact minimum cuts (branch on an uncovered short path)
# --------------------------------------------------------------------- #


def exact_vertex_lbc(
    g: GraphLike,
    source: Node,
    target: Node,
    t: int,
    max_size: Optional[int] = None,
) -> Optional[FrozenSet[Node]]:
    """A minimum vertex length-t cut, or ``None`` if none within budget.

    ``max_size`` bounds the search depth (defaults to n, i.e. unbounded);
    ``None`` is returned both when the terminals are adjacent (no cut can
    exist) and when every cut exceeds ``max_size``.

    The search branches on the vertices of some currently-uncovered path
    of <= t hops: any valid cut must contain at least one interior vertex
    of that path, giving a branching factor of at most ``t - 1`` and depth
    at most ``max_size``.
    """
    if source == target:
        raise ValueError("terminals must be distinct")
    budget = g.num_nodes if max_size is None else max_size
    best: List[Optional[FrozenSet[Node]]] = [None]

    def search(faults: Set[Node], depth_budget: int) -> None:
        if best[0] is not None and len(faults) >= len(best[0]):
            return
        view = VertexFaultView(g, faults) if faults else g
        path = bounded_bfs_path(view, source, target, max_hops=t)
        if path is None:
            if best[0] is None or len(faults) < len(best[0]):
                best[0] = frozenset(faults)
            return
        interior = path[1:-1]
        if not interior or depth_budget == 0:
            return  # direct edge (uncuttable) or out of budget
        for v in interior:
            faults.add(v)
            search(faults, depth_budget - 1)
            faults.remove(v)

    search(set(), budget)
    return best[0]


def exact_edge_lbc(
    g: GraphLike,
    source: Node,
    target: Node,
    t: int,
    max_size: Optional[int] = None,
) -> Optional[FrozenSet[Edge]]:
    """A minimum edge length-t cut, or ``None`` if none within budget."""
    if source == target:
        raise ValueError("terminals must be distinct")
    if max_size is None:
        budget = sum(1 for _ in g.nodes()) ** 2  # always enough
    else:
        budget = max_size
    best: List[Optional[FrozenSet[Edge]]] = [None]

    def search(faults: Set[Edge], depth_budget: int) -> None:
        if best[0] is not None and len(faults) >= len(best[0]):
            return
        view = EdgeFaultView(g, faults) if faults else g
        path = bounded_bfs_path(view, source, target, max_hops=t)
        if path is None:
            if best[0] is None or len(faults) < len(best[0]):
                best[0] = frozenset(faults)
            return
        if depth_budget == 0:
            return
        for i in range(len(path) - 1):
            e = edge_key(path[i], path[i + 1])
            faults.add(e)
            search(faults, depth_budget - 1)
            faults.remove(e)

    search(set(), budget)
    return best[0]


# --------------------------------------------------------------------- #
# CSR fast paths (index-level; used by the exponential greedy)
# --------------------------------------------------------------------- #


def exact_vertex_lbc_csr(
    csr: CSRLike,
    source: int,
    target: int,
    t: int,
    max_size: Optional[int] = None,
    workspace: Optional[BFSWorkspace] = None,
) -> Optional[FrozenSet[int]]:
    """CSR twin of :func:`exact_vertex_lbc`, over node indices.

    Same branch-on-an-uncovered-path search; the candidate fault set is a
    plain set of indices re-stamped into the workspace's vertex mask
    before each BFS (O(|F|) <= O(f) per call).  Both versions find paths
    in identical order, so they return the same minimum cut.
    """
    if source == target:
        raise ValueError("terminals must be distinct")
    budget = csr.num_nodes if max_size is None else max_size
    ws = workspace if workspace is not None else BFSWorkspace(
        csr.num_nodes, csr.num_edges
    )
    ws.ensure(csr.num_nodes, csr.num_edges)
    vmask = ws.vertex_mask
    best: List[Optional[FrozenSet[int]]] = [None]

    def search(faults: Set[int], depth_budget: int) -> None:
        if best[0] is not None and len(faults) >= len(best[0]):
            return
        if faults:
            vmask.clear()
            vmask.add_all(faults)
            path = csr_bounded_bfs_path(
                csr, source, target, t, ws, vertex_mask=vmask
            )
        else:
            path = csr_bounded_bfs_path(csr, source, target, t, ws)
        if path is None:
            if best[0] is None or len(faults) < len(best[0]):
                best[0] = frozenset(faults)
            return
        interior = path[1:-1]
        if not interior or depth_budget == 0:
            return  # direct edge (uncuttable) or out of budget
        for v in interior:
            faults.add(v)
            search(faults, depth_budget - 1)
            faults.remove(v)

    search(set(), budget)
    return best[0]


def exact_edge_lbc_csr(
    csr: CSRLike,
    source: int,
    target: int,
    t: int,
    max_size: Optional[int] = None,
    workspace: Optional[BFSWorkspace] = None,
) -> Optional[FrozenSet[int]]:
    """CSR twin of :func:`exact_edge_lbc`; the cut is a set of edge ids."""
    if source == target:
        raise ValueError("terminals must be distinct")
    budget = csr.num_nodes ** 2 if max_size is None else max_size
    ws = workspace if workspace is not None else BFSWorkspace(
        csr.num_nodes, csr.num_edges
    )
    ws.ensure(csr.num_nodes, csr.num_edges)
    emask = ws.edge_mask
    best: List[Optional[FrozenSet[int]]] = [None]

    def search(faults: Set[int], depth_budget: int) -> None:
        if best[0] is not None and len(faults) >= len(best[0]):
            return
        if faults:
            emask.clear()
            emask.add_all(faults)
            found = csr_bounded_bfs_path_edges(
                csr, source, target, t, ws, edge_mask=emask
            )
        else:
            found = csr_bounded_bfs_path_edges(csr, source, target, t, ws)
        if found is None:
            if best[0] is None or len(faults) < len(best[0]):
                best[0] = frozenset(faults)
            return
        if depth_budget == 0:
            return
        _, eids = found
        for e in eids:
            faults.add(e)
            search(faults, depth_budget - 1)
            faults.remove(e)

    search(set(), budget)
    return best[0]


# --------------------------------------------------------------------- #
# Existence tests (the exponential greedy's "if" condition)
# --------------------------------------------------------------------- #


def exists_vertex_cut(
    g: GraphLike, source: Node, target: Node, t: int, f: int
) -> bool:
    """Whether some vertex set F, |F| <= f, has d_{g\\F}(u, v) > t.

    This is exactly the condition tested by the paper's Algorithm 1 for
    unweighted graphs.  Implemented via the bounded exact search.
    """
    cut = exact_vertex_lbc(g, source, target, t, max_size=f)
    return cut is not None


def exists_edge_cut(
    g: GraphLike, source: Node, target: Node, t: int, f: int
) -> bool:
    """Edge-fault analogue of :func:`exists_vertex_cut`."""
    cut = exact_edge_lbc(g, source, target, t, max_size=f)
    return cut is not None


def brute_force_vertex_lbc(
    g: Graph, source: Node, target: Node, t: int, max_size: int
) -> Optional[FrozenSet[Node]]:
    """Reference oracle: scan all C(n, i) vertex subsets, i <= max_size.

    Exponentially slower than :func:`exact_vertex_lbc`; exists so property
    tests can cross-validate the branch-and-bound search on tiny graphs.
    """
    candidates = [
        v for v in g.nodes() if v != source and v != target
    ]
    for size in range(0, max_size + 1):
        for combo in itertools.combinations(candidates, size):
            if is_vertex_length_cut(g, source, target, t, combo):
                return frozenset(combo)
    return None


def brute_force_edge_lbc(
    g: Graph, source: Node, target: Node, t: int, max_size: int
) -> Optional[FrozenSet[Edge]]:
    """Reference oracle for the edge variant (all edge subsets)."""
    candidates = list(g.edges())
    for size in range(0, max_size + 1):
        for combo in itertools.combinations(candidates, size):
            if is_edge_length_cut(g, source, target, t, combo):
                return frozenset(edge_key(u, v) for u, v in combo)
    return None
