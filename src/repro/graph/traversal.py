"""Traversal primitives: BFS, hop-bounded BFS, and Dijkstra.

These are the time-critical inner loops of the library.  The paper's
Algorithm 2 runs a BFS per iteration to find a path of at most ``t`` hops
between two terminals, so :func:`bounded_bfs_path` is written to terminate
as early as possible (stop at the hop budget, stop when the target is
reached) and to work directly on the lazy fault views from
:mod:`repro.graph.views` without materializing subgraphs.

Two implementations live here:

* The dict path: every function without the ``csr_`` prefix accepts
  a :class:`~repro.graph.graph.Graph` or any object satisfying the
  :class:`~repro.graph.views.GraphView` protocol, and works node-object by
  node-object.  It handles arbitrary views and stays the reference
  implementation (``tests/reference/`` builds on it).
* The CSR path: :func:`csr_bfs_distances` / :func:`csr_bounded_bfs_path`
  run the same searches over a :class:`~repro.graph.csr.CSRGraph` (or
  growing :class:`~repro.graph.csr.CSRBuilder`) using integer node ids,
  generation-stamped visited bytes, and preallocated parent/depth/queue
  buffers owned by a :class:`BFSWorkspace` -- so a full greedy run makes
  zero per-call allocations of visited structures.  Fault sets arrive as
  :class:`~repro.graph.csr.FaultMask` stamps rather than views.  The
  weighted twins -- :func:`csr_dijkstra`, :func:`csr_weighted_distance`,
  :func:`csr_bounded_dijkstra_path` and
  :func:`csr_bounded_dijkstra_path_edges` -- apply the same discipline to
  binary-heap Dijkstra through a :class:`DijkstraWorkspace` (preallocated
  distance/predecessor arrays, generation-stamped labels, fault-mask
  pre-stamping, early exit on the target, ``max_dist`` pruning).

Both paths visit neighbors in identical order (CSR rows preserve dict
insertion order) and break distance ties identically (heap entries carry
an insertion counter), so they return the *same* paths, not just paths of
the same length.

Weighted search engines
-----------------------
The CSR Dijkstra primitives run on one of three interchangeable engines
(``search=`` keyword, default ``"heap"``):

* ``"heap"`` -- the binary-heap relaxation above: works for any
  non-negative weights, O((n + m) log n).
* ``"bucket"`` -- a Dial bucket queue for graphs whose weights are all
  positive integers at most :data:`BUCKET_MAX_WEIGHT`: O(m + D) with D
  the largest finite distance, no heap at all.  Settling order is
  *identical* to the heap engine (buckets are scanned in push order,
  which is exactly how the heap breaks equal-distance ties via its
  insertion counter), and the predecessor rule is the same strict
  improvement -- so distances, parents, and reconstructed paths are
  bit-identical, not merely equivalent.
* ``"bidir"`` -- bidirectional Dijkstra for point-to-point *distance*
  probes only (:func:`csr_weighted_distance`): two half searches that
  meet in the middle, typically touching far fewer nodes than a full
  forward sweep.  Restricted to integral weights, where every path sum
  is exact regardless of association order, so the returned distance is
  bit-identical to the unidirectional engines.

Engine *selection* (the ``"auto"`` policy keyed on a snapshot's weight
profile) lives in :mod:`repro.graph.snapshot`; this module only executes
whichever engine the caller resolved.

Multi-source batch kernels
--------------------------
The batch engine (``search="batch"`` at the snapshot seam) amortizes the
per-call interpreter overhead of the single-root kernels across many
roots: :func:`csr_bfs_multi` advances *all* roots level-synchronously in
one shared frontier, and :func:`csr_bucket_multi` settles all roots in
one shared circular Dial sweep.  Both work on a
:class:`MultiSourceWorkspace` whose buffers are flat *label planes* --
``roots x num_nodes`` cells addressed by the packed code
``root_index * num_nodes + node`` -- generation-stamped exactly like the
single-root workspaces.  Each root's projection of the shared frontier
(or bucket scan) enumerates nodes in precisely the order the sequential
kernel would, so per-root distances, parents, and settle orders are
bit-identical to the ``heap``/``bucket``/BFS engines, not merely
equivalent.  :func:`csr_multi_pair_distances` is the pair-probe variant
(many s-t probes, one sweep, early exit once every target is resolved).
When numpy is importable the BFS batch kernel additionally offers a
vectorized variant (:data:`HAVE_NUMPY`, ``REPRO_BATCH_ACCEL`` override)
that processes whole frontiers as index arrays; the stdlib loops remain
the always-available fallback and the reference for its parity tests.
"""

from __future__ import annotations

import heapq
import math
import os
from array import array
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

try:  # optional acceleration for the batch BFS kernel (stdlib fallback)
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

from repro.graph.csr import CSRLike, FaultMask
from repro.graph.graph import Graph, Node
from repro.graph.views import GraphView

#: Anything the dict traversals accept: a concrete ``Graph`` or a
#: read-only fault view.  CSR graphs do NOT satisfy this protocol -- they
#: use the dedicated ``csr_*`` entry points below.
GraphLike = Union[Graph, GraphView]

INFINITY = math.inf

#: Largest edge weight the Dial bucket-queue engine accepts.  The
#: circular queue holds ``max_weight + 1`` buckets and every empty
#: bucket between two occupied distances costs one scan step, so very
#: large integer weights would erase the engine's win; snapshots whose
#: weights exceed this bound are profiled as ``"float"`` and stay on the
#: binary heap.
BUCKET_MAX_WEIGHT = 255


def weight_profile(weights: Iterable[float]) -> Tuple[str, int]:
    """Classify an edge-weight collection for engine selection.

    Returns ``(profile, max_weight)`` where ``profile`` is

    * ``"unit"`` -- every weight is exactly 1.0 (BFS answers distance
      queries; any weighted engine is also exact);
    * ``"int"`` -- every weight is a positive integer at most
      :data:`BUCKET_MAX_WEIGHT` (the bucket and bidirectional engines
      are exact: integer path sums cannot depend on association order);
    * ``"float"`` -- anything else (only the heap engine reproduces the
      dict path bit for bit).

    ``max_weight`` is the largest weight as an ``int`` for the first two
    profiles (1 for ``"unit"``) and 0 for ``"float"``.
    """
    unit = True
    max_w = 1
    for w in weights:
        if w == 1.0:
            continue
        unit = False
        if w < 1.0 or w > BUCKET_MAX_WEIGHT or w != int(w):
            return "float", 0
        if w > max_w:
            max_w = int(w)
    return ("unit", 1) if unit else ("int", max_w)


def bfs_distances(
    g: GraphLike, source: Node, max_hops: Optional[int] = None
) -> Dict[Node, int]:
    """Hop distances from ``source`` to every reachable node.

    ``max_hops`` truncates the search: nodes further than that many hops are
    simply absent from the result.  Unreachable nodes are likewise absent
    (callers treat missing entries as distance infinity).
    """
    if not g.has_node(source):
        raise KeyError(f"source {source!r} not in graph")
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        d = dist[u]
        if max_hops is not None and d >= max_hops:
            continue
        for v in g.neighbors(u):
            if v not in dist:
                dist[v] = d + 1
                frontier.append(v)
    return dist


def bfs_tree(
    g: GraphLike, source: Node, max_hops: Optional[int] = None
) -> Dict[Node, Optional[Node]]:
    """BFS parent pointers from ``source`` (source maps to ``None``)."""
    if not g.has_node(source):
        raise KeyError(f"source {source!r} not in graph")
    parent: Dict[Node, Optional[Node]] = {source: None}
    depth = {source: 0}
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        d = depth[u]
        if max_hops is not None and d >= max_hops:
            continue
        for v in g.neighbors(u):
            if v not in parent:
                parent[v] = u
                depth[v] = d + 1
                frontier.append(v)
    return parent


def bounded_bfs_path(
    g: GraphLike, source: Node, target: Node, max_hops: int
) -> Optional[List[Node]]:
    """A path from ``source`` to ``target`` with at most ``max_hops`` edges.

    Returns the node sequence (including both endpoints) of a *shortest-hop*
    path, or ``None`` if no path within the budget exists.  This is the exact
    primitive the paper's Algorithm 2 invokes: "Run BFS to find a path P of
    length at most t from u to v in G \\ F if one exists."

    The search stops expanding as soon as the target is dequeued or the hop
    budget is exhausted, so the cost is O(m + n) worst case but typically far
    less on sparse spanner subgraphs.
    """
    if not g.has_node(source):
        raise KeyError(f"source {source!r} not in graph")
    if not g.has_node(target):
        raise KeyError(f"target {target!r} not in graph")
    if source == target:
        return [source]
    if max_hops <= 0:
        return None
    parent: Dict[Node, Optional[Node]] = {source: None}
    depth = {source: 0}
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        d = depth[u]
        if d >= max_hops:
            # Every later entry is at least this deep; nothing can reach
            # the target within budget anymore.
            break
        for v in g.neighbors(u):
            if v in parent:
                continue
            parent[v] = u
            depth[v] = d + 1
            if v == target:
                return _reconstruct(parent, target)
            frontier.append(v)
    return None


def _reconstruct(
    parent: Dict[Node, Optional[Node]], target: Node
) -> List[Node]:
    """Walk parent pointers back from ``target`` to the BFS root."""
    path = [target]
    u = parent[target]
    while u is not None:
        path.append(u)
        u = parent[u]
    path.reverse()
    return path


def hop_distance(g: GraphLike, source: Node, target: Node) -> float:
    """Number of edges on a shortest-hop path, or ``inf`` if disconnected."""
    if source == target:
        if not g.has_node(source):
            raise KeyError(f"node {source!r} not in graph")
        return 0
    path = bounded_bfs_path(g, source, target, max_hops=g.num_nodes)
    return INFINITY if path is None else len(path) - 1


# --------------------------------------------------------------------- #
# CSR path: array-based BFS with a reusable workspace
# --------------------------------------------------------------------- #


class BFSWorkspace:
    """Preallocated scratch buffers for the CSR BFS primitives.

    One workspace serves an unbounded number of BFS calls over graphs of
    any (growing) size: ``ensure`` only ever extends the buffers, and a
    generation-stamped visited array makes per-call reset O(1).  The
    workspace also owns a vertex :class:`FaultMask` and an edge
    :class:`FaultMask` so callers running the LBC loop need no further
    allocations at all.

    Not thread-safe; use one workspace per thread.
    """

    __slots__ = (
        "seen", "seen_gen", "parent", "parent_eid", "depth", "queue",
        "frontier", "vertex_mask", "edge_mask",
    )

    def __init__(self, num_nodes: int = 0, num_edges: int = 0) -> None:
        self.seen = bytearray(num_nodes)
        self.seen_gen = 1
        self.parent = [0] * num_nodes
        self.parent_eid = [0] * num_nodes
        self.depth = [0] * num_nodes
        self.queue = [0] * num_nodes
        self.frontier = [0] * num_nodes
        self.vertex_mask = FaultMask(num_nodes)
        self.edge_mask = FaultMask(num_edges)

    def ensure(self, num_nodes: int, num_edges: int = 0) -> None:
        """Grow every buffer to cover the given node/edge counts."""
        short = num_nodes - len(self.seen)
        if short > 0:
            self.seen.extend(bytes(short))
            self.parent.extend([0] * short)
            self.parent_eid.extend([0] * short)
            self.depth.extend([0] * short)
            self.queue.extend([0] * short)
            self.frontier.extend([0] * short)
            self.vertex_mask.ensure(num_nodes)
        self.edge_mask.ensure(num_edges)

    def next_generation(self) -> int:
        """Advance and return the visited generation (O(1) amortized)."""
        self.seen_gen += 1
        if self.seen_gen == 256:
            self.seen[:] = bytes(len(self.seen))
            self.seen_gen = 1
        return self.seen_gen


def _csr_search(
    csr: CSRLike,
    source: int,
    target: int,
    max_hops: float,
    ws: BFSWorkspace,
    vertex_mask: Optional[FaultMask],
    edge_mask: Optional[FaultMask],
    need_edge_ids: bool,
) -> bool:
    """Core hop-bounded BFS to a target over CSR adjacency.

    Level-synchronized: the two preallocated buffers ``ws.queue`` /
    ``ws.frontier`` ping-pong as current/next frontier, which keeps the
    inner loop free of per-node depth bookkeeping.  Visit order is
    identical to FIFO BFS, so paths match the dict path node for node.

    Two structural savings relative to a naive queue BFS:

    * Faulted *vertices* are pre-stamped into the visited array (O(|F|)
      per call, |F| <= alpha * t), so the per-neighbor inner loop
      carries no vertex-mask test at all; only edge masks are tested.
    * The final level is never expanded, so its nodes are not stamped or
      enqueued either -- they can only matter by *being* the target, and
      a bare equality scan detects that.  For the hop bounds the LBC
      loop uses, the final level dominates the edge traversals, so this
      removes most of the per-neighbor work of a typical call.

    Fills ``ws.parent`` (and ``ws.parent_eid`` when ``need_edge_ids``)
    for every node stamped with the current generation; returns whether
    ``target`` was reached within ``max_hops`` levels.
    """
    ws.ensure(csr.num_nodes, csr.num_edges)
    gen = ws.next_generation()
    seen = ws.seen
    parent = ws.parent
    cur = ws.queue
    nxt = ws.frontier
    rows = csr.neighbors
    if vertex_mask is not None:
        for b in vertex_mask.members:
            seen[b] = gen
    seen[source] = gen
    parent[source] = -1
    cur[0] = source
    cur_len = 1
    remaining = max_hops
    if edge_mask is not None:
        eid_rows = csr.edge_id_rows
        parent_eid = ws.parent_eid
        parent_eid[source] = -1
        estamp, egen = edge_mask.stamp, edge_mask.gen
        while cur_len and remaining > 1:
            remaining -= 1
            nxt_len = 0
            for qi in range(cur_len):
                u = cur[qi]
                row = rows[u]
                erow = eid_rows[u]
                for j in range(len(row)):
                    v = row[j]
                    if seen[v] == gen:
                        continue
                    e = erow[j]
                    if estamp[e] == egen:
                        continue
                    seen[v] = gen
                    parent[v] = u
                    parent_eid[v] = e
                    if v == target:
                        return True
                    nxt[nxt_len] = v
                    nxt_len += 1
            cur, nxt = nxt, cur
            cur_len = nxt_len
        if cur_len and remaining == 1:
            for qi in range(cur_len):
                u = cur[qi]
                row = rows[u]
                erow = eid_rows[u]
                for j in range(len(row)):
                    if row[j] == target and estamp[erow[j]] != egen:
                        parent[target] = u
                        parent_eid[target] = erow[j]
                        return True
    elif need_edge_ids:
        eid_rows = csr.edge_id_rows
        parent_eid = ws.parent_eid
        parent_eid[source] = -1
        while cur_len and remaining > 1:
            remaining -= 1
            nxt_len = 0
            for qi in range(cur_len):
                u = cur[qi]
                row = rows[u]
                erow = eid_rows[u]
                for j in range(len(row)):
                    v = row[j]
                    if seen[v] == gen:
                        continue
                    seen[v] = gen
                    parent[v] = u
                    parent_eid[v] = erow[j]
                    if v == target:
                        return True
                    nxt[nxt_len] = v
                    nxt_len += 1
            cur, nxt = nxt, cur
            cur_len = nxt_len
        if cur_len and remaining == 1:
            for qi in range(cur_len):
                u = cur[qi]
                row = rows[u]
                for j in range(len(row)):
                    if row[j] == target:
                        parent[target] = u
                        parent_eid[target] = eid_rows[u][j]
                        return True
    else:
        while cur_len and remaining > 1:
            remaining -= 1
            nxt_len = 0
            for qi in range(cur_len):
                u = cur[qi]
                for v in rows[u]:
                    if seen[v] == gen:
                        continue
                    seen[v] = gen
                    parent[v] = u
                    if v == target:
                        return True
                    nxt[nxt_len] = v
                    nxt_len += 1
            cur, nxt = nxt, cur
            cur_len = nxt_len
        if cur_len and remaining == 1:
            for qi in range(cur_len):
                u = cur[qi]
                if target in rows[u]:
                    parent[target] = u
                    return True
    return False


def _csr_check_terminal(
    csr: CSRLike, i: int, vertex_mask: Optional[FaultMask], role: str
) -> None:
    """Mirror the dict path's KeyErrors for bad/faulted terminals."""
    if not 0 <= i < csr.num_nodes:
        raise KeyError(f"{role} index {i} not in graph")
    if vertex_mask is not None and i in vertex_mask:
        raise KeyError(f"{role} index {i} is faulted")


def csr_bfs_distances(
    csr: CSRLike,
    source: int,
    max_hops: Optional[int] = None,
    workspace: Optional[BFSWorkspace] = None,
    vertex_mask: Optional[FaultMask] = None,
    edge_mask: Optional[FaultMask] = None,
) -> Dict[int, int]:
    """Hop distances from node index ``source``: CSR twin of
    :func:`bfs_distances`.

    Returns ``{node_index: hops}`` for every reachable (unmasked) node
    within ``max_hops``; missing entries mean unreachable/pruned, exactly
    like the dict variant.
    """
    _csr_check_terminal(csr, source, vertex_mask, "source")
    ws = workspace if workspace is not None else BFSWorkspace()
    ws.ensure(csr.num_nodes, csr.num_edges)
    budget = INFINITY if max_hops is None else max_hops
    gen = ws.next_generation()
    seen = ws.seen
    depth = ws.depth
    cur = ws.queue
    nxt = ws.frontier
    rows = csr.neighbors
    eid_rows = csr.edge_id_rows
    vstamp = vgen = estamp = egen = None
    if vertex_mask is not None:
        vstamp, vgen = vertex_mask.stamp, vertex_mask.gen
    if edge_mask is not None:
        estamp, egen = edge_mask.stamp, edge_mask.gen
    seen[source] = gen
    depth[source] = 0
    cur[0] = source
    cur_len = 1
    level = 0
    reached = [source]
    while cur_len and level < budget:
        level += 1
        nxt_len = 0
        for qi in range(cur_len):
            u = cur[qi]
            row = rows[u]
            erow = eid_rows[u]
            for j in range(len(row)):
                v = row[j]
                if seen[v] == gen:
                    continue
                if vstamp is not None and vstamp[v] == vgen:
                    continue
                if estamp is not None and estamp[erow[j]] == egen:
                    continue
                seen[v] = gen
                depth[v] = level
                reached.append(v)
                nxt[nxt_len] = v
                nxt_len += 1
        cur, nxt = nxt, cur
        cur_len = nxt_len
    # O(reached), not O(n): a bounded query on a huge graph pays only
    # for what it touched.
    return {i: depth[i] for i in reached}


def csr_bfs_parents(
    csr: CSRLike,
    source: int,
    workspace: Optional[BFSWorkspace] = None,
    vertex_mask: Optional[FaultMask] = None,
    edge_mask: Optional[FaultMask] = None,
) -> Dict[int, int]:
    """BFS parent pointers from ``source`` over CSR adjacency.

    Returns ``{node_index: parent_index}`` for every reachable
    (unmasked) node other than the source itself -- each node's parent
    is its *first discoverer* in FIFO order.  On unit-weighted graphs
    this is exactly the shortest-path tree the dict path's
    destination-rooted Dijkstra produces (strict-improvement updates
    mean the first discoverer wins there too), which is what lets the
    routing layer build next-hop tables from BFS on unit spanners.
    """
    _csr_check_terminal(csr, source, vertex_mask, "source")
    ws = workspace if workspace is not None else BFSWorkspace()
    ws.ensure(csr.num_nodes, csr.num_edges)
    gen = ws.next_generation()
    seen = ws.seen
    parent = ws.parent
    cur = ws.queue
    nxt = ws.frontier
    rows = csr.neighbors
    eid_rows = csr.edge_id_rows
    vstamp = vgen = estamp = egen = None
    if vertex_mask is not None:
        vstamp, vgen = vertex_mask.stamp, vertex_mask.gen
    if edge_mask is not None:
        estamp, egen = edge_mask.stamp, edge_mask.gen
    seen[source] = gen
    cur[0] = source
    cur_len = 1
    reached: List[int] = []
    while cur_len:
        nxt_len = 0
        for qi in range(cur_len):
            u = cur[qi]
            row = rows[u]
            erow = eid_rows[u]
            for j in range(len(row)):
                v = row[j]
                if seen[v] == gen:
                    continue
                if vstamp is not None and vstamp[v] == vgen:
                    continue
                if estamp is not None and estamp[erow[j]] == egen:
                    continue
                seen[v] = gen
                parent[v] = u
                reached.append(v)
                nxt[nxt_len] = v
                nxt_len += 1
        cur, nxt = nxt, cur
        cur_len = nxt_len
    return {i: parent[i] for i in reached}


def csr_bounded_bfs_path(
    csr: CSRLike,
    source: int,
    target: int,
    max_hops: int,
    workspace: Optional[BFSWorkspace] = None,
    vertex_mask: Optional[FaultMask] = None,
    edge_mask: Optional[FaultMask] = None,
) -> Optional[List[int]]:
    """CSR twin of :func:`bounded_bfs_path`, over node indices.

    Returns the node-index sequence of a shortest-hop ``source -> target``
    path avoiding masked vertices/edges, or ``None`` when no path of at
    most ``max_hops`` edges exists.  With a shared ``workspace`` this
    performs no per-call allocation beyond the returned path itself.
    """
    _csr_check_terminal(csr, source, vertex_mask, "source")
    _csr_check_terminal(csr, target, vertex_mask, "target")
    if source == target:
        return [source]
    if max_hops <= 0:
        return None
    ws = workspace if workspace is not None else BFSWorkspace()
    found = _csr_search(
        csr, source, target, max_hops, ws, vertex_mask, edge_mask, False
    )
    return _csr_path(ws, target) if found else None


def _csr_path(ws: BFSWorkspace, target: int) -> List[int]:
    """Walk ``ws.parent`` pointers back from a just-reached ``target``."""
    path = [target]
    parent = ws.parent
    u = parent[target]
    while u != -1:
        path.append(u)
        u = parent[u]
    path.reverse()
    return path


def csr_bounded_bfs_path_edges(
    csr: CSRLike,
    source: int,
    target: int,
    max_hops: int,
    workspace: Optional[BFSWorkspace] = None,
    vertex_mask: Optional[FaultMask] = None,
    edge_mask: Optional[FaultMask] = None,
) -> Optional[Tuple[List[int], List[int]]]:
    """Like :func:`csr_bounded_bfs_path` but also returns the edge ids.

    Returns ``(nodes, edge_ids)`` with ``len(edge_ids) == len(nodes) - 1``
    (the id of each traversed edge, in path order) -- what the edge-fault
    LBC loop needs to stamp a path into its fault mask without any
    endpoint->id lookups.
    """
    _csr_check_terminal(csr, source, vertex_mask, "source")
    _csr_check_terminal(csr, target, vertex_mask, "target")
    if source == target:
        return [source], []
    if max_hops <= 0:
        return None
    ws = workspace if workspace is not None else BFSWorkspace()
    found = _csr_search(
        csr, source, target, max_hops, ws, vertex_mask, edge_mask, True
    )
    return _csr_path_edges(ws, target) if found else None


def _csr_path_edges(
    ws: BFSWorkspace, target: int
) -> Tuple[List[int], List[int]]:
    """Like :func:`_csr_path` but also collects the traversed edge ids."""
    nodes = [target]
    eids: List[int] = []
    parent = ws.parent
    parent_eid = ws.parent_eid
    u = target
    while parent[u] != -1:
        eids.append(parent_eid[u])
        u = parent[u]
        nodes.append(u)
    nodes.reverse()
    eids.reverse()
    return nodes, eids


# --------------------------------------------------------------------- #
# CSR path: binary-heap Dijkstra with a reusable workspace
# --------------------------------------------------------------------- #


class DijkstraWorkspace:
    """Preallocated scratch buffers for the CSR Dijkstra primitives.

    The weighted analogue of :class:`BFSWorkspace`: one workspace serves
    an unbounded number of Dijkstra calls over graphs of any (growing)
    size.  ``ensure`` only ever extends the buffers, and two
    generation-stamped byte arrays (``label``: the node has a valid
    tentative distance; ``settled``: the node's distance is final) make
    the per-call reset O(1).  Faulted vertices are pre-stamped as settled
    so the relaxation inner loop never tests a vertex mask.  The
    workspace also owns a vertex and an edge :class:`FaultMask`, so
    callers sweeping many fault sets need no further allocation beyond
    the heap itself (a plain list, rebuilt per call -- its size is
    bounded by the number of relaxations, and pushing to a fresh list is
    cheaper than zeroing a preallocated arena).

    Not thread-safe; use one workspace per thread.
    """

    __slots__ = (
        "dist", "pred", "pred_eid", "label", "settled", "gen",
        "vertex_mask", "edge_mask", "dist_b", "label_b", "settled_b",
        "buckets",
    )

    def __init__(self, num_nodes: int = 0, num_edges: int = 0) -> None:
        self.dist = array("d", bytes(8 * num_nodes))
        self.pred = [0] * num_nodes
        self.pred_eid = [0] * num_nodes
        self.label = bytearray(num_nodes)
        self.settled = bytearray(num_nodes)
        self.gen = 1
        self.vertex_mask = FaultMask(num_nodes)
        self.edge_mask = FaultMask(num_edges)
        # Backward-side twins for the bidirectional engine (same
        # generation counter; tiny next to the adjacency itself).
        self.dist_b = array("d", bytes(8 * num_nodes))
        self.label_b = bytearray(num_nodes)
        self.settled_b = bytearray(num_nodes)
        # Circular Dial buckets, grown on first bucket-engine call and
        # left empty between calls (every engine exit clears them).
        self.buckets: List[List[int]] = []

    def ensure(self, num_nodes: int, num_edges: int = 0) -> None:
        """Grow every buffer to cover the given node/edge counts."""
        short = num_nodes - len(self.label)
        if short > 0:
            self.dist.extend(array("d", bytes(8 * short)))
            self.pred.extend([0] * short)
            self.pred_eid.extend([0] * short)
            self.label.extend(bytes(short))
            self.settled.extend(bytes(short))
            self.dist_b.extend(array("d", bytes(8 * short)))
            self.label_b.extend(bytes(short))
            self.settled_b.extend(bytes(short))
            self.vertex_mask.ensure(num_nodes)
        self.edge_mask.ensure(num_edges)

    def ensure_buckets(self, count: int) -> List[List[int]]:
        """The (empty) circular Dial buckets, grown to ``count`` slots."""
        buckets = self.buckets
        while len(buckets) < count:
            buckets.append([])
        return buckets

    def next_generation(self) -> int:
        """Advance and return the stamp generation (O(1) amortized)."""
        self.gen += 1
        if self.gen == 256:
            self.label[:] = bytes(len(self.label))
            self.settled[:] = bytes(len(self.settled))
            self.label_b[:] = bytes(len(self.label_b))
            self.settled_b[:] = bytes(len(self.settled_b))
            self.gen = 1
        return self.gen


def _csr_dijkstra(
    csr: CSRLike,
    source: int,
    target: Optional[int],
    max_dist: float,
    ws: DijkstraWorkspace,
    vertex_mask: Optional[FaultMask],
    edge_mask: Optional[FaultMask],
    need_edge_ids: bool = False,
) -> List[int]:
    """Core Dijkstra over CSR adjacency; returns settled nodes in order.

    The relaxation mirrors the dict path's :func:`shortest_path`
    (update the predecessor only on a *strict* improvement, heap ties
    broken by push order), so reconstructed paths match the dict path
    node for node.  Distances in ``ws.dist`` are valid exactly for the
    returned nodes; ``ws.pred`` (and, when ``need_edge_ids``,
    ``ws.pred_eid``) hold the shortest-path tree (``-1`` at the source).

    Structural savings mirror :func:`_csr_search`:

    * Faulted vertices are pre-stamped as settled (O(|F|) per call), so
      the relaxation loop carries no vertex-mask test; only edge masks
      are tested, and only when one is present.  Without an edge mask
      the loop never touches edge ids at all: weights are read from the
      per-incidence ``weight_rows``.
    * When ``target`` is given the search stops the moment it is settled
      (its distance is already final), and ``max_dist`` prunes every
      relaxation past the budget, keeping the heap small on the truncated
      queries the greedy and verification sweeps issue.

    Callers that need only the s-t distance should prefer
    :func:`_csr_probe`, which skips the settled-list and tree
    bookkeeping entirely.
    """
    ws.ensure(csr.num_nodes, csr.num_edges)
    gen = ws.next_generation()
    dist = ws.dist
    settled = ws.settled
    rows = csr.neighbors
    wrows = csr.weight_rows
    if vertex_mask is not None:
        for b in vertex_mask.members:
            settled[b] = gen
    label = ws.label
    dist[source] = 0.0
    label[source] = gen
    heap: List[Tuple[float, int, int]] = [(0.0, 0, source)]
    counter = 1
    reached: List[int] = []
    push = heapq.heappush
    pop = heapq.heappop
    estamp = egen = None
    if edge_mask is not None:
        estamp, egen = edge_mask.stamp, edge_mask.gen
    pred = ws.pred
    pred[source] = -1
    if edge_mask is not None or need_edge_ids:
        eid_rows = csr.edge_id_rows
        pred_eid = ws.pred_eid
        pred_eid[source] = -1
        while heap:
            d, _, u = pop(heap)
            if settled[u] == gen:
                continue  # stale heap entry (or pre-stamped fault)
            settled[u] = gen
            reached.append(u)
            if u == target:
                break
            for v, e, w in zip(rows[u], eid_rows[u], wrows[u]):
                if settled[v] == gen:
                    continue
                if estamp is not None and estamp[e] == egen:
                    continue
                nd = d + w
                if nd > max_dist:
                    continue
                if label[v] != gen or nd < dist[v]:
                    label[v] = gen
                    dist[v] = nd
                    pred[v] = u
                    pred_eid[v] = e
                    push(heap, (nd, counter, v))
                    counter += 1
    else:
        while heap:
            d, _, u = pop(heap)
            if settled[u] == gen:
                continue  # stale heap entry (or pre-stamped fault)
            settled[u] = gen
            reached.append(u)
            if u == target:
                break
            for v, w in zip(rows[u], wrows[u]):
                if settled[v] == gen:
                    continue
                nd = d + w
                if nd > max_dist:
                    continue
                if label[v] != gen or nd < dist[v]:
                    label[v] = gen
                    dist[v] = nd
                    pred[v] = u
                    push(heap, (nd, counter, v))
                    counter += 1
    return reached


def _csr_probe(
    csr: CSRLike,
    source: int,
    target: int,
    max_dist: float,
    ws: DijkstraWorkspace,
    vertex_mask: Optional[FaultMask],
    edge_mask: Optional[FaultMask],
) -> float:
    """Leanest Dijkstra variant: the s-t distance, or ``inf``.

    The per-probe workhorse of the verification sweeps and the classic
    greedy: no settled list, no predecessor stores -- just the
    generation-stamped label/settled discipline and the heap.  Returns
    the exact distance when ``target`` is reachable within ``max_dist``
    and ``INFINITY`` otherwise (distances are identical to
    :func:`_csr_dijkstra`; ties cannot change a minimum).
    """
    ws.ensure(csr.num_nodes, csr.num_edges)
    gen = ws.next_generation()
    dist = ws.dist
    label = ws.label
    settled = ws.settled
    rows = csr.neighbors
    wrows = csr.weight_rows
    if vertex_mask is not None:
        for b in vertex_mask.members:
            settled[b] = gen
    dist[source] = 0.0
    label[source] = gen
    # (dist, node) pairs suffice here: both elements are always
    # comparable, and tie order cannot change the minimum distance the
    # probe returns (unlike the path variants, which carry a push
    # counter to reproduce the dict path's tie-breaking).
    heap: List[Tuple[float, int]] = [(0.0, source)]
    push = heapq.heappush
    pop = heapq.heappop
    if edge_mask is not None:
        estamp, egen = edge_mask.stamp, edge_mask.gen
        eid_rows = csr.edge_id_rows
        while heap:
            d, u = pop(heap)
            if settled[u] == gen:
                continue  # stale heap entry (or pre-stamped fault)
            if u == target:
                return d  # settled distance is final; row scan unneeded
            settled[u] = gen
            for v, e, w in zip(rows[u], eid_rows[u], wrows[u]):
                if settled[v] == gen or estamp[e] == egen:
                    continue
                nd = d + w
                if nd > max_dist:
                    continue
                if label[v] != gen or nd < dist[v]:
                    label[v] = gen
                    dist[v] = nd
                    push(heap, (nd, v))
    else:
        while heap:
            d, u = pop(heap)
            if settled[u] == gen:
                continue
            if u == target:
                return d
            settled[u] = gen
            for v, w in zip(rows[u], wrows[u]):
                if settled[v] == gen:
                    continue
                nd = d + w
                if nd > max_dist:
                    continue
                if label[v] != gen or nd < dist[v]:
                    label[v] = gen
                    dist[v] = nd
                    push(heap, (nd, v))
    return INFINITY


# --------------------------------------------------------------------- #
# CSR path: Dial bucket-queue and bidirectional Dijkstra engines
# --------------------------------------------------------------------- #


def _bucket_max_weight(csr: CSRLike, max_weight: Optional[int]) -> int:
    """Resolve the bucket engine's weight bound, validating when unknown.

    Snapshot-level callers pass the ``max_weight`` they cached at freeze
    time (O(1) here); direct callers may pass ``None`` and pay one O(m)
    scan that also rejects non-integral weights with a clear error.
    """
    if max_weight is not None:
        return max_weight
    best = 1
    for row in csr.weight_rows:
        for w in row:
            if w < 1.0 or w > BUCKET_MAX_WEIGHT or w != int(w):
                raise ValueError(
                    f"search='bucket' requires positive integer edge "
                    f"weights <= {BUCKET_MAX_WEIGHT}, found {w!r}"
                )
            if w > best:
                best = int(w)
    return best


def _csr_dijkstra_bucket(
    csr: CSRLike,
    source: int,
    target: Optional[int],
    max_dist: float,
    ws: DijkstraWorkspace,
    vertex_mask: Optional[FaultMask],
    edge_mask: Optional[FaultMask],
    max_weight: int,
    need_edge_ids: bool = False,
) -> List[int]:
    """Dial bucket-queue twin of :func:`_csr_dijkstra`.

    Valid only for positive integer weights ``<= max_weight`` (gated by
    the caller via the snapshot weight profile).  A circular array of
    ``max_weight + 1`` buckets replaces the heap: all queued tentative
    distances lie in ``[d, d + max_weight]`` while distance ``d`` is
    being processed, so ``int(nd) % (max_weight + 1)`` is collision-free.

    Parity with the heap engine is structural, not approximate:

    * A bucket is scanned in append order, and appends happen exactly
      when the heap engine would push -- so equal-distance nodes settle
      in push order, which is precisely the heap's insertion-counter
      tie-break.  The returned settled list is identical element for
      element.
    * Predecessors update under the same strict-improvement rule, so
      ``ws.pred`` / ``ws.pred_eid`` (and every path reconstructed from
      them) match the heap engine and therefore the dict path.
    * Integer distance sums are exact floats, so ``ws.dist`` is
      bit-identical as well.

    The buckets live in the workspace and are left empty on every exit
    (including early exit on the target).
    """
    ws.ensure(csr.num_nodes, csr.num_edges)
    gen = ws.next_generation()
    dist = ws.dist
    label = ws.label
    settled = ws.settled
    rows = csr.neighbors
    wrows = csr.weight_rows
    if vertex_mask is not None:
        for b in vertex_mask.members:
            settled[b] = gen
    slots = max_weight + 1
    buckets = ws.ensure_buckets(slots)
    dist[source] = 0.0
    label[source] = gen
    pred = ws.pred
    pred[source] = -1
    buckets[0].append(source)
    pending = 1
    reached: List[int] = []
    estamp = egen = None
    if edge_mask is not None:
        estamp, egen = edge_mask.stamp, edge_mask.gen
    use_eids = edge_mask is not None or need_edge_ids
    if use_eids:
        eid_rows = csr.edge_id_rows
        pred_eid = ws.pred_eid
        pred_eid[source] = -1
    slot = 0
    try:
        while pending:
            bucket = buckets[slot]
            if bucket:
                # Relaxed edges carry weight >= 1, so nothing is ever
                # appended to the bucket being scanned; plain iteration
                # is safe and preserves push order.
                for u in bucket:
                    pending -= 1
                    if settled[u] == gen:
                        continue  # stale entry (or pre-stamped fault)
                    settled[u] = gen
                    reached.append(u)
                    if u == target:
                        return reached
                    d = dist[u]
                    if use_eids:
                        erow = eid_rows[u]
                        row = rows[u]
                        wrow = wrows[u]
                        for j in range(len(row)):
                            v = row[j]
                            if settled[v] == gen:
                                continue
                            e = erow[j]
                            if estamp is not None and estamp[e] == egen:
                                continue
                            nd = d + wrow[j]
                            if nd > max_dist:
                                continue
                            if label[v] != gen or nd < dist[v]:
                                label[v] = gen
                                dist[v] = nd
                                pred[v] = u
                                pred_eid[v] = e
                                buckets[int(nd) % slots].append(v)
                                pending += 1
                    else:
                        for v, w in zip(rows[u], wrows[u]):
                            if settled[v] == gen:
                                continue
                            nd = d + w
                            if nd > max_dist:
                                continue
                            if label[v] != gen or nd < dist[v]:
                                label[v] = gen
                                dist[v] = nd
                                pred[v] = u
                                buckets[int(nd) % slots].append(v)
                                pending += 1
                del bucket[:]
            slot += 1
            if slot == slots:
                slot = 0
    finally:
        # An early exit (target hit) leaves queued and already-consumed
        # entries behind; clear every slot so the workspace's buckets
        # start empty next call.  O(slots) of empty-list checks.
        for bucket in buckets:
            if bucket:
                del bucket[:]
    return reached


def _csr_probe_bucket(
    csr: CSRLike,
    source: int,
    target: int,
    max_dist: float,
    ws: DijkstraWorkspace,
    vertex_mask: Optional[FaultMask],
    edge_mask: Optional[FaultMask],
    max_weight: int,
) -> float:
    """Bucket-queue twin of :func:`_csr_probe`: the s-t distance or inf.

    Identical distances to every other engine (integer sums are exact);
    no settled list, no predecessor stores.
    """
    ws.ensure(csr.num_nodes, csr.num_edges)
    gen = ws.next_generation()
    dist = ws.dist
    label = ws.label
    settled = ws.settled
    rows = csr.neighbors
    wrows = csr.weight_rows
    if vertex_mask is not None:
        for b in vertex_mask.members:
            settled[b] = gen
    slots = max_weight + 1
    buckets = ws.ensure_buckets(slots)
    dist[source] = 0.0
    label[source] = gen
    buckets[0].append(source)
    pending = 1
    estamp = egen = None
    if edge_mask is not None:
        estamp, egen = edge_mask.stamp, edge_mask.gen
        eid_rows = csr.edge_id_rows
    slot = 0
    try:
        while pending:
            bucket = buckets[slot]
            if bucket:
                for u in bucket:
                    pending -= 1
                    if settled[u] == gen:
                        continue  # stale entry (or pre-stamped fault)
                    if u == target:
                        return dist[u]
                    settled[u] = gen
                    d = dist[u]
                    if estamp is not None:
                        erow = eid_rows[u]
                        row = rows[u]
                        wrow = wrows[u]
                        for j in range(len(row)):
                            v = row[j]
                            if settled[v] == gen or estamp[erow[j]] == egen:
                                continue
                            nd = d + wrow[j]
                            if nd > max_dist:
                                continue
                            if label[v] != gen or nd < dist[v]:
                                label[v] = gen
                                dist[v] = nd
                                buckets[int(nd) % slots].append(v)
                                pending += 1
                    else:
                        for v, w in zip(rows[u], wrows[u]):
                            if settled[v] == gen:
                                continue
                            nd = d + w
                            if nd > max_dist:
                                continue
                            if label[v] != gen or nd < dist[v]:
                                label[v] = gen
                                dist[v] = nd
                                buckets[int(nd) % slots].append(v)
                                pending += 1
                del bucket[:]
            slot += 1
            if slot == slots:
                slot = 0
    finally:
        for bucket in buckets:
            if bucket:
                del bucket[:]
    return INFINITY


def _csr_probe_bidir(
    csr: CSRLike,
    source: int,
    target: int,
    max_dist: float,
    ws: DijkstraWorkspace,
    vertex_mask: Optional[FaultMask],
    edge_mask: Optional[FaultMask],
) -> float:
    """Bidirectional Dijkstra s-t distance probe, or ``inf``.

    Two heap searches -- forward from ``source``, backward from
    ``target`` over the same (undirected) adjacency -- each expanding
    the side with the smaller frontier distance.  A meeting candidate
    ``best`` is refreshed on every relaxation *and* every settle that
    touches a node labeled by the opposite side; the search stops as
    soon as ``top_f + top_b >= best``, which typically happens after
    each side has explored a small ball around its endpoint.

    Exactness: restricted (by the snapshot weight profile) to integral
    weights, where every path sum is exact no matter how it is
    associated -- so the returned distance is bit-identical to the
    unidirectional engines and the dict path.  Both sides prune
    relaxations past ``max_dist``; any s-t distance within the budget
    survives pruning on each side separately, and the probe returns
    ``inf`` for anything beyond it (the same contract as
    :func:`_csr_probe`).
    """
    ws.ensure(csr.num_nodes, csr.num_edges)
    gen = ws.next_generation()
    dist_f, label_f, settled_f = ws.dist, ws.label, ws.settled
    dist_b, label_b, settled_b = ws.dist_b, ws.label_b, ws.settled_b
    rows = csr.neighbors
    wrows = csr.weight_rows
    if vertex_mask is not None:
        for b in vertex_mask.members:
            settled_f[b] = gen
            settled_b[b] = gen
    dist_f[source] = 0.0
    label_f[source] = gen
    dist_b[target] = 0.0
    label_b[target] = gen
    heap_f: List[Tuple[float, int]] = [(0.0, source)]
    heap_b: List[Tuple[float, int]] = [(0.0, target)]
    best = INFINITY
    push = heapq.heappush
    pop = heapq.heappop
    estamp = egen = None
    if edge_mask is not None:
        estamp, egen = edge_mask.stamp, edge_mask.gen
        eid_rows = csr.edge_id_rows
    while heap_f and heap_b:
        if heap_f[0][0] + heap_b[0][0] >= best:
            break
        if heap_f[0][0] <= heap_b[0][0]:
            d, u = pop(heap_f)
            if settled_f[u] == gen:
                continue  # stale entry (or pre-stamped fault)
            settled_f[u] = gen
            if label_b[u] == gen:
                cand = d + dist_b[u]
                if cand < best:
                    best = cand
            if estamp is not None:
                erow = eid_rows[u]
                row = rows[u]
                wrow = wrows[u]
                for j in range(len(row)):
                    v = row[j]
                    if settled_f[v] == gen or estamp[erow[j]] == egen:
                        continue
                    nd = d + wrow[j]
                    if nd > max_dist:
                        continue
                    if label_b[v] == gen:
                        cand = nd + dist_b[v]
                        if cand < best:
                            best = cand
                    if label_f[v] != gen or nd < dist_f[v]:
                        label_f[v] = gen
                        dist_f[v] = nd
                        push(heap_f, (nd, v))
            else:
                for v, w in zip(rows[u], wrows[u]):
                    if settled_f[v] == gen:
                        continue
                    nd = d + w
                    if nd > max_dist:
                        continue
                    if label_b[v] == gen:
                        cand = nd + dist_b[v]
                        if cand < best:
                            best = cand
                    if label_f[v] != gen or nd < dist_f[v]:
                        label_f[v] = gen
                        dist_f[v] = nd
                        push(heap_f, (nd, v))
        else:
            d, u = pop(heap_b)
            if settled_b[u] == gen:
                continue  # stale entry (or pre-stamped fault)
            settled_b[u] = gen
            if label_f[u] == gen:
                cand = d + dist_f[u]
                if cand < best:
                    best = cand
            if estamp is not None:
                erow = eid_rows[u]
                row = rows[u]
                wrow = wrows[u]
                for j in range(len(row)):
                    v = row[j]
                    if settled_b[v] == gen or estamp[erow[j]] == egen:
                        continue
                    nd = d + wrow[j]
                    if nd > max_dist:
                        continue
                    if label_f[v] == gen:
                        cand = nd + dist_f[v]
                        if cand < best:
                            best = cand
                    if label_b[v] != gen or nd < dist_b[v]:
                        label_b[v] = gen
                        dist_b[v] = nd
                        push(heap_b, (nd, v))
            else:
                for v, w in zip(rows[u], wrows[u]):
                    if settled_b[v] == gen:
                        continue
                    nd = d + w
                    if nd > max_dist:
                        continue
                    if label_f[v] == gen:
                        cand = nd + dist_f[v]
                        if cand < best:
                            best = cand
                    if label_b[v] != gen or nd < dist_b[v]:
                        label_b[v] = gen
                        dist_b[v] = nd
                        push(heap_b, (nd, v))
    return best if best <= max_dist else INFINITY


def csr_dijkstra(
    csr: CSRLike,
    source: int,
    target: Optional[int] = None,
    max_dist: Optional[float] = None,
    workspace: Optional[DijkstraWorkspace] = None,
    vertex_mask: Optional[FaultMask] = None,
    edge_mask: Optional[FaultMask] = None,
    search: str = "heap",
    max_weight: Optional[int] = None,
) -> Dict[int, float]:
    """Weighted distances from node index ``source``: CSR twin of
    :func:`dijkstra`.

    Returns ``{node_index: distance}`` for every node settled before the
    search stopped (target reached, budget exceeded, or graph
    exhausted); missing entries mean unreachable/pruned, exactly like
    the dict variant.  ``search`` picks the execution engine (``"heap"``
    or ``"bucket"``; both return bit-identical results where the bucket
    engine is legal) and ``max_weight`` optionally supplies the bucket
    engine's cached weight bound (see the module docstring).
    """
    _csr_check_terminal(csr, source, vertex_mask, "source")
    ws = workspace if workspace is not None else DijkstraWorkspace()
    budget = INFINITY if max_dist is None else max_dist
    if search == "heap":
        reached = _csr_dijkstra(
            csr, source, target, budget, ws, vertex_mask, edge_mask
        )
    elif search == "bucket":
        reached = _csr_dijkstra_bucket(
            csr, source, target, budget, ws, vertex_mask, edge_mask,
            _bucket_max_weight(csr, max_weight),
        )
    else:
        raise ValueError(
            f"csr_dijkstra runs on search='heap' or 'bucket', got {search!r}"
        )
    dist = ws.dist
    # O(settled), not O(n): a truncated query pays only for what it
    # touched.
    return {i: dist[i] for i in reached}


def csr_dijkstra_parents(
    csr: CSRLike,
    source: int,
    workspace: Optional[DijkstraWorkspace] = None,
    vertex_mask: Optional[FaultMask] = None,
    edge_mask: Optional[FaultMask] = None,
    search: str = "heap",
    max_weight: Optional[int] = None,
) -> Dict[int, int]:
    """Shortest-path-tree parent pointers from ``source``.

    Returns ``{node_index: parent_index}`` for every reachable
    (unmasked) node other than the source -- the weighted twin of
    :func:`csr_bfs_parents` and the CSR twin of the routing layer's
    destination-rooted dict Dijkstra: predecessors update only on a
    *strict* improvement and ties break by push order (on either
    engine), so the tree matches the dict path's node for node.
    """
    _csr_check_terminal(csr, source, vertex_mask, "source")
    ws = workspace if workspace is not None else DijkstraWorkspace()
    if search == "heap":
        reached = _csr_dijkstra(
            csr, source, None, INFINITY, ws, vertex_mask, edge_mask
        )
    elif search == "bucket":
        reached = _csr_dijkstra_bucket(
            csr, source, None, INFINITY, ws, vertex_mask, edge_mask,
            _bucket_max_weight(csr, max_weight),
        )
    else:
        raise ValueError(
            f"csr_dijkstra_parents runs on search='heap' or 'bucket', "
            f"got {search!r}"
        )
    pred = ws.pred
    return {i: pred[i] for i in reached if i != source}


def csr_weighted_distance(
    csr: CSRLike,
    source: int,
    target: int,
    max_dist: Optional[float] = None,
    workspace: Optional[DijkstraWorkspace] = None,
    vertex_mask: Optional[FaultMask] = None,
    edge_mask: Optional[FaultMask] = None,
    search: str = "heap",
    max_weight: Optional[int] = None,
) -> float:
    """Weighted s-t distance, or ``inf`` if unreachable within ``max_dist``.

    The allocation-free primitive the verification sweeps loop on: no
    result dict, no path list -- just the scalar distance (early exit on
    the target, pruning past the budget).  ``search`` picks the engine:
    ``"heap"`` (any weights), ``"bucket"`` or ``"bidir"`` (integral
    weights; identical distances, see the module docstring).
    """
    _csr_check_terminal(csr, source, vertex_mask, "source")
    _csr_check_terminal(csr, target, vertex_mask, "target")
    if source == target:
        return 0.0
    ws = workspace if workspace is not None else DijkstraWorkspace()
    budget = INFINITY if max_dist is None else max_dist
    if search == "heap":
        return _csr_probe(
            csr, source, target, budget, ws, vertex_mask, edge_mask
        )
    if search == "bucket":
        return _csr_probe_bucket(
            csr, source, target, budget, ws, vertex_mask, edge_mask,
            _bucket_max_weight(csr, max_weight),
        )
    if search == "bidir":
        return _csr_probe_bidir(
            csr, source, target, budget, ws, vertex_mask, edge_mask
        )
    raise ValueError(
        f"csr_weighted_distance runs on search='heap', 'bucket' or "
        f"'bidir', got {search!r}"
    )


def csr_bounded_dijkstra_path(
    csr: CSRLike,
    source: int,
    target: int,
    max_dist: Optional[float] = None,
    workspace: Optional[DijkstraWorkspace] = None,
    vertex_mask: Optional[FaultMask] = None,
    edge_mask: Optional[FaultMask] = None,
    search: str = "heap",
    max_weight: Optional[int] = None,
) -> Optional[List[int]]:
    """A minimum-weight path of total weight <= ``max_dist``, or ``None``.

    CSR twin of the dict path's :func:`shortest_path` (with
    ``max_dist=None``) and of the truncated "path within budget" probe
    the weighted exact greedy branches on.  Returns the node-index
    sequence of a minimum-weight ``source -> target`` path avoiding
    masked vertices/edges, or ``None`` when every path exceeds the
    budget (pruning makes that equivalent to the unbudgeted shortest
    path being too heavy, since sub-paths of shortest paths are
    shortest).  ``search`` is ``"heap"`` or ``"bucket"``; both engines
    share the strict-improvement predecessor rule and push-order
    tie-break, so the reconstructed path is identical.
    """
    _csr_check_terminal(csr, source, vertex_mask, "source")
    _csr_check_terminal(csr, target, vertex_mask, "target")
    if source == target:
        return [source]
    ws = workspace if workspace is not None else DijkstraWorkspace()
    budget = INFINITY if max_dist is None else max_dist
    if search == "heap":
        reached = _csr_dijkstra(
            csr, source, target, budget, ws, vertex_mask, edge_mask
        )
    elif search == "bucket":
        reached = _csr_dijkstra_bucket(
            csr, source, target, budget, ws, vertex_mask, edge_mask,
            _bucket_max_weight(csr, max_weight),
        )
    else:
        raise ValueError(
            f"csr_bounded_dijkstra_path runs on search='heap' or "
            f"'bucket', got {search!r}"
        )
    if reached and reached[-1] == target:
        return _dijkstra_path(ws, target)
    return None


def _dijkstra_path(ws: DijkstraWorkspace, target: int) -> List[int]:
    """Walk ``ws.pred`` pointers back from a just-settled ``target``."""
    path = [target]
    pred = ws.pred
    u = pred[target]
    while u != -1:
        path.append(u)
        u = pred[u]
    path.reverse()
    return path


def csr_bounded_dijkstra_path_edges(
    csr: CSRLike,
    source: int,
    target: int,
    max_dist: Optional[float] = None,
    workspace: Optional[DijkstraWorkspace] = None,
    vertex_mask: Optional[FaultMask] = None,
    edge_mask: Optional[FaultMask] = None,
) -> Optional[Tuple[List[int], List[int]]]:
    """Like :func:`csr_bounded_dijkstra_path` but also returns edge ids.

    Returns ``(nodes, edge_ids)`` with ``len(edge_ids) == len(nodes) - 1``
    -- what the weighted edge-fault branch-and-bound needs to stamp a
    path into its fault mask without endpoint->id lookups.
    """
    _csr_check_terminal(csr, source, vertex_mask, "source")
    _csr_check_terminal(csr, target, vertex_mask, "target")
    if source == target:
        return [source], []
    ws = workspace if workspace is not None else DijkstraWorkspace()
    budget = INFINITY if max_dist is None else max_dist
    reached = _csr_dijkstra(
        csr, source, target, budget, ws, vertex_mask, edge_mask,
        need_edge_ids=True,
    )
    if not reached or reached[-1] != target:
        return None
    nodes = [target]
    eids: List[int] = []
    pred = ws.pred
    pred_eid = ws.pred_eid
    u = target
    while pred[u] != -1:
        eids.append(pred_eid[u])
        u = pred[u]
        nodes.append(u)
    nodes.reverse()
    eids.reverse()
    return nodes, eids


# --------------------------------------------------------------------- #
# CSR path: multi-source batch kernels (the "batch" engine)
# --------------------------------------------------------------------- #

HAVE_NUMPY = _np is not None

#: Environment variable overriding the batch kernel's acceleration
#: choice: ``"auto"`` (numpy when importable, the default), ``"numpy"``
#: (require it), or ``"stdlib"`` (force the pure-Python loops).
BATCH_ACCEL_ENV_VAR = "REPRO_BATCH_ACCEL"


class BatchAccelUnavailable(ValueError):
    """numpy batch acceleration was required but numpy is missing.

    The typed face of the ``accel='numpy'`` / ``REPRO_BATCH_ACCEL=numpy``
    requirement: hard-requiring the vectorized frontier kernels on an
    interpreter without numpy is a capability violation, not a silent
    fallback (``'auto'`` is the fallback spelling).  Subclasses
    ``ValueError`` so pre-existing callers that caught that keep
    working.
    """


def resolve_batch_accel(accel: Optional[str] = None) -> str:
    """Resolve the batch BFS acceleration to ``"numpy"`` or ``"stdlib"``.

    ``None`` consults :data:`BATCH_ACCEL_ENV_VAR` (default ``"auto"``).
    Asking for numpy when it is not importable raises
    :class:`BatchAccelUnavailable`; ``"auto"`` silently falls back to
    the stdlib loops.
    """
    if accel is None:
        accel = os.environ.get(BATCH_ACCEL_ENV_VAR, "auto")
    accel = accel.lower()
    if accel not in ("auto", "numpy", "stdlib"):
        raise ValueError(
            f"unknown batch acceleration {accel!r}; expected 'auto', "
            f"'numpy' or 'stdlib'"
        )
    if accel == "numpy" and not HAVE_NUMPY:
        raise BatchAccelUnavailable(
            "batch acceleration 'numpy' requested but numpy is not "
            "importable; use 'auto' or 'stdlib'"
        )
    if accel == "auto":
        return "numpy" if HAVE_NUMPY else "stdlib"
    return accel


class MultiSourceWorkspace:
    """Preallocated label planes for the multi-source batch kernels.

    One workspace serves an unbounded number of batch calls: every
    buffer is a flat arena of ``roots x num_nodes`` cells addressed by
    the packed code ``root_index * num_nodes + node``, and ``ensure``
    only ever extends it.  Two generation-stamped byte planes (``seen``:
    the cell has a valid tentative label; ``settled``: the cell's
    distance is final, bucket engine only) make the per-call reset O(1)
    no matter how many roots the batch carries.  The circular Dial
    buckets are shared across all roots of a batch -- entries are packed
    codes, so one sweep settles every root's nodes in globally
    nondecreasing distance order while each root's projection of that
    order stays identical to a sequential bucket run.

    Not thread-safe; use one workspace per thread.
    """

    __slots__ = (
        "seen", "settled", "gen", "depth", "dist", "parent", "buckets",
        "np_key", "np_indptr", "np_indices", "np_eids", "np_twin",
    )

    def __init__(self, cells: int = 0) -> None:
        self.seen = bytearray(cells)
        self.settled = bytearray(cells)
        self.gen = 1
        self.depth = [0] * cells
        self.dist = array("d", bytes(8 * cells))
        self.parent = [0] * cells
        self.buckets: List[List[int]] = []
        # Flattened CSR adjacency for the numpy kernel, cached per
        # (graph identity, node count, edge count, mutation version) so
        # repeated batches over one snapshot flatten the rows exactly
        # once and a mutated overlay re-flattens on its next batch.
        self.np_key: Optional[Tuple[int, int, int, int]] = None
        self.np_indptr = None
        self.np_indices = None
        self.np_eids = None
        self.np_twin = None

    def ensure(self, cells: int) -> None:
        """Grow every plane to cover ``cells`` packed codes."""
        short = cells - len(self.seen)
        if short > 0:
            self.seen.extend(bytes(short))
            self.settled.extend(bytes(short))
            self.depth.extend([0] * short)
            self.dist.extend(array("d", bytes(8 * short)))
            self.parent.extend([0] * short)

    def ensure_buckets(self, count: int) -> List[List[int]]:
        """The (empty) circular Dial buckets, grown to ``count`` slots."""
        buckets = self.buckets
        while len(buckets) < count:
            buckets.append([])
        return buckets

    def next_generation(self) -> int:
        """Advance and return the stamp generation (O(1) amortized)."""
        self.gen += 1
        if self.gen == 256:
            self.seen[:] = bytes(len(self.seen))
            self.settled[:] = bytes(len(self.settled))
            self.gen = 1
        return self.gen


def _stamp_fault_planes(
    plane: bytearray, gen: int, members: List[int], num_roots: int, n: int
) -> None:
    """Pre-stamp faulted vertices into every root's label plane."""
    base = 0
    for _ in range(num_roots):
        for b in members:
            plane[base + b] = gen
        base += n


def csr_bfs_multi(
    csr: CSRLike,
    sources: Sequence[int],
    workspace: Optional[MultiSourceWorkspace] = None,
    vertex_mask: Optional[FaultMask] = None,
    edge_mask: Optional[FaultMask] = None,
) -> List[List[int]]:
    """Level-synchronous BFS from *many* roots in one frontier sweep.

    Returns one list per root: the nodes it reached, in discovery order,
    root first.  Hop counts and first-discoverer parents are left in the
    workspace's ``depth`` / ``parent`` planes (``-1`` at each root) at
    the packed code ``root_index * num_nodes + node`` -- callers read
    the planes directly instead of paying a per-root dict build here.

    The shared frontier holds packed codes from every root; advancing it
    one level advances every root's search one level, so a batch of R
    roots costs one interpreter pass per *level*, not per root.  Because
    codes are appended root by root at each level and never interleave
    within a row scan, each root's projection of the shared frontier
    enumerates (node, parent) pairs in exactly the order
    :func:`csr_bfs_distances` / :func:`csr_bfs_parents` would -- so
    depths and parents are bit-identical to the sequential kernels.
    """
    roots = list(sources)
    for s in roots:
        _csr_check_terminal(csr, s, vertex_mask, "source")
    if not roots:
        return []
    ws = workspace if workspace is not None else MultiSourceWorkspace()
    n = csr.num_nodes
    ws.ensure(len(roots) * n)
    gen = ws.next_generation()
    seen = ws.seen
    depth = ws.depth
    parent = ws.parent
    rows = csr.neighbors
    if vertex_mask is not None and vertex_mask.members:
        _stamp_fault_planes(seen, gen, vertex_mask.members, len(roots), n)
    reached: List[List[int]] = []
    cur: List[int] = []
    base = 0
    for s in roots:
        code = base + s
        seen[code] = gen
        depth[code] = 0
        parent[code] = -1
        reached.append([s])
        cur.append(code)
        base += n
    level = 0
    if edge_mask is not None:
        estamp, egen = edge_mask.stamp, edge_mask.gen
        eid_rows = csr.edge_id_rows
        while cur:
            level += 1
            nxt: List[int] = []
            for code in cur:
                r, u = divmod(code, n)
                base = code - u
                out = reached[r]
                row = rows[u]
                erow = eid_rows[u]
                for j in range(len(row)):
                    nc = base + row[j]
                    if seen[nc] == gen:
                        continue
                    if estamp[erow[j]] == egen:
                        continue
                    seen[nc] = gen
                    depth[nc] = level
                    parent[nc] = u
                    out.append(row[j])
                    nxt.append(nc)
            cur = nxt
    else:
        while cur:
            level += 1
            nxt = []
            for code in cur:
                r, u = divmod(code, n)
                base = code - u
                out = reached[r]
                for v in rows[u]:
                    nc = base + v
                    if seen[nc] == gen:
                        continue
                    seen[nc] = gen
                    depth[nc] = level
                    parent[nc] = u
                    out.append(v)
                    nxt.append(nc)
            cur = nxt
    return reached


def csr_bucket_multi(
    csr: CSRLike,
    sources: Sequence[int],
    workspace: Optional[MultiSourceWorkspace] = None,
    vertex_mask: Optional[FaultMask] = None,
    edge_mask: Optional[FaultMask] = None,
    max_weight: Optional[int] = None,
) -> List[List[int]]:
    """Dial bucket sweep from *many* roots sharing one circular queue.

    The multi-source twin of :func:`_csr_dijkstra_bucket`: valid for
    positive integer weights ``<= max_weight``.  All roots start at
    distance 0, so every queued tentative distance lies in
    ``[d, d + max_weight]`` while distance ``d`` is being scanned and
    the ``max_weight + 1``-slot circular mapping stays collision-free
    exactly as in the single-root engine.

    Returns one list per root: the nodes it settled, in settle order,
    root first.  Final distances and strict-improvement predecessors are
    left in the workspace's ``dist`` / ``parent`` planes (``-1`` at each
    root).  Within a bucket, codes are scanned in append order and
    appends happen exactly when a sequential run over that root would
    push -- so each root's settle order, distances, and parents are
    bit-identical to the ``bucket`` (and therefore ``heap``) engine.
    """
    roots = list(sources)
    for s in roots:
        _csr_check_terminal(csr, s, vertex_mask, "source")
    if not roots:
        return []
    mw = _bucket_max_weight(csr, max_weight)
    ws = workspace if workspace is not None else MultiSourceWorkspace()
    n = csr.num_nodes
    ws.ensure(len(roots) * n)
    gen = ws.next_generation()
    label = ws.seen
    settled = ws.settled
    dist = ws.dist
    pred = ws.parent
    rows = csr.neighbors
    wrows = csr.weight_rows
    if vertex_mask is not None and vertex_mask.members:
        _stamp_fault_planes(settled, gen, vertex_mask.members, len(roots), n)
    slots = mw + 1
    buckets = ws.ensure_buckets(slots)
    reached: List[List[int]] = []
    first = buckets[0]
    base = 0
    for s in roots:
        code = base + s
        dist[code] = 0.0
        label[code] = gen
        pred[code] = -1
        first.append(code)
        reached.append([])
        base += n
    pending = len(roots)
    estamp = egen = None
    if edge_mask is not None:
        estamp, egen = edge_mask.stamp, edge_mask.gen
        eid_rows = csr.edge_id_rows
    slot = 0
    try:
        while pending:
            bucket = buckets[slot]
            if bucket:
                # Relaxed edges carry weight >= 1, so nothing is ever
                # appended to the bucket being scanned; plain iteration
                # is safe and preserves push order (see the single-root
                # engine).
                for code in bucket:
                    pending -= 1
                    if settled[code] == gen:
                        continue  # stale entry (or pre-stamped fault)
                    settled[code] = gen
                    r, u = divmod(code, n)
                    base = code - u
                    reached[r].append(u)
                    d = dist[code]
                    if estamp is not None:
                        row = rows[u]
                        erow = eid_rows[u]
                        wrow = wrows[u]
                        for j in range(len(row)):
                            nc = base + row[j]
                            if settled[nc] == gen:
                                continue
                            if estamp[erow[j]] == egen:
                                continue
                            nd = d + wrow[j]
                            if label[nc] != gen or nd < dist[nc]:
                                label[nc] = gen
                                dist[nc] = nd
                                pred[nc] = u
                                buckets[int(nd) % slots].append(nc)
                                pending += 1
                    else:
                        for v, w in zip(rows[u], wrows[u]):
                            nc = base + v
                            if settled[nc] == gen:
                                continue
                            nd = d + w
                            if label[nc] != gen or nd < dist[nc]:
                                label[nc] = gen
                                dist[nc] = nd
                                pred[nc] = u
                                buckets[int(nd) % slots].append(nc)
                                pending += 1
                del bucket[:]
            slot += 1
            if slot == slots:
                slot = 0
    finally:
        for bucket in buckets:
            if bucket:
                del bucket[:]
    return reached


def csr_multi_pair_distances(
    csr: CSRLike,
    pairs: Sequence[Tuple[int, int]],
    workspace: Optional[MultiSourceWorkspace] = None,
    vertex_mask: Optional[FaultMask] = None,
    edge_mask: Optional[FaultMask] = None,
    engine: str = "bfs",
    max_weight: Optional[int] = None,
) -> List[float]:
    """Many s-t distance probes answered by one multi-source sweep.

    Groups the pairs by source, runs one batched BFS (``engine="bfs"``,
    unit weights) or Dial bucket sweep (``engine="bucket"``, integral
    weights) over the distinct sources, and reads each pair's distance
    off the label planes -- with a global early exit the moment every
    requested target has a final distance.  Returns one float per pair
    (``inf`` for unreachable), identical to looping
    :func:`csr_weighted_distance` pair by pair.
    """
    pair_list = list(pairs)
    out = [INFINITY] * len(pair_list)
    groups: Dict[int, List[Tuple[int, int]]] = {}
    for i, (s, t) in enumerate(pair_list):
        _csr_check_terminal(csr, s, vertex_mask, "source")
        _csr_check_terminal(csr, t, vertex_mask, "target")
        if s == t:
            out[i] = 0.0
        else:
            groups.setdefault(s, []).append((i, t))
    if not groups:
        return out
    roots = list(groups)
    ws = workspace if workspace is not None else MultiSourceWorkspace()
    n = csr.num_nodes
    ws.ensure(len(roots) * n)
    gen = ws.next_generation()
    targets: Set[int] = set()
    base = 0
    for s in roots:
        for _, t in groups[s]:
            targets.add(base + t)
        base += n
    if engine == "bfs":
        _bfs_multi_probe(csr, roots, ws, gen, vertex_mask, edge_mask, targets)
        depth = ws.depth
        seen = ws.seen
        base = 0
        for s in roots:
            for i, t in groups[s]:
                code = base + t
                if seen[code] == gen:
                    out[i] = float(depth[code])
            base += n
    elif engine == "bucket":
        _bucket_multi_probe(
            csr, roots, ws, gen, vertex_mask, edge_mask,
            _bucket_max_weight(csr, max_weight), targets,
        )
        dist = ws.dist
        settled = ws.settled
        base = 0
        for s in roots:
            for i, t in groups[s]:
                code = base + t
                if settled[code] == gen:
                    out[i] = dist[code]
            base += n
    else:
        raise ValueError(
            f"csr_multi_pair_distances runs on engine='bfs' or 'bucket', "
            f"got {engine!r}"
        )
    return out


def _bfs_multi_probe(
    csr: CSRLike,
    roots: List[int],
    ws: MultiSourceWorkspace,
    gen: int,
    vertex_mask: Optional[FaultMask],
    edge_mask: Optional[FaultMask],
    targets: Set[int],
) -> None:
    """Batched BFS that stops once every target code is labeled.

    A BFS depth is final the moment the node is stamped, so the sweep
    may return as soon as the last outstanding target is discovered;
    distances for everything stamped so far are already exact.
    """
    n = csr.num_nodes
    seen = ws.seen
    depth = ws.depth
    rows = csr.neighbors
    if vertex_mask is not None and vertex_mask.members:
        _stamp_fault_planes(seen, gen, vertex_mask.members, len(roots), n)
    outstanding = len(targets)
    cur: List[int] = []
    base = 0
    for s in roots:
        code = base + s
        seen[code] = gen
        depth[code] = 0
        if code in targets:
            outstanding -= 1
        cur.append(code)
        base += n
    if not outstanding:
        return
    estamp = egen = None
    if edge_mask is not None:
        estamp, egen = edge_mask.stamp, edge_mask.gen
        eid_rows = csr.edge_id_rows
    level = 0
    while cur:
        level += 1
        nxt: List[int] = []
        for code in cur:
            u = code % n
            base = code - u
            row = rows[u]
            if estamp is not None:
                erow = eid_rows[u]
                for j in range(len(row)):
                    nc = base + row[j]
                    if seen[nc] == gen:
                        continue
                    if estamp[erow[j]] == egen:
                        continue
                    seen[nc] = gen
                    depth[nc] = level
                    nxt.append(nc)
                    if nc in targets:
                        outstanding -= 1
                        if not outstanding:
                            return
            else:
                for v in row:
                    nc = base + v
                    if seen[nc] == gen:
                        continue
                    seen[nc] = gen
                    depth[nc] = level
                    nxt.append(nc)
                    if nc in targets:
                        outstanding -= 1
                        if not outstanding:
                            return
        cur = nxt


def _bucket_multi_probe(
    csr: CSRLike,
    roots: List[int],
    ws: MultiSourceWorkspace,
    gen: int,
    vertex_mask: Optional[FaultMask],
    edge_mask: Optional[FaultMask],
    max_weight: int,
    targets: Set[int],
) -> None:
    """Batched Dial sweep that stops once every target code is settled.

    Unlike BFS, a bucket label is only final at *settle* time, so the
    early exit counts down on settles; targets still unsettled when the
    sweep drains are unreachable and read back as ``inf``.
    """
    n = csr.num_nodes
    label = ws.seen
    settled = ws.settled
    dist = ws.dist
    rows = csr.neighbors
    wrows = csr.weight_rows
    if vertex_mask is not None and vertex_mask.members:
        _stamp_fault_planes(settled, gen, vertex_mask.members, len(roots), n)
    slots = max_weight + 1
    buckets = ws.ensure_buckets(slots)
    outstanding = len(targets)
    first = buckets[0]
    base = 0
    for s in roots:
        code = base + s
        dist[code] = 0.0
        label[code] = gen
        first.append(code)
        base += n
    pending = len(roots)
    estamp = egen = None
    if edge_mask is not None:
        estamp, egen = edge_mask.stamp, edge_mask.gen
        eid_rows = csr.edge_id_rows
    slot = 0
    try:
        while pending:
            bucket = buckets[slot]
            if bucket:
                for code in bucket:
                    pending -= 1
                    if settled[code] == gen:
                        continue  # stale entry (or pre-stamped fault)
                    settled[code] = gen
                    if code in targets:
                        outstanding -= 1
                        if not outstanding:
                            return
                    u = code % n
                    base = code - u
                    d = dist[code]
                    if estamp is not None:
                        row = rows[u]
                        erow = eid_rows[u]
                        wrow = wrows[u]
                        for j in range(len(row)):
                            nc = base + row[j]
                            if settled[nc] == gen:
                                continue
                            if estamp[erow[j]] == egen:
                                continue
                            nd = d + wrow[j]
                            if label[nc] != gen or nd < dist[nc]:
                                label[nc] = gen
                                dist[nc] = nd
                                buckets[int(nd) % slots].append(nc)
                                pending += 1
                    else:
                        for v, w in zip(rows[u], wrows[u]):
                            nc = base + v
                            if settled[nc] == gen:
                                continue
                            nd = d + w
                            if label[nc] != gen or nd < dist[nc]:
                                label[nc] = gen
                                dist[nc] = nd
                                buckets[int(nd) % slots].append(nc)
                                pending += 1
                del bucket[:]
            slot += 1
            if slot == slots:
                slot = 0
    finally:
        for bucket in buckets:
            if bucket:
                del bucket[:]


def _np_adjacency(ws: MultiSourceWorkspace, csr: CSRLike):
    """Flatten the CSR rows into numpy index arrays, cached per graph.

    The key carries the graph's mutation ``version`` stamp when it has
    one (a delta overlay behind a dynamic snapshot): deletions retire
    edge ids without changing ``num_edges``, so the counts alone cannot
    detect that the rows moved under the cache.  Frozen graphs carry no
    version and key as before.
    """
    key = (
        id(csr), csr.num_nodes, csr.num_edges,
        getattr(csr, "version", 0),
    )
    if ws.np_key != key:
        rows = csr.neighbors
        counts = [len(row) for row in rows]
        # int32 throughout: the kernels are memory-bandwidth bound, and
        # packed codes stay below 2**31 because the callers chunk the
        # root dimension (NUMPY_BATCH_CELLS in graph.snapshot).
        indptr = _np.zeros(len(rows) + 1, dtype=_np.int32)
        _np.cumsum(counts, out=indptr[1:])
        indices = _np.fromiter(
            (v for row in rows for v in row), dtype=_np.int32,
            count=int(indptr[-1]),
        )
        eids = _np.fromiter(
            (e for row in csr.edge_id_rows for e in row), dtype=_np.int32,
            count=int(indptr[-1]),
        )
        # Twin slot of each directed slot: slot e holds edge (t, h); its
        # twin is h's slot for (h, t).  Sorting the slots once by (t, h)
        # and once by (h, t) aligns each slot with its twin rank-for-rank
        # (simple graph: keys are unique), giving the reverse map the
        # bottom-up BFS step needs to locate a cell's offset inside its
        # parent's row.
        t = _np.repeat(_np.arange(len(rows), dtype=_np.int64), counts)
        h = indices.astype(_np.int64)
        nn = len(rows)
        i1 = _np.argsort(t * nn + h, kind="stable")
        i2 = _np.argsort(h * nn + t, kind="stable")
        twin = _np.empty(indices.size, dtype=_np.int32)
        twin[i2] = i1.astype(_np.int32)
        ws.np_key = key
        ws.np_indptr = indptr
        ws.np_indices = indices
        ws.np_eids = eids
        ws.np_twin = twin
    return ws.np_indptr, ws.np_indices, ws.np_eids, ws.np_twin


def csr_bfs_multi_numpy(
    csr: CSRLike,
    sources: Sequence[int],
    workspace: Optional[MultiSourceWorkspace] = None,
    vertex_mask: Optional[FaultMask] = None,
    edge_mask: Optional[FaultMask] = None,
    need_parents: bool = True,
    need_depths: bool = True,
    grouped: bool = True,
) -> List[Tuple[List[int], List[float], List[int]]]:
    """Vectorized twin of :func:`csr_bfs_multi` (requires numpy).

    Each level expands the whole shared frontier with array gathers over
    the flattened adjacency instead of Python loops.  Returns one
    ``(nodes, depths, parents)`` triple per root, nodes in discovery
    order with the root first (depth ``0.0``, parent ``-1``).
    ``need_parents=False`` / ``need_depths=False`` skip the parent and
    depth bookkeeping respectively (the corresponding triple slot comes
    back empty) -- single-output consumers shave a third or so of the
    per-level work.  ``grouped=False`` (parents only) skips the
    per-root discovery-order assembly entirely and returns the raw
    parent *plane* -- a flat array of ``len(sources) * n`` cells where
    cell ``r * n + v`` holds ``v``'s parent vertex in root ``r``'s tree
    (``-1`` for roots, masked, and unreachable cells).  Consumers that
    only build order-insensitive mappings (see
    :func:`split_parent_plane`) save the sort and the big intermediate
    lists; the parent *values* are identical either way.

    Parity is preserved structurally: level candidates are enumerated in
    (frontier order, row order) -- the same enumeration as the stdlib
    kernel -- duplicates within a level keep their *first* discoverer
    (a reversed position-stamp scatter makes the earliest candidate
    win), and the next frontier keeps first-occurrence order.  Depths
    and parents are therefore bit-identical to :func:`csr_bfs_multi`.

    Direction optimization: once the frontier's outgoing-edge count
    exceeds the estimated adjacency of the still-unseen cells, the
    kernel flips to a bottom-up step -- each unseen cell scans *its own*
    row for a frontier neighbour instead of the huge frontier pushing
    into mostly-seen cells.  Parity survives the flip because the
    sequential discovery key of a cell is its earliest flat candidate
    position ``frontier_prefix_start(parent) + offset_in_parent_row``,
    which bottom-up recovers exactly via the cached twin-slot map; new
    cells are then ordered by that key, reproducing the top-down
    enumeration bit for bit.
    """
    if _np is None:  # pragma: no cover - guarded by resolve_batch_accel
        raise RuntimeError("csr_bfs_multi_numpy requires numpy")
    np = _np
    if not grouped and not need_parents:
        raise ValueError("grouped=False requires need_parents=True")
    roots = list(sources)
    for s in roots:
        _csr_check_terminal(csr, s, vertex_mask, "source")
    if not roots:
        return []
    ws = workspace if workspace is not None else MultiSourceWorkspace()
    n = csr.num_nodes
    nroots = len(roots)
    indptr, indices, eids, twin = _np_adjacency(ws, csr)
    deg = indptr[1:] - indptr[:-1]
    # Packed codes are kept in int32 when they fit (the snapshot layer's
    # cell-budget chunking keeps them far below 2**31); the kernel is
    # bandwidth bound, so halving the index width is a real win.
    cdt = np.int32 if nroots * n < 2 ** 31 else np.int64
    # Inverted visited plane: the hot per-level test is "is this
    # candidate still unseen", so storing that bit directly saves a
    # full-width boolean invert on every level.
    unseen = np.ones(nroots * n, dtype=bool)
    depth = np.zeros(nroots * n, dtype=np.float64) if need_depths else None
    parent = (
        np.full(nroots * n, -1, dtype=cdt) if need_parents else None
    )
    bases = np.arange(nroots, dtype=cdt) * n
    if vertex_mask is not None and vertex_mask.members:
        members = np.array(vertex_mask.members, dtype=cdt)
        unseen[(bases[:, None] + members[None, :]).ravel()] = False
    emask = None
    if edge_mask is not None:
        emask = (
            np.frombuffer(edge_mask.stamp, dtype=np.uint8)[: csr.num_edges]
            == edge_mask.gen
        )
    rcodes = bases + np.array(roots, dtype=cdt)
    unseen[rcodes] = False
    # Scratch plane doing double duty: top-down levels scatter candidate
    # positions into it for the first-occurrence dedup (only cells
    # written in the current level are read back), and bottom-up levels
    # stamp the frontier with a per-level negative tag for membership
    # tests.  The membership read touches *unwritten* cells, so the
    # plane must start clean -- zeros never collide with the negative
    # tags.
    stamp = np.zeros(nroots * n, dtype=cdt)
    frontier = rcodes
    levels = [rcodes]
    level = 0.0
    cells = nroots * n
    nunseen = int(unseen.sum())
    avg_deg = indices.size / max(1, n)
    sentinel = 1 << 62
    pend = None  # unseen-cell list, materialized at the direction flip
    startp = None
    btag = 0
    while frontier.size:
        level += 1.0
        if pend is None:
            vs = frontier % n
            bs = frontier - vs
            cnt = deg[vs]
            total = int(cnt.sum())
            if total == 0:
                break
            # Direction flip: estimate the bottom-up step's work as the
            # unseen cells' adjacency plus the one-off materialization
            # cost, and switch once the frontier's own edge count beats
            # it.  The estimate uses only sizes, so the choice -- and
            # hence the output -- stays deterministic.
            if total > nunseen * avg_deg + cells // 3:
                pend = np.flatnonzero(unseen).astype(cdt)
                pend = pend[deg[pend % n] > 0]
                startp = np.empty(cells, dtype=np.int64)
        if pend is not None:
            # Bottom-up step: every unseen cell scans its own row for a
            # frontier neighbour.  A cell's sequential discovery key is
            # the flat candidate position its first discoverer would
            # have enumerated it at -- frontier prefix start of the
            # parent plus the cell's offset inside the parent's row
            # (via the twin-slot map) -- so taking the per-cell minimum
            # key and ordering new cells by it reproduces the top-down
            # discovery order exactly.
            if pend.size == 0:
                break
            uvs = pend % n
            ucnt = deg[uvs]
            ustarts = np.cumsum(ucnt) - ucnt
            utotal = int(ustarts[-1] + ucnt[-1])
            upos = np.arange(utotal) + np.repeat(indptr[uvs] - ustarts, ucnt)
            nbr = indices[upos]
            pcode = np.repeat(pend - uvs, ucnt) + nbr
            btag -= 1
            fcnt = deg[frontier % n]
            cstart = np.cumsum(fcnt) - fcnt
            stamp[frontier] = btag
            startp[frontier] = cstart
            member = stamp[pcode] == btag
            if emask is not None:
                member &= ~emask[eids[upos]]
            keys = np.where(
                member, startp[pcode] + (twin[upos] - indptr[nbr]), sentinel
            )
            minkey = np.minimum.reduceat(keys, ustarts)
            disc = minkey < sentinel
            if not disc.any():
                break
            dk = minkey[disc]
            order = np.argsort(dk)
            new = pend[disc][order]
            if need_parents:
                fi = np.searchsorted(cstart, dk[order], side="right") - 1
                parent[new] = frontier[fi] % n
            pend = pend[~disc]
        else:
            # Flat positions of each frontier entry's row, candidate i of
            # entry e sitting at indptr[vs[e]] + i.  Positions index the
            # flattened adjacency, so they fit the same narrow width as
            # the codes whenever the level's candidate count does.
            pdt = np.int32 if total < 2 ** 31 else np.int64
            pos = np.arange(total, dtype=pdt) + np.repeat(
                indptr[vs] - (np.cumsum(cnt, dtype=pdt) - cnt), cnt
            )
            ncodes = np.repeat(bs, cnt) + indices[pos]
            if emask is not None:
                keep = ~emask[eids[pos]]
                ncodes = ncodes[keep]
                if need_parents:
                    pos = pos[keep]
            fresh = unseen[ncodes]
            ncodes = ncodes[fresh]
            if need_parents:
                # Defer compressing ``pos``: keep the surviving
                # candidate indices instead and gather the few winners'
                # positions at the end -- one narrow index array beats
                # a full-width compress of ``pos`` per level.
                fidx = np.flatnonzero(fresh)
            if ncodes.size == 0:
                break
            # First-occurrence dedup within the level, no sorting: scatter
            # candidate positions in reverse (so the earliest write wins),
            # then a candidate that reads back its own position is the
            # first discoverer of its cell.  Compressing by that mask keeps
            # candidate order -- exactly the sequential kernel's discovery
            # order.  Each winner's parent is the owner of its flat row
            # position, recovered by bisecting indptr over winners only.
            idxs = np.arange(ncodes.size, dtype=cdt)
            stamp[ncodes[::-1]] = idxs[::-1]
            win = stamp[ncodes] == idxs
            new = ncodes[win]
            if need_parents:
                parent[new] = (
                    np.searchsorted(indptr, pos[fidx[win]], side="right") - 1
                )
        unseen[new] = False
        nunseen -= new.size
        if need_depths:
            depth[new] = level
        levels.append(new)
        frontier = new
    if not grouped:
        return parent
    codes = np.concatenate(levels)
    roots_of = codes // n
    order = np.argsort(roots_of, kind="stable")
    sorted_codes = codes[order]
    counts = np.bincount(roots_of, minlength=nroots).tolist()
    vs_all = (sorted_codes % n).tolist()
    ds_all = depth[sorted_codes].tolist() if need_depths else []
    ps_all = parent[sorted_codes].tolist() if need_parents else []
    results: List[Tuple[List[int], List[float], List[int]]] = []
    off = 0
    for r in range(nroots):
        end = off + counts[r]
        results.append((
            vs_all[off:end],
            ds_all[off:end] if need_depths else [],
            ps_all[off:end] if need_parents else [],
        ))
        off = end
    return results


def split_parent_plane(plane, nroots: int, n: int):
    """Split a raw parent plane into per-root child/parent id lists.

    Companion to ``csr_bfs_multi_numpy(..., grouped=False)``.  Returns
    ``(children, parents, bounds)``: flat Python lists of child and
    parent vertex ids covering every reached non-root cell (those with
    ``parent >= 0``), plus per-root slice bounds so root ``r``'s pairs
    live at ``bounds[r]:bounds[r + 1]``.  Children come out in ascending
    vertex order rather than discovery order -- callers build mappings,
    which are order-insensitive, and skipping the discovery-order sort
    is precisely the point of the raw plane.
    """
    np = _np
    codes = np.flatnonzero(plane >= 0)
    parents = plane[codes].tolist()
    children = (codes % n).tolist()
    bounds = [0] * (nroots + 1)
    bounds[1:] = np.searchsorted(
        codes, np.arange(1, nroots + 1, dtype=np.int64) * n
    ).tolist()
    return children, parents, bounds


def dijkstra(
    g: GraphLike,
    source: Node,
    target: Optional[Node] = None,
    max_dist: Optional[float] = None,
) -> Dict[Node, float]:
    """Weighted shortest-path distances from ``source``.

    Stops early if ``target`` is settled or if distances exceed
    ``max_dist``.  Unreachable (or pruned) nodes are absent from the result.
    """
    if not g.has_node(source):
        raise KeyError(f"source {source!r} not in graph")
    dist: Dict[Node, float] = {}
    heap: List = [(0.0, 0, source)]
    counter = 1  # tie-break so heterogeneous node types never compare
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in dist:
            continue
        dist[u] = d
        if u == target:
            break
        for v, w in g.neighbor_items(u):
            if v in dist:
                continue
            nd = d + w
            if max_dist is not None and nd > max_dist:
                continue
            heapq.heappush(heap, (nd, counter, v))
            counter += 1
    return dist


def weighted_distance(g: GraphLike, source: Node, target: Node) -> float:
    """Weighted shortest-path distance, or ``inf`` if disconnected."""
    dist = dijkstra(g, source, target=target)
    return dist.get(target, INFINITY)


def shortest_path(
    g: GraphLike, source: Node, target: Node
) -> Optional[List[Node]]:
    """A minimum-weight path from ``source`` to ``target`` as a node list.

    Returns ``None`` when the endpoints are disconnected.  Uses Dijkstra
    with parent pointers (weights are non-negative by construction).
    """
    if not g.has_node(source):
        raise KeyError(f"source {source!r} not in graph")
    if not g.has_node(target):
        raise KeyError(f"target {target!r} not in graph")
    if source == target:
        return [source]
    parent: Dict[Node, Node] = {}
    best: Dict[Node, float] = {source: 0.0}
    done: Set[Node] = set()
    heap: List = [(0.0, 0, source)]
    counter = 1
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == target:
            path = [target]
            while path[-1] != source:
                path.append(parent[path[-1]])
            path.reverse()
            return path
        for v, w in g.neighbor_items(u):
            if v in done:
                continue
            nd = d + w
            # heapq keeps stale entries; the `done` check discards them.
            if v not in best or nd < best[v]:
                best[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, counter, v))
                counter += 1
    return None


def connected_components(g: GraphLike) -> List[Set[Node]]:
    """All connected components as a list of node sets."""
    seen: Set[Node] = set()
    components: List[Set[Node]] = []
    for start in g.nodes():
        if start in seen:
            continue
        component = set(bfs_distances(g, start))
        seen |= component
        components.append(component)
    return components


def is_connected(g: GraphLike) -> bool:
    """Whether the graph is connected (the empty graph counts as connected)."""
    nodes = list(g.nodes())
    if not nodes:
        return True
    return len(bfs_distances(g, nodes[0])) == len(nodes)


def eccentricity(g: GraphLike, source: Node) -> float:
    """Max hop distance from ``source`` to any node, ``inf`` if disconnected."""
    dist = bfs_distances(g, source)
    if len(dist) != g.num_nodes:
        return INFINITY
    return max(dist.values(), default=0)


def hop_diameter(g: GraphLike) -> float:
    """Unweighted (hop) diameter; ``inf`` if the graph is disconnected."""
    best = 0.0
    for u in g.nodes():
        ecc = eccentricity(g, u)
        if ecc == INFINITY:
            return INFINITY
        best = max(best, ecc)
    return best
