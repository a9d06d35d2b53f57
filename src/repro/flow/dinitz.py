"""Dinic's (Dinitz') max-flow on CSR-derived residual networks.

The engine follows the classic two-phase structure (the same shape as
the exemplar C++ implementations this subsystem is modeled on):

1. *Level phase* -- a BFS over the residual graph assigns each node its
   hop level from the source; only arcs that step exactly one level
   forward participate in the next phase.
2. *Blocking-flow phase* -- a DFS with per-node current-arc pointers
   repeatedly augments along level-increasing paths until none remain,
   never rescanning an arc that was already rejected.

State lives in a :class:`FlowWorkspace` with the same generation-stamp
discipline as :class:`~repro.graph.traversal.BFSWorkspace`: the level
and current-arc arrays are validated by a per-phase ``bytearray`` stamp,
so starting a new phase (or a new query on a reused workspace) is O(1)
instead of O(n) clears.

Networks use the paired-arc residual layout: arcs are appended in
pairs, arc ``a`` and ``a ^ 1`` are mutual reverses, and pushing ``x``
units over ``a`` means ``cap[a] -= x; cap[a ^ 1] += x``.  Capacities
are integers, and every augmentation pushes its path's bottleneck.

:class:`DisjointPathNetwork` is the consumer this subsystem exists for:
it builds, straight from :class:`~repro.graph.csr.CSRGraph` rows, the
unit-capacity network whose max s-t flow value *is* the number of
pairwise edge-disjoint (fault model ``"edge"``) or internally
vertex-disjoint (``"vertex"``, via the vertex-splitting transform)
u-v paths -- Menger's theorem.  :func:`decompose_paths` then extracts
the actual paths from the integral flow, which is what turns a flow
value into a checkable fault-tolerance certificate.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Dict, Iterable, List, Optional, Tuple

from repro.graph.csr import CSRLike

INFINITY = math.inf

FLOW_FAULT_MODELS = ("vertex", "edge")


class FlowWorkspace:
    """Reusable, generation-stamped scratch state for Dinic's algorithm.

    ``level[x]`` and ``arc_it[x]`` are only meaningful while
    ``stamp[x] == gen``; a new BFS phase bumps the generation instead of
    clearing the arrays.  ``arc_it`` holds the blocking-flow DFS's
    current-arc pointer (an index into the node's adjacency row), the
    invariant that makes a whole phase O(V * E) instead of O(V * E^2):
    arcs rejected once stay rejected for the rest of the phase.

    Grow-only (``ensure``), so one workspace serves many queries on
    networks of varying size, exactly like ``BFSWorkspace``.
    """

    __slots__ = ("level", "arc_it", "stamp", "gen", "queue", "stack")

    def __init__(self, num_nodes: int = 0) -> None:
        self.level = [0] * num_nodes
        self.arc_it = [0] * num_nodes
        self.stamp = bytearray(num_nodes)
        self.gen = 0
        self.queue = [0] * num_nodes
        self.stack: List[int] = []

    def ensure(self, num_nodes: int) -> None:
        """Grow every array to cover ``num_nodes`` flow nodes."""
        have = len(self.level)
        if num_nodes > have:
            grow = num_nodes - have
            self.level.extend([0] * grow)
            self.arc_it.extend([0] * grow)
            self.stamp.extend(b"\x00" * grow)
            self.queue.extend([0] * grow)

    def next_generation(self) -> int:
        """Advance the stamp; zero-fill only on the 1-byte wraparound."""
        self.gen += 1
        if self.gen == 256:
            self.gen = 1
            self.stamp[:] = bytes(len(self.stamp))
        return self.gen


class FlowNetwork:
    """A directed residual network in the paired-arc layout.

    ``add_arc(u, v, cap, rev_cap)`` appends the forward arc and its
    reverse as consecutive ids, so ``a ^ 1`` is always the partner.
    ``cap`` holds *residual* capacities and is what max-flow mutates;
    ``base`` keeps the as-built capacities so :meth:`reset` restores a
    pristine network in one slice assignment and so ``flow_on`` can
    recover the (antisymmetric) flow value per arc.  Arcs disabled for
    the current query via :meth:`ban_arc` are tracked so flow
    accounting treats their capacity as 0, not as saturated.

    ``adj`` maps a node to its row of leaving arc ids: a list of rows
    as built, or any mapping with the same rows on a view from
    :meth:`restricted`.
    """

    __slots__ = ("num_nodes", "head", "cap", "base", "adj", "banned")

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.head: List[int] = []
        self.cap: List[int] = []
        self.base: List[int] = []
        self.adj: List[List[int]] = [[] for _ in range(num_nodes)]
        self.banned: List[int] = []

    def add_arc(self, u: int, v: int, cap: int, rev_cap: int = 0) -> int:
        """Append the arc pair u->v / v->u; return the forward arc id."""
        if cap < 0 or rev_cap < 0:
            raise ValueError("arc capacities must be non-negative")
        a = len(self.head)
        self.head.append(v)
        self.cap.append(cap)
        self.base.append(cap)
        self.adj[u].append(a)
        self.head.append(u)
        self.cap.append(rev_cap)
        self.base.append(rev_cap)
        self.adj[v].append(a + 1)
        return a

    @property
    def num_arcs(self) -> int:
        return len(self.head)

    def reset(self) -> None:
        """Restore every residual capacity to its as-built value."""
        self.cap[:] = self.base
        self.banned.clear()

    def ban_arc(self, a: int) -> None:
        """Disable arc ``a`` for the current query (until :meth:`reset`)."""
        self.cap[a] = 0
        self.banned.append(a)

    def restricted(self, rows) -> "FlowNetwork":
        """A view of this network whose adjacency is ``rows``.

        The view shares ``head``, ``cap`` and ``base`` (pushes on it are
        pushes on this network) and starts with no bans.  ``rows`` maps
        each node the view can reach to its row of arcs; an arc left out
        of every row is invisible to max-flow and decomposition alike.
        """
        view = object.__new__(FlowNetwork)
        view.num_nodes = self.num_nodes
        view.head, view.cap, view.base = self.head, self.cap, self.base
        view.adj = rows
        view.banned = []
        return view

    def flow_on(self, a: int) -> int:
        """Net flow currently carried by arc ``a`` (negative = reverse)."""
        if a in self.banned:
            return -self.cap[a]
        return self.base[a] - self.cap[a]

    def tail(self, a: int) -> int:
        """The node arc ``a`` leaves (the head of its partner)."""
        return self.head[a ^ 1]


def _bfs_phase(net: FlowNetwork, s: int, t: int, ws: FlowWorkspace) -> bool:
    """Assign residual-graph levels from ``s``; True when ``t`` is reached.

    Stamping a node also resets its current-arc pointer -- BFS touches
    each node it reaches exactly once per phase, so this is where the
    blocking-flow DFS's iterators are (lazily) initialized.

    The search stops as soon as it stamps ``t``.  Every node on a
    level below ``t``'s is stamped by then, and no node on ``t``'s
    level or deeper leads back to ``t`` through level-increasing arcs,
    so the blocking-flow DFS could only enter such a node to find it a
    dead end.  Leaving those nodes unstamped makes the DFS skip their
    arcs instead -- the same pushes in the same order, minus the
    detours.
    """
    gen = ws.next_generation()
    stamp, level, arc_it, queue = ws.stamp, ws.level, ws.arc_it, ws.queue
    head, cap, adj = net.head, net.cap, net.adj
    stamp[s] = gen
    level[s] = 0
    arc_it[s] = 0
    queue[0] = s
    qhead, qtail = 0, 1
    while qhead < qtail:
        x = queue[qhead]
        qhead += 1
        d = level[x] + 1
        for a in adj[x]:
            if cap[a] <= 0:
                continue
            y = head[a]
            if stamp[y] == gen:
                continue
            stamp[y] = gen
            level[y] = d
            arc_it[y] = 0
            if y == t:
                return True
            queue[qtail] = y
            qtail += 1
    return False


def _augment(
    net: FlowNetwork,
    s: int,
    t: int,
    ws: FlowWorkspace,
    limit: float,
) -> int:
    """Push one augmenting path through the current level graph.

    Returns the units pushed (0 when the phase's level graph is
    exhausted): advance via the current-arc pointer into the next
    level, retreat and dead-mark on failure, and at ``t`` push the
    path's bottleneck (capped at ``limit``).
    """
    head, cap, adj = net.head, net.cap, net.adj
    level, arc_it, stamp, gen = ws.level, ws.arc_it, ws.stamp, ws.gen
    stack = ws.stack
    stack.clear()
    x = s
    while True:
        if x == t:
            push = limit
            for a in stack:
                ca = cap[a]
                if ca < push:
                    push = ca
            push = int(push)
            for a in stack:
                cap[a] -= push
                cap[a ^ 1] += push
            return push
        row = adj[x]
        i = arc_it[x]
        lx = level[x]
        chosen = -1
        n_row = len(row)
        while i < n_row:
            a = row[i]
            if cap[a] > 0:
                y = head[a]
                if stamp[y] == gen and level[y] == lx + 1:
                    chosen = a
                    break
            i += 1
        arc_it[x] = i
        if chosen >= 0:
            stack.append(chosen)
            x = head[chosen]
        else:
            # Dead end: nothing level-increasing leaves x this phase.
            level[x] = -1
            if not stack:
                return 0
            a = stack.pop()
            x = head[a ^ 1]
            arc_it[x] += 1  # skip the arc that led into the dead end


def dinitz_max_flow(
    net: FlowNetwork,
    s: int,
    t: int,
    workspace: Optional[FlowWorkspace] = None,
    limit: Optional[int] = None,
) -> int:
    """Max s-t flow of ``net``'s *current* residual state.

    Mutates ``net.cap`` in place (call :meth:`FlowNetwork.reset` to
    reuse the network).  ``limit`` stops early once that much flow is
    routed -- for disjoint-path queries that only need to reach f+1,
    the remaining phases are pure waste.
    """
    if not (0 <= s < net.num_nodes and 0 <= t < net.num_nodes):
        raise ValueError(f"terminals ({s}, {t}) outside the network")
    if s == t:
        raise ValueError("source equals sink")
    ws = workspace if workspace is not None else FlowWorkspace()
    ws.ensure(net.num_nodes)
    remaining = INFINITY if limit is None else limit
    flow = 0
    while remaining > 0 and _bfs_phase(net, s, t, ws):
        while remaining > 0:
            pushed = _augment(net, s, t, ws, remaining)
            if pushed == 0:
                break
            flow += pushed
            remaining -= pushed
    return flow


def decompose_paths(net: FlowNetwork, s: int, t: int) -> List[List[int]]:
    """Extract the s-t paths carried by ``net``'s current flow.

    Walks positive-flow arcs from ``s``, consuming one unit per step;
    flow conservation guarantees every walk reaches ``t``.  Returns one
    node sequence per flow unit (so ``len(result)`` equals the flow
    value).  Flow cycles not on any s-t path are simply left
    unconsumed; loops a walk does pick up are spliced out, so every
    returned path is simple.  Flow is read only on the arcs the walks
    scan, so the cost does not grow with the arcs the flow never
    reached.
    """
    head, cap, base, adj = net.head, net.cap, net.base, net.adj
    # A banned arc's effective capacity is 0: it carries no flow, it is
    # not a saturated unit.
    banned = set(net.banned)
    # Units already walked, per arc (the partner gets them back).
    consumed: Dict[int, int] = {}
    value = sum(
        (-cap[a] if a in banned else base[a] - cap[a]) for a in adj[s]
    )
    it: Dict[int, int] = {}
    paths: List[List[int]] = []
    for _ in range(value):
        walk = [s]
        x = s
        while x != t:
            row = adj[x]
            i = it.get(x, 0)
            while True:
                a = row[i]
                carried = -cap[a] if a in banned else base[a] - cap[a]
                if a in consumed:
                    carried -= consumed[a]
                if carried > 0:
                    break
                i += 1
            it[x] = i
            consumed[a] = consumed.get(a, 0) + 1
            consumed[a ^ 1] = consumed.get(a ^ 1, 0) - 1
            x = head[a]
            walk.append(x)
        paths.append(_splice_loops(walk))
    return paths


def _splice_loops(walk: List[int]) -> List[int]:
    """Cut any loops out of a walk, leaving a simple path."""
    simple: List[int] = []
    pos = {}
    for node in walk:
        if node in pos:
            k = pos[node]
            for dropped in simple[k + 1:]:
                del pos[dropped]
            del simple[k + 1:]
        else:
            pos[node] = len(simple)
            simple.append(node)
    return simple


class DisjointPathNetwork:
    """Disjoint-path counting over a frozen CSR graph, via max-flow.

    Built once per (graph, fault model) and reused across queries.  A
    query runs Dinic's from one terminal to the other in one of two
    forms:

    * *banned* (the default) -- reset every residual capacity, ban the
      given vertices / edge ids, run on the whole network (the router's
      fault sets).
    * *restricted* (``allowed_edges=``) -- run on a view holding only
      the allowed edges' arcs plus the node-splitting arcs, each row
      filtered on first visit in as-built order.  It runs exactly as
      the whole network with every other edge banned (a banned arc has
      residual 0 both ways, and dropping it moves no other arc in its
      row), and it resets only the rows the previous view built, so a
      query costs what it visits (witness verification's ellipses).

    ``fault_model="edge"`` -- flow nodes are the graph's node indices;
    each undirected edge {a, b} becomes ONE arc pair with capacity 1 in
    both directions (each arc is the other's residual), so the max flow
    is the number of pairwise edge-disjoint a-b paths.

    ``fault_model="vertex"`` -- the vertex-splitting transform: node
    ``x`` becomes ``x_in = 2x`` and ``x_out = 2x + 1`` joined by a
    unit-capacity internal arc, and edge {a, b} becomes the two
    unit-capacity arcs ``a_out -> b_in`` and ``b_out -> a_in``.  Flow
    through any non-terminal vertex is then capped at 1, so the max
    ``u_out -> v_in`` flow is the number of *internally* vertex-disjoint
    u-v paths; the terminals' own internal arcs sit outside the s-t
    flow and never constrain it.
    """

    __slots__ = (
        "csr", "fault_model", "net", "edge_arcs", "node_arcs", "row_edges",
        "dirty", "residual",
    )

    def __init__(self, csr: CSRLike, fault_model: str = "vertex") -> None:
        if fault_model not in FLOW_FAULT_MODELS:
            raise ValueError(f"unknown fault model {fault_model!r}")
        self.csr = csr
        self.fault_model = fault_model
        n = csr.num_nodes
        m = csr.num_edges
        edge_u, edge_v = csr.edge_u, csr.edge_v
        # Delta overlays retire edge ids on delete without renumbering,
        # so their flat endpoint arrays carry stale slots; skip those
        # (an empty arc tuple keeps ``edge_arcs`` aligned with eids so
        # banning a retired id is a harmless no-op).  Frozen CSR graphs
        # have no retired ids and take the unconditional path.
        owns = getattr(csr, "owns_edge_id", None)
        self.edge_arcs: List[Tuple[int, ...]] = []
        self.node_arcs: List[int] = []
        if fault_model == "edge":
            net = FlowNetwork(n)
            for eid in range(m):
                if owns is not None and not owns(eid):
                    self.edge_arcs.append(())
                    continue
                a = net.add_arc(edge_u[eid], edge_v[eid], 1, rev_cap=1)
                self.edge_arcs.append((a,))
        else:
            net = FlowNetwork(2 * n)
            for x in range(n):
                self.node_arcs.append(net.add_arc(2 * x, 2 * x + 1, 1))
            for eid in range(m):
                if owns is not None and not owns(eid):
                    self.edge_arcs.append(())
                    continue
                a, b = edge_u[eid], edge_v[eid]
                p = net.add_arc(2 * a + 1, 2 * b, 1)
                q = net.add_arc(2 * b + 1, 2 * a, 1)
                self.edge_arcs.append((p, q))
        self.net = net
        # Per flow node, the edge id behind each arc of its row, for the
        # restricted queries' row filter; node-splitting arcs map to the
        # extra id ``m``, which every restricted query allows.
        arc_edge = [m] * net.num_arcs
        for eid, arcs in enumerate(self.edge_arcs):
            for a in arcs:
                arc_edge[a] = arc_edge[a ^ 1] = eid
        self.row_edges = [[arc_edge[a] for a in row] for row in net.adj]
        # The rows of the last restricted query (the only arcs it can
        # have pushed on), or None when the last query may have changed
        # any arc.
        self.dirty: Optional[dict] = {}
        # The network the last query ran on, whose residual state
        # decompose_paths reads: ``net`` or a restricted view of it.
        self.residual = net

    # ------------------------------------------------------------- #

    def source_of(self, i: int) -> int:
        """The flow node queries leave from, for graph index ``i``."""
        return 2 * i + 1 if self.fault_model == "vertex" else i

    def sink_of(self, i: int) -> int:
        """The flow node queries arrive at, for graph index ``i``."""
        return 2 * i if self.fault_model == "vertex" else i

    def _ban_edge_id(self, eid: int) -> None:
        for a in self.edge_arcs[eid]:
            self.net.ban_arc(a)
            self.net.ban_arc(a ^ 1)

    def _ban_vertex(self, i: int) -> None:
        if self.fault_model == "vertex":
            a = self.node_arcs[i]
            self.net.ban_arc(a)
            self.net.ban_arc(a ^ 1)
        else:
            # No internal arc to cut; removing the vertex means removing
            # its incident edges.
            for eid in self.csr.edge_id_rows[i]:
                self._ban_edge_id(eid)

    def _to_graph_path(self, flow_path: List[int]) -> List[int]:
        if self.fault_model == "edge":
            return flow_path
        path = []
        for fn in flow_path:
            g = fn >> 1
            if not path or path[-1] != g:
                path.append(g)
        return path

    # ------------------------------------------------------------- #

    def _restrict(self, allowed_edges: Iterable[int]) -> FlowNetwork:
        """Reset what the last query touched; view ``allowed_edges``."""
        net = self.net
        dirty = self.dirty
        # One slice copy beats the per-arc loop (two stores per row arc)
        # once the rows cover a sixteenth of the arcs.
        if dirty is None or 16 * sum(map(len, dirty.values())) > net.num_arcs:
            net.reset()
        else:
            # Every pushed arc lies in a materialized row (its tail's);
            # its partner gets the other half of the push.
            cap, base = net.cap, net.base
            for row in dirty.values():
                for a in row:
                    cap[a] = base[a]
                    cap[a ^ 1] = base[a ^ 1]
        allowed = set(allowed_edges)
        allowed.add(len(self.edge_arcs))  # the node-splitting arcs' id
        rows = _AllowedRows(net.adj, self.row_edges, allowed)
        self.dirty = rows
        return net.restricted(rows)

    def max_flow(
        self,
        u: int,
        v: int,
        workspace: Optional[FlowWorkspace] = None,
        limit: Optional[int] = None,
        banned_vertices: Iterable[int] = (),
        banned_edges: Iterable[int] = (),
        allowed_edges: Optional[Iterable[int]] = None,
    ) -> int:
        """The disjoint-path count from graph index ``u`` to ``v``.

        Either resets the network and bans the given vertices / edge
        ids, or -- with ``allowed_edges`` (edge ids; not combinable with
        bans) -- runs on the view of those edges only; either way the
        answer is the count with every other edge banned.  The residual
        state is left in place afterwards so :meth:`disjoint_paths`
        (which calls this) can decompose it.
        """
        if u == v:
            raise ValueError("disjoint paths need distinct endpoints")
        if allowed_edges is not None:
            if banned_vertices or banned_edges:
                raise ValueError(
                    "allowed_edges= runs without bans; pass one or the "
                    "other"
                )
            self.residual = self._restrict(allowed_edges)
        else:
            self.net.reset()
            self.dirty = None
            self.residual = self.net
            for x in banned_vertices:
                self._ban_vertex(x)
            for eid in banned_edges:
                self._ban_edge_id(eid)
        return dinitz_max_flow(
            self.residual, self.source_of(u), self.sink_of(v),
            workspace=workspace, limit=limit,
        )

    def disjoint_paths(
        self,
        u: int,
        v: int,
        workspace: Optional[FlowWorkspace] = None,
        limit: Optional[int] = None,
        banned_vertices: Iterable[int] = (),
        banned_edges: Iterable[int] = (),
        allowed_edges: Optional[Iterable[int]] = None,
    ) -> List[List[int]]:
        """Pairwise disjoint u-v paths, as graph-index node sequences.

        Edge model: pairwise edge-disjoint.  Vertex model: pairwise
        internally vertex-disjoint (only ``u`` and ``v`` shared).  The
        returned list realizes the max flow (all of it, or ``limit``
        paths when given) and is deterministic: arcs are scanned in CSR
        construction order.  The restriction (``allowed_edges``) and the
        bans are those of :meth:`max_flow`.
        """
        value = self.max_flow(
            u, v, workspace=workspace, limit=limit,
            banned_vertices=banned_vertices, banned_edges=banned_edges,
            allowed_edges=allowed_edges,
        )
        if value == 0:
            return []
        flow_paths = decompose_paths(
            self.residual, self.source_of(u), self.sink_of(v)
        )
        return [self._to_graph_path(p) for p in flow_paths]


class _AllowedRows(dict):
    """A restricted view's adjacency: node -> its allowed arcs.

    A row is filtered from the full one on first access and keeps the
    as-built arc order, so only the nodes a query reaches pay for a row.
    """

    __slots__ = ("full", "row_edges", "is_allowed")

    def __init__(self, full, row_edges, allowed) -> None:
        super().__init__()
        self.full = full
        self.row_edges = row_edges
        self.is_allowed = allowed.__contains__

    def __missing__(self, x: int) -> List[int]:
        row = self[x] = list(
            compress(self.full[x], map(self.is_allowed, self.row_edges[x]))
        )
        return row
