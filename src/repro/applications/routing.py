"""Spanner-based routing with fault fallback.

Compact routing [TZ01] is among the original motivations for spanners:
route over a sparse subgraph instead of the full topology, paying a
bounded detour.  With an f-fault-tolerant spanner underneath, the same
tables keep working through failures.

:class:`SpannerRouter` precomputes, per destination, a shortest-path
tree *on the spanner* and answers next-hop queries from it.  When a
fault set is reported (up to the spanner's f), affected destinations
are rerouted on the faulted spanner -- by the FT guarantee a route
within stretch (2k-1) of the true post-fault distance always exists.

Routes are loop-free by construction (next hops follow a shortest-path
tree for the current fault set), which the tests check by walking every
route to termination.

Execution: the spanner is frozen once into a
:class:`~repro.graph.snapshot.CSRSnapshot` and every table build runs
on a shared :class:`~repro.graph.snapshot.ScenarioSweep`: a reported
fault set is an O(|F|) mask re-stamp, and each destination-rooted tree
comes from the CSR parent arrays (flat-array BFS on unit spanners, CSR
Dijkstra on weighted ones) -- no lazy view, no per-node dict churn.
The dict reference in ``tests/reference/`` (one destination-rooted dict
Dijkstra per (fault set, destination) on a lazy fault view) builds
identical tables entry for entry, which
`tests/test_applications_parity.py` asserts.  Next-hop lookups
themselves are O(1) table reads.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.core.greedy_modified import fault_tolerant_spanner
from repro.core.spanner import FaultModel, SpannerResult
from repro.flow.dinitz import DisjointPathNetwork, FlowWorkspace
from repro.graph.graph import Graph, Node, edge_key
from repro.graph.snapshot import CSRSnapshot, ScenarioSweep

INFINITY = math.inf


class RoutingError(RuntimeError):
    """Raised when no surviving route exists for a query."""


class SpannerRouter:
    """Next-hop routing over a fault-tolerant spanner.

    Parameters mirror :func:`repro.core.greedy_modified.
    fault_tolerant_spanner`; a prebuilt :class:`SpannerResult` may be
    supplied instead of rebuilding, and ``snapshot`` may supply an
    already-frozen
    :class:`~repro.graph.snapshot.CSRSnapshot` of the spanner (e.g.
    from a :class:`repro.session.SpannerSession`) for the router's
    sweep to re-stamp instead of freezing its own.  The spanner's weight
    profile picks the engine for the destination-rooted trees (hop-BFS,
    batched over many destinations by one multi-source BFS, on unit
    spanners; the Dial bucket queue, one destination at a time, on
    integral-weight ones; see
    :data:`repro.graph.snapshot.ENGINE_POLICY`).

    Examples
    --------
    >>> from repro.graph import generators
    >>> g = generators.cycle_graph(6)
    >>> router = SpannerRouter(g, k=2, f=1)
    >>> router.next_hop(0, 3) in (1, 5)
    True
    """

    def __init__(
        self,
        g: Graph,
        k: int,
        f: int,
        fault_model: Union[FaultModel, str] = FaultModel.VERTEX,
        prebuilt: Optional[SpannerResult] = None,
        snapshot: Optional[CSRSnapshot] = None,
    ) -> None:
        self.k = k
        self.f = f
        self.fault_model = FaultModel.coerce(fault_model)
        if prebuilt is not None:
            result = prebuilt
        else:
            result = fault_tolerant_spanner(
                g, k, f, fault_model=self.fault_model
            )
        self.spanner = result.spanner
        self.construction = result
        # Per fault set: per destination: node -> next hop toward dest.
        self._tables: Dict[FrozenSet, Dict[Node, Dict[Node, Node]]] = {}
        self._sweep: Optional[ScenarioSweep] = None
        # Lazy flow substrate for disjoint_routes: (csr, indexer,
        # DisjointPathNetwork, FlowWorkspace), built on first use.
        self._flow: Optional[Tuple] = None
        # Churn stamp: the spanner dict's monotonic ``mutations``
        # counter bumps per streaming update (overlay mutations mirror
        # into the dict); tables and the flow
        # network built before the bump describe the pre-churn topology
        # and are dropped wholesale.
        self._version = self.spanner.mutations
        if snapshot is not None:
            if snapshot.g is not self.spanner:
                raise ValueError(
                    "snapshot does not freeze this router's spanner"
                )
            self._sweep = ScenarioSweep(snapshot)

    # ------------------------------------------------------------- #

    def next_hop(
        self, source: Node, dest: Node, faults: Optional[Iterable] = None
    ) -> Node:
        """The neighbor ``source`` forwards to for ``dest``.

        Raises :class:`RoutingError` when the destination is unreachable
        in the faulted spanner and ``ValueError``/``KeyError`` on invalid
        queries (too many faults, faulted endpoints, unknown nodes).
        """
        if source == dest:
            raise ValueError("source equals destination")
        table = self._table_for(self._normalize(faults), dest)
        hop = table.get(source)
        if hop is None:
            raise RoutingError(
                f"no surviving route from {source!r} to {dest!r}"
            )
        return hop

    def route(
        self, source: Node, dest: Node, faults: Optional[Iterable] = None
    ) -> List[Node]:
        """The full node sequence from ``source`` to ``dest``."""
        fault_key = self._normalize(faults)
        table = self._table_for(fault_key, dest)
        path = [source]
        current = source
        limit = self.spanner.num_nodes + 1
        while current != dest:
            nxt = table.get(current)
            if nxt is None:
                raise RoutingError(
                    f"no surviving route from {source!r} to {dest!r}"
                )
            path.append(nxt)
            current = nxt
            if len(path) > limit:  # pragma: no cover - defensive
                raise RoutingError("routing loop detected")
        return path

    def route_cost(
        self, source: Node, dest: Node, faults: Optional[Iterable] = None
    ) -> float:
        """Total weight of the route returned by :meth:`route`."""
        path = self.route(source, dest, faults=faults)
        return sum(
            self.spanner.weight(a, b) for a, b in zip(path, path[1:])
        )

    def disjoint_routes(
        self,
        source: Node,
        dest: Node,
        count: Optional[int] = None,
        faults: Optional[Iterable] = None,
    ) -> List[List[Node]]:
        """``count`` pairwise disjoint routes from ``source`` to ``dest``.

        Fault-diverse routing: the returned routes are pairwise
        internally vertex-disjoint under the vertex model (edge-disjoint
        under the edge model), so any single fault -- any ``count - 1``
        faults, by Menger -- leaves at least one of them intact.
        ``count`` defaults to ``f + 1``, matching the spanner's fault
        budget.  Already-reported ``faults`` are excluded from every
        route.

        Routes come from the CSR Dinic engine
        (:class:`repro.flow.dinitz.DisjointPathNetwork`) over the frozen
        spanner, so a query costs one unit-capacity max-flow run, not a
        table build; the network and workspace are cached on the router.
        Raises :class:`RoutingError` when fewer than ``count`` disjoint
        routes survive.
        """
        if source == dest:
            raise ValueError("source equals destination")
        if count is None:
            count = self.f + 1
        if count < 1:
            raise ValueError(f"need count >= 1, got {count}")
        for node in (source, dest):
            if not self.spanner.has_node(node):
                raise KeyError(f"{node!r} not in graph")
        fault_key = self._normalize(faults)
        if self.fault_model is FaultModel.VERTEX and (
            source in fault_key or dest in fault_key
        ):
            raise ValueError("route endpoint is in the fault set")
        self._flush_if_stale()
        csr, indexer, network, workspace = self._flow_engine()
        banned_vertices: List[int] = []
        banned_edges: List[int] = []
        if fault_key:
            if self.fault_model is FaultModel.VERTEX:
                banned_vertices = [
                    i
                    for i in (indexer.get(x) for x in fault_key)
                    if i is not None
                ]
            else:
                for a, b in fault_key:
                    ia = indexer.get(a)
                    ib = indexer.get(b)
                    if ia is None or ib is None or not csr.has_edge(ia, ib):
                        continue
                    banned_edges.append(csr.edge_id(ia, ib))
        raw = network.disjoint_paths(
            indexer.index(source),
            indexer.index(dest),
            workspace=workspace,
            limit=count,
            banned_vertices=banned_vertices,
            banned_edges=banned_edges,
        )
        if len(raw) < count:
            raise RoutingError(
                f"only {len(raw)} disjoint routes from {source!r} to "
                f"{dest!r} survive; {count} requested"
            )
        node_of = indexer.node
        return [[node_of(i) for i in path] for path in raw]

    def table(
        self, dest: Node, faults: Optional[Iterable] = None
    ) -> Dict[Node, Node]:
        """The full next-hop table toward ``dest`` under ``faults``.

        Maps every node with a surviving route to its next hop toward
        the destination.  The mapping is the router's cached table --
        treat it as read-only.
        """
        return self._table_for(self._normalize(faults), dest)

    def tables(
        self,
        dests: Optional[Iterable[Node]] = None,
        faults: Optional[Iterable] = None,
    ) -> Dict[Node, Dict[Node, Node]]:
        """Next-hop tables toward *many* destinations in one batch.

        Returns ``{dest: table}`` with each table identical to
        :meth:`table` for that destination; ``dests=None`` builds every
        destination in the spanner.  Destinations already cached for
        this fault set are served from the cache; all remaining
        destination-rooted trees ride one
        :meth:`~repro.graph.snapshot.ScenarioSweep.parents_multi` call
        (one multi-source BFS on unit spanners, a per-destination loop
        on weighted ones), and the results land in
        the same per-``(fault set, dest)`` cache the single-destination
        path uses.
        """
        fault_key = self._normalize(faults)
        dest_list = (
            list(self.spanner.nodes()) if dests is None else list(dests)
        )
        self._flush_if_stale()
        per_dest = self._tables.setdefault(fault_key, {})
        missing: List[Node] = []
        for dest in dict.fromkeys(dest_list):
            if dest in per_dest:
                continue
            if not self.spanner.has_node(dest):
                raise KeyError(f"destination {dest!r} not in graph")
            if (
                self.fault_model is FaultModel.VERTEX
                and dest in fault_key
            ):
                raise ValueError(
                    f"destination {dest!r} is in the fault set"
                )
            missing.append(dest)
        if missing:
            built = self._stamped_sweep(fault_key).parents_multi(missing)
            for dest, parent in zip(missing, built):
                per_dest[dest] = parent
        return {dest: per_dest[dest] for dest in dest_list}

    def table_size(self) -> int:
        """Total next-hop entries currently materialized (all scenarios)."""
        return sum(
            len(table)
            for per_dest in self._tables.values()
            for table in per_dest.values()
        )

    # ------------------------------------------------------------- #

    def _normalize(self, faults: Optional[Iterable]) -> FrozenSet:
        if faults is None:
            return frozenset()
        if self.fault_model is FaultModel.VERTEX:
            out = frozenset(faults)
        else:
            out = frozenset(edge_key(u, v) for u, v in faults)
        if len(out) > self.f:
            raise ValueError(
                f"{len(out)} faults declared; the spanner tolerates "
                f"at most f={self.f}"
            )
        return out

    def _flush_if_stale(self) -> None:
        """Drop tables and the flow network built before the last update.

        The sweep refreshes its own masks through the overlay's version
        stamp; the router additionally owns next-hop tables and a Dinic
        network whose arcs bake in the pre-churn edge list, so both are
        rebuilt from scratch at the next query after the spanner's
        ``mutations`` stamp moves.  Must run before
        any ``_tables`` / ``_flow`` read.
        """
        v = self.spanner.mutations
        if v != self._version:
            self._version = v
            self._tables.clear()
            self._flow = None

    def _flow_engine(self) -> Tuple:
        """The cached (csr, indexer, network, workspace) flow substrate.

        Shares the sweep's snapshot.  One build serves until
        :meth:`_flush_if_stale` sees a streaming update, which resets
        it.
        """
        if self._flow is None:
            sweep = self._sweep
            if sweep is None:
                sweep = self._sweep = ScenarioSweep(self.spanner)
            csr = sweep.snap.csr
            indexer = sweep.snap.indexer
            self._flow = (
                csr,
                indexer,
                DisjointPathNetwork(csr, self.fault_model.value),
                FlowWorkspace(),
            )
        return self._flow

    def _stamped_sweep(self, fault_key: FrozenSet) -> ScenarioSweep:
        """The shared snapshot sweep, re-stamped for ``fault_key``."""
        sweep = self._sweep
        if sweep is None:
            sweep = self._sweep = ScenarioSweep(self.spanner)
        sweep.stamp(fault_key, self.fault_model.value)
        return sweep

    def _table_for(
        self, fault_key: FrozenSet, dest: Node
    ) -> Dict[Node, Node]:
        """Next-hop table toward ``dest`` under ``fault_key`` (cached).

        Built from one destination-rooted single-source tree: each
        reached node's next hop is its parent toward ``dest`` (reversed
        tree), straight from the shared sweep's parent arrays.
        """
        if not self.spanner.has_node(dest):
            raise KeyError(f"destination {dest!r} not in graph")
        if (
            self.fault_model is FaultModel.VERTEX
            and dest in fault_key
        ):
            raise ValueError(f"destination {dest!r} is in the fault set")
        self._flush_if_stale()
        per_dest = self._tables.setdefault(fault_key, {})
        cached = per_dest.get(dest)
        if cached is not None:
            return cached
        parent = self._stamped_sweep(fault_key).parents_toward(dest)
        # parent[x] is x's predecessor on the dest-rooted tree, i.e. the
        # next hop on x's shortest route TOWARD dest.
        per_dest[dest] = parent
        return parent

