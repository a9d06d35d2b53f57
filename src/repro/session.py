"""`SpannerSession`: one graph, one frozen substrate, many consumers.

The library's workloads compose: build a spanner, verify its guarantee,
stand up a distance oracle, check routing, sample availability.  Used as
free functions, each step re-freezes the same graphs into CSR form --
``verify_ft_spanner`` builds a :class:`~repro.graph.snapshot.DualCSRSnapshot`,
the oracle another :class:`~repro.graph.snapshot.CSRSnapshot`, the
availability sampler yet another dual -- five O(n + m) freezes for a
workflow that only ever looks at two graphs.

:class:`SpannerSession` is the facade that makes snapshot sharing the
default.  Construct it once from a graph with the session-wide
configuration (``k``, ``f``, fault model, seed);
``build()`` dispatches through the :mod:`algorithm registry
<repro.registry>`; every subsequent consumer -- :meth:`verify`,
:meth:`oracle`, :meth:`router`, :meth:`availability`,
:meth:`degradation` -- shares **one frozen snapshot per graph** over one
shared node-index space:

* the input graph G is frozen at most once per session, and
* each built (or adopted) spanner H is frozen at most once,

no matter how many verifications, oracles, routers, or availability
sweeps the session serves (``tests/test_session.py`` asserts this with
the substrate's :func:`~repro.graph.snapshot.csr_freeze_count`).
Answers are bit-identical to the free functions'.

This is the same "build one reusable structure, then answer many
queries against it" discipline the derandomization literature turned
into reusable primitives (network decompositions, ruling sets); here the
primitive is the frozen CSR substrate and the queries are fault
scenarios.

Examples
--------
>>> from repro.graph import generators
>>> from repro.session import SpannerSession
>>> g = generators.gnp_random_graph(60, 0.2, seed=0)
>>> session = SpannerSession(g, k=2, f=1)
>>> result = session.build("greedy")
>>> report = session.verify(samples=50)      # shares the session freeze
>>> oracle = session.oracle()                # ... so does the oracle
>>> bool(report) and oracle.size == result.num_edges
True
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.applications.availability import (
    AvailabilityReport,
    availability_analysis,
    degradation_profile,
)
from repro.applications.oracle import FaultTolerantDistanceOracle
from repro.applications.routing import SpannerRouter
from repro.core.spanner import FaultModel, SpannerResult
from repro.dynamic.log import EdgeDelete, EdgeInsert, classify_op, coerce_op
from repro.dynamic.snapshot import CompactionPolicy, DynamicSnapshot
from repro.graph.graph import Graph
from repro.graph.index import NodeIndexer
from repro.graph.snapshot import CSRSnapshot, DualCSRSnapshot
from repro.registry import build_spanner, get_algorithm
from repro.verification.spanner_check import (
    VerificationReport,
    verify_ft_spanner,
)

__all__ = ["SpannerSession"]


class SpannerSession:
    """A build -> verify -> query workflow over one frozen substrate.

    Parameters
    ----------
    g:
        The input graph.  Never mutated by the session.
    k:
        Session stretch parameter (guarantee ``2k - 1``).
    f:
        Session fault budget, used by :meth:`build`, :meth:`verify`, and
        the applications.  Building a non-fault-tolerant algorithm in a
        session with ``f > 0`` raises
        :class:`~repro.registry.UnsupportedOption`.
    fault_model:
        ``'vertex'`` (default) or ``'edge'``.
    seed:
        Session seed.  Forwarded to seedable constructions, and to the
        sampled verification / availability sweeps.  Deterministic
        constructions simply never see it (it is session-wide
        configuration, not a per-call option -- pass ``seed=`` to
        :func:`~repro.registry.build_spanner` directly if you want the
        strict per-call validation).
    serving:
        Optional session-wide default
        :class:`~repro.serving.ServingConfig` for :meth:`serve`
        (a per-call ``config=`` overrides it).

    Notes
    -----
    The session config travels to the construction through the
    registry, so capability violations (``f > 0`` with a
    non-fault-tolerant algorithm, an edge-model session building a
    vertex-only construction) raise typed errors instead of being
    dropped.
    """

    def __init__(
        self,
        g: Graph,
        *,
        k: int = 2,
        f: int = 1,
        fault_model: Union[FaultModel, str] = FaultModel.VERTEX,
        seed: Optional[int] = None,
        serving=None,
    ) -> None:
        if k < 1:
            raise ValueError(f"need k >= 1, got {k}")
        if f < 0:
            raise ValueError(f"need f >= 0, got {f}")
        self.g = g
        self.k = k
        self.f = f
        self.fault_model = FaultModel.coerce(fault_model)
        self.seed = seed
        self.serving = serving
        self._result: Optional[SpannerResult] = None
        self._indexer: Optional[NodeIndexer] = None
        self._snap_g: Optional[CSRSnapshot] = None
        self._snap_h: Optional[CSRSnapshot] = None
        self._dual: Optional[DualCSRSnapshot] = None
        # Streaming-update state: the dynamic (overlay) views of G and H
        # once apply_updates() has run, and every server handed out by
        # serve() (their snapshots are immutable, so updates are refused
        # while one is still open -- see SnapshotStale).
        self._dyn_g: Optional[DynamicSnapshot] = None
        self._dyn_h: Optional[DynamicSnapshot] = None
        self._servers: List = []

    # ------------------------------------------------------------- #
    # Construction
    # ------------------------------------------------------------- #

    @property
    def stretch(self) -> int:
        """The session's stretch guarantee, ``2k - 1``."""
        return 2 * self.k - 1

    @property
    def result(self) -> SpannerResult:
        """The current :class:`SpannerResult` (build or adopt first)."""
        return self._require_result()

    @property
    def spanner(self) -> Graph:
        """The current spanner subgraph (build or adopt first)."""
        return self._require_result().spanner

    @property
    def built(self) -> bool:
        """Whether the session holds a spanner yet."""
        return self._result is not None

    def build(self, algorithm: str = "greedy", **options) -> SpannerResult:
        """Build this session's spanner with a registered algorithm.

        Dispatches through :func:`repro.registry.build_spanner` with the
        session configuration; ``**options`` are the algorithm-specific
        extras (``iterations=``, ``workers=``, ...).  Replaces any
        previously built/adopted spanner and invalidates its snapshot
        (the input graph's freeze survives -- it is still the same
        graph).
        """
        spec = get_algorithm(algorithm)
        result = build_spanner(
            self.g,
            algorithm,
            k=self.k,
            f=self.f,
            fault_model=self.fault_model if spec.fault_models else None,
            seed=self.seed if spec.seedable else None,
            **options,
        )
        self._set_result(result)
        return result

    def adopt(
        self,
        spanner: Union[Graph, SpannerResult],
        algorithm: str = "adopted",
    ) -> SpannerResult:
        """Adopt an externally built spanner as this session's subject.

        Accepts a bare :class:`~repro.graph.graph.Graph` (wrapped in a
        :class:`SpannerResult` carrying the session's parameters -- the
        CLI's ``verify`` does this with a file-loaded candidate) or a
        full :class:`SpannerResult` from an earlier build, which must
        cover the session's configuration: same ``k``, fault budget at
        least the session's ``f``, and (when ``f > 0``) the same fault
        model -- checked eagerly so a mismatch fails here, not deep in
        a later verify/oracle call.
        """
        if isinstance(spanner, SpannerResult):
            result = spanner
            if result.k != self.k:
                raise ValueError(
                    f"adopted result was built for k={result.k}; this "
                    f"session expects k={self.k}"
                )
            if result.f < self.f:
                raise ValueError(
                    f"adopted result tolerates f={result.f} faults; this "
                    f"session's budget is f={self.f}"
                )
            if self.f and result.fault_model is not self.fault_model:
                raise ValueError(
                    f"adopted result uses the {result.fault_model.value} "
                    f"fault model; this session uses "
                    f"{self.fault_model.value}"
                )
        else:
            result = SpannerResult(
                spanner=spanner,
                k=self.k,
                f=self.f,
                fault_model=self.fault_model,
                algorithm=algorithm,
            )
        self._set_result(result)
        return result

    # ------------------------------------------------------------- #
    # Consumers sharing the substrate
    # ------------------------------------------------------------- #

    def verify(
        self,
        t: Optional[float] = None,
        *,
        exhaustive_budget: int = 50_000,
        samples: Optional[int] = None,
        mode: str = "sweep",
        witness_pairs: Optional[int] = None,
    ) -> VerificationReport:
        """Verify the session spanner's fault-tolerance guarantee.

        ``t`` defaults to the session guarantee ``2k - 1``; fault budget,
        model, and sampling seed come from the session.
        The sweep re-stamps the session's shared snapshot.

        ``mode="witness"`` verifies via per-pair disjoint-path
        certificates from the Dinic engine instead of the fault-set
        sweep (same verdict, polynomial in f); in sweep mode a
        fault-set space beyond ``exhaustive_budget`` raises
        :class:`~repro.verification.SweepBudgetExceeded` unless
        ``samples=`` opts into adversarial sampling.
        """
        h = self._require_result().spanner
        return verify_ft_spanner(
            self.g,
            h,
            t=self.stretch if t is None else t,
            f=self.f,
            fault_model=self.fault_model.value,
            exhaustive_budget=exhaustive_budget,
            samples=samples,
            seed=self.seed,
            snapshot=self._dual_snapshot(),
            mode=mode,
            witness_pairs=witness_pairs,
        )

    def oracle(self, cache_size: int = 128) -> FaultTolerantDistanceOracle:
        """A distance oracle over the session spanner (shared snapshot).

        Each call returns a fresh oracle (they keep independent LRU
        caches), but every oracle re-stamps the same
        frozen spanner snapshot.
        """
        return FaultTolerantDistanceOracle(
            self.g,
            k=self.k,
            f=self.f,
            fault_model=self.fault_model,
            cache_size=cache_size,
            prebuilt=self._require_result(),
            snapshot=self._spanner_snapshot(),
        )

    def router(self) -> SpannerRouter:
        """A next-hop router over the session spanner (shared snapshot)."""
        return SpannerRouter(
            self.g,
            k=self.k,
            f=self.f,
            fault_model=self.fault_model,
            prebuilt=self._require_result(),
            snapshot=self._spanner_snapshot(),
        )

    def availability(
        self,
        failures: Optional[int] = None,
        *,
        scenarios: int = 50,
        pairs_per_scenario: int = 30,
        guarantee: Optional[float] = None,
        fault_process: str = "independent",
    ) -> AvailabilityReport:
        """Monte-Carlo availability of the session spanner under faults.

        ``failures`` defaults to the session fault budget ``f``;
        ``guarantee`` to the session stretch.  The probes re-stamp the
        session's shared dual snapshot.
        ``fault_process`` selects the scenario generator (see
        :func:`~repro.applications.availability.sample_fault_scenario`).
        """
        h = self._require_result().spanner
        return availability_analysis(
            self.g,
            h,
            failures=self.f if failures is None else failures,
            guarantee=self.stretch if guarantee is None else guarantee,
            scenarios=scenarios,
            pairs_per_scenario=pairs_per_scenario,
            seed=self.seed,
            snapshot=self._dual_snapshot(),
            fault_process=fault_process,
        )

    def degradation(
        self,
        max_failures: int,
        *,
        scenarios: int = 30,
        pairs_per_scenario: int = 20,
        guarantee: Optional[float] = None,
        fault_process: str = "independent",
    ) -> List[Tuple[int, AvailabilityReport]]:
        """Failure-count sweep 0..max_failures over the shared snapshot."""
        h = self._require_result().spanner
        return degradation_profile(
            self.g,
            h,
            guarantee=self.stretch if guarantee is None else guarantee,
            max_failures=max_failures,
            scenarios=scenarios,
            pairs_per_scenario=pairs_per_scenario,
            seed=self.seed,
            snapshot=self._dual_snapshot(),
            fault_process=fault_process,
        )

    def serve(self, *, config=None, chaos=None):
        """A resilient multi-process query server over the session spanner.

        Packs the session's frozen spanner snapshot into a
        ``multiprocessing.shared_memory`` segment and stands up a
        :class:`~repro.serving.SpannerServer` -- a supervised worker
        pool with per-request deadlines, retry-with-backoff on worker
        death, health-checked respawn, and graceful degradation to
        in-process execution (bit-identical answers either way; see
        :mod:`repro.serving`).

        ``config`` (a :class:`~repro.serving.ServingConfig`) overrides
        the session's ``serving=`` default; ``chaos`` injects a
        deterministic fault schedule (:class:`~repro.serving.ChaosPolicy`).
        The caller owns the server: close it (or use it as a context
        manager) to release the workers and the shared segment.
        """
        from repro.serving import SpannerServer

        if self._dyn_h is not None:
            # Post-churn serve: the overlay view has no contiguous CSR
            # arrays to pack into shared memory, so fold pending updates
            # into the base epoch and hand the server that flat freeze
            # (the refreeze-then-serve path documented on SnapshotStale).
            snap = self._dyn_h.refreeze()
        else:
            snap = self._spanner_snapshot()
        server = SpannerServer(
            snap,
            config=config if config is not None else self.serving,
            chaos=chaos,
        )
        # Remember the lease: a live server pins the packed (pre-update)
        # snapshot, so apply_updates() refuses until it is closed.
        self._servers = [s for s in self._servers if not s.closed]
        self._servers.append(server)
        return server

    # ------------------------------------------------------------- #
    # Streaming updates (delta overlay + compaction)
    # ------------------------------------------------------------- #

    def apply_updates(
        self,
        ops,
        *,
        compact_every: Optional[int] = None,
        max_density: Optional[float] = CompactionPolicy.DEFAULT_MAX_DENSITY,
    ) -> int:
        """Apply streaming edge updates to the session's graphs.

        ``ops`` is an iterable of typed ops
        (:class:`~repro.dynamic.log.EdgeInsert` /
        :class:`~repro.dynamic.log.EdgeDelete`) or their tuple forms
        ``("insert", u, v[, w])`` / ``("delete", u, v)``.  Every op is
        applied to the input graph G **and mirrored into the spanner
        H**: inserts (and weight updates) are added to H as well -- a
        churned edge is served at stretch 1 by construction -- and
        deletes remove the edge from H when present, so H stays a
        subgraph of G.  Deletion churn can erode the ``2k - 1``
        guarantee for *other* pairs until the next :meth:`build`;
        :meth:`verify` (which follows the updates) re-certifies the
        current state.

        The graphs keep serving through
        :class:`~repro.dynamic.snapshot.DynamicSnapshot` delta overlays
        -- no refreeze per batch; the overlays fold into a refreeze per
        the compaction policy (``compact_every`` / ``max_density``,
        honored from the first call; see
        :class:`~repro.dynamic.snapshot.CompactionPolicy`).  Oracles,
        routers, and sweeps already handed out by this session follow
        the updates automatically (their caches flush on the overlay's
        version stamp) and stay bit-identical to a from-scratch freeze
        of the mutated graphs.

        Raises :class:`~repro.serving.SnapshotStale` while a
        server from :meth:`serve` is still open (its workers hold the
        pre-update snapshot; close it, apply, then serve again), and
        :class:`~repro.dynamic.log.UpdateConflict` on invalid ops
        (self-loops, negative weights, deleting an absent edge).
        Returns the number of effective updates applied to G.
        """
        h = self._require_result().spanner
        self._servers = [s for s in self._servers if not s.closed]
        if self._servers:
            from repro.parallel.errors import SnapshotStale

            raise SnapshotStale(
                f"{len(self._servers)} server(s) from this session are "
                f"still open and hold the pre-update snapshot; close "
                f"them (server.close() or leave the 'with' block), "
                f"apply the updates, then serve() again"
            )
        op_list = [coerce_op(op) for op in ops]
        dyn_g, dyn_h = self._dynamic_pair(compact_every, max_density)
        applied = 0
        for op in op_list:
            fate = classify_op(self.g, op)
            if fate != "noop":
                applied += 1
            dyn_g.apply([op])
            mirror = self._mirror_op(op, h)
            if mirror is not None:
                dyn_h.apply([mirror])
        self._sync_profiles()
        # The assembled dual holds pre-update state; it rebuilds lazily
        # from the current state.
        self._dual = None
        return applied

    @staticmethod
    def _mirror_op(op, h: Graph):
        """The H-side twin of a G-side op (None when H is untouched)."""
        if isinstance(op, EdgeInsert):
            return op
        if isinstance(op, EdgeDelete) and h.has_edge(op.u, op.v):
            return op
        return None

    def _dynamic_pair(
        self, compact_every: Optional[int], max_density: Optional[float]
    ):
        """The (G, H) dynamic snapshots, created from the session freezes.

        First call adopts the session's frozen snapshots as the initial
        overlay epochs (no extra freeze); later calls reuse the live
        overlays (the compaction knobs of the *first* call stick).
        """
        if self._dyn_g is None:
            policy = CompactionPolicy(compact_every, max_density)
            self._dyn_g = DynamicSnapshot(
                self.g, base=self._graph_snapshot(), policy=policy
            )
            self._dyn_h = DynamicSnapshot(
                self._require_result().spanner,
                base=self._spanner_snapshot(),
                policy=policy,
            )
            # Retarget the session's frozen snapshot *objects* onto the
            # overlays: oracles, routers, and sweeps handed out before
            # this first update hold those objects, and the swap makes
            # their version-stamped refresh logic see churn -- no
            # consumer is left silently serving the pre-update epoch.
            if self._snap_g is not None:
                self._snap_g.csr = self._dyn_g.overlay
            if self._snap_h is not None:
                self._snap_h.csr = self._dyn_h.overlay
        return self._dyn_g, self._dyn_h

    def _sync_profiles(self) -> None:
        """Re-stamp the retargeted frozen snapshots' engine-selection slots.

        A plain :class:`CSRSnapshot` stamps ``profile`` / ``max_weight``
        / ``unit`` once at freeze time; once its ``csr`` is an overlay
        those must track the live weight counters so engine validation
        (and Dial bucket sizing) stays correct after every batch.
        """
        for snap, dyn in (
            (self._snap_g, self._dyn_g),
            (self._snap_h, self._dyn_h),
        ):
            if snap is None or dyn is None:
                continue
            snap.profile = dyn.overlay.profile
            snap.max_weight = dyn.overlay.max_weight
            snap.unit = snap.profile == "unit"

    def churn_stats(self) -> Optional[dict]:
        """Overlay counters after :meth:`apply_updates`.

        ``{"g": ..., "h": ...}`` per-graph stats dicts (ops, effective
        updates, overlay depth, compactions, version, density), or
        ``None`` before any update.
        """
        if self._dyn_g is None or self._dyn_h is None:
            return None
        return {"g": self._dyn_g.stats(), "h": self._dyn_h.stats()}

    # ------------------------------------------------------------- #
    # The snapshot substrate (one freeze per graph per session)
    # ------------------------------------------------------------- #

    def _require_result(self) -> SpannerResult:
        if self._result is None:
            raise RuntimeError(
                "this session has no spanner yet; call build() or adopt()"
            )
        return self._result

    def _set_result(self, result: SpannerResult) -> None:
        self._result = result
        # A new spanner invalidates its snapshot, the dual built on it,
        # and its dynamic overlay; the input graph's freeze (and the
        # shared indexer) stay.
        self._snap_h = None
        self._dual = None
        self._dyn_h = None

    def _shared_indexer(self) -> NodeIndexer:
        """The session's one node<->index bijection, built from G.

        Every snapshot the session freezes shares it, which is what
        lets the dual be assembled from the per-graph snapshots without
        re-freezing (a spanner always spans, so its node set is G's).
        """
        if self._indexer is None:
            self._indexer = NodeIndexer.from_graph(self.g)
        return self._indexer

    def _graph_snapshot(self) -> CSRSnapshot:
        """G frozen at most once per session.

        After :meth:`apply_updates` this is the *dynamic* view of G --
        a live :class:`~repro.graph.snapshot.CSRSnapshot` window onto
        the delta overlay -- so every later consumer follows churn.
        """
        if self._dyn_g is not None:
            return self._dyn_g.view
        if self._snap_g is None:
            self._snap_g = CSRSnapshot(self.g, indexer=self._shared_indexer())
        return self._snap_g

    def _spanner_snapshot(self) -> CSRSnapshot:
        """H frozen at most once per build.

        The dynamic view of H once :meth:`apply_updates` has run,
        exactly like :meth:`_graph_snapshot`.
        """
        if self._dyn_h is not None:
            return self._dyn_h.view
        if self._snap_h is None:
            self._snap_h = CSRSnapshot(
                self._require_result().spanner, indexer=self._shared_indexer()
            )
        return self._snap_h

    def _dual_snapshot(self) -> DualCSRSnapshot:
        """(G, H) assembled from the per-graph freezes."""
        if self._dual is None:
            self._dual = DualCSRSnapshot(
                self.g,
                self._require_result().spanner,
                snap_g=self._graph_snapshot(),
                snap_h=self._spanner_snapshot(),
            )
        return self._dual

    def __repr__(self) -> str:
        built = self._result.algorithm if self._result else "<not built>"
        return (
            f"SpannerSession(n={self.g.num_nodes}, m={self.g.num_edges}, "
            f"k={self.k}, f={self.f}, "
            f"model={self.fault_model.value}, "
            f"spanner={built})"
        )
