"""Dynamic snapshots: frozen-CSR query performance under streaming churn.

:class:`DynamicSnapshot` is the object-level subsystem tying the pieces
together: the source dict :class:`~repro.graph.graph.Graph` (which
stays the semantic source of truth and is mutated op by op), the
copy-on-write :class:`~repro.dynamic.overlay.DeltaOverlay` mirroring
those mutations over the frozen CSR base, the append-only
:class:`~repro.dynamic.log.UpdateLog`, and a :class:`CompactionPolicy`
deciding when the overlay folds into a fresh freeze.

Queries run through the standard engine stack unchanged: the snapshot
exposes a :class:`~repro.graph.snapshot.CSRSnapshot`-compatible *view*
(:attr:`DynamicSnapshot.view`) whose ``csr`` is the overlay and whose
weight profile re-resolves per query from the overlay's live weights,
so :class:`~repro.graph.snapshot.ScenarioSweep`, the oracle, the
router, and the availability sampler all accept it where they accept a
frozen snapshot -- and their generation-stamped masks / workspaces
follow churn through the overlay's monotonic ``version`` counter.

The correctness bar (enforced by ``tests/test_dynamic.py`` and per run
by ``benchmarks/bench_dynamic.py``): every query against a
:class:`DynamicSnapshot` is **bit-identical** to the same query against
a from-scratch freeze of the current graph state, across engines
(heap/bucket/bidir and the batch plane), fault models, and weight profiles.

Compaction (:meth:`DynamicSnapshot.compact`) refreezes the mutated
graph into a new CSR base and rebases the overlay *in place*, so every
long-lived holder of the overlay object stays valid; the policy fires
automatically after ``compact_every`` effective updates and/or when the
overlay's churn density crosses ``max_density`` (the auto mode).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Union

from repro.dynamic.log import UpdateLog, UpdateOp, classify_op, coerce_op
from repro.dynamic.overlay import DeltaOverlay
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.graph.index import NodeIndexer
from repro.graph.snapshot import CSRSnapshot, ScenarioSweep

__all__ = ["CompactionPolicy", "DynamicSnapshot"]


class _OverlayView(CSRSnapshot):
    """A :class:`CSRSnapshot`-shaped window onto a live overlay.

    Subclasses the frozen snapshot so every ``isinstance`` gate and
    identity check in the sweep/oracle/router layers passes, but
    deliberately skips the parent constructor (nothing is frozen here
    and :func:`~repro.graph.snapshot.csr_freeze_count` must not move):
    ``csr`` is the overlay itself, and the engine-selection attributes
    (``profile`` / ``max_weight`` / ``unit``) re-resolve from the
    overlay's live weight counters instead of being stamped once.
    """

    __slots__ = ()

    def __init__(self, g: Graph, overlay: DeltaOverlay) -> None:
        self.g = g
        self.csr = overlay
        self.indexer = overlay.indexer

    @property
    def profile(self) -> str:
        return self.csr.profile

    @property
    def max_weight(self) -> int:
        return self.csr.max_weight

    @property
    def unit(self) -> bool:
        return self.csr.profile == "unit"


class CompactionPolicy:
    """When should a delta overlay fold into a full refreeze?

    Two triggers, either of which fires (checked after every effective
    update):

    * ``compact_every=K`` -- a fixed update budget: compact once K
      effective updates have accumulated since the last refreeze.
      ``None`` (the default) disables the count trigger.
    * ``max_density=r`` -- the auto mode: compact when overlay churn
      (inserts + deletes since the last refreeze) exceeds fraction ``r``
      of the base epoch's edge count, so refreeze cost is amortized
      against a proportional amount of drift.  Defaults to
      :data:`DEFAULT_MAX_DENSITY`; ``None`` disables it.

    With both triggers ``None`` the overlay never auto-compacts
    (callers may still :meth:`DynamicSnapshot.compact` manually).
    """

    #: Auto-mode churn fraction: refreeze once the overlay has drifted
    #: by a quarter of the base epoch's edges.  Refreeze is O(n + m) and
    #: overlay queries pay a per-touched-row cost, so a constant
    #: fraction keeps the amortized update cost O(1) freezes per
    #: O(m) updates while bounding how far row storage can drift.
    DEFAULT_MAX_DENSITY = 0.25

    __slots__ = ("compact_every", "max_density")

    def __init__(
        self,
        compact_every: Optional[int] = None,
        max_density: Optional[float] = DEFAULT_MAX_DENSITY,
    ) -> None:
        if compact_every is not None and compact_every < 1:
            raise ValueError(
                f"compact_every must be >= 1, got {compact_every}"
            )
        if max_density is not None and max_density <= 0:
            raise ValueError(
                f"max_density must be > 0, got {max_density}"
            )
        self.compact_every = compact_every
        self.max_density = max_density

    def due(self, depth: int, overlay: DeltaOverlay) -> bool:
        """Whether the overlay should compact now.

        ``depth`` is the count of effective updates since the last
        refreeze (tracked by the owning :class:`DynamicSnapshot`).
        """
        if self.compact_every is not None and depth >= self.compact_every:
            return True
        if (
            self.max_density is not None
            and overlay.density() > self.max_density
        ):
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"CompactionPolicy(compact_every={self.compact_every}, "
            f"max_density={self.max_density})"
        )


class DynamicSnapshot:
    """Streaming updates over a frozen CSR base, served without refreezes.

    Parameters
    ----------
    g:
        The live dict graph.  It is mutated by :meth:`apply` (dict
        semantics are the reference; the overlay mirrors them), so pass
        the graph the rest of the workflow holds, not a copy.
    base:
        An existing freeze of ``g`` to adopt as the first epoch -- a
        :class:`~repro.graph.snapshot.CSRSnapshot` or a raw
        :class:`~repro.graph.csr.CSRGraph` -- so a session that already
        froze its graph pays no second freeze.  ``None`` freezes one.
    indexer:
        Node numbering to share when ``base`` is ``None`` (e.g. a
        session's G/H shared index space).
    compact_every / max_density:
        Shorthand for ``policy=CompactionPolicy(...)``.

    Examples
    --------
    >>> from repro.graph import generators
    >>> g = generators.gnp_random_graph(30, 0.2, seed=7)
    >>> dyn = DynamicSnapshot(g, compact_every=50)
    >>> dyn.apply([("insert", 0, 9, 1.0), ("delete", 0, 9)])
    2
    >>> sweep = dyn.sweep()
    >>> d = sweep.distances_from(0)  # identical to a fresh freeze of g
    """

    def __init__(
        self,
        g: Graph,
        *,
        base: Optional[Union[CSRSnapshot, CSRGraph]] = None,
        indexer: Optional[NodeIndexer] = None,
        compact_every: Optional[int] = None,
        max_density: Optional[float] = CompactionPolicy.DEFAULT_MAX_DENSITY,
        policy: Optional[CompactionPolicy] = None,
    ) -> None:
        self.g = g
        if policy is None:
            policy = CompactionPolicy(compact_every, max_density)
        self.policy = policy
        if isinstance(base, CSRSnapshot):
            if base.g is not g:
                raise ValueError("base snapshot does not freeze g")
            base = base.csr
        if base is None:
            base = CSRGraph.from_graph(g, indexer=indexer)
        elif base.indexer is None:
            raise ValueError("base CSRGraph carries no NodeIndexer")
        elif base.num_edges != g.num_edges or base.num_nodes < g.num_nodes:
            raise ValueError(
                "base freeze is stale: it does not match g's current "
                "node/edge counts"
            )
        self.indexer = base.indexer
        self.overlay = DeltaOverlay(base)
        self.view: CSRSnapshot = _OverlayView(g, self.overlay)
        self.log = UpdateLog()
        self.compactions = 0
        self._depth = 0
        self._sweep: Optional[ScenarioSweep] = None

    # ------------------------------------------------------------- #
    # Updates
    # ------------------------------------------------------------- #

    def apply(self, ops: Iterable) -> int:
        """Apply a batch of update ops; returns the effective count.

        Each op (an :class:`~repro.dynamic.log.EdgeInsert` /
        :class:`~repro.dynamic.log.EdgeDelete` or its tuple form) is
        classified against the *current* state, applied to the dict
        graph and the overlay in lockstep, and logged; idempotent
        re-inserts are recorded as no-ops.  A conflicting op raises
        :class:`~repro.dynamic.log.UpdateConflict` before mutating, so
        the prefix up to the bad op is applied and the graph is never
        half-mutated within one op.  Compaction triggers are checked
        after every effective update (so ``compact_every=K`` fires
        exactly at the K-th, even mid-batch).
        """
        applied = 0
        for raw in ops:
            op = coerce_op(raw)
            fate = classify_op(self.g, op)
            self._mutate(op, fate)
            self.log.append(op, fate)
            if fate != "noop":
                applied += 1
                self._depth += 1
                if self.policy.due(self._depth, self.overlay):
                    self.compact()
        return applied

    def _mutate(self, op: UpdateOp, fate: str) -> None:
        if fate == "noop":
            return
        g, indexer, overlay = self.g, self.indexer, self.overlay
        if fate == "insert":
            # Mirror Graph.add_edge's node-creation order (u then v) so
            # the shared indexer keeps assigning indices in the exact
            # order a from-scratch freeze of the mutated graph would.
            g.add_edge(op.u, op.v, op.weight)
            indexer.add(op.u)
            indexer.add(op.v)
            overlay.ensure_nodes(len(indexer))
            overlay.insert(indexer.index(op.u), indexer.index(op.v), op.weight)
        elif fate == "update":
            g.add_edge(op.u, op.v, op.weight)
            overlay.update_weight(
                indexer.index(op.u), indexer.index(op.v), op.weight
            )
        else:  # delete
            g.remove_edge(op.u, op.v)
            overlay.delete(indexer.index(op.u), indexer.index(op.v))

    def compact(self) -> None:
        """Fold the overlay into a fresh freeze of the current graph.

        O(n + m): one :meth:`CSRGraph.from_graph` pass over the mutated
        graph becomes the new base epoch, and the overlay rebases onto
        it in place (holders keep their references; the version stamp
        tells their caches to refresh).
        """
        base = CSRGraph.from_graph(self.g, indexer=self.indexer)
        self.overlay.rebase(base)
        self.compactions += 1
        self._depth = 0

    def refreeze(self) -> CSRSnapshot:
        """Compact if needed and return a *flat* snapshot of the base.

        The overlay view serves every in-process query path, but
        consumers that need the contiguous CSR arrays -- e.g. the
        serving layer's ``pack_snapshot_into``, which copies ``indptr``
        / ``indices`` / ``nbr_edge_ids`` into shared memory -- cannot
        read an overlay.  This folds any pending churn into the base
        epoch (a real compaction, counted as such) and wraps the base
        without a second freeze.
        """
        if self._depth:
            self.compact()
        return CSRSnapshot.from_csr(self.overlay.base)

    # ------------------------------------------------------------- #
    # Queries
    # ------------------------------------------------------------- #

    def snapshot(self) -> CSRSnapshot:
        """The live snapshot view (stable object across updates)."""
        return self.view

    def sweep(self) -> ScenarioSweep:
        """A churn-following :class:`ScenarioSweep` over the view.

        One sweep is cached; its masks and workspaces refresh
        automatically when the overlay's version moves, and every query
        picks its engine from the live weight profile.
        """
        if self._sweep is None:
            self._sweep = ScenarioSweep(self.view)
        return self._sweep

    # ------------------------------------------------------------- #
    # Introspection
    # ------------------------------------------------------------- #

    @property
    def version(self) -> int:
        """Monotonic mutation stamp (bumps per effective op and rebase)."""
        return self.overlay.version

    @property
    def overlay_depth(self) -> int:
        """Effective updates accumulated since the last compaction."""
        return self._depth

    def stats(self) -> Dict[str, float]:
        """Counters for benchmarks and the churn CLI."""
        return {
            "ops": len(self.log),
            "effective": self.log.effective,
            "overlay_depth": self._depth,
            "compactions": self.compactions,
            "version": self.overlay.version,
            "density": self.overlay.density(),
            "live_edges": self.overlay.live_edges,
        }

    def __repr__(self) -> str:
        return (
            f"DynamicSnapshot(n={self.overlay.num_nodes}, "
            f"live={self.overlay.live_edges}, depth={self._depth}, "
            f"compactions={self.compactions})"
        )
