"""Monte-Carlo availability analysis of spanners under random failures.

The spanner guarantee is adversarial and capped at f faults; operators
usually also want the *probabilistic* picture: if each node fails
independently with probability q (or exactly j random nodes fail, for
j possibly beyond f), what fraction of surviving pairs stay connected,
and what stretch do they actually experience?

:func:`availability_analysis` samples failure scenarios and reports
connectivity and stretch quantiles for the graph vs the spanner;
:func:`degradation_profile` sweeps the number of simultaneous failures
to expose where the spanner's behavior falls off the guarantee cliff
(beyond f the stretch bound no longer holds -- measuring by how much it
is exceeded in practice is exactly the kind of evidence a deployment
decision needs).

Execution: both graphs are frozen once into a
:class:`~repro.graph.snapshot.DualCSRSnapshot` over one shared index
space; each sampled scenario is an O(|F|) re-stamp of the shared vertex
mask, and each distance probe is an early-exit flat-array search
(hop-bounded BFS on unit inputs, truncated CSR Dijkstra otherwise)
through one preallocated workspace -- the same snapshot-and-sweep
discipline as the verification layer.  On all-unit inputs (or under
``search="batch"`` on any integral weights) each scenario's sampled
pairs are answered by **one** multi-source batch sweep per side instead
of paired per-pair probes.

The dict reference in ``tests/reference/`` drives the same sampling
loop with lazy ``VertexFaultView`` probes; it draws the identical random
scenario/pair sequence and returns bit-identical reports, which
`tests/test_applications_parity.py` and
`benchmarks/bench_applications.py` assert.  Cost is O(samples * pairs)
distance probes after the one-off O(n + m) snapshot.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.graph.graph import Graph, Node
from repro.graph.snapshot import (
    DualCSRSnapshot,
    validate_search,
    weighted_pair_engine,
)
from repro.graph.traversal import (
    BFSWorkspace,
    DijkstraWorkspace,
    MultiSourceWorkspace,
    csr_bounded_bfs_path,
    csr_multi_pair_distances,
    csr_weighted_distance,
)

INFINITY = math.inf

#: Legal fault-scenario generators (``fault_process=`` keyword).
FAULT_PROCESSES = ("independent", "clustered", "cascade")


def sample_fault_scenario(
    nodes: Sequence[Node],
    failures: int,
    rng: random.Random,
    fault_process: str = "independent",
    neighbors=None,
):
    """Draw one fault set of exactly ``failures`` nodes.

    ``fault_process`` selects the failure correlation model:

    * ``"independent"`` -- a uniform draw without replacement (exactly
      the classic ``set(rng.sample(nodes, failures))``, so existing
      seeded availability streams are unchanged);
    * ``"clustered"`` -- neighbor contagion: a seeded node fails
      uniformly at random, then each subsequent failure is drawn
      uniformly from the healthy *boundary* of the failed set (nodes
      adjacent to a failure), jumping to a fresh uniform seed whenever
      the boundary is empty (the failed component is isolated).  This
      models rack/partition-style correlated outages, the regime where
      an f-fault guarantee is spent on one neighborhood instead of
      being spread thin.
    * ``"cascade"`` -- load-redistribution chain failures: every node
      starts carrying unit load; when a node fails, its load splits
      equally among its healthy neighbors (shed entirely if it has
      none), and each failure is drawn from the healthy nodes with
      probability proportional to current load -- one ``rng.random()``
      draw per failure, walked over the ``repr``-sorted healthy list.
      With uniform loads (the first draw) this is a uniform pick;
      afterwards overloaded neighbors of past failures are the likely
      next casualties, modeling overload cascades where failures chase
      the redistributed work.

    ``neighbors`` is a callable ``node -> iterable of neighbors``
    (required for ``"clustered"`` and ``"cascade"``).  Boundaries and
    heir sets are recomputed from the fault *set* each step and sorted
    by ``repr``, so the draw sequence depends only on the neighbor
    sets -- never on adjacency iteration order -- making dict-vs-CSR
    parity structural.

    ``nodes`` must be deterministically ordered (the availability
    entry points pass ``sorted(g.nodes(), key=repr)``).
    """
    if failures < 0:
        raise ValueError(f"failures must be >= 0, got {failures}")
    if failures > len(nodes):
        raise ValueError(
            f"cannot fail {failures} of {len(nodes)} node(s)"
        )
    if fault_process == "independent":
        return set(rng.sample(nodes, failures))
    if fault_process not in FAULT_PROCESSES:
        raise ValueError(
            f"unknown fault_process {fault_process!r}; expected one of "
            f"{FAULT_PROCESSES}"
        )
    if neighbors is None:
        raise ValueError(
            f"fault_process={fault_process!r} needs a neighbors callable"
        )
    if fault_process == "cascade":
        loads = {x: 1.0 for x in nodes}
        faults: set = set()
        while len(faults) < failures:
            healthy = [x for x in nodes if x not in faults]
            total = sum(loads[x] for x in healthy)
            r = rng.random() * total
            acc = 0.0
            pick = healthy[-1]  # guard against float accumulation slop
            for x in healthy:
                acc += loads[x]
                if r < acc:
                    pick = x
                    break
            faults.add(pick)
            shed = loads.pop(pick)
            heirs = sorted(
                (v for v in neighbors(pick) if v not in faults), key=repr
            )
            if heirs:
                share = shed / len(heirs)
                for v in heirs:
                    loads[v] += share
        return faults
    faults = set()
    while len(faults) < failures:
        boundary = sorted(
            {
                v
                for u in faults
                for v in neighbors(u)
                if v not in faults
            },
            key=repr,
        )
        if boundary:
            pick = boundary[rng.randrange(len(boundary))]
        else:
            healthy = [x for x in nodes if x not in faults]
            pick = healthy[rng.randrange(len(healthy))]
        faults.add(pick)
    return faults


@dataclass
class AvailabilityReport:
    """Aggregated outcome of one failure-scenario ensemble.

    Attributes
    ----------
    scenarios:
        Number of failure scenarios sampled.
    pairs_checked:
        Total (scenario, pair) samples measured.
    connectivity:
        Fraction of sampled surviving pairs that remained connected in
        the *spanner* (they were connected in the graph).
    mean_stretch / max_stretch / p95_stretch:
        Stretch statistics over sampled pairs connected in both.
    guarantee_violations:
        Sampled pairs whose stretch exceeded the design guarantee
        (possible and expected when failures exceed f).
    """

    scenarios: int
    pairs_checked: int
    connectivity: float
    mean_stretch: float
    max_stretch: float
    p95_stretch: float
    guarantee_violations: int

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.scenarios} scenarios, {self.pairs_checked} pairs: "
            f"connectivity {100 * self.connectivity:.1f}%, "
            f"stretch mean {self.mean_stretch:.2f} / "
            f"p95 {self.p95_stretch:.2f} / max {self.max_stretch:.2f}, "
            f"{self.guarantee_violations} guarantee violations"
        )


class _AvailabilityProbes:
    """s-t distance probes for the sampling loop.

    Stamps one shared vertex mask per scenario and probes both graphs
    through a single preallocated workspace.  The sampling loop only
    calls :meth:`set_scenario`, :meth:`prefetch`, :meth:`graph_distance`
    and :meth:`spanner_distance`, so any object answering those four
    (the dict reference's fault-view probes, say) can drive it.
    """

    __slots__ = (
        "snap", "ws", "unit", "eng_g", "eng_h", "mw_g", "mw_h", "index",
        "can_batch", "batch_eng_g", "batch_eng_h", "mws", "_pg", "_ph",
    )

    def __init__(
        self,
        g: Graph,
        h: Graph,
        snapshot: Optional[DualCSRSnapshot] = None,
        search: Optional[str] = None,
    ) -> None:
        if snapshot is None:
            snapshot = DualCSRSnapshot(g, h)
        elif snapshot.g is not g or snapshot.h is not h:
            raise ValueError(
                "snapshot does not freeze this (graph, spanner) pair"
            )
        self.snap = snapshot
        s = validate_search(
            search, snapshot.snap_g.profile, snapshot.snap_h.profile
        )
        # The hop-BFS fast path serves auto-resolved unit inputs; an
        # explicit engine choice replaces it so every engine cell of
        # the parity matrix genuinely runs its engine.
        self.unit = (
            s == "auto" and snapshot.snap_g.unit and snapshot.snap_h.unit
        )
        self.eng_g = weighted_pair_engine(s, snapshot.snap_g.profile)
        self.eng_h = weighted_pair_engine(s, snapshot.snap_h.profile)
        self.mw_g = snapshot.snap_g.max_weight
        self.mw_h = snapshot.snap_h.max_weight
        self.index = snapshot.indexer.index
        # Batch plane: an explicit search="batch" submits each
        # scenario's probes as one multi-source sweep per side (BFS
        # planes on unit sides, the shared Dial sweep on integral ones
        # -- validate_search has already rejected float inputs for
        # "batch").  Auto-resolved all-unit inputs batch too: the
        # multi-BFS reads the same hop counts the bounded per-pair BFS
        # would.  Everything else keeps the early-exit per-pair probes.
        if s == "batch":
            self.can_batch = True
            self.batch_eng_g = "bfs" if snapshot.snap_g.unit else "bucket"
            self.batch_eng_h = "bfs" if snapshot.snap_h.unit else "bucket"
        else:
            self.can_batch = self.unit
            self.batch_eng_g = self.batch_eng_h = "bfs"
        n = len(snapshot.indexer)
        self.ws = BFSWorkspace(n) if self.unit else DijkstraWorkspace(n)
        self.mws = MultiSourceWorkspace() if self.can_batch else None
        self._pg: Dict[Tuple[Node, Node], float] = {}
        self._ph: Dict[Tuple[Node, Node], float] = {}

    def set_scenario(self, faults: set) -> None:
        """Move to the next sampled fault set (an O(|F|) re-stamp)."""
        self.snap.set_vertex_faults(faults)

    def prefetch(self, pairs: Sequence[Tuple[Node, Node]]) -> None:
        """Answer a scenario's pair probes in one batched pass per side.

        No-op unless the batch plane applies; otherwise the graph
        side sweeps every sampled pair grouped by source, and the
        spanner side sweeps only the pairs the sampling loop will
        actually re-ask (finite, nonzero graph distance) -- exactly
        mirroring the lazy per-pair loop, so reports stay identical.
        """
        self._pg.clear()
        self._ph.clear()
        if not self.can_batch or not pairs:
            return
        index = self.index
        ipairs = [(index(u), index(v)) for u, v in pairs]
        dg = csr_multi_pair_distances(
            self.snap.csr_g, ipairs, workspace=self.mws,
            vertex_mask=self.snap.vmask, engine=self.batch_eng_g,
            max_weight=self.mw_g,
        )
        pg = self._pg
        for pair, d in zip(pairs, dg):
            pg[pair] = d
        need = [
            (pair, ip)
            for pair, ip in zip(pairs, ipairs)
            if not math.isinf(pg[pair]) and pg[pair] != 0
        ]
        if not need:
            return
        dh = csr_multi_pair_distances(
            self.snap.csr_h, [ip for _, ip in need], workspace=self.mws,
            vertex_mask=self.snap.vmask, engine=self.batch_eng_h,
            max_weight=self.mw_h,
        )
        ph = self._ph
        for (pair, _), d in zip(need, dh):
            ph[pair] = d

    def graph_distance(self, u: Node, v: Node) -> float:
        hit = self._pg.get((u, v))
        if hit is not None:
            return hit
        return self._probe(self.snap.csr_g, u, v, self.eng_g, self.mw_g)

    def spanner_distance(self, u: Node, v: Node) -> float:
        hit = self._ph.get((u, v))
        if hit is not None:
            return hit
        return self._probe(self.snap.csr_h, u, v, self.eng_h, self.mw_h)

    def _probe(self, csr, u: Node, v: Node, engine: str, mw: int) -> float:
        index = self.index
        iu, iv = index(u), index(v)
        if self.unit:
            path = csr_bounded_bfs_path(
                csr, iu, iv, csr.num_nodes,
                workspace=self.ws, vertex_mask=self.snap.vmask,
            )
            return INFINITY if path is None else float(len(path) - 1)
        return csr_weighted_distance(
            csr, iu, iv, workspace=self.ws, vertex_mask=self.snap.vmask,
            search=engine, max_weight=mw,
        )


def availability_analysis(
    g: Graph,
    spanner: Graph,
    failures: int,
    guarantee: float,
    scenarios: int = 50,
    pairs_per_scenario: int = 30,
    seed: Optional[int] = None,
    snapshot: Optional[DualCSRSnapshot] = None,
    search: Optional[str] = None,
    fault_process: str = "independent",
) -> AvailabilityReport:
    """Sample ``scenarios`` random sets of exactly ``failures`` nodes.

    For each scenario, sample surviving pairs that are connected in
    ``g \\ F`` and measure their stretch in ``spanner \\ F``.
    ``guarantee`` is the design stretch (2k-1) used to count violations.
    ``snapshot`` may supply an already-frozen
    :class:`~repro.graph.snapshot.DualCSRSnapshot` of (g, spanner) --
    e.g. from :func:`degradation_profile` or a
    :class:`repro.session.SpannerSession` -- so the probes re-stamp it
    instead of freezing their own, and ``search`` picks the weighted
    probe engine (identical report on every legal engine).
    ``fault_process`` selects the scenario generator (see
    :func:`sample_fault_scenario`); the default ``"independent"``
    reproduces the historical uniform draw bit-for-bit.
    """
    return _sample_availability(
        g, failures, guarantee, scenarios, pairs_per_scenario, seed,
        fault_process,
        lambda: _AvailabilityProbes(
            g, spanner, snapshot=snapshot, search=search
        ),
    )


def _sample_availability(
    g: Graph,
    failures: int,
    guarantee: float,
    scenarios: int,
    pairs_per_scenario: int,
    seed: Optional[int],
    fault_process: str,
    make_probes: Callable[[], "_AvailabilityProbes"],
) -> AvailabilityReport:
    """The sampling loop behind :func:`availability_analysis`.

    ``make_probes`` builds the distance-probe object once the arguments
    have been validated; the loop only calls its ``set_scenario``,
    ``prefetch``, ``graph_distance`` and ``spanner_distance`` methods,
    and consumes randomness only for the scenario and pair draws -- so
    any probe object answering the same distances yields the identical
    report.
    """
    if failures < 0:
        raise ValueError(f"failures must be >= 0, got {failures}")
    if guarantee < 1:
        raise ValueError(f"guarantee must be >= 1, got {guarantee}")
    if fault_process not in FAULT_PROCESSES:
        raise ValueError(
            f"unknown fault_process {fault_process!r}; expected one of "
            f"{FAULT_PROCESSES}"
        )
    rng = random.Random(seed)
    nodes = sorted(g.nodes(), key=repr)
    if len(nodes) < failures + 2:
        raise ValueError("graph too small for that many failures")
    probes = make_probes()
    stretches: List[float] = []
    connected = 0
    checked = 0
    violations = 0
    for _ in range(scenarios):
        # The scenario draw runs on the dict graph regardless of the
        # probes, so every probe object sees the identical fault
        # stream (for "independent" this is the historical
        # ``set(rng.sample(nodes, failures))`` draw, unchanged).
        faults = sample_fault_scenario(
            nodes, failures, rng, fault_process, neighbors=g.neighbors
        )
        probes.set_scenario(faults)
        survivors = [x for x in nodes if x not in faults]
        # Draw the whole scenario's pairs up front (the probes consume
        # no randomness, so the stream is unchanged), then let the
        # batch plane answer them in one sweep per side.
        pair_list = [
            tuple(rng.sample(survivors, 2))
            for _ in range(pairs_per_scenario)
        ]
        probes.prefetch(pair_list)
        for u, v in pair_list:
            dg = probes.graph_distance(u, v)
            if math.isinf(dg) or dg == 0:
                continue  # pair not connected in the graph: not counted
            checked += 1
            dh = probes.spanner_distance(u, v)
            if math.isinf(dh):
                continue  # connectivity loss; counted via `connected`
            connected += 1
            s = dh / dg
            stretches.append(s)
            if s > guarantee + 1e-9:
                violations += 1
    stretches.sort()
    return AvailabilityReport(
        scenarios=scenarios,
        pairs_checked=checked,
        connectivity=connected / checked if checked else 1.0,
        mean_stretch=(sum(stretches) / len(stretches)) if stretches else 1.0,
        max_stretch=stretches[-1] if stretches else 1.0,
        p95_stretch=(
            stretches[min(len(stretches) - 1, int(0.95 * len(stretches)))]
            if stretches
            else 1.0
        ),
        guarantee_violations=violations,
    )


def degradation_profile(
    g: Graph,
    spanner: Graph,
    guarantee: float,
    max_failures: int,
    scenarios: int = 30,
    pairs_per_scenario: int = 20,
    seed: Optional[int] = None,
    snapshot: Optional[DualCSRSnapshot] = None,
    search: Optional[str] = None,
    fault_process: str = "independent",
) -> List[Tuple[int, AvailabilityReport]]:
    """Sweep simultaneous failures 0..max_failures.

    Returns one report per failure count -- the spanner's degradation
    curve.  Within the design budget f the guarantee holds by theorem;
    beyond it this shows the empirical grace.

    The whole sweep shares **one**
    :class:`~repro.graph.snapshot.DualCSRSnapshot` (supplied via
    ``snapshot`` or frozen here once), so each per-failure-count
    :func:`availability_analysis` call is pure mask re-stamping -- the
    profile performs one freeze per graph no matter how long the sweep.
    ``fault_process`` selects the scenario generator for every failure
    count (see :func:`sample_fault_scenario`).
    """
    if fault_process not in FAULT_PROCESSES:
        raise ValueError(
            f"unknown fault_process {fault_process!r}; expected one of "
            f"{FAULT_PROCESSES}"
        )
    if max_failures < 0:
        raise ValueError(f"max_failures must be >= 0, got {max_failures}")
    if snapshot is None:
        snapshot = DualCSRSnapshot(g, spanner)
    out: List[Tuple[int, AvailabilityReport]] = []
    for j in range(max_failures + 1):
        report = availability_analysis(
            g,
            spanner,
            failures=j,
            guarantee=guarantee,
            scenarios=scenarios,
            pairs_per_scenario=pairs_per_scenario,
            seed=None if seed is None else seed + j,
            snapshot=snapshot,
            search=search,
            fault_process=fault_process,
        )
        out.append((j, report))
    return out
