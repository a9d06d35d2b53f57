"""Fault-tolerant spanner verification.

``verify_ft_spanner`` decides (or samples) whether H is an f-FT
t-spanner of G.  For each fault set F it checks the Lemma 3 condition:
for every surviving edge {u, v} of G, ``d_{H\\F}(u, v) <= t * w(u, v)``
whenever ``d_{G\\F}(u, v) = w(u, v)``.  That per-fault-set check is
equivalent to the full definition but needs one Dijkstra per edge rather
than all-pairs distances.

Fault-set enumeration is exhaustive when ``C(n, f)`` (or ``C(m, f)``) is
within ``exhaustive_budget``; beyond the budget the caller must choose a
fallback explicitly (:class:`SweepBudgetExceeded` otherwise): pass
``samples=`` for a randomized adversary that draws fault sets biased
toward likely violations --

* uniform random sets (baseline),
* sets concentrated in the neighborhood of a random edge's endpoints
  (local separators are how spanner paths actually die),
* sets built by the LBC path-removal process itself (the strongest
  structured attack available in the library)

-- or ``mode="witness"`` for the polynomial certificate route.

Witness mode
------------
``mode="witness"`` replaces fault-set enumeration with per-pair
disjoint-path certificates (Menger's theorem): for each edge {u, v} of
G, f+1 pairwise disjoint u-v paths in H -- internally vertex-disjoint
under the vertex model, edge-disjoint under the edge model -- each of
weighted length at most ``t * w(u, v)``, certify that *no* fault set of
size <= f can break the pair: at most f of the paths can be hit, and a
surviving one bounds ``d_{H\\F}(u, v)``.  The certificates come from
the Dinic engine (:mod:`repro.flow.dinitz`) run on the ellipse-
restricted spanner, polynomial per pair with no ``C(n, f)`` term
anywhere.  An H-edge {u, v} within the length bound is a complete
witness by itself: fault sets that break it also break the pair's
relevance in G.

Length-bounded Menger is not exact (a pair can survive every fault set
without owning f+1 disjoint *short* paths), so a pair with no witness
falls back to the exact per-pair fault sweep -- exhaustive within
``exhaustive_budget``, else adversarially sampled.  The verdict
therefore always agrees with ``mode="sweep"``; witness mode is the
same decision computed with polynomial effort on every pair the flow
engine can certify.

Execution
---------
The sweep is the library's most repetitive workload -- one distance
probe per surviving edge per fault set, ``O(|F-sets| * m)`` probes in
total.  :class:`_CSRSweep` snapshots G and H into
:class:`~repro.graph.csr.CSRGraph` form *once per verification call*
(sharing one :class:`~repro.graph.index.NodeIndexer` so node indices
agree), and reuses one workspace plus generation-stamped
:class:`~repro.graph.csr.FaultMask` buffers across every fault set:
moving to the next fault set is an O(|F|) mask re-stamp instead of
re-materializing ``G \\ F`` / ``H \\ F`` views.  Unit-weighted inputs
probe with hop-bounded CSR BFS, weighted inputs with truncated CSR
Dijkstra.

The dict reference in ``tests/reference/`` (one fresh pair of lazy
fault views per fault set) checks the same fault sets in the same order
against the same edges, and the parity suite asserts identical reports,
counterexample included.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union

from repro.flow.dinitz import DisjointPathNetwork, FlowWorkspace
from repro.graph.csr import FaultMask
from repro.graph.graph import Edge, Graph, Node, edge_key
from repro.graph.traversal import (
    BFSWorkspace,
    DijkstraWorkspace,
    csr_bfs_distances,
    csr_bounded_bfs_path,
    csr_dijkstra,
    csr_weighted_distance,
)
from repro.lbc.approx import lbc_edge, lbc_vertex
from repro.graph.snapshot import (
    DualCSRSnapshot,
    sssp_engine,
    weighted_pair_engine,
)

INFINITY = math.inf

#: The verification modes ``verify_ft_spanner(mode=...)`` accepts, with
#: their cost/soundness contracts -- the capability surface the CLI
#: lists next to the algorithm registry.
VERIFY_MODES = {
    "sweep": "enumerate fault sets: exhaustive within exhaustive_budget "
             "(a proof), else adversarial sampling via samples= "
             "(evidence); cost grows as C(n, f)",
    "witness": "per-pair (f+1)-disjoint-short-path certificates from "
               "the Dinic max-flow engine (polynomial in n, m; no "
               "C(n, f) term); pairs without a witness fall back to "
               "the exact per-pair sweep -- verdict identical to "
               "mode='sweep'",
}


class SweepBudgetExceeded(ValueError):
    """The fault-set space exceeds the sweep budget and no fallback was
    requested.

    Raised by :func:`verify_ft_spanner` in ``mode="sweep"`` when the
    number of fault sets is larger than ``exhaustive_budget`` and the
    caller passed no ``samples=``: silently downgrading a proof to
    sampled evidence buries the distinction, so the caller must pick
    the fallback -- ``samples=`` for the adversarial sampler,
    ``mode="witness"`` for polynomial certificates, or a bigger
    ``exhaustive_budget``.
    """

    def __init__(
        self,
        total: int,
        budget: int,
        *,
        fault_sets_checked: int = 0,
        pairs_checked: int = 0,
        pairs_witnessed: int = 0,
    ) -> None:
        super().__init__(
            f"{total} fault sets exceed exhaustive_budget={budget} "
            f"(progress so far: {fault_sets_checked} fault set(s), "
            f"{pairs_checked} pair(s) checked, {pairs_witnessed} "
            f"witnessed); pass samples= to sample adversarially, "
            f"mode='witness' for disjoint-path certificates, or raise "
            f"the budget"
        )
        self.total = total
        self.budget = budget
        #: Partial progress at the moment the budget tripped.  Sweep
        #: mode fails fast before enumerating (all zeros); callers that
        #: interleave their own checking can re-raise with their counts.
        self.fault_sets_checked = fault_sets_checked
        self.pairs_checked = pairs_checked
        self.pairs_witnessed = pairs_witnessed


@dataclass(frozen=True)
class Counterexample:
    """A witness that H is *not* an f-FT t-spanner of G."""

    faults: FrozenSet
    pair: Tuple[Node, Node]
    graph_distance: float
    spanner_distance: float

    def __str__(self) -> str:
        u, v = self.pair
        return (
            f"pair ({u!r}, {v!r}) under faults {sorted(self.faults, key=repr)}: "
            f"d_G\\F = {self.graph_distance}, d_H\\F = {self.spanner_distance}"
        )


@dataclass
class VerificationReport:
    """Outcome of a fault-tolerant spanner verification.

    ``ok`` is the verdict over everything that was checked;
    ``exhaustive`` records whether the verdict is a proof -- the fault
    sets fully enumerated (sweep mode), or every pair either
    certificate-witnessed or exhaustively fallback-swept (witness mode)
    -- as opposed to sampled evidence.

    ``mode`` echoes the verification mode; in witness mode
    ``pairs_checked`` counts the pairs examined, ``pairs_witnessed``
    how many of them were settled by a disjoint-path certificate (the
    rest went through the per-pair fallback sweep, whose fault sets are
    what ``fault_sets_checked`` counts).
    """

    ok: bool
    exhaustive: bool
    fault_sets_checked: int
    counterexample: Optional[Counterexample] = None
    mode: str = "sweep"
    pairs_checked: int = 0
    pairs_witnessed: int = 0

    def __bool__(self) -> bool:
        return self.ok


def is_spanner(
    g: Graph,
    h: Graph,
    t: float,
) -> bool:
    """Fault-free check: is H a t-spanner of G?

    Uses the Lemma 3 edge-sufficiency: it is enough that every edge of G
    has ``d_H(u, v) <= t * w(u, v)``.
    """
    unit = g.is_unit_weighted()
    return _CSRSweep(g, h, t, "vertex", unit).check(None) is None


def verify_ft_spanner(
    g: Graph,
    h: Graph,
    t: float,
    f: int,
    fault_model: str = "vertex",
    exhaustive_budget: int = 50_000,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
    snapshot: Optional[DualCSRSnapshot] = None,
    mode: str = "sweep",
    witness_pairs: Optional[int] = None,
) -> VerificationReport:
    """Verify that H is an f-fault-tolerant t-spanner of G.

    ``mode="sweep"`` (default) enumerates fault sets: exhaustive when
    the number of fault sets of size up to ``f`` is at most
    ``exhaustive_budget`` (subsets of smaller size are covered
    automatically: removing fewer faults only shrinks distances in both
    G and H... but not monotonically for the *ratio*, so smaller sizes
    are enumerated too when exhaustive).  Beyond the budget, ``samples``
    fault sets are drawn adversarially when ``samples=`` was given;
    with no ``samples=`` the call raises :class:`SweepBudgetExceeded`
    instead of silently downgrading the proof to sampled evidence.

    ``mode="witness"`` checks the same property via per-pair
    (f+1)-disjoint-short-path certificates from the Dinic max-flow
    engine -- polynomial in n and m, no ``C(n, f)`` enumeration; pairs
    the flow engine cannot certify fall back to the exact per-pair
    sweep (see the module docstring).  ``witness_pairs=N`` spot-checks
    ``N`` sampled pairs instead of every edge of G (the report is then
    non-exhaustive).

    ``snapshot`` may supply an already-frozen :class:`DualCSRSnapshot`
    of (G, H) --
    e.g. from a :class:`repro.session.SpannerSession` -- so the sweep
    re-stamps it instead of freezing its own.
    """
    if fault_model not in ("vertex", "edge"):
        raise ValueError(f"unknown fault model {fault_model!r}")
    if f < 0:
        raise ValueError(f"need f >= 0, got {f}")
    if mode not in VERIFY_MODES:
        raise ValueError(
            f"unknown verification mode {mode!r}; "
            f"expected one of {tuple(VERIFY_MODES)}"
        )
    if witness_pairs is not None and mode != "witness":
        raise ValueError("witness_pairs= requires mode='witness'")
    universe = _fault_universe(g, fault_model)
    unit = g.is_unit_weighted()
    total = sum(_comb(len(universe), size) for size in range(f + 1))
    if mode == "witness":
        return _verify_witness(
            g, h, t, f, fault_model, unit, universe, total,
            exhaustive_budget, samples, seed, snapshot, witness_pairs,
        )
    check = _CSRSweep(g, h, t, fault_model, unit, snapshot=snapshot).check
    checked = 0
    if total <= exhaustive_budget:
        for faults in _all_fault_sets(universe, f):
            checked += 1
            bad = check(faults)
            if bad is not None:
                return VerificationReport(
                    ok=False,
                    exhaustive=True,
                    fault_sets_checked=checked,
                    counterexample=bad,
                )
        return VerificationReport(
            ok=True, exhaustive=True, fault_sets_checked=checked
        )
    if samples is None:
        raise SweepBudgetExceeded(
            total, exhaustive_budget, fault_sets_checked=checked
        )
    rng = random.Random(seed)
    for faults in _adversarial_fault_sets(
        g, h, t, f, fault_model, rng, samples
    ):
        checked += 1
        bad = check(faults)
        if bad is not None:
            return VerificationReport(
                ok=False,
                exhaustive=False,
                fault_sets_checked=checked,
                counterexample=bad,
            )
    return VerificationReport(
        ok=True, exhaustive=False, fault_sets_checked=checked
    )


# --------------------------------------------------------------------- #
# Internals
# --------------------------------------------------------------------- #


def _fault_universe(g: Graph, fault_model: str) -> List:
    if fault_model == "vertex":
        return sorted(g.nodes(), key=repr)
    return sorted(g.edges(), key=repr)


def _comb(n: int, r: int) -> int:
    if r > n:
        return 0
    return math.comb(n, r)


def _all_fault_sets(universe: List, f: int) -> Iterator[Tuple]:
    for size in range(f + 1):
        yield from itertools.combinations(universe, size)


class _CSRSweep:
    """Reusable flat-array state for one verification call.

    Built once per :func:`verify_ft_spanner` / :func:`is_spanner` call
    and then driven through every fault set: a
    :class:`~repro.graph.snapshot.DualCSRSnapshot` holds both
    graphs in one shared index space, the edge list of G is pre-resolved
    to ``(u, v, iu, iv, w, gid)`` rows, and one workspace plus the
    snapshot's three fault masks serve every subsequent probe.
    ``check(faults)`` therefore allocates nothing per fault set beyond
    the surviving-edge filter -- a mask re-stamp instead of a fresh pair
    of fault views.

    Cost per fault set: O(|F|) re-stamping plus one hop-bounded BFS
    (unit weights) or up to two truncated Dijkstras (weighted) per
    surviving edge of G.

    Weighted probes take the engine
    :func:`~repro.graph.snapshot.weighted_pair_engine` picks per side
    from its weight profile: bidirectional Dijkstra on integral
    weights, the heap on float ones.
    """

    __slots__ = (
        "t", "fault_model", "unit", "snap", "ws", "edges", "eng_g",
        "eng_h",
    )

    def __init__(
        self,
        g: Graph,
        h: Graph,
        t: float,
        fault_model: str,
        unit: bool,
        snapshot: Optional[DualCSRSnapshot] = None,
    ) -> None:
        self.t = t
        self.fault_model = fault_model
        if snapshot is None:
            snapshot = DualCSRSnapshot(g, h)
        elif snapshot.g is not g or snapshot.h is not h:
            raise ValueError("snapshot does not freeze this (G, H) pair")
        self.snap = snapshot
        self.unit = unit
        self.eng_g = weighted_pair_engine(snapshot.snap_g.profile)
        self.eng_h = weighted_pair_engine(snapshot.snap_h.profile)
        n = len(self.snap.indexer)
        self.ws: Union[BFSWorkspace, DijkstraWorkspace] = (
            BFSWorkspace(n) if self.unit else DijkstraWorkspace(n)
        )
        index = self.snap.indexer.index
        self.edges = [
            (u, v, index(u), index(v), g.weight(u, v),
             self.snap.csr_g.edge_id(index(u), index(v)))
            for u, v in g.edges()
        ]

    def _stamp(self, fault_list: List, candidates: List) -> Tuple[
        FrozenSet, Optional[FaultMask], Optional[FaultMask],
        Optional[FaultMask], List,
    ]:
        """Stamp one fault set into the masks; list the surviving edges."""
        if self.fault_model == "vertex":
            frozen = frozenset(fault_list)
            vmask = self.snap.set_vertex_faults(fault_list)
            vstamp, vgen = vmask.stamp, vmask.gen
            surviving = [
                row for row in candidates
                if vstamp[row[2]] != vgen and vstamp[row[3]] != vgen
            ]
            return frozen, vmask, None, None, surviving
        frozen = frozenset(edge_key(u, v) for u, v in fault_list)
        emask_g, emask_h = self.snap.set_edge_faults(fault_list)
        gstamp, ggen = emask_g.stamp, emask_g.gen
        surviving = [row for row in candidates if gstamp[row[5]] != ggen]
        return frozen, None, emask_g, emask_h, surviving

    def check(
        self,
        faults: Optional[Iterable],
        edges: Optional[List] = None,
    ) -> Optional[Counterexample]:
        """Check the Lemma 3 condition for one fault set; None when it holds.

        For every surviving edge {u, v} of G realizing
        d_{G\\F}(u, v) = w(u, v), require d_{H\\F}(u, v) <= t * w(u, v).
        On the unit fast path the surviving edge always realizes the
        distance (no G-side probe) and the H side is a hop-bounded BFS.
        ``edges`` restricts the check to those pre-resolved rows (the
        witness mode's per-pair fallback); default is every edge of G.
        """
        fault_list = list(faults) if faults is not None else []
        candidates = self.edges if edges is None else edges
        frozen, vmask, emask_g, emask_h, surviving = self._stamp(
            fault_list, candidates
        )
        t = self.t
        csr_g, csr_h, ws = self.snap.csr_g, self.snap.csr_h, self.ws
        if self.unit:
            max_hops = int(t)
            for u, v, iu, iv, w, _ in surviving:
                if csr_bounded_bfs_path(
                    csr_h, iu, iv, max_hops, ws,
                    vertex_mask=vmask, edge_mask=emask_h,
                ) is not None:
                    continue
                # The counterexample reports the *weighted* H-distance
                # even on the unit fast path (H may
                # carry non-unit weights when verifying arbitrary
                # files).  This path is terminal, so a one-off Dijkstra
                # workspace is fine.
                dh_full = csr_weighted_distance(
                    csr_h, iu, iv,
                    workspace=DijkstraWorkspace(csr_h.num_nodes),
                    vertex_mask=vmask, edge_mask=emask_h,
                )
                return Counterexample(
                    faults=frozen, pair=(u, v),
                    graph_distance=w, spanner_distance=dh_full,
                )
        else:
            eng_g, eng_h = self.eng_g, self.eng_h
            for u, v, iu, iv, w, _ in surviving:
                dg = csr_weighted_distance(
                    csr_g, iu, iv, max_dist=w, workspace=ws,
                    vertex_mask=vmask, edge_mask=emask_g,
                    search=eng_g,
                )
                if dg < w:
                    continue  # a strictly shorter surviving route exists
                dh = csr_weighted_distance(
                    csr_h, iu, iv, max_dist=t * w, workspace=ws,
                    vertex_mask=vmask, edge_mask=emask_h,
                    search=eng_h,
                )
                if dh > t * w:
                    dh_full = csr_weighted_distance(
                        csr_h, iu, iv, workspace=ws,
                        vertex_mask=vmask, edge_mask=emask_h,
                        search=eng_h,
                    )
                    return Counterexample(
                        faults=frozen, pair=(u, v),
                        graph_distance=w, spanner_distance=dh_full,
                    )
        return None


def _verify_witness(
    g: Graph,
    h: Graph,
    t: float,
    f: int,
    fault_model: str,
    unit: bool,
    universe: List,
    total: int,
    exhaustive_budget: int,
    samples: Optional[int],
    seed: Optional[int],
    snapshot: Optional[DualCSRSnapshot],
    witness_pairs: Optional[int],
) -> VerificationReport:
    """Witness-mode verification: disjoint-path certificates per pair.

    For each candidate edge {u, v} of G (every edge, or a
    ``witness_pairs``-sized sample), in order of increasing cost:

    1. *Trivial witness* -- {u, v} in H within the length bound.  Any
       fault set that removes it (the endpoints under the vertex model,
       the edge itself under the edge model) also removes the pair's
       G-edge, so nothing is required of those sets; every other set
       leaves the H-edge as the bounded path.
    2. *Flow witness* -- f+1 pairwise disjoint u-v paths in H, each of
       weighted length <= t*w, from the Dinic engine run on the
       length ellipse of H only: the edges {x, y} on *some* u-v route
       of length <= t*w, i.e. d_u(x) + w(x, y) + d_v(y) <= t*w in
       either orientation (a cheap overapproximation that keeps the
       decomposed paths short).  Both endpoints of an ellipse edge lie
       on the vertex ellipse d_u(x) + d_v(x) <= t*w, so the edges are
       collected from those vertices' rows, each orientation from its
       tail's row, and the flow runs on a view of just their arcs
       (:meth:`~repro.flow.dinitz.DisjointPathNetwork.max_flow`'s
       ``allowed_edges``) -- the same flow and paths as banning every
       other edge of H, at a cost that follows the ellipse, not H.  At
       most f of the paths can be faulted, and under the vertex model
       the endpoints -- the only shared vertices -- cannot be, so a
       surviving path bounds d_{H\\F}(u, v) for every legal F.  The
       flow stops at f+1 units; only when one of their paths is over
       the bound does the full max flow run, and then any f+1 of its
       paths within the bound certify -- so every pair the full flow
       alone would certify is still certified.  The labels d_u, d_v
       stop at B - w_min, B the largest pair bound and w_min the
       weight of H's lightest edge: an ellipse edge has
       d_u(x) + d_v(y) <= B - w(x, y), and a tail x other than u has
       d_u(x) >= w_min, so no label the ellipse reads lies past the
       cut.  u always joins the vertex ellipse, whose test reads
       d_v(u).  The vertex ellipse is collected from the shorter of
       the two labels' settled lists, and a pair with no ellipse edge
       (d_u(v) > t*w) skips the flow.
    3. *Fallback* -- length-bounded Menger is not exact, so a missing
       witness is not a violation: the pair is decided by the exact
       per-pair fault sweep (exhaustive within ``exhaustive_budget``,
       else ``samples`` adversarial draws -- default 300 here, where
       sampling is a per-pair last resort rather than the whole
       verification).

    The flow engine, the distance probes, and the fallback sweep all
    run on the one shared snapshot.
    """
    sweep = _CSRSweep(g, h, t, fault_model, unit, snapshot=snapshot)
    snap = sweep.snap
    rows: List = sweep.edges
    rng = random.Random(seed)
    full_coverage = True
    if witness_pairs is not None and witness_pairs < len(rows):
        rows = rng.sample(rows, witness_pairs)
        full_coverage = False
    csr_h = snap.csr_h
    network = DisjointPathNetwork(csr_h, fault_model)
    flow_ws = FlowWorkspace(network.net.num_nodes)
    need = f + 1
    # Labels cached for the whole run (every endpoint serves as a label
    # source for each of its G-edges): a list indexed by node, and the
    # nodes the search settled.  The ellipse tests below read d_u(x) and
    # d_v(y) only where d_u(x) + w(x, y) + d_v(y) <= t * w, so no value
    # they read lies past the longest pair bound minus w_min, H's
    # lightest edge; the searches stop there and nodes past the cut read
    # as INFINITY.  The one exception, d_v(u) in the vertex test, is
    # handled where it is read.  Float sums associate differently from
    # the test's, hence the same 1e-9 relative slack as there.
    n_h = csr_h.num_nodes
    engine = sssp_engine(snap.snap_h.profile)
    max_weight = snap.snap_h.max_weight
    longest = t * max((row[4] for row in rows), default=0.0)
    reach = longest - min(csr_h.weights, default=0.0)
    if snap.snap_h.profile == "float":
        reach += longest * 1e-9
    reach = max(reach, 0.0)
    dist_ws: Union[BFSWorkspace, DijkstraWorkspace] = (
        BFSWorkspace(n_h) if engine == "bfs" else DijkstraWorkspace(n_h)
    )
    dist_cache: dict = {}

    def labels(i: int) -> Tuple[List[float], List[int]]:
        entry = dist_cache.get(i)
        if entry is None:
            if engine == "bfs":
                reached = csr_bfs_distances(
                    csr_h, i, max_hops=math.floor(reach), workspace=dist_ws
                )
            else:
                reached = csr_dijkstra(
                    csr_h, i, max_dist=reach, workspace=dist_ws,
                    search=engine, max_weight=max_weight,
                )
            d = [INFINITY] * n_h
            for x, dx in reached.items():
                d[x] = dx
            entry = dist_cache[i] = (d, list(reached))
        return entry

    h_nbrs, h_eids, h_w = (
        csr_h.neighbors, csr_h.edge_id_rows, csr_h.weights.tolist()
    )
    edge_id = csr_h.edge_id

    def short_paths(paths: List[List[int]], bound: float) -> int:
        """How many of ``paths`` are within ``bound`` (counted up to f+1)."""
        short = 0
        for path in paths:
            length = 0.0
            for a, b in zip(path, path[1:]):
                length += h_w[edge_id(a, b)]
            if length <= bound:
                short += 1
                if short >= need:
                    break
        return short

    samples_eff = 300 if samples is None else samples
    checked = 0
    witnessed = 0
    sampled_fallback = False
    for row in rows:
        u, v, iu, iv, w = row[0], row[1], row[2], row[3], row[4]
        bound = t * w
        if h.has_edge(u, v) and h.weight(u, v) <= bound:
            witnessed += 1
            continue
        du, settled_u = labels(iu)
        dv, settled_v = labels(iv)
        # Each edge is tested in the orientation leaving x, from the rows
        # of the vertex ellipse: an edge passing either orientation has
        # both endpoints there, so both labels are finite on it and the
        # shorter settled list holds it -- all but u, whose d_v(u) may
        # lie past the cut.  The vertex test is only a prefilter; its
        # 1e-9 slack keeps float rounding (the sums associate
        # differently) from dropping an endpoint.
        vertex_bound = bound + bound * 1e-9
        ellipse = [
            x for x in (
                settled_u if len(settled_u) <= len(settled_v) else settled_v
            )
            if du[x] + dv[x] <= vertex_bound
        ]
        if dv[iu] > vertex_bound:
            ellipse.append(iu)
        allowed = [
            eid for x in ellipse for y, eid in zip(h_nbrs[x], h_eids[x])
            if du[x] + h_w[eid] + dv[y] <= bound
        ]
        certified = False
        # No ellipse edge means d_u(v) > t*w: no flow can certify.
        if allowed:
            # f+1 units of flow are the whole certificate.  Only when
            # one of them decomposes into a path over the bound does
            # the full max flow run, to look for f+1 short ones among
            # all of its paths.
            paths = network.disjoint_paths(
                iu, iv, workspace=flow_ws, limit=need, allowed_edges=allowed
            )
            short = short_paths(paths, bound)
            if len(paths) == need and short < need:
                short = short_paths(
                    network.disjoint_paths(
                        iu, iv, workspace=flow_ws, allowed_edges=allowed
                    ),
                    bound,
                )
            certified = short >= need
        if certified:
            witnessed += 1
            continue
        if total <= exhaustive_budget:
            fault_iter: Iterable = _all_fault_sets(universe, f)
            exhaustive_here = True
        else:
            fault_iter = _adversarial_fault_sets(
                g, h, t, f, fault_model, rng, samples_eff
            )
            exhaustive_here = False
            sampled_fallback = True
        for faults in fault_iter:
            checked += 1
            bad = sweep.check(faults, edges=[row])
            if bad is not None:
                return VerificationReport(
                    ok=False,
                    exhaustive=exhaustive_here,
                    fault_sets_checked=checked,
                    counterexample=bad,
                    mode="witness",
                    pairs_checked=len(rows),
                    pairs_witnessed=witnessed,
                )
    return VerificationReport(
        ok=True,
        exhaustive=full_coverage and not sampled_fallback,
        fault_sets_checked=checked,
        mode="witness",
        pairs_checked=len(rows),
        pairs_witnessed=witnessed,
    )


def _adversarial_fault_sets(
    g: Graph,
    h: Graph,
    t: float,
    f: int,
    fault_model: str,
    rng: random.Random,
    samples: int,
) -> Iterator[FrozenSet]:
    """Yield ``samples`` fault sets mixing three adversarial strategies."""
    universe = _fault_universe(g, fault_model)
    if not universe or f == 0:
        yield frozenset()
        return
    edges = list(g.edges())
    produced = 0
    while produced < samples:
        strategy = produced % 3
        if strategy == 0:
            size = rng.randint(1, f)
            faults = frozenset(rng.sample(universe, min(size, len(universe))))
        elif strategy == 1:
            faults = _neighborhood_attack(g, f, fault_model, rng, edges)
        else:
            faults = _lbc_attack(g, h, t, f, fault_model, rng, edges)
        if fault_model == "vertex":
            # Never fault both endpoints of every edge trivially; any set
            # of <= f vertices is legal, so just yield.
            yield frozenset(list(faults)[:f])
        else:
            yield frozenset(list(faults)[:f])
        produced += 1


def _neighborhood_attack(
    g: Graph, f: int, fault_model: str, rng: random.Random, edges: List[Edge]
) -> FrozenSet:
    """Faults concentrated around a random edge's endpoints."""
    if not edges:
        return frozenset()
    u, v = rng.choice(edges)
    if fault_model == "vertex":
        pool = sorted(
            (set(g.neighbors(u)) | set(g.neighbors(v))) - {u, v}, key=repr
        )
        if not pool:
            return frozenset()
        return frozenset(rng.sample(pool, min(f, len(pool))))
    pool = [edge_key(u, x) for x in g.neighbors(u)] + [
        edge_key(v, x) for x in g.neighbors(v)
    ]
    pool = sorted(set(pool) - {edge_key(u, v)})
    if not pool:
        return frozenset()
    return frozenset(rng.sample(pool, min(f, len(pool))))


def _lbc_attack(
    g: Graph,
    h: Graph,
    t: float,
    f: int,
    fault_model: str,
    rng: random.Random,
    edges: List[Edge],
) -> FrozenSet:
    """Faults produced by running the LBC path-removal process on H.

    The LBC cut (capped at f elements) is the most structured separator
    the library can construct -- exactly the object the greedy defends
    against, so sampling near it probes the guarantee's boundary.
    """
    if not edges:
        return frozenset()
    u, v = rng.choice(edges)
    hops = max(int(t), 1)
    if fault_model == "vertex":
        if h.has_edge(u, v):
            return _neighborhood_attack(g, f, fault_model, rng, edges)
        result = lbc_vertex(h, u, v, hops, f)
    else:
        result = lbc_edge(h, u, v, hops, f)
    cut = sorted(result.cut, key=repr)
    if len(cut) > f:
        cut = rng.sample(cut, f)
    return frozenset(cut)
