"""The benchmark's four workloads: seeded inputs, set-up, ops, checks.

Each workload puts most of its time in the layers it targets and skips
the others, so a gain in one layer moves one workload and leaves the
rest flat (README.md has the layer map):

* ``build``   -- the modified greedy (``core``, ``lbc``, BFS in ``graph``);
* ``certify`` -- witness verification (``verification``, ``flow``);
* ``serve``   -- an open loop against ``SpannerServer`` (``serving``,
  ``parallel`` request/reply);
* ``congest`` -- parallel CONGEST builds (``distributed``, ``parallel``
  bulk jobs).

Every run replays one op sequence that is a pure function of the seed
and the op count; the op count is ``ceil(seconds * ops_per_second)``
with a fixed nominal rate per workload, never the measured duration, so
the op mix, the GC trigger points and the chaos schedule repeat exactly.

Ops call ``registry.build_spanner`` (not a name bound at import time)
so that a traced run can wrap it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro import registry
from repro.core.bounds import modified_greedy_size_bound
from repro.graph import generators
from repro.graph.graph import Graph, edge_key
from repro.graph.snapshot import CSRSnapshot, ScenarioSweep, csr_freeze_count
from repro.serving import (
    ChaosPolicy,
    DeadlineExceeded,
    ServingConfig,
    ServingUnavailable,
)
from repro.session import SpannerSession
from repro.verification import is_spanner
from repro.verification.certificates import check_certificates

K = 2
F = 2

#: Committed digests of each workload's answers on a fixed input (seed 0).
DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"
CANARY_SEED = 0


@dataclass(frozen=True)
class Member:
    """One graph of a workload's input pool."""

    family: str  # "gnp" | "ba" | "geo"
    n: int
    degree: float  # target mean degree
    fault_model: str = "vertex"
    weighted: bool = False  # integer weights 1..16 (Algorithm 4)


def make_graph(member: Member, seed: int) -> Graph:
    n, d = member.n, member.degree
    if member.family == "gnp":
        g = generators.gnp_random_graph(n, d / (n - 1), seed=seed)
    elif member.family == "ba":
        g = generators.barabasi_albert_graph(n, round(d / 2), seed=seed)
    elif member.family == "geo":
        radius = math.sqrt(d / (math.pi * (n - 1)))
        g = generators.random_geometric_graph(n, radius, seed=seed, weighted=False)
    else:
        raise ValueError(f"unknown graph family {member.family!r}")
    g = generators.ensure_connected(g, seed=seed)
    if member.weighted:
        g = generators.with_random_weights(g, 1, 16, seed=seed, integral=True)
    return g


def member_seeds(workload: str, seed: int, count: int) -> List[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.getrandbits(32) for _ in range(count)]


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def spanner_digest(result) -> str:
    return digest(sorted((edge_key(u, v), w) for u, v, w in result.spanner.weighted_edges()))


def is_traced(i: int, members: int) -> bool:
    """Whether a traced run traces op ``i`` (every other op).

    With an even pool, plain alternation would trace only the
    even-numbered graphs; flipping the parity every pass over the pool
    traces each graph in half of its ops.
    """
    shift = i // members if members % 2 == 0 else 0
    return (i + shift) % 2 == 0


@dataclass
class OpRecord:
    index: int
    member: int
    latency: float  # seconds; for serve, from the request's due time
    traced: bool
    value: object = None  # what the checks compare
    error: Optional[str] = None
    typed_miss: bool = False  # a typed serving error: a miss, not a failure
    ok: bool = False  # set by check()
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return not self.ok and not self.typed_miss


@dataclass
class Timed:
    """What a workload's timed phase produced."""

    records: List[OpRecord]
    seconds: float  # the timed phase: sum of op windows (closed loop) or wall (open loop)
    completed: int
    stats: Dict[str, int] = field(default_factory=dict)


class Workload:
    name = ""
    ops_per_second = 1.0
    pool: tuple = ()

    def op_count(self, seconds: float) -> int:
        return max(1, math.ceil(seconds * self.ops_per_second))

    def inputs(self, seed: int):
        seeds = member_seeds(self.name, seed, len(self.pool))
        return [(m, s, make_graph(m, s)) for m, s in zip(self.pool, seeds)]

    def setup(self, inputs):
        return {"inputs": inputs}

    def close(self, state) -> None:
        pass

    def op(self, state, i: int):
        raise NotImplementedError

    def summarize(self, state, rec: OpRecord, out) -> None:
        """Reduce an op's output to what check() compares (untimed)."""
        raise NotImplementedError

    def run(self, state, n_ops: int, tracer=None) -> Timed:
        """Closed loop, one caller: each op starts when the last ended."""
        records = []
        total = 0.0
        members = len(state["inputs"])
        for i in range(n_ops):
            traced = tracer is not None and is_traced(i, members)
            rec = OpRecord(i, i % members, 0.0, traced)
            if traced:
                freezes = csr_freeze_count()
                tracer.begin_op(i)
            t0 = time.perf_counter()
            try:
                out = self.op(state, i)
            except Exception as exc:  # a program failure; counted, run continues
                out = None
                rec.error = repr(exc)
            rec.latency = time.perf_counter() - t0
            if traced:
                tracer.end_op()
                tracer.counters["graph.freezes"] += csr_freeze_count() - freezes
            total += rec.latency
            if rec.error is None:
                self.summarize(state, rec, out)
            records.append(rec)
        return Timed(records, total, sum(r.error is None for r in records))

    def check(self, state, timed: Timed) -> List[str]:
        raise NotImplementedError

    def canary(self) -> str:
        raise NotImplementedError


def load_digests() -> Dict[str, str]:
    return json.loads(DIGESTS_FILE.read_text())


class Build(Workload):
    name = "build"
    ops_per_second = 8.5
    # Mean degrees are tuned so every member takes ~100 ms on a 2-CPU
    # VM: near-equal ops keep the median off the gap between two
    # members' costs.  Each setting appears four times (four random
    # graphs): one graph's cost varies by 10-25% from seed to seed, and
    # the median over 24 graphs varies about half as much as over 6.
    pool = (
        Member("gnp", 240, 15, "vertex"),
        Member("ba", 260, 10, "edge", weighted=True),
        Member("geo", 280, 26, "vertex", weighted=True),
        Member("gnp", 220, 12, "edge"),
        Member("ba", 220, 14, "vertex"),
        Member("geo", 260, 20, "edge"),
    ) * 4

    def op(self, state, i):
        m, _, g = state["inputs"][i % len(self.pool)]
        return registry.build_spanner(g, "greedy", k=K, f=F, fault_model=m.fault_model)

    def summarize(self, state, rec, out):
        rec.value = spanner_digest(out)
        state.setdefault("results", {}).setdefault(rec.member, out)

    def check(self, state, timed):
        problems = []
        expected = {}
        for idx, result in state.get("results", {}).items():
            m, _, g = state["inputs"][idx]
            bad = self.check_result(g, result)
            problems += [f"build member {idx}: {p}" for p in bad]
            if not bad:
                expected[idx] = spanner_digest(result)
        for rec in timed.records:
            rec.ok = rec.error is None and rec.value == expected.get(rec.member)
        return problems

    @staticmethod
    def check_result(g, result) -> List[str]:
        bad = check_certificates(g, result, replay=True)
        kept = {edge_key(u, v) for u, v in result.spanner.edges()}
        if kept != set(result.certificates):
            bad.append("spanner edges and certificate keys differ")
        bound = modified_greedy_size_bound(g.num_nodes, K, F)
        if result.num_edges > bound:
            bad.append(f"{result.num_edges} edges exceed the size bound {bound:.0f}")
        if not is_spanner(g, result.spanner, 2 * K - 1):
            bad.append("not a (2k-1)-spanner even without faults")
        return bad

    def canary(self):
        m, _, g = self.inputs(CANARY_SEED)[0]
        return spanner_digest(registry.build_spanner(g, "greedy", k=K, f=F, fault_model=m.fault_model))


class Certify(Workload):
    name = "certify"
    ops_per_second = 8.0
    # As in build, four graphs per setting, ~100 ms each.  Geometric
    # vertex-model members stay unit-weighted: weighted ones this sparse
    # leave pairs to the exhaustive fallback sweep, a cost cliff that
    # would make op time depend on the seed.
    pool = (
        Member("gnp", 120, 10, "vertex"),
        Member("ba", 110, 8, "edge", weighted=True),
        Member("geo", 100, 12, "vertex"),
        Member("gnp", 130, 8, "edge", weighted=True),
        Member("ba", 110, 10, "vertex"),
        Member("geo", 110, 11, "edge"),
    ) * 4

    def setup(self, inputs):
        spanners = [
            registry.build_spanner(g, "greedy", k=K, f=F, fault_model=m.fault_model)
            for m, _, g in inputs
        ]
        return {"inputs": inputs, "spanners": spanners}

    @staticmethod
    def certify(m, g, spanner):
        session = SpannerSession(g, k=K, f=F, fault_model=m.fault_model)
        session.adopt(spanner)
        return session.verify(mode="witness")

    def op(self, state, i):
        idx = i % len(self.pool)
        m, _, g = state["inputs"][idx]
        return self.certify(m, g, state["spanners"][idx])

    def summarize(self, state, rec, report):
        rec.value = (
            report.ok, report.exhaustive, report.pairs_checked,
            report.pairs_witnessed, report.fault_sets_checked,
        )

    def check(self, state, timed):
        problems = []
        first: Dict[int, tuple] = {}
        for rec in timed.records:
            if rec.error is not None:
                continue
            _, _, g = state["inputs"][rec.member]
            ok, _, checked, witnessed, _ = rec.value
            kept = state["spanners"][rec.member].num_edges
            expect = first.setdefault(rec.member, rec.value)
            # Every G-edge is a checked pair; every H-edge is a trivial
            # witness; repeated certifications of one spanner agree.  A
            # pair left without a certificate goes to the fallback sweep,
            # which samples fault sets on the larger edge-model graphs.
            rec.ok = (
                ok and checked == g.num_edges
                and kept <= witnessed <= checked and rec.value == expect
            )
            if not rec.ok:
                problems.append(f"certify op {rec.index}: report {rec.value} (first {expect})")
        return problems[:5]

    def canary(self):
        m, _, g = self.inputs(CANARY_SEED)[0]
        spanner = registry.build_spanner(g, "greedy", k=K, f=F, fault_model=m.fault_model)
        r = self.certify(m, g, spanner)
        return digest((r.ok, r.pairs_checked, r.pairs_witnessed, r.fault_sets_checked))


class Serve(Workload):
    name = "serve"
    graph = Member("gnp", 300, 16, "vertex", weighted=True)
    pairs = 256  # two shards of 128: compute, not scheduler noise, dominates
    workers = 2
    # The healthy closed-loop capacity measured 39-42 req/s on a 2-CPU
    # VM (p50 23 ms) and ~27 req/s in the host's slow stretches.  The
    # stalls below cost ~12% of the time, and at 20 req/s three of ten
    # runs in a slow stretch built a growing backlog (p50 55-332 ms), so
    # the rate is fixed at 14 req/s, about half the slow-stretch capacity.
    ops_per_second = 14.0
    deadline = 0.25
    warmup = 14  # requests, one second at the offered rate
    # One caller thread means every stall past the deadline also delays
    # the requests due behind it (head-of-line blocking).  10 stalls and
    # 2 kills per 280 requests delay ~15% of them, well clear of 10%:
    # op_p90_ms then reads the queue behind a stall (deadline, respawn,
    # service), not the healthy tail, which moved +-25% with host noise.
    kill_rate = 0.005
    stall_rate = 0.016
    stall_seconds = 0.5
    # The chaos schedule does not follow --seed: every run injects the
    # same faults at the same request indices (the draws follow dispatch
    # order), so the seed varies the graph and the requests while the
    # number of injected faults -- which decides how many requests sit
    # in the latency tail -- stays fixed.
    chaos_seed = 4

    def inputs(self, seed):
        (s,) = member_seeds(self.name, seed, 1)
        return {"seed": s, "graph": make_graph(self.graph, s)}

    def requests(self, seed: int, nodes, count: int):
        rng = random.Random(seed)
        out = []
        for _ in range(count):
            faults = sorted(rng.sample(nodes, F))
            survivors = [x for x in nodes if x not in faults]
            out.append((faults, [tuple(rng.sample(survivors, 2)) for _ in range(self.pairs)]))
        return out

    def setup(self, inputs):
        g = inputs["graph"]
        session = SpannerSession(g, k=K, f=F)
        session.build("greedy")
        chaos = ChaosPolicy(
            self.chaos_seed, kill_rate=self.kill_rate,
            stall_rate=self.stall_rate, stall_seconds=self.stall_seconds,
        )
        server = session.serve(
            config=ServingConfig(workers=self.workers, deadline=self.deadline),
            chaos=chaos,
        )
        return {"inputs": inputs, "server": server}

    def close(self, state):
        state["server"].close()

    def run(self, state, n_ops, tracer=None):
        server = state["server"]
        nodes = sorted(state["inputs"]["graph"].nodes())
        seed = state["inputs"]["seed"]
        # Warm-up, untimed: the first second after a spawn runs up to 2x
        # slow (fresh fork-shared pages, cold caches), which a long-lived
        # server pays once, not per request.
        self.open_loop(server, self.requests(seed + 2, nodes, self.warmup), None)
        reqs = state["requests"] = self.requests(seed + 1, nodes, n_ops)
        stats0 = server.stats_dict()
        records, wall = self.open_loop(server, reqs, tracer)
        stats = {k: v - stats0.get(k, 0) for k, v in server.stats_dict().items()}
        return Timed(records, wall, sum(r.value is not None for r in records), stats)

    def open_loop(self, server, reqs, tracer):
        """Issue request i at start + i / rate from one caller thread."""
        interval = 1.0 / self.ops_per_second
        records = []
        start = time.perf_counter()
        for i, (faults, pairs) in enumerate(reqs):
            due = start + i * interval
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            traced = tracer is not None and is_traced(i, 1)
            rec = OpRecord(i, 0, 0.0, traced)
            if traced:
                tracer.begin_op(i)
            issued = time.perf_counter()
            try:
                rec.value = server.distances(pairs, faults, "vertex")
            except (DeadlineExceeded, ServingUnavailable) as exc:
                rec.error = type(exc).__name__
                rec.typed_miss = True
            except Exception as exc:
                rec.error = repr(exc)
            done = time.perf_counter()
            if traced:
                tracer.end_op()
            rec.latency = done - due
            rec.extra["late"] = issued - due
            rec.extra["service"] = done - issued
            records.append(rec)
        return records, time.perf_counter() - start

    def check(self, state, timed):
        server = state["server"]
        truth = ScenarioSweep(server.snapshot, search=server.search)
        problems = []
        for rec, (faults, pairs) in zip(timed.records, state["requests"]):
            if rec.value is None:
                continue
            t0 = time.perf_counter()
            truth.stamp(faults, "vertex")
            expect = [truth.distance(u, v) for u, v in pairs]
            rec.extra["sweep"] = time.perf_counter() - t0
            rec.ok = rec.value == expect
            if not rec.ok:
                problems.append(f"serve request {rec.index}: answer differs from the in-process sweep")
        return problems[:5]

    def canary(self):
        inputs = self.inputs(CANARY_SEED)
        result = registry.build_spanner(inputs["graph"], "greedy", k=K, f=F)
        sweep = ScenarioSweep(CSRSnapshot(result.spanner))
        answers = []
        for faults, pairs in self.requests(inputs["seed"] + 1, sorted(inputs["graph"].nodes()), 4):
            sweep.stamp(faults, "vertex")
            answers.append([sweep.distance(u, v) for u, v in pairs])
        return digest((spanner_digest(result), answers))


class Congest(Workload):
    name = "congest"
    # 6.7/s is the measured rate; a 15 s run or longer holds the 100
    # ops that leave ten samples beyond op_p90_ms.
    ops_per_second = 6.7
    workers = 2
    # The smallest graphs show the cost of spawning and coordinating the
    # pool, the largest the compute.  Sizes step evenly from 60 to 115 so
    # op costs form a continuum and the median falls inside it, not in
    # the gap between two members.
    pool = tuple(
        Member(("gnp", "ba", "geo")[i % 3], 60 + 5 * i, 10 if i % 3 == 2 else 8)
        for i in range(12)
    )

    def build(self, idx, state, workers):
        _, s, g = state["inputs"][idx]
        return registry.build_spanner(g, "congest", k=K, f=F, seed=s, workers=workers)

    def op(self, state, i):
        return self.build(i % len(self.pool), state, self.workers)

    def summarize(self, state, rec, out):
        rec.value = (spanner_digest(out), out.rounds)

    def check(self, state, timed):
        reference = {}
        seq_s = {}
        for idx in sorted({r.member for r in timed.records}):
            t0 = time.perf_counter()
            ref = self.build(idx, state, None)
            seq_s[idx] = time.perf_counter() - t0
            reference[idx] = (spanner_digest(ref), ref.rounds)
        problems = []
        for rec in timed.records:
            rec.extra["seq"] = seq_s[rec.member]
            rec.ok = rec.error is None and rec.value == reference[rec.member]
            if not rec.ok:
                problems.append(f"congest op {rec.index}: differs from the workers=None build")
        return problems[:5]

    def canary(self):
        state = {"inputs": self.inputs(CANARY_SEED)}
        ref = self.build(0, state, None)
        return digest((spanner_digest(ref), ref.rounds))


WORKLOADS = {w.name: w for w in (Build, Certify, Serve, Congest)}
