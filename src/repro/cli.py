"""Command-line interface: ``ftspanner``.

Subcommands
-----------
``build``       Build a fault-tolerant spanner of a graph file (or a
                generated random graph) and write/print the result.
``verify``      Check that one graph file is an f-FT t-spanner of another.
``oracle``      Build a spanner-backed distance oracle and answer batched
                post-fault queries across sampled failure scenarios.
``serve``       Stand up the resilient multi-process serving core over a
                built spanner and drive it with an open-loop load
                generator (optionally under seeded chaos injection),
                reporting throughput, latency quantiles, and parity.
``churn``       Stream seeded edge insert/delete updates through a built
                spanner session (delta overlays + compaction policy),
                probing distances during churn and checking them against
                dict Dijkstra on the mutated spanner.
``distributed`` Run one of the LOCAL/CONGEST constructions end to end on
                the message-passing simulator, optionally across
                ``--workers`` partition processes (bit-identical to
                sequential execution) and, for the LOCAL spanner, with
                the ``--deterministic`` ruling-set decomposition.
``algorithms``  List every registered construction with its guarantee
                and capabilities (the algorithm registry).
``info``        Print structural statistics of a graph file.
``demo``        Run a small end-to-end demonstration (no files needed).

The CLI is a thin shell over the library's unified public API: the
``--algorithm`` catalog comes from the :mod:`algorithm registry
<repro.registry>`, and each command drives one
:class:`~repro.session.SpannerSession`, so e.g. ``build --verify``
freezes the graphs into the CSR substrate once and shares the snapshot
between construction check and verification sweep.

Capability validation replaces the old silent-drop behavior: requesting
``-f`` below an algorithm's minimum is a clean usage error, and options
that merely do nothing for the chosen algorithm (``-f`` on a
non-fault-tolerant baseline, ``--seed`` with a deterministic
construction and a file input) produce an explicit note instead of
silence.

Graph files use the library's text edge-list format
(:mod:`repro.graph.io`).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.graph import generators
from repro.graph import io as graph_io
from repro.graph.snapshot import (
    SEARCH_CAPABILITIES,
    SEARCH_MODES,
    UnsupportedSearch,
)
from repro.graph.traversal import (
    HAVE_NUMPY,
    connected_components,
    hop_diameter,
)
from repro.registry import (
    UnsupportedOption,
    algorithm_names,
    get_algorithm,
    iter_algorithms,
)
from repro.session import SpannerSession
from repro.verification import VERIFY_MODES, max_stretch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftspanner",
        description="Fault-tolerant spanner constructions (Dinitz-Robelle PODC 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build a fault-tolerant spanner")
    build.add_argument("--input", help="graph file (edge-list format)")
    build.add_argument("--random", type=int, metavar="N",
                       help="generate a G(n, p) input instead of reading a file")
    build.add_argument("--p", type=float, default=0.1,
                       help="edge probability for --random (default 0.1)")
    build.add_argument("-k", type=int, default=2,
                       help="stretch parameter: stretch = 2k-1 (default 2)")
    build.add_argument("-f", type=int, default=1,
                       help="number of faults tolerated (default 1); "
                            "constructions without fault tolerance build "
                            "with f=0 (a note is printed)")
    build.add_argument("--fault-model", choices=["vertex", "edge"],
                       default=None,
                       help="which objects fail (default vertex); noted "
                            "and ignored for non-fault-tolerant "
                            "constructions")
    build.add_argument("--algorithm", choices=algorithm_names(),
                       default="greedy",
                       help="a registered construction (see: ftspanner "
                            "algorithms)")
    build.add_argument("--search", choices=SEARCH_MODES, default=None,
                       help="weighted search engine for the CSR sweeps "
                            "(--verify): 'auto' picks per weight profile "
                            "(BFS / bucket queue / bidirectional "
                            "Dijkstra / heap); identical reports on "
                            "every legal engine.  'bucket', 'bidir' and "
                            "'batch' require integral edge weights; "
                            "'batch' sweeps many roots per frontier pass "
                            "(numpy-accelerated when available, stdlib "
                            "otherwise).  Default: REPRO_SEARCH when "
                            "set, else 'auto'.")
    build.add_argument("--seed", type=int, default=None,
                       help="random seed for --random generation and for "
                            "seeded constructions (default 0)")
    build.add_argument("--output", help="write the spanner here (edge-list)")
    build.add_argument("--verify", action="store_true",
                       help="verify the output before reporting (shares "
                            "the build's CSR snapshot)")

    verify = sub.add_parser("verify", help="verify a spanner file")
    verify.add_argument("graph", help="original graph file")
    verify.add_argument("spanner", help="candidate spanner file")
    verify.add_argument("-t", type=float, required=True, help="stretch bound")
    verify.add_argument("-f", type=int, default=0, help="fault budget")
    verify.add_argument("--fault-model", choices=["vertex", "edge"],
                        default="vertex")
    verify.add_argument("--mode", choices=sorted(VERIFY_MODES),
                        default="sweep",
                        help="verification strategy: 'sweep' enumerates "
                             "fault sets (exhaustive within budget, else "
                             "sampled); 'witness' certifies pairs with "
                             "(f+1)-disjoint-path max-flow certificates "
                             "and only sweeps the pairs left over -- same "
                             "verdict, polynomial cost (see: ftspanner "
                             "algorithms)")
    verify.add_argument("--samples", type=int, default=300)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--search", choices=SEARCH_MODES, default=None,
                        help="weighted search engine for the CSR sweep "
                             "('bucket'/'bidir'/'batch' need integral "
                             "weights); the report is identical on every "
                             "legal engine")

    oracle = sub.add_parser(
        "oracle",
        help="answer batched post-fault distance queries from a spanner",
    )
    oracle.add_argument("--input", help="graph file (edge-list format)")
    oracle.add_argument("--random", type=int, metavar="N",
                        help="generate a G(n, p) input instead of a file")
    oracle.add_argument("--p", type=float, default=0.1,
                        help="edge probability for --random (default 0.1)")
    oracle.add_argument("-k", type=int, default=2,
                        help="stretch parameter: stretch = 2k-1 (default 2)")
    oracle.add_argument("-f", type=int, default=1,
                        help="fault budget per query (default 1)")
    oracle.add_argument("--fault-model", choices=["vertex", "edge"],
                        default="vertex")
    oracle.add_argument("--pairs", type=int, default=200,
                        help="query pairs per scenario (default 200)")
    oracle.add_argument("--scenarios", type=int, default=3,
                        help="random fault scenarios to sweep (default 3)")
    oracle.add_argument("--cache-size", type=int, default=256,
                        help="single-source runs kept in the oracle LRU "
                             "(default 256)")
    oracle.add_argument("--search", choices=SEARCH_MODES, default=None,
                        help="weighted search engine for the CSR query "
                             "sweep: 'auto' resolves from the spanner's "
                             "weight profile (bucket queue on integral "
                             "weights); 'batch' answers each scenario's "
                             "query batch with one multi-source sweep "
                             "(integral weights only; numpy-accelerated "
                             "BFS planes when numpy is importable, pure "
                             "stdlib otherwise); answers are identical "
                             "on every legal engine")
    oracle.add_argument("--seed", type=int, default=0,
                        help="seed for --random generation and for "
                             "scenario/pair sampling (default 0)")

    serve = sub.add_parser(
        "serve",
        help="run the resilient serving core under an open-loop load "
             "generator (optionally with chaos injection)",
    )
    serve.add_argument("--input", help="graph file (edge-list format)")
    serve.add_argument("--random", type=int, metavar="N",
                       help="generate a G(n, p) input instead of a file")
    serve.add_argument("--p", type=float, default=0.1,
                       help="edge probability for --random (default 0.1)")
    serve.add_argument("-k", type=int, default=2,
                       help="stretch parameter: stretch = 2k-1 (default 2)")
    serve.add_argument("-f", type=int, default=1,
                       help="fault budget per request scenario (default 1)")
    serve.add_argument("--fault-model", choices=["vertex", "edge"],
                       default="vertex")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes in the pool (default 2)")
    serve.add_argument("--deadline-ms", type=float, default=2000.0,
                       help="per-request latency budget in milliseconds "
                            "(default 2000); expiry raises a typed "
                            "DeadlineExceeded carrying partial results")
    serve.add_argument("--requests", type=int, default=50,
                       help="requests the load generator issues "
                            "(default 50)")
    serve.add_argument("--rate", type=float, default=None,
                       help="open-loop arrival rate in requests/second "
                            "(default: back-to-back closed loop)")
    serve.add_argument("--pairs", type=int, default=8,
                       help="distance pairs per request (default 8)")
    serve.add_argument("--fault-process",
                       choices=["independent", "clustered", "cascade"],
                       default="independent",
                       help="per-request fault-scenario generator: "
                            "'independent' uniform draws, 'clustered' "
                            "neighbor-contagion sampling, or 'cascade' "
                            "load-redistribution chain failures (default "
                            "independent)")
    serve.add_argument("--chaos-rate", type=float, default=0.0,
                       help="probability a dispatched shard's worker is "
                            "SIGKILLed mid-request (default 0: healthy)")
    serve.add_argument("--stall-rate", type=float, default=0.0,
                       help="probability a dispatched shard's worker "
                            "stalls before answering (default 0)")
    serve.add_argument("--stall-ms", type=float, default=50.0,
                       help="stall duration in milliseconds (default 50)")
    serve.add_argument("--spawn-fail-rate", type=float, default=0.0,
                       help="probability an injected spawn failure "
                            "rejects a worker (re)spawn (default 0)")
    serve.add_argument("--no-degrade", action="store_true",
                       help="raise ServingUnavailable instead of "
                            "degrading to in-process execution when the "
                            "pool is unusable")
    serve.add_argument("--search", choices=SEARCH_MODES, default=None,
                       help="weighted search engine for the workers' "
                            "sweeps (identical answers on every legal "
                            "engine)")
    serve.add_argument("--seed", type=int, default=0,
                       help="seed for --random generation, the workload, "
                            "and the chaos schedule (default 0)")

    churn = sub.add_parser(
        "churn",
        help="stream edge updates through a spanner session (delta "
             "overlays + compaction) and probe distances during churn",
    )
    churn.add_argument("--input", help="graph file (edge-list format)")
    churn.add_argument("--random", type=int, metavar="N",
                       help="generate a G(n, p) input instead of a file")
    churn.add_argument("--p", type=float, default=0.1,
                       help="edge probability for --random (default 0.1)")
    churn.add_argument("-k", type=int, default=2,
                       help="stretch parameter: stretch = 2k-1 (default 2)")
    churn.add_argument("-f", type=int, default=1,
                       help="fault budget for the build (default 1)")
    churn.add_argument("--steps", type=int, default=200,
                       help="insert steps of the sliding-window churn "
                            "stream (default 200); deletes ride along "
                            "once the window is full")
    churn.add_argument("--window", type=int, default=25,
                       help="max live churn edges at any time (default 25)")
    churn.add_argument("--weights", choices=["unit", "int", "float"],
                       default="unit",
                       help="weight profile of inserted edges (default "
                            "unit)")
    churn.add_argument("--batch", type=int, default=20,
                       help="ops applied per update batch (default 20)")
    churn.add_argument("--compact-every", type=int, default=None,
                       help="compact the overlay after this many "
                            "effective updates (default: density-driven "
                            "auto mode only)")
    churn.add_argument("--max-density", type=float, default=0.25,
                       help="auto-compact once overlay churn exceeds "
                            "this fraction of the base epoch's edges "
                            "(default 0.25; 0 disables)")
    churn.add_argument("--probes", type=int, default=5,
                       help="distance probes checked per batch "
                            "(default 5)")
    churn.add_argument("--search", choices=SEARCH_MODES, default=None,
                       help="weighted search engine for the probes")
    churn.add_argument("--seed", type=int, default=0,
                       help="seed for --random generation, the churn "
                            "stream, and probe sampling (default 0)")

    distributed_names = tuple(
        spec.name for spec in iter_algorithms() if spec.distributed
    )
    distributed = sub.add_parser(
        "distributed",
        help="run a LOCAL/CONGEST construction on the round simulator",
    )
    distributed.add_argument("--input", help="graph file (edge-list format)")
    distributed.add_argument("--random", type=int, metavar="N",
                             help="generate a G(n, p) input instead of a "
                                  "file")
    distributed.add_argument("--p", type=float, default=0.1,
                             help="edge probability for --random "
                                  "(default 0.1)")
    distributed.add_argument("-k", type=int, default=2,
                             help="stretch parameter: stretch = 2k-1 "
                                  "(default 2)")
    distributed.add_argument("-f", type=int, default=1,
                             help="fault budget (default 1); non-fault-"
                                  "tolerant protocols run with f=0 (a "
                                  "note is printed)")
    distributed.add_argument("--fault-model", choices=["vertex", "edge"],
                             default=None,
                             help="which objects fail (default vertex); "
                                  "noted and ignored for non-fault-"
                                  "tolerant protocols")
    distributed.add_argument("--algorithm", choices=distributed_names,
                             default="local",
                             help="a distributed construction from the "
                                  "registry (default local)")
    distributed.add_argument("--workers", type=int, default=None,
                             help="partition worker processes for the "
                                  "round engine (default: in-process "
                                  "sequential execution; any value is "
                                  "bit-identical)")
    distributed.add_argument("--seed", type=int, default=None,
                             help="random seed for --random generation "
                                  "and the protocol's randomness "
                                  "(default 0)")
    distributed.add_argument("--deterministic", action="store_true",
                             help="use the deterministic ruling-set "
                                  "decomposition instead of random "
                                  "shifts (derandomizable protocols "
                                  "only; see: ftspanner algorithms)")

    algorithms = sub.add_parser(
        "algorithms",
        help="list the registered constructions and their capabilities",
    )
    algorithms.add_argument("--verbose", action="store_true",
                            help="also print each algorithm's summary line")

    info = sub.add_parser("info", help="print graph statistics")
    info.add_argument("graph", help="graph file")

    sub.add_parser("demo", help="run a small end-to-end demo")
    return parser


def _load_or_generate(args, seed: int = 0) -> "Graph":
    if args.input and args.random:
        raise SystemExit("give --input or --random, not both")
    if args.input:
        return graph_io.load(args.input)
    if args.random:
        return generators.gnp_random_graph(args.random, args.p, seed=seed)
    raise SystemExit("need --input FILE or --random N")


def _cmd_build(args) -> int:
    spec = get_algorithm(args.algorithm)
    f = args.f
    if f and not spec.fault_tolerant:
        print(f"note: '{spec.name}' is not fault-tolerant; building with "
              f"f=0 instead of f={f}")
        f = 0
    fault_model = args.fault_model or "vertex"
    if args.fault_model is not None and not spec.fault_tolerant:
        print(f"note: '{spec.name}' is not fault-tolerant; ignoring "
              f"--fault-model {args.fault_model}")
    # Pre-flight the request against the algorithm's spec -- the same
    # validation (and messages) build_spanner applies, run here so a
    # capability error fails before the graph is loaded or generated.
    # Mirrors session.build's routing: the fault model travels only to
    # fault-tolerant constructions (with the note above when an
    # explicit choice is dropped).
    try:
        spec.validate_request(
            f=f,
            fault_model=fault_model if spec.fault_tolerant else None,
        )
    except UnsupportedOption as exc:
        raise SystemExit(f"ftspanner build: error: {exc}")
    seed = 0 if args.seed is None else args.seed
    # With a file input and a deterministic construction the seed's only
    # remaining consumer is the --verify sampled sweep; without that it
    # does nothing at all, which deserves a note.
    if (args.seed is not None and args.input and not spec.seedable
            and not args.verify):
        print(f"note: '{spec.name}' is deterministic; --seed {args.seed} "
              f"has no effect on a file input without --verify")
    g = _load_or_generate(args, seed=seed)
    session = SpannerSession(
        g, k=args.k, f=f, fault_model=fault_model,
        seed=seed, search=args.search,
    )
    start = time.perf_counter()
    try:
        result = session.build(args.algorithm)
    except UnsupportedOption as exc:
        # Graph-dependent capability errors (e.g. a weighted file fed
        # to a unit-only construction) surface only once the input is
        # loaded; keep them clean usage errors, not tracebacks.
        raise SystemExit(f"ftspanner build: error: {exc}")
    elapsed = time.perf_counter() - start
    print(result.describe())
    print(f"input edges: {g.num_edges}   kept: "
          f"{result.spanner.num_edges} "
          f"({100.0 * result.compression_ratio(g):.1f}%)   "
          f"time: {elapsed:.3f}s")
    if args.verify:
        try:
            # samples=300: keep the historical sampled fallback on
            # builds too big for the exhaustive sweep.
            report = session.verify(t=2 * args.k - 1, samples=300)
        except UnsupportedSearch as exc:
            raise SystemExit(f"ftspanner build: error: {exc}")
        kind = "exhaustive" if report.exhaustive else "sampled"
        print(f"verification ({kind}, {report.fault_sets_checked} fault sets): "
              f"{'OK' if report.ok else 'FAILED'}")
        if not report.ok:
            print(f"  counterexample: {report.counterexample}")
            return 1
    if args.output:
        graph_io.save(result.spanner, args.output)
        print(f"spanner written to {args.output}")
    return 0


def _cmd_verify(args) -> int:
    g = graph_io.load(args.graph)
    h = graph_io.load(args.spanner)
    session = SpannerSession(
        g, f=args.f, fault_model=args.fault_model,
        seed=args.seed, search=args.search,
    )
    session.adopt(h)
    try:
        report = session.verify(
            t=args.t, samples=args.samples, mode=args.mode
        )
    except UnsupportedSearch as exc:
        raise SystemExit(f"ftspanner verify: error: {exc}")
    kind = "exhaustive" if report.exhaustive else "sampled"
    if report.mode == "witness":
        print(f"witnessed {report.pairs_witnessed}/{report.pairs_checked} "
              f"pairs; {report.fault_sets_checked} fallback fault sets "
              f"({kind})")
    else:
        print(f"checked {report.fault_sets_checked} fault sets ({kind})")
    if report.ok:
        print("OK: spanner property holds on everything checked")
        return 0
    print(f"FAILED: {report.counterexample}")
    return 1


def _cmd_oracle(args) -> int:
    import math
    import random

    g = _load_or_generate(args, seed=args.seed)
    session = SpannerSession(
        g, k=args.k, f=args.f, fault_model=args.fault_model,
        seed=args.seed, search=args.search,
    )
    start = time.perf_counter()
    session.build("greedy")
    try:
        oracle = session.oracle(cache_size=args.cache_size)
    except UnsupportedSearch as exc:
        raise SystemExit(f"ftspanner oracle: error: {exc}")
    build = time.perf_counter() - start
    print(f"oracle over {oracle.size} spanner edges "
          f"(stretch guarantee {oracle.stretch}, f={args.f}): "
          f"built in {build:.3f}s")
    rng = random.Random(args.seed)
    nodes = sorted(g.nodes(), key=repr)
    # Vertex faults remove nodes from the survivor pool; edge faults
    # don't, so there only the two pair endpoints are needed.
    needed = max(args.f, 0) + 2 if args.fault_model == "vertex" else 2
    if len(nodes) < needed:
        raise SystemExit("ftspanner oracle: error: graph too small "
                         "for that fault budget")
    edges = list(g.edges())
    total = 0
    answered_finite = 0
    query_time = 0.0
    for s in range(args.scenarios):
        if args.f <= 0:
            faults = []
        elif args.fault_model == "vertex":
            faults = rng.sample(nodes, min(args.f, len(nodes) - 2))
        else:
            faults = rng.sample(edges, min(args.f, len(edges)))
        fault_set = set(faults)
        survivors = (
            [x for x in nodes if x not in fault_set]
            if args.fault_model == "vertex" else nodes
        )
        pairs = [tuple(rng.sample(survivors, 2)) for _ in range(args.pairs)]
        start = time.perf_counter()
        answers = oracle.distances(pairs, faults=faults)
        query_time += time.perf_counter() - start
        total += len(answers)
        answered_finite += sum(1 for d in answers if not math.isinf(d))
    rate = f" ({total / query_time:.0f} queries/s)" if query_time > 0 else ""
    print(f"answered {total} queries across {args.scenarios} scenarios "
          f"in {query_time:.3f}s{rate}")
    print(f"reachable under faults: {answered_finite}/{total}")
    return 0


def _cmd_serve(args) -> int:
    from repro.serving import ChaosPolicy, ServingConfig, run_load

    g = _load_or_generate(args, seed=args.seed)
    session = SpannerSession(
        g, k=args.k, f=args.f, fault_model=args.fault_model,
        seed=args.seed, search=args.search,
    )
    start = time.perf_counter()
    session.build("greedy")
    build = time.perf_counter() - start
    chaos = None
    if args.chaos_rate or args.stall_rate or args.spawn_fail_rate:
        try:
            chaos = ChaosPolicy(
                args.seed,
                kill_rate=args.chaos_rate,
                stall_rate=args.stall_rate,
                stall_seconds=args.stall_ms / 1e3,
                spawn_fail_rate=args.spawn_fail_rate,
            )
        except ValueError as exc:
            raise SystemExit(f"ftspanner serve: error: {exc}")
    try:
        config = ServingConfig(
            workers=args.workers,
            deadline=args.deadline_ms / 1e3,
            degrade=not args.no_degrade,
        )
    except ValueError as exc:
        raise SystemExit(f"ftspanner serve: error: {exc}")
    try:
        server = session.serve(config=config, chaos=chaos)
    except UnsupportedSearch as exc:
        raise SystemExit(f"ftspanner serve: error: {exc}")
    with server:
        print(f"serving {session.result.spanner.num_edges} spanner edges "
              f"over {server.live_workers} worker(s) "
              f"(built in {build:.3f}s; deadline "
              f"{args.deadline_ms:.0f}ms"
              + (f"; chaos seed {args.seed}" if chaos else "")
              + ")")
        try:
            report = run_load(
                server,
                requests=args.requests,
                rate=args.rate,
                pairs_per_request=args.pairs,
                failures=args.f,
                fault_model=args.fault_model,
                fault_process=args.fault_process,
                seed=args.seed,
            )
        except ValueError as exc:
            raise SystemExit(f"ftspanner serve: error: {exc}")
    print(f"requests: {report.completed}/{report.requests} completed, "
          f"{report.deadline_errors} deadline-exceeded, "
          f"{report.unavailable} unavailable")
    print(f"throughput: {report.throughput_rps:.1f} req/s   "
          f"latency p50 {report.p50_ms:.2f}ms  p99 {report.p99_ms:.2f}ms")
    s = report.stats
    print(f"resilience: {s['retries']} retries, {s['worker_deaths']} "
          f"worker deaths, {s['respawns']} respawns, "
          f"{s['spawn_rejections']} spawn rejections, "
          f"{s['degraded_shards']} degraded shards")
    print(f"parity vs in-process sweep: "
          f"{'OK (bit-identical)' if report.parity_ok else 'FAILED'}")
    return 0 if report.parity_ok else 1


def _cmd_churn(args) -> int:
    import random as _random

    from repro.graph.traversal import dijkstra

    g = _load_or_generate(args, seed=args.seed)
    session = SpannerSession(
        g, k=args.k, f=args.f, seed=args.seed, search=args.search,
    )
    start = time.perf_counter()
    session.build("greedy")
    build = time.perf_counter() - start
    ops = generators.sliding_window_churn(
        g, steps=args.steps, window=args.window, seed=args.seed,
        weights=args.weights,
    )
    print(f"built {session.result.spanner.num_edges}-edge spanner in "
          f"{build:.3f}s; streaming {len(ops)} ops "
          f"({args.steps} inserts, window {args.window}, "
          f"{args.weights} weights) in batches of {args.batch}")
    rng = _random.Random(args.seed)
    h = session.result.spanner
    oracle = session.oracle()
    checked = 0
    mismatches = 0
    start = time.perf_counter()
    for lo in range(0, len(ops), max(1, args.batch)):
        batch = ops[lo:lo + max(1, args.batch)]
        try:
            session.apply_updates(
                batch,
                compact_every=args.compact_every,
                max_density=args.max_density or None,
            )
        except UnsupportedSearch as exc:
            raise SystemExit(f"ftspanner churn: error: {exc}")
        nodes = sorted(h.nodes(), key=repr)
        for _ in range(args.probes):
            u, v = rng.sample(nodes, 2)
            got = oracle.distance(u, v)
            want = dijkstra(h, u, target=v).get(v, float("inf"))
            checked += 1
            if got != want:
                mismatches += 1
    elapsed = time.perf_counter() - start
    print(f"applied {len(ops)} ops in {elapsed:.3f}s "
          f"({len(ops) / elapsed:.0f} ops/s including probes)")
    stats = session.churn_stats()
    if stats is not None:
        for side in ("g", "h"):
            s = stats[side]
            print(f"  {side.upper()}: {s['effective']:.0f} effective "
                  f"updates, {s['compactions']:.0f} compactions, "
                  f"overlay depth {s['overlay_depth']:.0f}, "
                  f"density {s['density']:.3f}, "
                  f"{s['live_edges']:.0f} live edges")
    print(f"probe parity vs dict Dijkstra: "
          f"{checked - mismatches}/{checked} identical "
          f"({'OK' if mismatches == 0 else 'FAILED'})")
    return 0 if mismatches == 0 else 1


def _cmd_distributed(args) -> int:
    from repro.registry import build_spanner

    spec = get_algorithm(args.algorithm)
    f = args.f
    if f and not spec.fault_tolerant:
        print(f"note: '{spec.name}' is not fault-tolerant; running with "
              f"f=0 instead of f={f}")
        f = 0
    fault_model = args.fault_model or "vertex"
    if args.fault_model is not None and not spec.fault_tolerant:
        print(f"note: '{spec.name}' is not fault-tolerant; ignoring "
              f"--fault-model {args.fault_model}")
    options = {}
    if args.workers is not None:
        if args.workers < 1:
            raise SystemExit(
                "ftspanner distributed: error: --workers must be >= 1"
            )
        options["workers"] = args.workers
    if args.deterministic:
        if "deterministic" not in spec.extra_options:
            raise SystemExit(
                f"ftspanner distributed: error: '{spec.name}' has no "
                f"deterministic mode (derandomizable protocols are "
                f"tagged in: ftspanner algorithms)"
            )
        options["deterministic"] = True
    seed = 0 if args.seed is None else args.seed
    try:
        spec.validate_request(
            f=f,
            fault_model=fault_model if spec.fault_tolerant else None,
            seed=seed if spec.seedable else None,
            options=options,
        )
    except UnsupportedOption as exc:
        raise SystemExit(f"ftspanner distributed: error: {exc}")
    g = _load_or_generate(args, seed=seed)
    start = time.perf_counter()
    try:
        result = build_spanner(
            g,
            args.algorithm,
            k=args.k,
            f=f,
            fault_model=fault_model if spec.fault_tolerant else None,
            seed=seed if spec.seedable else None,
            **options,
        )
    except UnsupportedOption as exc:
        raise SystemExit(f"ftspanner distributed: error: {exc}")
    elapsed = time.perf_counter() - start
    print(result.describe())
    mode = (
        f"{args.workers} partition workers"
        if args.workers is not None else "sequential in-process"
    )
    print(f"simulator: {result.rounds} rounds ({mode})   "
          f"time: {elapsed:.3f}s")
    print(f"input edges: {g.num_edges}   kept: {result.spanner.num_edges} "
          f"({100.0 * result.compression_ratio(g):.1f}%)")
    extra = result.extra or {}
    interesting = (
        "messages", "max_message_words", "num_partitions",
        "instances_run", "edge_congestion", "deterministic",
        "uncovered_direct",
    )
    shown = [
        f"{key}={extra[key]:g}" for key in interesting if key in extra
    ]
    if shown:
        print("measured: " + "  ".join(shown))
    return 0


def _cmd_algorithms(args) -> int:
    width = max(len(name) for name in algorithm_names())
    for spec in iter_algorithms():
        print(f"{spec.name:<{width}}  {spec.guarantee}")
        if args.verbose:
            print(f"{'':<{width}}  {spec.summary}")
        print(f"{'':<{width}}  {spec.capabilities()}")
    print()
    print("search engines (--search; CSR execution policy):")
    sw = max(len(name) for name in SEARCH_CAPABILITIES)
    for name, constraint in SEARCH_CAPABILITIES.items():
        print(f"  {name:<{sw}}  {constraint}")
    print(f"  {'':<{sw}}  numpy batch acceleration: "
          f"{'available' if HAVE_NUMPY else 'NOT importable'} on this "
          f"interpreter (REPRO_BATCH_ACCEL=numpy "
          f"{'honored' if HAVE_NUMPY else 'would be a typed error'}; "
          f"'auto' always falls back to stdlib)")
    print()
    print("verification modes (verify --mode):")
    vw = max(len(name) for name in VERIFY_MODES)
    for name, description in VERIFY_MODES.items():
        print(f"  {name:<{vw}}  {description}")
    return 0


def _cmd_info(args) -> int:
    from repro.graph.metrics import DegreeStats, average_clustering, weight_stats

    g = graph_io.load(args.graph)
    components = connected_components(g)
    degrees = DegreeStats.of(g)
    print(f"nodes:      {g.num_nodes}")
    print(f"edges:      {g.num_edges}")
    print(f"components: {len(components)}")
    print(f"degrees:    min {degrees.minimum}  median {degrees.median}  "
          f"mean {degrees.mean:.2f}  max {degrees.maximum}")
    print(f"density:    {g.density():.4f}")
    if g.num_nodes <= 500:
        print(f"clustering: {average_clustering(g):.3f}")
    if len(components) == 1 and g.num_nodes <= 2000:
        print(f"hop diameter: {hop_diameter(g)}")
    unit = g.is_unit_weighted()
    print(f"weighted:   {'no' if unit else 'yes'}")
    if not unit:
        lo, mean, hi = weight_stats(g)
        print(f"weights:    min {lo:.3g}  mean {mean:.3g}  max {hi:.3g}")
    return 0


def _cmd_demo(args) -> int:
    print("Building a 2-fault-tolerant 3-spanner of G(80, 0.15)...")
    g = generators.gnp_random_graph(80, 0.15, seed=42)
    session = SpannerSession(g, k=2, f=2, seed=0)
    result = session.build("greedy")
    print(f"  {result.describe()}")
    print(f"  kept {result.spanner.num_edges} of {g.num_edges} edges "
          f"({100.0 * result.compression_ratio(g):.1f}%)")
    stretch = max_stretch(g, result.spanner)
    print(f"  fault-free stretch: {stretch:.3f} (guarantee: 3)")
    report = session.verify(samples=200)
    kind = "exhaustive" if report.exhaustive else "sampled"
    print(f"  fault-tolerance verification ({kind}): "
          f"{'OK' if report.ok else 'FAILED'}")
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (also installed as the ``ftspanner`` script)."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "build": _cmd_build,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
        "serve": _cmd_serve,
        "churn": _cmd_churn,
        "distributed": _cmd_distributed,
        "algorithms": _cmd_algorithms,
        "info": _cmd_info,
        "demo": _cmd_demo,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
