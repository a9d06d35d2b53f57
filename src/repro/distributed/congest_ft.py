"""Theorem 15: fault-tolerant spanners in the CONGEST model.

The construction composes the [DK11] sampling reduction with the
Theorem 14 CONGEST Baswana-Sen protocol:

* **Phase 1 (iteration exchange).**  Each vertex independently selects
  each of the ``N = O(f^3 log n)`` Dinitz-Krauthgamer iterations with
  probability ``1/f`` and sends its selection list to every neighbor.
  Whp each list has ``O(f^2 log n)`` entries; since an iteration index
  needs only ``O(log f + log log n)`` bits, ``Theta(log n / (log f +
  log log n))`` indices pack into each O(log n)-bit message, giving
  ``O(f^2 (log f + log log n))`` rounds.
* **Phase 2 (pipelined Baswana-Sen).**  All N iterations run Baswana-Sen
  simultaneously; whp at most ``O(f log n)`` iterations contain both
  endpoints of any edge, so scheduling each Baswana-Sen time step in
  ``O(f log n)`` simulator rounds absorbs the congestion, for
  ``O(k^2 f log n)`` rounds total.

Simulation note (documented in DESIGN.md): the engine executes the N
Baswana-Sen instances *serially* -- each on the subgraph induced by that
iteration's participants -- and computes the pipelined schedule length
exactly as the paper's scheduler would realize it:

    ``phase2_rounds = (max rounds of any instance) * (max per-edge
    congestion, i.e. the largest number of iterations sharing an edge)``

Both factors are *measured*, not assumed, so the reported round count is
the honest schedule length of the parallel execution; Theorem 15
predicts it is ``O(k^2 f log n)`` whp.  Message sizes inside each
instance are still enforced by the CONGEST engine.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.core.spanner import FaultModel, SpannerResult
from repro.distributed.congest_bs import congest_baswana_sen
from repro.graph.graph import Graph, Node
from repro.registry import register_algorithm

RngLike = Union[int, random.Random, None]


def _induced(g: Graph, participants: Tuple[Node, ...]) -> Graph:
    """``G[participants]`` with nodes inserted in participants order.

    ``Graph.subgraph`` inserts in ``set`` order, which for string labels
    depends on ``PYTHONHASHSEED``; the instance's spanner inherits its
    subgraph's node order, so the order is pinned here.
    """
    rank = {v: i for i, v in enumerate(participants)}
    sub = Graph()
    sub.add_nodes(participants)
    for i, u in enumerate(participants):
        for v, w in g.neighbor_items(u):
            # Each edge once, from its earlier endpoint.
            if rank.get(v, -1) > i:
                sub.add_edge(u, v, weight=w)
    return sub


def _instance_executor(g: Graph, k: int, congest_word_limit: int):
    """Executor factory for instance workers (substrate pool).

    Each worker holds the input graph and answers ``("bs", [(
    participants, seed), ...])`` jobs: run a contiguous slice of
    Baswana-Sen instances on their induced subgraphs and return each
    instance's measured costs plus its spanner edges *in the instance's
    own edge order*, so the parent's merge reproduces the serial loop's
    insertion order exactly.  One job per worker (not per instance)
    keeps the pipe round-trips independent of the instance count.
    """

    def executor(kind: str, payload):
        if kind != "bs":
            raise ValueError(f"unknown instance request kind {kind!r}")
        out = []
        for participants, inst_seed in payload:
            sub = _induced(g, participants)
            result = congest_baswana_sen(
                sub, k, seed=inst_seed,
                congest_word_limit=congest_word_limit,
            )
            out.append(
                (
                    result.rounds or 0,
                    int(result.extra["max_message_words"]),
                    list(result.spanner.edges()),
                )
            )
        return out

    return executor


def _run_instances(
    g: Graph,
    k: int,
    congest_word_limit: int,
    instances: List[Tuple[Tuple[Node, ...], int]],
    workers: Optional[int],
) -> List[Tuple[int, int, List[Tuple[Node, Node]]]]:
    """Run the qualifying Baswana-Sen instances, serially or pooled.

    Instances are pure functions of ``(participants, seed)`` --
    idempotent, so the substrate's retry-on-worker-death semantics are
    sound -- and results come back in instance order either way, so the
    spanner union is bit-identical for every ``workers`` value.  The
    pooled path shards the instance list into one contiguous slice per
    worker (instances all have ~n/f participants, so contiguous slices
    are balanced) and reassembles the slices in order.
    """
    if workers is None:
        return _instance_executor(g, k, congest_word_limit)(
            "bs", instances
        )

    from repro.parallel.dispatch import Dispatcher, Job
    from repro.parallel.pool import WorkerPool

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not instances:
        return []
    shards = min(workers, len(instances))
    chunk = math.ceil(len(instances) / shards)
    slices = [
        instances[i:i + chunk] for i in range(0, len(instances), chunk)
    ]
    pool = WorkerPool(
        _instance_executor, (g, k, congest_word_limit), shards
    )
    try:
        pool.start()
        dispatcher = Dispatcher(pool, deadline=600.0, max_retries=2)
        jobs = [Job("bs", s, i) for i, s in enumerate(slices)]
        dispatcher.dispatch(jobs)
        out: List[Tuple[int, int, List[Tuple[Node, Node]]]] = []
        for job in jobs:
            out.extend(job.result)
        return out
    finally:
        pool.close()


@register_algorithm(
    "congest",
    summary="Theorem 15: pipelined DK11 x Baswana-Sen in CONGEST",
    guarantee="stretch 2k-1 w.h.p., O(f^3 k^2 log n) CONGEST rounds",
    fault_models=("vertex",),
    min_f=1,
    seedable=True,
    distributed=True,
)
def congest_ft_spanner(
    g: Graph,
    k: int,
    f: int,
    seed: RngLike = None,
    iterations: Optional[int] = None,
    iteration_constant: float = 1.0,
    congest_word_limit: int = 8,
    workers: Optional[int] = None,
) -> SpannerResult:
    """Run the Theorem 15 CONGEST fault-tolerant spanner construction.

    Parameters mirror :func:`repro.baselines.dinitz_krauthgamer.
    dk_fault_tolerant_spanner`; ``iterations`` defaults to
    ``ceil(iteration_constant * f^3 * ln n)``.

    Returns a :class:`SpannerResult` whose ``rounds`` is the pipelined
    schedule length (phase 1 + phase 2, see module docs) and whose
    ``extra`` carries every measured component: per-instance round
    maxima, realized edge congestion, selection-list maxima, and the
    packing factor.

    ``workers`` distributes the independent Baswana-Sen instances over
    that many substrate worker processes (the instances are the
    embarrassingly parallel axis of the construction).  Per-instance
    seeds are drawn up front in the serial loop's exact order, so the
    result is bit-identical to ``workers=None``.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if f < 1:
        raise ValueError(f"need f >= 1, got {f}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = g.num_nodes
    if n == 0:
        return SpannerResult(
            spanner=g.spanning_skeleton(),
            k=k,
            f=f,
            fault_model=FaultModel.VERTEX,
            algorithm="congest-ft",
            rounds=0,
        )
    if iterations is None:
        iterations = max(
            1, math.ceil(iteration_constant * f ** 3 * math.log(max(n, 2)))
        )
    p = 1.0 / f if f > 1 else 0.5

    # --- Phase 1: per-node iteration selection + exchange cost. --------
    nodes = sorted(g.nodes(), key=repr)
    selections: Dict[Node, Set[int]] = {
        v: {i for i in range(iterations) if rng.random() < p} for v in nodes
    }
    max_list = max((len(s) for s in selections.values()), default=0)
    # Bit packing: an index into [iterations] costs ceil(log2 N) bits; a
    # CONGEST word is Theta(log2 n) bits; a message is
    # `congest_word_limit` words.
    index_bits = max(1, math.ceil(math.log2(max(iterations, 2))))
    word_bits = max(1, math.ceil(math.log2(max(n, 2))))
    per_message = max(1, (congest_word_limit * word_bits) // index_bits)
    phase1_rounds = math.ceil(max_list / per_message) if max_list else 0

    # --- Phase 2: run every iteration's Baswana-Sen instance. ----------
    # Qualifying instances and their seeds are materialized first, with
    # the seed drawn in the serial loop's exact order (only qualifying
    # instances consume one), so the pooled path replays the identical
    # randomness.
    instances: List[Tuple[Tuple[Node, ...], int]] = []
    for i in range(iterations):
        participants = [v for v in nodes if i in selections[v]]
        if len(participants) < 2:
            continue
        # The instance runs only if its induced subgraph has an edge;
        # the workers build that subgraph, the parent just scans.
        members = set(participants)
        if not any(
            u in members for v in participants for u in g.neighbors(v)
        ):
            continue
        instances.append((tuple(participants), rng.getrandbits(32)))

    h = g.spanning_skeleton()
    max_instance_rounds = 0
    max_message_words = 0
    instance_count = len(instances)
    for rounds, words, edges in _run_instances(
        g, k, congest_word_limit, instances, workers
    ):
        max_instance_rounds = max(max_instance_rounds, rounds)
        max_message_words = max(max_message_words, words)
        for u, v in edges:
            if not h.has_edge(u, v):
                h.add_edge(u, v, weight=g.weight(u, v))

    # Realized per-edge congestion: iterations sharing both endpoints.
    congestion = 0
    for u, v in g.edges():
        shared = len(selections[u] & selections[v])
        congestion = max(congestion, shared)
    phase2_rounds = max_instance_rounds * max(congestion, 1)

    total_rounds = phase1_rounds + phase2_rounds
    return SpannerResult(
        spanner=h,
        k=k,
        f=f,
        fault_model=FaultModel.VERTEX,
        algorithm="congest-ft",
        rounds=total_rounds,
        extra={
            "iterations": float(iterations),
            "instances_run": float(instance_count),
            "phase1_rounds": float(phase1_rounds),
            "phase2_rounds": float(phase2_rounds),
            "max_instance_rounds": float(max_instance_rounds),
            "edge_congestion": float(congestion),
            "max_selection_list": float(max_list),
            "indices_per_message": float(per_message),
            "max_message_words": float(max_message_words),
        },
    )
