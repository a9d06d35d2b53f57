"""The Dinitz-Krauthgamer sampling reduction [DK11] (Theorem 13).

A black-box reduction from fault-tolerant to ordinary spanners: run
``O(f^3 log n)`` iterations; in each, every vertex participates
independently with probability ``1/f`` (probability 1 when f = 1 would
degenerate, so f = 1 uses p = 1/2 over more iterations -- any constant
works); build a non-fault-tolerant (2k-1)-spanner of the induced subgraph
with any algorithm A; return the union.

With ``g(n) = n^(1+1/k)`` (e.g. A = classic greedy) the union is an
f-VFT (2k-1)-spanner with ``O(f^(2-1/k) n^(1+1/k) log n)`` edges whp.

The paper's CONGEST construction (Theorem 15) is exactly this reduction
with A = distributed Baswana-Sen; this centralized version (default
A = classic greedy) is the baseline of experiment E12 and the oracle the
distributed implementation is tested against.

Execution: the reduction itself is representation-agnostic glue (it
only samples vertex sets and unions edge sets); the inner algorithm A
runs on its own substrate -- the default A,
:func:`classic_greedy_spanner`, uses CSR Dijkstra.  Cost: O(f^3 log n)
invocations of A on subgraphs of expected size n/f.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional, Union

from repro.baselines.greedy_classic import classic_greedy_spanner
from repro.core.spanner import FaultModel, SpannerResult
from repro.graph.graph import Graph
from repro.registry import register_algorithm

RngLike = Union[int, random.Random, None]

SpannerAlgorithm = Callable[[Graph, int], Graph]


@register_algorithm(
    "dk",
    summary="The [DK11] black-box sampling reduction (Theorem 13)",
    guarantee="stretch 2k-1 w.h.p., O(f^3 log n) sampled sub-instances",
    fault_models=("vertex",),
    min_f=1,
    seedable=True,
)
def dk_fault_tolerant_spanner(
    g: Graph,
    k: int,
    f: int,
    seed: RngLike = None,
    iterations: Optional[int] = None,
    iteration_constant: float = 1.0,
    base_algorithm: Optional[SpannerAlgorithm] = None,
) -> SpannerResult:
    """Build an f-VFT (2k-1)-spanner by the [DK11] sampling reduction.

    Parameters
    ----------
    iterations:
        Overrides the default ``ceil(iteration_constant * f^3 * ln n)``
        count.  The theorem needs Theta(f^3 log n) for the
        high-probability guarantee; experiments may lower the constant
        and report the observed failure rate instead.
    base_algorithm:
        A function ``(graph, k) -> spanner_graph`` used on each sampled
        induced subgraph; defaults to the classic greedy (optimal
        ``g(n) = O(n^(1+1/k))``).
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if f < 1:
        raise ValueError(f"need f >= 1, got {f}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = g.num_nodes
    if base_algorithm is None:
        base_algorithm = lambda sub, kk: classic_greedy_spanner(sub, kk).spanner
    if iterations is None:
        iterations = max(
            1, math.ceil(iteration_constant * f ** 3 * math.log(max(n, 2)))
        )
    # Participation probability 1/f.  For f = 1 that would be 1, which
    # breaks the analysis (a fault set is then never excluded from any
    # iteration); any constant in (0, 1) works there, and 1/2 keeps the
    # success probability per iteration at p^2 (1 - p) = 1/8.
    p = 1.0 / f if f > 1 else 0.5

    h = g.spanning_skeleton()
    nodes = sorted(g.nodes(), key=repr)
    for _ in range(iterations):
        participants = [v for v in nodes if rng.random() < p]
        if len(participants) < 2:
            continue
        sub = g.subgraph(participants)
        spanner = base_algorithm(sub, k)
        for u, v in spanner.edges():
            if not h.has_edge(u, v):
                h.add_edge(u, v, weight=g.weight(u, v))
    return SpannerResult(
        spanner=h,
        k=k,
        f=f,
        fault_model=FaultModel.VERTEX,
        algorithm="dinitz-krauthgamer",
        edges_considered=g.num_edges,
        extra={"iterations": float(iterations)},
    )
