"""Reference verification and stretch measurement over lazy fault views.

:func:`verify_ft_spanner` is the fault-set sweep (``mode="sweep"``)
with one fresh pair of ``G \\ F`` / ``H \\ F`` views per fault set and
dict BFS/Dijkstra probes.  It enumerates the same fault sets in the same
order as the production sweep (the enumeration helpers are shared), so
reports -- counterexample included -- must be identical.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, List, Optional, Tuple

from repro.graph.graph import Edge, Graph, Node, edge_key
from repro.graph.traversal import bounded_bfs_path, dijkstra
from repro.graph.views import EdgeFaultView, VertexFaultView, fault_view
from repro.verification.spanner_check import (
    Counterexample,
    SweepBudgetExceeded,
    VerificationReport,
    _adversarial_fault_sets,
    _all_fault_sets,
    _comb,
    _fault_universe,
)
from repro.verification.stretch import stretch_of_pair

INFINITY = math.inf


def verify_ft_spanner(
    g: Graph,
    h: Graph,
    t: float,
    f: int,
    fault_model: str = "vertex",
    exhaustive_budget: int = 50_000,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> VerificationReport:
    if fault_model not in ("vertex", "edge"):
        raise ValueError(f"unknown fault model {fault_model!r}")
    universe = _fault_universe(g, fault_model)
    unit = g.is_unit_weighted()
    total = sum(_comb(len(universe), size) for size in range(f + 1))
    if total <= exhaustive_budget:
        fault_sets: Iterable = _all_fault_sets(universe, f)
        exhaustive = True
    elif samples is None:
        raise SweepBudgetExceeded(total, exhaustive_budget)
    else:
        fault_sets = _adversarial_fault_sets(
            g, h, t, f, fault_model, random.Random(seed), samples
        )
        exhaustive = False
    checked = 0
    for faults in fault_sets:
        checked += 1
        bad = _check_fault_set(g, h, t, faults, fault_model, unit)
        if bad is not None:
            return VerificationReport(
                ok=False, exhaustive=exhaustive,
                fault_sets_checked=checked, counterexample=bad,
            )
    return VerificationReport(
        ok=True, exhaustive=exhaustive, fault_sets_checked=checked
    )


def is_spanner(g: Graph, h: Graph, t: float) -> bool:
    return _check_fault_set(
        g, h, t, None, "vertex", g.is_unit_weighted()
    ) is None


def _check_fault_set(
    g: Graph,
    h: Graph,
    t: float,
    faults: Optional[Iterable],
    fault_model: str,
    unit: bool,
) -> Optional[Counterexample]:
    """The Lemma 3 condition for one fault set; None when it holds."""
    fault_list = list(faults) if faults is not None else []
    if fault_model == "vertex":
        fault_set = set(fault_list)
        gv = VertexFaultView(g, fault_set) if fault_set else g
        hv = VertexFaultView(h, fault_set) if fault_set else h
        surviving = [
            (u, v) for u, v in g.edges()
            if u not in fault_set and v not in fault_set
        ]
    else:
        fault_set = {edge_key(u, v) for u, v in fault_list}
        gv = EdgeFaultView(g, fault_set) if fault_set else g
        hv = EdgeFaultView(h, fault_set) if fault_set else h
        surviving = [
            (u, v) for u, v in g.edges() if edge_key(u, v) not in fault_set
        ]
    for u, v in surviving:
        w = g.weight(u, v)
        if unit:
            # The surviving edge realizes the distance: hop-bounded BFS.
            if bounded_bfs_path(hv, u, v, max_hops=int(t)) is not None:
                continue
        else:
            # Lemma 3: only pairs realizing d_{G\F}(u, v) = w(u, v) matter.
            dg = dijkstra(gv, u, target=v, max_dist=w).get(v, INFINITY)
            if dg < w:
                continue
            dh = dijkstra(hv, u, target=v, max_dist=t * w).get(v, INFINITY)
            if dh <= t * w:
                continue
        return Counterexample(
            faults=frozenset(fault_set),
            pair=(u, v),
            graph_distance=w,
            spanner_distance=dijkstra(hv, u, target=v).get(v, INFINITY),
        )
    return None


def pairwise_stretch(
    g: Graph, h: Graph, pairs: Optional[Iterable[Tuple[Node, Node]]] = None
) -> Dict[Tuple[Node, Node], float]:
    if pairs is None:
        pairs = list(g.edges())
    return {(u, v): stretch_of_pair(g, h, u, v) for u, v in pairs}


def max_stretch(
    g, h, pairs: Optional[Iterable[Tuple[Node, Node]]] = None
) -> float:
    """Worst ratio over ``pairs`` (default: the edges of ``g``).

    ``g`` and ``h`` may be graphs or fault views; view edges are
    enumerated from the surviving neighbor lists.
    """
    if pairs is None:
        pairs = _edge_pairs(g)
    worst = 1.0
    for u, v in pairs:
        worst = max(worst, stretch_of_pair(g, h, u, v))
        if math.isinf(worst):
            break
    return worst


def max_stretch_under_faults(
    g: Graph,
    h: Graph,
    faults: Iterable,
    fault_model: str = "vertex",
) -> float:
    faults = list(faults)
    if fault_model not in ("vertex", "edge"):
        raise ValueError(f"unknown fault model {fault_model!r}")
    if fault_model == "vertex":
        gv = fault_view(g, vertex_faults=faults)
        hv = fault_view(h, vertex_faults=faults)
    else:
        gv = fault_view(g, edge_faults=faults)
        hv = fault_view(h, edge_faults=faults)
    surviving = [
        (u, v) for u, v in g.edges() if gv.has_node(u) and gv.has_edge(u, v)
    ]
    return max_stretch(gv, hv, pairs=surviving)


def _edge_pairs(g) -> List[Edge]:
    if isinstance(g, Graph):
        return list(g.edges())
    pairs: List[Edge] = []
    seen = set()
    for u in g.nodes():
        for v in g.neighbors(u):
            if (v, u) not in seen:
                seen.add((u, v))
                pairs.append((u, v))
    return pairs
