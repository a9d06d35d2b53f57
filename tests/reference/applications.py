"""Reference applications: dict Dijkstra on lazy fault views.

The production oracle and router funnel every computation through one
per-scenario object (``_stamped_sweep(fault_key)``: distances, paths,
and destination-rooted parent trees).  The reference classes keep the
production caching and validation and swap that object for
:class:`DictScenario`, so every answer they give comes from dict
Dijkstra on a fresh fault view.  The availability reference drives the
production sampling loop with fault-view probes.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.applications import availability as _availability
from repro.applications import oracle as _oracle
from repro.applications import routing as _routing
from repro.core.spanner import FaultModel
from repro.dynamic.log import EdgeInsert, classify_op, coerce_op
from repro.graph.graph import Graph, Node
from repro.graph.traversal import dijkstra, shortest_path
from repro.graph.views import EdgeFaultView, VertexFaultView

INFINITY = math.inf


def dijkstra_parents(view, root: Node) -> Dict[Node, Node]:
    """Map each reachable node to its parent toward ``root``.

    Strict-improvement predecessor updates with push-order tie-breaks.
    """
    parent: Dict[Node, Node] = {}
    best: Dict[Node, float] = {root: 0.0}
    done = set()
    heap: List = [(0.0, 0, root)]
    counter = 1
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in view.neighbor_items(u):
            if v in done:
                continue
            nd = d + w
            if v not in best or nd < best[v]:
                best[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, counter, v))
                counter += 1
    return parent


class DictScenario:
    """One fault scenario of a spanner, answered on a lazy fault view."""

    def __init__(
        self, spanner: Graph, fault_key: FrozenSet, model: FaultModel
    ) -> None:
        if not fault_key:
            self.view = spanner
        elif model is FaultModel.VERTEX:
            self.view = VertexFaultView(spanner, fault_key)
        else:
            self.view = EdgeFaultView(spanner, fault_key)

    def distances_from(self, source: Node) -> Dict[Node, float]:
        return dijkstra(self.view, source)

    def distances_multi(self, sources) -> List[Dict[Node, float]]:
        return [dijkstra(self.view, s) for s in sources]

    def path(self, u: Node, v: Node) -> Optional[List[Node]]:
        return shortest_path(self.view, u, v)

    def parents_toward(self, root: Node) -> Dict[Node, Node]:
        return dijkstra_parents(self.view, root)

    def parents_multi(self, roots) -> List[Dict[Node, Node]]:
        return [dijkstra_parents(self.view, r) for r in roots]


class FaultTolerantDistanceOracle(_oracle.FaultTolerantDistanceOracle):
    """The production oracle with every search on a dict fault view."""

    def _stamped_sweep(self, fault_key: FrozenSet) -> DictScenario:
        return DictScenario(self.spanner, fault_key, self.fault_model)


class SpannerRouter(_routing.SpannerRouter):
    """The production router with every table from dict Dijkstra."""

    def _stamped_sweep(self, fault_key: FrozenSet) -> DictScenario:
        return DictScenario(self.spanner, fault_key, self.fault_model)


class _DictProbes:
    """Availability probes: paired dict Dijkstras on per-scenario views."""

    def __init__(self, g: Graph, h: Graph) -> None:
        self.g, self.h = g, h
        self.gv, self.hv = g, h

    def set_scenario(self, faults: set) -> None:
        self.gv = VertexFaultView(self.g, faults) if faults else self.g
        self.hv = VertexFaultView(self.h, faults) if faults else self.h

    def graph_distance(self, u: Node, v: Node) -> float:
        return dijkstra(self.gv, u, target=v).get(v, INFINITY)

    def spanner_distance(self, u: Node, v: Node) -> float:
        return dijkstra(self.hv, u, target=v).get(v, INFINITY)


def availability_analysis(
    g: Graph,
    spanner: Graph,
    failures: int,
    guarantee: float,
    scenarios: int = 50,
    pairs_per_scenario: int = 30,
    seed: Optional[int] = None,
    fault_process: str = "independent",
) -> _availability.AvailabilityReport:
    return _availability._sample_availability(
        g, failures, guarantee, scenarios, pairs_per_scenario, seed,
        fault_process, lambda: _DictProbes(g, spanner),
    )


def degradation_profile(
    g: Graph,
    spanner: Graph,
    guarantee: float,
    max_failures: int,
    scenarios: int = 30,
    pairs_per_scenario: int = 20,
    seed: Optional[int] = None,
    fault_process: str = "independent",
) -> List[Tuple[int, _availability.AvailabilityReport]]:
    return [
        (j, availability_analysis(
            g, spanner, failures=j, guarantee=guarantee,
            scenarios=scenarios, pairs_per_scenario=pairs_per_scenario,
            seed=None if seed is None else seed + j,
            fault_process=fault_process,
        ))
        for j in range(max_failures + 1)
    ]


def apply_updates(g: Graph, h: Graph, ops) -> int:
    """Stream updates into dict graphs in place, mirroring them into H.

    Inserts land in both G and H; deletes leave H when present there.
    Returns the number of effective updates applied to G -- the
    contract of ``SpannerSession.apply_updates``.
    """
    applied = 0
    for op in map(coerce_op, ops):
        if classify_op(g, op) != "noop":
            applied += 1
        if isinstance(op, EdgeInsert):
            g.add_edge(op.u, op.v, op.weight)
            h.add_edge(op.u, op.v, op.weight)
        else:
            g.remove_edge(op.u, op.v)
            if h.has_edge(op.u, op.v):
                h.remove_edge(op.u, op.v)
    return applied
