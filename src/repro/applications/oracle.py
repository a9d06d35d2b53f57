"""Fault-tolerant approximate distance oracle.

The classic application of spanners ([TZ05] built distance oracles; the
fault-tolerant literature started from exactly this use case): replace
the full graph with a sparse subgraph and answer distance queries from
the subgraph alone.  With an f-FT (2k-1)-spanner underneath, the oracle
additionally accepts a *fault set* per query and keeps its guarantee as
long as at most f faults are declared:

    d_{G\\F}(u, v)  <=  oracle.distance(u, v, faults=F)
                    <=  (2k-1) * d_{G\\F}(u, v)

The oracle stores only the spanner -- ``O(k f^(1-1/k) n^(1+1/k))`` edges
instead of m -- and evaluates queries with single-source searches on the
(faulted) spanner.  A per-fault-set LRU of single-source runs amortizes
batches of queries against the same failure scenario, which is the
common pattern in monitoring workloads (one scenario, many pairs); the
batch entry points (:meth:`FaultTolerantDistanceOracle.distances`,
:meth:`FaultTolerantDistanceOracle.distance_matrix`) make that pattern
first-class.

Execution: the spanner is frozen once into a
:class:`~repro.graph.snapshot.CSRSnapshot` and every cache miss runs on
a shared :class:`~repro.graph.snapshot.ScenarioSweep`: switching fault
scenarios is an O(|F|) mask re-stamp, each single-source run is
flat-array BFS (unit weights) or CSR Dijkstra (weighted) through one
preallocated workspace, and no ``G \\ F`` view is ever materialized.
The dict reference in ``tests/reference/`` (one lazy fault view plus one
dict Dijkstra per cache miss) returns bit-identical answers, which
`tests/test_applications_parity.py` and
`benchmarks/bench_applications.py` assert.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.core.greedy_modified import fault_tolerant_spanner
from repro.core.spanner import FaultModel, SpannerResult
from repro.graph.graph import Graph, Node, edge_key
from repro.graph.snapshot import CSRSnapshot, ScenarioSweep, resolve_search

INFINITY = math.inf


class FaultTolerantDistanceOracle:
    """Approximate distance queries that survive up to f faults.

    Parameters
    ----------
    g:
        The graph to preprocess.  Only its spanner is retained.
    k:
        Stretch parameter; answers are within ``2k - 1`` of true
        post-fault distances.
    f:
        Fault budget per query.
    fault_model:
        ``'vertex'`` or ``'edge'`` -- which kind of faults queries may
        declare.
    cache_size:
        Number of (fault set, source) single-source distance runs kept.
        May be reassigned later; shrinking evicts the oldest entries
        immediately.
    snapshot:
        An already-frozen
        :class:`~repro.graph.snapshot.CSRSnapshot` of the spanner (e.g.
        from a :class:`repro.session.SpannerSession`); the oracle's
        sweep then re-stamps it instead of freezing its own.
    search:
        The CSR weighted engine (``'auto'``/``'heap'``/``'bucket'``/
        ``'bidir'``/``'batch'``; see
        :data:`repro.graph.snapshot.SEARCH_MODES`).  ``'auto'`` resolves
        from the spanner snapshot's weight profile -- integral-weight
        spanners answer single-source runs with the Dial bucket queue --
        and routes batch queries through the multi-source kernels, as
        does ``'batch'``.  Answers are identical on every legal engine.

    Examples
    --------
    >>> from repro.graph import generators
    >>> g = generators.gnp_random_graph(50, 0.3, seed=1)
    >>> oracle = FaultTolerantDistanceOracle(g, k=2, f=1)
    >>> d = oracle.distance(0, 10, faults=[5])
    >>> d >= 1
    True
    """

    def __init__(
        self,
        g: Graph,
        k: int,
        f: int,
        fault_model: Union[FaultModel, str] = FaultModel.VERTEX,
        cache_size: int = 128,
        prebuilt: Optional[SpannerResult] = None,
        snapshot: Optional[CSRSnapshot] = None,
        search: Optional[str] = None,
    ) -> None:
        self.k = k
        self.f = f
        self.fault_model = FaultModel.coerce(fault_model)
        self.search = resolve_search(search)
        if prebuilt is not None:
            if prebuilt.k != k or prebuilt.f < f:
                raise ValueError(
                    "prebuilt spanner parameters do not cover (k, f)"
                )
            result = prebuilt
        else:
            result = fault_tolerant_spanner(
                g, k, f, fault_model=self.fault_model
            )
        self.spanner: Graph = result.spanner
        self.construction: SpannerResult = result
        self._cache: "OrderedDict[Tuple[FrozenSet, Node], Dict[Node, float]]"
        self._cache = OrderedDict()
        self._cache_size = 0
        self.cache_size = cache_size  # validated + evicted by the setter
        self._sweep: Optional[ScenarioSweep] = None
        # Churn stamp: cached single-source runs are only valid for the
        # spanner state they were computed at; the dict graph's
        # monotonic ``mutations`` counter (bumped by streaming updates
        # -- overlay mutations mirror into the dict) tells the cache
        # when that state moved.
        self._version = self.spanner.mutations
        if snapshot is not None:
            if snapshot.g is not self.spanner:
                raise ValueError(
                    "snapshot does not freeze this oracle's spanner"
                )
            self._sweep = ScenarioSweep(snapshot, search=self.search)

    # ------------------------------------------------------------- #
    # Queries
    # ------------------------------------------------------------- #

    @property
    def stretch(self) -> int:
        """The multiplicative error guarantee, ``2k - 1``."""
        return 2 * self.k - 1

    @property
    def size(self) -> int:
        """Edges stored by the oracle."""
        return self.spanner.num_edges

    @property
    def cache_size(self) -> int:
        """Capacity of the (fault set, source) LRU.

        Assigning a smaller value evicts the oldest entries immediately,
        so the cache never holds stale excess after a shrink.  Assigning
        0 disables caching entirely (every entry is dropped at once and
        no new ones are stored); growing it again later starts from an
        empty cache.
        """
        return self._cache_size

    @cache_size.setter
    def cache_size(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"cache_size must be >= 0, got {size}")
        self._cache_size = size
        if size == 0:
            self._cache.clear()
            return
        while len(self._cache) > size:
            self._cache.popitem(last=False)

    def distance(
        self, u: Node, v: Node, faults: Optional[Iterable] = None
    ) -> float:
        """Approximate distance from u to v avoiding ``faults``.

        Returns ``inf`` when v is unreachable in the faulted spanner
        (which, within the fault budget, implies it is unreachable in
        the faulted graph as well).  Raises ``ValueError`` if more than
        ``f`` faults are declared -- the guarantee would be void.
        """
        fault_key = self._normalize(faults)
        self._check_alive(v, fault_key)
        if u == v:
            self._check_alive(u, fault_key)
            return 0.0
        dist = self._sssp(fault_key, u)
        return dist.get(v, INFINITY)

    def distances_from(
        self, source: Node, faults: Optional[Iterable] = None
    ) -> Dict[Node, float]:
        """All approximate distances from ``source`` under ``faults``."""
        fault_key = self._normalize(faults)
        return dict(self._sssp(fault_key, source))

    def distances(
        self,
        pairs: Iterable[Tuple[Node, Node]],
        faults: Optional[Iterable] = None,
    ) -> List[float]:
        """Batch distances for many pairs under one fault scenario.

        Element ``i`` equals ``distance(pairs[i][0], pairs[i][1],
        faults=faults)`` exactly; the batch form normalizes the fault
        set once, groups the pairs by source, and runs one single-source
        search per *distinct* cache-missing source regardless of LRU
        pressure or pair order -- the "one scenario, many pairs"
        monitoring pattern.  Every cache miss of the batch goes through
        one multi-source kernel pass
        (:meth:`~repro.graph.snapshot.ScenarioSweep.distances_multi`),
        and the runs populate the same ``(fault set, source)`` LRU
        entries the single-query path uses.
        """
        pair_list = list(pairs)
        fault_key = self._normalize(faults)
        out: List[float] = [INFINITY] * len(pair_list)
        by_source: "OrderedDict[Node, List[Tuple[int, Node]]]" = OrderedDict()
        for i, (u, v) in enumerate(pair_list):
            by_source.setdefault(u, []).append((i, v))
        # First pass: validate endpoints (in the single-query order),
        # answer self-pairs, and collect the sources that actually need
        # a single-source run.
        need: List[Node] = []
        for u, targets in by_source.items():
            needed = False
            for i, v in targets:
                self._check_alive(v, fault_key)
                if u == v:
                    self._check_alive(u, fault_key)
                    out[i] = 0.0
                elif not needed:
                    self._check_alive(u, fault_key)
                    needed = True
            if needed:
                need.append(u)
        runs = self._sssp_many(fault_key, need)
        for u, targets in by_source.items():
            sssp = runs.get(u)
            if sssp is None:
                continue  # every pair of this group was a self-pair
            for i, v in targets:
                if u != v:
                    out[i] = sssp.get(v, INFINITY)
        return out

    def distance_matrix(
        self,
        sources: Iterable[Node],
        faults: Optional[Iterable] = None,
    ) -> Dict[Node, Dict[Node, float]]:
        """All distances from each source under one fault scenario.

        Returns ``{source: {node: distance}}`` (duplicate sources
        collapse -- and cost one run, not one per occurrence); each row
        equals :meth:`distances_from` for that source.  One shared
        snapshot serves the whole matrix and every cache-missed row
        rides one multi-source batch pass.
        """
        fault_key = self._normalize(faults)
        src_list = list(sources)
        distinct = list(dict.fromkeys(src_list))
        for s in distinct:
            self._check_alive(s, fault_key)
        runs = self._sssp_many(fault_key, distinct)
        return {s: dict(runs[s]) for s in src_list}

    def path(
        self, u: Node, v: Node, faults: Optional[Iterable] = None
    ) -> Optional[List[Node]]:
        """An approximately-shortest surviving path, or None.

        The returned path lives entirely in the spanner minus the fault
        set, so it is directly usable as a route.
        """
        fault_key = self._normalize(faults)
        self._check_alive(u, fault_key)
        self._check_alive(v, fault_key)
        return self._stamped_sweep(fault_key).path(u, v)

    # ------------------------------------------------------------- #
    # Internals
    # ------------------------------------------------------------- #

    def _normalize(self, faults: Optional[Iterable]) -> FrozenSet:
        """Canonicalize a fault iterable into the cache-key form.

        Vertex faults become a frozenset of nodes; edge faults a
        frozenset of canonical ``edge_key`` pairs -- so any iteration
        order, container type, or endpoint orientation of the same
        fault set maps to the same cache key.
        """
        if faults is None:
            return frozenset()
        if self.fault_model is FaultModel.VERTEX:
            out = frozenset(faults)
        else:
            out = frozenset(edge_key(u, v) for u, v in faults)
        if len(out) > self.f:
            raise ValueError(
                f"{len(out)} faults declared but the oracle only "
                f"guarantees up to f={self.f}"
            )
        return out

    def _check_alive(self, u: Node, fault_key: FrozenSet) -> None:
        if not self.spanner.has_node(u):
            raise KeyError(f"node {u!r} not in graph")
        if self.fault_model is FaultModel.VERTEX and u in fault_key:
            raise ValueError(f"query endpoint {u!r} is in the fault set")

    def _flush_if_stale(self) -> None:
        """Drop cached runs computed before the last streaming update.

        The sweep's masks/workspaces refresh themselves through the
        overlay's version stamp; this extends the same discipline to
        the oracle's (fault set, source) LRU, which would otherwise
        serve pre-churn distances verbatim.  Must run before any cache
        lookup.
        """
        v = self.spanner.mutations
        if v != self._version:
            self._version = v
            self._cache.clear()

    def _stamped_sweep(self, fault_key: FrozenSet) -> ScenarioSweep:
        """The shared snapshot sweep, re-stamped for ``fault_key``."""
        sweep = self._sweep
        if sweep is None:
            sweep = self._sweep = ScenarioSweep(
                self.spanner, search=self.search
            )
        sweep.stamp(fault_key, self.fault_model.value)
        return sweep

    def _sssp(self, fault_key: FrozenSet, source: Node) -> Dict[Node, float]:
        self._check_alive(source, fault_key)
        self._flush_if_stale()
        # A zero-capacity LRU is fully disabled: no lookup, no store --
        # the run below is computed fresh and returned without touching
        # the (empty) cache, so there is nothing stale to reuse and
        # nothing to evict.
        if self._cache_size == 0:
            return self._stamped_sweep(fault_key).distances_from(source)
        cache_key = (fault_key, source)
        hit = self._cache.get(cache_key)
        if hit is not None:
            self._cache.move_to_end(cache_key)
            return hit
        dist = self._stamped_sweep(fault_key).distances_from(source)
        self._cache[cache_key] = dist
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return dist

    def _sssp_many(
        self, fault_key: FrozenSet, sources: List[Node]
    ) -> Dict[Node, Dict[Node, float]]:
        """One single-source run per distinct source, batched.

        Callers have already validated the sources.  Cache hits are
        served (and refreshed) from the LRU; the misses run as one
        multi-source batch and are stored under the same
        ``(fault set, source)`` keys :meth:`_sssp` uses, so batched
        and single-query paths share cache entries.  With the cache
        disabled every distinct source still computes exactly once per
        batch.
        """
        out: Dict[Node, Dict[Node, float]] = {}
        missing: List[Node] = []
        self._flush_if_stale()
        if self._cache_size == 0:
            missing = [s for s in dict.fromkeys(sources)]
        else:
            for s in dict.fromkeys(sources):
                cache_key = (fault_key, s)
                hit = self._cache.get(cache_key)
                if hit is not None:
                    self._cache.move_to_end(cache_key)
                    out[s] = hit
                else:
                    missing.append(s)
        if not missing:
            return out
        runs = self._stamped_sweep(fault_key).distances_multi(missing)
        for s, dist in zip(missing, runs):
            out[s] = dist
            if self._cache_size:
                self._cache[(fault_key, s)] = dist
                if len(self._cache) > self._cache_size:
                    self._cache.popitem(last=False)
        return out
