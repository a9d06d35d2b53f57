"""Reusable CSR query-engine substrate: snapshot once, sweep many scenarios.

Every batched workload in the library follows the same shape on the CSR
substrate: freeze a :class:`~repro.graph.graph.Graph` into flat arrays
*once*, then drive many fault scenarios through generation-stamped
:class:`~repro.graph.csr.FaultMask` buffers and one preallocated
workspace -- moving to the next scenario is an O(|F|) mask re-stamp
instead of materializing a ``G \\ F`` view.  The verification sweeps
pioneered the pattern; this module extracts it so the applications layer
(distance oracle, router, availability analysis) runs on the same
substrate:

* :class:`CSRSnapshot` -- one frozen CSR build of a single graph plus
  its :class:`~repro.graph.index.NodeIndexer` (node objects <-> dense
  indices) and a cached unit-weight flag.
* :class:`ScenarioSweep` -- a batched query engine over one snapshot:
  owns the vertex/edge fault masks and lazily-created
  :class:`~repro.graph.traversal.BFSWorkspace` /
  :class:`~repro.graph.traversal.DijkstraWorkspace`, exposes
  object-level queries (``distances_from`` / ``distance`` / ``path`` /
  ``parents_toward``) that match the dict path's answers exactly.
  Unit-weighted snapshots answer distance queries with the (much
  faster) hop-bounded BFS primitives; weighted ones with the CSR
  Dijkstra engine the ``search=`` keyword resolves to -- binary heap,
  Dial bucket queue, or bidirectional Dijkstra, selected per snapshot
  from the weight profile detected at freeze time (see
  :data:`SEARCH_MODES` and docs/architecture.md, "Weighted search
  engines").
* :class:`DualCSRSnapshot` -- G and H snapshotted over one *shared*
  index space (so a vertex mask stamped with G-side indices is directly
  valid against H), the base of the verification sweeps and of the
  availability sampler.

Cost model: construction is one (or two) O(n + m) snapshots; a scenario
switch is an O(|F|) re-stamp; each query allocates nothing beyond its
returned value.

Parity: every query visits neighbors in the dict path's insertion
order and breaks ties identically (see ``docs/architecture.md``), so
the answers are bit-identical to the lazy-view reference path -- the
applications parity suite (`tests/test_applications_parity.py`) and
`benchmarks/bench_applications.py` assert this on every run.
"""

from __future__ import annotations

import math
import os
import pickle
import struct
from itertools import islice
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.graph.csr import CSRGraph, FaultMask
from repro.graph.graph import Edge, Graph, Node
from repro.graph.index import NodeIndexer
from repro.graph.traversal import (
    BFSWorkspace,
    BUCKET_MAX_WEIGHT,
    DijkstraWorkspace,
    MultiSourceWorkspace,
    csr_bfs_distances,
    csr_bfs_multi,
    csr_bfs_multi_numpy,
    csr_bfs_parents,
    csr_bounded_bfs_path,
    csr_bounded_dijkstra_path,
    csr_bucket_multi,
    csr_dijkstra,
    csr_dijkstra_parents,
    csr_weighted_distance,
    resolve_batch_accel,
    split_parent_plane,
    weight_profile,
)

INFINITY = math.inf

#: The weighted search engines a snapshot query may request.  ``"auto"``
#: resolves per query from the snapshot's weight profile (detected once
#: at freeze time): unit snapshots answer distances with hop-BFS,
#: integral ones with the Dial bucket queue (single-source) and
#: bidirectional Dijkstra (point-to-point), float ones with the binary
#: heap.  ``"batch"`` routes multi-root queries through the multi-source
#: frontier kernels (integral weights only; single queries fall back to
#: the matching sequential engine).  Every engine is bit-identical to
#: the dict path wherever it is legal, so the choice is pure
#: execution policy.
SEARCH_MODES = ("auto", "heap", "bucket", "bidir", "batch")

#: Environment variable overriding the default search mode (the explicit
#: ``search=`` keyword always wins over the environment).
SEARCH_ENV_VAR = "REPRO_SEARCH"

#: How many roots one multi-source batch advances per shared sweep.  The
#: label planes hold ``roots x num_nodes`` cells, so chunking bounds the
#: workspace at ``BATCH_ROOT_LIMIT * n`` cells no matter how large a
#: batch the caller submits (results are per-root, so chunking cannot
#: change them).
BATCH_ROOT_LIMIT = 128

#: Cell budget for the *numpy* batch kernel, which allocates fresh
#: per-call planes instead of reusing the grow-only workspace arenas.
#: Its per-level vectorized passes amortize better over wide batches,
#: so it chunks at ``max(BATCH_ROOT_LIMIT, NUMPY_BATCH_CELLS // n)``
#: roots -- wider than the stdlib chunking on small graphs.  The budget
#: is sized so the hot planes (int32 stamp/parent + bool seen, ~9 bytes
#: per cell) stay cache-resident: the kernel's scatter/gather passes hit
#: the planes at random, and keeping them ~1 MB is worth ~25% wall
#: clock over letting one huge batch spill to main memory.
NUMPY_BATCH_CELLS = 1 << 17


class UnsupportedSearch(ValueError):
    """Raised when a requested search engine cannot run on a snapshot.

    The bucket and bidirectional engines are exact only for positive
    integer weights (path sums are association-independent there);
    forcing them onto a float-weighted snapshot would break the
    dict/CSR parity guarantee, so it is a typed error instead.
    """


def resolve_search(search: Optional[str]) -> str:
    """Validate a ``search=`` argument.

    ``None`` means "use the default": ``"auto"`` unless the
    :data:`SEARCH_ENV_VAR` environment variable names another mode.
    """
    if search is None:
        search = os.environ.get(SEARCH_ENV_VAR)
        if search is None:
            return "auto"
    if search not in SEARCH_MODES:
        raise UnsupportedSearch(
            f"unknown search engine {search!r}; expected one of "
            f"{SEARCH_MODES}"
        )
    return search


def validate_search(search: Optional[str], *profiles: str) -> str:
    """Resolve ``search`` and check it against snapshot weight profiles.

    ``profiles`` are the ``CSRSnapshot.profile`` strings of every
    snapshot the caller will probe with this engine choice; the
    integral-only engines are rejected when any of them is ``"float"``.
    """
    s = resolve_search(search)
    if s in ("bucket", "bidir", "batch") and "float" in profiles:
        raise UnsupportedSearch(
            f"search={s!r} requires positive integer edge weights "
            f"(path sums must be exact to preserve dict/CSR parity); "
            f"this snapshot's weight profile is 'float'.  Use "
            f"search='heap' or 'auto'."
        )
    return s


def sssp_engine(search: str, profile: str) -> str:
    """The single-source engine for one resolved search mode.

    Returns ``"bfs"`` (unit fast path), ``"heap"`` or ``"bucket"``.
    ``"bidir"`` is a point-to-point engine, so single-source queries
    under it take the bucket engine (legal whenever bidir is).
    ``"batch"`` resolves like ``"auto"``: its multi-source kernels *are*
    the BFS and bucket disciplines, so a lone single-source query under
    it runs the matching sequential kernel.  This doubles as the batch
    kernel policy: ``"bfs"`` and ``"bucket"`` name multi-source kernels
    and ``"heap"`` means "no batch kernel applies -- loop per root".
    """
    if search == "heap":
        return "heap"
    if search in ("bucket", "bidir"):
        return "bucket"
    if profile == "unit":
        return "bfs"
    return "bucket" if profile == "int" else "heap"


def pair_engine(search: str, profile: str) -> str:
    """The point-to-point engine for one resolved search mode.

    Returns ``"bfs"``, ``"heap"``, ``"bucket"`` or ``"bidir"``.
    ``"batch"`` resolves like ``"auto"`` (there is no batched variant of
    a *single* point-to-point probe; many probes at once go through the
    multi-pair kernel instead).
    """
    if search not in ("auto", "batch"):
        return search
    if profile == "unit":
        return "bfs"
    return "bidir" if profile == "int" else "heap"


def weighted_pair_engine(search: str, profile: str) -> str:
    """:func:`pair_engine` for sweeps that always probe with weights.

    The verification / stretch / availability sweeps never take the
    hop-BFS fast path per side (e.g. a unit spanner of a weighted graph
    still needs a weighted probe), so a side that :func:`pair_engine`
    would answer with BFS probes with bidirectional Dijkstra instead --
    legal wherever BFS would have been, since unit weights are integral.
    """
    engine = pair_engine(search, profile)
    return "bidir" if engine == "bfs" else engine


def path_engine(search: str, profile: str) -> str:
    """The path-reconstruction engine (``"heap"`` or ``"bucket"``).

    Paths need the dict path's tie-breaking, which the heap and
    bucket engines reproduce (bidir does not reconstruct paths; unit
    snapshots also use a weighted engine here, exactly like the dict
    path's path queries).  ``"batch"`` resolves like ``"auto"``.
    """
    if search == "heap":
        return "heap"
    if search in ("bucket", "bidir"):
        return "bucket"
    return "heap" if profile == "float" else "bucket"


#: One-line capability constraint per search mode, surfaced by the CLI
#: (``ftspanner algorithms`` and the ``--search`` help text).
SEARCH_CAPABILITIES = {
    "auto": "per-snapshot policy: BFS on unit, bucket/bidir on int, "
            "heap on float weights",
    "heap": "binary-heap Dijkstra; any non-negative weights",
    "bucket": "Dial bucket queue; positive integer weights <= "
              f"{BUCKET_MAX_WEIGHT}",
    "bidir": "bidirectional Dijkstra for s-t probes; integral weights "
             "only",
    "batch": "multi-source frontier batching for multi-root queries; "
             "integral weights only (BFS plane kernel vectorizes with "
             "numpy when importable, stdlib fallback otherwise)",
}

#: Process-wide count of CSR freezes (one per :class:`CSRSnapshot`
#: construction; a :class:`DualCSRSnapshot` built from scratch counts
#: two).  Pure instrumentation: the snapshot-sharing layers
#: (:class:`repro.session.SpannerSession`, ``degradation_profile``)
#: promise "at most one freeze per graph per workflow", and their tests
#: assert it through :func:`csr_freeze_count` deltas.
_freezes = 0


def csr_freeze_count() -> int:
    """How many CSR freezes this process has performed so far."""
    return _freezes


def _stamp_vertex_mask(
    indexer: NodeIndexer, mask: FaultMask, faults: Iterable[Node]
) -> FaultMask:
    """Re-stamp ``mask`` with a vertex fault set in O(|F|).

    Unknown nodes are silently ignored, matching the lazy views
    (filtering something that is not there is a no-op).
    """
    get = indexer.get
    mask.clear()
    mask.add_all(i for i in (get(x) for x in faults) if i is not None)
    return mask


def _stamp_edge_mask(
    indexer: NodeIndexer,
    csr: CSRGraph,
    mask: FaultMask,
    faults: Iterable[Edge],
) -> FaultMask:
    """Re-stamp ``mask`` with an edge fault set in O(|F|).

    Edges absent from the graph are ignored, matching the lazy views.
    """
    get = indexer.get
    mask.clear()
    for u, v in faults:
        iu, iv = get(u), get(v)
        if iu is None or iv is None:
            continue
        if csr.has_edge(iu, iv):
            mask.add(csr.edge_id(iu, iv))
    return mask


class CSRSnapshot:
    """One frozen CSR build of a graph, ready for scenario sweeps.

    Attributes
    ----------
    g:
        The source :class:`~repro.graph.graph.Graph` (kept for
        object-level lookups; never mutated through the snapshot).
    csr:
        The frozen :class:`~repro.graph.csr.CSRGraph`.
    indexer:
        The node <-> index bijection (shared when ``indexer`` is passed,
        e.g. by :class:`DualCSRSnapshot`).
    unit:
        Whether every edge weight is exactly 1.0 -- enables the BFS fast
        path for distance queries (hop distance equals weighted
        distance, and small integer floats are exact).
    profile:
        The freeze-time weight profile driving ``search="auto"`` engine
        selection: ``"unit"``, ``"int"`` (positive integers within the
        bucket engine's range) or ``"float"`` (see
        :func:`repro.graph.traversal.weight_profile`).
    max_weight:
        The largest edge weight as an ``int`` for the first two
        profiles (the Dial bucket count); 0 for ``"float"``.
    """

    __slots__ = ("g", "csr", "indexer", "unit", "profile", "max_weight")

    def __init__(self, g: Graph, indexer: Optional[NodeIndexer] = None) -> None:
        global _freezes
        _freezes += 1
        self.g = g
        self.csr = CSRGraph.from_graph(g, indexer=indexer)
        self.indexer = self.csr.indexer
        self.profile, self.max_weight = weight_profile(self.csr.weights)
        self.unit = self.profile == "unit"

    @classmethod
    def from_csr(cls, csr: CSRGraph) -> "CSRSnapshot":
        """Adopt an already-built :class:`~repro.graph.csr.CSRGraph`.

        The adoption constructor behind :func:`adopt_snapshot`: wraps
        ``csr`` (whose flat buffers may live in an external shared
        segment) without re-freezing anything, so it does **not** bump
        :func:`csr_freeze_count` -- adopting is not a freeze.  ``g`` is
        ``None`` on adopted snapshots; every sweep-level consumer works
        purely off ``csr``/``indexer``, and only callers that need the
        source ``Graph`` object (none of the query layers do) may not
        use one.
        """
        if csr.indexer is None:
            raise ValueError(
                "adopting a CSRGraph requires its NodeIndexer (queries "
                "translate node objects through it)"
            )
        self = object.__new__(cls)
        self.g = None
        self.csr = csr
        self.indexer = csr.indexer
        self.profile, self.max_weight = weight_profile(csr.weights)
        self.unit = self.profile == "unit"
        return self

    def __repr__(self) -> str:
        return (
            f"CSRSnapshot(n={self.csr.num_nodes}, m={self.csr.num_edges}, "
            f"profile={self.profile!r})"
        )


# --------------------------------------------------------------------- #
# Shared-segment serialization (the serving layer's wire format)
# --------------------------------------------------------------------- #

#: Magic prefix + format version of a packed snapshot segment.  Bump the
#: version whenever the layout below changes; adoption refuses segments
#: it does not understand instead of misreading them.
SNAPSHOT_MAGIC = b"FTSS"
SNAPSHOT_FORMAT_VERSION = 1

#: Packed header: magic, version, then the region element counts --
#: ``n`` (nodes), ``m`` (edges), ``nnz`` (incidences, i.e.
#: ``len(indices)``) and the byte length of the pickled node-label
#: list.  40 bytes, so every 8-byte region that follows stays aligned.
_SNAPSHOT_HEADER = struct.Struct("<4sIQQQQ")

#: The flat regions following the header, in order.  Each is an array of
#: 8-byte elements (``'q'`` int64 / ``'d'`` float64) sized by the header
#: counts; the pickled label list comes last (labels are arbitrary
#: hashables, so they take the generic serializer -- everything numeric
#: stays raw and is adopted zero-copy).
_SNAPSHOT_REGIONS = (
    ("indptr", "q", lambda n, m, nnz: n + 1),
    ("indices", "q", lambda n, m, nnz: nnz),
    ("nbr_edge_ids", "q", lambda n, m, nnz: nnz),
    ("edge_u", "q", lambda n, m, nnz: m),
    ("edge_v", "q", lambda n, m, nnz: m),
    ("weights", "d", lambda n, m, nnz: m),
)


def _snapshot_counts(snap: CSRSnapshot) -> Tuple[int, int, int]:
    csr = snap.csr
    return csr.num_nodes, csr.num_edges, len(csr.indices)


def _packed_labels(snap: CSRSnapshot) -> bytes:
    return pickle.dumps(list(snap.indexer), protocol=pickle.HIGHEST_PROTOCOL)


def snapshot_nbytes(snap: CSRSnapshot) -> int:
    """Bytes needed to pack ``snap`` with :func:`pack_snapshot_into`.

    Deterministic for a given snapshot, so a caller can size a
    ``multiprocessing.shared_memory`` segment before packing.
    """
    n, m, nnz = _snapshot_counts(snap)
    total = _SNAPSHOT_HEADER.size
    for _, _, count in _SNAPSHOT_REGIONS:
        total += 8 * count(n, m, nnz)
    return total + len(_packed_labels(snap))


def pack_snapshot_into(snap: CSRSnapshot, buf) -> int:
    """Serialize ``snap`` into a writable buffer; returns bytes written.

    ``buf`` is anything exposing a writable buffer -- a ``bytearray``,
    an ``mmap``, or a ``multiprocessing.shared_memory`` segment's
    ``.buf``.  The numeric regions are written as raw little-endian
    64-bit elements in the layout :func:`adopt_snapshot` reads, so a
    process attaching the same segment reconstructs the snapshot with
    zero copies of the flat arrays.
    """
    labels = _packed_labels(snap)
    n, m, nnz = _snapshot_counts(snap)
    needed = _SNAPSHOT_HEADER.size + len(labels) + sum(
        8 * count(n, m, nnz) for _, _, count in _SNAPSHOT_REGIONS
    )
    mv = memoryview(buf)
    try:
        if len(mv) < needed:
            raise ValueError(
                f"buffer of {len(mv)} bytes cannot hold a "
                f"{needed}-byte packed snapshot (size with "
                f"snapshot_nbytes())"
            )
        _SNAPSHOT_HEADER.pack_into(
            mv, 0, SNAPSHOT_MAGIC, SNAPSHOT_FORMAT_VERSION, n, m, nnz,
            len(labels),
        )
        off = _SNAPSHOT_HEADER.size
        csr = snap.csr
        for name, _, count in _SNAPSHOT_REGIONS:
            nbytes = 8 * count(n, m, nnz)
            src = memoryview(getattr(csr, name)).cast("B")
            try:
                mv[off:off + nbytes] = src
            finally:
                src.release()
            off += nbytes
        mv[off:off + len(labels)] = labels
        off += len(labels)
    finally:
        mv.release()
    return off


def adopt_snapshot(buf) -> CSRSnapshot:
    """Reconstruct a :class:`CSRSnapshot` over a packed buffer, zero-copy.

    The inverse of :func:`pack_snapshot_into`: the returned snapshot's
    flat arrays (``indptr``/``indices``/``nbr_edge_ids``/``edge_u``/
    ``edge_v``/``weights``) are typed :class:`memoryview` casts into
    ``buf`` -- no numeric data is copied, which is what lets a pool of
    worker processes share one ``multiprocessing.shared_memory``
    segment.  Derived per-node structures (neighbor list rows, the
    edge-id map, the label indexer) are rebuilt locally in O(n + m);
    they are small and mutable, so they stay private per process.

    The caller must keep ``buf`` (and any shared-memory handle backing
    it) alive for the snapshot's lifetime.  Adoption does not bump
    :func:`csr_freeze_count` -- it is not a freeze.
    """
    mv = memoryview(buf)
    if len(mv) < _SNAPSHOT_HEADER.size:
        raise ValueError(
            f"buffer too small for a packed snapshot header "
            f"({len(mv)} < {_SNAPSHOT_HEADER.size} bytes)"
        )
    magic, version, n, m, nnz, labels_nbytes = _SNAPSHOT_HEADER.unpack_from(
        mv, 0
    )
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(
            f"buffer does not hold a packed snapshot (magic {magic!r})"
        )
    if version != SNAPSHOT_FORMAT_VERSION:
        raise ValueError(
            f"packed snapshot format v{version} is not supported "
            f"(this build reads v{SNAPSHOT_FORMAT_VERSION})"
        )
    off = _SNAPSHOT_HEADER.size
    regions = {}
    for name, fmt, count in _SNAPSHOT_REGIONS:
        nbytes = 8 * count(n, m, nnz)
        if off + nbytes > len(mv):
            raise ValueError(
                f"packed snapshot truncated in region {name!r}"
            )
        regions[name] = mv[off:off + nbytes].cast(fmt)
        off += nbytes
    if off + labels_nbytes > len(mv):
        raise ValueError("packed snapshot truncated in the label region")
    labels = pickle.loads(mv[off:off + labels_nbytes])
    if len(labels) != n:
        raise ValueError(
            f"packed snapshot carries {len(labels)} labels for {n} nodes"
        )
    csr = CSRGraph(
        regions["indptr"], regions["indices"], regions["nbr_edge_ids"],
        regions["weights"], regions["edge_u"], regions["edge_v"],
        indexer=NodeIndexer(labels),
    )
    return CSRSnapshot.from_csr(csr)


class ScenarioSweep:
    """Batched fault-scenario queries against one :class:`CSRSnapshot`.

    One sweep owns one vertex mask, one edge mask, and (lazily) one BFS
    and one Dijkstra workspace; switching scenarios with
    :meth:`set_vertex_faults` / :meth:`set_edge_faults` is an O(|F|)
    re-stamp, and every query thereafter runs against the stamped
    scenario with zero further allocation.

    Queries take and return *node objects* (translated through the
    snapshot's indexer) and replicate the dict path's lazy-view
    semantics exactly: a source that is unknown or faulted raises
    ``KeyError`` (as ``dijkstra`` does on a view that lacks the node),
    while an unknown or faulted *target* is merely unreachable.

    ``search`` picks the weighted engine (one of :data:`SEARCH_MODES`);
    the default ``"auto"`` resolves per query from the snapshot's
    freeze-time weight profile.  Every legal engine answers
    bit-identically, so this is pure execution policy; the integral-only
    engines raise :class:`UnsupportedSearch` on float-weighted
    snapshots.

    Sweeps follow *dynamic* snapshots automatically: when the underlying
    graph carries a mutation ``version`` stamp (a
    :class:`~repro.dynamic.overlay.DeltaOverlay` behind a
    :class:`~repro.dynamic.snapshot.DynamicSnapshot` view), every
    stamping and query entry point first re-sizes the masks, extends the
    node table, re-validates the engine against the current weight
    profile, and drops the stamped scenario (stale fault indices must be
    re-stamped by the caller -- the oracle/router/availability layers
    already stamp per scenario).  Frozen snapshots carry no version and
    skip the check in O(1).

    Not thread-safe; use one sweep per thread.
    """

    __slots__ = (
        "snap", "vmask", "emask", "search", "_nodes", "_ident",
        "_bfs_ws", "_dij_ws", "_multi_ws", "_use_vmask", "_use_emask",
        "_version",
    )

    def __init__(
        self,
        snapshot: Union[CSRSnapshot, Graph],
        search: Optional[str] = None,
    ) -> None:
        if not isinstance(snapshot, CSRSnapshot):
            snapshot = CSRSnapshot(snapshot)
        self.snap = snapshot
        self.search = validate_search(search, snapshot.profile)
        self.vmask = FaultMask(snapshot.csr.num_nodes)
        self.emask = FaultMask(snapshot.csr.num_edges)
        self._nodes: List[Node] = list(snapshot.indexer)
        # Identity labelling (node i is the int i) lets the batch
        # planes emit kernel indices as labels directly, skipping the
        # per-cell label translation.
        self._ident = (
            all(type(v) is int for v in self._nodes)
            and self._nodes == list(range(len(self._nodes)))
        )
        self._bfs_ws: Optional[BFSWorkspace] = None
        self._dij_ws: Optional[DijkstraWorkspace] = None
        self._multi_ws: Optional[MultiSourceWorkspace] = None
        self._use_vmask = False
        self._use_emask = False
        self._version = getattr(snapshot.csr, "version", None)

    # ------------------------------------------------------------- #
    # Scenario control
    # ------------------------------------------------------------- #

    def _refresh_if_stale(self) -> None:
        """Track a dynamic snapshot across updates and compactions.

        O(1) when the graph is frozen (no ``version`` attribute) or
        unchanged.  On a version change: grow the fault masks to the
        current node/edge-id spaces, extend the node table with any
        newly-indexed nodes, re-validate the engine choice against the
        live weight profile (churn can move it -- a float insert makes
        ``search="bucket"`` illegal, surfaced as the usual typed
        :class:`UnsupportedSearch`), and drop the stamped scenario:
        fault indices stamped against the old state must be re-stamped
        by the caller.
        """
        v = getattr(self.snap.csr, "version", None)
        if v == self._version:
            return
        self._version = v
        csr = self.snap.csr
        validate_search(self.search, self.snap.profile)
        self.vmask.ensure(csr.num_nodes)
        self.emask.ensure(csr.num_edges)
        self.clear_faults()
        nodes = self._nodes
        indexer = self.snap.indexer
        if len(nodes) < len(indexer):
            start = len(nodes)
            node_of = indexer.node
            nodes.extend(node_of(i) for i in range(start, len(indexer)))
            if self._ident:
                self._ident = all(
                    type(x) is int and x == i
                    for i, x in enumerate(nodes[start:], start)
                )

    def set_vertex_faults(self, faults: Iterable[Node]) -> FaultMask:
        """Re-stamp the vertex mask with a new fault set in O(|F|).

        Unknown nodes are silently ignored, matching the lazy views
        (filtering something that is not there is a no-op).  Clears any
        previously-stamped edge faults.
        """
        self._refresh_if_stale()
        mask = _stamp_vertex_mask(self.snap.indexer, self.vmask, faults)
        self._use_vmask = True
        self._use_emask = False
        return mask

    def set_edge_faults(self, faults: Iterable[Edge]) -> FaultMask:
        """Re-stamp the edge mask with a new fault set in O(|F|).

        Edges absent from the graph are ignored, matching the lazy
        views.  Clears any previously-stamped vertex faults.
        """
        self._refresh_if_stale()
        mask = _stamp_edge_mask(
            self.snap.indexer, self.snap.csr, self.emask, faults
        )
        self._use_emask = True
        self._use_vmask = False
        return mask

    def clear_faults(self) -> None:
        """Return to the fault-free scenario (O(1))."""
        self._use_vmask = False
        self._use_emask = False

    def stamp(self, faults: Iterable, fault_model: str = "vertex") -> None:
        """Stamp one scenario by fault model; empty means fault-free.

        The one-call form of the ``set_*``/``clear_faults`` trio that
        per-scenario consumers (oracle, router) loop on:
        ``fault_model`` is ``'vertex'`` or ``'edge'``, and an empty (or
        ``None``) fault set clears the scenario entirely.
        """
        if not faults:
            self.clear_faults()
        elif fault_model == "vertex":
            self.set_vertex_faults(faults)
        elif fault_model == "edge":
            self.set_edge_faults(faults)
        else:
            raise ValueError(
                f"fault model must be 'vertex' or 'edge', got "
                f"{fault_model!r}"
            )

    # ------------------------------------------------------------- #
    # Queries
    # ------------------------------------------------------------- #

    def distances_from(self, source: Node) -> Dict[Node, float]:
        """All distances from ``source`` under the stamped scenario.

        The CSR twin of ``dijkstra(view, source)``: reachable surviving
        nodes map to their distance, everything else is absent.  Unit
        snapshots run hop-BFS under ``search="auto"`` (identical values
        -- unit distances are exact small-integer floats); otherwise the
        resolved weighted engine (heap or bucket) runs.
        """
        self._refresh_if_stale()
        iu = self._source_index(source)
        nodes = self._nodes
        engine = sssp_engine(self.search, self.snap.profile)
        if engine == "bfs":
            raw = csr_bfs_distances(
                self.snap.csr, iu, workspace=self._bfs(),
                vertex_mask=self._vmask(), edge_mask=self._emask(),
            )
            return {nodes[i]: float(d) for i, d in raw.items()}
        raw = csr_dijkstra(
            self.snap.csr, iu, workspace=self._dij(),
            vertex_mask=self._vmask(), edge_mask=self._emask(),
            search=engine, max_weight=self.snap.max_weight,
        )
        return {nodes[i]: d for i, d in raw.items()}

    def distance(self, u: Node, v: Node) -> float:
        """The u-v distance under the stamped scenario, or ``inf``.

        Early-exits on the target; mirrors
        ``dijkstra(view, u, target=v).get(v, INFINITY)``.
        """
        self._refresh_if_stale()
        iu = self._source_index(u)
        iv = self.snap.indexer.get(v)
        if iv is None or (self._use_vmask and iv in self.vmask):
            return INFINITY  # target not in the surviving view
        if iu == iv:
            return 0.0
        engine = pair_engine(self.search, self.snap.profile)
        if engine == "bfs":
            path = csr_bounded_bfs_path(
                self.snap.csr, iu, iv, self.snap.csr.num_nodes,
                workspace=self._bfs(),
                vertex_mask=self._vmask(), edge_mask=self._emask(),
            )
            return INFINITY if path is None else float(len(path) - 1)
        return csr_weighted_distance(
            self.snap.csr, iu, iv, workspace=self._dij(),
            vertex_mask=self._vmask(), edge_mask=self._emask(),
            search=engine, max_weight=self.snap.max_weight,
        )

    def path(self, u: Node, v: Node) -> Optional[List[Node]]:
        """A minimum-weight surviving u-v path, or ``None``.

        Node-for-node identical to ``shortest_path(view, u, v)`` (the
        Dijkstra path variants reproduce the dict path's
        tie-breaking), so it is used for paths even on unit snapshots.
        """
        self._refresh_if_stale()
        indexer = self.snap.indexer
        iu, iv = indexer.get(u), indexer.get(v)
        if iu is None:
            raise KeyError(f"source {u!r} not in graph")
        if iv is None:
            raise KeyError(f"target {v!r} not in graph")
        path = csr_bounded_dijkstra_path(
            self.snap.csr, iu, iv, workspace=self._dij(),
            vertex_mask=self._vmask(), edge_mask=self._emask(),
            search=path_engine(self.search, self.snap.profile),
            max_weight=self.snap.max_weight,
        )
        if path is None:
            return None
        nodes = self._nodes
        return [nodes[i] for i in path]

    def parents_toward(self, root: Node) -> Dict[Node, Node]:
        """Shortest-path-tree parents rooted at ``root``.

        Maps each reachable surviving node to its predecessor on the
        tree -- i.e. its next hop *toward* ``root`` -- matching the dict
        path's destination-rooted Dijkstra (strict-improvement
        predecessor updates, push-order tie-breaks).  Unit snapshots use
        BFS parents, which coincide exactly: with equal weights the
        first discoverer wins under both disciplines.
        """
        self._refresh_if_stale()
        iroot = self._source_index(root, role="root")
        nodes = self._nodes
        engine = sssp_engine(self.search, self.snap.profile)
        if engine == "bfs":
            raw = csr_bfs_parents(
                self.snap.csr, iroot, workspace=self._bfs(),
                vertex_mask=self._vmask(), edge_mask=self._emask(),
            )
        else:
            raw = csr_dijkstra_parents(
                self.snap.csr, iroot, workspace=self._dij(),
                vertex_mask=self._vmask(), edge_mask=self._emask(),
                search=engine, max_weight=self.snap.max_weight,
            )
        return {nodes[i]: nodes[p] for i, p in raw.items()}

    # ------------------------------------------------------------- #
    # Batch plane (multi-source kernels)
    # ------------------------------------------------------------- #

    def distances_multi(
        self, sources: Iterable[Node]
    ) -> List[Dict[Node, float]]:
        """One :meth:`distances_from` dict per source, batched.

        The batch plane of the sweep: sources are validated exactly like
        :meth:`distances_from` (an unknown or faulted source raises
        ``KeyError``), repeated sources get independent -- identical --
        results, and an empty batch returns ``[]``.  Whenever the
        resolved engine has a multi-source kernel (BFS on unit
        snapshots, the Dial bucket sweep on integral ones) all roots of
        a chunk advance through one shared frontier, chunked at
        :data:`BATCH_ROOT_LIMIT` roots to bound label-plane memory;
        forced ``search="heap"`` and float-weighted snapshots fall back
        to a per-root loop.  Answers are bit-identical either way.
        """
        self._refresh_if_stale()
        srcs = list(sources)
        idx = [self._source_index(s) for s in srcs]
        engine = sssp_engine(self.search, self.snap.profile)
        if engine == "heap":
            return [self.distances_from(s) for s in srcs]
        nodes = self._nodes
        csr = self.snap.csr
        n = csr.num_nodes
        out: List[Dict[Node, float]] = []
        if engine == "bfs" and resolve_batch_accel() == "numpy":
            limit = max(BATCH_ROOT_LIMIT, NUMPY_BATCH_CELLS // max(1, n))
            for start in range(0, len(idx), limit):
                chunk = idx[start:start + limit]
                for vs, ds, _ in csr_bfs_multi_numpy(
                    csr, chunk, workspace=self._multi(),
                    vertex_mask=self._vmask(), edge_mask=self._emask(),
                    need_parents=False,
                ):
                    if self._ident:
                        out.append(dict(zip(vs, ds)))
                    else:
                        out.append(dict(zip(map(nodes.__getitem__, vs), ds)))
            return out
        ws = self._multi()
        for start in range(0, len(idx), BATCH_ROOT_LIMIT):
            chunk = idx[start:start + BATCH_ROOT_LIMIT]
            if engine == "bfs":
                reached = csr_bfs_multi(
                    csr, chunk, workspace=ws,
                    vertex_mask=self._vmask(), edge_mask=self._emask(),
                )
                depth = ws.depth
                base = 0
                for lst in reached:
                    out.append(
                        {nodes[v]: float(depth[base + v]) for v in lst}
                    )
                    base += n
            else:
                reached = csr_bucket_multi(
                    csr, chunk, workspace=ws,
                    vertex_mask=self._vmask(), edge_mask=self._emask(),
                    max_weight=self.snap.max_weight,
                )
                dist = ws.dist
                base = 0
                for lst in reached:
                    out.append({nodes[v]: dist[base + v] for v in lst})
                    base += n
        return out

    def parents_multi(
        self, roots: Iterable[Node]
    ) -> List[Dict[Node, Node]]:
        """One :meth:`parents_toward` dict per root, batched.

        Builds every destination-rooted shortest-path tree of the batch
        through the shared multi-source kernels (same chunking, engine
        fallback, and validation as :meth:`distances_multi`).  Each tree
        is bit-identical to a sequential :meth:`parents_toward` call --
        the per-root projection of the shared frontier preserves the
        first-discoverer / strict-improvement predecessor rule.
        """
        self._refresh_if_stale()
        rts = list(roots)
        idx = [self._source_index(r, role="root") for r in rts]
        engine = sssp_engine(self.search, self.snap.profile)
        if engine == "heap":
            return [self.parents_toward(r) for r in rts]
        nodes = self._nodes
        csr = self.snap.csr
        n = csr.num_nodes
        out: List[Dict[Node, Node]] = []
        if engine == "bfs" and resolve_batch_accel() == "numpy":
            limit = max(BATCH_ROOT_LIMIT, NUMPY_BATCH_CELLS // max(1, n))
            get = nodes.__getitem__
            for start in range(0, len(idx), limit):
                chunk = idx[start:start + limit]
                # Raw parent plane: the trees are dicts, so discovery
                # order is irrelevant and the kernel can skip its sort;
                # reached non-root cells are exactly those with a
                # non-negative parent (roots, masked, and unreachable
                # cells all carry -1).
                plane = csr_bfs_multi_numpy(
                    csr, chunk, workspace=self._multi(),
                    vertex_mask=self._vmask(), edge_mask=self._emask(),
                    need_depths=False, grouped=False,
                )
                if self._ident:
                    neg = (plane < 0).nonzero()[0]
                    if neg.size <= plane.size >> 2:
                        # Dense plane (the common case: a connected
                        # spanner under few faults reaches almost every
                        # cell): build each tree as one dict(zip(...))
                        # over the full row, then delete the few
                        # non-reached cells (root, masked, unreachable).
                        # Cheaper than extracting the reached cells'
                        # indices and gathering their values.
                        flat = plane.tolist()
                        cuts = neg.searchsorted(
                            [(r + 1) * n for r in range(len(chunk))]
                        ).tolist()
                        negl = neg.tolist()
                        a = base = 0
                        for r in range(len(chunk)):
                            d = dict(zip(nodes, flat[base:base + n]))
                            for c in negl[a:cuts[r]]:
                                del d[c - base]
                            a = cuts[r]
                            base += n
                            out.append(d)
                        continue
                    # Sparse plane: one shared pair stream consumed per
                    # root skips the per-root list-slice copies.
                    vs, ps, bounds = split_parent_plane(
                        plane, len(chunk), n)
                    pairs = zip(vs, ps)
                    for r in range(len(chunk)):
                        out.append(
                            dict(islice(pairs, bounds[r + 1] - bounds[r]))
                        )
                else:
                    vs, ps, bounds = split_parent_plane(
                        plane, len(chunk), n)
                    for r in range(len(chunk)):
                        a, b = bounds[r], bounds[r + 1]
                        out.append(
                            dict(zip(map(get, vs[a:b]), map(get, ps[a:b])))
                        )
            return out
        ws = self._multi()
        for start in range(0, len(idx), BATCH_ROOT_LIMIT):
            chunk = idx[start:start + BATCH_ROOT_LIMIT]
            if engine == "bfs":
                reached = csr_bfs_multi(
                    csr, chunk, workspace=ws,
                    vertex_mask=self._vmask(), edge_mask=self._emask(),
                )
            else:
                reached = csr_bucket_multi(
                    csr, chunk, workspace=ws,
                    vertex_mask=self._vmask(), edge_mask=self._emask(),
                    max_weight=self.snap.max_weight,
                )
            parent = ws.parent
            base = 0
            for lst in reached:
                # lst[0] is the root itself (parent -1); skip it.
                out.append(
                    {nodes[v]: nodes[parent[base + v]] for v in lst[1:]}
                )
                base += n
        return out

    # ------------------------------------------------------------- #
    # Internals
    # ------------------------------------------------------------- #

    def _source_index(self, u: Node, role: str = "source") -> int:
        """Translate a query source, raising like the dict path."""
        iu = self.snap.indexer.get(u)
        if iu is None or (self._use_vmask and iu in self.vmask):
            raise KeyError(f"{role} {u!r} not in graph")
        return iu

    def _vmask(self) -> Optional[FaultMask]:
        return self.vmask if self._use_vmask else None

    def _emask(self) -> Optional[FaultMask]:
        return self.emask if self._use_emask else None

    def _bfs(self) -> BFSWorkspace:
        ws = self._bfs_ws
        if ws is None:
            ws = self._bfs_ws = BFSWorkspace(self.snap.csr.num_nodes)
        return ws

    def _dij(self) -> DijkstraWorkspace:
        ws = self._dij_ws
        if ws is None:
            ws = self._dij_ws = DijkstraWorkspace(self.snap.csr.num_nodes)
        return ws

    def _multi(self) -> MultiSourceWorkspace:
        ws = self._multi_ws
        if ws is None:
            ws = self._multi_ws = MultiSourceWorkspace()
        return ws

    def __repr__(self) -> str:
        return f"ScenarioSweep({self.snap!r})"


class DualCSRSnapshot:
    """G and H in CSR form over one shared node-index space, plus masks.

    The base of the verification sweeps and the availability sampler:
    two :class:`CSRSnapshot` builds sharing one
    :class:`~repro.graph.index.NodeIndexer` (so a vertex mask stamped
    with G-side indices is directly valid against H), one vertex mask
    (valid against both graphs) and one edge mask per graph (edge-id
    spaces are per-graph).  The ``set_*`` methods re-stamp in O(|F|).

    ``snap_g`` / ``snap_h`` accept already-frozen snapshots so a caller
    that holds one (e.g. :class:`repro.session.SpannerSession`) can
    assemble the dual without re-freezing; they must freeze exactly
    ``g`` / ``h`` and share one indexer.
    """

    __slots__ = (
        "snap_g", "snap_h", "g", "h", "indexer", "csr_g", "csr_h",
        "vmask", "emask_g", "emask_h",
    )

    def __init__(
        self,
        g: Graph,
        h: Graph,
        *,
        snap_g: Optional[CSRSnapshot] = None,
        snap_h: Optional[CSRSnapshot] = None,
    ) -> None:
        if snap_g is None:
            # Share the other side's indexer when one was supplied, so
            # either snapshot may be passed alone.
            snap_g = CSRSnapshot(
                g, indexer=None if snap_h is None else snap_h.indexer
            )
        elif snap_g.g is not g:
            raise ValueError("snap_g does not freeze g")
        if snap_h is None:
            snap_h = CSRSnapshot(h, indexer=snap_g.indexer)
        elif snap_h.g is not h:
            raise ValueError("snap_h does not freeze h")
        elif snap_h.indexer is not snap_g.indexer:
            raise ValueError(
                "snap_g and snap_h must share one NodeIndexer (the shared "
                "index space is what makes one vertex mask valid against "
                "both graphs)"
            )
        self.snap_g = snap_g
        self.snap_h = snap_h
        self.g = g
        self.h = h
        self.indexer = self.snap_g.indexer
        self.csr_g = self.snap_g.csr
        self.csr_h = self.snap_h.csr
        self.vmask = FaultMask(len(self.indexer))
        self.emask_g = FaultMask(self.csr_g.num_edges)
        self.emask_h = FaultMask(self.csr_h.num_edges)

    def set_vertex_faults(self, faults: Iterable[Node]) -> FaultMask:
        """Re-stamp the shared vertex mask with a new fault set.

        Unknown nodes are silently ignored, matching the lazy views
        (filtering something that is not there is a no-op).
        """
        return _stamp_vertex_mask(self.indexer, self.vmask, faults)

    def set_edge_faults(
        self, faults: Iterable[Edge]
    ) -> Tuple[FaultMask, FaultMask]:
        """Re-stamp both per-graph edge-id masks with a new fault set.

        Edges absent from a graph are ignored for that graph's mask,
        matching the lazy views.  Returns ``(mask_g, mask_h)``.
        """
        faults = list(faults)
        return (
            _stamp_edge_mask(self.indexer, self.csr_g, self.emask_g, faults),
            _stamp_edge_mask(self.indexer, self.csr_h, self.emask_h, faults),
        )

    def __repr__(self) -> str:
        return f"DualCSRSnapshot(g={self.csr_g!r}, h={self.csr_h!r})"
