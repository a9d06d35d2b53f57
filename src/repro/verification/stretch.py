"""Stretch measurement.

The stretch of a spanner H w.r.t. G (possibly after removing a fault set
F) is ``max over pairs u,v of d_{H\\F}(u, v) / d_{G\\F}(u, v)``.  By the
paper's Lemma 3 it suffices to range over pairs that are *edges of G*
whose weight is realized as the post-fault distance; we expose both the
edge-restricted measure (fast, what the proofs bound) and the full
all-pairs measure (what a user of the spanner experiences).

Execution
---------
Measuring stretch is two Dijkstras per pair, so for concrete
:class:`~repro.graph.graph.Graph` inputs both graphs are snapshotted
once over a shared :class:`~repro.graph.index.NodeIndexer` and every
pair is probed with early-exit CSR Dijkstra through one reusable
:class:`~repro.graph.traversal.DijkstraWorkspace`;
:func:`max_stretch_under_faults` stamps the fault set into
generation-stamped masks instead of building ``G \\ F`` / ``H \\ F``
views.  Lazy :class:`~repro.graph.views.GraphView` inputs have no
snapshot and are probed with dict Dijkstra (:func:`stretch_of_pair`).
The dict reference in ``tests/reference/`` computes identical ratios.
Complexity: O(|pairs|) Dijkstras, each a flat-array heap scan with zero
per-pair allocation.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.graph.graph import Edge, Graph, Node
from repro.graph.traversal import (
    DijkstraWorkspace,
    csr_weighted_distance,
    dijkstra,
)
from repro.graph.views import GraphView
from repro.graph.snapshot import DualCSRSnapshot, weighted_pair_engine

INFINITY = math.inf

GraphLike = Union[Graph, GraphView]


def stretch_of_pair(
    g: GraphLike, h: GraphLike, u: Node, v: Node
) -> float:
    """d_H(u, v) / d_G(u, v) for one pair.

    Conventions: 0/0 (same node) and inf/inf (disconnected in both) are
    stretch 1; finite/inf cannot happen for subgraphs of G; inf/finite is
    stretch inf (H lost the connection).
    """
    dg = dijkstra(g, u, target=v).get(v, INFINITY)
    dh = dijkstra(h, u, target=v).get(v, INFINITY)
    return _ratio(dg, dh)


def _ratio(dg: float, dh: float) -> float:
    """Apply the :func:`stretch_of_pair` conventions to two distances."""
    if dg == 0.0 or (math.isinf(dg) and math.isinf(dh)):
        return 1.0
    if math.isinf(dh):
        return INFINITY
    return dh / dg


class _CSRStretchSweep:
    """Shared flat-array state for one stretch measurement call.

    A :class:`DualCSRSnapshot` (G and H over one shared indexer) plus a
    single reusable workspace; per-pair probes are early-exit CSR
    Dijkstras, and optional fault masks stand in for the ``G \\ F`` /
    ``H \\ F`` views.

    Each side probes with the engine its weight profile picks
    (bidirectional Dijkstra on integral weights, the heap otherwise).
    """

    __slots__ = (
        "snap", "ws", "use_vmask", "use_emasks", "eng_g", "eng_h",
    )

    def __init__(self, g: Graph, h: Graph) -> None:
        self.snap = DualCSRSnapshot(g, h)
        self.eng_g = weighted_pair_engine(self.snap.snap_g.profile)
        self.eng_h = weighted_pair_engine(self.snap.snap_h.profile)
        self.ws = DijkstraWorkspace(len(self.snap.indexer))
        self.use_vmask = False
        self.use_emasks = False

    def set_vertex_faults(self, faults: Iterable[Node]) -> None:
        """Stamp a vertex fault set (shared index space: one mask)."""
        self.snap.set_vertex_faults(faults)
        self.use_vmask = True

    def set_edge_faults(self, faults: Iterable[Edge]) -> None:
        """Stamp an edge fault set into per-graph edge-id masks."""
        self.snap.set_edge_faults(faults)
        self.use_emasks = True

    def stretch(self, u: Node, v: Node) -> float:
        """Stretch of one pair under the currently-stamped faults.

        Odd pairs follow :func:`stretch_of_pair`'s semantics: a source
        missing from either graph raises ``KeyError`` (as dict
        Dijkstra does), while an unknown *target* is merely unreachable
        and falls into the usual ratio conventions.
        """
        snap = self.snap
        if not snap.g.has_node(u):
            raise KeyError(f"source {u!r} not in graph")
        if not snap.h.has_node(u):
            raise KeyError(f"source {u!r} not in graph")
        iu = snap.indexer.index(u)
        iv = snap.indexer.get(v)
        if iv is None:
            return _ratio(INFINITY, INFINITY)  # unreachable in both
        vmask = snap.vmask if self.use_vmask else None
        if iv >= snap.csr_g.num_nodes:
            # v exists only in H (indexed after csr_g was frozen): it
            # is unreachable in G.
            dg = INFINITY
        else:
            dg = csr_weighted_distance(
                snap.csr_g, iu, iv, workspace=self.ws, vertex_mask=vmask,
                edge_mask=snap.emask_g if self.use_emasks else None,
                search=self.eng_g,
            )
        dh = csr_weighted_distance(
            snap.csr_h, iu, iv, workspace=self.ws, vertex_mask=vmask,
            edge_mask=snap.emask_h if self.use_emasks else None,
            search=self.eng_h,
        )
        return _ratio(dg, dh)


def pairwise_stretch(
    g: GraphLike,
    h: GraphLike,
    pairs: Optional[Iterable[Tuple[Node, Node]]] = None,
) -> Dict[Tuple[Node, Node], float]:
    """Stretch for each pair (default: every edge of ``g``).

    Edge pairs are exactly the set Lemma 3 says suffices; full all-pairs
    measurement is available by passing explicit pairs.
    """
    if pairs is None:
        pairs = _edge_pairs(g)
    probe = _probe(g, h)
    return {(u, v): probe(u, v) for u, v in pairs}


def max_stretch(
    g: GraphLike,
    h: GraphLike,
    pairs: Optional[Iterable[Tuple[Node, Node]]] = None,
) -> float:
    """Worst-case stretch of H over the given pairs (default: edges of G).

    For subgraphs H of G, maximizing over the edges of G provably equals
    maximizing over all pairs (the Lemma 3 argument: concatenate per-edge
    detours along a shortest path).
    """
    if pairs is None:
        pairs = _edge_pairs(g)
    return _worst_ratio(_probe(g, h), pairs)


def _probe(g: GraphLike, h: GraphLike):
    """The per-pair stretch probe: CSR for Graphs, dict for views."""
    if isinstance(g, Graph) and isinstance(h, Graph):
        return _CSRStretchSweep(g, h).stretch

    def probe(u: Node, v: Node) -> float:
        return stretch_of_pair(g, h, u, v)

    return probe


def _worst_ratio(probe, pairs) -> float:
    """Max of ``probe`` over ``pairs``, short-circuiting at infinity."""
    worst = 1.0
    for u, v in pairs:
        worst = max(worst, probe(u, v))
        if math.isinf(worst):
            break
    return worst


def max_stretch_under_faults(
    g: Graph,
    h: Graph,
    faults: Iterable,
    fault_model: str = "vertex",
) -> float:
    """Worst-case stretch of ``H \\ F`` w.r.t. ``G \\ F``.

    ``faults`` is a vertex set or edge set per ``fault_model``.  Pairs
    range over the edges of ``G \\ F`` (sufficient by Lemma 3).  The
    fault set is a mask re-stamp on the shared snapshot.
    """
    faults = list(faults)
    if fault_model not in ("vertex", "edge"):
        raise ValueError(f"unknown fault model {fault_model!r}")
    sweep = _CSRStretchSweep(g, h)
    snap = sweep.snap
    index = snap.indexer.index
    if fault_model == "vertex":
        sweep.set_vertex_faults(faults)
        vstamp, vgen = snap.vmask.stamp, snap.vmask.gen
        pairs = [
            (u, v) for u, v in g.edges()
            if vstamp[index(u)] != vgen and vstamp[index(v)] != vgen
        ]
    else:
        sweep.set_edge_faults(faults)
        estamp, egen = snap.emask_g.stamp, snap.emask_g.gen
        pairs = [
            (u, v) for u, v in g.edges()
            if estamp[snap.csr_g.edge_id(index(u), index(v))] != egen
        ]
    return _worst_ratio(sweep.stretch, pairs)


def _edge_pairs(g: GraphLike) -> Iterable[Tuple[Node, Node]]:
    """Edge endpoints of a graph or view (views filter faulted edges)."""
    if isinstance(g, Graph):
        return list(g.edges())
    pairs = []
    seen = set()
    for u in g.nodes():
        for v in g.neighbors(u):
            if (v, u) not in seen:
                seen.add((u, v))
                pairs.append((u, v))
    return pairs
