"""Independent checks of the greedy's per-edge cut certificates.

When the modified greedy adds an edge {u, v}, the LBC run that triggered
the addition produced a fault set F_e that really does separate u and v
by more than 2k - 1 hops in the spanner-so-far.  Since the spanner only
grows, F_e remains a certificate against the *final* H minus the edge
itself... it does not (the final H contains {u, v} and possibly later
edges that restore short paths).  What the certificate *does* prove, and
what these checks verify, is:

1. F_e was a genuine length-(2k-1) cut at addition time.  We replay the
   construction to check this (``check_certificates(replay=True)``).
2. F_e has size at most (2k - 1) * f (Theorem 4's NO-side bound) and
   avoids the edge's endpoints -- the structural facts Lemma 6 needs.

Execution: dict only, deliberately.  These checks are the independent
auditor of the (CSR-produced) certificates, so they stay on the
reference path: one hop-bounded BFS per certificate over a lazy fault
view, O(|certificates| * (m' + n)) for a replay over a spanner with m'
edges.

Disjoint-path certificates
--------------------------
Cut certificates are the NO side of fault tolerance (a fault set that
*breaks* a pair, justifying an edge addition); ``disjoint_paths`` is
the YES side: ``count`` pairwise disjoint u-v paths within a length
bound certify -- by Menger's theorem -- that no fault set smaller than
``count`` can break the pair.  Production runs on the CSR Dinic engine
(:mod:`repro.flow.dinitz`), but in keeping with this module's auditor
role every produced certificate is re-validated with
:func:`check_disjoint_paths` on the dict path before it is returned,
so a bug in the flow engine turns into a loud error here rather than a
silently wrong certificate.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from repro.core.spanner import FaultModel, SpannerResult
from repro.flow.dinitz import DisjointPathNetwork
from repro.graph.csr import CSRGraph
from repro.graph.graph import Edge, Graph, Node, edge_key
from repro.graph.traversal import bounded_bfs_path
from repro.graph.views import EdgeFaultView, VertexFaultView


def check_cut_certificate(
    h: Graph,
    u: Node,
    v: Node,
    t: int,
    cut: FrozenSet,
    fault_model: Union[FaultModel, str] = FaultModel.VERTEX,
) -> bool:
    """Whether ``cut`` separates u, v by more than ``t`` hops in ``h``."""
    model = FaultModel.coerce(fault_model)
    if model is FaultModel.VERTEX:
        if u in cut or v in cut:
            raise ValueError("certificate may not contain a terminal")
        view = VertexFaultView(h, cut) if cut else h
    else:
        view = EdgeFaultView(h, cut) if cut else h
    return bounded_bfs_path(view, u, v, max_hops=t) is None


def check_certificates(
    g: Graph, result: SpannerResult, replay: bool = True
) -> List[str]:
    """Validate every certificate in a greedy result; return problems.

    An empty return list means all checks passed.  With ``replay=True``
    the greedy's edge additions are re-simulated in the order recorded so
    each certificate is checked against the spanner state at its own
    addition time (the sound check); with ``replay=False`` only the
    structural size/endpoint facts are checked (fast).
    """
    problems: List[str] = []
    t = result.stretch
    k = result.k
    f = result.f
    max_cut = (2 * k - 1) * f
    model = result.fault_model
    for e, cut in result.certificates.items():
        if len(cut) > max_cut:
            problems.append(
                f"certificate for {e} has size {len(cut)} > (2k-1)f = {max_cut}"
            )
        if model is FaultModel.VERTEX and (e[0] in cut or e[1] in cut):
            problems.append(f"certificate for {e} contains an endpoint")
    if not replay:
        return problems

    # Replay: rebuild H edge by edge in the construction order.  The
    # certificates dict is insertion-ordered (Python dict semantics) and
    # the greedy inserted one entry per added edge, so its key order *is*
    # the addition order.
    spanner_edges = {edge_key(u, v) for u, v in result.spanner.edges()}
    certified = set(result.certificates)
    for missing in sorted(spanner_edges - certified, key=repr):
        problems.append(f"spanner edge {missing} has no certificate")
    partial = g.spanning_skeleton()
    for key, cut in result.certificates.items():
        u, v = key
        if model is FaultModel.VERTEX and (u in cut or v in cut):
            # Already reported as a structural violation above; replaying
            # it would make check_cut_certificate raise rather than let
            # the remaining certificates be audited.
            partial.add_edge(u, v, weight=g.weight(u, v))
            continue
        if not check_cut_certificate(partial, u, v, t, cut, model):
            problems.append(
                f"certificate for {key} does not cut it at addition time"
            )
        partial.add_edge(u, v, weight=g.weight(u, v))
    return problems


def check_disjoint_paths(
    h: Graph,
    u: Node,
    v: Node,
    paths: List[List[Node]],
    count: Optional[int] = None,
    max_length: Optional[float] = None,
    fault_model: Union[FaultModel, str] = FaultModel.VERTEX,
) -> List[str]:
    """Audit a disjoint-path certificate; return the list of problems.

    An empty return means ``paths`` really certify what they claim:
    every path runs u -> v over edges of ``h`` within ``max_length``
    (weighted), the paths are pairwise disjoint under ``fault_model``
    (internally vertex-disjoint / edge-disjoint), and there are at
    least ``count`` of them.  Pure dict-path checks -- no flow engine
    involved, so this audits :func:`disjoint_paths` independently.
    """
    model = FaultModel.coerce(fault_model)
    problems: List[str] = []
    if count is not None and len(paths) < count:
        problems.append(f"{len(paths)} paths certify less than count={count}")
    seen_interior: set = set()
    seen_edges: set = set()
    for idx, path in enumerate(paths):
        label = f"path {idx}"
        if len(path) < 2 or path[0] != u or path[-1] != v:
            problems.append(f"{label} does not run {u!r} -> {v!r}: {path}")
            continue
        length = 0.0
        broken = False
        for a, b in zip(path, path[1:]):
            if not h.has_edge(a, b):
                problems.append(f"{label} uses a non-edge ({a!r}, {b!r})")
                broken = True
                break
            length += h.weight(a, b)
        if broken:
            continue
        if max_length is not None and length > max_length:
            problems.append(
                f"{label} has length {length} > bound {max_length}"
            )
        interior = path[1:-1]
        if len(set(interior)) != len(interior) or u in interior \
                or v in interior:
            problems.append(f"{label} is not simple: {path}")
        if model is FaultModel.VERTEX:
            clashes = seen_interior.intersection(interior)
            if clashes:
                problems.append(
                    f"{label} shares interior vertices "
                    f"{sorted(clashes, key=repr)} with an earlier path"
                )
            seen_interior.update(interior)
        else:
            keys = {edge_key(a, b) for a, b in zip(path, path[1:])}
            clashes = seen_edges.intersection(keys)
            if clashes:
                problems.append(
                    f"{label} shares edges {sorted(clashes)} "
                    f"with an earlier path"
                )
            seen_edges.update(keys)
    return problems


def disjoint_paths(
    h: Graph,
    u: Node,
    v: Node,
    count: int,
    max_length: Optional[float] = None,
    fault_model: Union[FaultModel, str] = FaultModel.VERTEX,
) -> Optional[List[List[Node]]]:
    """Produce a ``count``-disjoint-path certificate for (u, v) in ``h``.

    Returns ``count`` pairwise disjoint u-v paths -- internally
    vertex-disjoint under the vertex model, edge-disjoint under the
    edge model -- each of weighted length at most ``max_length`` (no
    bound when ``None``), or ``None`` when the flow engine cannot
    produce one.  By Menger's theorem such a certificate proves the
    pair survives every fault set of size < ``count`` within the
    length bound.

    Sound but not complete under a length bound: length-bounded
    disjoint paths are found by max-flow followed by a length filter,
    so ``None`` does not prove absence (length-bounded Menger has a
    gap); callers needing an exact answer fall back to enumeration,
    as ``verify_ft_spanner(mode="witness")`` does.

    Every returned certificate has been re-audited by
    :func:`check_disjoint_paths` on the dict path; a flow-engine bug
    raises ``AssertionError`` here instead of leaking a bad
    certificate.
    """
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    if u == v:
        raise ValueError("certificate endpoints must be distinct")
    if not (h.has_node(u) and h.has_node(v)):
        raise KeyError(f"{u!r} or {v!r} not in the graph")
    model = FaultModel.coerce(fault_model)
    csr = CSRGraph.from_graph(h)
    index = csr.indexer.index
    network = DisjointPathNetwork(csr, model.value)
    raw = network.disjoint_paths(index(u), index(v))
    node_of = csr.indexer.node
    candidates = []
    for path_idx in raw:
        path = [node_of(i) for i in path_idx]
        length = sum(h.weight(a, b) for a, b in zip(path, path[1:]))
        candidates.append((length, path))
    candidates.sort(key=lambda item: (item[0], [repr(x) for x in item[1]]))
    if max_length is not None:
        candidates = [c for c in candidates if c[0] <= max_length]
    if len(candidates) < count:
        return None
    chosen = [path for _, path in candidates[:count]]
    problems = check_disjoint_paths(
        h, u, v, chosen, count=count, max_length=max_length,
        fault_model=model,
    )
    assert not problems, f"flow engine produced a bad certificate: {problems}"
    return chosen
