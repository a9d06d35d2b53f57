"""Delta overlay: a mutable, copy-on-write view over a frozen CSR base.

The CSR substrate's traversal kernels read exactly one attribute surface
(``num_nodes`` / ``num_edges`` / ``neighbors`` / ``edge_id_rows`` /
``weight_rows`` / ``weights`` / ``edge_u`` / ``edge_v`` -- the
``CSRLike`` protocol that already admits :class:`~repro.graph.csr.
CSRBuilder`).  :class:`DeltaOverlay` implements that surface over a
frozen :class:`~repro.graph.csr.CSRGraph` with *copy-on-write rows*:

* construction copies only the per-node row **pointer lists** (O(n))
  plus the flat edge arrays (O(m)); the row contents themselves stay
  shared with the base;
* the first mutation touching a node privatizes that node's three rows
  (one ``list()`` copy each); every later mutation on the node is O(1)
  amortized (insert) or O(deg) (delete);
* deleted edge ids are *retired*, never renumbered: ``num_edges`` is
  the edge-id-space size and only shrinks at :meth:`rebase` (compaction)
  -- exactly the grow-only contract the generation-stamped
  :class:`~repro.graph.csr.FaultMask` buffers and the traversal
  workspaces already rely on.

Mutations mirror the dict path's :class:`~repro.graph.graph.Graph`
semantics positionally, not just set-wise: an insert appends to both
endpoint rows (u's row first), a delete removes in place preserving the
order of the remaining entries, and a delete-then-reinsert lands at the
row end -- so the overlay's row orders equal those of a from-scratch
freeze of the mutated graph at every instant.  That is the property
that makes every query on an overlay **bit-identical** to the same
query on a fresh freeze (`tests/test_dynamic.py` asserts it across
engines, fault models, and weight profiles).

A monotonic :attr:`version` counter stamps every effective mutation;
downstream caches (``ScenarioSweep`` masks, the numpy adjacency cache,
the oracle/router result caches) key on it to detect staleness in O(1).
The engine-selection weight profile is maintained *incrementally* (live
/ unit / integral counters plus a 256-slot integral-weight histogram),
so reading :attr:`profile` after churn is O(1)-ish (a 255-entry scan at
worst) instead of an O(m) re-scan -- and provably equals
:func:`~repro.graph.traversal.weight_profile` over the live weights,
because that function depends only on the weight multiset.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Set, Tuple

from repro.graph.csr import CSRGraph
from repro.graph.index import NodeIndexer
from repro.graph.traversal import BUCKET_MAX_WEIGHT

__all__ = ["DeltaOverlay"]


class DeltaOverlay:
    """Copy-on-write mutable view of a frozen CSR graph (``CSRLike``).

    Index-level: callers translate node objects through the shared
    :class:`~repro.graph.index.NodeIndexer` (see
    :class:`~repro.dynamic.snapshot.DynamicSnapshot` for the
    object-level wrapper).  Not thread-safe.
    """

    __slots__ = (
        "base", "indexer", "neighbors", "edge_id_rows", "weight_rows",
        "weights", "edge_u", "edge_v", "_eid_of", "_touched", "version",
        "_live", "_unit", "_int", "_int_counts", "inserted", "deleted",
        "_profile_version", "_profile", "_max_weight",
    )

    def __init__(self, base: CSRGraph, version: int = 1) -> None:
        if base.indexer is None:
            raise ValueError(
                "DeltaOverlay requires a CSRGraph with a NodeIndexer "
                "(updates arrive as node objects)"
            )
        self.version = version - 1  # rebase bumps it to ``version``
        self.rebase(base)

    # ------------------------------------------------------------- #
    # Epoch control
    # ------------------------------------------------------------- #

    def rebase(self, base: CSRGraph) -> None:
        """Adopt ``base`` as the new frozen epoch (compaction target).

        Re-points every row at the fresh base (sharing row objects until
        they are next touched), resets the retirement set, and bumps
        :attr:`version` -- in place, so every holder of this overlay
        (sweeps, dual snapshots, flow networks) observes the compaction
        through the version stamp instead of a dangling object.
        """
        self.base = base
        self.indexer: NodeIndexer = base.indexer
        # Outer lists are copied (rows get appended / replaced on
        # privatization); inner row objects stay shared with the base.
        self.neighbors: List[List[int]] = list(base.neighbors)
        self.edge_id_rows: List[List[int]] = list(base.edge_id_rows)
        self.weight_rows: List[List[float]] = list(base.weight_rows)
        self.weights = array("d", base.weights)
        self.edge_u = array("q", base.edge_u)
        self.edge_v = array("q", base.edge_v)
        self._eid_of: Dict[Tuple[int, int], int] = dict(base._eid_of)
        self._touched: Set[int] = set()
        self.inserted = 0
        self.deleted = 0
        self._recount()
        self.version += 1

    # ------------------------------------------------------------- #
    # CSRLike surface
    # ------------------------------------------------------------- #

    @property
    def num_nodes(self) -> int:
        return len(self.neighbors)

    @property
    def num_edges(self) -> int:
        """Edge-id-space size (retired ids included; shrinks only at rebase)."""
        return len(self.weights)

    @property
    def live_edges(self) -> int:
        """Edges actually present (excludes retired ids)."""
        return self._live

    def degree(self, i: int) -> int:
        return len(self.neighbors[i])

    def has_edge(self, i: int, j: int) -> bool:
        key = (i, j) if i < j else (j, i)
        return key in self._eid_of

    def edge_id(self, i: int, j: int) -> int:
        key = (i, j) if i < j else (j, i)
        return self._eid_of[key]

    def owns_edge_id(self, eid: int) -> bool:
        """Whether dense id ``eid`` is live (not retired by a delete).

        Retired ids keep their slots in the flat arrays (masks stamped
        against the old id space must stay in bounds), so consumers
        that enumerate ``range(num_edges)`` -- e.g. the flow layer's
        :class:`~repro.flow.dinitz.DisjointPathNetwork` -- use this to
        skip ids the edge map no longer points at.  A deleted-then-
        re-inserted edge gets a *new* id, so the old one stays retired.
        """
        a, b = self.edge_u[eid], self.edge_v[eid]
        return self._eid_of.get((a, b)) == eid

    # ------------------------------------------------------------- #
    # Engine-selection profile (incremental weight_profile twin)
    # ------------------------------------------------------------- #

    @property
    def profile(self) -> str:
        """``"unit"`` / ``"int"`` / ``"float"`` over the *live* weights."""
        return self._profile_pair()[0]

    @property
    def max_weight(self) -> int:
        """Largest live weight as an int for unit/int profiles, else 0."""
        return self._profile_pair()[1]

    def _profile_pair(self) -> Tuple[str, int]:
        if self._profile_version != self.version:
            if self._unit == self._live:
                pair = ("unit", 1)
            elif self._int == self._live:
                counts = self._int_counts
                max_w = 1
                for w in range(BUCKET_MAX_WEIGHT, 1, -1):
                    if counts[w]:
                        max_w = w
                        break
                pair = ("int", max_w)
            else:
                pair = ("float", 0)
            self._profile, self._max_weight = pair
            self._profile_version = self.version
        return self._profile, self._max_weight

    def _recount(self) -> None:
        self._live = 0
        self._unit = 0
        self._int = 0
        self._int_counts = [0] * (BUCKET_MAX_WEIGHT + 1)
        for w in self.weights:
            self._count(w, 1)
        self._profile_version = -1
        self._profile = "unit"
        self._max_weight = 1

    def _count(self, w: float, delta: int) -> None:
        self._live += delta
        if w == 1.0:
            self._unit += delta
            self._int += delta
            self._int_counts[1] += delta
        elif 1.0 <= w <= BUCKET_MAX_WEIGHT and w == int(w):
            self._int += delta
            self._int_counts[int(w)] += delta

    # ------------------------------------------------------------- #
    # Mutations (index-level; callers validate against the dict graph)
    # ------------------------------------------------------------- #

    def ensure_nodes(self, n: int) -> None:
        """Grow to at least ``n`` nodes (fresh isolated rows)."""
        while len(self.neighbors) < n:
            i = len(self.neighbors)
            self._touched.add(i)
            self.neighbors.append([])
            self.edge_id_rows.append([])
            self.weight_rows.append([])

    def insert(self, i: int, j: int, weight: float = 1.0) -> int:
        """Append the (absent) edge ``{i, j}``; returns its fresh edge id.

        Mirrors ``Graph.add_edge`` row order: appended to ``i``'s row
        first, then ``j``'s.  The caller guarantees the edge is absent
        (re-inserts route through :meth:`update_weight`).
        """
        key = (i, j) if i < j else (j, i)
        eid = len(self.weights)
        self._eid_of[key] = eid
        self.weights.append(weight)
        self.edge_u.append(key[0])
        self.edge_v.append(key[1])
        self._privatize(i)
        self._privatize(j)
        self.neighbors[i].append(j)
        self.edge_id_rows[i].append(eid)
        self.weight_rows[i].append(weight)
        self.neighbors[j].append(i)
        self.edge_id_rows[j].append(eid)
        self.weight_rows[j].append(weight)
        self._count(weight, 1)
        self.inserted += 1
        self.version += 1
        return eid

    def delete(self, i: int, j: int) -> int:
        """Remove the live edge ``{i, j}`` in place; returns the retired id.

        The remaining row entries keep their relative order (dict
        ``del`` semantics); the edge id is retired -- popped from the
        lookup map but never reused, so masks stamped against the old
        id space stay within bounds.
        """
        key = (i, j) if i < j else (j, i)
        eid = self._eid_of.pop(key)
        for x in (i, j):
            self._privatize(x)
            pos = self.edge_id_rows[x].index(eid)
            del self.neighbors[x][pos]
            del self.edge_id_rows[x][pos]
            del self.weight_rows[x][pos]
        self._count(self.weights[eid], -1)
        self.deleted += 1
        self.version += 1
        return eid

    def update_weight(self, i: int, j: int, weight: float) -> int:
        """Overwrite the live edge ``{i, j}``'s weight in place."""
        key = (i, j) if i < j else (j, i)
        eid = self._eid_of[key]
        old = self.weights[eid]
        self.weights[eid] = weight
        for x in (i, j):
            self._privatize(x)
            pos = self.edge_id_rows[x].index(eid)
            self.weight_rows[x][pos] = weight
        self._count(old, -1)
        self._count(weight, 1)
        self.version += 1
        return eid

    # ------------------------------------------------------------- #

    def _privatize(self, i: int) -> None:
        """Give node ``i`` private row copies before its first mutation."""
        touched = self._touched
        if i not in touched:
            touched.add(i)
            self.neighbors[i] = list(self.neighbors[i])
            self.edge_id_rows[i] = list(self.edge_id_rows[i])
            self.weight_rows[i] = list(self.weight_rows[i])

    def density(self) -> float:
        """Overlay churn relative to the base epoch's size.

        ``(inserted + deleted) / max(1, base edges)`` -- the auto
        compaction trigger's measure of how far the overlay has drifted
        from its frozen base.
        """
        return (self.inserted + self.deleted) / max(1, self.base.num_edges)

    def __repr__(self) -> str:
        return (
            f"DeltaOverlay(n={self.num_nodes}, live={self._live}, "
            f"+{self.inserted}/-{self.deleted}, v{self.version})"
        )
