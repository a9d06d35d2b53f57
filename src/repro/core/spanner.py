"""Result types shared by every spanner construction in the library.

A construction returns a :class:`SpannerResult`: the spanner subgraph plus
the parameters it was built for, instrumentation counters, and (for the
greedy family) the per-edge cut certificates that the paper's Lemma 6
turns into a blocking set.  Keeping the certificates makes the size
analysis *checkable*, not just provable: tests assemble the blocking set
and verify Definition 2 directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from repro.graph.graph import Edge, Graph, Node


class FaultModel(enum.Enum):
    """Which objects fail: vertices (f-VFT) or edges (f-EFT)."""

    VERTEX = "vertex"
    EDGE = "edge"

    @classmethod
    def coerce(cls, value: "FaultModel | str") -> "FaultModel":
        """Accept either the enum or its string name ('vertex' / 'edge')."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValueError(
                f"fault model must be 'vertex' or 'edge', got {value!r}"
            ) from None


@dataclass
class SpannerResult:
    """Output of a fault-tolerant spanner construction.

    Attributes
    ----------
    spanner:
        The subgraph ``H`` (always spanning: same node set as the input).
    k:
        Stretch parameter; the stretch guarantee is ``2k - 1``.
    f:
        Number of faults tolerated.
    fault_model:
        Vertex or edge fault tolerance.
    algorithm:
        Human-readable name of the construction that produced this result.
    certificates:
        For greedy constructions: maps each spanner edge to the fault-set
        certificate found when it was added (the set ``F_e`` of Lemma 6).
        Empty for constructions that do not produce certificates.
    edges_considered:
        How many candidate edges the construction examined.
    bfs_calls:
        Total hop-bounded BFS invocations (the dominant cost; Theorem 9
        bounds this by ``m * (f + 1)``).
    rounds:
        For distributed constructions, the number of communication rounds
        used; ``None`` for centralized ones.
    extra:
        Free-form instrumentation (message counts, iteration counts, ...).
    """

    spanner: Graph
    k: int
    f: int
    fault_model: FaultModel
    algorithm: str
    certificates: Dict[Edge, FrozenSet] = field(default_factory=dict)
    edges_considered: int = 0
    bfs_calls: int = 0
    rounds: Optional[int] = None
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def stretch(self) -> int:
        """The stretch guarantee ``2k - 1``."""
        return 2 * self.k - 1

    @property
    def num_edges(self) -> int:
        """Number of edges in the spanner."""
        return self.spanner.num_edges

    @property
    def num_nodes(self) -> int:
        """Number of nodes (equals the input graph's node count)."""
        return self.spanner.num_nodes

    def compression_ratio(self, original: Graph) -> float:
        """|E(H)| / |E(G)| -- how much of the input survived."""
        if original.num_edges == 0:
            return 1.0
        return self.spanner.num_edges / original.num_edges

    def describe(self) -> str:
        """One-line human-readable summary for experiment logs."""
        model = "VFT" if self.fault_model is FaultModel.VERTEX else "EFT"
        parts = [
            f"{self.algorithm}: {self.f}-{model} {self.stretch}-spanner",
            f"n={self.num_nodes}",
            f"|E(H)|={self.num_edges}",
        ]
        if self.rounds is not None:
            parts.append(f"rounds={self.rounds}")
        return "  ".join(parts)
