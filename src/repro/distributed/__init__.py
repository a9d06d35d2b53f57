"""Distributed algorithms (Section 5 of the paper) and their substrate.

The paper's LOCAL and CONGEST algorithms are implemented as genuinely
node-local protocols on a synchronous message-passing simulator
(:mod:`~repro.distributed.runtime`):

* every node runs the same :class:`~repro.distributed.runtime.NodeProtocol`
  with access only to its own ID, its incident edges, and received
  messages;
* the engine delivers messages in synchronous rounds, counts them, and
  measures per-message size in words so CONGEST's O(log n)-bit budget is
  an *observable*, not an assumption.

Algorithms:

* :func:`~repro.distributed.local_spanner.local_ft_spanner` -- Theorem 12:
  padded decomposition (Theorem 11, built on MPX-style random shifts in
  :mod:`~repro.distributed.decomposition`), greedy per cluster, union.
* :func:`~repro.distributed.congest_bs.congest_baswana_sen` -- Theorem 14:
  Baswana-Sen as a CONGEST protocol, O(k^2) rounds, O(1)-word messages.
* :func:`~repro.distributed.congest_ft.congest_ft_spanner` -- Theorem 15:
  the pipelined DK11 x Baswana-Sen fault-tolerant construction.
* :func:`~repro.distributed.ruling_set.deterministic_ruling_set` /
  :func:`~repro.distributed.ruling_set.deterministic_decomposition` --
  the deterministic (2, O(log n))-ruling-set clustering (after
  Rozhon-Ghaffari / Pai-Pemmaraju) behind ``local_ft_spanner``'s
  ``deterministic=True`` mode.

Every simulator run is sequential and in-process.  Only
``congest_ft_spanner`` takes ``workers=``: it shards its independent
Baswana-Sen instances over that many processes on the shared parallel
substrate (:mod:`repro.parallel`), with outputs and statistics
bit-identical to ``workers=None``.
"""

from repro.distributed.runtime import (
    CongestViolation,
    Message,
    NodeProtocol,
    RunStats,
    SyncNetwork,
)
from repro.distributed.decomposition import (
    Cluster,
    Decomposition,
    padded_decomposition,
    verify_decomposition,
)
from repro.distributed.local_spanner import local_ft_spanner
from repro.distributed.congest_bs import congest_baswana_sen
from repro.distributed.congest_ft import congest_ft_spanner
from repro.distributed.ruling_set import (
    RulingSet,
    deterministic_decomposition,
    deterministic_ruling_set,
    verify_ruling_set,
)

__all__ = [
    "CongestViolation",
    "Message",
    "NodeProtocol",
    "RunStats",
    "SyncNetwork",
    "Cluster",
    "Decomposition",
    "padded_decomposition",
    "verify_decomposition",
    "local_ft_spanner",
    "congest_baswana_sen",
    "congest_ft_spanner",
    "RulingSet",
    "deterministic_decomposition",
    "deterministic_ruling_set",
    "verify_ruling_set",
]
