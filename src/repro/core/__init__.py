"""The paper's primary contribution: fault-tolerant spanner constructions.

Public entry points
-------------------

:func:`~repro.core.greedy_modified.fault_tolerant_spanner`
    The headline polynomial-time algorithm (Algorithms 3 and 4 of the
    paper, selected automatically by whether the input is weighted).
:func:`~repro.core.greedy_exact.exponential_greedy_spanner`
    Algorithm 1, the size-optimal but exponential-time greedy of
    [BDPW18, BP19]; usable on small instances as the optimality baseline.
:mod:`~repro.core.blocking`
    Blocking sets (Definition 2): construction of the Lemma 6 certificate
    from a greedy run, verification, and the Lemma 7 high-girth subgraph
    extraction.
:mod:`~repro.core.bounds`
    Closed-form size/time bounds from Theorems 2, 8, 9, 10, 12, 13, 15.
"""

from repro.core.spanner import FaultModel, SpannerResult
from repro.core.greedy_modified import (
    fault_tolerant_spanner,
    modified_greedy_unweighted,
    modified_greedy_weighted,
)
from repro.core.greedy_exact import exponential_greedy_spanner
from repro.core.incremental import IncrementalSpanner, incremental_spanner
from repro.core.blocking import (
    BlockingSet,
    blocking_set_from_certificates,
    extract_high_girth_subgraph,
    is_blocking_set,
)
from repro.core import bounds

__all__ = [
    "FaultModel",
    "SpannerResult",
    "fault_tolerant_spanner",
    "modified_greedy_unweighted",
    "modified_greedy_weighted",
    "exponential_greedy_spanner",
    "IncrementalSpanner",
    "incremental_spanner",
    "BlockingSet",
    "blocking_set_from_certificates",
    "extract_high_girth_subgraph",
    "is_blocking_set",
    "bounds",
]
