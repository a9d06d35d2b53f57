"""Dict-of-dict reference implementations: the oracle for the CSR path.

The library runs every construction, sweep, and query on the flat-array
CSR substrate.  This package keeps the original dict formulations -- the
dict :class:`~repro.graph.graph.Graph`, lazy fault views, dict
BFS/Dijkstra, and the dict LBC -- so the parity suites can compare the
production answers against an independent execution with ``==``: the
same spanners, certificates and BFS counts; the same verification and
stretch reports; the same oracle distances, router tables and
availability reports.

Two rules keep the oracle honest (``tests/test_backend_parity.py``
checks both):

* nothing under ``src/`` imports this package, and
* no module here imports :mod:`repro.graph.csr` or
  :mod:`repro.graph.snapshot` itself.

Validation helpers and the fault-set enumeration order are shared with
the production modules on purpose: they are what the two executions
must agree on, not what is being tested.
"""

from tests.reference.applications import (
    FaultTolerantDistanceOracle,
    SpannerRouter,
    apply_updates,
    availability_analysis,
    degradation_profile,
    dijkstra_parents,
)
from tests.reference.constructions import (
    IncrementalSpanner,
    baswana_sen_spanner,
    classic_greedy_spanner,
    exponential_greedy_spanner,
    fault_tolerant_spanner,
    incremental_spanner,
    modified_greedy_unweighted,
    modified_greedy_weighted,
)
from tests.reference.verification import (
    is_spanner,
    max_stretch,
    max_stretch_under_faults,
    pairwise_stretch,
    verify_ft_spanner,
)

__all__ = [
    "FaultTolerantDistanceOracle",
    "IncrementalSpanner",
    "SpannerRouter",
    "apply_updates",
    "availability_analysis",
    "baswana_sen_spanner",
    "classic_greedy_spanner",
    "degradation_profile",
    "dijkstra_parents",
    "exponential_greedy_spanner",
    "fault_tolerant_spanner",
    "incremental_spanner",
    "is_spanner",
    "max_stretch",
    "max_stretch_under_faults",
    "modified_greedy_unweighted",
    "modified_greedy_weighted",
    "pairwise_stretch",
    "verify_ft_spanner",
]
