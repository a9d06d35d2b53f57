"""Applications built on fault-tolerant spanners.

The paper's introduction motivates spanners through their applications
(distance oracles [TZ05], synchronizers [PU89], compact routing [TZ01]);
this subpackage makes two of them concrete on top of the library's
fault-tolerant constructions:

* :class:`~repro.applications.oracle.FaultTolerantDistanceOracle` --
  answer approximate distance queries under declared fault sets from the
  spanner alone, with the (2k-1) stretch guarantee inherited from the
  construction.
* :class:`~repro.applications.routing.SpannerRouter` -- compact-style
  next-hop routing over the spanner with per-scenario fault fallback
  (the [TZ01] motivation).
* :mod:`~repro.applications.availability` -- Monte-Carlo availability
  analysis: how do a network and its spanner degrade under random
  failures beyond the designed fault budget f?

Execution: like the construction and verification layers, every
application freezes the spanner once into a
:class:`~repro.graph.snapshot.CSRSnapshot` /
:class:`~repro.graph.snapshot.DualCSRSnapshot` and answers each fault
scenario after an O(|F|) mask re-stamp on a shared
:class:`~repro.graph.snapshot.ScenarioSweep`.  The lazy-view dict
reference in ``tests/reference/`` answers bit-identically
(`tests/test_applications_parity.py`).
"""

from repro.applications.oracle import FaultTolerantDistanceOracle
from repro.applications.routing import RoutingError, SpannerRouter
from repro.applications.availability import (
    AvailabilityReport,
    availability_analysis,
    degradation_profile,
)

__all__ = [
    "FaultTolerantDistanceOracle",
    "SpannerRouter",
    "RoutingError",
    "AvailabilityReport",
    "availability_analysis",
    "degradation_profile",
]
