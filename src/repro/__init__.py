"""repro: fault-tolerant graph spanners.

A complete implementation of *"Efficient and Simple Algorithms for
Fault-Tolerant Spanners"* (Dinitz & Robelle, PODC 2020): the
polynomial-time modified greedy (Theorems 2, 5, 8-10), the
Length-Bounded Cut approximation it is built on (Theorem 4), the
exponential-time optimal greedy baseline [BDPW18, BP19], the LOCAL and
CONGEST distributed constructions (Theorems 12, 14, 15) on a synchronous
message-passing simulator, the prior-work baselines ([ADD+93], [TZ05],
[CLPR10], [BS07], [DK11]), and verification machinery for everything.

Public API
----------
Two layers (see ``docs/architecture.md``, "Public API"):

* :func:`repro.registry.build_spanner` -- one dispatcher over every
  registered construction, with capability validation (unsupported
  options raise typed errors instead of being ignored).  Discover the
  catalog with :func:`repro.registry.algorithm_names` or
  ``ftspanner algorithms``.
* :class:`repro.session.SpannerSession` -- a build -> verify -> query
  facade that freezes each graph into the CSR substrate at most once
  per session and shares the snapshot across verification, oracles,
  routing, and availability analysis.

Quickstart
----------
>>> from repro import SpannerSession, generators
>>> g = generators.gnp_random_graph(100, 0.2, seed=0)
>>> session = SpannerSession(g, k=2, f=2)       # 2-fault 3-spanner
>>> result = session.build("greedy")
>>> result.spanner.num_edges < g.num_edges
True
>>> bool(session.verify(samples=50))
True

The per-algorithm functions (``fault_tolerant_spanner`` and friends)
live in their defining submodules (``repro.core``, ``repro.baselines``,
``repro.distributed``); this package exports the registry and session
layer in their place.
"""

from repro.core import (
    FaultModel,
    IncrementalSpanner,
    SpannerResult,
    bounds,
    modified_greedy_unweighted,
    modified_greedy_weighted,
)
from repro.graph import Graph, generators
from repro.graph import io as graph_io
from repro.lbc import lbc_edge, lbc_vertex
from repro import baselines as _baselines  # registers the baselines
from repro.distributed import padded_decomposition
from repro.verification import (
    is_spanner,
    max_stretch,
    max_stretch_under_faults,
    verify_ft_spanner,
)
from repro.applications import (
    FaultTolerantDistanceOracle,
    availability_analysis,
    degradation_profile,
)
from repro.registry import (
    AlgorithmSpec,
    UnknownAlgorithm,
    UnsupportedOption,
    algorithm_names,
    build_spanner,
    get_algorithm,
    register_algorithm,
)
from repro.session import SpannerSession

__version__ = "2.0.0"

__all__ = [
    "Graph",
    "FaultModel",
    "SpannerResult",
    "bounds",
    "generators",
    "graph_io",
    # The unified public API.
    "AlgorithmSpec",
    "SpannerSession",
    "UnknownAlgorithm",
    "UnsupportedOption",
    "algorithm_names",
    "build_spanner",
    "get_algorithm",
    "register_algorithm",
    # Construction internals that remain canonical here.
    "modified_greedy_unweighted",
    "modified_greedy_weighted",
    "IncrementalSpanner",
    "lbc_vertex",
    "lbc_edge",
    "padded_decomposition",
    # Verification and applications.
    "is_spanner",
    "max_stretch",
    "max_stretch_under_faults",
    "verify_ft_spanner",
    "FaultTolerantDistanceOracle",
    "availability_analysis",
    "degradation_profile",
    "__version__",
]
