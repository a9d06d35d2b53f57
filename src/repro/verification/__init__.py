"""Verification: is this subgraph really an f-fault-tolerant t-spanner?

Fault-tolerant spanner verification is itself expensive -- there are
``C(n, f)`` vertex fault sets -- so this subpackage offers a spectrum:

* :func:`~repro.verification.spanner_check.verify_ft_spanner` --
  exhaustive over all fault sets up to a budget, else randomized with
  adversarial fault-set heuristics; returns a verdict plus a
  counterexample when one is found.
* :func:`~repro.verification.stretch.max_stretch` and friends -- measure
  the *actual* worst-case stretch (with or without faults), used by the
  experiments to report measured stretch against the 2k-1 guarantee.
* :mod:`~repro.verification.certificates` -- check LBC cut certificates
  and greedy addition decisions independently of the construction code,
  and produce/audit Menger disjoint-path certificates (the polynomial
  YES-side witnesses behind ``verify_ft_spanner(mode="witness")``).

Execution: the spanner check and the stretch sweeps run on the CSR
substrate (identical reports to the dict reference in
``tests/reference/``): graphs are snapshotted once per call and each
fault set is an O(|F|) mask re-stamp instead of a fresh view pair.
Sweep complexity is O(|fault sets| * m) hop-bounded BFS runs on
unit-weighted inputs, or truncated Dijkstras on weighted ones.  The
certificate checks are dict-only replays (one BFS per certificate).
"""

from repro.verification.spanner_check import (
    VERIFY_MODES,
    Counterexample,
    SweepBudgetExceeded,
    VerificationReport,
    is_spanner,
    verify_ft_spanner,
)
from repro.verification.stretch import (
    max_stretch,
    max_stretch_under_faults,
    pairwise_stretch,
    stretch_of_pair,
)
from repro.verification.certificates import (
    check_certificates,
    check_cut_certificate,
    check_disjoint_paths,
    disjoint_paths,
)

__all__ = [
    "VERIFY_MODES",
    "Counterexample",
    "SweepBudgetExceeded",
    "VerificationReport",
    "is_spanner",
    "verify_ft_spanner",
    "max_stretch",
    "max_stretch_under_faults",
    "pairwise_stretch",
    "stretch_of_pair",
    "check_certificates",
    "check_cut_certificate",
    "check_disjoint_paths",
    "disjoint_paths",
]
