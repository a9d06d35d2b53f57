"""Baseline spanner constructions the paper compares against or builds on.

* :func:`~repro.baselines.greedy_classic.classic_greedy_spanner` --
  the [ADD+93] greedy (the f = 0 ancestor of everything here).
* :func:`~repro.baselines.thorup_zwick.thorup_zwick_spanner` -- the
  [TZ05] clustering construction, substrate of [CLPR10].
* :func:`~repro.baselines.chechik.clpr_fault_tolerant_spanner` -- the
  first fault-tolerant construction for general graphs [CLPR10]
  (~ O(k f) multiplicative overhead).
* :func:`~repro.baselines.baswana_sen.baswana_sen_spanner` -- the [BS07]
  randomized (2k-1)-spanner (centralized form; the distributed form lives
  in :mod:`repro.distributed.congest_bs`).
* :func:`~repro.baselines.dinitz_krauthgamer.dk_fault_tolerant_spanner`
  -- the [DK11] black-box sampling reduction (Theorem 13), substrate of
  the paper's CONGEST construction.

Execution: ``classic_greedy_spanner`` runs on the CSR substrate (same
parity guarantee against ``tests/reference/`` as the greedy family) so
cross-algorithm benchmark timings are apples-to-apples;
``baswana_sen_spanner`` keeps its clustering state over CSR node
indices; the other randomized constructions are dict-only -- they make no
repeated fault-set distance probes, which is the pattern the CSR
workspace/mask machinery accelerates.  Each module's docstring states
its own complexity.
"""

from repro.baselines.greedy_classic import classic_greedy_spanner
from repro.baselines.thorup_zwick import thorup_zwick_spanner
from repro.baselines.baswana_sen import baswana_sen_spanner
from repro.baselines.dinitz_krauthgamer import dk_fault_tolerant_spanner
from repro.baselines.chechik import clpr_fault_tolerant_spanner

__all__ = [
    "classic_greedy_spanner",
    "thorup_zwick_spanner",
    "baswana_sen_spanner",
    "dk_fault_tolerant_spanner",
    "clpr_fault_tolerant_spanner",
]
