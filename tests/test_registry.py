"""The algorithm registry: specs, capability validation, dispatch parity.

The acceptance bar for the registry is that ``build_spanner`` is a pure
*router*: for every registered algorithm x supported fault model,
dispatching through the registry returns a spanner bit-identical to
calling the legacy free function directly with the same arguments --
and, for the constructions ``tests/reference/`` keeps a dict twin of,
to that reference too -- and everything a construction cannot honor
raises a typed error instead of being silently dropped.
"""

from __future__ import annotations

import pytest

from repro.baselines.baswana_sen import baswana_sen_spanner
from repro.baselines.chechik import clpr_fault_tolerant_spanner
from repro.baselines.dinitz_krauthgamer import dk_fault_tolerant_spanner
from repro.baselines.greedy_classic import classic_greedy_spanner
from repro.baselines.thorup_zwick import thorup_zwick_spanner
from repro.core.greedy_exact import exponential_greedy_spanner
from repro.core.greedy_modified import fault_tolerant_spanner
from repro.core.incremental import incremental_spanner
from repro.core.spanner import FaultModel
from repro.distributed.congest_bs import congest_baswana_sen
from repro.distributed.congest_ft import congest_ft_spanner
from repro.distributed.local_spanner import local_ft_spanner
from repro.graph import generators
from tests import reference as ref
from repro.registry import (
    UnknownAlgorithm,
    UnsupportedOption,
    algorithm_names,
    build_spanner,
    get_algorithm,
    iter_algorithms,
)

SEED = 0


@pytest.fixture(scope="module")
def g():
    return generators.ensure_connected(
        generators.gnp_random_graph(18, 0.35, seed=7), seed=7
    )


# --------------------------------------------------------------------- #
# Registry contents and spec sanity
# --------------------------------------------------------------------- #


class TestRegistryContents:
    def test_all_constructions_registered(self):
        assert algorithm_names() == (
            "baswana-sen", "classic", "clpr", "congest", "congest-bs",
            "dk", "exact-greedy", "greedy", "incremental", "local",
            "thorup-zwick",
        )

    def test_specs_expose_builders_and_capabilities(self):
        for spec in iter_algorithms():
            assert callable(spec.builder)
            assert spec.guarantee
            assert spec.summary
            assert "g" in spec.accepts and "k" in spec.accepts
            # fault-tolerant <=> declares at least one fault model
            assert spec.fault_tolerant == bool(spec.fault_models)
            assert spec.capabilities()

    def test_min_f_only_on_fault_tolerant_specs(self):
        for spec in iter_algorithms():
            if spec.min_f:
                assert spec.fault_tolerant

    def test_reload_of_a_defining_module_reregisters_cleanly(self):
        import importlib

        import repro.baselines.baswana_sen as module

        before = get_algorithm("baswana-sen").builder
        importlib.reload(module)  # re-runs @register_algorithm
        after = get_algorithm("baswana-sen").builder
        assert after is module.baswana_sen_spanner
        assert after is not before  # fresh function object, same home

    def test_duplicate_name_from_elsewhere_is_rejected(self):
        from repro.registry import register_algorithm

        with pytest.raises(ValueError, match="already registered"):
            @register_algorithm(
                "greedy", summary="imposter", guarantee="none"
            )
            def greedy_imposter(g, k):  # pragma: no cover
                raise AssertionError

    def test_unknown_algorithm_is_typed_and_lists_known(self):
        with pytest.raises(UnknownAlgorithm, match="greedy"):
            get_algorithm("does-not-exist")
        # Also a LookupError, for dict-like except clauses.
        with pytest.raises(LookupError):
            get_algorithm("does-not-exist")


# --------------------------------------------------------------------- #
# Capability validation (the silent-drop fixes)
# --------------------------------------------------------------------- #


class TestCapabilityValidation:
    def test_seed_on_deterministic_algorithm(self, g):
        with pytest.raises(UnsupportedOption, match="deterministic"):
            build_spanner(g, "greedy", k=2, f=1, seed=3)

    def test_backend_on_single_engine_algorithm(self, g):
        # Every construction is single-engine now: backend= is an
        # unknown option everywhere.
        with pytest.raises(UnsupportedOption, match="backend"):
            build_spanner(g, "dk", k=2, f=1, backend="csr")

    def test_f_on_non_fault_tolerant_algorithm(self, g):
        with pytest.raises(UnsupportedOption, match="not fault-tolerant"):
            build_spanner(g, "classic", k=2, f=1)
        with pytest.raises(UnsupportedOption, match="not fault-tolerant"):
            build_spanner(g, "baswana-sen", k=2, f=2, seed=0)

    def test_weighted_input_to_unit_only_algorithm(self):
        # The weighted capability is enforced, not advisory: the
        # incremental construction is hop-based and unit-only.
        wg = generators.weighted_gnp(14, 0.4, seed=5)
        with pytest.raises(UnsupportedOption, match="unit-weight"):
            build_spanner(wg, "incremental", k=2, f=1)
        # A unit-weighted input builds fine through the same spec.
        ug = generators.gnp_random_graph(14, 0.4, seed=5)
        result = build_spanner(ug, "incremental", k=2, f=1)
        assert result.algorithm == "incremental-greedy"
        assert not get_algorithm("incremental").weighted
        assert "unit weights only" in get_algorithm(
            "incremental"
        ).capabilities()

    def test_weighted_capable_specs_audited(self):
        # Every other registered construction genuinely handles
        # weighted inputs (the greedy sorts by weight per Theorem 10;
        # the clustering baselines pick lightest edges), so the audit
        # leaves them tagged weighted=True.
        for spec in iter_algorithms():
            if spec.name != "incremental":
                assert spec.weighted, spec.name

    def test_rng_instance_seed_is_rejected(self, g):
        # A shared random.Random through the registry would make
        # back-to-back dispatch-parity runs irreproducible; the
        # registry requires plain integer seeds.
        import random

        rng = random.Random(1)
        for name in ("baswana-sen", "thorup-zwick"):
            with pytest.raises(UnsupportedOption, match="integer seed"):
                build_spanner(g, name, k=2, seed=rng)
        with pytest.raises(UnsupportedOption, match="integer seed"):
            build_spanner(g, "dk", k=2, f=1, seed=rng, iterations=4)
        with pytest.raises(UnsupportedOption, match="integer seed"):
            build_spanner(g, "clpr", k=2, f=1, seed=rng)

    def test_int_seed_dispatch_is_reproducible(self, g):
        # The property the int-seed rule protects: identical
        # back-to-back builds.
        a = build_spanner(g, "baswana-sen", k=2, seed=11)
        b = build_spanner(g, "baswana-sen", k=2, seed=11)
        assert sorted(a.spanner.edges()) == sorted(b.spanner.edges())

    def test_f_below_algorithm_minimum(self, g):
        with pytest.raises(UnsupportedOption, match="requires f >= 1"):
            build_spanner(g, "dk", k=2, f=0)
        with pytest.raises(UnsupportedOption, match="requires f >= 1"):
            build_spanner(g, "congest", k=2, f=0)

    def test_unsupported_fault_model(self, g):
        with pytest.raises(UnsupportedOption, match="edge fault model"):
            build_spanner(g, "dk", k=2, f=1, seed=0, fault_model="edge")
        with pytest.raises(UnsupportedOption, match="fault model"):
            build_spanner(g, "classic", k=2, fault_model="vertex")

    def test_invalid_backend_value_is_typed(self, g):
        with pytest.raises(UnsupportedOption, match="backend"):
            build_spanner(g, "greedy", k=2, f=1, backend="bogus")

    def test_unknown_extra_option(self, g):
        with pytest.raises(UnsupportedOption, match="bogus_option"):
            build_spanner(g, "greedy", k=2, f=1, bogus_option=1)

    def test_extra_option_passthrough(self, g):
        # iterations= reaches dk; the result reflects the smaller count.
        r = build_spanner(g, "dk", k=2, f=1, seed=0, iterations=4)
        direct = dk_fault_tolerant_spanner(g, 2, 1, seed=0, iterations=4)
        assert set(r.spanner.edges()) == set(direct.spanner.edges())

    def test_errors_are_value_errors_too(self, g):
        # UnsupportedOption subclasses ValueError so pre-registry
        # except-clauses keep working.
        with pytest.raises(ValueError):
            build_spanner(g, "greedy", k=2, f=1, seed=1)


# --------------------------------------------------------------------- #
# Dispatch parity: registry == legacy free functions, whole matrix
# --------------------------------------------------------------------- #

# Legacy adapters: how a pre-registry caller would invoke each
# construction for a given (f, fault_model, seed) cell.
_LEGACY = {
    "greedy": lambda g, k, f, m, s: fault_tolerant_spanner(
        g, k, f, fault_model=m
    ),
    "exact-greedy": lambda g, k, f, m, s: exponential_greedy_spanner(
        g, k, f, fault_model=m
    ),
    "classic": lambda g, k, f, m, s: classic_greedy_spanner(g, k),
    "baswana-sen": lambda g, k, f, m, s: baswana_sen_spanner(g, k, seed=s),
    "thorup-zwick": lambda g, k, f, m, s: thorup_zwick_spanner(
        g, k, seed=s
    ),
    "dk": lambda g, k, f, m, s: dk_fault_tolerant_spanner(
        g, k, f, seed=s, iterations=8
    ),
    "clpr": lambda g, k, f, m, s: clpr_fault_tolerant_spanner(
        g, k, f, seed=s
    ),
    "local": lambda g, k, f, m, s: local_ft_spanner(
        g, k, f, fault_model=m, seed=s
    ),
    "congest": lambda g, k, f, m, s: congest_ft_spanner(
        g, k, f, seed=s, iterations=8
    ),
    "congest-bs": lambda g, k, f, m, s: congest_baswana_sen(g, k, seed=s),
    "incremental": lambda g, k, f, m, s: incremental_spanner(
        g, k, f, fault_model=m
    ),
}

# The dict twins in tests/reference/: the "dict" cells of the matrix
# check registry dispatch against these instead of the free function.
_REFERENCE = {
    "greedy": lambda g, k, f, m, s: ref.fault_tolerant_spanner(
        g, k, f, fault_model=m
    ),
    "exact-greedy": lambda g, k, f, m, s: ref.exponential_greedy_spanner(
        g, k, f, fault_model=m
    ),
    "classic": lambda g, k, f, m, s: ref.classic_greedy_spanner(g, k),
    "baswana-sen": lambda g, k, f, m, s: ref.baswana_sen_spanner(
        g, k, seed=s
    ),
    "incremental": lambda g, k, f, m, s: ref.incremental_spanner(
        g, k, f, fault_model=m
    ),
}

# Registry extras needed to keep the slow sampling constructions fast;
# must match the iteration counts hard-coded in _LEGACY.
_EXTRAS = {"dk": {"iterations": 8}, "congest": {"iterations": 8}}


def _matrix_cells():
    """One cell per algorithm x fault model x oracle.

    The oracle is ``"csr"`` (the free function) or ``"dict"`` (the
    reference twin) for constructions with a reference, else ``None``.
    """
    cells = []
    for name in algorithm_names():
        spec = get_algorithm(name)
        models = [m.value for m in spec.fault_models] or [None]
        oracles = ["dict", "csr"] if name in _REFERENCE else [None]
        for model in models:
            for oracle in oracles:
                cells.append((name, model, oracle))
    return cells


class TestDispatchParity:
    def test_matrix_covers_every_registered_algorithm(self):
        assert set(_LEGACY) == set(algorithm_names()), (
            "a newly registered algorithm must be added to the parity "
            "matrix in this test module"
        )

    @pytest.mark.parametrize("name,model,oracle", _matrix_cells())
    def test_registry_matches_legacy(self, g, name, model, oracle):
        spec = get_algorithm(name)
        f = max(spec.min_f, 1) if spec.fault_tolerant else 0
        seed = SEED if spec.seedable else None
        table = _REFERENCE if oracle == "dict" else _LEGACY
        legacy = table[name](g, 2, f, model, SEED)
        via_registry = build_spanner(
            g, name, k=2, f=f, fault_model=model, seed=seed,
            **_EXTRAS.get(name, {}),
        )
        assert (
            sorted(via_registry.spanner.weighted_edges())
            == sorted(legacy.spanner.weighted_edges())
        )
        assert via_registry.algorithm == legacy.algorithm
        assert via_registry.certificates == legacy.certificates

    def test_weighted_input_parity(self):
        # The weighted greedy path (Algorithm 4) through the registry.
        g = generators.ensure_connected(
            generators.weighted_gnp(16, 0.4, seed=3), seed=3
        )
        r = build_spanner(g, "greedy", k=2, f=1)
        for direct in (fault_tolerant_spanner(g, 2, 1),
                       ref.fault_tolerant_spanner(g, 2, 1)):
            assert sorted(r.spanner.weighted_edges()) == sorted(
                direct.spanner.weighted_edges()
            )

    def test_fault_model_enum_accepted(self, g):
        via_enum = build_spanner(
            g, "greedy", k=2, f=1, fault_model=FaultModel.EDGE
        )
        via_str = build_spanner(g, "greedy", k=2, f=1, fault_model="edge")
        assert set(via_enum.spanner.edges()) == set(via_str.spanner.edges())
        assert via_enum.fault_model is FaultModel.EDGE
