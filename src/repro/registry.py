"""Unified algorithm registry: one dispatcher over every construction.

The library implements ~10 spanner constructions with heterogeneous
signatures -- the modified greedy takes ``(g, k, f, fault_model,
seed)``, the classic greedy only ``(g, k)``, the randomized baselines
``(g, k, [f,] seed)``, the distributed ones their own extras.
Historically every consumer (the CLI's lambda table, the benchmarks, the
analysis sweeps) hand-adapted those signatures and *silently dropped*
whatever a construction did not understand: ``--seed`` on the
deterministic greedy, ``-f`` on non-fault-tolerant algorithms.

This module replaces that with one declarative surface:

* :class:`AlgorithmSpec` -- a construction plus its *capabilities*:
  which fault models it supports, whether it is seedable,
  distributed, weighted-input-capable, and its
  stretch/size guarantee (for discovery: ``ftspanner algorithms``).
* :func:`register_algorithm` -- a decorator applied to the public entry
  points across :mod:`repro.core`, :mod:`repro.baselines`, and
  :mod:`repro.distributed`; it registers the function without changing
  it, so the free functions keep working.
* :func:`build_spanner` -- the single dispatcher.  Every requested
  option is validated against the spec and raises a typed error
  (:class:`UnknownAlgorithm`, :class:`UnsupportedOption`) instead of
  being ignored, and dispatch is *bit-identical* to calling the
  registered function directly (``tests/test_registry.py`` asserts this
  for the full algorithm x fault-model parity matrix).

For build->verify->query workflows that should share one frozen CSR
snapshot, use :class:`repro.session.SpannerSession`, which drives its
``build()`` through this registry.

Examples
--------
>>> from repro.graph import generators
>>> from repro.registry import build_spanner
>>> g = generators.gnp_random_graph(30, 0.3, seed=1)
>>> result = build_spanner(g, "greedy", k=2, f=1)
>>> result.algorithm
'modified-greedy'
>>> build_spanner(g, "classic", k=2, f=1)
Traceback (most recent call last):
    ...
repro.registry.UnsupportedOption: 'classic' is not fault-tolerant; it cannot honor f=1 (build with f=0, or pick a fault-tolerant algorithm: ftspanner algorithms)
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterator, Optional, Tuple

from repro.core.spanner import FaultModel, SpannerResult

__all__ = [
    "AlgorithmSpec",
    "RegistryError",
    "UnknownAlgorithm",
    "UnsupportedOption",
    "algorithm_names",
    "build_spanner",
    "get_algorithm",
    "iter_algorithms",
    "register_algorithm",
]


class RegistryError(Exception):
    """Base class for algorithm-registry errors."""


class UnknownAlgorithm(RegistryError, LookupError):
    """Raised when a requested algorithm name is not registered."""


class UnsupportedOption(RegistryError, ValueError):
    """Raised when a requested option is outside an algorithm's spec.

    This is the registry's replacement for the old silent-drop behavior:
    asking the deterministic greedy for a ``seed``, any construction for
    an option its builder does not take (a leftover ``backend=``, say),
    or a non-fault-tolerant construction for ``f > 0`` is an error,
    never a no-op.
    """


#: Parameters owned by :func:`build_spanner` itself; anything else a
#: builder accepts is an algorithm-specific extra (``workers``,
#: ``iterations``, ...) and may be passed through ``**options``.
_RESERVED = frozenset({"g", "k", "f", "fault_model", "seed"})


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered construction and its declared capabilities.

    Attributes
    ----------
    name:
        Registry key (the CLI's ``--algorithm`` value).
    builder:
        The underlying free function, called as ``builder(g, k, ...)``.
    summary:
        One-line description for discovery listings.
    guarantee:
        The stretch/size guarantee, human-readable.
    weighted:
        Whether weighted inputs are supported.  **Enforced** by
        :func:`build_spanner`: passing a non-unit-weighted graph to a
        ``weighted=False`` construction raises
        :class:`UnsupportedOption` instead of silently mis-running a
        hop-based (BFS/LBC) algorithm on weights it ignores.
    fault_models:
        The fault models the construction can tolerate; empty for
        non-fault-tolerant constructions (``f`` must then be 0).
    min_f:
        Smallest fault budget the construction accepts (1 for the
        sampling-based reductions, which are undefined at f=0).
    seedable:
        Whether a random seed influences the output.  Deterministic
        constructions reject an explicit ``seed=``.
    distributed:
        Whether the construction runs on the message-passing simulator
        (its result carries a ``rounds`` count).
    accepts:
        Parameter names of ``builder``'s signature (introspected at
        registration; used to route options and validate extras).
    """

    name: str
    builder: Callable[..., SpannerResult]
    summary: str
    guarantee: str
    weighted: bool = True
    fault_models: Tuple[FaultModel, ...] = ()
    min_f: int = 0
    seedable: bool = False
    distributed: bool = False
    accepts: FrozenSet[str] = field(default_factory=frozenset)

    @property
    def fault_tolerant(self) -> bool:
        """Whether the construction honors a fault budget ``f > 0``."""
        return bool(self.fault_models)

    @property
    def extra_options(self) -> FrozenSet[str]:
        """Algorithm-specific keyword options accepted by the builder."""
        return self.accepts - _RESERVED

    def supports_fault_model(self, model: FaultModel) -> bool:
        return model in self.fault_models

    def validate_request(
        self,
        *,
        f: int = 0,
        fault_model: "Optional[FaultModel | str]" = None,
        seed: Optional[int] = None,
        options: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Validate one build request against this spec.

        Returns the keyword arguments to pass to ``builder(g, k, ...)``.
        Raises :class:`UnsupportedOption` for anything the construction
        cannot honor -- the single source of truth that both
        :func:`build_spanner` and the CLI's pre-flight checks use, so
        their error messages can never drift apart.
        """
        kwargs: Dict[str, object] = {}

        if f and not self.fault_tolerant:
            raise UnsupportedOption(
                f"{self.name!r} is not fault-tolerant; it cannot honor "
                f"f={f} (build with f=0, or pick a fault-tolerant "
                f"algorithm: ftspanner algorithms)"
            )
        if self.fault_tolerant:
            if f < self.min_f:
                raise UnsupportedOption(
                    f"{self.name!r} requires f >= {self.min_f}, got f={f}"
                )
            kwargs["f"] = f

        if fault_model is not None:
            model = FaultModel.coerce(fault_model)
            if not self.supports_fault_model(model):
                have = (
                    ", ".join(m.value for m in self.fault_models)
                    or "none (not fault-tolerant)"
                )
                raise UnsupportedOption(
                    f"{self.name!r} does not support the {model.value} "
                    f"fault model (supported: {have})"
                )
            # Single-model builders (e.g. the vertex-only sampling
            # reductions) have no fault_model parameter; the request was
            # validated against the spec above, so dropping the
            # (redundant) keyword is routing, not a silent ignore.
            if "fault_model" in self.accepts:
                kwargs["fault_model"] = model

        if seed is not None:
            if not self.seedable:
                raise UnsupportedOption(
                    f"{self.name!r} is deterministic; it does not take a "
                    f"seed"
                )
            if not isinstance(seed, int):
                # The free functions accept shared random.Random
                # instances for composability, but through the registry
                # that makes back-to-back dispatch-parity runs
                # irreproducible (each call advances the shared state).
                # The registry therefore requires a plain integer seed.
                raise UnsupportedOption(
                    f"{self.name!r} requires an integer seed through the "
                    f"registry, got {type(seed).__name__}: a shared RNG "
                    f"instance would make repeated builds "
                    f"irreproducible (call the free function directly "
                    f"if you really want to thread RNG state)"
                )
            kwargs["seed"] = seed

        options = options or {}
        unknown = set(options) - self.extra_options
        if unknown:
            have = ", ".join(sorted(self.extra_options)) or "none"
            raise UnsupportedOption(
                f"{self.name!r} does not accept option(s) "
                f"{', '.join(sorted(unknown))} (accepted extras: {have})"
            )
        kwargs.update(options)
        return kwargs

    def capabilities(self) -> str:
        """Compact capability string for discovery listings."""
        parts = []
        if self.fault_tolerant:
            models = "/".join(m.value for m in self.fault_models)
            budget = f"f>={self.min_f}" if self.min_f else "f>=0"
            parts.append(f"faults: {models} ({budget})")
        else:
            parts.append("faults: none (f=0 only)")
        if not self.weighted:
            parts.append("unit weights only")
        parts.append("seeded" if self.seedable else "deterministic")
        if self.distributed:
            parts.append("distributed")
        if "deterministic" in self.extra_options:
            parts.append("derandomizable (deterministic=True)")
        if self.extra_options:
            parts.append("options: " + ", ".join(sorted(self.extra_options)))
        return " | ".join(parts)


_REGISTRY: Dict[str, AlgorithmSpec] = {}


def register_algorithm(
    name: str,
    *,
    summary: str,
    guarantee: str,
    weighted: bool = True,
    fault_models: Tuple[str, ...] = (),
    min_f: int = 0,
    seedable: bool = False,
    distributed: bool = False,
) -> Callable[[Callable[..., SpannerResult]], Callable[..., SpannerResult]]:
    """Register a construction under ``name`` and return it unchanged.

    Applied as a decorator to the public entry points in ``core/``,
    ``baselines/``, and ``distributed/``.  ``fault_models`` takes the
    string forms (``'vertex'`` / ``'edge'``).  Registering the same name
    twice is an error unless it is the same function again (matched by
    module + qualname, so ``importlib.reload`` of a defining module
    re-registers cleanly instead of tripping the duplicate guard).
    """

    def decorate(fn: Callable[..., SpannerResult]):
        existing = _REGISTRY.get(name)
        if existing is not None and (
            existing.builder.__module__ != fn.__module__
            or existing.builder.__qualname__ != fn.__qualname__
        ):
            raise ValueError(f"algorithm {name!r} is already registered")
        _REGISTRY[name] = AlgorithmSpec(
            name=name,
            builder=fn,
            summary=summary,
            guarantee=guarantee,
            weighted=weighted,
            fault_models=tuple(FaultModel.coerce(m) for m in fault_models),
            min_f=min_f,
            seedable=seedable,
            distributed=distributed,
            accepts=frozenset(inspect.signature(fn).parameters),
        )
        return fn

    return decorate


def algorithm_names() -> Tuple[str, ...]:
    """All registered algorithm names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up a spec by name, raising :class:`UnknownAlgorithm`."""
    spec = _REGISTRY.get(name)
    if spec is None:
        known = ", ".join(algorithm_names()) or "<registry empty>"
        raise UnknownAlgorithm(
            f"unknown algorithm {name!r}; registered: {known}"
        )
    return spec


def iter_algorithms() -> Iterator[AlgorithmSpec]:
    """Specs in name order (the ``ftspanner algorithms`` listing)."""
    for name in algorithm_names():
        yield _REGISTRY[name]


def build_spanner(
    g,
    algorithm: str = "greedy",
    *,
    k: int,
    f: int = 0,
    fault_model: "Optional[FaultModel | str]" = None,
    seed: Optional[int] = None,
    **options,
) -> SpannerResult:
    """Build a spanner of ``g`` with a registered construction.

    The one public dispatcher over the whole algorithm catalog.  Every
    argument is validated against the algorithm's
    :class:`AlgorithmSpec`; anything the construction cannot honor
    raises :class:`UnsupportedOption` with the reason, rather than being
    silently dropped (the pre-registry behavior).

    Parameters
    ----------
    g:
        The input :class:`~repro.graph.graph.Graph`.
    algorithm:
        A registered name (see :func:`algorithm_names` or
        ``ftspanner algorithms``).
    k:
        Stretch parameter; the guarantee is ``2k - 1``.
    f:
        Fault budget.  Must be 0 for non-fault-tolerant constructions
        and at least ``spec.min_f`` for fault-tolerant ones.
    fault_model:
        ``'vertex'`` / ``'edge'`` (or the enum).  ``None`` defers to the
        construction's default (vertex).  Rejected when outside the
        spec's ``fault_models``.
    seed:
        Random seed.  Only seedable constructions accept one.
    **options:
        Algorithm-specific extras (validated against the builder's
        signature), e.g. ``iterations=`` for the sampling reductions.

    Returns
    -------
    SpannerResult
        Bit-identical to calling the registered free function directly
        with the same arguments.
    """
    spec = get_algorithm(algorithm)
    kwargs = spec.validate_request(
        f=f, fault_model=fault_model, seed=seed, options=options,
    )
    if not spec.weighted and not g.is_unit_weighted():
        # Enforced, not advisory: a hop-based (BFS/LBC) construction
        # run on a weighted graph would silently return a subgraph with
        # no stretch guarantee at all.
        raise UnsupportedOption(
            f"{spec.name!r} is a unit-weight construction; it cannot "
            f"honor a weighted input graph (its hop-based tests ignore "
            f"edge weights).  Pass a unit-weighted graph, or pick a "
            f"weighted-capable algorithm: ftspanner algorithms"
        )
    return spec.builder(g, k, **kwargs)
