"""Solver registry: named, per-domain solver factories.

This is the mechanism behind the paper's extensibility claim — "It allows
the integration and semantic connection of various domain specific solvers
... the most appropriate solver for a given task can be integrated and
used."  Users register a factory under a (domain, name) pair; ABsolver
configurations then reference solvers purely by name (mirroring the
command-line parameters of the original tool).

The default substrate solvers are pre-registered at import time; the scipy
backend is registered only when scipy is installed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from .interface import (
    AugLagNonlinearAdapter,
    BranchBoundLinearAdapter,
    CDCLBooleanAdapter,
    DifferenceLinearAdapter,
    DPLLBooleanAdapter,
    LSATBooleanAdapter,
    NewtonNonlinearAdapter,
    ScipyNonlinearAdapter,
    SimplexLinearAdapter,
)
from ..nonlinear.scipy_backend import scipy_available

__all__ = [
    "SolverRegistry",
    "DOMAIN_BOOLEAN",
    "DOMAIN_LINEAR",
    "DOMAIN_NONLINEAR",
    "default_registry",
]

DOMAIN_BOOLEAN = "boolean"
DOMAIN_LINEAR = "linear"
DOMAIN_NONLINEAR = "nonlinear"

_DOMAINS = (DOMAIN_BOOLEAN, DOMAIN_LINEAR, DOMAIN_NONLINEAR)


class SolverRegistry:
    """Mapping (domain, name) -> zero-argument-friendly solver factory."""

    def __init__(self) -> None:
        self._factories: Dict[Tuple[str, str], Callable[..., object]] = {}

    def register(self, domain: str, name: str, factory: Callable[..., object]) -> None:
        """Register a factory; re-registration under the same name replaces it."""
        if domain not in _DOMAINS:
            raise ValueError(f"unknown domain {domain!r}; expected one of {_DOMAINS}")
        self._factories[(domain, name)] = factory

    def create(self, domain: str, name: str, **options) -> object:
        """Instantiate a solver; options are passed to the factory."""
        try:
            factory = self._factories[(domain, name)]
        except KeyError:
            known = ", ".join(sorted(self.available(domain))) or "<none>"
            raise KeyError(
                f"no {domain} solver named {name!r} is registered (known: {known})"
            ) from None
        return factory(**options)

    def available(self, domain: str) -> List[str]:
        """Names registered for a domain, sorted."""
        return sorted(name for (d, name) in self._factories if d == domain)

    def is_registered(self, domain: str, name: str) -> bool:
        return (domain, name) in self._factories

    def copy(self) -> "SolverRegistry":
        duplicate = SolverRegistry()
        duplicate._factories = dict(self._factories)
        return duplicate


def _build_default_registry() -> SolverRegistry:
    registry = SolverRegistry()
    registry.register(DOMAIN_BOOLEAN, "cdcl", CDCLBooleanAdapter)
    registry.register(DOMAIN_BOOLEAN, "dpll", DPLLBooleanAdapter)
    registry.register(DOMAIN_BOOLEAN, "lsat", LSATBooleanAdapter)
    registry.register(DOMAIN_LINEAR, "simplex", SimplexLinearAdapter)
    registry.register(DOMAIN_LINEAR, "branch-bound", BranchBoundLinearAdapter)
    registry.register(DOMAIN_LINEAR, "difference", DifferenceLinearAdapter)
    registry.register(
        DOMAIN_LINEAR,
        "simplex-numpy",
        lambda **options: SimplexLinearAdapter(engine="numpy", **options),
    )
    registry.register(DOMAIN_NONLINEAR, "newton", NewtonNonlinearAdapter)
    registry.register(DOMAIN_NONLINEAR, "auglag", AugLagNonlinearAdapter)
    if scipy_available():
        registry.register(DOMAIN_NONLINEAR, "scipy-slsqp", ScipyNonlinearAdapter)
    return registry


#: Process-wide default registry used by :class:`repro.core.solver.ABSolver`
#: unless a custom one is supplied.
default_registry = _build_default_registry()
