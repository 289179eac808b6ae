"""Tests for the solver registry and the extensibility story."""

import os
import subprocess
import sys

import pytest

import repro
from repro.core.interface import (
    CDCLBooleanAdapter,
    LSATBooleanAdapter,
    Refinement,
)
from repro.core.registry import (
    DOMAIN_BOOLEAN,
    DOMAIN_LINEAR,
    DOMAIN_NONLINEAR,
    SolverRegistry,
    default_registry,
)
from repro.sat import CNF


class TestDefaults:
    def test_builtin_boolean_solvers(self):
        names = default_registry.available(DOMAIN_BOOLEAN)
        assert names == ["cdcl", "dpll", "lsat"]

    def test_builtin_linear_solvers(self):
        names = default_registry.available(DOMAIN_LINEAR)
        assert names == ["difference", "simplex", "simplex-numpy"]

    def test_builtin_nonlinear_solvers(self):
        names = default_registry.available(DOMAIN_NONLINEAR)
        assert {"newton", "auglag"} <= set(names)

    def test_scipy_registered_when_available(self):
        from repro.nonlinear import scipy_available

        registered = default_registry.is_registered(DOMAIN_NONLINEAR, "scipy-slsqp")
        assert registered == scipy_available()

    @pytest.mark.parametrize("module", ["scipy", "multiprocessing"])
    def test_importing_the_package_does_not_import(self, module):
        """scipy is imported only when the SLSQP backend runs; every solve
        runs in one process, so nothing loads ``multiprocessing``."""
        script = (
            "import sys\n"
            "import repro, repro.cli\n"
            f"print(sorted(m for m in sys.modules if m == {module!r} or m.startswith({module + '.'!r})))\n"
        )
        source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=source)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert proc.stdout.strip() == "[]"

    def test_create_passes_options(self):
        solver = default_registry.create(DOMAIN_BOOLEAN, "lsat", seed=3)
        assert isinstance(solver, LSATBooleanAdapter)
        # The option reaches the CDCL kernel, which takes ``seed``.
        assert solver.solve(CNF(2, [[1, 2]])) is not None
        assert solver.statistics["decisions"] >= 1


class TestCustomRegistration:
    def test_register_and_create(self):
        registry = default_registry.copy()

        class EchoSolver(CDCLBooleanAdapter):
            name = "echo"

        registry.register(DOMAIN_BOOLEAN, "echo", EchoSolver)
        assert registry.is_registered(DOMAIN_BOOLEAN, "echo")
        assert isinstance(registry.create(DOMAIN_BOOLEAN, "echo"), EchoSolver)
        # the default registry is unaffected (copy semantics)
        assert not default_registry.is_registered(DOMAIN_BOOLEAN, "echo")

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError):
            SolverRegistry().register("quantum", "q", object)

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError) as info:
            default_registry.create(DOMAIN_BOOLEAN, "zchaff")
        assert "cdcl" in str(info.value)

    def test_custom_solver_drives_absolver(self):
        """The paper's extensibility demo: plug a user solver into the loop."""
        from repro.core import ABProblem, ABSolver, ABSolverConfig, parse_constraint

        calls = []

        class CountingCDCL(CDCLBooleanAdapter):
            def solve(self, cnf, assumptions=()):
                calls.append(len(assumptions))
                return super().solve(cnf, assumptions)

        registry = default_registry.copy()
        registry.register(DOMAIN_BOOLEAN, "counting", CountingCDCL)

        problem = ABProblem()
        problem.add_clause([1])
        problem.define(1, "real", parse_constraint("x >= 0"))
        solver = ABSolver(ABSolverConfig(boolean="counting"), registry=registry)
        result = solver.solve(problem)
        assert result.is_sat
        assert calls  # the custom solver was actually used


class TestRefinement:
    def test_blocking_clause_negates_tags(self):
        refinement = Refinement([3, -5], minimal=True)
        assert refinement.blocking_clause() == [-3, 5]

    def test_repr_mentions_kind(self):
        assert "IIS" in repr(Refinement([1], minimal=True))
        assert "full" in repr(Refinement([1], minimal=False))


class TestAllModelsCapability:
    def test_lsat_supports(self):
        assert LSATBooleanAdapter().supports_all_models

    def test_cdcl_does_not(self):
        assert not CDCLBooleanAdapter().supports_all_models
