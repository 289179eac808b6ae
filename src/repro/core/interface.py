"""The solver interface layer (paper, Sec. 4 / Fig. 4).

"To ensure extensibility to new solvers the communication between the tools
is restricted to the well-defined interface that provides the circuit, a
data structure for returning solutions, and a structure to support
refinement of conflicts detected by a solver."

This module defines those three things for each domain, plus adapters that
wrap the concrete substrate solvers (CDCL/DPLL/all-SAT, simplex/B&B,
Newton/augmented-Lagrangian/scipy) behind them.  The registry
(:mod:`repro.core.registry`) instantiates adapters by name, which is how a
user selects "the most appropriate solver for a given task".
"""

from __future__ import annotations

import abc
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..linear.branch_bound import BranchAndBoundSolver
from ..linear.iis import extract_iis
from ..linear.lp import LinearSystem
from ..linear.simplex import LPResult, LPStatus, SimplexSolver
from ..nonlinear.auglag import AugmentedLagrangianSolver, Bounds, NLPResult, NLPStatus
from ..nonlinear.newton import NewtonSolver
from ..sat.cdcl import CDCLSolver
from ..sat.cnf import CNF, Assignment
from ..sat.dpll import DPLLSolver
from .expr import Constraint

__all__ = [
    "Refinement",
    "BooleanSolverInterface",
    "LinearSolverInterface",
    "NonlinearSolverInterface",
    "CDCLBooleanAdapter",
    "DPLLBooleanAdapter",
    "LSATBooleanAdapter",
    "SimplexLinearAdapter",
    "BranchBoundLinearAdapter",
    "NewtonNonlinearAdapter",
    "AugLagNonlinearAdapter",
    "ScipyNonlinearAdapter",
    "UnsupportedTheoryError",
]


class UnsupportedTheoryError(Exception):
    """A solver was handed constraints outside its supported theory.

    This is the error CVC Lite and MathSAT raise (behaviourally) on the
    paper's nonlinear benchmarks — "both CVC Lite and MathSAT rejected the
    problems due to the nonlinear arithmetic inequalities" (Sec. 5.1).
    """


class Refinement:
    """Conflict-refinement structure returned by theory solvers.

    ``conflicting_tags`` are the origin tags (signed Boolean literals) of an
    infeasible constraint subset; the control loop turns them into a
    blocking clause.  ``minimal`` records whether the subset is an IIS or a
    coarse full-assignment conflict (the refinement ablation toggles this).
    """

    def __init__(self, conflicting_tags: Sequence[int], minimal: bool):
        self.conflicting_tags = list(conflicting_tags)
        self.minimal = minimal

    def blocking_clause(self) -> List[int]:
        """Clause forbidding the conflicting combination: OR of negations."""
        return [-tag for tag in self.conflicting_tags]

    def __repr__(self) -> str:
        kind = "IIS" if self.minimal else "full"
        return f"Refinement({kind}, tags={self.conflicting_tags})"


# ----------------------------------------------------------------------
# Abstract interfaces
# ----------------------------------------------------------------------
class BooleanSolverInterface(abc.ABC):
    """Boolean-domain solver contract: one model per call, under assumptions.

    The control loop asks for candidate after candidate, adding blocking
    and refinement clauses in between, so an adapter must answer any
    number of ``solve`` calls with any assumptions over the CNF's
    variables.
    """

    name = "boolean"

    #: Whether ``ABSolver.all_solutions`` enumerates natively (the LSAT
    #: path) instead of by its own bookkeeping — iterated blocking clauses
    #: through :meth:`solve` and :meth:`add_clause`.
    supports_all_models = False

    @abc.abstractmethod
    def solve(self, cnf: CNF, assumptions: Sequence[int] = ()) -> Optional[Assignment]:
        """One satisfying assignment, or None."""

    @abc.abstractmethod
    def add_clause(self, literals: Sequence[int], protected: bool = True) -> None:
        """Add a (blocking/refinement) clause for subsequent solve calls.

        ``protected`` clauses survive the CDCL kernel's clause-database
        reduction unconditionally.  External adds default to protected
        because blocking clauses are *not* implied by the formula — deleting
        one would resurrect an already-enumerated model.  Pass
        ``protected=False`` only for redundant lemmas that are safe to drop.
        """


class LinearSolverInterface(abc.ABC):
    """Linear-domain solver contract: feasibility + conflict refinement."""

    name = "linear"

    @abc.abstractmethod
    def check(self, system: LinearSystem) -> LPResult:
        """Decide feasibility; on success the result carries a point."""

    @abc.abstractmethod
    def refine(self, system: LinearSystem) -> Refinement:
        """Explain an infeasibility (called only after a failed check)."""


class NonlinearSolverInterface(abc.ABC):
    """Nonlinear-domain solver contract: local feasibility search."""

    name = "nonlinear"

    @abc.abstractmethod
    def solve(
        self,
        constraints: Sequence[Constraint],
        bounds: Optional[Bounds] = None,
        hints: Optional[Sequence[Mapping[str, float]]] = None,
    ) -> NLPResult:
        """Search for a satisfying point; UNKNOWN when none was found."""

    def applicable(self, constraints: Sequence[Constraint]) -> bool:
        """Whether this solver wants to try the given subset (solver lists)."""
        return True


# ----------------------------------------------------------------------
# Boolean adapters
# ----------------------------------------------------------------------
class CDCLBooleanAdapter(BooleanSolverInterface):
    """zChaff stand-in: incremental CDCL."""

    name = "cdcl"

    def __init__(self, **options):
        self._options = options
        self._solver: Optional[CDCLSolver] = None
        #: Clauses received before the first solve (presolve unit emission
        #: happens before the solver instance exists); replayed at creation.
        self._pending: List[Tuple[List[int], bool]] = []

    def solve(self, cnf: CNF, assumptions: Sequence[int] = ()) -> Optional[Assignment]:
        if self._solver is None:
            self._solver = CDCLSolver(cnf, **self._options)
            for clause, protected in self._pending:
                self._solver.add_clause(clause, protected=protected)
            self._pending.clear()
        return self._solver.solve(assumptions)

    def add_clause(self, literals: Sequence[int], protected: bool = True) -> None:
        if self._solver is None:
            self._pending.append((list(literals), protected))
            return
        self._solver.add_clause(literals, protected=protected)

    @property
    def statistics(self) -> Dict[str, int]:
        if self._solver is None:
            return {}
        return self._solver.counters()


class DPLLBooleanAdapter(BooleanSolverInterface):
    """Plain DPLL; mostly for testing and tiny problems."""

    name = "dpll"

    def __init__(self, **options):
        self._solver = DPLLSolver(**options)
        self._cnf: Optional[CNF] = None
        self._pending: List[List[int]] = []

    def solve(self, cnf: CNF, assumptions: Sequence[int] = ()) -> Optional[Assignment]:
        if self._cnf is None:
            self._cnf = cnf.copy()
            for clause in self._pending:
                self._cnf.add_clause(clause)
            self._pending.clear()
        return self._solver.solve(self._cnf, tuple(assumptions))

    def add_clause(self, literals: Sequence[int], protected: bool = True) -> None:
        # DPLL keeps no learned-clause database; ``protected`` is moot.
        if self._cnf is None:
            self._pending.append(list(literals))
            return
        self._cnf.add_clause(literals)


class LSATBooleanAdapter(CDCLBooleanAdapter):
    """LSAT stand-in: CDCL candidates, native all-solutions enumeration.

    Single solves are the CDCL kernel's; ``ABSolver.all_solutions`` sees
    :attr:`supports_all_models` and enumerates with
    :class:`~repro.sat.allsat.AllSATSolver` instead of blocking models
    one by one.
    """

    name = "lsat"
    supports_all_models = True


# ----------------------------------------------------------------------
# Linear adapters
# ----------------------------------------------------------------------
class SimplexLinearAdapter(LinearSolverInterface):
    """COIN stand-in: exact simplex, B&B when integer variables occur,
    deletion-filter IIS refinement.

    Systems are first partitioned into connected components of shared
    variables and solved independently — exact, and it keeps the dense
    tableau small on loosely-coupled systems.  Each Sudoku cell's rows form
    their own one-variable component, which the simplex decides in closed
    form without a tableau (:meth:`~repro.linear.simplex.SimplexSolver.check`).

    Args:
        refine_minimal: compute IIS conflict cores via the deletion filter
            (the paper's refinement ablation toggles this off to get coarse
            full-assignment conflicts instead).
        max_bb_nodes: node budget of the branch-and-bound search used when
            a component has integer variables.
        warm_start: cache feasible points under a canonical structural key
            and answer re-checks by exact revalidation (on by default —
            stale entries are revalidated before use, so the cache is
            always sound; see :class:`~repro.linear.simplex.SimplexSolver`).
        engine: ``"exact"`` for the exact rational simplex, ``"numpy"`` for
            the float64 filter with exact certification
            (:class:`~repro.linear.numpy_simplex.NumpySimplexSolver`; falls
            back to exact transparently when numpy is unavailable).
    """

    name = "simplex"

    def __init__(
        self,
        refine_minimal: bool = True,
        max_bb_nodes: int = 100_000,
        warm_start: bool = True,
        engine: str = "exact",
    ):
        self.refine_minimal = refine_minimal
        if engine == "numpy":
            from ..linear.numpy_simplex import NumpySimplexSolver

            self._simplex: SimplexSolver = NumpySimplexSolver(warm_start=warm_start)
        elif engine == "exact":
            self._simplex = SimplexSolver(warm_start=warm_start)
        else:
            raise ValueError(f"unknown simplex engine {engine!r}")
        self._branch_bound = BranchAndBoundSolver(max_nodes=max_bb_nodes, simplex=self._simplex)
        #: ``(system, component, result)`` of the last check that failed: the
        #: component whose check failed, and that check's result.  The
        #: :meth:`refine` of the same system object starts from it.
        self._failed: Optional[Tuple[LinearSystem, LinearSystem, LPResult]] = None

    @property
    def warm_start_hits(self) -> int:
        """Simplex checks answered from the warm-start point cache."""
        return self._simplex.warm_hits

    @property
    def numpy_accepts(self) -> int:
        """Checks the float64 path answered with an exact certificate."""
        return getattr(self._simplex, "numpy_accepts", 0)

    @property
    def numpy_fallbacks(self) -> int:
        """Float64 runs that failed certification and re-solved exactly."""
        return getattr(self._simplex, "numpy_fallbacks", 0)

    def check(self, system: LinearSystem) -> LPResult:
        self._failed = None
        merged_point: Dict[str, object] = {}
        for component in system.split_components():
            result = self._check_component(component)
            if result.status is not LPStatus.FEASIBLE:
                self._failed = (system, component, result)
                return result
            merged_point.update(result.point)
        return LPResult(LPStatus.FEASIBLE, merged_point)  # type: ignore[arg-type]

    def _check_component(self, component: LinearSystem) -> LPResult:
        if component.integer_variables():
            return self._branch_bound.check(component)
        return self._simplex.check(component)

    def refine(self, system: LinearSystem) -> Refinement:
        """The conflict of a failed check of ``system``.

        After a failed :meth:`check` of this same system object, the
        component that failed and the check's result are at hand, so no
        component is checked again; any other system is re-checked
        component by component up to the first that fails.
        """
        failed, self._failed = self._failed, None
        if not self.refine_minimal:
            tags = [row.tag for row in system.rows if isinstance(row.tag, int)]
            return Refinement(tags, minimal=False)
        if failed is not None and failed[0] is system:
            return self._component_core(failed[1], failed[2])
        for component in system.split_components():
            result = self._check_component(component)
            if result.status is not LPStatus.FEASIBLE:
                return self._component_core(component, result)
        # Should not happen (refine is called after a failed check); be safe.
        tags = [row.tag for row in system.rows if isinstance(row.tag, int)]
        return Refinement(tags, minimal=False)

    def _component_core(self, component: LinearSystem, result: LPResult) -> Refinement:
        """The conflict of ``component``, whose check failed with ``result``.

        The deletion filter starts from the real relaxation's failed check:
        ``result`` itself on a real component, a fresh simplex check on an
        integer one.  A component that is LP-feasible but IP-infeasible has
        no such core, so all its rows are blocked.
        """
        if component.integer_variables():
            result = self._simplex.check(component)
        if result.status is not LPStatus.INFEASIBLE:
            tags = [row.tag for row in component.rows if isinstance(row.tag, int)]
            return Refinement(tags, minimal=False)
        core = extract_iis(component, self._simplex, result)
        tags = [row.tag for row in core if isinstance(row.tag, int)]
        return Refinement(tags, minimal=True)


class DifferenceLinearAdapter(SimplexLinearAdapter):
    """Difference-logic specialist with simplex fallback.

    A system wholly inside the QF_RDL fragment (``x - y REL c``) is decided
    by one Bellman–Ford negative-cycle search, however many variable-sharing
    components it has, with no component split.  A mixed system is split:
    components inside the fragment go to Bellman–Ford, the others fall back
    to the exact simplex / branch-and-bound path, which ``warm_start``
    configures.  A detected cycle *is* an IIS, so conflict refinement is
    free: :meth:`check` keeps the part it refuted with the cycle, and the
    :meth:`refine` of that same system returns the cycle's tags without a
    second Bellman–Ford run.  This adapter is the "reuse of expert knowledge"
    demonstration: selecting it makes the FISCHER family dramatically
    cheaper without touching the control loop.
    """

    name = "difference"

    def __init__(
        self,
        refine_minimal: bool = True,
        max_bb_nodes: int = 100_000,
        warm_start: bool = True,
    ):
        super().__init__(
            refine_minimal=refine_minimal,
            max_bb_nodes=max_bb_nodes,
            warm_start=warm_start,
        )
        from ..linear.difference import DifferenceLogicSolver, is_difference_system

        self._difference = DifferenceLogicSolver()
        self._is_difference_system = is_difference_system

    def check(self, system: LinearSystem) -> LPResult:
        self._failed = None
        if self._is_difference_system(system):
            result = self._difference.check(system)
            if result.status is LPStatus.INFEASIBLE:
                self._failed = (system, system, result)
            return result
        merged_point: Dict[str, object] = {}
        for component in system.split_components():
            if self._is_difference_system(component):
                result = self._difference.check(component)
            else:
                result = super()._check_component(component)
            if result.status is not LPStatus.FEASIBLE:
                self._failed = (system, component, result)
                return result
            merged_point.update(result.point)
        return LPResult(LPStatus.FEASIBLE, merged_point)  # type: ignore[arg-type]

    def _check_component(self, component: LinearSystem) -> LPResult:
        if self._is_difference_system(component):
            return self._difference.check(component)
        return super()._check_component(component)

    @staticmethod
    def _cycle_tags(part: LinearSystem, result: LPResult) -> List[int]:
        """Origin tags of a cycle core, whose indices index ``part``."""
        assert result.core_indices is not None
        tags = (part.rows[i].tag for i in result.core_indices)
        return [tag for tag in tags if isinstance(tag, int)]

    def refine(self, system: LinearSystem) -> Refinement:
        failed = self._failed
        if failed is not None and failed[0] is system:
            part, result = failed[1], failed[2]
            if part is system or self._is_difference_system(part):
                self._failed = None
                return Refinement(self._cycle_tags(part, result), minimal=True)
        if self._is_difference_system(system):
            parts = [system]
        else:
            parts = [c for c in system.split_components() if self._is_difference_system(c)]
        for part in parts:
            result = self._difference.check(part)
            if result.status is LPStatus.INFEASIBLE:
                self._failed = None
                return Refinement(self._cycle_tags(part, result), minimal=True)
        return super().refine(system)


class BranchBoundLinearAdapter(SimplexLinearAdapter):
    """Alias adapter that always routes through branch-and-bound.

    Registered separately so benchmark configurations can name it
    explicitly; behaviour equals :class:`SimplexLinearAdapter` on systems
    with integer variables.
    """

    name = "branch-bound"

    def check(self, system: LinearSystem) -> LPResult:
        return self._branch_bound.check(system)


# ----------------------------------------------------------------------
# Nonlinear adapters
# ----------------------------------------------------------------------
class NewtonNonlinearAdapter(NonlinearSolverInterface):
    """Newton for square equality systems; first in the default solver list."""

    name = "newton"

    def __init__(self, **options):
        self._solver = NewtonSolver(**options)

    def applicable(self, constraints: Sequence[Constraint]) -> bool:
        return NewtonSolver.applicable(constraints)

    def solve(
        self,
        constraints: Sequence[Constraint],
        bounds: Optional[Bounds] = None,
        hints: Optional[Sequence[Mapping[str, float]]] = None,
    ) -> NLPResult:
        start = hints[0] if hints else None
        result = self._solver.solve(constraints, start=start)
        if result.converged:
            return NLPResult(NLPStatus.SAT, result.point, residual=result.residual)
        return NLPResult(NLPStatus.UNKNOWN, result.point, residual=result.residual)


class AugLagNonlinearAdapter(NonlinearSolverInterface):
    """IPOPT stand-in: the from-scratch augmented-Lagrangian engine."""

    name = "auglag"

    def __init__(self, **options):
        self._solver = AugmentedLagrangianSolver(**options)

    def solve(
        self,
        constraints: Sequence[Constraint],
        bounds: Optional[Bounds] = None,
        hints: Optional[Sequence[Mapping[str, float]]] = None,
    ) -> NLPResult:
        return self._solver.solve(constraints, bounds=bounds, hints=hints)


class ScipyNonlinearAdapter(NonlinearSolverInterface):
    """Optional scipy SLSQP backend (present only when scipy imports)."""

    name = "scipy-slsqp"

    def __init__(self, **options):
        from ..nonlinear.scipy_backend import ScipySLSQPSolver

        self._solver = ScipySLSQPSolver(**options)

    def solve(
        self,
        constraints: Sequence[Constraint],
        bounds: Optional[Bounds] = None,
        hints: Optional[Sequence[Mapping[str, float]]] = None,
    ) -> NLPResult:
        return self._solver.solve(constraints, bounds=bounds, hints=hints)
