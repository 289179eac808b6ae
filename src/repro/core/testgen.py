"""Test-case generation via all-models enumeration (paper, Sec. 6).

"Further possible use-cases of ABSOLVER include the automatic generation of
test cases.  Since ABSOLVER, internally, determines the solutions by
computing all possible assignments, common coverage metrics like path
coverage can be obtained for free in this setting."

Given an AB-problem converted from a model, every model of the problem is a
concrete stimulus (a theory point for the input sensors plus the discrete
mode bits).  The *path* a model exercises is identified by the truth vector
of the defined (comparison) variables — two models that flip a comparison
take different branches through the model's logic.  :class:`TestSuite`
enumerates models, de-duplicates per path, and reports path coverage
against the reachable-path count.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional

from .problem import ABProblem
from .solver import ABModel, ABSolver

__all__ = ["TestCase", "TestSuite", "generate_tests"]


class TestCase:
    """One generated stimulus: theory inputs plus its path signature."""

    def __init__(self, model: ABModel, path: FrozenSet[int]):
        self.model = model
        self.path = path  # signed defined variables: +v true, -v false

    @property
    def inputs(self) -> Dict[str, float]:
        return self.model.theory

    def __repr__(self) -> str:
        return f"TestCase(path={sorted(self.path)}, inputs={self.inputs})"


class TestSuite:
    """A set of path-distinct test cases with coverage accounting."""

    def __init__(self, cases: List[TestCase], paths_explored: int):
        self.cases = cases
        self.paths_explored = paths_explored

    @property
    def path_coverage(self) -> float:
        """Covered fraction of the feasible paths found during enumeration."""
        if self.paths_explored == 0:
            return 1.0
        return len(self.cases) / self.paths_explored

    def __len__(self) -> int:
        return len(self.cases)

    def __iter__(self) -> Iterator[TestCase]:
        return iter(self.cases)

    def __repr__(self) -> str:
        return f"TestSuite({len(self.cases)} cases over {self.paths_explored} paths)"


def _path_of(problem: ABProblem, model: ABModel) -> FrozenSet[int]:
    signature = set()
    for var in problem.definitions:
        value = model.boolean.get(var, False)
        signature.add(var if value else -var)
    return frozenset(signature)


def generate_tests(
    problem: ABProblem,
    solver: Optional[ABSolver] = None,
    max_cases: Optional[int] = None,
    max_models: Optional[int] = None,
) -> TestSuite:
    """Enumerate models and keep one representative test per distinct path.

    ``max_models`` bounds the enumeration effort; ``max_cases`` stops early
    once enough distinct paths are covered.
    """
    solver = solver or ABSolver()
    seen_paths: Dict[FrozenSet[int], TestCase] = {}
    examined = 0
    for model in solver.all_solutions(problem):
        examined += 1
        path = _path_of(problem, model)
        if path not in seen_paths:
            seen_paths[path] = TestCase(model, path)
            if max_cases is not None and len(seen_paths) >= max_cases:
                break
        if max_models is not None and examined >= max_models:
            break
    return TestSuite(list(seen_paths.values()), paths_explored=len(seen_paths))
