"""The automated conversion work-flow of Fig. 3.

Pipeline: Simulink-like model -> LUSTRE text -> extraction of the
multi-domain constraint satisfaction problem -> :class:`ABProblem` (and from
there, extended DIMACS via :mod:`repro.io.dimacs`).

Two verification modes are provided, matching how the case study uses the
tool (checking "correctness regarding a set of defined mathematical
predicates"):

* :func:`model_to_problem` / :func:`lustre_to_problem` with
  ``goal="satisfy"`` — find an input valuation driving the chosen Boolean
  output *true* (test-case generation / reachability);
* ``goal="violate"`` — find an input valuation driving it *false*; an
  UNSAT answer then *proves* the output holds for all in-range inputs
  (safety verification).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.problem import ABProblem
from ..sat.tseitin import BNot, BoolExpr, tseitin_encode
from .lustre import LustreProgram, model_to_lustre, parse_lustre
from .model import SimulinkModel

__all__ = ["ConversionError", "model_to_problem", "lustre_to_problem", "convert_workflow"]


class ConversionError(Exception):
    """The model or program cannot be converted to an AB-problem."""


def lustre_to_problem(
    program: LustreProgram,
    output: Optional[str] = None,
    goal: str = "satisfy",
) -> ABProblem:
    """Extract the AB-problem for one Boolean output of a LUSTRE node."""
    if goal not in ("satisfy", "violate"):
        raise ConversionError(f"goal must be 'satisfy' or 'violate', got {goal!r}")
    signals, atoms = program.resolve_with_atoms()
    if output is None:
        boolean_outputs = [name for name, type_ in program.outputs if type_ == "bool"]
        if len(boolean_outputs) != 1:
            raise ConversionError(
                f"model has {len(boolean_outputs)} Boolean outputs; pass `output=`"
            )
        output = boolean_outputs[0]
    if output not in signals:
        raise ConversionError(f"no output named {output!r}")
    formula = signals[output]
    if not isinstance(formula, BoolExpr):
        raise ConversionError(f"output {output!r} is not Boolean")
    if goal == "violate":
        formula = BNot(formula)

    result = tseitin_encode(formula)
    problem = ABProblem(result.cnf, name=f"{program.name}:{output}:{goal}")
    for atom_name, constraint in atoms.items():
        bool_var = result.atom_map.get(atom_name)
        if bool_var is None:
            continue  # the atom does not influence this output
        problem.define(bool_var, "real", constraint)
    for variable, (low, high) in program.ranges.items():
        problem.set_bounds(variable, low, high)
    return problem


def model_to_problem(
    model: SimulinkModel,
    output: Optional[str] = None,
    goal: str = "satisfy",
) -> ABProblem:
    """Full Fig. 3 pipeline: model -> LUSTRE -> AB-problem.

    Deliberately *round-trips through the textual representation* (print,
    then re-parse) so the complete tool-chain is exercised, exactly as the
    paper's SCADE-based setup did.  Hierarchical models are flattened first.
    """
    from .subsystem import flatten_model

    program_text = model_to_lustre(flatten_model(model)).format()
    program = parse_lustre(program_text)
    return lustre_to_problem(program, output=output, goal=goal)


def convert_workflow(model: SimulinkModel) -> Tuple[str, LustreProgram, ABProblem]:
    """The whole conversion chain with all intermediate artifacts.

    Returns (lustre_text, parsed_program, ab_problem) — handy for the
    examples and for debugging conversions.  Hierarchical models are
    flattened first.
    """
    from .subsystem import flatten_model

    text = model_to_lustre(flatten_model(model)).format()
    program = parse_lustre(text)
    problem = lustre_to_problem(program)
    return text, program, problem
