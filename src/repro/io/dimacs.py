"""The extended DIMACS input language (paper, Sec. 1.1 and Fig. 2).

"We have developed a straightforward input syntax which integrates
seamlessly into standard DIMACS format used by most modern SAT-solvers,
i.e., apart from the Boolean clauses, we parse custom extensions to a
comment line.  Thus, our format is still understood by any Boolean solver
not aware of the extensions."

Grammar (one definition per comment line)::

    p cnf <num_vars> <num_clauses>
    <clause lines, 0-terminated>
    c def {int|real} <bool_var> <arithmetic constraint>
    c bound <variable> <low|-> <high|->          (reproduction extension)

Definition lines may appear anywhere; ``c`` lines that do not start with
``c def``/``c bound`` are plain comments, preserving compatibility.  A
definition may span several physical lines when continued with ``c cont``
(long constraints, as in Fig. 2's two-line ``def real 4 ...``).
"""

from __future__ import annotations

import os
from typing import List, Optional, TextIO, Tuple, Union

from ..core.expr import ExprParseError, parse_constraint
from ..core.problem import ABProblem

__all__ = ["DimacsError", "parse_dimacs", "parse_dimacs_file", "write_dimacs", "format_dimacs"]


class DimacsError(Exception):
    """Malformed extended-DIMACS input."""


def parse_dimacs(text: str, name: str = "") -> ABProblem:
    """Parse extended DIMACS text into an :class:`ABProblem`."""
    problem = ABProblem(name=name)
    declared_vars: Optional[int] = None
    declared_clauses: Optional[int] = None
    pending_clause: List[int] = []
    pending_def: Optional[Tuple[str, int, List[str]]] = None

    def flush_definition() -> None:
        nonlocal pending_def
        if pending_def is None:
            return
        domain, bool_var, pieces = pending_def
        constraint_text = " ".join(pieces)
        try:
            constraint = parse_constraint(constraint_text)
        except ExprParseError as exc:
            raise DimacsError(
                f"bad constraint for variable {bool_var}: {constraint_text!r} ({exc})"
            ) from exc
        try:
            problem.define(bool_var, domain, constraint)
        except ValueError as exc:
            raise DimacsError(str(exc)) from exc
        pending_def = None

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if declared_vars is not None:
                raise DimacsError(f"line {line_number}: duplicate problem line")
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise DimacsError(f"line {line_number}: malformed problem line {line!r}")
            try:
                declared_vars = int(tokens[2])
                declared_clauses = int(tokens[3])
            except ValueError:
                raise DimacsError(f"line {line_number}: non-numeric problem line") from None
            problem.cnf.num_vars = max(problem.cnf.num_vars, declared_vars)
            continue
        if tokens[0] == "c":
            if len(tokens) >= 2 and tokens[1] == "cont":
                if pending_def is None:
                    raise DimacsError(f"line {line_number}: 'c cont' without a definition")
                pending_def[2].extend(tokens[2:])
                continue
            flush_definition()
            if len(tokens) >= 2 and tokens[1] == "def":
                if len(tokens) < 5:
                    raise DimacsError(f"line {line_number}: truncated definition {line!r}")
                domain = tokens[2]
                if domain not in ("int", "real"):
                    raise DimacsError(
                        f"line {line_number}: unknown domain {domain!r} (int/real)"
                    )
                try:
                    bool_var = int(tokens[3])
                except ValueError:
                    raise DimacsError(
                        f"line {line_number}: bad variable index {tokens[3]!r}"
                    ) from None
                if bool_var <= 0:
                    raise DimacsError(f"line {line_number}: variable index must be positive")
                pending_def = (domain, bool_var, tokens[4:])
                continue
            if len(tokens) >= 2 and tokens[1] == "bound":
                if len(tokens) != 5:
                    raise DimacsError(f"line {line_number}: malformed bound line {line!r}")
                variable = tokens[2]
                low = None if tokens[3] == "-" else float(tokens[3])
                high = None if tokens[4] == "-" else float(tokens[4])
                problem.set_bounds(variable, low, high)
                continue
            continue  # ordinary comment
        # Clause line(s): whitespace-separated literals, 0 ends a clause.
        flush_definition()
        for token in tokens:
            try:
                literal = int(token)
            except ValueError:
                raise DimacsError(f"line {line_number}: bad literal {token!r}") from None
            if literal == 0:
                problem.cnf.add_clause(pending_clause)
                pending_clause = []
            else:
                pending_clause.append(literal)
    flush_definition()
    if pending_clause:
        raise DimacsError("unterminated clause at end of input (missing 0)")
    if declared_clauses is not None and problem.cnf.num_clauses != declared_clauses:
        # Tolerated (tautologies are dropped) but the header mismatch is
        # worth surfacing when the parsed count is *larger* than declared.
        if problem.cnf.num_clauses > declared_clauses:
            raise DimacsError(
                f"{problem.cnf.num_clauses} clauses parsed but header declares "
                f"{declared_clauses}"
            )
    return problem


def parse_dimacs_file(path: Union[str, os.PathLike], name: str = "") -> ABProblem:
    """Parse an extended DIMACS file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_dimacs(handle.read(), name=name or str(path))


def format_dimacs(problem: ABProblem) -> str:
    """Serialize an :class:`ABProblem` back to extended DIMACS text.

    Round-trips with :func:`parse_dimacs` (tested property: parse(format(p))
    is equivalent to p).
    """
    lines: List[str] = [f"p cnf {problem.cnf.num_vars} {problem.cnf.num_clauses}"]
    for clause in problem.cnf.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    for var in sorted(problem.definitions):
        definition = problem.definitions[var]
        lines.append(f"c def {definition.domain} {var} {definition.constraint}")
    for variable in sorted(problem.bounds):
        low, high = problem.bounds[variable]
        low_text = "-" if low is None else repr(float(low))
        high_text = "-" if high is None else repr(float(high))
        lines.append(f"c bound {variable} {low_text} {high_text}")
    return "\n".join(lines) + "\n"


def write_dimacs(problem: ABProblem, target: Union[str, TextIO]) -> None:
    """Write extended DIMACS to a path or file object."""
    text = format_dimacs(problem)
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        target.write(text)
