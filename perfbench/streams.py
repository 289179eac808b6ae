"""The four query streams of the benchmark, built from the paper's workloads.

Every stream is a list of *episodes* in a fixed canonical order.  An
episode is one solver session: a one-shot query (FISCHER, Sudoku, the
nonlinear set) or a bounded-model-checking sweep that deepens one session
through its unroll layers.  A *pass* runs every episode once, in an order
shuffled by the run's seed; every pass renames the theory variables of its
inputs with its own prefix, so no timed query repeats an earlier input of
the run.  The prefix is shared by every name of a query, which keeps the
sort order of the names.

Expected verdicts come only from how each instance is built: the SMT-LIB
``:status`` line, the unroll families' ``expected_status``, and the
generators' documented answers.  Every SAT witness is re-checked with
``ABProblem.check_model`` on a freshly parsed copy of its input.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import re
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import ABSolverConfig, SolverSession, format_dimacs, parse_dimacs, parse_smtlib
from repro.benchgen import (
    MICRO_BENCHMARKS,
    PUZZLES,
    UnrollFamily,
    UnrollLayer,
    build_fig1_model,
    check_grid,
    decode_solution,
    fischer_smtlib_text,
    fischer_unroll_family,
    parse_grid,
    steering_problem,
    sudoku_problem,
    watertank_model,
    watertank_safety_problem,
    watertank_unroll_family,
)
from repro.core.expr import Var
from repro.io import format_model, parse_model
from repro.simulink import model_to_problem

#: Per-query time limit, enforced through ``check(poll=...)``; a query that
#: ends later than this counts as failed.  It is far above every query of
#: the four streams (the slowest, a Sudoku LP, takes about a second).
QUERY_LIMIT_S = 30.0

#: Marks where a pass prefix goes in an input template.
MARK = "\x00"

#: The paper's Fig. 2 extended DIMACS text, verbatim.
FIG2_TEXT = """\
p cnf 5 4
1 0
-2 3 0
4 0
5 0
c def int 1 i >= 0
c def int 5 j >= 0
c def int 2 2*i + j < 10
c def int 3 i + j < 5
c def real 4 a * x + 3.5 / ( 4 - y ) +
c cont 2 * y >= 7.1
c bound a -10.0 10.0
c bound x -10.0 10.0
c bound y -10.0 10.0
"""

# An identifier that is not a function name (functions are followed by
# "(") and not the exponent of a number such as 1e-6.
_IDENTIFIER = re.compile(r"(?<![\w.])([A-Za-z_]\w*)(?!\w|\s*\()")


class Probe:
    """Calls into the program; the traced subclass times each call.

    With a ``gauge`` (``pace.SpeedGauge``) every timed query also gets the
    factor that scales its wall time to the reference host speed.
    """

    def __init__(self, gauge=None) -> None:
        self.gauge = gauge

    def pace(self) -> float:
        """The scale factor of a span that starts now (1 without a gauge)."""
        return 1.0 if self.gauge is None else self.gauge.factor()

    def call(self, layer: str, function: Callable, *args):
        return function(*args)

    def begin_query(self) -> None:
        """A timed query starts (its clock starts right after)."""

    def end_query(self) -> None:
        """The timed query has its verdict, or failed."""


class QueryOutcome:
    """One timed query: what was asked, what came back, how long it took."""

    __slots__ = ("instance", "prefix", "expected", "result", "seconds", "scale", "error", "wrong", "stats")

    def __init__(self, instance: str, prefix: str, expected: str):
        self.instance = instance
        self.prefix = prefix
        self.expected = expected
        self.result = None
        self.seconds = 0.0
        #: Factor scaling ``seconds`` to the reference host speed.
        self.scale = 1.0
        #: Text of an exception raised by the program, or of a failed check.
        self.error: Optional[str] = None
        #: True when the program returned a definite verdict that is wrong.
        self.wrong = False
        self.stats: Dict[str, int] = {}

    @property
    def scaled(self) -> float:
        """Seconds to verdict at the reference host speed."""
        return self.seconds * self.scale

    @property
    def verdict(self) -> str:
        return "error" if self.result is None else self.result.status.value

    @property
    def failed(self) -> bool:
        return self.error is not None or self.wrong or self.verdict != self.expected


# ----------------------------------------------------------------------
# Input templates
# ----------------------------------------------------------------------
def dimacs_template(text: str) -> str:
    """Mark every theory-variable name of extended DIMACS text."""
    lines = []
    for line in text.splitlines():
        tokens = line.split()
        if tokens[:2] == ["c", "def"] and len(tokens) > 4:
            head = line.split(None, 4)
            line = " ".join(head[:4]) + " " + _IDENTIFIER.sub(MARK + r"\1", head[4])
        elif tokens[:2] == ["c", "cont"]:
            head = line.split(None, 2)
            line = "c cont " + _IDENTIFIER.sub(MARK + r"\1", head[2] if len(head) > 2 else "")
        elif tokens[:2] == ["c", "bound"] and len(tokens) == 5:
            line = " ".join(["c", "bound", MARK + tokens[2]] + tokens[3:])
        lines.append(line)
    return "\n".join(lines) + "\n"


def smtlib_template(text: str) -> str:
    """Mark every symbol declared in ``:extrafuns`` / ``:extrapreds``."""
    symbols = set()
    for declaration in re.findall(r":extra(?:funs|preds)\s*\((.*)\)\s*$", text, re.M):
        symbols.update(re.findall(r"\(\s*([^\s()]+)", declaration))
    pattern = re.compile(
        r"(?<![\w.])(" + "|".join(sorted(map(re.escape, symbols), key=len, reverse=True)) + r")(?![\w.])"
    )
    return pattern.sub(MARK + r"\1", text)


def model_template(text: str) -> str:
    """Mark every block name of a textual block model."""
    lines = []
    for line in text.splitlines():
        tokens = line.split()
        if tokens and tokens[0] == "block" and len(tokens) >= 3:
            tokens[2] = MARK + tokens[2]
        elif tokens and tokens[0] == "connect" and len(tokens) == 4:
            tokens[1] = MARK + tokens[1]
            tokens[2] = MARK + tokens[2]
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


def smtlib_status(text: str) -> str:
    """The answer an SMT-LIB 1.2 text declares in its ``:status`` line."""
    match = re.search(r"^\s*:status\s+(sat|unsat)\s*$", text, re.M)
    if match is None:
        raise ValueError("SMT-LIB text declares no :status")
    return match.group(1)


def _deadline_poll() -> Callable[[], bool]:
    deadline = time.perf_counter() + QUERY_LIMIT_S
    return lambda: time.perf_counter() < deadline


def _counts(result) -> Dict[str, int]:
    stats = result.stats
    return {
        "boolean_queries": stats.boolean_queries,
        "linear_checks": stats.linear_checks,
        "refinements": stats.conflicts_refined,
        "nonlinear_calls": stats.nonlinear_calls,
        "interval_refutations": stats.interval_refutations,
        "translation_cache_hits": stats.translation_cache_hits,
        "translation_cache_misses": stats.translation_cache_misses,
        "warm_start_hits": stats.warm_start_hits,
        "template_hits": stats.blocking_template_hits,
        "intern_hits": stats.intern_hits,
        "presolve_settled": int(result.reason.startswith("presolve")),
    }


@contextlib.contextmanager
def _query_clock(outcome: QueryOutcome, probe: Probe) -> Iterator[None]:
    """Time one query from input to verdict.

    An exception the program raises ends the query, not the run: it is
    recorded as the query's failure.  The host-speed gauge samples before
    the clock starts.
    """
    outcome.scale = probe.pace()
    probe.begin_query()
    started = time.perf_counter()
    try:
        yield
    except Exception as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"
    finally:
        outcome.seconds = time.perf_counter() - started
        probe.end_query()


def _judge(outcome: QueryOutcome, fresh_problem: Callable, extra: Optional[Callable] = None) -> None:
    """Judge a finished query; SAT witnesses are re-checked on a fresh copy."""
    if outcome.result is None:
        return  # the program raised
    outcome.stats = _counts(outcome.result)
    if outcome.seconds > QUERY_LIMIT_S:
        outcome.error = f"query took {outcome.seconds:.1f} s, over the {QUERY_LIMIT_S:.0f} s limit"
    verdict = outcome.verdict
    if verdict not in ("sat", "unsat"):
        return  # UNKNOWN or cancelled: a failure, but not a wrong answer
    if verdict != outcome.expected:
        outcome.wrong = True
    elif verdict == "sat":
        model = outcome.result.model
        if not fresh_problem().check_model(model.boolean, model.theory):
            outcome.wrong = True
        elif extra is not None and not extra(model):
            outcome.wrong = True


def _strip(theory: Dict[str, float], prefix: str) -> Dict[str, float]:
    return {name[len(prefix):]: value for name, value in theory.items() if name.startswith(prefix)}


# ----------------------------------------------------------------------
# One-shot episodes: text or block-model input, one fresh session
# ----------------------------------------------------------------------
class OneShot:
    """An instance solved from scratch by one ``SolverSession``.

    ``kind`` says what the program is handed: SMT-LIB text, extended
    DIMACS text, or a block model (built from its textual form before the
    clock starts, then converted by ``model_to_problem`` inside it).
    """

    def __init__(self, name: str, kind: str, template: str, expected: str, extra=None):
        self.name = name
        self.kind = kind
        self.template = template
        self.expected = expected
        #: Optional ``extra(prefix, model) -> bool`` check of a SAT witness.
        self.extra = extra

    @property
    def size(self) -> int:
        return 1

    def _input(self, prefix: str):
        text = self.template.replace(MARK, prefix)
        return parse_model(text) if self.kind == "model" else text

    def _problem(self, data, probe: Probe):
        if self.kind == "smtlib":
            return probe.call("io", parse_smtlib, data).problem
        if self.kind == "dimacs":
            return probe.call("io", parse_dimacs, data)
        return probe.call("simulink", model_to_problem, data)

    def run(self, prefix: str, config: ABSolverConfig, registry, probe: Probe, sink: Callable) -> None:
        outcome = QueryOutcome(self.name, prefix, self.expected)
        data = self._input(prefix)
        session = None
        with _query_clock(outcome, probe):
            problem = self._problem(data, probe)
            session = SolverSession(config, registry)
            session.assert_problem(problem)
            outcome.result = session.check(poll=_deadline_poll())
        extra = None
        if self.extra is not None:
            extra = lambda model: self.extra(prefix, model)
        _judge(outcome, lambda: self._problem(self._input(prefix), Probe()), extra)
        sink(outcome, session)


# ----------------------------------------------------------------------
# Session sweeps: one session deepened through an unroll family
# ----------------------------------------------------------------------
def _renamed_layers(layers: Sequence[UnrollLayer], prefix: str) -> List[UnrollLayer]:
    """Copy unroll layers with every theory variable renamed via ``substitute``."""
    names = set()
    for layer in layers:
        for _, _, constraint in layer.definitions:
            names.update(constraint.variables())
        names.update(variable for variable, _, _ in layer.bounds)
    mapping = {name: Var(prefix + name) for name in names}
    renamed = []
    for layer in layers:
        copy = UnrollLayer(layer.depth, expected=layer.expected)
        copy.clauses = layer.clauses
        copy.check_assumptions = layer.check_assumptions
        copy.definitions = [
            (var, domain, constraint.substitute(mapping))
            for var, domain, constraint in layer.definitions
        ]
        copy.bounds = [(prefix + variable, low, high) for variable, low, high in layer.bounds]
        renamed.append(copy)
    return renamed


class Sweep:
    """A BMC sweep: assert layer d, then check, for d = 1..D in one session."""

    def __init__(self, name: str, family):
        self.name = name
        self.family = family

    @property
    def size(self) -> int:
        return self.family.max_depth

    def run(self, prefix: str, config: ABSolverConfig, registry, probe: Probe, sink: Callable) -> None:
        layers = _renamed_layers(self.family.layers, prefix)
        family = UnrollFamily(self.family.name, layers)
        session = None
        for depth in range(1, family.max_depth + 1):
            outcome = QueryOutcome(f"{self.name}@{depth}", prefix, family.expected_status(depth))
            assumptions = family.check_assumptions(depth)
            with _query_clock(outcome, probe):
                if session is None:
                    session = SolverSession(config, registry)
                    layers[0].apply_to_session(session)
                layers[depth].apply_to_session(session)
                outcome.result = session.check(assumptions, poll=_deadline_poll())
            _judge(
                outcome,
                lambda: family.problem_at_depth(depth),
                lambda model: all(
                    model.boolean.get(abs(literal), False) is (literal > 0) for literal in assumptions
                ),
            )
            last = depth == family.max_depth or outcome.error is not None
            sink(outcome, session if last else None)
            if outcome.error is not None:
                return  # the session is in an unknown state; end the sweep


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
class Workload:
    """A named stream: solver configuration, episodes, and run shape.

    ``min_passes`` is the fewest whole passes an untraced run completes,
    whatever ``--seconds`` says; it is at most what a 20-second run
    completes on a 2-core machine at the commit that added the benchmark.
    The tail percentile is fixed from it, so that ten queries are slower
    than the tail in the smallest run and the tail names the same rank
    however many passes fit; peak memory is read after that many passes, so
    it does not grow with throughput.  ``bmc_session`` takes 7 where 9 fit,
    which puts its tail in the middle of the second-slowest depth's
    latencies rather than near their top, where a few samples decide it.
    """

    def __init__(self, name: str, config: Dict, min_passes: int, build: Callable[[], List]):
        self.name = name
        self.config_kwargs = dict(config)
        self.min_passes = min_passes
        self._build = build

    def episodes(self) -> List:
        """Generate the inputs (canonical order) — the set-up work."""
        return self._build()

    def config(self, **overrides) -> ABSolverConfig:
        kwargs = dict(self.config_kwargs)
        kwargs.update(overrides)
        return ABSolverConfig(**kwargs)


def _fischer_episodes() -> List[OneShot]:
    episodes = []
    for n in (2, 3, 4):
        for bound in range(n, n + 4):
            text = fischer_smtlib_text(n, bound)
            expected = smtlib_status(text)
            if (expected == "unsat") != (bound == n):
                raise AssertionError(f"FISCHER{n} bound {bound}: :status {expected} contradicts its construction")
            episodes.append(OneShot(f"fischer{n}_b{bound}", "smtlib", smtlib_template(text), expected))
    return episodes


def _sudoku_extra(puzzle_id: str) -> Callable:
    clues = parse_grid(PUZZLES[puzzle_id])

    def check(prefix, model) -> bool:
        return check_grid(decode_solution(_strip(model.theory, prefix)), clues)

    return check


def _sudoku_episodes() -> List[OneShot]:
    return [
        OneShot(pid, "dimacs", dimacs_template(format_dimacs(sudoku_problem(pid))), "sat", _sudoku_extra(pid))
        for pid in sorted(PUZZLES)
    ]


def _bmc_episodes() -> List[Sweep]:
    return [
        Sweep("fischer_unroll", fischer_unroll_family(10)),
        Sweep("watertank_unroll", watertank_unroll_family(10)),
    ]


def _model_episode(name: str, block_model, output: str) -> OneShot:
    """A block model whose SAT witness is also simulated through the model."""
    template = model_template(format_model(block_model))

    def simulate(prefix, model) -> bool:
        renamed = parse_model(template.replace(MARK, prefix))
        inputs = {block.name: model.theory.get(block.name, 0.0) for block in renamed.inports()}
        return renamed.simulate(inputs)[prefix + output] is True

    return OneShot(name, "model", template, "sat", simulate)


def _nonlinear_episodes() -> List[OneShot]:
    episodes = [
        OneShot("fig2", "dimacs", dimacs_template(FIG2_TEXT), "sat"),
        _model_episode("fig1_model", build_fig1_model(), "Out1"),
        _model_episode("watertank_monitor", watertank_model(), "alarm"),
        OneShot(
            "watertank_safety", "dimacs", dimacs_template(format_dimacs(watertank_safety_problem())), "unsat"
        ),
        OneShot("car_steering", "dimacs", dimacs_template(format_dimacs(steering_problem())), "sat"),
    ]
    for name in ("esat_n11_m8_nonlinear", "nonlinear_unsat", "div_operator"):
        factory, status = MICRO_BENCHMARKS[name]
        episodes.append(OneShot(name, "dimacs", dimacs_template(format_dimacs(factory())), status))
    return episodes


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("fischer_smtlib", {"linear": "difference"}, 12, _fischer_episodes),
        Workload("sudoku_lp", {"boolean": "lsat"}, 3, _sudoku_episodes),
        Workload("bmc_session", {"linear": "difference"}, 7, _bmc_episodes),
        Workload("nonlinear_models", {}, 50, _nonlinear_episodes),
    )
}


def pass_size(episodes: Sequence) -> int:
    return sum(episode.size for episode in episodes)


def tail_percentile(workload: Workload, episodes: Sequence) -> float:
    """The percentile with ten slower queries at the smallest run."""
    smallest = workload.min_passes * pass_size(episodes)
    return (smallest - 10) / smallest


def schedule(seed: int, episodes: Sequence) -> Iterator[Tuple[str, List]]:
    """Each pass's prefix and episode order; the same seed, the same sequence."""
    rng = random.Random(seed)
    token = rng.getrandbits(24)
    for pass_index in itertools.count():
        order = list(episodes)
        rng.shuffle(order)
        yield f"q{token:06x}{pass_index:04d}_", order
