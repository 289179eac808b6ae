"""Spans around the calls into each layer of the program, for traced runs.

The engines are wrapped through the paper's own plug-in point: a copy of
the solver registry whose factories call ``default_registry.create`` and
time the returned adapter's ``solve``, ``check`` and ``refine``.  Stages
with no plug-in point are wrapped at class level while a traced pass runs,
and unwrapped after it.  Parsing and block-model conversion are timed
where the benchmark calls them.

A span is ``[parent, query, name, start, end]``; spans stay in memory and
are written out when the run ends.  A span's self time is its duration
minus the time its child spans cover; the root span of a query is named
``query``, and its self time is the loop remainder (fingerprints, template
matching, the model guard, session bookkeeping).
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Sequence

from repro import Circuit, SolverSession, default_registry
from repro.core.pipeline import TheoryTranslationStage
from repro.core.presolve import PresolveStage
from repro.core.registry import DOMAIN_BOOLEAN, DOMAIN_LINEAR, DOMAIN_NONLINEAR
from repro.nonlinear.auglag import NLPStatus
from repro.nonlinear.refute import IntervalRefuter, RefuteStatus

from streams import Probe

#: Span names below the query root, one per layer boundary, and the calls
#: each one times.
LAYERS = {
    "io": "the repro.io parsers",
    "simulink": "repro.simulink.model_to_problem",
    "session": "the SolverSession assertions",
    "presolve": "PresolveStage.ensure",
    "translate": "TheoryTranslationStage.plan/materialize",
    "circuit": "repro.core.circuit.Circuit",
    "sat": "the Boolean adapter's solve",
    "linear.check": "the linear adapter's check",
    "linear.refine": "the linear adapter's refine",
    "nonlinear": "the nonlinear adapters' solve",
    "nonlinear.refute": "IntervalRefuter.refute",
}


class SpanRecorder(Probe):
    """A probe that records one span per call into a layer."""

    def __init__(self, gauge=None) -> None:
        super().__init__(gauge)
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._query = -1
        #: Sums the wrappers note from arguments and results (rows per
        #: check, core rows per refinement, nonlinear and refuter outcomes).
        self.notes: Dict[str, float] = defaultdict(float)

    # -- spans -----------------------------------------------------------
    def span(self, name: str, function: Callable, note: Callable = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(function)
        def timed(*args, **kwargs):
            index = len(spans)
            record = [stack[-1] if stack else -1, self._query, name, 0.0, 0.0]
            spans.append(record)
            stack.append(index)
            record[3] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if note is not None:
                note(args, result)
            return result

        return timed

    def call(self, layer: str, function: Callable, *args):
        return self.span(layer, function)(*args)

    def begin_query(self) -> None:
        self._query += 1
        self._stack.append(len(self.spans))
        self.spans.append([-1, self._query, "query", time.perf_counter(), 0.0])

    def end_query(self) -> None:
        self.spans[self._stack.pop()][4] = time.perf_counter()

    # -- engines, through the registry -------------------------------------
    def registry(self):
        """A registry copy whose engines record spans."""
        registry = default_registry.copy()
        for domain in (DOMAIN_BOOLEAN, DOMAIN_LINEAR, DOMAIN_NONLINEAR):
            for name in default_registry.available(domain):
                registry.register(domain, name, functools.partial(self._create, domain, name))
        return registry

    def _create(self, domain: str, name: str, **options):
        adapter = default_registry.create(domain, name, **options)
        if domain == DOMAIN_BOOLEAN:
            adapter.solve = self.span("sat", adapter.solve)
        elif domain == DOMAIN_LINEAR:
            adapter.check = self.span("linear.check", adapter.check, self._note_check)
            adapter.refine = self.span("linear.refine", adapter.refine, self._note_refine)
        else:
            adapter.solve = self.span("nonlinear", adapter.solve, self._note_nonlinear)
        return adapter

    # -- stages without a plug-in point, at class level ---------------------
    def install(self) -> Callable[[], None]:
        """Wrap the stage methods; returns the function that unwraps them."""
        patched = []

        def patch(owner, attribute: str, name: str, note: Callable = None) -> None:
            original = owner.__dict__[attribute]
            if isinstance(original, staticmethod):
                replacement = staticmethod(self.span(name, original.__func__, note))
            else:
                replacement = self.span(name, original, note)
            setattr(owner, attribute, replacement)
            patched.append((owner, attribute, original))

        patch(PresolveStage, "ensure", "presolve")
        patch(TheoryTranslationStage, "plan", "translate")
        patch(TheoryTranslationStage, "materialize", "translate")
        patch(Circuit, "from_ab_problem", "circuit")
        patch(Circuit, "evaluate_boolean_assignment", "circuit")
        patch(IntervalRefuter, "refute", "nonlinear.refute", self._note_refute)
        for method in ("assert_problem", "define", "assert_clause", "set_bounds"):
            patch(SolverSession, method, "session")

        def restore() -> None:
            for owner, attribute, original in reversed(patched):
                setattr(owner, attribute, original)

        return restore

    # -- notes ---------------------------------------------------------------
    def _note_check(self, args, result) -> None:
        self.notes["linear.rows"] += len(args[0].rows)

    def _note_refine(self, args, refinement) -> None:
        self.notes["linear.refine_rows"] += len(args[0].rows)
        self.notes["linear.core_rows"] += len(refinement.conflicting_tags)

    def _note_nonlinear(self, args, result) -> None:
        self.notes["nonlinear.sat"] += result.status is NLPStatus.SAT

    def _note_refute(self, args, result) -> None:
        self.notes["nonlinear.refuted"] += result.status is RefuteStatus.REFUTED

    # -- analysis --------------------------------------------------------------
    def self_times(self, scales: Sequence[float] = ()) -> Dict[str, float]:
        """Self seconds per span name over every recorded span.

        ``scales[q]``, when given, scales the spans of query ``q`` to the
        reference host speed.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for parent, _, _, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (_, query, name, start, end) in enumerate(spans):
            scale = scales[query] if scales else 1.0
            totals[name] += ((end - start) - covered[index]) * scale
        return totals

    def calls(self, first: int = 0, last: int = None) -> Dict[str, int]:
        return Counter(record[2] for record in self.spans[first:last])

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (parent, query, name, start, end) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": index, "parent": parent, "query": query, "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )
