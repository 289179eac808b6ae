"""The portfolio ladder: deterministic, diversified solver configurations.

Portfolio solving races differently-configured solvers on the *whole*
problem and takes the first definite verdict.  The win comes from
complementary strengths: the difference-logic specialist demolishes QF_RDL
unroll families that plain simplex grinds through, presolve pays on
problems with many pure/unit variables, and seeded VSIDS jitter
decorrelates the Boolean search order so at least one racer avoids a bad
tail.  Every entry solves the same problem with a sound configuration, so
any SAT or UNSAT answer is final; only UNKNOWN requires unanimity.

The ladder is a *fixed function* of the base config and the seed — running
with ``jobs=N`` always races exactly the first ``N`` entries — which keeps
parallel verdicts reproducible (see the determinism notes in DESIGN.md).
"""

from __future__ import annotations

from typing import List

from .tasks import ConfigSpec

__all__ = ["portfolio_specs"]


def portfolio_specs(base: ConfigSpec, jobs: int) -> List[ConfigSpec]:
    """The first ``jobs`` entries of the diversification ladder.

    Entry 0 is always the base configuration itself (so ``jobs=1`` is the
    sequential solver in a worker process).  The next entries, in order:

    1. the difference-logic specialist (simplex fallback keeps it sound on
       general linear problems) — or plain simplex when the base already
       *is* the specialist;
    2. simplex with SatELite-style Boolean presolve and an eager restart
       schedule;
    3. a seeded VSIDS/phase-jittered explorer with a slow restart schedule
       and a 4x interval-contraction budget;
    4+ seeded variants cycling restart schedules and the two LP backends.

    Seeds derive from ``base.seed`` (default 0) plus the ladder index, so
    the whole portfolio is reproducible from one number.
    """
    if jobs < 1:
        raise ValueError("portfolio needs at least one job")
    base_seed = base.seed if base.seed is not None else 0
    specialist = "difference" if base.linear != "difference" else "simplex"
    seeded_boolean = base.boolean if base.boolean in ("cdcl", "cdcl-pre", "lsat") else "cdcl"

    ladder: List[ConfigSpec] = [base.copy(label=base.label or "base")]
    ladder.append(
        base.copy(label=specialist, linear=specialist, seed=base_seed + 1)
    )
    presolve_boolean = "cdcl-pre" if base.boolean == "cdcl" else base.boolean
    presolve_options = dict(base.boolean_options)
    if presolve_boolean in ("cdcl", "cdcl-pre", "lsat"):
        presolve_options["restart_base"] = 50
    ladder.append(
        base.copy(
            label="presolve",
            boolean=presolve_boolean,
            linear="simplex",
            seed=base_seed + 2,
            boolean_options=presolve_options,
        )
    )
    refuter_options = dict(base.refuter_options)
    if base.use_interval_refuter:
        refuter_options["max_boxes"] = 4 * refuter_options.get("max_boxes", 2000)
    ladder.append(
        base.copy(
            label="explorer",
            boolean=seeded_boolean,
            seed=base_seed + 3,
            boolean_options=dict(base.boolean_options, restart_base=200),
            refuter_options=refuter_options,
        )
    )
    index = 4
    restart_cycle = (50, 100, 200)
    while len(ladder) < jobs:
        ladder.append(
            base.copy(
                label=f"seeded-{index}",
                boolean=seeded_boolean,
                linear=specialist if index % 2 == 0 else base.linear,
                seed=base_seed + index,
                boolean_options=dict(
                    base.boolean_options,
                    restart_base=restart_cycle[index % len(restart_cycle)],
                ),
            )
        )
        index += 1
    return ladder[:jobs]
