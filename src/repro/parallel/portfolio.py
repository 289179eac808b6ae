"""The portfolio ladder: deterministic, diversified solver configurations.

Portfolio solving races differently-configured solvers on the *whole*
problem and takes the first definite verdict.  The win comes from
complementary strengths: the difference-logic specialist demolishes QF_RDL
unroll families that plain simplex grinds through, an eager restart
schedule pays on problems whose first decisions go astray, and seeded
VSIDS jitter decorrelates the Boolean search order so at least one racer
avoids a bad tail.  Every entry solves the same problem with a sound
configuration, so any SAT or UNSAT answer is final; only UNKNOWN requires
unanimity.

The ladder is a *fixed function* of the base config and the seed — running
with ``jobs=N`` always races exactly the first ``N`` entries — which keeps
parallel verdicts reproducible (see the determinism notes in DESIGN.md).
"""

from __future__ import annotations

import copy
from typing import List, Tuple

from ..core.pipeline import CDCL_FAMILY
from ..core.solver import ABSolverConfig

__all__ = ["portfolio_configs"]


def _variant(base: ABSolverConfig, **fields) -> ABSolverConfig:
    """A copy of ``base`` with ``fields`` replaced."""
    config = copy.copy(base)
    for name, value in fields.items():
        setattr(config, name, value)
    return config


def portfolio_configs(
    base: ABSolverConfig, jobs: int
) -> List[Tuple[str, ABSolverConfig]]:
    """The first ``jobs`` ``(label, config)`` rungs of the diversification ladder.

    Entry 0 is always the base configuration itself (so ``jobs=1`` is the
    sequential solver in a worker process).  The next entries, in order:

    1. the difference-logic specialist (simplex fallback keeps it sound on
       general linear problems) — or plain simplex when the base already
       *is* the specialist;
    2. simplex with the base Boolean engine on an eager restart schedule;
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
    seeded_boolean = base.boolean if base.boolean in CDCL_FAMILY else "cdcl"

    eager_options = dict(base.boolean_options)
    if base.boolean in CDCL_FAMILY:
        eager_options["restart_base"] = 50
    refuter_options = dict(base.refuter_options)
    if base.use_interval_refuter:
        refuter_options["max_boxes"] = 4 * refuter_options.get("max_boxes", 2000)

    ladder: List[Tuple[str, ABSolverConfig]] = [
        ("base", base),
        (specialist, _variant(base, linear=specialist, seed=base_seed + 1)),
        (
            "eager-restarts",
            _variant(
                base,
                linear="simplex",
                seed=base_seed + 2,
                boolean_options=eager_options,
            ),
        ),
        (
            "explorer",
            _variant(
                base,
                boolean=seeded_boolean,
                seed=base_seed + 3,
                boolean_options=dict(base.boolean_options, restart_base=200),
                refuter_options=refuter_options,
            ),
        ),
    ]
    restart_cycle = (50, 100, 200)
    for index in range(len(ladder), jobs):
        restarts = restart_cycle[index % len(restart_cycle)]
        seeded = _variant(
            base,
            boolean=seeded_boolean,
            linear=specialist if index % 2 == 0 else base.linear,
            seed=base_seed + index,
            boolean_options=dict(base.boolean_options, restart_base=restarts),
        )
        ladder.append((f"seeded-{index}", seeded))
    return ladder[:jobs]
