"""Fig. 1 / Fig. 2 — the paper's running example as a micro benchmark.

Measures the three pipeline stages of the running example:

* parsing the extended DIMACS text of Fig. 2,
* converting the Fig. 1 block model through LUSTRE (Fig. 3 pipeline),
* solving the resulting AB-problem (Boolean + 4 linear + 1 nonlinear).

Figures 1-5 are illustrative, not measurements; this bench documents that
the reproduction executes them and how long each stage takes.
"""

from repro import ABSolver, parse_dimacs
from repro.benchgen import build_fig1_model
from repro.simulink import model_to_problem

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


def bench_fig2_parse_dimacs(benchmark):
    problem = benchmark(lambda: parse_dimacs(FIG2_TEXT))
    assert problem.stats().num_nonlinear == 1


def bench_fig1_model_conversion(benchmark):
    problem = benchmark(lambda: model_to_problem(build_fig1_model()))
    stats = problem.stats()
    assert stats.num_linear == 4 and stats.num_nonlinear == 1


def bench_fig2_solve(benchmark):
    problem = parse_dimacs(FIG2_TEXT)

    def run():
        result = ABSolver().solve(problem)
        assert result.is_sat
        return result

    benchmark.pedantic(run, rounds=3, iterations=1)


def bench_fig1_full_pipeline(benchmark):
    """Model -> LUSTRE -> problem -> solve -> simulate the witness."""

    def run():
        model = build_fig1_model()
        problem = model_to_problem(model)
        result = ABSolver().solve(problem)
        assert result.is_sat
        witness = {k: result.model.theory.get(k, 0.0) for k in ("a", "x", "y", "i", "j")}
        assert model.simulate(witness)["Out1"] is True

    benchmark.pedantic(run, rounds=1, iterations=1)
