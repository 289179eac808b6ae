"""Tests for the `absolver` command-line front end."""

import json
import multiprocessing

import pytest

from repro.cli import build_parser, main

FIG2 = """p cnf 5 4
1 0
-2 3 0
4 0
5 0
c def int 1 i >= 0
c def int 5 j >= 0
c def int 2 2*i + j < 10
c def int 3 i + j < 5
c def real 4 a * x + 3.5 / ( 4 - y ) + 2 * y >= 7.1
c bound a -10.0 10.0
c bound x -10.0 10.0
c bound y -10.0 10.0
"""

UNSAT = """p cnf 2 2
1 0
2 0
c def real 1 x >= 5
c def real 2 x <= 3
"""

SMT = """(benchmark cli_test
  :logic QF_LRA
  :extrafuns ((x Real))
  :formula (and (> x 1) (< x 2))
)
"""


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.cnf"
    path.write_text(FIG2)
    return str(path)


@pytest.fixture
def unsat_file(tmp_path):
    path = tmp_path / "unsat.cnf"
    path.write_text(UNSAT)
    return str(path)


class TestParserConstruction:
    def test_default_solvers(self):
        args = build_parser().parse_args(["problem.cnf"])
        assert args.boolean == "cdcl"
        assert args.linear == "simplex"

    def test_solver_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--boolean", "minisat", "problem.cnf"])


class TestExitCodes:
    def test_sat_is_10(self, fig2_file, capsys):
        assert main([fig2_file]) == 10
        out = capsys.readouterr().out
        assert out.startswith("sat")
        assert "theory:" in out

    def test_unsat_is_20(self, unsat_file, capsys):
        assert main([unsat_file]) == 20
        assert capsys.readouterr().out.startswith("unsat")

    def test_quiet_suppresses_model(self, fig2_file, capsys):
        main([fig2_file, "--quiet"])
        assert "theory:" not in capsys.readouterr().out

    def test_stats_flag(self, fig2_file, capsys):
        main([fig2_file, "--stats"])
        assert "boolean_queries" in capsys.readouterr().out

    def test_unknown_nonlinear_name(self, fig2_file, capsys):
        assert main([fig2_file, "--nonlinear", "ipopt"]) == 2

    def test_alternate_solvers(self, fig2_file):
        assert main([fig2_file, "--boolean", "lsat", "--linear", "branch-bound"]) == 10

    def test_no_refine(self, unsat_file):
        assert main([unsat_file, "--no-refine"]) == 20


class TestSmtlibInput:
    def test_smtlib_flag(self, tmp_path, capsys):
        path = tmp_path / "b.smt"
        path.write_text(SMT)
        assert main([str(path), "--smtlib"]) == 10


MODEL_TEXT = """\
model monitor
block Inport x -5.0 5.0
block Constant k 100.0
block RelationalOperator cmp <=
block Outport ok boolean
connect x cmp 0
connect k cmp 1
connect cmp ok 0
end
"""


class TestModelInput:
    def test_model_satisfy(self, tmp_path, capsys):
        path = tmp_path / "monitor.mdl"
        path.write_text(MODEL_TEXT)
        assert main([str(path), "--model"]) == 10

    def test_model_violate_proves_invariant(self, tmp_path, capsys):
        path = tmp_path / "monitor.mdl"
        path.write_text(MODEL_TEXT)
        # x <= 100 holds for all x in [-5, 5]: no counterexample exists
        assert main([str(path), "--model", "--goal", "violate"]) == 20

    def test_model_and_smtlib_exclusive(self, tmp_path):
        path = tmp_path / "monitor.mdl"
        path.write_text(MODEL_TEXT)
        assert main([str(path), "--model", "--smtlib"]) == 2

    def test_output_port_selection(self, tmp_path):
        path = tmp_path / "monitor.mdl"
        path.write_text(MODEL_TEXT)
        assert main([str(path), "--model", "--output-port", "ok"]) == 10


BOX_TEXT = """p cnf 3 3
1 0
2 0
3 0
c def real 1 x >= 0
c def real 2 x <= 10
c def real 3 x + y = 12
c bound y 0.0 100.0
"""


class TestOptimizationFlags:
    def test_maximize(self, tmp_path, capsys):
        path = tmp_path / "box.cnf"
        path.write_text(BOX_TEXT)
        assert main([str(path), "--maximize", "x"]) == 10
        out = capsys.readouterr().out
        assert "optimal" in out
        assert "objective: 10" in out

    def test_minimize_with_constant_shift(self, tmp_path, capsys):
        path = tmp_path / "box.cnf"
        path.write_text(BOX_TEXT)
        assert main([str(path), "--minimize", "x + 1"]) == 10
        assert "objective: 1" in capsys.readouterr().out

    def test_nonlinear_objective_rejected(self, tmp_path, capsys):
        path = tmp_path / "box.cnf"
        path.write_text(BOX_TEXT)
        assert main([str(path), "--minimize", "x * y"]) == 2

    def test_both_directions_rejected(self, tmp_path):
        path = tmp_path / "box.cnf"
        path.write_text(BOX_TEXT)
        assert main([str(path), "--minimize", "x", "--maximize", "x"]) == 2

    def test_optimize_unsat(self, tmp_path, capsys):
        path = tmp_path / "u.cnf"
        path.write_text("p cnf 2 2\n1 0\n2 0\nc def real 1 x >= 5\nc def real 2 x <= 3\n")
        assert main([str(path), "--minimize", "x"]) == 20


class TestAllModels:
    def test_enumeration(self, tmp_path, capsys):
        path = tmp_path / "enum.cnf"
        path.write_text("p cnf 2 1\n1 2 0\n")
        assert main([str(path), "--all-models"]) == 0
        out = capsys.readouterr().out
        assert "3 model(s)" in out

    def test_max_models(self, tmp_path, capsys):
        path = tmp_path / "enum.cnf"
        path.write_text("p cnf 3 1\n1 2 3 0\n")
        main([str(path), "--all-models", "--max-models", "2"])
        assert "2 model(s)" in capsys.readouterr().out

    def test_unsat_enumeration_exit_code(self, tmp_path):
        path = tmp_path / "u.cnf"
        path.write_text("p cnf 1 2\n1 0\n-1 0\n")
        assert main([str(path), "--all-models"]) == 20


class TestFlightRecord:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the injected worker failure reaches workers only by fork",
    )
    def test_parallel_worker_error_keeps_merged_dump(
        self, unsat_file, tmp_path, monkeypatch
    ):
        # The coordinator writes the merged post-mortem (its ring plus every
        # worker's) before raising the worker error; the CLI must not
        # overwrite it with the coordinator's ring alone on the way out.
        from repro.parallel import worker

        def fail(*args, **kwargs):
            raise RuntimeError("injected worker failure")

        monkeypatch.setattr(worker, "_run_check", fail)
        target = tmp_path / "flight.jsonl"
        with pytest.raises(RuntimeError, match="parallel worker"):
            main([unsat_file, "--jobs", "2", "--flight-record", str(target)])
        lines = [json.loads(line) for line in target.read_text().splitlines()]
        assert lines[0]["reason"] == "worker-error"
        tagged = [line for line in lines if "worker" in line]
        assert tagged, "worker lines missing from the flight dump"
        assert any(line.get("note") == "worker-exception" for line in tagged)
