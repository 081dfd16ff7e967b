import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (DATA, NO_LOGIC, WIDE_LSZ, deep_problem,
                      fake_solver_script, let_chain)
from test_frontend import (BOOL_CLIA, CROSS_UNKNOWN_GRAMMAR,
                           LITERAL_EQ_GRAMMAR)
from syguskit.sexpr import MAX_DEPTH

PKG = Path(__file__).parent.parent


def cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("SYGUSKIT_SMT", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PKG / "src"), *filter(None, [env.get("PYTHONPATH")])])
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "syguskit", *args],
                          capture_output=True, text=True, cwd=PKG, env=env)


def test_parse_echoes_canonical_form():
    r = cli("parse", str(DATA / "max2.sl"))
    assert r.returncode == 0
    assert r.stdout.startswith("(set-logic LIA)")
    assert r.stdout.strip().endswith("(check-synth)")


def test_parse_output_parses_to_itself(tmp_path):
    first = tmp_path / "bool_clia.sl"
    first.write_text(BOOL_CLIA)
    r = cli("parse", str(first))
    assert r.returncode == 0, r.stderr
    again = tmp_path / "again.sl"
    again.write_text(r.stdout)
    r2 = cli("parse", str(again))
    assert r2.returncode == 0, r2.stderr
    assert r2.stdout == r.stdout


def test_parse_failure_exit_2(tmp_path):
    bad = tmp_path / "bad.sl"
    bad.write_text("(constraint (= x))")
    r = cli("parse", str(bad))
    assert r.returncode == 2
    assert r.stdout == ""
    assert "error:" in r.stderr


def test_grammar_calling_an_unknown_is_an_input_error(tmp_path):
    bad = tmp_path / "cross.sl"
    bad.write_text(CROSS_UNKNOWN_GRAMMAR)
    for args in (("parse", str(bad)),
                 ("solve", str(bad), "--strategy", "enum")):
        r = cli(*args)
        assert r.returncode == 2
        assert r.stdout == ""
        assert "error: f" in r.stderr
        assert "Traceback" not in r.stderr


def test_deep_nesting_is_an_input_error(tmp_path):
    deep = tmp_path / "deep.sl"
    deep.write_text(deep_problem(3000))
    r = cli("parse", str(deep))
    assert r.returncode == 2
    assert r.stdout == ""
    assert "error: nesting deeper than" in r.stderr
    assert "Traceback" not in r.stderr


def test_bit_vector_width_above_the_cap_is_an_input_error(tmp_path):
    wide = tmp_path / "wide.sl"
    wide.write_text(WIDE_LSZ)
    r = cli("parse", str(wide))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.strip() == (
        "error: bit-vector width 4294967295 is above the maximum of 64")


def test_let_chain_past_the_desugaring_bound_is_an_input_error(tmp_path):
    # each level doubles the desugared term; 17 levels pass 100,000 nodes
    chain = tmp_path / "chain.sl"
    chain.write_text(let_chain(17))
    r = cli("parse", str(chain))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: let desugars to ")
    assert r.stderr.strip().endswith("above the maximum of 100000")
    chain.write_text(let_chain(3))
    r = cli("parse", str(chain))
    assert r.returncode == 0, r.stderr
    assert "(+ (+ (+ x x) (+ x x)) (+ (+ x x) (+ x x)))" in r.stdout


def test_nesting_limit_file_parses_prints_and_checks(tmp_path):
    deep = tmp_path / "deep.sl"
    deep.write_text(deep_problem(MAX_DEPTH))
    r = cli("parse", str(deep))
    assert r.returncode == 0, r.stderr
    again = tmp_path / "again.sl"
    again.write_text(r.stdout)
    assert cli("parse", str(again)).stdout == r.stdout
    sol = tmp_path / "f.sol"
    sol.write_text("(define-fun f ((x Int)) Int x)")
    r = cli("check", str(deep), "--solution", str(sol))
    assert r.returncode == 0, r.stderr
    assert "semantic: valid (on budget)" in r.stdout
    deep.write_text(deep_problem(MAX_DEPTH + 1))
    assert cli("parse", str(deep)).returncode == 2


def test_check_accepts_correct_solution(tmp_path):
    sol = tmp_path / "max2.sol"
    sol.write_text("(define-fun max2 ((x Int) (y Int)) Int (ite (>= x y) x y))")
    r = cli("check", str(DATA / "max2.sl"), "--solution", str(sol))
    assert r.returncode == 0, r.stderr
    assert "syntactic max2: ok" in r.stdout
    assert "semantic: valid (on budget)" in r.stdout


def test_check_rejects_wrong_solution(tmp_path):
    sol = tmp_path / "max2.sol"
    sol.write_text("(define-fun max2 ((x Int) (y Int)) Int x)")
    r = cli("check", str(DATA / "max2.sl"), "--solution", str(sol),
            "--exhaustive-bound", "8")
    assert r.returncode == 1
    assert "counterexample" in r.stdout


@pytest.mark.parametrize("budget", [["--samples", "0"],
                                    ["--exhaustive-bound", "-1"],
                                    ["--samples", "-1"]])
def test_check_that_examined_no_point_is_not_valid(tmp_path, budget):
    sol = tmp_path / "max2.sol"
    sol.write_text("(define-fun max2 ((x Int) (y Int)) Int x)")
    r = cli("check", str(PKG / "benchmarks" / "integers" / "max2.sl"),
            "--solution", str(sol), *budget)
    assert r.returncode == 1, r.stdout
    assert "semantic: unknown (budget)" in r.stdout


def test_check_rejects_grammar_violation(tmp_path):
    sol = tmp_path / "f.sol"
    sol.write_text("(define-fun f ((x (BitVec 32))) (BitVec 32) (bvmul x x))")
    r = cli("check", str(DATA / "hd-17-d0.sl"), "--solution", str(sol))
    assert r.returncode == 1
    assert "VIOLATES GRAMMAR" in r.stdout


def test_check_tells_bool_literals_from_int_ones(tmp_path):
    f = tmp_path / "eq.sl"
    f.write_text(LITERAL_EQ_GRAMMAR.replace(" (= false true)", ""))
    sol = tmp_path / "f.sol"
    sol.write_text("(define-fun f ((x Int)) Bool (= false true))")
    r = cli("check", str(f), "--solution", str(sol))
    assert r.returncode == 1
    assert "VIOLATES GRAMMAR" in r.stdout


def test_check_uses_smt_env_var(tmp_path):
    sol = tmp_path / "max2.sol"
    sol.write_text("(define-fun max2 ((x Int) (y Int)) Int (ite (>= x y) x y))")
    cmd = fake_solver_script(tmp_path, "unsat\n")
    r = cli("check", str(DATA / "max2.sl"), "--solution", str(sol),
            env_extra={"SYGUSKIT_SMT": cmd})
    assert r.returncode == 0
    assert "semantic: valid\n" in r.stdout  # certified, no (on budget)


def test_solve_keeps_a_grid_verified_solution_the_smt_stage_cannot_state(
        tmp_path):
    f = tmp_path / "plain.sl"
    f.write_text(NO_LOGIC)
    cmd = fake_solver_script(tmp_path, "unsat\n")
    r = cli("solve", str(f), "--strategy", "enum", "--smt", cmd,
            "--timeout", "30")
    assert r.returncode == 0, r.stderr
    assert r.stdout == "(define-fun f ((x Int)) Int (+ x 1))\n"


def test_solve_prints_solution_on_stdout_only():
    r = cli("solve", str(PKG / "benchmarks/compileropts/qm_loop_1.sl"),
            "--strategy", "enum", "--timeout", "30")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("(define-fun qm-loop ((x Int)) Int ")
    assert "solved in" in r.stderr
    # the stdout is exactly what parse_solution consumes
    from syguskit.frontend import load_problem, parse_solution
    p = load_problem(PKG / "benchmarks/compileropts/qm_loop_1.sl")
    parse_solution(r.stdout, p)


def test_solve_unsolvable_exit_1(tmp_path):
    f = tmp_path / "contradiction.sl"
    f.write_text("""(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(constraint (= (f x) (+ x 1)))
(constraint (= (f x) x))
(check-synth)""")
    r = cli("solve", str(f), "--strategy", "enum", "--max-size", "4",
            "--timeout", "30")
    assert r.returncode == 1
    assert r.stdout == ""
    assert "not solved" in r.stderr


def test_solve_fills_a_bool_constant_hole(tmp_path):
    f = tmp_path / "bool_hole.sl"
    f.write_text("""(set-logic LIA)
(synth-fun f ((x Int)) Bool ((B Bool ((Constant Bool)))))
(declare-var x Int)
(constraint (f x))
(check-synth)""")
    r = cli("solve", str(f), "--strategy", "enum", "--timeout", "30")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "(define-fun f ((x Int)) Bool true)"


def test_bench_writes_report(tmp_path):
    suite = tmp_path / "suite" / "cat"
    suite.mkdir(parents=True)
    (suite / "easy.sl").write_text("""(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(constraint (= (f x) x))
(check-synth)""")
    out = tmp_path / "report.csv"
    r = cli("bench", str(tmp_path / "suite"), "--solvers", "enum",
            "--timeout", "30", "--report", str(out))
    assert r.returncode == 0, r.stderr
    assert "enum: solved 1" in r.stdout
    assert out.read_text().splitlines()[1].startswith("cat,")


def test_bench_unknown_solver_is_an_input_error(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "max2.sl").write_text((DATA / "max2.sl").read_text())
    r = cli("bench", str(suite), "--solvers", "enum,nosuch", "--timeout", "30")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "error: unknown solver id: nosuch" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("solvers, err", [
    ("enum,enum", "error: solver id given twice: enum\n"),
    (",", "error: no solver id given\n")], ids=["repeated", "empty"])
def test_bench_refuses_a_repeated_or_empty_solver_list(tmp_path, solvers, err):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "max2.sl").write_text((DATA / "max2.sl").read_text())
    r = cli("bench", str(suite), "--solvers", solvers, "--timeout", "30")
    assert r.returncode == 2
    assert "solved" not in r.stdout
    assert r.stderr == err


def test_bench_checks_the_report_directory_before_running(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "max2.sl").write_text((DATA / "max2.sl").read_text())
    report = tmp_path / "missing" / "out.csv"
    r = cli("bench", str(suite), "--solvers", "enum", "--timeout", "30",
            "--report", str(report))
    assert r.returncode == 2
    assert "solved" not in r.stdout
    assert r.stderr == f"error: no directory for report {report}\n"
    assert not report.parent.exists()


def test_run_suite_checks_solver_ids_before_running(tmp_path, monkeypatch):
    from syguskit import harness
    (tmp_path / "max2.sl").write_text((DATA / "max2.sl").read_text())
    ran = []
    monkeypatch.setattr(harness, "run_benchmark", lambda *a, **k: ran.append(a))
    with pytest.raises(harness.UnknownSolver, match="nosuch"):
        harness.run_suite(tmp_path, ["enum", "nosuch"], harness.RunLimits())
    assert ran == []


def test_bench_checks_report_format_before_running(tmp_path, monkeypatch,
                                                  capsys):
    from syguskit import cli as cli_module
    ran = []
    monkeypatch.setattr(cli_module, "run_suite", lambda *a, **k: ran.append(a))
    code = cli_module.main(["bench", str(PKG / "benchmarks" / "compileropts"),
                            "--solvers", "enum",
                            "--report", str(tmp_path / "out.txt")])
    assert code == 2
    assert ran == []
    assert "error: unknown report format 'txt'" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


MAX2 = str(DATA / "max2.sl")
SUITE = str(PKG / "benchmarks" / "compileropts")


@pytest.mark.parametrize("args", [
    ["solve", MAX2, "--timeout", "nan"], ["solve", MAX2, "--timeout", "-1"],
    ["solve", MAX2, "--timeout", "0"], ["solve", MAX2, "--max-size", "-3"],
    ["solve", MAX2, "--max-size", "0"], ["bench", SUITE, "--timeout", "inf"],
    ["bench", SUITE, "--timeout", "nan"], ["bench", SUITE, "--parallel", "0"]])
def test_numeric_options_out_of_range_are_usage_errors(args, capsys):
    from syguskit import cli as cli_module
    with pytest.raises(SystemExit) as exit_:
        cli_module.main(args)
    assert exit_.value.code == 2
    kind = "float" if args[-2] == "--timeout" else "int"
    assert (f"argument {args[-2]}: invalid positive {kind} value: "
            f"'{args[-1]}'") in capsys.readouterr().err


def test_bench_with_an_infinite_timeout_exits_2_without_a_traceback():
    r = cli("bench", SUITE, "--timeout", "inf")
    assert r.returncode == 2
    assert r.stdout == "" and "Traceback" not in r.stderr


@pytest.mark.parametrize("wallclock_s", [
    math.inf, math.nan, 0.0, -1.0, "5", pytest.param(10**400, id="10**400")])
def test_run_limits_reject_a_budget_that_is_not_positive_and_finite(
        wallclock_s):
    from syguskit.harness import RunLimits
    with pytest.raises(ValueError, match="wallclock_s"):
        RunLimits(wallclock_s=wallclock_s)


@pytest.mark.parametrize("grace_s", [math.inf, math.nan, -0.5, -100.0, None])
def test_run_limits_reject_a_grace_that_is_negative_or_not_finite(grace_s):
    # a negative grace recorded a quick solve as a timeout; inf and nan
    # raised from the thread join
    from syguskit.harness import RunLimits
    with pytest.raises(ValueError, match="grace_s"):
        RunLimits(wallclock_s=5, grace_s=grace_s)
    assert RunLimits(wallclock_s=5, grace_s=0).grace_s == 0


def test_run_limits_reject_a_wait_past_the_thread_join_maximum():
    # the run's thread join raised OverflowError past threading.TIMEOUT_MAX
    import threading
    from syguskit.harness import RunLimits
    with pytest.raises(ValueError, match=r"wallclock_s \+ grace_s"):
        RunLimits(wallclock_s=1e10)
    with pytest.raises(ValueError, match=r"wallclock_s \+ grace_s"):
        RunLimits(wallclock_s=threading.TIMEOUT_MAX, grace_s=5)
    assert RunLimits(wallclock_s=threading.TIMEOUT_MAX - 5).grace_s == 5
    r = cli("bench", SUITE, "--timeout", "1e10")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: wallclock_s + grace_s must be at most")
    assert r.stderr.count("\n") == 1


def test_classify_prints_table():
    r = cli("classify", str(PKG / "benchmarks"))
    assert r.returncode == 0
    assert "s8.sl" in r.stdout
    assert "lia" in r.stdout and "inv" in r.stdout


def test_classify_gives_a_bad_file_its_row_and_goes_on(tmp_path):
    (tmp_path / "max2.sl").write_text((DATA / "max2.sl").read_text())
    (tmp_path / "bad.sl").write_text("(set-logic LIA)\n(synth-fun")
    r = cli("classify", str(tmp_path))
    assert r.returncode == 0, r.stderr
    bad, max2 = r.stdout.splitlines()[1:]
    assert bad.split()[:2] == ["bad.sl", "(root)"]
    assert bad.endswith("parse failure: unmatched '(' (at offset 16)")
    assert max2.split() == ["max2.sl", "(root)", "single", "1", "lia"]


def test_classify_names_a_symlinked_benchmark_by_where_it_is_found(
        tmp_path):
    target = tmp_path / "elsewhere.sl"
    target.write_text((DATA / "max2.sl").read_text())
    suite = tmp_path / "suite"
    (suite / "integers").mkdir(parents=True)
    (suite / "integers" / "max2.sl").symlink_to(target)
    r = cli("classify", str(suite))
    assert r.returncode == 0, r.stderr
    row, = r.stdout.splitlines()[1:]
    assert row.split()[:2] == ["max2.sl", "integers"]


class ClosedPipe:
    """A stdout whose reader has gone away; fileno() is a file's
    descriptor, so the test can see where it points afterwards."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_a_closed_stdout_exits_1_without_an_error_line(tmp_path, capsys,
                                                      monkeypatch):
    from syguskit import cli as cli_module
    out = tmp_path / "stdout"
    fd = os.open(out, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        code = cli_module.main(["classify", str(PKG / "benchmarks")])
        # the descriptor now points at os.devnull
        os.write(fd, b"left over")
    finally:
        os.close(fd)
    assert code == 1
    assert "error:" not in capsys.readouterr().err
    assert out.read_bytes() == b""


def test_a_missing_file_still_exits_2(tmp_path, capsys):
    from syguskit import cli as cli_module
    assert cli_module.main(["parse", str(tmp_path / "missing.sl")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
