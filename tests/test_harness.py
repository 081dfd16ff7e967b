import sys
import time

import pytest

import stub_suite
from conftest import (DATA, NO_LOGIC, WIDE_LSZ, deep_problem,
                      fake_solver_script, let_chain)
from syguskit.cegis import Exhausted, Solved, TimedOut
from syguskit.checker import ExhaustiveSmall, ExternalSMT, Layered, Valid
from syguskit.harness import (EmptySuite, RunLimits, SIZE_BUCKETS,
                              aggregate, bucket, classify_suite,
                              register_solver, render_report,
                              report_from_json, run_benchmark, run_suite)
from syguskit.terms import SygusError

LIMITS = RunLimits(wallclock_s=60.0, grace_s=1.0)


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    stub_suite.register_stubs()
    return stub_suite.write_suite(tmp_path_factory.mktemp("suite"))


@pytest.fixture(scope="module")
def report(suite_dir):
    return run_suite(suite_dir, ["stubA", "stubB"], LIMITS, parallelism=3)


# ---------------------------------------------------------------------------
# single runs


def test_run_record_solved(suite_dir):
    rec = run_benchmark(suite_dir / "intlike" / "u1.sl", "stubA", LIMITS,
                        suite_root=suite_dir)
    assert rec.solved
    assert rec.category == "intlike"
    assert rec.elapsed_s == 0.4  # the solver-reported time, not wallclock
    assert rec.solution_size == 1


def test_syntactic_gate_blocks_and_skips_semantics(suite_dir):
    rec = run_benchmark(suite_dir / "other" / "u5.sl", "stubA", LIMITS,
                        suite_root=suite_dir)
    assert isinstance(rec.outcome, Solved)
    assert rec.syntactic_ok is False
    assert rec.semantic is None  # gate first: semantic check skipped
    assert not rec.solved


def test_semantically_wrong_solution_not_solved(suite_dir):
    rec = run_benchmark(suite_dir / "other" / "u6.sl", "stubA", LIMITS,
                        suite_root=suite_dir)
    assert rec.syntactic_ok is True
    assert not rec.solved


def test_parse_failure_recorded_not_raised(tmp_path):
    bad = tmp_path / "bad.sl"
    bad.write_text("(((")
    rec = run_benchmark(bad, "stubA", LIMITS)
    assert rec.error is not None and "parse failure" in rec.error
    assert not rec.solved


def _records_beside_max2(tmp_path, monkeypatch, name: str, data: bytes,
                         check=None, solved=1):
    """The enum records of a suite run over max2.sl and a file `name`
    holding `data`, sorted by path; `solved` of them are solved."""
    import syguskit.harness as harness
    (tmp_path / name).write_bytes(data)
    (tmp_path / "max2.sl").write_text((DATA / "max2.sl").read_text())
    records = []

    def keep(recs, solver_ids):
        records.extend(recs)
        return aggregate(recs, solver_ids)

    monkeypatch.setattr(harness, "aggregate", keep)
    report = run_suite(tmp_path, ["enum"], LIMITS, check=check)
    assert report.totals["enum"].solved == solved
    return sorted(records, key=lambda r: r.benchmark)


def _with_bound(numeral: str) -> bytes:
    """deep_problem(2), whose constraint is (>= (f x) x), with numeral for
    its last x."""
    return deep_problem(2).replace("(f x) x)", f"(f x) {numeral})").encode()


@pytest.mark.parametrize("data, message", [
    (deep_problem(3000).encode(), "nesting deeper than"),
    (b"\xff\xfe(set-logic LIA)\n", "not UTF-8"),
    # int() raised ValueError on both, which aborted the whole suite
    (_with_bound("9" * 4301), "numeral of 4301 digits is too long"),
    (_with_bound("\u00b2"), "malformed numeral '\u00b2'"),
    (WIDE_LSZ.encode(), "width 4294967295 is above the maximum of 64"),
    (let_chain(17).encode(), "above the maximum of 100000")],
    ids=["deep_nesting", "non_utf8", "overlong_numeral", "superscript_digit",
         "bit_vector_width_above_64", "let_chain_past_the_bound"])
def test_unparsable_file_is_one_parse_failure_record(tmp_path, monkeypatch,
                                                     data, message):
    # "bad.sl" sorts before "max2.sl"
    bad, max2 = _records_beside_max2(tmp_path, monkeypatch, "bad.sl", data)
    assert bad.error is not None and "parse failure" in bad.error
    assert message in bad.error
    assert max2.error is None and max2.solved


def test_external_stage_without_a_logic_keeps_the_grid_verdict(
        tmp_path, monkeypatch):
    # no set-logic gives logic ALL, which emit_smtlib cannot state
    check = Layered((ExhaustiveSmall(),
                     ExternalSMT(fake_solver_script(tmp_path, "unsat\n"))))
    max2, plain = _records_beside_max2(tmp_path, monkeypatch, "plain.sl",
                                       NO_LOGIC.encode(), check, solved=2)
    assert plain.error is None and plain.solved
    assert plain.semantic == Valid(certified=False)
    assert max2.solved and max2.semantic == Valid(certified=True)


def test_sleep_forever_stub_times_out_within_two_seconds(tmp_path):
    def sleeper(problem, budget_s):
        time.sleep(3600)

    register_solver("sleeper", sleeper)
    f = tmp_path / "x.sl"
    f.write_text(stub_suite._PROBLEM.format(name="f"))
    limits = RunLimits(wallclock_s=0.3, grace_s=0.5)
    t0 = time.monotonic()
    rec = run_benchmark(f, "sleeper", limits)
    assert time.monotonic() - t0 < limits.wallclock_s + 2.0
    assert rec.outcome == TimedOut(0.3)
    assert not rec.solved


def test_a_solver_that_exits_is_an_error_with_its_measured_time(tmp_path):
    register_solver("quits", lambda problem, budget_s: sys.exit(3))
    f = tmp_path / "x.sl"
    f.write_text(stub_suite._PROBLEM.format(name="f"))
    rec = run_benchmark(f, "quits", LIMITS)
    assert rec.outcome is None
    assert rec.error == "solver error: 3"
    assert rec.elapsed_s < 5.0  # measured, not the 60 s budget
    assert not rec.solved


def test_a_symlinked_benchmark_takes_the_category_it_is_found_under(
        tmp_path):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    target = elsewhere / "max2.sl"
    target.write_text((DATA / "max2.sl").read_text())
    suite = tmp_path / "suite"
    (suite / "integers").mkdir(parents=True)
    (suite / "integers" / "max2.sl").symlink_to(target)
    register_solver("gives-up", lambda problem, budget_s: Exhausted(1))
    report = run_suite(suite, ["gives-up"], LIMITS)
    assert [b.category for b in report.benchmarks] == ["integers"]
    assert [row[1] for row in classify_suite(suite)] == ["integers"]


def test_crashing_solver_recorded(tmp_path):
    def crash(problem, budget_s):
        raise RuntimeError("boom")

    register_solver("crash", crash)
    f = tmp_path / "x.sl"
    f.write_text(stub_suite._PROBLEM.format(name="f"))
    rec = run_benchmark(f, "crash", LIMITS)
    assert rec.error is not None and "boom" in rec.error
    assert not rec.solved


# ---------------------------------------------------------------------------
# buckets


def test_pseudo_logarithmic_time_buckets():
    assert bucket(0.4) == bucket(0.9) == bucket(1.0) == 0
    assert bucket(1.5) == 1
    assert bucket(9.99) == 2
    assert bucket(3600.0) == 7


def test_size_buckets_extend_to_infinity():
    assert bucket(1, SIZE_BUCKETS) == 0
    assert bucket(3, SIZE_BUCKETS) == 1
    assert bucket(1200, SIZE_BUCKETS) == 7  # (1000, inf)


# ---------------------------------------------------------------------------
# suite aggregation against the hand-computed table


def test_totals_match_hand_computation(report):
    for sid, (solved, unique) in stub_suite.EXPECTED_TOTALS.items():
        assert report.totals[sid].solved == solved
        assert report.totals[sid].uniquely_solved == unique


def test_category_totals_match(report):
    for cat, per in stub_suite.EXPECTED_CATEGORY_TOTALS.items():
        for sid, (solved, unique) in per.items():
            assert report.category_totals[cat][sid].solved == solved
            assert report.category_totals[cat][sid].uniquely_solved == unique


def test_per_benchmark_summaries_match(report):
    by_name = {b.benchmark.rsplit("/", 1)[-1].removesuffix(".sl"): b
               for b in report.benchmarks}
    for name, (count, tmin, tmax, smin, smax, fastest, smallest) \
            in stub_suite.EXPECTED_BENCH.items():
        b = by_name[name]
        assert b.solver_count == count, name
        assert b.min_time == tmin and b.max_time == tmax, name
        assert b.min_size == smin and b.max_size == smax, name
        assert b.fastest == fastest, name
        assert b.smallest == smallest, name


def test_uniquely_solved_bound(report):
    lonely = sum(1 for b in report.benchmarks if b.solver_count == 1)
    total_unique = sum(t.uniquely_solved for t in report.totals.values())
    assert total_unique == lonely  # every unique solve is by a listed solver


def test_aggregation_is_order_invariant(suite_dir):
    recs = []
    for name, (category, per) in stub_suite.SCRIPT.items():
        for sid in ("stubA", "stubB"):
            recs.append(run_benchmark(suite_dir / category / f"{name}.sl",
                                      sid, LIMITS, suite_root=suite_dir))
    fwd = aggregate(recs, ["stubA", "stubB"])
    rev = aggregate(list(reversed(recs)), ["stubA", "stubB"])
    assert fwd == rev


def test_empty_suite_raises(tmp_path):
    with pytest.raises(EmptySuite):
        run_suite(tmp_path, ["stubA"], LIMITS)


@pytest.mark.parametrize("ids, match", [
    ([], "no solver id given"),
    (["recorder", "stubA", "recorder"], "solver id given twice: recorder")],
    ids=["empty", "repeated"])
def test_run_suite_refuses_an_empty_or_repeated_id_list(suite_dir, ids, match):
    calls = []
    register_solver("recorder", lambda problem, budget_s: calls.append(problem))
    with pytest.raises(SygusError, match=match):
        run_suite(suite_dir, ids, LIMITS)
    assert calls == []


# ---------------------------------------------------------------------------
# rendering


def test_csv_report_shape(report):
    text = render_report(report, "csv").decode()
    lines = text.strip().split("\n")
    assert lines[0] == ("category,benchmark,solver_count,min_time_s,"
                        "max_time_s,fastest,min_size,max_size,smallest,"
                        "solved_by")
    assert len(lines) == 1 + 6
    assert any(",inf,inf," in line for line in lines[1:])  # u6: solved by none


def test_json_report_roundtrips(report):
    data = render_report(report, "json")
    assert report_from_json(data) == report


def test_markdown_report_renders_categories(report):
    text = render_report(report, "md").decode()
    assert "## intlike" in text and "## other" in text
    assert "| stubB | 4 | 2 |" in text


def test_render_is_deterministic(report):
    for fmt in ("csv", "json", "md"):
        assert render_report(report, fmt) == render_report(report, fmt)


def test_classify_suite_lists_each_benchmark(suite_dir):
    rows = classify_suite(suite_dir)
    assert len(rows) == 6
    assert all(fs.unknown_count == 1 for _, _, fs in rows)
