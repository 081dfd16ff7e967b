"""Smoke tests for the scripts the README documents: each runs on max2 with
a budget of a few seconds and writes only under a temporary directory."""

import json
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from syguskit.harness import report_from_json

ROOT = Path(__file__).parent.parent
MAX2 = ROOT / "benchmarks" / "integers" / "max2.sl"


def run_script(name, *args, cwd, returncode=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                       cwd=cwd, env=env, capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == returncode, r.stderr
    return r.stdout if returncode == 0 else r.stderr


def test_run_suite_demo_writes_every_report(tmp_path):
    suite = tmp_path / "suite" / "integers"
    suite.mkdir(parents=True)
    shutil.copy(MAX2, suite)
    out = tmp_path / "out"
    stdout = run_script("run_suite_demo.py", "--suite", str(suite.parent),
                        "--timeout", "3", "--parallel", "1",
                        "--out", str(out), cwd=tmp_path)
    assert sorted(p.name for p in out.iterdir()) == [
        "suite.csv", "suite.json", "suite.md"]
    report = report_from_json((out / "suite.json").read_bytes())
    assert [(b.category, Path(b.benchmark).name)
            for b in report.benchmarks] == [("integers", "max2.sl")]
    for sid in ("enum", "stoch"):
        assert re.search(rf"^{sid}: solved [01], uniquely solved [01]$",
                         stdout, re.M)


@pytest.mark.parametrize("args", [("--timeout", "inf"),
                                  ("--timeout", "0"),
                                  ("--parallel", "0")])
def test_run_suite_demo_rejects_an_out_of_range_option(tmp_path, args):
    stderr = run_script("run_suite_demo.py", "--suite", str(tmp_path),
                        "--out", str(tmp_path / "out"), *args,
                        cwd=tmp_path, returncode=2)
    assert "invalid positive" in stderr and "Traceback" not in stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, message", [
    (("--suite", "missing"), "no .sl files under missing"),
    (("--solvers", "enum,bogus"), "unknown solver id: bogus"),
    (("--timeout", "1e10"),
     f"wallclock_s + grace_s must be at most {threading.TIMEOUT_MAX:.0f}, "
     "got 1e+10")])
def test_run_suite_demo_reports_a_bad_input_as_an_error(tmp_path, args,
                                                        message):
    (tmp_path / "suite").mkdir()
    shutil.copy(MAX2, tmp_path / "suite")
    stderr = run_script("run_suite_demo.py", "--suite", "suite", *args,
                        "--out", str(tmp_path / "out"), cwd=tmp_path,
                        returncode=2)
    assert stderr == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["suite"]


def test_seed_study_reports_each_seed(tmp_path):
    stdout = run_script("seed_study.py", str(MAX2), "--seeds", "2",
                        "--budget", "3", cwd=tmp_path)
    assert re.search(r"^seed   0: ", stdout, re.M)
    assert re.search(r"^seed   1: ", stdout, re.M)
    assert re.search(r"^[012]/2 seeds solved$", stdout, re.M)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [("--beta", "0"), ("--seeds", "-1"),
                                  ("--seeds", "0"), ("--budget", "0"),
                                  ("--budget", "inf")])
def test_seed_study_rejects_an_out_of_range_option(tmp_path, args):
    stderr = run_script("seed_study.py", str(MAX2), *args, cwd=tmp_path,
                        returncode=2)
    assert "invalid positive" in stderr and "Traceback" not in stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name, message", [
    ("missing.sl", "No such file"),
    ("unbalanced.sl", "unmatched"),
    ("s8.sl", "single unknown")])
def test_seed_study_reports_a_bad_input_as_an_error(tmp_path, name, message):
    (tmp_path / "unbalanced.sl").write_text("(set-logic LIA)\n(synth-fun f")
    shutil.copy(ROOT / "benchmarks" / "integers" / "s8.sl", tmp_path)
    stderr = run_script("seed_study.py", str(tmp_path / name), cwd=tmp_path,
                        returncode=2)
    assert stderr.startswith("error: ") and message in stderr
    assert "Traceback" not in stderr


def test_identity_prints_the_same_digest_on_each_run(tmp_path):
    first = run_script("identity.py", "max2", cwd=tmp_path)
    assert run_script("identity.py", "max2", cwd=tmp_path) == first
    digest = json.loads(first)
    assert sorted(digest) == ["check", "enum", "problem", "stoch"]
    assert digest["problem"] == "max2"
    for solver in ("enum", "stoch"):
        calls = digest[solver]["calls"]
        assert calls[-1][1] == "Valid(certified=False)"
        assert all(v.startswith("CounterExample(") for _, v in calls[:-1])
        assert digest[solver]["outcome"].startswith("(define-fun max2 ")
    assert sorted(digest["check"]) == ["max2", "max2-wrong"]
    assert list(tmp_path.iterdir()) == []


def test_identity_imports_syguskit_from_its_own_checkout(tmp_path):
    # an exported copy runs without PYTHONPATH, and a copy whose src/ holds
    # no syguskit refuses the one found elsewhere rather than digest it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / "identity.py"),
                        "max2"], cwd=tmp_path, env=env, capture_output=True,
                       text=True, timeout=120)
    assert r.returncode == 0 and json.loads(r.stdout)["problem"] == "max2"
    for part in ("scripts/identity.py", "perfbench/workloads.py"):
        (tmp_path / part).parent.mkdir(exist_ok=True)
        shutil.copy(ROOT / part, tmp_path / part)
    env["PYTHONPATH"] = str(ROOT / "src")
    r = subprocess.run([sys.executable, str(tmp_path / "scripts" /
                                            "identity.py"), "max2"],
                       cwd=tmp_path, env=env, capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 2 and r.stdout == ""
    assert f"syguskit imported from {(ROOT / 'src').resolve()}" in r.stderr


@pytest.mark.parametrize("name, args, out", [
    ("seed_study.py", (str(MAX2), "--seeds", "1", "--budget", "3"),
     "seeds solved"),
    ("run_suite_demo.py", ("--help",), "usage: run_suite_demo.py")])
def test_script_imports_syguskit_from_its_own_checkout(tmp_path, name, args,
                                                       out):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                       cwd=tmp_path, env=env, capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 0 and out in r.stdout, r.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [("max3",), ("max2", "--seed", "1")])
def test_identity_rejects_a_bad_argument(tmp_path, args):
    stderr = run_script("identity.py", *args, cwd=tmp_path, returncode=2)
    assert "usage: " in stderr and "Traceback" not in stderr
