"""Smoke tests for the scripts the README documents: each runs on max2 with
a budget of a few seconds and writes only under a temporary directory."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from syguskit.harness import report_from_json

ROOT = Path(__file__).parent.parent
MAX2 = ROOT / "benchmarks" / "integers" / "max2.sl"


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                       cwd=cwd, env=env, capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 0, r.stderr
    return r.stdout


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


def test_seed_study_reports_each_seed(tmp_path):
    stdout = run_script("seed_study.py", str(MAX2), "--seeds", "2",
                        "--budget", "3", cwd=tmp_path)
    assert re.search(r"^seed   0: ", stdout, re.M)
    assert re.search(r"^seed   1: ", stdout, re.M)
    assert re.search(r"^[012]/2 seeds solved$", stdout, re.M)
    assert list(tmp_path.iterdir()) == []
