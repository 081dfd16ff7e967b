"""perfbench's tracer wraps syguskit's functions by module attribute name, so
a rename under src/ breaks `perfbench/run.py --trace 1` before it runs a
pass, and a call that bypasses a wrapped name goes uncounted. This installs
the tracer on a fresh import, checks the bank-size counter against a Bank
built under it, the point counter against a grid check and against the
examples a scorer decides point by point, and the verifier and
counterexample counts against an enum and a stochastic solve of max2, and
takes the tracer off again. It also checks that every import under src/
kept only for the tracer names an attribute the tracer wraps."""

import subprocess
import sys
from pathlib import Path

from test_scorer import GUARDED_ARG

PKG = Path(__file__).parent.parent

SCRIPT = """
import sys
sys.path[:0] = ["perfbench", "src"]
import run, tracing
sk = run.import_syguskit()
names = [(sk.enumerative, "falsified"), (sk.enumerative, "induced_bindings"),
         (sk.stochastic, "count_wrong"), (sk.cegis, "falsified"),
         (sk.checker, "_violated_index"), (sk.checker, "falsified"),
         (sk.checker, "evaluate"), (sk.cegis, "evaluate"),
         (sk.enumerative, "evaluate")]
before = [getattr(m, a) for m, a in names]
tracer = tracing.Tracer()
tracing.install(tracer, sk)
assert all(getattr(m, a) is not f for (m, a), f in zip(names, before))
# bank_terms counts the terms a Bank keeps, over incremental builds
g = sk.frontend.load_problem("tests/data/max2.sl").unknowns["max2"].grammar
bank = sk.enumerative.Bank(g, [{"x": 1, "y": 2}, {"x": -3, "y": 0}], [0, 1],
                           True)
bank.build_to(3)
bank.build_to(5)
kept = sum(len(k) for by_size in bank.terms.values() for k in by_size.values())
assert kept > 0 and tracer.totals()[1]["enumerative.bank_terms"] == kept
# checker.points counts _violated_index calls, one per point, and a grid
# check evaluates its 17 * 17 points column-wise, with no per-point call
def points():
    return sum(row[0] for (name, _), row in tracer.totals()[0].items()
               if name == "checker._violated_index")
p = sk.frontend.load_problem("tests/data/max2.sl")
s = sk.frontend.parse_solution(
    "(define-fun max2 ((x Int) (y Int)) Int (ite (>= x y) x y))", p)
v = sk.checker.check_semantic(p, s, sk.checker.ExhaustiveSmall())
assert type(v).__name__ == "Valid" and points() == 0, (v, points())
# the solvers' verifier calls, seen inside their solves: 5 for enum and 6
# for the stochastic solver, 4 + 5 of them ending in a new counterexample
enum = sk.harness.SOLVERS["enum"](p, 30)
stoch = sk.stochastic.solve_stochastic(
    p, sk.stochastic.StochConfig(seed=1, budget_s=30))
assert type(enum).__name__ == type(stoch).__name__ == "Solved"
agg, counters = tracer.totals()
verified = sum(row[0] for (name, ctx), row in agg.items()
               if name == "checker.check_semantic" and ctx in tracing.SOLVES)
assert verified == 11, verified
assert counters.get("cegis.counterexamples") == 9, counters
# the scorer decides an example its skeletons cannot (an invocation without
# a binding, here at y = 0, where f's first argument raises) point by
# point: one _violated_index call each
g = sk.frontend.read_problem(sys.argv[1])
E = sk.cegis.ExampleSet([{"x": -1, "y": 0}, {"x": 3, "y": 0},
                         {"x": 6, "y": 2}, {"x": 2, "y": 0}])
scorer = sk.cegis.Scorer(g, E)
undecided = sum(row is None for _, row in scorer.rows)
body = sk.frontend.parse_solution(
    "(define-fun f ((a Int) (b Int)) Int (ite (<= b 0) 0 a))", g)
seen = points()
assert list(scorer.wrong({"f": body.funcs["f"].body})) == [1, 3]
assert undecided == 3 and points() - seen == undecided, (seen, points())
tracer.uninstall()
assert all(getattr(m, a) is f for (m, a), f in zip(names, before))
print("ok")
"""


def test_tracer_installs_and_uninstalls():
    r = subprocess.run([sys.executable, "-c", SCRIPT, GUARDED_ARG], cwd=PKG,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "ok"


NOQA = "  # noqa: F401 (perfbench/tracing.py wraps it)"

WRAPPED = """
import importlib
import sys
sys.path[:0] = ["perfbench", "src"]
import run, tracing
sk = run.import_syguskit()
kept = [arg.split(".") for arg in sys.argv[1:]]
mods = [importlib.import_module("syguskit." + m) for m, _ in kept]
before = [getattr(mod, a) for mod, (_, a) in zip(mods, kept)]
tracing.install(tracing.Tracer(), sk)
print(*(".".join(k) for k, mod, f in zip(kept, mods, before)
        if getattr(mod, k[1]) is f))
"""


def test_every_import_kept_for_the_tracer_is_wrapped():
    kept = [f"{path.stem}.{line.split()[3]}"
            for path in sorted((PKG / "src" / "syguskit").glob("*.py"))
            for line in path.read_text().splitlines() if line.endswith(NOQA)]
    assert kept, "no import carries the marker"
    r = subprocess.run([sys.executable, "-c", WRAPPED, *kept], cwd=PKG,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    # an import named here is no longer wrapped, so it can go
    assert r.stdout.split() == []
