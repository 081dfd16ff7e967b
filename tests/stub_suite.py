"""A synthetic 6-benchmark, 2-solver suite with scripted outcomes and
hand-computed aggregates, shared by the harness tests and the acceptance
suite.

Every benchmark asks for the identity function over one Int variable; the
scripts control what each stub solver pretends to do, including a
grammar-violating answer (b5/stubA) and a semantically wrong one (b6/stubA).
"""

from pathlib import Path

from syguskit.cegis import Exhausted, Solved, TimedOut
from syguskit.frontend import parse_solution
from syguskit.harness import register_solver

_PROBLEM = """(set-logic LIA)
(synth-fun {name} ((x Int)) Int)
(declare-var x Int)
(constraint (= ({name} x) x))
(check-synth)
"""

# per benchmark: category, then per solver either
#   ("solved", body, elapsed_s) | ("exhausted",) | ("timeout",)
SCRIPT = {
    "u1": ("intlike", {"stubA": ("solved", "x", 0.4),
                       "stubB": ("solved", "(+ x 0)", 0.9)}),
    "u2": ("intlike", {"stubA": ("solved", "x", 2.0),
                       "stubB": ("solved", "x", 0.5)}),
    "u3": ("intlike", {"stubA": ("exhausted",),
                       "stubB": ("solved", "(+ x 0)", 1500.0)}),
    "u4": ("other", {"stubA": ("solved", "x", 0.1),
                     "stubB": ("timeout",)}),
    "u5": ("other", {"stubA": ("solved", "(* x x)", 0.2),  # not in grammar
                     "stubB": ("solved", "x", 3600.0)}),
    "u6": ("other", {"stubA": ("solved", "0", 0.3),  # wrong semantics
                     "stubB": ("exhausted",)}),
}

# hand-computed expectations -------------------------------------------------

EXPECTED_TOTALS = {"stubA": (3, 1), "stubB": (4, 2)}  # (solved, uniquely)
EXPECTED_CATEGORY_TOTALS = {
    "intlike": {"stubA": (2, 0), "stubB": (3, 1)},
    "other": {"stubA": (1, 1), "stubB": (1, 1)},
}
# per benchmark: solver_count, min/max time, min/max size, fastest, smallest
EXPECTED_BENCH = {
    "u1": (2, 0.4, 0.9, 1, 3, ("stubA", "stubB"), ("stubA",)),
    "u2": (2, 0.5, 2.0, 1, 1, ("stubB",), ("stubA", "stubB")),
    "u3": (1, 1500.0, 1500.0, 3, 3, ("stubB",), ("stubB",)),
    "u4": (1, 0.1, 0.1, 1, 1, ("stubA",), ("stubA",)),
    "u5": (1, 3600.0, 3600.0, 1, 1, ("stubB",), ("stubB",)),
    "u6": (0, None, None, None, None, (), ()),
}


def write_suite(root: Path) -> Path:
    for name, (category, _) in SCRIPT.items():
        d = root / category
        d.mkdir(parents=True, exist_ok=True)
        (d / f"{name}.sl").write_text(_PROBLEM.format(name=name))
    return root


def _stub(solver_key: str):
    def run(problem, budget_s):
        name = next(iter(problem.unknowns))
        action = SCRIPT[name][1][solver_key]
        if action[0] == "solved":
            _, body, elapsed = action
            sol = parse_solution(
                f"(define-fun {name} ((x Int)) Int {body})", problem)
            return Solved(sol, elapsed)
        if action[0] == "exhausted":
            return Exhausted(5)
        return TimedOut(budget_s)
    return run


def register_stubs():
    register_solver("stubA", _stub("stubA"))
    register_solver("stubB", _stub("stubB"))
