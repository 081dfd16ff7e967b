import sys
from pathlib import Path

import pytest

from syguskit.terms import INT, FunDef, Lit

DATA = Path(__file__).parent / "data"
BENCHMARKS = Path(__file__).parent.parent / "benchmarks"

_acceptance_results: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        _acceptance_results[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance_results):
        outcome = _acceptance_results[name]
        mark = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"{mark}  {name}")


def data_text(name: str) -> str:
    return (DATA / name).read_text()


def load(name: str):
    from syguskit.frontend import read_problem
    return read_problem(data_text(name))


def term(text: str, variables=None, funs=None, expected=None):
    """Parse one term from concrete syntax for test setup."""
    from syguskit.frontend import parse_term
    from syguskit.sexpr import read_sexprs
    (sx,) = read_sexprs(text)
    t, _ = parse_term(sx, variables or {}, funs or {}, expected)
    return t


def deep_problem(depth: int) -> str:
    """A one-unknown LIA problem whose S-expressions nest `depth` levels."""
    body = "x"
    for _ in range(depth - 2):  # (constraint (>= ...)) holds two levels
        body = f"(+ {body} 0)"
    return ("(set-logic LIA)\n(synth-fun f ((x Int)) Int)\n"
            "(declare-var x Int)\n"
            f"(constraint (>= (f x) {body}))\n(check-synth)\n")


def let_grammar():
    """S over x and 1 with +, a one-binding and a two-binding let; the second
    let's body holds a nonterminal, so its bindings' sizes vary with the
    body's."""
    from syguskit.grammar import make_grammar
    from syguskit.terms import INT, TNT, Apply, Let, Lit, Var
    s = TNT("S")
    one = Let((("z", s),), Apply("+", (Var("z"), Var("z"))))
    two = Let((("a", s), ("b", s)),
              Apply("-", (Var("a"), Apply("+", (Var("b"), s)))))
    return make_grammar("S", [("S", INT, [Var("x"), Lit(1),
                                          Apply("+", (s, s)), one, two])],
                        {"x": INT})


SEVEN = FunDef("seven", (), INT, Lit(7))


def div_grammar():
    """S over x and (seven) with +, div and mod by a nonterminal of the
    literals 0 and 2, and ite over B, whose comparisons are joined by
    and/or/=>."""
    from syguskit.grammar import make_grammar
    from syguskit.terms import BOOL, TNT, Apply, FunSort, Var
    s, d, b = TNT("S"), TNT("D"), TNT("B")
    return make_grammar("S", [
        ("S", INT, [Var("x"), Apply("seven", ()), Apply("+", (s, s)),
                    Apply("div", (s, d)), Apply("mod", (s, d)),
                    Apply("ite", (b, s, s))]),
        ("D", INT, [Lit(0), Lit(2)]),
        ("B", BOOL, [Apply("<", (s, s)), Apply("and", (b, b)),
                     Apply("or", (b, b)), Apply("=>", (b, b))])], {"x": INT},
        {"seven": FunSort((), INT)})


@pytest.fixture(scope="session")
def max2():
    return load("max2.sl")


@pytest.fixture(scope="session")
def lsz32():
    return load("lsz_bv32.sl")


@pytest.fixture(scope="session")
def lsz8():
    return load("lsz_w8.sl")


@pytest.fixture(scope="session")
def lsz8_fixed():
    return load("lsz_w8_fixed.sl")


@pytest.fixture(scope="session")
def inv_loop():
    return load("inv_loop.sl")


@pytest.fixture(scope="session")
def inv_loop_fixed():
    return load("inv_loop_fixed.sl")


@pytest.fixture(scope="session")
def qm_loop():
    return load("qm_loop_1.sl")


@pytest.fixture(scope="session")
def hd17_w8():
    return load("hd17_w8.sl")


def fake_solver_script(tmp_path, stdout: str, name="fakesmt.py") -> str:
    """A stand-in SMT solver command printing a canned response."""
    path = tmp_path / name
    path.write_text(
        "import sys\n"
        "sys.stdin.read()\n"
        f"sys.stdout.write({stdout!r})\n")
    return f"{sys.executable} {path}"
