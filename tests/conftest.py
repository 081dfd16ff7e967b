import sys
from pathlib import Path

import pytest

from syguskit.cegis import signature
from syguskit.terms import INT, FunDef, Lit, raw_value

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


# lsz_w8_fixed.sl with y declared 4294967295 bits wide, past
# frontend.MAX_BV_WIDTH: fitting the 0 of (bvult 0 y) to that width would
# build an int of half a gigabyte
WIDE_LSZ = data_text("lsz_w8_fixed.sl").replace(
    "(declare-var y (BitVec 8))", "(declare-var y (BitVec 4294967295))")


def deep_problem(depth: int) -> str:
    """A one-unknown LIA problem whose S-expressions nest `depth` levels."""
    body = "x"
    for _ in range(depth - 2):  # (constraint (>= ...)) holds two levels
        body = f"(+ {body} 0)"
    return ("(set-logic LIA)\n(synth-fun f ((x Int)) Int)\n"
            "(declare-var x Int)\n"
            f"(constraint (>= (f x) {body}))\n(check-synth)\n")


def let_chain(levels: int) -> str:
    """A one-unknown LIA problem whose constraint nests `levels` lets, each
    binding the sum of the name before with itself, so desugaring it doubles
    the term at each level: about 2 ** (levels + 1) nodes."""
    body = "(= (f x) x{})".format(levels)
    for k in range(levels, 0, -1):
        prev = f"x{k - 1}" if k > 1 else "x"
        body = f"(let ((x{k} (+ {prev} {prev}))) {body})"
    return ("(set-logic LIA)\n(synth-fun f ((x Int)) Int)\n"
            f"(declare-var x Int)\n(constraint {body})\n(check-synth)\n")


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


def two_width_grammar():
    """W over an 8-bit x and N over a 4-bit y, with a 4-bit constant hole,
    joined only through B's comparisons: an operator applied at the other
    nonterminal's width gets a wrong value."""
    from syguskit.grammar import make_grammar
    from syguskit.terms import BOOL, BV, TNT, Apply, THole, Var, bitvec
    w, n, b = TNT("W"), TNT("N"), TNT("B")
    return make_grammar("W", [
        ("W", bitvec(8), [Var("x"), Lit(BV(8, 1)), Apply("bvadd", (w, w)),
                          Apply("bvnot", (w,)), Apply("ite", (b, w, w))]),
        ("N", bitvec(4), [Var("y"), THole(bitvec(4)), Apply("bvadd", (n, n)),
                          Apply("bvnot", (n,)), Apply("bvlshr", (n, n))]),
        ("B", BOOL, [Apply("bvult", (w, w)), Apply("bvslt", (n, n)),
                     Apply("=", (n, n))])],
        {"x": bitvec(8), "y": bitvec(4)})


def raw_signature(t, bindings, defs):
    """cegis.signature in the raw values of bank signatures: a bit-vector
    as its masked int."""
    return tuple(raw_value(v) for v in signature(t, bindings, defs))


def typed(sig):
    """A signature with each value's type, so True and 1 differ."""
    return tuple((type(v), v) for v in sig)


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


# A grammar problem with no set-logic: its logic is ALL, which no SMT-LIB
# logic that emit_smtlib knows states. enum solves it with (+ x 1).
NO_LOGIC = """(synth-fun f ((x Int)) Int ((S Int (x 1 (+ S S)))))
(declare-var x Int)
(constraint (= (f x) (+ x 1)))
(check-synth)
"""


def fake_solver_script(tmp_path, stdout: str, name="fakesmt.py") -> str:
    """A stand-in SMT solver command printing a canned response."""
    path = tmp_path / name
    path.write_text(
        "import sys\n"
        "sys.stdin.read()\n"
        f"sys.stdout.write({stdout!r})\n")
    return f"{sys.executable} {path}"
