import functools
import itertools
import operator
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import let_grammar, load, term
from syguskit.grammar import Enumerator, make_grammar
from syguskit.terms import (BOOL, BV, ERR, INT, OPS, TNT, Apply,
                            DivisionByZero, FunDef, FunSort, Let, Lit,
                            Pointwise, SortError, THole, UndeclaredSymbol, Var,
                            bitvec, compile_term, evaluate, expand, free_vars,
                            infer_sort, op_value, raw_value, subterms,
                            substitute, term_size, value_sort)

BV32 = bitvec(32)


# ---------------------------------------------------------------------------
# sort inference


def test_bvand_infers_width():
    t = term("(bvand x #x00000001)", {"x": BV32})
    assert infer_sort(t, {"x": BV32}) == BV32


def test_bool_ops():
    t = term("(and true false)")
    assert infer_sort(t, {}) == BOOL


def test_width_mismatch_is_sort_error():
    t = Apply("bvand", (Var("x"), Lit(BV(1, 1))))
    with pytest.raises(SortError):
        infer_sort(t, {"x": BV32})


def test_ite_branch_mismatch():
    t = Apply("ite", (Lit(True), Lit(1), Lit(False)))
    with pytest.raises(SortError):
        infer_sort(t, {})


def test_undeclared_symbol():
    with pytest.raises(UndeclaredSymbol):
        infer_sort(Var("nope"), {})


def test_function_application_sorts():
    ctx = {"f": FunSort((INT, INT), BOOL)}
    assert infer_sort(Apply("f", (Lit(1), Lit(2))), ctx) == BOOL
    with pytest.raises(SortError):
        infer_sort(Apply("f", (Lit(1), Lit(True))), ctx)


# ---------------------------------------------------------------------------
# evaluation


QM = FunDef("qm", (("a", INT), ("b", INT)), INT, term("(ite (< a 0) b a)", {"a": INT, "b": INT}))


def test_qm_on_negative_first_argument():
    t = Apply("qm", (Lit(-1), Lit(5)))
    assert evaluate(t, {}, {"qm": QM}) == 5


def test_lsz_mask_at_seven():
    f = term("(bvand (bvnot x) (bvadd x #x01))", {"x": bitvec(8)})
    assert evaluate(f, {"x": BV(8, 7)}) == BV(8, 8)


def test_euclidean_div_mod():
    assert evaluate(term("(div 7 2)"), {}) == 3
    assert evaluate(term("(mod (- 7) 2)"), {}) == 1
    assert evaluate(term("(div 7 (- 2))"), {}) == -3
    assert evaluate(term("(mod (- 7) (- 2))"), {}) == 1


def test_division_by_zero_raises():
    with pytest.raises(DivisionByZero):
        evaluate(term("(div 1 0)"), {})
    with pytest.raises(DivisionByZero):
        evaluate(term("(mod 1 0)"), {})


def test_ite_is_lazy_in_untaken_branch():
    t = term("(ite (> y 0) (div x y) 0)", {"x": INT, "y": INT})
    assert evaluate(t, {"x": 5, "y": 0}) == 0


@given(st.integers(-50, 50), st.integers(-50, 50).filter(lambda d: d != 0))
def test_euclidean_division_law(x, d):
    q = evaluate(Apply("div", (Lit(x), Lit(d))), {})
    r = evaluate(Apply("mod", (Lit(x), Lit(d))), {})
    assert x == d * q + r
    assert 0 <= r < abs(d)


BOOL_TABLE = {
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
    "=>": lambda a, b: (not a) or b,
    "xor": lambda a, b: a != b,
    "xnor": lambda a, b: a == b,
    "nand": lambda a, b: not (a and b),
    "nor": lambda a, b: not (a or b),
    "iff": lambda a, b: a == b,
    "=": lambda a, b: a == b,
}


def test_boolean_operators_match_truth_tables():
    for op, fn in BOOL_TABLE.items():
        for a, b in itertools.product([False, True], repeat=2):
            got = evaluate(Apply(op, (Lit(a), Lit(b))), {})
            assert got == fn(a, b), (op, a, b)
    for a in (False, True):
        assert evaluate(Apply("not", (Lit(a),)), {}) == (not a)


def test_implies_right_associative():
    # (=> a b c) is a => (b => c): false iff a and b and not c
    for a, b, c in itertools.product([False, True], repeat=3):
        got = evaluate(Apply("=>", (Lit(a), Lit(b), Lit(c))), {})
        assert got == ((not a) or (not b) or c)


def test_bv_division_by_zero_conventions():
    w8 = {"x": bitvec(8)}
    assert evaluate(term("(bvudiv x #x00)", w8), {"x": BV(8, 7)}) == BV(8, 0xFF)
    assert evaluate(term("(bvurem x #x00)", w8), {"x": BV(8, 7)}) == BV(8, 7)
    assert evaluate(term("(bvsdiv x #x00)", w8), {"x": BV(8, 7)}) == BV(8, 0xFF)
    assert evaluate(term("(bvsdiv x #x00)", w8), {"x": BV(8, 0x87)}) == BV(8, 1)
    assert evaluate(term("(bvsrem x #x00)", w8), {"x": BV(8, 0x87)}) == BV(8, 0x87)


def test_bv_shifts_saturate_at_width():
    w8 = {"x": bitvec(8), "y": bitvec(8)}
    env = {"x": BV(8, 0x81), "y": BV(8, 9)}
    assert evaluate(term("(bvshl x y)", w8), env) == BV(8, 0)
    assert evaluate(term("(bvlshr x y)", w8), env) == BV(8, 0)
    assert evaluate(term("(bvshr x y)", w8), env) == BV(8, 0)
    assert evaluate(term("(bvashr x y)", w8), env) == BV(8, 0xFF)
    assert evaluate(term("(bvashr x y)", w8), {"x": BV(8, 0x41), "y": BV(8, 9)}) == BV(8, 0)


def test_bvashr_sign_fill():
    w8 = {"x": bitvec(8)}
    assert evaluate(term("(bvashr x #x01)", w8), {"x": BV(8, 0x80)}) == BV(8, 0xC0)


def test_signed_comparisons():
    w8 = {"x": bitvec(8), "y": bitvec(8)}
    env = {"x": BV(8, 0xFF), "y": BV(8, 1)}  # -1 vs 1 signed
    assert evaluate(term("(bvslt x y)", w8), env) is True
    assert evaluate(term("(bvult x y)", w8), env) is False


bv_ops2 = st.sampled_from(["bvand", "bvor", "bvxor", "bvadd", "bvsub", "bvmul",
                           "bvudiv", "bvurem", "bvsdiv", "bvsrem", "bvshl",
                           "bvlshr", "bvashr"])


@given(bv_ops2, st.integers(1, 64), st.integers(0, 2**64), st.integers(0, 2**64))
def test_bv_results_stay_in_range(op, w, a, b):
    out = evaluate(Apply(op, (Lit(BV(w, a)), Lit(BV(w, b)))), {})
    assert 0 <= out.value < (1 << w)
    assert out.width == w


def b8(v: int) -> BV:
    return BV(8, v)


def rows(operands, *values):
    return list(zip(operands, values))


F, T = False, True
BOOLS = [(F, F), (F, T), (T, F), (T, T)]
INTS = [(1, 2), (2, 2), (3, 2)]
# unsigned and signed order disagree on the first and third pair only
BVS = [(b8(0x7f), b8(0x80)), (b8(0x80), b8(0x80)), (b8(0x80), b8(0x7f)),
       (b8(0x01), b8(0x02))]

# operands -> value for every entry of OPS; bit-vector rows at width 8, at
# the signed edge 0x7f/0x80 (or -1 = 0xff) wherever the sign matters
OP_ROWS = {
    "+": [((1, 2, 3), 6), ((-4,), -4)],
    "-": [((5,), -5), ((5, 7, 1), -3)],
    "*": [((-3, 4), -12), ((2, 3, 4), 24)],
    "div": [((-7, 2), -4), ((7, -2), -3)],
    "mod": [((-7, 2), 1), ((-7, -2), 1)],
    "<": rows(INTS, T, F, F),
    "<=": rows(INTS, T, T, F),
    ">": rows(INTS, F, F, T),
    ">=": rows(INTS, F, T, T),
    "and": rows(BOOLS, F, F, F, T) + [((T, T, F), F)],
    "or": rows(BOOLS, F, T, T, T) + [((F, F, T), T)],
    "=>": rows(BOOLS, T, T, F, T) + [((T, T, F), F), ((T, F, F), T)],
    "not": [((T,), F), ((F,), T)],
    "xor": rows(BOOLS, F, T, T, F),
    "xnor": rows(BOOLS, T, F, F, T),
    "iff": rows(BOOLS, T, F, F, T),
    "nand": rows(BOOLS, T, T, T, F),
    "nor": rows(BOOLS, T, F, F, F),
    "=": [((3, 3), True), ((b8(0x7f), b8(0x80)), False)],
    "ite": [((True, 1, 2), 1), ((False, b8(1), b8(2)), b8(2))],
    "bvnot": [((b8(0x0f),), b8(0xf0))],
    "bvneg": [((b8(0x80),), b8(0x80)), ((b8(0x01),), b8(0xff))],
    "bvand": [((b8(0xcc), b8(0xaa)), b8(0x88))],
    "bvor": [((b8(0xcc), b8(0xaa)), b8(0xee))],
    "bvxor": [((b8(0xcc), b8(0xaa)), b8(0x66))],
    "bvadd": [((b8(0xff), b8(0x02)), b8(0x01)), ((b8(0x7f), b8(0x01)), b8(0x80))],
    "bvsub": [((b8(0x00), b8(0x01)), b8(0xff)), ((b8(0x80), b8(0x01)), b8(0x7f))],
    "bvmul": [((b8(0x10), b8(0x11)), b8(0x10))],
    "bvudiv": [((b8(0xff), b8(0x02)), b8(0x7f)), ((b8(0x07), b8(0x00)), b8(0xff))],
    "bvurem": [((b8(0xff), b8(0x10)), b8(0x0f)), ((b8(0x07), b8(0x00)), b8(0x07))],
    "bvsdiv": [((b8(0xf9), b8(0x02)), b8(0xfd)), ((b8(0x80), b8(0xff)), b8(0x80)),
               ((b8(0xf9), b8(0x00)), b8(0x01)), ((b8(0x07), b8(0x00)), b8(0xff))],
    "bvsrem": [((b8(0xf9), b8(0x02)), b8(0xff)), ((b8(0x07), b8(0xfe)), b8(0x01)),
               ((b8(0xf9), b8(0x00)), b8(0xf9))],
    "bvshl": [((b8(0x81), b8(0x01)), b8(0x02)), ((b8(0x01), b8(0x08)), b8(0x00))],
    "bvlshr": [((b8(0x80), b8(0x07)), b8(0x01)), ((b8(0xff), b8(0x08)), b8(0x00))],
    "bvshr": [((b8(0x80), b8(0x01)), b8(0x40)), ((b8(0xff), b8(0x09)), b8(0x00))],
    "bvashr": [((b8(0x80), b8(0x01)), b8(0xc0)), ((b8(0x80), b8(0x09)), b8(0xff)),
               ((b8(0x40), b8(0x08)), b8(0x00))],
    "bvult": rows(BVS, T, F, F, T),
    "bvule": rows(BVS, T, T, F, T),
    "bvugt": rows(BVS, F, F, T, F),
    "bvuge": rows(BVS, F, T, T, F),
    "bvslt": rows(BVS, F, F, T, T),
    "bvsle": rows(BVS, F, T, T, T),
    "bvsgt": rows(BVS, T, F, F, F),
    "bvsge": rows(BVS, T, T, F, F),
}


@pytest.mark.parametrize("op", sorted(OPS))
def test_operator_table_entry(op):
    spec = OPS[op]
    for xs, want in OP_ROWS[op]:
        t = Apply(op, tuple(Lit(x) for x in xs))
        assert infer_sort(t, {}) == value_sort(want), (op, xs)
        got = evaluate(t, {})
        assert got == want and type(got) is type(want), (op, xs, got)
        got = compile_term(t, [])(())
        raw = raw_value(want)
        assert got == raw and type(got) is type(raw), (op, xs, got)
    xs = OP_ROWS[op][0][0]
    outside = [xs[:spec.lo - 1]]
    if spec.hi is not None:
        outside.append(xs + (xs[-1],) * (spec.hi + 1 - len(xs)))
    for args in outside:
        with pytest.raises(SortError):
            infer_sort(Apply(op, tuple(Lit(x) for x in args)), {})


def edge_rows(w):
    """Raw operands -> value at width w for every operator whose value
    depends on the width, over all ones (m), the sign bit (s), s - 1 and
    the width itself as a shift: wrap-around, division by zero, shifts by at
    least w, and the sign bit in comparisons. At w = 1, m = s = 1 and
    s - 1 = 0."""
    m, s = (1 << w) - 1, 1 << (w - 1)
    return {
        "bvadd": [((m, 1), 0), ((s - 1, 1), s), ((m, m), m - 1)],
        "bvsub": [((0, 1), m), ((s, 1), s - 1), ((0, m), 1)],
        "bvmul": [((m, m), 1), ((m, s), s), ((s, 0), 0)],
        "bvneg": [((s,), s), ((1,), m), ((0,), 0)],
        "bvnot": [((0,), m), ((s,), s - 1), ((m,), 0)],
        "bvudiv": [((m, 0), m), ((0, 0), m), ((m, m), 1)],
        "bvurem": [((m, 0), m), ((s, 0), s), ((m, m), 0)],
        # a negative dividend over zero gives 1, a non-negative one all ones
        "bvsdiv": [((s, m), s), ((s, 0), 1), ((s - 1, 0), m)],
        "bvsrem": [((s, m), 0), ((s, 0), s), ((m, 0), m)],
        "bvshl": [((1, w), 0), ((m, w - 1), s), ((1, m), 0)],
        "bvlshr": [((m, w), 0), ((s, w - 1), 1), ((m, m), 0)],
        "bvshr": [((m, w), 0), ((s, w - 1), 1)],
        "bvashr": [((s, w), m), ((s, m), m), ((s - 1, w), 0),
                   ((s, w - 1), m)],
        "bvslt": [((s, s - 1), T), ((s - 1, s), F), ((m, 0), T)],
        "bvsle": [((s, s), T), ((0, m), F), ((m, m), T)],
        "bvsgt": [((0, m), T), ((s, s - 1), F), ((s - 1, s), T)],
        "bvsge": [((s - 1, s), T), ((m, 0), F), ((s, s), T)],
        # the unsigned comparisons ignore the sign bit
        "bvult": [((s, s - 1), F), ((s - 1, s), T)],
        "bvuge": [((m, s), T), ((0, m), F)],
    }


@pytest.mark.parametrize("w", [1, 32, 64])
@pytest.mark.parametrize("op", sorted(edge_rows(8)))
def test_operator_at_width_edges(op, w):
    """evaluate, compile_term and Pointwise.apply give each row's value and
    type: the three share one function per (op, width), so these rows pin
    it independently of that function."""
    for xs, want in edge_rows(w)[op]:
        assert all(0 <= x < 1 << w for x in xs), (op, w, xs)
        t = Apply(op, tuple(Lit(BV(w, x)) for x in xs))
        full = want if isinstance(want, bool) else BV(w, want)
        got = evaluate(t, {})
        assert got == full and type(got) is type(full), (op, w, xs, got)
        got = compile_term(t, [])(())
        assert got == want and type(got) is type(want), (op, w, xs, got)
        got = Pointwise((), {}).apply(op, [(x,) for x in xs], w)
        assert got == (want,) and type(got[0]) is type(want), (op, w, xs)


# ---------------------------------------------------------------------------
# the compiled evaluator against evaluate

W8 = bitvec(8)


def ops_grammar():
    """Every operator of OPS, at arities 1-3 within its bounds, over Int,
    Bool and (BitVec 8) nonterminals with variables and constant holes."""
    nts = {INT: TNT("I"), BOOL: TNT("B"), W8: TNT("V")}
    prods = {INT: [Var("x"), Var("y"), THole(INT)],
             BOOL: [Var("b"), Lit(True)],
             W8: [Var("u"), Var("v"), THole(W8)]}
    for op, spec in OPS.items():
        if spec.operand == "ite":
            for s, nt in nts.items():
                prods[s].append(Apply(op, (nts[BOOL], nt, nt)))
            continue
        operands = {"bv": [W8], "same": list(nts)}.get(spec.operand,
                                                       [spec.operand])
        for s in operands:
            for arity in range(spec.lo, min(spec.hi or 3, 3) + 1):
                prods[spec.result or s].append(Apply(op, (nts[s],) * arity))
    return make_grammar("I", [(nt.nt, s, prods[s]) for s, nt in nts.items()],
                        {"x": INT, "y": INT, "b": BOOL, "u": W8, "v": W8})


# (g a b) is true where a is below 1, and elsewhere reads b and a again in
# its later operand, on fewer rows than its arguments' columns have
G = FunDef("g", (("a", INT), ("b", INT)), BOOL,
           term("(or (< a 1) (= (mod b a) 1))", {"a": INT, "b": INT}))


def erring_grammar():
    """Int terms over x and y with div and mod by any term, so a zero
    divisor raises, and a let over any term; and T, g's applications, whose
    arguments' columns may hold ERR where g's later operand reads them."""
    s, b, t = TNT("S"), TNT("B"), TNT("T")
    return make_grammar("S", [
        ("S", INT, [Var("x"), Var("y"), Lit(0), Lit(1), Apply("div", (s, s)),
                    Apply("mod", (s, s)), Apply("ite", (b, s, s)),
                    Let((("z", s),), Apply("+", (Var("z"), s)))]),
        ("B", BOOL, [Apply("<", (s, s)), Apply("or", (b, b)),
                     Apply("=>", (b, b, b)), Apply("not", (b,)), t]),
        ("T", BOOL, [Apply("g", (Var("x"), s)), Apply("g", (s, s))])],
        {"x": INT, "y": INT}, {"g": G.fun_sort})


def problem_grammar(name, unknown):
    p = load(name)
    return p.unknowns[unknown].grammar, p.defined_funs


DIFF_CASES = {
    "max2": lambda: problem_grammar("max2.sl", "max2"),
    "s8": lambda: problem_grammar("s8.sl", "f2"),
    "hd17_w8": lambda: problem_grammar("hd17_w8.sl", "f"),
    "lsz_w8": lambda: problem_grammar("lsz_w8.sl", "f"),
    "qm_loop": lambda: problem_grammar("qm_loop_1.sl", "qm-loop"),
    "let": lambda: (let_grammar(), {}),
    "ops": lambda: (ops_grammar(), {}),
    "erring": lambda: (erring_grammar(), {"g": G}),
}
# Int zero divisors, the width-8 edges and shift amounts of at least 8
POOL = (-1, 0, 1, 2, *(BV(8, v) for v in (0, 1, 0x7f, 0x80, 0xff, 8, 9)))
INT_VALUES = st.sampled_from([-2, -1, 0, 1, 3]) | st.integers(-40, 40)
BV8_VALUES = (st.sampled_from([0, 1, 0x7f, 0x80, 0xff, 8, 9, 200])
              | st.integers(0, 255)).map(lambda v: BV(8, v))


@functools.cache
def diff_case(name):
    g, defs = DIFF_CASES[name]()
    return g, defs, Enumerator(g, POOL)


@pytest.mark.parametrize("name", list(DIFF_CASES))
@settings(max_examples=150, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32), size=st.integers(1, 11))
def test_compiled_term_matches_evaluate(name, data, seed, size):
    """compile_term, given a let-free term as the scorer gives it, and a
    one-row Pointwise column, given any term, agree with evaluate: its value
    as a raw value, and where it raises, a raise and ERR."""
    g, defs, enumr = diff_case(name)
    nt = data.draw(st.sampled_from(sorted(g.rules)))
    if enumr.count(nt, size) == 0:
        return
    t = enumr.sample(nt, size, random.Random(seed)).term
    params = list(g.var_sorts.items())
    point = {n: data.draw(BV8_VALUES if s == W8 else
                          st.booleans() if s == BOOL else INT_VALUES)
             for n, s in params}
    raw = tuple(raw_value(v) for v in point.values())
    f = (None if any(isinstance(s, Let) for s in subterms(t))
         else compile_term(t, params, defs))
    col = Pointwise((), defs).column(
        t, {n: ((x,), s) for (n, s), x in zip(params, raw)}, 1)[0]
    try:
        want = evaluate(t, point, defs)
    except DivisionByZero:
        if f is not None:
            with pytest.raises(DivisionByZero):
                f(raw)
        assert col == (ERR,), t
        return
    want = raw_value(want)
    got = [*col] if f is None else [f(raw), *col]
    assert all(x == want and type(x) is type(want) for x in got), t


class Recording(Pointwise):
    """Pointwise keeping every column its walks make."""

    def __init__(self, bindings, defs):
        super().__init__(bindings, defs)
        self.columns = []

    def column(self, t, env, n):
        col, sort = super().column(t, env, n)
        self.columns.append(col)
        return col, sort


def expected_column(t, rows, defs):
    out = []
    for row in rows:
        try:
            out.append(raw_value(evaluate(t, row, defs)))
        except DivisionByZero:
            out.append(ERR)
    return out


def assert_no_plain_err(cols, t):
    # a plain tuple column never holds ERR: only a marked one may
    for col in cols:
        assert type(col) is not tuple or all(x is not ERR for x in col), t


def assert_same_column(col, want, t):
    assert_no_plain_err([col], t)
    assert len(col) == len(want), t
    assert all(x is y if y is ERR else (x == y and type(x) is type(y))
               for x, y in zip(col, want)), (t, col, want)


def composed(pw, t):
    """t's column composed node by node from its arguments' (apply), as a
    bank composes signatures; a leaf's or a let's is walked."""
    if not isinstance(t, Apply):
        return pw(t)
    return pw.apply(t.op, [composed(pw, a) for a in t.args], pw.width(t))


@pytest.mark.parametrize("name", list(DIFF_CASES))
@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32), size=st.integers(1, 11))
def test_pointwise_columns_match_evaluate_row_by_row(name, data, seed, size):
    """Over 1-40 rows, with zero divisors among the Int values, the column
    of a term of each nonterminal, and of each of its subterms that reads no
    bound name, walked or composed, is evaluate's value row by row and ERR
    where it raises; no plain tuple column the walks make holds ERR."""
    g, defs, enumr = diff_case(name)
    values = {W8: BV8_VALUES, BOOL: st.booleans(), INT: INT_VALUES}
    row = st.fixed_dictionaries({n: values[s] for n, s in g.var_sorts.items()})
    rows = [data.draw(row) for _ in range(data.draw(st.integers(1, 40)))]
    pw, rng = Recording(rows, defs), random.Random(seed)
    for nt in sorted(g.rules):
        if enumr.count(nt, size) == 0:
            continue
        t = enumr.sample(nt, size, rng).term
        for sub in subterms(t):
            if free_vars(sub) <= set(g.var_sorts):
                want = expected_column(sub, rows, defs)
                assert_same_column(pw(sub), want, sub)
                assert_same_column(composed(pw, sub), want, sub)
    assert_no_plain_err(pw.columns, name)


@pytest.mark.parametrize("text, gathers", [
    # a later operand reads a let's definition, then g's arguments, on the
    # rows the earlier ones leave open
    ("(let ((z (div x y))) (and (< x 1) (= (mod z 2) 0)))", True),
    ("(g x (div x y))", True),
    ("(=> (< x 1) (g (mod y x) (div x y)))", True),
    # an earlier operand's ERR settles its rows
    ("(or (< x (div 1 y)) (< y 2))", False),
    ("(and (< 0 x) (= (div 6 x) 2) (< y (mod 3 y)))", False),
    # an ite's taken branch's ERR
    ("(< (ite (< x 1) (div x y) y) 2)", False)])
def test_a_column_that_may_hold_err_is_marked(text, gathers):
    """Walked or composed, a term's column is evaluate's, ERR where it
    raises, and every column that holds ERR is marked, a column gathered on
    fewer rows included, so its ERR rows are never computed with."""
    t = term(text, {"x": INT, "y": INT}, {"g": G.fun_sort})
    rows = [{"x": x, "y": y} for x in (-3, 0, 1, 2, 7) for y in (0, 1, -2)]
    pw = Recording(rows, {"g": G})
    want = expected_column(t, rows, {"g": G})
    assert_same_column(pw(t), want, t)
    assert_same_column(composed(pw, t), want, t)
    assert_no_plain_err(pw.columns, t)
    if gathers:
        assert any(type(col) is not tuple and len(col) < len(rows)
                   for col in pw.columns)


@pytest.mark.parametrize("text, plain", [
    # the divisor is 0 only on rows the ite does not take
    ("(ite (= y 0) 0 (div x y))", True),
    ("(+ (ite (= y 0) x (mod x y)) 1)", True),
    # the taken branch errs where x < 1 and y is 0
    ("(ite (< x 1) (div x y) y)", False),
    # the condition errs where y is 0
    ("(ite (< (div x y) 1) x y)", False)])
def test_an_ite_over_a_marked_operand_is_marked_only_where_it_takes_err(
        text, plain):
    t = term(text, {"x": INT, "y": INT})
    rows = [{"x": x, "y": y} for x in (-3, 0, 1, 2, 7) for y in (0, 1, -2)]
    pw = Recording(rows, {})
    want = expected_column(t, rows, {})
    for col in (pw(t), composed(pw, t)):
        assert_same_column(col, want, t)
        assert (type(col) is tuple) is plain
    # the division under the ite is marked
    assert any(type(col) is not tuple for col in pw.columns)


@pytest.mark.parametrize("op", ["+", "-"])
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_int_plus_and_minus_match_evaluate_at_every_arity(op, arity):
    t = term(f"({op} {' '.join(['x', 'y', '3'][:arity])})",
             {"x": INT, "y": INT})
    rows = [{"x": x, "y": y} for x in (-7, 0, 3, 2**70) for y in (-1, 0, 5)]
    want = expected_column(t, rows, {})
    pw = Pointwise(rows, {})
    assert_same_column(pw(t), want, t)
    assert_same_column(composed(pw, t), want, t)
    f = compile_term(t, [("x", INT), ("y", INT)])
    assert_same_column([f((r["x"], r["y"])) for r in rows], want, t)
    # two operands apply the C-level function
    assert (op_value(op, None, arity) in (operator.add, operator.sub)) \
        is (arity == 2)


@pytest.mark.parametrize("text", [
    "(ite (= y 0) 0 (div x y))", "(and (= y 1) (= (div x y) 1))",
    "(or (= y 0) (= (div x y) 1))", "(=> (= x 3) (= y 1) (= (mod x y) 1))",
    "(=> (= y 1) (= (mod x y) 1))"])
def test_compiled_connectives_are_lazy(text):
    # at x = 3, y = 0 the division is never reached
    t = term(text, {"x": INT, "y": INT})
    got = compile_term(t, [("x", INT), ("y", INT)])((3, 0))
    want = evaluate(t, {"x": 3, "y": 0})
    assert got == want and type(got) is type(want)


def test_column_let_is_parallel_and_shadows():
    t = Let((("a", Var("b")), ("b", Lit(1))),
            Let((("a", Apply("+", (Var("a"), Var("b")))),), Var("a")))
    col, sort = Pointwise((), {}).column(t, {"b": ((10,), INT)}, 1)
    assert col == (evaluate(t, {"b": 10}),) == (11,) and sort == INT


# ---------------------------------------------------------------------------
# substitution


def test_expand_max2_constraint():
    ctx = {"x": INT, "y": INT}
    c = term("(>= (max2 x y) x)", ctx, {"max2": FunSort((INT, INT), INT)})
    body = term("(ite (>= x y) x y)", ctx)
    f = FunDef("max2", (("x", INT), ("y", INT)), INT, body)
    got = expand(c, {"max2": f})
    assert got == term("(>= (ite (>= x y) x y) x)", ctx)


def test_expand_leaves_plain_terms():
    c = term("(> x 0)", {"x": INT})
    assert expand(c, {}) == c


def test_substitution_instantiates_parameters_not_universals():
    # (f y) with body x+1 must become y+1
    f = FunDef("f", (("x", INT),), INT, term("(+ x 1)", {"x": INT}))
    c = Apply("f", (Var("y"),))
    assert expand(c, {"f": f}) == term("(+ y 1)", {"y": INT})


def test_substitute_avoids_let_capture():
    # replacing y by z inside (let ((z y)) (+ z y)) must not capture z
    t = Let((("z", Var("y")),), Apply("+", (Var("z"), Var("y"))))
    got = substitute(t, {"y": Var("z")})
    assert isinstance(got, Let)
    (name, d), = got.bindings
    assert d == Var("z")
    assert name != "z"
    assert got.body == Apply("+", (Var(name), Var("z")))


def test_evaluate_resolves_lets_in_parallel():
    t = Let((("a", Var("b")), ("b", Lit(1))), Apply("+", (Var("a"), Var("b"))))
    assert evaluate(t, {"b": 10}) == 11


# ---------------------------------------------------------------------------
# expression size


def test_term_size_examples():
    assert term_size(Var("x")) == 1
    assert term_size(term("(ite (>= x y) x y)", {"x": INT, "y": INT})) == 6
    t = term("(bvand (bvnot x) (bvadd x #x00000001))", {"x": BV32})
    assert term_size(t) == 6


def test_let_size_counts_binding_sites():
    # let node (1) + one binding site (1) + definition (1) + body (3)
    t = Let((("z", Var("x")),), Apply("+", (Var("z"), Var("z"))))
    assert term_size(t) == 6


def test_free_vars():
    t = Let((("z", Var("x")),), Apply("+", (Var("z"), Var("y"))))
    assert free_vars(t) == {"x", "y"}


def test_substitution_commutes_with_evaluation():
    """Evaluating the substituted constraint equals interpreting the unknown
    by its body, on 1000 random valuations per problem."""
    import random
    from conftest import load
    from syguskit.terms import BV as BVv

    rng = random.Random(2024)
    setups = []
    p = load("max2.sl")
    body = term("(ite (>= x y) x y)", {"x": INT, "y": INT})
    setups.append((p, {"max2": FunDef("max2", p.unknowns["max2"].params,
                                      INT, body)}))
    q = load("lsz_w8_fixed.sl")
    fbody = term("(bvand (bvnot x) (bvadd x #x01))", {"x": bitvec(8)})
    setups.append((q, {"f": FunDef("f", q.unknowns["f"].params,
                                   bitvec(8), fbody)}))
    for problem, funcs in setups:
        defs = dict(problem.defined_funs)
        defs.update(funcs)
        substituted = [expand(c, funcs)
                       for c in problem.constraints]
        for _ in range(1000):
            point = {}
            for name, sort in problem.universals.items():
                if sort == INT:
                    point[name] = rng.randint(-50, 50)
                else:
                    point[name] = BVv(sort.width, rng.getrandbits(sort.width))
            for c, sub in zip(problem.constraints, substituted):
                assert evaluate(sub, point, problem.defined_funs) == \
                    evaluate(c, point, defs)
