"""The one candidate scorer both solvers use, against whole-constraint
evaluation: a candidate gets an example wrong iff checker.falsified holds
for some constraint with the bodies substituted, and a prefix that one of
its stages rejects is wrong under every completion. Also the one CEGIS loop
(cegis.cegis) that hands a proposer its scorer, driven by stub proposers."""

import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import (SEVEN, div_grammar, let_grammar, load, raw_signature,
                      term, two_width_grammar, typed)
import syguskit.checker
from syguskit.cegis import (ERR, BudgetExpired, ExampleSet, Exhausted,
                            Pointwise, Scorer, Solved, TimedOut,
                            base_constant_pool, cegis, count_wrong,
                            make_solution, signature)
from syguskit.checker import (CounterExample, ExhaustiveSmall, Valid,
                              check_semantic, falsified,
                              substituted_constraints)
from syguskit.enumerative import EnumConfig, solve_enumerative
from syguskit.frontend import read_problem
from syguskit.grammar import Enumerator
from syguskit.stochastic import StochConfig, solve_stochastic
from syguskit.terms import BOOL, BV, INT, SygusError, Var
from test_terms import ops_grammar

NESTED = """(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(constraint (= (f (f x)) (+ x 2)))
(check-synth)"""

# (f x y) is reached only when y > 0, (f y x) only when y is not 0, and
# about a third of the bodies drawn divide by zero somewhere
GUARDED = """(set-logic LIA)
(synth-fun f ((x Int) (y Int)) Int
  ((S Int (x y 0 (div x S) (ite B S S)))
   (B Bool ((<= S S)))))
(declare-var x Int)
(declare-var y Int)
(constraint (=> (> y 0) (>= (f x y) x)))
(constraint (or (= y 0) (= (f x y) (f y x))))
(check-synth)"""

# f's first argument raises at y = 0, which matters only to a body that
# reads it there
GUARDED_ARG = """(set-logic LIA)
(synth-fun f ((a Int) (b Int)) Int
  ((S Int (a b 0 1 (+ S S) (ite B S S)))
   (B Bool ((<= S S)))))
(declare-var x Int)
(declare-var y Int)
(constraint (>= (f (div x y) x) (ite (= y 0) 0 (div x y))))
(check-synth)"""

# dividing by the divisor D errs everywhere for 0 and where x is 0, so most
# bodies past size 4 err at some binding; f x is reached only under a guard
DIV = """(set-logic LIA)
(synth-fun f ((x Int)) Int
  ((S Int (x 1 (+ S S) (div S D) (mod S D) (ite B S S)))
   (D Int (0 x))
   (B Bool ((< S S) (and B B) (or B B) (=> B B)))))
(declare-var x Int)
(declare-var y Int)
(constraint (=> (> y 0) (>= (f x) x)))
(constraint (or (< x y) (= (f x) (f y))))
(check-synth)"""

# h's counterexamples bring y = 0 into the examples, where (div x y) errs
# but c1, the only constraint that invokes f, never reaches it
UNREACHED = """(set-logic LIA)
(synth-fun f ((x Int) (y Int)) Int ((S Int (x y (div x S)))))
(synth-fun h ((x Int) (y Int)) Int
  ((H Int (x y 0 1 (ite B H H))) (B Bool ((= H H)))))
(declare-var x Int)
(declare-var y Int)
(constraint (=> (not (= y 0)) (= (f x y) (div x y))))
(constraint (= (h x y) (ite (= y 0) 1 x)))
(check-synth)"""

# three unknowns bound one at a time: c1 invokes f alone, c2 f and g, c3 g
# alone, c4 g and h; f's bodies can divide by zero, and h's argument raises
# at y = 0, where c4 reaches it, so that h must not read it there
THREE = """(set-logic LIA)
(synth-fun f ((x Int) (y Int)) Int ((S Int (x y 0 1 (+ S S) (div S S)))))
(synth-fun g ((x Int)) Int ((G Int (x 1 (- G G)))))
(synth-fun h ((a Int)) Int ((H Int (a 0 1 (+ H H) (- H H)))))
(declare-var x Int)
(declare-var y Int)
(constraint (=> (> y 0) (> (f x y) y)))
(constraint (= (+ (f x y) (g x)) (+ x y)))
(constraint (= (g (+ x 1)) x))
(constraint (or (< y 0) (>= (h (div x y)) (g 1))))
(check-synth)"""

# lets in a constraint and in the defined function it calls, each binding a
# name that hides another (y for x, g's c - a for a), which the frontend
# desugars, so the skeletons compile_term sees are let-free; the bodies keep
# their grammar's let, and (div S S) makes some of them err
LETS = """(set-logic LIA)
(define-fun g ((a Int) (b Int)) Int
  (let ((c (+ a b))) (let ((a (- c a))) (div c a))))
(synth-fun f ((x Int) (y Int)) Int
  ((S Int (x y 0 1 (+ S S) (div S S) (let ((z S)) (+ z S)) (ite B S S)))
   (B Bool ((<= S S)))))
(declare-var x Int)
(declare-var y Int)
(constraint (let ((d (f x y)) (x y)) (or (= x 0) (>= (g d x) (div d x)))))
(check-synth)"""

PROBLEMS = {"max2": lambda: load("max2.sl"), "s8": lambda: load("s8.sl"),
            "nested": lambda: read_problem(NESTED),
            "guarded": lambda: read_problem(GUARDED),
            "guarded_arg": lambda: read_problem(GUARDED_ARG),
            "div": lambda: read_problem(DIV),
            "unreached": lambda: read_problem(UNREACHED),
            "three": lambda: read_problem(THREE),
            "lets": lambda: read_problem(LETS)}


def whole_wrong(p, bodies, E):
    constraints = substituted_constraints(p, make_solution(p, bodies))
    return [ei for ei, point in enumerate(E)
            if any(falsified(c, point, p.defined_funs) for c in constraints)]


def examples(p, values):
    """The universals' valuations, values taken in turn."""
    names = list(p.universals)
    return ExampleSet(dict(zip(names, values[i:i + len(names)]))
                      for i in range(0, len(values) - len(names) + 1,
                                     len(names)))


def draw(p, unknown, size, rng):
    """A body of the unknown of at most size nodes."""
    g = p.unknowns[unknown].grammar
    e = Enumerator(g, base_constant_pool(p))
    while not e.count(g.start, size):
        size -= 1
    return e.sample(g.start, size, rng).term


@pytest.mark.parametrize("name", list(PROBLEMS))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), size=st.integers(1, 7),
       values=st.lists(st.integers(-3, 3), min_size=3, max_size=24))
def test_scorer_matches_whole_constraint_evaluation(name, seed, size, values):
    p = PROBLEMS[name]()
    E = examples(p, values)
    rng = random.Random(seed)
    bodies = {n: draw(p, n, size, rng) for n in p.unknowns}
    scorer = Scorer(p, E)
    expected = whole_wrong(p, bodies, E)
    assert list(scorer.wrong(bodies)) == expected
    assert count_wrong(scorer, bodies) == len(expected)


@pytest.mark.parametrize("name", list(PROBLEMS))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), size=st.integers(1, 7),
       values=st.lists(st.integers(-3, 3), min_size=3, max_size=24))
def test_a_stage_rejects_only_prefixes_every_completion_gets_wrong(
        name, seed, size, values):
    p = PROBLEMS[name]()
    E = examples(p, values)
    scorer = Scorer(p, E)
    names = list(p.unknowns)
    rng = random.Random(seed)
    for d, stage in enumerate(scorer.stages()):
        if stage is None:
            continue
        prefix = {n: draw(p, n, size, rng) for n in names[:d + 1]}
        if stage([scorer.sig[n](prefix[n]) for n in names[:d + 1]]):
            continue
        for _ in range(3):
            bodies = {**prefix, **{n: draw(p, n, rng.randint(1, 7), rng)
                                   for n in names[d + 1:]}}
            assert whole_wrong(p, bodies, E), (d, bodies)


def test_error_under_a_false_premise_does_not_count():
    p = read_problem(GUARDED)
    E = ExampleSet([{"x": 4, "y": 0}, {"x": 4, "y": 2}, {"x": -3, "y": -1}])
    body = term("(div x y)", {"x": INT, "y": INT})
    scorer = Scorer(p, E)
    # (f x y) at y = 0 divides by zero, but no constraint reaches it there
    assert signature(body, scorer.bindings["f"], {})[0] is ERR
    # at y = 2, (f x y) = 2 < 4; at y = -1, (f y x) = (div -1 -3) = 1, not 3
    assert list(scorer.wrong({"f": body})) == [1, 2]
    assert whole_wrong(p, {"f": body}, E) == [1, 2]


def test_enum_accepts_an_error_its_verifier_never_reaches():
    p = read_problem(UNREACHED)
    out = solve_enumerative(p, EnumConfig(max_size=9, budget_s=60))
    assert isinstance(out, Solved)
    ctx = {"x": INT, "y": INT}
    assert out.solution.funcs["f"].body == term("(div x y)", ctx)
    assert out.solution.funcs["h"].body == term("(ite (= y 0) 1 x)", ctx)


def test_an_argument_the_body_never_reads_does_not_raise():
    p = read_problem(GUARDED_ARG)
    E = ExampleSet([{"x": -1, "y": 0}, {"x": 3, "y": 0}, {"x": 6, "y": 2}])
    scorer = Scorer(p, E)
    # (div x y) raises at y = 0, so those examples bind nothing
    assert scorer.bindings["f"] == [{"a": 3, "b": 6}] and scorer.naive
    ctx = {"a": INT, "b": INT}
    # at x = -1 this body answers 0 without reading a; at x = 3 it reads it
    body = term("(ite (<= b 0) 0 a)", ctx)
    assert list(scorer.wrong({"f": body})) == [1]
    assert list(scorer.wrong({"f": term("0", ctx)})) == [2]
    assert list(scorer.wrong({"f": term("a", ctx)})) == [0, 1]


def test_scorer_matches_the_verifier_where_most_bodies_err():
    p = read_problem(DIV)
    rng = random.Random(3)
    E = ExampleSet({"x": rng.randint(-3, 3), "y": rng.randint(-3, 3)}
                   for _ in range(8))
    scorer = Scorer(p, E)
    g = p.unknowns["f"].grammar
    e = Enumerator(g, base_constant_pool(p))
    erring = 0
    for _ in range(300):
        size = rng.randint(5, 15)
        while not e.count(g.start, size):
            size -= 1
        body = e.sample(g.start, size, rng).term
        erring += ERR in scorer.sig["f"](body)
        assert list(scorer.wrong({"f": body})) == whole_wrong(p, {"f": body},
                                                              E), body
    assert erring > 150


def test_enum_solves_when_an_argument_always_raises():
    # (div x 0) raises everywhere, but the body 1 never reads its argument
    p = read_problem("""(set-logic LIA)
    (synth-fun f ((a Int)) Int ((S Int (a 1 (+ S S)))))
    (declare-var x Int)
    (constraint (= (f (div x 0)) 1))
    (check-synth)""")
    out = solve_enumerative(p, EnumConfig(max_size=16, budget_s=60))
    assert isinstance(out, Solved)
    assert out.solution.funcs["f"].body == term("1")
    assert check_semantic(p, out.solution, ExhaustiveSmall()) == Valid(False)


# ---------------------------------------------------------------------------
# composed signatures against the reference signature()


def data_grammar(name, unknown):
    p = load(name)
    return p.unknowns[unknown].grammar, p.defined_funs, base_constant_pool(p)


SIG_CASES = {
    "max2": lambda: data_grammar("max2.sl", "max2"),
    "s8": lambda: data_grammar("s8.sl", "f2"),
    "hd17_w8": lambda: data_grammar("hd17_w8.sl", "f"),
    "lsz_w8": lambda: data_grammar("lsz_w8.sl", "f"),
    "qm_loop": lambda: data_grammar("qm_loop_1.sl", "qm-loop"),
    "let": lambda: (let_grammar(), {}, ()),
    # the divisor D holds a literal 0, so every point of (div S D) can err
    "div": lambda: (div_grammar(), {"seven": SEVEN}, ()),
    # 8- and 4-bit nonterminals joined only through Bool comparisons
    "two_widths": lambda: (two_width_grammar(), {}, (BV(4, 9), BV(8, 0x80))),
    # every OPS entry, ite over Int, Bool and (BitVec 8) included; the hole
    # 0 makes Int div/mod err on every row
    "ops": lambda: (ops_grammar(), {}, (0, BV(8, 0))),
}


@pytest.mark.parametrize("name", list(SIG_CASES))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32),
       values=st.lists(st.sampled_from([-3, -1, 0, 1, 2, 9, 0x7f, 0x80,
                                        0xff]), min_size=1, max_size=8))
def test_memoised_signature_matches_signature(name, seed, values):
    g, defs, pool = SIG_CASES[name]()
    rng = random.Random(seed)
    bindings = [{n: (BV(s.width, v) if s.is_bv else v % 2 == 1 if s == BOOL
                     else v) for n, s in g.var_sorts.items()}
                for v in values]
    sig = Pointwise(bindings, defs)
    e = Enumerator(g, pool)
    for _ in range(30):
        nt, size = rng.choice(sorted(g.rules)), rng.randint(1, 9)
        if e.count(nt, size):
            t = e.sample(nt, size, rng).term
            assert typed(sig(t)) == typed(raw_signature(t, bindings, defs)), t


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_cached_scores_match_uncached_past_the_memo_bound(name):
    """wrong() on the scorer's composed signatures against wrong() on the
    reference signature(), over 600 sampled bodies."""
    p = PROBLEMS[name]()
    names = list(p.universals)
    rng = random.Random(7)
    E = ExampleSet({n: rng.randint(-3, 3) for n in names} for _ in range(8))
    scorer = Scorer(p, E)
    enums = {n: Enumerator(u.grammar, base_constant_pool(p))
             for n, u in p.unknowns.items()}
    for _ in range(600):
        bodies = {}
        for n, u in p.unknowns.items():
            size = rng.randint(3, 15)
            while not enums[n].count(u.grammar.start, size):
                size -= 1
            bodies[n] = enums[n].sample(u.grammar.start, size, rng).term
        uncached = [signature(bodies[n], scorer.bindings[n], p.defined_funs)
                    for n in p.unknowns]
        want = list(scorer.wrong(bodies, uncached))
        assert list(scorer.wrong(bodies)) == want
        assert count_wrong(scorer, bodies) == len(want)


def test_cegis_loop_with_stub_proposers(max2, monkeypatch):
    """The loop's outcomes, its once-per-example-set rule and its replies,
    with a scripted verifier in place of checker.check_semantic."""
    x, y = Var("x"), Var("y")
    point = {"x": 5, "y": 7}  # x is wrong here; y is accepted
    asked = []

    def verifier(p, sol, strat):
        body = sol.funcs["max2"].body
        asked.append(body)
        return CounterExample(point, 0) if body == x else Valid(False)

    monkeypatch.setattr(syguskit.checker, "check_semantic", verifier)
    cfg = EnumConfig(budget_s=60)

    def returns(p, cfg, deadline, scorer, pool):
        return
        yield

    def expires(p, cfg, deadline, scorer, pool):
        raise BudgetExpired
        yield

    assert cegis(max2, cfg, returns, 9) == Exhausted(9)
    assert cegis(max2, cfg, expires, 9) == TimedOut(60)
    assert asked == []

    replies = []

    def proposer(p, cfg, deadline, scorer, pool):
        assert count_wrong(scorer, {"max2": x}) == 0  # no example yet
        replies.append((yield {"max2": x}))  # a new counterexample
        replies.append((yield {"max2": x}))  # new examples: verified, stale
        replies.append((yield {"max2": x}))  # same examples: not verified
        yield {"max2": y}

    out = cegis(max2, cfg, proposer, 9)
    assert isinstance(out, Solved) and out.solution.funcs["max2"].body == y
    assert asked == [x, x, y]
    (scorer, pool), stale, again = replies
    assert scorer.bindings["max2"] == [point]
    assert count_wrong(scorer, {"max2": x}) == 1
    assert {5, 7} <= set(pool)
    assert stale is None and again is None


@pytest.mark.parametrize("budget_s", [0.0, -1.0, math.inf, math.nan, "5",
                                      None])
def test_the_loop_rejects_a_budget_that_is_not_positive_and_finite(
        max2, budget_s):
    # a NaN deadline never expires, and a negative one times out at once;
    # a string or None would be a bare TypeError from math.isfinite
    with pytest.raises(SygusError, match="budget_s"):
        solve_enumerative(max2, EnumConfig(budget_s=budget_s))
    with pytest.raises(SygusError, match="budget_s"):
        solve_stochastic(max2, StochConfig(seed=1, budget_s=budget_s))
