"""The one candidate scorer both solvers use, against whole-constraint
evaluation: a candidate gets an example wrong iff checker.falsified holds
for some constraint with the bodies substituted."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import SEVEN, div_grammar, let_grammar, load, term
from syguskit.cegis import (ERR, SIG_MEMO, ExampleSet, Scorer, Signatures,
                            Solved, base_constant_pool, count_wrong,
                            make_solution, signature)
from syguskit.checker import (ExhaustiveSmall, Valid, check_semantic,
                              falsified, substituted_constraints)
from syguskit.enumerative import EnumConfig, solve_enumerative
from syguskit.frontend import read_problem
from syguskit.grammar import Enumerator
from syguskit.terms import BOOL, BV, INT

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

PROBLEMS = {"max2": lambda: load("max2.sl"), "s8": lambda: load("s8.sl"),
            "nested": lambda: read_problem(NESTED),
            "guarded": lambda: read_problem(GUARDED),
            "guarded_arg": lambda: read_problem(GUARDED_ARG),
            "div": lambda: read_problem(DIV)}


def whole_wrong(p, bodies, E):
    constraints = substituted_constraints(p, make_solution(p, bodies))
    return [ei for ei, point in enumerate(E)
            if any(falsified(c, point, p.defined_funs) for c in constraints)]


@pytest.mark.parametrize("name", list(PROBLEMS))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), size=st.integers(1, 7),
       values=st.lists(st.integers(-3, 3), min_size=3, max_size=24))
def test_scorer_matches_whole_constraint_evaluation(name, seed, size, values):
    p = PROBLEMS[name]()
    names = list(p.universals)
    E = ExampleSet(dict(zip(names, values[i:i + len(names)]))
                   for i in range(0, len(values) - len(names) + 1,
                                  len(names)))
    rng = random.Random(seed)
    bodies = {}
    for n, u in p.unknowns.items():
        g, s = u.grammar, size
        e = Enumerator(g, base_constant_pool(p))
        while not e.count(g.start, s):
            s -= 1
        bodies[n] = e.sample(g.start, s, rng).term
    scorer = Scorer(p, E)
    expected = whole_wrong(p, bodies, E)
    assert list(scorer.wrong(bodies)) == expected
    assert count_wrong(scorer, bodies) == len(expected)


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
    # h's counterexamples bring y = 0 into the examples, where (div x y)
    # errs but c1, the only constraint that invokes f, never reaches it
    p = read_problem("""(set-logic LIA)
    (synth-fun f ((x Int) (y Int)) Int ((S Int (x y (div x S)))))
    (synth-fun h ((x Int) (y Int)) Int
      ((H Int (x y 0 1 (ite B H H))) (B Bool ((= H H)))))
    (declare-var x Int)
    (declare-var y Int)
    (constraint (=> (not (= y 0)) (= (f x y) (div x y))))
    (constraint (= (h x y) (ite (= y 0) 1 x)))
    (check-synth)""")
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
# memoised signatures against the reference signature()


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
}


def typed(sig):
    """A signature with each value's type, so True and 1 differ."""
    return [(type(v), v) for v in sig]


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
    sig = Signatures(bindings, defs)
    e = Enumerator(g, pool)
    for _ in range(30):
        nt, size = rng.choice(sorted(g.rules)), rng.randint(1, 9)
        if e.count(nt, size):
            t = e.sample(nt, size, rng).term
            assert typed(sig(t)) == typed(signature(t, bindings, defs)), t


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_cached_scores_match_uncached_past_the_memo_bound(name):
    p = PROBLEMS[name]()
    names = list(p.universals)
    rng = random.Random(7)
    E = ExampleSet({n: rng.randint(-3, 3) for n in names} for _ in range(8))
    scorer = Scorer(p, E)
    enums = {n: Enumerator(u.grammar, base_constant_pool(p))
             for n, u in p.unknowns.items()}
    largest = 0
    for _ in range(600):
        bodies = {}
        for n, u in p.unknowns.items():
            size = rng.randint(3, 15)
            while not enums[n].count(u.grammar.start, size):
                size -= 1
            bodies[n] = enums[n].sample(u.grammar.start, size, rng).term
        uncached = {n: signature(b, scorer.bindings[n], p.defined_funs)
                    for n, b in bodies.items()}
        want = list(scorer.wrong(bodies, uncached))
        assert list(scorer.wrong(bodies)) == want
        assert count_wrong(scorer, bodies) == len(want)
        for n in p.unknowns:
            size = len(scorer.sig[n].memo)
            assert size <= SIG_MEMO
            largest = max(largest, size)
    # the naive path has no bindings, so only its terms' empty signatures
    assert largest == SIG_MEMO or scorer.naive
