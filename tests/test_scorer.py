"""The one candidate scorer both solvers use, against whole-constraint
evaluation: a candidate gets an example wrong iff checker.falsified holds
for some constraint with the bodies substituted."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import load, term
from syguskit.cegis import (ERR, ExampleSet, Scorer, Solved,
                            base_constant_pool, count_wrong, make_solution,
                            signature)
from syguskit.checker import falsified
from syguskit.enumerative import EnumConfig, solve_enumerative
from syguskit.frontend import read_problem
from syguskit.grammar import Enumerator
from syguskit.terms import INT

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

PROBLEMS = {"max2": lambda: load("max2.sl"), "s8": lambda: load("s8.sl"),
            "nested": lambda: read_problem(NESTED),
            "guarded": lambda: read_problem(GUARDED)}


def whole_wrong(p, bodies, E):
    defs = dict(p.defined_funs)
    defs.update(make_solution(p, bodies).funcs)
    return [ei for ei, point in enumerate(E)
            if any(falsified(c, point, defs) for c in p.constraints)]


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
