import hashlib
import math
import random

import pytest

from conftest import load
from syguskit.cegis import (ExampleSet, Exhausted, Scorer, Solved, TimedOut,
                            count_wrong)
from syguskit.checker import ExhaustiveSmall, Valid, check_semantic
from syguskit.frontend import default_grammar, read_problem
from syguskit.grammar import Enumerator, derives
from syguskit.stochastic import StochConfig, mutate, solve_stochastic
from syguskit.terms import INT, Lit, SygusError, Var, evaluate, term_size


def _wrong(p, body, E):
    """count_wrong of one body; the walk accepts with exp(-beta * delta)."""
    return count_wrong(Scorer(p, E), {"max2": body})


def test_count_wrong_closed_form(max2):
    E = ExampleSet([{"x": 0, "y": 1}, {"x": 1, "y": 0}])
    assert _wrong(max2, Var("x"), E) == 1  # wrong on the first example only
    good = __import__("conftest").term("(ite (>= x y) x y)",
                                       {"x": INT, "y": INT})
    assert _wrong(max2, good, E) == 0


def test_count_wrong_grows_with_wrongness(max2):
    E = ExampleSet([{"x": 0, "y": 1}, {"x": 1, "y": 0}, {"x": -2, "y": 5}])
    good = __import__("conftest").term("(ite (>= x y) x y)",
                                       {"x": INT, "y": INT})
    # good is right everywhere, x is wrong where y > x, constant 0 everywhere
    assert [_wrong(max2, body, E)
            for body in (good, Var("x"), Lit(0))] == [0, 2, 3]


def test_mutation_on_size_one_leaf():
    g = default_grammar((("x", INT), ("y", INT)), INT)
    e = Enumerator(g, pool=[0, 1])
    rng = random.Random(0)
    seen = set()
    for _ in range(100):
        node = e.sample("StartInt", 1, rng)
        seen.add(mutate(node, e, rng).term)
    assert seen == {Var("x"), Var("y"), Lit(0), Lit(1)}


def test_mutation_preserves_size_and_derivability():
    g = default_grammar((("x", INT), ("y", INT)), INT)
    e = Enumerator(g, pool=[-1, 0, 1, 2])
    rng = random.Random(7)
    for _ in range(1000):
        node = e.sample("StartInt", 7, rng)
        mutated = mutate(node, e, rng)
        assert term_size(mutated.term) == 7
        assert derives(g, "StartInt", mutated.term)


def test_mutated_tree_keeps_consistent_slot_accounting():
    g = default_grammar((("x", INT),), INT)
    e = Enumerator(g, pool=[0, 1])
    rng = random.Random(5)
    node = e.sample("StartInt", 9, rng)
    for _ in range(200):
        node = mutate(node, e, rng)
        total = node.own_nodes
        stack = list(node.children)
        while stack:
            _, child = stack.pop()
            total += child.own_nodes
            stack.extend(child.children)
        assert total == term_size(node.term) == 9


def test_reproducibility_identical_transcripts(max2):
    runs = []
    for _ in range(2):
        trace: list = []
        out = solve_stochastic(max2, StochConfig(seed=11, budget_s=120,
                                                 trace=trace))
        assert isinstance(out, Solved)
        runs.append((out.solution.funcs["max2"].body, tuple(trace)))
    assert runs[0] == runs[1]


def test_acceptance_probability_recomputation(max2):
    trace: list = []
    out = solve_stochastic(max2, StochConfig(seed=3, budget_s=120, trace=trace))
    assert isinstance(out, Solved)
    assert len(trace) > 0
    for wrong, wrong_new, prob, unif, accepted in trace:
        assert prob == pytest.approx(
            min(1.0, math.exp(-0.5 * (wrong_new - wrong))))
        assert accepted == (unif < prob)


def test_worse_proposals_rarely_accepted_at_high_beta(lsz8):
    # the unrestricted width-8 problem admits no solution (x = 0xff), so the
    # walk never terminates and wrongness keeps varying across candidates
    trace: list = []
    out = solve_stochastic(lsz8, StochConfig(beta=10.0, seed=1, budget_s=25,
                                             moves_per_size=4000, trace=trace))
    assert isinstance(out, TimedOut)
    worse = [t for t in trace if t[1] > t[0]]
    assert len(trace) >= 10_000
    assert len(worse) > 100
    accepted_worse = sum(1 for t in worse if t[4])
    assert accepted_worse / len(worse) < 0.01


def test_tiny_budget_times_out(max2):
    out = solve_stochastic(max2, StochConfig(seed=0, budget_s=0.001))
    assert out == TimedOut(0.001)


def test_multiple_unknowns_rejected():
    with pytest.raises(SygusError):
        solve_stochastic(load("s8.sl"), StochConfig(seed=0, budget_s=1))


BOOL_HOLE = """(set-logic LIA)
(synth-fun f ((x Int)) Bool ((B Bool ((Constant Bool)))))
(declare-var x Int)
(constraint (f x))
(check-synth)"""


def test_schedule_without_a_derivation_is_exhausted():
    # the grammar derives terms of size 1 only; the default schedule starts at 3
    out = solve_stochastic(read_problem(BOOL_HOLE),
                           StochConfig(seed=0, budget_s=5))
    assert out == Exhausted(11)


def test_empty_schedule_rejected(max2):
    with pytest.raises(SygusError):
        solve_stochastic(max2, StochConfig(size_schedule=(), budget_s=1))


def test_solves_max2_semantically(max2):
    out = solve_stochastic(max2, StochConfig(seed=1, budget_s=120))
    assert isinstance(out, Solved)
    body = out.solution.funcs["max2"].body
    for x in range(-8, 9):
        for y in range(-8, 9):
            assert evaluate(body, {"x": x, "y": y}) == max(x, y)
    assert check_semantic(max2, out.solution, ExhaustiveSmall()) == Valid(False)


def test_solves_bv_problem(lsz8_fixed):
    out = solve_stochastic(lsz8_fixed, StochConfig(seed=2, budget_s=120))
    assert isinstance(out, Solved)
    assert check_semantic(lsz8_fixed, out.solution,
                          ExhaustiveSmall()) == Valid(False)


# Terms printed by the sampler and a mutate walk for fixed seeds: the first
# nine terms of a 200-move walk, then digests of the whole walk and of the
# rng's state after it. Any change to how sizes are split or how the rng is
# consulted shows here first; the stochastic solver's run time depends on its
# exact random stream.
PINNED_STREAMS = {
    "default": ([
        "(- (* 1 2) 1)",
        "(* (- 2 (* 2 0)) 1)",
        "(* -1 (- (* (* 2 0) 1) y))",
        "(+ (+ -1 2) 2)",
        "(+ (+ -1 2) (div 2 -1))",
        "(+ (+ 2 (div 2 -1)) (div x 1))",
        "(+ 0 (* 0 0))",
        "(+ 0 (mod (* 0 0) 2))",
        "(+ 0 (- y (* 0 (* 1 2))))",
    ], [
        "(- (+ 2 (mod x -1)) (div 0 2))",
        "(- (+ 2 (mod 2 -1)) (div 0 2))",
        "(- (+ 2 (- y 0)) (div 0 2))",
        "(- (+ 2 (- y 0)) (div 2 2))",
        "(- (+ 2 (- y 0)) (+ y -1))",
        "(- (+ x (- y 0)) (+ y -1))",
        "(- (+ x (- y 0)) (+ 2 -1))",
        "(- (+ x (- y 2)) (+ 2 -1))",
        "(- (+ x (mod 0 -1)) (+ 2 -1))",
    ], "cd8d3d1c589b7253", "4e0b4c5768d739c5"),
    "let": ([
        "(let ((z 1)) (+ z z))",
        "(+ (let ((z x)) (+ z z)) 1)",
        "(+ (+ 1 (let ((z 1)) (+ z z))) 1)",
        "(let ((z x)) (+ z z))",
        "(+ (let ((z 1)) (+ z z)) x)",
        "(+ (let ((z 1)) (+ z z)) (+ 1 1))",
        "(let ((z x)) (+ z z))",
        "(+ 1 (let ((z 1)) (+ z z)))",
        "(+ 1 (+ (let ((z 1)) (+ z z)) x))",
    ], [
        "(+ (let ((z 1)) (+ z z)) (+ x x))",
        "(+ (let ((z 1)) (+ z z)) (+ x 1))",
        "(+ (let ((z x)) (+ z z)) (+ x 1))",
        "(+ (let ((z x)) (+ z z)) (+ x 1))",
        "(+ (let ((z 1)) (+ z z)) (+ x 1))",
        "(+ (let ((z x)) (+ z z)) (+ x 1))",
        "(+ (let ((z 1)) (+ z z)) (+ x 1))",
        "(+ (let ((z 1)) (+ z z)) (+ x x))",
        "(+ (let ((z 1)) (+ z z)) (+ x x))",
    ], "4477278263122869", "783b5506d9beb9ca"),
    "hd17_w8": ([
        "(bvor (bvor x #x01) #x01)",
        "(bvsub (bvor #x01 (bvor #x01 #x01)) #x01)",
        "(bvor (bvor x #x01) (bvor #x01 (bvor #x01 x)))",
        "(bvadd (bvand #x01 x) #x01)",
        "(bvand (bvand #x01 x) (bvor #x01 #x01))",
        "(bvand (bvand #x01 (bvor #x01 #x01)) (bvadd x #x01))",
        "(bvand #x01 (bvadd #x01 #x01))",
        "(bvand #x01 (bvadd (bvsub #x01 x) x))",
        "(bvor (bvand #x01 (bvadd (bvsub #x01 x) x)) x)",
    ], [
        "(bvadd (bvadd #x01 (bvand x #x01)) (bvsub x x))",
        "(bvadd (bvadd #x01 (bvand x #x01)) (bvsub x #x01))",
        "(bvadd (bvadd #x01 (bvand #x01 #x01)) (bvsub x #x01))",
        "(bvadd (bvadd #x01 (bvadd x x)) (bvsub x #x01))",
        "(bvadd (bvadd #x01 (bvadd x x)) (bvsub #x01 #x01))",
        "(bvadd (bvadd #x01 (bvadd x x)) (bvand x x))",
        "(bvadd (bvadd x (bvadd x x)) (bvand x x))",
        "(bvadd (bvadd x (bvadd x x)) (bvand #x01 x))",
        "(bvadd (bvadd x (bvadd #x01 x)) (bvand #x01 x))",
    ], "c2e52e183b0c3313", "59d1badf3dbe2746"),
    "divisor": ([
        "(+ (div x 3) 1)",
        "(+ (div 2 (div 2 1)) 0)",
        "(+ (div 2 (+ (div 1 1) 0)) 0)",
        "(+ (+ -1 2) 2)",
        "(+ (+ -1 2) (div 2 -1))",
        "(+ (mod x (+ -1 2)) (div 2 -1))",
        "(+ 0 (div 3 -1))",
        "(+ 0 (div (div 3 -1) 1))",
        "(+ 0 (div (+ 3 (+ 0 2)) 2))",
    ], [
        "(+ (+ 2 (+ -1 1)) (mod x 1))",
        "(+ (+ 2 (+ -1 1)) (mod x 3))",
        "(+ (+ 2 (+ 0 2)) (mod x 3))",
        "(+ (+ 2 (+ 0 2)) (+ 3 x))",
        "(+ (+ x (+ 0 2)) (+ 3 x))",
        "(+ (+ x (+ 0 2)) (+ 2 x))",
        "(+ (+ x (+ 0 2)) (+ 2 x))",
        "(+ (+ x (div 1 x)) (+ 2 x))",
        "(div 2 (div (div 3 (div 3 1)) -1))",
    ], "fe502b10bc761503", "94018e9f6c747a74"),
}


def divisor_grammar():
    """div and mod whose divisors are nonterminals with an Int hole, so the
    sampler draws divisors of every size, holes without zero at size 1."""
    from syguskit.grammar import make_grammar
    from syguskit.terms import TNT, Apply, THole
    s = TNT("S")
    return make_grammar("S", [("S", INT, [
        Var("x"), THole(INT), Apply("+", (s, s)), Apply("div", (s, s)),
        Apply("mod", (Var("x"), s))])], {"x": INT})


def digest(x) -> str:
    return hashlib.sha256(repr(x).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", list(PINNED_STREAMS))
def test_sampler_random_stream_is_pinned(case):
    from conftest import let_grammar
    from syguskit.cegis import base_constant_pool
    from syguskit.frontend import term_to_sexpr
    from syguskit.sexpr import print_sexpr

    def show(t):
        return print_sexpr(term_to_sexpr(t))

    sizes = (5, 7, 9)
    if case == "default":
        g = default_grammar((("x", INT), ("y", INT)), INT)
        e = Enumerator(g, pool=[-1, 0, 1, 2])
    elif case == "let":
        g = let_grammar()
        e, sizes = Enumerator(g), (6, 8, 10)
    elif case == "hd17_w8":
        p = load("hd17_w8.sl")
        g = p.unknowns["f"].grammar
        e = Enumerator(g, base_constant_pool(p))
    else:
        g = divisor_grammar()
        e = Enumerator(g, pool=[-1, 0, 1, 2, 3])
    samples = [show(e.sample(g.start, size, random.Random(seed)).term)
               for seed in (0, 1, 2) for size in sizes]
    rng = random.Random(3)
    node = e.sample(g.start, sizes[-1], rng)
    walk = [show(node.term)]
    for _ in range(200):
        node = mutate(node, e, rng)
        walk.append(show(node.term))
    assert (samples, walk[:9], digest(walk), digest(rng.getstate())) == \
        PINNED_STREAMS[case]
