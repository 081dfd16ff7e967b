import hashlib
import math
import random

import pytest

from conftest import load, term
from syguskit.cegis import (ExampleSet, Exhausted, Scorer, Solved, TimedOut,
                            base_constant_pool, count_wrong,
                            pool_with_examples)
from syguskit.checker import ExhaustiveSmall, Valid, check_semantic
from syguskit.frontend import default_grammar, read_problem
from syguskit.grammar import Enumerator, derives
from syguskit.stochastic import StochConfig, mutate, solve_stochastic
from syguskit.terms import (BV, INT, Lit, SygusError, Var, evaluate,
                            term_size)
from test_scorer import PROBLEMS


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
        total = sum(own for *_, own in node.entries)
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


def test_large_beta_accepts_no_worse_proposals_without_exp(max2):
    # exp(beta * (wrong - wrong_new)) overflows once it passes about 709
    trace: list = []
    out = solve_stochastic(max2, StochConfig(beta=1000.0, seed=1,
                                             budget_s=120, trace=trace))
    assert isinstance(out, Solved)
    assert any(wrong_new < wrong for wrong, wrong_new, *_ in trace)
    for wrong, wrong_new, prob, unif, accepted in trace:
        assert prob == (1.0 if wrong_new <= wrong
                        else math.exp(-1000.0 * (wrong_new - wrong)))
        assert accepted == (unif < prob)


@pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan, "0.5", None,
                                  pytest.param(10**400, id="10**400")])
def test_beta_must_be_positive_and_finite(max2, beta):
    # a string or None would be a bare TypeError from math.isfinite, and an
    # int past the float range an OverflowError there or in exp
    with pytest.raises(SygusError, match="beta"):
        solve_stochastic(max2, StochConfig(beta=beta, seed=0, budget_s=1))


def test_negative_moves_per_size_rejected(max2):
    # an empty move loop would never poll the deadline
    with pytest.raises(SygusError, match="moves_per_size"):
        solve_stochastic(max2, StochConfig(moves_per_size=-2, seed=0,
                                           budget_s=1))


@pytest.mark.parametrize("bad, match", [
    ({"size_schedule": (3.5,)}, "size schedule"),
    ({"size_schedule": (3, 5.0)}, "size schedule"),
    ({"moves_per_size": 10.5}, "moves_per_size"),
    ({"moves_per_size": "5"}, "moves_per_size"),
    ({"seed": None}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"seed": "1"}, "seed"),
])
def test_config_values_of_the_wrong_type_rejected(max2, bad, match):
    # a float size or move count would reach range(); a None seed draws
    # from the OS, and the walk could not be replayed
    with pytest.raises(SygusError, match=match):
        solve_stochastic(max2, StochConfig(**{"seed": 0, "budget_s": 1,
                                              **bad}))


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


# The bodies the verifier is asked about on max2 with seed 1, in order: five
# get counterexamples, and the sixth is Valid.
MAX2_SEED1_ASKED = ("(+ -1 -1)", "(+ y 0)", "(* x 1)", "(+ (mod y -8) x)",
                    "(+ y (- x -8))", "(ite (xor (>= y x) (not true)) y x)")


def test_verifier_transcript_on_max2_seed_1(max2, monkeypatch):
    import syguskit.checker as ck
    import syguskit.stochastic as sto
    asked = []
    real = ck.check_semantic

    def spy(p, sol, strat):
        verdict = real(p, sol, strat)
        asked.append((sol.funcs["max2"].body, type(verdict).__name__))
        return verdict

    # both names the solver may call the verifier by
    monkeypatch.setattr(ck, "check_semantic", spy)
    monkeypatch.setattr(sto, "check_semantic", spy)
    out = solve_stochastic(max2, StochConfig(seed=1, budget_s=60))
    assert isinstance(out, Solved)
    xy = {"x": INT, "y": INT}
    assert asked == [(term(t, xy), kind) for t, kind in zip(
        MAX2_SEED1_ASKED, ["CounterExample"] * 5 + ["Valid"])]
    assert out.solution.funcs["max2"].body == asked[-1][0]


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


def stream_case(case):
    """(grammar, enumerator, sample sizes) of a PINNED_STREAMS case."""
    from conftest import let_grammar
    from syguskit.cegis import base_constant_pool

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
    return g, e, sizes


@pytest.mark.parametrize("case", list(PINNED_STREAMS))
def test_sampler_random_stream_is_pinned(case):
    from syguskit.frontend import term_to_sexpr
    from syguskit.sexpr import print_sexpr

    def show(t):
        return print_sexpr(term_to_sexpr(t))

    g, e, sizes = stream_case(case)
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



def subterm_at(t, path):
    for step in path:
        if isinstance(step, int):
            t = t.args[step]
        elif step[0] == "d":
            t = t.bindings[step[1]][1]
        else:
            t = t.body
    return t


def nest(entries):
    """Pre-order entries as a tree: [entry with its path relative to its
    parent's, children]."""
    top = [None, []]
    stack = [((), top)]
    for path, *rest in entries:
        while path[:len(stack[-1][0])] != stack[-1][0]:
            stack.pop()
        above, parent = stack[-1]
        node = [(path[len(above):], *rest), []]
        parent[1].append(node)
        stack.append((path, node))
    (root,) = top[1]
    return root


def preorder(node):
    out = [node]
    for child in node[1]:
        out.extend(preorder(child))
    return out


def flatten(node, prefix=()):
    """A tree's entries in pre-order, with paths from the root."""
    (step, *rest), children = node
    yield (prefix + step, *rest)
    for child in children:
        yield from flatten(child, prefix + step)


@pytest.mark.parametrize("case", list(PINNED_STREAMS))
def test_walk_keeps_entries_of_a_fresh_preorder_walk(case):
    # the oracle moves a tree: a mirrored rng picks the same pre-order
    # position and draws the same replacement, whose tree is grafted there
    g, e, sizes = stream_case(case)
    rng = random.Random(3)
    node = e.sample(g.start, sizes[-1], rng)
    tree = nest(node.entries)
    for _ in range(200):
        mirror = random.Random()
        mirror.setstate(rng.getstate())
        node = mutate(node, e, rng)
        nodes = preorder(tree)
        pick = mirror.choices(range(len(nodes)), [n[0][4] for n in nodes])[0]
        old = nodes[pick]
        _, nt, size, no_zero, _ = old[0]
        fresh = nest(e.sample(nt, size, mirror, no_zero).entries)
        old[:] = [(old[0][0], *fresh[0][1:]), fresh[1]]
        assert mirror.getstate() == rng.getstate()
        assert node.entries == tuple(flatten(tree))
        for path, nt, size, _, _ in node.entries:
            sub = subterm_at(node.term, path)
            assert term_size(sub) == size
            assert derives(g, nt, sub)


# ---------------------------------------------------------------------------
# the walk's memo of wrong counts by signature


@pytest.mark.parametrize("problem, value", [
    ("max2", lambda rng: rng.randint(-4, 4)),
    ("hd17_w8", lambda rng: BV(8, rng.randrange(256)))])
def test_bodies_that_share_a_plain_signature_get_equal_wrong_counts(
        problem, value, request):
    p = request.getfixturevalue(problem)
    (name, u), = p.unknowns.items()
    rng = random.Random(5)
    E = ExampleSet({n: value(rng) for n in p.universals} for _ in range(4))
    scorer = Scorer(p, E)
    assert not scorer.naive
    g = u.grammar
    e = Enumerator(g, pool_with_examples(base_constant_pool(p), E))
    by_sig: dict = {}
    for _ in range(1500):
        size = rng.randint(1, 9)
        if e.count(g.start, size):
            body = e.sample(g.start, size, rng).term
            sig = scorer.sig[name](body)
            assert type(sig) is tuple
            by_sig.setdefault(sig, set()).add(body)
    shared = [bodies for bodies in by_sig.values() if len(bodies) > 1]
    assert len(shared) > 10
    for sig, bodies in by_sig.items():
        # the count the walk memoizes by signature reads no body
        want = count_wrong(scorer, {}, [sig])
        assert {count_wrong(scorer, {name: b}) for b in bodies} == {want}


# (f (mod x 2)) has two bindings, so a counterexample past them leaves
# every signature's length as it was, while the wrong counts change
REBOUND = """(set-logic LIA)
(synth-fun f ((a Int)) Int
  ((S Int (a 0 1 (+ S S) (- S S) (ite B S S))) (B Bool ((<= S S)))))
(declare-var x Int)
(declare-var y Int)
(constraint (= (f (mod x 2)) (mod (+ x y) 3)))
(check-synth)"""


class Stop(Exception):
    pass


class CappedTrace(list):
    """A trace that ends the walk once it holds `cap` moves."""

    def __init__(self, cap):
        super().__init__()
        self.cap = cap

    def append(self, move):
        super().append(move)
        if len(self) == self.cap:
            raise Stop


def memo_walk(p, seed, cap, monkeypatch):
    """The walk's trace, at most cap moves, and what the scorer saw at each
    count_wrong: whether it was naive, and whether the signature it was
    given may hold ERR."""
    import syguskit.stochastic as sto
    seen = []

    def spy(scorer, bodies, sigs=None):
        seen.append((scorer.naive, type(sigs[0]) is not tuple))
        return count_wrong(scorer, bodies, sigs)

    monkeypatch.setattr(sto, "count_wrong", spy)
    trace = CappedTrace(cap)
    try:
        out = solve_stochastic(p, StochConfig(seed=seed, budget_s=120,
                                              trace=trace))
    except Stop:
        return None, list(trace), seen
    assert isinstance(out, Solved)
    return out.solution, list(trace), seen


@pytest.mark.parametrize("problem, seed, cap", [
    ("max2", 1, None),
    # its argument (div x y) raises at y = 0, so once such an example
    # arrives the scorer is naive
    ("guarded_arg", 0, 8_000),
    # most bodies past size 4 err at some binding
    ("div", 0, 8_000),
    ("rebound", 0, 8_000)])
def test_the_signature_memo_changes_no_move(problem, seed, cap, monkeypatch):
    import syguskit.stochastic as sto
    p = (read_problem(REBOUND) if problem == "rebound"
         else PROBLEMS[problem]())
    out, trace, seen = memo_walk(p, seed, cap, monkeypatch)
    monkeypatch.setattr(sto, "WRONG_MEMO", 0)  # no memo at all
    bare_out, bare_trace, bare_seen = memo_walk(p, seed, cap, monkeypatch)
    assert trace == bare_trace
    assert len(trace) == (cap or len(trace)) > 5_000
    assert out == bare_out and (out is None) == (cap is not None)
    # the memos spared most scorings, and the bare walk scored every body
    assert len(seen) < len(bare_seen) / 2
    assert len(bare_seen) >= len(trace)
    if problem == "guarded_arg":
        assert any(naive for naive, _ in seen)
    if problem == "div":
        assert any(marked for _, marked in seen)
