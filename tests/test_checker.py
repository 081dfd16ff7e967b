import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest

from conftest import fake_solver_script, load
import syguskit.checker as checker
from syguskit.cegis import make_solution
from syguskit.checker import (CounterExample, ExhaustiveSmall, ExternalSMT,
                              Invocation, Layered, RandomSample, Unknown,
                              UnknownReason, Valid, _violated_index,
                              check_semantic, check_syntactic,
                              classify_features, default_strategy,
                              emit_smtlib, falsified, grid_points,
                              int_drawer, parse_model, sample_points,
                              substituted_constraints)
from syguskit.frontend import (load_problem, parse_solution, read_problem,
                               term_to_sexpr)
from syguskit.grammar import Enumerator
from syguskit.sexpr import read_sexprs
from syguskit.terms import BOOL, BV, INT, SygusError, bitvec, raw_value

EX8 = ExhaustiveSmall()  # Int in [-8, 8]


def sol(problem, text):
    return parse_solution(text, problem)


def max2_sol(problem, body):
    return sol(problem, f"(define-fun max2 ((x Int) (y Int)) Int {body})")


# ---------------------------------------------------------------------------
# post-processor 1: grammar adherence


def test_max2_body_in_default_grammar(max2):
    s = max2_sol(max2, "(ite (>= x y) x y)")
    assert check_syntactic(max2, s) == {"max2": True}


def test_single_parameter_in_default_grammar(max2):
    assert check_syntactic(max2, max2_sol(max2, "x")) == {"max2": True}


def test_bvmul_not_in_hd17_d0():
    p = load("hd-17-d0.sl")
    s = sol(p, "(define-fun f ((x (BitVec 32))) (BitVec 32) (bvmul x x))")
    assert check_syntactic(p, s) == {"f": False}


def test_xnor_allowed_by_default_bool_grammar(inv_loop_fixed):
    s = sol(inv_loop_fixed,
            "(define-fun inv-f ((i Int) (j Int) (i0 Int) (j0 Int)) Bool"
            " (xnor (>= i 0) true))")
    assert check_syntactic(inv_loop_fixed, s) == {"inv-f": True}


# ---------------------------------------------------------------------------
# post-processor 2: semantics


def test_max2_correct_body_valid_on_exhaustive_grid(max2):
    s = max2_sol(max2, "(ite (>= x y) x y)")
    v = check_semantic(max2, s, EX8)
    assert v == Valid(certified=False)


def test_max2_projection_yields_counterexample(max2):
    s = max2_sol(max2, "x")
    v = check_semantic(max2, s, EX8)
    assert isinstance(v, CounterExample)
    assert v.valuation["y"] > v.valuation["x"]
    assert v.constraint_index == 1  # (>= (max2 x y) y)
    c = substituted_constraints(max2, s)[v.constraint_index]
    assert falsified(c, v.valuation, max2.defined_funs)


def test_lsz_fixed_width8_valid_exhaustively(lsz8_fixed):
    s = sol(lsz8_fixed, "(define-fun f ((x (BitVec 8))) (BitVec 8)"
                        " (bvand (bvnot x) (bvadd x #x01)))")
    assert check_semantic(lsz8_fixed, s, EX8) == Valid(certified=False)


def test_lsz_verbatim_width8_fails_at_all_ones(lsz8):
    # x = 0xff has no zero bit: (bvand (f x) (bvnot x)) = 0 for every f,
    # so the unrestricted first constraint rejects the intended function.
    s = sol(lsz8, "(define-fun f ((x (BitVec 8))) (BitVec 8)"
                  " (bvand (bvnot x) (bvadd x #x01)))")
    v = check_semantic(lsz8, s, EX8)
    assert isinstance(v, CounterExample)
    assert v.valuation["x"] == BV(8, 0xFF)
    assert v.constraint_index == 0


def test_exhaustive_refuses_oversized_domains():
    p = load("icfp_7_10.sl")  # no universals, but 64-bit would anyway
    q = load("lsz_bv32.sl")
    s = sol(q, "(define-fun f ((x (BitVec 32))) (BitVec 32) x)")
    assert check_semantic(q, s, EX8) == Unknown(UnknownReason.BUDGET)
    del p


def test_random_sample_is_deterministic(max2):
    s = max2_sol(max2, "x")
    strat = RandomSample(1000, seed=42)
    a = check_semantic(max2, s, strat)
    b = check_semantic(max2, s, strat)
    assert isinstance(a, CounterExample)
    assert a == b


@pytest.mark.parametrize("lo, hi", [(-20, 20), (-2, 2), (0, 1), (5, 5),
                                    (-7, -7), (-9, -3), (3, 1000),
                                    (-2**70, 2**70)])
@pytest.mark.parametrize("seed", [0, 1, 42, 2**40 + 3])
def test_int_drawer_matches_randint(lo, hi, seed):
    rng, reference = random.Random(seed), random.Random(seed)
    draw = int_drawer(rng, lo, hi)
    assert [draw() for _ in range(10_000)] == \
        [reference.randint(lo, hi) for _ in range(10_000)]
    assert rng.getstate() == reference.getstate()


def test_int_drawer_of_an_empty_range_raises_as_randint():
    with pytest.raises(ValueError):
        random.Random(0).randint(3, 2)
    with pytest.raises(ValueError):
        int_drawer(random.Random(0), 3, 2)()


# universals of every sort the sampler draws, an Int on either side
MIXED = """(set-logic LIA)
(synth-fun f () Int)
(declare-var a Int)
(declare-var b Bool)
(declare-var c (BitVec 8))
(declare-var d Int)
(constraint (or b (= a (+ d f)) (= c #x00)))
(check-synth)
"""


@pytest.mark.parametrize("lo, hi", [(-2, 2), (-20, 20)])
@pytest.mark.parametrize("seed", [0, 1, 2**40 + 3])
def test_sampled_points_are_per_point_draws_in_row_major_order(
        monkeypatch, lo, hi, seed):
    """The points a sampled check examines are randint, random() < 0.5 and
    getrandbits draws, one point after another, and they leave the rng as
    those draws do."""
    p = read_problem(MIXED)
    strat = RandomSample(10_000, seed, int_lo=lo, int_hi=hi)
    examined = []

    def first_points(p, constraints, points, grid=False):
        examined.extend(itertools.islice(points, 5_000))
        return Valid(certified=False)

    monkeypatch.setattr(checker, "_check_points", first_points)
    check_semantic(p, sol(p, "(define-fun f () Int 0)"), strat)
    reference = random.Random(seed)
    want = [(reference.randint(lo, hi), reference.random() < 0.5,
             reference.getrandbits(8), reference.randint(lo, hi))
            for _ in range(5_000)]
    assert examined == want
    assert all(type(b) is bool for _, b, _, _ in examined)
    rng = random.Random(seed)
    assert list(itertools.islice(sample_points(p.universals, strat, rng),
                                 5_000)) == want
    assert rng.getstate() == reference.getstate()


HD17_D0_WRONG = "(define-fun f ((x (BitVec 32))) (BitVec 32) x)"


@pytest.mark.parametrize("count", [0, -3])
def test_a_sample_count_below_one_is_unknown(count):
    # islice refuses a negative count: it must not reach the sampler
    p = load("hd-17-d0.sl")
    assert check_semantic(p, sol(p, HD17_D0_WRONG), RandomSample(
        count, 0)) == Unknown(UnknownReason.BUDGET)


def test_a_sample_count_past_sys_maxsize_still_checks(max2):
    # islice refuses a count past sys.maxsize; the earliest violated
    # point is the same whatever count lies beyond it
    wrong = max2_sol(max2, "x")
    got = check_semantic(max2, wrong, RandomSample(2**64, 0))
    assert isinstance(got, CounterExample)
    assert got == check_semantic(max2, wrong, RandomSample(100, 0))
    p = load("hd-17-d0.sl")
    got = check_semantic(p, sol(p, HD17_D0_WRONG), RandomSample(2**64, 0))
    assert isinstance(got, CounterExample)
    assert got == check_semantic(p, sol(p, HD17_D0_WRONG),
                                 RandomSample(100, 0))


@pytest.mark.parametrize("strat", [ExhaustiveSmall(1, -1), RandomSample(0, 0),
                                   RandomSample(-3, 0)],
                         ids=["empty-int-range", "no-samples", "negative-samples"])
def test_check_that_examined_no_point_is_unknown(max2, strat):
    s = max2_sol(max2, "x")
    v = check_semantic(max2, s, strat)
    assert v == Unknown(UnknownReason.BUDGET)
    assert v == reference_check(max2, substituted_constraints(max2, s), strat)
    assert check_semantic(max2, max2_sol(max2, "(ite (>= x y) x y)"),
                          strat) == Unknown(UnknownReason.BUDGET)


def test_sampling_an_empty_int_range_is_unknown(max2):
    empty = RandomSample(10, 0, int_lo=5, int_hi=3)
    for body in ("x", "(ite (>= x y) x y)"):
        assert check_semantic(max2, max2_sol(max2, body), empty) == Unknown(
            UnknownReason.BUDGET)
    # no universal draws from the Int range, so the one point is checked
    p = read_problem("(set-logic LIA)\n(synth-fun f () Int)\n"
                     "(constraint (= f 3))\n(check-synth)\n")
    assert check_semantic(p, sol(p, "(define-fun f () Int 4)"),
                          empty) == CounterExample({}, 0)


@pytest.mark.parametrize("make,field", [
    (lambda: RandomSample(2.5, 0), "count"),
    (lambda: RandomSample(100, None), "seed"),
    (lambda: RandomSample(10, 0, int_lo=0.5), "int_lo"),
    (lambda: RandomSample(10, 0, int_hi="20"), "int_hi"),
    (lambda: ExhaustiveSmall(-1.5, 2), "int_lo"),
    (lambda: ExhaustiveSmall(-2, None), "int_hi"),
    (lambda: ExhaustiveSmall(bv_width_cap=None), "bv_width_cap"),
], ids=["count", "seed", "int_lo", "int_hi", "grid_lo", "grid_hi", "bv_cap"])
def test_strategy_field_that_is_not_an_int_rejected(max2, make, field):
    # a float bound or count failed deep in the check, and a seed of None
    # gave a verdict that could not be replayed
    with pytest.raises(SygusError, match=field):
        check_semantic(max2, max2_sol(max2, "x"), make())


def test_problem_without_universals_checks_its_one_point():
    p = read_problem("(set-logic LIA)\n(synth-fun f () Int)\n"
                     "(constraint (= f 3))\n(check-synth)\n")
    empty = ExhaustiveSmall(1, -1)  # no universal draws from the Int range
    good = sol(p, "(define-fun f () Int 3)")
    bad = sol(p, "(define-fun f () Int 4)")
    assert check_semantic(p, good, empty) == Valid(certified=False)
    assert check_semantic(p, bad, empty) == CounterExample({}, 0)
    assert reference_check(p, substituted_constraints(p, bad),
                           empty) == CounterExample({}, 0)
    assert check_semantic(p, good, RandomSample(1, 0)) == Valid(certified=False)
    assert check_semantic(p, good, RandomSample(0, 0)) == Unknown(
        UnknownReason.BUDGET)


def test_division_by_zero_counts_as_falsified(max2):
    s = max2_sol(max2, "(div x 0)")
    v = check_semantic(max2, s, EX8)
    assert isinstance(v, CounterExample)


def test_layered_counterexample_short_circuits(max2):
    s = max2_sol(max2, "x")
    strat = Layered((EX8, ExternalSMT("no-such-solver-binary")))
    assert isinstance(check_semantic(max2, s, strat), CounterExample)


def test_layered_budget_valid_survives_unavailable_solver(max2):
    s = max2_sol(max2, "(ite (>= x y) x y)")
    strat = Layered((EX8, ExternalSMT("no-such-solver-binary")))
    assert check_semantic(max2, s, strat) == Valid(certified=False)


def test_external_solver_unavailable(max2):
    s = max2_sol(max2, "x")
    v = check_semantic(max2, s, ExternalSMT("no-such-solver-binary"))
    assert v == Unknown(UnknownReason.SOLVER_UNAVAILABLE)


# ---------------------------------------------------------------------------
# the compiled checker against a loop over evaluate

ROOT = Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def reference_check(p, constraints, strat, violated=None):
    """The verdict of a walk over dict points, drawing samples with the same
    rng calls as the checker. violated(point) is the first constraint false
    or raising at a point, by default evaluate's (falsified)."""
    if violated is None:
        def violated(point):
            return next((i for i, c in enumerate(constraints)
                         if falsified(c, point, p.defined_funs)), None)
    if isinstance(strat, Layered):
        provisional, unknown = None, Unknown(UnknownReason.BUDGET)
        for stage in strat.stages:
            r = reference_check(p, constraints, stage, violated)
            if isinstance(r, CounterExample):
                return r
            if isinstance(r, Valid):
                provisional = r
            else:
                unknown = r
        return provisional or unknown
    names, sorts = list(p.universals), list(p.universals.values())
    if isinstance(strat, ExhaustiveSmall):
        domains = []
        for sort in sorts:
            if sort == INT:
                domains.append(range(strat.int_lo, strat.int_hi + 1))
            elif sort == BOOL:
                domains.append([False, True])
            elif sort.width <= strat.bv_width_cap:
                domains.append([BV(sort.width, v)
                                for v in range(1 << sort.width)])
            else:
                return Unknown(UnknownReason.BUDGET)
        points = (dict(zip(names, vs)) for vs in itertools.product(*domains))
    else:
        rng = random.Random(strat.seed)

        def draw(sort):
            if sort == INT:
                return rng.randint(strat.int_lo, strat.int_hi)
            if sort == BOOL:
                return rng.random() < 0.5
            return BV(sort.width, rng.getrandbits(sort.width))
        points = ({n: draw(s) for n, s in zip(names, sorts)}
                  for _ in range(strat.count))
    checked = False
    for point in points:
        checked = True
        i = violated(point)
        if i is not None:
            return CounterExample(point, i)
    return Valid(certified=False) if checked else Unknown(UnknownReason.BUDGET)


def verdict_strategies(p):
    grid = ExhaustiveSmall()
    pts = grid_points(p.universals, grid)
    return {
        "grid": grid if pts is None or pts <= 300_000 else ExhaustiveSmall(-1, 1),
        "sample-0": RandomSample(500, 0),
        "sample-1": RandomSample(500, 1),
        "layered": Layered((ExhaustiveSmall(-1, 1, bv_width_cap=4),
                            RandomSample(300, 2, int_lo=-2, int_hi=2),
                            RandomSample(300, 3))),
    }


@pytest.mark.parametrize("strat_id", ["grid", "sample-0", "sample-1",
                                      "layered"])
@pytest.mark.parametrize("cand", workloads.CANDIDATES,
                         ids=[c.label for c in workloads.CANDIDATES])
def test_verdict_matches_evaluate_loop(cand, strat_id):
    p = load_problem(ROOT / cand.problem)
    s = parse_solution(cand.solution, p)
    strat = verdict_strategies(p)[strat_id]
    got = check_semantic(p, s, strat)
    want = reference_check(p, substituted_constraints(p, s), strat)
    assert got == want
    if isinstance(want, CounterExample):
        # the same names in the same order, a bit-vector as a BV
        assert ([(n, type(v)) for n, v in got.valuation.items()]
                == [(n, type(v)) for n, v in want.valuation.items()])


# ---------------------------------------------------------------------------
# the column-wise check against the per-point path and evaluate

# constraints that read errors: div and mod by zero under ite, and, or and a
# 3-ary =>, and a defined function (first) that ignores an argument that can
# err; the candidates add lets and more of the same
ERRING_LIA = """(set-logic LIA)
(define-fun first ((a Int) (b Int)) Int a)
(synth-fun f ((x Int) (y Int)) Int)
(declare-var x Int)
(declare-var y Int)
(constraint (=> (> (f x y) 0) (>= y 0) (>= (div x (f x y)) -9)))
(constraint (or (= y 0) (< (mod (f x y) y) 9) (> (div x y) 9)))
(constraint (and (< x 9) (ite (= (f x y) 0) true (< (div y (f x y)) 9))))
(constraint (>= (first (f x y) (div 1 (- (f x y) 1))) -9))
(check-synth)
"""
# an 8-bit and a 4-bit universal
TWO_WIDTHS = """(set-logic BV)
(synth-fun f ((x (BitVec 8))) (BitVec 8) ((S (BitVec 8) (x))))
(declare-var x (BitVec 8))
(declare-var y (BitVec 4))
(constraint (=> (bvult y #x8) (bvule (f x) (bvor x #x0f))))
(constraint (or (= y #x0) (not (= (f x) (bvadd x #x01)))))
(constraint (ite (bvslt y #x0) (bvuge (f x) (bvlshr x #x01)) true))
(check-synth)
"""
# constraints that read only x (the grid's outer universal), only y (its
# inner one), neither, and both; on the grid each of the four is the one
# reported for some of the seeded candidates
PROJECTED = """(set-logic LIA)
(define-fun first ((a Int) (b Int)) Int a)
(synth-fun f ((a Int) (b Int)) Int)
(declare-var x Int)
(declare-var y Int)
(constraint (=> (> (f x 1) 0) (< (div x (f x 1)) 6)))
(constraint (or (= y 0) (< (mod (f 2 y) y) 3)))
(constraint (>= (first (f 1 2) (div 1 (- (f 2 1) 1))) -9))
(constraint (< (f x y) 12))
(check-synth)
"""
NO_UNIVERSALS = """(set-logic LIA)
(define-fun first ((a Int) (b Int)) Int a)
(synth-fun f () Int)
(constraint (=> (> f 0) (< (div 10 f) 4)))
(constraint (or (= f 7) (not (= (mod 5 f) 1))))
(check-synth)
"""


def erring_grammar(params):
    """Int terms over params with +, -, div, mod, first, ite, two lets (one
    whose definition the body never reads), and Bool terms with and, or, a
    3-ary => and not."""
    from syguskit.grammar import make_grammar
    from syguskit.terms import TNT, Apply, FunSort, Let, Lit, Var
    s, b = TNT("S"), TNT("B")
    return make_grammar("S", [
        ("S", INT, [*(Var(n) for n in params), Lit(0), Lit(1), Lit(2),
                    Apply("+", (s, s)), Apply("-", (s, s)),
                    Apply("div", (s, s)), Apply("mod", (s, s)),
                    Apply("first", (s, s)), Apply("ite", (b, s, s)),
                    Let((("z", s),), Apply("+", (Var("z"), s))),
                    Let((("z", s),), s)]),
        ("B", BOOL, [Apply("<", (s, s)), Apply("=", (s, s)),
                     Apply("and", (b, b)), Apply("or", (b, b)),
                     Apply("=>", (b, b, b)), Apply("not", (b,))])],
        {n: INT for n in params}, {"first": FunSort((INT, INT), INT)})


def bv_grammar():
    from syguskit.grammar import make_grammar
    from syguskit.terms import TNT, Apply, Lit, Var
    w8 = bitvec(8)
    s, b = TNT("S"), TNT("B")
    return make_grammar("S", [
        ("S", w8, [Var("x"), Lit(BV(8, 1)), Lit(BV(8, 0x80)),
                   Apply("bvand", (s, s)), Apply("bvadd", (s, s)),
                   Apply("bvudiv", (s, s)), Apply("bvlshr", (s, s)),
                   Apply("ite", (b, s, s))]),
        ("B", BOOL, [Apply("bvult", (s, s)), Apply("=", (s, s)),
                     Apply("or", (b, b))])], {"x": w8})


def sample_stages(seed, count):
    """default_strategy's two sampling stages, with count samples each."""
    return Layered((RandomSample(count, seed, int_lo=-2, int_hi=2),
                    RandomSample(count, seed + 1)))


def per_point(p, s):
    """violated() for reference_check: the per-point path, _violated_index
    over the substituted constraints at the raw point."""
    constraints = substituted_constraints(p, s)
    return lambda point: _violated_index(
        p, constraints, tuple(raw_value(v) for v in point.values()))


def assert_three_paths_agree(p, s, strat):
    got = check_semantic(p, s, strat)
    constraints = substituted_constraints(p, s)
    want = reference_check(p, constraints, strat)
    assert got == want, term_to_sexpr(s.funcs["f"].body)
    assert reference_check(p, constraints, strat, per_point(p, s)) == want
    if isinstance(want, CounterExample):
        assert ([(n, type(v)) for n, v in got.valuation.items()]
                == [(n, type(v)) for n, v in want.valuation.items()])
    return got


DIFFERENTIAL = {
    # 17 x 17 grid points: blocks of 16, 32, 64, 128 and 49
    "erring_lia": (ERRING_LIA, lambda: erring_grammar(("x", "y")),
                   [ExhaustiveSmall(), sample_stages(3, 1100)]),
    # 4,096 grid points: blocks up to the cap of 1,024
    "two_widths": (TWO_WIDTHS, bv_grammar,
                   [ExhaustiveSmall(bv_width_cap=8), sample_stages(5, 300)]),
    "no_universals": (NO_UNIVERSALS, lambda: erring_grammar(()),
                      [ExhaustiveSmall(), sample_stages(7, 40)]),
    # on the grid, the first three are evaluated once per distinct value of
    # what they read
    "projected": (PROJECTED, lambda: erring_grammar(("a", "b")),
                  [ExhaustiveSmall(), sample_stages(9, 300)]),
}


@pytest.mark.parametrize("name", list(DIFFERENTIAL))
def test_column_check_matches_per_point_and_evaluate(name):
    """Seeded random candidates: the column-wise check, the per-point path
    and evaluate give the same verdict, valuation and constraint index."""
    text, grammar, strats = DIFFERENTIAL[name]
    p = read_problem(text)
    e = Enumerator(grammar(), ())
    rng = random.Random(name)
    kinds = set()
    for _ in range(40):
        size = rng.randint(1, 12)
        while not e.count("S", size):
            size -= 1
        body = e.sample("S", size, rng).term
        s = make_solution(p, {"f": body})
        for strat in strats:
            got = assert_three_paths_agree(p, s, strat)
            kinds.add((type(got).__name__, getattr(got, "constraint_index",
                                                   None)))
    # both verdicts occur, and more than one violated constraint
    assert {k for k, _ in kinds} == {"Valid", "CounterExample"}
    assert len(kinds) > 2, kinds


BOUNDARY_LIA = """(set-logic LIA)
(synth-fun f ((x Int) (y Int)) Int)
(declare-var x Int)
(declare-var y Int)
(constraint (not (= (f x y) 1)))
(constraint (< (f x y) 2))
(constraint (< (f x y) 3))
(check-synth)
"""


def failing_at(p, bad, worse):
    """f that is 3 at the point bad, where constraints 1 and 2 fail, 1 at
    the point worse, where only constraint 0 fails, and 0 elsewhere."""
    def at(point, v, rest):
        return (f"(ite (and (= x {point[0]}) (= y {point[1]})) {v} {rest})")
    return sol(p, "(define-fun f ((x Int) (y Int)) Int "
                  f"{at(bad, 3, at(worse, 1, 0))})")


@pytest.mark.parametrize("k", [15, 16, 47, 48, 111, 112, 239, 240])
def test_first_violation_on_a_block_boundary_of_the_grid(k):
    """Blocks hold 16, 32, 64 and 128 points: point k is the last or the
    first of one. Constraint 0 fails at the next point, and 1 and 2 at k."""
    p = read_problem(BOUNDARY_LIA)
    grid = list(itertools.product(range(-8, 9), repeat=2))
    s = failing_at(p, grid[k], grid[k + 1])
    got = assert_three_paths_agree(p, s, EX8)
    assert got == CounterExample(dict(zip("xy", grid[k])), 1)


def projected_boundary(x_only_first):
    """Constraint x_only (index 0 or 1) reads only x, the other both x and
    y; the candidate sets f to 2 on a whole row of x, where x_only fails,
    and to 1 at one point, where only the other fails."""
    both = "(constraint (not (= (f x y) 1)))"
    x_only = "(constraint (< (f x 0) 2))"
    return read_problem("(set-logic LIA)\n"
                        "(synth-fun f ((x Int) (y Int)) Int)\n"
                        "(declare-var x Int)\n(declare-var y Int)\n"
                        + "\n".join([x_only, both] if x_only_first
                                    else [both, x_only])
                        + "\n(check-synth)\n")


@pytest.mark.parametrize("x_only_first", [True, False])
@pytest.mark.parametrize("row", [-1, 1])
@pytest.mark.parametrize("k", [15, 16, 47, 48, 111, 112, 239, 240])
def test_projected_violation_near_a_block_boundary_of_the_grid(
        k, row, x_only_first):
    """Point k, the last or the first of a block, is where the constraint
    that reads both universals fails; the one that reads only x fails from
    the first point of the row of x before or after k's on. The earlier of
    the two is reported, as on the per-point path."""
    p = projected_boundary(x_only_first)
    grid = list(itertools.product(range(-8, 9), repeat=2))
    bx, by = grid[k]
    rx = bx + row
    s = sol(p, "(define-fun f ((x Int) (y Int)) Int "
               f"(ite (= x {rx}) 2 (ite (and (= x {bx}) (= y {by})) 1 0)))")
    got = assert_three_paths_agree(p, s, EX8)
    at = (rx + 8) * 17  # the first point of x's row
    if 0 <= at < k:
        want = CounterExample(dict(zip("xy", grid[at])), 1 - x_only_first)
    else:
        want = CounterExample(dict(zip("xy", grid[k])), int(x_only_first))
    assert got == want


def first_new(seed, lo, hi, k, fresh=lambda point: True):
    """The first seed from `seed` on whose sampled (x, y) points k and k + 1
    appear there first and pass fresh."""
    while True:
        rng = random.Random(seed)
        draw = int_drawer(rng, lo, hi)
        points = [(draw(), draw()) for _ in range(k + 2)]
        if (points[k] not in points[:k] and points[k + 1] not in points[:k + 1]
                and fresh(points[k]) and fresh(points[k + 1])):
            return seed, points
        seed += 1


@pytest.mark.parametrize("k", [15, 16, 47, 48])
@pytest.mark.parametrize("stage", [0, 1])
def test_first_violation_on_a_block_boundary_of_a_sample(stage, k):
    """Point k of the narrow stage, or of the wide one at points outside
    the narrow range, is where constraints 1 and 2 first fail."""
    p = read_problem(BOUNDARY_LIA)
    if stage == 0:
        seed, points = first_new(0, -2, 2, k)
    else:
        seed, points = first_new(1, -20, 20, k, lambda point: max(
            map(abs, point)) > 2)
        seed -= 1
    s = failing_at(p, points[k], points[k + 1])
    got = assert_three_paths_agree(p, s, sample_stages(seed, 200))
    assert got == CounterExample(dict(zip("xy", points[k])), 1)


# ---------------------------------------------------------------------------
# external solver protocol (scripted stand-in process)


def test_external_unsat_certifies(max2, tmp_path):
    cmd = fake_solver_script(tmp_path, "unsat\n")
    s = max2_sol(max2, "(ite (>= x y) x y)")
    assert check_semantic(max2, s, ExternalSMT(cmd)) == Valid(certified=True)


def test_external_sat_with_definefun_model(max2, tmp_path):
    out = "sat\n(model (define-fun x () Int 0) (define-fun y () Int 1))\n"
    cmd = fake_solver_script(tmp_path, out)
    v = check_semantic(max2, max2_sol(max2, "x"), ExternalSMT(cmd))
    assert v == CounterExample({"x": 0, "y": 1}, 1)


def test_external_sat_with_pair_model(max2, tmp_path):
    cmd = fake_solver_script(tmp_path, "sat\n((x 0) (y 1))\n")
    v = check_semantic(max2, max2_sol(max2, "x"), ExternalSMT(cmd))
    assert v == CounterExample({"x": 0, "y": 1}, 1)


def test_external_unknown(max2, tmp_path):
    cmd = fake_solver_script(tmp_path, "unknown\n")
    v = check_semantic(max2, max2_sol(max2, "x"), ExternalSMT(cmd))
    assert v == Unknown(UnknownReason.SOLVER_UNKNOWN)


def test_external_garbage_model(max2, tmp_path):
    cmd = fake_solver_script(tmp_path, "sat\n 1b((((\n")
    v = check_semantic(max2, max2_sol(max2, "x"), ExternalSMT(cmd))
    assert v == Unknown(UnknownReason.SOLVER_UNKNOWN)


def test_external_model_not_falsifying_is_unknown(max2, tmp_path):
    # claims sat but the point satisfies every constraint
    out = "sat\n((x 5) (y 1))\n"
    cmd = fake_solver_script(tmp_path, out)
    v = check_semantic(max2, max2_sol(max2, "x"), ExternalSMT(cmd))
    assert v == Unknown(UnknownReason.SOLVER_UNKNOWN)


def test_external_model_where_a_constraint_divides_by_zero(tmp_path):
    # at x = 2, y = 0 constraint 0 holds and constraint 1 divides by zero,
    # which counts as violated, as on the grid
    p = read_problem("(set-logic LIA)\n(synth-fun f ((x Int)) Int)\n"
                     "(declare-var x Int)\n(declare-var y Int)\n"
                     "(constraint (>= (f x) 0))\n"
                     "(constraint (= (div (f x) y) 1))\n(check-synth)\n")
    s = sol(p, "(define-fun f ((x Int)) Int x)")
    cmd = fake_solver_script(tmp_path, "sat\n((x 2) (y 0))\n")
    v = check_semantic(p, s, ExternalSMT(cmd))
    assert v == CounterExample({"x": 2, "y": 0}, 1)
    assert [falsified(c, v.valuation, p.defined_funs)
            for c in substituted_constraints(p, s)] == [False, True]


@pytest.mark.parametrize("model", ["((x #x05) (y 3))", "((x true) (y 3))"],
                         ids=["bitvector-for-int", "bool-for-int"])
def test_external_model_value_of_wrong_sort_is_unknown(max2, tmp_path, model):
    cmd = fake_solver_script(tmp_path, f"sat\n{model}\n")
    v = check_semantic(max2, max2_sol(max2, "x"), ExternalSMT(cmd))
    assert v == Unknown(UnknownReason.SOLVER_UNKNOWN)
    assert parse_model(model, max2.universals) is None


def test_model_value_shapes():
    u = {"a": INT, "b": INT, "c": bitvec(8), "d": bitvec(8), "e": BOOL}
    text = ("(model (define-fun a () Int (- 3))"
            " (define-fun b () Int 7)"
            " (define-fun c () (_ BitVec 8) #x0a)"
            " (define-fun d () (_ BitVec 8) (_ bv7 8))"
            " (define-fun e () Bool true))")
    assert parse_model(text, u) == {"a": -3, "b": 7, "c": BV(8, 10),
                                    "d": BV(8, 7), "e": True}


def test_model_missing_variables_default_to_zero():
    assert parse_model("((x 3))", {"x": INT, "y": INT}) == {"x": 3, "y": 0}


def test_model_without_anything_usable():
    assert parse_model("(model)", {"x": INT}) is None


# ---------------------------------------------------------------------------
# SMT-LIB emission


def test_emit_max2_negated_conjunction(max2):
    s = max2_sol(max2, "(ite (>= x y) x y)")
    script = emit_smtlib(max2, s)
    exprs = read_sexprs(script)  # must be well-formed
    assert sum(1 for e in exprs if e == ["check-sat"]) == 1
    (assertion,) = [e for e in exprs if isinstance(e, list)
                    and e and e[0] == "assert"]
    assert assertion[1][0] == "not"
    assert assertion[1][1][0] == "and"
    assert len(assertion[1][1]) == 4  # and + three constraints
    assert "(set-logic LIA)" in script


def test_emit_bv_declarations(lsz32):
    s = sol(lsz32, "(define-fun f ((x (BitVec 32))) (BitVec 32) x)")
    script = emit_smtlib(lsz32, s)
    assert "(declare-fun x () (_ BitVec 32))" in script
    assert "(declare-fun y () (_ BitVec 32))" in script
    assert "(set-logic QF_BV)" in script
    assert "bvshr" not in script and "bvlshr" in script


def test_emit_inv_problem(inv_loop_fixed):
    s = sol(inv_loop_fixed,
            "(define-fun inv-f ((i Int) (j Int) (i0 Int) (j0 Int)) Bool"
            " (and (>= i 0) (= (+ i j) (+ i0 j0))))")
    script = emit_smtlib(inv_loop_fixed, s)
    assert script.count("(declare-fun") == 8
    assert script.count("declare-fun") == script.count("() Int)")
    exprs = read_sexprs(script)
    (assertion,) = [e for e in exprs if isinstance(e, list)
                    and e and e[0] == "assert"]
    implications = [c for c in assertion[1][1][1:] if c[0] == "=>"]
    assert len(implications) == 3


def test_emit_converts_nonstandard_connectives(inv_loop_fixed):
    s = sol(inv_loop_fixed,
            "(define-fun inv-f ((i Int) (j Int) (i0 Int) (j0 Int)) Bool"
            " (nand (xnor (>= i 0) true) (nor false (iff true true))))")
    script = emit_smtlib(inv_loop_fixed, s)
    for op in ("nand", "nor", "xnor", "iff"):
        assert op not in script


def test_emit_unary_or_collapsed(max2):
    # the max2 listing contains (or (= y (max2 x y))); SMT-LIB or is binary+
    s = max2_sol(max2, "x")
    script = emit_smtlib(max2, s)
    for e in read_sexprs(script):
        def no_unary_nary(sx):
            if isinstance(sx, list) and sx:
                if sx[0] in ("and", "or", "+", "*"):
                    assert len(sx) >= 3
                for item in sx:
                    no_unary_nary(item)
        no_unary_nary(e)


def test_emit_negative_literal(max2):
    s = max2_sol(max2, "(ite (>= x y) x (- 5))")
    script = emit_smtlib(max2, s)
    assert "(- 5)" in script and "-5" not in script


def test_emit_unsupported_logic():
    p = read_problem("""(set-logic NRA)
    (synth-fun f ((x Int)) Int ((S Int (x))))
    (declare-var x Int)
    (constraint (= (f x) x))
    (check-synth)""")
    s = sol(p, "(define-fun f ((x Int)) Int x)")
    from syguskit.checker import UnsupportedLogic
    with pytest.raises(UnsupportedLogic):
        emit_smtlib(p, s)


# ---------------------------------------------------------------------------
# feature classification


def test_classify_max4():
    fs = classify_features(load("max4.sl"))
    assert fs.invocation == Invocation.SINGLE
    assert fs.unknown_count == 1


def test_classify_icfp_multiple_invocation():
    fs = classify_features(load("icfp_7_10.sl"))
    assert fs.invocation == Invocation.MULTIPLE
    assert fs.unknown_count == 1


def test_classify_s8_three_unknowns():
    fs = classify_features(load("s8.sl"))
    assert fs.unknown_count == 3
    # each unknown is applied with exactly one argument tuple here
    assert fs.invocation == Invocation.SINGLE


def test_classification_invariant_under_constraint_reordering(max2):
    import copy
    p = copy.copy(max2)
    p.constraints = list(reversed(max2.constraints))
    assert classify_features(p).invocation == classify_features(max2).invocation


def test_inv_problem_is_multiple_invocation(inv_loop):
    # inv is applied to both the plain and the primed tuples
    assert classify_features(inv_loop).invocation == Invocation.MULTIPLE
