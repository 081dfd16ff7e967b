import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest

from conftest import fake_solver_script, load
from syguskit.checker import (CounterExample, ExhaustiveSmall, ExternalSMT,
                              Invocation, Layered, RandomSample, Unknown,
                              UnknownReason, Valid, check_semantic,
                              check_syntactic, classify_features,
                              default_strategy, emit_smtlib, falsified,
                              grid_points, int_drawer, parse_model,
                              substituted_constraints)
from syguskit.frontend import load_problem, parse_solution, read_problem
from syguskit.sexpr import read_sexprs
from syguskit.terms import BOOL, BV, INT, bitvec

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


def reference_check(p, constraints, strat):
    """The verdict of a walk over dict points with evaluate, drawing samples
    with the same rng calls as the checker."""
    if isinstance(strat, Layered):
        provisional, unknown = None, Unknown(UnknownReason.BUDGET)
        for stage in strat.stages:
            r = reference_check(p, constraints, stage)
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
        for i, c in enumerate(constraints):
            if falsified(c, point, p.defined_funs):
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
