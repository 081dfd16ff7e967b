import random
from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from conftest import BENCHMARKS, DATA, data_text, load, term
from syguskit import frontend
from syguskit.frontend import (ArityMismatch, CandidateSolution,
                               DuplicateDeclaration,
                               MissingCheckSynth, MissingComponent,
                               MissingUnknown, SignatureMismatch, Track,
                               UnknownCommand, UnsupportedDefaultSort,
                               MAX_BV_WIDTH, default_grammar, fun_sorts,
                               parse_solution, parse_sort,
                               parse_term, print_problem,
                               print_solution, read_problem, term_to_sexpr)
from syguskit.grammar import Enumerator
from syguskit.sexpr import BV, print_sexpr, read_sexprs
from syguskit.terms import (BOOL, INT, TNT, Apply, FunSort, Let, Lit,
                            SortError, SygusError, THole, UndeclaredSymbol,
                            Var, bitvec, infer_sort, term_size)

REFERENCE_LISTINGS = ["lsz_bv32.sl", "max2.sl", "inv_loop.sl", "qm_loop_1.sl",
                  "hd-17-d0.sl", "hd-17-d1.sl", "hd-17-d5.sl"]


# ---------------------------------------------------------------------------
# parsing the reference listings


def test_max2_shape(max2):
    assert max2.track == Track.LIA
    u = max2.unknowns["max2"]
    assert [s for _, s in u.params] == [INT, INT]
    assert list(max2.universals.values()) == [INT, INT]
    assert len(max2.constraints) == 3
    ctx = {**max2.universals, **fun_sorts(max2.defined_funs, max2.unknowns)}
    assert all(infer_sort(c, ctx) == BOOL for c in max2.constraints)


def test_lsz32_shape(lsz32):
    u = lsz32.unknowns["f"]
    assert u.explicit
    # x, 0, 1 and four operator alternatives, as listed
    assert len(u.grammar.rules["Start"].productions) == 7
    assert list(lsz32.universals.values()) == [bitvec(32), bitvec(32)]
    assert len(lsz32.constraints) == 2


def test_undeclared_symbol_in_constraint():
    text = """(set-logic LIA)
    (synth-fun f ((x Int)) Int)
    (declare-var x Int)
    (constraint (= (f x) z))
    (check-synth)"""
    with pytest.raises(UndeclaredSymbol):
        read_problem(text)


def test_duplicate_declaration():
    text = """(set-logic LIA)
    (declare-var x Int)
    (declare-var x Int)
    (check-synth)"""
    with pytest.raises(DuplicateDeclaration):
        read_problem(text)


# a function named like a built-in operator would be the built-in in some
# layers (the evaluators look in OPS first) and the function in others
BUILT_IN_NAMED = {
    "define-fun": """(set-logic LIA)
    (define-fun + ((a Int) (b Int)) Int (- a b))
    (synth-fun f ((x Int)) Int)
    (declare-var x Int)
    (constraint (= (f x) (+ x x)))
    (check-synth)""",
    "synth-fun": """(set-logic LIA)
    (synth-fun + ((x Int) (y Int)) Int ((S Int (x y 0 1 (- S S)))))
    (declare-var x Int)
    (declare-var y Int)
    (constraint (= (+ x y) (- x y)))
    (check-synth)""",
    "synth-inv": """(set-logic LIA)
    (synth-inv and ((i Int)))
    (declare-primed-var i Int)
    (define-fun pre ((i Int)) Bool (= i 0))
    (define-fun trans ((i Int) (i! Int)) Bool (= i! i))
    (define-fun post ((i Int)) Bool (>= i 0))
    (inv-constraint and pre trans post)
    (check-synth)""",
}


@pytest.mark.parametrize("command", sorted(BUILT_IN_NAMED))
def test_built_in_operator_name_rejected(command):
    with pytest.raises(DuplicateDeclaration, match="built-in operator"):
        read_problem(BUILT_IN_NAMED[command])


def test_definition_calling_an_unknown_rejected():
    # a definition body is inlined where no unknown is resolved, and it is
    # printed before the unknowns are declared
    text = """(set-logic LIA)
    (synth-fun f ((x Int)) Int)
    (define-fun g ((x Int)) Int (f x))
    (declare-var x Int)
    (constraint (= (g x) (+ x 1)))
    (check-synth)"""
    with pytest.raises(UndeclaredSymbol):
        read_problem(text)


def test_missing_check_synth():
    with pytest.raises(MissingCheckSynth):
        read_problem("(set-logic LIA)")


def test_unknown_command_is_hard_error():
    with pytest.raises(UnknownCommand):
        read_problem("(set-option :foo bar)\n(check-synth)")


def test_check_synth_with_arguments_is_hard_error():
    with pytest.raises(UnknownCommand):
        read_problem("(set-logic LIA)(synth-fun f ((x Int)) Int)"
                     "(check-synth extra junk)")


def test_negative_literals_both_spellings():
    assert term("-5") == Lit(-5)
    assert term("(- 5)") == Lit(-5)


def test_let_in_constraints_is_substituted():
    text = """(set-logic LIA)
    (declare-var x Int)
    (constraint (let ((y (+ x 1))) (> y x)))
    (check-synth)"""
    p = read_problem(text)
    assert p.constraints == [term("(> (+ x 1) x)", {"x": INT})]


def test_int_literal_adapts_to_bitvector_context():
    t = term("(bvult 0 x)", {"x": bitvec(32)})
    assert t == Apply("bvult", (Lit(__import__("syguskit.terms",
                                               fromlist=["BV"]).BV(32, 0)),
                               Var("x")))


def test_bit_vector_width_is_capped_at_64():
    assert MAX_BV_WIDTH == 64
    assert parse_sort(["BitVec", 64]) == bitvec(64)
    with pytest.raises(SortError, match="width 65 is above the maximum of 64"):
        parse_sort(["BitVec", 65])


def test_oversized_literal_rejected_in_bv_context():
    with pytest.raises(SortError):
        term("(bvand x 300)", {"x": bitvec(8)})
    with pytest.raises(SortError, match="256"):
        term("(= (ite c 1 256) x)", {"c": BOOL, "x": bitvec(8)})


def test_int_ite_and_let_take_a_sibling_width():
    ctx = {"c": BOOL, "x": bitvec(8)}
    one, two = Lit(BV(8, 1)), Lit(BV(8, 2))
    ite = Apply("ite", (Var("c"), one, two))
    assert term("(= (let ((y c)) (ite y 1 2)) x)", ctx) == Apply(
        "=", (ite, Var("x")))
    with pytest.raises(SortError, match="got Int: y"):  # a name keeps its sort
        term("(bvadd (let ((y 1)) (ite c y 2)) x)", ctx)
    with pytest.raises(SortError, match="got Int: ite"):  # a nullary function
        term("(bvadd ite x)", ctx, {"ite": FunSort((), INT)})


def test_each_subterm_is_parsed_once(monkeypatch):
    # each level's Int ite fits its branches to x's width; parsing it again
    # against that width would parse the levels below twice
    e = ["=", "x", "x"]
    for _ in range(12):
        e = ["=", ["ite", e, 1, 2], "x"]
    parse, calls = frontend.parse_template, []

    def counted(*args):
        calls.append(args[0])
        return parse(*args)

    monkeypatch.setattr(frontend, "parse_template", counted)
    p = read_problem("(set-logic BV)(declare-var x (BitVec 8))"
                     f"(constraint {print_sexpr(e)})(check-synth)")

    def nodes(sx):
        return 1 + sum(map(nodes, sx)) if isinstance(sx, list) else 1

    assert len(calls) <= nodes(e)
    assert print_problem(p).count("(ite") == print_problem(p).count("#x01") == 12


@pytest.mark.parametrize("production", ["(=)", "(= x)", "(ite B)", "(ite B x)"])
def test_short_equality_or_ite_production_is_sort_error(production):
    # too few operands is a sort error, not an index past the operands
    text = ("(set-logic LIA)(synth-fun f ((x Int)) Int "
            f"((S Int (x {production})) (B Bool (true))))"
            "(declare-var x Int)(constraint (= (f x) x))(check-synth)")
    with pytest.raises(SortError):
        read_problem(text)


# g's grammar calls the unknown f: no solution could define g that way.
CROSS_UNKNOWN_GRAMMAR = """(set-logic LIA)
(synth-fun f ((x Int)) Int)
(synth-fun g ((x Int)) Int ((T Int (x (f T)))))
(declare-var x Int)
(constraint (= (g x) (f x)))
(check-synth)
"""


def test_grammar_calls_defined_functions_but_no_unknown():
    with pytest.raises(UndeclaredSymbol):
        read_problem(CROSS_UNKNOWN_GRAMMAR)
    p = read_problem(CROSS_UNKNOWN_GRAMMAR.replace(
        "(synth-fun f ((x Int)) Int)", "(define-fun f ((x Int)) Int (+ x 1))"))
    productions = p.unknowns["g"].grammar.rules["T"].productions
    assert Apply("f", (TNT("T"),)) in productions


def test_constant_hole_in_a_term_is_an_input_error():
    head = "(set-logic LIA)(synth-fun f ((x Int)) Int)(declare-var x Int)"
    with pytest.raises(SygusError):
        read_problem(head + "(constraint (= (f x) (Constant Int)))(check-synth)")
    with pytest.raises(SygusError):
        read_problem("(set-logic LIA)(define-fun c () Int (+ 1 (Constant Int)))"
                     "(synth-fun f ((x Int)) Int)(check-synth)")


# A production is parsed exactly as the same text in a constraint: an Int
# literal adapts to the width that an ite's expected sort or a declared
# function's parameter sort fixes.
QB_PROBLEM = """(set-logic BV)
(define-fun qb ((a (BitVec 8)) (b (BitVec 8))) (BitVec 8) (bvadd a b))
(synth-fun f ((x (BitVec 8))) (BitVec 8)
  ((S (BitVec 8) (x (ite B 0 1) (qb S 1)))
   (B Bool ((bvult x S)))))
(declare-var x (BitVec 8))
(constraint (= (f x) (ite (bvult x (qb x 1)) 0 1)))
(check-synth)
"""


def test_bitvector_ite_and_declared_function_productions():
    p = read_problem(QB_PROBLEM)
    zero, one = Lit(BV(8, 0)), Lit(BV(8, 1))
    assert p.unknowns["f"].grammar.rules["S"].productions == (
        Var("x"), Apply("ite", (TNT("B"), zero, one)),
        Apply("qb", (TNT("S"), one)))
    x, b8 = Var("x"), bitvec(8)
    qb = {"qb": FunSort((b8, b8), b8)}
    assert term("(ite b 0 1)", {"b": BOOL}, expected=b8) == Apply(
        "ite", (Var("b"), Lit(BV(8, 0)), Lit(BV(8, 1))))
    assert term("(qb x 1)", {"x": b8}, qb) == Apply("qb", (x, Lit(BV(8, 1))))
    assert read_problem(print_problem(p)) == p
    # either branch may leave its width to the ite's expected sort
    ctx, neg = {"b": BOOL, "v": b8}, Apply("bvnot", (Lit(BV(8, 15)),))
    assert term("(ite b (bvnot 15) v)", ctx, expected=b8) == Apply(
        "ite", (Var("b"), neg, Var("v")))
    assert term("(ite b v (bvnot 15))", ctx, expected=b8) == Apply(
        "ite", (Var("b"), Var("v"), neg))


@lru_cache(maxsize=None)
def _roundtrip_case(name):
    """(enumerator, parameter sorts, functions) of a let-free grammar."""
    xy = (("x", INT), ("y", INT))
    if name in ("default-int", "default-bool"):
        g = default_grammar(xy, INT if name == "default-int" else BOOL)
        return Enumerator(g, [-3, 0, 1, 7]), dict(xy), {}
    u = next(iter(load(name).unknowns.values()))
    funs = {"qm": FunSort((INT, INT), INT)} if name == "qm_loop_1.sl" else {}
    return Enumerator(u.grammar), dict(u.params), funs


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["default-int", "default-bool", "hd17_w8.sl",
                        "qm_loop_1.sl"]),
       st.integers(1, 11), st.integers(0, 2**32))
def test_sampled_terms_print_and_parse_back(name, size, seed):
    enumr, params, funs = _roundtrip_case(name)
    g = enumr.g
    assume(enumr.count(g.start, size) > 0)
    t = enumr.sample(g.start, size, random.Random(seed)).term
    (sx,) = read_sexprs(print_sexpr(term_to_sexpr(t)))
    assert parse_term(sx, params, funs, g.start_sort) == (t, g.start_sort)


# ---------------------------------------------------------------------------
# round-trips


@pytest.mark.parametrize("name", REFERENCE_LISTINGS)
def test_reference_listing_roundtrip(name):
    p1 = read_problem(data_text(name))
    text = print_problem(p1)
    p2 = read_problem(text)
    assert p1 == p2
    assert print_problem(p2) == text  # printing is a fixpoint


@pytest.mark.parametrize("name", sorted(f.name for f in DATA.glob("*.sl")))
def test_every_data_file_roundtrips(name):
    p1 = read_problem(data_text(name))
    p2 = read_problem(print_problem(p1))
    assert p1 == p2


BOOL_CLIA = """(set-logic LIA)
(synth-fun f ((x Int) (y Int)) Bool)
(declare-var x Int)
(declare-var y Int)
(constraint (= (f x y) (<= x y)))
(check-synth)
"""
LOOP_SUM = (BENCHMARKS / "invariants" / "loop_sum.sl").read_text()

# shapes the corpus lacks: only the synth-inv prints as one, only an explicit
# grammar is printed, and plain constraints sit beside an inv-constraint
ROUNDTRIP_SHAPES = {
    "grammarless-bool-lia": BOOL_CLIA,
    "bool-synth-fun-beside-synth-inv": LOOP_SUM.replace(
        "(check-synth)",
        "(synth-fun g ((i Int)) Bool)\n(constraint (g i))\n(check-synth)"),
    "loop-sum-with-plain-constraint": LOOP_SUM.replace(
        "(check-synth)", "(constraint (>= i0 0))\n(check-synth)"),
    "explicit-bool-grammar-lia": """(set-logic LIA)
(synth-fun f ((x Int) (y Int)) Bool ((B Bool ((<= I I) (not B))) (I Int (x y 0))))
(synth-fun h ((x Int)) Int)
(declare-var x Int)
(declare-var y Int)
(constraint (= (f x y) (<= x y)))
(constraint (= (h x) x))
(check-synth)
""",
}


@pytest.mark.parametrize("name", sorted(ROUNDTRIP_SHAPES))
def test_shapes_the_corpus_lacks_roundtrip(name):
    p1 = read_problem(ROUNDTRIP_SHAPES[name])
    text = print_problem(p1)
    p2 = read_problem(text)
    assert p2 == p1
    assert print_problem(p2) == text
    assert len(p2.constraints) == len(p1.constraints)


# (= 0 1) and (= false true) are distinct productions: 0 is not false
LITERAL_EQ_GRAMMAR = """(set-logic LIA)
(synth-fun f ((x Int)) Bool ((B Bool ((= 0 1) (= false true) (< x 0)))))
(declare-var x Int)
(constraint (not (f x)))
(check-synth)
"""


def test_int_and_bool_literal_productions_roundtrip():
    p1 = read_problem(LITERAL_EQ_GRAMMAR)
    text = print_problem(p1)
    assert "(= false true)" in text
    assert read_problem(text) == p1


def test_let_binding_hides_a_nullary_function_applied_as_a_call():
    p = read_problem("""(set-logic LIA)
(define-fun c () Int 7)
(synth-fun f ((x Int)) Int ((S Int (x (c) (let ((c 1)) (+ x (c)))))))
(declare-var x Int)
(constraint (= (f x) (+ x 1)))
(check-synth)
""")
    productions = p.unknowns["f"].grammar.rules["S"].productions
    assert productions[1] == Apply("c", ())
    assert productions[2] == Let((("c", Lit(1)),),
                                 Apply("+", (Var("x"), Var("c"))))
    assert read_problem(print_problem(p)) == p


def test_type_soundness_over_corpus():
    for f in sorted(DATA.glob("*.sl")):
        p = read_problem(f.read_text())
        ctx = {**p.universals, **fun_sorts(p.defined_funs, p.unknowns)}
        for c in p.constraints:
            assert infer_sort(c, ctx) == BOOL


def test_track_inference_is_order_independent():
    base = """(set-logic LIA)
    (synth-fun f ((x Int)) Int)
    (declare-var x Int)
    (constraint (>= (f x) x))
    (check-synth)"""
    reordered = """(set-logic LIA)
    (declare-var x Int)
    (synth-fun f ((x Int)) Int)
    (constraint (>= (f x) x))
    (check-synth)"""
    assert read_problem(base).track == read_problem(reordered).track == Track.LIA


# ---------------------------------------------------------------------------
# invariant-track desugaring


def test_inv_desugaring_counts(inv_loop):
    assert inv_loop.track == Track.INV
    assert len(inv_loop.universals) == 8
    assert len(inv_loop.constraints) == 3
    u = inv_loop.unknowns["inv-f"]
    assert [s for _, s in u.params] == [INT] * 4
    assert u.ret == BOOL
    assert not u.explicit
    assert u.grammar.start == "StartBool"


def test_inductive_constraint_contains_decrement(inv_loop):
    from syguskit.terms import subterms
    wanted = term("(= i! (- i 1))", {"i": INT, "i!": INT})
    assert any(wanted in set(subterms(c)) for c in inv_loop.constraints)


def test_no_sugar_remains_and_unknown_has_grammar(inv_loop):
    assert inv_loop.unknowns["inv-f"].grammar is not None
    for c in inv_loop.constraints:
        infer_sort(c, {**inv_loop.universals,
                       **fun_sorts(inv_loop.defined_funs, inv_loop.unknowns)})


def test_trans_arity_mismatch():
    text = """(set-logic LIA)
    (synth-inv inv ((i Int)))
    (declare-primed-var i Int)
    (define-fun pre ((i Int)) Bool (= i 0))
    (define-fun trans ((i Int)) Bool true)
    (define-fun post ((i Int)) Bool (>= i 0))
    (inv-constraint inv pre trans post)
    (check-synth)"""
    with pytest.raises(ArityMismatch):
        read_problem(text)


def test_missing_component():
    text = data_text("inv_loop.sl").replace(
        "(inv-constraint inv-f pre-f trans-f post-f)",
        "(inv-constraint inv-f pre-f trans-f missing-f)")
    with pytest.raises(MissingComponent):
        read_problem(text)


def test_second_synth_inv_rejected():
    text = data_text("inv_loop.sl").replace(
        "(synth-inv inv-f ((i Int) (j Int) (i0 Int) (j0 Int)))",
        "(synth-inv inv-f ((i Int) (j Int) (i0 Int) (j0 Int)))\n"
        "(synth-inv inv-g ((i Int) (j Int) (i0 Int) (j0 Int)))")
    with pytest.raises(DuplicateDeclaration):
        read_problem(text)


# ---------------------------------------------------------------------------
# the default grammar


def test_default_grammar_production_multiset():
    g = default_grammar((("x", INT), ("y", INT)), INT)
    si, sb, ci = TNT("StartInt"), TNT("StartBool"), TNT("ConstantInt")
    assert g.start == "StartInt"
    assert list(g.rules["StartInt"].productions) == [
        Var("x"), Var("y"), ci,
        Apply("+", (si, si)), Apply("-", (si, si)),
        Apply("*", (si, ci)), Apply("*", (ci, si)),
        Apply("div", (si, ci)), Apply("mod", (si, ci)),
        Apply("ite", (sb, si, si))]
    assert g.rules["ConstantInt"].productions == (THole(INT),)
    ops = [p.op for p in g.rules["StartBool"].productions
           if isinstance(p, Apply)]
    assert ops == ["and", "or", "=>", "xor", "xnor", "nand", "nor", "iff",
                   "not", "=", "<=", "=", ">=", ">", "<"]
    assert len(g.rules["StartBool"].productions) == 17


def test_synth_inv_starts_at_bool(inv_loop):
    assert inv_loop.unknowns["inv-f"].grammar.start == "StartBool"


def test_bv_parameter_unsupported():
    with pytest.raises(UnsupportedDefaultSort):
        default_grammar((("x", bitvec(8)),), bitvec(8))


def test_grammarless_non_lia_logic_rejected():
    text = """(set-logic BV)
    (synth-fun f ((x (BitVec 8))) (BitVec 8))
    (declare-var x (BitVec 8))
    (constraint (= (f x) x))
    (check-synth)"""
    with pytest.raises(UnsupportedDefaultSort):
        read_problem(text)


# ---------------------------------------------------------------------------
# solutions


def test_parse_solution_max2(max2):
    sol = parse_solution(
        "(define-fun max2 ((x Int) (y Int)) Int (ite (>= x y) x y))", max2)
    assert set(sol.funcs) == {"max2"}
    assert term_size(sol.funcs["max2"].body) == 6
    # printing matches the format parse_solution consumes, bit for bit
    assert parse_solution(print_solution(sol), max2).funcs == sol.funcs


def test_solution_missing_unknown():
    s8 = load("s8.sl")
    text = ("(define-fun f1 ((x Int) (y Int) (z Int)) Int x)\n"
            "(define-fun f2 ((x Int) (y Int) (z Int)) Int (- y 1))")
    with pytest.raises(MissingUnknown):
        parse_solution(text, s8)


def test_solution_wrong_return_sort(max2):
    with pytest.raises(SignatureMismatch):
        parse_solution("(define-fun max2 ((x Int) (y Int)) Bool (>= x y))",
                       max2)


def test_solution_body_sort_error(max2):
    with pytest.raises(SortError):
        parse_solution("(define-fun max2 ((x Int) (y Int)) Int (>= x y))",
                       max2)


def test_solution_param_rename_rejected(max2):
    with pytest.raises(SignatureMismatch):
        parse_solution("(define-fun max2 ((a Int) (b Int)) Int a)", max2)


def test_helper_definitions_are_inlined(max2):
    text = ("(define-fun pick ((a Int) (b Int)) Int (ite (>= a b) a b))\n"
            "(define-fun max2 ((x Int) (y Int)) Int (pick x y))")
    sol = parse_solution(text, max2)
    assert sol.funcs["max2"].body == term("(ite (>= x y) x y)",
                                          {"x": INT, "y": INT})


def test_helper_named_like_a_built_in_rejected(max2):
    text = ("(define-fun + ((a Int) (b Int)) Int (- a b))\n"
            "(define-fun max2 ((x Int) (y Int)) Int (+ x y))")
    with pytest.raises(DuplicateDeclaration, match="built-in operator"):
        parse_solution(text, max2)


def test_duplicate_solution_rejected(max2):
    text = ("(define-fun max2 ((x Int) (y Int)) Int x)\n"
            "(define-fun max2 ((x Int) (y Int)) Int y)")
    with pytest.raises(DuplicateDeclaration):
        parse_solution(text, max2)
