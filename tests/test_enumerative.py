from itertools import product

import pytest

from conftest import (SEVEN, div_grammar, let_grammar, load, raw_signature,
                      term, two_width_grammar, typed)
from test_scorer import PROBLEMS
from syguskit.cegis import (ERR, Deadline, ExampleSet, Exhausted, Scorer,
                            Solved, TimedOut, base_constant_pool,
                            induced_bindings, make_solution,
                            pool_with_examples, signature,
                            unknown_invocations)
from syguskit.checker import (CounterExample, ExhaustiveSmall, Valid,
                              check_semantic, check_syntactic,
                              default_strategy)
from syguskit.enumerative import (Bank, BudgetExpired, EnumConfig,
                                  solve_enumerative)
from syguskit.frontend import read_problem
from syguskit.grammar import compositions
from syguskit.terms import (BV, INT, Apply, FunDef, FunSort, Lit, SygusError,
                            Var)

EX8 = ExhaustiveSmall()


# ---------------------------------------------------------------------------
# signatures and induced bindings


def test_signature_of_variable(max2):
    E = ExampleSet([{"x": 1, "y": 2}, {"x": 3, "y": 0}])
    bindings, _ = induced_bindings(max2, "max2", E)
    assert signature(Var("x"), bindings, {}) == (1, 3)


def test_signature_error_token(max2):
    E = ExampleSet([{"x": 1, "y": 2}, {"x": 3, "y": 0}])
    bindings, _ = induced_bindings(max2, "max2", E)
    t = term("(div x 0)", {"x": INT})
    assert signature(t, bindings, {}) == (ERR, ERR)


def test_commutative_terms_share_signatures(max2):
    E = ExampleSet([{"x": 1, "y": 2}, {"x": -3, "y": 7}, {"x": 0, "y": 0}])
    bindings, _ = induced_bindings(max2, "max2", E)
    ctx = {"x": INT, "y": INT}
    assert signature(term("(+ x y)", ctx), bindings, {}) == \
        signature(term("(+ y x)", ctx), bindings, {})


def test_bindings_follow_invocations():
    icfp = load("icfp_7_10.sl")
    assert len(unknown_invocations(icfp)["f"]) == 5
    E = ExampleSet([{}])  # ground constraints: the empty valuation
    bindings, index = induced_bindings(icfp, "f", E)
    assert len(bindings) == 5
    assert bindings[0] == {"x": BV(64, 0x1BE88589BA201842)}
    assert index[(0, 4)] == 4


def test_constant_pool_policy(max2, qm_loop):
    assert base_constant_pool(max2) == (-1, 0, 1, 2)
    assert base_constant_pool(qm_loop) == (-1, 0, 1, 2, 3)
    E = ExampleSet([{"x": -8, "y": 5}])
    assert pool_with_examples(base_constant_pool(max2), E) == \
        (-1, 0, 1, 2, -8, 5)


# ---------------------------------------------------------------------------
# bank growth / observational equivalence


def grow(grammar, bindings, pool, size_limit, prune=True, defs=None):
    bank = Bank(grammar, bindings, pool, prune, defs)
    bank.build_to(size_limit)
    return bank.terms


def test_grow_merges_by_signature(max2):
    E = ExampleSet([{"x": 0, "y": 1}])
    bindings, _ = induced_bindings(max2, "max2", E)
    g = max2.unknowns["max2"].grammar
    banks = grow(g, bindings, pool=[0, 1], size_limit=1)
    # x evaluates to 0 (merging the constant 0), y to 1 (merging constant 1)
    assert banks["StartInt"][1] == [(Var("x"), (0,)), (Var("y"), (1,))]


def test_grow_with_no_examples_keeps_one_per_size(max2):
    g = max2.unknowns["max2"].grammar
    banks = grow(g, bindings=[], pool=[0, 1], size_limit=4)
    for nt, by_size in banks.items():
        for size, entries in by_size.items():
            if entries:
                assert len(entries) == 1, (nt, size)


def test_grow_lsz_size_two(lsz32):
    g = lsz32.unknowns["f"].grammar
    # distinct outputs at x=5 keep all three bvnot terms apart
    banks = grow(g, bindings=[{"x": BV(32, 5)}], pool=[], size_limit=2)
    assert [t for t, _ in banks["Start"][2]] == [
        Apply("bvnot", (Var("x"),)),
        Apply("bvnot", (Lit(BV(32, 0)),)),
        Apply("bvnot", (Lit(BV(32, 1)),))]
    # with no examples the three collapse into one representative
    banks0 = grow(g, bindings=[], pool=[], size_limit=2)
    assert len(banks0["Start"][2]) == 1


def let_div_grammar():
    """S over x and 0 with div and a let whose body reads its binding only
    where x < 0: the binding is evaluated, and may fail, either way."""
    from syguskit.grammar import make_grammar
    from syguskit.terms import TNT, Let
    s, x = TNT("S"), Var("x")
    guarded = Let((("y", s),), Apply("ite", (Apply("<", (x, Lit(0))),
                                             Var("y"), x)))
    return make_grammar("S", [("S", INT, [x, Lit(0), Apply("div", (s, s)),
                                          guarded])], {"x": INT})


def defs_grammar():
    """Calls of defined functions: half divides by its argument, inc is a
    bit-vector function, and sign takes a bit-vector and an Int."""
    from syguskit.grammar import make_grammar
    from syguskit.terms import TNT, bitvec
    w8 = bitvec(8)
    ctx = {"a": INT, "v": w8}
    defs = {"half": FunDef("half", (("a", INT),), INT, term("(div 10 a)", ctx)),
            "inc": FunDef("inc", (("v", w8),), w8, term("(bvadd v #x01)", ctx)),
            "sign": FunDef("sign", (("v", w8), ("a", INT)), INT,
                           term("(ite (bvult v #x80) a (- a))", ctx))}
    s, b = TNT("S"), TNT("V")
    g = make_grammar("S", [
        ("S", INT, [Var("x"), Lit(0), Apply("half", (s,)), Apply("+", (s, s)),
                    Apply("sign", (b, s))]),
        ("V", w8, [Lit(BV(8, 1)), Lit(BV(8, 0x80)), Apply("inc", (b,)),
                   Apply("bvadd", (b, b))])], {"x": INT},
        {n: FunSort(f.param_sorts, f.ret) for n, f in defs.items()})
    return g, defs


CASES = ["qm_loop", "let", "div", "hole_div", "hd17_w8", "let_div", "defs",
         "two_widths"]


def bank_case(case):
    """(grammar, defined functions, size limit, bindings, pool) of a case."""
    from syguskit.frontend import default_grammar
    bindings, pool = [{"x": v} for v in (-2, 0, 3)], []
    if case == "qm_loop":
        p = load("qm_loop_1.sl")
        g, defs, limit = p.unknowns["qm-loop"].grammar, p.defined_funs, 5
    elif case == "let":
        # one-binding lets at sizes 6, 8, 10, 11 and 12; two-binding ones at
        # 10 and 12, where their bindings' sizes split three ways
        g, defs, limit = let_grammar(), {}, 12
    elif case == "div":
        # a literal 0 divisor is kept by both, so banks hold error tokens;
        # size 9 has and/or/=> with an erring operand before and after the
        # one that settles them; (seven) is a nullary defined function
        g, defs, limit = div_grammar(), {"seven": SEVEN}, 9
        bindings = [{"x": v} for v in (-2, 0, 9)]
    elif case == "hole_div":
        # the divisor is the nonterminal ConstantInt, whose hole draws 0 and
        # 2 from the pool; only 2 may fill it
        g, defs, limit = default_grammar((("x", INT),), INT), {}, 4
        pool = [0, 2]
    elif case == "defs":
        # half(0) fails, so banks hold error tokens from a compiled body;
        # inc and sign take bit-vectors, and inc gives one back
        (g, defs), limit = defs_grammar(), 7
    elif case == "two_widths":
        # 8- and 4-bit operators, each applied at its own operands' width
        g, defs, limit = two_width_grammar(), {}, 7
        bindings = [{"x": BV(8, x), "y": BV(4, y)}
                    for x, y in ((0x00, 0x8), (0x7f, 0xf), (0x80, 0x7),
                                 (0xff, 0x0))]
        pool = [BV(4, 9), BV(8, 0x80)]
    elif case == "let_div":
        # (let ((y (div x 0))) (ite (< x 0) y x)) has size 11 and fails at
        # every point, x = 3 included
        g, defs, limit = let_div_grammar(), {}, 11
    else:
        g, defs, limit = load("hd17_w8.sl").unknowns["f"].grammar, {}, 7
        bindings = [{"x": BV(8, v)} for v in (0x00, 0x80, 0xff)]
    return g, defs, limit, bindings, pool


@pytest.mark.parametrize("case", CASES)
def test_unpruned_grow_matches_enumeration(case):
    from syguskit.grammar import Enumerator
    g, defs, limit, bindings, pool = bank_case(case)
    banks = grow(g, bindings, pool=pool, size_limit=limit, prune=False,
                 defs=defs)
    e = Enumerator(g, pool)
    for nt in g.rules:
        for size in range(1, limit + 1):
            entries = banks[nt].get(size, [])
            assert [t for t, _ in entries] == list(e.enumerate(nt, size))
            for t, sig in entries:
                assert typed(sig) == typed(raw_signature(t, bindings, defs)), t
    if case == "div":
        kept = dict(pair for by_size in banks["B"].values() for pair in by_size)
        ctx, funs = {"x": INT}, {"seven": FunSort((), INT)}
        assert kept[term("(< (div x 0) seven)", ctx, funs)] == (ERR, ERR, ERR)
        assert kept[term("(and (< x seven) (< (div x 0) x))", ctx, funs)] == \
            (ERR, ERR, False)
        assert kept[term("(or (< x seven) (< (div x 0) x))", ctx, funs)] == \
            (True, True, ERR)
        assert kept[term("(=> (< seven x) (< (div x 0) x))", ctx, funs)] == \
            (True, True, ERR)


@pytest.mark.parametrize("case", CASES)
def test_pruned_pairs_are_the_unpruned_walks_first_per_signature(case):
    """A pruned bank skips (op b a) of a commutative op (+ in most cases,
    bvand and bvadd in hd17_w8, = in two_widths) where (op a b) came first,
    and yet keeps what keeping the first pair per signature of the whole
    walk keeps, in its order."""
    g, defs, limit, bindings, pool = bank_case(case)
    pruned = Bank(g, bindings, pool, True, defs)
    unpruned = Bank(g, bindings, pool, False, defs)
    for size in range(1, limit + 1):
        for nt in g.rules:
            first: dict = {}
            for t, sig in unpruned.pairs(nt, size):
                first.setdefault(typed(sig), (t, sig))
            assert [(t, typed(sig)) for t, sig in pruned.pairs(nt, size)] == \
                [(t, key) for key, (t, _) in first.items()], (nt, size)


@pytest.mark.parametrize("case", CASES)
def test_pruned_grow_keeps_each_signature_once(case):
    from syguskit.grammar import Enumerator
    g, defs, limit, bindings, pool = bank_case(case)
    banks = grow(g, bindings, pool=pool, size_limit=limit, defs=defs)
    e = Enumerator(g, pool)
    for nt in g.rules:
        for size in range(1, limit + 1):
            sigs = [typed(sig) for _, sig in banks[nt].get(size, [])]
            assert len(set(sigs)) == len(sigs)
            assert set(sigs) == {typed(raw_signature(t, bindings, defs))
                                 for t in e.enumerate(nt, size)}, (nt, size)


def test_bank_build_polls_its_deadline():
    g = load("hd17_w8.sl").unknowns["f"].grammar
    bindings = [{"x": BV(8, v)} for v in (0x00, 0x80, 0xff)]
    # size 6 is 272 candidates, short of the first poll at 4,096
    Bank(g, bindings, [], False, deadline=Deadline(0)).build_to(6)
    # size 7 adds 5,120 more
    with pytest.raises(BudgetExpired):
        Bank(g, bindings, [], False, deadline=Deadline(0)).build_to(7)


def test_a_fresh_bank_polls_its_deadline_from_pairs():
    g = load("hd17_w8.sl").unknowns["f"].grammar
    bindings = [{"x": BV(8, v)} for v in (0x00, 0x80, 0xff)]
    # as for build_to: short of the first poll at size 6, past it at 7
    Bank(g, bindings, [], False, deadline=Deadline(0)).pairs("Start", 6)
    with pytest.raises(BudgetExpired):
        Bank(g, bindings, [], False, deadline=Deadline(0)).pairs("Start", 7)


def stream_case(case):
    """(grammar, bindings, pool, defined functions) of a streamed bank."""
    if case == "max2":
        return (load("max2.sl").unknowns["max2"].grammar,
                [{"x": x, "y": y} for x, y in ((-2, 3), (0, 0), (5, 1))],
                [0, 1], {})
    g, defs, _, bindings, pool = bank_case(case)
    return g, bindings, pool, defs


@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("case", ["max2", "hd17_w8", "qm_loop"])
def test_a_drained_stream_gives_what_pairs_gives(case, prune):
    g, bindings, pool, defs = stream_case(case)
    for nt in g.rules:
        for size in range(1, 7):
            streamed = Bank(g, bindings, pool, prune, defs).stream(nt, size)
            assert list(streamed) == \
                Bank(g, bindings, pool, prune, defs).pairs(nt, size)


def test_a_stream_stores_its_pairs_only_once_drained():
    g, bindings, pool, _ = stream_case("hd17_w8")
    full = Bank(g, bindings, pool, True).pairs("Start", 5)
    bank = Bank(g, bindings, pool, True)
    seen = []
    for pair in bank.stream("Start", 5):
        assert 5 not in bank.terms["Start"]
        seen.append(pair)
    assert seen == full and bank.terms["Start"][5] == full
    assert bank.pairs("Start", 5) is bank.terms["Start"][5]


def test_an_abandoned_stream_stores_nothing():
    g, bindings, pool, _ = stream_case("hd17_w8")
    full = Bank(g, bindings, pool, True).pairs("Start", 5)
    assert len(full) > 3
    bank = Bank(g, bindings, pool, True)
    stream = bank.stream("Start", 5)
    assert [next(stream) for _ in range(3)] == full[:3]
    stream.close()
    assert ("Start", 5, False) not in bank._kept
    assert 5 not in bank.terms["Start"]
    assert bank.pairs("Start", 5) == full


def test_a_stream_polls_its_deadline():
    g = load("hd17_w8.sl").unknowns["f"].grammar
    bindings = [{"x": BV(8, v)} for v in (0x00, 0x80, 0xff)]
    # as for build_to: short of the first poll at size 6, past it at 7
    list(Bank(g, bindings, [], False, deadline=Deadline(0)).stream("Start", 6))
    with pytest.raises(BudgetExpired):
        list(Bank(g, bindings, [], False,
                  deadline=Deadline(0)).stream("Start", 7))


def test_bank_signatures_agree_with_direct_evaluation(qm_loop):
    from syguskit.terms import evaluate
    bindings = [{"x": v} for v in (-2, 0, 3)]
    g = qm_loop.unknowns["qm-loop"].grammar
    banks = grow(g, bindings, pool=[], size_limit=5, prune=False,
                 defs=qm_loop.defined_funs)
    for size, entries in banks["Start"].items():
        for t, sig in entries:
            direct = tuple(evaluate(t, b, qm_loop.defined_funs)
                           for b in bindings)
            assert sig == direct


# ---------------------------------------------------------------------------
# solving


def test_solves_max2_with_minimal_size(max2):
    out = solve_enumerative(max2, EnumConfig(max_size=8, budget_s=30))
    assert isinstance(out, Solved)
    assert out.total_size == 6
    assert check_syntactic(max2, out.solution) == {"max2": True}
    assert check_semantic(max2, out.solution, EX8) == Valid(False)


def test_contradictory_constraints_exhaust():
    p = read_problem("""(set-logic LIA)
    (synth-fun f ((x Int)) Int)
    (declare-var x Int)
    (constraint (= (f x) (+ x 1)))
    (constraint (= (f x) x))
    (check-synth)""")
    out = solve_enumerative(p, EnumConfig(max_size=5, budget_s=30))
    assert out == Exhausted(5)


@pytest.mark.parametrize("max_size", [2.5, None, "8"])
def test_max_size_of_the_wrong_type_rejected(max2, max_size):
    # range() in the proposer would raise a bare TypeError
    with pytest.raises(SygusError, match="max_size"):
        solve_enumerative(max2, EnumConfig(max_size=max_size, budget_s=1))


def test_budget_exhaustion():
    p = load("inv_loop_fixed.sl")
    out = solve_enumerative(p, EnumConfig(max_size=12, budget_s=0.05))
    assert isinstance(out, TimedOut)


def test_solves_scaled_lsz_width8(lsz8_fixed):
    out = solve_enumerative(lsz8_fixed, EnumConfig(max_size=7, budget_s=120))
    assert isinstance(out, Solved)
    assert out.total_size == 6
    assert check_semantic(lsz8_fixed, out.solution, EX8) == Valid(False)


def test_joint_enumeration_for_multiple_unknowns():
    s8 = load("s8.sl")
    out = solve_enumerative(s8, EnumConfig(max_size=9, budget_s=60))
    assert isinstance(out, Solved)
    assert set(out.solution.sizes()) == {"f1", "f2", "f3"}
    assert out.total_size == 7
    # f2 is forced pointwise; check it on a few points
    from syguskit.terms import evaluate
    f2 = out.solution.funcs["f2"]
    for x, y, z in [(0, 0, 0), (1, 5, -2), (-4, 7, 9)]:
        assert evaluate(f2.body, {"x": x, "y": y, "z": z}) == y - 1


def test_pruned_and_unpruned_sizes_agree(max2, qm_loop):
    for p in (max2, qm_loop):
        pruned = solve_enumerative(p, EnumConfig(max_size=6, budget_s=60))
        plain = solve_enumerative(p, EnumConfig(max_size=6, budget_s=120,
                                                prune=False))
        assert isinstance(pruned, Solved) and isinstance(plain, Solved)
        assert pruned.total_size == plain.total_size


def test_verifier_submissions_are_consistent_with_examples(max2, monkeypatch):
    import syguskit.checker as ck
    from syguskit.cegis import Scorer, count_wrong
    seen_points: list[dict] = []
    submissions = []
    real = ck.check_semantic

    def spy(p, sol, strat):
        verdict = real(p, sol, strat)
        E = ExampleSet(seen_points)
        bodies = {n: f.body for n, f in sol.funcs.items()}
        submissions.append(count_wrong(Scorer(p, E), bodies))
        if hasattr(verdict, "valuation"):
            seen_points.append(verdict.valuation)
        return verdict

    monkeypatch.setattr(ck, "check_semantic", spy)
    out = solve_enumerative(max2, EnumConfig(max_size=6, budget_s=30))
    assert isinstance(out, Solved)
    assert submissions and all(w == 0 for w in submissions)


def test_first_verified_candidate_is_trivially_smallest(max2, monkeypatch):
    import syguskit.checker as ck
    sizes = []
    real = ck.check_semantic

    def spy(p, sol, strat):
        sizes.append(sol.total_size())
        return real(p, sol, strat)

    monkeypatch.setattr(ck, "check_semantic", spy)
    out = solve_enumerative(max2, EnumConfig(max_size=6, budget_s=30))
    assert isinstance(out, Solved)
    g = max2.unknowns["max2"].grammar
    assert sizes[0] == g.min_sizes()[g.start] == 1


def test_nested_invocation_takes_the_naive_path():
    # (f (f x)) has an unknown inside an unknown's argument: no skeleton, no
    # induced bindings, whole-constraint consistency checks instead
    p = read_problem("""(set-logic LIA)
    (synth-fun f ((x Int)) Int)
    (declare-var x Int)
    (constraint (= (f (f x)) (+ x 2)))
    (check-synth)""")
    out = solve_enumerative(p, EnumConfig(max_size=5, budget_s=60))
    assert isinstance(out, Solved)
    assert out.total_size == 3
    assert out.solution.funcs["f"].body == term("(+ x 1)", {"x": INT})
    assert check_semantic(p, out.solution, EX8) == Valid(False)


def test_a_problem_without_unknowns_is_solved_by_no_definitions():
    p = read_problem("""(set-logic LIA)
    (declare-var x Int)
    (constraint (= x x))
    (check-synth)""")
    out = solve_enumerative(p, EnumConfig(max_size=3, budget_s=60))
    assert isinstance(out, Solved)
    assert out.solution.sizes() == {} and out.solution.funcs == {}


def test_a_problem_without_unknowns_that_fails_is_exhausted():
    # its example binds no slot, so the scorer's row for it is empty
    p = read_problem("""(set-logic LIA)
    (declare-var x Int)
    (constraint (= x 0))
    (check-synth)""")
    out = solve_enumerative(p, EnumConfig(max_size=3, budget_s=60))
    assert out == Exhausted(3)


def reference_calls(p, max_size):
    """The bodies the verifier is asked about when every combination of
    the banks' kept pairs is scored whole, in product's order."""
    names, calls, E = list(p.unknowns), [], ExampleSet()
    mins = [u.grammar.min_sizes()[u.grammar.start]
            for u in p.unknowns.values()]

    def one_round():
        """True once a new counterexample joined E."""
        pool = pool_with_examples(base_constant_pool(p), E)
        scorer = Scorer(p, E)
        banks = [Bank(p.unknowns[n].grammar, scorer.bindings[n], pool,
                      not scorer.naive, p.defined_funs) for n in names]
        for total in range(sum(mins), max_size + 1):
            for bank, m in zip(banks, mins):
                bank.build_to(total - (sum(mins) - m))
            for split in compositions(total, mins):
                pieces = [b.terms[b.g.start].get(s, [])
                          for b, s in zip(banks, split)]
                for combo in product(*pieces):
                    bodies = {n: t for n, (t, _) in zip(names, combo)}
                    sigs = [s for _, s in combo]
                    if next(scorer.wrong(bodies, sigs), None) is not None:
                        continue
                    calls.append(bodies)
                    verdict = check_semantic(p, make_solution(p, bodies),
                                             default_strategy(p))
                    if isinstance(verdict, Valid):
                        return False
                    if isinstance(verdict, CounterExample) \
                            and E.add(verdict.valuation):
                        return True
        return False

    while one_round():
        pass
    return calls


def solved_calls(p, monkeypatch):
    """The bodies enum asks the verifier about on its way to Solved."""
    import syguskit.checker as ck
    calls = []
    real = ck.check_semantic

    def spy(p, sol, strat):
        calls.append({n: f.body for n, f in sol.funcs.items()})
        return real(p, sol, strat)

    monkeypatch.setattr(ck, "check_semantic", spy)
    out = solve_enumerative(p, EnumConfig(max_size=9, budget_s=60))
    assert isinstance(out, Solved)
    return calls


@pytest.mark.parametrize("name", ["s8", "unreached", "three"])
def test_staged_walk_asks_the_verifier_what_a_whole_product_asks(
        name, monkeypatch):
    p = PROBLEMS[name]()
    assert solved_calls(p, monkeypatch) == reference_calls(p, 9)


@pytest.mark.parametrize("name", ["max2.sl", "hd17_w8.sl", "lsz_w8_fixed.sl",
                                  "qm_loop_1.sl", "hd-17-d0.sl"])
def test_single_unknown_solves_ask_the_verifier_what_whole_banks_ask(
        name, monkeypatch):
    p = load(name)
    assert solved_calls(p, monkeypatch) == reference_calls(p, 9)


def test_joint_walk_polls_its_deadline_where_a_stage_rejects_every_piece(
        monkeypatch):
    # each of g's 160 bodies is false, so once an example is known the
    # stage of depth 1 rejects each of them under each of f's 11: 1,771
    # pieces visited at the first size, and no combination left to count
    p = read_problem(f"""(set-logic LIA)
    (synth-fun f ((x Int)) Int ((F Int (x {' '.join(map(str, range(10)))}))))
    (synth-fun g ((x Int)) Bool
      ((B Bool ((< N M))) (N Int ({' '.join(map(str, range(10, 26)))}))
       (M Int ({' '.join(map(str, range(10)))}))))
    (declare-var x Int)
    (constraint (g x))
    (check-synth)""")
    import syguskit.cegis as cg
    rejected, after = [], []

    class Expires(Deadline):
        """Expires at the first rejection."""

        def expired(self):
            return bool(rejected)

    def stages(scorer):
        def spied(stage):
            def run(sigs):
                if rejected:
                    after.append(sigs)
                ok = stage(sigs)
                if not ok:
                    rejected.append(sigs)
                return ok
            return run
        return [None if s is None else spied(s)
                for s in real_stages(scorer)]

    real_stages = Scorer.stages
    monkeypatch.setattr(cg, "Deadline", Expires)
    monkeypatch.setattr(Scorer, "stages", stages)
    out = solve_enumerative(p, EnumConfig(max_size=12, budget_s=60,
                                          prune=False))
    assert out == TimedOut(60)
    assert rejected and len(after) < 256
