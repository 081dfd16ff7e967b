import functools
import itertools
import logging
import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from conftest import BENCHMARKS, load, term
from syguskit.cegis import base_constant_pool
from syguskit.frontend import default_grammar, load_problem, read_problem
from syguskit.grammar import (Derivation, Enumerator, Grammar, Rule,
                              UnknownNonterminal, assemble, compositions,
                              derives, make_grammar, randbelow, walk_splits,
                              weighted)
from syguskit.stochastic import StochConfig
from syguskit.terms import (BV, INT, TNT, Apply, Let, Lit, SygusError, THole,
                            Var, bitvec, term_size)


# ---------------------------------------------------------------------------
# A deliberately naive sized generator, independent of the engine under test.


def _naive_inst(g, tpl, size, pool, no_zero):
    if isinstance(tpl, Var):
        return {Var(tpl.name)} if size == 1 else set()
    if isinstance(tpl, Lit):
        return {Lit(tpl.value)} if size == 1 else set()
    if isinstance(tpl, THole):
        if size != 1:
            return set()
        vals = [v for v in pool
                if type(v) is not bool and _sortof(v) == tpl.sort]
        if no_zero:
            vals = [v for v in vals if v != 0]
        return {Lit(v) for v in vals}
    if isinstance(tpl, TNT):
        return naive_derivable(g, tpl.nt, size, pool, no_zero)
    if isinstance(tpl, Apply):
        k = len(tpl.args)
        out = set()
        for split in _splits(size - 1, k):
            childsets = [
                _naive_inst(g, c, s, pool, tpl.op in ("div", "mod") and i == 1)
                for i, (c, s) in enumerate(zip(tpl.args, split))]
            for combo in itertools.product(*childsets):
                out.add(Apply(tpl.op, combo))
        return out
    # let template
    names = [n for n, _ in tpl.bindings]
    parts = [d for _, d in tpl.bindings] + [tpl.body]
    out = set()
    for split in _splits(size - 1 - len(names), len(parts)):
        sets = [_naive_inst(g, c, s, pool, False)
                for c, s in zip(parts, split)]
        for combo in itertools.product(*sets):
            out.add(Let(tuple(zip(names, combo[:-1])), combo[-1]))
    return out


def _splits(total, k):
    if k == 0:
        return [()] if total == 0 else []
    if k == 1:
        return [(total,)] if total >= 1 else []
    out = []
    for first in range(1, total - k + 2):
        for rest in _splits(total - first, k - 1):
            out.append((first,) + rest)
    return out


def _sortof(v):
    from syguskit.terms import value_sort
    return value_sort(v)


def naive_derivable(g, nt, size, pool=(), no_zero=False, _chain=frozenset()):
    out = set()
    for tpl in g.rules[nt].productions:
        if isinstance(tpl, TNT):
            if nt not in _chain:
                out |= naive_derivable(g, tpl.nt, size, pool, no_zero,
                                       _chain | {nt})
        else:
            out |= _naive_inst(g, tpl, size, pool, no_zero)
    return out


# ---------------------------------------------------------------------------
# membership


def test_lsz_body_derives_from_explicit_grammar(lsz32):
    g = lsz32.unknowns["f"].grammar
    t = term("(bvand (bvnot x) (bvadd x #x00000001))", {"x": bitvec(32)})
    assert derives(g, "Start", t)


def test_bvxor_not_in_hd17_d0():
    g = load("hd-17-d0.sl").unknowns["f"].grammar
    t = term("(bvxor x x)", {"x": bitvec(32)})
    assert not derives(g, "Start", t)


def test_constant_hole_accepts_any_int_literal():
    g = default_grammar((("x", INT),), INT)
    assert derives(g, "ConstantInt", Lit(42))
    assert derives(g, "StartInt", Lit(-7))
    assert not derives(g, "ConstantInt", Lit(True))


def test_unknown_nonterminal():
    g = default_grammar((("x", INT),), INT)
    with pytest.raises(UnknownNonterminal):
        derives(g, "Nope", Lit(1))


def test_production_naming_an_undefined_nonterminal():
    with pytest.raises(UnknownNonterminal):
        make_grammar("S", [("S", INT, [Var("x"),
                                       Apply("+", (TNT("S"), TNT("T")))])],
                     {"x": INT})


def test_foreign_literal_not_in_qm_grammar(qm_loop):
    g = qm_loop.unknowns["qm-loop"].grammar
    assert derives(g, "Start", Lit(3))
    assert not derives(g, "Start", Lit(2))


# ---------------------------------------------------------------------------
# enumeration


def test_lsz_grammar_size_one(lsz32):
    g = lsz32.unknowns["f"].grammar
    assert set(Enumerator(g).enumerate("Start", 1)) == {
        Var("x"), Lit(BV(32, 0)), Lit(BV(32, 1))}


def test_default_grammar_size_one_with_pool():
    g = default_grammar((("x", INT), ("y", INT)), INT)
    got = Enumerator(g, [0, 1]).enumerate("StartInt", 1)
    assert list(got) == [Var("x"), Var("y"), Lit(0), Lit(1)]


def test_pool_keeps_bools_apart_from_ints():
    g = default_grammar((("x", INT),), INT)
    e = Enumerator(g, [0, 1, True, False, 1, True])
    assert [(type(v), v) for v in e.pool] == [
        (int, 0), (int, 1), (bool, True), (bool, False)]
    assert e.enumerate("ConstantInt", 1) == (Lit(0), Lit(1))


def test_size_zero_is_empty():
    g = default_grammar((("x", INT),), INT)
    assert Enumerator(g).enumerate("StartInt", 0) == ()


def test_enumerate_deduplicates_star_products():
    g = default_grammar((("x", INT),), INT)
    got = Enumerator(g, [0, 1]).enumerate("StartInt", 3)
    assert len(got) == len(set(got))
    # (* 0 1) is derivable through both (* S C) and (* C S)
    assert Apply("*", (Lit(0), Lit(1))) in got


def test_divisor_holes_exclude_zero():
    g = default_grammar((("x", INT),), INT)
    got = Enumerator(g, [0, 1]).enumerate("StartInt", 3)
    assert Apply("div", (Var("x"), Lit(1))) in got
    assert Apply("div", (Var("x"), Lit(0))) not in got
    assert Apply("*", (Var("x"), Lit(0))) in got  # only divisor slots filter


@pytest.mark.parametrize("name,start", [("qm_loop_1.sl", "Start"),
                                        ("hd-17-d0.sl", "Start")])
def test_engine_matches_naive_generator_up_to_size_7(name, start):
    g = load(name).unknowns[next(iter(load(name).unknowns))].grammar
    e = Enumerator(g)
    for size in range(1, 8):
        fast = set(e.enumerate(start, size))
        slow = naive_derivable(g, start, size)
        assert fast == slow, (name, size)
        for t in fast:
            assert term_size(t) == size
            assert derives(g, start, t)


def test_default_grammar_matches_naive_small_sizes():
    g = default_grammar((("x", INT),), INT)
    e = Enumerator(g, pool=[0, 1])
    for size in range(1, 5):
        assert set(e.enumerate("StartInt", size)) == \
            naive_derivable(g, "StartInt", size, pool=[0, 1]), size


def test_enumeration_is_deterministic(qm_loop):
    g = qm_loop.unknowns["qm-loop"].grammar
    a = Enumerator(g).enumerate("Start", 5)
    b = Enumerator(g).enumerate("Start", 5)
    assert a == b


def test_counts_match_enumeration_for_unambiguous_grammars(qm_loop):
    g = qm_loop.unknowns["qm-loop"].grammar
    e = Enumerator(g)
    for size in range(1, 8):
        assert e.count("Start", size) == len(e.enumerate("Start", size))


def test_counts_bound_enumeration_for_default_grammar():
    g = default_grammar((("x", INT),), INT)
    e = Enumerator(g, pool=[0, 1])
    for size in range(1, 5):
        assert e.count("StartInt", size) >= len(e.enumerate("StartInt", size))


def test_one_count_table_per_key():
    # the divisor flag matters only at size 1, where the holes are
    p = read_problem("(set-logic LIA)\n(synth-fun f ((x Int)) Int ((S Int "
                     "(x 0 1 (Constant Int) (+ S S) (div S S)))))\n"
                     "(constraint (= (f 1) 1))\n(check-synth)\n")
    e = Enumerator(p.unknowns["f"].grammar, (0, 1, 2))
    # derivations by the grammar's recurrence: x, 0, 1 and the pool's holes
    # at size 1, then (+ S S) and (div S S) over every split
    plain, divisor = [0, 6], [0, 5]
    for n in range(2, 10):
        plain.append(sum(plain[a] * (plain[n - 1 - a] + divisor[n - 1 - a])
                         for a in range(1, n - 1)))
        divisor.append(plain[n])
    assert [e.count("S", n) for n in range(1, 10)] == plain[1:]
    assert [e.count("S", n, True) for n in range(1, 10)] == divisor[1:]
    flagged = [k for k in e._draws if len(k) == 3 and k[2]]
    assert flagged and all(size == 1 for _, size, _ in flagged)


# ---------------------------------------------------------------------------
# minimum derivable sizes


def test_min_sizes(lsz32):
    g = lsz32.unknowns["f"].grammar
    assert g.min_sizes()["Start"] == 1


def test_unproductive_nonterminal_reported_at_load(caplog):
    with caplog.at_level(logging.WARNING, logger="syguskit.grammar"):
        g = make_grammar("S", [("S", INT, [Apply("+", (TNT("S"), TNT("S")))])],
                         {})
    assert g.min_sizes()["S"] == math.inf
    assert any("derives no finite term" in r.message for r in caplog.records)


def test_default_startbool_min_size():
    g = default_grammar((("x", INT),), INT)
    assert g.min_sizes()["StartBool"] == 1


def test_duplicate_productions_deduplicated_with_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="syguskit.grammar"):
        g = make_grammar("S", [("S", INT, [Var("x"), Var("x")])],
                         {"x": INT})
    assert len(g.rules["S"].productions) == 1
    assert any("duplicate production" in r.message for r in caplog.records)


def test_unit_cycles_contribute_each_production_once_in_bfs_order():
    plus = Apply("+", (TNT("A"), TNT("B")))
    hole = THole(INT)
    minus = Apply("-", (TNT("C"), TNT("C")))
    g = make_grammar("A", [("A", INT, [TNT("B"), Var("x"), TNT("C")]),
                           ("B", INT, [TNT("A"), plus, TNT("C")]),
                           ("C", INT, [TNT("B"), hole, minus])],
                     {"x": INT})
    assert g.closed_productions("A") == (Var("x"), plus, hole, minus)
    assert g.closed_productions("B") == (plus, Var("x"), hole, minus)
    assert g.closed_productions("C") == (hole, minus, plus, Var("x"))
    e = Enumerator(g, [0, 1])
    assert [e.count("A", s) for s in range(1, 8)] == [
        3, 0, 18, 0, 216, 0, 3240]
    assert len(e.enumerate("A", 5)) == 216


# ---------------------------------------------------------------------------
# let productions (matched structurally, never unfolded)


@pytest.fixture(scope="module")
def let_grammar():
    double = Let((("z", TNT("S")),), Apply("+", (Var("z"), Var("z"))))
    return make_grammar("S", [("S", INT, [Var("x"), double])], {"x": INT})


def test_let_membership_is_alpha_aware(let_grammar):
    g = let_grammar
    ok = Let((("w", Var("x")),), Apply("+", (Var("w"), Var("w"))))
    assert derives(g, "S", ok)
    bad = Let((("w", Var("x")),), Apply("+", (Var("w"), Var("x"))))
    assert not derives(g, "S", bad)


def test_let_is_not_unfolded(let_grammar):
    assert not derives(let_grammar, "S", Apply("+", (Var("x"), Var("x"))))


def test_let_enumeration_size_accounting(let_grammar):
    e = Enumerator(let_grammar)
    assert set(e.enumerate("S", 6)) == {
        Let((("z", Var("x")),), Apply("+", (Var("z"), Var("z"))))}
    assert e.enumerate("S", 2) == ()
    assert set(e.enumerate("S", 11)) == naive_derivable(let_grammar, "S", 11)


# ---------------------------------------------------------------------------
# sampling


def test_sample_is_deterministic_and_wellformed():
    g = default_grammar((("x", INT), ("y", INT)), INT)
    e = Enumerator(g, pool=[0, 1, 2])
    for seed in range(5):
        a = e.sample("StartInt", 7, random.Random(seed))
        b = e.sample("StartInt", 7, random.Random(seed))
        assert a.term == b.term
        assert term_size(a.term) == 7
        assert derives(g, "StartInt", a.term)


def test_sample_covers_the_size_one_language():
    g = default_grammar((("x", INT), ("y", INT)), INT)
    e = Enumerator(g, pool=[0, 1])
    rng = random.Random(0)
    seen = {e.sample("StartInt", 1, rng).term for _ in range(200)}
    assert seen == {Var("x"), Var("y"), Lit(0), Lit(1)}


def test_slot_nodes_account_for_every_parse_tree_node():
    g = default_grammar((("x", INT), ("y", INT)), INT)
    e = Enumerator(g, pool=[0, 1])
    rng = random.Random(3)
    for _ in range(50):
        node = e.sample("StartInt", 9, rng)
        total = sum(own for *_, own in node.entries)
        assert total == term_size(node.term) == 9


def hole_values(sort, pool, no_zero):
    """A constant hole's values: false and true for Bool, else the pool's
    values of its sort once each, in pool order, and no Int 0 in a divisor
    slot."""
    if sort.name == "Bool":
        return [False, True]
    vals = dict.fromkeys(v for v in pool
                         if type(v) is not bool and _sortof(v) == sort)
    return [v for v in vals if not (no_zero and v == 0)]


def recursive_sampler(g, pool):
    """(count, sample) as plain recursions that read no Enumerator table.
    A template's count sums, over every split of its size among its
    split_plan slots, the product of the slots' counts. sample draws with
    randrange and choices: a nonterminal instance picks a production by the
    counts, a template draws its slots' sizes one by one, each weighed by
    the sum over the splits through it of the products of that slot's and
    the later slots' counts, then each slot's term, left to right."""

    @functools.cache
    def count_tpl(tpl, size, no_zero):
        if isinstance(tpl, TNT):
            return count(tpl.nt, size, no_zero)
        if isinstance(tpl, (Var, Lit)):
            return int(size == 1)
        if isinstance(tpl, THole):
            return len(hole_values(tpl.sort, pool, no_zero)) * (size == 1)
        return sum(math.prod(counts) for _, counts in splits(tpl, size))

    def count(nt, size, no_zero=False):
        return sum(count_tpl(p, size, no_zero)
                   for p in g.closed_productions(nt)) if size >= 1 else 0

    def splits(tpl, size):
        """(split, its slots' counts) for every split of tpl's size."""
        slots, _ = g.split_plan(tpl, size)
        own = 1 + (len(tpl.bindings) if isinstance(tpl, Let) else 0)
        return [(split, [count_tpl(c, s, nz)
                         for (c, nz), s in zip(slots, split)])
                for split in _splits(size - own, len(slots))]

    def sample(nt, size, rng, no_zero=False, prefix=()):
        entries = []

        def draw(nt, size, no_zero, path):
            total = count(nt, size, no_zero)
            if total == 0:
                raise SygusError(f"no derivation of {nt} at size {size}")
            pick = rng.randrange(total)
            for p in g.closed_productions(nt):
                c = count_tpl(p, size, no_zero)
                if pick < c:
                    own = term_size(p, dict.fromkeys(g.rules, 0))
                    entries.append((path, nt, size, no_zero, own))
                    return sample_tpl(p, size, no_zero, path)
                pick -= c
            raise AssertionError("count/sample recurrences disagree")

        def sample_tpl(tpl, size, no_zero, path):
            if isinstance(tpl, TNT):
                return draw(tpl.nt, size, no_zero, path)
            if isinstance(tpl, (Var, Lit)):
                return tpl
            if isinstance(tpl, THole):
                vals = hole_values(tpl.sort, pool, no_zero)
                return Lit(vals[rng.randrange(len(vals))])
            slots, _ = g.split_plan(tpl, size)
            chosen = ()
            for i in range(len(slots)):
                weights = {}
                for split, counts in splits(tpl, size):
                    if split[:i] == chosen:
                        weights[split[i]] = (weights.get(split[i], 0)
                                             + math.prod(counts[i:]))
                sizes = [s for s in sorted(weights) if weights[s]]
                chosen += (sizes[0] if len(sizes) == 1 else rng.choices(
                    sizes, [weights[s] for s in sizes])[0],)
            steps = (list(range(len(slots))) if isinstance(tpl, Apply)
                     else [("d", i) for i in range(len(slots) - 1)] + [("b",)])
            return assemble(tpl, [sample_tpl(c, s, nz, path + (step,))
                                  for (c, nz), s, step
                                  in zip(slots, chosen, steps)])

        return Derivation(draw(nt, size, no_zero, prefix), tuple(entries))

    return count, sample


def sampler_case(case):
    """(grammar, pool) of a grammar the sampler is checked on."""
    from conftest import div_grammar, let_grammar
    from test_stochastic import divisor_grammar
    if case == "default":
        return default_grammar((("x", INT), ("y", INT)), INT), (-1, 0, 1, 2)
    if case in ("let", "div", "divisor"):
        make = {"let": let_grammar, "div": div_grammar,
                "divisor": divisor_grammar}[case]
        return make(), (-1, 0, 1, 2, 3)
    p = load_problem(BENCHMARKS / case)
    (u,) = p.unknowns.values()
    return u.grammar, base_constant_pool(p)


@pytest.mark.parametrize("case", [
    "default", "let", "div", "divisor", "integers/max2.sl",
    "bitvectors/hd17_w8.sl", "bitvectors/lsz_w8.sl",
    "compileropts/qm_loop_1.sl"])
def test_sample_matches_the_recursive_sampler(case):
    # every nonterminal at sizes 1-11 under both divisor flags, from the
    # root and under a prefix path: the same terms, entries and rng state
    g, pool = sampler_case(case)
    e = Enumerator(g, pool)
    count, sample = recursive_sampler(g, pool)
    drawn = 0
    for nt, size, no_zero in itertools.product(g.rules, range(1, 12),
                                               (False, True)):
        assert e.count(nt, size, no_zero) == count(nt, size, no_zero)
        if not count(nt, size, no_zero):
            continue
        for seed, prefix in ((size, ()), (size + 100, (1, ("d", 0)))):
            rng, want = random.Random(seed), random.Random(seed)
            for _ in range(6):
                got = e.sample(nt, size, rng, no_zero, prefix)
                assert got == sample(nt, size, want, no_zero, prefix)
                assert rng.getstate() == want.getstate()
                drawn += 1
    assert drawn > 100
    # a second sample of a key builds no new closure
    built, builds = dict(e._draws), []
    tpl_drawer = e._tpl_drawer
    e._tpl_drawer = lambda *key: builds.append(key) or tpl_drawer(*key)
    e.sample(g.start, 11, random.Random(0), True, (0,))
    assert (g.start, 11, False) in built
    assert e._draws == built and builds == []
    e.count(g.start, 12)  # the spy sees a build
    assert builds


@pytest.mark.parametrize("case, nt, size", [
    ("default", "StartInt", 0), ("default", "StartInt", 2),
    ("bitvectors/hd17_w8.sl", "Start", 4), ("div", "D", 3)])
def test_sample_without_a_derivation_raises_and_draws_nothing(case, nt, size):
    g, pool = sampler_case(case)
    e = Enumerator(g, pool)
    rng = random.Random(7)
    state = rng.getstate()
    for no_zero in (False, True):
        with pytest.raises(SygusError) as err:
            e.sample(nt, size, rng, no_zero)
        assert str(err.value) == f"no derivation of {nt} at size {size}"
        assert rng.getstate() == state
    assert e._draws[(nt, size, False)][0] == 0


# ---------------------------------------------------------------------------
# the rng helpers draw what randrange and choices draw


SEEDS = st.integers(0, 2**64)


@given(SEEDS, st.integers(0, 70), st.sampled_from([-1, 0, 1]))
def test_randbelow_is_randrange(seed, k, delta):
    n = max(1, 2**k + delta)  # 1, powers of two, 2**k +- 1, up to 2**70 + 1
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert randbelow(ours, n) == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()


@given(SEEDS, st.lists(st.one_of(st.integers(0, 9), st.integers(0, 2**70)),
                       min_size=1, max_size=8).filter(any))
@example(0, [5])
@example(1, [0, 3, 0, 2, 0])
def test_weighted_is_choices(seed, weights):
    cum = list(itertools.accumulate(weights))
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(3):
        pick = weighted(ours, cum)
        assert pick == theirs.choices(range(len(weights)), weights)[0]
        assert weights[pick] > 0
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("path", ["integers/max2.sl", "bitvectors/hd17_w8.sl",
                                  "bitvectors/lsz_w8.sl",
                                  "compileropts/qm_loop_1.sl"])
def test_size_tree_totals_are_derivation_counts(path):
    # the stochastic workloads' grammars, over the walk's first pool: each
    # nonterminal's count sums its templates' counts, and a template's is
    # the sum, over every split of its size, of its slots' count products
    p = load_problem(BENCHMARKS / path)
    (u,) = p.unknowns.values()
    g, pool = u.grammar, base_constant_pool(p)
    e = Enumerator(g, pool)

    def count(tpl, size, no_zero):
        if isinstance(tpl, TNT):
            return e.count(tpl.nt, size, no_zero)
        if isinstance(tpl, (Var, Lit)):
            return int(size == 1)
        if isinstance(tpl, THole):
            return len(hole_values(tpl.sort, pool, no_zero)) * (size == 1)
        slots, _ = g.split_plan(tpl, size)
        own = 1 + (len(tpl.bindings) if isinstance(tpl, Let) else 0)
        return sum(math.prod(count(c, s, nz)
                             for (c, nz), s in zip(slots, split))
                   for split in _splits(size - own, len(slots)))

    for nt, size in itertools.product(g.rules, range(1, max(
            StochConfig().size_schedule) + 1)):
        want = sum(count(t, size, False) for t in g.closed_productions(nt))
        assert e.count(nt, size) == want
    assert e.count(g.start, 11) > 0


# ---------------------------------------------------------------------------
# the split plan against brute force


PLANS = (st.lists(st.integers(1, 3), max_size=4), st.integers(0, 10))


@given(*PLANS)
def test_compositions_are_the_sorted_product(mins, total):
    brute = sorted(c for c in itertools.product(range(total + 1),
                                                repeat=len(mins))
                   if sum(c) == total and all(map(int.__ge__, c, mins)))
    assert list(compositions(total, mins)) == brute


@given(*PLANS)
@example([], 0)
@example([], 3)  # no slot, and no split
def test_walk_splits_follows_the_plan(mins, total):
    # N1, N2, N3 have least sizes 1, 2, 3 and two derivations at each size
    # from there; the template's slots take mins
    rules = {"N1": Rule(INT, (Var("x"), Var("y"), Apply("g", (TNT("N1"),)))),
             "N2": Rule(INT, (Apply("g", (TNT("N1"),)),)),
             "N3": Rule(INT, (Apply("g", (TNT("N2"),)),))}
    tpl = Apply("h", tuple(TNT(f"N{m}") for m in mins))
    g = Grammar("S", {"S": Rule(INT, (tpl,)), **rules})
    slots, tree = g.split_plan(tpl, total + 1)
    assert slots == tuple((TNT(f"N{m}"), False) for m in mins)
    calls = []

    def inst(i, s):
        calls.append((i, s))
        return [(i, s, "a"), (i, s, "b")]

    got = list(walk_splits(tree, inst))
    asked, splits = set(calls), list(compositions(total, mins))
    # slot by slot: a size, then an item at it, then the later slots
    want = sorted((t for c in splits
                   for t in itertools.product(*(inst(i, s)
                                                for i, s in enumerate(c)))),
                  key=lambda t: [k for _, s, item in t for k in (s, item)])
    assert got == want
    # the walk asks for no size that lies on no split
    assert asked <= {(i, s) for c in splits for i, s in enumerate(c)}
    # the count weighs the same tree, no slot at all included
    assert Enumerator(g).count("S", total + 1) == len(splits) * 2 ** len(mins)
