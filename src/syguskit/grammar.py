"""Grammar representation and engine: membership, sized enumeration, counting.

A production is a term (terms.Template) whose leaves may be the unknown's
parameters, literals, nonterminals (TNT) or constant holes (THole); a Var or
Lit leaf derives itself, and make_grammar sort-checks productions with
terms.infer_sort. Int and bit-vector constant holes never invent constants:
every engine entry point takes an explicit pool, and a hole in the divisor
slot of div/mod draws from the pool minus zero. A Bool hole ranges over
false and true.

`let` templates are matched structurally (no unfolding): the bound variable
is aliased to the candidate's bound variable for the scope of the body.

Unit productions (a bare nonterminal on the right-hand side) are resolved
by one walk, Grammar.closed_productions, so unit cycles terminate and each
reachable production contributes exactly once to counts and enumeration.

Every walk by term size (counting, enumeration and sampling) shares a size
among a template's children through one split plan: Grammar.split_plan(tpl,
size) gives the child slots of an application or let template, each flagged
when it is a div/mod divisor, and a size tree of the remaining size, one
recursion (size_tree) over those slots with each child at least its least
derivable size: the first slot's sizes, ascending, each mapped to the tree
of the later slots. Plans depend on the grammar alone and are memoized on
it; walk_splits follows a plan's tree slot by slot, and its leaves are the
compositions in lexicographic order. enumerative.Bank walks the same trees
over (term, signature) pairs, keeping one per signature.

Sampling is the stochastic solver's inner loop, so an Enumerator keeps its
tables once built, one table per key: per (nonterminal, size, and at size 1
the divisor flag) the productions with a derivation, their counts and own
nodes, per hole sort its pool, and per (template, size) its derivation
count, slots, path steps and its plan's tree weighed: each slot's sizes with
a derivation and their cumulative weights, which count() and sample() both
read. They change no draw: randbelow and weighted are randrange and choices
without their argument checks, so every value and rng state is the plain
recurrences'. sample() gives a Derivation, the term and a flat pre-order
tuple of its nonterminal instances with their paths from the root, so a
move replaces an instance by splicing that tuple.
"""

from __future__ import annotations

import logging
import math
import random
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import (Callable, Iterable, Iterator, Mapping, NamedTuple,
                    Sequence)

from .terms import (Apply, FunSort, Let, Lit, Sort, SortError, SygusError,
                    Template, Term, THole, TNT, UnknownNonterminal, Value,
                    Var, infer_sort, term_size, value_sort)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Rule:
    sort: Sort
    productions: tuple[Template, ...]


@dataclass
class Grammar:
    start: str
    rules: dict[str, Rule]
    var_sorts: dict[str, Sort] = field(default_factory=dict)
    _min_sizes: dict[str, float] | None = field(
        default=None, compare=False, repr=False)
    _plans: dict[tuple[int, int], tuple] = field(
        default_factory=dict, compare=False, repr=False)
    _closed: dict[str, tuple[Template, ...]] = field(
        default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.start not in self.rules:
            raise UnknownNonterminal(self.start)

    def rule(self, nt: str) -> Rule:
        try:
            return self.rules[nt]
        except KeyError:
            raise UnknownNonterminal(nt) from None

    @property
    def start_sort(self) -> Sort:
        return self.rules[self.start].sort

    def min_sizes(self) -> dict[str, float]:
        """Least derivable term size per nonterminal (math.inf if unproductive)."""
        if self._min_sizes is None:
            sizes = {nt: math.inf for nt in self.rules}
            changed = True
            while changed:
                changed = False
                for nt, rule in self.rules.items():
                    best = min((term_size(p, sizes) for p in rule.productions),
                               default=math.inf)
                    if best < sizes[nt]:
                        sizes[nt] = best
                        changed = True
            self._min_sizes = sizes
        return self._min_sizes

    def closed_productions(self, nt: str) -> tuple[Template, ...]:
        """The non-unit productions of nt and of every nonterminal reachable
        from it through unit productions, each nonterminal's in turn in BFS
        order from nt, so unit cycles terminate."""
        hit = self._closed.get(nt)
        if hit is None:
            order, out = [nt], []
            for m in order:  # grows as the walk finds nonterminals
                for p in self.rule(m).productions:
                    if not isinstance(p, TNT):
                        out.append(p)
                    elif p.nt not in order:
                        order.append(p.nt)
            hit = self._closed[nt] = tuple(out)
        return hit

    def split_plan(self, tpl: Apply | Let, size: int) -> tuple:
        """(slots, tree) of an application or let template at `size`: slots
        are (child, divisor flag), a let's bindings before its body; tree is
        size_tree of the size left after the template's own nodes, each child
        at least its least size. Keyed by template identity: walkers pass
        only this grammar's own templates."""
        key = (id(tpl), size)
        hit = self._plans.get(key)
        if hit is None:
            if isinstance(tpl, Apply):
                slots = tuple((c, tpl.op in ("div", "mod") and i == 1)
                              for i, c in enumerate(tpl.args))
                budget = size - 1
            else:
                slots = tuple((d, False) for _, d in tpl.bindings)
                slots += ((tpl.body, False),)
                budget = size - 1 - len(tpl.bindings)
            mins = [term_size(c, self.min_sizes()) for c, _ in slots]
            tree = {} if math.inf in mins else size_tree(budget, mins)
            hit = self._plans[key] = (slots, tree)
        return hit


def randbelow(rng: random.Random, n: int) -> int:
    """rng.randrange(n), n > 0, without its argument checks: CPython's
    Random._randbelow rejection loop, so the value and rng state match."""
    k = n.bit_length()
    while (r := rng.getrandbits(k)) >= n:
        pass
    return r


def weighted(rng: random.Random, cum: Sequence[int]) -> int:
    """rng.choices(range(len(cum)), cum_weights=cum)[0] without its argument
    checks: bisect random() times the total into the cumulative weights."""
    return bisect(cum, rng.random() * (cum[-1] + 0.0), 0, len(cum) - 1)


def size_tree(total: int, mins: Sequence[int]) -> dict | None:
    """Every way to write total as len(mins) parts, part i at least mins[i],
    as a tree: the first part's sizes, ascending, each mapped to the tree of
    the later parts; None past the last part, {} when total has no way."""
    if not mins:
        return None if total == 0 else {}
    lo = mins[0] if len(mins) > 1 else max(mins[0], total)  # the last takes all
    return {s: size_tree(total - s, mins[1:])
            for s in range(lo, total - sum(mins[1:]) + 1)}


def walk_splits(tree: dict | None, inst: Callable[[int, int], Iterable],
                chosen: tuple = ()) -> Iterator[tuple]:
    """Child tuples down a size tree, slot by slot: each size of the next slot
    in ascending order, each item of inst(slot, size) at that size, then the
    later slots under that size."""
    if tree is None:
        yield chosen
        return
    i = len(chosen)
    for s, later in tree.items():
        if later is None:  # the last slot: no generator per item
            for item in inst(i, s):
                yield chosen + (item,)
            continue
        for item in inst(i, s):
            yield from walk_splits(later, inst, chosen + (item,))


def compositions(total: int, mins: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The leaves of size_tree(total, mins), in lexicographic order."""
    return walk_splits(size_tree(total, mins), lambda i, s: (s,))


def assemble(tpl: Apply | Let, pieces: Sequence[Term]) -> Term:
    """The term of an application or let template from its slots' terms."""
    if isinstance(tpl, Apply):
        return Apply(tpl.op, tuple(pieces))
    names = [n for n, _ in tpl.bindings]
    return Let(tuple(zip(names, pieces[:-1])), pieces[-1])


def make_grammar(start: str, rules: Sequence[tuple[str, Sort, Sequence[Template]]],
                 var_sorts: Mapping[str, Sort],
                 funs: Mapping[str, FunSort] | None = None) -> Grammar:
    """Validated construction: sort-checks every production, de-duplicates
    structural duplicates with a warning, and warns about unproductive
    nonterminals once, at load."""
    g = Grammar(start, {name: Rule(sort, tuple(prods)) for name, sort, prods in rules},
                dict(var_sorts))
    nts = {name: rule.sort for name, rule in g.rules.items()}
    for name, rule in g.rules.items():
        seen: dict[Template, None] = {}
        for p in rule.productions:
            if p in seen:
                log.warning("duplicate production for %s dropped: %r", name, p)
                continue
            seen[p] = None
            got = infer_sort(p, var_sorts, nts, funs or {})
            if got != rule.sort:
                raise SortError(f"production of {name} has sort {got}, "
                                f"rule declares {rule.sort}")
        g.rules[name] = Rule(rule.sort, tuple(seen))
    for nt, size in g.min_sizes().items():
        if size == math.inf:
            log.warning("nonterminal %s derives no finite term", nt)
    return g


# ---------------------------------------------------------------------------
# Membership


def derives(g: Grammar, nt: str, t: Term) -> bool:
    """True iff t is derivable from nt; constant holes accept any literal of
    their sort. Memoized on (nonterminal, subterm identity)."""
    if nt not in g.rules:
        raise UnknownNonterminal(nt)
    memo: dict[tuple[str, int], bool] = {}

    def from_nt(nt: str, t: Term) -> bool:
        key = (nt, id(t))
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = any(match(p, t, {})
                                  for p in g.closed_productions(nt))
        return hit

    def match(tpl: Template, t: Term, env: dict[str, str]) -> bool:
        if isinstance(tpl, TNT):
            return from_nt(tpl.nt, t)
        if isinstance(tpl, Var):
            want = env.get(tpl.name, tpl.name)
            return isinstance(t, Var) and t.name == want
        if isinstance(tpl, Lit):
            return t == tpl
        if isinstance(tpl, THole):
            return isinstance(t, Lit) and value_sort(t.value) == tpl.sort
        if isinstance(tpl, Apply):
            return (isinstance(t, Apply) and t.op == tpl.op
                    and len(t.args) == len(tpl.args)
                    and all(match(c, a, env)
                            for c, a in zip(tpl.args, t.args)))
        if not (isinstance(t, Let) and len(t.bindings) == len(tpl.bindings)):
            return False
        inner = dict(env)
        for (tn, td), (cn, cd) in zip(tpl.bindings, t.bindings):
            if not match(td, cd, env):
                return False
            inner[tn] = cn
        return match(tpl.body, t.body, inner)

    return from_nt(nt, t)


# ---------------------------------------------------------------------------
# Sized enumeration, counting, uniform sampling

# Paths locate a slot's subterm inside its parent instance's term:
# int = Apply argument index, ("d", i) = i-th let binding, ("b",) = let body.
Path = tuple


def term_replace(t: Term, path: Path, sub: Term) -> Term:
    if not path:
        return sub
    step, rest = path[0], path[1:]
    if isinstance(step, int):
        args = list(t.args)
        args[step] = term_replace(args[step], rest, sub)
        return Apply(t.op, tuple(args))
    if step[0] == "d":
        bindings = list(t.bindings)
        name, d = bindings[step[1]]
        bindings[step[1]] = (name, term_replace(d, rest, sub))
        return Let(tuple(bindings), t.body)
    return Let(t.bindings, term_replace(t.body, rest, sub))


class Derivation(NamedTuple):
    """A sampled derivation: its term and its nonterminal instances in
    pre-order, each (path, nonterminal, size, divisor flag, own nodes).

    An instance's path locates its subterm from the root of term, and its
    descendants are the entries right after it whose paths extend that path.
    Own nodes counts the term nodes its production contributed, so choosing
    an instance with probability proportional to own nodes is a uniform
    choice over parse-tree nodes.
    """
    term: Term
    entries: tuple[tuple[Path, str, int, bool, int], ...]


class Enumerator:
    """Memoizing engine over one (grammar, constant pool) pair.

    enumerate() materializes de-duplicated term lists per (nonterminal, size)
    and is meant for small sizes; count() and sample() use raw derivation
    counts and stay cheap at any size. All three walk the size trees of the
    grammar's split plans: a template's count sums, over the tree's splits,
    the product of its slots' counts, and sample() draws a size slot by slot
    down the tree by those counts, both read from _sampler's one table per
    (template, size).
    """

    def __init__(self, g: Grammar, pool: Sequence[Value] = ()):
        self.g = g
        # by (type, value), since True == 1 and False == 0 in Python
        self.pool = tuple(v for _, v in dict.fromkeys((type(v), v)
                                                       for v in pool))
        self._terms: dict[tuple[str, int, bool], tuple[Term, ...]] = {}
        self._menus: dict[tuple[str, int, bool], tuple[int, tuple]] = {}
        self._pools: dict[tuple[Sort, bool], tuple[Value, ...]] = {}
        self._samplers: dict[tuple[int, int], tuple] = {}

    def _hole_pool(self, sort: Sort, no_zero: bool) -> tuple[Value, ...]:
        key = (sort, no_zero)
        hit = self._pools.get(key)
        if hit is None:
            if sort.is_bv:
                vals = [v for v in self.pool if value_sort(v) == sort]
            elif sort.name == "Bool":
                vals = [False, True]
            else:
                vals = [v for v in self.pool
                        if isinstance(v, int) and not isinstance(v, bool)
                        and not (no_zero and v == 0)]
            hit = self._pools[key] = tuple(vals)
        return hit

    # -- counting ----------------------------------------------------------

    def count(self, nt: str, size: int, no_zero: bool = False) -> int:
        return self._menu(nt, size, no_zero)[0]

    def _menu(self, nt: str, size: int, no_zero: bool) -> tuple[int, tuple]:
        """(derivations, the productions of nt with a derivation at size,
        each with its count and own nodes, in closed_productions order)."""
        key = (nt, size, no_zero and size == 1)  # holes occur only at size 1
        hit = self._menus.get(key)
        if hit is None:
            zero = dict.fromkeys(self.g.rules, 0)
            menu = () if size < 1 else tuple(
                (p, c, term_size(p, zero))
                for p in self.g.closed_productions(nt)
                if (c := self._count_tpl(p, size, no_zero)))
            hit = self._menus[key] = (sum(c for _, c, _ in menu), menu)
        return hit

    def _count_tpl(self, tpl: Template, size: int, no_zero: bool) -> int:
        if isinstance(tpl, (Var, Lit)):
            return 1 if size == 1 else 0
        if isinstance(tpl, THole):
            return len(self._hole_pool(tpl.sort, no_zero)) if size == 1 else 0
        if isinstance(tpl, TNT):
            return self.count(tpl.nt, size, no_zero)
        return self._sampler(tpl, size)[0]

    # -- enumeration -------------------------------------------------------

    def enumerate(self, nt: str, size: int, no_zero: bool = False) -> tuple[Term, ...]:
        """Every derivable term of exactly `size` nodes, production order then
        lexicographic size splits, structurally de-duplicated."""
        key = (nt, size, no_zero and size == 1)  # holes occur only at size 1
        hit = self._terms.get(key)
        if hit is None:
            hit = self._terms[key] = tuple(dict.fromkeys(
                t for p in self.g.closed_productions(nt)
                for t in self._enum_tpl(p, size, no_zero)))
        return hit

    def _enum_tpl(self, tpl: Template, size: int, no_zero: bool) -> Iterator[Term]:
        if isinstance(tpl, (Var, Lit)):
            if size == 1:
                yield tpl
        elif isinstance(tpl, THole):
            if size == 1:
                for v in self._hole_pool(tpl.sort, no_zero):
                    yield Lit(v)
        elif isinstance(tpl, TNT):
            yield from self.enumerate(tpl.nt, size, no_zero)
        else:
            slots, tree = self.g.split_plan(tpl, size)
            inst = lambda i, s: self._enum_tpl(slots[i][0], s, slots[i][1])
            for pieces in walk_splits(tree, inst):
                yield assemble(tpl, pieces)

    # -- uniform sampling (by derivation count) -----------------------------

    def sample(self, nt: str, size: int, rng: random.Random,
               no_zero: bool = False, prefix: Path = ()) -> Derivation:
        """A derivation of nt at size, uniform over derivations; its entries'
        paths start with prefix."""
        entries: list = []
        term = self._draw(nt, size, no_zero, rng, prefix, entries)
        return Derivation(term, tuple(entries))

    def _draw(self, nt: str, size: int, no_zero: bool, rng: random.Random,
              path: Path, entries: list) -> Term:
        total, menu = self._menu(nt, size, no_zero)
        if total == 0:
            raise SygusError(f"no derivation of {nt} at size {size}")
        pick = randbelow(rng, total)
        for p, c, own in menu:
            if pick < c:
                entries.append((path, nt, size, no_zero, own))
                return self._sample_tpl(p, size, no_zero, rng, path, entries)
            pick -= c
        raise AssertionError("count/sample recurrences disagree")

    def _sample_tpl(self, tpl: Template, size: int, no_zero: bool,
                    rng: random.Random, path: Path, entries: list) -> Term:
        kind = type(tpl)  # the node classes have no subclasses
        if kind is TNT:
            return self._draw(tpl.nt, size, no_zero, rng, path, entries)
        if kind is Var or kind is Lit:
            return tpl
        if kind is THole:
            vals = self._hole_pool(tpl.sort, no_zero)
            return Lit(vals[randbelow(rng, len(vals))])
        _, slots, steps, tree = self._sampler(tpl, size)
        return assemble(tpl, [
            self._sample_tpl(c, s, nz, rng, path + (step,), entries)
            for (c, nz), s, step in zip(slots, self._draw_sizes(tree, rng),
                                        steps)])

    def _sampler(self, tpl: Apply | Let, size: int) -> tuple:
        """(derivations, slots, path steps, size tree) of an application or
        let template at size, the one table per (template, size) that both
        count() and sample() read. One recursion weighs the plan's tree: a
        slot's size s weighs the slot's derivations at s times the total of
        the later slots' tree under s, and the size tree holds, for the first
        slot, its sizes of nonzero weight, their cumulative weights (the
        root's last is the count) and the weighed tree under each size."""
        key = (id(tpl), size)
        hit = self._samplers.get(key)
        if hit is None:
            slots, plan = self.g.split_plan(tpl, size)

            def weigh(tree: dict | None, i: int) -> tuple[int, tuple | None]:
                """(derivations of slots i.. down tree, their size tree)."""
                if tree is None:
                    return 1, None
                weights, later = {}, {}
                for s, sub in tree.items():
                    if n := self._count_tpl(slots[i][0], s, slots[i][1]):
                        m, t = weigh(sub, i + 1)
                        if m:
                            weights[s], later[s] = n * m, t
                return sum(weights.values()), (
                    tuple(weights), tuple(accumulate(weights.values())), later)

            steps = (tuple(range(len(slots))) if isinstance(tpl, Apply)
                     else tuple([("d", i) for i in range(len(tpl.bindings))]
                                + [("b",)]))
            total, tree = weigh(plan, 0)
            hit = self._samplers[key] = (total, slots, steps, tree)
        return hit

    @staticmethod
    def _draw_sizes(tree: tuple | None, rng: random.Random) -> list[int]:
        """Child sizes drawn slot by slot down a size tree by weighted(); the
        rng is consulted only on a real choice."""
        sizes: list[int] = []
        while tree is not None:
            choices, cum, later = tree
            s = (choices[0] if len(choices) == 1
                 else choices[weighted(rng, cum)])
            sizes.append(s)
            tree = later[s]
        return sizes

