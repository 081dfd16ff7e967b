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
through a precomputed closure, so unit cycles terminate and each reachable
production contributes exactly once to counts and enumeration.

Every walk by term size (counting, enumeration and sampling) shares a size
among a template's children through one split plan: Grammar.split_plan(tpl,
size) gives the child slots of an application or let template, each flagged
when it is a div/mod divisor, and every composition of the remaining size
into those slots with each child at least its least derivable size, in
lexicographic order. Plans depend on the grammar alone and are memoized on
it; walk_splits expands a plan slot by slot. enumerative.Bank is this
enumeration, keeping one term per signature instead of one per term.

Sampling is the stochastic solver's inner loop, so an Enumerator keeps
sample()'s tables once built: per (nonterminal, size, divisor flag) the
productions with a derivation and their counts, per hole sort its pool, and
per (template, size) a tree of its slots' size choices and weights. They
change no draw: every rng call is the one the plain recurrences make.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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
    _closures: dict[str, tuple[str, ...]] | None = field(
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

    def unit_closure(self, nt: str) -> tuple[str, ...]:
        """nt plus every nonterminal reachable through unit productions, BFS order."""
        if self._closures is None:
            self._closures = {}
        hit = self._closures.get(nt)
        if hit is None:
            self.rule(nt)
            order = [nt]
            seen = {nt}
            i = 0
            while i < len(order):
                for p in self.rule(order[i]).productions:
                    if isinstance(p, TNT) and p.nt not in seen:
                        seen.add(p.nt)
                        order.append(p.nt)
                i += 1
            hit = self._closures[nt] = tuple(order)
        return hit

    def closed_productions(self, nt: str) -> tuple[Template, ...]:
        """Non-unit productions of nt's unit closure, in deterministic order."""
        hit = self._closed.get(nt)
        if hit is None:
            hit = self._closed[nt] = tuple(
                p for m in self.unit_closure(nt)
                for p in self.rule(m).productions if not isinstance(p, TNT))
        return hit

    def split_plan(self, tpl: Apply | Let, size: int) -> tuple:
        """(slots, splits) of an application or let template at `size`: slots
        are (child, divisor flag), a let's bindings before its body; splits
        are the compositions of the size left after the template's own nodes,
        each child at least its least size, in lexicographic order. Keyed by
        template identity: walkers pass only this grammar's own templates."""
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
            splits = (() if math.inf in mins
                      else tuple(compositions(budget, [int(m) for m in mins])))
            hit = self._plans[key] = (slots, splits)
        return hit


def compositions(total: int, mins: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every way to write total as len(mins) parts, part i at least mins[i],
    in lexicographic order."""
    if not mins:
        if total == 0:
            yield ()
        return
    for s in range(mins[0], total - sum(mins[1:]) + 1):
        for rest in compositions(total - s, mins[1:]):
            yield (s,) + rest


def walk_splits(splits: Sequence[tuple[int, ...]],
                inst: Callable[[int, int], Iterable],
                chosen: tuple = ()) -> Iterator[tuple]:
    """Child tuples along a plan's splits, slot by slot: each size of the next
    slot in ascending order, each item of inst(slot, size) at that size, then
    the later slots under the splits that extend it."""
    i = len(chosen)
    if splits and i == len(splits[0]):
        yield chosen
        return
    for s, group in groupby(splits, itemgetter(i)):
        group = tuple(group)
        for item in inst(i, s):
            yield from walk_splits(group, inst, chosen + (item,))


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


@dataclass
class SlotNode:
    """One production instance in a sampled derivation.

    own_nodes counts the term nodes this instance's template contributed, so
    choosing a slot with probability proportional to own_nodes is a uniform
    choice over parse-tree nodes.
    """
    nt: str
    term: Term
    size: int
    no_zero: bool
    own_nodes: int
    children: list[tuple[Path, "SlotNode"]]


class Enumerator:
    """Memoizing engine over one (grammar, constant pool) pair.

    enumerate() materializes de-duplicated term lists per (nonterminal, size)
    and is meant for small sizes; count() and sample() use raw derivation
    counts and stay cheap at any size. All three follow the grammar's split
    plans: a template's count sums, over its splits, the product of its
    slots' counts, and sample() draws a split slot by slot by those counts.
    """

    def __init__(self, g: Grammar, pool: Sequence[Value] = ()):
        self.g = g
        # by (type, value), since True == 1 and False == 0 in Python
        self.pool = tuple(v for _, v in dict.fromkeys((type(v), v)
                                                       for v in pool))
        self._terms: dict[tuple[str, int, bool], tuple[Term, ...]] = {}
        self._menus: dict[tuple[str, int, bool], tuple[int, tuple]] = {}
        self._weights: dict[tuple[int, int], tuple[int, list]] = {}
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
        each with its count, in closed_productions order)."""
        key = (nt, size, no_zero)
        hit = self._menus.get(key)
        if hit is None:
            menu = () if size < 1 else tuple(
                (p, c) for p in self.g.closed_productions(nt)
                if (c := self._count_tpl(p, size, no_zero)))
            hit = self._menus[key] = (sum(c for _, c in menu), menu)
        return hit

    def _count_tpl(self, tpl: Template, size: int, no_zero: bool) -> int:
        if isinstance(tpl, (Var, Lit)):
            return 1 if size == 1 else 0
        if isinstance(tpl, THole):
            return len(self._hole_pool(tpl.sort, no_zero)) if size == 1 else 0
        if isinstance(tpl, TNT):
            return self.count(tpl.nt, size, no_zero)
        return self._split_weights(tpl, size)[0]

    def _split_weights(self, tpl: Apply | Let, size: int) -> tuple[int, list]:
        """(derivations, rows) of an application or let template: one row
        (split, suffix) per split with a derivation, where suffix[i] counts
        the derivations of slots i.. at that split's sizes."""
        key = (id(tpl), size)
        hit = self._weights.get(key)
        if hit is None:
            slots, splits = self.g.split_plan(tpl, size)
            rows = []
            for split in splits:
                suffix = [1]
                for (c, nz), s in zip(reversed(slots), reversed(split)):
                    n = self._count_tpl(c, s, nz)
                    if not n:
                        break
                    suffix.append(n * suffix[-1])
                else:
                    rows.append((split, suffix[::-1]))
            hit = self._weights[key] = (sum(r[1][0] for r in rows), rows)
        return hit

    # -- enumeration -------------------------------------------------------

    def enumerate(self, nt: str, size: int, no_zero: bool = False) -> tuple[Term, ...]:
        """Every derivable term of exactly `size` nodes, production order then
        lexicographic size splits, structurally de-duplicated."""
        key = (nt, size, no_zero and size == 1)  # holes occur only at size 1
        hit = self._terms.get(key)
        if hit is None:
            hit = self._terms[key] = self._distinct(key, (
                t for p in self.g.closed_productions(nt)
                for t in self._enum_tpl(p, size, no_zero)))
        return hit

    def _distinct(self, key: tuple, walk: Iterable[Term]) -> tuple[Term, ...]:
        """The walk's terms that enumerate() keeps at key: each term once."""
        return tuple(dict.fromkeys(walk))

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
            slots, splits = self.g.split_plan(tpl, size)
            inst = lambda i, s: self._enum_tpl(slots[i][0], s, slots[i][1])
            for pieces in walk_splits(splits, inst):
                yield assemble(tpl, pieces)

    # -- uniform sampling (by derivation count) -----------------------------

    def sample(self, nt: str, size: int, rng: random.Random,
               no_zero: bool = False) -> SlotNode:
        total, menu = self._menu(nt, size, no_zero)
        if total == 0:
            raise SygusError(f"no derivation of {nt} at size {size}")
        pick = rng.randrange(total)
        for p, c in menu:
            if pick < c:
                term, slots, own = self._sample_tpl(p, size, no_zero, rng, ())
                return SlotNode(nt, term, size, no_zero, own, slots)
            pick -= c
        raise AssertionError("count/sample recurrences disagree")

    def _sample_tpl(self, tpl: Template, size: int, no_zero: bool,
                    rng: random.Random, path: Path):
        if isinstance(tpl, (Var, Lit)):
            return tpl, [], 1
        if isinstance(tpl, THole):
            vals = self._hole_pool(tpl.sort, no_zero)
            return Lit(vals[rng.randrange(len(vals))]), [], 1
        if isinstance(tpl, TNT):
            node = self.sample(tpl.nt, size, rng, no_zero)
            return node.term, [(path, node)], 0
        slots, steps, own, tree = self._sampler(tpl, size)
        pieces, children = [], []
        for (c, nz), s, step in zip(slots, self._draw_sizes(tree, rng),
                                    steps):
            t, sub, o = self._sample_tpl(c, s, nz, rng, path + (step,))
            pieces.append(t)
            children.extend(sub)
            own += o
        return assemble(tpl, pieces), children, own

    def _sampler(self, tpl: Apply | Let, size: int) -> tuple:
        """(slots, path steps, own nodes, size tree) of an application or let
        template at size. The size tree holds, for the first slot, its sizes
        with a derivation, their weights and the tree of the later slots
        under each size: a slot's size s is weighted by the derivations of
        that slot at s times those of the later slots in the remaining
        budget."""
        key = (id(tpl), size)
        hit = self._samplers.get(key)
        if hit is None:
            slots, _ = self.g.split_plan(tpl, size)
            if isinstance(tpl, Apply):
                steps, own = tuple(range(len(slots))), 1
            else:
                steps = tuple([("d", i) for i in range(len(tpl.bindings))]
                              + [("b",)])
                own = 1 + len(tpl.bindings)

            rows = self._split_weights(tpl, size)[1]
            hit = self._samplers[key] = (slots, steps, own,
                                         _size_tree(rows, 0, len(slots)))
        return hit

    @staticmethod
    def _draw_sizes(tree: tuple | None, rng: random.Random) -> list[int]:
        """Child sizes drawn slot by slot down a size tree; the rng is
        consulted only on a real choice."""
        sizes: list[int] = []
        while tree is not None:
            choices, weights, later = tree
            s = (choices[0] if len(choices) == 1
                 else rng.choices(choices, weights)[0])
            sizes.append(s)
            tree = later[s]
        return sizes


def _size_tree(rows: list, i: int, n: int) -> tuple | None:
    """Slot i's sizes with a derivation, their weights (the suffix counts of
    the split_weights rows summed per size) and, per size, the tree of the
    later slots over the rows with that size; None past the last slot."""
    if i == n:
        return None
    weights: dict[int, int] = {}
    for split, suffix in rows:
        weights[split[i]] = weights.get(split[i], 0) + suffix[i]
    return (tuple(weights), tuple(weights.values()),
            {s: _size_tree([r for r in rows if r[0][i] == s], i + 1, n)
             for s in weights})
