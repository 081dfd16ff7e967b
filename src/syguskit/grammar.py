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

Counting and sampling are one recurrence, and sampling is the stochastic
solver's inner loop, so an Enumerator keeps one table for both: per
(nonterminal, size, and at size 1 the divisor flag) and per (template,
size), a derivation count and a draw closure built with it. A nonterminal's
closure holds its productions' cumulative counts, own nodes and closures; a
template's its path steps and its plan's tree weighed by those counts, each
size mapped to its slot's closure; a hole's its pool's literals. The
closures change no draw: randbelow and weighted are randrange and choices
without their argument checks, and the closures call them as the plain
recurrences do, so every value and rng state is theirs. sample() gives a
Derivation, the term and a flat pre-order tuple of its nonterminal
instances with their paths from the root, so a move replaces an instance by
splicing that tuple.
"""

from __future__ import annotations

import logging
import math
import random
from bisect import bisect
from dataclasses import dataclass, field
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
    grammar's split plans. count() and sample() read one table, _draws: per
    _drawer and _tpl_drawer key, a derivation count and the draw closure
    built with it, so a draw reads no table.
    """

    def __init__(self, g: Grammar, pool: Sequence[Value] = ()):
        self.g = g
        # by (type, value), since True == 1 and False == 0 in Python
        self.pool = tuple(v for _, v in dict.fromkeys((type(v), v)
                                                       for v in pool))
        self._terms: dict[tuple[str, int, bool], tuple[Term, ...]] = {}
        self._pools: dict[tuple[Sort, bool], tuple[Value, ...]] = {}
        self._draws: dict[tuple, tuple[int, Callable]] = {}

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

    # -- counting and uniform sampling (by derivation count) ---------------

    def count(self, nt: str, size: int, no_zero: bool = False) -> int:
        return self._drawer(nt, size, no_zero)[0]

    def sample(self, nt: str, size: int, rng: random.Random,
               no_zero: bool = False, prefix: Path = ()) -> Derivation:
        """A derivation of nt at size, uniform over derivations; its entries'
        paths start with prefix. Drawn by nt's draw closure at size, which
        makes the rng calls of the plain recursion, in its order: one
        randbelow(derivations) per instance, then its template's slot sizes
        (weighted, only where there is a choice), then its slots, left to
        right. Raises before any draw when nt has no derivation at size."""
        total, draw = self._drawer(nt, size, no_zero)
        if not total:
            raise SygusError(f"no derivation of {nt} at size {size}")
        entries: list = []
        term = draw(rng, prefix, entries, no_zero)
        return Derivation(term, tuple(entries))

    def _drawer(self, nt: str, size: int,
                no_zero: bool) -> tuple[int, Callable]:
        """(derivations, draw closure) of nt at size, built once per key; the
        key keeps the divisor flag at size 1 only, where the holes are.
        draw(rng, path, entries, no_zero) picks one of nt's closed
        productions with a derivation by randbelow over their cumulative
        counts, appends the instance to entries with the flag it is passed,
        and returns the term of that production's closure."""
        key = (nt, size, no_zero and size == 1)
        hit = self._draws.get(key)
        if hit is None:
            zero = dict.fromkeys(self.g.rules, 0)
            cum, prods, total = [], [], 0
            for p in self.g.closed_productions(nt) if size >= 1 else ():
                c, kid = self._tpl_drawer(p, size, key[2])
                if c:
                    total += c
                    cum.append(total)
                    prods.append((term_size(p, zero), kid))

            def draw(rng, path, entries, no_zero):
                own, kid = prods[bisect(cum, randbelow(rng, total))]
                entries.append((path, nt, size, no_zero, own))
                return kid(rng, path, entries, no_zero)
            hit = self._draws[key] = (total, draw)
        return hit

    def _tpl_drawer(self, tpl: Template, size: int,
                    no_zero: bool) -> tuple[int, Callable]:
        """(derivations, draw closure) of a template at size, the closure
        called as _drawer's. A hole's holds its pool's literals. An
        application's or let's, built once per (template, size), holds its
        plan's size tree weighed and compiled in one recursion: a slot's
        size s weighs the slot's derivations at s times the total of the
        later slots under s, a size of weight 0 is dropped, a real choice is
        a list [cumulative weights, subtrees] that weighted() picks from, and
        a leaf is a tuple of every slot's (closure, path step, divisor flag).
        """
        kind = type(tpl)  # the node classes have no subclasses
        if kind is TNT:
            return self._drawer(tpl.nt, size, no_zero)
        if kind is Var or kind is Lit:
            return int(size == 1), lambda rng, path, entries, no_zero: tpl
        if kind is THole:
            lits = (tuple(map(Lit, self._hole_pool(tpl.sort, no_zero)))
                    if size == 1 else ())
            return len(lits), lambda rng, path, entries, no_zero: \
                lits[randbelow(rng, len(lits))]
        key = (id(tpl), size)
        hit = self._draws.get(key)
        if hit is None:
            slots, plan = self.g.split_plan(tpl, size)
            steps = (tuple(range(len(slots))) if kind is Apply
                     else tuple([("d", i) for i in range(len(tpl.bindings))]
                                + [("b",)]))

            def weigh(tree: dict | None,
                      kids: tuple) -> tuple[int, list | tuple]:
                """(derivations of slots len(kids).. down tree, and that
                tree compiled)."""
                if tree is None:
                    return 1, kids
                total, cum, subs = 0, [], []
                for s, later in tree.items():
                    (c, nz), step = slots[len(kids)], steps[len(kids)]
                    n, kid = self._tpl_drawer(c, s, nz)
                    if n:
                        m, sub = weigh(later, kids + ((kid, step, nz),))
                        if m:
                            total += n * m
                            cum.append(total)
                            subs.append(sub)
                return total, subs[0] if len(subs) == 1 else [cum, subs]

            total, root = weigh(plan, ())

            def draw(rng, path, entries, no_zero):
                node = root
                while type(node) is list:
                    node = node[1][weighted(rng, node[0])]
                return assemble(tpl, [kid(rng, path + (step,), entries, nz)
                                      for kid, step, nz in node])
            hit = self._draws[key] = (total, draw)
        return hit
