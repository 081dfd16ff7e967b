"""Shared CEGIS machinery: outcomes, example sets, constant pools, and the
one candidate scorer.

Counterexamples are valuations of the problem's universal variables. For
every example and every syntactically distinct invocation of an unknown, the
argument terms are evaluated at the example to bind the unknown's parameters;
a term's signature is its output vector over these induced bindings,
composed pointwise from its arguments' signatures (Pointwise); signature()
is the reference tree walk. Both solvers ask Scorer which examples a
candidate gets wrong: the enumerative solver hands it the signatures from
its banks, the stochastic one the bodies, whose signatures Scorer composes
and memoises per unknown (Signatures). Scorer compiles its constraint
skeletons once (terms.compile_term) and scores an example on its raw point
followed by the candidate's raw slot values; an example the skeletons cannot
decide is scored on the verifier's own compiled constraints
(checker.compiled_constraints), so a candidate's meaning is the verifier's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .checker import _violated_index, compiled_constraints
from .checker import falsified  # noqa: F401 (perfbench/tracing.py wraps it)
from .frontend import CandidateSolution, SynthProblem
from .sexpr import print_sexpr
from .terms import (BV, OPS, Apply, DivisionByZero, FunDef, Let, Lit, Term,
                    UndeclaredSymbol, Value, Var, compile_term, evaluate,
                    raw_value, subterms)


@dataclass
class Solved:
    solution: CandidateSolution
    elapsed_s: float
    sizes: dict[str, int]

    @property
    def total_size(self) -> int:
        return sum(self.sizes.values())


@dataclass
class Exhausted:
    max_size: int


@dataclass
class TimedOut:
    budget_s: float


SolveOutcome = Solved | Exhausted | TimedOut


class Deadline:
    def __init__(self, budget_s: float):
        self.budget_s = budget_s
        self.start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def expired(self) -> bool:
        return self.elapsed() >= self.budget_s


class ExampleSet:
    """Ordered counterexamples, duplicates rejected."""

    def __init__(self, points: Iterable[Mapping[str, Value]] = ()):
        self.points: list[dict] = []
        for p in points:
            self.add(p)

    def add(self, point: Mapping[str, Value]) -> bool:
        point = dict(point)
        if point in self.points:
            return False
        self.points.append(point)
        return True

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


class _Err:
    """Distinguished signature token for evaluation errors."""

    __slots__ = ()

    def __repr__(self):
        return "⊥"


ERR = _Err()


def make_solution(p: SynthProblem, bodies: Mapping[str, Term]) -> CandidateSolution:
    return CandidateSolution({n: FunDef(n, u.params, u.ret, bodies[n])
                              for n, u in p.unknowns.items()})


# ---------------------------------------------------------------------------
# Constant pool (the "(Constant Int)" gap)


def base_constant_pool(p: SynthProblem) -> tuple[Value, ...]:
    """Integer (and bit-vector) literals of the problem text plus {-1, 0, 1, 2}."""
    found: dict[Value, None] = {}
    for t in [*p.constraints, *(f.body for f in p.defined_funs.values())]:
        for s in subterms(t):
            if isinstance(s, Lit) and not isinstance(s.value, bool):
                found[s.value] = None
    ints = sorted({v for v in found if isinstance(v, int)} | {-1, 0, 1, 2})
    bvs = sorted((v for v in found if isinstance(v, BV)),
                 key=lambda b: (b.width, b.value))
    return tuple(ints) + tuple(bvs)


def pool_with_examples(base: Sequence[Value], E: ExampleSet) -> tuple[Value, ...]:
    """base, then the examples' Int and bit-vector values in sorted order;
    the Enumerator drops repeats."""
    ints = sorted({v for point in E for v in point.values()
                   if type(v) is int})
    bvs = sorted({v for point in E for v in point.values()
                  if isinstance(v, BV)}, key=lambda b: (b.width, b.value))
    return (*base, *ints, *bvs)


# ---------------------------------------------------------------------------
# Examples, invocations, signatures


def unknown_invocations(p: SynthProblem) -> dict[str, list[tuple[Term, ...]]]:
    """Syntactically distinct argument tuples per unknown, in constraint order."""
    apps: dict[str, dict[tuple[Term, ...], None]] = {n: {} for n in p.unknowns}
    for c in p.constraints:
        for t in subterms(c):
            if isinstance(t, Apply) and t.op in apps:
                apps[t.op].setdefault(t.args, None)
    return {n: list(tuples) for n, tuples in apps.items()}


def induced_bindings(p: SynthProblem, unknown: str,
                     E: ExampleSet) -> tuple[list[dict], dict[tuple[int, int], int]]:
    """Parameter bindings induced by E, deduplicated in first-seen order.

    Also returns the map (example index, invocation index) -> binding index
    so constraint-level checks can look a term's value back up. An
    invocation whose arguments raise at an example, or need an unknown's
    body, gets no entry for that example.
    """
    u = p.unknowns[unknown]
    tuples = unknown_invocations(p)[unknown]
    names = [n for n, _ in u.params]
    bindings: list[dict] = []
    seen: dict[tuple, int] = {}
    index: dict[tuple[int, int], int] = {}
    for ei, point in enumerate(E):
        for ti, args in enumerate(tuples):
            try:
                vals = tuple(evaluate(a, point, p.defined_funs) for a in args)
            except (DivisionByZero, UndeclaredSymbol):
                continue  # an argument that raises or calls an unknown
            k = seen.get(vals)
            if k is None:
                k = seen[vals] = len(bindings)
                bindings.append(dict(zip(names, vals)))
            index[(ei, ti)] = k
    return bindings, index


def signature(t: Term, bindings: Sequence[Mapping[str, Value]],
              defs: Mapping[str, FunDef]) -> tuple:
    """Output vector over the bindings; errors map to the ERR token."""
    out = []
    for b in bindings:
        try:
            out.append(evaluate(t, b, defs))
        except DivisionByZero:
            out.append(ERR)
    return tuple(out)


class Pointwise:
    """Signatures over one list of bindings, each composed pointwise from its
    arguments' signatures, so a term costs one operator application per
    point and not a tree walk. ite/and/or/=> keep the evaluator's laziness,
    so an untaken branch swallows its errors; a defined function such as qm
    runs its body compiled once (terms.compile_term); a let goes through the
    reference signature()."""

    def __init__(self, bindings: Sequence[Mapping[str, Value]],
                 defs: Mapping[str, FunDef]):
        self.bindings = list(bindings)
        self.defs = defs
        self._calls: dict[str, Callable[..., Value]] = {}

    def of(self, t: Term, arg: Callable[[Term], tuple]) -> tuple:
        """t's signature; an application's from arg(a) of each argument a."""
        if isinstance(t, Apply):
            return self.apply(t.op, [arg(a) for a in t.args])
        if isinstance(t, Var):
            # built from a list here and below: tuple() of an iterator of
            # unknown length resizes its result, which fills CPython's free
            # list of tuples of the signature's length (up to 2,000 of them)
            return tuple([b[t.name] for b in self.bindings])
        if isinstance(t, Lit):
            return (t.value,) * len(self.bindings)
        return signature(t, self.bindings, self.defs)

    def apply(self, op: str, sigs: Sequence[tuple]) -> tuple:
        """The signature of op applied to arguments of these signatures."""
        n = len(self.bindings)
        if not n:
            return ()
        if op == "ite":
            return tuple([ERR if c is ERR else (a if c else b)
                          for c, a, b in zip(*sigs)])
        if op in ("and", "or", "=>"):
            return tuple([_connective(op, xs) for xs in zip(*sigs)])
        spec = OPS.get(op)
        if spec is not None:
            value = spec.lift if spec.operand == "bv" else spec.value
        else:
            value = self._calls.get(op) or self._call(op)
        if sigs and not any(ERR in s for s in sigs):
            try:
                return tuple(list(map(value, *sigs)))
            except DivisionByZero:
                pass
        out = []
        for xs in zip(*sigs) if sigs else [()] * n:
            if any(x is ERR for x in xs):
                out.append(ERR)
                continue
            try:
                out.append(value(*xs))
            except DivisionByZero:
                out.append(ERR)
        return tuple(out)

    def _call(self, op: str) -> Callable[..., Value]:
        """A defined function's value at signature values: bit-vector
        arguments go in as their raw ints, a bit-vector result comes back
        as a BV."""
        f = self.defs.get(op)
        if f is None:
            raise UndeclaredSymbol(op)
        body = compile_term(f.body, f.params, self.defs)
        raw = [s.is_bv for _, s in f.params]
        w = f.ret.width if f.ret.is_bv else None

        def value(*xs):
            if True in raw:
                xs = tuple([x.value if r else x for x, r in zip(xs, raw)])
            out = body(xs)
            return out if w is None else BV(w, out)

        self._calls[op] = value
        return value


def _connective(op: str, xs: tuple):
    """and/or/=> at one point: the first operand that settles the result
    decides it, so an error there wins and an error after it is swallowed."""
    if op == "and":
        return next((x for x in xs if x is ERR or x is False), True)
    if op == "or":
        return next((x for x in xs if x is ERR or x is True), False)
    x = next((x for x in xs[:-1] if x is ERR or x is False), None)
    return xs[-1] if x is None else ERR if x is ERR else True


# terms whose signatures a Signatures keeps, the oldest dropped first
SIG_MEMO = 256


class Signatures(Pointwise):
    """signature() over fixed bindings as a callable, composed pointwise and
    memoised for the last SIG_MEMO terms by identity: a stochastic move
    rebuilds only the path to the subtree it replaced, so a proposal shares
    every other subterm object with the body it came from. A memo entry
    keeps its term alive, so no other term can have its id."""

    def __init__(self, bindings: Sequence[Mapping[str, Value]],
                 defs: Mapping[str, FunDef]):
        super().__init__(bindings, defs)
        self.memo: dict[int, tuple[Term, tuple]] = {}

    def __call__(self, t: Term) -> tuple:
        hit = self.memo.get(id(t))
        if hit is not None:
            return hit[1]
        sig = self.of(t, self)
        if len(self.memo) >= SIG_MEMO:
            del self.memo[next(iter(self.memo))]
        self.memo[id(t)] = (t, sig)
        return sig


class Scorer:
    """The examples a candidate gets wrong, for one problem and example set.

    Each unknown invocation in a constraint becomes a slot variable, and an
    example is scored on these skeletons from the candidate's signatures over
    the induced bindings. Where a slot is ERR or an invocation has no
    binding, the example is scored on the checker's compiled constraints
    with the bodies substituted, as the verifier scores it: an argument
    counts only where the body reads it, an error only where it is reached.
    naive: some example has an invocation without a binding, so signatures
    do not decide every example and must not prune.
    """

    def __init__(self, p: SynthProblem, E: ExampleSet):
        self.p = p
        tuples = unknown_invocations(p)
        self.bindings: dict[str, list[dict]] = {}
        self.sig: dict[str, Signatures] = {}
        index = {}
        for n in p.unknowns:
            self.bindings[n], index[n] = induced_bindings(p, n, E)
            self.sig[n] = Signatures(self.bindings[n], p.defined_funs)

        def skeleton(t: Term) -> Term:
            if isinstance(t, Apply):
                if t.op in tuples:
                    return Var(f"·{t.op}@{tuples[t.op].index(t.args)}")
                return Apply(t.op, tuple(skeleton(a) for a in t.args))
            if isinstance(t, Let):
                return Let(tuple((n, skeleton(d)) for n, d in t.bindings),
                           skeleton(t.body))
            return t

        slots = [(n, ti) for n, ts in tuples.items() for ti in range(len(ts))]
        # the skeletons, compiled over the universals, then the slots
        params = [*p.universals.items(),
                  *((f"·{n}@{ti}", p.unknowns[n].ret) for n, ti in slots)]
        self.skeletons = [compile_term(skeleton(c), params, p.defined_funs)
                          for c in p.constraints]
        # per example: (raw point, [(unknown, binding index, is a
        # bit-vector)] per slot, or None if some slot has no binding)
        self.rows: list[tuple[tuple, list | None]] = []
        for ei, point in enumerate(E):
            ks = [index[n].get((ei, ti)) for n, ti in slots]
            self.rows.append((tuple(raw_value(point[n]) for n in p.universals),
                              None if None in ks else [
                (n, k, p.unknowns[n].ret.is_bv)
                for (n, _), k in zip(slots, ks)]))
        self.naive = any(row is None for _, row in self.rows)

    def wrong(self, bodies: Mapping[str, Term],
              sigs: Mapping[str, tuple] | None = None) -> Iterator[int]:
        """Indices of the examples at which some constraint fails under the
        bodies. sigs, when given, are the bodies' signatures over
        self.bindings; otherwise they are computed here."""
        if sigs is None:
            sigs = {n: self.sig[n](b) for n, b in bodies.items()}
        whole = None
        for ei, (raw, row) in enumerate(self.rows):
            if row is not None:
                env = list(raw)
                for n, k, is_bv in row:
                    v = sigs[n][k]
                    if v is ERR:
                        break
                    env.append(v.value if is_bv else v)
                else:
                    env = tuple(env)
                    try:
                        bad = any(not c(env) for c in self.skeletons)
                    except DivisionByZero:
                        bad = True
                    if bad:
                        yield ei
                    continue
            if whole is None:
                whole = compiled_constraints(self.p,
                                             make_solution(self.p, bodies))
            if _violated_index(whole, raw) is not None:
                yield ei


def count_wrong(scorer: Scorer, bodies: Mapping[str, Term]) -> int:
    """How many examples the bodies get wrong."""
    return sum(1 for _ in scorer.wrong(bodies))


def describe_point(point: Mapping[str, Value]) -> str:
    return "(" + " ".join(f"{k}={print_sexpr(v)}" for k, v in point.items()) + ")"
