"""Typed terms over Int/Bool/BitVec: sorts, values, sort inference, evaluation.

Terms are immutable and hashable; structural equality is the only equality.
Evaluation follows SMT-LIB semantics: Euclidean integer div/mod, total
bit-vector division (udiv by zero = all ones, urem by zero = dividend),
shifts saturating at the width, and lazy ite/and/or/=>.

A grammar production (a Template) is a term whose leaves may also be a
nonterminal (TNT) or a constant hole (THole), so one node type serves both:
`infer_sort` is the one sort checker of terms and productions, the frontend
has one printer for both, and a production's Var and Lit leaves are the
terms they derive. `expand` is the one expander: it replaces applications of
given functions by their bodies (defined functions, or candidate bodies for
the unknowns).

`OPS` is the one place a built-in operator is described: its least and
greatest arity, its operand and result sorts, its value function (for a
bit-vector operator, a function of the width that returns the function of
masked unsigned ints at that width), and whether it is commutative.
`apply_sort` types an application from it (for `infer_sort` and the
frontend); `op_value` is the one cache of OPS values: it binds a bit-vector
operator's width once per width and gives `evaluate`, `Pointwise` and
`compile_term` the one function per (op, width) they compute values with;
given an arity of two, Int `+` and `-` are `operator.add` and `operator.sub`.
Only ite/and/or/=> are evaluated in place, and defined functions by their
bodies.

`evaluate` is the reference tree walk over BV values. The other two
evaluators work on raw values (a bit-vector as its masked int, its width
fixed by its sort). `Pointwise` evaluates a term over many rows at once, an
application's column composed from its arguments' columns with ERR marking
the rows where evaluation raised, and only and/or/=> evaluating an operand
on fewer rows: the enumerative bank's and the scorer's signatures over
bindings, and the checker's blocks of grid or sample points, a single
point being a block of one; a plain tuple column never holds ERR, and one
that may is marked, so no column is scanned for it but the one an ite
over a marked operand builds. `compile_term` turns a
let-free term once into a closure over one tuple of raw values, for the
scorer's constraint skeletons and the defined functions they call.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence, Union


class SygusError(Exception):
    """Base class for everything this package raises on bad input."""


class SortError(SygusError):
    pass


class UndeclaredSymbol(SygusError):
    pass


class DivisionByZero(SygusError, ArithmeticError):
    """Integer division by zero; the valuation is outside the term's safe domain."""


class UnknownNonterminal(SygusError):
    pass


# ---------------------------------------------------------------------------
# Sorts and values


@dataclass(frozen=True)
class Sort:
    name: str
    width: int | None = None

    @property
    def is_bv(self) -> bool:
        return self.name == "BitVec"

    def __repr__(self):
        if self.is_bv:
            return f"(BitVec {self.width})"
        return self.name


INT = Sort("Int")
BOOL = Sort("Bool")


def bitvec(width: int) -> Sort:
    if width < 1:
        raise SortError(f"bit-vector width must be >= 1, got {width}")
    return Sort("BitVec", width)


@dataclass(frozen=True)
class BV:
    """Fixed-width unsigned bit-vector value; magnitude reduced mod 2**width."""

    width: int
    value: int

    def __post_init__(self):
        if self.width < 1:
            raise SortError(f"bit-vector width must be >= 1, got {self.width}")
        object.__setattr__(self, "value", self.value & ((1 << self.width) - 1))

    def __repr__(self):
        if self.width % 4 == 0:
            return "#x%0*x" % (self.width // 4, self.value)
        return "#b" + format(self.value, f"0{self.width}b")


# bool must be tested before int everywhere: bool subclasses int in Python.
Value = Union[bool, int, BV]

Valuation = Mapping[str, Value]


def value_sort(v: Value) -> Sort:
    if isinstance(v, bool):
        return BOOL
    if isinstance(v, BV):
        return bitvec(v.width)
    return INT


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lit:
    value: Value

    # by (type, value), since True == 1 and False == 0 in Python
    def __eq__(self, other):
        return (type(other) is Lit and type(other.value) is type(self.value)
                and other.value == self.value)

    def __hash__(self):
        return hash((type(self.value), self.value))


@dataclass(frozen=True)
class Apply:
    op: str
    args: tuple["Term", ...]


@dataclass(frozen=True)
class Let:
    bindings: tuple[tuple[str, "Term"], ...]
    body: "Term"


Term = Union[Var, Lit, Apply, Let]


# The two leaves only a grammar production has: a nonterminal, and a constant
# hole that any literal of its sort fills.


@dataclass(frozen=True)
class TNT:
    nt: str


@dataclass(frozen=True)
class THole:
    sort: Sort


Template = Union[Var, Lit, Apply, Let, TNT, THole]


@dataclass(frozen=True)
class FunDef:
    """A named function: define-fun, candidate body, or unknown signature."""

    name: str
    params: tuple[tuple[str, Sort], ...]
    ret: Sort
    body: Term

    @property
    def param_sorts(self) -> tuple[Sort, ...]:
        return tuple(s for _, s in self.params)

    @property
    def fun_sort(self) -> FunSort:
        return FunSort(self.param_sorts, self.ret)


@dataclass(frozen=True)
class FunSort:
    params: tuple[Sort, ...]
    ret: Sort


def term_size(t: Template, nt_sizes: Mapping[str, float] | None = None) -> float:
    """Node count of the parse tree; a let costs 1 + one node per binding site.
    In a production a hole is one node and a nonterminal its least derivable
    size in nt_sizes (math.inf if absent)."""
    if isinstance(t, (Var, Lit, THole)):
        return 1
    if isinstance(t, Apply):
        return 1 + sum(term_size(a, nt_sizes) for a in t.args)
    if isinstance(t, Let):
        return (1 + len(t.bindings)
                + sum(term_size(d, nt_sizes) for _, d in t.bindings)
                + term_size(t.body, nt_sizes))
    if isinstance(t, TNT):
        return (nt_sizes or {}).get(t.nt, math.inf)
    raise TypeError(f"not a term: {t!r}")


def free_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Lit):
        return frozenset()
    if isinstance(t, Apply):
        out: frozenset[str] = frozenset()
        for a in t.args:
            out |= free_vars(a)
        return out
    bound = frozenset(n for n, _ in t.bindings)
    out = free_vars(t.body) - bound
    for _, d in t.bindings:
        out |= free_vars(d)
    return out


def subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, Apply):
        for a in t.args:
            yield from subterms(a)
    elif isinstance(t, Let):
        for _, d in t.bindings:
            yield from subterms(d)
        yield from subterms(t.body)


# ---------------------------------------------------------------------------
# Operator table


def euclidean_div(x: int, d: int) -> int:
    if d == 0:
        raise DivisionByZero("div by zero")
    r = x % abs(d)
    return (x - r) // d


def euclidean_mod(x: int, d: int) -> int:
    if d == 0:
        raise DivisionByZero("mod by zero")
    return x % abs(d)


# A "bv" operator's value takes the width and returns the function of raw
# values at that width: the C-level one where the width does not matter,
# else a closure over the width's mask (m, 2**w - 1) or sign bit (s); a
# w-bit a is the signed (a ^ s) - s.


def _masked(f: Callable[[int], Callable]) -> Callable[[int], Callable]:
    return lambda w: f((1 << w) - 1)


def _sign(f: Callable[[int], Callable]) -> Callable[[int], Callable]:
    return lambda w: f(1 << (w - 1))


def _bv_sdiv(s: int) -> Callable[[int, int], int]:
    def sdiv(a: int, b: int) -> int:
        # unsigned division of the magnitudes, then the sign
        sa, sb = (a ^ s) - s, (b ^ s) - s
        q = 2 * s - 1 if sb == 0 else abs(sa) // abs(sb)
        return (-q if (sa < 0) != (sb < 0) else q) & (2 * s - 1)
    return sdiv


def _bv_srem(s: int) -> Callable[[int, int], int]:
    def srem(a: int, b: int) -> int:
        sa, sb = (a ^ s) - s, (b ^ s) - s
        r = abs(sa) if sb == 0 else abs(sa) % abs(sb)
        return (-r if sa < 0 else r) & (2 * s - 1)
    return srem


def _bv_shl(w: int) -> Callable[[int, int], int]:
    m = (1 << w) - 1
    return lambda a, b: 0 if b >= w else (a << b) & m


@dataclass(frozen=True)
class Op:
    """One built-in operator.

    operand is INT, BOOL, "bv" (one bit-vector sort shared by every
    operand), "same" (one sort shared by both operands) or "ite" (a Bool
    condition, then two branches of one sort); result None means the shared
    operand sort (the branch sort for ite). value maps operand values to the
    result; a "bv" operator's takes the width and returns the function of
    bit-vectors as masked unsigned ints at that width, which op_value binds
    once per (op, width). value is None for the lazy ite/and/or/=>.
    commutative: swapping two operands never changes the value, errors
    included, so the lazy connectives are not marked."""

    lo: int                                 # least arity
    hi: int | None                          # greatest arity; None: unbounded
    operand: Sort | str
    result: Sort | None
    value: Callable[..., Value] | None
    commutative: bool = False


OPS: dict[str, Op] = {
    # Int; "-" with one operand is negation
    "+": Op(1, None, INT, INT, lambda *xs: sum(xs), True),
    "-": Op(1, None, INT, INT, lambda x, *ys: x - sum(ys) if ys else -x),
    "*": Op(1, None, INT, INT, lambda *xs: math.prod(xs), True),
    "div": Op(2, 2, INT, INT, euclidean_div),
    "mod": Op(2, 2, INT, INT, euclidean_mod),
    "<": Op(2, 2, INT, BOOL, operator.lt),
    "<=": Op(2, 2, INT, BOOL, operator.le),
    ">": Op(2, 2, INT, BOOL, operator.gt),
    ">=": Op(2, 2, INT, BOOL, operator.ge),
    # Bool; arity >= 1 (the max2 listing has a 1-ary or); => is
    # right-associative
    "and": Op(1, None, BOOL, BOOL, None),
    "or": Op(1, None, BOOL, BOOL, None),
    "=>": Op(2, None, BOOL, BOOL, None),
    "not": Op(1, 1, BOOL, BOOL, operator.not_),
    "xor": Op(2, 2, BOOL, BOOL, operator.ne, True),
    "xnor": Op(2, 2, BOOL, BOOL, operator.eq, True),
    "iff": Op(2, 2, BOOL, BOOL, operator.eq, True),
    "nand": Op(2, 2, BOOL, BOOL, lambda a, b: not (a and b), True),
    "nor": Op(2, 2, BOOL, BOOL, lambda a, b: not (a or b), True),
    "=": Op(2, 2, "same", BOOL, operator.eq, True),
    "ite": Op(3, 3, "ite", None, None),
    # BitVec: every operand of one width; & m is % 2**w, negatives included
    "bvnot": Op(1, 1, "bv", None,
                _masked(lambda m: functools.partial(operator.xor, m))),
    "bvneg": Op(1, 1, "bv", None, _masked(lambda m: lambda a: -a & m)),
    "bvand": Op(2, 2, "bv", None, lambda w: operator.and_, True),
    "bvor": Op(2, 2, "bv", None, lambda w: operator.or_, True),
    "bvxor": Op(2, 2, "bv", None, lambda w: operator.xor, True),
    "bvadd": Op(2, 2, "bv", None, _masked(lambda m: lambda a, b: (a + b) & m),
                True),
    "bvsub": Op(2, 2, "bv", None, _masked(lambda m: lambda a, b: (a - b) & m)),
    "bvmul": Op(2, 2, "bv", None, _masked(lambda m: lambda a, b: a * b & m),
                True),
    # division by zero is total: udiv gives all ones, urem the dividend
    "bvudiv": Op(2, 2, "bv", None,
                 _masked(lambda m: lambda a, b: a // b if b else m)),
    "bvurem": Op(2, 2, "bv", None, lambda w: lambda a, b: a % b if b else a),
    "bvsdiv": Op(2, 2, "bv", None, _sign(_bv_sdiv)),
    "bvsrem": Op(2, 2, "bv", None, _sign(_bv_srem)),
    # shifts saturate at the width, which a right shift of a w-bit value
    # does by itself; bvshr is a legacy spelling of bvlshr
    "bvshl": Op(2, 2, "bv", None, _bv_shl),
    "bvlshr": Op(2, 2, "bv", None, lambda w: operator.rshift),
    "bvshr": Op(2, 2, "bv", None, lambda w: operator.rshift),
    "bvashr": Op(2, 2, "bv", None, _sign(
        lambda s: lambda a, b: ((a ^ s) - s) >> b & (2 * s - 1))),
    "bvult": Op(2, 2, "bv", BOOL, lambda w: operator.lt),
    "bvule": Op(2, 2, "bv", BOOL, lambda w: operator.le),
    "bvugt": Op(2, 2, "bv", BOOL, lambda w: operator.gt),
    "bvuge": Op(2, 2, "bv", BOOL, lambda w: operator.ge),
    "bvslt": Op(2, 2, "bv", BOOL, _sign(lambda s: lambda a, b: a ^ s < b ^ s)),
    "bvsle": Op(2, 2, "bv", BOOL, _sign(lambda s: lambda a, b: a ^ s <= b ^ s)),
    "bvsgt": Op(2, 2, "bv", BOOL, _sign(lambda s: lambda a, b: a ^ s > b ^ s)),
    "bvsge": Op(2, 2, "bv", BOOL, _sign(lambda s: lambda a, b: a ^ s >= b ^ s)),
}


def apply_sort(op: str, sorts: Sequence[Sort],
               funs: Mapping[str, Sort | FunSort]) -> Sort:
    """Result sort of op applied to operands of the given sorts; funs gives
    the signatures of the functions outside OPS."""
    spec = OPS.get(op)
    if spec is None:
        sig = funs.get(op)
        if not isinstance(sig, FunSort):
            raise UndeclaredSymbol(op)
        if len(sorts) != len(sig.params):
            raise SortError(f"{op} expects {len(sig.params)} arguments, "
                            f"got {len(sorts)}")
        for s, want in zip(sorts, sig.params):
            if s != want:
                raise SortError(f"argument of {op} has wrong sort")
        return sig.ret
    if len(sorts) < spec.lo or (spec.hi is not None and len(sorts) > spec.hi):
        raise SortError(f"{op} applied to {len(sorts)} arguments")
    shared = spec.operand
    if isinstance(shared, str):
        if shared == "ite":
            if sorts[0] != BOOL:
                raise SortError("ite condition must be Bool")
            sorts = sorts[1:]
        elif shared == "bv" and not sorts[0].is_bv:
            raise SortError(f"{op} expects bit-vectors")
        shared = sorts[0]
    for s in sorts:
        if s != shared:
            raise SortError(f"{op} expects {shared}, got {s}")
    return shared if spec.result is None else spec.result


def infer_sort(t: Template, ctx: Mapping[str, Sort | FunSort],
               nts: Mapping[str, Sort] | None = None,
               funs: Mapping[str, Sort | FunSort] | None = None) -> Sort:
    """Unique sort of a term or production. ctx gives the sorts of variables
    and, unless funs is given, the signatures of functions; nts gives the
    sorts of a grammar's nonterminals. As in the parser, a let binding hides
    a variable of its name but not a function."""
    if funs is None:
        funs = ctx
    if isinstance(t, Var):
        s = ctx.get(t.name)
        if s is None:
            raise UndeclaredSymbol(t.name)
        if isinstance(s, FunSort):
            raise SortError(f"{t.name} is a function, not a variable")
        return s
    if isinstance(t, Lit):
        return value_sort(t.value)
    if isinstance(t, Let):
        inner = dict(ctx)
        for name, d in t.bindings:
            inner[name] = infer_sort(d, ctx, nts, funs)
        return infer_sort(t.body, inner, nts, funs)
    if isinstance(t, TNT):
        s = (nts or {}).get(t.nt)
        if s is None:
            raise UnknownNonterminal(t.nt)
        return s
    if isinstance(t, THole):
        return t.sort
    return apply_sort(t.op, [infer_sort(a, ctx, nts, funs) for a in t.args],
                      funs)


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(t: Term, v: Valuation, defs: Mapping[str, FunDef] | None = None) -> Value:
    """Evaluate a sort-correct term; v must cover its free variables.

    defs resolves applied functions (non-recursive, fully applied); candidate
    bodies for unknowns can be passed the same way.
    """
    defs = defs or {}

    def ev(t: Term, env: Valuation) -> Value:
        if isinstance(t, Var):
            try:
                return env[t.name]
            except KeyError:
                raise UndeclaredSymbol(t.name) from None
        if isinstance(t, Lit):
            return t.value
        if isinstance(t, Let):
            inner = dict(env)
            for name, d in t.bindings:
                inner[name] = ev(d, env)  # parallel: defs see the outer env
            return ev(t.body, inner)

        op, args = t.op, t.args
        if op == "ite":
            return ev(args[1], env) if ev(args[0], env) else ev(args[2], env)
        if op == "and":
            return all(ev(a, env) for a in args)
        if op == "or":
            return any(ev(a, env) for a in args)
        if op == "=>":
            # right-associative: any false premise settles it
            for a in args[:-1]:
                if not ev(a, env):
                    return True
            return bool(ev(args[-1], env))

        xs = [ev(a, env) for a in args]
        spec = OPS.get(op)
        if spec is not None:
            if spec.operand != "bv":
                return spec.value(*xs)
            w = xs[0].width
            out = op_value(op, w)(*[x.value for x in xs])
            return out if spec.result is BOOL else BV(w, out)
        f = defs.get(op)
        if f is not None:
            bound = {name: x for (name, _), x in zip(f.params, xs)}
            return ev(f.body, bound)
        raise UndeclaredSymbol(op)

    return ev(t, v)


def raw_value(v: Value) -> bool | int:
    """A value as compiled terms see it: a bit-vector as its masked int."""
    return v.value if isinstance(v, BV) else v


# the lazy connectives of two operands; n operands nest to the right
_JOIN = {
    "and": lambda a, b: lambda e: a(e) and b(e),
    "or": lambda a, b: lambda e: a(e) or b(e),
    "=>": lambda a, b: lambda e: not a(e) or b(e),
}


# Int + and - of two operands, as C-level functions of the same values
_PAIRWISE = {"+": operator.add, "-": operator.sub}


@functools.cache
def op_value(op: str, width: int | None,
             arity: int | None = None) -> Callable[..., Value]:
    """The OPS entry op's value at raw values, with width bound for a
    bit-vector operator; made once per (op, width) and kept, so every
    evaluator applies the one function. An arity of 2 gives Int + and -
    as operator.add and operator.sub, which cost about a fifth of OPS'
    lambdas per row."""
    if arity == 2 and op in _PAIRWISE:
        return _PAIRWISE[op]
    spec = OPS[op]
    return spec.value(width) if spec.operand == "bv" else spec.value


def compile_term(t: Term, params: Sequence[tuple[str, Sort]],
                 defs: Mapping[str, FunDef] | None = None
                 ) -> Callable[[tuple], bool | int]:
    """Compile a sort-correct, let-free term (a constraint or a defined
    function's body, as the frontend desugars them) into a closure over a
    tuple of raw values of params, in order; the closure gives evaluate's
    value, a bit-vector as its masked int. Widths are fixed here, each
    defined function body is compiled once and called positionally, and
    ite/and/or/=> stay lazy."""
    defs = defs or {}
    funs = {name: f.fun_sort for name, f in defs.items()}
    bodies: dict[str, Callable[..., bool | int]] = {}

    def comp(t: Term, env: Mapping[str, tuple[int, Sort]]):
        """(closure, sort) of t over tuples whose entry env[name][0] holds
        the variable name, of sort env[name][1]."""
        if isinstance(t, Var):
            if t.name not in env:
                raise UndeclaredSymbol(t.name)
            i, sort = env[t.name]
            return operator.itemgetter(i), sort
        if isinstance(t, Lit):
            v = raw_value(t.value)
            return (lambda e: v), value_sort(t.value)
        op = t.op
        pairs = [comp(a, env) for a in t.args]
        fns = [fn for fn, _ in pairs]
        sort = apply_sort(op, [s for _, s in pairs], funs)
        if op == "ite":
            c, a, b = fns
            return (lambda e: a(e) if c(e) else b(e)), sort
        join = _JOIN.get(op)
        if join is not None:
            return functools.reduce(lambda b, a: join(a, b), fns[::-1]), sort
        if op in OPS:
            value = op_value(op, pairs[0][1].width, len(fns))
        elif op in bodies:
            value = bodies[op]
        else:
            f = defs[op]
            at = {name: (i, s) for i, (name, s) in enumerate(f.params)}
            body = comp(f.body, at)[0]
            value = bodies[op] = lambda *xs: body(xs)
        if len(fns) == 1:
            a, = fns
            return (lambda e: value(a(e))), sort
        if len(fns) == 2:
            a, b = fns
            return (lambda e: value(a(e), b(e))), sort
        return (lambda e: value(*[f(e) for f in fns])), sort

    return comp(t, {name: (i, s) for i, (name, s) in enumerate(params)})[0]


# ---------------------------------------------------------------------------
# Column evaluation


class _Err:
    """Distinguished column value for evaluation errors."""

    __slots__ = ()

    def __repr__(self):
        return "⊥"


ERR = _Err()


class _Erring(tuple):
    """A column that may hold ERR; a plain tuple column never does."""
    __slots__ = ()


class Pointwise:
    """Raw columns: a term's values over many rows at once, each
    application's composed from its arguments' columns, so a term costs one
    operator application per row and not a tree walk per row. A row where
    evaluation raises holds ERR. Values are compile_term's raw values; a
    bit-vector operator applies at its first operand's width, through
    op_value. A plain tuple column never holds ERR; one that may is an
    _Erring. Leaves are plain, and only these mark: apply's per-row
    fallback (after DivisionByZero or over a marked operand), its ite over
    a marked operand where a row it takes is ERR, its connectives over a
    marked operand, _strict, the connectives' scatter, and _on's gather of
    a marked column.

    Rows are a list of bindings, for signatures (__call__, apply), or any
    columns a caller lays out (column), for the checker's blocks of points.
    An ite is ERR where its condition is, else its taken branch's value, so
    an untaken branch's ERR is swallowed. In a walk of a term, and/or/=>
    evaluate a later operand only on the rows the earlier ones leave open,
    so there a later operand's ERR is never reached, and a let or a defined
    function is ERR on a row where a definition or an argument is, as in
    evaluate; a defined function's body is walked over its arguments'
    columns."""

    def __init__(self, bindings: Sequence[Mapping[str, Value]],
                 defs: Mapping[str, FunDef]):
        self.bindings = list(bindings)
        self.defs = defs
        self.funs = {n: f.fun_sort for n, f in defs.items()}
        # variables sorted by their values in the first binding
        self.sorts = {n: value_sort(v) for b in self.bindings[:1]
                      for n, v in b.items()}
        # each variable's column and sort, built from a list here and below:
        # tuple() of an iterator of unknown length resizes its result, which
        # fills CPython's free list of tuples of the signature's length (up
        # to 2,000 of them)
        self.env = {n: (tuple([raw_value(b[n]) for b in self.bindings]), s)
                    for n, s in self.sorts.items()}

    def apply(self, op: str, sigs: Sequence[tuple],
              width: int | None = None) -> tuple:
        """The signature of op applied to arguments of these signatures;
        width is a bit-vector operator's operand width."""
        n = len(sigs[0]) if sigs else len(self.bindings)
        if not n:
            return ()
        mark = tuple  # _Erring once an operand may hold ERR
        for s in sigs:
            if type(s) is not tuple:
                mark = _Erring
                break
        if op == "ite":
            out = [ERR if c is ERR else (a if c else b)
                   for c, a, b in zip(*sigs)]
            # a marked operand's ERR may lie only in rows the ite does not
            # take, and a plain column spares every parent the fallback
            if mark is not tuple and ERR in out:
                return _Erring(out)
            return tuple(out)
        if op in ("and", "or", "=>"):
            return mark([_connective(op, xs) for xs in zip(*sigs)])
        if op not in OPS:
            return self._call(op, sigs, n)
        value = op_value(op, width, len(sigs))
        if mark is tuple:
            try:
                return tuple(list(map(value, *sigs)))
            except DivisionByZero:
                pass
        out = []
        for xs in zip(*sigs):
            if any(x is ERR for x in xs):
                out.append(ERR)
                continue
            try:
                out.append(value(*xs))
            except DivisionByZero:
                out.append(ERR)
        return _Erring(out)

    def width(self, t: Apply, nts: Mapping[str, Sort] | None = None
              ) -> int | None:
        """The width a bit-vector operator applies at: that of t's first
        operand, sorted with nts for a template; None for other operators."""
        spec = OPS.get(t.op)
        if spec is None or spec.operand != "bv" or not self.bindings:
            return None
        return infer_sort(t.args[0], self.sorts, nts, self.funs).width

    def __call__(self, t: Term) -> tuple:
        """t's signature over the bindings."""
        n = len(self.bindings)
        return self.column(t, self.env, n)[0] if n else ()

    def column(self, t: Term, env: Mapping[str, tuple[tuple, Sort]],
               n: int) -> tuple[tuple, Sort]:
        """t's column over n rows, and its sort; env maps each variable t
        reads to its column over those rows and its sort."""
        if isinstance(t, Var):
            try:
                return env[t.name]
            except KeyError:
                raise UndeclaredSymbol(t.name) from None
        if isinstance(t, Lit):
            return (raw_value(t.value),) * n, value_sort(t.value)
        if isinstance(t, Let):
            # parallel: the definitions see the outer env
            ds = [self.column(d, env, n) for _, d in t.bindings]
            inner = {**env, **{name: d for (name, _), d
                               in zip(t.bindings, ds)}}
            col, sort = self.column(t.body, inner, n)
            return _strict(col, [c for c, _ in ds]), sort
        op, args = t.op, t.args
        if op in ("and", "or", "=>"):
            return self._connective(op, args, env, n), BOOL
        cols = [self.column(a, env, n) for a in args]
        spec = OPS.get(op)
        if spec is None:
            return (self._call(op, [c for c, _ in cols], n),
                    self.defs[op].ret)
        sort = cols[-1][1]  # an ite's branches have its sort
        return (self.apply(op, [c for c, _ in cols], sort.width),
                sort if spec.result is None else spec.result)

    def _connective(self, op: str, args: Sequence[Term],
                    env: Mapping[str, tuple[tuple, Sort]], n: int) -> tuple:
        """and/or/=> over n rows: an operand is evaluated only on the rows
        that the operands before it leave open, and an operand before the
        last settles a row where it is ERR, or false (true for or)."""
        out: list = [ERR] * n
        rows: Sequence[int] = range(n)
        value = op != "and"  # of a row an operand settles, but for ERR
        mark = tuple
        for a in args[:-1]:
            col = self._on(a, env, n, rows)[0]
            mark = mark if type(col) is tuple else _Erring
            true, false = _split(col, rows)
            rows, settled = (false, true) if op == "or" else (true, false)
            for i in settled:
                out[i] = value
            if not rows:
                return mark(out)
        last = self._on(args[-1], env, n, rows)[0]
        if len(rows) == n:
            return last
        for i, x in zip(rows, last):
            out[i] = x
        return mark(out) if type(last) is tuple else _Erring(out)

    def _call(self, op: str, sigs: Sequence[tuple], n: int) -> tuple:
        """A defined function's column: its body's over its arguments',
        ERR on a row where an argument is."""
        f = self.defs.get(op)
        if f is None:
            raise UndeclaredSymbol(op)
        env = {name: (c, s) for (name, s), c in zip(f.params, sigs)}
        return _strict(self.column(f.body, env, n)[0], sigs)

    def _on(self, t: Term, env: Mapping[str, tuple[tuple, Sort]], n: int,
            rows: Sequence[int]) -> tuple[tuple, Sort]:
        """t's column over the given rows of the n that env lays out."""
        if len(rows) == n:
            return self.column(t, env, n)
        pick = (operator.itemgetter(*rows) if len(rows) > 1
                else lambda c: tuple([c[i] for i in rows]))
        # type(c) keeps a gathered column's mark
        return self.column(t, {name: (type(c)(pick(c)), s)
                               for name, (c, s) in env.items()}, len(rows))


def _split(col: tuple, rows: Sequence[int]) -> tuple[list[int], list[int]]:
    """The entries of rows at which the Bool column col is true, and those
    at which it is false; a row where it is ERR is in neither."""
    if type(col) is not tuple:
        return ([i for i, x in zip(rows, col) if x is True],
                [i for i, x in zip(rows, col) if x is False])
    return (list(itertools.compress(rows, col)),
            list(itertools.compress(rows, map(operator.not_, col))))


def _strict(col: tuple, cols: Sequence[tuple]) -> tuple:
    """col with ERR on every row where one of cols is ERR."""
    errs = [c for c in cols if type(c) is not tuple]
    if not errs:
        return col
    return _Erring([ERR if ERR in xs else x for x, *xs in zip(col, *errs)])


def _connective(op: str, xs: tuple):
    """and/or/=> at one row: the first operand before the last that settles
    the result (an ERR, a false one for and and =>, a true one for or)
    decides it, so an error there wins and an error after it is
    swallowed; else the last operand's value."""
    for x in xs[:-1]:
        if x is ERR or x is (op == "or"):
            return True if op == "=>" and x is False else x
    return xs[-1]


# ---------------------------------------------------------------------------
# Substitution

_fresh_counter = itertools.count()


def _fresh(name: str) -> str:
    return f"{name}~{next(_fresh_counter)}"


def substitute(t: Term, mapping: Mapping[str, Term]) -> Term:
    """Simultaneous capture-avoiding substitution of variables."""
    if not mapping:
        return t
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, Lit):
        return t
    if isinstance(t, Apply):
        return Apply(t.op, tuple(substitute(a, mapping) for a in t.args))

    new_defs = [(n, substitute(d, mapping)) for n, d in t.bindings]
    body_map = {k: v for k, v in mapping.items()
                if k not in {n for n, _ in t.bindings}}
    clash = set()
    for repl in body_map.values():
        clash |= free_vars(repl)
    renames: dict[str, Term] = {}
    bindings = []
    for n, d in new_defs:
        if n in clash:
            n2 = _fresh(n)
            renames[n] = Var(n2)
            bindings.append((n2, d))
        else:
            bindings.append((n, d))
    body = substitute(t.body, renames) if renames else t.body
    return Let(tuple(bindings), substitute(body, body_map))


def apply_fundef(f: FunDef, args: tuple[Term, ...]) -> Term:
    if len(args) != len(f.params):
        raise SortError(f"{f.name} expects {len(f.params)} arguments, got {len(args)}")
    return substitute(f.body, {name: a for (name, _), a in zip(f.params, args)})


def expand(t: Term, funcs: Mapping[str, FunDef]) -> Term:
    """Replace applications of the functions in funcs by their bodies, with
    the arguments substituted, until none remains: defined functions for an
    SMT script or a solution's helpers, candidate bodies for the unknowns."""
    def go(t: Term) -> Term:
        if isinstance(t, (Var, Lit)):
            return t
        if isinstance(t, Let):
            return Let(tuple((n, go(d)) for n, d in t.bindings), go(t.body))
        args = tuple(go(a) for a in t.args)
        f = funcs.get(t.op)
        if f is not None:
            return go(apply_fundef(f, args))
        return Apply(t.op, args)

    return go(t)
