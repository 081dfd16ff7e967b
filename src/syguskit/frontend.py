"""SyGuS-IF v1 frontend: problems in, canonical text out.

Parses the three competition tracks (general, conditional linear arithmetic,
invariant synthesis), desugars the invariant-track constructs into the three
verification conditions, attaches the track-default grammar to grammarless
unknowns, and prints problems and solutions back to canonical text, which
reads back as the same problem or solution.

A grammar production is a term whose leaves may also be a nonterminal or a
constant hole, so one parser, parse_template, serves productions and terms
alike, and one printer, term_to_sexpr, prints both: a constraint or
definition body is a production with no nonterminals, and parse_term only
desugars its lets, folds `(- n)` and rejects holes. A production may call a
defined function but no unknown. Each subterm is parsed once, then an Int
operand is fitted where its context fixes a bit-vector width (a rule,
parameter or ite branch of bit-vector sort, a bv operator, `=`/`ite` against
a bit-vector): a literal turns into a bit-vector literal, an ite fits its
branches and a let its body. Constraint and definition bodies desugar `let`
by substitution; grammar productions keep it structurally.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Container, Mapping, Sequence

from .grammar import Grammar, make_grammar
from .sexpr import BV, BadToken, SExpr, print_sexpr, read_sexprs
from .terms import (BOOL, INT, OPS, Apply, FunDef, FunSort, Let, Lit, Sort,
                    SortError, SygusError, Template, Term, THole, TNT,
                    UndeclaredSymbol, Var, apply_fundef, apply_sort, bitvec,
                    expand, substitute, subterms, term_size, value_sort)


class UnknownCommand(SygusError):
    pass


class DuplicateDeclaration(SygusError):
    pass


class MissingCheckSynth(SygusError):
    pass


class ArityMismatch(SygusError):
    pass


class MissingComponent(SygusError):
    pass


class UnsupportedDefaultSort(SygusError):
    pass


class MissingUnknown(SygusError):
    pass


class SignatureMismatch(SygusError):
    pass


class Track(enum.Enum):
    GENERAL = "general"
    LIA = "lia"
    INV = "inv"


Params = tuple[tuple[str, Sort], ...]


@dataclass
class UnknownFun:
    name: str
    params: Params
    ret: Sort
    grammar: Grammar | None
    explicit: bool  # the input gave the grammar

    @property
    def fun_sort(self) -> FunSort:
        return FunSort(tuple(s for _, s in self.params), self.ret)


@dataclass
class SynthProblem:
    logic: str
    defined_funs: dict[str, FunDef]
    unknowns: dict[str, UnknownFun]
    universals: dict[str, Sort]
    constraints: list[Term]
    track: Track
    primed: tuple[str, ...] = ()
    inv_components: tuple[str, str, str, str] | None = None  # inv pre trans post


@dataclass
class CandidateSolution:
    funcs: dict[str, FunDef]

    def sizes(self) -> dict[str, int]:
        return {n: term_size(f.body) for n, f in self.funcs.items()}

    def total_size(self) -> int:
        return sum(self.sizes().values())


def fun_sorts(*tables: Mapping) -> dict[str, FunSort]:
    """Name -> signature of each FunDef or UnknownFun in the tables."""
    return {n: f.fun_sort for funs in tables for n, f in funs.items()}


def unknown_invocations(p: SynthProblem) -> dict[str, list[tuple[Term, ...]]]:
    """Syntactically distinct argument tuples per unknown, in constraint order."""
    apps: dict[str, dict[tuple[Term, ...], None]] = {n: {} for n in p.unknowns}
    for c in p.constraints:
        for t in subterms(c):
            if isinstance(t, Apply) and t.op in apps:
                apps[t.op].setdefault(t.args, None)
    return {n: list(tuples) for n, tuples in apps.items()}


# ---------------------------------------------------------------------------
# Sorts

# the widest bit-vector sort a problem may declare, as wide as SyGuS-Comp'15's
# widest; a value of width w costs memory in w, so a width parsed from a few
# digits could take gigabytes
MAX_BV_WIDTH = 64


def parse_sort(sx: SExpr) -> Sort:
    if sx == "Int":
        return INT
    if sx == "Bool":
        return BOOL
    if (isinstance(sx, list) and len(sx) == 2 and sx[0] == "BitVec"
            and isinstance(sx[1], int) and not isinstance(sx[1], bool)):
        if sx[1] > MAX_BV_WIDTH:
            raise SortError(f"bit-vector width {sx[1]} is above the maximum "
                            f"of {MAX_BV_WIDTH}")
        return bitvec(sx[1])
    raise SortError(f"unknown sort {print_sexpr(sx)}")


def sort_to_sexpr(s: Sort) -> SExpr:
    if s.is_bv:
        return ["BitVec", s.width]
    return s.name


# ---------------------------------------------------------------------------
# Typed term construction


def parse_term(sx: SExpr, variables: Mapping[str, Sort],
               funs: Mapping[str, FunSort],
               expected: Sort | None = None) -> tuple[Term, Sort]:
    """Build a typed term from concrete syntax; returns (term, sort).

    A term is parsed as a production with no nonterminals, so both share one
    parser and one sort checker."""
    tpl, sort = parse_template(sx, {}, variables, funs, {}, expected)
    return _template_term(tpl), sort


# the most nodes a constraint or definition body's let may desugar to: a
# chain of lets that each use the name before twice doubles at each level
MAX_LET_SIZE = 100_000


def _template_term(t: Template) -> Term:
    """The term a nonterminal-free production denotes: `let` is substituted
    away and `(- n)` over a literal becomes the literal -n; every other
    subterm is returned as it is."""
    if isinstance(t, Apply):
        args = tuple([_template_term(a) for a in t.args])
        if t.op == "-" and len(args) == 1 and isinstance(args[0], Lit):
            return Lit(-args[0].value)
        return t if args == t.args else Apply(t.op, args)
    if isinstance(t, Let):
        body = _template_term(t.body)
        defs = {n: _template_term(d) for n, d in t.bindings}
        # the body has no let left, so each use of a name takes its definition
        uses = Counter(s.name for s in subterms(body) if isinstance(s, Var))
        size = term_size(body) + sum(uses[n] * (term_size(d) - 1)
                                     for n, d in defs.items())
        if size > MAX_LET_SIZE:
            raise SygusError(f"let desugars to {size} nodes, above the "
                             f"maximum of {MAX_LET_SIZE}")
        return substitute(body, defs)
    if isinstance(t, THole):
        raise UndeclaredSymbol("Constant: a constant hole outside a grammar")
    return t


# ---------------------------------------------------------------------------
# Grammar concrete syntax


def parse_grammar(sx: SExpr, params: Params,
                  funs: Mapping[str, FunSort]) -> Grammar:
    if not (isinstance(sx, list) and sx
            and all(isinstance(r, list) and len(r) == 3 for r in sx)):
        raise SortError(f"malformed grammar: {print_sexpr(sx)}")
    nt_sorts: dict[str, Sort] = {}
    for r in sx:
        if not isinstance(r[0], str):
            raise SortError(f"malformed nonterminal: {print_sexpr(r)}")
        if r[0] in nt_sorts:
            raise DuplicateDeclaration(f"nonterminal {r[0]}")
        nt_sorts[r[0]] = parse_sort(r[1])
    param_sorts = dict(params)
    rules = []
    for r in sx:
        nt, sort = r[0], nt_sorts[r[0]]
        if not isinstance(r[2], list):
            raise SortError(f"malformed production list: {print_sexpr(r)}")
        prods = [parse_template(p, nt_sorts, param_sorts, funs, {}, sort)[0]
                 for p in r[2]]
        rules.append((nt, sort, prods))
    return make_grammar(sx[0][0], rules, param_sorts, funs)


def _fit(tpl: Template, s: Sort, want: Sort | None,
         sx: SExpr) -> tuple[Template, Sort]:
    """(tpl, s), parsed from sx, checked against the sort wanted of it. An
    Int literal in range becomes a bit-vector literal of the wanted width, an
    Int ite fits both branches and an Int let its body; nothing is parsed
    again."""
    if want is None or s == want:
        return tpl, s
    if s == INT and want.is_bv:
        if isinstance(tpl, Lit) and 0 <= tpl.value < (1 << want.width):
            return Lit(BV(want.width, tpl.value)), want
        if isinstance(tpl, Apply) and tpl.op == "ite" and tpl.args:
            c, a, b = tpl.args
            return Apply("ite", (c, _fit(a, s, want, sx[2])[0],
                                 _fit(b, s, want, sx[3])[0])), want
        if isinstance(tpl, Let):
            return Let(tpl.bindings, _fit(tpl.body, s, want, sx[2])[0]), want
    raise SortError(f"expected {want}, got {s}: {print_sexpr(sx)}")


def parse_template(sx: SExpr, nts: Mapping[str, Sort],
                   params: Mapping[str, Sort], funs: Mapping[str, FunSort],
                   let_env: Mapping[str, Sort],
                   expected: Sort | None) -> tuple[Template, Sort]:
    """Build a typed production from concrete syntax; returns (template, sort).

    Symbols resolve to let-bound names, then nonterminals (nts), then
    parameters, then nullary functions; a let-bound c also hides a nullary
    function c applied as (c). Each operand is parsed once, against the sort
    known before it is read (a declared function's parameter sort; the sort
    expected of an ite for its branches, of a let for its body), and
    apply_sort then types the node. An Int operand whose sibling is a
    bit-vector, or of a bv operator expected to give one, is fitted to that
    width by _fit, as is an Int node where a bit-vector is expected."""
    if not isinstance(sx, list):
        if not isinstance(sx, str):
            got = Lit(sx), value_sort(sx)
        elif sx in let_env:
            got = Var(sx), let_env[sx]
        elif sx in nts:
            got = TNT(sx), nts[sx]
        elif sx in params:
            got = Var(sx), params[sx]
        elif sx in funs and not funs[sx].params:
            got = Apply(sx, ()), funs[sx].ret
        else:
            raise UndeclaredSymbol(sx)
        return _fit(*got, expected, sx)
    if not sx or not isinstance(sx[0], str):
        raise SortError(f"cannot apply {print_sexpr(sx)}")

    op = sx[0]
    if len(sx) == 1 and op in let_env:
        return _fit(Var(op), let_env[op], expected, sx)
    if op == "Constant":
        if len(sx) != 2:
            raise SortError(f"malformed constant hole: {print_sexpr(sx)}")
        s = parse_sort(sx[1])
        return _fit(THole(s), s, expected, sx)
    if op == "Variable":
        raise UnknownCommand("(Variable ...) grammar terminals are not supported")
    if op == "let":
        if len(sx) != 3 or not isinstance(sx[1], list):
            raise SortError(f"malformed let: {print_sexpr(sx)}")
        binds = []
        inner = dict(let_env)
        for b in sx[1]:
            if not (isinstance(b, list) and len(b) == 2 and isinstance(b[0], str)):
                raise SortError(f"malformed let binding: {print_sexpr(b)}")
            d, ds = parse_template(b[1], nts, params, funs, let_env, None)
            binds.append((b[0], d))
            inner[b[0]] = ds
        body, bs = parse_template(sx[2], nts, params, funs, inner, expected)
        return Let(tuple(binds), body), bs

    raw = sx[1:]
    spec = OPS.get(op)
    sig = funs.get(op) if spec is None else None
    # "bv", "same" or "ite"; None for a fixed operand sort or a function
    shared = spec.operand if spec is not None and isinstance(spec.operand, str) \
        else None
    wants: Sequence[Sort | None] = (None,) * len(raw)
    if sig is not None and len(sig.params) == len(raw):
        wants = sig.params
    elif shared == "ite" and len(raw) == 3:
        wants = (None, expected, expected)
    children = [parse_template(a, nts, params, funs, let_env, w)
                for a, w in zip(raw, wants)]
    # at a wrong arity of = or ite, apply_sort below reports it
    if shared == "bv" or (shared is not None and len(raw) == spec.lo):
        i = 1 if shared == "ite" else 0  # children[i:] share one sort
        w = next((s for _, s in children[i:] if s.is_bv), None)
        if w is None and shared == "bv":
            if spec.result is not None or not (expected and expected.is_bv):
                raise SortError(f"cannot determine width: {print_sexpr(sx)}")
            w = expected
        children[i:] = [_fit(t, s, w, a) if s == INT else (t, s)
                        for (t, s), a in zip(children[i:], raw[i:])]
    try:
        s = apply_sort(op, [s for _, s in children], funs)
    except SortError as e:
        raise SortError(f"{e} in {print_sexpr(sx)}") from None
    return _fit(Apply(op, tuple([t for t, _ in children])), s, expected, sx)


# ---------------------------------------------------------------------------
# Default grammar (conditional linear integer arithmetic)


def default_grammar(params: Params, ret: Sort) -> Grammar:
    """The LIA/INV-track grammar: linear arithmetic with ite, a constant hole,
    and the full set of Boolean connectives."""
    if ret not in (INT, BOOL):
        raise UnsupportedDefaultSort(f"default grammar cannot produce {ret}")
    bad = [n for n, s in params if s != INT]
    if bad:
        raise UnsupportedDefaultSort(
            f"default grammar requires Int parameters, got {bad}")
    si, sb, ci = TNT("StartInt"), TNT("StartBool"), TNT("ConstantInt")
    int_prods: list[Template] = [Var(n) for n, _ in params]
    int_prods += [
        ci,
        Apply("+", (si, si)),
        Apply("-", (si, si)),
        Apply("*", (si, ci)),
        Apply("*", (ci, si)),
        Apply("div", (si, ci)),
        Apply("mod", (si, ci)),
        Apply("ite", (sb, si, si)),
    ]
    bool_prods: list[Template] = [
        Lit(True),
        Lit(False),
        Apply("and", (sb, sb)),
        Apply("or", (sb, sb)),
        Apply("=>", (sb, sb)),
        Apply("xor", (sb, sb)),
        Apply("xnor", (sb, sb)),
        Apply("nand", (sb, sb)),
        Apply("nor", (sb, sb)),
        Apply("iff", (sb, sb)),
        Apply("not", (sb,)),
        Apply("=", (sb, sb)),
        Apply("<=", (si, si)),
        Apply("=", (si, si)),
        Apply(">=", (si, si)),
        Apply(">", (si, si)),
        Apply("<", (si, si)),
    ]
    rules = [("StartInt", INT, int_prods),
             ("ConstantInt", INT, [THole(INT)]),
             ("StartBool", BOOL, bool_prods)]
    start = "StartInt" if ret == INT else "StartBool"
    return make_grammar(start, rules, dict(params))


# ---------------------------------------------------------------------------
# Problem parsing


def _parse_params(sx: SExpr) -> Params:
    if not isinstance(sx, list):
        raise SortError(f"malformed parameter list: {print_sexpr(sx)}")
    out = []
    for p in sx:
        if not (isinstance(p, list) and len(p) == 2 and isinstance(p[0], str)):
            raise SortError(f"malformed parameter: {print_sexpr(p)}")
        out.append((p[0], parse_sort(p[1])))
    names = [n for n, _ in out]
    if len(set(names)) != len(names):
        raise DuplicateDeclaration(f"repeated parameter in {print_sexpr(sx)}")
    return tuple(out)


def _check_fresh(name: str, *tables: Container[str]):
    """Refuse a name that a built-in operator or one of the tables has."""
    if name in OPS:
        raise DuplicateDeclaration(f"{name} is a built-in operator")
    if any(name in t for t in tables):
        raise DuplicateDeclaration(name)


def parse_problem(cmds: Sequence[SExpr]) -> SynthProblem:
    logic: str | None = None
    defined: dict[str, FunDef] = {}
    unknowns: dict[str, UnknownFun] = {}
    universals: dict[str, Sort] = {}
    constraints: list[Term] = []
    primed: list[str] = []
    inv_name: str | None = None
    inv_constraint: tuple[str, str, str, str] | None = None
    saw_check = False

    def declare(name: str):
        _check_fresh(name, defined, unknowns, universals)

    for cmd in cmds:
        if saw_check:
            raise MissingCheckSynth("(check-synth) must be the final command")
        if not (isinstance(cmd, list) and cmd and isinstance(cmd[0], str)):
            raise UnknownCommand(print_sexpr(cmd))
        head = cmd[0]

        if head == "set-logic":
            if logic is not None:
                raise DuplicateDeclaration("set-logic")
            if len(cmd) != 2 or not isinstance(cmd[1], str):
                raise UnknownCommand(print_sexpr(cmd))
            logic = cmd[1]
        elif head == "define-fun":
            if len(cmd) != 5 or not isinstance(cmd[1], str):
                raise UnknownCommand(print_sexpr(cmd))
            name, params, ret = cmd[1], _parse_params(cmd[2]), parse_sort(cmd[3])
            declare(name)
            # like a grammar, a body may call defined functions, no unknown
            body, _ = parse_term(cmd[4], dict(params), fun_sorts(defined), ret)
            defined[name] = FunDef(name, params, ret, body)
        elif head in ("declare-var", "declare-primed-var"):
            if len(cmd) != 3 or not isinstance(cmd[1], str):
                raise UnknownCommand(print_sexpr(cmd))
            name, sort = cmd[1], parse_sort(cmd[2])
            declare(name)
            universals[name] = sort
            if head == "declare-primed-var":
                declare(name + "!")
                universals[name + "!"] = sort
                primed.append(name)
        elif head == "synth-fun":
            if len(cmd) not in (4, 5) or not isinstance(cmd[1], str):
                raise UnknownCommand(print_sexpr(cmd))
            name, params, ret = cmd[1], _parse_params(cmd[2]), parse_sort(cmd[3])
            declare(name)
            grammar = None
            if len(cmd) == 5:
                # a grammar may call defined functions, never an unknown
                grammar = parse_grammar(cmd[4], params, fun_sorts(defined))
                if grammar.start_sort != ret:
                    raise SortError(f"grammar of {name} starts at "
                                    f"{grammar.start_sort}, function returns {ret}")
            unknowns[name] = UnknownFun(name, params, ret, grammar,
                                        grammar is not None)
        elif head == "synth-inv":
            if len(cmd) != 3 or not isinstance(cmd[1], str):
                raise UnknownCommand(print_sexpr(cmd))
            if inv_name is not None:
                raise DuplicateDeclaration("synth-inv")
            name, params = cmd[1], _parse_params(cmd[2])
            declare(name)
            inv_name = name
            # invariants are predicates: Bool return, default grammar
            unknowns[name] = UnknownFun(name, params, BOOL, None, False)
        elif head == "constraint":
            if len(cmd) != 2:
                raise UnknownCommand(print_sexpr(cmd))
            term, _ = parse_term(cmd[1], universals,
                                 fun_sorts(defined, unknowns), BOOL)
            constraints.append(term)
        elif head == "inv-constraint":
            if len(cmd) != 5 or not all(isinstance(a, str) for a in cmd[1:]):
                raise UnknownCommand(print_sexpr(cmd))
            if inv_constraint is not None:
                raise DuplicateDeclaration("inv-constraint")
            inv_constraint = (cmd[1], cmd[2], cmd[3], cmd[4])
        elif head == "check-synth":
            if len(cmd) != 1:
                raise UnknownCommand(print_sexpr(cmd))
            saw_check = True
        else:
            raise UnknownCommand(head)

    if not saw_check:
        raise MissingCheckSynth("input does not end with (check-synth)")
    if logic is None:
        logic = "LIA" if inv_name or inv_constraint else "ALL"

    if inv_name or inv_constraint:
        track = Track.INV
        constraints.extend(
            _desugar_inv_constraint(inv_constraint, inv_name, defined,
                                    unknowns, universals))
    elif logic == "LIA" and any(u.grammar is None for u in unknowns.values()):
        track = Track.LIA
    else:
        track = Track.GENERAL

    for name, u in unknowns.items():
        if u.grammar is None:
            if track == Track.GENERAL:
                raise UnsupportedDefaultSort(
                    f"{name} has no grammar and the logic is not LIA")
            u.grammar = default_grammar(u.params, u.ret)

    return SynthProblem(logic, defined, unknowns, universals, constraints,
                        track, tuple(primed), inv_constraint)


def _desugar_inv_constraint(names, inv_name, defined, unknowns,
                            universals) -> list[Term]:
    """Expand (inv-constraint inv pre trans post) into the three verification
    conditions, with the component bodies inlined."""
    if names is None:
        raise MissingComponent("inv-constraint")
    if inv_name is None or names[0] != inv_name:
        raise MissingComponent(names[0] if names else "synth-inv")
    inv = unknowns[inv_name]
    comps = []
    for cname in names[1:]:
        f = defined.get(cname)
        if f is None:
            raise MissingComponent(cname)
        comps.append(f)
    pre, trans, post = comps
    n = len(inv.params)
    for f, want in ((pre, n), (trans, 2 * n), (post, n)):
        if len(f.params) != want:
            raise ArityMismatch(f"{f.name} takes {len(f.params)} arguments, "
                                f"expected {want}")
    for p, _ in inv.params:
        if p not in universals:
            raise UndeclaredSymbol(p)
        if p + "!" not in universals:
            raise UndeclaredSymbol(p + "!")
    v = tuple(Var(p) for p, _ in inv.params)
    vp = tuple(Var(p + "!") for p, _ in inv.params)
    inv_v = Apply(inv_name, v)
    inv_vp = Apply(inv_name, vp)
    return [
        Apply("=>", (apply_fundef(pre, v), inv_v)),
        Apply("=>", (Apply("and", (inv_v, apply_fundef(trans, v + vp))), inv_vp)),
        Apply("=>", (inv_v, apply_fundef(post, v))),
    ]


def read_problem(text: str) -> SynthProblem:
    return parse_problem(read_sexprs(text))


def load_problem(path) -> SynthProblem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise BadToken(f"{path}: not UTF-8 text", e.start) from None
    return read_problem(text)


# ---------------------------------------------------------------------------
# Printing


def term_to_sexpr(t: Template) -> SExpr:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Lit):
        return t.value
    if isinstance(t, Apply):
        if not t.args:
            return t.op
        return [t.op, *(term_to_sexpr(a) for a in t.args)]
    if isinstance(t, TNT):
        return t.nt
    if isinstance(t, THole):
        return ["Constant", sort_to_sexpr(t.sort)]
    return ["let", [[n, term_to_sexpr(d)] for n, d in t.bindings],
            term_to_sexpr(t.body)]


def grammar_to_sexpr(g: Grammar) -> SExpr:
    return [[nt, sort_to_sexpr(rule.sort),
             [term_to_sexpr(p) for p in rule.productions]]
            for nt, rule in g.rules.items()]


def _params_to_sexpr(params: Params) -> SExpr:
    return [[n, sort_to_sexpr(s)] for n, s in params]


def print_problem(p: SynthProblem) -> str:
    """Canonical text that reads back as p. An INV problem is printed back in
    sugared form: its plain constraints, then the inv-constraint, whose three
    verification conditions end p.constraints."""
    lines = [f"(set-logic {p.logic})"]
    for f in p.defined_funs.values():
        lines.append(print_sexpr(["define-fun", f.name, _params_to_sexpr(f.params),
                                  sort_to_sexpr(f.ret), term_to_sexpr(f.body)]))
    inv = p.inv_components
    for u in p.unknowns.values():
        params = _params_to_sexpr(u.params)
        if inv is not None and u.name == inv[0]:
            sx = ["synth-inv", u.name, params]
        else:
            sx = ["synth-fun", u.name, params, sort_to_sexpr(u.ret)]
            if u.explicit:
                sx.append(grammar_to_sexpr(u.grammar))
        lines.append(print_sexpr(sx))
    primed_names = {n for b in p.primed for n in (b, b + "!")}
    for base in p.primed:
        lines.append(print_sexpr(["declare-primed-var", base,
                                  sort_to_sexpr(p.universals[base])]))
    for name, sort in p.universals.items():
        if name not in primed_names:
            lines.append(print_sexpr(["declare-var", name, sort_to_sexpr(sort)]))
    for c in p.constraints[:-3] if inv is not None else p.constraints:
        lines.append(print_sexpr(["constraint", term_to_sexpr(c)]))
    if inv is not None:
        lines.append(print_sexpr(["inv-constraint", *inv]))
    lines.append("(check-synth)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Solutions


def parse_solution(text: str, problem: SynthProblem) -> CandidateSolution:
    """Read `define-fun`s into a solution covering every unknown exactly once.

    Extra helper define-funs are accepted and inlined into candidate bodies.
    """
    funcs: dict[str, FunDef] = {}
    helpers: dict[str, FunDef] = {}
    for sx in read_sexprs(text):
        if not (isinstance(sx, list) and len(sx) == 5 and sx[0] == "define-fun"
                and isinstance(sx[1], str)):
            raise UnknownCommand(print_sexpr(sx))
        name, params, ret = sx[1], _parse_params(sx[2]), parse_sort(sx[3])
        ctx_funs = fun_sorts(problem.defined_funs, helpers)
        body, _ = parse_term(sx[4], dict(params), ctx_funs, ret)
        body = expand(body, helpers)
        u = problem.unknowns.get(name)
        if u is None:
            _check_fresh(name, helpers, problem.defined_funs)
            helpers[name] = FunDef(name, params, ret, body)
            continue
        if name in funcs:
            raise DuplicateDeclaration(name)
        if params != u.params or ret != u.ret:
            raise SignatureMismatch(
                f"{name} declared as {_params_to_sexpr(params)} -> "
                f"{sort_to_sexpr(ret)}, problem wants "
                f"{_params_to_sexpr(u.params)} -> {sort_to_sexpr(u.ret)}")
        funcs[name] = FunDef(name, params, ret, body)
    for name in problem.unknowns:
        if name not in funcs:
            raise MissingUnknown(name)
    return CandidateSolution({n: funcs[n] for n in problem.unknowns})


def print_solution(sol: CandidateSolution) -> str:
    lines = []
    for f in sol.funcs.values():
        lines.append(print_sexpr(["define-fun", f.name, _params_to_sexpr(f.params),
                                  sort_to_sexpr(f.ret), term_to_sexpr(f.body)]))
    return "\n".join(lines) + "\n"
