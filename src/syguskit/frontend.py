"""SyGuS-IF v1 frontend: problems in, canonical text out.

Parses the three competition tracks (general, conditional linear arithmetic,
invariant synthesis), desugars the invariant-track constructs into the three
verification conditions, attaches the track-default grammar to grammarless
unknowns, and prints problems and solutions back to canonical text.

A grammar production is a term whose leaves may also be a nonterminal or a
constant hole, so one parser, parse_template, serves productions and terms
alike, and one printer, term_to_sexpr, prints both: a constraint or
definition body is a production with no nonterminals, and parse_term only
desugars its lets, folds `(- n)` and rejects holes. A production may call a
defined function but no unknown. Integer literals are coerced to bit-vector
literals where the context fixes a width (a grammar rule or declared-function
parameter of bit-vector sort, an operand position of a bv operator, either
side of `=`/`ite` against a bit-vector), so listings like `(bvult 0 x)` parse
as written. `let` in constraint and definition bodies is desugared by
substitution; inside grammar productions it is kept structurally.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

from .grammar import Grammar, make_grammar
from .sexpr import BV, BadToken, SExpr, print_sexpr, read_sexprs
from .terms import (BOOL, INT, OPS, Apply, FunDef, FunSort, Let, Lit, Sort,
                    SortError, SygusError, Template, Term, THole, TNT,
                    UndeclaredSymbol, Var, apply_fundef, apply_sort, bitvec,
                    expand, substitute, term_size)


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


class GrammarOrigin(enum.Enum):
    EXPLICIT = "explicit"
    DEFAULT_LIA = "default-lia"
    DEFAULT_INV_BOOL = "default-inv-bool"


Params = tuple[tuple[str, Sort], ...]


@dataclass
class UnknownFun:
    name: str
    params: Params
    ret: Sort
    grammar: Grammar | None
    origin: GrammarOrigin

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

    def fun_sorts(self) -> dict[str, FunSort]:
        out = {n: FunSort(f.param_sorts, f.ret) for n, f in self.defined_funs.items()}
        out.update({n: u.fun_sort for n, u in self.unknowns.items()})
        return out


@dataclass
class CandidateSolution:
    funcs: dict[str, FunDef]

    def sizes(self) -> dict[str, int]:
        return {n: term_size(f.body) for n, f in self.funcs.items()}

    def total_size(self) -> int:
        return sum(self.sizes().values())


# ---------------------------------------------------------------------------
# Sorts


def parse_sort(sx: SExpr) -> Sort:
    if sx == "Int":
        return INT
    if sx == "Bool":
        return BOOL
    if (isinstance(sx, list) and len(sx) == 2 and sx[0] == "BitVec"
            and isinstance(sx[1], int) and not isinstance(sx[1], bool)):
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
        return substitute(_template_term(t.body),
                          {n: _template_term(d) for n, d in t.bindings})
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


def _expect(tpl: Template, s: Sort, expected: Sort | None,
            sx: SExpr) -> tuple[Template, Sort]:
    """(tpl, s) checked against the expected sort; an Int literal that fits
    becomes a bit-vector literal of the expected width."""
    if expected is None or s == expected:
        return tpl, s
    if (s == INT and expected.is_bv and isinstance(tpl, Lit)
            and not isinstance(tpl.value, bool)
            and 0 <= tpl.value < (1 << expected.width)):
        return Lit(BV(expected.width, tpl.value)), expected
    raise SortError(f"expected {expected}, got {s}: {print_sexpr(sx)}",
                    expected=expected, found=s)


def parse_template(sx: SExpr, nts: Mapping[str, Sort],
                   params: Mapping[str, Sort], funs: Mapping[str, FunSort],
                   let_env: Mapping[str, Sort],
                   expected: Sort | None) -> tuple[Template, Sort]:
    """Build a typed production from concrete syntax; returns (template, sort).

    Symbols resolve to let-bound names, then nonterminals (nts), then
    parameters, then nullary functions; a let-bound c also hides a nullary
    function c applied as (c). An operand is parsed against the sort
    its position fixes (a declared function's parameter sort; for ite's
    branches, the sort expected of the ite), and an Int literal adapts to the
    bit-vector width that the context or a sibling operand fixes. apply_sort
    then types the node."""
    if isinstance(sx, bool):
        return _expect(Lit(sx), BOOL, expected, sx)
    if isinstance(sx, BV):
        return _expect(Lit(sx), bitvec(sx.width), expected, sx)
    if isinstance(sx, int):
        return _expect(Lit(sx), INT, expected, sx)
    if isinstance(sx, str):
        if sx in let_env:
            return _expect(Var(sx), let_env[sx], expected, sx)
        if sx in nts:
            return _expect(TNT(sx), nts[sx], expected, sx)
        if sx in params:
            return _expect(Var(sx), params[sx], expected, sx)
        f = funs.get(sx)
        if f is not None and not f.params:
            return _expect(Apply(sx, ()), f.ret, expected, sx)
        raise UndeclaredSymbol(sx)
    if not sx or not isinstance(sx[0], str):
        raise SortError(f"cannot apply {print_sexpr(sx)}")

    op = sx[0]
    if len(sx) == 1 and op in let_env:
        return _expect(Var(op), let_env[op], expected, sx)
    if op == "Constant":
        if len(sx) != 2:
            raise SortError(f"malformed constant hole: {print_sexpr(sx)}")
        s = parse_sort(sx[1])
        return _expect(THole(s), s, expected, sx)
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
    if shared == "bv":
        w = next((s for _, s in children if s.is_bv), None)
        if w is None and expected is not None and expected.is_bv \
                and spec.result is None:
            w = expected
        if w is None:
            raise SortError(f"cannot determine width: {print_sexpr(sx)}")
        children = [parse_template(a, nts, params, funs, let_env, w)
                    if s == INT else (tpl, s)
                    for (tpl, s), a in zip(children, raw)]
    elif shared in ("same", "ite") and len(children) == spec.lo:
        # at a wrong arity apply_sort below reports it
        i, j = (0, 1) if shared == "same" else (1, 2)
        (_, si), (_, sj) = children[i], children[j]
        if si.is_bv and sj == INT:
            children[j] = parse_template(raw[j], nts, params, funs, let_env, si)
        elif sj.is_bv and si == INT:
            children[i] = parse_template(raw[i], nts, params, funs, let_env, sj)
    try:
        s = apply_sort(op, [s for _, s in children], funs)
    except SortError as e:
        raise SortError(f"{e} in {print_sexpr(sx)}") from None
    return _expect(Apply(op, tuple([t for t, _ in children])), s, expected, sx)


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


def attach_default_grammar(u: UnknownFun, track: Track) -> UnknownFun:
    """Fill in the track-default grammar for a grammarless unknown."""
    if u.grammar is not None:
        return u
    origin = (GrammarOrigin.DEFAULT_INV_BOOL if u.ret == BOOL
              else GrammarOrigin.DEFAULT_LIA)
    g = default_grammar(u.params, u.ret)
    return UnknownFun(u.name, u.params, u.ret, g, origin)


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
        if name in defined or name in unknowns or name in universals:
            raise DuplicateDeclaration(name)

    def fun_sorts() -> dict[str, FunSort]:
        out = {n: FunSort(f.param_sorts, f.ret) for n, f in defined.items()}
        out.update({n: u.fun_sort for n, u in unknowns.items()})
        return out

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
            body, _ = parse_term(cmd[4], dict(params), fun_sorts(), ret)
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
                defs = {n: s for n, s in fun_sorts().items() if n in defined}
                grammar = parse_grammar(cmd[4], params, defs)
                if grammar.start_sort != ret:
                    raise SortError(f"grammar of {name} starts at "
                                    f"{grammar.start_sort}, function returns {ret}")
            unknowns[name] = UnknownFun(name, params, ret, grammar,
                                        GrammarOrigin.EXPLICIT if grammar
                                        else GrammarOrigin.DEFAULT_LIA)
        elif head == "synth-inv":
            if len(cmd) != 3 or not isinstance(cmd[1], str):
                raise UnknownCommand(print_sexpr(cmd))
            if inv_name is not None:
                raise DuplicateDeclaration("synth-inv")
            name, params = cmd[1], _parse_params(cmd[2])
            declare(name)
            inv_name = name
            # invariants are predicates: Bool return, default grammar
            unknowns[name] = UnknownFun(name, params, BOOL, None,
                                        GrammarOrigin.DEFAULT_INV_BOOL)
        elif head == "constraint":
            if len(cmd) != 2:
                raise UnknownCommand(print_sexpr(cmd))
            term, _ = parse_term(cmd[1], universals, fun_sorts(), BOOL)
            constraints.append(term)
        elif head == "inv-constraint":
            if len(cmd) != 5 or not all(isinstance(a, str) for a in cmd[1:]):
                raise UnknownCommand(print_sexpr(cmd))
            if inv_constraint is not None:
                raise DuplicateDeclaration("inv-constraint")
            inv_constraint = (cmd[1], cmd[2], cmd[3], cmd[4])
        elif head == "check-synth":
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
            unknowns[name] = attach_default_grammar(u, track)

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
    """Canonical text; INV problems are printed back in sugared form."""
    lines = [f"(set-logic {p.logic})"]
    for f in p.defined_funs.values():
        lines.append(print_sexpr(["define-fun", f.name, _params_to_sexpr(f.params),
                                  sort_to_sexpr(f.ret), term_to_sexpr(f.body)]))
    for u in p.unknowns.values():
        if u.origin == GrammarOrigin.DEFAULT_INV_BOOL:
            lines.append(print_sexpr(["synth-inv", u.name,
                                      _params_to_sexpr(u.params)]))
        elif u.origin == GrammarOrigin.DEFAULT_LIA:
            lines.append(print_sexpr(["synth-fun", u.name,
                                      _params_to_sexpr(u.params),
                                      sort_to_sexpr(u.ret)]))
        else:
            lines.append(print_sexpr(["synth-fun", u.name,
                                      _params_to_sexpr(u.params),
                                      sort_to_sexpr(u.ret),
                                      grammar_to_sexpr(u.grammar)]))
    primed_names = {n for b in p.primed for n in (b, b + "!")}
    for base in p.primed:
        lines.append(print_sexpr(["declare-primed-var", base,
                                  sort_to_sexpr(p.universals[base])]))
    for name, sort in p.universals.items():
        if name not in primed_names:
            lines.append(print_sexpr(["declare-var", name, sort_to_sexpr(sort)]))
    if p.inv_components is not None:
        lines.append(print_sexpr(["inv-constraint", *p.inv_components]))
    else:
        for c in p.constraints:
            lines.append(print_sexpr(["constraint", term_to_sexpr(c)]))
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
    base_funs = {n: FunSort(f.param_sorts, f.ret)
                 for n, f in problem.defined_funs.items()}
    for sx in read_sexprs(text):
        if not (isinstance(sx, list) and len(sx) == 5 and sx[0] == "define-fun"
                and isinstance(sx[1], str)):
            raise UnknownCommand(print_sexpr(sx))
        name, params, ret = sx[1], _parse_params(sx[2]), parse_sort(sx[3])
        ctx_funs = dict(base_funs)
        ctx_funs.update({n: FunSort(f.param_sorts, f.ret)
                         for n, f in helpers.items()})
        body, _ = parse_term(sx[4], dict(params), ctx_funs, ret)
        body = expand(body, helpers)
        u = problem.unknowns.get(name)
        if u is None:
            if name in helpers or name in problem.defined_funs:
                raise DuplicateDeclaration(name)
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
