"""S-expression reader and printer for SyGuS-IF v1 text.

Atoms are plain Python values: str for symbols, int for numerals, bool for
true/false, and BV for #x/#b bit-vector literals (hex gives 4 bits per digit,
binary 1 per digit). Lists are Python lists. Printing then re-reading any
S-expression yields a structurally identical one.

Nesting deeper than MAX_DEPTH is an input error: the passes over parsed terms
(conversion, printing, evaluation) recurse once or more per level, and deeper
input would exhaust the interpreter's recursion limit instead.
"""

from __future__ import annotations

from typing import Union

from .terms import BV, SygusError

Atom = Union[str, int, bool, BV]
SExpr = Union[Atom, list]


class SExprError(SygusError):
    def __init__(self, msg: str, position: int):
        super().__init__(f"{msg} (at offset {position})")
        self.position = position


class UnbalancedParens(SExprError):
    pass


class BadToken(SExprError):
    pass


class NestingTooDeep(SExprError):
    pass


MAX_DEPTH = 200


_HEX = set("0123456789abcdefABCDEF")
_DELIM = set("(); \t\r\n")


def _classify(token: str, pos: int) -> Atom:
    if token == "true":
        return True
    if token == "false":
        return False
    if token.startswith("#"):
        if len(token) > 2 and token[1] == "x" and all(c in _HEX for c in token[2:]):
            return BV(4 * (len(token) - 2), int(token[2:], 16))
        if len(token) > 2 and token[1] == "b" and all(c in "01" for c in token[2:]):
            return BV(len(token) - 2, int(token[2:], 2))
        raise BadToken(f"malformed bit-vector literal {token[:20]!r} of "
                       f"length {len(token)}", pos)
    body = token[1:] if token[0] == "-" and len(token) > 1 else token
    if body[0].isdigit():
        if not (body.isascii() and body.isdigit()):  # isdigit accepts '²'
            raise BadToken(f"malformed numeral {token[:20]!r} of length "
                           f"{len(token)}", pos)
        try:
            return int(token)
        except ValueError:  # longer than sys.get_int_max_str_digits()
            raise BadToken(f"numeral of {len(body)} digits is too long",
                           pos) from None
    return token


def read_sexprs(text: str) -> list[SExpr]:
    """Parse every top-level S-expression; ';' comments run to end of line."""
    out: list[SExpr] = []
    stack: list[tuple[int, list]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "(":
            if len(stack) == MAX_DEPTH:
                raise NestingTooDeep(
                    f"nesting deeper than {MAX_DEPTH} levels", i)
            stack.append((i, []))
            i += 1
            continue
        if c == ")":
            if not stack:
                raise UnbalancedParens("unmatched ')'", i)
            _, items = stack.pop()
            if stack:
                stack[-1][1].append(items)
            else:
                out.append(items)
            i += 1
            continue
        start = i
        while i < n and text[i] not in _DELIM:
            i += 1
        atom = _classify(text[start:i], start)
        if stack:
            stack[-1][1].append(atom)
        else:
            out.append(atom)
    if stack:
        raise UnbalancedParens("unmatched '('", stack[-1][0])
    return out


def print_atom(a: Atom) -> str:
    if a is True:
        return "true"
    if a is False:
        return "false"
    if isinstance(a, BV):
        return repr(a)  # #x when width % 4 == 0, else #b
    return str(a)


def print_sexpr(e: SExpr) -> str:
    if isinstance(e, list):
        return "(" + " ".join(print_sexpr(x) for x in e) + ")"
    return print_atom(e)
