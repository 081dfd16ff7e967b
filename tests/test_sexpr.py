import pytest
from hypothesis import given
import hypothesis.strategies as st

from syguskit.sexpr import (MAX_DEPTH, BadToken, NestingTooDeep,
                            UnbalancedParens, print_sexpr, read_sexprs)
from syguskit.terms import BV


def read1(text):
    (e,) = read_sexprs(text)
    return e


def test_single_atom_list():
    assert read_sexprs("(check-synth)") == [["check-synth"]]


def test_nested_with_bv_literal():
    e = read1("(= (f x) #x00000001)")
    assert e == ["=", ["f", "x"], BV(32, 1)]


def test_hex_width_is_four_bits_per_digit():
    assert read1("#x5") == BV(4, 5)
    assert read1("#xABcd") == BV(16, 0xABCD)


def test_binary_width_is_one_bit_per_digit():
    assert read1("#b101") == BV(3, 5)
    assert read1("#b1") == BV(1, 1)


def test_booleans_and_integers():
    assert read_sexprs("true false 12 -3 -") == [True, False, 12, -3, "-"]


def test_comments_and_whitespace():
    assert read_sexprs("; a comment\n( a ; mid\n b )\n") == [["a", "b"]]


def test_unbalanced_open():
    with pytest.raises(UnbalancedParens):
        read_sexprs("((")


def test_unbalanced_close():
    with pytest.raises(UnbalancedParens):
        read_sexprs("(a))")


@pytest.mark.parametrize("bad", ["#x", "#b", "#xZZ", "#b2", "#q1", "12ab", "-3x",
                                 pytest.param("9" * 4301, id="9*4301"),
                                 "\u00b2", "1\u00b2", "\u0663",
                                 pytest.param("9" * 5000 + "x", id="9*5000+x"),
                                 pytest.param("#x" + "g" * 5000, id="#x+g*5000")])
def test_bad_tokens(bad):
    # int() raises ValueError past sys.get_int_max_str_digits() and on '²',
    # and reads the Arabic-Indic digit three as 3; a numeral is ASCII digits
    with pytest.raises(BadToken) as err:
        read_sexprs(bad)
    assert len(str(err.value)) < 100  # a long token is not echoed whole


def test_nesting_limit():
    at_limit = "(" * MAX_DEPTH + ")" * MAX_DEPTH
    e = read1(at_limit)
    assert print_sexpr(e) == at_limit
    with pytest.raises(NestingTooDeep) as err:
        read_sexprs("(a " + at_limit + ")")
    assert err.value.position == MAX_DEPTH + 2  # offset of the extra '('


def test_print_atoms():
    assert print_sexpr(0) == "0"
    assert print_sexpr(True) == "true"
    assert print_sexpr(BV(4, 5)) == "#x5"
    assert print_sexpr(BV(3, 5)) == "#b101"
    assert print_sexpr(BV(32, 1)) == "#x00000001"


symbols = st.text(alphabet="abcdefgxyz_-<>=!", min_size=1).filter(
    lambda s: s not in ("true", "false") and not s.lstrip("-").isdigit()
    and not (s.startswith("-") and len(s) > 1 and s[1].isdigit()))
atoms = st.one_of(
    symbols,
    st.integers(-10**12, 10**12),
    st.booleans(),
    st.builds(BV, st.integers(1, 70), st.integers(0, 2**70)),
)
sexprs = st.recursive(atoms, lambda inner: st.lists(inner, max_size=4),
                      max_leaves=25)


@given(sexprs)
def test_print_read_roundtrip(e):
    assert read_sexprs(print_sexpr(e)) == [e]


@given(st.lists(sexprs, max_size=5))
def test_toplevel_sequence_roundtrip(es):
    text = " ".join(print_sexpr(e) for e in es)
    assert read_sexprs(text) == es
