"""Grammar, errors and evaluation of the operator expression language."""

import pickle

import pytest

from qspivey import NormalForm, ParseError, QPoly, normal_order, parse, to_normal_form
from qspivey.opexpr import MAX_DIGITS, Atom, Lit, Pow, Prod, Sum


def test_parse_power():
    assert parse("N^2") == Pow(Atom("N"), 2)


def test_parse_precedence():
    assert parse("N^2*a") == Prod(Pow(Atom("N"), 2), Atom("a"))
    assert parse("a+ad*a") == Sum(Atom("a"), Prod(Atom("ad"), Atom("a")), 1)
    assert parse("(2*N+1)^3") == Pow(
        Sum(Prod(Lit(2), Atom("N")), Lit(1), 1), 3
    )


def test_whitespace_insignificant():
    assert parse("  ( 2 * N + 1 ) ^ 2 ") == parse("(2*N+1)^2")


def test_unicode_minus_accepted():
    assert parse("a − ad") == parse("a - ad")


def test_q_is_not_a_symbol():
    text = "a*ad − q*ad*a"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == text.index("q")
    assert "unknown symbol 'q'" in str(err.value)


def test_unbound_symbols_rejected():
    with pytest.raises(ParseError) as err:
        parse("m*N")
    assert "not bound" in str(err.value)
    assert err.value.position == 0
    with pytest.raises(ParseError):
        parse("N+r")
    # binding both makes the same text parse
    assert parse("m*N+r", m=2, r=1) == Sum(Prod(Lit(2), Atom("N")), Lit(1), 1)


def test_negative_bindings_rejected():
    with pytest.raises(ValueError):
        parse("m*N", m=-1)


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("N)")
    assert err.value.position == 1
    with pytest.raises(ParseError) as err:
        parse("N^")
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse("^2")
    with pytest.raises(ParseError):
        parse("(N")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("N^-1")
    with pytest.raises(ParseError):
        parse("N^N")


def test_an_over_long_uint_is_a_parse_error():
    """A uint of more than MAX_DIGITS digits fails at its first digit, so
    no int() reads it; MAX_DIGITS digits are still one uint."""
    long = "1" * (MAX_DIGITS + 1)
    with pytest.raises(ParseError, match="more than") as err:
        parse(f"a^{long}")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse(f"ad * {long}")
    assert err.value.position == 5
    assert parse("a^" + "0" * (MAX_DIGITS - 1) + "3") == parse("a^3")


def test_to_normal_form_atoms():
    assert to_normal_form(parse("N")) == NormalForm.number()
    assert to_normal_form(parse("a")) == NormalForm.lowering()
    assert to_normal_form(parse("ad")) == NormalForm.raising()
    assert to_normal_form(parse("3")) == NormalForm.identity() * 3


def test_normal_order_reorders_products():
    # a ad = 1 + q ad a
    nf = normal_order("a*ad")
    assert nf.coefficient(0, 0) == QPoly.one()
    assert nf.coefficient(1, 1) == QPoly.monomial(1)
    # subtracting the identity leaves exactly the deformed number term
    assert normal_order("a*ad - 1") == NormalForm.monomial(1, 1, QPoly.monomial(1))
    assert normal_order("a*ad − 1") == normal_order("a*ad - 1")


def test_normal_order_with_bindings():
    nf = normal_order("(m*N+r)^1", m=2, r=1)
    assert nf.terms == (
        ((0, 0), QPoly([1])),
        ((1, 1), QPoly([2])),
    )


def test_n_desugars_to_ad_a():
    assert normal_order("N") == normal_order("ad*a")
    assert normal_order("N^3") == normal_order("ad*a*ad*a*ad*a")


def test_to_normal_form_walks_deep_trees_without_recursion():
    left = right = Atom("a")
    for _ in range(2999):
        left = Sum(left, Atom("a"), 1)
        right = Prod(Atom("a"), right)
    assert to_normal_form(left) == NormalForm.lowering() * 3000
    assert to_normal_form(right) == NormalForm.lowering() ** 3000


def test_ast_nodes_are_immutable_records():
    """Field-wise equality within a node type, never across two types."""
    node = parse("(2*N+1)^3")
    with pytest.raises(AttributeError):
        node.exponent = 4
    with pytest.raises(AttributeError):
        node.extra = 4
    assert Pow(Atom("a"), 2) == Pow(Atom("a"), 2)
    assert Pow(Atom("a"), 2) != Prod(Atom("a"), 2)
    assert Sum(Lit(1), Lit(2), 1) != Sum(Lit(1), Lit(2), -1)
    assert Lit(1) != 1 and Atom("a") != "a"
    assert hash(Pow(Atom("a"), 2)) == hash(Pow(Atom("a"), 2))
    assert len({Lit(1), Lit(1), Atom("a")}) == 2
    assert repr(node) == (
        "Pow(base=Sum(left=Prod(left=Lit(value=2), right=Atom(name='N')), "
        "right=Lit(value=1), sign=1), exponent=3)"
    )
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(node, protocol))
        assert back == node and to_normal_form(back) == to_normal_form(node)
