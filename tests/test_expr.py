import math

import pytest
from hypothesis import given, settings, strategies as st

from vaknh import expr as E
from vaknh.errors import EvalError, ExprSyntaxError

from oracles import reference_evaluate


def test_parse_quadratic_form():
    e = E.parse("0.5*(dx^2+dy^2+dz^2)")
    assert e == E.Binary(
        "*", E.Const(0.5),
        E.Binary("+",
                 E.Binary("+", E.Power(E.Var("dx"), 2.0), E.Power(E.Var("dy"), 2.0)),
                 E.Power(E.Var("dz"), 2.0)))


def test_parse_product():
    assert E.parse("y*dx") == E.Binary("*", E.Var("y"), E.Var("dx"))


def test_parse_martinet_constraint_form():
    e = E.parse("dz - (y^2/2)*dx")
    assert e == E.Binary(
        "-", E.Var("dz"),
        E.Binary("*", E.Binary("/", E.Power(E.Var("y"), 2.0), E.Const(2.0)),
                 E.Var("dx")))


def test_precedence_and_unary_minus():
    # ^ binds tighter than unary minus; -x^2 is -(x^2)
    assert E.evaluate(E.parse("-3^2"), {}) == -9.0
    assert E.evaluate(E.parse("2*3+4"), {}) == 10.0
    assert E.evaluate(E.parse("2+3*4"), {}) == 14.0
    assert E.evaluate(E.parse("2^3^2"), {}) == 64.0  # chained powers apply left to right
    assert E.evaluate(E.parse("8/4/2"), {}) == 1.0
    assert E.evaluate(E.parse("1-2-3"), {}) == -4.0
    assert E.evaluate(E.parse("2^-2"), {}) == 0.25
    assert E.evaluate(E.parse("sin(0)"), {}) == 0.0


def test_whitespace_insensitive():
    assert E.parse(" y *\n dx ") == E.parse("y*dx")


def test_evaluate_examples():
    assert E.evaluate(E.parse("y*dx"), {"y": 3, "dx": 2}) == 6
    assert E.evaluate(E.parse("0.5*(dx^2+dy^2+dz^2)"),
                      {"dx": 1, "dy": 1, "dz": 1}) == 1.5


def test_evaluate_domain_errors_name_subexpression():
    with pytest.raises(EvalError, match="sqrt"):
        E.evaluate(E.parse("sqrt(x)"), {"x": -1})
    with pytest.raises(EvalError, match="division by zero"):
        E.evaluate(E.parse("1/(x-1)"), {"x": 1})
    with pytest.raises(EvalError, match="log"):
        E.evaluate(E.parse("log(x)"), {"x": 0})


def test_evaluate_unbound_variable():
    with pytest.raises(EvalError, match="unbound variable 'dx'"):
        E.evaluate(E.parse("y*dx"), {"y": 3})


def test_evaluate_does_not_mutate_env():
    env = {"x": 2.0}
    E.evaluate(E.parse("x^2 + x"), env)
    assert env == {"x": 2.0}


def test_free_vars():
    assert E.free_vars(E.parse("y*dx")) == {"y", "dx"}
    assert E.free_vars(E.parse("3.0")) == set()
    assert E.free_vars(E.parse("dz - (y^2/2)*dx")) == {"dz", "y", "dx"}


def test_syntax_error_positions():
    with pytest.raises(ExprSyntaxError) as exc:
        E.parse("y +* x")
    assert exc.value.offset == 3
    assert exc.value.line == 1
    assert exc.value.column == 4
    with pytest.raises(ExprSyntaxError) as exc:
        E.parse("1 +\n+ )")
    assert exc.value.line == 2


def test_an_unclosed_call_expects_its_parenthesis():
    with pytest.raises(ExprSyntaxError, match=r"^expected '\)', found 'end of input'") as exc:
        E.parse("sin(x")
    assert exc.value.offset == 5


def test_a_negative_constant_serializes_as_a_negation():
    # The grammar has no negative literals: a hand-built Const(-2.0) comes
    # back as the equivalent negation node.
    text = E.serialize(E.Const(-2.0))
    assert text == "-2.0"
    assert E.parse(text) == E.Unary("neg", E.Const(2.0))
    product = E.serialize(E.Binary("*", E.Var("x"), E.Const(-2.0)))
    assert E.parse(product) == E.Binary("*", E.Var("x"), E.Unary("neg", E.Const(2.0)))


def test_a_zeroth_power_is_one():
    for x in (0.0, -0.0, -2.0, 1e300):
        assert E.evaluate(E.parse("x^0"), {"x": x}) == 1.0
        assert reference_evaluate(E.parse("x^0"), {"x": x}) == 1.0


def test_unknown_function():
    with pytest.raises(ExprSyntaxError, match="unknown function 'sinh'"):
        E.parse("sinh(x)")


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        E.parse("2 x")


def test_exponent_must_be_literal():
    with pytest.raises(ExprSyntaxError, match="exponent"):
        E.parse("x^y")


def test_integer_power_of_negative_base():
    assert E.evaluate(E.parse("x^3"), {"x": -2.0}) == -8.0
    with pytest.raises(EvalError):
        E.evaluate(E.parse("x^0.5"), {"x": -2.0})


# ---------------------------------------------------------------------------
# Random expression corpus
# ---------------------------------------------------------------------------

_NAMES = ("x", "y", "dx", "dy", "k1")


def _exprs():
    leaves = st.one_of(
        st.sampled_from([E.Var(n) for n in _NAMES]),
        st.floats(min_value=0.0, max_value=9.5,
                  allow_nan=False, allow_infinity=False).map(
                      lambda v: E.Const(float(v))),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: E.Binary(t[0], t[1], t[2])),
            st.tuples(st.sampled_from(("neg",) + E.FUNCTIONS), children).map(
                lambda t: E.Unary(t[0], t[1])),
            st.tuples(children, st.sampled_from([-2.0, -1.0, 2.0, 3.0, 0.5, 1.5])).map(
                lambda t: E.Power(t[0], t[1])),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_exprs())
def test_serialize_parse_round_trip(tree):
    text = E.serialize(tree)
    again = E.parse(text)
    assert again == tree
    assert E.parse(E.serialize(again)) == again


@settings(max_examples=200, deadline=None)
@given(_exprs(), st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
       st.floats(min_value=0.1, max_value=3.0, allow_nan=False))
def test_evaluate_matches_reference_bitwise(tree, a, b):
    env = {"x": a, "y": b, "dx": a + b, "dy": a * b, "k1": 1.25}
    try:
        expected = reference_evaluate(tree, env)
    except (ValueError, ZeroDivisionError, OverflowError):
        with pytest.raises(EvalError):
            E.evaluate(tree, env)
        return
    if math.isinf(expected) or math.isnan(expected):
        return
    got = E.evaluate(tree, env)
    assert got == expected  # 0 ULP: same operations in the same order
