"""Expression language: precedence, folding, errors."""

import pickle

import numpy as np
import pytest

from groupft.exprs import ExprError, parse_expression


@pytest.mark.parametrize(
    "src, env, expected",
    [
        ("1 + 2*3", {}, 7.0),
        ("(1 + 2)*3", {}, 9.0),
        ("2^3^2", {}, 512.0),  # right-associative
        ("-2^2", {}, -4.0),  # unary minus binds looser than ^
        ("2^-1", {}, 0.5),
        ("7/2/2", {}, 1.75),  # left-associative
        ("3!", {}, 6.0),
        ("(2+1)!", {}, 6.0),
        ("t^2/(2!*xi1)", {"t": 3.0, "xi1": 1.5}, 3.0),
        ("xi1", {"xi1": -2.5}, -2.5),
        ("1.5e2 - .5", {}, 149.5),
        ("--4", {}, 4.0),
        ("2^3!", {}, 64.0),  # '!' binds tighter than '^'
        ("-3!", {}, -6.0),
        ("3!!", {}, 720.0),
        ("+x", {"x": 2.0}, 2.0),
        ("007 - 1e+007/1e7", {}, 6.0),  # leading zeros
    ],
)
def test_values(src, env, expected):
    assert parse_expression(src)(env) == pytest.approx(expected, rel=1e-14)


def test_numpy_broadcast():
    e = parse_expression("xi3 + t^2/(2*xi1)")
    t = np.linspace(-1, 1, 5)
    out = e(xi3=0.25, t=t, xi1=2.0)
    assert np.allclose(out, 0.25 + t**2 / 4.0)


def test_constants_are_floats():
    assert type(parse_expression("2^3")()) is float


def test_variable_names():
    e = parse_expression("a*b + c^2 - a")
    assert e.variable_names == {"a", "b", "c"}


@pytest.mark.parametrize(
    "src",
    ["", "1 +", "(1+2", "1 2", "2^", "@", "t!", "(xi1)!", "(-1)!", "1.5!"]
    # forms Python's parser accepts that the grammar does not
    + ["0x10", "1_000", "1j", "2**3", "[1]", "f(x)", "a.b", "__import__('os')", "\u03be1"]
    + ["+a.b", "-f(x)"],  # a unary operand is checked too
)
def test_syntax_errors(src):
    with pytest.raises(ExprError):
        parse_expression(src)


def test_unknown_variable_at_eval():
    e = parse_expression("x + y")
    with pytest.raises(ExprError):
        e(x=1.0)


def test_error_positions():
    with pytest.raises(ExprError) as info:
        parse_expression("1 + @")
    assert "position 4" in str(info.value)


@pytest.mark.parametrize(
    "src, pos",
    [("1 2", 2), ("2^", 2), ("1 +", 3), ("t!", 1), ("(xi1)!", 5), ("2**3", 2), ("  1 2", 4)],
)
def test_error_points_into_source(src, pos):
    with pytest.raises(ExprError) as info:
        parse_expression(src)
    assert info.value.pos == pos


def test_pickle_roundtrip():
    e = parse_expression("xi3 + t1^2/(2!*xi1)")
    back = pickle.loads(pickle.dumps(e))
    assert back == e
    assert back(xi3=1.0, t1=2.0, xi1=0.5) == e(xi3=1.0, t1=2.0, xi1=0.5)
