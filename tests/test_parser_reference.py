"""The one-scan expression parser against the token-loop parser it replaced.

The reference (``tests/parser_reference.py``) is the former tokenizer,
method-per-token parser and numpy polynomial collection, and the former
slot compiler.  On seeded random grammar strings, on the Hypothesis
strategy of the round-trip tests and on named strings, both parsers must
give the same terms: the same order, coefficients bit for bit and the same
factor fields.  On malformed strings they must raise the same exception
with the same message, except where the malformed corpus overrides the
reference's verdict, and a derivative table compiled for the orders
0..16 must hold, row by row, the summands and bases the reference compiles
for each order.
"""

import json
import struct

import numpy as np
import pytest

from varbounds.calculus import (DerivativeTable, ExpressionError,
                                parse_function, polynomial)
from tests import parser_reference as reference
from tests.test_calculus import random_expression

hypothesis = pytest.importorskip("hypothesis")
from tests.test_expression_round_trip import _expr  # noqa: E402


def _bits(value):
    return struct.pack("d", value)


def _same_factor(new, old):
    if old is None:
        assert new is None
        return
    assert (new.kind, new.quarter, new.top) == (old.kind, old.quarter, old.top)
    assert type(new.a) is type(old.a)
    assert (_bits(new.a), _bits(new.b)) == (_bits(old.a), _bits(old.b))
    if old.kind == "poly":
        assert np.asarray(new.derivs[0]).tobytes() == old.derivs[0].tobytes()


def assert_same_terms(text):
    new, old = parse_function(text), reference.parse_function(text)
    assert (new.label, new._expr) == (old.label, old._expr)
    assert len(new._terms) == len(old._terms), text
    for (c, u, v), (rc, ru, rv) in zip(new._terms, old._terms):
        assert _bits(c) == _bits(rc), text
        _same_factor(u, ru)
        _same_factor(v, rv)


def test_random_expressions_give_the_same_terms():
    rng = np.random.default_rng(20)
    for _ in range(2000):
        assert_same_terms(random_expression(rng))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(_expr())
def test_round_trip_strategy_gives_the_same_terms(case):
    assert_same_terms(case[0])


@pytest.mark.parametrize("text", [
    "x", "7", "0", "-0", "x - x", "-x^0", "x^2 - 4 + x^2", "x^7", "x^0*x",
    "x*x", "3*x^2*2", "--x", "+-+x - -2", "-2.5e-1*x + 1", ".5e1*x",
    "1e400*0*x - 1e400*0", "2 - 0.5*x + x*cos(2*x)", "log(1-x)",
    "cos(0.7*x)*log(x+3)", "exp(-x)*x^3",
    "sin(-2*x+1) - 3*cos(+0.5*x - -2)", "x^2*exp(0.25*x) + 1e-300",
])
def test_named_strings_give_the_same_terms(text):
    assert_same_terms(text)


@pytest.mark.parametrize("coeffs", [
    [], [0.0], [-0.0], [1.0, 0.0, -0.0], [0, 2, 3], [-0.0, 1.0], 2.5,
    np.array([np.nan, 0.0]), (np.inf, 1.0, 0.0),
])
def test_polynomials_keep_the_same_coefficients(coeffs):
    new, old = polynomial(coeffs), reference._Factor("poly", coeffs=coeffs)
    _same_factor(new._terms[0][1], old)
    assert new.label == f"poly({old.derivs[0].tolist()})"
    assert json.dumps(new.to_json()) == json.dumps(
        {"poly": old.derivs[0].tolist()})


# malformed strings whose verdict overrides the reference's: it adds the
# terms side by side in an argument, where the parser raises
OVERRIDES = {
    text: (ExpressionError,
           f"argument of exp/sin/cos/log must be affine in x: {text!r}")
    for text in ("exp(2 3)", "sin(x x)", "log(x 1)", "exp(2*x 1)")}

MALFORMED = [
    "2x", "x^-1", "x^2.5", "exp(x", "exp(x^2)", "(x+1)", "x*y",
    "x*sin(x)*cos(x)", "log(0*x+1)", "x +", "", "3*", "exp(2*3*x)", "x**2",
    "1e", "sin x", "x^", "x^1e400", "exp", "exp()", "exp(-)", "exp(2*)",
    "tan(x)", "x^2 )", "x  $", " $x", "x*$ + 1", "é*x", "x)", "()",
    "+", "x*+2", "exp(x)^2", ".", "2..5", "x^x", "x^1.5e0", "log(x-x)",
    "x^2*sin(x)*exp(x*", "sin(x)(x)", *OVERRIDES,
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_strings_raise_the_same_error(text):
    if text in OVERRIDES:
        reference.parse_function(text)  # the reference accepts it
        want = OVERRIDES[text]
    else:
        with pytest.raises(Exception) as old:
            reference.parse_function(text)
        want = (type(old.value), str(old.value))
    with pytest.raises(Exception) as new:
        parse_function(text)
    assert (type(new.value), str(new.value)) == want


@pytest.mark.parametrize("text", [
    "x ", " x", "x^2 + 1 ", "exp(0.5*x) ", "x\t", "x\n", " \tx*cos(2*x)\n ",
    "  3 * x ^ 2  -  log ( 1 - x )  ",
])
def test_whitespace_around_and_between_tokens(text):
    # the former tokenizer rejected whitespace after the last token
    f, stripped = parse_function(text), reference.parse_function(text.strip())
    assert len(f._terms) == len(stripped._terms)
    for (c, u, v), (rc, ru, rv) in zip(f._terms, stripped._terms):
        assert _bits(c) == _bits(rc)
        _same_factor(u, ru)
        _same_factor(v, rv)
    if text != text.rstrip():
        with pytest.raises(ExpressionError, match="bad character"):
            reference.parse_function(text)


# the summand -0.0 * (1 * 1) that pads a short row
_PAD = (_bits(-0.0), reference._ONE, reference._ONE)


def _summand(slot, row, keys):
    """(scale bits, base key of u, base key of v) of one row of a slot."""
    u, v, scale = slot
    return (_bits(1.0 if scale is None else scale[row, 0]), keys[u[row]],
            reference._ONE if v is None else keys[v[row]])


def _summand_at(slot, row, keys):
    """The summand of a row of the stack in a slot that spans the rows
    lo..lo + len(u) - 1; the pad elsewhere."""
    lo, *slot = slot
    if lo <= row < lo + len(slot[0]):
        return _summand(slot, row - lo, keys)
    return _PAD


def _assert_same_slots(texts, top=16):
    # the one table of orders 0..top holds, for the rows of each order, the
    # slots the reference compiles for that order alone, then padding
    table = DerivativeTable([parse_function(t) for t in texts]).summands(
        range(top + 1))
    old = [reference.parse_function(t) for t in texts]
    index, p = {reference._ONE: 0}, len(texts)
    used = set()
    for k in range(top + 1):
        ref_slots, ref_keys = reference.compile_slots(old, k, index)
        assert len(table.slots) >= len(ref_slots), (texts, k)
        for s, slot in enumerate(table.slots):
            assert slot[1].dtype == np.intp
            for i in range(p):
                got = _summand_at(slot, k * p + i, table.keys)
                want = (_summand(ref_slots[s], i, ref_keys)
                        if s < len(ref_slots) else _PAD)
                assert got == want, (texts, k, s, i)
                used.update(got[1:])
    # each base once, every one of them used, grouped by kind
    assert len(set(table.keys)) == len(table.keys)
    assert used >= set(table.keys)
    kinds = [key[0] for key in table.keys]
    assert [kind for kind, _, _ in table.steps] == list(dict.fromkeys(kinds))
    for kind, rows, _ in table.steps:
        assert set(kinds[rows]) == {kind}


def test_random_tuples_compile_the_same_slots():
    rng = np.random.default_rng(21)
    for _ in range(40):
        _assert_same_slots([random_expression(rng) for _ in range(4)])


@pytest.mark.parametrize("texts", [
    ("log(2*x+5)", "cos(0.7*x)*log(x+3)", "3.5", "x*cos(2*x)"),
    ("exp(x)*sin(x)", "2 - 0.5*x + x*cos(2*x)", "x^2*exp(0.25*x)"),
    ("x", "x^2", "x^3", "exp(0.2*x)", "sin(0.9*x)", "x*cos(0.9*x)",
     "x*cos(0.9*x)", "0", "x^2*x^3", "-x^0*sin(x)"),
])
def test_named_tuples_compile_the_same_slots(texts):
    _assert_same_slots(texts)
