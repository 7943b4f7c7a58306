"""Property test: random grammar strings survive parse -> to_json -> load.

Strings follow the README grammar: sums of at most three terms, each a
product of at most two factors (with an optional numeric coefficient), and
exp/sin/cos/log of affine arguments whose rates lie in [-2, 2] (nonzero,
since log must depend on x).
"""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from varbounds.calculus import (FunctionTuple, load_function_tuple,  # noqa: E402
                                parse_function)

_magnitude = st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False)
_nonzero_rate = st.floats(0.05, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def _affine(draw):
    a = draw(_nonzero_rate)
    b = draw(_magnitude)
    sign_a = draw(st.sampled_from(["", "-"]))
    form = draw(st.sampled_from(["ax", "ax+b", "b-ax"]))
    if form == "ax":
        return f"{sign_a}{a!r}*x"
    if form == "ax+b":
        return f"{sign_a}{a!r}*x+{b!r}"
    return f"{b!r}-{a!r}*x"


@st.composite
def _factor(draw):
    kind = draw(st.sampled_from(["x", "x^m", "exp", "sin", "cos", "log"]))
    if kind == "x":
        return "x"
    if kind == "x^m":
        return f"x^{draw(st.integers(0, 4))}"
    return f"{kind}({draw(_affine())})"


@st.composite
def _term(draw):
    factors = draw(st.lists(_factor(), min_size=1, max_size=2))
    if draw(st.booleans()):
        factors.insert(0, repr(draw(_magnitude)))
    return "*".join(factors)


@st.composite
def _expr(draw):
    terms = draw(st.lists(_term(), min_size=1, max_size=3))
    text = terms[0]
    for t in terms[1:]:
        text += draw(st.sampled_from([" + ", " - "])) + t
    return text, len(terms)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(_expr())
def test_round_trip_keeps_every_derivative(case):
    text, _ = case
    original = parse_function(text)
    doc = json.loads(json.dumps(FunctionTuple([original]).to_json()))
    reloaded, = load_function_tuple(doc)
    xs = np.linspace(-1.5, 1.5, 7)
    with np.errstate(all="ignore"):  # log outside its domain is nan on both
        for k in range(9):
            np.testing.assert_array_equal(original.derivative_value(k, xs),
                                          reloaded.derivative_value(k, xs))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(_expr())
def test_order_16_cost_is_linear(case):
    # at most k + 1 summands per source term, each over two bases; lone
    # monomials and constants share one polynomial term
    text, n_terms = case
    table = parse_function(text)._table
    k = 16
    with np.errstate(all="ignore"):
        values, _ = table.bases(np.linspace(0.1, 1.0, 5), (k,))
    assert len(table.summands(k)) <= (k + 1) * n_terms
    assert len(values) <= 2 * (k + 1) * n_terms
