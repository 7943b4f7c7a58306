"""Derivative, difference, and parser tests.

Oracles: Richardson-extrapolated central differences and a table of values
recorded from the former expression-tree derivatives for the exact
derivatives, literal k-fold iteration of the one-step difference for the
binomial-sum formula, and hand values everywhere they are cheap.
"""

import json
import pathlib

import numpy as np
import pytest

from varbounds import calculus
from varbounds.calculus import (ExpressionError, FunctionTuple,
                                forward_difference, load_function_tuple,
                                parse_function, polynomial, rising_q)

REFERENCE = json.loads(
    (pathlib.Path(__file__).with_name("derivative_values.json")).read_text())


def central_derivative(f, k, x, h=None):
    """Iterated central first differences with one Richardson step: O(h^4)."""
    if h is None:
        h = 1e-3 if k <= 2 else 0.02

    def iterate(step):
        def chain(g):
            return lambda t: (g(t + step) - g(t - step)) / (2.0 * step)
        out = f
        for _ in range(k):
            out = chain(out)
        return out(x)

    coarse = iterate(h)
    fine = iterate(h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def iterated_delta(f, k, j):
    """Literal k-fold forward difference (oracle for the binomial sum)."""
    def step(g):
        return lambda t: g(t + 1) - g(t)
    out = f
    for _ in range(k):
        out = step(out)
    return out(j)


class TestDerivatives:
    def test_hand_examples(self):
        assert parse_function("x^2").derivative_value(1, 3.0) == pytest.approx(6.0)
        assert parse_function("x^3").derivative_value(3, 17.3) == pytest.approx(6.0)
        f = parse_function("x*exp(x)")
        assert f.derivative_value(2, 0.0) == pytest.approx(
            2.0, abs=1e-6)  # central-difference oracle agrees below

    def test_polynomial_vanishes_beyond_degree(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            deg = rng.integers(0, 5)
            f = polynomial(rng.normal(size=deg + 1))
            xs = rng.normal(size=4)
            for k in range(deg + 1, deg + 4):
                np.testing.assert_array_equal(f.derivative_value(k, xs),
                                              np.zeros(4))

    @pytest.mark.parametrize("expr", [
        "x^4 - 2*x^2 + 1",
        "exp(0.5*x)",
        "sin(1.3*x)",
        "cos(0.7*x)",
        "x*exp(0.4*x)",
        "x^2*sin(x)",
        "log(2*x+5)",
        "2 - 0.5*x + x*cos(2*x)",
    ])
    def test_against_central_differences(self, expr):
        f = parse_function(expr)
        for k in range(1, 5):
            for x in (-1.2, 0.3, 1.7):
                exact = f.derivative_value(k, x)
                approx = central_derivative(f, k, x)
                assert exact == pytest.approx(approx, rel=1e-5, abs=1e-5)

    def test_logit_derivative(self):
        f = parse_function("log(x) - log(1-x)")
        x = 0.3
        assert f.derivative_value(1, x) == pytest.approx(1.0 / (x * (1 - x)))

    @pytest.mark.parametrize("expr", sorted(REFERENCE))
    def test_against_reference_table(self, expr):
        # d^k g, k <= 8, recorded from the expression-tree derivatives that
        # the closed-form term sums replaced (tests/derivative_values.json)
        ref = REFERENCE[expr]
        f = parse_function(expr)
        for k, row in enumerate(ref["d"]):
            np.testing.assert_allclose(
                f.derivative_value(k, np.array(ref["x"])), row,
                rtol=1e-12, atol=1e-12, err_msg=f"{expr}, k={k}")

    @pytest.mark.parametrize("expr", [
        "x*sin(2*x)", "x^2*exp(0.25*x)", "exp(x)*sin(x)", "cos(x)*log(x+3)",
    ])
    def test_linear_cost_at_order_16(self, expr, monkeypatch):
        # one product term: the Leibniz sum takes at most k + 1 values of
        # each factor
        calls = []
        original = calculus._factor_value

        def counted(f, j, x):
            calls.append(j)
            return original(f, j, x)

        monkeypatch.setattr(calculus, "_factor_value", counted)
        k = 16
        parse_function(expr).derivative_value(k, np.linspace(0.1, 2.0, 200))
        assert 0 < len(calls) <= 2 * (k + 1)

    def test_order_16_closed_form(self):
        # d^16 [x sin 2x] = 2^16 (x sin 2x - 8 cos 2x)
        xs = np.linspace(-2.0, 2.0, 9)
        np.testing.assert_allclose(
            parse_function("x*sin(2*x)").derivative_value(16, xs),
            2.0**16 * (xs * np.sin(2 * xs) - 8 * np.cos(2 * xs)),
            rtol=1e-12, atol=1e-12 * 2.0**16)

    def test_vectorized(self):
        f = parse_function("x^3")
        xs = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(f.derivative_value(1, xs), 3 * xs**2)


class TestForwardDifference:
    def test_hand_examples(self):
        sq = lambda j: j**2
        assert forward_difference(sq, 1, 3) == pytest.approx(7.0)
        for j in (-2, 0, 5):
            assert forward_difference(sq, 2, j) == pytest.approx(2.0)
        assert forward_difference(lambda j: 2.0**j, 3, 0) == pytest.approx(1.0)

    def test_matches_iterated_delta_exactly(self):
        rng = np.random.default_rng(3)
        funcs = [lambda j: j**3 - 2 * j,
                 lambda j: np.exp(-0.3 * j),
                 lambda j: np.sin(0.5 * j)]
        for f in funcs:
            for k in range(0, 6):
                for j in rng.integers(-5, 15, size=5):
                    a = forward_difference(f, k, float(j))
                    b = iterated_delta(f, k, float(j))
                    assert a == pytest.approx(b, abs=1e-12 * max(1, abs(b)))

    def test_vanishes_beyond_polynomial_degree(self):
        f = polynomial([1.0, -3.0, 0.0, 2.0])  # degree 3
        js = np.arange(-3, 8, dtype=float)
        np.testing.assert_allclose(forward_difference(f, 4, js),
                                   np.zeros_like(js), atol=1e-9)

    def test_order_ceiling(self):
        with pytest.raises(ValueError):
            forward_difference(lambda j: j, 21, 0)


class TestRisingProduct:
    def test_hand_examples(self):
        const2 = lambda x: 2.0 * np.ones_like(np.asarray(x, dtype=float))
        assert rising_q(const2, 3, 0.7) == pytest.approx(8.0)
        assert rising_q(const2, 0, 0.7) == pytest.approx(1.0)
        ident = lambda x: np.asarray(x, dtype=float)
        assert rising_q(ident, 2, 3.0) == pytest.approx(12.0)
        assert rising_q(ident, 1, 3.0) == pytest.approx(3.0)

    def test_recurrence_exact(self):
        q = lambda x: 0.5 * x**2 - x + 2.0
        xs = np.linspace(-3, 3, 7)
        for k in range(0, 5):
            lhs = rising_q(q, k + 1, xs)
            rhs = rising_q(q, k, xs) * q(xs + k)
            np.testing.assert_array_equal(lhs, rhs)


class TestParser:
    def test_rejects_three_factor_products(self):
        with pytest.raises(ExpressionError):
            parse_function("x*sin(x)*exp(x)")

    def test_rejects_unknown_symbol(self):
        with pytest.raises(ExpressionError):
            parse_function("tan(x)")

    def test_rejects_nonaffine_argument(self):
        with pytest.raises(ExpressionError):
            parse_function("exp(x^2)")

    def test_rejects_trailing_garbage(self):
        with pytest.raises(ExpressionError):
            parse_function("x^2 )")

    def test_negative_and_scientific_coefficients(self):
        f = parse_function("-2.5e-1*x + 1")
        assert f(2.0) == pytest.approx(0.5)

    def test_affine_with_constant_first(self):
        f = parse_function("log(1-x)")
        assert f(0.5) == pytest.approx(np.log(0.5))

    def test_json_round_trip(self):
        doc = {"functions": [{"poly": [0.0, 1.0]},
                             {"expr": "exp(0.5*x)"},
                             {"expr": "x^2"},
                             {"expr": "x*sin(2*x)"},
                             {"expr": "x^2*exp(0.25*x)"},
                             {"expr": "2 - 0.5*x + x*cos(2*x)"}]}
        tup = load_function_tuple(doc)
        assert tup.p == 6
        assert tup[0](2.0) == pytest.approx(2.0)
        assert tup[1](0.0) == pytest.approx(1.0)
        redoc = tup.to_json()
        # parsed functions keep their text; polynomials keep coefficients
        assert redoc == {"functions": [{"poly": [0.0, 1.0]}]
                         + doc["functions"][1:]}
        tup2 = load_function_tuple(redoc)
        xs = np.linspace(-1, 1, 5)
        for g1, g2 in zip(tup, tup2):
            for k in range(4):
                np.testing.assert_array_equal(g1.derivative_value(k, xs),
                                              g2.derivative_value(k, xs))

    def test_tuple_requires_entry(self):
        with pytest.raises(ValueError):
            FunctionTuple([])
