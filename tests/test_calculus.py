"""Derivative, difference, and parser tests.

Oracles: Richardson-extrapolated central differences and a table of values
recorded from the former expression-tree derivatives for the exact
derivatives, literal k-fold iteration of the one-step difference for the
binomial-sum formula, and hand values everywhere they are cheap.
"""

import json
import pathlib

import math
import time
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from varbounds.calculus import (ExpressionError, FunctionTuple,
                                forward_difference, load_function_tuple,
                                parse_function, polynomial, rising_q)
from varbounds.errors import InvalidParameterError

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


def _factor_reference(f, j, x):
    """j-th derivative of the primitive f at x as a scalar and an array."""
    if f.kind == "poly":
        return 1.0, npoly.polyval(x, npoly.polyder(f.derivs[0], j))
    t = f.a * x + f.b
    if f.kind == "exp":
        return f.a ** j, np.exp(t)
    if f.kind == "sin":
        q = (f.quarter + j) % 4
        return (f.a ** j if q < 2 else -f.a ** j,
                np.sin(t) if q % 2 == 0 else np.cos(t))
    if j == 0:
        return 1.0, np.log(t)
    scale = f.a ** j
    for m in range(1, j):
        scale *= -m
    return scale, t ** -j


def derivative_reference(f, k, x):
    """d^k f at x by the per-term Leibniz loop that the derivative tables
    replaced: each summand evaluates its own factors, and the summands are
    added term by term, in order."""
    x = np.asarray(x, dtype=float)
    out = None
    for c, u, v in f._terms:
        if v is None:
            orders = range(k, k + 1) if k <= u.top else range(0)
        else:
            orders = range(max(0, k - v.top), min(k, u.top) + 1)
        for i in orders:
            scale, val = _factor_reference(u, i, x)
            scale *= c
            if v is not None:
                sv, vv = _factor_reference(v, k - i, x)
                scale, val = scale * sv * math.comb(k, i), val * vv
            if scale != 1.0:
                val = scale * val
            out = val if out is None else out + val
    return np.zeros(x.shape) if out is None else out


def random_expression(rng):
    """A grammar string of one to three terms: constants, powers of x, and
    products of at most two factors among x^m and exp, sin, cos, log of an
    affine argument (log's positive on [0.1, 2])."""
    def factor():
        kind = rng.choice(["x^m", "exp", "sin", "cos", "log"])
        if kind == "x^m":
            return f"x^{rng.integers(1, 5)}"
        a, b = rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0)
        if kind == "log":
            a, b = rng.uniform(0.2, 2.0), rng.uniform(0.5, 3.0)
        return f"{kind}({a!r}*x+{b!r})".replace("+-", "-")

    terms = []
    for _ in range(rng.integers(1, 4)):
        shape = rng.integers(0, 3)
        coef = f"{rng.uniform(0.1, 3.0)!r}"
        terms.append(coef if shape == 0 else
                     "*".join([coef] + [factor() for _ in range(shape)]))
    return " + ".join(terms)


class TestDerivativeTable:
    """The batched rows equal the per-term Leibniz loop bit for bit."""

    XS = np.linspace(0.1, 2.0, 37)

    def test_rows_match_reference_bits(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            g = FunctionTuple([parse_function(random_expression(rng))
                               for _ in range(4)])
            table, top = g.table, 16
            # every order from one evaluation of the bases, as on a grid
            stack = table.rows(table.bases(self.XS, range(top + 1)))
            for k, rows in enumerate(stack):
                for gi, row in zip(g, rows):
                    ref = derivative_reference(gi, k, self.XS)
                    np.testing.assert_array_equal(
                        row.view(np.uint64), ref.view(np.uint64),
                        err_msg=f"{gi.label}, k={k}")
                    # and one function at one order
                    np.testing.assert_array_equal(
                        gi.derivative_value(k, self.XS).view(np.uint64),
                        ref.view(np.uint64), err_msg=f"{gi.label}, k={k}")

    @pytest.mark.parametrize("exprs", [
        ("log(2*x+5)", "cos(0.7*x)*log(x+3)", "3.5", "x*cos(2*x)"),
        ("exp(x)*sin(x)", "2 - 0.5*x + x*cos(2*x)", "x^2*exp(0.25*x)"),
    ])
    def test_named_tuples_match_reference_bits(self, exprs):
        g = FunctionTuple([parse_function(e) for e in exprs])
        stack = g.table.rows(g.table.bases(self.XS, range(17)))
        for k in range(17):
            for gi, row in zip(g, stack[k]):
                np.testing.assert_array_equal(
                    row.view(np.uint64),
                    derivative_reference(gi, k, self.XS).view(np.uint64))

    def test_orders_past_every_degree_are_positive_zero(self):
        g = FunctionTuple([polynomial([1.0, -3.0, 0.0, 2.0]),
                           parse_function("x^2 - 4"), parse_function("7"),
                           parse_function("-2.5*x")])
        stack = g.table.rows(g.table.bases(self.XS, range(17)))
        assert not np.any(stack[4:].view(np.uint64))

    def test_scalar_and_shaped_points(self):
        f = parse_function("x*exp(0.3*x) + log(x+2)")
        xs = self.XS.reshape(37, 1)
        assert f.derivative_value(2, xs).shape == (37, 1)
        assert f.derivative_value(2, 0.4) == derivative_reference(f, 2, 0.4)

    def test_bare_callable_has_values_only(self):
        g = FunctionTuple([parse_function("x^2"), np.sin])
        rows = g.table.rows(g.table.bases(self.XS, (0,)))[0]
        np.testing.assert_array_equal(rows, [self.XS ** 2, np.sin(self.XS)])
        with pytest.raises(TypeError):
            g.table.summands((0, 1))


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

    @pytest.mark.parametrize("expr,bound", [
        ("x*sin(2*x)", (1 + 1) + 2), ("x^2*exp(0.25*x)", (2 + 1) + 2),
        ("exp(x)*sin(x)", (0 + 1) + 2), ("cos(x)*log(x+3)", (16 + 1) + 2),
    ])
    def test_linear_cost_at_order_16(self, expr, bound):
        # one product term: k + 1 Leibniz summands at most, over at most
        # (degree + 1) + 2 distinct bases: the derivatives of the polynomial
        # factor (of log: one power per order), and exp or sin and cos
        k = 16
        table = parse_function(expr)._table
        values, _ = table.bases(np.linspace(0.1, 2.0, 200), (k,))
        assert 0 < len(values) <= bound
        assert len(table.summands((k,)).slots) <= k + 1

    def test_scale_overflow_is_inf_without_a_warning(self):
        # (1e200)^2 overflows while the table compiles; the derivative is
        # inf, as the values of an overflowing row are, and nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = parse_function("exp(1e200*x)")
            assert f.derivative_value(2, 0.0) == math.inf
            assert f.derivative_value(1, 0.0) == 1e200
            assert FunctionTuple([f]).table.summands(range(4)).slots

    @pytest.mark.parametrize("const", ["exp(1)", "sin(2)", "cos(0*x + 3)"])
    def test_constant_factor_has_no_derivatives(self, const):
        # a factor of rate 0 is a constant: its derivatives vanish and add
        # no summand, so no 0 * inf turns an overflowing row into nan
        f = parse_function(f"exp(1e200*x)*{const}")
        c = parse_function(const).derivative_value(0, 0.0)
        with np.errstate(over="ignore"):
            for k in range(5):
                assert f.derivative_value(k, 0.0) == math.copysign(
                    1e200**k * c if k < 2 else math.inf, c)
            assert parse_function(const).derivative_value(3, 0.5) == 0.0

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

    def test_high_power_parses_fast_and_small(self):
        # a polynomial keeps its coefficients, and a table makes only the
        # derivative vectors of the orders it compiles: the full ladder of
        # x^m costs O(m^2) and overflows from m = 171
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = parse_function("x^100000")
            assert time.perf_counter() - start < 0.1
            assert f.derivative_value(2, 1.0) == 100000.0 * 99999.0

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

    @pytest.mark.parametrize("text", [
        '{"functions": [{"expr": "x", "expr": "x^2"}]}',
        '{"functions": [{"expr": "x"}], "functions": [{"expr": "x^2"}]}'])
    def test_repeated_key_is_refused(self, tmp_path, text):
        path = tmp_path / "g.json"
        path.write_text(text)
        with pytest.raises(InvalidParameterError, match="is repeated"):
            load_function_tuple(str(path))

    def test_tuple_requires_entry(self):
        with pytest.raises(ValueError):
            FunctionTuple([])
