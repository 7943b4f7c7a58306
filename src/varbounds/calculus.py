"""Test-function machinery: exact closed-form derivatives for a small
primitive grammar, forward differences for integer-domain functions, and the
rising quadratic product.

Continuous test functions are sums of terms c*u(x)*v(x) whose factors are
primitives with a closed-form derivative of every order (polynomials, and
exp/sin/cos/log of an affine argument).  The k-th derivative is the binomial
Leibniz sum over those closed forms, O(k) primitive evaluations per term.  No
numeric differentiation happens on the main path; squared high-order
derivatives would otherwise contaminate eigenvalue margins near equality
cases.  Discrete test functions can be arbitrary evaluators, since forward
differences need only point values.
"""

from __future__ import annotations

import json
import math
import re
from typing import Callable, Sequence, Union

import numpy as np
from numpy.polynomial import polynomial as npoly

MAX_DIFFERENCE_ORDER = 20


# ---------------------------------------------------------------------------
# closed-form primitives and term sums
# ---------------------------------------------------------------------------

class _Factor:
    """One primitive with a closed-form derivative of every order: a
    polynomial, exp(ax+b), sin(ax+b + quarter*pi/2) (cos is quarter 1) or
    log(ax+b).  ``top`` is the highest order whose derivative is not
    identically zero (the degree of a polynomial, infinite otherwise)."""

    def __init__(self, kind, a=1.0, b=0.0, quarter=0, coeffs=None):
        # a numpy rate lets a^j overflow to inf, as the array values do,
        # where a Python float power would raise
        self.kind, self.a, self.b = kind, np.float64(a), float(b)
        self.quarter = quarter
        self.top = math.inf
        if kind == "poly":
            c = np.atleast_1d(np.asarray(coeffs, dtype=float))
            nz = np.nonzero(c)[0]
            self.derivs = [c[: nz[-1] + 1] if nz.size else np.zeros(1)]
            while len(self.derivs[-1]) > 1:
                self.derivs.append(npoly.polyder(self.derivs[-1]))
            self.top = len(self.derivs) - 1


def _factor_value(f: _Factor, j: int, x):
    """j-th derivative of the primitive f at x (j <= f.top), as a scalar and
    an array whose product it is; callers fold the scalars of a Leibniz
    summand into one multiply."""
    if f.kind == "poly":
        return 1.0, npoly.polyval(x, f.derivs[j])
    t = f.a * x + f.b
    if f.kind == "exp":
        return f.a ** j, np.exp(t)
    if f.kind == "sin":
        # the j-th derivative of sin turns it by j quarter periods
        q = (f.quarter + j) % 4
        return (f.a ** j if q < 2 else -f.a ** j,
                np.sin(t) if q % 2 == 0 else np.cos(t))
    if j == 0:
        return 1.0, np.log(t)
    # d^j log(ax+b) = (-1)^(j-1) (j-1)! a^j (ax+b)^(-j)
    scale = f.a ** j
    for m in range(1, j):
        scale *= -m
    return scale, t ** -j


class SmoothFunction:
    """A real function with exact derivatives of every order.

    A sum of terms c*u(x)*v(x) over the primitives {polynomial, exp, sin,
    cos, log of an affine argument}; a single-factor term has no v.  The k-th
    derivative of a term is the binomial Leibniz sum
    c * sum_i C(k,i) u^(i) v^(k-i) over closed-form primitive derivatives,
    skipping the orders where a polynomial factor vanishes, so it costs O(k)
    primitive evaluations and builds nothing per order.  Evaluation is
    vectorized over numpy arrays.
    """

    def __init__(self, terms, label: str, expr: str | None = None):
        self._terms = terms  # [(c, u, v or None)]
        self.label = label
        self._expr = expr  # grammar text, kept by parse_function

    def __call__(self, x):
        return self._derivative(0, x)

    def derivative_value(self, k: int, x):
        """Value of the exact k-th derivative at x (scalar or array)."""
        if k < 0:
            raise ValueError("derivative order must be nonnegative")
        return self._derivative(k, x)

    def _derivative(self, k, x):
        x = np.asarray(x, dtype=float)
        out = None
        for c, u, v in self._terms:
            if v is None:
                orders = range(k, k + 1) if k <= u.top else range(0)
            else:
                orders = range(max(0, k - v.top), min(k, u.top) + 1)
            for i in orders:
                scale, val = _factor_value(u, i, x)
                scale *= c
                if v is not None:
                    sv, vv = _factor_value(v, k - i, x)
                    scale, val = scale * sv * math.comb(k, i), val * vv
                if scale != 1.0:
                    val = scale * val
                out = val if out is None else out + val
        return np.zeros(x.shape) if out is None else out

    def to_json(self):
        if self._expr is not None:
            return {"expr": self._expr}
        # polynomial(): one single-factor polynomial term
        return {"poly": self._terms[0][1].derivs[0].tolist()}

    def __repr__(self):
        return f"SmoothFunction({self.label})"


def polynomial(coeffs: Sequence[float], label: str | None = None) -> SmoothFunction:
    """Polynomial from ascending coefficients [c0, c1, ...]."""
    poly = _Factor("poly", coeffs=coeffs)
    if label is None:
        label = f"poly({poly.derivs[0].tolist()})"
    return SmoothFunction([(1.0, poly, None)], label)


Evaluator = Union[SmoothFunction, Callable[[float], float]]


class FunctionTuple:
    """Ordered tuple of p test functions sharing one domain."""

    def __init__(self, entries: Sequence[Evaluator]):
        entries = list(entries)
        if not entries:
            raise ValueError("need at least one function")
        self.entries = entries

    @property
    def p(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __len__(self):
        return len(self.entries)

    def subset(self, keep) -> "FunctionTuple":
        return FunctionTuple([self.entries[i] for i in keep])

    def to_json(self):
        out = []
        for g in self.entries:
            if isinstance(g, SmoothFunction):
                out.append(g.to_json())
            else:
                out.append({"expr": getattr(g, "__name__", "callable")})
        return {"functions": out}


# ---------------------------------------------------------------------------
# forward differences and the rising quadratic product
# ---------------------------------------------------------------------------

def _pascal_row(k: int):
    if k > MAX_DIFFERENCE_ORDER:
        raise ValueError(
            f"difference order {k} exceeds hard ceiling {MAX_DIFFERENCE_ORDER}")
    row = [1]
    for _ in range(k):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


def forward_difference(f: Evaluator, k: int, j):
    """k-th forward difference sum_{i=0..k} (-1)^(k-i) C(k,i) f(j+i).

    ``j`` may be a scalar or integer array; ``f`` any evaluator accepting
    the shifted arguments.
    """
    if k < 0:
        raise ValueError("difference order must be nonnegative")
    j = np.asarray(j, dtype=float)
    out = difference_of_rows(
        [np.asarray(f(j + i), dtype=float) for i in range(k + 1)], k)
    return out if out.shape else float(out)


def difference_of_rows(rows, k: int) -> np.ndarray:
    """k-th forward difference from the rows f(j), f(j+1), ..., f(j+k):
    sum_{i=0..k} (-1)^(k-i) C(k,i) rows[i], summed in order of i."""
    out = np.zeros(np.shape(rows[0]))
    for i, binom in enumerate(_pascal_row(k)):
        sign = -1.0 if (k - i) % 2 else 1.0
        out = out + sign * binom * rows[i]
    return out


def rising_q(q, k: int, x):
    """Rising product q(x) q(x+1) ... q(x+k-1); empty product (k=0) is 1."""
    if k < 0:
        raise ValueError("order must be nonnegative")
    x = np.asarray(x, dtype=float)
    out = np.ones(x.shape)
    for i in range(k):
        out = out * q(x + i)
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# expression parser
# ---------------------------------------------------------------------------
#
# Grammar (documented in README.md):
#
#   expr    := term { ("+" | "-") term }
#   term    := factor { "*" factor }          (at most two non-constant factors)
#   factor  := NUMBER | "x" [ "^" INT ] | FUNC "(" affine ")"
#   FUNC    := "exp" | "sin" | "cos" | "log"
#   affine  := polynomial of degree <= 1 in x, e.g. "x", "1-x", "0.5*x+2"

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>\^|\*|\+|-|\(|\)))")


class ExpressionError(ValueError):
    """Malformed function expression."""


def _tokenize(text: str):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ExpressionError(f"bad character at {text[pos:]!r}")
        pos = m.end()
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num"))))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r} in {self.text!r}")

    # expr := term { (+|-) term }
    def parse_expr(self):
        terms = [self.parse_term()]
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            t = self.parse_term()
            if op == "-":
                t = (-t[0], t[1])
            terms.append(t)
        return terms

    # term := factor { * factor }; returns (coefficient, [factors])
    def parse_term(self):
        sign = 1.0
        while self.peek() == ("op", "-") or self.peek() == ("op", "+"):
            _, op = self.take()
            if op == "-":
                sign = -sign
        coef, factors = sign, []
        while True:
            kind, val = self.peek()
            if kind == "num":
                self.take()
                coef *= val
            elif kind == "name":
                factors.append(self.parse_symbol())
            elif (kind, val) == ("op", "("):
                raise ExpressionError(
                    "parenthesized subexpressions are outside the grammar; "
                    "distribute them into +/- terms")
            else:
                raise ExpressionError(f"unexpected token in {self.text!r}")
            if self.peek() == ("op", "*"):
                self.take()
                continue
            break
        if len(factors) > 2:
            raise ExpressionError("products are limited to two factors")
        return coef, factors

    def parse_symbol(self):
        kind, name = self.take()
        if name == "x":
            power = 1
            if self.peek() == ("op", "^"):
                self.take()
                k2, v2 = self.take()
                if k2 != "num" or v2 != int(v2) or v2 < 0:
                    raise ExpressionError("x^m needs a nonnegative integer m")
                power = int(v2)
            return _Factor("poly", coeffs=[0.0] * power + [1.0])
        if name in ("exp", "sin", "cos", "log"):
            self.expect_op("(")
            a, b = self.parse_affine()
            self.expect_op(")")
            if name == "log" and a == 0.0:
                raise ValueError("log argument must depend on x")
            if name == "cos":
                return _Factor("sin", a, b, quarter=1)
            return _Factor(name, a, b)
        raise ExpressionError(f"unknown symbol {name!r}")

    # affine := degree <= 1 polynomial in x
    def parse_affine(self):
        a = b = 0.0
        sign = 1.0
        expect_term = True
        while True:
            kind, val = self.peek()
            if (kind, val) == ("op", ")") and not expect_term:
                return a, b
            if kind == "op" and val in "+-":
                self.take()
                if val == "-":
                    sign = -sign
                expect_term = True
                continue
            coef = 1.0
            kind, val = self.peek()
            if kind == "num":
                self.take()
                coef = val
                if self.peek() == ("op", "*"):
                    self.take()
                    kind, val = self.peek()
                else:
                    b += sign * coef
                    sign, expect_term = 1.0, False
                    continue
            if kind == "name" and val == "x":
                self.take()
                a += sign * coef
                sign, expect_term = 1.0, False
                continue
            raise ExpressionError(
                f"argument of exp/sin/cos/log must be affine in x: {self.text!r}")


def parse_function(text: str) -> SmoothFunction:
    """Parse a primitive-grammar expression into a SmoothFunction."""
    parser = _Parser(text)
    parsed = parser.parse_expr()
    if parser.peek()[0] != "end":
        raise ExpressionError(f"trailing input in {text!r}")

    # constants and lone monomials collect into one polynomial term, first
    poly = np.zeros(1)
    terms = []
    for coef, factors in parsed:
        if not factors:
            poly[0] += coef
        elif len(factors) == 1 and factors[0].kind == "poly":
            power = factors[0].top
            if len(poly) <= power:
                poly = np.concatenate([poly, np.zeros(power + 1 - len(poly))])
            poly[power] += coef
        else:
            u, v = factors if len(factors) == 2 else (factors[0], None)
            terms.append((coef, u, v))
    if np.any(poly) or not terms:
        terms.insert(0, (1.0, _Factor("poly", coeffs=poly), None))
    return SmoothFunction(terms, label=text, expr=text)


def load_function_tuple(doc) -> FunctionTuple:
    """Function tuple from a JSON document, path, or already-parsed dict.

    Schema: {"functions": [{"poly": [c0, c1, ...]} | {"expr": "<grammar>"}]}
    """
    if isinstance(doc, str):
        with open(doc, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict) or "functions" not in doc:
        raise ExpressionError('expected {"functions": [...]}')
    entries = []
    for item in doc["functions"]:
        if "poly" in item:
            entries.append(polynomial(item["poly"]))
        elif "expr" in item:
            entries.append(parse_function(item["expr"]))
        else:
            raise ExpressionError(f"function entry needs 'poly' or 'expr': {item}")
    return FunctionTuple(entries)
