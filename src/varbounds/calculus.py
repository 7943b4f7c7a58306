"""Test-function machinery: exact symbolic derivatives for a small primitive
grammar, forward differences for integer-domain functions, and the rising
quadratic product.

Continuous test functions are restricted to representations whose derivatives
are available in closed form (polynomials and compositions of exp/sin/cos/log
primitives).  No numeric differentiation happens on the main path; squared
high-order derivatives would otherwise contaminate eigenvalue margins near
equality cases.  Discrete test functions can be arbitrary evaluators, since
forward differences need only point values.
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
# expression nodes
# ---------------------------------------------------------------------------

class _Node:
    """One node of a closed-form expression tree."""

    def value(self, x):
        raise NotImplementedError

    def deriv(self) -> "_Node":
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError


class _Poly(_Node):
    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        nz = np.nonzero(c)[0]
        self.coeffs = c[: nz[-1] + 1] if nz.size else np.zeros(1)

    def value(self, x):
        return npoly.polyval(x, self.coeffs)

    def deriv(self):
        return _Poly(npoly.polyder(self.coeffs))

    def to_json(self):
        return {"poly": self.coeffs.tolist()}

    def __repr__(self):
        return f"poly({self.coeffs.tolist()})"


class _Exp(_Node):
    def __init__(self, a, b=0.0):
        self.a, self.b = float(a), float(b)

    def value(self, x):
        return np.exp(self.a * np.asarray(x, dtype=float) + self.b)

    def deriv(self):
        return _Scaled(self.a, _Exp(self.a, self.b))

    def __repr__(self):
        return f"exp({_affine_str(self.a, self.b)})"


class _Sin(_Node):
    # phase lets sin/cos share one derivative recurrence
    def __init__(self, a, b=0.0, phase=0.0):
        self.a, self.b, self.phase = float(a), float(b), float(phase)

    def value(self, x):
        arg = self.a * np.asarray(x, dtype=float) + self.b + self.phase
        return np.sin(arg)

    def deriv(self):
        return _Scaled(self.a, _Sin(self.a, self.b, self.phase + 0.5 * math.pi))

    def __repr__(self):
        k = round(self.phase / (0.5 * math.pi)) % 4
        name = ["sin", "cos", "-sin", "-cos"][k]
        return f"{name}({_affine_str(self.a, self.b)})"


class _Log(_Node):
    def __init__(self, a, b):
        if a == 0.0:
            raise ValueError("log argument must depend on x")
        self.a, self.b = float(a), float(b)

    def value(self, x):
        return np.log(self.a * np.asarray(x, dtype=float) + self.b)

    def deriv(self):
        # d/dx log(ax+b) = a / (ax+b)
        return _Scaled(self.a, _Reciprocal(self.a, self.b, 1))

    def __repr__(self):
        return f"log({_affine_str(self.a, self.b)})"


class _Reciprocal(_Node):
    # (ax+b)^(-m), m >= 1; closes the derivative chain of _Log
    def __init__(self, a, b, m):
        self.a, self.b, self.m = float(a), float(b), int(m)

    def value(self, x):
        return (self.a * np.asarray(x, dtype=float) + self.b) ** (-self.m)

    def deriv(self):
        return _Scaled(-self.m * self.a, _Reciprocal(self.a, self.b, self.m + 1))

    def __repr__(self):
        return f"({_affine_str(self.a, self.b)})^(-{self.m})"


class _Scaled(_Node):
    def __init__(self, c, node):
        self.c, self.node = float(c), node

    def value(self, x):
        return self.c * self.node.value(x)

    def deriv(self):
        return _Scaled(self.c, self.node.deriv())

    def __repr__(self):
        return f"{self.c!r}*{self.node!r}"


class _Sum(_Node):
    def __init__(self, terms):
        self.terms = list(terms)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for t in self.terms:
            out = out + t.value(x)
        return out

    def deriv(self):
        return _Sum([t.deriv() for t in self.terms])

    def __repr__(self):
        return " + ".join(repr(t) for t in self.terms)


class _Product(_Node):
    # at most two non-constant factors; Leibniz keeps the closure
    def __init__(self, left, right):
        self.left, self.right = left, right

    def value(self, x):
        return self.left.value(x) * self.right.value(x)

    def deriv(self):
        return _Sum([
            _Product(self.left.deriv(), self.right),
            _Product(self.left, self.right.deriv()),
        ])

    def __repr__(self):
        return f"({self.left!r})*({self.right!r})"


def _affine_str(a, b):
    if b == 0.0:
        return "x" if a == 1.0 else f"{a!r}*x"
    return f"{a!r}*x{'+' if b >= 0 else '-'}{abs(b)!r}"


# ---------------------------------------------------------------------------
# public function objects
# ---------------------------------------------------------------------------

class SmoothFunction:
    """A real function with exact derivatives of every order.

    Wraps an expression tree over the primitive set {polynomial, exp(a*x),
    sin(a*x), cos(a*x), log(a*x+b), affine combinations, products of at most
    two factors}.  Derivative trees are built once per order on first use and
    cached; evaluation is vectorized over numpy arrays.
    """

    def __init__(self, node: _Node, label: str | None = None,
                 max_order: int | None = None):
        self._derivs = [node]
        self.label = label if label is not None else repr(node)
        self.max_order = max_order
        self._expr = None  # grammar text, kept by parse_function

    def __call__(self, x):
        return self._derivs[0].value(x)

    def derivative_value(self, k: int, x):
        """Value of the exact k-th derivative at x (scalar or array)."""
        if k < 0:
            raise ValueError("derivative order must be nonnegative")
        if self.max_order is not None and k > self.max_order:
            raise ValueError(
                f"order {k} exceeds declared max order {self.max_order}")
        while len(self._derivs) <= k:
            self._derivs.append(self._derivs[-1].deriv())
        return self._derivs[k].value(x)

    def to_json(self):
        if self._expr is not None:
            return {"expr": self._expr}
        return self._derivs[0].to_json()

    def __repr__(self):
        return f"SmoothFunction({self.label})"


def polynomial(coeffs: Sequence[float], label: str | None = None) -> SmoothFunction:
    """Polynomial from ascending coefficients [c0, c1, ...]."""
    return SmoothFunction(_Poly(coeffs), label=label)


def derivative_value(f: SmoothFunction, k: int, x):
    return f.derivative_value(k, x)


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
    row = _pascal_row(k)
    j = np.asarray(j, dtype=float)
    out = np.zeros(j.shape)
    for i, binom in enumerate(row):
        sign = -1.0 if (k - i) % 2 else 1.0
        out = out + sign * binom * np.asarray(f(j + i), dtype=float)
    return out if out.shape else float(out)


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

    # term := factor { * factor }; returns (coefficient, node or None)
    def parse_term(self):
        sign = 1.0
        while self.peek() == ("op", "-") or self.peek() == ("op", "+"):
            _, op = self.take()
            if op == "-":
                sign = -sign
        coef, nodes = sign, []
        while True:
            kind, val = self.peek()
            if kind == "num":
                self.take()
                coef *= val
            elif kind == "name":
                nodes.append(self.parse_symbol())
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
        if len(nodes) > 2:
            raise ExpressionError("products are limited to two factors")
        if not nodes:
            return coef, None
        node = nodes[0] if len(nodes) == 1 else _combine_product(*nodes)
        return coef, node

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
            return ("monomial", power)
        if name in ("exp", "sin", "cos", "log"):
            self.expect_op("(")
            a, b = self.parse_affine()
            self.expect_op(")")
            if name == "exp":
                return ("node", _Exp(a, b))
            if name == "sin":
                return ("node", _Sin(a, b))
            if name == "cos":
                return ("node", _Sin(a, b, phase=0.5 * math.pi))
            return ("node", _Log(a, b))
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


def _monomial_node(power: int) -> _Poly:
    return _Poly([0.0] * power + [1.0])


def _combine_product(f1, f2):
    n1 = _monomial_node(f1[1]) if f1[0] == "monomial" else f1[1]
    n2 = _monomial_node(f2[1]) if f2[0] == "monomial" else f2[1]
    return ("node", _Product(n1, n2))


def parse_function(text: str, max_order: int | None = None) -> SmoothFunction:
    """Parse a primitive-grammar expression into a SmoothFunction."""
    parser = _Parser(text)
    terms = parser.parse_expr()
    if parser.peek()[0] != "end":
        raise ExpressionError(f"trailing input in {text!r}")

    poly = np.zeros(1)
    others = []
    for coef, item in terms:
        if item is None:
            poly[0] += coef
        elif item[0] == "monomial":
            power = item[1]
            if len(poly) <= power:
                poly = np.concatenate([poly, np.zeros(power + 1 - len(poly))])
            poly[power] += coef
        else:
            node = item[1] if coef == 1.0 else _Scaled(coef, item[1])
            others.append(node)

    nodes = []
    if np.any(poly) or not others:
        nodes.append(_Poly(poly))
    nodes.extend(others)
    node = nodes[0] if len(nodes) == 1 else _Sum(nodes)
    f = SmoothFunction(node, label=text, max_order=max_order)
    f._expr = text
    return f


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
