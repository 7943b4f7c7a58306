"""Test-function machinery: exact closed-form derivatives for a small
primitive grammar, forward differences for integer-domain functions, and the
rising quadratic product.

Continuous test functions are sums of terms c*u(x)*v(x) whose factors are
primitives with a closed-form derivative of every order (polynomials, and
exp/sin/cos/log of an affine argument).  The k-th derivative is the binomial
Leibniz sum over those closed forms.  A tuple of functions compiles once into
a ``DerivativeTable``: its distinct bases (exp, sin and cos of each distinct
affine argument, log powers, polynomial derivative coefficients) and, per
order, each row's summands as (scale, base, base).  On a set of points the
bases of the orders asked for are evaluated once, grouped by kind, and each
order's rows are a gather-multiply of them.  No numeric
differentiation happens on the main path; squared high-order derivatives
would otherwise contaminate eigenvalue margins near equality cases.  Discrete
test functions can be arbitrary evaluators, since forward differences need
only point values.
"""

from __future__ import annotations

import functools
import json
import math
import re
from typing import Callable, Sequence, Union

import numpy as np

MAX_DIFFERENCE_ORDER = 20


# ---------------------------------------------------------------------------
# closed-form primitives and derivative tables
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
                # numpy.polynomial.polynomial.polyder: j * c[j]
                c = self.derivs[-1]
                self.derivs.append(c[1:] * np.arange(1.0, c.size))
            self.top = len(self.derivs) - 1


_ONE = ("one",)  # the base of the constant 1


def _primitive(f: _Factor, j: int):
    """The j-th derivative of the primitive f (j <= f.top) as a scale and
    the key of the base it multiplies: ("poly", coefficient bytes),
    ("exp" | "sin" | "cos", a, b) or ("log", a, b, j)."""
    if f.kind == "poly":
        return 1.0, ("poly", f.derivs[j].tobytes())
    if f.kind == "exp":
        return f.a ** j, ("exp", f.a, f.b)
    if f.kind == "sin":
        # the j-th derivative of sin turns it by j quarter periods
        q = (f.quarter + j) % 4
        return (f.a ** j if q < 2 else -f.a ** j,
                ("sin" if q % 2 == 0 else "cos", f.a, f.b))
    if j == 0:
        return 1.0, ("log", f.a, f.b, 0)
    # d^j log(ax+b) = (-1)^(j-1) (j-1)! a^j (ax+b)^(-j)
    scale = f.a ** j
    for m in range(1, j):
        scale *= -m
    return scale, ("log", f.a, f.b, j)


class SmoothFunction:
    """A real function with exact derivatives of every order.

    A sum of terms c*u(x)*v(x) over the primitives {polynomial, exp, sin,
    cos, log of an affine argument}; a single-factor term has no v.  The k-th
    derivative of a term is the binomial Leibniz sum
    c * sum_i C(k,i) u^(i) v^(k-i) over closed-form primitive derivatives,
    skipping the orders where a polynomial factor vanishes.  Values come
    from the function's one-entry ``DerivativeTable``, vectorized over numpy
    arrays.
    """

    def __init__(self, terms, label: str, expr: str | None = None):
        self._terms = terms  # [(c, u, v or None)]
        self.label = label
        self._expr = expr  # grammar text, kept by parse_function

    def __call__(self, x):
        return self.derivative_value(0, x)

    def derivative_value(self, k: int, x):
        """Value of the exact k-th derivative at x (scalar or array)."""
        if k < 0:
            raise ValueError("derivative order must be nonnegative")
        x = np.asarray(x, dtype=float)
        table = self._table
        row = table.rows(table.bases(x.reshape(-1), (k,)), k)[0]
        return row.reshape(x.shape)[()]

    @functools.cached_property
    def _table(self) -> "DerivativeTable":
        return DerivativeTable([self])

    def _leibniz(self, k):
        """The summands (scale, base key of u^(i), base key of v^(k-i)) of
        d^k, in order; a single-factor term's v is the constant 1."""
        out = []
        for c, u, v in self._terms:
            if v is None:
                if k <= u.top:
                    su, bu = _primitive(u, k)
                    out.append((su * c, bu, _ONE))
                continue
            for i in range(max(0, k - v.top), min(k, u.top) + 1):
                su, bu = _primitive(u, i)
                sv, bv = _primitive(v, k - i)
                out.append((su * c * sv * math.comb(k, i), bu, bv))
        return out

    def to_json(self):
        if self._expr is not None:
            return {"expr": self._expr}
        # polynomial(): one single-factor polynomial term
        return {"poly": self._terms[0][1].derivs[0].tolist()}

    def __repr__(self):
        return f"SmoothFunction({self.label})"


class DerivativeTable:
    """The rows d^k g_i of a tuple of functions, compiled once into tables
    and evaluated on any points.

    The bases are the distinct primitive values the rows need, numbered in
    order of first use: the constant 1 (base 0), exp, sin and cos of each
    distinct affine argument, the powers (ax+b)^(-j) and log(ax+b) of a
    log, and each distinct polynomial derivative coefficient vector.  For
    order k, ``summands(k)`` lists the slots of the Leibniz summands: slot
    s holds, for every row i, a scale and the bases u and v of the
    summand scale * (u * v), and row i of d^k is the in-order sum over the
    slots.  A row with fewer summands is padded with -0.0 * (1 * 1), which
    leaves a sum bit for bit as it was, and a row with none is +0.0; so
    every row is, to the last bit, the Leibniz sum of its terms taken one
    at a time.  A slot stores v as None where it is 1 in every row, and
    the scale as None where it is 1.0 in every row: those products change
    no bit.

    A bare callable entry (a discrete member's evaluator) has the row f(x)
    at order 0 and no derivatives.
    """

    def __init__(self, functions):
        self.functions = list(functions)
        self._index = {_ONE: 0}  # base key -> base number
        self._keys = [_ONE]  # base number -> key
        self._orders = []  # order k -> [(u, v or None, scale or None)]
        self._plans = {}  # orders -> how to evaluate their bases

    def _base(self, key):
        b = self._index.get(key)
        if b is None:
            b = self._index[key] = len(self._keys)
            self._keys.append(key)
        return b

    def summands(self, k):
        """The slots (u, v, scale) of order k, compiled when first asked
        for: u and v are base numbers of shape (p,), scale is (p, 1)."""
        while len(self._orders) <= k:
            self._orders.append(self._compile(len(self._orders)))
        return self._orders[k]

    def _compile(self, k):
        rows = []
        for i, f in enumerate(self.functions):
            if isinstance(f, SmoothFunction):
                terms = f._leibniz(k)
            elif k == 0:
                terms = [(1.0, ("call", i), _ONE)]
            else:
                raise TypeError("continuous test functions need exact "
                                "derivatives; got a bare callable")
            rows.append([(s, self._base(u), self._base(v))
                         for s, u, v in terms] or [(0.0, 0, 0)])
        pad = (-0.0, 0, 0)
        table = np.array([[row[s] if s < len(row) else pad for row in rows]
                          for s in range(max(map(len, rows)))])
        slots = []
        for scale, u, v in zip(table[..., 0], table[..., 1].astype(np.intp),
                               table[..., 2].astype(np.intp)):
            slots.append((u, v if v.any() else None,
                          scale[:, None] if np.any(scale != 1.0) else None))
        return slots

    def _plan(self, orders):
        """(pos, number of bases, steps) for the bases of ``orders``: base b
        goes to row pos[b], and each step evaluates one kind into a block
        of rows."""
        key = tuple(orders)
        if key not in self._plans:
            used = np.unique(np.concatenate(
                [a for k in key for slot in self.summands(k)
                 for a in slot[:2] if a is not None]))
            groups = {}
            for b in used.tolist():
                groups.setdefault(self._keys[b][0], []).append(b)
            pos = np.zeros(len(self._keys), dtype=np.intp)
            steps, start = [], 0
            for kind, members in groups.items():
                stop = start + len(members)
                pos[members] = range(start, stop)
                steps.append((kind, slice(start, stop), _operands(
                    kind, [self._keys[b] for b in members])))
                start = stop
            self._plans[key] = (pos, start, steps)
        return self._plans[key]

    def bases(self, x, orders):
        """Every base the rows of ``orders`` use, at the points x (1-d), as
        (values, pos): base b is row pos[b] of values.  Bases of one kind
        are evaluated together: one exp, sin and cos call over the stacked
        affine arguments and one Horner pass over the zero-padded
        coefficient matrix; log powers and callables one at a time."""
        pos, size, steps = self._plan(orders)
        values = np.empty((size, x.size))
        for kind, rows, operands in steps:
            out = values[rows]
            if kind == "one":
                out[:] = 1.0
            elif kind == "poly":
                # Horner's rule as numpy.polynomial.polynomial.polyval runs
                # it; above a row's degree the sum stays a signed zero, to
                # which the leading coefficient adds exactly, so each row is
                # its own polyval to the last bit; in place, because a new
                # array per step costs more than the step on a wide block
                np.add(operands[:, -1:], x * 0, out=out)
                for j in range(operands.shape[1] - 2, -1, -1):
                    out *= x
                    out += operands[:, j:j + 1]
            elif kind == "log":
                for row, (a, b, j) in zip(out, operands):
                    t = a * x + b
                    row[:] = np.log(t) if j == 0 else t ** -j
            elif kind == "call":
                for row, i in zip(out, operands):
                    row[:] = self.functions[i](x)
            else:  # exp, sin or cos of the stacked affine arguments
                a, b = operands
                getattr(np, kind)(a * x + b, out=out)
        return values, pos

    def rows(self, bases, k, out=None):
        """The (p, N) rows of d^k from ``bases`` (of a set of orders that
        includes k): one gather-multiply per summand slot, summed in
        order; written into ``out`` when it is given."""
        values, pos = bases
        for s, (u, v, scale) in enumerate(self.summands(k)):
            term = values[pos[u]] if s else np.take(values, pos[u], axis=0,
                                                    out=out)
            if v is not None:
                term *= values[pos[v]]
            if scale is not None:
                term *= scale
            if s:
                out += term
            else:
                out = term
        return out


def _operands(kind, keys):
    """What ``DerivativeTable.bases`` needs to evaluate the bases ``keys``
    of one kind: the zero-padded coefficient matrix of polynomials, the
    stacked rates and offsets of exp, sin or cos, (a, b, j) of log powers,
    the entry numbers of callables; nothing for the constant 1."""
    if kind == "poly":
        coeffs = [np.frombuffer(key[1]) for key in keys]
        c = np.zeros((len(coeffs), max(map(len, coeffs))))
        for row, ci in zip(c, coeffs):
            row[:ci.size] = ci
        return c
    if kind in ("exp", "sin", "cos"):
        return (np.array([key[1] for key in keys])[:, None],
                np.array([key[2] for key in keys])[:, None])
    if kind == "log":
        return [key[1:] for key in keys]
    return [key[1] for key in keys] if kind == "call" else None


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

    @functools.cached_property
    def table(self) -> DerivativeTable:
        """The tuple's derivative table, compiled when first asked for."""
        return DerivativeTable(self.entries)

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
