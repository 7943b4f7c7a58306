"""Test-function machinery: exact closed-form derivatives for a small
primitive grammar, forward differences for integer-domain functions, and the
rising quadratic product.

Continuous test functions are sums of terms c*u(x)*v(x) whose factors are
primitives with a closed-form derivative of every order (polynomials, and
exp/sin/cos/log of an affine argument).  The k-th derivative is the binomial
Leibniz sum over those closed forms.  A grammar string becomes its terms in
one regular-expression scan and one pass over the tokens, in plain floats; a
polynomial factor keeps its coefficients, and its derivative vectors are
made only for the orders a table compiles.  A tuple of functions compiles,
for the set of orders a grid reads, into one slot-major summand table of
its ``DerivativeTable``: the distinct bases (exp, sin and cos of each
distinct affine argument, log powers, polynomial derivative coefficients)
and, slot by slot, the s-th Leibniz summand (scale, base, base) of every
(order, function) row.  On a set of points the bases are evaluated once,
grouped by kind, and the rows of every order are one pass over the slots:
per slot a gather-multiply of the bases added into the whole stack.  No
numeric differentiation happens on the main path; squared high-order
derivatives would otherwise contaminate eigenvalue margins near equality
cases.  Discrete test functions can be arbitrary evaluators, since forward
differences need only point values; the forward differences and the rising
products of every order are each made in one pass, each order of a rising
product from the one before.
"""

from __future__ import annotations

import array
import functools
import json
import math
import re
from typing import Callable, Sequence, Union

import numpy as np

MAX_DIFFERENCE_ORDER = 20
# ``DerivativeTable.rows`` sums a stack's rows in blocks of at most this size
# (or of one row): below the 128 KiB from which the C allocator may map a
# block afresh, so that its scratch is not faulted in again on every call
ROW_BLOCK_BYTES = 120 << 10


# ---------------------------------------------------------------------------
# closed-form primitives and derivative tables
# ---------------------------------------------------------------------------

class _Factor:
    """One primitive with a closed-form derivative of every order: a
    polynomial, exp(ax+b), sin(ax+b + quarter*pi/2) (cos is quarter 1) or
    log(ax+b).  ``top`` is the highest order whose derivative is not
    identically zero (the degree of a polynomial, infinite otherwise).  A
    polynomial keeps its coefficients, a list of floats with trailing zeros
    trimmed, as ``derivs[0]``; ``derivs[j]`` is made when ``coefficients(j)``
    first asks for it, so a factor of high degree costs only the orders a
    table compiles."""

    def __init__(self, kind, a=1.0, b=0.0, quarter=0, coeffs=None):
        # a numpy rate lets a^j overflow to inf, as the array values do,
        # where a Python float power would raise
        self.kind, self.a, self.b = kind, np.float64(a), float(b)
        self.quarter = quarter
        self.top = math.inf
        if kind == "poly":
            top = len(coeffs) - 1
            while top >= 0 and not coeffs[top]:
                top -= 1
            self.derivs = [coeffs[:top + 1] or [0.0]]
            self.top = max(top, 0)

    def coefficients(self, j):
        """The coefficients of the j-th derivative of a polynomial."""
        derivs = self.derivs
        while len(derivs) <= j:
            # numpy.polynomial.polynomial.polyder: j * c[j], in floats
            c = derivs[-1]
            derivs.append([c[m] * m for m in range(1, len(c))])
        return derivs[j]


_ONE = ("one",)  # the base of the constant 1
_PAD = (-0.0, 0, 0)  # the summand -0.0 * (1 * 1) that pads a short row


def _primitive(f: _Factor, j: int):
    """The j-th derivative of the primitive f (j <= f.top) as a scale and
    the key of the base it multiplies: ("poly", coefficient bytes),
    ("exp" | "sin" | "cos", a, b) or ("log", a, b, j)."""
    if f.kind == "poly":
        return 1.0, ("poly", array.array("d", f.coefficients(j)).tobytes())
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
        row = table.rows(table.bases(x.reshape(-1), (k,)))[0, 0]
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
        return {"poly": list(self._terms[0][1].derivs[0])}

    def __repr__(self):
        return f"SmoothFunction({self.label})"


class DerivativeTable:
    """The rows d^k g_i of a tuple of functions, compiled into tables and
    evaluated on any points.

    ``summands(orders)`` compiles the rows of a set of orders (every order
    0..top of a grid, or the one order ``derivative_value`` asks for), once,
    into one slot-major summand table (``_Summands``): the distinct bases
    those rows need (the constant 1, exp, sin and cos of each distinct
    affine argument, the powers (ax+b)^(-j) and log(ax+b) of a log, and
    each distinct polynomial derivative coefficient vector), placed in
    groups of one kind, and the Leibniz summands of every (order, function)
    row, slot by slot: slot s holds, for the rows it spans, a scale and the
    bases u and v of each row's s-th summand scale * (u * v), and a row is
    the in-order sum over the slots.  A slot spans the rows from the first
    to the last that have an s-th summand; a row inside the span with fewer
    summands is padded with -0.0 * (1 * 1), and a row outside it skips the
    slot, and either leaves the sum bit for bit as it was.  A row with no
    summand is +0.0.  So every row is, to the last bit, the Leibniz sum of
    its terms taken one at a time, whatever other orders share its table.
    A slot stores v as None where it is 1 in every row it spans, and the
    scale as None where it is 1.0 in every row: those products change no
    bit.

    A bare callable entry (a discrete member's evaluator) has the row f(x)
    at order 0 and no derivatives.
    """

    def __init__(self, functions):
        self.functions = list(functions)
        self._tables = {}  # orders -> their compiled _Summands

    def summands(self, orders):
        """The ``_Summands`` of the rows of ``orders``, compiled when first
        asked for.  A scale past the largest float is inf, as the rows'
        values are, so the compile warns of no overflow."""
        orders = tuple(orders)
        table = self._tables.get(orders)
        if table is None:
            with np.errstate(over="ignore", invalid="ignore"):
                table = self._tables[orders] = _Summands(self.functions,
                                                         orders)
        return table

    def bases(self, x, orders):
        """Every base the rows of ``orders`` use, at the points x (1-d), as
        (values, summands): base b is row b of values.  Bases of one kind
        are evaluated together: one exp, sin and cos call over the stacked
        affine arguments and one Horner pass over the zero-padded
        coefficient matrix; log powers and callables one at a time."""
        table = self.summands(orders)
        values = np.empty((len(table.keys), x.size))
        for kind, rows, operands in table.steps:
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
        return values, table

    def rows(self, bases):
        """The (orders, p, N) stack of the rows of the orders ``bases`` was
        evaluated for, in one pass over the summand slots: per slot one
        gather of u, one of v multiplied in, one multiply by the scale, and
        the sum into the rows the slot spans.  The rows go a block of at
        most ``ROW_BLOCK_BYTES`` (or one row) at a time, so the two scratch
        blocks that hold a summand and its v stay small beside the stack."""
        values, table = bases
        width = values.shape[1]
        out = np.empty((len(table.orders) * len(self.functions), width))
        step = max(1, min(len(out), ROW_BLOCK_BYTES // (8 * width or 1)))
        spare, factor = np.empty((step, width)), np.empty((step, width))
        for start in range(0, len(out), step):
            stop = min(start + step, len(out))
            for s, (lo, u, v, scale) in enumerate(table.slots):
                # the rows of this block that the slot reaches
                a, b = max(start, lo), min(stop, lo + len(u))
                if a >= b:
                    continue
                part, acc = slice(a - lo, b - lo), out[a:b]
                term = spare[:b - a] if s else acc
                # every index is in range, and "clip" spares the copy
                # through a buffer that the default "raise" makes
                np.take(values, u[part], axis=0, out=term, mode="clip")
                if v is not None:
                    np.take(values, v[part], axis=0, out=factor[:b - a],
                            mode="clip")
                    term *= factor[:b - a]
                if scale is not None:
                    term *= scale[part]
                if s:
                    acc += term
        return out.reshape(len(table.orders), len(self.functions), width)


class _Summands:
    """The compiled rows of a set of ``orders`` of a derivative table:
    ``keys``, the base keys in the order of the values' rows, grouped by
    kind; ``steps``, (kind, rows, operands) for evaluating each group; and
    ``slots``, the slot-major summands (lo, u, v or None, scale or None) of
    the len(orders) * p rows of the stack, order-major: the slot spans rows
    lo..lo + len(u) - 1, u and v are the bases' rows in the values, and
    scale is a column."""

    def __init__(self, functions, orders):
        self.orders = orders
        # a key first met takes the next number: u's before v's
        index = {_ONE: 0}
        number = index.setdefault
        rows = []
        for k in orders:
            for i, f in enumerate(functions):
                if isinstance(f, SmoothFunction):
                    terms = f._leibniz(k)
                elif k == 0:
                    terms = [(1.0, ("call", i), _ONE)]
                else:
                    raise TypeError("continuous test functions need exact "
                                    "derivatives; got a bare callable")
                rows.append([(s, number(u, len(index)), number(v, len(index)))
                             for s, u, v in terms] or [(0.0, 0, 0)])
        slots, used = [], set()
        for s in range(max(map(len, rows))):
            # the slot spans the rows from the first to the last that have
            # an s-th summand; the rest would only add the -0.0 of a pad
            live = [i for i, row in enumerate(rows) if len(row) > s]
            lo = live[0]
            scale, u, v = zip(*[row[s] if s < len(row) else _PAD
                                for row in rows[lo:live[-1] + 1]])
            used.update(u)
            if any(v):
                used.update(v)
            slots.append((lo, u, v if any(v) else None,
                          None if scale.count(1.0) == len(scale) else scale))
        # the used bases in groups of one kind: base b is row pos[b]
        keys, groups = list(index), {}
        for b in sorted(used):
            groups.setdefault(keys[b][0], []).append(b)
        pos = [0] * len(keys)
        self.keys, self.steps = [], []
        for kind, members in groups.items():
            start = len(self.keys)
            for row, b in enumerate(members, start):
                pos[b] = row
            self.keys += [keys[b] for b in members]
            self.steps.append((kind, slice(start, len(self.keys)),
                               _operands(kind, self.keys[start:])))

        def rows_of(bases):
            return np.fromiter(map(pos.__getitem__, bases), np.intp,
                               len(bases))

        self.slots = [(lo, rows_of(u), None if v is None else rows_of(v),
                       None if scale is None
                       else np.fromiter(scale, float, len(scale))[:, None])
                      for lo, u, v, scale in slots]


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
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float)).tolist()
    poly = _Factor("poly", coeffs=coeffs)
    if label is None:
        label = f"poly({poly.derivs[0]})"
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

def forward_difference(f: Evaluator, k: int, j):
    """k-th forward difference sum_{i=0..k} (-1)^(k-i) C(k,i) f(j+i).

    ``j`` may be a scalar or integer array; ``f`` any evaluator accepting
    the shifted arguments.
    """
    if k < 0:
        raise ValueError("difference order must be nonnegative")
    j = np.asarray(j, dtype=float)
    out = forward_differences(
        [np.asarray(f(j + i), dtype=float) for i in range(k + 1)])[k]
    return out if out.shape else float(out)


def forward_differences(rows) -> np.ndarray:
    """The forward differences of every order k = 0..top from the rows
    f(j), f(j+1), ..., f(j+top), as one (top + 1,) + f(j).shape stack, in
    one pass over the shifts i: rows[i] times (-1)^(k-i) C(k,i) is added to
    every order k >= i at once.  Order k >= 1 is so summed from +0.0 in
    order of i, and order 0 is rows[0] itself, so a -0.0 keeps its sign."""
    top = len(rows) - 1
    if top > MAX_DIFFERENCE_ORDER:
        raise ValueError(f"difference order {top} exceeds hard ceiling "
                         f"{MAX_DIFFERENCE_ORDER}")
    first = np.asarray(rows[0], dtype=float)
    out = np.zeros((top + 1,) + first.shape)
    out[0] = first
    term = np.empty((top,) + first.shape)
    shape = (-1,) + (1,) * first.ndim
    for i in range(top + 1):
        lo = max(i, 1)
        signed = np.array([-math.comb(k, i) if (k - i) % 2 else
                           math.comb(k, i) for k in range(lo, top + 1)],
                          dtype=float)
        part = term[:top + 1 - lo]
        np.multiply(signed.reshape(shape), rows[i], out=part)
        out[lo:] += part
    return out


def rising_q(q, k: int, x):
    """Rising product q(x) q(x+1) ... q(x+k-1); empty product (k=0) is 1."""
    if k < 0:
        raise ValueError("order must be nonnegative")
    out = rising_products(q, k, x)[k]
    return out if out.shape else float(out)


def rising_products(q, top: int, x) -> np.ndarray:
    """The rising products q^[k](x) of every order k = 0..top, as one
    (top + 1,) + x.shape stack: q^[0] = 1 and each next one the one before
    times q(x + k - 1), the left-to-right product that ``rising_q`` names."""
    x = np.asarray(x, dtype=float)
    out = np.empty((top + 1,) + x.shape)
    out[0] = 1.0
    for k in range(1, top + 1):
        # out[k, ...] stays a view where x is a scalar
        np.multiply(out[k - 1], q(x + (k - 1)), out=out[k, ...])
    return out


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
#
# One regular-expression scan splits the text into tokens, with whitespace
# allowed between and around them: a number becomes its float, a name or an
# operator stays a string, and a character that starts no token becomes "".
# One pass over the tokens then builds the terms.

_TOKEN_RE = re.compile(
    r"\s*(?:(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|([A-Za-z_]\w*|[\^*+\-()])|\S)")
_OPS = frozenset("^*+-()")


class ExpressionError(ValueError):
    """Malformed function expression."""


def _tokens(text: str):
    """The tokens of ``text``, then None for its end."""
    tokens = [float(num) if num else word
              for num, word in _TOKEN_RE.findall(text)]
    if "" in tokens:
        # each match starts where the previous token ended, so the message
        # keeps the whitespace before the bad character
        bad = next(m for m in _TOKEN_RE.finditer(text) if m.lastindex is None)
        raise ExpressionError(f"bad character at {text[bad.start():]!r}")
    tokens.append(None)
    return tokens


def _factor(text, tokens, i):
    """The factor whose name is tokens[i] and the index after it: a power
    of x as its exponent, any other primitive as a ``_Factor``."""
    name = tokens[i]
    i += 1
    if name == "x":
        if tokens[i] != "^":
            return 1, i
        m = tokens[i + 1]
        if m.__class__ is not float or m != int(m) or m < 0:
            raise ExpressionError("x^m needs a nonnegative integer m")
        return int(m), i + 2
    if name in ("exp", "sin", "cos", "log"):
        if tokens[i] != "(":
            raise ExpressionError(f"expected '(' in {text!r}")
        a, b, i = _affine(text, tokens, i + 1)
        if name == "log" and a == 0.0:
            raise ValueError("log argument must depend on x")
        if name == "cos":
            return _Factor("sin", a, b, quarter=1), i + 1
        return _Factor(name, a, b), i + 1
    raise ExpressionError(f"unknown symbol {name!r}")


def _affine(text, tokens, i):
    """(a, b, index of the closing ")") of the affine argument a*x + b
    that starts at tokens[i].  A term ends at a sign or the closing ")",
    so two terms side by side are an error, not a sum."""
    a = b = 0.0
    sign = 1.0
    expect_term = True
    while True:
        tok = tokens[i]
        if tok == ")" and not expect_term:
            return a, b, i
        if tok == "+" or tok == "-":
            i += 1
            if tok == "-":
                sign = -sign
            expect_term = True
            continue
        coef = 1.0
        if tok.__class__ is float and expect_term:
            coef = tok
            i += 1
            if tokens[i] != "*":
                b += sign * coef
                sign, expect_term = 1.0, False
                continue
            i += 1
            tok = tokens[i]
        if tok == "x" and expect_term:
            i += 1
            a += sign * coef
            sign, expect_term = 1.0, False
            continue
        raise ExpressionError(
            f"argument of exp/sin/cos/log must be affine in x: {text!r}")


def parse_function(text: str) -> SmoothFunction:
    """Parse a primitive-grammar expression into a SmoothFunction.

    Constants and lone powers of x collect into one polynomial term, which
    comes first; every other term keeps its place."""
    tokens = _tokens(text)
    poly, terms = [0.0], []
    i, negate = 0, False
    while True:
        # term := factor { "*" factor }, after a run of signs
        coef, factors = 1.0, []
        tok = tokens[i]
        while tok == "-" or tok == "+":
            if tok == "-":
                coef = -coef
            i += 1
            tok = tokens[i]
        while True:
            if tok.__class__ is float:
                coef *= tok
                i += 1
            elif tok == "(":
                raise ExpressionError(
                    "parenthesized subexpressions are outside the grammar; "
                    "distribute them into +/- terms")
            elif tok is None or tok in _OPS:
                raise ExpressionError(f"unexpected token in {text!r}")
            else:
                factor, i = _factor(text, tokens, i)
                factors.append(factor)
            tok = tokens[i]
            if tok != "*":
                break
            i += 1
            tok = tokens[i]
        if len(factors) > 2:
            raise ExpressionError("products are limited to two factors")
        if negate:
            coef = -coef
        if not factors:
            poly[0] += coef
        elif len(factors) == 1 and factors[0].__class__ is int:
            power = factors[0]
            if len(poly) <= power:
                poly += [0.0] * (power + 1 - len(poly))
            poly[power] += coef
        else:
            factors = [_Factor("poly", coeffs=[0.0] * f + [1.0])
                       if f.__class__ is int else f for f in factors]
            terms.append((coef, factors[0],
                          factors[1] if len(factors) == 2 else None))
        if tok != "+" and tok != "-":
            break
        negate = tok == "-"
        i += 1
    if tok is not None:
        raise ExpressionError(f"trailing input in {text!r}")
    if any(poly) or not terms:
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
