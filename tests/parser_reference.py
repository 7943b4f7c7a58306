"""The expression front end and slot compiler that the one-scan parser
replaced, kept verbatim as the oracle of ``test_parser_reference.py``.

``parse_function`` below is the token loop (``_tokenize``), the
method-per-token ``_Parser`` and the numpy polynomial collection; its
``_Factor`` stores every polynomial derivative vector when it is built.
``compile_slots`` is ``DerivativeTable._compile`` as it built each order's
slots from one nested-tuple array, over this module's ``_leibniz`` and
``_primitive``.  The new front end must give the same terms (order,
coefficients and every factor field, bit for bit), the same errors and the
same slots.
"""

import math
import re

import numpy as np

from varbounds.calculus import ExpressionError, SmoothFunction


class _Factor:
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


def _leibniz(terms, k):
    out = []
    for c, u, v in terms:
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


def compile_slots(functions, k, index=None):
    """The slots (u, v, scale) of order k of the reference-parsed
    ``functions`` and the base keys in order of number.  ``index`` carries
    the base numbers of lower orders, as a table compiles its orders in
    turn."""
    index = {_ONE: 0} if index is None else index

    def base(key):
        if key not in index:
            index[key] = len(index)
        return index[key]

    rows = []
    for f in functions:
        terms = _leibniz(f._terms, k)
        rows.append([(s, base(u), base(v))
                     for s, u, v in terms] or [(0.0, 0, 0)])
    pad = (-0.0, 0, 0)
    table = np.array([[row[s] if s < len(row) else pad for row in rows]
                      for s in range(max(map(len, rows)))])
    slots = []
    for scale, u, v in zip(table[..., 0], table[..., 1].astype(np.intp),
                           table[..., 2].astype(np.intp)):
        slots.append((u, v if v.any() else None,
                      scale[:, None] if np.any(scale != 1.0) else None))
    return slots, list(index)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>\^|\*|\+|-|\(|\)))")


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
