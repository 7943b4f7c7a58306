"""The per-order row evaluator that the one-pass derivative stacks replaced.

``ReferenceTable`` is the former ``calculus.DerivativeTable``: it compiled
each order's Leibniz summands on their own (``summands(k)``), planned the
bases of every set of orders it was asked for, and wrote one order's rows at
a time, one gather-multiply per summand slot.  ``reference_rows`` and
``reference_powers`` are the former ``bounds._Grid.rows`` and
``_Grid.powers``: on a discrete member each order's forward difference was
summed on its own (``difference_of_rows``) and each order's rising product
was formed afresh (``rising_q``).  The primitives (``SmoothFunction._leibniz``
and ``calculus._operands``) are shared with the library.
"""

import numpy as np

from varbounds.calculus import _ONE, SmoothFunction, _operands

_PAD = (-0.0, 0, 0)


class ReferenceTable:
    """The former derivative table: slots and bases compiled per order."""

    def __init__(self, functions):
        self.functions = list(functions)
        self._index = {_ONE: 0}  # base key -> base number, in that order
        self._orders = []  # order k -> [(u, v or None, scale or None)]
        self._plans = {}  # orders -> how to evaluate their bases

    def summands(self, k):
        """The slots (u, v, scale) of order k, compiled when first asked
        for: u and v are base numbers of shape (p,), scale is (p, 1)."""
        while len(self._orders) <= k:
            self._orders.append(self._compile(len(self._orders)))
        return self._orders[k]

    def _compile(self, k):
        # a key first met takes the next number: u's before v's
        index = self._index
        number = index.setdefault
        rows = []
        for i, f in enumerate(self.functions):
            if isinstance(f, SmoothFunction):
                terms = f._leibniz(k)
            elif k == 0:
                terms = [(1.0, ("call", i), _ONE)]
            else:
                raise TypeError("continuous test functions need exact "
                                "derivatives; got a bare callable")
            rows.append([(s, number(u, len(index)), number(v, len(index)))
                         for s, u, v in terms] or [(0.0, 0, 0)])
        slots = []
        for s in range(max(map(len, rows))):
            scale, u, v = zip(*[row[s] if s < len(row) else _PAD
                                for row in rows])
            slots.append((np.array(u, dtype=np.intp),
                          np.array(v, dtype=np.intp) if any(v) else None,
                          None if scale.count(1.0) == len(scale)
                          else np.array(scale)[:, None]))
        return slots

    def _plan(self, orders):
        """(pos, number of bases, steps) for the bases of ``orders``: base b
        goes to row pos[b], and each step evaluates one kind into a block
        of rows."""
        key = tuple(orders)
        if key not in self._plans:
            used = set()
            for k in key:
                for u, v, _ in self.summands(k):
                    used.update(u.tolist())
                    if v is not None:
                        used.update(v.tolist())
            keys = list(self._index)
            groups = {}
            for b in sorted(used):
                groups.setdefault(keys[b][0], []).append(b)
            pos = np.zeros(len(keys), dtype=np.intp)
            steps, start = [], 0
            for kind, members in groups.items():
                stop = start + len(members)
                pos[members] = range(start, stop)
                steps.append((kind, slice(start, stop), _operands(
                    kind, [keys[b] for b in members])))
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
            # every index is in range, and "clip" spares the copy through
            # a buffer that the default "raise" makes when out is given
            term = values[pos[u]] if s else np.take(
                values, pos[u], axis=0, out=out, mode="clip")
            if v is not None:
                term *= values[pos[v]]
            if scale is not None:
                term *= scale
            if s:
                out += term
            else:
                out = term
        return out


def _pascal_row(k):
    row = [1]
    for _ in range(k):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


def difference_of_rows(rows, k):
    out = np.zeros(np.shape(rows[0]))
    for i, binom in enumerate(_pascal_row(k)):
        sign = -1.0 if (k - i) % 2 else 1.0
        out = out + sign * binom * rows[i]
    return out


def rising_q(q, k, x):
    x = np.asarray(x, dtype=float)
    out = np.ones(x.shape)
    for i in range(k):
        out = out * q(x + i)
    return out


def reference_rows(grid, g):
    """The (top + 1, p, N) rows d^k g_i of ``grid``, order by order."""
    table, top, x = ReferenceTable(g.entries), grid.top, grid.x
    stack = np.empty((top + 1, len(g), x.size))
    if grid.spec.is_discrete:
        shifts = np.concatenate([x + j if j else x for j in range(top + 1)])
        rows = table.rows(table.bases(shifts, (0,)), 0)
        evaluated = np.ascontiguousarray(
            rows.reshape(len(rows), top + 1, x.size).swapaxes(0, 1))
        for k in range(top + 1):
            stack[k] = evaluated[0] if k == 0 else difference_of_rows(
                evaluated[:k + 1], k)
    else:
        evaluated = table.bases(x, range(top + 1))
        for k in range(top + 1):
            table.rows(evaluated, k, stack[k])
    return stack


def reference_powers(grid):
    """The (top + 1, N) weights q^k (q^[k]) of ``grid``, order by order."""
    spec, top, x = grid.spec, grid.top, grid.x
    stack = np.empty((top + 1, x.size))
    if not spec.is_discrete:
        qx = spec.q(x)
    with np.errstate(over="ignore"):
        for k in range(top + 1):
            stack[k] = (1.0 if k == 0 else rising_q(spec.q, k, x)
                        if spec.is_discrete else qx ** k)
    return stack
