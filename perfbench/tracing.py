"""In-memory spans around the calls from one varbounds layer into the next.

The library carries no tracing of its own, so a traced run replaces, for the
duration of one request, the attributes through which a layer is reached and
restores them afterwards.  Several modules bind a function by name at import
(``bounds`` imports ``is_psd``, ``loewner_leq``, ``spectral_radius``,
``forward_difference``, ``rising_q`` and ``moment_finiteness``; ``cli``
imports ``forward_difference``, ``rising_q`` and ``load_function_tuple``), so
each name is wrapped in the module where it is looked up.

A span is a list ``[layer, parent_index, start_ns, end_ns, points, width]``;
the spans of one request share one list, and ``parent_index`` is -1 for a
span opened directly by the benchmark.  ``points`` counts evaluation points
(or, for a bound report, the p (n + 1) derivative rows it needs); ``width``
is the grid width of a block of derivative rows.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

from varbounds import bounds, calculus, cli, expectation


def _last_arg_size(args, result):
    return int(np.size(args[-1]))


def _first_len(args, result):
    return len(result[0])


def _result_size(args, result):
    return int(np.size(result))


def _row_width(args, result):
    return int(result.shape[1])


def _report_rows(args, result):
    # p * (n + 1) derivative rows are needed per grid point: d^0 .. d^n
    return result.p * (result.n + 1)


def _targets():
    """(owner, attribute, layer, points, width) for every wrapped entry
    point; ``points`` and ``width`` read counts off the call and result."""
    return [
        (cli, "main", "cli.main", None, None),
        (cli, "_parse_dist", "cli.parse_dist", None, None),
        (cli, "load_function_tuple", "calculus.parse", None, None),
        (calculus, "load_function_tuple", "calculus.parse", None, None),
        (bounds, "bound_report", "bounds.bound_report", _report_rows, None),
        (bounds, "check_class", "bounds.check_class", None, None),
        (bounds._Grid, "deriv_values", "bounds.deriv_rows", _result_size,
         _row_width),
        (bounds, "moment_finiteness", "distributions.moment_finiteness",
         None, None),
        (expectation, "probe", "expectation.probe", None, None),
        (expectation, "continuous_grid", "expectation.grid", _first_len, None),
        (expectation, "truncated_support", "expectation.grid", _first_len,
         None),
        (expectation, "sample", "expectation.sample", _result_size, None),
        (bounds, "is_psd", "linalg.eigen", None, None),
        (bounds, "loewner_leq", "linalg.eigen", None, None),
        (bounds, "spectral_radius", "linalg.eigen", None, None),
        (bounds.BoundReport, "eigen_rows", "linalg.eigen", None, None),
        (calculus.SmoothFunction, "derivative_value", "calculus.derivative",
         _last_arg_size, None),
        (bounds, "forward_difference", "calculus.forward_difference",
         _last_arg_size, None),
        (cli, "forward_difference", "calculus.forward_difference",
         _last_arg_size, None),
        (bounds, "rising_q", "calculus.rising_q", _last_arg_size, None),
        (cli, "rising_q", "calculus.rising_q", _last_arg_size, None),
    ]


class Tracer:
    """Collects the spans of one request at a time."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, layer, points, width):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, stack[-1] if stack else -1, 0, 0, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter_ns()
                stack.pop()
            if points is not None:
                rec[4] = points(args, result)
            if width is not None:
                rec[5] = width(args, result)
            return result

        return traced

    @contextmanager
    def request(self):
        """Wrap every layer for one request; yields the request's span list."""
        self.spans = []
        self._stack = []
        saved = []
        try:
            for owner, name, layer, points, width in _targets():
                original = vars(owner)[name]
                saved.append((owner, name, original))
                setattr(owner, name, self.wrap(original, layer, points, width))
            yield self.spans
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)


def layer_totals(spans):
    """Per-layer {calls, s, self_s, points} for one request's spans.

    ``s`` counts only the outermost span of a layer, so a layer reached again
    from inside itself is not counted twice; ``self_s`` is a span's duration
    minus that of its direct children.
    """
    child_ns = [0] * len(spans)
    for name, parent, t0, t1, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    totals = {}
    for i, (name, parent, t0, t1, points, _) in enumerate(spans):
        row = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                       "points": 0})
        row["calls"] += 1
        row["points"] += points
        row["self_s"] += (t1 - t0 - child_ns[i]) * 1e-9
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            row["s"] += (t1 - t0) * 1e-9
    return totals


def useful_deriv_points(spans):
    """Derivative-row points each bound report needs once: its p (n + 1)
    rows times the width of its full-resolution grid, which is the widest
    row block among the report's own ``deriv_values`` calls."""
    widest = {}
    for name, parent, _, _, _, width in spans:
        if name == "bounds.deriv_rows" and parent >= 0:
            widest[parent] = max(widest.get(parent, 0), width)
    return sum(rows * widest.get(i, 0)
               for i, (name, _, _, _, rows, _) in enumerate(spans)
               if name == "bounds.bound_report")
