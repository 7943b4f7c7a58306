"""The benchmark's traced run wraps library entry points by name; every
name it wraps must exist where it looks it up, or the traced run breaks.
Its per-layer counts read the spans of those calls, so a traced report and
a traced ``mc-verify`` must still make the derivative-row spans it counts."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import tracing  # noqa: E402

from varbounds import (FunctionTuple, bounds, calculus,  # noqa: E402
                       catalog, cli, parse_function)
from varbounds.bounds import _Grid  # noqa: E402
from varbounds.expectation import BLOCK, EngineConfig, Ladder  # noqa: E402


def test_every_traced_name_exists():
    missing = [f"{getattr(owner, '__name__', owner)}.{name}"
               for owner, name, *_ in tracing._targets()
               if name not in vars(owner)]
    assert missing == []


def _grid_widths(spec, cfg, ladder):
    """The widths of the full and the half grid, and of the class ladder
    if ``ladder``."""
    half = max(10, cfg.quad_nodes // 2)
    widths = [_Grid.build(spec, cfg, n).weights.x.size
              for n in (cfg.quad_nodes, half)]
    return widths + [Ladder.build(spec, cfg).x.size] * ladder


def _deriv_rows(spans):
    """(parent layer, points, width) of every derivative-row span."""
    return [(spans[parent][0], points, width)
            for name, parent, _, _, points, width in spans
            if name == "bounds.deriv_rows"]


@pytest.mark.parametrize("last,ladder", [
    # the closed-form rule settles the class checks: full and half grid
    ("exp(0.2*x)", False),
    # a log factor takes the class ladder, a third grid
    ("log(x+1)", True)])
def test_traced_report_counts_its_derivative_rows(last, ladder):
    # every order's row block on each grid of a report is one span as wide
    # as its grid, so the harness's deriv_points_per_grid_point is not 0
    cfg, spec = EngineConfig(), catalog("gamma", {"shape": 2.0})
    g = FunctionTuple([parse_function(e) for e in ("x", last)])
    with tracing.Tracer().request() as spans:
        report = bounds.bound_report(spec, g, 2, cfg)
    rows = _deriv_rows(spans)
    widths = _grid_widths(spec, cfg, ladder)
    assert sorted(width for _, _, width in rows) == sorted(widths * 3)
    assert rows == [("bounds.bound_report", 2 * width, width)
                    for _, _, width in rows]
    assert tracing.useful_deriv_points(spans) == \
        report.p * (report.n + 1) * max(widths) > 0


def test_traced_wide_request_parses_once():
    # a p = 32 request as the benchmark issues one: the tuple loaded from
    # its grammar strings, then one report; the harness's parse layer is
    # the one span of that load, and the report still reads row blocks
    spec = cli._parse_dist("normal:mean=0.2,var=1.1")
    exprs = ["x", "x^2", "x^3"]
    while len(exprs) < 32:
        exprs.append(("exp(0.2*x)", "sin(0.9*x)", "x*cos(0.8*x)")[
            len(exprs) % 3])
    doc = {"functions": [{"expr": e} for e in exprs]}
    with tracing.Tracer().request() as spans:
        g = calculus.load_function_tuple(doc)
        report = bounds.bound_report(spec, g, 2,
                                     theorems=("poincare", "bessel"),
                                     class_policy="raise")
    assert report.p == 32
    parses = [span for span in spans if span[0] == "calculus.parse"]
    assert [parent for _, parent, *_ in parses] == [-1]
    assert _deriv_rows(spans)


def test_traced_mc_verify_counts_its_derivative_rows(tmp_path):
    cfg, spec = EngineConfig(), catalog("gamma", {"shape": 2.0})
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(
        {"functions": [{"expr": "x"}, {"expr": "exp(0.2*x)"}]}))
    with tracing.Tracer().request() as spans:
        code = cli.main(["mc-verify", "--dist", "gamma:shape=2",
                         "--functions", str(path), "--n", "2",
                         "--mc-samples", str(2 * BLOCK + 100), "--quiet",
                         "--out-json", str(tmp_path / "out.json")])
    assert code == 0
    rows = _deriv_rows(spans)
    # the report's full and half grids (the closed-form rule settles its
    # class checks), then orders 0..2 of each sample block
    report = [row for row in rows if row[0] == "bounds.bound_report"]
    assert sorted(width for _, _, width in report) == \
        sorted(_grid_widths(spec, cfg, False) * 3)
    assert rows[len(report):] == [("cli.main", 2 * width, width) for width
                                  in [BLOCK] * 6 + [100] * 3]
    assert tracing.useful_deriv_points(spans) > 0
