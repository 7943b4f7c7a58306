"""Command-line front end.

Subcommands
-----------
infer-q    fit the family quadratic from a density/pmf and report the residual
verify     check the defining identity against the spec's own quadratic
bounds     assemble the bound matrices and print per-theorem verdicts
chain      run orders 1..N and emit the sandwich table as CSV rows
mc-verify  recompute the matrices by Monte Carlo and compare

Exit codes (fixed so CI pipelines can dispatch on causes):
0 pass, 1 I/O or usage error, 2 membership residual failure, 3 singular
coefficient, 4 class-membership failure, 5 no sampler available,
6 verdict or cross-check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import bounds as bnd
from . import expectation as ex
from .calculus import load_function_tuple
# unused here: perfbench/tracing.py wraps both names in this module
from .calculus import forward_difference, rising_q  # noqa: F401
from .distributions import (catalog, infer_quadratic, load_distribution,
                            spec_to_json, verify_membership)
from .errors import (ClassMembershipError, NoSamplerError,
                     SingularCoefficientError, VarboundsError)

EXIT_OK = 0
EXIT_IO = 1
EXIT_RESIDUAL = 2
EXIT_SINGULAR = 3
EXIT_CLASS = 4
EXIT_NO_SAMPLER = 5
EXIT_VERDICT = 6


def _emit(args, text):
    if not getattr(args, "quiet", False):
        print(text)


def _parse_dist(text):
    """--dist accepts a JSON path or an inline 'family:key=value,...' form."""
    if text.endswith(".json"):
        return load_distribution(text)
    if ":" in text:
        name, _, rest = text.partition(":")
        params = {}
        for item in rest.split(","):
            if not item:
                continue
            key, _, val = item.partition("=")
            params[key.strip()] = float(val)
        return catalog(name.strip(), params)
    return catalog(text, {})


def _load_config(args):
    """Merge the --config document with CLI flags; flags win."""
    doc = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)

    def from_doc(key, loader):
        value = doc.get(key)
        return None if value is None else loader(value)

    spec = _parse_dist(args.dist) if getattr(args, "dist", None) \
        else from_doc("distribution", load_distribution)
    functions = load_function_tuple(args.functions) \
        if getattr(args, "functions", None) \
        else from_doc("functions", load_function_tuple)

    orders = None
    if getattr(args, "n", None):
        orders = [int(v) for v in str(args.n).split(",")]
    elif "orders" in doc:
        orders = [int(v) for v in doc["orders"]]

    theorems = None
    if getattr(args, "theorems", None):
        theorems = [t.strip() for t in args.theorems.split(",")]
    elif "theorems" in doc:
        theorems = list(doc["theorems"])

    engine = dict(doc.get("engine", {}))
    for key, flag in (("quad_nodes", "quad_nodes"), ("trunc_tol", "trunc_tol"),
                      ("mc_samples", "mc_samples"), ("mc_seed", "mc_seed")):
        value = getattr(args, flag, None)
        if value is not None:
            engine[key] = value
    cfg = ex.EngineConfig().override(**engine)

    output = dict(doc.get("output", {}))
    if getattr(args, "out_json", None):
        output["json"] = args.out_json
    if getattr(args, "out_csv", None):
        output["csv"] = args.out_csv
    return spec, functions, orders, theorems, cfg, output


def _dump_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dump_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_infer_q(args) -> int:
    spec, *_ = _load_config(args)
    if spec is None:
        print("infer-q: no distribution supplied", file=sys.stderr)
        return EXIT_IO
    result = infer_quadratic(spec)
    tol = args.tol if args.tol is not None else \
        (1e-10 if spec.is_discrete else 1e-8)
    quad = result.quadratic
    _emit(args, f"delta={quad.delta:.12g} beta={quad.beta:.12g} "
                f"gamma={quad.gamma:.12g}")
    _emit(args, f"residual={result.residual:.6e} tol={tol:.1e} "
                f"points={result.n_points}")
    return EXIT_OK if result.residual <= tol else EXIT_RESIDUAL


def cmd_verify(args) -> int:
    spec, *_ = _load_config(args)
    if spec is None:
        print("verify: no distribution supplied", file=sys.stderr)
        return EXIT_IO
    report = verify_membership(spec, tol=args.tol)
    _emit(args, f"max_residual={report.max_residual:.6e} "
                f"mean_residual={report.mean_residual:.6e} tol={report.tol:.1e}")
    _emit(args, "PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_RESIDUAL


def _run_reports(spec, functions, orders, theorems, cfg, args):
    return bnd.bound_reports(
        spec, functions, orders, cfg, theorems=theorems,
        tol_scale=args.tol if args.tol is not None else bnd.DEFAULT_TOL_SCALE,
        class_policy=args.on_class_failure)


def cmd_bounds(args) -> int:
    spec, functions, orders, theorems, cfg, output = _load_config(args)
    if spec is None or functions is None:
        print("bounds: need a distribution and a function tuple",
              file=sys.stderr)
        return EXIT_IO
    orders = orders or [1]
    theorems = theorems or ["poincare", "bessel"]
    reports = _run_reports(spec, functions, orders, theorems, cfg, args)

    for report in reports:
        for name, verdict in report.verdicts.items():
            _emit(args, f"{name.upper()} n={report.n} "
                        f"{'PASS' if verdict.ok else 'FAIL'} "
                        f"min-eig={verdict.min_eigenvalue:.6e} "
                        f"tol={verdict.tol:.6e}")

    if output.get("json"):
        payload = {
            "distribution": spec_to_json(spec),
            "functions": functions.to_json(),
            "theorems": list(theorems),
            "engine": reports[0].provenance["engine"],
            "runs": [r.to_json_dict() for r in reports],
        }
        _dump_json(output["json"], payload)
    if output.get("csv"):
        rows = [row for r in reports for row in r.eigen_rows()]
        _dump_csv(output["csv"], ("n", "matrix", "index", "eigenvalue"), rows)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERDICT


def cmd_chain(args) -> int:
    spec, functions, orders, theorems, cfg, output = _load_config(args)
    if spec is None or functions is None:
        print("chain: need a distribution and a function tuple",
              file=sys.stderr)
        return EXIT_IO
    n_max = max(orders) if orders else 0
    if n_max < 1:
        print("chain: N must be at least 1", file=sys.stderr)
        return EXIT_IO
    theorems = theorems or ["poincare", "bessel"]
    reports = _run_reports(spec, functions, list(range(1, n_max + 1)),
                           theorems, cfg, args)

    rows = [(r.n, ("bessel_lower" if name == "bessel" else
                   "poincare_upper" if r.n % 2 else "poincare_lower"),
             verdict.min_eigenvalue)
            for r in reports for name, verdict in r.verdicts.items()]
    for n, kind, eig in rows:
        _emit(args, f"n={n} {kind} min-eig={eig:.6e}")
    if output.get("csv"):
        _dump_csv(output["csv"], ("n", "bound_type", "min_eig"), rows)
    if output.get("json"):
        payload = {
            "distribution": spec_to_json(spec),
            "functions": functions.to_json(),
            "engine": reports[0].provenance["engine"],
            "chain": [{"n": n, "bound_type": k, "min_eig": e}
                      for n, k, e in rows],
            "runs": [r.to_json_dict() for r in reports],
        }
        _dump_json(output["json"], payload)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERDICT


def _mean_ci(samples, counts=None):
    """Sample mean and its 99% confidence half-width.

    With ``counts``, ``samples`` holds distinct values and ``counts`` the
    integer number of samples at each; the sums over the N samples are then
    sums of count times value, exact for a constant.
    """
    if counts is None:
        return (float(samples.mean()),
                ex.Z_99 * float(samples.std(ddof=1)) / math.sqrt(samples.size))
    size = int(counts.sum())
    mean = float(counts @ samples) / size
    dev = samples - mean
    return mean, ex.Z_99 * math.sqrt(float(counts @ (dev * dev))
                                     / ((size - 1) * size))


def _mc_entries(rows, weight=None, counts=None):
    """Sample means of weight * rows[i] * rows[j] as a symmetric matrix and,
    given a weight, of weight * rows[i] as a vector; each stacked with its
    99% half-widths along a leading axis of length 2.  ``counts`` is as in
    ``_mean_ci``."""
    p = len(rows)
    mat, vec = np.zeros((2, p, p)), np.zeros((2, p))
    for i in range(p):
        left = rows[i] if weight is None else weight * rows[i]
        if weight is not None:
            vec[:, i] = _mean_ci(left, counts)
        for j in range(i, p):
            mat[:, i, j] = mat[:, j, i] = _mean_ci(left * rows[j], counts)
    return mat, vec


def _mc_matrices(spec, functions, n, cfg):
    """Monte Carlo estimates of D, H_k, B_k with per-entry 99% half-widths.

    The N samples form a grid (``bounds._Grid.from_samples``), so the rows
    d^k g_i and w_k are the ones the quadrature and summation grids use.  A
    discrete member's samples are counted: every mean and half-width is a
    sum over its few distinct values, weighted by their integer counts, and
    equals the sum over all N samples up to roundoff.  The rows of each
    order k >= 1 are freed before the next order's are made.
    """
    xs = ex.sample(spec, cfg)
    grid = bnd._Grid.from_samples(spec, xs)
    counts = grid.counts
    rows = grid.deriv_values(functions, 0)
    means = rows.mean(axis=1) if counts is None else rows @ counts / xs.size
    d, _ = _mc_entries(rows - means[:, None], counts=counts)
    h_list, b_list = [], []
    for k in range(1, n + 1):
        h, (v, v_ci) = _mc_entries(grid.deriv_values(functions, k),
                                   grid.q_power(k), counts)
        spread = np.outer(np.abs(v), v_ci)  # B's half-width to first order
        h_list.append(h)
        b_list.append((np.outer(v, v), spread + spread.T))
    return d, h_list, b_list


def cmd_mc_verify(args) -> int:
    spec, functions, orders, theorems, cfg, output = _load_config(args)
    if spec is None or functions is None:
        print("mc-verify: need a distribution and a function tuple",
              file=sys.stderr)
        return EXIT_IO
    if spec.sampler is None:
        raise NoSamplerError(f"no sampler available for {spec!r}")
    n = max(orders) if orders else 1

    report = bnd.bound_report(spec, functions, n, cfg,
                              theorems=("poincare", "bessel"),
                              class_policy=args.on_class_failure)
    (d_mc, d_ci), h_mc, b_mc = _mc_matrices(spec, functions, n, cfg)

    checks = [("D", report.D.to_array(), d_mc, d_ci)]
    for k in range(1, n + 1):
        checks.append((f"H{k}", report.H[k - 1].to_array(), *h_mc[k - 1]))
        checks.append((f"B{k}", report.B[k - 1].to_array(), *b_mc[k - 1]))

    ok = True
    lines = []
    for name, det, mc, ci in checks:
        dev = np.abs(det - mc)
        # relative roundoff floor: a constant summand has half-width 0
        slack = 4.0 * ci + 1e-12 * (1.0 + np.abs(det))
        worst = float(np.max(dev - slack))
        good = bool(np.all(dev <= slack))
        ok &= good
        lines.append((name, float(np.max(dev)), float(np.max(ci)), good))
        _emit(args, f"{name}: max-dev={np.max(dev):.6e} "
                    f"ci-half-width={np.max(ci):.6e} "
                    f"{'OK' if good else f'EXCEEDS by {worst:.3e}'}")
    if output.get("json"):
        payload = {
            "distribution": spec_to_json(spec),
            "engine": report.provenance["engine"],
            "comparisons": [{"matrix": m, "max_deviation": d,
                             "max_ci_half_width": c, "ok": g}
                            for m, d, c, g in lines],
        }
        _dump_json(output["json"], payload)
    return EXIT_OK if ok else EXIT_VERDICT


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(parser):
    parser.add_argument("--config", help="run-configuration JSON")
    parser.add_argument("--dist",
                        help="distribution: JSON path or family:key=value,...")
    parser.add_argument("--functions", help="function-tuple JSON path")
    parser.add_argument("--n", help="comma-separated list of orders")
    parser.add_argument("--theorems",
                        help="comma-separated subset of poincare,bessel")
    parser.add_argument("--quad-nodes", dest="quad_nodes", type=int)
    parser.add_argument("--trunc-tol", dest="trunc_tol", type=float)
    parser.add_argument("--mc-samples", dest="mc_samples", type=int)
    parser.add_argument("--mc-seed", dest="mc_seed", type=int)
    parser.add_argument("--tol", type=float,
                        help="verdict tolerance scale / residual tolerance")
    parser.add_argument("--out-json", dest="out_json")
    parser.add_argument("--out-csv", dest="out_csv")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--on-class-failure", choices=("raise", "drop"),
                        default="raise",
                        help="drop failing functions instead of aborting")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varbounds",
        description="Certify matrix variance bounds for Integrated Pearson "
                    "and Cumulative Ord family members.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("infer-q", cmd_infer_q), ("verify", cmd_verify),
                     ("bounds", cmd_bounds), ("chain", cmd_chain),
                     ("mc-verify", cmd_mc_verify)):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
    except SingularCoefficientError as err:
        print(f"singular coefficient: {err}", file=sys.stderr)
        code = EXIT_SINGULAR
    except ClassMembershipError as err:
        print(f"class failure: {err}", file=sys.stderr)
        code = EXIT_CLASS
    except NoSamplerError as err:
        print(f"no sampler: {err}", file=sys.stderr)
        code = EXIT_NO_SAMPLER
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as err:
        print(f"input error: {err}", file=sys.stderr)
        code = EXIT_IO
    except VarboundsError as err:
        print(f"error: {err}", file=sys.stderr)
        code = EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
