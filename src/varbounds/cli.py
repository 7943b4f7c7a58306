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
import functools
import json
import sys
from dataclasses import fields

import numpy as np

from . import bounds as bnd
from . import expectation as ex
from .calculus import load_function_tuple
# unused here: perfbench/tracing.py wraps both names in this module
from .calculus import forward_difference, rising_q  # noqa: F401
from .distributions import (CONTINUOUS_RESIDUAL_TOL, DISCRETE_RESIDUAL_TOL,
                            catalog, infer_quadratic, load_distribution,
                            spec_to_json, verify_membership)
from .errors import (ClassMembershipError, InvalidParameterError,
                     NoSamplerError, SingularCoefficientError, VarboundsError,
                     unique_keys)

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
    name, _, rest = text.partition(":")
    params = {}
    for item in filter(None, rest.split(",")):
        key, _, val = item.partition("=")
        key = key.strip()
        if key in params:
            raise InvalidParameterError(
                f"{name.strip()} parameter {key!r} is given twice")
        params[key] = val
    return catalog(name.strip(), params)


def _load_config(args):
    """Merge the --config document with CLI flags; flags win."""
    doc = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=unique_keys)
        if not isinstance(doc, dict):
            raise ValueError("a config document is a JSON object")
        for key, kind, item, what in (
                ("orders", list, int, "an array of integers"),
                ("theorems", list, str, "an array of names"),
                ("engine", dict, object, "an object"),
                ("output", dict, str, "an object of paths")):
            value = doc.get(key, kind())
            if not isinstance(value, kind) or not all(
                    isinstance(v, item) and not isinstance(v, bool)
                    for v in (value.values() if kind is dict else value)):
                raise ValueError(f"config {key!r} must be {what}")

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
        orders = list(doc["orders"])

    theorems = None
    if getattr(args, "theorems", None):
        theorems = [t.strip() for t in args.theorems.split(",")]
    elif "theorems" in doc:
        theorems = list(doc["theorems"])

    engine = dict(doc.get("engine", {}))
    for f in fields(ex.EngineConfig):
        if getattr(args, f.name, None) is not None:
            engine[f.name] = getattr(args, f.name)
    cfg = ex.EngineConfig().override(**engine)

    output = dict(doc.get("output", {}))
    if getattr(args, "out_json", None):
        output["json"] = args.out_json
    if getattr(args, "out_csv", None):
        output["csv"] = args.out_csv
    return spec, functions, orders, theorems, cfg, output


def _dump_json(path, payload):
    """Write ``payload`` as one line of compact JSON with sorted keys: with
    no indent, ``json`` encodes it in C.  A report document is a tree, so
    the encoder skips its check for cycles."""
    text = json.dumps(payload, sort_keys=True, check_circular=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _dump_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_infer_q(args) -> int:
    spec, _, _, _, cfg, _ = _load_config(args)
    if spec is None:
        print("infer-q: no distribution supplied", file=sys.stderr)
        return EXIT_IO
    result = infer_quadratic(spec, cfg)
    tol = args.tol if args.tol is not None else (
        DISCRETE_RESIDUAL_TOL if spec.is_discrete else CONTINUOUS_RESIDUAL_TOL)
    quad = result.quadratic
    _emit(args, f"delta={quad.delta:.12g} beta={quad.beta:.12g} "
                f"gamma={quad.gamma:.12g}")
    _emit(args, f"residual={result.residual:.6e} tol={tol:.1e} "
                f"points={result.n_points}")
    return EXIT_OK if result.residual <= tol else EXIT_RESIDUAL


def cmd_verify(args) -> int:
    spec, _, _, _, cfg, _ = _load_config(args)
    if spec is None:
        print("verify: no distribution supplied", file=sys.stderr)
        return EXIT_IO
    report = verify_membership(spec, cfg, tol=args.tol)
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


class _SampleMeans:
    """Running sample means of E entries and their 99% confidence
    half-widths, summed block by block.

    The sums of an entry are shifted by its value K at the first point:
    S1 = sum c (Y - K) and S2 = sum c (Y - K)^2 over the N samples give the
    mean K + S1 / N and the variance (S2 - S1^2 / N) / (N - 1), in one pass
    and without the cancellation of E[Y^2] - E[Y]^2 (Chan, Golub and
    LeVeque, 1979).  Y - K is exactly 0 for a constant summand, so its mean
    is K and its half-width 0, to the last bit.
    """

    def __init__(self):
        self.shift, self.s1, self.s2, self.size = None, 0.0, 0.0, 0

    def add(self, values, counts):
        """Add the (E, b) ``values`` of the entries at b points, used up
        here, each point with the integer number ``counts`` of samples."""
        if self.shift is None:
            self.shift = values[:, 0].copy()
        dev = np.subtract(values, self.shift[:, None], out=values)
        self.s1 = self.s1 + dev @ counts
        self.s2 = self.s2 + np.square(dev, out=dev) @ counts
        self.size += int(counts.sum())

    def result(self):
        """The means and half-widths, as a (2, E) array."""
        size, s1 = self.size, self.s1
        var = np.maximum(self.s2 - s1 * s1 / size, 0.0) / (size - 1)
        return np.array([self.shift + s1 / size,
                         ex.Z_99 * np.sqrt(var / size)])


def _upper_products(left, right, out):
    """``out`` with rows left[i] * right[j], i <= j, in row-major order."""
    at, p = 0, len(left)
    for i in range(p):
        np.multiply(left[i], right[i:], out=out[at:at + p - i])
        at += p - i
    return out


def _mc_matrices(spec, functions, n, cfg):
    """Monte Carlo estimates of D, H_k, B_k with per-entry 99% half-widths.

    One pass over the sample grids (``bounds._Grid.from_samples``) reads
    each grid's stacks of rows d^k g_i and weights w_k, k = 0..n, and adds,
    per order, the products w_k d^k g_i d^k g_j and the rows w_k d^k g_i to
    that order's ``_SampleMeans``.  D centres the rows g_i on their means, so
    those rows are the one (p, N) array kept, and a second pass sums D's
    products a grid at a time.  Each grid's entries are written into one
    buffer of p(p+1)/2 + p rows, whatever n.
    """
    xs = ex.sample(spec, cfg)
    p = len(functions)
    m = p * (p + 1) // 2
    # the rows g_i of every grid, side by side in one (p, N) array: with one
    # array per grid the next request's sampling took a third more fresh
    # pages from the system and ran ~20% slower (mc-crosscheck, 2-vCPU VM)
    first = np.empty((p, xs.size))
    kept = []  # (rows g_i, counts) of each grid
    centre, d_sums = _SampleMeans(), _SampleMeans()
    h_sums = [_SampleMeans() for _ in range(n)]
    v_sums = [_SampleMeans() for _ in range(n)]
    buffer, lo = None, 0
    for grid in bnd._Grid.from_samples(spec, xs, n):
        size = grid.weights.x.size
        if buffer is None:  # the first grid is the largest
            buffer = np.empty((m + p, size))
        products, left = buffer[:m, :size], buffer[m:, :size]
        stack, powers = grid.rows(functions), grid.weights.powers()
        rows = first[:, lo:lo + size]
        lo += size
        rows[:] = stack[0]
        kept.append((rows, grid.counts))
        left[:] = rows
        centre.add(left, grid.counts)
        for k, (h, v) in enumerate(zip(h_sums, v_sums), 1):
            np.multiply(powers[k], stack[k], out=left)
            h.add(_upper_products(left, stack[k], products), grid.counts)
            v.add(left, grid.counts)
        del stack, powers  # not held while the next grid builds its own
    means = centre.result()[0]
    for rows, counts in kept:
        size = rows.shape[1]
        dev = np.subtract(rows, means[:, None], out=buffer[m:, :size])
        d_sums.add(_upper_products(dev, dev, buffer[:m, :size]), counts)

    iu, ju = np.triu_indices(p)

    def symmetric(stats):
        out = np.empty((2, p, p))
        out[:, iu, ju] = out[:, ju, iu] = stats
        return out

    h_list, b_list = [], []
    for h, weighted in zip(h_sums, v_sums):
        h_list.append(symmetric(h.result()))
        v, v_ci = weighted.result()
        spread = np.outer(np.abs(v), v_ci)  # B's half-width to first order
        b_list.append((np.outer(v, v), spread + spread.T))
    return symmetric(d_sums.result()), h_list, b_list


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
    # the Monte Carlo side estimates the matrices of the functions kept
    dropped = report.provenance["dropped_functions"]
    if dropped:
        _emit(args, f"dropped functions {dropped}: class checks failed")
        functions = functions.subset(
            [i for i in range(len(functions)) if i not in dropped])
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
        if args.on_class_failure == "drop":  # 'raise' drops nothing
            payload["dropped_functions"] = dropped
        _dump_json(output["json"], payload)
    return EXIT_OK if ok else EXIT_VERDICT


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# the flags of each command beyond the ones every command takes (--config,
# --dist, the engine settings and --quiet): only those it reads, so that a
# flag it would ignore is a usage error
_OPTIONS = {
    "functions": {"help": "function-tuple JSON path"},
    "n": {"help": "comma-separated list of orders"},
    "theorems": {"help": "comma-separated subset of poincare,bessel"},
    "tol": {"type": float,
            "help": "verdict tolerance scale / residual tolerance"},
    "out-json": {}, "out-csv": {},
    "on-class-failure": {"choices": ("raise", "drop"), "default": "raise",
                         "help": "drop failing functions instead of aborting"},
}


def _add_flags(parser, options):
    parser.add_argument("--config", help="run-configuration JSON")
    parser.add_argument("--dist",
                        help="distribution: JSON path or family:key=value,...")
    for f in fields(ex.EngineConfig):  # every engine setting is an int
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                            type=int)
    parser.add_argument("--quiet", action="store_true")
    for name in options:
        parser.add_argument("--" + name, **_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varbounds",
        description="Certify matrix variance bounds for Integrated Pearson "
                    "and Cumulative Ord family members.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, options in (
            ("infer-q", cmd_infer_q, ("tol",)),
            ("verify", cmd_verify, ("tol",)),
            ("bounds", cmd_bounds, _OPTIONS), ("chain", cmd_chain, _OPTIONS),
            ("mc-verify", cmd_mc_verify,
             ("functions", "n", "out-json", "on-class-failure"))):
        p = sub.add_parser(name)
        _add_flags(p, options)
        p.set_defaults(handler=fn)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call in a process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as stop:  # argparse exits 2 on a usage error
        if stop.code == 0:  # --help
            raise
        return EXIT_IO
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
    except (OSError, json.JSONDecodeError, KeyError, ValueError,
            InvalidParameterError) as err:
        print(f"input error: {err}", file=sys.stderr)
        code = EXIT_IO
    except VarboundsError as err:
        print(f"error: {err}", file=sys.stderr)
        code = EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
