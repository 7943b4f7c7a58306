"""Workload inputs, the request each input makes, and the check of its output.

Every input is drawn from the seed alone, from ranges where both theorems
hold for the member, so the expected verdict is always PASS and every
``mc-verify`` comparison is expected to agree.  A FAIL is a wrong verdict;
the members listed in ``HARD_MEMBERS`` are known to draw some, because the
fixed quadrature map does not fit their shape, and stay in the pool so that
they show.  A class refusal on such an input is a wrong verdict too.

Each request starts from the strings a user types: the member in the CLI's
inline ``family:key=value`` form and the tuple as grammar strings, both
parsed afresh, since the per-instance derivative cache of a parsed function
would otherwise hide derivative-tree construction.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

from varbounds import bounds, calculus, cli, distributions
from varbounds.errors import ClassMembershipError, VarboundsError

WORKLOADS = ("catalog-sweep", "wide-tuple", "high-order", "mc-crosscheck")

HARD_MEMBERS = (
    "gamma:shape=40", "gamma:shape=0.4", "beta:a=0.3,b=4", "beta:a=0.5,b=0.5",
    "normal:mean=5,var=100", "poisson:lam=300", "binomial:n=200,theta=0.02",
    "negative-binomial:r=0.5,theta=0.9",
)

# the reference kernel (see measure.py) whose slowdown under host contention
# tracks the workload's requests: mc-verify spends most of its time streaming
# over 200k-sample arrays, the other requests in interpreted code on small
# grids
REFERENCE_KERNEL = {
    "catalog-sweep": "interpreted", "wide-tuple": "interpreted",
    "high-order": "interpreted", "mc-crosscheck": "arrays",
}

THEOREMS = ("poincare", "bessel")
CHAIN_ORDER = 8
MC_ORDER = 2

# slack for recomputing a verdict's minimum eigenvalue with LAPACK, relative
# to the largest entry of the tested matrix times its order
EIG_RECHECK_RTOL = 1e-9


@dataclass(frozen=True)
class Case:
    """One input: the request ``kind`` on member ``dist`` with tuple
    ``exprs`` at order ``n``."""

    key: str
    kind: str  # report (a bound_report call) | chain | mc-verify
    dist: str
    exprs: tuple
    n: int


@dataclass
class Checked:
    """What the output check found for one request."""

    verdicts: int = 0  # verdicts or cross-check comparisons issued
    wrong: int = 0  # FAIL verdicts, refusals or failed comparisons
    reports: int = 0  # report documents that should load back as input
    replay_failed: int = 0  # of those, the ones that do not
    problems: tuple = ()  # inconsistencies: the output contradicts itself
    signature: tuple = ()  # pass/fail pattern, identical on every repeat


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _member(rng: random.Random, family: str) -> str:
    """A member of ``family`` in the CLI's inline form, from a narrow mild
    range, so that a request's cost varies little from seed to seed; the
    hard members bring the extreme parameters."""
    u = rng.uniform
    if family == "normal":
        return f"normal:mean={_fmt(u(-0.5, 0.5))},var={_fmt(u(0.75, 1.5))}"
    if family == "gamma":
        return f"gamma:shape={_fmt(u(2.5, 4))},scale={_fmt(u(0.75, 1.25))}"
    if family == "beta":
        return f"beta:a={_fmt(u(2, 3))},b={_fmt(u(2, 3))}"
    if family == "poisson":
        return f"poisson:lam={_fmt(u(2, 5))}"
    if family == "binomial":
        return f"binomial:n={rng.randint(10, 20)},theta={_fmt(u(0.3, 0.5))}"
    if family == "negative-binomial":
        return (f"negative-binomial:r={_fmt(u(2.5, 4))},"
                f"theta={_fmt(u(0.45, 0.6))}")
    if family == "hypergeometric":
        return (f"hypergeometric:N={rng.randint(40, 60)},"
                f"K={rng.randint(15, 25)},n={rng.randint(8, 12)}")
    raise ValueError(family)


# Rates and frequencies vary in narrow bands: a request's cost moves with
# them (through the class probes), and wide bands let the seed decide the
# slowest inputs, and with them the tail.  Every member drawn has finite
# exponential moments at twice these rates, so both theorems hold.  The band
# is wider on the hard members, whose moments allow it: from about a = 0.3
# the class probe on poisson(300) overflows and refuses the input, a false
# refusal that is meant to show.

def _exp_rate(rng, high=0.25):
    return _fmt(rng.uniform(0.15, high))


def _mc_exp_rate(rng):
    # lower for the Monte Carlo cross-check: its confidence interval on a
    # product of two terms needs E[exp(4 a X)] finite, and the negative
    # binomials drawn allow 4 a < -log(1 - theta) >= 0.59
    return _fmt(rng.uniform(0.06, 0.12))


def _freq(rng):
    return _fmt(rng.uniform(0.6, 1.2))


def _catalog_sweep(rng):
    families = ("normal", "gamma", "beta", "poisson", "binomial",
                "negative-binomial", "hypergeometric")
    members = [_member(rng, f) for f in families] + list(HARD_MEMBERS)
    cases = []
    for dist in members:
        high = 0.35 if dist in HARD_MEMBERS else 0.25
        for n in (1, 2, 3):
            tuples = (
                ("x", "x^2", "x^3"),
                (f"x^{rng.randint(1, 3)}", f"exp({_exp_rate(rng, high)}*x)",
                 f"sin({_freq(rng)}*x)"),
                ("x", f"exp({_exp_rate(rng, high)}*x)",
                 f"sin({_freq(rng)}*x)", f"x*cos({_freq(rng)}*x)"),
            )
            cases += [("report", dist, t, n) for t in tuples]
    return cases


def _wide_tuple(rng):
    # per member two p = 16 and four p = 32 inputs: the median input is a
    # p = 32 one, where the eigen-solves weigh most
    cases = []
    for family in ("normal", "beta", "poisson"):
        for p, n in ((16, 1), (16, 2), (32, 1), (32, 2), (32, 1), (32, 2)):
            dist = _member(rng, family)
            exprs = ["x", "x^2", "x^3"]
            while len(exprs) < p:
                kind = len(exprs) % 3
                exprs.append(
                    f"exp({_exp_rate(rng)}*x)" if kind == 0
                    else f"sin({_freq(rng)}*x)" if kind == 1
                    else f"x*cos({_freq(rng)}*x)")
            cases.append(("report", dist, tuple(exprs), n))
    return cases
def _high_order(rng):
    # the tuple (x, x*sin(2*x), x^2*exp(0.25*x)) with its rates jittered by
    # the seed.  Chains on the discrete members take ~0.1 s, on normal ones
    # ~0.5 s and on a beta ~1 s; with every input issued equally often, the
    # normal chains hold the 25-87.5% of issues where both the median and
    # the tail percentile (10 issues beyond, 3 to 7 rounds) fall, so neither
    # lands in the gap between kinds
    u = rng.uniform
    members = (
        [f"normal:mean={_fmt(u(-0.25, 0.25))},var={_fmt(u(0.8, 1.25))}"
         for _ in range(5)]
        + [f"beta:a={_fmt(u(2, 3))},b={_fmt(u(2, 3))}"]
        + [f"poisson:lam={_fmt(u(2, 4))}",
           f"binomial:n={rng.randint(10, 20)},theta={_fmt(u(0.3, 0.5))}"])
    return [("chain", dist, ("x", f"x*sin({_fmt(u(1.9, 2.1))}*x)",
                             f"x^2*exp({_fmt(u(0.22, 0.28))}*x)"), CHAIN_ORDER)
            for dist in members]


def _mc_crosscheck(rng):
    # The beta members take integer parameters here: at non-integer ones the
    # inverse incomplete beta that samples them costs 0.35-0.7 s against
    # 0.25 s, erratically, so the seed would decide the tail, which lies
    # among the beta requests
    cases = []
    for family in ("normal", "gamma", "beta", "poisson", "negative-binomial"):
        for i in range(3):
            dist = (f"beta:a={rng.choice((2, 3))},b={rng.choice((2, 3))}"
                    if family == "beta" else _member(rng, family))
            exprs = (("x", "x^2", f"sin({_freq(rng)}*x)") if i % 2 == 0 else
                     ("x", f"exp({_mc_exp_rate(rng)}*x)",
                      f"x*cos({_freq(rng)}*x)"))
            cases.append(("mc-verify", dist, exprs, MC_ORDER))
    return cases


_BUILDERS = {"catalog-sweep": _catalog_sweep, "wide-tuple": _wide_tuple,
             "high-order": _high_order, "mc-crosscheck": _mc_crosscheck}


def build_cases(workload: str, seed: int) -> list[Case]:
    """The workload's inputs for ``seed``, in the order they are issued."""
    rng = random.Random(f"{workload}/{seed}")
    rows = _BUILDERS[workload](rng)
    rng.shuffle(rows)
    return [Case(f"{workload}/{i:03d}", *row) for i, row in enumerate(rows)]


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

class Requests:
    """Issues the requests of a list of cases; CLI requests read their tuple
    from a function document and write their reports under ``workdir``."""

    def __init__(self, cases, workdir):
        self.workdir = workdir
        for case in cases:
            if case.kind != "report":
                with open(self._path(case, "fn.json"), "w",
                          encoding="utf-8") as fh:
                    json.dump({"functions": [{"expr": e} for e in case.exprs]},
                              fh)

    def _path(self, case, suffix):
        return os.path.join(self.workdir,
                            case.key.replace("/", "-") + "." + suffix)

    def issue(self, case):
        """Make one request; returns what the check needs.  A class refusal
        is an answer, returned as the error, not a failed request."""
        if case.kind == "report":
            spec = cli._parse_dist(case.dist)
            g = calculus.load_function_tuple(
                {"functions": [{"expr": e} for e in case.exprs]})
            try:
                return bounds.bound_report(spec, g, case.n, theorems=THEOREMS,
                                           class_policy="raise")
            except ClassMembershipError as err:
                return err
        argv = [case.kind, "--dist", case.dist,
                "--functions", self._path(case, "fn.json"),
                "--n", str(case.n), "--quiet",
                "--out-json", self._path(case, "out.json")]
        if case.kind == "chain":
            argv += ["--out-csv", self._path(case, "out.csv")]
        return cli.main(argv)

    def check(self, case, outcome) -> Checked:
        """Check one request's output; run outside the timed region."""
        try:
            return self._check(case, outcome)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as err:
            return Checked(problems=(f"output unreadable: {err!r}",))

    def _check(self, case, outcome):
        if isinstance(outcome, ClassMembershipError):
            return check_refusal(outcome)
        if case.kind == "report":
            return check_report(outcome.to_json_dict())
        # read, then remove, so that a request that writes nothing cannot
        # pass on the previous request's files
        doc = json.loads(self._take(case, "out.json"))
        if case.kind == "chain":
            csv_rows = self._take(case, "out.csv").splitlines()[1:]
            return check_chain(doc, csv_rows, outcome, case.n)
        return check_mc(doc, outcome, case.n)

    def _take(self, case, suffix):
        path = self._path(case, suffix)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(path)
        return text


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _min_eig(matrix) -> float:
    return float(np.linalg.eigvalsh(np.asarray(matrix, dtype=float))[0])


def _check_verdict(name, verdict, tested, tol, problems):
    """A verdict must follow from its own minimum eigenvalue, and that
    eigenvalue must be the tested matrix's (recomputed here with LAPACK)."""
    min_eig = verdict["min_eig"]
    if verdict["tol"] != tol or not math.isfinite(min_eig):
        problems.append(f"{name}: tolerance or eigenvalue malformed")
    elif verdict["pass"] != (min_eig >= -tol):
        problems.append(f"{name}: pass={verdict['pass']} contradicts "
                        f"min_eig={min_eig:.3e} against tol={tol:.3e}")
    tested = np.asarray(tested, dtype=float)
    slack = EIG_RECHECK_RTOL * (1.0 + tested.shape[0] * np.max(np.abs(tested)))
    if abs(_min_eig(tested) - min_eig) > slack:
        problems.append(f"{name}: min_eig={min_eig:.6e} is not the tested "
                        f"matrix's ({_min_eig(tested):.6e})")


def _check_run(run, problems, where=""):
    """Check one report document: S and L must be the weighted sums of the
    H_k and B_k it lists, and each verdict must follow from its matrix."""
    d = np.asarray(run["D"])
    tol = run["tol"]
    verdicts = run["verdicts"]
    if sorted(verdicts) != sorted(THEOREMS):
        problems.append(f"{where}verdicts for {sorted(verdicts)}")
        return verdicts
    for name, mats, total in (("poincare", run["H"], run["S"]),
                              ("bessel", run["B"], run["L"])):
        weights = run["coefficients"][name]
        rebuilt = np.zeros_like(d)
        for tw, mat in zip(weights, mats):
            if not tw["null"]:
                rebuilt += tw["weight"] * np.asarray(mat)
        scale = 1.0 + np.max(np.abs(rebuilt))
        if (len(weights) != run["n"] or len(mats) != run["n"]
                or np.max(np.abs(rebuilt - np.asarray(total))) > 1e-9 * scale):
            problems.append(f"{where}{name}: bound matrix is not the weighted "
                            f"sum of its terms")
    sign = 1.0 if run["n"] % 2 == 0 else -1.0
    _check_verdict(where + "poincare", verdicts["poincare"],
                   sign * (d - np.asarray(run["S"])), tol, problems)
    _check_verdict(where + "bessel", verdicts["bessel"],
                   d - np.asarray(run["L"]), tol, problems)
    return verdicts


def _tally(verdict_docs, out: Checked):
    flags = tuple(bool(v["pass"]) for v in verdict_docs)
    out.verdicts += len(flags)
    out.wrong += flags.count(False)
    out.signature += flags


def check_report(doc) -> Checked:
    """Check a ``bound_report`` result given as its JSON document."""
    out, problems = Checked(), []
    verdicts = _check_run(doc, problems)
    _tally([verdicts[t] for t in THEOREMS if t in verdicts], out)
    out.problems = tuple(problems)
    return out


def check_refusal(err) -> Checked:
    """Every input is in the class, so a refusal is a wrong answer for each
    theorem asked about."""
    return Checked(verdicts=len(THEOREMS), wrong=len(THEOREMS),
                   signature=(f"refused: {err}",))


def check_chain(doc, csv_rows, code, n_max) -> Checked:
    """Check a ``chain --out-json --out-csv`` request and its exit code."""
    out, problems = Checked(), []
    runs = doc.get("runs", [])
    if [r["n"] for r in runs] != list(range(1, n_max + 1)):
        problems.append(f"chain orders {[r['n'] for r in runs]}")
    for run in runs:
        verdicts = _check_run(run, problems, f"n={run['n']} ")
        _tally([verdicts[t] for t in THEOREMS if t in verdicts], out)
    rows = doc.get("chain", [])
    if len(rows) != 2 * n_max or len(csv_rows) != len(rows):
        problems.append(f"{len(rows)} chain rows, {len(csv_rows)} CSV rows")
    expected = cli.EXIT_OK if out.wrong == 0 else cli.EXIT_VERDICT
    if code != expected:
        problems.append(f"exit code {code}, verdicts say {expected}")
    out.reports = 1
    try:
        distributions.load_distribution(doc["distribution"])
        calculus.load_function_tuple(doc["functions"])
    except (VarboundsError, ValueError, KeyError, TypeError):
        # product terms are written in a form the expression parser rejects
        out.replay_failed = 1
    out.problems = tuple(problems)
    return out


def check_mc(doc, code, n) -> Checked:
    """Check an ``mc-verify --out-json`` request and its exit code."""
    out, problems = Checked(), []
    comparisons = doc.get("comparisons", [])
    names = [c["matrix"] for c in comparisons]
    expected_names = ["D"] + [f"{m}{k}" for k in range(1, n + 1)
                              for m in ("H", "B")]
    if names != expected_names:
        problems.append(f"comparisons {names}")
    flags = tuple(bool(c["ok"]) for c in comparisons)
    out.verdicts, out.wrong, out.signature = len(flags), flags.count(False), flags
    expected = cli.EXIT_OK if out.wrong == 0 else cli.EXIT_VERDICT
    if code != expected:
        problems.append(f"exit code {code}, comparisons say {expected}")
    out.problems = tuple(problems)
    return out
