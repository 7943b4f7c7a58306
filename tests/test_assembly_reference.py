"""The stacked assembly against the per-order loop it replaced, bit for bit.

The reference below is that loop: per order k it reads the rows d^k g_i
and the weights w_k off the stacks of the full and the half grid, clips the
weights, builds H_k (B_k) with its own Gram product (outer product), checks
it, brackets it and adds it to a running sum, and it solves every tested
matrix on its own.  Each kept set of functions is its own tuple.
``bound_reports`` must give the same float bits for D, every H_k, B_k, S_n,
L_n and A_n, the entry brackets and the verdict eigenvalues, or raise the
same error.
"""

import math

import numpy as np
import pytest

from varbounds import (ContinuousIP, DiscreteCO, FunctionTuple, Quadratic,
                       catalog, eigenvalues, parse_function)
from varbounds.bounds import (_bessel_weight, _ClassCheck, _Grid,
                              _poincare_weight, bound_reports)
from varbounds.cli import _parse_dist
from varbounds.errors import (ClassMembershipError, InvalidParameterError,
                              NonFiniteIntegrandError,
                              SingularCoefficientError)
from varbounds.expectation import EngineConfig
from varbounds.linalg import SymMatrix, is_psd, spectral_radius
from tests.conftest import make_bernoulli_member

# ---------------------------------------------------------------------------
# the per-order loop
# ---------------------------------------------------------------------------


def _nonnegative(qk, k):
    scale = float(np.max(np.abs(qk))) or 1.0
    if float(np.min(qk)) < -1e-12 * scale:
        raise ClassMembershipError(
            f"weight of order {k} is negative on the support grid; "
            f"the spec is outside its family")
    return np.maximum(qk, 0.0)


def _weight(grid, k):
    return grid.weights.w * _nonnegative(grid.weights.powers()[k], k)


def _gram(values, weights):
    u = values * np.sqrt(weights)
    return u @ u.T


def _dispersion_array(grid, g):
    vals = grid.rows(g)[0]
    w = grid.weights.w
    means = (vals @ w) / float(w.sum())
    return _gram(vals - means[:, None], w)


def _h_array(grid, g, k):
    return _gram(grid.rows(g)[k], _weight(grid, k))


def _b_array(grid, g, k):
    v = grid.rows(g)[k] @ _weight(grid, k)
    return np.outer(v, v)


def _pair(full, half, build, what):
    with np.errstate(over="ignore", invalid="ignore"):
        a = build(full)
        if not np.all(np.isfinite(a)):
            raise ClassMembershipError(f"divergent {what}")
        b = a if half is full else build(half)
    return a, float(np.max(np.abs(a - b)))


class _LoopPass:
    def __init__(self, spec, cfg, theorems, top, full=None):
        self.spec, self.theorems = spec, theorems
        self.full = full or _Grid.build(spec, cfg, top=top)
        self.half = self.full if spec.is_discrete else _Grid.build(
            spec, cfg, max(10, cfg.quad_nodes // 2), top)
        self.weights = {"H": [], "B": []}
        self.subsets = {}

    def _subset(self, g):
        key = tuple(map(id, g))
        if key not in self.subsets:
            d, bracket = _pair(self.full, self.half,
                               lambda grid: _dispersion_array(grid, g),
                               "second moment in dispersion matrix")
            zeros = np.zeros((g.p, g.p))
            self.subsets[key] = (SymMatrix.from_array(d), bracket,
                                 {kind: ([], [0.0], [zeros]) for kind in "HB"})
        return self.subsets[key]

    def report(self, n, g):
        spec = self.spec
        d, d_bracket, terms = self._subset(g)
        out = {"D": d, "brackets": {"D": d_bracket}, "H": [], "B": []}
        for name, kind in (("poincare", "H"), ("bessel", "B")):
            if name not in self.theorems:
                continue
            weights, full = self.weights[kind], self.full.weights
            for k in range(len(weights) + 1, n + 1):
                weights.append(
                    _poincare_weight(spec, full, k) if kind == "H"
                    else _bessel_weight(spec, k, full.expectation(k)))
            build, what = ((_h_array, "Gram matrix") if kind == "H"
                           else (_b_array, "outer product"))
            mats, worst, sums = terms[kind]
            for tw in weights[len(mats):n]:
                arr, bracket = _pair(self.full, self.half,
                                     lambda grid: build(grid, g, tw.k),
                                     f"entry in order-{tw.k} {what}")
                mats.append(SymMatrix.from_array(arr))
                worst.append(max(worst[-1], bracket))
                sums.append(sums[-1] if tw.null
                            else sums[-1] + tw.weight * arr)
            total = SymMatrix.from_array(sums[n])
            out["brackets"][kind + "_max"] = worst[n]
            out[kind] = mats[:n]
            if kind == "H":
                sign = 1.0 if n % 2 == 0 else -1.0
                out["S"], out["A"] = total, sign * (d - total)
            else:
                out["L"], out["D-L"] = total, d - total
        out["tol"] = 1e-6 * (1.0 + spectral_radius(d))
        return out


def loop_reports(spec, g, orders, cfg, theorems, class_policy):
    """``bound_reports`` with the per-order loop: the same gates, class
    checks and error order, one ``FunctionTuple`` per kept set."""
    check = _ClassCheck(spec, g, [
        cls for name, cls in (("poincare", "H"), ("bessel", "B"))
        if name in theorems and class_policy != "skip"], cfg, max(orders))
    assembly, done, subsets = None, {}, {}
    for n in sorted(set(orders)):
        if not check.moment_finite(n):
            raise ClassMembershipError(
                f"E|X|^{2 * n} is not finite for this member; order {n} "
                f"bounds do not apply")
        keep = set(range(g.p))
        if check.classes:
            check.upto(n)
            for cls in check.classes:
                report = check.report(cls, n)
                if not report.ok:
                    if class_policy == "raise":
                        raise ClassMembershipError(
                            f"class {cls} check failed at (function, order) "
                            f"pairs {report.failures()}", report.failures())
                    keep &= set(report.passing_functions())
            if class_policy == "drop" and not keep:
                raise ClassMembershipError(
                    "no test function passes the class checks", ())
        assembly = assembly or _LoopPass(
            spec, cfg, theorems, max(orders),
            check.nodes if spec.is_discrete else None)
        key = tuple(sorted(keep))
        if key not in subsets:
            subsets[key] = g if len(key) == g.p else g.subset(key)
        done[n] = assembly.report(n, subsets[key])
    return [done[n] for n in orders]


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------

MEMBERS = [
    ("normal", {"mean": 0.2, "var": 1.3}), ("gamma", {"shape": 2.0}),
    ("beta", {"a": 2.0, "b": 3.0}), ("poisson", {"lam": 3.0}),
    ("binomial", {"n": 12, "theta": 0.35}),
    ("negative-binomial", {"r": 3, "theta": 0.5}),
    ("hypergeometric", {"N": 30, "K": 10, "n": 8}),
]
# the members the benchmark's catalog sweep lists as hard
# (``perfbench/workloads.py``)
HARD_MEMBERS = (
    "gamma:shape=40", "gamma:shape=0.4", "beta:a=0.3,b=4", "beta:a=0.5,b=0.5",
    "normal:mean=5,var=100", "poisson:lam=300", "binomial:n=200,theta=0.02",
    "negative-binomial:r=0.5,theta=0.9",
)

# exp(0.6*x) leaves the classes of gamma(2) and of poisson(300), so 'drop'
# keeps a subset there; under 'skip' its rows overflow on poisson(300), a
# divergent D
TUPLES = {
    1: ("x^2*exp(0.25*x)",),
    3: ("x", "x*sin(2*x)", "exp(0.6*x)"),
    16: ("x", "x^2", "x^3", "exp(0.15*x)", "sin(0.6*x)", "x*cos(0.75*x)",
         "exp(0.2*x)", "sin(0.8*x)", "x*cos(1.1*x)", "exp(-0.25*x)",
         "cos(0.9*x)", "x*sin(0.3*x)", "x^2*sin(0.5*x)", "exp(0.6*x)",
         "x*exp(0.05*x)", "cos(1.3*x)"),
}
THEOREM_SETS = (("poincare", "bessel"), ("poincare",), ("bessel",))
ERRORS = (ClassMembershipError, SingularCoefficientError,
          NonFiniteIntegrandError, InvalidParameterError, ValueError)


def _bits(a):
    a = a.to_array() if isinstance(a, SymMatrix) else np.asarray(a, float)
    return a.shape, a.tobytes()


def _outcome(run):
    try:
        return run(), None
    except ERRORS as err:
        return None, (type(err), str(err))


def _assert_same(spec, g, orders, policy):
    """``bound_reports`` and the loop give the same bits or the same
    error, under every theorem set; returns the outcomes."""
    cfg = EngineConfig()
    outcomes = []
    for theorems in THEOREM_SETS:
        got, got_err = _outcome(lambda: bound_reports(
            spec, g, orders, cfg, theorems=theorems, class_policy=policy))
        want, want_err = _outcome(lambda: loop_reports(
            spec, g, orders, cfg, theorems, policy))
        assert got_err == want_err, theorems
        outcomes.append(got_err or got)
        for report, ref in zip(got or (), want or ()):
            where = (theorems, report.n)
            named = [("D", report.D, ref["D"])]
            for kind in ("H", "B"):
                mats = getattr(report, kind)
                assert len(mats) == len(ref[kind]), where
                named += [(f"{kind}{k + 1}", m, r)
                          for k, (m, r) in enumerate(zip(mats, ref[kind]))]
            if "poincare" in theorems:
                named += [("S", report.S, ref["S"]), ("A", report.A, ref["A"])]
            if "bessel" in theorems:
                named += [("L", report.L, ref["L"]),
                          ("D-L", report._d_minus_l, ref["D-L"])]
            for name, m, r in named:
                assert _bits(m) == _bits(r), (where, name)
            brackets = report.provenance["entry_brackets"]
            assert brackets.keys() == ref["brackets"].keys(), where
            for key, value in ref["brackets"].items():
                assert _bits(brackets[key]) == _bits(value), (where, key)
            assert report.tol == ref["tol"], where
            for name, tested in (("poincare", report.A),
                                 ("bessel", report._d_minus_l)):
                if name in theorems:
                    ref_tested = ref["A" if name == "poincare" else "D-L"]
                    assert _bits(eigenvalues(tested)) == \
                        _bits(eigenvalues(ref_tested)), (where, name)
                    assert report.verdicts[name] == \
                        is_psd(ref_tested, ref["tol"]), (where, name)
    return outcomes


@pytest.mark.parametrize("policy", ["raise", "drop", "skip"])
@pytest.mark.parametrize("p", [1, 3, 16])
@pytest.mark.parametrize("member",
                         [m[0] for m in MEMBERS] + list(HARD_MEMBERS))
def test_stacked_assembly_equals_the_loop(member, p, policy):
    spec = (_parse_dist(member) if ":" in member
            else catalog(member, dict(MEMBERS)[member]))
    g = FunctionTuple([parse_function(e) for e in TUPLES[p]])
    _assert_same(spec, g, range(1, 9), policy)


def _uniform_delta_one():
    # delta = 1: the order-2 coefficients are singular; a bounded support,
    # so every moment exists
    return ContinuousIP(0.0, Quadratic(1.0, 0.0, 1.0), (-1.0, 1.0),
                        lambda x: np.full(np.shape(x), 0.5))


def _negative_third_weight():
    # q(j) = 60.5 - j on the support 0..59: q^[3] < 0 at j = 59 only
    def pmf(k):
        k = np.asarray(k, dtype=float)
        return np.where((k >= 0) & (k <= 59), 0.5 ** (k + 1), 0.0)

    return DiscreteCO(1.0, Quadratic(0.0, -1.0, 60.5), (0.0, math.inf), pmf)


# members and tuples whose faults the catalog cases do not meet, with the
# outcome of orders 1..8 under 'skip' with both theorems
CRAFTED = {
    "null terms": (make_bernoulli_member, ("x^2", "exp(-0.5*x)"), None),
    "singular coefficient": (_uniform_delta_one, ("x", "x^2"),
                             "coefficient of order k=2 is singular"),
    "negative weight": (_negative_third_weight, ("x",),
                        "weight of order 3 is negative"),
    # d^3 sin(1e60 x) = -1e180 cos(1e60 x): its square overflows
    "divergent term": (lambda: catalog("normal"), ("x", "sin(1e60*x)"),
                       "divergent entry in order-3 Gram matrix"),
}


@pytest.mark.parametrize("policy", ["raise", "drop", "skip"])
@pytest.mark.parametrize("case", list(CRAFTED))
def test_crafted_faults_equal_the_loop(case, policy):
    make, exprs, fault = CRAFTED[case]
    spec, g = make(), FunctionTuple([parse_function(e) for e in exprs])
    for orders in ([1, 3], [3]):
        _assert_same(spec, g, orders, policy)
    first = _assert_same(spec, g, range(1, 9), policy)[0]
    if policy != "skip":
        return
    if fault is None:  # a null term of both theorems at every k >= 2
        assert first[-1].provenance["null_terms"] == [*range(2, 9)] * 2
    else:
        assert fault in first[1]
