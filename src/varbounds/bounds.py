"""Assembly of the variance-bound matrices and their certificates.

For a function tuple g = (g_1 ... g_p) against a family member X with
quadratic q, the building blocks are

    D      covariance matrix of (g_1(X), ..., g_p(X)),
    H_k    E[w_k * d^k g_i * d^k g_j]        (a Gram form, PSD),
    B_k    E[w_k * d^k g_i] E[w_k * d^k g_j] (rank <= 1, PSD),

where d^k is the exact k-th derivative and w_k = q(X)^k in the continuous
case, and d^k is the k-th forward difference and w_k = q^[k](X) (the rising
product) in the discrete case.  The certified inequalities are

    (-1)^n (D - S_n) >= 0   with  S_n = sum_k (-1)^(k-1) H_k / (k! prod_{j<k} (1 - j delta)),
    L_n <= D                with  L_n = sum_k B_k / (k! E[w_k] prod_{j=k-1}^{2k-2} (1 - j delta)),

both in the Loewner order.  Whenever E[w_k] vanishes (possible for discrete
members) the k-th summand is the null matrix by convention.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import expectation as ex
from .calculus import (FunctionTuple, SmoothFunction, difference_of_rows,
                       rising_q)
from .distributions import Spec, moment_criterion
from .errors import (ClassMembershipError, InvalidParameterError,
                     NonFiniteIntegrandError, SingularCoefficientError)
from .linalg import SymMatrix, eigenvalues, is_psd, spectral_radius
# unused here: perfbench/tracing.py wraps these names in this module
from .calculus import forward_difference  # noqa: F401
from .linalg import loewner_leq  # noqa: F401

COEFFICIENT_FACTOR_GUARD = 1e-10
NULL_EXPECTATION_TOL = 1e-12
DEFAULT_TOL_SCALE = 1e-6


# ---------------------------------------------------------------------------
# evaluation grids
# ---------------------------------------------------------------------------

class _Grid:
    """Evaluation grid of one spec: points x, nonnegative weights w with
    sum(w * phi(x)) ~ E[phi(X)], plus the tail bound for discrete members.
    ``build`` gives the quadrature nodes or the positive-pmf support down
    to pmf underflow (``expectation.truncated_support``, which the class
    ladder uses too), and ``from_samples`` the grid of N Monte Carlo
    samples.  The power q^k (q^[k]), the weight w_k, E[w_k] and each row
    d^k g_i are evaluated on it once, when first asked for; on a discrete
    member each g_i is evaluated once at each shift x + j, and its forward
    differences of every order combine those rows."""

    def __init__(self, spec, x, w, tail=0.0, counts=None):
        self.spec, self.x, self.w, self.tail = spec, x, w, tail
        self.counts = counts
        self._q, self._w, self._eq, self._d, self._shifts = {}, {}, {}, {}, {}

    @classmethod
    def build(cls, spec, cfg=None, n_nodes=None):
        cfg = cfg or ex.EngineConfig()
        if spec.is_discrete:
            x, w, tail, _ = ex.truncated_support(spec)
            return cls(spec, x, w, tail)
        x, w = ex.continuous_grid(spec, cfg, n_nodes)
        return cls(spec, x, w)

    @classmethod
    def from_samples(cls, spec, xs):
        """The grid of the N samples ``xs``, each of weight 1/N.  A discrete
        member's samples take a few dozen values, so they collapse to the
        distinct values with weights count/N, and the integer ``counts``
        are kept for exact sample sums."""
        if spec.is_discrete:
            x, counts = np.unique(xs, return_counts=True)
            return cls(spec, x, counts / xs.size, counts=counts)
        return cls(spec, xs, 1.0 / xs.size)

    def q_power(self, k):
        """q^k (continuous) or the rising product q^[k] (discrete) at the
        grid points."""
        if k not in self._q:
            if k == 0:
                self._q[k] = np.ones_like(self.x)
            elif self.spec.is_discrete:
                self._q[k] = rising_q(self.spec.q, k, self.x)
            else:
                self._q[k] = self.spec.q(self.x) ** k
        return self._q[k]

    def weight(self, k):
        """Grid weights times w_k, so that E[w_k phi] ~ sum(weight(k) phi)."""
        if k not in self._w:
            self._w[k] = self.w * _nonnegative(self.q_power(k), k)
        return self._w[k]

    def expectation(self, k):
        """E[w_k], the grid sum of q^k (q^[k]) without clipping; a
        non-finite term raises ``NonFiniteIntegrandError``."""
        if k not in self._eq:
            qk = self.q_power(k)
            contrib = self.w * qk
            bad = ~np.isfinite(contrib)
            if np.any(bad):
                i = int(np.argmax(bad))
                node = self.x[i]
                raise NonFiniteIntegrandError(
                    int(node) if self.spec.is_discrete else float(node),
                    float(qk[i]))
            self._eq[k] = float(contrib.sum())
        return self._eq[k]

    def values(self, g, k):
        """Rows of d^k g_i, each function evaluated once per order."""
        have = self._d.setdefault(k, {})
        new = [gi for gi in g if id(gi) not in have]
        if new:
            have.update(zip(map(id, new), self.deriv_values(new, k)))
        return np.vstack([have[id(gi)] for gi in g])

    def deriv_values(self, g, k):
        """Rows of d^k g_i over the grid (exact derivative or forward
        difference)."""
        rows = []
        for gi in g:
            if self.spec.is_discrete:
                shifted = self._shifted(gi, k)
                rows.append(shifted[0] if k == 0
                            else difference_of_rows(shifted, k))
            elif k == 0:
                rows.append(np.asarray(gi(self.x), dtype=float))
            elif not isinstance(gi, SmoothFunction):
                raise TypeError("continuous test functions need exact "
                                "derivatives; got a bare callable")
            else:
                rows.append(np.asarray(gi.derivative_value(k, self.x),
                                       dtype=float))
        return np.vstack(rows)

    def _shifted(self, gi, k):
        """The rows g_i(x), g_i(x + 1), ..., g_i(x + k), each evaluated
        once per grid."""
        _, rows = self._shifts.setdefault(id(gi), (gi, []))
        while len(rows) <= k:
            j = len(rows)
            rows.append(np.asarray(gi(self.x + j if j else self.x),
                                   dtype=float))
        return rows


def _nonnegative(qk, k):
    """Weights clipped at zero; genuinely negative weights mean the spec
    violates its family contract."""
    scale = float(np.max(np.abs(qk))) or 1.0
    if float(np.min(qk)) < -1e-12 * scale:
        raise ClassMembershipError(
            f"weight of order {k} is negative on the support grid; "
            f"the spec is outside its family")
    return np.maximum(qk, 0.0)


def _gram(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    u = values * np.sqrt(weights)
    return u @ u.T


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def _dispersion_array(grid: _Grid, g) -> np.ndarray:
    vals = grid.values(g, 0)
    means = (vals @ grid.w) / float(grid.w.sum())
    return _gram(vals - means[:, None], grid.w)


def _h_array(grid: _Grid, g, k) -> np.ndarray:
    return _gram(grid.values(g, k), grid.weight(k))


def _b_array(grid: _Grid, g, k) -> np.ndarray:
    v = grid.values(g, k) @ grid.weight(k)
    return np.outer(v, v)


# ---------------------------------------------------------------------------
# scalar coefficients
# ---------------------------------------------------------------------------

def _guarded_product(delta: float, js, k: int) -> float:
    prod = 1.0
    for j in js:
        factor = 1.0 - j * delta
        if abs(factor) <= COEFFICIENT_FACTOR_GUARD:
            raise SingularCoefficientError(k, j, delta)
        prod *= factor
    return prod


def poincare_coefficient(delta: float, k: int) -> float:
    """Signed weight (-1)^(k-1) / (k! prod_{j=0}^{k-1} (1 - j delta)).

    Refuses (rather than regularizes) when a factor vanishes: the bound of
    this order is undefined for the family.
    """
    if k < 1:
        raise ValueError("order k must be at least 1")
    prod = _guarded_product(delta, range(k), k)
    sign = 1.0 if (k - 1) % 2 == 0 else -1.0
    return sign / (math.factorial(k) * prod)


# ---------------------------------------------------------------------------
# weighted sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TermWeight:
    k: int
    weight: float | None  # None marks a null-matrix substitution
    expectation: float | None = None  # E[w_k] when it was needed

    @property
    def null(self) -> bool:
        return self.weight is None


def _poincare_weight(spec, grid: _Grid, k) -> TermWeight:
    if spec.is_discrete:
        eq = grid.expectation(k)
        if abs(eq) <= NULL_EXPECTATION_TOL:
            return TermWeight(k, None, eq)
    return TermWeight(k, poincare_coefficient(spec.q.delta, k))


def _bessel_weight(spec, k, eq) -> TermWeight:
    if abs(eq) <= NULL_EXPECTATION_TOL:
        return TermWeight(k, None, eq)
    prod = _guarded_product(spec.q.delta, range(k - 1, 2 * k - 1), k)
    return TermWeight(k, 1.0 / (math.factorial(k) * eq * prod), eq)


def _pair(full: _Grid, half: _Grid, build, what):
    """A matrix on the full grid and its bracket: the largest entry defect
    against the half-resolution grid (none on discrete members, whose
    summation has no coarser rule).  A non-finite entry on the full grid is
    a divergent expectation and raises ``ClassMembershipError`` naming
    ``what``; the overflow that produces it is not warned about."""
    with np.errstate(over="ignore", invalid="ignore"):
        a = build(full)
        if not np.all(np.isfinite(a)):
            raise ClassMembershipError(f"divergent {what}")
        b = a if half is full else build(half)
    return a, float(np.max(np.abs(a - b)))


# ---------------------------------------------------------------------------
# class membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassReport:
    """Per-(function, order) finiteness verdicts for a function class.

    ``verdicts[i][k]`` covers orders k = 0..n; the zeroth order is the
    finite-variance requirement.  ``implies_other`` records the consistency
    note that membership in the Gram class plus a finite 2n-th moment implies
    membership in the outer-product class.
    """

    class_name: str
    n: int
    verdicts: tuple
    ratios: tuple
    implies_other: bool

    @property
    def ok(self) -> bool:
        return all(all(row) for row in self.verdicts)

    def failures(self):
        return [(i, k) for i, row in enumerate(self.verdicts)
                for k, good in enumerate(row) if not good]

    def passing_functions(self):
        return [i for i, row in enumerate(self.verdicts) if all(row)]


class _ClassCheck:
    """Class verdicts of one tuple for the Gram class 'H', the
    outer-product class 'B', both or neither, and the numerical half of the
    moment gate, from one ladder of the spec, built when first needed: w_k
    and every d^k g_i are evaluated once on its nodes (the grid ``nodes``),
    and the rows of an order are classified together with its moment row
    |x|^(2k).  On a discrete member ``nodes`` is the summation grid too."""

    def __init__(self, spec, g, classes, cfg):
        self.spec, self.g, self.cfg = spec, g, cfg
        self.classes = tuple(classes)
        self.unbounded = not all(map(math.isfinite, spec.support))
        self.ladder = self.nodes = None
        self.probes = {cls: [] for cls in self.classes}  # [k][i]
        self.moments = []  # [k]: E|X|^(2k) verdict, None if bounded

    def upto(self, n):
        """Classify the rows of every order up to n not classified yet."""
        if self.ladder is None:
            self.ladder = ex.Ladder.build(self.spec, self.cfg)
            self.nodes = _Grid(self.spec, self.ladder.x, self.ladder.w,
                               self.ladder.tail)
        ladder, nodes, p = self.ladder, self.nodes, len(self.g)
        root_w = np.sqrt(ladder.w)
        orders = range(len(self.moments), n + 1)
        rows, slots = [], []
        # divergent integrands are fed on purpose; inf is a verdict, not a bug
        with np.errstate(over="ignore", invalid="ignore"):
            for k in orders if self.classes else ():
                base = _nonnegative(nodes.q_power(k), k)
                d = nodes.values(self.g, k)
                at = {}
                if "H" in self.classes or k == 0:  # B needs Var[g] < inf too
                    # the node weight goes inside the square, as in _gram,
                    # so a weighted square overflows only where it is itself
                    # huge
                    u = root_w * d
                    at["H"] = at["B"] = len(rows)
                    rows.append(base * (u * u))
                if "B" in self.classes and k > 0:
                    at["B"] = len(rows)
                    rows.append(ladder.w * (base * np.abs(d)))
                slots += [(cls, at[cls]) for cls in self.classes]
            moments = [ladder.w * np.abs(ladder.x) ** (2 * k) for k in orders
                       if self.unbounded]
        probes = ladder.classify(np.vstack(rows + moments)) \
            if rows or moments else []
        for cls, block in slots:
            self.probes[cls].append(probes[block * p:(block + 1) * p])
        self.moments += probes[len(rows) * p:] or [None] * len(orders)
        return self

    def moment_finite(self, n) -> bool:
        """Whether E|X|^(2n) is finite: the Pearson criterion, and where it
        admits order n on an unbounded support, the moment row of order n."""
        return moment_criterion(self.spec, n) and (
            not self.unbounded or self.upto(n).moments[n].finite)

    def report(self, cls, n, implies_other=False) -> ClassReport:
        rows = list(zip(*self.probes[cls][:n + 1]))  # [function][order]
        return ClassReport(cls, n,
                           tuple(tuple(p.finite for p in r) for r in rows),
                           tuple(tuple(p.decay_ratio for p in r) for r in rows),
                           implies_other)


def moment_finiteness(spec: Spec, n: int,
                      cfg: ex.EngineConfig | None = None) -> bool:
    """Whether E|X|^(2n) is finite: the Pearson tail criterion
    (``distributions.moment_criterion``) and, where it admits order n on an
    unbounded support, the stabilization of the truncated moment on the
    spec's ladder, so that a wrong edge case cannot silently pass."""
    return _ClassCheck(spec, (), (), cfg or ex.EngineConfig()).moment_finite(n)


def check_class(spec: Spec, g: FunctionTuple, n: int, class_name: str,
                cfg: ex.EngineConfig | None = None) -> ClassReport:
    """Numerical membership check for the Gram class ('H') or the
    outer-product class ('B').

    'H' requires E[w_k (d^k g)^2] < infinity for k = 0..n; 'B' requires
    finite variance and E[w_k |d^k g|] < infinity for k = 0..n.  Finiteness
    is judged by stabilization of truncated expectations over one expanding
    window ladder: w_k and every d^k g_i are evaluated once on its nodes and
    all p (n + 1) integrands are classified together.  The moment gate
    behind ``implies_other`` is read off the same ladder.
    """
    cfg = cfg or ex.EngineConfig()
    if class_name not in ("H", "B"):
        raise ValueError("class must be 'H' or 'B'")
    check = _ClassCheck(spec, g, (class_name,), cfg).upto(n)
    report = check.report(class_name, n)
    if class_name == "H" and report.ok:
        return check.report(class_name, n, check.moment_finite(n))
    return report


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    """Everything one certification run produced: the matrices, the scalar
    weights (with null-matrix substitutions recorded), eigenvalue-based
    verdicts, and the engine provenance."""

    n: int
    p: int
    D: SymMatrix
    H: list[SymMatrix] = field(default_factory=list)
    B: list[SymMatrix] = field(default_factory=list)
    S: SymMatrix | None = None
    L: SymMatrix | None = None
    A: SymMatrix | None = None
    poincare_weights: list[TermWeight] = field(default_factory=list)
    bessel_weights: list[TermWeight] = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    tol: float = 0.0
    provenance: dict = field(default_factory=dict)
    _d_minus_l: SymMatrix | None = field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        return all(v.ok for v in self.verdicts.values())

    def to_json_dict(self) -> dict:
        def arr(m):
            return None if m is None else m.to_array().tolist()

        def weights(ws):
            return [{"k": tw.k, "weight": tw.weight, "null": tw.null,
                     "expectation": tw.expectation} for tw in ws]

        return {
            "n": self.n,
            "p": self.p,
            "D": arr(self.D),
            "H": [arr(h) for h in self.H],
            "B": [arr(b) for b in self.B],
            "S": arr(self.S),
            "L": arr(self.L),
            "A": arr(self.A),
            "coefficients": {"poincare": weights(self.poincare_weights),
                             "bessel": weights(self.bessel_weights)},
            "verdicts": {name: {"pass": bool(v.ok),
                                "min_eig": v.min_eigenvalue,
                                "tol": v.tol}
                         for name, v in self.verdicts.items()},
            "tol": self.tol,
            "provenance": self.provenance,
        }

    def eigen_rows(self):
        """Flat (n, matrix, index, eigenvalue) rows for CSV plotting."""
        rows = []
        named = [("D", self.D), ("S", self.S), ("L", self.L), ("A", self.A)]
        named += [(f"H{k + 1}", h) for k, h in enumerate(self.H)]
        named += [(f"B{k + 1}", b) for k, b in enumerate(self.B)]
        named.append(("D-L", self._d_minus_l))  # solved by the verdict
        for name, m in named:
            if m is None:
                continue
            for i, val in enumerate(eigenvalues(m)):
                rows.append((self.n, name, i, float(val)))
        return rows


class _Pass:
    """One request's assembly: the full and half-resolution grids, the
    coefficients of every order, and per set of functions kept, D and, for
    H and B, the terms H_k (B_k) with their entry brackets, the prefix sums
    S_n (L_n) and the running maxima of the brackets.  A discrete member's
    summation grid is ``full``, the class check's when it built one."""

    def __init__(self, spec, cfg, theorems, tol_scale, full=None):
        self.spec, self.cfg = spec, cfg
        self.theorems, self.tol_scale = theorems, tol_scale
        self.full = full or _Grid.build(spec, cfg)
        self.half = self.full if spec.is_discrete else _Grid.build(
            spec, cfg, max(10, cfg.quad_nodes // 2))
        self.weights = {"H": [], "B": []}  # TermWeight of order 1, 2, ...
        self.subsets = {}

    def _subset(self, g):
        key = tuple(map(id, g))
        if key not in self.subsets:
            d, bracket = _pair(self.full, self.half,
                               lambda grid: _dispersion_array(grid, g),
                               "second moment in dispersion matrix")
            d = SymMatrix.from_array(d)
            zeros = np.zeros((g.p, g.p))
            self.subsets[key] = (d, bracket, spectral_radius(d),
                                 {kind: ([], [0.0], [zeros]) for kind in "HB"})
        return self.subsets[key]

    def report(self, n, g, dropped) -> BoundReport:
        spec, cfg = self.spec, self.cfg
        d, d_bracket, rho, terms = self._subset(g)
        report = BoundReport(n=n, p=g.p, D=d,
                             tol=self.tol_scale * (1.0 + rho))
        brackets = {"D": d_bracket}
        for name, kind in (("poincare", "H"), ("bessel", "B")):
            if name not in self.theorems:
                continue
            weights = self.weights[kind]
            for k in range(len(weights) + 1, n + 1):
                weights.append(
                    _poincare_weight(spec, self.full, k) if kind == "H"
                    else _bessel_weight(spec, k, self.full.expectation(k)))
            build, what = ((_h_array, "Gram matrix") if kind == "H"
                           else (_b_array, "outer product"))
            mats, worst, sums = terms[kind]
            for tw in weights[len(mats):n]:
                arr, bracket = _pair(self.full, self.half,
                                     lambda grid: build(grid, g, tw.k),
                                     f"entry in order-{tw.k} {what}")
                mats.append(SymMatrix.from_array(arr))
                worst.append(max(worst[-1], bracket))
                sums.append(sums[-1] if tw.null else sums[-1] + tw.weight * arr)
            total = SymMatrix.from_array(sums[n])
            brackets[kind + "_max"] = worst[n]
            if kind == "H":
                report.poincare_weights, report.H = weights[:n], mats[:n]
                sign = 1.0 if n % 2 == 0 else -1.0
                report.S, report.A = total, sign * (d - total)
                report.verdicts[name] = is_psd(report.A, report.tol)
            else:
                report.bessel_weights, report.B = weights[:n], mats[:n]
                report.L, report._d_minus_l = total, d - total
                report.verdicts[name] = is_psd(report._d_minus_l, report.tol)

        report.provenance = {
            "engine": asdict(cfg),
            "tol_scale": self.tol_scale,
            "spectral_radius_D": rho,
            "entry_brackets": brackets,
            "discrete_tail_bound": self.full.tail,
            "dropped_functions": dropped,
            "null_terms": [tw.k for tw in
                           report.poincare_weights + report.bessel_weights
                           if tw.null],
        }
        return report


def bound_reports(spec: Spec, g: FunctionTuple, orders,
                  cfg: ex.EngineConfig | None = None,
                  theorems=("poincare", "bessel"),
                  tol_scale: float = DEFAULT_TOL_SCALE,
                  class_policy: str = "raise") -> list[BoundReport]:
    """Run the certification pipeline for every order in ``orders`` in one
    pass; returns one report per entry of ``orders``, in its order.

    Each report is the one ``bound_report`` gives for its order alone, but
    the grids, derivative rows, the one ladder of the moment gate and class
    checks (on a discrete member also the summation grid), and the matrices
    are shared: S_n and L_n are prefix sums of one set of H_k and B_k.
    Orders are gated in ascending order, each as its own call would gate it
    (moment gate, class checks on the prefix k <= n, coefficients), so a
    refused order raises what its own call raises.
    ``class_policy`` is as in ``bound_report``; with 'drop' each order keeps
    the functions that pass its own checks.
    """
    cfg = cfg or ex.EngineConfig()
    orders = list(orders)
    if any(n < 1 for n in orders):
        raise ValueError("order n must be at least 1")
    if spec.q is None:
        raise InvalidParameterError(
            "spec has no quadratic; infer or declare one first")
    theorems = tuple(theorems)
    unknown = set(theorems) - {"poincare", "bessel"}
    if unknown:
        raise ValueError(f"unknown theorems {sorted(unknown)}")
    if class_policy not in ("raise", "drop", "skip"):
        raise ValueError("class_policy must be 'raise', 'drop' or 'skip'")
    check = _ClassCheck(spec, g, [
        cls for name, cls in (("poincare", "H"), ("bessel", "B"))
        if name in theorems and class_policy != "skip"], cfg)
    assembly = None
    done = {}
    for n in sorted(set(orders)):
        if not check.moment_finite(n):
            raise ClassMembershipError(
                f"E|X|^{2 * n} is not finite for this member; order {n} "
                f"bounds do not apply")
        keep, dropped = set(range(g.p)), []
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
            if class_policy == "drop":
                dropped = sorted(set(range(g.p)) - keep)
                if not keep:
                    raise ClassMembershipError(
                        "no test function passes the class checks", ())
        assembly = assembly or _Pass(spec, cfg, theorems, tol_scale,
                                     check.nodes if spec.is_discrete
                                     else None)
        kept = g.subset(sorted(keep)) if dropped else g
        done[n] = assembly.report(n, kept, dropped)
    return [done[n] for n in orders]


def bound_report(spec: Spec, g: FunctionTuple, n: int,
                 cfg: ex.EngineConfig | None = None,
                 theorems=("poincare", "bessel"),
                 tol_scale: float = DEFAULT_TOL_SCALE,
                 class_policy: str = "raise") -> BoundReport:
    """Run the full certification pipeline for one order n.

    ``class_policy`` controls what happens when a test function fails its
    class check: 'raise' (default) aborts, 'drop' silently removes the
    offending functions and certifies the rest, 'skip' trusts the caller and
    runs no checks.  The PSD tolerance scales with the spectral radius of D
    so tuples at different scales are judged uniformly.
    """
    return bound_reports(spec, g, (n,), cfg, theorems, tol_scale,
                         class_policy)[0]
