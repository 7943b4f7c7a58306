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
from dataclasses import dataclass, field

import numpy as np

from . import expectation as ex
from .calculus import FunctionTuple, SmoothFunction, forward_difference, rising_q
from .distributions import Spec, moment_finiteness
from .errors import (ClassMembershipError, InvalidParameterError,
                     SingularCoefficientError)
from .linalg import PsdVerdict, SymMatrix, is_psd, loewner_leq, spectral_radius

COEFFICIENT_FACTOR_GUARD = 1e-10
NULL_EXPECTATION_TOL = 1e-12
DEFAULT_TOL_SCALE = 1e-6


# ---------------------------------------------------------------------------
# evaluation grids
# ---------------------------------------------------------------------------

class _Grid:
    """Shared evaluation grid: points x, nonnegative weights w with
    sum(w * phi(x)) ~ E[phi(X)], plus the tail bound for discrete members."""

    def __init__(self, x, w, tail=0.0):
        self.x = x
        self.w = w
        self.tail = tail

    @classmethod
    def build(cls, spec, cfg, n_nodes=None):
        if spec.is_discrete:
            js, tail = ex.truncated_support(spec, cfg.trunc_tol)
            x = js.astype(float)
            return cls(x, np.asarray(spec.pmf(js), dtype=float), tail)
        x, w = ex.continuous_grid(spec, cfg, n_nodes)
        return cls(x, w)

    def weight_k(self, spec, k):
        """q^k (continuous) or the rising product q^[k] (discrete) at the
        grid points, clipped at zero; genuinely negative weights mean the
        spec violates its family contract."""
        if k == 0:
            qk = np.ones_like(self.x)
        elif spec.is_discrete:
            qk = rising_q(spec.q, k, self.x)
        else:
            qk = spec.q(self.x) ** k
        scale = float(np.max(np.abs(qk))) or 1.0
        if float(np.min(qk)) < -1e-12 * scale:
            raise ClassMembershipError(
                f"weight of order {k} is negative on the support grid; "
                f"the spec is outside its family")
        return np.maximum(qk, 0.0)

    def deriv_values(self, spec, g, k):
        """Rows of d^k g_i over the grid (exact derivative or forward
        difference)."""
        rows = []
        for gi in g:
            if spec.is_discrete:
                if k == 0:
                    rows.append(np.asarray(gi(self.x), dtype=float))
                else:
                    rows.append(forward_difference(gi, k, self.x))
            else:
                if k == 0:
                    rows.append(np.asarray(gi(self.x), dtype=float))
                else:
                    if not isinstance(gi, SmoothFunction):
                        raise TypeError(
                            "continuous test functions need exact derivatives; "
                            "got a bare callable")
                    rows.append(np.asarray(gi.derivative_value(k, self.x),
                                           dtype=float))
        return np.vstack(rows)


def _gram(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    u = values * np.sqrt(weights)
    return u @ u.T


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def _dispersion_array(spec, g, grid: _Grid) -> np.ndarray:
    vals = grid.deriv_values(spec, g, 0)
    total = float(grid.w.sum())
    means = (vals @ grid.w) / total
    centered = vals - means[:, None]
    return _gram(centered, grid.w)


def dispersion_matrix(spec: Spec, g: FunctionTuple,
                      cfg: ex.EngineConfig | None = None) -> SymMatrix:
    """Covariance matrix D of the random vector (g_1(X), ..., g_p(X))."""
    cfg = cfg or ex.EngineConfig()
    grid = _Grid.build(spec, cfg)
    d = _dispersion_array(spec, g, grid)
    if not np.all(np.isfinite(d)):
        raise ClassMembershipError("divergent second moment in dispersion matrix")
    return SymMatrix.from_array(d)


def _h_array(spec, g, k, grid: _Grid) -> np.ndarray:
    vals = grid.deriv_values(spec, g, k)
    return _gram(vals, grid.w * grid.weight_k(spec, k))


def matrix_H(spec: Spec, g: FunctionTuple, k: int,
             cfg: ex.EngineConfig | None = None) -> SymMatrix:
    """Weighted derivative Gram matrix of order k (PSD by construction)."""
    cfg = cfg or ex.EngineConfig()
    h = _h_array(spec, g, k, _Grid.build(spec, cfg))
    if not np.all(np.isfinite(h)):
        raise ClassMembershipError(f"divergent entry in order-{k} Gram matrix")
    return SymMatrix.from_array(h)


def _b_array(spec, g, k, grid: _Grid) -> np.ndarray:
    vals = grid.deriv_values(spec, g, k)
    v = vals @ (grid.w * grid.weight_k(spec, k))
    return np.outer(v, v)


def matrix_B(spec: Spec, g: FunctionTuple, k: int,
             cfg: ex.EngineConfig | None = None) -> SymMatrix:
    """Rank-one outer product of the weighted mean derivatives of order k."""
    cfg = cfg or ex.EngineConfig()
    b = _b_array(spec, g, k, _Grid.build(spec, cfg))
    if not np.all(np.isfinite(b)):
        raise ClassMembershipError(f"divergent entry in order-{k} outer product")
    return SymMatrix.from_array(b)


def q_power_expectation(spec: Spec, k: int,
                        cfg: ex.EngineConfig | None = None) -> ex.ExpectationResult:
    """E[q^k(X)] (continuous) or E[q^[k](X)] (discrete)."""
    cfg = cfg or ex.EngineConfig()
    if spec.is_discrete:
        return ex.expect_discrete(spec, lambda j: rising_q(spec.q, k, j), cfg)
    return ex.expect_continuous(spec, lambda x: spec.q(x) ** k, cfg)


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


def bessel_coefficient(spec: Spec, k: int,
                       cfg: ex.EngineConfig | None = None) -> float | None:
    """Weight 1 / (k! E[w_k] prod_{j=k-1}^{2k-2} (1 - j delta)), or None when
    E[w_k] vanishes and the summand must be the null matrix."""
    if k < 1:
        raise ValueError("order k must be at least 1")
    cfg = cfg or ex.EngineConfig()
    delta = spec.q.delta
    prod = _guarded_product(delta, range(k - 1, 2 * k - 1), k)
    eq = q_power_expectation(spec, k, cfg).value
    if abs(eq) <= NULL_EXPECTATION_TOL:
        return None
    return 1.0 / (math.factorial(k) * eq * prod)


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


def _poincare_weights(spec, n, cfg):
    weights = []
    for k in range(1, n + 1):
        if spec.is_discrete:
            eq = q_power_expectation(spec, k, cfg).value
            if abs(eq) <= NULL_EXPECTATION_TOL:
                weights.append(TermWeight(k, None, eq))
                continue
        weights.append(TermWeight(k, poincare_coefficient(spec.q.delta, k)))
    return weights


def _bessel_weights(spec, n, cfg):
    weights = []
    for k in range(1, n + 1):
        eq = q_power_expectation(spec, k, cfg).value
        if abs(eq) <= NULL_EXPECTATION_TOL:
            weights.append(TermWeight(k, None, eq))
            continue
        delta = spec.q.delta
        prod = _guarded_product(delta, range(k - 1, 2 * k - 1), k)
        weights.append(TermWeight(k, 1.0 / (math.factorial(k) * eq * prod), eq))
    return weights


def matrix_S(spec: Spec, g: FunctionTuple, n: int,
             cfg: ex.EngineConfig | None = None) -> SymMatrix:
    """Alternating weighted sum of the Gram matrices up to order n."""
    cfg = cfg or ex.EngineConfig()
    grid = _Grid.build(spec, cfg)
    s = np.zeros((g.p, g.p))
    for tw in _poincare_weights(spec, n, cfg):
        if not tw.null:
            s += tw.weight * _h_array(spec, g, tw.k, grid)
    return SymMatrix.from_array(s)


def matrix_L(spec: Spec, g: FunctionTuple, n: int,
             cfg: ex.EngineConfig | None = None) -> SymMatrix:
    """Weighted sum of the rank-one matrices up to order n."""
    cfg = cfg or ex.EngineConfig()
    grid = _Grid.build(spec, cfg)
    m = np.zeros((g.p, g.p))
    for tw in _bessel_weights(spec, n, cfg):
        if not tw.null:
            m += tw.weight * _b_array(spec, g, tw.k, grid)
    return SymMatrix.from_array(m)


def matrix_A(spec: Spec, g: FunctionTuple, n: int,
             cfg: ex.EngineConfig | None = None) -> SymMatrix:
    """Signed defect (-1)^n (D - S_n); nonnegative definite for members."""
    cfg = cfg or ex.EngineConfig()
    d = dispersion_matrix(spec, g, cfg)
    s = matrix_S(spec, g, n, cfg)
    sign = 1.0 if n % 2 == 0 else -1.0
    return sign * (d - s)


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


def check_class(spec: Spec, g: FunctionTuple, n: int, class_name: str,
                cfg: ex.EngineConfig | None = None) -> ClassReport:
    """Numerical membership check for the Gram class ('H') or the
    outer-product class ('B').

    'H' requires E[w_k (d^k g)^2] < infinity for k = 0..n; 'B' requires
    finite variance and E[w_k |d^k g|] < infinity for k = 0..n.  Finiteness
    is judged by stabilization of truncated expectations over one expanding
    window ladder: w_k and every d^k g_i are evaluated once on its nodes and
    all p (n + 1) integrands are classified together.
    """
    cfg = cfg or ex.EngineConfig()
    if class_name not in ("H", "B"):
        raise ValueError("class must be 'H' or 'B'")
    squared = class_name == "H"
    ladder = ex.Ladder.build(spec, cfg)
    nodes = _Grid(ladder.x, ladder.w)
    root_w = np.sqrt(ladder.w)
    rows = []
    # divergent integrands are fed on purpose; inf is a verdict, not a bug
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n + 1):
            base = nodes.weight_k(spec, k)
            d = nodes.deriv_values(spec, g, k)
            if squared or k == 0:  # the B class still needs Var[g] < inf
                # the node weight goes inside the square, as in _gram, so
                # a weighted square overflows only where it is itself huge
                u = root_w * d
                rows.append(base * (u * u))
            else:
                rows.append(ladder.w * (base * np.abs(d)))
    probes = ladder.classify(np.vstack(rows))
    verdicts = tuple(tuple(probes[k * g.p + i].finite for k in range(n + 1))
                     for i in range(g.p))
    ratios = tuple(tuple(probes[k * g.p + i].decay_ratio for k in range(n + 1))
                   for i in range(g.p))
    implies = False
    if squared and all(all(row) for row in verdicts):
        implies = moment_finiteness(spec, n, cfg)
    return ClassReport(class_name, n, verdicts, ratios, implies)


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
        from .linalg import jacobi_eigenvalues
        rows = []
        named = [("D", self.D), ("S", self.S), ("L", self.L), ("A", self.A)]
        named += [(f"H{k + 1}", h) for k, h in enumerate(self.H)]
        named += [(f"B{k + 1}", b) for k, b in enumerate(self.B)]
        if self.L is not None:
            named.append(("D-L", self.D - self.L))
        for name, m in named:
            if m is None:
                continue
            for i, val in enumerate(jacobi_eigenvalues(m)):
                rows.append((self.n, name, i, float(val)))
        return rows


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
    cfg = cfg or ex.EngineConfig()
    if n < 1:
        raise ValueError("order n must be at least 1")
    if spec.q is None:
        raise InvalidParameterError(
            "spec has no quadratic; infer or declare one first")
    theorems = tuple(theorems)
    unknown = set(theorems) - {"poincare", "bessel"}
    if unknown:
        raise ValueError(f"unknown theorems {sorted(unknown)}")
    if not moment_finiteness(spec, n, cfg):
        raise ClassMembershipError(
            f"E|X|^{2 * n} is not finite for this member; order {n} bounds "
            f"do not apply")

    dropped = []
    if class_policy not in ("raise", "drop", "skip"):
        raise ValueError("class_policy must be 'raise', 'drop' or 'skip'")
    if class_policy != "skip":
        keep = set(range(g.p))
        for name, cls in (("poincare", "H"), ("bessel", "B")):
            if name not in theorems:
                continue
            report = check_class(spec, g, n, cls, cfg)
            if not report.ok:
                if class_policy == "raise":
                    raise ClassMembershipError(
                        f"class {cls} check failed at (function, order) pairs "
                        f"{report.failures()}", report.failures())
                keep &= set(report.passing_functions())
        if class_policy == "drop":
            dropped = sorted(set(range(g.p)) - keep)
            if not keep:
                raise ClassMembershipError(
                    "no test function passes the class checks", ())
            if dropped:
                g = g.subset(sorted(keep))

    grid = _Grid.build(spec, cfg)
    grid_half = _Grid.build(spec, cfg, max(10, cfg.quad_nodes // 2)) \
        if not spec.is_discrete else grid

    def with_bracket(builder):
        full = builder(grid)
        half = builder(grid_half)
        return full, float(np.max(np.abs(full - half)))

    d_arr, d_bracket = with_bracket(lambda gr: _dispersion_array(spec, g, gr))
    report = BoundReport(n=n, p=g.p, D=SymMatrix.from_array(d_arr))
    rho = spectral_radius(report.D)
    report.tol = tol_scale * (1.0 + rho)
    brackets = {"D": d_bracket}

    if "poincare" in theorems:
        report.poincare_weights = _poincare_weights(spec, n, cfg)
        s = np.zeros((g.p, g.p))
        hb = 0.0
        for tw in report.poincare_weights:
            h_arr, h_bracket = with_bracket(
                lambda gr, k=tw.k: _h_array(spec, g, k, gr))
            report.H.append(SymMatrix.from_array(h_arr))
            hb = max(hb, h_bracket)
            if not tw.null:
                s += tw.weight * h_arr
        report.S = SymMatrix.from_array(s)
        sign = 1.0 if n % 2 == 0 else -1.0
        report.A = sign * (report.D - report.S)
        report.verdicts["poincare"] = is_psd(report.A, report.tol)
        brackets["H_max"] = hb

    if "bessel" in theorems:
        report.bessel_weights = _bessel_weights(spec, n, cfg)
        m = np.zeros((g.p, g.p))
        bb = 0.0
        for tw in report.bessel_weights:
            b_arr, b_bracket = with_bracket(
                lambda gr, k=tw.k: _b_array(spec, g, k, gr))
            report.B.append(SymMatrix.from_array(b_arr))
            bb = max(bb, b_bracket)
            if not tw.null:
                m += tw.weight * b_arr
        report.L = SymMatrix.from_array(m)
        report.verdicts["bessel"] = loewner_leq(report.L, report.D, report.tol)
        brackets["B_max"] = bb

    report.provenance = {
        "engine": {"quad_nodes": cfg.quad_nodes,
                   "infinite_map": cfg.infinite_map,
                   "trunc_tol": cfg.trunc_tol,
                   "mc_samples": cfg.mc_samples,
                   "mc_seed": cfg.mc_seed},
        "tol_scale": tol_scale,
        "spectral_radius_D": rho,
        "entry_brackets": brackets,
        "discrete_tail_bound": grid.tail,
        "dropped_functions": dropped,
        "null_terms": [tw.k for tw in
                       report.poincare_weights + report.bessel_weights
                       if tw.null],
    }
    return report
