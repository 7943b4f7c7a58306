"""Integrated Pearson (continuous) and Cumulative Ord (discrete) family
members.

A continuous member IP(mu; delta, beta, gamma) has a density f whose
cumulative identity

    integral_{alpha}^{x} (mu - t) f(t) dt = q(x) f(x),   q(x) = delta x^2 + beta x + gamma,

holds on the whole line; a discrete member CO(mu; delta, beta, gamma)
satisfies the prefix-sum analogue

    sum_{k <= j} (mu - k) p(k) = q(j) p(j).

The quadratic q is the object every bound coefficient is built from.  The
catalog ships analytically known quadratics; everything else can be inferred
from the identity itself via :func:`infer_quadratic`, which doubles as the
membership oracle.

The catalog densities and pmfs need only log Gamma of positive arguments,
which :func:`_lgamma` computes with numpy and ``math``; ``scipy.special`` is
imported by the gamma, beta and normal samplers on their first draw, so the
deterministic path never loads scipy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from . import expectation as ex
from .errors import (InvalidParameterError, RankDeficientFitError,
                     UnknownDistributionError)

DENSITY_FLOOR = 1e-12  # relative to the max density on the grid
CONTINUOUS_RESIDUAL_TOL = 1e-8
DISCRETE_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class Quadratic:
    """q(x) = delta x^2 + beta x + gamma with the nondegeneracy condition
    |delta| + |beta| + |gamma| > 0."""

    delta: float
    beta: float
    gamma: float

    def __post_init__(self):
        coeffs = (self.delta, self.beta, self.gamma)
        if not all(math.isfinite(c) for c in coeffs):
            raise InvalidParameterError("quadratic coefficients must be finite")
        if abs(self.delta) + abs(self.beta) + abs(self.gamma) == 0.0:
            raise InvalidParameterError("quadratic must not vanish identically")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = (self.delta * x + self.beta) * x + self.gamma
        return out if out.shape else float(out)

    def as_tuple(self):
        return (self.delta, self.beta, self.gamma)


@dataclass(frozen=True)
class ContinuousIP:
    """Integrated Pearson member: mean, quadratic, open support interval,
    density evaluator and optional inverse-transform sampler."""

    mean: float
    q: Optional[Quadratic]
    support: tuple
    density: Callable
    sampler: Optional[Callable] = None
    name: str = "custom"
    params: dict = field(default_factory=dict)
    # the "custom" document a tabulated member was loaded from
    custom: Optional[dict] = field(default=None, repr=False, compare=False)

    is_discrete = False

    def __post_init__(self):
        alpha, omega = self.support
        if not alpha < omega:
            raise InvalidParameterError("support interval is empty")

    def __repr__(self):
        return f"ContinuousIP({self.name}, mean={self.mean}, q={self.q})"


@dataclass(frozen=True)
class DiscreteCO:
    """Cumulative Ord member: mean, quadratic, integer support interval,
    pmf evaluator and optional inverse-transform sampler."""

    mean: float
    q: Optional[Quadratic]
    support: tuple
    pmf: Callable
    sampler: Optional[Callable] = None
    name: str = "custom"
    params: dict = field(default_factory=dict)
    # the "custom" document a tabulated member was loaded from
    custom: Optional[dict] = field(default=None, repr=False, compare=False)

    is_discrete = True

    def __post_init__(self):
        alpha, omega = self.support
        if not alpha <= omega:
            raise InvalidParameterError("support interval is empty")

    def __repr__(self):
        return f"DiscreteCO({self.name}, mean={self.mean}, q={self.q})"


Spec = ContinuousIP | DiscreteCO


# ---------------------------------------------------------------------------
# log Gamma
# ---------------------------------------------------------------------------

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# Stirling's series for log Gamma(z) - (z - 1/2) log z + z - log(2 pi)/2:
# sum_k B_2k / (2k (2k - 1) z^(2k - 1)) through 1/(156 z^13), whose next
# term is below 4e-17 for z >= _STIRLING_FROM
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
             -691 / 360360, 1 / 156)
_STIRLING_FROM = 10.0


def _lgamma(x):
    """log Gamma(x) for x > 0, elementwise: Stirling's series from
    _STIRLING_FROM up, ``math.lgamma`` on the few entries below.  Each call
    pays a dozen small numpy passes, so a pmf stacks its arguments into
    one call."""
    x = np.asarray(x, dtype=float)
    if not x.shape:
        return math.lgamma(x)
    z = np.maximum(x, _STIRLING_FROM)
    r2 = 1.0 / (z * z)
    series = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        series = series * r2 + c
    out = (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI + series / z
    small = x < _STIRLING_FROM
    out[small] = [math.lgamma(v) for v in x[small].tolist()]
    return out


# ---------------------------------------------------------------------------
# gamma and beta quantiles for the inverse-transform samplers
# ---------------------------------------------------------------------------
#
# scipy's inverse incomplete gamma and beta functions cost up to 20x their
# forward functions per draw.  The samplers call them only at the nodes of a
# table evenly spaced in logit(u) over the range of the draws, seed each draw
# by linear interpolation in that table, and finish with Halley steps on the
# forward function.  They import ``scipy.special`` where they use it, so
# that only sampling loads scipy.

_QUANTILE_NODES = 2048
# a relative Halley step below this leaves an error of the order of its
# cube, which is roundoff; a draw is stepped again while its last step was
# larger, for at most _HALLEY_ROUNDS steps
_HALLEY_STEP = 1e-5
_HALLEY_ROUNDS = 4


def _by_tail(u, c, lower, upper):
    """A library inverse at u: ``lower(u)`` for u <= 1/2, and ``upper(c)``
    on the complement c = 1 - u, which is exact there, for u > 1/2."""
    out = np.empty(u.shape)
    low = u <= 0.5
    out[low] = lower(u[low])
    out[~low] = upper(c[~low])
    return out


def _table_seeds(u, inverse):
    """``inverse(p, 1 - p)`` tabulated at _QUANTILE_NODES points evenly
    spaced in logit(p) over the range of the draws u, and interpolated
    linearly at each draw."""
    from scipy import special
    t = np.log(u) - np.log1p(-u)
    lo, hi = float(t.min()), float(t.max())
    nodes = np.linspace(lo, hi, _QUANTILE_NODES)
    values = inverse(special.expit(nodes), special.expit(-nodes))
    # the nodes are evenly spaced, so a draw's cell is found by arithmetic
    pos = (t - lo) * ((_QUANTILE_NODES - 1) / (hi - lo) if hi > lo else 0.0)
    i = np.minimum(pos.astype(np.intp), _QUANTILE_NODES - 2)
    # a node whose quantile underflowed gives a nan seed
    with np.errstate(invalid="ignore"):
        return values[i] + (pos - i) * np.diff(values)[i]


def _halley(z, target, cdf, sign, log_zpdf, kappa):
    """Halley steps toward cdf(z) = target, in place on the seeds z.

    The step is taken in relative form, z <- z (1 - d / (1 - d kappa / 2))
    with d = sign (cdf(z) - target) / (z pdf(z)) and kappa = z pdf'/pdf;
    ``sign`` is -1 when ``cdf`` is the complement.  Returns the indices of
    the draws that did not settle: a seed that is not a positive normal
    number, or steps that did not shrink below _HALLEY_STEP.
    """
    settled = np.zeros(z.shape, dtype=bool)
    todo = np.flatnonzero(z >= np.finfo(float).tiny)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_HALLEY_ROUNDS):
            if not todo.size:
                break
            zt = z[todo]
            d = sign * (cdf(zt) - target[todo]) * np.exp(-log_zpdf(zt))
            step = d / (1.0 - 0.5 * d * kappa(zt))
            z[todo] = zt * (1.0 - step)
            done = np.abs(step) <= _HALLEY_STEP
            settled[todo[done]] = True
            todo = todo[~done]
    return np.flatnonzero(~settled)


def _gamma_quantile(a, u):
    """Quantiles of the unit-scale gamma(a) at the draws u in (0, 1), as
    a flat array.

    Halley steps on P(a, x) = u, or above x = max(1, a) on the complement
    Q(a, x) = 1 - u (scipy's Q costs 10-40x P below x = 1 for small a).
    A draw that does not settle takes the library inverse.
    """
    from scipy import special
    u = np.asarray(u, dtype=float).ravel()
    c = 1.0 - u

    def inverse(p, q):
        return _by_tail(p, q, lambda p: special.gammaincinv(a, p),
                        lambda q: special.gammainccinv(a, q))

    with np.errstate(divide="ignore"):
        x = np.exp(_table_seeds(u, lambda p, q: np.log(inverse(p, q))))
    log_norm = special.gammaln(a)

    def log_xpdf(z):
        return a * np.log(z) - z - log_norm

    def kappa(z):
        return a - 1.0 - z

    upper = x > max(1.0, a)
    stray = []
    for part, cdf, target, sign in (
            (~upper, lambda z: special.gammainc(a, z), u, 1.0),
            (upper, lambda z: special.gammaincc(a, z), c, -1.0)):
        idx = np.flatnonzero(part)
        z = x[idx]
        stray.append(idx[_halley(z, target[idx], cdf, sign, log_xpdf, kappa)])
        x[idx] = z
    stray = np.concatenate(stray)
    x[stray] = inverse(u[stray], c[stray])
    return x


def _beta_halley(a, b, z, target):
    """``_halley`` on I_z(a, b) = target."""
    from scipy import special
    log_norm = special.betaln(a, b)
    return _halley(
        z, target, lambda v: special.betainc(a, b, v), 1.0,
        lambda v: a * np.log(v) + (b - 1.0) * np.log1p(-v) - log_norm,
        lambda v: (a - 1.0) - (b - 1.0) * v / (1.0 - v))


def _beta_quantile(a, b, u):
    """Quantiles x of beta(a, b) at the draws u in (0, 1), with 1 - x,
    as flat arrays.

    Halley steps on I_x(a, b) = u below the mean; above it, on
    I_y(b, a) = 1 - u in y = 1 - x, so both come out to relative accuracy.
    A draw that does not settle takes the library inverse.
    """
    from scipy import special
    u = np.asarray(u, dtype=float).ravel()
    c = 1.0 - u

    def logit_inverse(p, q):
        return _by_tail(
            p, q, lambda p: special.logit(special.betaincinv(a, b, p)),
            lambda q: -special.logit(special.betaincinv(b, a, q)))

    s = _table_seeds(u, logit_inverse)
    x, y = special.expit(s), special.expit(-s)
    upper = x > a / (a + b)
    stray = []
    for part, z, params, target in ((~upper, x, (a, b), u),
                                    (upper, y, (b, a), c)):
        idx = np.flatnonzero(part)
        zi = z[idx]
        stray.append(idx[_beta_halley(*params, zi, target[idx])])
        z[idx] = zi
    x, y = np.where(upper, 1.0 - y, x), np.where(upper, y, 1.0 - x)
    stray = np.concatenate(stray)
    s = logit_inverse(u[stray], c[stray])
    x[stray], y[stray] = special.expit(s), special.expit(-s)
    return x, y


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _require(cond, message):
    if not cond:
        raise InvalidParameterError(message)


def _param(params, *names, default=None):
    for name in names:
        if name in params:
            return params[name]
    if default is not None:
        return default
    raise InvalidParameterError(f"missing parameter {names[0]!r}")


def _normal(params):
    m = float(_param(params, "mean", default=0.0))
    v = float(_param(params, "var", default=1.0))
    _require(v > 0, "normal variance must be positive")
    norm = 1.0 / math.sqrt(2.0 * math.pi * v)

    def density(x):
        return norm * np.exp(-0.5 * (np.asarray(x, dtype=float) - m) ** 2 / v)

    def sampler(u):
        from scipy import special
        return m + math.sqrt(v) * special.ndtri(u)

    return ContinuousIP(m, Quadratic(0.0, 0.0, v), (-math.inf, math.inf),
                        density, sampler, "normal", {"mean": m, "var": v})


def _gamma(params):
    a = float(_param(params, "shape"))
    th = float(_param(params, "scale", default=1.0))
    _require(a > 0 and th > 0, "gamma shape and scale must be positive")
    logc = -math.lgamma(a) - a * math.log(th)

    def density(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        pos = x > 0
        xp = x[pos]
        out[pos] = np.exp(logc + (a - 1.0) * np.log(xp) - xp / th)
        return out

    def sampler(u):
        return th * _gamma_quantile(a, u)

    return ContinuousIP(a * th, Quadratic(0.0, th, 0.0), (0.0, math.inf),
                        density, sampler, "gamma", {"shape": a, "scale": th})


def _beta(params):
    a = float(_param(params, "a"))
    b = float(_param(params, "b"))
    _require(a > 0 and b > 0, "beta parameters must be positive")
    logc = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    s = a + b

    def density(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        inside = (x > 0) & (x < 1)
        xi = x[inside]
        out[inside] = np.exp(logc + (a - 1.0) * np.log(xi)
                             + (b - 1.0) * np.log1p(-xi))
        return out

    def sampler(u):
        return _beta_quantile(a, b, u)[0]

    return ContinuousIP(a / s, Quadratic(-1.0 / s, 1.0 / s, 0.0), (0.0, 1.0),
                        density, sampler, "beta", {"a": a, "b": b})


def _mask_pmf(log_pmf, valid):
    """pmf evaluator returning exp(log_pmf) on valid integer points, else 0."""

    def pmf(k):
        k = np.asarray(k, dtype=float)
        ok = valid(k) & (np.floor(k) == k)
        out = np.zeros(k.shape)
        kk = k[ok]
        if kk.size:
            out[ok] = np.exp(log_pmf(kk))
        return out

    return pmf


def _table_sampler(spec_pmf, support):
    """Inverse-CDF sampler backed by a cumulative table over the summation
    nodes (built lazily)."""
    state = {}

    def sampler(u):
        if "cdf" not in state:
            # the spec does not exist yet; finite lower ends need no mean
            holder = SimpleNamespace(pmf=spec_pmf, support=support)
            js, pm, _, _ = ex.truncated_support(holder)
            state["js"] = js
            state["cdf"] = np.cumsum(pm)
        idx = np.searchsorted(state["cdf"], u, side="left")
        return state["js"][np.clip(idx, 0, len(state["js"]) - 1)]

    return sampler


def _poisson(params):
    lam = float(_param(params, "lam", "lambda", "rate"))
    _require(lam > 0, "poisson rate must be positive")

    log_lam = math.log(lam)

    def log_pmf(k):
        return -lam + k * log_lam - _lgamma(k + 1.0)

    pmf = _mask_pmf(log_pmf, lambda k: k >= 0)
    support = (0.0, math.inf)
    return DiscreteCO(lam, Quadratic(0.0, 0.0, lam), support, pmf,
                      _table_sampler(pmf, support), "poisson", {"lam": lam})


def _binomial(params):
    trials = int(_param(params, "n", "trials"))
    theta = float(_param(params, "theta", "p"))
    _require(trials >= 1, "binomial needs at least one trial")
    _require(0.0 < theta < 1.0, "binomial theta must lie in (0, 1)")

    log_norm = math.lgamma(trials + 1.0)
    log_theta, log_rest = math.log(theta), math.log1p(-theta)

    def log_pmf(k):
        lg_k, lg_rest = _lgamma(np.stack((k + 1.0, trials - k + 1.0)))
        return (log_norm - lg_k - lg_rest + k * log_theta
                + (trials - k) * log_rest)

    pmf = _mask_pmf(log_pmf, lambda k: (k >= 0) & (k <= trials))
    support = (0.0, float(trials))
    return DiscreteCO(trials * theta,
                      Quadratic(0.0, -theta, trials * theta), support, pmf,
                      _table_sampler(pmf, support), "binomial",
                      {"n": trials, "theta": theta})


def _negative_binomial(params):
    r = float(_param(params, "r", "size"))
    theta = float(_param(params, "theta", "p"))
    _require(r > 0, "negative-binomial r must be positive")
    _require(0.0 < theta < 1.0, "negative-binomial theta must lie in (0, 1)")

    log_norm = r * math.log(theta) - math.lgamma(r)
    log_rest = math.log1p(-theta)

    def log_pmf(k):
        lg_kr, lg_k = _lgamma(np.stack((k + r, k + 1.0)))
        return lg_kr - lg_k + log_norm + k * log_rest

    pmf = _mask_pmf(log_pmf, lambda k: k >= 0)
    mu = r * (1.0 - theta) / theta
    support = (0.0, math.inf)
    return DiscreteCO(mu, Quadratic(0.0, (1.0 - theta) / theta, mu), support,
                      pmf, _table_sampler(pmf, support), "negative-binomial",
                      {"r": r, "theta": theta})


def _hypergeometric(params):
    pop = int(_param(params, "N", "population"))
    succ = int(_param(params, "K", "successes"))
    draws = int(_param(params, "n", "draws"))
    _require(pop >= 1, "population must be positive")
    _require(0 <= succ <= pop, "successes must lie in [0, N]")
    _require(1 <= draws <= pop, "draws must lie in [1, N]")

    # log C(K, k) + log C(N - K, n - k) - log C(N, n), the k-independent
    # factorials taken out
    log_norm = (math.lgamma(succ + 1) + math.lgamma(pop - succ + 1)
                + math.lgamma(draws + 1) + math.lgamma(pop - draws + 1)
                - math.lgamma(pop + 1))

    def log_pmf(k):
        return log_norm - _lgamma(np.stack(
            (k + 1.0, succ - k + 1.0, draws - k + 1.0,
             pop - succ - draws + k + 1.0))).sum(axis=0)

    lo = max(0, draws + succ - pop)
    hi = min(draws, succ)
    pmf = _mask_pmf(log_pmf, lambda k: (k >= lo) & (k <= hi))
    support = (float(lo), float(hi))
    q = Quadratic(1.0 / pop, -(succ + draws) / pop, succ * draws / pop)
    return DiscreteCO(draws * succ / pop, q, support, pmf,
                      _table_sampler(pmf, support), "hypergeometric",
                      {"N": pop, "K": succ, "n": draws})


_CATALOG = {
    "normal": _normal,
    "gamma": _gamma,
    "beta": _beta,
    "poisson": _poisson,
    "binomial": _binomial,
    "negative-binomial": _negative_binomial,
    "hypergeometric": _hypergeometric,
}


def catalog(name: str, params: dict | None = None) -> Spec:
    """Construct a catalog member by family name.

    Families: normal, gamma, beta (continuous); poisson, binomial,
    negative-binomial, hypergeometric (discrete).  Each ships the quadratic
    of its defining identity; regression tests re-derive every one through
    :func:`infer_quadratic`.
    """
    key = name.lower().replace("_", "-")
    if key not in _CATALOG:
        raise UnknownDistributionError(
            f"unknown family {name!r}; choose from {sorted(_CATALOG)}")
    return _CATALOG[key](params or {})


# ---------------------------------------------------------------------------
# the defining identity as an executable oracle
# ---------------------------------------------------------------------------

def _mass_quantile_grid(spec: ContinuousIP, cfg: ex.EngineConfig, m: int):
    """Grid points at evenly spaced mass quantiles, thinned by the density
    floor (points where f < 1e-12 * max f are unusable for the identity)."""
    x, w = ex.continuous_grid(spec, cfg, max(cfg.quad_nodes, 200))
    cum = np.cumsum(w)
    total = cum[-1]
    targets = np.linspace(0.005, 0.995, m) * total
    idx = np.unique(np.searchsorted(cum, targets))
    pts = x[np.clip(idx, 0, len(x) - 1)]
    f = np.asarray(spec.density(pts), dtype=float)
    keep = f >= DENSITY_FLOOR * float(np.max(f))
    return pts[keep], f[keep]


def _gl_segment(fn, lo, hi, n=64):
    s, glw = ex.gauss_legendre(n)
    x = 0.5 * (hi - lo) * s + 0.5 * (hi + lo)
    return float(np.sum(glw * 0.5 * (hi - lo) * fn(x)))


def _left_anchored_integral(fn, alpha, x1):
    """Integral of fn over (alpha, x1] when fn may carry an integrable
    singularity at alpha (densities with fractional shape exponents).

    Dyadic shells shrink toward alpha, each smooth inside; the last sliver
    (width 2^-60 of the interval) uses a u^8 power substitution so even a
    t^(a-1) blow-up with small a contributes at full precision.
    """
    total = 0.0
    hi = x1
    for _ in range(60):
        lo = alpha + 0.5 * (hi - alpha)
        total += _gl_segment(fn, lo, hi, 24)
        hi = lo
    s, glw = ex.gauss_legendre(32)
    u = 0.5 * (s + 1.0)
    t = alpha + (hi - alpha) * u**8
    jac = (hi - alpha) * 8.0 * u**7 * 0.5
    total += float(np.sum(glw * jac * fn(t)))
    return total


def _anchored_cum(fn, alpha, omega, x):
    """Integral of fn over (alpha, x] allowing integrable singularities at
    both support endpoints.

    The lower half is shell-integrated toward alpha.  When x lies in the
    upper half of a finite support, the remainder is covered by shells that
    halve toward omega, so no quadrature panel ever has the omega singularity
    closer than half its own width.
    """
    if not math.isfinite(omega):
        return _left_anchored_integral(fn, alpha, x)
    mid = 0.5 * (alpha + omega)
    if x <= mid:
        return _left_anchored_integral(fn, alpha, x)
    total = _left_anchored_integral(fn, alpha, mid)
    lo = mid
    for m in range(1, 61):
        shell_hi = omega - (omega - mid) * 0.5**m
        if shell_hi >= x:
            break
        total += _gl_segment(fn, lo, shell_hi, 24)
        lo = shell_hi
    total += _gl_segment(fn, lo, x, 24)
    return total


def _cumulative_lhs(spec: ContinuousIP, pts: np.ndarray,
                    cfg: ex.EngineConfig) -> np.ndarray:
    """integral_alpha^x (mu - t) f(t) dt at each grid point, accumulated
    segment by segment so every point reuses the integral to its left."""
    alpha = spec.support[0]
    mu = spec.mean

    def integrand(t):
        return (mu - t) * np.asarray(spec.density(t), dtype=float)

    out = np.empty(len(pts))
    if math.isfinite(alpha):
        # independent shell integrals: immune both to endpoint singularities
        # and to error accumulation across segments
        omega = spec.support[1]
        for i, xp in enumerate(pts):
            out[i] = _anchored_cum(integrand, alpha, omega, xp)
        return out
    acc = 0.0
    prev = None
    for i, xp in enumerate(pts):
        if prev is None:
            # reversed semi-infinite map from -inf up to the first point
            s, glw = ex.gauss_legendre(160)
            half = 0.5 * (s + 1.0)
            t_map = half * half
            t = xp - t_map / (1.0 - t_map)
            jac = half / (1.0 - t_map) ** 2
            acc = float(np.sum(glw * jac * integrand(t)))
        else:
            acc += _gl_segment(integrand, prev, xp)
        out[i] = acc
        prev = xp
    return out


def _identity_points(spec: Spec, cfg: ex.EngineConfig, grid_size: int):
    """Points, the density or pmf there, and the cumulative side of the
    defining identity at them: the mass-quantile grid of a continuous
    member, or the support points of a discrete one with the exact
    prefix-sum side.

    Prefix sums lose relative accuracy in the upper tail (the running total
    cancels down to q(j) p(j), far below the terms that built it), so points
    at or above the mean use the equivalent suffix form sum_{k>j} (k-mu) p(k)
    over the summation nodes, which run down to pmf underflow, instead.
    """
    if not spec.is_discrete:
        pts, f = _mass_quantile_grid(spec, cfg, grid_size)
        return pts, f, _cumulative_lhs(spec, pts, cfg)
    js, pm, _, _ = ex.truncated_support(spec)
    terms = (spec.mean - js) * pm
    prefix = np.cumsum(terms)
    suffix_excl = np.concatenate([np.cumsum(-terms[::-1])[::-1][1:], [0.0]])
    lhs = np.where(js < spec.mean, prefix, suffix_excl)
    keep = pm >= DENSITY_FLOOR * float(np.max(pm))
    return js[keep], pm[keep], lhs[keep]


@dataclass(frozen=True)
class InferredQuadratic:
    quadratic: Quadratic
    residual: float  # max |lhs/f - q| over the grid
    n_points: int


def infer_quadratic(spec: Spec, cfg: ex.EngineConfig | None = None,
                    grid_size: int = 33) -> InferredQuadratic:
    """Fit (delta, beta, gamma) from the family's defining identity.

    The ratio r(x) = [cumulative (mu - t) integral] / f(x) equals q(x) for a
    true member, so a least-squares fit of a quadratic to r over a grid
    recovers the coefficients; the reported residual is the worst absolute
    defect of the identity (in units of q) over the grid.  A residual far
    above tolerance means "not in the family" and is reported, not hidden.
    """
    pts, f, lhs = _identity_points(spec, cfg or ex.EngineConfig(), grid_size)
    if len(pts) < 3:
        raise RankDeficientFitError(
            "need at least 3 grid points above the density floor")
    r = lhs / f
    design = np.column_stack([pts**2, pts, np.ones_like(pts)])
    if np.linalg.matrix_rank(design) < 3:
        raise RankDeficientFitError("design matrix is rank deficient")
    coef, *_ = np.linalg.lstsq(design, r, rcond=None)
    residual = float(np.max(np.abs(design @ coef - r)))
    return InferredQuadratic(Quadratic(*coef), residual, len(pts))


@dataclass(frozen=True)
class MembershipReport:
    max_residual: float
    mean_residual: float
    tol: float
    passed: bool
    n_points: int


def verify_membership(spec: Spec, cfg: ex.EngineConfig | None = None,
                      tol: float | None = None,
                      grid_size: int = 33) -> MembershipReport:
    """Check the defining identity against the spec's own quadratic.

    Residuals are |lhs/f - q| over the grid, so a constant corruption of
    gamma by c shows up as a residual of exactly |c|.  A failing residual is
    an outcome, not an error.
    """
    cfg = cfg or ex.EngineConfig()
    if spec.q is None:
        raise InvalidParameterError("spec has no quadratic; run infer_quadratic")
    if tol is None:
        tol = DISCRETE_RESIDUAL_TOL if spec.is_discrete else CONTINUOUS_RESIDUAL_TOL
    pts, f, lhs = _identity_points(spec, cfg, grid_size)
    res = np.abs(lhs / f - spec.q(pts))
    max_res = float(np.max(res))
    return MembershipReport(max_res, float(np.mean(res)), tol,
                            max_res <= tol, len(pts))


# ---------------------------------------------------------------------------
# moment finiteness
# ---------------------------------------------------------------------------

def moment_criterion(spec: Spec, n: int) -> bool:
    """The Pearson tail criterion for E|X|^(2n) < infinity: bounded supports
    have every moment; otherwise delta <= 0 admits every order and delta > 0
    those with 2n < 1 + 1/delta.  ``bounds.moment_finiteness`` adds the
    numerical check."""
    if n < 1:
        raise ValueError("order n must be at least 1")
    alpha, omega = spec.support
    if math.isfinite(alpha) and math.isfinite(omega):
        return True
    if spec.q is None:
        raise InvalidParameterError("spec has no quadratic")
    delta = spec.q.delta
    return delta <= 0.0 or 2 * n < 1.0 + 1.0 / delta


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def _interp_table(table):
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 2:
        raise InvalidParameterError("table must be a list of [x, f] pairs")
    xs, fs = table[:, 0], table[:, 1]
    if np.any(np.diff(xs) <= 0):
        raise InvalidParameterError("table abscissae must be increasing")
    if np.any(fs < 0):
        raise InvalidParameterError("table values must be nonnegative")

    def density(x):
        return np.interp(np.asarray(x, dtype=float), xs, fs, left=0.0, right=0.0)

    return density


def _pmf_table(table):
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != 2:
        raise InvalidParameterError("table must be a list of [k, p] pairs")
    lookup = {int(k): float(p) for k, p in table}

    def pmf(k):
        k = np.asarray(k, dtype=float)
        out = np.zeros(k.shape)
        flat = out.reshape(-1)
        for i, kk in enumerate(k.reshape(-1)):
            if float(kk).is_integer():
                flat[i] = lookup.get(int(kk), 0.0)
        return out

    return pmf


def load_distribution(doc) -> Spec:
    """Distribution spec from a JSON document, file path, or parsed dict.

    Catalog form:   {"family": "beta", "params": {"a": 2, "b": 3}}
    Custom form:    {"custom": {"kind": "continuous" | "discrete",
                                "mean": m,
                                "quadratic": [delta, beta, gamma] | null,
                                "support": [a, b],
                                "density_table" | "pmf_table": [[x, f], ...]}}

    Tabulated members are interpolated linearly between nodes and are meant
    for the inference/verification path.
    """
    if isinstance(doc, str):
        with open(doc, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if "family" in doc:
        return catalog(doc["family"], doc.get("params", {}))
    if "custom" not in doc:
        raise InvalidParameterError("document needs 'family' or 'custom'")
    c = doc["custom"]
    kind = c.get("kind")
    mean = float(c["mean"])
    quad = None
    if c.get("quadratic") is not None:
        quad = Quadratic(*[float(v) for v in c["quadratic"]])
    lo, hi = c["support"]
    lo = -math.inf if lo is None else float(lo)
    hi = math.inf if hi is None else float(hi)
    if kind == "continuous":
        density = _interp_table(c["density_table"])
        return ContinuousIP(mean, quad, (lo, hi), density, custom=c)
    if kind == "discrete":
        pmf = _pmf_table(c["pmf_table"])
        return DiscreteCO(mean, quad, (lo, hi), pmf, custom=c)
    raise InvalidParameterError("custom kind must be 'continuous' or 'discrete'")


def spec_to_json(spec: Spec) -> dict:
    """Descriptive document of a spec; catalog members also carry the
    ``family`` key and tabulated ones their ``custom`` document, so
    :func:`load_distribution` reads the document back."""
    doc = {"kind": "discrete" if spec.is_discrete else "continuous",
           "name": spec.name, "params": spec.params, "mean": spec.mean,
           "support": [None if math.isinf(s) else s for s in spec.support]}
    if spec.name in _CATALOG:
        doc["family"] = spec.name
    if spec.custom is not None:
        doc["custom"] = spec.custom
    if spec.q is not None:
        doc["quadratic"] = list(spec.q.as_tuple())
    return doc
