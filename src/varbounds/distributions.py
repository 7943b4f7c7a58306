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
membership oracle.  Its continuous left side is integrated on Gauss-Legendre
segments from ``expectation.segment_rules``, the routine the class ladder
takes its segments from too, at every point at once.

The catalog densities and pmfs need only log Gamma of positive arguments,
which :func:`_lgamma` computes with numpy and ``math``.  The samplers'
normal quantile, incomplete gamma and beta functions and their inverses
are numpy and ``math`` code of this module too, so the package runs on
numpy alone.
"""

from __future__ import annotations

import copy
import json
import math
import weakref
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Optional

import numpy as np

from . import expectation as ex
from .errors import (InvalidParameterError, RankDeficientFitError,
                     UnknownDistributionError, unique_keys)

DENSITY_FLOOR = 1e-12  # relative to the max density on the grid
CONTINUOUS_RESIDUAL_TOL = 1e-8
DISCRETE_RESIDUAL_TOL = 1e-10
# mass quantiles of a continuous member the defining identity is checked at
_IDENTITY_POINTS = 33


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
class Tails:
    """A catalog member's tails in closed form: its moment generating
    function E[e^(tX)] is finite exactly for ``lo`` < t < ``hi``, so the
    density or pmf decays like e^(-hi x) toward +inf and e^(lo x) toward
    -inf (an infinite bound: faster than any exponential, or a finite
    end), and ``log_mgf(t)`` is log E[e^(tX)] there, in numpy arithmetic,
    so that it overflows to inf.  ``log_mgf`` is None on a bounded
    support, where no rate matters."""

    lo: float = -math.inf
    hi: float = math.inf
    log_mgf: Optional[Callable] = None


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
    # the closed-form tails of a catalog member; None on any other spec
    tails: Optional[Tails] = field(default=None, repr=False, compare=False)
    # what the member's requests hold on it (``expectation.held``)
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    is_discrete = False

    def __post_init__(self):
        alpha, omega = self.support
        if not alpha < omega:
            raise InvalidParameterError("support interval is empty")
        _hold_params(self)

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
    # the closed-form tails of a catalog member; None on any other spec
    tails: Optional[Tails] = field(default=None, repr=False, compare=False)
    # what the member's requests hold on it (``expectation.held``)
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    is_discrete = True

    def __post_init__(self):
        alpha, omega = self.support
        if not alpha <= omega:
            raise InvalidParameterError("support interval is empty")
        _hold_params(self)
        if isinstance(self.sampler, _TableSampler):
            object.__setattr__(self, "sampler", _TableSampler(self))

    def __repr__(self):
        return f"DiscreteCO({self.name}, mean={self.mean}, q={self.q})"


Spec = ContinuousIP | DiscreteCO


def _hold_params(spec):
    """Hold a copy of ``spec.params`` read-only: a member is shared by every
    caller of ``catalog`` with its parameters, so none may change it."""
    object.__setattr__(spec, "params", MappingProxyType(dict(spec.params)))


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
    out = (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI + _stirling(z)
    small = x < _STIRLING_FROM
    out[small] = [math.lgamma(v) for v in x[small].tolist()]
    return out


def _stirling(z):
    """Stirling's series at z >= _STIRLING_FROM."""
    r2 = 1.0 / (z * z)
    series = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        series = series * r2 + c
    return series / z


# ---------------------------------------------------------------------------
# the normal quantile and the incomplete gamma and beta functions
# ---------------------------------------------------------------------------
#
# The samplers invert these with numpy and ``math`` alone.  Each series,
# continued fraction and Halley iteration runs element by element
# (``_iterate``): an element leaves it when it has converged, so its value
# does not depend on the elements computed beside it.

# Wichura's AS241 (PPND16): numerator and denominator coefficients, highest
# power first, of the rational function in r = 0.180625 - (u - 1/2)^2 for
# |u - 1/2| <= 0.425, and past it in r - 1.6 for r = sqrt(-log min(u, 1 - u))
# <= 5 and in r - 5 beyond
_AS241_CENTRAL = (
    (2509.0809287301226727, 33430.575583588128105, 67265.770927008700853,
     45921.953931549871457, 13731.693765509461125, 1971.5909503065514427,
     133.14166789178437745, 3.387132872796366608),
    (5226.495278852854561, 28729.085735721942674, 39307.89580009271061,
     21213.794301586595867, 5394.1960214247511077, 687.1870074920579083,
     42.313330701600911252, 1.0))
_AS241_NEAR = (
    (7.7454501427834140764e-4, 0.0227238449892691845833,
     0.24178072517745061177, 1.27045825245236838258,
     3.64784832476320460504, 5.7694972214606914055,
     4.6303378461565452959, 1.42343711074968357734),
    (1.05075007164441684324e-9, 5.475938084995344946e-4,
     0.0151986665636164571966, 0.14810397642748007459,
     0.68976733498510000455, 1.6763848301838038494,
     2.05319162663775882187, 1.0))
_AS241_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5,
     0.0012426609473880784386, 0.026532189526576123093,
     0.29656057182850489123, 1.7848265399172913358,
     5.4637849111641143699, 6.6579046435011037772),
    (2.04426310338993978564e-15, 1.4215117583164458887e-7,
     1.8463183175100546818e-5, 7.868691311456132591e-4,
     0.0148753612908506148525, 0.1369298809227358053,
     0.59983220655588793769, 1.0))


def _rational(coefficients, r):
    """The ratio of the two polynomials of ``coefficients`` at r, each by
    Horner's rule in the order of AS241."""
    num, den = (c[0] * r for c in coefficients)
    for out, c in zip((num, den), coefficients):
        for k in c[1:-1]:
            out += k
            out *= r
        out += c[-1]
    return num / den


def _normal_quantile(u):
    """The standard normal quantiles of u in (0, 1): AS241, the algorithm
    of ``statistics.NormalDist.inv_cdf``, over an array.  Past the central
    range it reads min(u, 1 - u), where 1 - u is exact."""
    q = u - 0.5
    x = np.empty(u.shape)
    central = np.abs(q) <= 0.425
    qc = q[central]
    x[central] = qc * _rational(_AS241_CENTRAL, 0.180625 - qc * qc)
    qt = q[~central]
    r = np.sqrt(-np.log(np.where(qt <= 0.0, u[~central], 1.0 - u[~central])))
    near = r <= 5.0
    r[near] = _rational(_AS241_NEAR, r[near] - 1.6)
    r[~near] = _rational(_AS241_FAR, r[~near] - 5.0)
    x[~central] = np.copysign(r, qt)
    return x


def _expit(y, out=None):
    """1 / (1 + e^-y), the inverse of logit; 0 where e^-y overflows."""
    with np.errstate(over="ignore"):
        out = np.exp(np.negative(y, out=out), out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


# a Lentz denominator that vanishes is replaced with this
_TINY = 1e-300
_EPS = 2.0**-53
# Halley steps in log x or logit x: the longest first step, and the most
# steps; and the most terms of a series or continued fraction, which grow
# like sqrt(a): gamma(40) takes 64 near its mean, gamma(1e5) 1,716
_FIRST_REACH = 4.0
_MAX_STEPS = 100
_MAX_TERMS = 100_000


def _iterate(step, *state, limit=None):
    """The first of the 1-D arrays ``state`` after the iteration
    ``done, *state = step(k, *state)``, k = 1, 2, ..., up to ``limit``
    steps: an element whose ``done`` is true leaves it with its state of
    that step, and the next step runs on the rest."""
    out = np.empty(state[0].shape)
    rest = np.arange(out.size)
    k = 0
    while rest.size:
        k += 1
        done, *state = step(k, *state)
        if k == limit:
            done[:] = True
        out[rest[done]] = state[0][done]
        keep = ~done
        rest = rest[keep]
        state = [s[keep] for s in state]
    return out


def _nonzero(d):
    return np.where(np.abs(d) < _TINY, _TINY, d)


def _log1mexp(v):
    """log(1 - e^v) for v <= 0, without rounding e^v near either end."""
    with np.errstate(divide="ignore"):
        return np.where(v > -math.log(2.0), np.log(-np.expm1(v)),
                        np.log1p(-np.exp(v)))


def _gamma_log_density(a, y):
    """log(x f(x)) for the unit-scale gamma(a) with density f, at x = e^y:
    a y - x - log Gamma(a), from _STIRLING_FROM up as
    -a (lambda - 1 - log lambda) - log(2 pi / a) / 2 less Stirling's
    series, lambda = x / a, so that no terms of size a log a cancel."""
    if a < _STIRLING_FROM:
        log_front = a * y - np.exp(y) - math.lgamma(a + 1.0)
    else:
        d = y - math.log(a)
        log_front = (-a * (np.expm1(d) - d)
                     - (0.5 * math.log(a) + _HALF_LOG_2PI + _stirling(a)))
    return log_front + math.log(a)


def _gamma_log_pq(a, y):
    """log P(a, x), log Q(a, x) and log(x f(x)) (``_gamma_log_density``),
    for the unit-scale gamma(a) with density f, at x = e^y for a 1-D array
    y.

    Below x = a + 1, P is the series x f(x) / a sum_n x^n / ((a + 1) ...
    (a + n)) and Q = 1 - P; above it, Q is x f(x) times the continued
    fraction 1 / (x + 1 - a - 1 (1 - a) / (x + 3 - a - 2 (2 - a) / ...))
    by the modified Lentz method, and P = 1 - Q.
    """
    x = np.exp(y)
    log_xf = _gamma_log_density(a, y)
    log_p, log_q = np.empty(y.shape), np.empty(y.shape)

    def series(k, total, term, x):
        term = term * x / (a + k)
        total = total + term
        return ~(term > _EPS * total), total, term, x

    def fraction(k, h, b, c, d):
        an = -k * (k - a)
        b = b + 2.0
        d = 1.0 / _nonzero(an * d + b)
        c = _nonzero(b + an / c)
        delta = d * c
        h = h * delta
        return ~(np.abs(delta - 1.0) > _EPS), h, b, c, d

    low = x < a + 1.0
    ones = np.ones(np.count_nonzero(low))
    log_p[low] = log_xf[low] - math.log(a) + np.log(
        _iterate(series, ones, ones, x[low], limit=_MAX_TERMS))
    log_q[low] = _log1mexp(log_p[low])
    high = ~low
    b = x[high] + (1.0 - a)
    log_q[high] = log_xf[high] + np.log(_iterate(
        fraction, 1.0 / b, b, np.full(b.size, 1.0 / _TINY), 1.0 / b,
        limit=_MAX_TERMS))
    log_p[high] = _log1mexp(log_q[high])
    return log_p, log_q, log_xf


def _log_beta(a, b):
    """log B(a, b); for b >= a and b >= _STIRLING_FROM, log Gamma(b) -
    log Gamma(a + b) is taken from Stirling's series as -(b - 1/2)
    log(1 + a / b) - a log(a + b) + a, so that no terms of size b log b
    cancel."""
    a, b = min(a, b), max(a, b)
    if b < _STIRLING_FROM:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (math.lgamma(a) - (b - 0.5) * math.log1p(a / b)
            - a * math.log(a + b) + a + (_stirling(b) - _stirling(a + b)))


def _beta_log_density(a, b, y):
    """log(x (1 - x) f(x)) for beta(a, b) with density f, at x = 1 / (1 +
    e^-y): a log x + b log(1 - x) - log B(a, b), with log x = -log(1 +
    e^-y) and log(1 - x) = -log(1 + e^y)."""
    return (-a * np.logaddexp(0.0, -y) - b * np.logaddexp(0.0, y)
            - _log_beta(a, b))


def _beta_log_ii(a, b, y):
    """log I_x(a, b), log I_(1-x)(b, a) = log(1 - I_x(a, b)) and
    log(x (1 - x) f(x)) (``_beta_log_density``), for beta(a, b) with
    density f, at x = 1 / (1 + e^-y) for a 1-D array y.

    Below x = (a + 1) / (a + b + 2), I_x(a, b) is x^a (1 - x)^b / (a B(a,
    b)) times its continued fraction by the modified Lentz method, and the
    other is one minus it; above, the same holds with a and b, x and 1 - x
    exchanged.
    """
    log_xf = _beta_log_density(a, b, y)
    x = _expit(y)

    def fraction(a, b, x):
        def step(m, h, x, c, d):
            # the even and the odd coefficient of step m, over x
            for n in (m * (b - m) / ((a + 2 * m - 1.0) * (a + 2 * m)),
                      -(a + m) * (a + b + m)
                      / ((a + 2 * m) * (a + 2 * m + 1.0))):
                d = 1.0 / _nonzero(1.0 + n * x * d)
                c = _nonzero(1.0 + n * x / c)
                delta = d * c
                h = h * delta
            return ~(np.abs(delta - 1.0) > _EPS), h, x, c, d

        d = 1.0 / _nonzero(1.0 - (a + b) * x / (a + 1.0))
        return np.log(_iterate(step, d, x, np.ones(x.size), d,
                               limit=_MAX_TERMS))

    log_i, log_j = np.empty(y.shape), np.empty(y.shape)
    low = x < (a + 1.0) / (a + b + 2.0)
    log_i[low] = log_xf[low] - math.log(a) + fraction(a, b, x[low])
    log_j[low] = _log1mexp(log_i[low])
    high = ~low
    log_j[high] = (log_xf[high] - math.log(b)
                   + fraction(b, a, _expit(-y[high])))
    log_i[high] = _log1mexp(log_j[high])
    return log_i, log_j, log_xf


# ---------------------------------------------------------------------------
# gamma and beta quantiles for the inverse-transform samplers
# ---------------------------------------------------------------------------
#
# Gamma and beta share one quantile path (``_Quantiles``), in y = log x for
# gamma and y = logit x for beta.  A family states its log-density in y,
# L(y) = log(x f(x)) for gamma and log(x (1 - x) f(x)) for beta, so that
# du/dy = e^L; its forward tails, the logs of the lower and the upper tail
# probability, with L; its tilt c = L'; a start for the inverse; and x as
# a function of y.  The inverse is Halley steps on the log of the lower
# tail at u <= 1/2 and of the upper tail above, where 1 - u is exact, so
# that no subtraction costs either end its digits.  It costs tens of
# forward evaluations per value, so the samplers call it only to build a
# table of y(t), t = logit(u), at _QUANTILE_NODES nodes evenly spaced in t
# over the range of the draws.  y' and y'' at the nodes follow from L and
# c alone, so each cell between two nodes holds the quintic Hermite
# interpolant of y (Hörmann and Leydold, ACM TOMACS 13(4), 2003), and a
# draw costs one polynomial and no call of the forward or inverse function.
# Every cell is checked against the inverse at its midpoint, where the
# interpolant's error term, proportional to s^3 (1 - s)^3 across the cell,
# peaks; a draw in a cell that misses by _CELL_TOL or more in y, or whose
# interpolant is not finite, takes the inverse.  An absolute error in y is
# a relative error in x (for beta, at most that).  Each member holds the
# table of the last logit range it was sampled over, so a member sampled
# again from the same stream builds none.
#
# Past the table, every draw's arithmetic is its own, so the samplers run it
# over ``expectation.BLOCK`` draws at a time: the temporaries of a block stay
# in cache, and each block writes its variates into one array of all N.

_QUANTILE_NODES = 2048
# a cell passes when its interpolant is closer than this to the inverse in
# y at its midpoint: a third of the 1e-13 relative error the tested members
# meet, leaving room for the inverse's roundoff at a draw
_CELL_TOL = 3e-14


def _blocks(size):
    """Slices of ``expectation.BLOCK`` consecutive draws covering ``size``."""
    return [slice(lo, lo + ex.BLOCK) for lo in range(0, size, ex.BLOCK)]


# the member-independent forms of the stream the samplers read, each
# derived once per stream (``expectation.Stream.form``, keyed by function)

def _logit(u):
    """logit(u) = log(u) - log1p(-u), with one scratch array."""
    t = np.log(u)
    scratch = np.negative(u)
    t -= np.log1p(scratch, out=scratch)
    return t


def _ndtri(u):
    """The standard normal quantiles of the draws, a block at a time."""
    x = np.empty(u.size)
    for block in _blocks(u.size):
        x[block] = _normal_quantile(u[block])
    return x


def _sorted(u):
    """The draws in ascending order."""
    return np.sort(u)


class _QuantileTable:
    """Quintic Hermite interpolants of y(t) for t in [lo, hi], from the
    inverse and the slopes of ``quantiles`` (a ``_Quantiles``).  ``coef``
    holds each cell's Horner coefficients in s in [0, 1] across it, and
    ``bad`` marks the cells that failed their check.
    """

    def __init__(self, lo, hi, quantiles):
        self.lo = lo
        # the nodes and, between them, the cells' midpoints
        t = np.linspace(lo, hi, 2 * _QUANTILE_NODES - 1)
        # an underflowed quantile gives an infinite y and nan slopes
        with np.errstate(all="ignore"):
            p, q = _expit(t), _expit(-t)
            y = quantiles.inverse(p, q)
            y, mid, t = y[::2], y[1::2], t[::2]
            h = t[1] - t[0]
            d1, d2 = quantiles.slopes(p[::2], q[::2], y)
            d1 *= h
            d2 *= 0.5 * h * h
            # what the cubic, quartic and quintic terms must add at s = 1
            # to the quadratic part's y, h y' and h^2 y'' / 2, formed from
            # the differences of y: from its values they would cancel
            rest = np.diff(y) - d1[:-1] - d2[:-1]
            turn = d1[1:] - d1[:-1] - 2.0 * d2[:-1]
            bend = d2[1:] - d2[:-1]
            self.coef = np.stack((
                y[:-1], d1[:-1], d2[:-1], 10.0 * rest - 4.0 * turn + bend,
                -15.0 * rest + 7.0 * turn - 2.0 * bend,
                6.0 * rest - 3.0 * turn + bend))
            self.bad = ~(np.abs(self._horner(self.coef, 0.5) - mid)
                         < _CELL_TOL)
        # a failing cell's draws are evaluated with the rest and then
        # replaced; zeros keep inf and nan out of that arithmetic
        self.coef[:, self.bad] = 0.0
        # the nodes are evenly spaced, so a draw's cell is found by arithmetic
        self.scale = (_QUANTILE_NODES - 1) / (hi - lo) if hi > lo else 0.0

    @staticmethod
    def _horner(c, s):
        """The interpolants of coefficients c at s."""
        y = c[5] * s
        for k in (4, 3, 2, 1):
            y += c[k]
            y *= s
        y += c[0]
        return y

    def cells(self, t):
        """The cell of each t, and where in it t lies."""
        pos = (t - self.lo) * self.scale
        i = np.minimum(pos.astype(np.intp), _QUANTILE_NODES - 2)
        pos -= i
        return i, pos

    def values(self, t):
        """y at t, 0 in a failing cell, and the indices of the t in failing
        cells."""
        i, s = self.cells(t)
        y = self._horner(self.coef.take(i, axis=1), s)
        return y, np.flatnonzero(self.bad[i])


class _Quantiles:
    """The quantile function of one gamma or beta member: x = x_of(y) at
    the draws u in (0, 1), as a flat array, from a ``_QuantileTable`` of y.

    The family gives its ``log_density(y)``, L; its ``tails(y)``, the logs
    of the lower and the upper tail probability at y and L; its
    ``tilt(y)``, c = L'; the ``start(p, q)`` of the inverse; and
    ``x_of(y, out=None)``.  The draws in failing cells take
    x_of(inverse(u, 1 - u)), in one call after the rest.  The table of the
    last logit range sampled over is held, and holds nothing of the
    stream.  After the table, the draws are taken a block at a time."""

    def __init__(self, log_density, tails, tilt, start, x_of):
        self.log_density, self.tails, self.tilt = log_density, tails, tilt
        self.start, self.x_of = start, x_of
        self._held = (None, None)

    def inverse(self, p, q):
        """y at the lower tail probabilities p, with q = 1 - p, by Halley
        steps from ``start`` on the log of the lower tail, or on the log of
        the upper tail at q above p = 1/2, where q is taken as exact.

        The value v stepped on has v' = e^(L - v), negated on the upper
        tail, and v'' = v' (c - v').  A step whose Halley factor lies
        outside (1/2, 2) is Newton's.  An element stops once its step is
        below 1e-9 max(1, |y|).  Otherwise the step is safeguarded: it is
        at most ``reach`` long, which starts at _FIRST_REACH and doubles
        whenever a step is cut to it, and it bisects the bracket of the
        root that the values so far give when it would leave it.
        """
        def step(k, y, target, upper, lo, hi, reach):
            lower_tail, upper_tail, log_density = self.tails(y)
            value = np.where(upper, upper_tail, lower_tail)
            slope = np.exp(log_density - value)
            slope = np.where(upper, -slope, slope)
            above = (value > target) != upper
            lo, hi = np.where(above, lo, y), np.where(above, y, hi)
            change = (value - target) / slope
            factor = 1.0 - 0.5 * change * (self.tilt(y) - slope)
            change = np.where((factor > 0.5) & (factor < 2.0), change / factor,
                              change)
            done = ~(np.abs(change) > 1e-9 * np.maximum(1.0, np.abs(y)))
            far = ~(np.abs(change) <= reach)
            change = np.where(far, np.where(above, reach, -reach), change)
            reach = np.where(far, 2.0 * reach, reach)
            new = y - change
            new = np.where(done | ((new > lo) & (new < hi)), new,
                           0.5 * (lo + hi))
            return done, new, target, upper, lo, hi, reach

        upper = p > 0.5
        with np.errstate(all="ignore"):
            return _iterate(step, self.start(p, q),
                            np.log(np.where(upper, q, p)), upper,
                            np.full(p.size, -np.inf), np.full(p.size, np.inf),
                            np.full(p.size, _FIRST_REACH), limit=_MAX_STEPS)

    def slopes(self, p, q, y):
        """y' and y'' in t = logit(u) at the probabilities p = u, q = 1 - u
        and their y: y' = u (1 - u) e^-L and y'' = y' ((1 - 2u) - c y')."""
        d1 = p * q * np.exp(-self.log_density(y))
        return d1, d1 * ((q - p) - self.tilt(y) * d1)

    def __call__(self, u):
        stream = ex.Stream.of(u)
        u, t = stream.u, stream.form(_logit)
        key = (float(t.min()), float(t.max()))
        if self._held[0] != key:
            self._held = (key, _QuantileTable(*key, self))
        table = self._held[1]
        x = np.empty(u.size)
        strays = []
        for block in _blocks(u.size):
            y, stray = table.values(t[block])
            self.x_of(y, out=x[block])
            strays.append(stray + block.start)
        stray = np.concatenate(strays)
        if stray.size:
            us = u[stray]
            x[stray] = self.x_of(self.inverse(us, 1.0 - us))
        return x


def _gamma_quantiles(a, scale=1.0):
    """The quantiles x of gamma(a, ``scale``) (``_Quantiles``), in
    y = log(x / scale), on the tails P and Q of the unit scale, with
    c = a - e^y."""
    def start(p, q):
        # the largest of Wilson and Hilferty's cube-root normal
        # approximation, the root of the first term of P,
        # (p Gamma(a + 1))^(1/a), which lies below every quantile, and far
        # in the upper tail the root of Q ~ x^(a - 1) e^-x / Gamma(a)
        # (DiDonato and Morris, ACM TOMS 12, 1986)
        upper = p > 0.5
        z = _normal_quantile(np.where(upper, q, p))
        w = (1.0 - 1.0 / (9.0 * a)
             + np.where(upper, -z, z) / (3.0 * math.sqrt(a)))
        y = np.where(w > 0.0, math.log(a) + 3.0 * np.log(w), -np.inf)
        y = np.maximum(y, (np.log(p) + math.lgamma(a + 1.0)) / a)
        x = lead = -np.log(q) - math.lgamma(a)
        far = upper & (x > 1.0)
        for _ in range(2):
            x = np.where(far, lead + (a - 1.0) * np.log(np.maximum(x, 1.0)),
                         x)
        return np.where(far, np.maximum(y, np.log(np.maximum(x, 1.0))), y)

    def x_of(y, out=None):
        x = np.exp(y, out=out)
        x *= scale
        return x

    return _Quantiles(lambda y: _gamma_log_density(a, y),
                      lambda y: _gamma_log_pq(a, y),
                      lambda y: a - np.exp(y), start, x_of)


def _beta_quantiles(a, b):
    """The quantiles x of beta(a, b) (``_Quantiles``), in y = logit x, on
    the tails I_x(a, b) and I_(1-x)(b, a), with c = a - (a + b) x."""
    s = a + b

    def start(p, q):
        # the median of three approximations: the lower tail's
        # I ~ x^a / (a B(a, b)), the upper tail's 1 - I ~ (1 - x)^b /
        # (b B(a, b)) and the normal one of the same mean and variance
        log_norm = _log_beta(a, b)
        z = _normal_quantile(np.minimum(p, q))
        sd = math.sqrt(a * b / (s * s * (s + 1.0)))
        x = np.clip(a / s + np.copysign(z, p - q) * sd, _TINY, 1.0 - _EPS)
        return np.median([(np.log(p) + math.log(a) + log_norm) / a,
                          np.log(x) - np.log1p(-x),
                          -(np.log(q) + math.log(b) + log_norm) / b], axis=0)

    return _Quantiles(lambda y: _beta_log_density(a, b, y),
                      lambda y: _beta_log_ii(a, b, y),
                      lambda y: a - s * _expit(y), start, _expit)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _require(cond, message):
    if not cond:
        raise InvalidParameterError(message)


def _real(value, what):
    """``value`` as a finite float."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"{what} must be a number, got {value!r}") from None
    _require(math.isfinite(value), f"{what} must be finite, got {value}")
    return value


# each constructor checks the ranges of its canonical parameters (``_read``)
# and hands them on as the member's ``params``

def _normal(params):
    m, v = params["mean"], params["var"]
    _require(v > 0, "normal variance must be positive")
    norm = 1.0 / math.sqrt(2.0 * math.pi * v)
    sd = math.sqrt(v)

    def density(x):
        return norm * np.exp(-0.5 * (np.asarray(x, dtype=float) - m) ** 2 / v)

    def sampler(u):
        # ndtri(u) is a form of the stream, shared by every normal member
        x = ex.Stream.of(u).form(_ndtri) * sd
        x += m
        return x

    return ContinuousIP(m, Quadratic(0.0, 0.0, v), (-math.inf, math.inf),
                        density, sampler, "normal", params,
                        tails=Tails(log_mgf=lambda t: m * t + 0.5 * v * t * t))


def _gamma(params):
    a, th = params["shape"], params["scale"]
    _require(a > 0 and th > 0, "gamma shape and scale must be positive")
    logc = -math.lgamma(a) - a * math.log(th)

    def density(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        pos = x > 0
        xp = x[pos]
        out[pos] = np.exp(logc + (a - 1.0) * np.log(xp) - xp / th)
        return out

    return ContinuousIP(a * th, Quadratic(0.0, th, 0.0), (0.0, math.inf),
                        density, _gamma_quantiles(a, th), "gamma", params,
                        tails=Tails(hi=1.0 / th,
                                    log_mgf=lambda t: -a * np.log1p(-th * t)))


def _beta(params):
    a, b = params["a"], params["b"]
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

    return ContinuousIP(a / s, Quadratic(-1.0 / s, 1.0 / s, 0.0), (0.0, 1.0),
                        density, _beta_quantiles(a, b), "beta", params,
                        tails=Tails())


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


class _TableSampler:
    """Inverse-CDF sampler of a discrete member over the summation nodes it
    holds (``expectation.member_support``).

    A draw u takes the first node whose cumulative mass reaches u, and a
    draw above the last cumulative value takes the last node.  The draws
    in each cell are counted from the sorted stream, a form of the stream
    (``expectation.Stream``) sorted once for every discrete member sampled
    from the same uniforms, and the sampler returns each node repeated by
    its count: the variates come back in ascending order, not in the
    order of the draws.

    A member given ``_TableSampler()``, or a ``dataclasses.replace`` copy
    of one, binds a sampler of its own (``DiscreteCO.__post_init__``),
    which holds it by weak reference: nothing a member holds refers back
    to it, so a sampler samples while its member lives.
    """

    def __init__(self, spec=None):
        self._member = None if spec is None else weakref.ref(spec)

    def __call__(self, u):
        js, pm = ex.member_support(self._member())[:2]
        ordered = ex.Stream.of(u).form(_sorted)
        # the draws at or below each cumulative value; the last cell takes
        # every draw above the one before it
        ends = np.searchsorted(ordered, np.cumsum(pm), side="right")
        ends[-1] = ordered.size
        return np.repeat(js, np.diff(ends, prepend=0))


def _poisson(params):
    lam = params["lam"]
    _require(lam > 0, "poisson rate must be positive")
    log_lam = math.log(lam)

    def log_pmf(k):
        return -lam + k * log_lam - _lgamma(k + 1.0)

    pmf = _mask_pmf(log_pmf, lambda k: k >= 0)
    return DiscreteCO(lam, Quadratic(0.0, 0.0, lam), (0.0, math.inf), pmf,
                      _TableSampler(), "poisson", params,
                      tails=Tails(log_mgf=lambda t: lam * np.expm1(t)))


def _binomial(params):
    trials, theta = params["n"], params["theta"]
    _require(trials >= 1, "binomial needs at least one trial")
    _require(0.0 < theta < 1.0, "binomial theta must lie in (0, 1)")

    log_norm = math.lgamma(trials + 1.0)
    log_theta, log_rest = math.log(theta), math.log1p(-theta)

    def log_pmf(k):
        lg_k, lg_rest = _lgamma(np.stack((k + 1.0, trials - k + 1.0)))
        return (log_norm - lg_k - lg_rest + k * log_theta
                + (trials - k) * log_rest)

    pmf = _mask_pmf(log_pmf, lambda k: (k >= 0) & (k <= trials))
    return DiscreteCO(trials * theta, Quadratic(0.0, -theta, trials * theta),
                      (0.0, float(trials)), pmf, _TableSampler(), "binomial",
                      params, tails=Tails())


def _negative_binomial(params):
    r, theta = params["r"], params["theta"]
    _require(r > 0, "negative-binomial r must be positive")
    _require(0.0 < theta < 1.0, "negative-binomial theta must lie in (0, 1)")

    log_norm = r * math.log(theta) - math.lgamma(r)
    log_rest = math.log1p(-theta)

    def log_pmf(k):
        lg_kr, lg_k = _lgamma(np.stack((k + r, k + 1.0)))
        return lg_kr - lg_k + log_norm + k * log_rest

    pmf = _mask_pmf(log_pmf, lambda k: k >= 0)
    mu = r * (1.0 - theta) / theta
    return DiscreteCO(mu, Quadratic(0.0, (1.0 - theta) / theta, mu),
                      (0.0, math.inf), pmf, _TableSampler(),
                      "negative-binomial", params,
                      tails=Tails(hi=-log_rest, log_mgf=lambda t: r * (
                          math.log(theta) - np.log1p(-np.exp(t + log_rest)))))


def _hypergeometric(params):
    pop, succ, draws = params["N"], params["K"], params["n"]
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
    q = Quadratic(1.0 / pop, -(succ + draws) / pop, succ * draws / pop)
    return DiscreteCO(draws * succ / pop, q, (float(lo), float(hi)), pmf,
                      _TableSampler(), "hypergeometric", params, tails=Tails())


# a catalog parameter: its name, its aliases, its default (None when it
# must be given) and whether it counts, a whole number read as an int
_Param = namedtuple("_Param", "name aliases default count",
                    defaults=((), None, False))

# each family's constructor and its parameters, in the order of its params
_CATALOG = {
    "normal": (_normal, (_Param("mean", default=0.0),
                         _Param("var", default=1.0))),
    "gamma": (_gamma, (_Param("shape"), _Param("scale", default=1.0))),
    "beta": (_beta, (_Param("a"), _Param("b"))),
    "poisson": (_poisson, (_Param("lam", ("lambda", "rate")),)),
    "binomial": (_binomial, (_Param("n", ("trials",), count=True),
                             _Param("theta", ("p",)))),
    "negative-binomial": (_negative_binomial, (_Param("r", ("size",)),
                                               _Param("theta", ("p",)))),
    "hypergeometric": (_hypergeometric,
                       (_Param("N", ("population",), count=True),
                        _Param("K", ("successes",), count=True),
                        _Param("n", ("draws",), count=True))),
}


def _read(family, params, schema):
    """``params``, a dict keyed by parameter name or alias, as the canonical
    parameters of ``family`` and its ``schema``: keyed by name in schema
    order, each a finite float (an int for a count), defaults filled in."""
    if not isinstance(params, dict):
        raise InvalidParameterError(
            f"{family} parameters must be a dict, got {params!r}")
    alias = {a: p.name for p in schema for a in (p.name, *p.aliases)}
    given = {}
    for key, value in params.items():
        if key not in alias:
            raise InvalidParameterError(
                f"unknown {family} parameter {key!r}; choose from "
                f"{sorted(alias)}")
        if alias[key] in given:
            raise InvalidParameterError(
                f"{family} parameter {alias[key]!r} is given twice")
        given[alias[key]] = value
    out = {}
    for name, _, default, count in schema:
        what = f"parameter {name!r}"
        _require(name in given or default is not None, f"missing {what}")
        value = _real(given[name], what) if name in given else default
        if count:
            _require(value == int(value),
                     f"{what} must be an integer, got {value}")
            value = int(value)
        out[name] = value
    return out


# the catalog members held per process, least recently used first, keyed
# by family and canonical parameters (``catalog``)
_MEMBERS = 64
_members: OrderedDict = OrderedDict()


def catalog(name: str, params: dict | None = None) -> Spec:
    """The catalog member of a family name and its parameters.

    Families: normal, gamma, beta (continuous); poisson, binomial,
    negative-binomial, hypergeometric (discrete).  Each ships the quadratic
    of its defining identity; regression tests re-derive every one through
    :func:`infer_quadratic`.  ``params`` is a dict keyed by parameter name
    or alias (poisson's ``lam`` is also ``lambda`` or ``rate``); an unknown
    name or two names for one parameter raise ``InvalidParameterError``.

    A member is held per process.  ``params`` are read and checked first;
    every call with the same canonical parameters (aliases resolved,
    defaults filled in, values as the member reads them) returns the same
    immutable spec, built and range-checked only when none is held, so its
    requests share the grids, summation support, ladder and weight powers
    it holds (``expectation.held``).  The last _MEMBERS members used are
    held; :func:`clear_members` lets them go.
    """
    key = name.lower().replace("_", "-")
    if key not in _CATALOG:
        raise UnknownDistributionError(
            f"unknown family {name!r}; choose from {sorted(_CATALOG)}")
    build, schema = _CATALOG[key]
    params = _read(key, {} if params is None else params, schema)
    # repr tells -0.0 from 0.0, which a report prints
    ident = (key, tuple((k, repr(v)) for k, v in params.items()))
    spec = _members.pop(ident, None)
    if spec is None:
        spec = build(params)
    _members[ident] = spec
    if len(_members) > _MEMBERS:
        _members.popitem(last=False)
    return spec


def clear_members():
    """Let go of the catalog members held by :func:`catalog`: the next call
    builds each member anew, with nothing held.  A member still referenced
    elsewhere keeps what it holds for as long as it lives."""
    _members.clear()


# ---------------------------------------------------------------------------
# the defining identity as an executable oracle
# ---------------------------------------------------------------------------

def _mass_quantile_grid(spec: ContinuousIP, cfg: ex.EngineConfig):
    """_IDENTITY_POINTS evenly spaced mass quantiles on the
    ``cfg.quad_nodes`` quadrature nodes the member holds
    (``expectation.member_nodes``), thinned by the density floor (points
    where f < 1e-12 * max f are unusable for the identity)."""
    x, w = ex.member_nodes(spec, cfg, cfg.quad_nodes)
    cum = np.cumsum(w)
    total = cum[-1]
    targets = np.linspace(0.005, 0.995, _IDENTITY_POINTS) * total
    idx = np.unique(np.searchsorted(cum, targets))
    pts = x[np.clip(idx, 0, len(x) - 1)]
    f = np.asarray(spec.density(pts), dtype=float)
    keep = f >= DENSITY_FLOOR * float(np.max(f))
    return pts[keep], f[keep]


# dyadic shells between a point and each finite end of the support
_SHELLS = 60


def _cumulative_lhs(spec: ContinuousIP, pts: np.ndarray) -> np.ndarray:
    """integral_alpha^x (mu - t) f(t) dt at each of the ascending ``pts``,
    every point at once on Gauss-Legendre segments
    (``expectation.segment_rules``), each kind of segment in one density
    call.  Running totals add the segments one at a time, in order.

    On a support bounded below, each point's integral is its own: dyadic
    shells halving toward alpha, each smooth inside, and a last sliver
    (width 2^-60 of the interval) under a u^8 substitution, so that even a
    t^(a-1) blow-up with small a contributes at full precision.  On a
    finite support, points above the midpoint add to the integral up to it
    shells halving toward omega, so that no segment has the omega
    singularity closer than half its own width.  On a support unbounded
    below, the semi-infinite map of the quadrature grids reaches the first
    point and one segment reaches each point from the one before it.
    """
    mu = spec.mean
    alpha, omega = spec.support

    def integral(x, w):  # each segment's integral, over the last axis
        f = np.asarray(spec.density(x.ravel()), dtype=float).reshape(x.shape)
        return np.sum(w * ((mu - x) * f), axis=-1)

    if pts.size == 0:
        return np.zeros(0)
    if math.isinf(alpha):
        s, glw = ex.gauss_legendre(160)
        x, dxds = ex._map_support(alpha, pts[0], s)
        # the map's nodes reversed, so that the sum runs from the point down
        first = integral(x[::-1], (glw * dxds)[::-1])
        steps = integral(*ex.segment_rules(pts[:-1], pts[1:], 64))
        return np.cumsum(np.concatenate([[first], steps]))

    mid = 0.5 * (alpha + omega)  # inf on a support unbounded above
    upper = pts > mid
    ends = np.append(pts[~upper], mid) if upper.any() else pts
    his = [ends]
    for _ in range(_SHELLS):
        his.append(alpha + 0.5 * (his[-1] - alpha))
    shells = integral(*ex.segment_rules(his[1:], his[:-1], 24))
    s, glw = ex.gauss_legendre(32)
    u = 0.5 * (s + 1.0)
    reach = (his[-1] - alpha)[:, None]
    sliver = integral(alpha + reach * u**8, glw * (reach * 8.0 * u**7 * 0.5))
    lower = 0.0
    for part in (*shells, sliver):
        lower = lower + part
    if not upper.any():
        return lower

    x = pts[upper]
    tops = omega - (omega - mid) * 0.5 ** np.arange(1, _SHELLS + 1)
    full = np.searchsorted(tops, x)  # the shells below each point
    edges = np.concatenate([[mid], tops[:full.max()]])
    parts = integral(*ex.segment_rules(
        np.concatenate([edges[:-1], edges[full]]),
        np.concatenate([edges[1:], x]), 24))
    run = np.cumsum(np.concatenate([lower[-1:], parts[:edges.size - 1]]))
    return np.concatenate([lower[:-1], run[full] + parts[edges.size - 1:]])


def _identity_points(spec: Spec, cfg: ex.EngineConfig, least: int = 3):
    """Points, the density or pmf there, and the cumulative side of the
    defining identity at them: the mass-quantile grid of a continuous
    member, or the summation nodes a discrete one holds
    (``expectation.member_support``) with the exact prefix-sum side.

    Prefix sums lose relative accuracy in the upper tail (the running total
    cancels down to q(j) p(j), far below the terms that built it), so points
    at or above the mean use the equivalent suffix form sum_{k>j} (k-mu) p(k)
    over the summation nodes, which run down to pmf underflow, instead.

    Fewer than ``least`` distinct points raise ``RankDeficientFitError``:
    3 determine a quadratic, the fewest a fit, or a check of the identity
    at some of a member's points, says anything on.
    """
    lhs = None
    if spec.is_discrete:
        js, pm = ex.member_support(spec)[:2]
        terms = (spec.mean - js) * pm
        prefix = np.cumsum(terms)
        suffix_excl = np.concatenate([np.cumsum(-terms[::-1])[::-1][1:],
                                      [0.0]])
        keep = pm >= DENSITY_FLOOR * float(np.max(pm))
        pts, f = js[keep], pm[keep]
        lhs = np.where(js < spec.mean, prefix, suffix_excl)[keep]
    else:
        pts, f = _mass_quantile_grid(spec, cfg)
    if len(pts) < least:
        raise RankDeficientFitError(
            f"need at least {least} grid points above the density floor")
    return pts, f, _cumulative_lhs(spec, pts) if lhs is None else lhs


@dataclass(frozen=True)
class InferredQuadratic:
    quadratic: Quadratic
    residual: float  # max |lhs/f - q| over the grid
    n_points: int


def infer_quadratic(spec: Spec,
                    cfg: ex.EngineConfig | None = None) -> InferredQuadratic:
    """Fit (delta, beta, gamma) from the family's defining identity.

    The ratio r(x) = [cumulative (mu - t) integral] / f(x) equals q(x) for a
    true member, so a least-squares fit of a quadratic to r over a grid
    recovers the coefficients; the reported residual is the worst absolute
    defect of the identity (in units of q) over the grid.  A residual far
    above tolerance means "not in the family" and is reported, not hidden.
    """
    pts, f, lhs = _identity_points(spec, cfg or ex.EngineConfig())
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
                      tol: float | None = None) -> MembershipReport:
    """Check the defining identity against the spec's own quadratic.

    Residuals are |lhs/f - q| over the grid, so a constant corruption of
    gamma by c shows up as a residual of exactly |c|.  A failing residual is
    an outcome, not an error.  A continuous member's identity is checked
    at mass quantiles, and fewer than 3 of them raise
    ``RankDeficientFitError``, as in ``infer_quadratic``; a discrete
    member's is checked at every support point above the floor, however
    few.
    """
    cfg = cfg or ex.EngineConfig()
    if spec.q is None:
        raise InvalidParameterError("spec has no quadratic; run infer_quadratic")
    if tol is None:
        tol = DISCRETE_RESIDUAL_TOL if spec.is_discrete else CONTINUOUS_RESIDUAL_TOL
    pts, f, lhs = _identity_points(spec, cfg, 1 if spec.is_discrete else 3)
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

def _table(table, pair, rows):
    """The abscissae and values of a custom table of [``pair``] rows, at
    least ``rows`` of them: finite, with abscissae increasing and values
    nonnegative."""
    table = np.asarray(table, dtype=float)
    _require(table.ndim == 2 and table.shape[1] == 2
             and table.shape[0] >= rows,
             f"table must be a list of [{pair}] pairs")
    _require(np.all(np.isfinite(table)), "table entries must be finite")
    xs, fs = table.T
    _require(np.all(np.diff(xs) > 0), "table abscissae must be increasing")
    _require(np.all(fs >= 0), "table values must be nonnegative")
    return xs, fs


def _interp_table(table):
    xs, fs = _table(table, "x, f", 2)

    def density(x):
        return np.interp(np.asarray(x, dtype=float), xs, fs, left=0.0, right=0.0)

    return density


def _pmf_table(table):
    ks, ps = _table(table, "k, p", 1)
    _require(np.all(ks == np.round(ks)), "table points k must be integers")

    def pmf(k):
        k = np.asarray(k, dtype=float)
        i = np.minimum(np.searchsorted(ks, k), ks.size - 1)
        return np.where(ks[i] == k, ps[i], 0.0)

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
            doc = json.load(fh, object_pairs_hook=unique_keys)
    if not isinstance(doc, dict):
        raise InvalidParameterError("a distribution document is a JSON object")
    if "family" in doc:
        params = doc.get("params", {})
        if not isinstance(doc["family"], str) or not isinstance(params, dict):
            raise InvalidParameterError(
                'expected {"family": "<name>", "params": {...}}')
        return catalog(doc["family"], params)
    if not isinstance(doc.get("custom"), dict):
        raise InvalidParameterError("document needs 'family' or 'custom'")
    c = doc["custom"]
    kind = c.get("kind")
    mean = _real(c.get("mean"), "mean")
    quad, support = c.get("quadratic"), c.get("support")
    if quad is not None:
        if not (isinstance(quad, list) and len(quad) == 3):
            raise InvalidParameterError("quadratic must be [delta, beta, gamma]")
        quad = Quadratic(*[_real(v, "a quadratic coefficient") for v in quad])
    if not (isinstance(support, list) and len(support) == 2):
        raise InvalidParameterError("support must be [a, b]")
    lo, hi = (inf if end is None else _real(end, "a support end")
              for end, inf in zip(support, (-math.inf, math.inf)))
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
    :func:`load_distribution` reads the document back.  The document is
    the caller's own: editing it leaves the spec as it was."""
    doc = {"kind": "discrete" if spec.is_discrete else "continuous",
           "name": spec.name, "params": dict(spec.params), "mean": spec.mean,
           "support": [None if math.isinf(s) else s for s in spec.support]}
    if spec.name in _CATALOG:
        doc["family"] = spec.name
    if spec.custom is not None:
        doc["custom"] = copy.deepcopy(spec.custom)
    if spec.q is not None:
        doc["quadratic"] = list(spec.q.as_tuple())
    return doc
