"""Expectation engine: the points and weights every expectation is summed
over.  Continuous members get Gauss-Legendre quadrature on the mapped
support, discrete members exact summation over the support down to pmf
underflow, and the Monte Carlo cross-check a seeded sample; ``bounds._Grid``
holds one of them and sums each expectation over it.  The ``Ladder`` of
nested windows judges whether an expectation is finite at all; a discrete
member's ladder and summation grid share the nodes of
``truncated_support``.

The Monte Carlo stream is a splitmix64 counter generator (documented in the
README) rather than a library RNG, so results are bit-reproducible from
(seed, samples) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from numbers import Integral

import numpy as np

from .errors import NoSamplerError, TruncationError

Z_99 = 2.5758293035489004  # two-sided 99% normal quantile

_SUMMATION_CAP = 10**7


@dataclass(frozen=True)
class EngineConfig:
    """Numerical settings shared by the whole bound pipeline."""

    quad_nodes: int = 200
    mc_samples: int = 200_000
    mc_seed: int = 123456789

    def __post_init__(self):
        # settings arrive from JSON documents, so check types before ranges
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"engine setting {f.name} must be of type "
                                 f"{f.type}, got {value!r}")
        if self.quad_nodes < 10:
            raise ValueError("quad_nodes must be at least 10")
        # a sample standard deviation, so a confidence half-width, needs two
        if self.mc_samples < 2:
            raise ValueError("mc_samples must be at least 2")

    def override(self, **kwargs) -> "EngineConfig":
        unknown = sorted(set(kwargs) - {f.name for f in fields(self)})
        if unknown:
            raise ValueError(f"unknown engine setting {', '.join(unknown)}")
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs) if kwargs else self


# ---------------------------------------------------------------------------
# splitmix64 uniform stream
# ---------------------------------------------------------------------------

def splitmix64_uniforms(seed: int, count: int) -> np.ndarray:
    """Uniforms in (0, 1) from the counter-mode splitmix64 stream.

    Draw i (1-based) mixes the state ``seed + i * 0x9E3779B97F4A7C15`` and maps
    the top 53 bits to the open interval through ``_unit_interval``.
    """
    golden = np.uint64(0x9E3779B97F4A7C15)
    idx = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * golden
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return _unit_interval(z >> np.uint64(11))


def _unit_interval(bits) -> np.ndarray:
    """(bits + 0.5) * 2**-53 for 53-bit integers, so 0 and 1 never occur.

    The top pattern 2**53 - 1 alone would round to exactly 1.0; it maps to
    1 - 2**-53, a value no other pattern gives.
    """
    u = (np.asarray(bits).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, 1.0 - 2.0**-53)


# ---------------------------------------------------------------------------
# quadrature grids
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def _map_support(alpha: float, omega: float, s: np.ndarray):
    """Map Gauss-Legendre nodes s in (-1,1) onto the support (alpha, omega).

    Finite intervals use a sin^2 endpoint-regularizing substitution so that
    integrable endpoint singularities (e.g. Beta densities with shape < 1) do
    not degrade convergence.  Semi-infinite intervals square the coordinate
    near the finite endpoint for the same reason.  Doubly-infinite intervals
    use the rational map x = s / (1 - s^2).
    """
    lo_inf = math.isinf(alpha)
    hi_inf = math.isinf(omega)
    if not lo_inf and not hi_inf:
        u = 0.5 * (s + 1.0)
        width = omega - alpha
        x = alpha + width * np.sin(0.5 * math.pi * u) ** 2
        dxds = width * (math.pi / 4.0) * np.sin(math.pi * u)
        return x, dxds
    if lo_inf and hi_inf:
        return s / (1.0 - s * s), (1.0 + s * s) / (1.0 - s * s) ** 2
    half = 0.5 * (1.0 - s) if lo_inf else 0.5 * (s + 1.0)
    t = half * half
    offset, doffset = t / (1.0 - t), half / (1.0 - t) ** 2  # |dt/ds| = half
    return (omega - offset if lo_inf else alpha + offset), doffset


def continuous_grid(spec, cfg: EngineConfig, n_nodes: int | None = None):
    """Quadrature nodes and weights such that sum(w * phi(x)) ~ E[phi(X)].

    Weights already include the map jacobian and the density; nodes where the
    density underflows to zero are dropped (they contribute exactly nothing
    and would otherwise turn inf * 0 into nan for growing integrands).
    """
    n = n_nodes if n_nodes is not None else cfg.quad_nodes
    s, glw = gauss_legendre(n)
    alpha, omega = spec.support
    x, dxds = _map_support(alpha, omega, s)
    w = glw * dxds * spec.density(x)
    keep = w != 0.0
    return x[keep], w[keep]


# ---------------------------------------------------------------------------
# discrete summation
# ---------------------------------------------------------------------------

def truncated_support(spec):
    """The summation nodes of a discrete member: the support points whose
    pmf is positive, as floats, and their pmf.

    Toward an infinite end the support runs until the pmf underflows: a
    support bounded below grows by blocks of 512 points, one unbounded below
    doubles a window around the mean, until a step adds no mass.  Returns
    (x, pmf, tail, edge): ``tail`` is 1 - sum(pmf), 0 on a finite support,
    where the summation is exact, and otherwise only the pmf's roundoff;
    ``edge`` holds the indices of the outermost nodes toward each infinite
    end, past which the pmf underflowed.
    """
    alpha, omega = spec.support
    block = 512
    if math.isfinite(alpha) and math.isfinite(omega):
        js = np.arange(int(alpha), int(omega) + 1)
        pm, tail = np.asarray(spec.pmf(js), dtype=float), 0.0
    elif math.isfinite(alpha):
        chunks, mass, added = [], 0.0, math.inf
        while added != 0.0:
            if block * len(chunks) > _SUMMATION_CAP:
                raise _cap_error()
            js = np.arange(block) + (int(alpha) + block * len(chunks))
            chunks.append(np.asarray(spec.pmf(js), dtype=float))
            added = float(chunks[-1].sum())
            mass += added
        pm = np.concatenate(chunks)
        js = np.arange(int(alpha), int(alpha) + pm.size)
        tail = max(0.0, 1.0 - mass)
    else:
        # ``inner`` is the previous window's half-width; every node of the
        # first window is new
        center, half, inner = int(round(spec.mean)), block, -1
        while True:
            hi = int(omega) if math.isfinite(omega) else center + half
            js = np.arange(center - half, hi + 1)
            pm = np.asarray(spec.pmf(js), dtype=float)
            if float(pm[np.abs(js - center) > inner].sum()) == 0.0:
                break
            inner, half = half, 2 * half
            if 2 * half > _SUMMATION_CAP:
                raise _cap_error()
        tail = max(0.0, 1.0 - float(pm.sum()))
    keep = pm != 0.0
    edge = np.cumsum(keep)[_underflow_edges(js, pm, spec.support)] - 1
    return js[keep].astype(float), pm[keep], tail, edge


def _cap_error():
    return TruncationError(
        f"the pmf did not underflow within {_SUMMATION_CAP} terms")


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def sample(spec, cfg: EngineConfig | None = None) -> np.ndarray:
    """Draw ``cfg.mc_samples`` variates from the stream seeded by
    ``cfg.mc_seed`` through the spec's inverse-transform sampler.

    Normal members invert with ``ndtri``; gamma and beta members with
    quantiles seeded from a table of library inverses and refined by Halley
    steps on the forward function, which agree with ``gammaincinv`` and
    ``betaincinv`` to about 1e-13 relative; discrete members by lookup in
    their cumulative table.  These library functions are scipy's, and the
    first continuous draw is what imports ``scipy.special``: nothing else
    in the package loads scipy.
    """
    cfg = cfg or EngineConfig()
    if getattr(spec, "sampler", None) is None:
        raise NoSamplerError(f"no sampler available for {spec!r}")
    u = splitmix64_uniforms(cfg.mc_seed, cfg.mc_samples)
    return np.asarray(spec.sampler(u), dtype=float)


# ---------------------------------------------------------------------------
# finiteness probes (stabilization of truncated expectations)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinitenessProbe:
    """Verdict of a truncated-expectation stabilization ladder.

    ``values`` are nested truncated integrals/sums of a nonnegative integrand;
    the verdict is finite when the increments either vanish outright or decay
    geometrically (ratio below 0.9).  Log-divergent integrands show constant
    increments and are classified divergent.
    """

    finite: bool
    values: tuple
    decay_ratio: float


_LADDER_RUNGS = 7
_DECAY_RATIO_MAX = 0.90
_STABLE_RTOL = 1e-9


def _classify(values) -> FinitenessProbe:
    values = [float(v) for v in values]
    if len(values) == 1:  # a finite discrete support is summed exactly
        return FinitenessProbe(True, tuple(values), 0.0)
    if not np.all(np.isfinite(values)):
        return FinitenessProbe(False, tuple(values), math.inf)
    incs = np.diff(values)
    incs = np.maximum(incs, 0.0)
    tail = abs(values[-1])
    if incs[-1] <= _STABLE_RTOL * (1.0 + tail):
        return FinitenessProbe(True, tuple(values), 0.0)
    ratios = [incs[m] / incs[m - 1]
              for m in range(len(incs) - 3, len(incs))
              if incs[m - 1] > 0.0]
    ratio = float(np.median(ratios)) if ratios else 0.0
    return FinitenessProbe(ratio <= _DECAY_RATIO_MAX, tuple(values), ratio)


def _underflow_edges(x, w, support) -> np.ndarray:
    """Indices of the outermost positive-weight nodes toward each infinite
    end of ``support`` past which some node weight underflowed to zero."""
    live = np.flatnonzero(w > 0.0)
    edges = []
    for end, pick in zip(support, (np.argmin, np.argmax)):
        if math.isinf(end) and live.size:
            i = live[pick(x[live])]
            if np.any((w == 0.0) & ((x - x[i]) * math.copysign(1.0, end) > 0.0)):
                edges.append(i)
    return np.asarray(edges, dtype=int)


class Ladder:
    """The stabilization ladder of one spec: nodes ``x``, node weights ``w``
    and the rung boundaries.

    ``sum(w * phi(x))`` over a rung's nodes is the truncated expectation of
    phi on that rung's window.  Continuous members use a 96-node bulk
    segment plus 48-node shells, reaching infinite endpoints by factor-4
    geometric expansion and finite endpoints by factor-10 margin shrinks;
    each rung adds its shells to the previous rung (``cumulative``), so the
    ladder is monotone for nonnegative integrands.  Discrete members use the
    nodes of ``truncated_support``, the summation grid's own, with nested
    integer windows, each summed whole, and keep its ``tail``.
    ``rungs[m]`` lists the node slices summed for rung m, in order.
    Toward an infinite end the windows run past the point where the density
    or pmf underflows; the nodes of zero weight there are dropped, and
    ``edge`` holds the last nodes before that point.
    """

    def __init__(self, x, w, rungs, cumulative, edge, tail=0.0):
        self.x, self.w, self.rungs = x, w, rungs
        self.cumulative, self.edge, self.tail = cumulative, edge, tail

    @classmethod
    def build(cls, spec, cfg: EngineConfig) -> "Ladder":
        if getattr(spec, "is_discrete", False):
            return cls._discrete(spec)
        return cls._continuous(spec, cfg)

    @classmethod
    def _continuous(cls, spec, cfg):
        alpha, omega = spec.support
        finite = math.isfinite(alpha) and math.isfinite(omega)
        width = omega - alpha if finite else 1.0
        if not finite:
            # bulk scale for infinite directions: truncated second moment is
            # always finite
            x0, w0 = continuous_grid(spec, cfg, 128)
            mu = spec.mean
            sigma = math.sqrt(max(float(np.sum(w0 * (x0 - mu) ** 2)), 0.0))
            scale = 1.0 + abs(mu) + min(sigma, 20.0)

        def window(m):
            if math.isfinite(alpha):
                lo = alpha + width * 10.0 ** (-2 - m)
            else:
                lo = spec.mean - scale * 4.0 ** (m + 1)
            if math.isfinite(omega):
                hi = omega - width * 10.0 ** (-2 - m)
            else:
                hi = spec.mean + scale * 4.0 ** (m + 1)
            return lo, hi

        lo, hi = window(0)
        segments, rung_segments = [(lo, hi, 96)], [(0,)]
        for m in range(1, _LADDER_RUNGS):
            nlo, nhi = window(m)
            shells = [s for s in ((nlo, lo, 48), (hi, nhi, 48)) if s[1] > s[0]]
            rung_segments.append(tuple(range(len(segments),
                                             len(segments) + len(shells))))
            segments += shells
            lo, hi = nlo, nhi

        xs, scales = [], []
        for lo, hi, n_nodes in segments:
            s, glw = gauss_legendre(n_nodes)
            xs.append(0.5 * (hi - lo) * s + 0.5 * (hi + lo))
            scales.append(glw * 0.5 * (hi - lo))
        x = np.concatenate(xs)
        w = np.concatenate(scales) * spec.density(x)
        # nodes where the density underflows contribute exactly nothing and
        # would turn inf * 0 into nan for growing integrands
        keep = w != 0.0
        ends = np.cumsum(keep)[np.cumsum([v.size for v in xs]) - 1]
        bounds = [slice(int(a), int(b)) for a, b in zip([0, *ends], ends)]
        rungs = tuple(tuple(bounds[i] for i in rung) for rung in rung_segments)
        edge = np.cumsum(keep)[_underflow_edges(x, w, spec.support)] - 1
        return cls(x[keep], w[keep], rungs, True, edge)

    @classmethod
    def _discrete(cls, spec):
        x, pm, tail, edge = truncated_support(spec)
        alpha, omega = spec.support
        if math.isfinite(alpha) and math.isfinite(omega):
            rungs = ((slice(0, x.size),),)
        else:
            center = int(round(spec.mean))
            base = 8 + int(2 * (1 + abs(spec.mean)))
            rungs = []
            for m in range(_LADDER_RUNGS):
                h = base * 4**m
                lo = center - h if not math.isfinite(alpha) else int(alpha)
                rungs.append((slice(int(np.searchsorted(x, lo, "left")),
                                    int(np.searchsorted(x, center + h,
                                                        "right"))),))
        return cls(x, pm, tuple(rungs), False, edge, tail)

    def classify(self, contrib) -> list[FinitenessProbe]:
        """One verdict per row of ``contrib``, the nonnegative integrand
        times ``w`` at the nodes (shape rows x nodes).

        Past the underflow edge the integrand is unknown, so a row whose
        contribution at an ``edge`` node is not negligible next to its total
        was cut off while still growing, and counts as divergent.
        """
        contrib = np.atleast_2d(contrib)
        values, total = [], 0.0
        # probes feed divergent integrands on purpose; inf is a verdict
        with np.errstate(over="ignore", invalid="ignore"):
            for rung in self.rungs:
                total = total if self.cumulative else 0.0
                for part in rung:
                    total = total + contrib[:, part].sum(axis=1)
                values.append(total)
            if self.edge.size:
                cut = (np.max(contrib[:, self.edge], axis=1)
                       > _STABLE_RTOL * (1.0 + np.abs(total)))
                values[-1] = np.where(cut, math.inf, total)
        return [_classify(row) for row in np.column_stack(values)]


def probe(spec, weight, cfg: EngineConfig | None = None) -> FinitenessProbe:
    """Stabilization verdict for E[weight(X)] with weight >= 0.

    ``weight`` is evaluated once on the nodes of the spec's ladder.  A weight
    that outgrows the density's decay shows up either as growing increments
    or as an overflow to inf, both of which classify as divergent.

    The library classifies its rows on one ``Ladder`` per request instead;
    this one-row form stays while the tests and the benchmark name it.
    """
    ladder = Ladder.build(spec, cfg or EngineConfig())
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(weight(ladder.x), dtype=float)
        return ladder.classify(ladder.w * vals)[0]
