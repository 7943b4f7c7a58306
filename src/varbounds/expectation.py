"""Expectation engine: the points and weights every expectation is summed
over.  Continuous members get Gauss-Legendre quadrature on the mapped
support, discrete members exact summation over the support down to pmf
underflow, and the Monte Carlo cross-check a seeded sample; ``bounds._Grid``
holds one of them and sums each expectation over it.  The ``Ladder`` of
nested windows judges whether an expectation is finite at all; a discrete
member's ladder and summation grid share the nodes of
``truncated_support``.  What depends on the member alone, such as its
grids and its summation support, is held on the member (``held``), so each
is made once per member.

The Monte Carlo stream is a splitmix64 counter generator (documented in the
README) rather than a library RNG, so results are bit-reproducible from
(seed, samples) alone; the stream of the last (seed, samples) drawn is held,
read-only, with the forms of it the samplers derive (``stream``).
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

# draws per block of a Monte Carlo pass: the stream's float conversion, the
# samplers' inverse transforms and a sample grid's bases and products run a
# block at a time, so their temporaries stay in cache and what a pass holds
# beside its N-arrays does not grow with N
BLOCK = 8192


def splitmix64_uniforms(seed: int, count: int) -> np.ndarray:
    """Uniforms in (0, 1) from the counter-mode splitmix64 stream.

    Draw i (1-based) mixes the state ``seed + i * 0x9E3779B97F4A7C15`` and maps
    the top 53 bits to the open interval through ``_unit_interval``.  The
    states are mixed in place, with one scratch array for the shifts, freed
    before the float conversion, which writes the uniforms over the states
    a block at a time: at most two count-sized arrays are held, and one is
    returned.
    """
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    shifted = np.empty_like(z)
    for shift, multiplier in ((30, 0xBF58476D1CE4E5B9),
                              (27, 0x94D049BB133111EB)):
        z ^= np.right_shift(z, np.uint64(shift), out=shifted)
        z *= np.uint64(multiplier)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    del shifted
    z >>= np.uint64(11)
    u = z.view(np.float64)
    for lo in range(0, count, BLOCK):
        u[lo:lo + BLOCK] = _unit_interval(z[lo:lo + BLOCK])
    return u


def _unit_interval(bits) -> np.ndarray:
    """(bits + 0.5) * 2**-53 for 53-bit integers, so 0 and 1 never occur.

    The top pattern 2**53 - 1 alone would round to exactly 1.0; it maps to
    1 - 2**-53, a value no other pattern gives.
    """
    u = np.asarray(bits).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return np.minimum(u, 1.0 - 2.0**-53, out=u)


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


def segment_rules(lo, hi, n: int):
    """The ``n``-node Gauss-Legendre nodes x and weights w of every segment
    (lo, hi), for arrays ``lo`` and ``hi`` of one shape: x and w have that
    shape plus a last axis of n nodes, and ``sum(w * phi(x), axis=-1)``
    approximates the integral of phi over each segment.  The class ladder
    (``Ladder``) and the membership identity
    (``distributions._cumulative_lhs``) take their segments from here."""
    s, glw = gauss_legendre(n)
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    return 0.5 * (hi - lo) * s + 0.5 * (hi + lo), glw * 0.5 * (hi - lo)


def _read_only(*arrays):
    """``arrays``, each made read-only, as a tuple."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=64)
def _mapped_rule(alpha: float, omega: float, n: int):
    """The ``n`` Gauss-Legendre nodes mapped onto (alpha, omega) and their
    weights times the map's jacobian, shared read-only by every grid of
    that support and size."""
    s, glw = gauss_legendre(n)
    x, dxds = _map_support(alpha, omega, s)
    return _read_only(x, glw * dxds)


def continuous_grid(spec, cfg: EngineConfig, n_nodes: int | None = None):
    """Quadrature nodes and weights such that sum(w * phi(x)) ~ E[phi(X)],
    both read-only.

    Weights already include the map jacobian and the density; nodes where the
    density underflows to zero are dropped (they contribute exactly nothing
    and would otherwise turn inf * 0 into nan for growing integrands).
    Each call evaluates the density afresh; a request reads a member's grid
    of each node count once per member (``bounds._Grid.build``, ``held``).
    """
    n = n_nodes if n_nodes is not None else cfg.quad_nodes
    x, scaled = _mapped_rule(*spec.support, n)
    w = scaled * spec.density(x)
    keep = w != 0.0
    return _read_only(x[keep], w[keep])


def member_nodes(spec, cfg: EngineConfig, n: int):
    """``continuous_grid(spec, cfg, n)``, evaluated once per member and node
    count (``held``)."""
    return held(spec, ("nodes", n), continuous_grid, spec, cfg, n)


def held(spec, key, make, *args):
    """``make(*args)``, made on the first call for ``key`` and then kept in
    the memo of ``spec``, a catalog or hand-built member, and handed to
    every later call: the member's grids, its ladder and their weight
    powers, which depend on the member alone.  ``catalog`` hands out one
    member per parameters, so its requests share them; any other spec
    keeps them for as long as it lives.  What is held is never written:
    its arrays are read-only."""
    memo = spec._memo
    out = memo.get(key)
    if out is None:
        out = memo[key] = make(*args)
    return out


# ---------------------------------------------------------------------------
# discrete summation
# ---------------------------------------------------------------------------

def truncated_support(spec):
    """The summation nodes of a discrete member: the support points whose
    pmf is positive, as floats, and their pmf, both read-only.  Each call
    sums the pmf afresh; a request reads a member's support once per
    member (``bounds._Grid.build``, ``held``), and its class ladder is
    built on the same nodes.

    Toward an infinite end the support runs until the pmf underflows: a
    support bounded below grows by blocks of 512 points until a block adds
    no mass after some was found, and one unbounded below doubles a window
    around the mean until a step adds no mass.  Returns
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
        chunks, mass, added = [], 0.0, 0.0
        # a pmf that underflows on the first blocks has its mass further on
        while added != 0.0 or mass == 0.0:
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
    x, pm, edge = _read_only(
        js[keep].astype(float), pm[keep],
        np.cumsum(keep)[_underflow_edges(js, pm, spec.support)] - 1)
    return x, pm, tail, edge


def member_support(spec):
    """``truncated_support(spec)``, summed once per member (``held``)."""
    return held(spec, "support", truncated_support, spec)


def _cap_error():
    return TruncationError(
        f"the pmf did not underflow within {_SUMMATION_CAP} terms")


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

class Stream:
    """The uniforms ``u`` of a Monte Carlo stream and the forms of them that
    the samplers derive, such as logit(u), sorted(u) or ndtri(u).

    ``form(derive)`` returns ``derive(u)``, derived the first time it is
    asked for and kept with the stream, read-only: every member sampled
    from the same uniforms reads the same array.
    """

    def __init__(self, u):
        self.u = u
        self._forms = {}

    @classmethod
    def of(cls, u) -> "Stream":
        """The stream ``stream`` holds if ``u`` is its uniforms, else a new
        stream over u (flattened to floats), whose forms last as long as
        the caller keeps it."""
        held = _held
        if held and u is held[1].u:
            return held[1]
        return cls(np.asarray(u, dtype=float).ravel())

    def form(self, derive) -> np.ndarray:
        """``derive(u)``, derived once per stream; ``derive`` is the key."""
        out = self._forms.get(derive)
        if out is None:
            out = self._forms[derive] = derive(self.u)
            out.setflags(write=False)
        return out


# the (seed, samples) of the last stream drawn and that stream
_held: tuple = ()


def stream(seed: int, samples: int) -> Stream:
    """The stream of ``samples`` uniforms from ``seed``, read-only.

    The stream of the last (seed, samples) drawn is held with its forms,
    so repeated requests draw and derive nothing; another key frees them
    before its own uniforms are drawn.
    """
    global _held
    if not _held or _held[0] != (seed, samples):
        _held = ()
        u = splitmix64_uniforms(seed, samples)
        u.setflags(write=False)
        _held = ((seed, samples), Stream(u))
    return _held[1]


def sample(spec, cfg: EngineConfig | None = None) -> np.ndarray:
    """Draw ``cfg.mc_samples`` variates from the stream seeded by
    ``cfg.mc_seed`` through the spec's inverse-transform sampler.

    The sampler is passed the read-only uniforms of ``stream``, and the
    catalog samplers read their member-independent forms from it
    (``Stream.of``): the normal quantiles of u for normal members,
    logit(u) for the quantile tables of gamma and beta members and the
    sorted stream for discrete ones.  These are derived on the first request for a
    (seed, samples) and reused by the requests after it.

    Normal members invert with the AS241 normal quantile.  Gamma and beta
    members share one quantile path (``distributions._Quantiles``): they
    evaluate quintic Hermite interpolants of log x or logit x in
    logit(u), built from a table of one inverse, Halley steps on the log
    of the lower tail at u <= 1/2 and of the upper tail at 1 - u above,
    and checked cell by cell against it, with no CDF call per draw; a
    draw in a cell that fails its check takes the inverse.  A member holds
    its table for the stream's logit range, so a second request on the
    same stream inverts nothing where no cell failed.
    The tests hold their variates to the inverse incomplete gamma and beta
    functions (taken on 1 - u above u = 1/2) within 1e-13 relative, 1e-12
    for gamma shapes below 0.1.  The normal quantile, the incomplete gamma
    and beta functions and their inverses are the package's own
    (``distributions``), numpy and ``math`` code.
    Gamma and beta run over ``BLOCK`` draws at a time and write into one
    array of N variates.  A discrete member counts the draws in each cell
    of its cumulative table, over the summation support it holds
    (``member_support``), from the sorted stream, so its variates come
    back in ascending order; their values and counts are those of a
    lookup per draw.
    """
    cfg = cfg or EngineConfig()
    if getattr(spec, "sampler", None) is None:
        raise NoSamplerError(f"no sampler available for {spec!r}")
    u = stream(cfg.mc_seed, cfg.mc_samples).u
    return np.asarray(spec.sampler(u), dtype=float)


# ---------------------------------------------------------------------------
# finiteness probes (stabilization of truncated expectations)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinitenessProbe:
    """Verdict of a truncated-expectation stabilization ladder.

    ``values`` are nested truncated integrals/sums of a nonnegative
    integrand.  A non-finite value is divergent, with ratio inf; otherwise
    one rung is finite; a last increment (clipped at 0) of at most
    1e-9 (1 + |last value|) is finite, with ratio 0; otherwise
    ``decay_ratio`` is the median of the last three increment ratios with a
    positive denominator (0 if none) and the verdict is finite when it is
    <= 0.9.  Log-divergent integrands show constant increments and are
    classified divergent.
    """

    finite: bool
    values: tuple
    decay_ratio: float


_LADDER_RUNGS = 7
_DECAY_RATIO_MAX = 0.90
_STABLE_RTOL = 1e-9


def _classify(values) -> list[FinitenessProbe]:
    """The verdicts of every row of ``values`` (rows x rungs) at once."""
    ratio = np.zeros(values.shape[0])
    if values.shape[1] > 1:  # one rung: a finite support, summed exactly
        with np.errstate(over="ignore", invalid="ignore"):
            incs = np.maximum(np.diff(values, axis=1), 0.0)
            den, num = incs[:, -4:-1], incs[:, -3:]
            # ratios over a denominator <= 0 sort last as inf, so the median
            # of the others is 0, the first, the mean of two or the second
            ratios = np.sort(np.divide(num, den, where=den > 0.0,
                                       out=np.full(num.shape, math.inf)))
            ratio = np.choose(np.count_nonzero(den > 0.0, axis=1), (
                0.0, ratios[:, 0], (ratios[:, 0] + ratios[:, 1]) / 2,
                ratios[:, 1]))
            tail = np.abs(values[:, -1])
            ratio[incs[:, -1] <= _STABLE_RTOL * (1.0 + tail)] = 0.0
    # a sum that overflows diverges, on one rung (a finite support) too
    ratio[~np.all(np.isfinite(values), axis=1)] = math.inf
    return [FinitenessProbe(*verdict) for verdict in
            zip((ratio <= _DECAY_RATIO_MAX).tolist(),
                map(tuple, values.tolist()), ratio.tolist())]


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
    segment plus 48-node shells, Gauss-Legendre rules from
    ``segment_rules``, reaching infinite endpoints by factor-4
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
        """The ladder of ``spec``; a discrete member's is built on the
        nodes of ``truncated_support``, the ones the member holds
        (``member_support``).  A ladder with no node of positive
        weight, as that of a normal too narrow for its distance from 0,
        raises ``TruncationError``: no truncated expectation can be judged
        on it."""
        if getattr(spec, "is_discrete", False):
            ladder = cls._discrete(spec, *member_support(spec))
        else:
            ladder = cls._continuous(spec, cfg)
        if not ladder.x.size:
            raise TruncationError(
                "the density underflows at every node of the class ladder")
        return ladder

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
        segments, rung_segments = [(lo, hi)], [(0,)]
        for m in range(1, _LADDER_RUNGS):
            nlo, nhi = window(m)
            shells = [s for s in ((nlo, lo), (hi, nhi)) if s[1] > s[0]]
            rung_segments.append(tuple(range(len(segments),
                                             len(segments) + len(shells))))
            segments += shells
            lo, hi = nlo, nhi

        # the bulk's 96 nodes, then each shell's 48, side by side
        lo, hi = np.array(segments).T
        sizes = np.full(lo.size, 48)
        sizes[0] = 96
        x, w = (np.concatenate([bulk.ravel(), shells.ravel()])
                for bulk, shells in zip(segment_rules(lo[:1], hi[:1], 96),
                                        segment_rules(lo[1:], hi[1:], 48)))
        w = w * spec.density(x)
        # nodes where the density underflows contribute exactly nothing and
        # would turn inf * 0 into nan for growing integrands
        keep = w != 0.0
        ends = np.cumsum(keep)[np.cumsum(sizes) - 1]
        bounds = [slice(int(a), int(b)) for a, b in zip([0, *ends], ends)]
        rungs = tuple(tuple(bounds[i] for i in rung) for rung in rung_segments)
        x, w, edge = _read_only(
            x[keep], w[keep],
            np.cumsum(keep)[_underflow_edges(x, w, spec.support)] - 1)
        return cls(x, w, rungs, True, edge)

    @classmethod
    def _discrete(cls, spec, x, pm, tail, edge):
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
        return _classify(np.column_stack(values))


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
