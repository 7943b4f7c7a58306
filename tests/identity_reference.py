"""The point-by-point integrator of the membership identity that the batched
segment rules replaced.

``reference_cumulative_lhs`` is the former ``distributions._cumulative_lhs``
with its helpers, the former ``_gl_segment``, ``_left_anchored_integral``
and ``_anchored_cum``: on a support bounded below, each point's integral
integral_alpha^x (mu - t) f(t) dt came from its own 60 dyadic shells toward
alpha and a u^8 sliver (on a finite support, points above the midpoint from
the shells up to it and shells halving toward omega), one Gauss-Legendre
segment and one density call at a time; on a support unbounded below, a
reversed semi-infinite map reached the first point and one 64-node segment
each point after it.  The Gauss-Legendre rule (``gauss_legendre``) is shared
with the library.
"""

import math

import numpy as np

from varbounds.expectation import gauss_legendre


def _gl_segment(fn, lo, hi, n=64):
    s, glw = gauss_legendre(n)
    x = 0.5 * (hi - lo) * s + 0.5 * (hi + lo)
    return float(np.sum(glw * 0.5 * (hi - lo) * fn(x)))


def _left_anchored_integral(fn, alpha, x1):
    total = 0.0
    hi = x1
    for _ in range(60):
        lo = alpha + 0.5 * (hi - alpha)
        total += _gl_segment(fn, lo, hi, 24)
        hi = lo
    s, glw = gauss_legendre(32)
    u = 0.5 * (s + 1.0)
    t = alpha + (hi - alpha) * u**8
    jac = (hi - alpha) * 8.0 * u**7 * 0.5
    total += float(np.sum(glw * jac * fn(t)))
    return total


def _anchored_cum(fn, alpha, omega, x):
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


def reference_cumulative_lhs(spec, pts):
    """integral_alpha^x (mu - t) f(t) dt at each of ``pts`` (ascending), as
    the former integrator computed it."""
    alpha = spec.support[0]
    mu = spec.mean

    def integrand(t):
        return (mu - t) * np.asarray(spec.density(t), dtype=float)

    out = np.empty(len(pts))
    if math.isfinite(alpha):
        omega = spec.support[1]
        for i, xp in enumerate(pts):
            out[i] = _anchored_cum(integrand, alpha, omega, xp)
        return out
    acc = 0.0
    prev = None
    for i, xp in enumerate(pts):
        if prev is None:
            s, glw = gauss_legendre(160)
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
