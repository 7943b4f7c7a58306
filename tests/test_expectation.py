"""Expectation engine tests: sums over the quadrature, summation and
Monte Carlo sample grids.

Oracles: a pure-Python splitmix64 reference, the Gaussian double-factorial
moment identity, closed-form Beta moments, exact finite sums via math.comb,
and Poisson factorial moments.
"""

import gc
import hashlib
import json
import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from varbounds import (DiscreteCO, FunctionTuple, Quadratic, catalog,
                       parse_function, polynomial)
from varbounds import bounds, distributions, expectation
from varbounds.bounds import _Grid, bound_report, bound_reports
from varbounds.calculus import forward_difference, rising_q
from varbounds.cli import _mc_matrices
from varbounds.distributions import (_pmf_table, _TableSampler,
                                     infer_quadratic)
from varbounds.errors import NoSamplerError, TruncationError
from varbounds.expectation import (BLOCK, Z_99, EngineConfig,
                                   FinitenessProbe, Ladder, _classify,
                                   _map_support, _mapped_rule,
                                   _unit_interval, continuous_grid,
                                   gauss_legendre, probe, sample,
                                   splitmix64_uniforms, truncated_support)

MASK = (1 << 64) - 1


def splitmix_reference(seed, i):
    """Independent scalar implementation of the documented stream."""
    z = (seed + i * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    z = z ^ (z >> 31)
    # the top pattern's midpoint would round to 1.0
    return min(((z >> 11) + 0.5) * 2.0**-53, 1.0 - 2.0**-53)


def gaussian_even_moment(m):
    """E[Z^(2m)] = (2m-1)!! for the standard normal."""
    out = 1.0
    for i in range(1, 2 * m, 2):
        out *= i
    return out


def grid_sum(spec, phi, cfg):
    """E[phi(X)] as the weighted sum over the spec's grid."""
    grid = _Grid.build(spec, cfg).weights
    return grid.w @ phi(grid.x)


def tuple_of(*exprs):
    return FunctionTuple([parse_function(e) for e in exprs])


def beta_moment(a, b, m):
    """E[X^m] = prod_{i<m} (a+i)/(a+b+i)."""
    out = 1.0
    for i in range(m):
        out *= (a + i) / (a + b + i)
    return out


class TestSplitmix:
    def test_matches_reference(self):
        seed = 987654321
        got = splitmix64_uniforms(seed, 6)
        want = [splitmix_reference(seed, i) for i in range(1, 7)]
        np.testing.assert_array_equal(got, want)

    def test_range_and_determinism(self):
        u1 = splitmix64_uniforms(42, 10_000)
        u2 = splitmix64_uniforms(42, 10_000)
        np.testing.assert_array_equal(u1, u2)
        assert np.all(u1 > 0.0) and np.all(u1 < 1.0)
        assert abs(u1.mean() - 0.5) < 0.02

    def test_seed_changes_stream(self):
        assert not np.array_equal(splitmix64_uniforms(1, 8),
                                  splitmix64_uniforms(2, 8))

    def test_top_bit_pattern_stays_below_one(self):
        bits = np.array([0, 1, 2**53 - 2, 2**53 - 1], dtype=np.uint64)
        np.testing.assert_array_equal(
            _unit_interval(bits),
            [2.0**-54, 3 * 2.0**-54, 1.0 - 2.0**-52, 1.0 - 2.0**-53])


class TestContinuous:
    def test_normal_variance(self, cfg):
        grid = _Grid.build(catalog("normal"), cfg).weights
        assert abs(grid.w @ grid.x**2 - 1.0) < 1e-10
        assert grid.tail == 0.0

    def test_normal_sixth_moment(self, cfg):
        assert grid_sum(catalog("normal"), lambda x: x**6, cfg) == \
            pytest.approx(gaussian_even_moment(3), abs=1e-9)

    def test_beta_quadratic_expectation(self, cfg):
        spec = catalog("beta", {"a": 2, "b": 3})
        want = (beta_moment(2, 3, 1) - beta_moment(2, 3, 2)) / 5.0
        assert grid_sum(spec, spec.q, cfg) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("spec", [
        catalog("normal", {"mean": 0.5, "var": 2}),
        catalog("gamma", {"shape": 0.4}), catalog("beta", {"a": 0.3, "b": 4})],
        ids=lambda spec: spec.name)
    def test_grid_from_the_held_rule_keeps_its_bits(self, spec, cfg):
        # the mapped nodes and scaled weights are held per (support, n);
        # each grid's weights are those scaled weights times the density
        s, glw = gauss_legendre(cfg.quad_nodes)
        x, dxds = _map_support(*spec.support, s)
        w = glw * dxds * spec.density(x)
        for _ in range(2):
            got = continuous_grid(spec, cfg)
            for a, b in zip(got, (x[w != 0.0], w[w != 0.0])):
                assert a.tobytes() == b.tobytes()
        held = _mapped_rule(*spec.support, cfg.quad_nodes)
        assert not any(a.flags.writeable for a in held)

    def test_doubling_nodes_within_bracket(self, cfg):
        # brackets are estimates; the contract allows 10x slack
        specs = [catalog("normal"), catalog("gamma", {"shape": 3, "scale": 2}),
                 catalog("beta", {"a": 0.5, "b": 0.5})]
        rng = np.random.default_rng(21)
        double = EngineConfig(quad_nodes=2 * cfg.quad_nodes)
        for spec in specs:
            g = FunctionTuple([polynomial(rng.normal(size=4))
                               for _ in range(5)])
            report = bound_report(spec, g, 1, cfg, theorems=("poincare",),
                                  class_policy="skip")
            bracket = report.provenance["entry_brackets"]["D"]
            finer = bound_report(spec, g, 1, double, theorems=("poincare",),
                                 class_policy="skip").D.to_array()
            assert np.max(np.abs(finer - report.D.to_array())) \
                <= 10 * bracket, spec.name


class TestDiscrete:
    def test_poisson_mean_and_normalization(self, cfg):
        grid = _Grid.build(catalog("poisson", {"lam": 2}), cfg).weights
        assert abs(grid.w @ grid.x - 2.0) < 1e-10
        assert grid.w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_binomial_second_moment_exact(self, cfg):
        grid = _Grid.build(catalog("binomial", {"n": 10, "theta": 0.3}),
                           cfg).weights
        direct = sum(k**2 * math.comb(10, k) * 0.3**k * 0.7**(10 - k)
                     for k in range(11))
        assert grid.w @ grid.x**2 == pytest.approx(direct, abs=1e-12)
        assert grid.tail == 0.0  # finite support: exact

    def test_hypergeometric_exact_bracket(self, cfg):
        grid = _Grid.build(catalog("hypergeometric", {"N": 30, "K": 10, "n": 8}),
                           cfg).weights
        assert grid.tail == 0.0
        assert grid.w @ grid.x == pytest.approx(8 * 10 / 30, abs=1e-12)

    def test_infinite_support_bracket(self, cfg):
        grid = _Grid.build(catalog("poisson", {"lam": 7}), cfg).weights
        cubes = grid.x**3
        # the discarded tail times the largest of the last ten terms
        assert 0.0 <= np.max(np.abs(cubes[-10:])) * grid.tail < 1e-6
        # factorial-moment expansion: E[X^3] = lam^3 + 3 lam^2 + lam
        assert grid.w @ cubes == pytest.approx(7**3 + 3 * 7**2 + 7, rel=1e-12)

    def test_support_unbounded_below(self, cfg):
        # the poisson(4) pmf reflected onto the nonpositive integers
        pmf = catalog("poisson", {"lam": 4}).pmf
        spec = DiscreteCO(-4.0, Quadratic(0.0, -1.0, 0.0), (-math.inf, 0.0),
                          lambda k: pmf(-np.asarray(k, dtype=float)),
                          name="reflected-poisson")
        grid = _Grid.build(spec, cfg).weights
        mean = grid.w @ grid.x
        assert mean == pytest.approx(-4.0, abs=1e-12)
        assert grid.w @ (grid.x - mean) ** 2 == pytest.approx(4.0, abs=1e-12)
        np.testing.assert_array_equal(Ladder.build(spec, cfg).x, grid.x)
        fit = infer_quadratic(spec, cfg)
        np.testing.assert_allclose(fit.quadratic.as_tuple(), (0.0, -1.0, 0.0),
                                   atol=1e-10)
        assert fit.residual < 1e-10
        reports = bound_reports(spec, tuple_of("x", "x^2", "exp(0.2*x)"),
                                [1, 2, 3], cfg)
        assert all(r.verdicts["poincare"].ok and r.verdicts["bessel"].ok
                   for r in reports)

    @pytest.mark.parametrize("member", [
        ("poisson", {"lam": 2000}),
        ("negative-binomial", {"r": 3000, "theta": 0.5})])
    def test_support_past_underflowed_first_blocks(self, cfg, member):
        # the pmf underflows on the whole first block of 512 points, so the
        # support must grow until it finds the mass
        spec = catalog(*member)
        assert not np.any(spec.pmf(np.arange(512)))
        grid = _Grid.build(spec, cfg).weights
        assert grid.x[0] >= 512 and grid.x.size > 3000
        assert grid.w.sum() == pytest.approx(1.0, abs=1e-11)
        assert grid.tail < 1e-11
        assert grid.w @ grid.x == pytest.approx(spec.mean, rel=1e-10)
        for report in bound_reports(spec, tuple_of("x"), [1, 2], cfg):
            assert report.passed, report.n

    def test_truncation_cap(self):
        # pmf ~ 1/k^2 underflows only past k ~ 1e161; the cap must trip
        c = 6.0 / math.pi**2

        def pmf(k):
            k = np.asarray(k, dtype=float)
            out = np.zeros(k.shape)
            pos = k >= 1
            out[pos] = c / k[pos] ** 2
            return out

        spec = DiscreteCO(1.0, Quadratic(0.0, 0.0, 1.0), (1.0, math.inf), pmf)
        with pytest.raises(TruncationError):
            truncated_support(spec)
        # a pmf with no mass anywhere is scanned for it up to the cap too
        spec = DiscreteCO(1.0, Quadratic(0.0, 0.0, 1.0), (1.0, math.inf),
                          lambda k: np.zeros(np.shape(k)))
        with pytest.raises(TruncationError):
            truncated_support(spec)


DISCRETE_TUPLE = ("x", "x^2", "exp(0.1*x)", "sin(0.7*x)")


def sixty_point_table():
    """A tabulated 60-point member: the binomial(59, 0.3) pmf."""
    table = [[k, math.comb(59, k) * 0.3**k * 0.7**(59 - k)] for k in range(60)]
    pmf = _pmf_table(table)
    return DiscreteCO(59 * 0.3, Quadratic(0.0, -0.3, 59 * 0.3), (0.0, 59.0),
                      pmf, _TableSampler(), "table-60")


def sampled_cases():
    """What ``sample`` draws and how a test reads it, per case name:
    (spec, mc_samples, counted).  A counted case is read as its counted
    grid, the distinct values with their counts; the others as the
    variates in stream order."""
    cases = {"normal": (catalog("normal"), None, False)}
    for a in (0.05, 0.4, 2.67, 3.7, 40):
        cases[f"gamma:shape={a}"] = (catalog("gamma", {"shape": a}), None,
                                     False)
    for a, b in ((0.3, 4), (0.5, 0.5), (2, 2), (2.5, 2.2), (3, 3), (40, 3)):
        cases[f"beta:a={a},b={b}"] = (catalog("beta", {"a": a, "b": b}),
                                      None, False)
    # every discrete catalog family, the benchmark's hard discrete members
    # and a tabulated member
    for name, params in (
            ("poisson", {"lam": 1}), ("poisson", {"lam": 7}),
            ("poisson", {"lam": 300}), ("binomial", {"n": 10, "theta": 0.3}),
            ("binomial", {"n": 200, "theta": 0.02}),
            ("negative-binomial", {"r": 3, "theta": 0.4}),
            ("negative-binomial", {"r": 0.5, "theta": 0.9}),
            ("hypergeometric", {"N": 30, "K": 12, "n": 8})):
        key = ",".join(f"{k}={v}" for k, v in params.items())
        cases[f"{name}:{key}"] = (catalog(name, params), None, True)
    cases["table-60"] = (sixty_point_table(), None, True)
    # one block, either side of a block edge, three blocks and a part
    for size in (2, 8191, 8193, 3 * 8192 + 17):
        cases[f"gamma:shape=2.67@{size}"] = (
            catalog("gamma", {"shape": 2.67}), size, False)
        cases[f"beta:a=2.5,b=2.2@{size}"] = (
            catalog("beta", {"a": 2.5, "b": 2.2}), size, False)
    return cases


def sample_digest(spec, size, counted):
    """SHA-256 of the variates' float bits, or of a counted case's grid."""
    cfg = EngineConfig() if size is None else EngineConfig(mc_samples=size)
    xs = sample(spec, cfg)
    arrays = [xs]
    if counted:
        grid = next(_Grid.from_samples(spec, xs, 0))
        arrays = [grid.weights.x, grid.counts]
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


SAMPLE_CASES = sampled_cases()
# the discrete entries recorded from the unstreamed samplers, a binary
# search per discrete draw; the normal entry from the package's own AS241
# normal quantile, and the gamma and beta entries from the quintic quantile
# tables (``distributions._QuantileTable``) of its own incomplete gamma and
# beta inverses.  The bits are those of the numpy build they were recorded
# with (numpy 2.4.6); another build may round its log or exp differently
with open(os.path.join(os.path.dirname(__file__),
                       "sample_digests.json")) as fh:
    SAMPLE_DIGESTS = json.load(fh)


def test_sample_digests_cover_every_case():
    assert sorted(SAMPLE_DIGESTS) == sorted(SAMPLE_CASES)


@pytest.mark.parametrize("name", sorted(SAMPLE_CASES))
def test_variates_keep_their_bits(name):
    assert sample_digest(*SAMPLE_CASES[name]) == SAMPLE_DIGESTS[name]


def lookup_reference(js, cdf, u):
    """The node of each draw by a binary search in the cumulative table."""
    return js[np.clip(np.searchsorted(cdf, u, "left"), 0, js.size - 1)]


@pytest.mark.parametrize("spec", [
    catalog("poisson", {"lam": 2}),
    catalog("binomial", {"n": 12, "theta": 0.35}),
    catalog("hypergeometric", {"N": 50, "K": 20, "n": 10}),
    sixty_point_table()], ids=lambda spec: spec.name)
def test_discrete_counts_match_a_lookup_per_draw(spec, cfg):
    js, pm, _, _ = truncated_support(spec)
    cdf = np.cumsum(pm)
    # every cumulative value, its neighbours and the draws above the last
    edges = np.concatenate([cdf, np.nextafter(cdf, 0.0),
                            np.nextafter(cdf, 1.0), [1.0 - 2.0**-53]])
    u = np.concatenate([splitmix64_uniforms(cfg.mc_seed, cfg.mc_samples),
                        edges[(edges > 0.0) & (edges < 1.0)]])
    want = lookup_reference(js, cdf, u)
    got = spec.sampler(u)
    np.testing.assert_array_equal(got, np.sort(want))
    for a, b in zip(np.unique(got, return_counts=True),
                    np.unique(want, return_counts=True)):
        np.testing.assert_array_equal(a, b)


def sample_sums(spec, g, n, cfg):
    """``_mc_matrices`` as sums over all N samples, each of weight 1/N, with
    each row evaluated over the whole sample array one function at a time:
    the exact derivative of a continuous member's function, the forward
    difference of a discrete member's."""
    def mean_ci(v):
        return v.mean(), Z_99 * v.std(ddof=1) / math.sqrt(v.size)

    def entries(rows, weight):
        p = len(rows)
        mat, vec = np.zeros((2, p, p)), np.zeros((2, p))
        for i in range(p):
            vec[:, i] = mean_ci(weight * rows[i])
            for j in range(p):
                mat[:, i, j] = mean_ci(weight * rows[i] * rows[j])
        return mat, vec

    xs = sample(spec, cfg)

    def rows(k):
        return np.array([forward_difference(gi, k, xs) if spec.is_discrete
                         else gi.derivative_value(k, xs) for gi in g])

    def weight(k):
        return rising_q(spec.q, k, xs) if spec.is_discrete \
            else spec.q(xs) ** k

    first = rows(0)
    d, _ = entries(first - first.mean(axis=1, keepdims=True), 1.0)
    hs, bs = [], []
    for k in range(1, n + 1):
        h, (v, v_ci) = entries(rows(k), weight(k))
        hs.append(h)
        bs.append((np.outer(v, v),
                   np.outer(np.abs(v), v_ci) + np.outer(v_ci, np.abs(v))))
    return d, hs, bs


def estimates(matrices):
    """The (means, half-widths) pairs of D, every H_k and every B_k."""
    d, hs, bs = matrices
    return [d, *hs, *bs]


class TestMonteCarlo:
    """Monte Carlo matrices of ``mc-verify``: per-entry means over the
    sample grid with 99% confidence half-widths."""

    def test_normal_within_ci(self, cfg):
        (d, d_ci), ((h, h_ci),), _ = _mc_matrices(catalog("normal"),
                                                  tuple_of("x^2"), 1, cfg)
        assert abs(d[0, 0] - 2.0) <= d_ci[0, 0]  # Var[Z^2]
        assert abs(h[0, 0] - 4.0) <= h_ci[0, 0]  # E[(2Z)^2]

    def test_poisson_factorial_moment(self, cfg):
        # forward difference 2X + 1 and weight q^[1] = lam = 2
        (d, d_ci), ((h, h_ci),), ((b, b_ci),) = _mc_matrices(
            catalog("poisson", {"lam": 2}), tuple_of("x^2"), 1, cfg)
        assert abs(d[0, 0] - 58.0) <= d_ci[0, 0]  # E[X^4] - E[X^2]^2
        assert abs(h[0, 0] - 66.0) <= h_ci[0, 0]  # 2 E[(2X + 1)^2]
        assert abs(b[0, 0] - 100.0) <= b_ci[0, 0]  # (2 E[2X + 1])^2

    def test_constant_is_exact(self, cfg):
        g = FunctionTuple([polynomial([3.25]), parse_function("3.25*x")])
        (d, d_ci), ((h, h_ci),), ((b, b_ci),) = _mc_matrices(
            catalog("normal"), g, 1, cfg)
        assert d[0].tolist() == [0.0, 0.0] and d_ci[0].tolist() == [0.0, 0.0]
        np.testing.assert_array_equal(h, [[0.0, 0.0], [0.0, 10.5625]])
        np.testing.assert_array_equal(b, h)
        assert not h_ci.any() and not b_ci.any()

    def test_constant_is_exact_on_counted_samples(self, cfg):
        g = FunctionTuple([polynomial([3.25]), parse_function("3.25*x")])
        (d, d_ci), ((h, h_ci),), ((b, b_ci),) = _mc_matrices(
            catalog("poisson", {"lam": 2}), g, 1, cfg)
        assert d[0].tolist() == [0.0, 0.0] and d_ci[0].tolist() == [0.0, 0.0]
        # forward difference 3.25 and weight q^[1] = lam = 2
        np.testing.assert_array_equal(h, [[0.0, 0.0], [0.0, 2 * 3.25**2]])
        np.testing.assert_array_equal(b, [[0.0, 0.0], [0.0, (2 * 3.25)**2]])
        assert not h_ci.any() and not b_ci.any()

    @pytest.mark.parametrize("spec,exprs", [
        (catalog("poisson", {"lam": 3.815}), DISCRETE_TUPLE),
        (catalog("binomial", {"n": 14, "theta": 0.4}), DISCRETE_TUPLE),
        (catalog("negative-binomial", {"r": 3.2, "theta": 0.55}),
         DISCRETE_TUPLE),
        (catalog("hypergeometric", {"N": 50, "K": 20, "n": 10}),
         DISCRETE_TUPLE),
        (sixty_point_table(), DISCRETE_TUPLE),
        (catalog("normal", {"mean": 0.3, "var": 1.7}),
         ("x", "exp(0.3*x)", "sin(0.7*x)", "x*cos(0.9*x)")),
        (catalog("gamma", {"shape": 2.5, "scale": 1.2}),
         ("x^2", "exp(0.1*x)", "sin(x)", "x*cos(0.9*x)")),
        (catalog("beta", {"a": 2, "b": 3}),
         ("x", "exp(0.5*x)", "x*cos(0.9*x)", "log(x) - log(1-x)")),
    ], ids=lambda v: v.name if hasattr(v, "name") else "g")
    # samples in one block, at either side of a block edge, and in three
    # blocks and a part
    @pytest.mark.parametrize("size", [None, 2, 8191, 8193, 3 * 8192 + 17])
    def test_sample_grids_match_sample_sums(self, spec, exprs, size, cfg):
        if size is not None:
            cfg = cfg.override(mc_samples=size)
        g = tuple_of(*exprs)
        got = _mc_matrices(spec, g, 2, cfg)
        want = sample_sums(spec, g, 2, cfg)
        for (a, a_ci), (b, b_ci) in zip(estimates(got), estimates(want)):
            np.testing.assert_allclose(a, b, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(b)))
            # with 2 samples D's centred products are equal at both, so
            # their half-widths are roundoff on the scale of the means
            scale = b if size == 2 else b_ci
            np.testing.assert_allclose(a_ci, b_ci, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(scale)))

    @pytest.mark.parametrize("member", [("normal", {}),
                                        ("poisson", {"lam": 3})])
    def test_one_evaluation_per_sample_grid(self, cfg, monkeypatch,
                                            base_evaluations, member):
        # a sample grid evaluates its bases once for every order (on a
        # discrete member once over every shift) and its weights once
        weights = []
        rising, power = bounds.rising_products, Quadratic.__call__

        def counted_rising(q, top, x):
            weights.append(("rising", top))
            return rising(q, top, x)

        def counted_power(q, x):
            weights.append(("q", np.size(x)))
            return power(q, x)

        monkeypatch.setattr(bounds, "rising_products", counted_rising)
        monkeypatch.setattr(Quadratic, "__call__", counted_power)
        spec = catalog(*member)
        cfg = cfg.override(mc_samples=3 * BLOCK + 17)
        _mc_matrices(spec, tuple_of("x", "exp(0.1*x)", "x*cos(0.9*x)"), 3,
                     cfg)
        got = [(x.size, orders) for x, orders in base_evaluations]
        if spec.is_discrete:
            (x, _), = base_evaluations
            # the counted grid of the samples' distinct values, at shifts
            # 0..3, and one stack of the rising products of orders 0..3,
            # made from one call of q per shift 0..2
            assert got == [(x.size, (0,))] and x.size % 4 == 0
            size = x.size // 4
            assert weights == [("rising", 3)] + [("q", size)] * 3
        else:
            assert got == [(BLOCK, (0, 1, 2, 3))] * 3 + [(17, (0, 1, 2, 3))]
            assert weights == [("q", BLOCK)] * 3 + [("q", 17)]

    # the pass holds the N samples, the rows g_i as one (p, N) array, and
    # per block one buffer of its p(p+1)/2 + p entries beside the block's
    # stacks of rows and powers and its bases: bounded by the buffer, twice
    # the p (n + 1) rows of orders 0..n and 16 more block-sized rows.  That
    # is 9.2 MB at p = 3, n = 2 and 200k samples (the pass reads 8.4 MB; one
    # more (p, N) array would take it past the bound) and 48.7 MB at p = 16,
    # n = 4 (reads 46.6 MB, 43.8 when a block held one order's rows at a
    # time; whole-sample rows per order read 56 MB over sampling, a buffer
    # of every order's entries 107 MB).  The pass measured reads the stream
    # its first call drew; the first pass of a (seed, samples) also draws
    # the stream and ndtri(u), 2 N-arrays held after it (11.4 MB at p = 3)
    @pytest.mark.parametrize("exprs,n", [
        (("x", "exp(0.1*x)", "x*cos(0.9*x)"), 2),
        (("x", "x^2", "exp(0.1*x)", "exp(-0.2*x)", "sin(0.7*x)",
          "cos(1.1*x)", "x*cos(0.9*x)", "x*sin(0.3*x)", "x^3",
          "x*exp(0.05*x)", "sin(0.2*x)", "cos(0.4*x)", "exp(0.3*x)",
          "x^2*sin(0.5*x)", "x*cos(0.6*x)", "exp(0.15*x)*x"), 4),
    ], ids=["p3", "p16"])
    def test_memory_of_the_pass(self, exprs, n, cfg):
        spec, g = catalog("normal"), tuple_of(*exprs)
        _mc_matrices(spec, g, n, cfg)  # loads and builds what it caches
        tracemalloc.start()
        try:
            _mc_matrices(spec, g, n, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        p, size = g.p, cfg.mc_samples
        block = p * (p + 1) // 2 + p + 2 * p * (n + 1) + 16
        assert peak < 8 * (size + p * size + block * BLOCK)

    # the N-arrays a sampler holds at its peak.  The first request of a
    # (seed, samples) draws the stream and its uniforms (the mixing scratch
    # is freed before they are converted) and derives one form of them,
    # logit(u), ndtri(u) or the sorted stream, which it keeps beside the
    # variates: 3 N-arrays.  Normal and poisson held 2 before the forms were
    # kept (3.2 MB, against 4.8 now).  A request after it makes the
    # variates alone.  Whole-stream temporaries read 12.9 MB on
    # gamma(2.67), 15.8 on beta(2.5, 2.2) and 8.0 on normal and poisson;
    # beta read 7.0 MB while it held an N-array of 1 - x, 5.6 without it.
    @pytest.mark.parametrize("spec", [
        catalog("gamma", {"shape": 2.67}),
        catalog("beta", {"a": 2.5, "b": 2.2}),
        catalog("normal"),
        catalog("poisson", {"lam": 2}),
    ], ids=lambda v: v.name)
    def test_memory_of_sampling(self, spec, cfg):
        # a request on another stream first: the member then holds a
        # table of another logit range, so the first request below builds
        # its own, and the one after it reads that one
        sample(spec, cfg.override(mc_seed=cfg.mc_seed + 1))
        for arrays in (3, 1):  # a first request, then one after it
            tracemalloc.start()
            try:
                sample(spec, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # with room for 32 block-sized temporaries
            assert peak < 8 * (arrays * cfg.mc_samples + 32 * BLOCK), arrays

    def test_reproducible(self, cfg):
        a = sample(catalog("normal"), cfg)
        b = sample(catalog("normal"), cfg)
        np.testing.assert_array_equal(a, b)

    def test_no_sampler(self, cfg, heavy_member):
        with pytest.raises(NoSamplerError):
            _mc_matrices(heavy_member, tuple_of("x"), 1, cfg)

    def test_bare_callable_needs_derivatives(self, cfg):
        with pytest.raises(TypeError):
            _mc_matrices(catalog("normal"), FunctionTuple([np.sin]), 1, cfg)

    def test_quadrature_mc_agreement(self, cfg):
        """Randomized suite: D, H_1 and B_1 of polynomials agree within 4x
        the CI, the ``mc-verify`` criterion."""
        rng = np.random.default_rng(99)
        members = [catalog("normal"), catalog("gamma", {"shape": 2.5}),
                   catalog("beta", {"a": 2, "b": 3}),
                   catalog("poisson", {"lam": 3}),
                   catalog("binomial", {"n": 12, "theta": 0.4})]
        for i, spec in enumerate(members):
            for trial in range(2):
                deg = int(rng.integers(1, 7))
                g = FunctionTuple([polynomial(rng.normal(size=deg + 1))])
                mc_cfg = EngineConfig(mc_seed=1000 + 17 * i + trial)
                d, (h,), (b,) = _mc_matrices(spec, g, 1, mc_cfg)
                report = bound_report(spec, g, 1, mc_cfg, class_policy="skip")
                for (mc, ci), det in zip((d, h, b), (report.D, report.H[0],
                                                     report.B[0])):
                    assert np.all(np.abs(mc - det.to_array())
                                  <= 4 * ci + 1e-12), (spec.name, trial)


STREAM_MEMBERS = (catalog("normal", {"mean": 0.3, "var": 1.2}),
                  catalog("gamma", {"shape": 2.5, "scale": 1.5}),
                  catalog("beta", {"a": 2, "b": 3}),
                  catalog("poisson", {"lam": 3}),
                  catalog("negative-binomial", {"r": 3, "theta": 0.5}))


@pytest.fixture
def stream_calls(monkeypatch):
    """Counts of the stream draws and of each form derived while the test
    runs, from an empty stream cache."""
    calls = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(expectation, "splitmix64_uniforms")
    for name in ("_logit", "_ndtri", "_sorted"):
        counted(distributions, name)
    monkeypatch.setattr(expectation, "_held", ())
    return calls


class TestStream:
    """The stream of the last (seed, samples) and its forms, held for the
    requests after the first."""

    def test_one_draw_and_one_derivation_per_key(self, stream_calls):
        cfg = EngineConfig(mc_samples=5000, mc_seed=3)
        # three requests on one key, then a new seed, a new sample count
        # and the first key again, each drawn and derived anew
        keys = [cfg] * 3 + [cfg.override(mc_seed=4),
                            cfg.override(mc_seed=4, mc_samples=5001), cfg]
        for draws, key in zip((1, 1, 1, 2, 3, 4), keys):
            for spec in STREAM_MEMBERS:
                sample(spec, key)
            assert stream_calls == dict.fromkeys(
                ("splitmix64_uniforms", "_logit", "_ndtri", "_sorted"), draws)

    def test_stream_and_forms_are_read_only(self, stream_calls):
        cfg = EngineConfig(mc_samples=5000, mc_seed=3)
        for spec in STREAM_MEMBERS:
            sample(spec, cfg)
        held = expectation.stream(cfg.mc_seed, cfg.mc_samples)
        arrays = [held.u] + [held.form(derive) for derive in (
            distributions._logit, distributions._ndtri,
            distributions._sorted)]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.5
        assert stream_calls["_logit"] == 1  # asked for, not derived again

    def test_one_key_is_held(self, stream_calls):
        first = EngineConfig(mc_samples=5000, mc_seed=3)
        for spec in STREAM_MEMBERS:
            sample(spec, first)
        old = expectation.stream(first.mc_seed, first.mc_samples)
        forms = [weakref.ref(a) for a in old._forms.values()]
        old = weakref.ref(old)
        second = first.override(mc_seed=4)
        sample(STREAM_MEMBERS[0], second)
        gc.collect()
        assert old() is None and all(form() is None for form in forms)
        assert expectation._held[0] == (4, 5000)
        assert list(expectation._held[1]._forms) == [distributions._ndtri]

    def test_caller_arrays_are_not_held(self, stream_calls):
        # a sampler called on an array of its own derives its forms from it
        u = splitmix64_uniforms(3, 5000)
        for spec in STREAM_MEMBERS:
            np.testing.assert_array_equal(
                spec.sampler(u.copy()),
                sample(spec, EngineConfig(mc_samples=5000, mc_seed=3)))
        assert u.flags.writeable and expectation._held[0] == (3, 5000)
        assert stream_calls["_logit"] == 3  # gamma, beta, then the stream


class TestProbes:
    def test_light_tail_finite(self, cfg):
        assert probe(catalog("normal"), lambda x: x**8, cfg).finite
        assert probe(catalog("poisson", {"lam": 3}), lambda k: k**6, cfg).finite

    def test_heavy_tail_classification(self, cfg, heavy_member):
        assert probe(heavy_member, lambda x: np.abs(x)**4, cfg).finite
        assert not probe(heavy_member, lambda x: np.abs(x)**6, cfg).finite

    def test_endpoint_singularity(self, cfg):
        spec = catalog("beta", {"a": 0.5, "b": 0.5})
        weight = lambda x: 1.0 / (x * (1.0 - x))
        assert not probe(spec, weight, cfg).finite
        assert probe(catalog("beta", {"a": 2, "b": 3}), weight, cfg).finite

    def test_log_divergence(self, cfg):
        # integral of (1-x)^(-1) against Beta(5,1): constant increments
        spec = catalog("beta", {"a": 5, "b": 1})
        assert not probe(spec, lambda x: 1.0 / (1.0 - x), cfg).finite

    def test_exponential_blowup_discrete(self, cfg):
        spec = catalog("negative-binomial", {"r": 3, "theta": 0.4})
        assert not probe(spec, lambda k: np.exp(1.0 * k), cfg).finite
        assert probe(spec, lambda k: np.exp(0.3 * k), cfg).finite

    @pytest.mark.parametrize("spec", [
        catalog("normal"), catalog("gamma", {"shape": 2}),
        catalog("beta", {"a": 2, "b": 3}), catalog("poisson", {"lam": 3}),
        catalog("binomial", {"n": 12, "theta": 0.35})],
        ids=lambda spec: spec.name)
    def test_weight_evaluated_once(self, spec, cfg):
        calls = []

        def weight(x):
            calls.append(np.size(x))
            return x * x

        assert probe(spec, weight, cfg).finite
        assert len(calls) == 1


def classify_reference(values) -> FinitenessProbe:
    """The verdict of one ladder row, judged on its own: the scalar rule
    the array pass applies to every row at once."""
    values = [float(v) for v in values]
    if not np.all(np.isfinite(values)):
        return FinitenessProbe(False, tuple(values), math.inf)
    if len(values) == 1:  # a finite discrete support is summed exactly
        return FinitenessProbe(True, tuple(values), 0.0)
    incs = np.diff(values)
    incs = np.maximum(incs, 0.0)
    tail = abs(values[-1])
    if incs[-1] <= 1e-9 * (1.0 + tail):
        return FinitenessProbe(True, tuple(values), 0.0)
    ratios = [incs[m] / incs[m - 1]
              for m in range(len(incs) - 3, len(incs))
              if incs[m - 1] > 0.0]
    ratio = float(np.median(ratios)) if ratios else 0.0
    return FinitenessProbe(ratio <= 0.9, tuple(values), ratio)


def probe_bits(p):
    """A probe's fields with every float as its exact hex form."""
    return (type(p.finite), p.finite, tuple(v.hex() for v in p.values),
            type(p.decay_ratio), p.decay_ratio.hex())


def assert_matches_reference(rows):
    rows = np.asarray(rows, dtype=float)
    got = _classify(rows)
    # the scalar rule warns where a ratio overflows; inf is its verdict
    with np.errstate(over="ignore", invalid="ignore"):
        want = [classify_reference(row) for row in rows]
    assert [probe_bits(p) for p in got] == [probe_bits(p) for p in want]
    return got


class TestClassifyRule:
    """The array pass against the scalar rule, bit for bit."""

    def test_one_rung_is_finite(self):
        # unless its sum overflows: that diverges, as on every ladder
        got = assert_matches_reference([[2.5], [0.0], [math.inf]])
        assert [(p.finite, p.decay_ratio) for p in got] == \
            [(True, 0.0), (True, 0.0), (False, math.inf)]

    def test_non_finite_rows_diverge(self):
        # a nan rung, and a row cut off at the underflow edge (last rung inf)
        got = assert_matches_reference([[1, 2, math.nan, 3, 4, 5, 6],
                                        [1, 1.5, 1.75, 1.8, 1.81, 1.811,
                                         math.inf]])
        assert [(p.finite, p.decay_ratio) for p in got] == \
            [(False, math.inf)] * 2

    def test_stable_last_increment(self):
        got = assert_matches_reference([[1, 2, 4, 8, 16, 32, 32 + 3e-8],
                                        [0, 1, 2, 3, 4, 5, 5]])
        assert [(p.finite, p.decay_ratio) for p in got] == [(True, 0.0)] * 2

    @pytest.mark.parametrize("incs, ratio", [
        ((1, 1, 0, 0, 0, 1), 0.0),  # no positive denominator
        ((1, 1, 0, 0, 2, 1), 0.5),  # one
        ((1, 1, 1, 0, 1, 0.5), 0.25),  # two: the mean of 0 and 0.5
        ((1, 1, 2, 2, 1, 0.25), 0.5),  # three: the middle of 1, 0.5, 0.25
        ((1000, 1000, 1000, 900, 810, 729), 0.9),  # exactly 0.9 is finite
        ((1, 1, 1, 1, 1, 1), 1.0),  # constant increments: log divergence
        ((1, 1, 1, -1, 1, 1), 0.5),  # a negative increment counts as 0
        # two ratios, 0 and one that overflows: the mean is inf
        ((1e-300, 1e-300, 1e-300, 0, 1e-300, 1e300), math.inf),
    ])
    def test_median_of_positive_denominators(self, incs, ratio):
        (got,) = assert_matches_reference([np.cumsum((0.0,) + incs)])
        assert got.decay_ratio == ratio
        assert got.finite == (ratio <= 0.9)

    def test_seeded_random_rows(self):
        rng = np.random.default_rng(20260301)
        kinds = (lambda n: rng.exponential(size=n),
                 lambda n: 0.9 ** np.arange(n) * rng.uniform(0.5, 2.0),
                 lambda n: rng.choice((0.0, 1.0, 2.0, -1.0), size=n),
                 lambda n: rng.exponential(size=n) * 1e-12,
                 lambda n: 10.0 ** rng.integers(-300, 300, size=n))
        for _ in range(20):
            rows = np.array([np.cumsum(kinds[rng.integers(len(kinds))](7))
                             for _ in range(200)])
            rows[rng.random(rows.shape) < 0.005] = math.inf
            rows[rng.random(rows.shape) < 0.002] = math.nan
            assert_matches_reference(rows)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(quad_nodes=5)
        with pytest.raises(ValueError, match="mc_samples"):
            EngineConfig(mc_samples=1)
        for key, value in (("quad_nodes", "80"), ("quad_nodes", 80.0),
                           ("mc_seed", None), ("mc_samples", True)):
            with pytest.raises(ValueError, match=key):
                EngineConfig(**{key: value})
        with pytest.raises(ValueError, match="quad_nodez"):
            EngineConfig().override(quad_nodez=80)

    def test_override(self):
        cfg = EngineConfig().override(quad_nodes=80, mc_seed=7)
        assert cfg.quad_nodes == 80 and cfg.mc_seed == 7
        assert EngineConfig().override(quad_nodes=None).quad_nodes == 200
