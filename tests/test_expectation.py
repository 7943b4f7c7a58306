"""Expectation engine tests: sums over the quadrature, summation and
Monte Carlo sample grids.

Oracles: a pure-Python splitmix64 reference, the Gaussian double-factorial
moment identity, closed-form Beta moments, exact finite sums via math.comb,
and Poisson factorial moments.
"""

import math

import numpy as np
import pytest

from varbounds import (DiscreteCO, FunctionTuple, Quadratic, catalog,
                       parse_function, polynomial)
from varbounds.bounds import (_Grid, bound_report, dispersion_matrix,
                              matrix_B, matrix_H)
from varbounds.cli import _mc_matrices
from varbounds.distributions import _pmf_table, _table_sampler
from varbounds.errors import NoSamplerError, TruncationError
from varbounds.expectation import (Z_99, EngineConfig, _unit_interval, probe,
                                   sample, splitmix64_uniforms,
                                   truncated_support)

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
    grid = _Grid.build(spec, cfg)
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
        grid = _Grid.build(catalog("normal"), cfg)
        assert abs(grid.w @ grid.x**2 - 1.0) < 1e-10
        assert grid.tail == 0.0

    def test_normal_sixth_moment(self, cfg):
        assert grid_sum(catalog("normal"), lambda x: x**6, cfg) == \
            pytest.approx(gaussian_even_moment(3), abs=1e-9)

    def test_beta_quadratic_expectation(self, cfg):
        spec = catalog("beta", {"a": 2, "b": 3})
        want = (beta_moment(2, 3, 1) - beta_moment(2, 3, 2)) / 5.0
        assert grid_sum(spec, spec.q, cfg) == pytest.approx(want, abs=1e-12)

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
            finer = dispersion_matrix(spec, g, double).to_array()
            assert np.max(np.abs(finer - report.D.to_array())) \
                <= 10 * bracket, spec.name


class TestDiscrete:
    def test_poisson_mean_and_normalization(self, cfg):
        grid = _Grid.build(catalog("poisson", {"lam": 2}), cfg)
        assert abs(grid.w @ grid.x - 2.0) < 1e-10
        assert grid.w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_binomial_second_moment_exact(self, cfg):
        grid = _Grid.build(catalog("binomial", {"n": 10, "theta": 0.3}), cfg)
        direct = sum(k**2 * math.comb(10, k) * 0.3**k * 0.7**(10 - k)
                     for k in range(11))
        assert grid.w @ grid.x**2 == pytest.approx(direct, abs=1e-12)
        assert grid.tail == 0.0  # finite support: exact

    def test_hypergeometric_exact_bracket(self, cfg):
        grid = _Grid.build(catalog("hypergeometric", {"N": 30, "K": 10, "n": 8}),
                           cfg)
        assert grid.tail == 0.0
        assert grid.w @ grid.x == pytest.approx(8 * 10 / 30, abs=1e-12)

    def test_infinite_support_bracket(self, cfg):
        grid = _Grid.build(catalog("poisson", {"lam": 7}), cfg)
        cubes = grid.x**3
        # the discarded tail times the largest of the last ten terms
        assert 0.0 <= np.max(np.abs(cubes[-10:])) * grid.tail < 1e-6
        # factorial-moment expansion: E[X^3] = lam^3 + 3 lam^2 + lam
        assert grid.w @ cubes == pytest.approx(7**3 + 3 * 7**2 + 7, rel=1e-12)

    def test_truncation_cap(self):
        # pmf ~ 1/k^2 needs ~1e12 terms for 1e-12 mass; the cap must trip
        c = 6.0 / math.pi**2

        def pmf(k):
            k = np.asarray(k, dtype=float)
            out = np.zeros(k.shape)
            pos = k >= 1
            out[pos] = c / k[pos] ** 2
            return out

        spec = DiscreteCO(1.0, Quadratic(0.0, 0.0, 1.0), (1.0, math.inf), pmf)
        with pytest.raises(TruncationError):
            truncated_support(spec, 1e-12)


def sixty_point_table():
    """A tabulated 60-point member: the binomial(59, 0.3) pmf."""
    table = [[k, math.comb(59, k) * 0.3**k * 0.7**(59 - k)] for k in range(60)]
    pmf = _pmf_table(table)
    return DiscreteCO(59 * 0.3, Quadratic(0.0, -0.3, 59 * 0.3), (0.0, 59.0),
                      pmf, _table_sampler(pmf, (0.0, 59.0)), "table-60")


def sample_sums(spec, g, n, cfg):
    """``_mc_matrices`` as sums over all N samples, each of weight 1/N."""
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
    grid = _Grid(spec, xs, 1.0 / xs.size)
    rows = grid.deriv_values(g, 0)
    d, _ = entries(rows - rows.mean(axis=1, keepdims=True), 1.0)
    hs, bs = [], []
    for k in range(1, n + 1):
        h, (v, v_ci) = entries(grid.deriv_values(g, k), grid.q_power(k))
        hs.append(h)
        bs.append((np.outer(v, v),
                   np.outer(np.abs(v), v_ci) + np.outer(v_ci, np.abs(v))))
    return d, hs, bs


def flatten(matrices):
    d, hs, bs = matrices
    return [*d, *(a for h in hs for a in h), *(a for b in bs for a in b)]


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

    @pytest.mark.parametrize("spec", [
        catalog("poisson", {"lam": 3.815}),
        catalog("binomial", {"n": 14, "theta": 0.4}),
        catalog("negative-binomial", {"r": 3.2, "theta": 0.55}),
        catalog("hypergeometric", {"N": 50, "K": 20, "n": 10}),
        sixty_point_table()], ids=lambda spec: spec.name)
    def test_counted_grid_matches_sample_sums(self, spec, cfg):
        g = tuple_of("x", "x^2", "exp(0.1*x)", "sin(0.7*x)")
        got = _mc_matrices(spec, g, 2, cfg)
        want = sample_sums(spec, g, 2, cfg)
        for a, b in zip(flatten(got), flatten(want)):
            np.testing.assert_allclose(a, b, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(b)))

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
                for (mc, ci), det in zip(
                        (d, h, b), (dispersion_matrix(spec, g, mc_cfg),
                                    matrix_H(spec, g, 1, mc_cfg),
                                    matrix_B(spec, g, 1, mc_cfg))):
                    assert np.all(np.abs(mc - det.to_array())
                                  <= 4 * ci + 1e-12), (spec.name, trial)


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


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(quad_nodes=5)
        with pytest.raises(ValueError):
            EngineConfig(trunc_tol=0.1)
        with pytest.raises(ValueError, match="mc_samples"):
            EngineConfig(mc_samples=1)
        for key, value in (("quad_nodes", "80"), ("quad_nodes", 80.0),
                           ("trunc_tol", "1e-9"), ("mc_seed", None),
                           ("mc_samples", True)):
            with pytest.raises(ValueError, match=key):
                EngineConfig(**{key: value})
        with pytest.raises(ValueError, match="quad_nodez"):
            EngineConfig().override(quad_nodez=80)

    def test_override(self):
        cfg = EngineConfig().override(quad_nodes=80, mc_seed=7)
        assert cfg.quad_nodes == 80 and cfg.mc_seed == 7
        assert EngineConfig().override(quad_nodes=None).quad_nodes == 200
