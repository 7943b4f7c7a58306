"""Expectation engine tests.

Oracles: a pure-Python splitmix64 reference, the Gaussian double-factorial
moment identity, closed-form Beta moments, exact finite sums via math.comb,
and Poisson factorial moments.
"""

import math

import numpy as np
import pytest

from varbounds import DiscreteCO, Quadratic, catalog
from varbounds.errors import NoSamplerError, TruncationError
from varbounds.expectation import (EngineConfig, expect_continuous,
                                   expect_discrete, expect_mc, probe, sample,
                                   splitmix64_uniforms, truncated_support)

MASK = (1 << 64) - 1


def splitmix_reference(seed, i):
    """Independent scalar implementation of the documented stream."""
    z = (seed + i * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    z = z ^ (z >> 31)
    return ((z >> 11) + 0.5) * 2.0**-53


def gaussian_even_moment(m):
    """E[Z^(2m)] = (2m-1)!! for the standard normal."""
    out = 1.0
    for i in range(1, 2 * m, 2):
        out *= i
    return out


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


class TestContinuous:
    def test_normal_variance(self, cfg):
        r = expect_continuous(catalog("normal"), lambda x: x**2, cfg)
        assert abs(r.value - 1.0) < 1e-10
        assert r.method == "quadrature"

    def test_normal_sixth_moment(self, cfg):
        r = expect_continuous(catalog("normal"), lambda x: x**6, cfg)
        assert r.value == pytest.approx(gaussian_even_moment(3), abs=1e-9)

    def test_beta_quadratic_expectation(self, cfg):
        spec = catalog("beta", {"a": 2, "b": 3})
        want = (beta_moment(2, 3, 1) - beta_moment(2, 3, 2)) / 5.0
        r = expect_continuous(spec, spec.q, cfg)
        assert r.value == pytest.approx(want, abs=1e-12)

    def test_doubling_nodes_within_bracket(self, cfg):
        # brackets are estimates; the contract allows 10x slack
        specs = [catalog("normal"), catalog("gamma", {"shape": 3, "scale": 2}),
                 catalog("beta", {"a": 0.5, "b": 0.5})]
        rng = np.random.default_rng(21)
        for spec in specs:
            for _ in range(5):
                coeffs = rng.normal(size=4)
                phi = lambda x, c=coeffs: c[0] + c[1]*x + c[2]*x**2 + c[3]*x**3
                base = expect_continuous(spec, phi, cfg)
                double = expect_continuous(spec, phi, cfg,
                                           n_nodes=2 * cfg.quad_nodes)
                assert abs(double.value - base.value) <= 10 * base.error_bracket

    def test_tanh_map_agrees(self):
        spec = catalog("normal")
        r1 = expect_continuous(spec, lambda x: x**4, EngineConfig())
        r2 = expect_continuous(spec, lambda x: x**4,
                               EngineConfig(infinite_map="tanh"))
        assert r1.value == pytest.approx(r2.value, abs=1e-9)
        assert r1.value == pytest.approx(3.0, abs=1e-9)

    def test_bracket_ceiling(self, cfg):
        from varbounds.errors import BracketCeilingError
        spec = catalog("normal")
        expect_continuous(spec, lambda x: x**2, cfg, bracket_ceiling=1e-6)
        with pytest.raises(BracketCeilingError):
            expect_continuous(spec, lambda x: np.cos(40.0 * x), cfg,
                              n_nodes=24, bracket_ceiling=1e-12)


class TestDiscrete:
    def test_poisson_mean_and_normalization(self, cfg):
        spec = catalog("poisson", {"lam": 2})
        assert abs(expect_discrete(spec, lambda k: k, cfg).value - 2.0) < 1e-10
        ones = expect_discrete(spec, lambda k: np.ones_like(k), cfg)
        assert ones.value == pytest.approx(1.0, abs=1e-12)

    def test_binomial_second_moment_exact(self, cfg):
        spec = catalog("binomial", {"n": 10, "theta": 0.3})
        direct = sum(k**2 * math.comb(10, k) * 0.3**k * 0.7**(10 - k)
                     for k in range(11))
        r = expect_discrete(spec, lambda k: k**2, cfg)
        assert r.value == pytest.approx(direct, abs=1e-12)
        assert r.error_bracket == 0.0  # finite support: exact

    def test_hypergeometric_exact_bracket(self, cfg):
        spec = catalog("hypergeometric", {"N": 30, "K": 10, "n": 8})
        r = expect_discrete(spec, lambda k: k, cfg)
        assert r.error_bracket == 0.0
        assert r.value == pytest.approx(8 * 10 / 30, abs=1e-12)

    def test_infinite_support_bracket(self, cfg):
        spec = catalog("poisson", {"lam": 7})
        r = expect_discrete(spec, lambda k: k**3, cfg)
        assert 0.0 <= r.error_bracket < 1e-6
        # factorial-moment expansion: E[X^3] = lam^3 + 3 lam^2 + lam
        assert r.value == pytest.approx(7**3 + 3 * 7**2 + 7, rel=1e-12)

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


class TestMonteCarlo:
    def test_normal_within_ci(self, cfg):
        r = expect_mc(catalog("normal"), lambda x: x**2, cfg)
        assert abs(r.value - 1.0) <= r.error_bracket
        assert r.method == "monte-carlo"

    def test_poisson_factorial_moment(self, cfg):
        r = expect_mc(catalog("poisson", {"lam": 2}), lambda k: k * (k - 1), cfg)
        assert abs(r.value - 4.0) <= r.error_bracket

    def test_constant_is_exact(self, cfg):
        r = expect_mc(catalog("normal"),
                      lambda x: 3.25 * np.ones_like(x), cfg)
        assert r.value == 3.25
        assert r.error_bracket == 0.0

    def test_reproducible(self, cfg):
        a = sample(catalog("normal"), cfg)
        b = sample(catalog("normal"), cfg)
        np.testing.assert_array_equal(a, b)

    def test_no_sampler(self, cfg, heavy_member):
        with pytest.raises(NoSamplerError):
            expect_mc(heavy_member, lambda x: x, cfg)

    def test_quadrature_mc_agreement(self, cfg):
        """Randomized suite: polynomial integrands agree within 4x the CI."""
        rng = np.random.default_rng(99)
        members = [catalog("normal"), catalog("gamma", {"shape": 2.5}),
                   catalog("beta", {"a": 2, "b": 3}),
                   catalog("poisson", {"lam": 3}),
                   catalog("binomial", {"n": 12, "theta": 0.4})]
        for i, spec in enumerate(members):
            for trial in range(2):
                deg = int(rng.integers(1, 7))
                coeffs = rng.normal(size=deg + 1)
                phi = lambda x, c=coeffs: sum(ci * x**i for i, ci in enumerate(c))
                mc_cfg = EngineConfig(mc_seed=1000 + 17 * i + trial)
                mc = expect_mc(spec, phi, mc_cfg)
                det = (expect_discrete if spec.is_discrete
                       else expect_continuous)(spec, phi, mc_cfg)
                assert abs(mc.value - det.value) <= 4 * mc.error_bracket + 1e-12


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
            EngineConfig(infinite_map="spline")
        with pytest.raises(ValueError):
            EngineConfig(trunc_tol=0.1)

    def test_override(self):
        cfg = EngineConfig().override(quad_nodes=80, mc_seed=7)
        assert cfg.quad_nodes == 80 and cfg.mc_seed == 7
        assert EngineConfig().override(quad_nodes=None).quad_nodes == 200
