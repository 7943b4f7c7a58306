"""Family catalog, inference oracle, and membership tests.

The regression suite re-derives every shipped quadratic through the
inference oracle, so a transcription error in the catalog cannot survive.
"""

import json
import math
import statistics
from dataclasses import replace

import numpy as np
import pytest
from scipy import special

from varbounds import (ContinuousIP, DiscreteCO, EngineConfig, Quadratic,
                       catalog, distributions, expectation, infer_quadratic,
                       load_distribution, moment_finiteness, sample,
                       spec_to_json, splitmix64_uniforms, verify_membership)
from varbounds.bounds import _Grid
from varbounds.calculus import rising_q
from varbounds.distributions import (_beta_log_ii, _beta_quantiles, _expit,
                                     _gamma_log_pq, _gamma_quantiles, _lgamma,
                                     _ndtri, moment_criterion)
from varbounds.errors import (InvalidParameterError, RankDeficientFitError,
                              UnknownDistributionError)
from varbounds.expectation import Ladder, truncated_support

CATALOG_CASES = [
    ("normal", {"mean": 0, "var": 1}),
    ("normal", {"mean": -1.5, "var": 2.5}),
    ("gamma", {"shape": 3, "scale": 2}),
    ("gamma", {"shape": 0.8, "scale": 1.5}),
    ("beta", {"a": 2, "b": 3}),
    ("beta", {"a": 0.5, "b": 0.5}),
    ("beta", {"a": 5, "b": 1}),
    ("poisson", {"lam": 1}),
    ("poisson", {"lam": 7}),
    ("binomial", {"n": 10, "theta": 0.3}),
    ("negative-binomial", {"r": 3, "theta": 0.4}),
    ("hypergeometric", {"N": 30, "K": 12, "n": 8}),
]


def two_point_mixture():
    """Equal-weight mixture of N(-3,1) and N(3,1): not in the family."""
    c = 1.0 / math.sqrt(2.0 * math.pi)

    def density(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * c * (np.exp(-0.5 * (x - 3.0) ** 2)
                          + np.exp(-0.5 * (x + 3.0) ** 2))

    return ContinuousIP(0.0, None, (-math.inf, math.inf), density,
                        None, "mixture")


class TestCatalog:
    @pytest.mark.parametrize("name,params", CATALOG_CASES)
    def test_membership_passes(self, name, params, cfg):
        report = verify_membership(catalog(name, params), cfg)
        assert report.passed, (name, params, report)

    @pytest.mark.parametrize("name,params", CATALOG_CASES)
    def test_inference_recovers_shipped_quadratic(self, name, params, cfg):
        spec = catalog(name, params)
        inferred = infer_quadratic(spec, cfg)
        shipped = np.array(spec.q.as_tuple())
        got = np.array(inferred.quadratic.as_tuple())
        scale = np.max(np.abs(shipped))
        assert np.max(np.abs(got - shipped)) / scale < 1e-6, (name, got)

    def test_known_quadratics(self):
        assert catalog("normal").q.as_tuple() == (0.0, 0.0, 1.0)
        assert catalog("poisson", {"lam": 2}).q.as_tuple() == (0.0, 0.0, 2.0)
        b = catalog("beta", {"a": 2, "b": 3})
        np.testing.assert_allclose(b.q.as_tuple(), (-0.2, 0.2, 0.0))
        assert b.support == (0.0, 1.0)
        n = catalog("normal")
        assert n.support == (-math.inf, math.inf)

    def test_unknown_family(self):
        with pytest.raises(UnknownDistributionError):
            catalog("cauchy")

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            catalog("beta", {"a": -1, "b": 2})
        with pytest.raises(InvalidParameterError):
            catalog("binomial", {"n": 10, "theta": 1.5})
        with pytest.raises(InvalidParameterError):
            catalog("gamma", {"shape": 0})
        with pytest.raises(InvalidParameterError):
            catalog("hypergeometric", {"N": 10, "K": 20, "n": 5})

    @pytest.mark.parametrize("name,params,message", [
        ("binomial", {"n": math.inf, "theta": 0.5}, "must be finite"),
        ("hypergeometric", {"N": math.inf, "K": 3, "n": 2}, "must be finite"),
        ("binomial", {"n": 2.7, "theta": 0.5}, "must be an integer"),
        ("hypergeometric", {"N": 10, "K": 3.5, "n": 2}, "must be an integer"),
        ("normal", {"mean": math.inf}, "must be finite"),
        ("normal", {"var": math.nan}, "must be finite"),
        ("gamma", {"shape": math.inf}, "must be finite"),
        ("poisson", {"lam": [3]}, "must be a number"),
    ])
    def test_parameters_finite_and_counts_whole(self, name, params, message):
        with pytest.raises(InvalidParameterError, match=message):
            catalog(name, params)

    def test_whole_float_counts(self):
        # the form an inline --dist gives every parameter
        spec = catalog("binomial", {"n": 200.0, "theta": 0.25})
        assert spec.params["n"] == 200 and spec.support == (0.0, 200.0)
        spec = catalog("hypergeometric", {"N": 20.0, "K": 7.0, "n": 5.0})
        assert spec.params == {"N": 20, "K": 7, "n": 5}

    @pytest.mark.parametrize("name,params", [
        ("poisson", {"lambda": 2.5}), ("poisson", {"rate": 2.5}),
        ("binomial", {"trials": 12, "p": 0.35}),
        ("negative-binomial", {"size": 3, "p": 0.4}),
        ("hypergeometric", {"population": 30, "successes": 12, "draws": 8})])
    def test_aliases_name_the_parameter(self, name, params):
        canonical = {"poisson": {"lam": 2.5},
                     "binomial": {"n": 12, "theta": 0.35},
                     "negative-binomial": {"r": 3, "theta": 0.4},
                     "hypergeometric": {"N": 30, "K": 12, "n": 8}}[name]
        assert catalog(name, params).params == catalog(name, canonical).params

    @pytest.mark.parametrize("name,params,message", [
        ("normal", {"mu": 3}, "unknown normal parameter 'mu'"),
        ("gamma", {"shape": 2, "rate": 1}, "unknown gamma parameter 'rate'"),
        ("hypergeometric", {"N": 30, "K": 12, "n": 8, "k": 2},
         "unknown hypergeometric parameter 'k'"),
        ("poisson", {"lam": 2, "lambda": 5}, "'lam' is given twice"),
        ("binomial", {"n": 10, "trials": 10, "theta": 0.3},
         "'n' is given twice"),
        ("normal", [3], "must be a dict"),
        ("poisson", (("lam", 2),), "must be a dict"),
    ])
    def test_unknown_or_repeated_parameter(self, name, params, message):
        with pytest.raises(InvalidParameterError, match=message):
            catalog(name, params)


class TestInference:
    def test_beta_example(self, cfg):
        result = infer_quadratic(catalog("beta", {"a": 2, "b": 3}), cfg)
        np.testing.assert_allclose(result.quadratic.as_tuple(),
                                   (-0.2, 0.2, 0.0), atol=1e-8)
        assert result.residual < 1e-8

    def test_poisson_example(self, cfg):
        result = infer_quadratic(catalog("poisson", {"lam": 1}), cfg)
        np.testing.assert_allclose(result.quadratic.as_tuple(),
                                   (0.0, 0.0, 1.0), atol=1e-12)
        assert result.residual < 1e-12

    def test_binomial_example(self, cfg):
        result = infer_quadratic(catalog("binomial", {"n": 10, "theta": 0.3}),
                                 cfg)
        np.testing.assert_allclose(result.quadratic.as_tuple(),
                                   (0.0, -0.3, 3.0), atol=1e-10)
        assert result.residual < 1e-10

    def test_non_member_reports_large_residual(self, cfg):
        result = infer_quadratic(two_point_mixture(), cfg)
        assert result.residual > 1e-2

    def test_rank_deficient(self, cfg):
        # a two-point pmf gives only two usable grid points
        spec = DiscreteCO(0.3, None, (0.0, 1.0),
                          lambda k: np.where(np.asarray(k) == 0, 0.7,
                                             np.where(np.asarray(k) == 1,
                                                      0.3, 0.0)))
        with pytest.raises(RankDeficientFitError):
            infer_quadratic(spec, cfg)


class TestMembership:
    def test_corrupted_gamma_fails(self, cfg):
        base = catalog("poisson", {"lam": 1})
        corrupted = DiscreteCO(base.mean,
                               Quadratic(0.0, 0.0, 1.0 + 0.1),
                               base.support, base.pmf, None, "corrupted")
        report = verify_membership(corrupted, cfg)
        assert not report.passed
        assert report.max_residual == pytest.approx(0.1, rel=1e-6)

    def test_gamma_member(self, cfg):
        report = verify_membership(catalog("gamma", {"shape": 3, "scale": 2}),
                                   cfg)
        assert report.passed

    def test_heavy_member_passes(self, cfg, heavy_member):
        assert verify_membership(heavy_member, cfg).passed

    def test_spec_without_quadratic_rejected(self, cfg):
        with pytest.raises(InvalidParameterError):
            verify_membership(two_point_mixture(), cfg)


class TestMomentFiniteness:
    def test_normal_all_orders(self, cfg):
        assert moment_finiteness(catalog("normal"), 10, cfg)

    def test_bounded_support(self, cfg):
        assert moment_finiteness(catalog("beta", {"a": 0.5, "b": 0.5}), 7, cfg)
        # hypergeometric has delta > 0 but a bounded support
        assert moment_finiteness(
            catalog("hypergeometric", {"N": 20, "K": 8, "n": 6}), 6, cfg)

    def test_heavy_tail_cutoff(self, cfg, heavy_member):
        # delta = 0.3: finite exactly while 2n < 1 + 1/0.3 = 4.33
        assert moment_finiteness(heavy_member, 2, cfg)
        assert not moment_finiteness(heavy_member, 3, cfg)

    def test_pearson_criterion(self, heavy_member):
        assert [moment_criterion(heavy_member, n) for n in (1, 2, 3)] == \
            [True, True, False]
        assert moment_criterion(catalog("poisson", {"lam": 3}), 40)
        bounded = catalog("beta", {"a": 2, "b": 3})
        assert moment_criterion(replace(bounded, q=None), 9)
        with pytest.raises(InvalidParameterError):
            moment_criterion(replace(heavy_member, q=None), 1)

    def test_tail_integration_oracle(self, heavy_member):
        # independent oracle: scipy adaptive quadrature of the tail integral
        from scipy import integrate
        val4, _ = integrate.quad(lambda x: x**4 * heavy_member.density(x),
                                 0, np.inf)
        assert math.isfinite(val4) and val4 > 0
        # the 6th-moment integrand decays like x^(2/3 - 1): diverges
        shells = [integrate.quad(lambda x: x**6 * heavy_member.density(x),
                                 4.0**m, 4.0**(m + 1))[0] for m in range(3, 8)]
        ratios = np.diff(np.log(shells))
        assert np.all(ratios > 0)  # growing shells: divergent


class TestGridHealth:
    @pytest.mark.parametrize("name,params", [c for c in CATALOG_CASES
                                             if c[0] in ("normal", "gamma",
                                                         "beta")])
    def test_q_positive_on_quadrature_grid(self, name, params, cfg):
        # on the nodes every matrix is assembled on
        spec = catalog(name, params)
        assert np.min(spec.q(_Grid.build(spec, cfg).weights.x)) > 0.0

    @pytest.mark.parametrize("name,params", [c for c in CATALOG_CASES
                                             if c[0] not in ("normal", "gamma",
                                                             "beta")])
    def test_rising_product_nonnegative(self, name, params, cfg):
        spec = catalog(name, params)
        x = _Grid.build(spec, cfg).weights.x
        assert min(np.min(rising_q(spec.q, k, x)) for k in range(4)) >= -1e-12


def sampler_draws():
    """The default 200k stream plus the extreme and central draws."""
    cfg = EngineConfig()
    return np.concatenate([
        splitmix64_uniforms(cfg.mc_seed, cfg.mc_samples),
        [2.0**-54, 2.0**-40, 1e-9, 0.5, 1.0 - 1e-9, 1.0 - 2.0**-53]])


def library_inverse(u, lower, upper):
    """The library quantile: ``lower(u)`` for u <= 1/2, ``upper(1 - u)``
    on the complement, exact there, above."""
    out, low = np.empty(u.shape), u <= 0.5
    out[low], out[~low] = lower(u[low]), upper(1.0 - u[~low])
    return out


def assert_relative(got, want, tol):
    err = np.abs(got - want)
    assert np.all(err <= tol * np.abs(want)), float(np.max(err / np.abs(want)))


def own_gamma_inverse(a, u):
    """The sampler's own inverse, x at P(a, x) = u, or Q(a, x) = 1 - u
    above u = 1/2."""
    return np.exp(_gamma_quantiles(a).inverse(u, 1.0 - u))


def own_beta_inverse(a, b, u):
    """The sampler's own inverse, x at I_x(a, b) = u, or I_(1-x)(b, a) =
    1 - u above u = 1/2."""
    return _expit(_beta_quantiles(a, b).inverse(u, 1.0 - u))


class TestQuantiles:
    """The gamma and beta samplers against scipy's inverse incomplete gamma
    and beta functions.  The samplers invert with their own functions,
    only to build their quantile tables and for the draws in a table's
    failing cells."""

    @pytest.mark.parametrize("a", [0.05, 0.4, 2.67, 3.7, 40])
    def test_gamma(self, a):
        u = sampler_draws()
        x = _gamma_quantiles(a)(u)
        assert np.all(np.isfinite(x))
        assert np.all(np.diff(x[np.argsort(u)]) >= 0.0)
        want = library_inverse(u, lambda p: special.gammaincinv(a, p),
                               lambda q: special.gammainccinv(a, q))
        # the lower tail of a small shape scales relative error by 1/a
        assert_relative(x, want, 1e-12 if a < 0.1 else 1e-13)

    @pytest.mark.parametrize("a,b", [(0.3, 4), (0.5, 0.5), (2, 2),
                                     (2.5, 2.2), (3, 3), (40, 3)])
    def test_beta_in_x_and_one_minus_x(self, a, b):
        u = sampler_draws()
        x = _beta_quantiles(a, b)(u)
        assert np.all(np.isfinite(x))
        order = np.argsort(u)
        assert np.all(np.diff(x[order]) >= 0.0)
        # x below u = 1/2, and 1 - x as the quantile of beta(b, a) above
        r = library_inverse(u, lambda p: special.betaincinv(a, b, p),
                            lambda q: special.betaincinv(b, a, q))
        low = u <= 0.5
        assert_relative(x, np.where(low, r, 1.0 - r), 1e-13)

    def test_samplers_use_the_quantiles(self):
        u = sampler_draws()[:1000]
        gamma = catalog("gamma", {"shape": 2.5, "scale": 1.5})
        beta = catalog("beta", {"a": 2.5, "b": 2.2})
        np.testing.assert_array_equal(gamma.sampler(u),
                                      1.5 * _gamma_quantiles(2.5)(u))
        np.testing.assert_array_equal(beta.sampler(u),
                                      _beta_quantiles(2.5, 2.2)(u))

    def test_draws_call_no_forward_function(self, monkeypatch):
        # the forward functions run inside the inverse alone
        inside, outside = [], []
        inverse = distributions._Quantiles.inverse

        def entered(*args):
            inside.append(True)
            try:
                return inverse(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(distributions._Quantiles, "inverse", entered)

        def counted(name):
            forward = getattr(distributions, name)

            def spy(*args):
                if not inside:
                    outside.append((name, np.size(args[-1])))
                return forward(*args)

            monkeypatch.setattr(distributions, name, spy)

        for name in ("_gamma_log_pq", "_beta_log_ii"):
            counted(name)
        u = sampler_draws()
        for a in (0.05, 2.67, 40):
            _gamma_quantiles(a)(u)
        for a, b in ((0.3, 4), (2.5, 2.2)):
            _beta_quantiles(a, b)(u)
        assert outside == []

    def test_every_cell_failing_gives_the_library_inverse(self, monkeypatch):
        # no cell passes a check to 0, so every draw takes the sampler's
        # own inverse, bit for bit
        monkeypatch.setattr(distributions, "_CELL_TOL", 0.0)
        u = sampler_draws()
        for a in (0.05, 2.67):
            np.testing.assert_array_equal(_gamma_quantiles(a)(u),
                                          own_gamma_inverse(a, u))
        for a, b in ((0.3, 4), (2.5, 2.2)):
            np.testing.assert_array_equal(_beta_quantiles(a, b)(u),
                                          own_beta_inverse(a, b, u))

    def test_failing_cells_take_the_library_inverse(self, monkeypatch):
        tables = []

        class Kept(distributions._QuantileTable):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)

        monkeypatch.setattr(distributions, "_QuantileTable", Kept)
        u = sampler_draws()
        x = _gamma_quantiles(0.05)(u)
        (table,) = tables
        # gamma(0.05)'s lower tail takes log x below -500, where the
        # rounding of log x alone exceeds the check's tolerance
        assert 0 < np.count_nonzero(table.bad) < table.bad.size // 2
        fell = table.bad[table.cells(distributions._logit(u))[0]]
        assert np.any(fell)
        np.testing.assert_array_equal(x[fell],
                                      own_gamma_inverse(0.05, u[fell]))

    @pytest.mark.parametrize("a,b", [(0.3, 4), (0.5, 0.5), (2, 2),
                                     (2.5, 2.2), (3, 3), (40, 3)])
    def test_beta_inverse_reflects(self, a, b):
        # logit x of beta(a, b) at (p, q) is minus that of beta(b, a) at
        # (q, p): one inverse serves both tails in y = logit x
        p = sampler_draws()
        q = 1.0 - p
        y = _beta_quantiles(a, b).inverse(p, q)
        mirror = _beta_quantiles(b, a).inverse(q, p)
        assert np.all(np.isfinite(y))
        assert np.all(np.abs(y + mirror) <= 2e-14 * np.maximum(1.0, np.abs(y)))


class TestHeldTables:
    """Each gamma and beta member holds the quantile table of the last
    stream it was sampled from."""

    @pytest.mark.parametrize("member", [
        ("gamma", {"shape": 2.5, "scale": 1.5}), ("beta", {"a": 2, "b": 3})])
    def test_a_second_sample_runs_no_inverse(self, monkeypatch, member):
        calls = []
        inverse = distributions._Quantiles.inverse

        def spy(self, p, q):
            calls.append(p.size)
            return inverse(self, p, q)

        monkeypatch.setattr(distributions._Quantiles, "inverse", spy)
        distributions.clear_members()
        spec = catalog(*member)
        cfg = EngineConfig(mc_samples=20_000)
        first = sample(spec, cfg)
        # the table's 2,048 nodes and 2,047 midpoints
        assert sum(calls) == 2 * distributions._QUANTILE_NODES - 1
        del calls[:]
        np.testing.assert_array_equal(sample(spec, cfg), first)
        assert calls == []
        # another stream builds another table
        sample(spec, cfg.override(mc_seed=cfg.mc_seed + 1))
        assert sum(calls) == 2 * distributions._QUANTILE_NODES - 1

    def test_the_table_holds_nothing_of_the_stream(self):
        distributions.clear_members()
        spec = catalog("gamma", {"shape": 2.5})
        cfg = EngineConfig(mc_samples=20_000)
        sample(spec, cfg)
        held = expectation.stream(cfg.mc_seed, cfg.mc_samples)
        arrays = [held.u, *held._forms.values()]
        key, table = spec.sampler._held
        assert key == (float(held.form(distributions._logit).min()),
                       float(held.form(distributions._logit).max()))
        for value in vars(table).values():
            assert not any(value is a or (isinstance(value, np.ndarray)
                                          and np.shares_memory(value, a))
                           for a in arrays)


class TestSpecialFunctions:
    """The samplers' own normal quantile and forward incomplete gamma and
    beta functions against scipy's."""

    def test_ndtri(self):
        u = sampler_draws()
        assert u[-6] == 2.0**-54 and u[-1] == 1.0 - 2.0**-53
        got, want = _ndtri(u), special.ndtri(u)
        assert np.all(np.abs(got - want) <= 4e-15 * np.maximum(np.abs(want),
                                                               0.5))
        # AS241 as the standard library evaluates it, to its last bits but
        # for the rounding of log: every 97th draw and the extreme ones
        some = np.concatenate([u[:-6:97], u[-6:]])
        inv_cdf = statistics.NormalDist().inv_cdf
        exact = np.array([inv_cdf(v) for v in some.tolist()])
        assert np.all(np.abs(_ndtri(some) - exact)
                      <= 4 * np.spacing(np.abs(exact)))

    @pytest.mark.parametrize("a", [0.05, 0.4, 2.67, 3.7, 40])
    def test_gamma_p_and_q(self, a):
        # at the quantiles of every 20th draw, where the samplers invert
        u = sampler_draws()[::20]
        x = library_inverse(u, lambda p: special.gammaincinv(a, p),
                            lambda q: special.gammainccinv(a, q))
        x = x[x > 0.0]
        log_p, log_q, _ = _gamma_log_pq(a, np.log(x))
        assert_relative(np.exp(log_p), special.gammainc(a, x), 1e-13)
        assert_relative(np.exp(log_q), special.gammaincc(a, x), 1e-13)

    @pytest.mark.parametrize("a,b", [(0.3, 4), (0.5, 0.5), (2, 2),
                                     (2.5, 2.2), (3, 3), (40, 3)])
    def test_beta_i(self, a, b):
        # I_x(a, b) at x <= 1/2 and I_(1-x)(b, a) = 1 - I_x(a, b) above,
        # where 1 - x is exact, at the quantiles of every 20th draw
        u = sampler_draws()[::20]
        r = library_inverse(u, lambda p: special.betaincinv(a, b, p),
                            lambda q: special.betaincinv(b, a, q))
        x = np.where(u <= 0.5, r, 1.0 - r)
        x = x[(x > 0.0) & (x < 1.0)]
        log_i, log_j, _ = _beta_log_ii(a, b, np.log(x) - np.log1p(-x))
        low = x <= 0.5
        assert_relative(np.exp(log_i[low]), special.betainc(a, b, x[low]),
                        1e-13)
        assert_relative(np.exp(log_j[~low]),
                        special.betainc(b, a, 1.0 - x[~low]), 1e-13)


# the first draw, both sides of the first block edge, the start of the third
# block and the last draw of three blocks and a part
EDGE_POSITIONS = (0, 8191, 8192, 16384, 3 * 8192 + 16)
EXTREME_DRAWS = sampler_draws()[-6:]


def edge_stream(draw):
    """The stream of 3 * 8192 + 17 draws with ``draw`` at EDGE_POSITIONS."""
    u = splitmix64_uniforms(EngineConfig().mc_seed, 3 * 8192 + 17)
    u[list(EDGE_POSITIONS)] = draw
    return u


class TestBlockEdges:
    """The quantiles of an extreme draw at the edges of the blocks the
    samplers run over, against the library inverse."""

    @pytest.mark.parametrize("draw", EXTREME_DRAWS.tolist())
    @pytest.mark.parametrize("a", [0.05, 0.4, 2.67, 3.7, 40])
    def test_gamma(self, a, draw):
        x = _gamma_quantiles(a)(edge_stream(draw))[list(EDGE_POSITIONS)]
        want = library_inverse(np.full(x.size, draw),
                               lambda p: special.gammaincinv(a, p),
                               lambda q: special.gammainccinv(a, q))
        assert_relative(x, want, 1e-12 if a < 0.1 else 1e-13)

    @pytest.mark.parametrize("draw", EXTREME_DRAWS.tolist())
    @pytest.mark.parametrize("a,b", [(0.3, 4), (0.5, 0.5), (2, 2),
                                     (2.5, 2.2), (3, 3), (40, 3)])
    def test_beta(self, a, b, draw):
        x = _beta_quantiles(a, b)(edge_stream(draw))[list(EDGE_POSITIONS)]
        r = library_inverse(np.full(x.size, draw),
                            lambda p: special.betaincinv(a, b, p),
                            lambda q: special.betaincinv(b, a, q))
        low = draw <= 0.5
        assert_relative(x, np.where(low, r, 1.0 - r), 1e-13)

    def test_underflowed_quantile_keeps_a_finite_log(self, monkeypatch):
        # gamma(0.05) at u = 2^-54: the quantile underflows to 0, but its
        # log x, near -748, is finite, so the table's first node is too
        tabulated = []
        inverse = distributions._Quantiles.inverse

        def spy(self, p, q):
            y = inverse(self, p, q)
            tabulated.append((p, y))
            return y

        monkeypatch.setattr(distributions._Quantiles, "inverse", spy)
        x = _gamma_quantiles(0.05)(edge_stream(2.0**-54))
        assert x[list(EDGE_POSITIONS)].tolist() == [0.0] * 5
        p, y = tabulated[0]
        assert p[0] == pytest.approx(2.0**-54) and -760.0 < y[0] < -740.0
        assert np.exp(y[0]) == 0.0


# every catalog member with a log Gamma in its density or pmf that the suite
# builds, with the benchmark's hard discrete members (poisson(300),
# binomial(200, 0.02), negative-binomial(0.5, 0.9))
LOG_GAMMA_MEMBERS = [c for c in CATALOG_CASES if c[0] != "normal"] + [
    ("gamma", {"shape": 0.4}), ("gamma", {"shape": 1.5}),
    ("gamma", {"shape": 2}), ("gamma", {"shape": 2.5, "scale": 1.5}),
    ("gamma", {"shape": 3.5, "scale": 0.8}), ("gamma", {"shape": 40}),
    ("beta", {"a": 0.3, "b": 4}), ("beta", {"a": 1.5, "b": 1.5}),
    ("beta", {"a": 2.5, "b": 2.2}), ("beta", {"a": 4.0, "b": 1.2}),
    ("poisson", {"lam": 0.8}), ("poisson", {"lam": 2.5}),
    ("poisson", {"lam": 3.815}), ("poisson", {"lam": 300}),
    ("binomial", {"n": 12, "theta": 0.35}),
    ("binomial", {"n": 14, "theta": 0.4}),
    ("binomial", {"n": 200, "theta": 0.02}),
    ("negative-binomial", {"r": 2, "theta": 0.4}),
    ("negative-binomial", {"r": 3.2, "theta": 0.55}),
    ("negative-binomial", {"r": 0.5, "theta": 0.9}),
    ("hypergeometric", {"N": 20, "K": 8, "n": 6}),
    ("hypergeometric", {"N": 50, "K": 20, "n": 10}),
]


def scipy_log_mass(name, p, x):
    """The log density or log pmf of a catalog member in scipy's forms."""
    if name == "gamma":
        a, th = p["shape"], p["scale"]
        logc = -special.gammaln(a) - a * math.log(th)
        return logc + (a - 1.0) * np.log(x) - x / th
    if name == "beta":
        a, b = p["a"], p["b"]
        return (-special.betaln(a, b) + (a - 1.0) * np.log(x)
                + (b - 1.0) * np.log1p(-x))
    if name == "poisson":
        return -p["lam"] + special.xlogy(x, p["lam"]) - special.gammaln(x + 1)
    if name == "binomial":
        n, th = p["n"], p["theta"]
        return (special.gammaln(n + 1) - special.gammaln(x + 1)
                - special.gammaln(n - x + 1) + special.xlogy(x, th)
                + special.xlog1py(n - x, -th))
    if name == "negative-binomial":
        r, th = p["r"], p["theta"]
        return (special.gammaln(x + r) - special.gammaln(x + 1)
                - special.gammaln(r) + r * math.log(th)
                + special.xlog1py(x, -th))

    def log_comb(a, b):
        return (special.gammaln(a + 1) - special.gammaln(b + 1)
                - special.gammaln(a - b + 1))

    big, succ, draws = p["N"], p["K"], p["n"]
    return (log_comb(succ, x) + log_comb(big - succ, draws - x)
            - log_comb(big, draws))


class TestLogGamma:
    """The numpy log Gamma behind the catalog densities and pmfs, against
    ``math.lgamma`` and against scipy's forms of the same functions."""

    @pytest.mark.parametrize("x", [
        np.arange(1.0, 5001.0), np.arange(5000) + 0.5, np.arange(5000) + 3.1,
        np.linspace(0.05, 10.0, 2000)], ids=["integers", "half-integers",
                                             "k+3.1", "0.05-10"])
    def test_against_math_lgamma(self, x):
        want = np.array([math.lgamma(v) for v in x])
        err = np.abs(_lgamma(x) - want)
        assert np.all(err <= 1e-13 * np.maximum(1.0, np.abs(want)))
        # a stacked call gives each row's values
        assert np.array_equal(_lgamma(x.reshape(2, -1)),
                              _lgamma(x).reshape(2, -1))

    def test_scalar(self):
        assert _lgamma(np.float64(7.5)) == math.lgamma(7.5)

    @pytest.mark.parametrize("name,params", LOG_GAMMA_MEMBERS,
                             ids=lambda v: str(v))
    def test_mass_against_scipy_forms(self, name, params, cfg):
        spec = catalog(name, params)
        if spec.is_discrete:
            x, got = truncated_support(spec)[:2]
        else:
            x = np.concatenate([_Grid.build(spec, cfg).weights.x,
                                Ladder.build(spec, cfg).x])
            got = spec.density(x)
        log_want = scipy_log_mass(name, spec.params, x)
        want = np.exp(log_want)
        # subnormal values carry fewer digits, and one rounding of a log
        # value L moves its exponential by eps |L| relative
        normal = want >= np.finfo(float).tiny
        err = np.abs(got - want)[normal]
        tol = 1e-13 + 2.0 * np.finfo(float).eps * np.abs(log_want[normal])
        assert np.all(err <= tol * want[normal])


class TestQuadratic:
    def test_nondegeneracy(self):
        with pytest.raises(InvalidParameterError):
            Quadratic(0.0, 0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            Quadratic(math.nan, 0.0, 1.0)

    def test_evaluation(self):
        q = Quadratic(1.0, -2.0, 3.0)
        assert q(2.0) == pytest.approx(3.0)
        np.testing.assert_allclose(q(np.array([0.0, 1.0])), [3.0, 2.0])


class TestJsonDocuments:
    def test_family_document(self):
        spec = load_distribution({"family": "poisson", "params": {"lam": 2}})
        assert spec.is_discrete and spec.mean == 2.0

    def test_custom_continuous_table(self, cfg, tmp_path):
        xs = np.linspace(1e-6, 1 - 1e-6, 20001)
        fs = 12.0 * xs * (1 - xs) ** 2  # Beta(2,3) density
        doc = {"custom": {"kind": "continuous", "mean": 0.4,
                          "quadratic": None, "support": [0, 1],
                          "density_table": [[float(x), float(f)]
                                            for x, f in zip(xs, fs)]}}
        path = tmp_path / "beta.json"
        path.write_text(json.dumps(doc))
        spec = load_distribution(str(path))
        result = infer_quadratic(spec, cfg)
        np.testing.assert_allclose(result.quadratic.as_tuple(),
                                   (-0.2, 0.2, 0.0), atol=1e-5)
        assert result.residual < 1e-8

    def test_custom_discrete_table(self, cfg):
        doc = {"custom": {"kind": "discrete", "mean": 0.3,
                          "quadratic": [0.0, -0.3, 0.3], "support": [0, 1],
                          "pmf_table": [[0, 0.7], [1, 0.3]]}}
        spec = load_distribution(doc)
        assert verify_membership(spec, cfg).passed

    @pytest.mark.parametrize("kind,table,message", [
        ("discrete", "[[0, 0.5], [0, 0.5]]", "increasing"),
        ("discrete", "[[1, 0.5], [0, 0.5]]", "increasing"),
        ("discrete", "[[0, 0.3], [0.7, 0.7]]", "integers"),
        ("discrete", "[[0, 1.2], [1, -0.2]]", "nonnegative"),
        ("discrete", "[[0, NaN], [1, 0.3]]", "finite"),
        ("discrete", "[[0, 0.7], [Infinity, 0.3]]", "finite"),
        ("continuous", "[[0, 1], [0.5, NaN], [1, 1]]", "finite"),
        ("continuous", "[[0, 1], [0.5, 1], [Infinity, 1]]", "finite"),
        ("continuous", "[[0, 1], [1, -Infinity]]", "finite"),
        ("continuous", "[[0, 1], [0, 1]]", "increasing")])
    def test_bad_tables_are_refused(self, kind, table, message):
        # JSON reads NaN and Infinity; a table keeps no such entry, and a
        # pmf table no repeated, unsorted or fractional point
        key = "pmf_table" if kind == "discrete" else "density_table"
        text = (f'{{"custom": {{"kind": "{kind}", "mean": 0.3, '
                f'"support": [0, 1], "{key}": {table}}}}}')
        with pytest.raises(InvalidParameterError, match=message):
            load_distribution(json.loads(text))

    def test_pmf_table_reads_its_points(self):
        pmf = load_distribution({"custom": {
            "kind": "discrete", "mean": 2.1, "support": [-1, 5],
            "pmf_table": [[-1, 0.1], [2, 0.6], [5, 0.3]]}}).pmf
        k = np.array([[-2, -1, 0, 2], [2.5, 5, 6, np.nan]])
        np.testing.assert_array_equal(
            pmf(k), [[0.0, 0.1, 0.0, 0.6], [0.0, 0.3, 0.0, 0.0]])
        assert pmf(2).shape == () and pmf(2) == 0.6

    @pytest.mark.parametrize("text", [
        '{"family": "normal", "params": {"mean": 1, "mean": 2}}',
        '{"family": "normal", "family": "gamma", "params": {"shape": 2}}',
        '{"custom": {"kind": "discrete", "mean": 0.3, "mean": 0.5, '
        '"support": [0, 1], "pmf_table": [[0, 0.7], [1, 0.3]]}}'])
    def test_repeated_key_is_refused(self, tmp_path, text):
        # read with its last value, a repeated key would give normal(2, 1)
        path = tmp_path / "dist.json"
        path.write_text(text)
        with pytest.raises(InvalidParameterError, match="is repeated"):
            load_distribution(str(path))

    def test_bad_documents(self):
        with pytest.raises(InvalidParameterError):
            load_distribution({"nonsense": 1})
        with pytest.raises(InvalidParameterError):
            load_distribution({"custom": {"kind": "weird", "mean": 0,
                                          "support": [0, 1]}})

    def test_spec_to_json(self):
        doc = spec_to_json(catalog("beta", {"a": 2, "b": 3}))
        assert doc["kind"] == "continuous"
        np.testing.assert_allclose(doc["quadratic"], (-0.2, 0.2, 0.0))
        assert doc["support"] == [0.0, 1.0]
        doc_n = spec_to_json(catalog("normal"))
        assert doc_n["support"] == [None, None]
        # catalog members load back; custom members have no family to name
        for name, params in CATALOG_CASES:
            spec = catalog(name, params)
            doc = json.loads(json.dumps(spec_to_json(spec)))
            assert doc["family"] == spec.name
            back = load_distribution(doc)
            assert (back.name, back.params, back.mean, back.q) == \
                (spec.name, spec.params, spec.mean, spec.q)
        custom = ContinuousIP(0.5, None, (0.0, 1.0), lambda x: np.ones_like(x))
        assert "family" not in spec_to_json(custom)
