"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.  Expected values marked as derived were computed from independent
oracles (Gaussian double-factorial moments, closed-form Poisson generating
functions, exact finite sums) and are frozen here.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from varbounds import (EngineConfig, FunctionTuple, catalog, eigenvalues,
                       infer_quadratic, moment_finiteness, parse_function,
                       polynomial)
from varbounds.bounds import _Grid, bound_report, check_class
from varbounds.cli import _SampleMeans
from varbounds.expectation import sample
from tests.conftest import make_bernoulli_member

CFG = EngineConfig()
LOG2 = math.log(2.0)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {label}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {label}")


def tuple_of(*exprs):
    return FunctionTuple([parse_function(e) for e in exprs])


def min_eig(sym):
    return float(eigenvalues(sym)[0])


def test_c1_first_order_matrix_bound():
    with criterion(1, "first-order matrix bound for the standard normal"):
        spec = catalog("normal")
        g = tuple_of("x", "x^2", "exp(0.5*x)", "sin(x)")
        report = bound_report(spec, g, 1, CFG, theorems=("poincare",))
        verdict = report.verdicts["poincare"]
        assert verdict.ok
        assert verdict.min_eigenvalue >= -report.tol

        sub = tuple_of("x", "x^2")
        matrices = bound_report(spec, sub, 1, CFG, class_policy="skip")
        d, h = matrices.D.to_array(), matrices.H[0].to_array()
        np.testing.assert_allclose(d, [[1.0, 0.0], [0.0, 2.0]], atol=1e-7)
        np.testing.assert_allclose(h, [[1.0, 0.0], [0.0, 4.0]], atol=1e-7)


def test_c2_three_term_normal_chain():
    with criterion(2, "three-term chain for the cubic against the normal"):
        spec = catalog("normal")
        g = tuple_of("x^3")
        reports = {n: bound_report(spec, g, n, CFG, theorems=("poincare",))
                   for n in (1, 2, 3)}
        var = reports[1].D[0, 0]
        s = {n: reports[n].S[0, 0] for n in (1, 2, 3)}
        # frozen oracle: Var = E[Z^6] = 15, S1 = 9 E[Z^4] = 27,
        # S2 = 27 - 36/2 = 9, S3 = 9 + 36/6 = 15
        assert abs(var - 15.0) <= 1e-6
        assert abs(s[1] - 27.0) <= 1e-6
        assert abs(s[2] - 9.0) <= 1e-6
        assert abs(s[3] - 15.0) <= 1e-6
        assert s[1] >= var >= s[2]
        assert reports[3].A.max_abs() <= 1e-6


def test_c3_bessel_equality_and_strictness():
    with criterion(3, "rank-one lower bound: equality for the quadratic, "
                      "strict gap for the mixed cubic"):
        spec = catalog("normal")
        eq = bound_report(spec, tuple_of("x^2"), 2, CFG, theorems=("bessel",))
        assert abs(eq.L[0, 0] - 2.0) <= 1e-6
        assert abs(eq.D[0, 0] - 2.0) <= 1e-6

        mixed = bound_report(spec, tuple_of("x^2 + x^3"), 2, CFG,
                             theorems=("bessel",))
        # frozen oracle: Var = 2 + 15 = 17, L2 = 9 + 2 = 11
        assert abs(mixed.D[0, 0] - 17.0) <= 1e-6
        assert abs(mixed.L[0, 0] - 11.0) <= 1e-6
        assert mixed.D[0, 0] - mixed.L[0, 0] >= 0.1


def test_c4_poisson_closing_inequality():
    with criterion(4, "Poisson 2x2 inequality with summation/MC cross-check"):
        g = tuple_of("x^2", f"exp({-LOG2}*x)")
        raw = [lambda k: k**2, lambda k: np.exp(-LOG2 * k)]
        for i, lam in enumerate((0.5, 2.0, 7.0)):
            spec = catalog("poisson", {"lam": lam})
            matrices = bound_report(spec, g, 1, CFG, class_policy="skip")
            d, h1 = matrices.D, matrices.H[0]
            assert min_eig(h1 - d) >= -1e-6, lam

            # cross-check the building-block expectations: the sum over the
            # truncated support against the mean over the seeded sample
            # grid, within 4x the 99% CI
            cfg = EngineConfig(mc_seed=4000 + i)
            grid = _Grid.build(spec, cfg).weights
            xs = sample(spec, cfg)
            probes = [raw[0], raw[1],
                      lambda k: raw[0](k) * raw[1](k),
                      lambda k: spec.q(k) * (raw[0](k + 1) - raw[0](k))
                      * (raw[1](k + 1) - raw[1](k))]
            for phi in probes:
                det = grid.w @ phi(grid.x)
                sums = _SampleMeans()
                sums.add(phi(xs)[None], np.ones(xs.size))
                (mc,), (half,) = sums.result()
                assert abs(det - mc) <= 4 * half + 1e-12


def test_c5_beta_coverage():
    with criterion(5, "beta quadratic inference and logit class filtering"):
        g = tuple_of("x", "x^2", "log(x) - log(1-x)")
        for a, b in ((2.0, 3.0), (0.5, 0.5), (5.0, 1.0)):
            spec = catalog("beta", {"a": a, "b": b})
            inferred = infer_quadratic(spec, CFG)
            shipped = np.array(spec.q.as_tuple())
            err = np.max(np.abs(np.array(inferred.quadratic.as_tuple())
                                - shipped)) / np.max(np.abs(shipped))
            assert err < 1e-6, (a, b)

            report = bound_report(spec, g, 1, CFG, theorems=("poincare",),
                                  class_policy="drop")
            assert report.verdicts["poincare"].ok, (a, b)
            if (a, b) == (0.5, 0.5):
                assert report.provenance["dropped_functions"] == [2]
            if (a, b) == (2.0, 3.0):
                assert report.provenance["dropped_functions"] == []
                assert report.p == 3


def _member_pool():
    return [
        catalog("normal", {"mean": 0.0, "var": 1.0}),
        catalog("normal", {"mean": -1.0, "var": 2.0}),
        catalog("gamma", {"shape": 2.0, "scale": 1.0}),
        catalog("gamma", {"shape": 3.5, "scale": 0.8}),
        catalog("beta", {"a": 2.0, "b": 3.0}),
        catalog("beta", {"a": 1.5, "b": 1.5}),
        catalog("beta", {"a": 4.0, "b": 1.2}),
        catalog("poisson", {"lam": 0.8}),
        catalog("poisson", {"lam": 4.0}),
        catalog("binomial", {"n": 12, "theta": 0.35}),
        catalog("negative-binomial", {"r": 2.0, "theta": 0.55}),
        catalog("hypergeometric", {"N": 30, "K": 12, "n": 9}),
    ]


def test_c6_polynomial_annihilation():
    with criterion(6, "200 randomized trials: polynomial tuples of degree "
                      "<= n annihilate both defects"):
        rng = np.random.default_rng(2024_06)
        pool = _member_pool()
        for trial in range(200):
            spec = pool[trial % len(pool)]
            n = int(rng.integers(1, 4))
            p = int(rng.integers(1, 4))
            entries = []
            for _ in range(p):
                deg = int(rng.integers(0, n + 1))
                coeffs = rng.uniform(-2.0, 2.0, size=deg + 1)
                entries.append(polynomial(coeffs))
            g = FunctionTuple(entries)
            report = bound_report(spec, g, n, CFG, class_policy="skip")
            tol = report.tol
            assert report.A.max_abs() <= tol, (trial, spec.name, n)
            assert (report.D - report.L).max_abs() <= tol, \
                (trial, spec.name, n)


def _random_function(rng, discrete):
    kind = rng.integers(0, 5)
    if kind == 0:
        deg = int(rng.integers(1, 5))
        return polynomial(rng.uniform(-2.0, 2.0, size=deg + 1))
    if kind == 1:
        a = rng.uniform(-1.0, 0.6) if discrete else rng.uniform(-0.6, 0.6)
        return parse_function(f"exp({a}*x)")
    if kind == 2:
        return parse_function(f"sin({rng.uniform(0.5, 2.0)}*x)")
    if kind == 3:
        return parse_function(f"cos({rng.uniform(0.5, 2.0)}*x)")
    return parse_function(f"x*exp({rng.uniform(-0.5, 0.2)}*x)")


def test_c7_randomized_theorem_suite():
    with criterion(7, "500 randomized trials: zero violations of either "
                      "eigenvalue bound"):
        rng = np.random.default_rng(2024_07)
        pool = _member_pool()
        accepted = 0
        attempts = 0
        while accepted < 500:
            attempts += 1
            assert attempts < 3000, "class-valid tuples too rare"
            spec = pool[int(rng.integers(0, len(pool)))]
            n = int(rng.integers(1, 4))
            if not moment_finiteness(spec, n, CFG):
                continue
            p = int(rng.integers(1, 4))
            g = FunctionTuple([_random_function(rng, spec.is_discrete)
                               for _ in range(p)])
            if not check_class(spec, g, n, "H", CFG).ok:
                continue
            if not check_class(spec, g, n, "B", CFG).ok:
                continue
            report = bound_report(spec, g, n, CFG, class_policy="skip")
            assert report.verdicts["poincare"].ok, \
                (accepted, spec.name, n, [gi.label for gi in g])
            assert report.verdicts["bessel"].ok, \
                (accepted, spec.name, n, [gi.label for gi in g])
            accepted += 1


def brute_pmf_poisson(lam, k):
    return math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))


def brute_pmf_binomial(trials, theta, k):
    return (math.comb(trials, k) * theta**k * (1.0 - theta) ** (trials - k))


def test_c8_discrete_parity():
    with criterion(8, "scalar parity against direct summation for Poisson "
                      "and Binomial"):
        cases = [
            (catalog("poisson", {"lam": 2.5}),
             lambda k: brute_pmf_poisson(2.5, k), range(0, 80)),
            (catalog("binomial", {"n": 12, "theta": 0.35}),
             lambda k: brute_pmf_binomial(12, 0.35, k), range(0, 13)),
        ]
        funcs = [("x^2", lambda k: float(k) ** 2),
                 (f"exp({-LOG2}*x)", lambda k: 2.0 ** (-k))]
        n = 2
        for spec, pmf, support in cases:
            q = spec.q
            for expr, fn in funcs:
                g = tuple_of(expr)
                report = bound_report(spec, g, n, CFG)

                # independent oracle: plain python loops, exact pmf formulas
                def brute(weight):
                    return sum(pmf(k) * weight(k) for k in support)

                mean = brute(fn)
                var = brute(lambda k: (fn(k) - mean) ** 2)
                assert abs(report.D[0, 0] - var) <= 1e-10

                for k_ord in (1, 2):
                    def delta_k(k, f=fn, order=k_ord):
                        vals = [f(k + i) for i in range(order + 1)]
                        for _ in range(order):
                            vals = [vals[i + 1] - vals[i]
                                    for i in range(len(vals) - 1)]
                        return vals[0]

                    def rising(k, order=k_ord):
                        out = 1.0
                        for i in range(order):
                            out *= q(float(k + i))
                        return out

                    h_brute = brute(lambda k: rising(k) * delta_k(k) ** 2)
                    v_brute = brute(lambda k: rising(k) * delta_k(k))
                    assert abs(report.H[k_ord - 1][0, 0] - h_brute) <= 1e-10
                    b_entry = report.B[k_ord - 1][0, 0]
                    assert abs(b_entry - v_brute**2) <= 1e-10

                # the matrix verdicts must coincide with the scalar statements
                s_n = report.S[0, 0]
                l_n = report.L[0, 0]
                assert report.verdicts["poincare"].ok == \
                    ((-1) ** n * (var - s_n) >= -report.tol)
                assert report.verdicts["bessel"].ok == (l_n <= var + report.tol)


def test_c9_null_matrix_convention():
    with criterion(9, "vanishing rising-product expectation yields a null "
                      "summand and a recorded annotation"):
        spec = make_bernoulli_member(0.3)
        g = tuple_of("x^2", f"exp({-LOG2}*x)")
        report = bound_report(spec, g, 2, CFG)
        assert report.bessel_weights[1].null
        assert report.bessel_weights[1].expectation == pytest.approx(0.0,
                                                                     abs=1e-15)
        assert report.B[1].max_abs() == 0.0
        # L2 reduces to the order-1 summand alone
        w1 = report.bessel_weights[0].weight
        np.testing.assert_allclose(report.L.to_array(),
                                   w1 * report.B[0].to_array(), atol=1e-14)
        assert 2 in report.provenance["null_terms"]
        assert report.passed
