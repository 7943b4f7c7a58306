"""Bound-matrix assembly and certification tests.

Oracles: Gaussian double-factorial moments, Poisson/Binomial brute-force
summation written directly in the tests, and scalar reductions of the
matrix statements.
"""

import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from varbounds import (ContinuousIP, DiscreteCO, FunctionTuple, Quadratic,
                       catalog, eigenvalues, parse_function, polynomial)
from varbounds import bounds, clear_members, expectation, linalg
from varbounds.bounds import (_bessel_weight, _Grid, bound_report,
                              bound_reports, check_class,
                              poincare_coefficient)
from varbounds.calculus import DerivativeTable, forward_difference
from varbounds.cli import _parse_dist, main
from varbounds.errors import ClassMembershipError, SingularCoefficientError
from tests.conftest import (ladder_only, make_bernoulli_member,
                            make_heavy_member)


def tuple_of(*exprs):
    return FunctionTuple([parse_function(e) for e in exprs])


def skip_report(spec, g, n, cfg):
    """The order-n report with no class checks: D, H_k, B_k, S_n, L_n, A_n
    and the weights as the one assembly pass builds them."""
    return bound_report(spec, g, n, cfg, class_policy="skip")


def poisson_brute(lam, phi, upto=200):
    """Direct summation oracle, independent of the expectation engine."""
    total, logp = 0.0, -lam
    for k in range(upto):
        p = math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))
        total += p * phi(k)
    return total


class TestDispersion:
    def test_normal_pair(self, cfg):
        d = skip_report(catalog("normal"), tuple_of("x", "x^2"), 1, cfg).D
        np.testing.assert_allclose(d.to_array(), [[1.0, 0.0], [0.0, 2.0]],
                                   atol=1e-10)

    def test_constant_function(self, cfg):
        d = skip_report(catalog("normal"), tuple_of("3"), 1, cfg).D
        assert abs(d[0, 0]) < 1e-14

    def test_poisson_identity(self, cfg):
        lam = 2.5
        d = skip_report(catalog("poisson", {"lam": lam}), tuple_of("x"), 1,
                        cfg).D
        assert d[0, 0] == pytest.approx(lam, abs=1e-10)


class TestMatrixH:
    def test_normal_first_order(self, cfg):
        h = skip_report(catalog("normal"), tuple_of("x", "x^2"), 1, cfg).H[0]
        np.testing.assert_allclose(h.to_array(), [[1.0, 0.0], [0.0, 4.0]],
                                   atol=1e-10)

    def test_poisson_scaling(self, cfg):
        # with constant quadratic lam, the order-k matrix is lam^k times the
        # plain difference Gram matrix
        lam = 2.0
        spec = catalog("poisson", {"lam": lam})
        g = tuple_of("x^2", "exp(-0.25*x)")
        h1 = skip_report(spec, g, 1, cfg).H[0].to_array()
        oracle = np.empty((2, 2))
        funcs = [lambda k: k**2, lambda k: math.exp(-0.25 * k)]
        for i in range(2):
            for j in range(2):
                oracle[i, j] = lam * poisson_brute(
                    lam, lambda k, a=funcs[i], b=funcs[j]:
                        (a(k + 1) - a(k)) * (b(k + 1) - b(k)))
        np.testing.assert_allclose(h1, oracle, atol=1e-10)

    def test_vanishes_beyond_degree(self, cfg):
        g = tuple_of("x", "1 + 2*x")
        h = skip_report(catalog("normal"), g, 2, cfg).H[1]
        assert h.max_abs() < 1e-12
        hd = skip_report(catalog("poisson", {"lam": 1}), g, 2, cfg).H[1]
        assert hd.max_abs() < 1e-12

    def test_psd_within_tolerance(self, cfg):
        for spec in (catalog("normal"), catalog("gamma", {"shape": 2}),
                     catalog("poisson", {"lam": 3})):
            g = tuple_of("x", "x^2", "x^3")
            for h in skip_report(spec, g, 2, cfg).H:
                assert eigenvalues(h)[0] >= -1e-10 * (1 + h.max_abs())


class TestMatrixB:
    def test_normal_second_order(self, cfg):
        b = skip_report(catalog("normal"), tuple_of("x^2"), 2, cfg).B[1]
        assert b[0, 0] == pytest.approx(4.0, abs=1e-10)

    def test_poisson_scaling(self, cfg):
        lam = 1.5
        spec = catalog("poisson", {"lam": lam})
        b = skip_report(spec, tuple_of("x^2", "x^3"), 1, cfg).B[0].to_array()
        d1 = poisson_brute(lam, lambda k: 2 * k + 1)
        d2 = poisson_brute(lam, lambda k: 3 * k**2 + 3 * k + 1)
        v = lam * np.array([d1, d2])
        np.testing.assert_allclose(b, np.outer(v, v), rtol=1e-10)

    def test_odd_symmetry_vanishes(self, cfg):
        # E[g''] = E[6 Z] = 0 for the odd cubic about the Normal mean
        b = skip_report(catalog("normal"), tuple_of("x^3"), 2, cfg).B[1]
        assert b.max_abs() < 1e-12

    def test_exactly_rank_one_psd(self, cfg):
        b = skip_report(catalog("gamma", {"shape": 2.5}),
                        tuple_of("x", "x^2", "sin(x)"), 1, cfg).B[0]
        vals = eigenvalues(b)
        assert vals[0] >= -1e-13 * (1 + b.max_abs())
        assert np.all(np.abs(vals[:-1]) <= 1e-12 * (1 + b.max_abs()))


class TestCoefficients:
    def test_poincare_normal_values(self):
        assert poincare_coefficient(0.0, 1) == pytest.approx(1.0)
        assert poincare_coefficient(0.0, 2) == pytest.approx(-0.5)
        assert poincare_coefficient(0.0, 3) == pytest.approx(1.0 / 6.0)

    def test_poincare_singular(self):
        with pytest.raises(SingularCoefficientError) as err:
            poincare_coefficient(1.0, 2)
        assert err.value.j == 1

    def test_poincare_guard_near_zero(self):
        with pytest.raises(SingularCoefficientError):
            poincare_coefficient(0.5 + 1e-12, 3)  # factor 1 - 2*delta ~ 0

    def test_bessel_normal(self, cfg):
        report = skip_report(catalog("normal"), tuple_of("x"), 3, cfg)
        for k in (1, 2, 3):
            assert report.bessel_weights[k - 1].weight == pytest.approx(
                1.0 / math.factorial(k), rel=1e-9)

    def test_bessel_poisson(self, cfg):
        lam = 2.0
        spec = catalog("poisson", {"lam": lam})
        report = skip_report(spec, tuple_of("x"), 3, cfg)
        grid = _Grid.build(spec, cfg, top=3).weights
        for k in (1, 2, 3):
            # E[q^[k]] = lam^k, verified against brute-force summation
            eq = grid.expectation(k)
            assert eq == pytest.approx(lam**k, rel=1e-10)
            assert report.bessel_weights[k - 1].weight == pytest.approx(
                1.0 / (math.factorial(k) * lam**k), rel=1e-9)

    def test_bessel_null_term(self, cfg, bernoulli_member):
        report = skip_report(bernoulli_member, tuple_of("x"), 2, cfg)
        assert report.bessel_weights[1].weight is None

    def test_bessel_singular_factor(self, cfg):
        # delta = 0.5: the order-2 product contains (1 - 2*0.5) = 0; a report
        # of order 2 is refused first by the moment gate (E|X|^4 diverges),
        # so the coefficient is built from E[w_2] directly
        spec = make_heavy_member(delta=0.5)
        report = skip_report(spec, tuple_of("x"), 1, cfg)
        assert report.bessel_weights[0].weight is not None
        with pytest.raises(ClassMembershipError, match=r"E\|X\|\^4"):
            skip_report(spec, tuple_of("x"), 2, cfg)
        eq = _Grid.build(spec, cfg, top=2).weights.expectation(2)
        with pytest.raises(SingularCoefficientError) as err:
            _bessel_weight(spec, 2, eq)
        assert err.value.j == 2


class TestWeightedSums:
    def test_normal_chain_scalars(self, cfg):
        spec = catalog("normal")
        g = tuple_of("x^3")
        reports = {n: skip_report(spec, g, n, cfg) for n in (1, 2, 3)}
        assert reports[1].S[0, 0] == pytest.approx(27.0, abs=1e-8)
        assert reports[2].S[0, 0] == pytest.approx(9.0, abs=1e-8)
        assert reports[3].S[0, 0] == pytest.approx(15.0, abs=1e-8)
        assert reports[3].A.max_abs() < 1e-8

    def test_first_order_reduction(self, cfg):
        spec = catalog("normal")
        g = tuple_of("x", "x^2")
        report = skip_report(spec, g, 1, cfg)
        np.testing.assert_allclose(report.S.to_array(),
                                   report.H[0].to_array(), atol=1e-12)
        np.testing.assert_allclose(report.A.to_array(),
                                   [[0.0, 0.0], [0.0, 2.0]], atol=1e-9)

    def test_bessel_equality_case(self, cfg):
        l2 = skip_report(catalog("normal"), tuple_of("x^2"), 2, cfg).L
        assert l2[0, 0] == pytest.approx(2.0, abs=1e-9)


class TestClassChecks:
    def test_polynomial_against_gaussian(self, cfg):
        report = check_class(catalog("normal"), tuple_of("x^3"), 3, "H", cfg)
        assert report.ok
        assert report.implies_other  # finite 2n-th moment: H subset of B

    def test_heavy_tail_high_degree_fails(self, cfg, heavy_member):
        # for polynomials the weight degree 2d is constant in k: x^2 stays
        # below the 4.33 tail index at every order, x^3 exceeds it everywhere
        ok = check_class(heavy_member, tuple_of("x^2"), 1, "H", cfg)
        assert ok.ok
        bad = check_class(heavy_member, tuple_of("x^3"), 1, "H", cfg)
        assert not bad.ok
        assert (0, 0) in bad.failures()

    def test_failure_at_the_divergent_order(self, cfg):
        # logit against Beta(0.5, 0.5): the square is integrable but the
        # weighted derivative is not, so the failure sits exactly at k=1
        spec = catalog("beta", {"a": 0.5, "b": 0.5})
        report = check_class(spec, tuple_of("log(x) - log(1-x)"), 1, "H", cfg)
        assert report.verdicts[0][0]
        assert not report.verdicts[0][1]
        assert report.failures() == [(0, 1)]

    def test_h_implies_b_on_catalog(self, cfg):
        g = tuple_of("x", "x^2", "exp(0.4*x)")
        for spec in (catalog("normal"), catalog("gamma", {"shape": 3})):
            h_rep = check_class(spec, g, 2, "H", cfg)
            b_rep = check_class(spec, g, 2, "B", cfg)
            if h_rep.ok:
                assert h_rep.implies_other
                assert b_rep.ok

    def test_divergent_exponential_discrete(self, cfg):
        spec = catalog("negative-binomial", {"r": 2, "theta": 0.4})
        report = check_class(spec, tuple_of("exp(x)"), 1, "H", cfg)
        assert not report.ok

    def test_exponential_on_large_poisson_in_class(self, cfg):
        # poisson(300) has every exponential moment; (d^k exp(0.35 x))^2
        # alone overflows where the pmf is still positive, but the weighted
        # square there is only about e^185
        spec = catalog("poisson", {"lam": 300})
        for cls in ("H", "B"):
            assert check_class(spec, tuple_of("exp(0.35*x)"), 3, cls, cfg).ok

    def test_slow_divergence_past_the_pmf_underflow(self, cfg):
        # E[exp(0.8 X)] diverges for this member, since 0.45 e^0.8 > 1, but
        # the terms grow so slowly that the pmf underflows first; the sum is
        # cut off while still growing and must not count as finite
        spec = catalog("negative-binomial", {"r": 2, "theta": 0.55})
        report = check_class(spec, tuple_of("exp(0.4*x)"), 1, "H", cfg)
        assert report.verdicts == ((False, False),)

    def test_one_evaluation_per_function_and_order(self, cfg, monkeypatch,
                                                   base_evaluations):
        rows = []
        original = DerivativeTable.rows

        def counted(self, bases):
            rows.append(bases[1].orders)
            return original(self, bases)

        monkeypatch.setattr(DerivativeTable, "rows", counted)
        g = tuple_of("x^3", "exp(0.4*x)", "x*sin(2*x)")
        for cls in ("H", "B"):
            rows.clear()
            base_evaluations.clear()
            check_class(catalog("normal"), g, 3, cls, cfg)
            # the bases of every order once, and the rows of every order
            # in one pass over them
            assert [orders for _, orders in base_evaluations] == \
                [(0, 1, 2, 3)]
            assert rows == [(0, 1, 2, 3)]


# every member x function pair of the table below, with the check_class
# verdicts and decay ratios of orders k = 0..3 recorded from the per-probe
# ladder (commit feb990b); pairs not listed are finite at every order with
# vanishing increments (ratio 0.0)
LADDER_MEMBERS = {
    "normal": ("normal", {}),
    "gamma": ("gamma", {"shape": 2.0}),
    "beta": ("beta", {"a": 2.0, "b": 3.0}),
    "poisson": ("poisson", {"lam": 4.0}),
    "binomial": ("binomial", {"n": 12, "theta": 0.35}),
    "negative-binomial": ("negative-binomial", {"r": 2.0, "theta": 0.55}),
    "hypergeometric": ("hypergeometric", {"N": 30, "K": 12, "n": 9}),
    "beta(0.5,0.5)": ("beta", {"a": 0.5, "b": 0.5}),
    "beta(0.3,4)": ("beta", {"a": 0.3, "b": 4}),
    "gamma(0.4)": ("gamma", {"shape": 0.4}),
    "heavy-tail": None,
}
LADDER_FUNCTIONS = ("x^3", "exp(0.4*x)", "sin(x)", "x*cos(x)")
_T, _F, _INF = True, False, math.inf


def _both(verdicts, ratios):
    return {"H": (verdicts, ratios), "B": (verdicts, ratios)}


LADDER_TABLE = {
    ("beta(0.5,0.5)", "x^3"): _both((_T,) * 4, (0.316235155677337, 0, 0, 0)),
    ("beta(0.5,0.5)", "exp(0.4*x)"):
        _both((_T,) * 4, (0.3162275026540162, 0, 0, 0)),
    ("beta(0.5,0.5)", "sin(x)"):
        _both((_T,) * 4, (0.31622881965662525, 0, 0, 0)),
    ("beta(0.5,0.5)", "x*cos(x)"):
        _both((_T,) * 4, (0.31622559648808396, 0, 0, 0)),
    ("beta(0.3,4)", "exp(0.4*x)"):
        _both((_T,) * 4, (0.5011915945448202, 0, 0, 0)),
    ("gamma(0.4)", "exp(0.4*x)"):
        _both((_T,) * 4, (0.39810749717310545, 0, 0, 0)),
    ("negative-binomial", "exp(0.4*x)"): {
        "H": ((_F,) * 4, (_INF,) * 4),
        "B": ((_F, _T, _T, _T), (_INF, 0, 0, 0))},
    ("heavy-tail", "x^3"): {
        "H": ((_F,) * 4, (10.079422596032883, 10.079402272202751,
                          10.079381948375522, 10.079361624551188)),
        "B": ((_F, _T, _F, _F), (10.079422596032883, 0.6299643777856759,
                                 2.519846707000954, 10.079361624551188))},
    ("heavy-tail", "exp(0.4*x)"): _both((_F,) * 4, (_INF,) * 4),
    ("heavy-tail", "sin(x)"): {
        "H": ((_T, _T, _T, _F), (0, 0, 0.5930098467103173,
                                 10.004950971851999)),
        "B": ((_T, _T, _T, _F), (0, 0, 0.6087300817760848,
                                 10.074138754285588))},
    ("heavy-tail", "x*cos(x)"): {
        "H": ((_T, _T, _F, _F), (0.03980655365202339, 0.5935006905401373,
                                 10.004491727006608, 163.1421613073762)),
        "B": ((_T, _T, _F, _F), (0.03980655365202339, 0.15351176691165636,
                                 2.5216778372564925, 40.39204211275901))},
}


@pytest.mark.parametrize("member", list(LADDER_MEMBERS))
@pytest.mark.parametrize("expr", LADDER_FUNCTIONS)
def test_class_ladder_table(member, expr, cfg, heavy_member):
    entry = LADDER_MEMBERS[member]
    spec = heavy_member if entry is None else catalog(*entry)
    expected = LADDER_TABLE.get((member, expr),
                                _both((_T,) * 4, (0.0,) * 4))
    for cls in ("H", "B"):
        report = check_class(spec, tuple_of(expr), 3, cls, cfg)
        verdicts, ratios = expected[cls]
        assert report.verdicts == (verdicts,)
        for got, want in zip(report.ratios[0], ratios):
            if math.isfinite(want):
                assert got == pytest.approx(want, rel=1e-9, abs=0.0)
            else:
                assert got == want


# check_class(spec, g, 3, cls) on the 7 catalog families at mild parameters
# and the benchmark's 8 hard members, each with the benchmark's three
# catalog-sweep tuple shapes, recorded while each ladder row was judged in
# its own call (commit 96e5d5b)
CLASS_REPORTS = json.loads(
    pathlib.Path(__file__).with_name("class_reports.json").read_text())


@pytest.mark.parametrize("case", CLASS_REPORTS, ids=lambda case: (
    f"{case['dist']}|{','.join(case['functions'])}|{case['class']}"))
def test_class_reports_recorded(case, cfg):
    report = check_class(_parse_dist(case["dist"]),
                         tuple_of(*case["functions"]), case["n"],
                         case["class"], cfg)
    assert report.verdicts == tuple(map(tuple, case["verdicts"]))
    assert [[r.hex() for r in row] for row in report.ratios] == \
        [[float(r).hex() for r in row] for row in case["ratios"]]
    assert report.implies_other == case["implies_other"]


class TestBoundReport:
    def test_full_run_normal(self, cfg):
        g = tuple_of("x", "x^2", "exp(0.5*x)", "sin(x)")
        report = bound_report(catalog("normal"), g, 1, cfg)
        assert report.passed
        assert report.verdicts["poincare"].ok
        assert report.verdicts["bessel"].ok
        assert report.p == 4
        doc = report.to_json_dict()
        assert doc["verdicts"]["poincare"]["pass"]
        assert len(doc["H"]) == 1 and len(doc["B"]) == 1

    def test_moment_gate(self, cfg, heavy_member):
        with pytest.raises(ClassMembershipError):
            bound_report(heavy_member, tuple_of("x"), 3, cfg)

    def test_divergent_matrix_without_class_checks(self, cfg):
        # E[exp(6X)] diverges for gamma(2, 1); with the class checks skipped
        # the non-finite entry of D is still refused as a class failure,
        # and the overflow behind it raises no warning on the way
        spec = catalog("gamma", {"shape": 2, "scale": 1})
        with warnings.catch_warnings(), pytest.raises(
                ClassMembershipError,
                match="divergent second moment in dispersion matrix"):
            warnings.simplefilter("error")
            bound_report(spec, tuple_of("exp(3*x)"), 1, cfg,
                         class_policy="skip")

    def test_numerical_moment_gate(self, cfg, heavy_member):
        # the heavy density declared with a delta = 0 quadratic: the Pearson
        # criterion admits every order, so only the moment row on the ladder
        # can refuse the orders whose 2n-th moment diverges
        mislabelled = ContinuousIP(0.0, Quadratic(0.0, 0.0, 1.0),
                                   heavy_member.support, heavy_member.density,
                                   None, "mislabelled")
        assert [bounds.moment_finiteness(mislabelled, n, cfg)
                for n in (1, 2, 3, 4)] == [True, True, False, False]
        for spec, policy in ((mislabelled, "raise"), (mislabelled, "skip"),
                             (heavy_member, "skip")):
            with pytest.raises(ClassMembershipError, match=r"E\|X\|\^6"):
                bound_report(spec, tuple_of("x"), 3, cfg,
                             class_policy=policy)

    def test_exponential_on_large_poisson_closed_forms(self, cfg):
        # E[e^(tX)] = exp(lam (e^t - 1)) for poisson(lam); the sums run to
        # the pmf's underflow, where a mass cut alone would lose nearly all
        # of E[e^(2aX)], whose terms peak near x = lam e^(2a) ~ 600
        lam, a = 300.0, 0.35
        report = bound_report(catalog("poisson", {"lam": lam}),
                              tuple_of("x", f"exp({a}*x)"), 1, cfg)
        second = math.exp(lam * (math.exp(2 * a) - 1.0))
        first = math.exp(lam * (math.exp(a) - 1.0))
        closed = {"D": second - first**2,
                  "H_1": lam * (math.exp(a) - 1.0) ** 2 * second,
                  "B_1": (lam * (math.exp(a) - 1.0) * first) ** 2}
        got = {"D": report.D, "H_1": report.H[0], "B_1": report.B[0]}
        for name, value in closed.items():
            assert got[name][1, 1] == pytest.approx(value, rel=1e-10), name
        assert report.passed

    def test_class_gate_raises(self, cfg):
        spec = catalog("gamma", {"shape": 2, "scale": 2})
        with pytest.raises(ClassMembershipError):
            bound_report(spec, tuple_of("exp(x)"), 1, cfg)

    def test_class_gate_drop(self, cfg):
        spec = catalog("beta", {"a": 0.5, "b": 0.5})
        g = tuple_of("x", "x^2", "log(x) - log(1-x)")
        report = bound_report(spec, g, 1, cfg, class_policy="drop")
        assert report.p == 2
        assert report.provenance["dropped_functions"] == [2]
        assert report.passed

    def test_null_term_records(self, cfg, bernoulli_member):
        g = tuple_of("x^2", "exp(-0.5*x)")
        report = bound_report(bernoulli_member, g, 2, cfg)
        assert 2 in report.provenance["null_terms"]
        assert report.bessel_weights[1].null
        assert report.B[1].max_abs() == 0.0
        assert report.passed

    def test_eigen_rows(self, cfg):
        report = bound_report(catalog("normal"), tuple_of("x", "x^2"), 1, cfg)
        rows = report.eigen_rows()
        names = {r[1] for r in rows}
        assert {"D", "S", "L", "A", "H1", "B1", "D-L"} <= names


def _json(reports):
    return [r.to_json_dict() for r in reports]


class TestOnePass:
    """A multi-order request is one pass: every row, ladder and term is
    computed once, and each order's report is the one its own call gives."""

    def test_one_derivative_evaluation_per_grid(self, cfg,
                                                base_evaluations):
        g = tuple_of("x^3", "exp(0.4*x)", "x*sin(2*x)")
        bound_report(ladder_only(catalog("normal")), g, 3, cfg)
        # the bases of orders 0-3 once each on the class ladder, the full
        # grid and the half grid
        assert [orders for _, orders in base_evaluations] == \
            [(0, 1, 2, 3)] * 3
        assert len({x.size for x, _ in base_evaluations}) == 3
        # the closed-form rule settles the catalog member: no ladder
        base_evaluations.clear()
        bound_report(catalog("normal"), g, 3, cfg)
        assert [orders for _, orders in base_evaluations] == \
            [(0, 1, 2, 3)] * 2

    def test_one_evaluation_per_shift_on_discrete_grids(self, cfg,
                                                         base_evaluations):
        g = tuple_of("x", "x*sin(2*x)", "x^2*exp(0.25*x)")
        bound_reports(catalog("poisson", {"lam": 3.815}), g, range(1, 9), cfg)
        # at x, x + 1, ..., x + 8 together, on the one grid the class ladder
        # and the assembly share, which is its own half-resolution grid
        (x, orders), = base_evaluations
        shifts = x.reshape(9, -1)
        assert orders == (0,)
        assert np.all(shifts - shifts[0] == np.arange(9)[:, None])

    def test_one_subset_per_kept_set(self, cfg, base_evaluations):
        bound_reports(catalog("gamma", {"shape": 1.5}),
                      tuple_of("x", "x^2", "log(x)"), range(1, 5), cfg,
                      class_policy="drop")
        # log(x) leaves the Gram class at k = 2: the whole tuple's bases on
        # the class ladder, the full and the half grid; the subset (x, x^2)
        # of orders 2-4 reads its rows off the whole tuple's
        assert len(base_evaluations) == 3

    # the closed-form rule leaves a log factor, and twice a rate past half
    # the tail rate (log 2 on negative-binomial(3, 0.5)), to the ladder; it
    # settles the normal and poisson requests, which make no ladder pass
    @pytest.mark.parametrize("dist,last,grids,ladders", [
        ("beta:a=2,b=3", "log(x+1)", 3, 1),
        ("negative-binomial:r=3,theta=0.5", "exp(0.3*x)", 1, 1),
        ("normal", "x^2*exp(0.25*x)", 2, 0),
        ("poisson:lam=3.815", "x^2*exp(0.25*x)", 1, 0)])
    def test_chain_evaluates_bases_once_per_grid(self, tmp_path, monkeypatch,
                                                 base_evaluations, dist,
                                                 last, grids, ladders):
        passes = []
        original = expectation.Ladder.classify

        def counted(self, contrib):
            passes.append(len(contrib))
            return original(self, contrib)

        monkeypatch.setattr(expectation.Ladder, "classify", counted)
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"functions": [
            {"expr": e} for e in ("x", "x*sin(2*x)", last)]}))
        assert main(["chain", "--dist", dist, "--functions", str(path),
                     "--n", "8", "--quiet"]) == 0
        # each grid evaluates the tuple's bases once, and the class rows of
        # all nine orders are judged in one ladder pass, if any
        assert len(base_evaluations) == grids
        assert len({x.size for x, _ in base_evaluations}) == grids
        assert len(passes) == ladders

    def test_wide_tuple_evaluates_bases_once_per_grid(self, cfg,
                                                      base_evaluations):
        rates = np.linspace(0.15, 0.25, 10)
        g = tuple_of("x", "x^2", "x^3",
                     *[e for r in rates for e in (
                         f"exp({r:.3f}*x)", f"sin({4 * r:.3f}*x)",
                         f"x*cos({5 * r:.3f}*x)")][:29])
        assert g.p == 32
        bound_report(catalog("normal"), g, 2, cfg)
        # the full and the half grid: the closed-form rule settles the
        # class checks, so there is no ladder
        assert [orders for _, orders in base_evaluations] == [(0, 1, 2)] * 2

    def test_refused_order_does_not_preempt_an_earlier_one(self, cfg):
        # q(j) = 60.5 - j is positive up to j = 60, so on the support grid
        # 0..59 the rising product q^[3] is negative only at x = 59, and
        # q^[1], q^[2] nowhere; exp(0.5*x) leaves the Gram class at order 0
        def pmf(k):
            k = np.asarray(k, dtype=float)
            return np.where((k >= 0) & (k <= 59), 0.5 ** (k + 1), 0.0)

        spec = DiscreteCO(1.0, Quadratic(0.0, -1.0, 60.5), (0.0, math.inf),
                          pmf)
        with pytest.raises(ClassMembershipError, match="class H check"):
            bound_reports(spec, tuple_of("exp(0.5*x)"), [1, 3], cfg)
        with pytest.raises(ClassMembershipError, match="weight of order 3"):
            bound_reports(spec, tuple_of("exp(0.5*x)"), [3], cfg)
        with pytest.raises(ClassMembershipError, match="weight of order 3"):
            bound_reports(spec, tuple_of("x"), [2, 1, 3], cfg)
        assert [r.n for r in bound_reports(spec, tuple_of("x"), [2, 1],
                                           cfg)] == [2, 1]

    def test_divergent_term_is_raised_at_its_own_order(self, cfg):
        # d^3 sin(1e60 x) = -1e180 cos(1e60 x): under 'skip' only the
        # order-3 Gram entries overflow; the stacks hold them from order 1 on
        spec, g = catalog("normal"), tuple_of("x", "sin(1e60*x)")
        message = "divergent entry in order-3 Gram matrix"
        for orders in ([3], [1, 3], [3, 2, 1]):
            with pytest.raises(ClassMembershipError, match=message):
                bound_reports(spec, g, orders, cfg, class_policy="skip")
        assert [r.n for r in bound_reports(spec, g, [1, 2], cfg,
                                           class_policy="skip")] == [1, 2]

    def test_class_failure_precedes_an_earlier_singular_coefficient(self,
                                                                    cfg):
        # delta = 1 makes the order-2 coefficients singular; the third
        # derivative of (1 - x)^2 log(1 - x) is 2 / (1 - x), whose square
        # the uniform density on (-1, 1) does not integrate: the Gram class
        # fails at order 3 only.  The class check of order 3 comes before
        # the coefficients its report reads, so [1, 3] raises the failure
        spec = ContinuousIP(0.0, Quadratic(1.0, 0.0, 1.0), (-1.0, 1.0),
                            lambda x: np.full(np.shape(x), 0.5))
        g = tuple_of("log(1-x) - 2*x*log(1-x) + x^2*log(1-x)")
        assert check_class(spec, g, 3, "H", cfg).verdicts == \
            ((True, True, True, False),)
        with pytest.raises(ClassMembershipError,
                           match=r"class H check failed .* \[\(0, 3\)\]"):
            bound_reports(spec, g, [1, 3], cfg)
        with pytest.raises(SingularCoefficientError):
            bound_reports(spec, g, [1, 2], cfg)

    def test_negative_weight_is_raised_when_its_order_is_read(self, cfg):
        # under 'skip' no class check reads the weights first.  q(j) =
        # (j - 2.5)(j - 3.5) on {0, 1}: q^[3](1) = q(1) q(2) q(3) < 0, but
        # delta = 1 makes the order-2 coefficients singular, so no report
        # reads order 3
        def pmf(k):
            k = np.asarray(k, dtype=float)
            return np.where(k == 0, 0.4, np.where(k == 1, 0.6, 0.0))

        spec = DiscreteCO(0.6, Quadratic(1.0, -6.0, 8.75), (0.0, 1.0), pmf)
        for orders in ([1, 3], [3]):
            with pytest.raises(SingularCoefficientError) as err:
                bound_reports(spec, tuple_of("x"), orders, cfg,
                              class_policy="skip")
            assert (err.value.k, err.value.j) == (2, 1)
        # q(j) = 60.5 - j on 0..59: q^[3] < 0 at j = 59 only
        def pmf60(k):
            k = np.asarray(k, dtype=float)
            return np.where((k >= 0) & (k <= 59), 0.5 ** (k + 1), 0.0)

        spec = DiscreteCO(1.0, Quadratic(0.0, -1.0, 60.5), (0.0, math.inf),
                          pmf60)
        for orders in ([1, 3], [3]):
            with pytest.raises(ClassMembershipError,
                               match="weight of order 3"):
                bound_reports(spec, tuple_of("x"), orders, cfg,
                              class_policy="skip")
        assert len(bound_reports(spec, tuple_of("x"), [1, 2], cfg,
                                 class_policy="skip")) == 2

    def test_one_q_power_per_order_on_discrete_grids(self, cfg, monkeypatch):
        stacks, shifts = [], []
        original = bounds.rising_products

        def counted(q, top, x):
            def shifted(y):
                shifts.append(set(np.unique(y - x).tolist()))
                return q(y)

            stacks.append(top)
            return original(shifted, top, x)

        monkeypatch.setattr(bounds, "rising_products", counted)
        g = tuple_of("x", "x^2", "sin(x)")
        clear_members()
        bound_report(catalog("poisson", {"lam": 3}), g, 3, cfg)
        # on the one grid the class ladder, the weights and E[w_k] share,
        # one stack of rising products, each order the one before times
        # one evaluation of q
        assert stacks == [3]
        assert shifts == [{0.0}, {1.0}, {2.0}]
        # the member holds the stack: a repeat request, on another tuple
        # too, makes none
        bound_report(catalog("poisson", {"lam": 3}), tuple_of("x"), 3, cfg)
        assert stacks == [3]

    def test_one_eigen_solve_per_matrix(self, cfg, monkeypatch):
        solves = []
        original = linalg.eigvalsh

        def counted(a):
            solves.append(a.shape)
            return original(a)

        monkeypatch.setattr(linalg, "eigvalsh", counted)
        g = tuple_of("x", "x*sin(2*x)", "x^2*exp(0.25*x)")
        reports = bound_reports(catalog("poisson", {"lam": 3}), g,
                                range(1, 9), cfg)
        # D and every order's A and D - L in one batched call
        assert solves == [(1 + 8 * 2, 3, 3)]
        for report in reports:
            report.eigen_rows()
        # then S and L of every order, and each H_k and B_k once, shared by
        # the reports of every order >= k
        assert sum(s[0] if len(s) == 3 else 1 for s in solves) == \
            1 + 8 * 4 + 8 * 2
        assert [s for s in solves if len(s) == 3] == [(17, 3, 3)]

    def test_differences_of_shifted_rows_are_forward_differences(self, cfg):
        g = tuple_of("x^3", "exp(0.3*x)", "x*cos(0.8*x)")
        grid = _Grid.build(catalog("negative-binomial",
                                   {"r": 3, "theta": 0.5}), cfg, top=8)
        for k in range(9):
            np.testing.assert_array_equal(
                grid.rows(g)[k],
                [forward_difference(gi, k, grid.weights.x) for gi in g])

    @pytest.mark.parametrize("policy", ["raise", "drop", "skip"])
    @pytest.mark.parametrize("member", [
        ("normal", {}), ("gamma", {"shape": 2}), ("poisson", {"lam": 3}),
        ("beta", {"a": 2, "b": 3})])
    def test_one_ladder_per_request(self, cfg, ladder_builds, member, policy):
        # the moment gate of every order and the class rows share one
        # ladder; a bounded support under 'skip' needs none
        spec = catalog(*member)
        bound_reports(ladder_only(spec), tuple_of("x", "x^3"), [3, 1, 2], cfg,
                      class_policy=policy)
        bounded = all(map(math.isfinite, spec.support))
        assert len(ladder_builds) == (0 if bounded and policy == "skip"
                                      else 1)
        # the closed-form rule settles the catalog member's checks
        ladder_builds.clear()
        bound_reports(spec, tuple_of("x", "x^3"), [3, 1, 2], cfg,
                      class_policy=policy)
        assert ladder_builds == []

    @pytest.mark.parametrize("cls", ["H", "B"])
    @pytest.mark.parametrize("member", [
        ("normal", {}), ("poisson", {"lam": 3}), ("beta", {"a": 2, "b": 3})])
    def test_one_ladder_per_class_check(self, cfg, ladder_builds, member,
                                        cls):
        # one ladder per member: the first check builds it, and the member
        # holds it for every check after
        clear_members()
        for _ in range(2):
            report = check_class(catalog(*member), tuple_of("x", "x^3"), 3,
                                 cls, cfg)
            assert report.ok and report.implies_other == (cls == "H")
            assert len(ladder_builds) == 1

    @pytest.mark.parametrize("member", [
        ("normal", {}), ("poisson", {"lam": 3}), ("beta", {"a": 2, "b": 3}),
        ("binomial", {"n": 12, "theta": 0.35})])
    def test_one_verdict_pass_per_ladder_pass(self, cfg, monkeypatch,
                                              member):
        # every row of the class check, moment rows included, is judged in
        # one call, however many functions and orders there are
        calls = []
        original = expectation._classify

        def counted(values):
            calls.append(values.shape[0])
            return original(values)

        monkeypatch.setattr(expectation, "_classify", counted)
        spec = catalog(*member)
        g = tuple_of("x", "x^2", "exp(0.2*x)", "sin(x)", "x*cos(x)")
        check_class(spec, g, 3, "B", cfg)
        unbounded = not all(map(math.isfinite, spec.support))
        # order 0's square row serves B too; orders 1-3 add |d^k g| rows
        assert calls == [5 * 4 + 4 * unbounded]

    @pytest.mark.parametrize("theorems", [("poincare", "bessel"),
                                          ("poincare",)])
    @pytest.mark.parametrize("member,exprs,policy", [
        (("normal", {"mean": 0.2, "var": 1.3}),
         ("x^3", "exp(0.4*x)", "x*sin(2*x)"), "raise"),
        (("poisson", {"lam": 3}), ("x^2", "exp(0.3*x)", "sin(x)"), "raise"),
        # log(x) leaves the Gram class of gamma(1.5) at k = 2: order 1 keeps
        # it, orders 2-4 drop it
        (("gamma", {"shape": 1.5}), ("x", "x^2", "log(x)"), "drop"),
    ])
    def test_equals_separate_reports(self, cfg, member, exprs, policy,
                                     theorems):
        spec, g = catalog(*member), tuple_of(*exprs)
        orders = [3, 1, 4, 2]
        together = bound_reports(spec, g, orders, cfg, theorems=theorems,
                                 class_policy=policy)
        alone = [bound_report(spec, g, n, cfg, theorems=theorems,
                              class_policy=policy) for n in orders]
        assert _json(together) == _json(alone)
        assert [r.n for r in together] == orders

    def test_prefix_sums(self, cfg):
        spec, g = catalog("beta", {"a": 2, "b": 3}), tuple_of("x^2", "sin(x)")
        reports = bound_reports(spec, g, [1, 2, 3], cfg)
        for n, report in enumerate(reports, start=1):
            s = sum(tw.weight * h.to_array()
                    for tw, h in zip(report.poincare_weights, report.H))
            np.testing.assert_allclose(report.S.to_array(), s, rtol=1e-12,
                                       atol=1e-15)
            assert report.H == reports[-1].H[:n]

    @pytest.mark.parametrize("member,g,orders", [
        # the moment gate refuses order 3 of the heavy-tailed member
        ("heavy", ("x",), [1, 2, 3]),
        # the class gate refuses order 2
        ("gamma", ("x", "log(x)"), [1, 2, 3]),
    ])
    def test_refusal_is_the_lowest_refused_order(self, cfg, member, g,
                                                 orders):
        spec = (make_heavy_member() if member == "heavy"
                else catalog("gamma", {"shape": 1.5}))
        g = tuple_of(*g)
        refused = next(n for n in orders if _refuses(spec, g, n, cfg))
        with pytest.raises(ClassMembershipError) as alone:
            bound_report(spec, g, refused, cfg)
        with pytest.raises(ClassMembershipError) as together:
            bound_reports(spec, g, orders[::-1], cfg)
        assert str(together.value) == str(alone.value)

    def test_singular_order_raises_its_own_error(self, cfg):
        # a bounded member with delta = 1: every moment exists, and the
        # order-2 coefficient hits the zero factor (1 - delta)
        spec = ContinuousIP(0.0, Quadratic(1.0, 0.0, 1.0), (-1.0, 1.0),
                            lambda x: np.exp(-np.asarray(x) ** 2) / 1.4936482)
        g = tuple_of("x", "x^2")
        assert bound_reports(spec, g, [1], cfg)[0].n == 1
        with pytest.raises(SingularCoefficientError) as alone:
            bound_report(spec, g, 2, cfg)
        with pytest.raises(SingularCoefficientError) as together:
            bound_reports(spec, g, [3, 1, 2], cfg)
        assert (together.value.k, together.value.j) == \
            (alone.value.k, alone.value.j) == (2, 1)


def _refuses(spec, g, n, cfg):
    try:
        bound_report(spec, g, n, cfg)
    except ClassMembershipError:
        return True
    return False


def rising(a, m):
    """Rising factorial a (a + 1) ... (a + m - 1) as a Gamma ratio."""
    return math.exp(math.lgamma(a + m) - math.lgamma(a))


def q_power_closed_form(member, k):
    """E[w_k] for a LADDER_MEMBERS entry, independent of the grids: q is
    constant for normal and poisson; Gamma ratios for gamma (q = x), beta
    (q = x (1 - x) / (a + b)), negative-binomial (q^[k] = c^k (X + r)^(k))
    and the heavy-tail member (density a power of q); falling factorials for
    binomial (q^[k] = theta^k (n - X)_k, n - X ~ Bin(n, 1 - theta)); an
    exact finite sum for hypergeometric (q = (K - x)(n - x) / N)."""
    if LADDER_MEMBERS[member] is None:  # make_heavy_member(0.3, 1.0)
        e = 1.0 / (2 * 0.3) + 1.0
        return rising(e - k, k) / rising(e - k - 0.5, k)
    family, par = LADDER_MEMBERS[member]
    if family == "normal":
        return 1.0
    if family == "poisson":
        return par["lam"] ** k
    if family == "gamma":
        return rising(par["shape"], k)
    if family == "beta":
        a, b = par["a"], par["b"]
        return rising(a, k) * rising(b, k) / (rising(a + b, 2 * k)
                                              * (a + b) ** k)
    if family == "binomial":
        t = par["theta"]
        return (t * (1 - t)) ** k * math.perm(par["n"], k)
    if family == "negative-binomial":
        r, t = par["r"], par["theta"]
        return ((1 - t) / t**2) ** k * rising(r, k)
    big, succ, draws = par["N"], par["K"], par["n"]
    return sum(math.comb(succ, x) * math.comb(big - succ, draws - x)
               * math.perm(succ - x, k) * math.perm(draws - x, k)
               for x in range(min(succ, draws) + 1)) \
        / (math.comb(big, draws) * big**k)


@pytest.mark.parametrize("member", list(LADDER_MEMBERS))
def test_expectation_from_the_rows_is_q_power_expectation(member, cfg,
                                                          heavy_member):
    """E[w_k] summed over the grid against its closed form."""
    entry = LADDER_MEMBERS[member]
    spec = heavy_member if entry is None else catalog(*entry)
    grid = _Grid.build(spec, cfg, top=8).weights
    # the heavy-tail member has E[q^k] < inf only for k <= 2 (see below),
    # and its integrand at k = 1, decaying like |x|^-3.33, converges slowest
    for k in (range(1, 9) if entry else (1,)):
        assert grid.expectation(k) == pytest.approx(
            q_power_closed_form(member, k), rel=1e-10 if entry else 1e-9), k


@pytest.mark.xfail(strict=True, reason="the integrand of E[q^2] decays like "
                   "|x|^-1.33; 200 mapped Gauss-Legendre nodes miss ~3% of it")
def test_heavy_tail_second_power_expectation(cfg, heavy_member):
    grid = _Grid.build(heavy_member, cfg, top=2).weights
    assert grid.expectation(2) == pytest.approx(
        q_power_closed_form("heavy-tail", 2), rel=1e-6)


@pytest.mark.parametrize("member", [m for m in LADDER_MEMBERS
                                    if LADDER_MEMBERS[m] is not None])
def test_term_weight_expectation(member, cfg):
    spec = catalog(*LADDER_MEMBERS[member])
    report = bound_report(spec, tuple_of("x", "x^2"), 3, cfg)
    grid = _Grid.build(spec, cfg, top=3).weights
    for tw in report.bessel_weights:
        assert tw.expectation == grid.expectation(tw.k)
        assert tw.expectation == pytest.approx(
            q_power_closed_form(member, tw.k), rel=1e-10)


class TestInvariants:
    def test_sandwich_chain(self, cfg):
        """Odd orders bound D from above, even orders from below."""
        g = tuple_of("x^2", "exp(0.3*x)")
        spec = catalog("normal")
        d = skip_report(spec, g, 1, cfg).D
        tol = 1e-6 * (1 + max(abs(eigenvalues(d))))
        for n in (1, 2, 3):
            s = skip_report(spec, g, n, cfg).S
            diff = (s - d) if n % 2 else (d - s)
            assert eigenvalues(diff)[0] >= -tol, n

    def test_bessel_monotonicity(self, cfg):
        g = tuple_of("x^2", "sin(x)")
        spec = catalog("normal")
        prev = None
        for n in (1, 2, 3, 4):
            ln = skip_report(spec, g, n, cfg).L
            if prev is not None:
                gap = ln - prev
                assert eigenvalues(gap)[0] >= -1e-10
            prev = ln

    def test_polynomial_equality_certificates(self, cfg):
        rng = np.random.default_rng(17)
        for spec in (catalog("normal"), catalog("poisson", {"lam": 2})):
            for n in (1, 2, 3):
                g = FunctionTuple([polynomial(rng.normal(size=n + 1))
                                   for _ in range(2)])
                report = skip_report(spec, g, n, cfg)
                d = report.D
                tol = 1e-6 * (1 + max(abs(eigenvalues(d))))
                assert report.A.max_abs() <= tol
                assert (d - report.L).max_abs() <= tol

    def test_scalar_reduction_p1(self, cfg):
        """1x1 verdicts match the scalar inequality computed by hand."""
        lam = 2.0
        spec = catalog("poisson", {"lam": lam})
        g = tuple_of("exp(-0.5*x)")
        var = poisson_brute(lam, lambda k: math.exp(-k)) \
            - poisson_brute(lam, lambda k: math.exp(-0.5 * k)) ** 2
        report = skip_report(spec, g, 1, cfg)
        assert report.D[0, 0] == pytest.approx(var, abs=1e-10)
        s1 = report.S[0, 0]
        h_scalar = lam * poisson_brute(
            lam, lambda k: (math.exp(-0.5 * (k + 1)) - math.exp(-0.5 * k))**2)
        assert s1 == pytest.approx(h_scalar, abs=1e-10)
        assert var <= s1 + 1e-10  # the scalar upper bound itself

    def test_random_quadratic_forms(self, cfg):
        """c^t A c >= -tol ||c||^2 for random directions (the proofs'
        reduction to scalars)."""
        rng = np.random.default_rng(23)
        spec = catalog("gamma", {"shape": 3, "scale": 1.5})
        g = tuple_of("x", "x^2", "sin(0.5*x)")
        report = bound_report(spec, g, 2, cfg)
        a = report.A.to_array()
        dl = (report.D - report.L).to_array()
        tol = report.tol
        for _ in range(100):
            c = rng.normal(size=3)
            nsq = float(c @ c)
            assert c @ a @ c >= -tol * nsq
            assert c @ dl @ c >= -tol * nsq
