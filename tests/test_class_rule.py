"""The closed-form class rule (``bounds._closed_form``) against the
stabilization ladder it spares.

A request the rule admits skips the ladder; it must get, bit for bit, the
reports (or the error) the ladder path gives.  The ladder path is the same
request with the rule bypassed (``ladder_reports``).  Inputs the rule does
not admit take the ladder unchanged, and so do ``check_class`` and
``moment_finiteness``.
"""

import json
import math
import random
from unittest import mock

import numpy as np
import pytest

from varbounds import (DiscreteCO, FunctionTuple, Quadratic, bound_report,
                       bound_reports, bounds, catalog, check_class,
                       clear_members, parse_function)
from varbounds.cli import EXIT_IO, _parse_dist, main
from varbounds.distributions import load_distribution
from varbounds.errors import (ClassMembershipError, TruncationError,
                              VarboundsError)
from tests.conftest import ladder_only
from tests.test_assembly_reference import HARD_MEMBERS


def tuple_of(*exprs):
    return FunctionTuple([parse_function(e) for e in exprs])


def admitted(spec, g, top, cfg=None):
    return bounds._closed_form(spec, g, cfg, top) is not None


def ladder_reports(*args, **kwargs):
    """``bound_reports`` with the closed-form rule bypassed."""
    with mock.patch.object(bounds, "_closed_form", lambda *_: None):
        return bound_reports(*args, **kwargs)


def outcome(run, *args, **kwargs):
    """The JSON documents of the reports, or the error, of one request."""
    try:
        return [r.to_json_dict() for r in run(*args, **kwargs)]
    except (VarboundsError, ValueError) as err:
        return (type(err), str(err))


# ---------------------------------------------------------------------------
# seeded sweep
# ---------------------------------------------------------------------------

def _member(rng, family):
    """A member of ``family`` with parameters over wide, extreme ranges,
    and its tail rate toward +inf (inf where none binds)."""
    u = rng.uniform

    def lu(lo, hi):
        return math.exp(u(math.log(lo), math.log(hi)))

    if family == "normal":
        params = {"mean": u(-60, 60) if rng.random() < 0.3 else u(-3, 3),
                  "var": lu(1e-3, 400)}
    elif family == "gamma":
        params = {"shape": lu(0.2, 80), "scale": lu(0.05, 20)}
    elif family == "beta":
        params = {"a": lu(0.2, 50), "b": lu(0.2, 50)}
    elif family == "poisson":
        params = {"lam": lu(0.05, 600)}
    elif family == "binomial":
        params = {"n": rng.randint(1, 400), "theta": u(0.005, 0.995)}
    elif family == "negative-binomial":
        params = {"r": lu(0.2, 50), "theta": u(0.05, 0.95)}
    else:
        # one-point members too: a population of 1, K = 0 or K = N
        pop = rng.choice((1, 2, rng.randint(3, 300)))
        params = {"N": pop, "K": rng.choice((0, pop, rng.randint(0, pop))),
                  "n": rng.randint(1, pop)}
    spec = catalog(family, params)
    return spec, spec.tails.hi


def _function(rng, rate):
    """A grammar string of one to three terms whose exponential rates reach
    up to ``rate`` (either sign)."""
    def r():
        return f"{rng.choice((-1, 1)) * rng.uniform(0, rate):.4g}"

    def f():
        return f"{rng.uniform(0.2, 3):.3g}"

    pieces = [
        lambda: rng.choice(("x", "x^2", "x^3", "1", "x^5")),
        lambda: f"exp({r()}*x)",
        lambda: f"exp({r()}*x + {rng.uniform(-2, 2):.3g})",
        lambda: f"sin({f()}*x)",
        lambda: f"cos({f()}*x - 1)",
        lambda: f"x*exp({r()}*x)",
        lambda: f"x^2*cos({f()}*x)",
        lambda: f"exp({r()}*x)*sin({f()}*x)",
        lambda: f"{rng.choice(('3.5', '-0.25', '1e3', '2e-3'))}*x^2",
    ]
    return " + ".join(rng.choice(pieces)() for _ in range(rng.randint(1, 3)))


FAMILIES = ("normal", "gamma", "beta", "poisson", "binomial",
            "negative-binomial", "hypergeometric")


def sweep_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        spec, tail = _member(rng, rng.choice(FAMILIES))
        # rates up to a little past the margin on a binding tail rate, and
        # up to 3 where none binds
        cap = min(3.0, 1.05 * bounds.EXACT_RATE_SHARE * tail / 2)
        exprs = [_function(rng, cap) for _ in range(rng.randint(1, 3))]
        top = rng.randint(1, 8)
        orders = sorted(rng.sample(range(1, top + 1),
                                   rng.randint(1, min(3, top))))
        if orders[-1] != top:
            orders.append(top)
        yield (spec, exprs, orders,
               rng.choice(("raise", "raise", "drop", "skip")))


def test_admitted_requests_match_the_ladder():
    admissions = 0
    for spec, exprs, orders, policy in sweep_cases(20261019, 1600):
        g = tuple_of(*exprs)
        if not admitted(spec, g, max(orders)):
            continue
        admissions += 1
        args = (spec, g, orders)
        assert outcome(bound_reports, *args, class_policy=policy) == \
            outcome(ladder_reports, *args, class_policy=policy), \
            (spec, exprs, orders, policy)
    assert admissions >= 500


# ---------------------------------------------------------------------------
# the grid-health gate
# ---------------------------------------------------------------------------

# the three tuple shapes of the benchmark's catalog sweep, as (rate, tuple)
# at the exponential rates 0.15 and 0.35
SWEEP_SHAPES = [(0.0, ("x", "x^2", "x^3"))] + [
    (rate, shape) for rate in (0.15, 0.35) for shape in (
        ("x^2", f"exp({rate}*x)", "sin(0.9*x)"),
        ("x", f"exp({rate}*x)", "sin(0.9*x)", "x*cos(1.1*x)"))]


@pytest.mark.parametrize("member", HARD_MEMBERS)
def test_hard_members_match_the_ladder(member):
    spec = _parse_dist(member)
    for _, exprs in SWEEP_SHAPES:
        args = (spec, tuple_of(*exprs), [1, 2, 3])
        assert outcome(bound_reports, *args) == \
            outcome(ladder_reports, *args), (member, exprs)


@pytest.mark.parametrize("member", [
    "gamma:shape=40", "gamma:shape=0.4", "beta:a=0.3,b=4",
    "normal:mean=5,var=100"])
def test_grids_that_keep_their_mass_are_admitted(member):
    # these grids miss the member's mass, variance or tilted log-MGF by up
    # to 1.4e-3, which a gate certifying accuracy to 1e-9 declined
    spec = _parse_dist(member)
    for rate, exprs in SWEEP_SHAPES:
        g = tuple_of(*exprs)
        assert admitted(spec, g, 3) == \
            (2 * rate <= bounds.EXACT_RATE_SHARE * spec.tails.hi)
        with mock.patch.object(bounds, "GRID_HEALTH_TOL", 1e-9):
            assert not admitted(spec, g, 3)


@pytest.mark.parametrize("family,params,expr", [
    # every node of a normal this narrow this far from 0 underflows
    ("normal", {"mean": -23.46, "var": 0.00143}, "x"),
    ("normal", {"mean": -44.2, "var": 0.0031}, "x^2 + sin(x)"),
    # exp(5.6 x) overflows on the summation grid
    ("poisson", {"lam": 0.3}, "exp(2.8*x)"),
])
def test_degenerate_grids_are_declined(cfg, family, params, expr):
    spec, g = catalog(family, params), tuple_of(expr)
    assert not admitted(spec, g, 2, cfg)
    for policy in ("raise", "skip"):
        got = outcome(bound_reports, spec, g, [1, 2], class_policy=policy)
        assert got == outcome(ladder_reports, spec, g, [1, 2],
                              class_policy=policy)


def test_a_ladder_with_no_node_raises(cfg, tmp_path):
    spec, g = catalog("normal", {"mean": -23.46, "var": 0.00143}), \
        tuple_of("x")
    message = "underflows at every node"
    for run in (bound_reports, ladder_reports):
        with pytest.raises(TruncationError, match=message):
            run(spec, g, [1], cfg)
    with pytest.raises(TruncationError, match=message):
        check_class(spec, g, 1, "H", cfg)
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"functions": [{"expr": "x"}]}))
    assert main(["bounds", "--dist", "normal:mean=-23.46,var=0.00143",
                 "--functions", str(path), "--n", "1"]) == EXIT_IO


# ---------------------------------------------------------------------------
# what the rule leaves to the ladder
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,params,expr", [
    # in the class but near its edge, where the ladder refuses them; the
    # margin keeps them on the ladder until the grids can resolve them
    ("gamma", {"shape": 2, "scale": 1}, "exp(0.49*x)"),
    ("gamma", {"shape": 2, "scale": 1}, "exp(0.499*x)"),
    ("negative-binomial", {"r": 3, "theta": 0.5}, "exp(0.34*x)"),
    ("negative-binomial", {"r": 3, "theta": 0.5}, "exp(0.345*x)"),
    # at and past the edge: outside the class
    ("gamma", {"shape": 2, "scale": 1}, "exp(0.5*x)"),
    ("gamma", {"shape": 2, "scale": 1}, "exp(0.501*x)"),
])
def test_edge_inputs_stay_refused(cfg, family, params, expr):
    spec, g = catalog(family, params), tuple_of(expr)
    assert not admitted(spec, g, 1)
    with pytest.raises(ClassMembershipError, match="class H check failed"):
        bound_report(spec, g, 1, cfg)


def test_rates_within_the_margin_are_admitted(cfg):
    gamma = catalog("gamma", {"shape": 2, "scale": 1})
    assert admitted(gamma, tuple_of("exp(0.25*x)", "x*exp(0.2*x)"), 3)
    assert not admitted(gamma, tuple_of("exp(0.2501*x)"), 3)
    # a rate toward -inf is free on gamma's finite lower end
    assert admitted(gamma, tuple_of("exp(-40*x)"), 3)
    negbin = catalog("negative-binomial", {"r": 3, "theta": 0.5})
    assert admitted(negbin, tuple_of("exp(0.17*x)"), 3)
    assert not admitted(negbin, tuple_of("exp(0.18*x)"), 3)


def _custom_table():
    xs = np.linspace(0.0, 1.0, 201)
    return load_distribution({"custom": {
        "kind": "continuous", "mean": 0.4, "quadratic": [-0.2, 0.2, 0.0],
        "support": [0, 1],
        "density_table": [[x, 12.0 * x * (1 - x) ** 2] for x in xs]}})


@pytest.mark.parametrize("make,g", [
    (_custom_table, tuple_of("x", "x^2")),
    (lambda: load_distribution({"custom": {
        "kind": "discrete", "mean": 0.3, "quadratic": [0.0, -0.3, 0.3],
        "support": [0, 1], "pmf_table": [[0, 0.7], [1, 0.3]]}}),
     tuple_of("x")),
    (lambda: ladder_only(catalog("normal")), tuple_of("x", "x^2")),
    (lambda: ladder_only(catalog("poisson", {"lam": 3})),
     tuple_of("x", "x^2")),
    (lambda: catalog("poisson", {"lam": 3}), FunctionTuple([lambda x: x])),
    (lambda: catalog("beta", {"a": 2, "b": 3}), tuple_of("x", "log(x+1)")),
    (lambda: catalog("gamma", {"shape": 2}), tuple_of("x*log(x+2)")),
], ids=["custom-table", "custom-pmf", "hand-built-normal",
        "hand-built-poisson", "bare-callable", "log-term", "log-product"])
def test_other_inputs_take_the_ladder(cfg, ladder_builds, make, g):
    # one ladder per member: built by the first request on a member that
    # holds nothing yet, and held for the repeat
    clear_members()
    spec = make()
    assert not admitted(spec, g, 2, cfg)
    for _ in range(2):
        bound_reports(spec, g, [1, 2], cfg)
        assert len(ladder_builds) == 1


def test_check_class_and_moment_finiteness_stay_on_the_ladder(
        cfg, ladder_builds):
    clear_members()
    spec, g = catalog("normal"), tuple_of("x", "exp(0.3*x)")
    assert admitted(spec, g, 2)
    report = check_class(spec, g, 2, "H", cfg)
    # the ladder's own judgement: finite, each by its decay ratio
    assert report.ok and report.implies_other
    assert all(isinstance(r, float) for row in report.ratios for r in row)
    assert bounds.moment_finiteness(spec, 3, cfg)
    # both read the one ladder the member holds
    assert len(ladder_builds) == 1


def test_admitted_request_builds_no_ladder(cfg, ladder_builds):
    g = tuple_of("x", "x^2", "exp(0.2*x)", "sin(0.9*x)", "x*cos(0.8*x)")
    for family, params in [("normal", {"mean": 0.2, "var": 1.1}),
                           ("beta", {"a": 2, "b": 3}),
                           ("poisson", {"lam": 3}),
                           ("binomial", {"n": 12, "theta": 0.35})]:
        spec = catalog(family, params)
        assert admitted(spec, g, 2)
        bound_report(spec, g, 2, cfg)
    assert ladder_builds == []


def test_admitted_request_builds_no_class_check(cfg):
    spec, g = catalog("poisson", {"lam": 3}), tuple_of("x", "exp(0.2*x)")
    assert admitted(spec, g, 2)
    with mock.patch.object(bounds, "_ClassCheck",
                           side_effect=AssertionError("class check built")):
        for policy in ("raise", "drop", "skip"):
            bound_reports(spec, g, [1, 2], cfg, class_policy=policy)


@pytest.mark.parametrize("member,g,policy", [
    (("poisson", {"lam": 3}), tuple_of("x", "exp(0.2*x)"), "raise"),
    (("negative-binomial", {"r": 3, "theta": 0.5}),
     tuple_of("exp(0.3*x)"), "raise"),
    (("poisson", {"lam": 3}), FunctionTuple([lambda x: x]), "raise"),
    (("binomial", {"n": 12, "theta": 0.35}), tuple_of("x", "x^2"), "skip"),
], ids=["admitted", "declined-rate", "declined-callable", "skip"])
def test_discrete_support_is_summed_once(cfg, member, g, policy):
    # once per member: the admitted request's assembly reads the rule's
    # grid, a declined one's its class ladder's nodes, and both read the
    # support the member holds, which a repeat request sums no more
    clear_members()
    with mock.patch.object(bounds.ex, "truncated_support",
                           wraps=bounds.ex.truncated_support) as summed:
        for _ in range(2):
            bound_reports(catalog(*member), g, [1, 2], cfg,
                          class_policy=policy)
            assert summed.call_count == 1


@pytest.mark.parametrize("policy", ["raise", "skip"])
def test_moment_gate_comes_before_any_grid(cfg, policy):
    # pmf 6 / (pi^2 (k + 1)^2) decays too slowly for its summation to
    # reach underflow; with delta = 0.6, E|X|^4 is infinite, and the gate
    # refuses order 2 before a grid or a ladder is built
    def pmf(k):
        k = np.asarray(k, dtype=float)
        return np.where(k >= 0, 6.0 / (math.pi * (k + 1.0)) ** 2, 0.0)

    spec = DiscreteCO(1.0, Quadratic(0.6, 0.0, 1.0), (0.0, math.inf), pmf)
    with mock.patch.object(bounds.ex, "truncated_support",
                           side_effect=AssertionError("support summed")):
        with pytest.raises(ClassMembershipError,
                           match=r"E\|X\|\^4 is not finite"):
            bound_reports(spec, tuple_of("x"), [2], cfg, class_policy=policy)


@pytest.mark.parametrize("params,orders,null", [
    ({"N": 15, "K": 7, "n": 11}, [1, 2, 3, 6], [5, 6]),
    ({"N": 51, "K": 23, "n": 3}, [1, 4], [4]),
])
def test_roundoff_weights_are_null_terms(cfg, params, orders, null):
    # q vanishes at the end of these hypergeometric supports, so the rising
    # product q^[k] is 0 on the whole support from some k on, up to
    # roundoff of either sign: a null term, not a negative weight
    spec, g = catalog("hypergeometric", params), tuple_of("x", "x^2")
    assert admitted(spec, g, max(orders))
    got = outcome(bound_reports, spec, g, orders)
    assert got == outcome(ladder_reports, spec, g, orders)
    assert [r["provenance"]["null_terms"] for r in got][-1] == null * 2


def test_negative_weight_is_refused(cfg):
    # q(j) = 5.5 - j on the support 0..9: q^[1] is negative from j = 6 on
    def pmf(k):
        k = np.asarray(k, dtype=float)
        return np.where((k >= 0) & (k <= 9), 0.1, 0.0)

    spec = DiscreteCO(4.5, Quadratic(0.0, -1.0, 5.5), (0.0, 9.0), pmf)
    with pytest.raises(ClassMembershipError,
                       match="weight of order 1 is negative"):
        bound_report(spec, tuple_of("x"), 1, cfg)


@pytest.mark.parametrize("family,params", [
    ("binomial", {"n": 10, "theta": 0.5}), ("poisson", {"lam": 3}),
    ("hypergeometric", {"N": 40, "K": 20, "n": 10})])
def test_overflowing_function_is_dropped(cfg, family, params):
    # exp(80 x) squared overflows on these supports: a divergent row on a
    # finite support's one rung too, so 'drop' certifies x alone
    spec, g = catalog(family, params), tuple_of("x", "exp(80*x)")
    assert not admitted(spec, g, 1)
    report = bound_report(spec, g, 1, cfg, class_policy="drop")
    assert report.provenance["dropped_functions"] == [1]
    assert report.passed


def log_mgf_by_sum(spec, t):
    """log E[e^(tX)] summed over the pmf, in logs, or integrated."""
    from scipy import integrate
    if spec.is_discrete:
        k = np.arange(0, 3000.0)
        pm = spec.pmf(k)
        terms = np.log(pm[pm > 0]) + t * k[pm > 0]
        top = terms.max()
        return float(top + np.log(np.sum(np.exp(terms - top))))

    def tilted(x):
        with np.errstate(divide="ignore"):
            return math.exp(t * x + np.log(spec.density(np.array([x])))[0])

    # the tilted density peaks at the tilted mean; split the support there
    peak = spec.mean + t * spec.q(spec.mean)
    return math.log(sum(integrate.quad(tilted, lo, hi, limit=200,
                                       epsabs=0.0, epsrel=1e-12)[0]
                        for lo, hi in ((spec.support[0], peak),
                                       (peak, spec.support[1]))))


@pytest.mark.parametrize("family,params,ts", [
    ("normal", {"mean": -1.5, "var": 2.5}, (-3.0, 0.7, 4.0)),
    ("gamma", {"shape": 2.5, "scale": 1.5}, (-2.0, 0.3, 0.5)),
    ("poisson", {"lam": 4.0}, (-1.0, 0.5, 2.0)),
    ("negative-binomial", {"r": 3.0, "theta": 0.4}, (-1.0, 0.1, 0.25)),
])
def test_log_mgf_is_the_member_s(family, params, ts):
    spec = catalog(family, params)
    for t in ts:
        assert spec.tails.lo < t < spec.tails.hi
        want = log_mgf_by_sum(spec, t)
        assert float(spec.tails.log_mgf(t)) == pytest.approx(want, rel=1e-9,
                                                             abs=1e-12)
    for family, params in [("beta", {"a": 2, "b": 3}),
                           ("binomial", {"n": 4, "theta": 0.3}),
                           ("hypergeometric", {"N": 9, "K": 4, "n": 3})]:
        assert catalog(family, params).tails.log_mgf is None
