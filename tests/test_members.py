"""Catalog members held per process: one immutable spec per family and
canonical parameters, which holds its grids, ladder and weight powers for
every request on it, while each request keeps its own rows."""

import dataclasses
import gc
import json
import weakref
from unittest import mock

import numpy as np
import pytest

from varbounds import (bound_report, catalog, clear_members, distributions,
                       expectation, infer_quadratic, load_distribution,
                       spec_to_json, verify_membership)
from varbounds.errors import InvalidParameterError
from varbounds.bounds import _Grid, _Weights
from varbounds.calculus import FunctionTuple, parse_function
from varbounds.expectation import Ladder, sample
from tests.conftest import ladder_only


def tuple_of(*exprs):
    return FunctionTuple([parse_function(e) for e in exprs])


def report_json(spec, g, n, cfg):
    return json.dumps(bound_report(spec, g, n, cfg).to_json_dict(),
                      sort_keys=True)


@pytest.fixture
def counted_members(monkeypatch):
    """Calls of the pmf or density of the members ``catalog`` builds while
    the test runs, by family; no member built here outlives the test."""
    calls = {}

    def counting(family, build):
        def counted_build(params):
            spec = build(params)
            field = "pmf" if spec.is_discrete else "density"
            evaluate = getattr(spec, field)

            def counted(x):
                calls[family] = calls.get(family, 0) + 1
                return evaluate(x)

            return dataclasses.replace(spec, **{field: counted})

        return counted_build

    for family, (build, names) in list(distributions._CATALOG.items()):
        monkeypatch.setitem(distributions._CATALOG, family,
                            (counting(family, build), names))
    clear_members()
    yield calls
    clear_members()


# admitted by the closed-form rule, and declined (a log factor, or twice a
# rate past half the tail rate) so that the class ladder is built
REQUESTS = [
    ("normal", {"mean": 0.2, "var": 1.1}, ("x", "exp(0.2*x)", "sin(x)")),
    ("beta", {"a": 2, "b": 3}, ("x", "log(x+1)")),
    ("poisson", {"lam": 3.3}, ("x", "x^2", "exp(0.2*x)")),
    ("negative-binomial", {"r": 3, "theta": 0.5}, ("x", "exp(0.3*x)")),
    ("hypergeometric", {"N": 40, "K": 15, "n": 9}, ("x", "sin(x)")),
]


@pytest.mark.parametrize("family,params,exprs", REQUESTS,
                         ids=[r[0] for r in REQUESTS])
def test_a_repeat_request_evaluates_no_pmf_or_density(
        cfg, counted_members, family, params, exprs):
    g = tuple_of(*exprs)
    cold = report_json(catalog(family, params), g, 3, cfg)
    assert counted_members[family] > 0
    counted_members.clear()
    # another request on the member, at another order and on another tuple
    # too, reads what the member holds
    assert report_json(catalog(family, params), g, 3, cfg) == cold
    report_json(catalog(family, params), tuple_of("x^2"), 2, cfg)
    assert counted_members == {}
    # and gives the bytes a request on a member built anew gives
    clear_members()
    assert report_json(catalog(family, params), g, 3, cfg) == cold
    assert counted_members[family] > 0


@pytest.mark.parametrize("family,params,exprs", REQUESTS,
                         ids=[r[0] for r in REQUESTS])
def test_warm_reports_match_cold_ones(cfg, family, params, exprs):
    # orders 1..4 on one member, each issued after the others: every one
    # reads grids another order or tuple made
    tuples = [tuple_of(*exprs), tuple_of("x", "x^3")]
    warm = [report_json(catalog(family, params), g, n, cfg)
            for n in (1, 2, 3, 4) for g in tuples]
    cold = []
    for n in (1, 2, 3, 4):
        for g in tuples:
            clear_members()
            cold.append(report_json(catalog(family, params), g, n, cfg))
    assert warm == cold


def test_one_spec_per_canonical_parameters():
    clear_members()
    spec = catalog("poisson", {"lam": 3})
    # an alias, a float count and a default name the same member
    assert catalog("poisson", {"rate": 3.0}) is spec
    assert catalog("normal") is catalog("normal", {"mean": 0, "var": 1})
    assert catalog("binomial", {"n": 12.0, "theta": 0.35}) is \
        catalog("binomial", {"trials": 12, "p": 0.35})
    assert catalog("poisson", {"lam": 3.5}) is not spec
    # -0.0 prints apart from 0.0, so it is another member
    assert catalog("normal", {"mean": -0.0}) is not catalog("normal")
    clear_members()
    assert catalog("poisson", {"lam": 3}) is not spec


@pytest.fixture
def counted_builds(monkeypatch):
    """Calls of each family's constructor while the test runs, by family."""
    calls = {}

    def counting(family, build):
        def counted_build(params):
            calls[family] = calls.get(family, 0) + 1
            return build(params)

        return counted_build

    for family, (build, schema) in list(distributions._CATALOG.items()):
        monkeypatch.setitem(distributions._CATALOG, family,
                            (counting(family, build), schema))
    clear_members()
    yield calls
    clear_members()


def test_a_held_member_is_returned_without_building_it(counted_builds):
    built = {"poisson": 1, "binomial": 1, "normal": 1}
    spec = catalog("poisson", {"lam": 3})
    binomial = catalog("binomial", {"n": 12, "theta": 0.35})
    normal = catalog("normal")
    assert counted_builds == built
    # an alias, a float count and a default filled in name held members,
    # which are handed out as they are
    assert catalog("poisson", {"rate": 3.0}) is spec
    assert catalog("binomial", {"trials": 12.0, "p": 0.35}) is binomial
    assert catalog("normal", {"mean": 0.0}) is normal
    assert counted_builds == built
    # parameters are still read and checked while the member is held
    for family, params, message in [
            ("poisson", {"lam": 3, "mu": 1}, "unknown poisson parameter"),
            ("poisson", {"lam": 3, "rate": 3}, "'lam' is given twice"),
            ("binomial", {"n": 12.5, "theta": 0.35}, "must be an integer"),
            ("binomial", {"theta": 0.35}, "missing parameter 'n'"),
            ("normal", {"var": "abc"}, "must be a number")]:
        with pytest.raises(InvalidParameterError, match=message):
            catalog(family, params)
    assert counted_builds == built
    # a member out of range is built, refused and never held
    for _ in range(2):
        with pytest.raises(InvalidParameterError, match="must be positive"):
            catalog("poisson", {"lam": -3})
    assert counted_builds["poisson"] == 3
    assert catalog("poisson", {"lam": 3}) is spec


def test_the_identity_reads_what_a_report_left_held(cfg):
    # verify and infer-q on a member a report used sum its support and
    # evaluate its quadrature grid no more
    clear_members()
    g = tuple_of("x", "x^2")
    members = [catalog("poisson", {"lam": 3.3}),
               catalog("gamma", {"shape": 3, "scale": 2})]
    with mock.patch.object(expectation, "truncated_support",
                           wraps=expectation.truncated_support) as summed, \
            mock.patch.object(expectation, "continuous_grid",
                              wraps=expectation.continuous_grid) as gridded:
        for spec in members:
            bound_report(spec, g, 2, cfg)
        assert summed.call_count == 1 and gridded.call_count > 0
        summed.reset_mock()
        gridded.reset_mock()
        for spec in members:
            assert verify_membership(spec, cfg).passed
            infer_quadratic(spec, cfg)
    assert (summed.call_count, gridded.call_count) == (0, 0)


def test_the_cache_holds_at_most_its_bound():
    clear_members()
    bound = distributions._MEMBERS
    first = catalog("poisson", {"lam": 1.0})
    members = [catalog("poisson", {"lam": 1.0 + i}) for i in range(1, bound)]
    assert len(distributions._members) == bound
    # a use moves a member to the back: the next new member evicts the
    # least recently used one, members[0], and not ``first``
    assert catalog("poisson", {"lam": 1.0}) is first
    catalog("poisson", {"lam": 0.5})
    assert len(distributions._members) == bound
    assert catalog("poisson", {"lam": 1.0}) is first
    assert catalog("poisson", {"lam": 2.0}) is not members[0]
    assert len(distributions._members) == bound
    clear_members()
    assert len(distributions._members) == 0


@pytest.mark.parametrize("family,params,exprs", REQUESTS,
                         ids=[r[0] for r in REQUESTS])
def test_a_member_let_go_is_freed(cfg, family, params, exprs):
    # nothing a member holds refers back to it, so it goes with its grids
    # as soon as the cache lets it go, without waiting for the collector
    clear_members()
    spec = catalog(family, params)
    bound_report(spec, tuple_of(*exprs), 3, cfg)
    assert spec._memo
    ref = weakref.ref(spec)
    del spec
    gc.disable()
    try:
        clear_members()
        assert ref() is None
    finally:
        gc.enable()


def _held_arrays(spec):
    """Every array the spec holds, with what holds it."""
    for key, value in spec._memo.items():
        if isinstance(value, tuple):
            parts = value
        elif isinstance(value, _Weights):
            parts = (value.x, value.w, value._q, value._refused)
        else:
            assert isinstance(value, Ladder), key
            parts = (value.x, value.w, value.edge)
        for a in parts:
            if isinstance(a, np.ndarray):
                yield key, a


@pytest.mark.parametrize("family,params,exprs", REQUESTS,
                         ids=[r[0] for r in REQUESTS])
def test_held_arrays_are_read_only(cfg, family, params, exprs):
    # the member, admitted or declined by the closed-form rule, and a copy
    # of it that takes the class ladder
    clear_members()
    spec = catalog(family, params)
    copy = ladder_only(spec)
    for member in (spec, copy):
        bound_report(member, tuple_of(*exprs), 3, cfg)
    held = list(_held_arrays(spec)) + list(_held_arrays(copy))
    assert {key for key, _ in held} >= {"ladder"}
    for key, a in held:
        assert not a.flags.writeable, key
        with pytest.raises(ValueError):
            a[...] = 0.0


def test_a_copy_or_custom_member_reads_only_its_own_grids(cfg):
    clear_members()
    g = tuple_of("x", "x^2")
    spec = catalog("poisson", {"lam": 3})
    bound_report(spec, g, 2, cfg)
    held = _Grid.build(spec, cfg, top=2).weights
    # a copy holds nothing until its own requests build it
    for copy in (ladder_only(spec), dataclasses.replace(spec)):
        assert copy._memo == {}
        assert _Grid.build(copy, cfg, top=2).weights is not held
    # a copy with another pmf gives the report of the member whose pmf it
    # has, not the grids of the one it was copied from
    other = catalog("poisson", {"lam": 5})
    mixed = dataclasses.replace(spec, pmf=other.pmf, mean=other.mean,
                                q=other.q, tails=other.tails)
    assert report_json(mixed, g, 2, cfg) == report_json(other, g, 2, cfg)
    # and samples the pmf it has
    np.testing.assert_array_equal(sample(mixed, cfg), sample(other, cfg))
    normal, wide = catalog("normal"), catalog("normal", {"var": 4})
    bound_report(normal, g, 2, cfg)
    mixed = dataclasses.replace(normal, density=wide.density, q=wide.q,
                                tails=wide.tails)
    assert report_json(mixed, g, 2, cfg) == report_json(wide, g, 2, cfg)
    # two custom documents are two members, each with its own grids
    doc = {"custom": {"kind": "discrete", "mean": 0.3,
                      "quadratic": [0.0, -0.3, 0.3], "support": [0, 1],
                      "pmf_table": [[0, 0.7], [1, 0.3]]}}
    first = load_distribution(doc)
    bound_report(first, tuple_of("x"), 1, cfg)
    doc["custom"].update(mean=0.4, quadratic=[0.0, -0.4, 0.4],
                         pmf_table=[[0, 0.6], [1, 0.4]])
    second = load_distribution(doc)
    assert second._memo == {}
    got = bound_report(second, tuple_of("x"), 1, cfg)
    assert got.D.to_array()[0, 0] == pytest.approx(0.24, rel=1e-12)


def test_rows_of_two_tuples_on_one_member_never_mix(cfg):
    member = ("negative-binomial", {"r": 3, "theta": 0.5})
    want = {}
    for exprs in (("x", "x^2"), ("sin(x)", "exp(0.1*x)")):
        clear_members()
        want[exprs] = report_json(catalog(*member), tuple_of(*exprs), 2, cfg)
    spec = catalog(*member)
    # each tuple is dropped before the next is parsed, so a new table may
    # take an old one's id, which the rows are keyed by
    for _ in range(3):
        for exprs in want:
            assert report_json(spec, tuple_of(*exprs), 2, cfg) == want[exprs]
            gc.collect()
    # the member's weights are shared, the rows are the request's own: on
    # the weights they would keep every tuple issued on the member
    first, second = (_Grid.build(spec, cfg, top=2) for _ in range(2))
    assert first.weights is second.weights and first is not second
    rows = first.rows(tuple_of("x", "x^2"))
    assert second._rows == {}
    assert not any(hasattr(w, "_rows") for w in spec._memo.values())
    np.testing.assert_array_equal(
        second.rows(tuple_of("x", "x^2")), rows)


def test_a_member_is_not_changed_through_what_it_hands_out(cfg):
    clear_members()
    spec = catalog("poisson", {"lam": 3})
    g = tuple_of("x", "exp(0.2*x)")
    before = report_json(spec, g, 2, cfg)
    with pytest.raises(TypeError):
        spec.params["lam"] = 5.0
    doc = spec_to_json(spec)
    doc["params"]["lam"] = 5.0
    doc["quadratic"][2] = 5.0
    assert catalog("poisson", {"lam": 3}) is spec
    assert spec.params == {"lam": 3.0}
    assert spec_to_json(spec)["params"] == {"lam": 3.0}
    assert report_json(catalog("poisson", {"lam": 3}), g, 2, cfg) == before
    # a tabulated member's document is copied too
    custom = load_distribution({"custom": {
        "kind": "discrete", "mean": 0.3, "quadratic": [0.0, -0.3, 0.3],
        "support": [0, 1], "pmf_table": [[0, 0.7], [1, 0.3]]}})
    spec_to_json(custom)["custom"]["pmf_table"][0][1] = 0.5
    assert custom.custom["pmf_table"][0] == [0, 0.7]
