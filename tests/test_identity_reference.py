"""The batched integrator of the membership identity against the
point-by-point one it replaced (``tests/identity_reference.py``), bit for
bit, and the density calls it makes.

On catalog members with endpoint singularities (gamma and beta shapes
below 1), far from 0 (normal(5, 100), gamma(40)), a heavy-tailed member, a
tabulated density and a non-member mixture, ``_cumulative_lhs`` must give
the float bits of the former integrator at the mass quantiles
``infer_quadratic`` uses, for the default node count and two others.
"""

import math

import numpy as np
import pytest

from varbounds import (ContinuousIP, EngineConfig, catalog, infer_quadratic,
                       load_distribution)
from varbounds import distributions
from varbounds.errors import RankDeficientFitError
from tests.conftest import make_heavy_member
from tests.identity_reference import reference_cumulative_lhs

_NORM = 1.0 / math.sqrt(2.0 * math.pi)


def _mixture_density(x):
    # the two-bump mixture of demos/02_quadratic_inference.py
    x = np.asarray(x, dtype=float)
    return 0.5 * _NORM * (np.exp(-0.5 * (x - 3.0) ** 2)
                          + np.exp(-0.5 * (x + 3.0) ** 2))


def _table_member():
    xs = np.linspace(1e-7, 1 - 1e-7, 6001)
    return load_distribution({"custom": {
        "kind": "continuous", "mean": 0.4, "quadratic": None,
        "support": [0, 1],
        "density_table": [[float(x), float(12.0 * x * (1 - x) ** 2)]
                          for x in xs]}})


MEMBERS = {
    "normal(0, 1)": lambda: catalog("normal", {}),
    "normal(5, 100)": lambda: catalog("normal", {"mean": 5, "var": 100}),
    "gamma(0.4)": lambda: catalog("gamma", {"shape": 0.4}),
    "gamma(3, 2)": lambda: catalog("gamma", {"shape": 3, "scale": 2}),
    "gamma(40)": lambda: catalog("gamma", {"shape": 40}),
    "beta(0.3, 4)": lambda: catalog("beta", {"a": 0.3, "b": 4}),
    "beta(2, 3)": lambda: catalog("beta", {"a": 2, "b": 3}),
    "beta(0.5, 0.5)": lambda: catalog("beta", {"a": 0.5, "b": 0.5}),
    "beta(5, 1)": lambda: catalog("beta", {"a": 5, "b": 1}),
    "heavy tail": make_heavy_member,
    "density table": _table_member,
    "two-bump mixture": lambda: ContinuousIP(
        0.0, None, (-math.inf, math.inf), _mixture_density, None, "mixture"),
}


@pytest.mark.parametrize("nodes", [200, 64, 400])
@pytest.mark.parametrize("name", list(MEMBERS))
def test_cumulative_side_matches_the_former_integrator(name, nodes):
    spec = MEMBERS[name]()
    pts, _ = distributions._mass_quantile_grid(
        spec, EngineConfig(quad_nodes=nodes))
    got = distributions._cumulative_lhs(spec, pts)
    want = reference_cumulative_lhs(spec, pts)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


@pytest.mark.parametrize("name", ["normal(0, 1)", "gamma(0.4)",
                                  "beta(0.5, 0.5)", "beta(5, 1)",
                                  "density table"])
@pytest.mark.parametrize("count", [1, 2, 33])
def test_one_density_call_per_kind_of_segment(name, count):
    # the lower shells, the sliver, the upper shells on a finite support,
    # or the semi-infinite map and the steps between points: at most 4
    spec = MEMBERS[name]()
    pts, _ = distributions._mass_quantile_grid(spec, EngineConfig())
    pts = pts[np.linspace(0, pts.size - 1, count).astype(int)]
    calls = []

    def density(x):
        calls.append(np.shape(x))
        return spec.density(x)

    counted = ContinuousIP(spec.mean, spec.q, spec.support, density)
    lhs = distributions._cumulative_lhs(counted, pts)
    assert lhs.shape == pts.shape
    assert 1 <= len(calls) <= 4


def test_no_point_above_the_floor_is_a_rank_deficient_fit():
    # a density that is nan everywhere leaves no point above the floor
    spec = ContinuousIP(0.0, None, (-math.inf, math.inf),
                        lambda x: np.full(np.shape(x), np.nan))
    assert distributions._cumulative_lhs(spec, np.zeros(0)).shape == (0,)
    with pytest.raises(RankDeficientFitError):
        infer_quadratic(spec)
