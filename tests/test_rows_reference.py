"""The one-pass row and weight stacks against the per-order evaluator they
replaced (``tests/rows_reference.py``), bit for bit.

On seeded random tuples (products, log factors, constants, polynomials whose
high derivatives vanish, and on discrete members bare callables) and orders
up to 12, ``_Grid.rows`` and ``_Grid.powers`` must give the float bits the
per-order loop gives, on quadrature grids, discrete support grids and Monte
Carlo sample blocks of both kinds.  On discrete grids the rows are also the
forward differences ``forward_difference`` takes and the weights the rising
products ``rising_q`` forms.
"""

import numpy as np
import pytest

from varbounds import (FunctionTuple, catalog, forward_difference,
                       parse_function, rising_q)
from varbounds.bounds import _Grid
from varbounds.expectation import BLOCK, EngineConfig, sample
from tests.rows_reference import reference_powers, reference_rows
from tests.test_calculus import random_expression

CONTINUOUS = [("normal", {"mean": 0.3, "var": 1.7}), ("gamma", {"shape": 2.5}),
              ("beta", {"a": 2.0, "b": 3.0})]
DISCRETE = [("poisson", {"lam": 3.5}), ("binomial", {"n": 14, "theta": 0.4}),
            ("negative-binomial", {"r": 3.0, "theta": 0.5})]
# every derivative of these vanishes from some order on
VANISHING = ("0", "3.5", "x", "x^2 - 4", "2*x^3 - x")
CALLABLES = (np.sin, np.sqrt, lambda x: x ** 2 - 3 * x, lambda x: -0.0 * x)


def _tuple(rng, discrete):
    """Two to five entries: random grammar strings, one whose derivatives
    vanish and, on a discrete member, a bare callable."""
    entries = [parse_function(random_expression(rng))
               for _ in range(rng.integers(1, 4))]
    entries.append(parse_function(str(rng.choice(VANISHING))))
    if discrete:
        entries.append(CALLABLES[rng.integers(len(CALLABLES))])
    order = rng.permutation(len(entries))
    return FunctionTuple([entries[i] for i in order])


def _same_bits(got, want, what):
    assert got.shape == want.shape, what
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64),
                                  err_msg=what)


def _check(grid, g, what):
    with np.errstate(all="ignore"):  # log outside its domain is nan on both
        _same_bits(grid.rows(g), reference_rows(grid, g), what)
        _same_bits(grid.powers(), reference_powers(grid), what)


@pytest.mark.parametrize("member", CONTINUOUS + DISCRETE,
                         ids=lambda m: m[0])
def test_grids_match_the_per_order_loop(member):
    cfg, spec = EngineConfig(), catalog(*member)
    rng = np.random.default_rng(24)
    for trial in range(12):
        top = int(rng.integers(0, 13))
        g = _tuple(rng, spec.is_discrete)
        for grid in (_Grid.build(spec, cfg, top=top),
                     _Grid.build(spec, cfg, cfg.quad_nodes // 2, top=top)):
            _check(grid, g, f"{member}, top {top}, trial {trial}")


@pytest.mark.parametrize("member", CONTINUOUS[:1] + DISCRETE[:1],
                         ids=lambda m: m[0])
def test_sample_blocks_match_the_per_order_loop(member):
    spec = catalog(*member)
    cfg = EngineConfig().override(mc_samples=2 * BLOCK + 37)
    xs = sample(spec, cfg)
    rng = np.random.default_rng(12)
    for top in (0, 3, 12):
        g = _tuple(rng, spec.is_discrete)
        for grid in _Grid.from_samples(spec, xs, top):
            _check(grid, g, f"{member}, top {top}")


@pytest.mark.parametrize("member", DISCRETE, ids=lambda m: m[0])
def test_discrete_stacks_are_differences_and_rising_products(member):
    cfg, spec = EngineConfig(), catalog(*member)
    g = FunctionTuple([parse_function("x*exp(0.3*x)"),
                       parse_function("x^3 - 2*x"), np.cos])
    grid = _Grid.build(spec, cfg, top=12)
    rows, powers = grid.rows(g), grid.powers()
    for k in range(13):
        _same_bits(powers[k], np.broadcast_to(rising_q(spec.q, k, grid.x),
                                              grid.x.shape), f"q^[{k}]")
        for gi, row in zip(g, rows[k]):
            _same_bits(row, forward_difference(gi, k, grid.x),
                       f"{gi}, k={k}")
