"""Shared fixtures: catalog pools and hand-built family members."""

import math

import numpy as np
import pytest
from scipy import integrate

from varbounds import ContinuousIP, DiscreteCO, EngineConfig, Quadratic
from varbounds.expectation import Ladder


@pytest.fixture(scope="session")
def cfg():
    return EngineConfig()


@pytest.fixture
def ladder_builds(monkeypatch):
    """The specs of every ``Ladder.build`` call made while the test runs."""
    builds = []
    original = Ladder.build.__func__

    def counted(cls, spec, cfg):
        builds.append(spec)
        return original(cls, spec, cfg)

    monkeypatch.setattr(Ladder, "build", classmethod(counted))
    return builds


def make_heavy_member(delta=0.3, gamma=1.0):
    """Symmetric heavy-tailed member IP(0; delta, 0, gamma) with density
    proportional to (delta x^2 + gamma)^(-(1/(2 delta) + 1)); its 2n-th moment
    is finite exactly while 2n < 1 + 1/delta."""
    expo = -(1.0 / (2.0 * delta) + 1.0)
    norm = 1.0 / integrate.quad(
        lambda x: (delta * x * x + gamma) ** expo, -np.inf, np.inf)[0]

    def density(x):
        x = np.asarray(x, dtype=float)
        return norm * (delta * x * x + gamma) ** expo

    return ContinuousIP(0.0, Quadratic(delta, 0.0, gamma),
                        (-math.inf, math.inf), density, None, "heavy-tail")


@pytest.fixture(scope="session")
def heavy_member():
    return make_heavy_member()


def make_bernoulli_member(theta=0.3):
    """Two-point member on {0, 1}: q(j) = theta (1 - j), so the rising
    product q^[2] vanishes on the whole support."""
    def pmf(k):
        k = np.asarray(k, dtype=float)
        out = np.zeros(k.shape)
        out[k == 0] = 1.0 - theta
        out[k == 1] = theta
        return out

    def sampler(u):
        return (u < theta).astype(float)

    return DiscreteCO(theta, Quadratic(0.0, -theta, theta), (0.0, 1.0),
                      pmf, sampler, "two-point", {"theta": theta})


@pytest.fixture(scope="session")
def bernoulli_member():
    return make_bernoulli_member()
