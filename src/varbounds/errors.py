"""Exception types shared across the package, and the JSON object reader
that refuses a repeated key."""


class VarboundsError(Exception):
    """Base class for package-specific failures."""


class UnknownDistributionError(VarboundsError):
    pass


class InvalidParameterError(VarboundsError):
    pass


class RankDeficientFitError(VarboundsError):
    """Quadratic inference design matrix has rank below 3."""


class NonFiniteIntegrandError(VarboundsError):
    def __init__(self, node, value):
        self.node = node
        self.value = value
        super().__init__(f"non-finite integrand value {value} at node {node}")


class TruncationError(VarboundsError):
    """Truncated summation cannot reach the mass tolerance."""


class NoSamplerError(VarboundsError):
    """Monte Carlo path requested but the spec carries no sampler."""


class SingularCoefficientError(VarboundsError):
    """A factor (1 - j*delta) of a bound coefficient vanishes; the bound of
    this order is undefined for the family."""

    def __init__(self, k, j, delta):
        self.k = k
        self.j = j
        self.delta = delta
        super().__init__(
            f"coefficient of order k={k} is singular: factor (1 - {j}*delta) "
            f"vanishes for delta={delta}")


class ClassMembershipError(VarboundsError):
    """A test function fails the finiteness conditions of its class."""

    def __init__(self, message, failures=()):
        self.failures = tuple(failures)
        super().__init__(message)


def unique_keys(pairs):
    """``object_pairs_hook`` of every JSON document the package reads: the
    object as a dict, with ``InvalidParameterError`` on a repeated key,
    which plain ``json`` would read as its last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise InvalidParameterError(
                f"key {key!r} is repeated in a JSON object")
        out[key] = value
    return out
