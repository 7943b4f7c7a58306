"""Small dense symmetric-matrix kernel: packed storage, eigenvalues,
positive-semidefinite and Loewner-order predicates.

Eigenvalues come from LAPACK through ``numpy.linalg.eigvalsh``.  The verdict
tolerance is absolute (it scales with the spectral radius of D), so a solver
with high relative accuracy for tiny eigenvalues would gain nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ORDER = 64
ASYMMETRY_TOL = 1e-10


class SymMatrix:
    """Immutable symmetric matrix stored as a packed upper triangle."""

    __slots__ = ("order", "_upper")

    def __init__(self, order: int, upper: np.ndarray):
        upper = np.asarray(upper, dtype=float)
        if order < 1 or order > MAX_ORDER:
            raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
        if upper.shape != (order * (order + 1) // 2,):
            raise ValueError("packed upper triangle has wrong length")
        if not np.all(np.isfinite(upper)):
            raise ValueError("matrix entries must be finite")
        upper = upper.copy()
        upper.setflags(write=False)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_upper", upper)

    def __setattr__(self, name, value):
        raise AttributeError("SymMatrix is immutable")

    @classmethod
    def from_array(cls, a) -> "SymMatrix":
        """Build from a 2-D array; asymmetry beyond the internal tolerance is
        treated as a bug in the caller, not noise to be averaged away."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square 2-D array")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        scale = 1.0 + np.max(np.abs(a)) if a.size else 1.0
        if np.max(np.abs(a - a.T)) > ASYMMETRY_TOL * scale:
            raise ValueError("input array is not symmetric within tolerance")
        sym = 0.5 * (a + a.T)
        iu = np.triu_indices(sym.shape[0])
        return cls(sym.shape[0], sym[iu])

    def to_array(self) -> np.ndarray:
        p = self.order
        a = np.zeros((p, p))
        iu = np.triu_indices(p)
        a[iu] = self._upper
        a = a + np.triu(a, 1).T
        return a

    def __getitem__(self, ij):
        i, j = ij
        if i > j:
            i, j = j, i
        p = self.order
        return float(self._upper[i * p - i * (i - 1) // 2 + (j - i)])

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        self._check_same_order(other)
        return SymMatrix(self.order, self._upper + other._upper)

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        self._check_same_order(other)
        return SymMatrix(self.order, self._upper - other._upper)

    def __mul__(self, scalar: float) -> "SymMatrix":
        return SymMatrix(self.order, self._upper * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"SymMatrix({self.to_array().tolist()})"

    def _check_same_order(self, other):
        if not isinstance(other, SymMatrix):
            raise TypeError("expected a SymMatrix")
        if other.order != self.order:
            raise ValueError(
                f"dimension mismatch: {self.order} vs {other.order}")

    @classmethod
    def zeros(cls, order: int) -> "SymMatrix":
        return cls(order, np.zeros(order * (order + 1) // 2))

    def quadratic_form(self, c) -> float:
        c = np.asarray(c, dtype=float)
        return float(c @ self.to_array() @ c)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._upper)))

    def trace(self) -> float:
        p = self.order
        idx = np.array([i * p - i * (i - 1) // 2 for i in range(p)])
        return float(self._upper[idx].sum())


def eigenvalues(m: SymMatrix) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending (LAPACK ``syevd`` through
    ``numpy.linalg.eigvalsh``)."""
    return np.linalg.eigvalsh(m.to_array())


@dataclass(frozen=True)
class PsdVerdict:
    ok: bool
    min_eigenvalue: float
    tol: float

    def __bool__(self):
        return self.ok


def is_psd(m: SymMatrix, tol: float) -> PsdVerdict:
    """Nonnegative-definiteness up to ``tol``: min eigenvalue >= -tol."""
    min_eig = float(eigenvalues(m)[0])
    return PsdVerdict(min_eig >= -tol, min_eig, tol)


def loewner_leq(a: SymMatrix, b: SymMatrix, tol: float) -> PsdVerdict:
    """Loewner ordering a <= b, i.e. b - a is nonnegative definite."""
    return is_psd(b - a, tol)


def spectral_radius(m: SymMatrix) -> float:
    vals = eigenvalues(m)
    return float(max(abs(vals[0]), abs(vals[-1])))
