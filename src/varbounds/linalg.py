"""Small dense symmetric-matrix kernel: one read-only array per matrix, its
spectrum computed once, and the positive-semidefinite and Loewner-order
predicates on it.

Eigenvalues come from LAPACK through ``numpy.linalg.eigvalsh``.  The verdict
tolerance is absolute (it scales with the spectral radius of D), so a solver
with high relative accuracy for tiny eigenvalues would gain nothing.

A stack of matrices is symmetrised in one pass (``symmetrized``), and
``solve_spectra`` solves many matrices in one batched ``eigvalsh`` call per
order.  numpy runs LAPACK on each matrix of a batch in turn, so every
spectrum is, bit for bit, the one a call of its own gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigvalsh

MAX_ORDER = 64
ASYMMETRY_TOL = 1e-10


class SymMatrix:
    """Immutable symmetric matrix: one read-only, exactly symmetric dense
    array, and its spectrum once ``eigenvalues`` has computed it.  Build one
    with ``from_array``; ``+``, ``-`` and scalar ``*`` give new matrices."""

    __slots__ = ("order", "_a", "_eig")

    @classmethod
    def _of(cls, a: np.ndarray) -> "SymMatrix":
        # a is exactly symmetric; + 0.0 turns every -0.0 entry into 0.0
        a = a + 0.0
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        a.setflags(write=False)
        return cls._view(a)

    @classmethod
    def _view(cls, a: np.ndarray) -> "SymMatrix":
        """A matrix over ``a``: read-only, finite, exactly symmetric and
        free of -0.0, as the caller guarantees."""
        m = object.__new__(cls)
        object.__setattr__(m, "order", a.shape[0])
        object.__setattr__(m, "_a", a)
        object.__setattr__(m, "_eig", None)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("SymMatrix is immutable")

    @classmethod
    def from_array(cls, a) -> "SymMatrix":
        """Build from a 2-D array; asymmetry beyond the internal tolerance is
        treated as a bug in the caller, not noise to be averaged away."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square 2-D array")
        if not 1 <= a.shape[0] <= MAX_ORDER:
            raise ValueError(
                f"order must be in [1, {MAX_ORDER}], got {a.shape[0]}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        if np.max(np.abs(a - a.T)) > ASYMMETRY_TOL * (1.0 + np.max(np.abs(a))):
            raise ValueError("input array is not symmetric within tolerance")
        return cls._of(0.5 * (a + a.T))

    def to_array(self) -> np.ndarray:
        return self._a.copy()

    def __getitem__(self, ij):
        return float(self._a[ij])

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        self._check_same_order(other)
        return SymMatrix._of(self._a + other._a)

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        self._check_same_order(other)
        return SymMatrix._of(self._a - other._a)

    def __mul__(self, scalar: float) -> "SymMatrix":
        return SymMatrix._of(self._a * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"SymMatrix({self._a.tolist()})"

    def _check_same_order(self, other):
        if not isinstance(other, SymMatrix):
            raise TypeError("expected a SymMatrix")
        if other.order != self.order:
            raise ValueError(
                f"dimension mismatch: {self.order} vs {other.order}")

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._a)))


def symmetrized(a: np.ndarray) -> np.ndarray:
    """0.5 (a + a^T) + 0.0 of every matrix of a (m, p, p) stack, as
    ``SymMatrix.from_array`` forms it of one."""
    return 0.5 * (a + a.transpose(0, 2, 1)) + 0.0


def eigenvalues(m: SymMatrix) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending (LAPACK ``syevd`` through
    ``numpy.linalg.eigvalsh``).  Each matrix is solved once; later calls
    return the same read-only array."""
    if m._eig is None:
        vals = eigvalsh(m._a)
        vals.setflags(write=False)
        object.__setattr__(m, "_eig", vals)
    return m._eig


def solve_spectra(matrices) -> None:
    """Solve every matrix of ``matrices`` not solved yet in one batched
    ``eigvalsh`` call per order, and keep each spectrum on its matrix."""
    by_order = {}
    for m in matrices:
        if m._eig is None:
            by_order.setdefault(m.order, {})[id(m)] = m
    for group in by_order.values():
        group = list(group.values())
        vals = eigvalsh(np.stack([m._a for m in group]))
        vals.setflags(write=False)
        for m, v in zip(group, vals):
            object.__setattr__(m, "_eig", v)


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
