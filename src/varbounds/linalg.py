"""Small dense symmetric-matrix kernel: packed storage, Jacobi eigenvalues,
positive-semidefinite and Loewner-order predicates.

The matrices certified by this package are tiny (p rarely above 10), so the
eigensolver is a plain cyclic Jacobi iteration with no external linear-algebra
dependency.  numpy is used only for array storage and elementwise arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ORDER = 64
JACOBI_SWEEP_CAP = 50
JACOBI_OFF_TOL = 1e-14
ASYMMETRY_TOL = 1e-10


class JacobiConvergenceError(RuntimeError):
    """Raised when the sweep cap is reached before the off-diagonal vanishes."""


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


def jacobi_eigenvalues(m: SymMatrix, vectors: bool = False):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps run until the off-diagonal Frobenius mass drops below
    ``JACOBI_OFF_TOL * ||M||_F`` or the sweep cap is hit.  Eigenvalues are
    returned ascending; with ``vectors=True`` the matching orthonormal
    eigenbasis is returned as columns of the second result.
    """
    a = m.to_array()
    p = m.order
    q = np.eye(p) if vectors else None
    norm = np.linalg.norm(a)
    if norm == 0.0:
        vals = np.zeros(p)
        return (vals, np.eye(p)) if vectors else vals

    def offdiag(mat):
        return np.sqrt(2.0 * np.sum(np.triu(mat, 1) ** 2))

    for _ in range(JACOBI_SWEEP_CAP):
        if offdiag(a) <= JACOBI_OFF_TOL * norm:
            break
        for i in range(p - 1):
            for j in range(i + 1, p):
                aij = a[i, j]
                if abs(aij) <= 1e-300:
                    continue
                tau = (a[j, j] - a[i, i]) / (2.0 * aij)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))
                if tau == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rot_i = c * a[:, i] - s * a[:, j]
                rot_j = s * a[:, i] + c * a[:, j]
                a[:, i], a[:, j] = rot_i, rot_j
                rot_i = c * a[i, :] - s * a[j, :]
                rot_j = s * a[i, :] + c * a[j, :]
                a[i, :], a[j, :] = rot_i, rot_j
                a[i, j] = a[j, i] = 0.0
                if vectors:
                    qi = c * q[:, i] - s * q[:, j]
                    qj = s * q[:, i] + c * q[:, j]
                    q[:, i], q[:, j] = qi, qj
    else:
        residual = offdiag(a) / norm
        raise JacobiConvergenceError(
            f"no convergence after {JACOBI_SWEEP_CAP} sweeps "
            f"(relative off-diagonal {residual:.3e})")

    vals = np.diag(a).copy()
    order = np.argsort(vals)
    vals = vals[order]
    if vectors:
        return vals, q[:, order]
    return vals


@dataclass(frozen=True)
class PsdVerdict:
    ok: bool
    min_eigenvalue: float
    tol: float

    def __bool__(self):
        return self.ok


def is_psd(m: SymMatrix, tol: float) -> PsdVerdict:
    """Nonnegative-definiteness up to ``tol``: min eigenvalue >= -tol."""
    min_eig = float(jacobi_eigenvalues(m)[0])
    return PsdVerdict(min_eig >= -tol, min_eig, tol)


def loewner_leq(a: SymMatrix, b: SymMatrix, tol: float) -> PsdVerdict:
    """Loewner ordering a <= b, i.e. b - a is nonnegative definite."""
    return is_psd(b - a, tol)


def spectral_radius(m: SymMatrix) -> float:
    vals = jacobi_eigenvalues(m)
    return float(max(abs(vals[0]), abs(vals[-1])))
