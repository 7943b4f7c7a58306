"""Symmetric kernel tests.  Oracles: hand-solved characteristic
polynomials, trace and cofactor determinant, matrices built from a known
spectrum, and the values of the former Jacobi kernel."""

import json
import pathlib

import numpy as np
import pytest

from varbounds import linalg
from varbounds.linalg import (SymMatrix, eigenvalues, is_psd, loewner_leq,
                              solve_spectra, spectral_radius, symmetrized)


def cofactor_det(a):
    """Hand-rolled determinant for p <= 3 (oracle, no numpy.linalg)."""
    p = a.shape[0]
    if p == 1:
        return a[0, 0]
    if p == 2:
        return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    return (a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
            - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0]))


# eigenvalues of the test_against_numpy matrices as the cyclic Jacobi kernel
# this package used before LAPACK computed them (recorded at commit 940f985)
JACOBI_VALUES = json.loads(
    (pathlib.Path(__file__).with_name("jacobi_eigenvalues.json")).read_text())


class TestJacobi:
    """The eigenvalue routine, checked by hand oracles and against the
    values of the Jacobi kernel it replaced."""

    def test_diagonal(self):
        m = SymMatrix.from_array([[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(eigenvalues(m), [1.0, 2.0])

    def test_reflection(self):
        m = SymMatrix.from_array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(eigenvalues(m), [-1.0, 1.0], atol=1e-14)

    def test_hand_characteristic(self):
        # det([[2-l,1],[1,2-l]]) = 0  =>  l in {1, 3}
        m = SymMatrix.from_array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(eigenvalues(m), [1.0, 3.0], atol=1e-14)

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_against_numpy(self, p):
        # the LAPACK values against the recorded Jacobi ones
        rng = np.random.default_rng(1000 + p)
        for recorded in JACOBI_VALUES[str(p)]:
            a = rng.normal(size=(p, p))
            a = a + a.T
            np.testing.assert_allclose(eigenvalues(SymMatrix.from_array(a)),
                                       recorded, rtol=0.0, atol=1e-10)

    def test_trace_and_determinant(self):
        rng = np.random.default_rng(7)
        for p in (2, 3):
            for _ in range(25):
                a = rng.normal(size=(p, p))
                a = a + a.T
                m = SymMatrix.from_array(a)
                vals = eigenvalues(m)
                fro = np.linalg.norm(a)
                assert abs(vals.sum() - np.trace(a)) <= 1e-10 * fro
                det = cofactor_det(a)
                assert abs(np.prod(vals) - det) <= 1e-8 * max(1.0, abs(det))

    def test_reconstruction(self):
        # Q diag(l) Q^T with Q orthogonal has exactly the spectrum l
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        vals = np.sort(rng.normal(size=6))
        a = q @ np.diag(vals) @ q.T
        m = SymMatrix.from_array(0.5 * (a + a.T))
        np.testing.assert_allclose(eigenvalues(m), vals, rtol=0.0,
                                   atol=1e-12)

    def test_zero_matrix(self):
        m = SymMatrix.from_array(np.zeros((3, 3)))
        np.testing.assert_array_equal(eigenvalues(m), np.zeros(3))

    def test_spectrum_is_kept_read_only(self):
        m = SymMatrix.from_array([[2.0, 1.0], [1.0, 2.0]])
        vals = eigenvalues(m)
        assert eigenvalues(m) is vals
        with pytest.raises(ValueError):
            vals[0] = 5.0
        assert is_psd(m, 0.0).min_eigenvalue == pytest.approx(1.0)
        assert spectral_radius(m) == pytest.approx(3.0)


class TestPredicates:
    def test_is_psd_examples(self):
        assert is_psd(SymMatrix.from_array(np.diag([1.0, 2.0, 3.0])), 1e-9).ok
        verdict = is_psd(SymMatrix.from_array([[1.0, 2.0], [2.0, 1.0]]), 1e-9)
        assert not verdict.ok
        np.testing.assert_allclose(verdict.min_eigenvalue, -1.0, atol=1e-12)
        assert is_psd(SymMatrix.from_array(np.zeros((2, 2))), 0.0).ok

    def test_loewner_examples(self):
        a = SymMatrix.from_array([[1.0, 0.0], [0.0, 2.0]])
        assert loewner_leq(a, a, 1e-12).ok
        b = SymMatrix.from_array([[1.0, 0.0], [0.0, 4.0]])
        assert loewner_leq(a, b, 1e-12).ok
        assert not loewner_leq(SymMatrix.from_array([[2.0]]),
                               SymMatrix.from_array([[1.0]]), 1e-9).ok

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            loewner_leq(SymMatrix.from_array(np.zeros((2, 2))),
                        SymMatrix.from_array(np.zeros((3, 3))), 1e-9)

    def test_spectral_radius(self):
        m = SymMatrix.from_array([[0.0, 1.0], [1.0, 0.0]])
        assert spectral_radius(m) == pytest.approx(1.0)


class TestSymMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymMatrix.from_array([[0.0, 1.0], [0.0, 0.0]])

    def test_symmetrizes_roundoff(self):
        a = np.array([[1.0, 1e-13], [0.0, 1.0]])
        m = SymMatrix.from_array(a)
        assert m[0, 1] == m[1, 0]

    def test_immutable(self):
        m = SymMatrix.from_array(np.zeros((2, 2)))
        with pytest.raises(AttributeError):
            m.order = 3
        arr = m.to_array()
        arr[0, 0] = 5.0
        assert m[0, 0] == 0.0

    def test_quadratic_form_and_entries(self):
        m = SymMatrix.from_array([[2.0, 1.0], [1.0, 3.0]])
        c = np.ones(2)
        assert c @ m.to_array() @ c == pytest.approx(7.0)
        assert m[1, 0] == 1.0
        assert np.trace(m.to_array()) == pytest.approx(5.0)
        assert m.max_abs() == 3.0

    def test_indices_as_numpy(self):
        a = np.array([[1.0, 2.0, 3.0], [2.0, 5.0, 7.0], [3.0, 7.0, 11.0]])
        m = SymMatrix.from_array(a)
        assert m[-1, 0] == a[-1, 0] == 3.0
        assert m[0, -1] == a[0, -1] == 3.0
        assert m[2, 1] == m[1, 2] == 7.0
        with pytest.raises(IndexError):
            m[0, 3]

    def test_no_negative_zero(self):
        # -0.0 would print as "-0.0" in a report's JSON
        zeros = SymMatrix.from_array(np.zeros((2, 2)))
        assert not np.any(np.signbit((zeros * -1.0).to_array()))
        assert not np.signbit(SymMatrix.from_array([[-0.0]])[0, 0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SymMatrix.from_array([[np.inf, 0.0], [0.0, 1.0]])


class TestStacks:
    """A stack is symmetrised and solved as each of its matrices alone."""

    @pytest.mark.parametrize("p", [1, 3, 4, 16, 32])
    def test_batched_spectra_equal_single_solves_bit_for_bit(self, p,
                                                             monkeypatch):
        rng = np.random.default_rng(p)
        stack = rng.normal(size=(9, p, p)) * 10.0 ** rng.integers(-8, 8, 9)[
            :, None, None]
        stack[4] = 0.0  # a null matrix among them
        singles = [SymMatrix.from_array(a + a.T) for a in stack]
        batched = [SymMatrix.from_array(a + a.T) for a in stack]
        calls = []
        original = linalg.eigvalsh

        def counted(a):
            calls.append(a.shape)
            return original(a)

        monkeypatch.setattr(linalg, "eigvalsh", counted)
        eigenvalues(batched[0])  # solved already: not solved again
        solve_spectra(batched + batched[:2])
        assert calls == [(p, p), (8, p, p)]
        for one, many in zip(singles, batched):
            assert eigenvalues(one).tobytes() == eigenvalues(many).tobytes()

    def test_one_call_per_order(self, monkeypatch):
        calls = []
        original = linalg.eigvalsh

        def counted(a):
            calls.append(a.shape)
            return original(a)

        monkeypatch.setattr(linalg, "eigvalsh", counted)
        mats = [SymMatrix.from_array(np.eye(p) * (i + 1))
                for i, p in enumerate((2, 3, 2, 3, 3))]
        solve_spectra(mats)
        assert sorted(calls) == [(2, 2, 2), (3, 3, 3)]
        assert [float(eigenvalues(m)[0]) for m in mats] == [1, 2, 3, 4, 5]

    def test_symmetrized_as_from_array(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 4, 4))
        a = a + a.transpose(0, 2, 1)
        a[2] = -0.0  # turned into +0.0
        a[3] += np.triu(a[3]) * 1e-13  # symmetric within tolerance
        sym = symmetrized(a)
        for one, many in zip(a, sym):
            assert SymMatrix.from_array(one).to_array().tobytes() == \
                many.tobytes()
