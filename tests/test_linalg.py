"""Symmetric-matrix kernel tests."""

import numpy as np
import pytest

from mwconsensus.builtin import WEIGHT_0_5, WEIGHT_1_2, WEIGHT_3_4
from mwconsensus.errors import AsymmetryWarning, InvalidMatrix, NotPSD, \
    UnsupportedWeight
from mwconsensus.linalg import INDEFINITE, ND, NSD, PD, PSD, ZERO, SymMatrix, \
    classify_definiteness, matrix_abs, matrix_sgn, project_to_class, \
    spectral_abs, sym_eigen, sym_sqrt

from oracles import quadratic_roots


class TestSymMatrix:
    def test_symmetrizes_and_records_deviation(self):
        with pytest.warns(AsymmetryWarning):
            m = SymMatrix([[1.0, 2.0], [0.0, 1.0]])
        np.testing.assert_allclose(m.entries, [[1.0, 1.0], [1.0, 1.0]])
        assert m.asymmetry == pytest.approx(2.0)

    def test_exact_input_no_warning(self, recwarn):
        m = SymMatrix([[1.0, 0.5], [0.5, 2.0]])
        assert not recwarn.list
        assert m.asymmetry == 0.0
        assert m.dim == 2

    def test_entries_read_only(self):
        m = SymMatrix(np.eye(3))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidMatrix):
            SymMatrix([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidMatrix):
            SymMatrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(InvalidMatrix):
            SymMatrix(np.zeros((2, 3)))


class TestSymEigen:
    def test_identity(self):
        dec = sym_eigen(np.eye(3))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0])

    def test_two_by_two_closed_form(self):
        # characteristic polynomial of [[2,1],[1,2]] is x^2 - 4x + 3
        expected = quadratic_roots(-4.0, 3.0)
        dec = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(dec.eigenvalues, expected, atol=1e-12)

    def test_diagonal(self):
        dec = sym_eigen(np.diag([-1.0, 0.0, 4.0]))
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 0.0, 4.0], atol=1e-14)

    def test_ascending_orthonormal_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            d = int(rng.integers(1, 9))
            base = rng.normal(size=(d, d))
            m = SymMatrix(base + base.T)
            dec = sym_eigen(m)
            assert np.all(np.diff(dec.eigenvalues) >= 0)
            q = dec.eigenvectors
            scale = max(1.0, float(np.linalg.norm(m.entries)))
            assert np.linalg.norm(q.T @ q - np.eye(d)) <= 1e-10
            recon = (q * dec.eigenvalues) @ q.T
            assert np.linalg.norm(recon - m.entries) <= 1e-10 * scale

    def test_non_finite(self):
        with pytest.raises(InvalidMatrix):
            sym_eigen(np.array([[np.nan]]))

    def test_rayleigh_bounds(self):
        """x^T M x / x^T x stays inside [lambda_min, lambda_max]."""
        rng = np.random.default_rng(11)
        base = rng.normal(size=(5, 5))
        m = SymMatrix(base + base.T)
        dec = sym_eigen(m)
        slack = 1e-12 * max(1.0, abs(dec.lambda_max), abs(dec.lambda_min))
        for _ in range(1000):
            x = rng.normal(size=5)
            quad = float(x @ m.entries @ x)
            nrm = float(x @ x)
            assert dec.lambda_min * nrm - slack * nrm <= quad
            assert quad <= dec.lambda_max * nrm + slack * nrm

    def test_youngs_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            d = int(rng.integers(1, 8))
            x = rng.normal(size=d)
            y = rng.normal(size=d)
            alpha = float(rng.uniform(0.05, 20.0))
            lhs = float(x @ y)
            rhs = float(x @ x) / (2.0 * alpha) + alpha * float(y @ y) / 2.0
            assert lhs <= rhs + 1e-12


class TestClassify:
    def test_reference_pd_weight(self):
        assert classify_definiteness(WEIGHT_0_5) is PD

    def test_explicit_zero_eigenvalue(self):
        assert classify_definiteness(np.diag([1.0, 0.0])) is PSD

    def test_mixed_signs(self):
        assert classify_definiteness(np.diag([1.0, -1.0])) is INDEFINITE

    def test_negative_classes(self):
        assert classify_definiteness(-np.eye(2)) is ND
        assert classify_definiteness(np.diag([-1.0, 0.0])) is NSD

    def test_zero_matrix(self):
        assert classify_definiteness(np.zeros((3, 3))) is ZERO

    def test_scale_aware_band(self):
        # a 1e-12 ripple on a unit-scale PSD matrix is still PSD
        m = np.diag([1.0, -1e-12])
        assert classify_definiteness(m) is PSD
        # the same ripple is definite once the tolerance is tightened
        assert classify_definiteness(m, tol=1e-15) is INDEFINITE

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            classify_definiteness(np.eye(2), tol=0.0)


class TestAbsSgn:
    def test_psd_identity_map(self):
        m = np.diag([2.0, 0.0])
        np.testing.assert_array_equal(matrix_abs(m, PSD).entries, m)

    def test_reference_nd_weight_negated(self):
        np.testing.assert_array_equal(
            matrix_abs(WEIGHT_1_2, ND).entries, -WEIGHT_1_2)

    def test_zero(self):
        np.testing.assert_array_equal(
            matrix_abs(np.zeros((2, 2)), ZERO).entries, np.zeros((2, 2)))

    def test_indefinite_rejected(self):
        with pytest.raises(UnsupportedWeight):
            matrix_abs(np.diag([1.0, -1.0]), INDEFINITE)
        with pytest.raises(UnsupportedWeight):
            matrix_sgn(INDEFINITE)

    def test_sgn_values(self):
        assert matrix_sgn(PD) == 1
        assert matrix_sgn(PSD) == 1
        assert matrix_sgn(ND) == -1
        assert matrix_sgn(NSD) == -1
        assert matrix_sgn(ZERO) == 0

    def test_abs_is_psd_and_sign_consistent(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            d = int(rng.integers(1, 7))
            base = rng.normal(size=(d, d))
            m = SymMatrix(base + base.T)
            m = SymMatrix(m.entries @ m.entries)  # PSD
            sign = int(rng.choice([1, -1]))
            signed = SymMatrix(sign * m.entries)
            cls = classify_definiteness(signed)
            absw = matrix_abs(signed, cls)
            assert classify_definiteness(absw) in (PD, PSD, ZERO)
            recon = matrix_sgn(cls) * absw.entries
            np.testing.assert_allclose(recon, signed.entries, atol=1e-12)


class TestSqrt:
    def test_identity(self):
        np.testing.assert_array_equal(sym_sqrt(np.eye(3)).entries, np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(
            sym_sqrt(np.diag([4.0, 9.0])).entries, np.diag([2.0, 3.0]),
            atol=1e-14)

    def test_reference_weight_squares_back(self):
        # |W| for the semidefinite (3,4) weight, made exactly PSD first
        absw = project_to_class(WEIGHT_3_4, PSD, tol=1e-4)
        root = sym_sqrt(absw)
        scale = max(1.0, float(np.linalg.norm(absw.entries)))
        err = np.linalg.norm(root.entries @ root.entries - absw.entries)
        assert err <= 1e-8 * scale
        assert classify_definiteness(root) in (PD, PSD, ZERO)

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            sym_sqrt(np.diag([1.0, -0.5]))

    def test_sqrt_of_abs_reconstructs(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            d = int(rng.integers(1, 7))
            base = rng.normal(size=(d, d))
            m = SymMatrix(-(base @ base.T))  # NSD/ND
            cls = classify_definiteness(m)
            absw = matrix_abs(m, cls)
            root = sym_sqrt(absw)
            scale = max(1.0, float(np.linalg.norm(absw.entries)))
            assert np.linalg.norm(
                root.entries @ root.entries - absw.entries) <= 1e-8 * scale


class TestSpectralAbs:
    def test_matches_matrix_abs_on_definite(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(4, 4))
        m = SymMatrix(base @ base.T + 0.1 * np.eye(4))
        np.testing.assert_allclose(spectral_abs(m).entries, m.entries,
                                   atol=1e-12)
        np.testing.assert_allclose(spectral_abs(SymMatrix(-m.entries)).entries,
                                   m.entries, atol=1e-12)

    def test_preserves_eigenvalue_magnitudes(self):
        m = np.diag([3.0, -2.0, 0.5])
        vals = sym_eigen(spectral_abs(m)).eigenvalues
        np.testing.assert_allclose(sorted(vals), [0.5, 2.0, 3.0], atol=1e-12)


class TestProjectToClass:
    def test_clamps_noise_to_exact_zero(self):
        m = np.diag([5.0, 1e-6, -1e-6])
        out = project_to_class(m, PSD, tol=1e-4)
        vals = sym_eigen(out).eigenvalues
        assert vals[0] == 0.0 and vals[1] == 0.0
        assert vals[2] == pytest.approx(5.0)

    def test_out_of_band_contradiction(self):
        with pytest.raises(UnsupportedWeight):
            project_to_class(np.diag([5.0, -1.0]), PSD, tol=1e-4)

    def test_nsd_direction(self):
        out = project_to_class(np.diag([-3.0, 2e-5]), NSD, tol=1e-4)
        assert sym_eigen(out).lambda_max == 0.0

    def test_indefinite_target_rejected(self):
        with pytest.raises(UnsupportedWeight):
            project_to_class(np.eye(2), INDEFINITE, tol=1e-4)
