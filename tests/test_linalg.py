"""Symmetric-matrix kernel tests."""

import numpy as np
import pytest

from mwconsensus.builtin import WEIGHT_0_5, WEIGHT_1_2, WEIGHT_3_4
from mwconsensus.errors import InvalidMatrix, NotPSD, UnsupportedWeight
from mwconsensus.linalg import CLASS_SIGN, INDEFINITE, ND, NSD, PD, PSD, \
    ZERO, DefinitenessClass, classify_definiteness, project_to_class, \
    spectral_abs, sym_eigen, sym_sqrt, symmetric

from oracles import matrix_abs, matrix_sgn, quadratic_roots


def random_symmetric(rng, d):
    base = rng.normal(size=(d, d))
    return base + base.T


class TestSymmetric:
    def test_same_bits_as_half_sum(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            d = int(rng.integers(1, 9))
            m = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-6, 6)
            out = symmetric(m)
            np.testing.assert_array_equal(out, 0.5 * (m + m.T))
            np.testing.assert_array_equal(out, out.T)

    def test_no_overflow_near_float_max(self):
        m = np.full((2, 2), 1e308)
        with np.errstate(over="ignore"):
            assert np.isinf(0.5 * (m + m.T)).all()
        np.testing.assert_array_equal(symmetric(m), m)

    def test_symmetrizes_asymmetric_input(self):
        np.testing.assert_array_equal(symmetric([[1.0, 2.0], [0.0, 1.0]]),
                                      [[1.0, 1.0], [1.0, 1.0]])

    def test_read_only(self):
        out = symmetric(np.eye(3))
        with pytest.raises(ValueError):
            out[0, 0] = 5.0


class TestSymEigen:
    def test_identity(self):
        vals, _ = sym_eigen(np.eye(3))
        np.testing.assert_allclose(vals, [1.0, 1.0, 1.0])

    def test_two_by_two_closed_form(self):
        # characteristic polynomial of [[2,1],[1,2]] is x^2 - 4x + 3
        expected = quadratic_roots(-4.0, 3.0)
        vals, _ = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(vals, expected, atol=1e-12)

    def test_diagonal(self):
        vals, _ = sym_eigen(np.diag([-1.0, 0.0, 4.0]))
        np.testing.assert_allclose(vals, [-1.0, 0.0, 4.0], atol=1e-14)

    def test_ascending_orthonormal_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            d = int(rng.integers(1, 9))
            m = random_symmetric(rng, d)
            vals, q = sym_eigen(m)
            assert np.all(np.diff(vals) >= 0)
            scale = max(1.0, float(np.linalg.norm(m)))
            assert np.linalg.norm(q.T @ q - np.eye(d)) <= 1e-10
            recon = (q * vals) @ q.T
            assert np.linalg.norm(recon - m) <= 1e-10 * scale

    def test_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidMatrix):
                sym_eigen(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_rayleigh_bounds(self):
        """x^T M x / x^T x stays inside [lambda_min, lambda_max]."""
        rng = np.random.default_rng(11)
        m = random_symmetric(rng, 5)
        vals, _ = sym_eigen(m)
        lam_min, lam_max = vals[0], vals[-1]
        slack = 1e-12 * max(1.0, abs(lam_max), abs(lam_min))
        for _ in range(1000):
            x = rng.normal(size=5)
            quad = float(x @ m @ x)
            nrm = float(x @ x)
            assert lam_min * nrm - slack * nrm <= quad
            assert quad <= lam_max * nrm + slack * nrm

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
        assert classify_definiteness(sym_eigen(WEIGHT_0_5)[0]) is PD

    def test_explicit_zero_eigenvalue(self):
        assert classify_definiteness(sym_eigen(np.diag([1.0, 0.0]))[0]) is PSD

    def test_mixed_signs(self):
        assert classify_definiteness(sym_eigen(np.diag([1.0, -1.0]))[0]) is INDEFINITE

    def test_negative_classes(self):
        assert classify_definiteness(sym_eigen(-np.eye(2))[0]) is ND
        assert classify_definiteness(sym_eigen(np.diag([-1.0, 0.0]))[0]) is NSD

    def test_zero_matrix(self):
        assert classify_definiteness(sym_eigen(np.zeros((3, 3)))[0]) is ZERO

    def test_scale_aware_band(self):
        # a 1e-12 ripple on a unit-scale PSD matrix is still PSD
        m = np.diag([1.0, -1e-12])
        assert classify_definiteness(sym_eigen(m)[0]) is PSD


class TestAbsSgn:
    def test_psd_identity_map(self):
        m = np.diag([2.0, 0.0])
        np.testing.assert_array_equal(matrix_abs(m, PSD), m)

    def test_reference_nd_weight_negated(self):
        np.testing.assert_array_equal(
            matrix_abs(WEIGHT_1_2, ND), -WEIGHT_1_2)

    def test_zero(self):
        np.testing.assert_array_equal(
            matrix_abs(np.zeros((2, 2)), ZERO), np.zeros((2, 2)))

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

    @pytest.mark.parametrize("cls", [PD, PSD, ND, NSD, ZERO],
                             ids=lambda cls: cls.value)
    def test_sign_table_matches_oracle(self, cls):
        assert CLASS_SIGN[cls] == matrix_sgn(cls)

    def test_sign_table_covers_every_class(self):
        assert set(CLASS_SIGN) == set(DefinitenessClass)
        assert CLASS_SIGN[INDEFINITE] == 0
        for cls in DefinitenessClass:
            assert cls.is_sign_definite == (CLASS_SIGN[cls] != 0)
        assert [c for c in DefinitenessClass if c.is_sign_definite] == \
            [PD, PSD, ND, NSD]

    def test_abs_is_psd_and_sign_consistent(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            d = int(rng.integers(1, 7))
            m = random_symmetric(rng, d)
            m = symmetric(m @ m)  # PSD
            sign = int(rng.choice([1, -1]))
            signed = sign * m
            cls = classify_definiteness(sym_eigen(signed)[0])
            absw = matrix_abs(signed, cls)
            assert classify_definiteness(sym_eigen(absw)[0]) in (PD, PSD, ZERO)
            recon = matrix_sgn(cls) * absw
            np.testing.assert_allclose(recon, signed, atol=1e-12)


class TestSqrt:
    def test_identity(self):
        np.testing.assert_array_equal(sym_sqrt(*sym_eigen(np.eye(3))), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(
            sym_sqrt(*sym_eigen(np.diag([4.0, 9.0]))), np.diag([2.0, 3.0]),
            atol=1e-14)

    def test_reference_weight_squares_back(self):
        # |W| for the semidefinite (3,4) weight, made exactly PSD first
        absw = project_to_class(*sym_eigen(WEIGHT_3_4), PSD, tol=1e-4)
        root = sym_sqrt(*sym_eigen(absw))
        scale = max(1.0, float(np.linalg.norm(absw)))
        err = np.linalg.norm(root @ root - absw)
        assert err <= 1e-8 * scale
        assert classify_definiteness(sym_eigen(root)[0]) in (PD, PSD, ZERO)

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            sym_sqrt(*sym_eigen(np.diag([1.0, -0.5])))

    def test_sqrt_of_abs_reconstructs(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            d = int(rng.integers(1, 7))
            base = rng.normal(size=(d, d))
            m = symmetric(-(base @ base.T))  # NSD/ND
            cls = classify_definiteness(sym_eigen(m)[0])
            absw = matrix_abs(m, cls)
            root = sym_sqrt(*sym_eigen(absw))
            scale = max(1.0, float(np.linalg.norm(absw)))
            assert np.linalg.norm(root @ root - absw) <= 1e-8 * scale


class TestSpectralAbs:
    def test_matches_matrix_abs_on_definite(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(4, 4))
        m = symmetric(base @ base.T + 0.1 * np.eye(4))
        np.testing.assert_allclose(spectral_abs(*sym_eigen(m)), m, atol=1e-12)
        np.testing.assert_allclose(spectral_abs(*sym_eigen(-m)), m, atol=1e-12)

    def test_preserves_eigenvalue_magnitudes(self):
        m = np.diag([3.0, -2.0, 0.5])
        vals, _ = sym_eigen(spectral_abs(*sym_eigen(m)))
        np.testing.assert_allclose(sorted(vals), [0.5, 2.0, 3.0], atol=1e-12)


class TestProjectToClass:
    def test_clamps_noise_to_exact_zero(self):
        m = np.diag([5.0, 1e-6, -1e-6])
        out = project_to_class(*sym_eigen(m), PSD, tol=1e-4)
        vals, _ = sym_eigen(out)
        assert vals[0] == 0.0 and vals[1] == 0.0
        assert vals[2] == pytest.approx(5.0)

    def test_out_of_band_contradiction(self):
        with pytest.raises(UnsupportedWeight):
            project_to_class(*sym_eigen(np.diag([5.0, -1.0])), PSD, tol=1e-4)

    def test_nsd_direction(self):
        out = project_to_class(*sym_eigen(np.diag([-3.0, 2e-5])), NSD, tol=1e-4)
        assert sym_eigen(out)[0][-1] == 0.0

    def test_indefinite_target_rejected(self):
        with pytest.raises(UnsupportedWeight):
            project_to_class(*sym_eigen(np.eye(2)), INDEFINITE, tol=1e-4)


class TestResultsReadOnly:
    """Every matrix the kernel hands out is read-only."""

    @pytest.mark.parametrize("make", [
        lambda: sym_sqrt(*sym_eigen(WEIGHT_0_5)),
        lambda: spectral_abs(*sym_eigen(np.diag([3.0, -2.0]))),
        lambda: project_to_class(*sym_eigen(WEIGHT_3_4), PSD, tol=1e-4),
        lambda: matrix_abs(WEIGHT_1_2, ND),
    ], ids=["sym_sqrt", "spectral_abs", "project_to_class", "matrix_abs"])
    def test_write_raises(self, make):
        out = make()
        with pytest.raises(ValueError):
            out[0, 0] = 1.0


def random_stack(rng, count, d):
    """``count`` symmetric d x d matrices of every class: random spectra
    with some eigenvalues zeroed, some in-band noise, some of one sign."""
    out = []
    for _ in range(count):
        q = np.linalg.qr(rng.normal(size=(d, d)))[0]
        lam = rng.normal(size=d) * 10.0 ** rng.uniform(-3, 3)
        lam[rng.uniform(size=d) < 0.3] = 0.0
        lam[rng.uniform(size=d) < 0.2] = rng.normal() * 1e-7
        lam = np.abs(lam) * rng.choice([-1.0, 1.0]) if rng.uniform() < 0.7 else lam
        out.append(symmetric((q * lam) @ q.T))
    return np.array(out).reshape(-1, d, d)


class TestStacks:
    """Over a stack, each function gives every matrix exactly what it gives
    that matrix alone, and a refusal is the first offending matrix's, with
    its position in the stack."""

    def test_each_matrix_as_alone(self):
        rng = np.random.default_rng(41)
        for d in range(1, 7):
            for count in (0, 1, 5):
                m = random_stack(rng, count, d)
                vals, vecs = sym_eigen(m)
                classes = classify_definiteness(vals)
                assert vals.shape == (count, d) and classes.shape == (count,)
                assert not vals.flags.writeable and not vecs.flags.writeable
                for k in range(count):
                    alone = sym_eigen(m[k])
                    for a, b in zip((vals[k], vecs[k]), alone):
                        assert a.tobytes() == b.tobytes()
                    assert classes[k] is classify_definiteness(alone[0])
                positive = [k for k in range(count) if classes[k] in (PD, PSD)]
                root = sym_sqrt(vals[positive], vecs[positive])
                for r, k in enumerate(positive):
                    assert root[r].tobytes() == \
                        sym_sqrt(vals[k], vecs[k]).tobytes()
                # Snap every sign-definite matrix onto its semidefinite class.
                snap = [k for k in range(count)
                        if classes[k] not in (INDEFINITE, ZERO)]
                to = [PSD if classes[k] in (PD, PSD) else NSD for k in snap]
                snapped = project_to_class(vals[snap], vecs[snap], to, 1e-4)
                for r, (k, t) in enumerate(zip(snap, to)):
                    assert snapped[r].tobytes() == \
                        project_to_class(vals[k], vecs[k], t, 1e-4).tobytes()

    def test_symmetric_of_stack(self):
        rng = np.random.default_rng(43)
        m = rng.normal(size=(6, 4, 4))
        out = symmetric(m)
        assert not out.flags.writeable
        for k in range(6):
            assert out[k].tobytes() == symmetric(m[k]).tobytes()

    def test_refusal_names_first_offender(self):
        vals = np.array([[1.0, 2.0], [-0.5, 1.0], [-3.0, 1.0]])
        vecs = np.broadcast_to(np.eye(2), (3, 2, 2))
        with pytest.raises(NotPSD) as got:
            sym_sqrt(vals, vecs)
        assert got.value.index == 1
        with pytest.raises(NotPSD) as alone:
            sym_sqrt(vals[1], vecs[1])
        assert str(got.value) == str(alone.value)
        with pytest.raises(UnsupportedWeight) as got:
            project_to_class(vals, vecs, [PSD, PD, PSD], tol=1e-4)
        assert got.value.index == 1
        assert str(got.value) == str(pytest.raises(
            UnsupportedWeight, project_to_class, vals[1], vecs[1], PD,
            tol=1e-4).value)
        with pytest.raises(UnsupportedWeight) as got:
            project_to_class(vals, vecs, [PSD, INDEFINITE, ZERO], tol=1e-4)
        assert got.value.index == 1 and "cannot project" in str(got.value)
