"""Spectral operator calculus and Schatten norms.

Independent oracles: scipy.linalg for eigendecompositions, matrix
exponentials, and singular values; hand-computed 2x2 spectra.
"""

import numpy as np
import pytest
import scipy.linalg

import gibbsflow as gf
from gibbsflow.linalg import HermitianOperator, checked_eigh, symmetrized

from conftest import random_symmetric_psd


class TestEigh:
    def test_two_by_two_hand_computed(self):
        # [[2, 1], [1, 2]] has eigenvalues 1, 3 with eigenvectors
        # (1, -1)/sqrt(2) and (1, 1)/sqrt(2).
        vals, vecs = gf.eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert vals == pytest.approx([1.0, 3.0], abs=1e-14)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        # eigenvectors are defined up to sign
        assert np.allclose(np.abs(vecs[:, 0]), inv_sqrt2, atol=1e-14)
        assert np.allclose(np.abs(vecs[:, 1]), inv_sqrt2, atol=1e-14)
        assert vecs[0, 0] * vecs[1, 0] < 0  # eigenvector for 1 alternates sign
        assert vecs[0, 1] * vecs[1, 1] > 0

    def test_matches_scipy_on_random_symmetric(self, rng):
        for _ in range(25):
            dim = int(rng.integers(1, 12))
            m = random_symmetric_psd(rng, dim, scale=3.0)
            vals, vecs = gf.eigh(m)
            ref_vals = scipy.linalg.eigvalsh(m)
            assert np.allclose(vals, ref_vals, atol=1e-11)
            assert np.allclose((vecs * vals) @ vecs.T, m, atol=1e-11)

    def test_rejects_asymmetric(self):
        with pytest.raises(gf.ValidationError):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_accepts_roundoff_asymmetry(self, rng):
        m = random_symmetric_psd(rng, 5)
        m[0, 1] += 1e-15
        HermitianOperator(m)  # within symmetrization tolerance


class TestOperatorFunction:
    def test_exp_matches_scipy_expm(self, rng):
        for _ in range(10):
            dim = int(rng.integers(1, 10))
            m = random_symmetric_psd(rng, dim, scale=2.0)
            ours = gf.operator_function(HermitianOperator(m), np.exp)
            assert np.allclose(ours.entries, scipy.linalg.expm(m), atol=1e-12)

    def test_heat_is_exp_of_negative(self, rng):
        m = random_symmetric_psd(rng, 6, scale=2.0) + 1.5 * np.eye(6)
        h = HermitianOperator(m)
        assert np.allclose(gf.heat(h, 0.7), scipy.linalg.expm(-0.7 * m), atol=1e-12)

    def test_heat_semigroup(self, rng):
        m = random_symmetric_psd(rng, 5) + np.eye(5)
        h = HermitianOperator(m)
        assert np.allclose(gf.heat(h, 0.3) @ gf.heat(h, 0.5), gf.heat(h, 0.8),
                           atol=1e-13)

    def test_heat_of_a_diagonal_operator_is_exact(self):
        # e^{-tH} of H = diag(lam) is diag(exp(-t lam)) bit for bit, unsorted
        # and repeated lam included: the product kernel multiplies by it where
        # a diagonal A's factor could scale rows instead.
        rng = np.random.default_rng(13)
        for _ in range(300):
            d = int(rng.integers(1, 130))
            lam = rng.uniform(1.0, 50.0, d)
            if rng.random() < 0.5:
                lam = rng.choice(lam[:max(1, d // 3)], d)
            t = float(rng.uniform(0.0, 2.0))
            assert np.array_equal(gf.heat(HermitianOperator(np.diag(lam)), t),
                                  np.diag(np.exp(-t * lam)))

    def test_heat_is_the_eigen_form_of_its_spectrum(self, rng):
        # The one V diag(w) V^T of the package gives the bits of writing it out.
        from gibbsflow import linalg

        assert gf.eigen_entries is linalg.eigen_entries
        for dim in (1, 2, 7, 16):
            h = HermitianOperator(random_symmetric_psd(rng, dim) + np.eye(dim))
            w, q = h.spectrum()
            expected = (q * np.exp(-0.4 * w)) @ q.T
            assert np.array_equal(gf.heat(h, 0.4), expected)
            assert np.array_equal(gf.eigen_entries(np.exp(-0.4 * w), q), expected)
            stack = rng.uniform(0.0, 2.0, (3, dim))
            assert np.array_equal(gf.eigen_entries(stack, None),
                                  np.stack([np.diag(row) for row in stack]))

    def test_heat_rejects_negative_time(self, rng):
        h = HermitianOperator(np.eye(3))
        with pytest.raises(gf.ValidationError):
            gf.heat(h, -0.1)

    def test_fractional_power(self):
        h = HermitianOperator(np.diag([1.0, 4.0, 9.0]))
        half = gf.fractional_power(h, 0.5)
        assert np.allclose(half.entries, np.diag([1.0, 2.0, 3.0]), atol=1e-14)
        inv = gf.fractional_power(h, -1.0)
        assert np.allclose(inv.entries, np.diag([1.0, 0.25, 1.0 / 9.0]), atol=1e-14)

    def test_fractional_power_domain_error(self):
        h = HermitianOperator(np.diag([1.0, -2.0]))
        with pytest.raises(gf.DomainError):
            gf.fractional_power(h, 0.5)

    def test_log_domain_error_names_eigenvalue(self):
        h = HermitianOperator(np.diag([1.0, 0.0]))
        with pytest.raises(gf.DomainError):
            gf.operator_function(h, np.log)


class TestSchattenNorms:
    def test_singular_values_match_scipy(self, rng):
        m = rng.standard_normal((7, 7))
        assert np.allclose(gf.singular_values(m),
                           scipy.linalg.svdvals(m), atol=1e-12)

    def test_norm_ordering_on_ensemble(self, rng):
        # ||.||_inf <= ||.||_2 <= ||.||_1 for 1000 random matrices
        for _ in range(1000):
            dim = int(rng.integers(1, 9))
            m = rng.standard_normal((dim, dim))
            op = gf.schatten_norm(m, np.inf)
            fro = gf.schatten_norm(m, 2)
            tr = gf.schatten_norm(m, 1)
            assert op <= fro * (1 + 1e-12) + 1e-15
            assert fro <= tr * (1 + 1e-12) + 1e-15

    def test_submultiplicative_mixed(self, rng):
        # ||AB||_1 <= ||A||_inf ||B||_1 and ||AB||_1 <= ||A||_1 ||B||_inf
        for _ in range(200):
            dim = int(rng.integers(1, 8))
            a = rng.standard_normal((dim, dim))
            b = rng.standard_normal((dim, dim))
            tr_ab = gf.trace_norm(a @ b)
            assert tr_ab <= gf.opnorm(a) * gf.trace_norm(b) * (1 + 1e-10) + 1e-14
            assert tr_ab <= gf.trace_norm(a) * gf.opnorm(b) * (1 + 1e-10) + 1e-14

    def test_trace_norm_of_heat_is_eigenvalue_sum(self):
        lambdas = np.array([1.0, 2.0, 5.0])
        h = HermitianOperator(np.diag(lambdas))
        t = 0.8
        assert gf.trace_norm(gf.heat(h, t)) == pytest.approx(
            np.sum(np.exp(-t * lambdas)), abs=1e-14)

    def test_rejects_unknown_order(self, rng):
        with pytest.raises(gf.ValidationError):
            gf.schatten_norm(np.eye(2), 3)

    def test_stacked_singular_values_match_one_at_a_time(self, rng):
        stack = rng.standard_normal((3, 5, 6, 6))
        values = gf.singular_values(stack)
        assert values.shape == (3, 5, 6)
        for index in np.ndindex(3, 5):
            assert np.array_equal(values[index], gf.singular_values(stack[index]))

    def test_diagonal_matrices_give_sorted_absolute_diagonal(self):
        # The singular values of a diagonal matrix are its sorted |entries|,
        # bit for bit; zeros, ties and signs included, for stacks and their
        # matrices one at a time.  The diagonal route of the Hoelder constant
        # rests on this.
        rng = np.random.default_rng(11)
        for _ in range(300):
            d, n = int(rng.integers(1, 129)), int(rng.integers(1, 9))
            values = rng.choice([0.0, 0.5, 1.0, 2.0 ** -30], size=(n, d))
            drawn = rng.random((n, d)) < 0.5
            values[drawn] = rng.standard_normal(int(drawn.sum())) * 10.0 ** rng.integers(-8, 8)
            b = np.apply_along_axis(np.diag, 1, values)
            a_neg = np.diag(rng.random(d) + 0.5) if rng.random() < 0.5 else np.eye(d)
            stack = b @ a_neg
            expected = -np.sort(-np.abs(np.diagonal(stack, axis1=-2, axis2=-1)), axis=-1)
            assert np.array_equal(gf.singular_values(stack), expected)
            assert gf.opnorm(stack[-1]) == expected[-1, 0]
            assert gf.trace_norm(stack[0]) == float(np.sum(expected[0]))

    def test_schatten_norm_rejects_a_stack(self, rng):
        with pytest.raises(gf.ValidationError):
            gf.trace_norm(rng.standard_normal((2, 3, 3)))
        with pytest.raises(gf.ValidationError):
            gf.singular_values(np.zeros((2, 3, 4)))


class TestSpectrumSelfCheck:
    def test_spectrum_cached(self, rng):
        h = HermitianOperator(random_symmetric_psd(rng, 4))
        vals1, vecs1 = h.spectrum()
        vals2, vecs2 = h.spectrum()
        assert vals1 is vals2 and vecs1 is vecs2

    def test_stacked_checks_match_one_at_a_time(self, rng):
        stack = np.stack([random_symmetric_psd(rng, 5) for _ in range(4)])
        w, q = checked_eigh(symmetrized(stack))
        for k in range(4):
            one_w, one_q = HermitianOperator(stack[k]).spectrum()
            assert np.array_equal(w[k], one_w) and np.array_equal(q[k], one_q)
        stack[2, 0, 1] += 1e-3
        with pytest.raises(gf.ValidationError, match="matrix 2 of the stack"):
            symmetrized(stack)

    def test_self_check_flags_one_matrix_of_a_stack(self, rng, monkeypatch):
        stack = np.stack([random_symmetric_psd(rng, 3) for _ in range(3)])
        eigh = np.linalg.eigh

        def skewed(m):
            w, q = eigh(m)
            if q.ndim == 3:
                q[-1] *= 1.001
            else:
                q *= 1.001
            return w, q

        monkeypatch.setattr(np.linalg, "eigh", skewed)
        with pytest.raises(gf.DecompositionError, match="matrix 2 of the stack"):
            checked_eigh(stack)
        with pytest.raises(gf.DecompositionError):
            HermitianOperator(stack[0]).spectrum()
