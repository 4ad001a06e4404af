"""Structural constants: relative bound, smoothing factor, regularity, xi.

Frozen oracles:
- scalar a = 1, b = c, alpha = 0: C = c, M = 1, L = 0, xi = c (t - s)
- linear profile with slope m has Lipschitz constant exactly m
- smoothing factor for alpha > 0 equals max over x of x^alpha e^{-x}
  = (alpha/e)^alpha when delta * lambda_max >= alpha
"""
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import gibbsflow as gf
from gibbsflow import constants, propagator
from gibbsflow.constants import smoothing_constant
from gibbsflow.linalg import HermitianOperator, opnorm
from gibbsflow.models import diagonal_form

from conftest import entries_only, make_rotating, random_symmetric_psd

README_B0 = [0.5, 0.3, 0.8, 0.2, 0.9, 0.4, 0.7, 0.1,
             0.6, 0.2, 0.4, 0.8, 0.3, 0.5, 0.9, 0.2]


def generator_power(model, p):
    """A^p from the generator's spectrum, Q diag(lambda^p) Q^T."""
    w, q = model.generator.spectrum()
    return HermitianOperator(gf.eigen_entries(np.power(w, p), q)).entries


def brute_force_holder(model, grid):
    """The Hoelder grid maximum as one SVD per pair, the reference for
    ``_holder_constant``."""
    times, _, sandwiched = constants._horizon_samples(model, grid)
    if sandwiched.ndim == 2:
        # diagonal samples are held as their diagonals
        sandwiched = np.apply_along_axis(np.diag, 1, sandwiched)
    beta = model.perturbation.beta
    best = 0.0
    for i in range(grid):
        for j in range(i + 1, grid):
            gap = abs(times[j] - times[i]) ** beta
            quotient = opnorm(sandwiched[j] - sandwiched[i]) / gap
            if quotient > best:
                best = quotient
    return best


def run_smooth_model():
    """The README rotating config: d=16, beta=1, diagonal b0."""
    return gf.rotating_model(np.linspace(1.0, 4.0, 16), README_B0, 3.14159265358979,
                             beta=1.0, t0=0.5)


def rotating_dense(beta, t0, dim=4, alpha=0.2, omega=np.pi):
    b0 = random_symmetric_psd(np.random.default_rng(5), dim)
    return gf.rotating_model(np.linspace(1.0, 4.0, dim), b0, omega, beta=beta,
                             t0=t0, alpha=alpha)


# (name, model factory) pairs for the exact comparison with the pair loop.
HOLDER_MODELS = (
    [(f"scalar-kink-a{a}",
      lambda a=a: gf.scalar_model(1.5, gf.kink_profile(0.4, 0.5), beta=0.5, alpha=a))
     for a in (0.0, 0.3, 0.5)]
    + [(f"scalar-linear-a{a}",
        lambda a=a: gf.scalar_model(1.5, gf.linear_profile(1.0), alpha=a))
       for a in (0.0, 0.3, 0.5)]
    + [(f"commuting-a{a}",
        lambda a=a: gf.commuting_model(np.linspace(1.0, 4.0, 6), np.linspace(0.1, 1.0, 6),
                                       gf.kink_profile(0.37, 0.5), beta=0.5, alpha=a))
       for a in (0.0, 0.3, 0.5)]
    # t0 = 0.5 is a grid time of every odd grid here; 0.537 is none
    + [(f"rotating-b{b}-t0{t0}", lambda b=b, t0=t0: rotating_dense(b, t0))
       for b in (1.0, 0.5, 0.25) for t0 in (0.5, 0.537)]
    # B(t) = (1 + t^beta) b0 with b0 dense: the triangle bound is tight, and
    # the largest quotient differs from many others only by rounding
    + [(f"still-b{b}", lambda b=b: rotating_dense(b, 0.0, omega=0.0)) for b in (1.0, 0.5)]
    + [("run-smooth", run_smooth_model)]
)


class TestSmoothingConstant:
    def test_alpha_zero_is_exactly_one(self):
        assert smoothing_constant(np.array([1.0, 5.0]), 0.7, 0.0) == 1.0

    def test_matches_analytic_maximum(self):
        # for alpha in (0,1) and delta lambda_max >= alpha the sup equals
        # (alpha/e)^alpha, attained at tau lambda = alpha
        for alpha in (0.2, 0.5, 0.8):
            value = smoothing_constant(np.array([1.0, 4.0, 9.0]), 2.0, alpha)
            expected = (alpha / math.e) ** alpha
            assert value == pytest.approx(expected, rel=1e-3)
            assert value <= expected + 1e-12  # grid never exceeds the sup

    def test_small_delta_caps_the_sup(self):
        # when delta lambda_max < alpha the maximand is increasing in tau,
        # so the sup sits at tau = delta
        alpha, delta, lam = 0.8, 0.01, np.array([1.0, 2.0])
        value = smoothing_constant(lam, delta, alpha)
        x = delta * 2.0
        assert value == pytest.approx(x ** alpha * math.exp(-x), rel=1e-12)

    def test_dense_grid_oracle(self, rng):
        # independent dense-sampling oracle over tau
        lam = 1.0 + 4.0 * rng.random(6)
        delta, alpha = 0.9, 0.35
        taus = np.linspace(1e-9, delta, 300001)
        oracle = max(
            float(np.max((taus[:, None] * lam[None, :]) ** alpha
                         * np.exp(-taus[:, None] * lam[None, :]))), 0.0)
        value = smoothing_constant(lam, delta, alpha)
        assert value == pytest.approx(oracle, rel=1e-4)
        assert value >= oracle  # a sup, not a grid lower bound


class TestEstimateConstants:
    def test_scalar_constant_b(self, scalar_const):
        rep = gf.estimate_constants(scalar_const, 0.0, 1.0)
        assert rep.c_alpha == pytest.approx(0.4, abs=1e-14)
        assert rep.m_alpha == 1.0
        assert rep.l_alpha_beta == pytest.approx(0.0, abs=1e-14)
        assert rep.xi == pytest.approx(0.4, abs=1e-14)

    def test_scalar_linear_b(self, scalar_linear):
        rep = gf.estimate_constants(scalar_linear, 0.0, 1.0)
        # C is the esssup over the whole horizon: max b = 1
        assert rep.c_alpha == pytest.approx(1.0, abs=1e-12)
        # Lipschitz constant of b(tau) = tau is exactly 1
        assert rep.l_alpha_beta == pytest.approx(1.0, rel=1e-12)
        assert rep.xi == pytest.approx(1.0, rel=1e-12)

    def test_subinterval_scales_xi(self, scalar_const):
        rep = gf.estimate_constants(scalar_const, 0.2, 0.45)
        assert rep.xi == pytest.approx(0.4 * 0.25, rel=1e-12)

    def test_alpha_discounts_relative_bound(self):
        # commuting with alpha: C = max_i d0_i b lambda_i^{-alpha}
        model = gf.commuting_model([1.0, 4.0], [0.5, 0.8], gf.constant_profile(1.0),
                                   alpha=0.5)
        rep = gf.estimate_constants(model, 0.0, 1.0)
        expected_c = max(0.5 * 1.0 ** -0.5, 0.8 * 4.0 ** -0.5)
        assert rep.c_alpha == pytest.approx(expected_c, rel=1e-12)

    def test_kink_regularity_near_analytic_hoelder(self):
        # |t-t0|^{1/2} has Hoelder-1/2 seminorm 1 (approached as pairs straddle t0)
        model = gf.scalar_model(1.0, gf.kink_profile(0.5, 0.5), beta=0.5)
        rep = gf.estimate_constants(model, 0.0, 1.0, grid=201)
        assert 0.9 <= rep.l_alpha_beta <= 1.0 + 1e-12

    def test_rotating_constants_finite(self):
        model = make_rotating(dim=4, seed=3, alpha=0.2)
        rep = gf.estimate_constants(model, 0.0, 1.0, grid=81)
        assert rep.c_alpha > 0 and rep.l_alpha_beta > 0
        assert 0 < rep.m_alpha <= 1.0
        assert rep.xi > 0

    def test_independent_of_batch_size(self):
        # 7 grid times per batch: 81 times span 12 batches, the last one partial
        model = make_rotating(dim=4, seed=3, alpha=0.2)
        whole = gf.estimate_constants(model, 0.0, 1.0, grid=81)
        with mock.patch.object(propagator, "BATCH_BYTES", 7 * 8 * model.dim ** 2):
            batched = gf.estimate_constants(model, 0.0, 1.0, grid=81)
        assert batched == whole

    def test_validation(self, scalar_const):
        with pytest.raises(gf.ValidationError):
            gf.estimate_constants(scalar_const, 0.5, 0.5)
        for grid in (0, 1, -3, 1.5):
            with pytest.raises(gf.ValidationError, match="grid"):
                gf.estimate_constants(scalar_const, 0.0, 1.0, grid=grid)

    def test_window_outside_horizon_rejected(self, scalar_const):
        with pytest.raises(gf.TimeRangeError):
            gf.estimate_constants(scalar_const, 0.5, 1.5)
        with pytest.raises(gf.TimeRangeError):
            gf.estimate_constants(scalar_const, -0.5, 0.5)

    def test_report_rejects_inconsistent_xi(self):
        with pytest.raises(gf.ValidationError):
            gf.ConstantsReport(c_alpha=1.0, m_alpha=1.0, l_alpha_beta=0.0,
                               xi=2.0, alpha=0.0, beta=1.0, s=0.0, t=1.0, grid=11)


class TestHolderConstant:
    @pytest.mark.parametrize("grid", [2, 3, 101])
    @pytest.mark.parametrize("name, build", HOLDER_MODELS, ids=[n for n, _ in HOLDER_MODELS])
    def test_equals_pair_loop(self, name, build, grid):
        model = build()
        rep = gf.estimate_constants(model, 0.0, 1.0, grid=grid)
        assert rep.l_alpha_beta == brute_force_holder(model, grid)

    def test_equals_pair_loop_on_a_fine_grid(self):
        model = rotating_dense(0.5, 0.537)
        rep = gf.estimate_constants(model, 0.0, 1.0, grid=401)
        assert rep.l_alpha_beta == brute_force_holder(model, 401)

    @staticmethod
    def _count_svds(monkeypatch, model, grid):
        """(Hoelder constant, matrices it handed to ``singular_values``) on
        ``model``'s grid."""
        times, _, sandwiched = constants._horizon_samples(model, grid)
        matrices = []

        def counted(m):
            matrices.append(np.shape(m)[0] if np.ndim(m) == 3 else 1)
            return gf.singular_values(m)

        monkeypatch.setattr(constants, "singular_values", counted)
        value = constants._holder_constant(times, sandwiched, model.perturbation.beta)
        return value, sum(matrices)

    def test_diagonal_stack_needs_no_svd(self, monkeypatch):
        d = 64
        model = gf.commuting_model(np.linspace(1.0, 8.0, d), np.linspace(0.1, 1.0, d),
                                   gf.kink_profile(0.37, 0.5, offset=0.5), beta=0.5)
        for grid in (101, 2001):
            value, svds = self._count_svds(monkeypatch, model, grid)
            assert svds == 0
            assert value > 0.0

    def test_diagonal_samples_hold_no_full_stack(self):
        d, grid = 64, 401
        model = gf.commuting_model(np.linspace(1.0, 8.0, d), np.linspace(0.1, 1.0, d),
                                   gf.kink_profile(0.37, 0.5, offset=0.5), beta=0.5)
        constants._horizon_samples(model, 3)
        tracemalloc.start()
        try:
            _, _, samples = constants._horizon_samples(model, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert samples.shape == (grid, d)
        # the (grid, d, d) stack is 13 MB here
        assert peak < grid * d * d * 8 / 8

    @pytest.mark.parametrize("cut", [0.0, 0.5, 0.97])
    def test_samples_turning_dense_are_redone_as_the_full_stack(self, cut):
        # B(t) is diagonal before ``cut`` and dense after it, and the family
        # declares no diagonal form, so every chunk is sampled as full
        # matrices; with d = 16 a chunk holds 32 times, so at grid 101 the
        # first dense chunk starts at 0, 32 or 96
        d, grid = 16, 101
        base = np.diag(np.linspace(0.1, 1.0, d))
        coupling = np.zeros((d, d))
        coupling[0, 1] = coupling[1, 0] = 0.05

        def entries(ts):
            ts = np.asarray(ts)
            return (base * (1.0 + ts)[:, None, None]
                    + coupling * np.maximum(ts - cut, 0.0)[:, None, None])

        family = gf.PerturbationFamily(entries=entries, alpha=0.2, beta=1.0)
        model = gf.Model(gf.Generator(np.diag(np.linspace(1.0, 4.0, d))), family)
        times, _, samples = constants._horizon_samples(model, grid)
        a_neg = generator_power(model, -0.2)
        assert samples.shape == (grid, d, d)
        assert np.array_equal(samples, a_neg @ gf.perturbation_entries(model, times) @ a_neg)
        rep = gf.estimate_constants(model, 0.0, 1.0, grid=grid)
        assert rep.l_alpha_beta == brute_force_holder(model, grid)

    def test_smooth_dense_stack_needs_only_adjacent_svds(self, monkeypatch):
        grid = 101
        model = run_smooth_model()
        value, svds = self._count_svds(monkeypatch, model, grid)
        assert svds <= grid - 1
        monkeypatch.undo()
        assert value == brute_force_holder(model, grid)

    def test_relative_bound_matches_full_samples(self):
        # contraction_coefficient and the series read c_alpha without the stack
        for model in (run_smooth_model(), rotating_dense(0.5, 0.537, alpha=0.3)):
            assert constants._relative_bound(model, 81) == constants._horizon_samples(model, 81)[1]


class TestRelativeBound:
    @pytest.mark.parametrize("alpha", [0.0, 0.4])
    def test_commuting_constants_need_no_svd(self, alpha):
        d = 64
        model = gf.commuting_model(np.linspace(1.0, 8.0, d), np.linspace(0.1, 1.0, d),
                                   gf.kink_profile(0.37, 0.5, offset=0.5), alpha=alpha)
        times = np.linspace(0.0, 1.0, 101)
        a_neg = generator_power(model, -alpha)
        expected = max(opnorm(m) for m in gf.perturbation_entries(model, times) @ a_neg)
        with mock.patch.object(constants, "singular_values", side_effect=AssertionError):
            rep = gf.estimate_constants(model, 0.0, 1.0, grid=101)
        assert rep.c_alpha == expected


# Commuting models, by alpha: sorted and unsorted eigenvalues, zero couplings.
DIAGONAL_MODELS = {
    "commuting-kink-64": lambda alpha: gf.commuting_model(
        np.linspace(1.0, 8.0, 64), np.linspace(0.1, 1.0, 64),
        gf.kink_profile(0.37, 0.5, offset=0.5), alpha=alpha),
    "commuting-linear-unsorted": lambda alpha: gf.commuting_model(
        [3.0, 1.0, 2.5, 1.2, 7.0], [0.0, 0.7, 0.2, 1.3, 0.4],
        gf.linear_profile(2.0, 0.1), alpha=alpha),
    "scalar-kink": lambda alpha: gf.scalar_model(1.5, gf.kink_profile(0.4, 0.5), alpha=alpha),
}


class TestDiagonalForm:
    @pytest.mark.parametrize("grid", [2, 3, 101])
    @pytest.mark.parametrize("alpha", [0.0, 0.4])
    @pytest.mark.parametrize("name", sorted(DIAGONAL_MODELS))
    def test_closed_form_equals_general_route(self, name, alpha, grid):
        model = DIAGONAL_MODELS[name](alpha)
        general = entries_only(model)
        assert diagonal_form(model) is not None and diagonal_form(general) is None
        with mock.patch.object(constants, "perturbation_entries", side_effect=AssertionError):
            closed = (gf.estimate_constants(model, 0.1, 0.7, grid=grid),
                      gf.contraction_coefficient(model, 0.1, 0.7, grid=grid))
        assert closed == (gf.estimate_constants(general, 0.1, 0.7, grid=grid),
                          gf.contraction_coefficient(general, 0.1, 0.7, grid=grid))


class TestContractionCoefficient:
    def test_matches_full_estimate(self, scalar_const):
        fast = gf.contraction_coefficient(scalar_const, 0.1, 0.6)
        full = gf.estimate_constants(scalar_const, 0.1, 0.6).xi
        assert fast == pytest.approx(full, rel=1e-12)

    def test_linear_in_interval_length(self, scalar_const):
        xi1 = gf.contraction_coefficient(scalar_const, 0.0, 0.5)
        xi2 = gf.contraction_coefficient(scalar_const, 0.0, 1.0)
        assert xi2 == pytest.approx(2.0 * xi1, rel=1e-12)

    def test_window_outside_horizon_rejected(self, scalar_const):
        with pytest.raises(gf.TimeRangeError):
            gf.contraction_coefficient(scalar_const, 0.5, 1.5)
        with pytest.raises(gf.TimeRangeError):
            gf.contraction_coefficient(scalar_const, -0.5, 0.5)

    @pytest.mark.parametrize("grid", [0, 1, -3, 1.5])
    def test_grid_validation(self, scalar_const, grid, monkeypatch):
        # an empty grid would give xi = 0 whatever B is; refuse before sampling
        def never(*_):
            raise AssertionError("B sampled before the grid was checked")

        monkeypatch.setattr(constants, "perturbation_entries", never)
        with pytest.raises(gf.ValidationError, match="grid"):
            gf.contraction_coefficient(scalar_const, 0.0, 1.0, grid=grid)
