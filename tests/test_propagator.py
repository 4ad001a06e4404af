"""Ordered product approximants and the reference propagator.

Frozen oracles (hand-derived for a = 1, b(tau) = tau on [0, 1]):
- Left scheme, n = 2: U_2 = e^{-1} e^{-(0 + 1/2)/2} = e^{-5/4}
- Left scheme, general n: the sampled Riemann sum of b is (n-1)/(2n), so
  err_tr(n) = e^{-3/2} (e^{1/(2n)} - 1) exactly.
"""
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbsflow as gf
from gibbsflow import propagator, quadrature

from conftest import make_rotating, per_cell_product, random_symmetric_psd


def assert_agrees_with_series(model, ref, tol: float) -> None:
    """The oracle agrees with the perturbation series summed to
    eps = max(tol, 1e-8), within the series' tail bound + 10 eps + tol."""
    eps = max(tol, 1e-8)
    series = gf.dyson_phillips_sum(model, ref.s, ref.t, eps)
    assert gf.trace_norm(ref.U - series.U) <= series.tail_bound + 10.0 * eps + tol


class TestPartition:
    def test_left_endpoints(self):
        part = gf.make_partition(0.0, 1.0, 4)
        assert np.allclose(part.points, [0.0, 0.25, 0.5, 0.75])
        assert part.step == 0.25

    @given(st.floats(-2.0, 2.0), st.floats(0.01, 3.0), st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_points_structure(self, s, width, n):
        part = gf.make_partition(s, s + width, n)
        assert len(part.points) == n
        assert part.points[0] == pytest.approx(s)
        assert part.step == pytest.approx(width / n)

    def test_validation(self):
        with pytest.raises(gf.ValidationError):
            gf.make_partition(1.0, 0.0, 4)
        with pytest.raises(gf.ValidationError):
            gf.make_partition(0.0, 1.0, 0)

    @pytest.mark.parametrize("n", [True, False, 2.0])
    def test_cell_count_must_be_an_integer(self, n, scalar_linear):
        with pytest.raises(gf.ValidationError, match="integer n"):
            gf.make_partition(0.0, 1.0, n)
        with pytest.raises(gf.ValidationError, match="integer n"):
            gf.product_approximant(gf.Scheme.LEFT, scalar_linear, 0.0, 1.0, n)

    def test_points_read_only(self):
        part = gf.make_partition(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            part.points[0] = 5.0


class TestSchemesScalar:
    def test_left_n2_frozen_value(self, scalar_linear):
        result = gf.product_approximant(gf.Scheme.LEFT, scalar_linear, 0.0, 1.0, 2)
        assert result.U[0, 0] == pytest.approx(math.exp(-1.25), abs=1e-15)

    def test_left_error_closed_form(self, scalar_linear):
        exact = math.exp(-1.5)
        for n in (1, 2, 4, 8, 16, 64, 256):
            u_n = gf.product_approximant(gf.Scheme.LEFT, scalar_linear,
                                         0.0, 1.0, n).U[0, 0]
            err = abs(u_n - exact)
            expected = exact * math.expm1(1.0 / (2.0 * n))
            assert err == pytest.approx(expected, abs=1e-14)

    def test_all_schemes_coincide_in_dim_one(self, scalar_linear):
        # scalar exponentials commute, so the three orderings agree
        for n in (1, 3, 7, 16):
            values = [gf.product_approximant(scheme, scalar_linear, 0.0, 1.0, n).U[0, 0]
                      for scheme in gf.Scheme]
            assert max(values) - min(values) <= 1e-14

    def test_commuting_schemes_coincide(self, commuting_linear):
        # diagonal model: B(t) commutes with A, orderings agree exactly
        mats = [gf.product_approximant(scheme, commuting_linear, 0.0, 1.0, 8).U
                for scheme in gf.Scheme]
        assert np.allclose(mats[0], mats[1], atol=1e-14)
        assert np.allclose(mats[0], mats[2], atol=1e-14)


class TestContraction:
    def test_all_schemes_contract(self, rotating_small):
        bound = math.exp(-1.0)  # spectrum >= 1, t - s = 1
        for scheme in gf.Scheme:
            for n in (1, 5, 32):
                u = gf.product_approximant(scheme, rotating_small, 0.0, 1.0, n).U
                assert gf.opnorm(u) <= bound + 1e-12

    def test_propagator_result_rejects_expansion(self):
        with pytest.raises(gf.ValidationError):
            gf.PropagatorResult(U=np.eye(2) * 1.5, s=0.0, t=1.0, method="test")

    def test_tail_bound_widens_allowance(self):
        gf.PropagatorResult(U=np.eye(2) * 1.1, s=0.0, t=1.0, method="test",
                            tail_bound=0.2)


class TestSplitProduct:
    def test_product_splits_exactly(self, rotating_small):
        # the ordered product over all n cells equals late-half times early-half
        n = 8
        part = gf.make_partition(0.0, 1.0, n)
        full = gf.product_approximant(gf.Scheme.LEFT, rotating_small, 0.0, 1.0, n).U
        early = per_cell_product(gf.Scheme.LEFT, rotating_small, part.points[: n // 2],
                                 part.step)
        late = per_cell_product(gf.Scheme.LEFT, rotating_small, part.points[n // 2:],
                                part.step)
        assert np.allclose(full, late @ early, atol=1e-15)


class TestTransposeSymmetry:
    def test_symmetric_scheme_palindrome_constant_b(self):
        # with B constant in time the symmetric product is a palindrome of
        # symmetric factors, hence a symmetric matrix
        model = gf.commuting_model([1.0, 2.0], [0.4, 0.1], gf.constant_profile(1.0))
        u = gf.product_approximant(gf.Scheme.SYMMETRIC, model, 0.0, 1.0, 8).U
        assert np.allclose(u, u.T, atol=1e-14)

    def test_symmetric_scheme_palindrome_rotating_constant(self):
        # rotating family frozen in time (omega = 0, beta envelope centred)
        rng = np.random.default_rng(5)
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        b0 = (q * rng.random(4)) @ q.T
        model = gf.rotating_model(np.linspace(1, 2, 4), b0, omega=0.0, beta=1.0,
                                  t0=0.5)
        # envelope 1 + |t - 1/2| is symmetric about 1/2 but the left-endpoint
        # grid on [0, 1] is not, so exact palindromy needs the grid-centred
        # sample times; over the shifted window the product is symmetric.
        n = 6
        part = gf.make_partition(0.0, 1.0, n)
        centred = part.points + 0.5 * part.step  # midpoints symmetric about 1/2
        u = per_cell_product(gf.Scheme.SYMMETRIC, model, centred, part.step)
        assert np.allclose(u, u.T, atol=1e-13)


class TestReferencePropagator:
    def test_matches_exact_scalar(self, scalar_linear):
        ref = gf.reference_propagator(scalar_linear, 0.0, 1.0, 1e-10)
        assert abs(ref.U[0, 0] - math.exp(-1.5)) <= 1e-10

    def test_matches_exact_commuting(self, commuting_linear):
        ref = gf.reference_propagator(commuting_linear, 0.0, 1.0, 1e-11)
        err = gf.trace_norm(ref.U - commuting_linear.exact(0.0, 1.0))
        assert err <= 1e-11

    def test_subinterval(self, commuting_linear):
        ref = gf.reference_propagator(commuting_linear, 0.3, 0.9, 1e-11)
        err = gf.trace_norm(ref.U - commuting_linear.exact(0.3, 0.9))
        assert err <= 1e-11

    def test_rotating_cross_validated(self):
        model = make_rotating(dim=3, seed=2)
        ref = gf.reference_propagator(model, 0.1, 0.45, 1e-9)
        assert gf.opnorm(ref.U) <= 1.0
        assert "reference" in ref.method
        assert_agrees_with_series(model, ref, 1e-9)

    def test_tolerance_validation(self, scalar_linear):
        with pytest.raises(gf.ValidationError):
            gf.reference_propagator(scalar_linear, 0.0, 1.0, tol=0.0)


def _equal_results(a, b) -> bool:
    return np.array_equal(a.U, b.U) and a.method == b.method


class TestReferenceMemo:
    """The oracle memoizes CF4 products per piece between breakpoints and n;
    ``cf4_products`` lists the products that miss the memo.  rotating_small
    has its kink at t0 = 0.5."""

    def test_repeated_call_reuses_result(self, rotating_small, cf4_products):
        first = gf.reference_propagator(rotating_small, 0.0, 0.5, 1e-9)
        computed = len(cf4_products)
        second = gf.reference_propagator(rotating_small, 0.0, 0.5, 1e-9)
        assert len(cf4_products) == computed
        assert _equal_results(second, first)

    def test_cached_u_is_read_only(self, rotating_small):
        ref = gf.reference_propagator(rotating_small, 0.0, 0.5, 1e-9)
        with pytest.raises(ValueError):
            ref.U[0, 0] = 0.0

    def test_new_tolerance_window_or_model_recomputes(self, rotating_small, cf4_products):
        def levels(s, t, tol, model=rotating_small):
            before = len(cf4_products)
            gf.reference_propagator(model, s, t, tol)
            return sorted({n for _, _, n in cf4_products[before:]})

        assert levels(0.0, 0.5, 1e-9) == [8, 16, 32, 64, 128]
        assert levels(0.0, 0.5, 1e-8) == []
        assert levels(0.0, 0.5, 1e-11) == [256, 512]
        assert levels(0.5, 1.0, 1e-9) == [8, 16, 32, 64, 128]
        assert levels(0.0, 0.5, 1e-9, make_rotating(dim=4, seed=11)) == [8, 16, 32, 64, 128]
        # Only the other model's products repeat a (lo, hi, n).
        assert len(set(cf4_products)) == len(cf4_products) - 5

    def test_three_scheme_run_computes_oracle_once(self, rotating_small, cf4_products):
        gf.run_convergence(rotating_small, gf.Scheme.LEFT, 0.0, 1.0, [4, 8, 16],
                           tol_ref=1e-9)
        computed = list(cf4_products)
        for scheme in (gf.Scheme.RIGHT, gf.Scheme.SYMMETRIC):
            gf.run_convergence(rotating_small, scheme, 0.0, 1.0, [4, 8, 16], tol_ref=1e-9)
        assert cf4_products == computed
        assert {(lo, hi) for lo, hi, _ in computed} == {(0.0, 0.5), (0.5, 1.0)}
        assert len(set(computed)) == len(computed)

    def test_failure_is_computed_once_and_reraised(self, rotating_small, cf4_products,
                                                   monkeypatch):
        monkeypatch.setattr(propagator, "REFERENCE_DOUBLINGS", 1)
        errors = []
        for scheme in gf.Scheme:
            with pytest.raises(gf.AccuracyError) as caught:
                gf.run_convergence(rotating_small, scheme, 0.0, 1.0, [4, 8, 16],
                                   tol_ref=1e-12)
            errors.append(caught.value)
        assert sorted(cf4_products) == [(0.0, 0.5, 8), (0.0, 0.5, 16),
                                        (0.5, 1.0, 8), (0.5, 1.0, 16)]
        assert len({(str(e), e.requested, e.achieved) for e in errors}) == 1
        assert "reference propagator" in str(errors[0])

    def test_whole_window_after_its_pieces_computes_no_new_product(self, rotating_small,
                                                                   cf4_products):
        gf.reference_propagator(rotating_small, 0.0, 0.5, 1e-9)
        gf.reference_propagator(rotating_small, 0.5, 1.0, 1e-9)
        computed = len(cf4_products)
        whole = gf.reference_propagator(rotating_small, 0.0, 1.0, 1e-9)
        assert len(cf4_products) == computed
        fresh = gf.reference_propagator(make_rotating(dim=4, seed=11), 0.0, 1.0, 1e-9)
        assert len(cf4_products) > computed
        assert _equal_results(whole, fresh)

    def test_window_past_the_kink_reuses_the_pieces_before_it(self, rotating_small,
                                                              cf4_products):
        gf.reference_propagator(rotating_small, 0.0, 0.5, 1e-9)
        computed = len(cf4_products)
        longer = gf.reference_propagator(rotating_small, 0.0, 0.5751, 1e-9)
        assert cf4_products[computed:]
        assert all((lo, hi) == (0.5, 0.5751) for lo, hi, _ in cf4_products[computed:])
        fresh = gf.reference_propagator(make_rotating(dim=4, seed=11), 0.0, 0.5751, 1e-9)
        assert _equal_results(longer, fresh)

    def test_failing_window_reraises_an_equal_error_from_the_memo(self, rotating_small,
                                                                  cf4_products,
                                                                  monkeypatch):
        monkeypatch.setattr(propagator, "REFERENCE_DOUBLINGS", 2)
        errors = []
        for _ in range(2):
            with pytest.raises(gf.AccuracyError) as caught:
                gf.reference_propagator(rotating_small, 0.0, 1.0, 1e-13)
            errors.append((str(caught.value), caught.value.requested,
                           caught.value.achieved, len(cf4_products)))
        assert errors[0] == errors[1]
        assert errors[0][3] == 6


def _kinked_rotating(dim: int = 16) -> "gf.Model":
    """Dense coupling with the envelope's kink at t0 = 0.37 (beta = 1)."""
    b0 = random_symmetric_psd(np.random.default_rng(42), dim)
    return gf.rotating_model(np.linspace(1.0, 4.0, dim), b0, np.pi, beta=1.0, t0=0.37)


class TestReferenceBreakpoints:
    def test_commuting_kink_matches_exact(self):
        lambdas = np.linspace(1.0, 8.0, 8)
        d0 = np.random.default_rng(3).permutation(np.linspace(0.1, 1.0, 8))
        model = gf.commuting_model(lambdas, d0, gf.kink_profile(0.37, 1.0, offset=0.5))
        ref = gf.reference_propagator(model, 0.0, 1.0, 1e-10)
        assert gf.trace_norm(ref.U - model.exact(0.0, 1.0)) <= 1e-10

    def test_rotating_kink_reaches_tolerance(self):
        model = _kinked_rotating()
        ref = gf.reference_propagator(model, 0.0, 1.0, 1e-10)
        assert_agrees_with_series(model, ref, 1e-10)
        early = gf.reference_propagator(model, 0.0, 0.37, 2e-11)
        late = gf.reference_propagator(model, 0.37, 1.0, 2e-11)
        assert gf.trace_norm(ref.U - late.U @ early.U) <= 1e-10

    def test_kinked_rotating_at_low_regularity_needs_few_cells(self):
        # beta = 0.5: graded cells keep CF4 at order 4 through the kink
        b0 = random_symmetric_psd(np.random.default_rng(42), 16)
        model = gf.rotating_model(np.linspace(1.0, 4.0, 16), b0, np.pi, beta=0.5, t0=0.37)
        ref = gf.reference_propagator(model, 0.0, 1.0, 1e-10)
        n = int(re.search(r"n=(\d+)", ref.method).group(1))
        assert n <= 512

    def test_stops_at_the_rounding_floor(self, cf4_products):
        with pytest.raises(gf.AccuracyError) as caught:
            gf.reference_propagator(_kinked_rotating(4), 0.0, 1.0, 1e-16)
        assert caught.value.achieved > caught.value.requested
        assert len({n for _, _, n in cf4_products}) - 1 < propagator.REFERENCE_DOUBLINGS
        assert "stopped converging" in str(caught.value)

    @pytest.mark.parametrize("doublings", [0, 1, 2, 3])
    def test_failure_reports_more_than_requested(self, doublings, monkeypatch):
        monkeypatch.setattr(propagator, "REFERENCE_DOUBLINGS", doublings)
        with pytest.raises(gf.AccuracyError) as caught:
            gf.reference_propagator(_kinked_rotating(4), 0.0, 1.0, 1e-13)
        assert caught.value.achieved > caught.value.requested


def _kink_models(beta: float, t0: float = 0.37) -> list:
    """Scalar and commuting d=8 models whose coupling kinks at t0 with order
    beta, declared, so the oracle grades its cells."""
    profile = gf.kink_profile(t0, beta, offset=0.5)
    d0 = np.random.default_rng(3).permutation(np.linspace(0.1, 1.0, 8))
    return [gf.scalar_model(1.0, profile, beta=beta),
            gf.commuting_model(np.linspace(1.0, 8.0, 8), d0, profile, beta=beta)]


class TestReferenceAgainstExact:
    """The oracle against closed forms, not only its own self-convergence."""

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("window", [(0.0, 1.0), (0.0, 0.37), (0.37, 1.0), (0.1, 0.9)])
    def test_kinked_models_meet_the_tolerance(self, beta, window):
        s, t = window
        for model in _kink_models(beta):
            ref = gf.reference_propagator(model, s, t, 1e-10)
            assert gf.trace_norm(ref.U - model.exact(s, t)) <= 1e-10

    def test_error_estimate_tracks_the_true_error(self):
        # fourth order: the reported estimate is the true error within 2x
        for model in _kink_models(0.5):
            ref = gf.reference_propagator(model, 0.0, 1.0, 1e-10)
            estimate = float(re.search(r"diff=([0-9.e+-]+)", ref.method).group(1))
            error = gf.trace_norm(ref.U - model.exact(0.0, 1.0))
            assert 0.5 * estimate <= error <= 2.0 * estimate

    def test_undeclared_kink_converges_slowly_but_meets_the_tolerance(self):
        # declared beta = 1 over a beta = 0.5 kink: uniform cells, order ~1.5,
        # so the estimate must use the observed ratio, not 1/15
        model = gf.commuting_model([1.0, 2.0], [0.3, 0.2], gf.kink_profile(0.4, 0.5),
                                   beta=1.0)
        assert model.perturbation.beta == 1.0
        ref = gf.reference_propagator(model, 0.0, 1.0, 1e-8)
        assert gf.trace_norm(ref.U - model.exact(0.0, 1.0)) <= 1e-8

    def test_rotating_model_without_rotation_matches_the_commuting_one(self):
        # omega = 0 and a diagonal b0: B(t) = (1 + |t - t0|^beta) diag(b0)
        lambdas, b0 = np.linspace(1.0, 4.0, 6), np.linspace(0.2, 0.9, 6)
        rotating = gf.rotating_model(lambdas, b0, 0.0, beta=0.5, t0=0.37)
        exact = gf.commuting_model(lambdas, b0, gf.kink_profile(0.37, 0.5, offset=1.0),
                                   beta=0.5)
        ref = gf.reference_propagator(rotating, 0.0, 1.0, 1e-10)
        assert gf.trace_norm(ref.U - exact.exact(0.0, 1.0)) <= 1e-10


class TestHorizon:
    def test_product_past_horizon_rejected(self, rotating_small):
        with pytest.raises(gf.TimeRangeError):
            gf.product_approximant(gf.Scheme.LEFT, rotating_small, 0.0, 3.0, 8)

    def test_product_before_zero_rejected(self, scalar_linear):
        with pytest.raises(gf.TimeRangeError):
            gf.product_approximant(gf.Scheme.SYMMETRIC, scalar_linear, -0.5, 0.5, 8)

    def test_reference_outside_horizon_rejected(self, rotating_small):
        with pytest.raises(gf.TimeRangeError):
            gf.reference_propagator(rotating_small, 0.5, 1.5, 1e-8)
        with pytest.raises(gf.TimeRangeError):
            gf.reference_propagator(rotating_small, -0.1, 0.5, 1e-8)

    def test_residual_outside_horizon_rejected(self, scalar_linear):
        with pytest.raises(gf.TimeRangeError):
            gf.integral_equation_residual(scalar_linear.exact, scalar_linear, 0.5, 1.5)
        with pytest.raises(gf.TimeRangeError):
            gf.integral_equation_residual(scalar_linear.exact, scalar_linear, -0.5, 0.5)

    @pytest.mark.parametrize("t_k", [7.0, -0.1])
    def test_spectral_sample_outside_horizon_rejected(self, t_k):
        model = gf.commuting_model([1.0, 2.0], [0.3, 0.2], gf.kink_profile(0.5, 0.5))
        assert model.perturbation.spectral is not None
        with pytest.raises(gf.TimeRangeError):
            gf.perturbation_entries(model, np.array([t_k]))

    def test_whole_horizon_accepted(self, scalar_linear):
        gf.product_approximant(gf.Scheme.RIGHT, scalar_linear, 0.0, 1.0, 4)

    WINDOWED = {
        "product_approximant":
            lambda m, s, t: gf.product_approximant(gf.Scheme.LEFT, m, s, t, 4),
        "reference_propagator": lambda m, s, t: gf.reference_propagator(m, s, t, 1e-8),
        "integral_equation_residual":
            lambda m, s, t: gf.integral_equation_residual(m.exact, m, s, t),
        "dyson_phillips_term": lambda m, s, t: gf.dyson_phillips_term(m, s, t, 1),
        "dyson_phillips_sum": lambda m, s, t: gf.dyson_phillips_sum(m, s, t, 1e-8),
        "contraction_coefficient": lambda m, s, t: gf.contraction_coefficient(m, s, t),
        "estimate_constants": lambda m, s, t: gf.estimate_constants(m, s, t),
    }

    @pytest.mark.parametrize("name", sorted(WINDOWED))
    @pytest.mark.parametrize("s, t", [(0.6, 0.4), (0.5, 0.5), (math.nan, 0.5),
                                      (0.0, math.inf), (-math.inf, 0.5)])
    def test_window_must_be_finite_and_ordered(self, scalar_linear, name, s, t):
        # one check, before any work: not the quadrature's "a < b", and not a
        # horizon error for an infinite end
        with pytest.raises(gf.ValidationError, match="s < t|finite") as info:
            self.WINDOWED[name](scalar_linear, s, t)
        assert not isinstance(info.value, gf.TimeRangeError)

    def test_sample_times_include_both_ends(self, scalar_linear):
        assert gf.perturbation_entries(scalar_linear, np.array([0.0, 1.0])).shape == (2, 1, 1)
        with pytest.raises(gf.ValidationError, match="finite") as info:
            gf.perturbation_entries(scalar_linear, np.array([0.5, math.nan]))
        assert not isinstance(info.value, gf.TimeRangeError)
        with pytest.raises(gf.TimeRangeError, match=re.escape("times [0.5, 1.5] outside")):
            gf.perturbation_entries(scalar_linear, np.array([0.5, 1.5]))


class TestIntegralEquationResidual:
    def test_exact_scalar_satisfies_equation(self, scalar_linear):
        residual = gf.integral_equation_residual(
            scalar_linear.exact, scalar_linear, 0.0, 1.0, gf.QuadratureSpec())
        assert residual <= 1e-9

    def test_exact_commuting_satisfies_equation(self, commuting_linear):
        residual = gf.integral_equation_residual(
            commuting_linear.exact, commuting_linear, 0.0, 1.0, gf.QuadratureSpec())
        assert residual <= 1e-9

    def test_kinked_model_converges_on_graded_panels(self):
        # the commuting d=8 model of the series benchmark: uniform panels
        # doubled through the kink to 4096 panels
        lambdas = np.linspace(1.0, 8.0, 8)
        d0 = np.random.default_rng(1).permutation(np.linspace(0.1, 1.0, 8))
        model = gf.commuting_model(lambdas, d0, gf.kink_profile(0.37, 0.5, offset=0.5),
                                   beta=0.5)
        panels = []
        original = quadrature.panel_nodes

        def counted(a, b, n_panels, *args, **kwargs):
            panels.append(n_panels)
            return original(a, b, n_panels, *args, **kwargs)

        with mock.patch.object(quadrature, "panel_nodes", counted):
            residual = gf.integral_equation_residual(model.exact, model, 0.0, 1.0)
        assert residual <= 1e-9
        assert max(panels) <= 64

    def test_crude_approximant_has_visible_residual(self, scalar_linear):
        def crude(s, t):
            return gf.product_approximant(gf.Scheme.LEFT, scalar_linear, s, t, 1).U

        residual = gf.integral_equation_residual(
            crude, scalar_linear, 0.0, 1.0, gf.QuadratureSpec())
        assert residual > 1e-3
