"""Perturbation-series terms and partial sums with an estimated tail.

Frozen oracles for a = 1 scalar problems:
- constant b = c on [s, t] with D = t - s:  S_k = e^{-D} (-cD)^k / k!
- linear b(r) = r:  S_1(0, t) = -e^{-t} t^2 / 2  (integral of r dr)
- commuting diagonal family: S_1(s, t) = -diag(d0) e^{-(t-s) lambda} int_s^t b
"""
import math
import tracemalloc

import numpy as np
import pytest

import gibbsflow as gf
from gibbsflow import dyson
from gibbsflow.dyson import _CollocationGrid
from gibbsflow.propagator import _batch_length

from conftest import make_rotating


class TestSeriesTerms:
    def test_scalar_constant_b_all_orders(self, scalar_const):
        # S_k(0,1) = e^{-1} (-0.4)^k / k!
        c = 0.4
        for k in range(7):
            term = gf.dyson_phillips_term(scalar_const, 0.0, 1.0, k)
            expected = math.exp(-1.0) * (-c) ** k / math.factorial(k)
            assert term[0, 0] == pytest.approx(expected, abs=1e-13)

    def test_scalar_constant_b_subinterval(self, scalar_const):
        c, s, t = 0.4, 0.25, 0.85
        d = t - s
        for k in range(4):
            term = gf.dyson_phillips_term(scalar_const, s, t, k)
            expected = math.exp(-d) * (-c * d) ** k / math.factorial(k)
            assert term[0, 0] == pytest.approx(expected, abs=1e-13)

    def test_scalar_linear_first_order(self, scalar_linear):
        # S_1(0, t) = -e^{-t} int_0^t r dr = -e^{-t} t^2/2
        for t in (0.5, 1.0):
            term = gf.dyson_phillips_term(scalar_linear, 0.0, t, 1)
            assert term[0, 0] == pytest.approx(-math.exp(-t) * t * t / 2.0, abs=1e-13)

    def test_commuting_first_order(self, commuting_linear):
        # diagonal: S_1 = -d0_i e^{-(t-s) lambda_i} int_s^t b(r) dr
        term = gf.dyson_phillips_term(commuting_linear, 0.0, 1.0, 1)
        expected = np.diag([-2.0 * math.exp(-1.0) * 0.5,
                            -1.0 * math.exp(-3.0) * 0.5])
        assert np.allclose(term, expected, atol=1e-13)

    def test_zeroth_order_is_heat_factor(self, commuting_small):
        term = gf.dyson_phillips_term(commuting_small, 0.0, 1.0, 0)
        assert np.allclose(term, gf.heat(commuting_small.generator, 1.0), atol=1e-15)

    def test_term_norm_bound(self, scalar_const):
        # ||S_k||_1 <= xi^k / k!-free bound: xi^k with xi = 0.4
        xi = 0.4
        for k in range(1, 6):
            term = gf.dyson_phillips_term(scalar_const, 0.0, 1.0, k)
            assert gf.trace_norm(term) <= xi ** k + 1e-12

    def test_order_validation(self, scalar_const):
        with pytest.raises(gf.ValidationError):
            gf.dyson_phillips_term(scalar_const, 0.0, 1.0, -1)
        with pytest.raises(gf.ValidationError):
            gf.dyson_phillips_term(scalar_const, 0.0, 1.0, 41)
        with pytest.raises(gf.ValidationError):
            gf.dyson_phillips_term(scalar_const, 1.0, 1.0, 1)

    @pytest.mark.parametrize("k", [True, False, 1.0])
    def test_order_must_be_an_integer(self, scalar_const, k):
        with pytest.raises(gf.ValidationError, match="k must be an integer"):
            gf.dyson_phillips_term(scalar_const, 0.0, 1.0, k)


class TestCertifiedSum:
    def test_scalar_constant_matches_exact(self, scalar_const):
        result = gf.dyson_phillips_sum(scalar_const, 0.0, 1.0, 1e-10)
        exact = scalar_const.exact(0.0, 1.0)
        assert abs(result.U[0, 0] - exact[0, 0]) <= result.tail_bound + 1e-9
        assert result.tail_bound <= 1e-10

    def test_commuting_matches_exact(self, commuting_small):
        result = gf.dyson_phillips_sum(commuting_small, 0.0, 1.0, 1e-10)
        err = gf.trace_norm(result.U - commuting_small.exact(0.0, 1.0))
        assert err <= result.tail_bound + 1e-9

    def test_rotating_matches_reference(self):
        model = make_rotating(dim=3, seed=9)
        # short interval keeps xi < 1/2 without bisection
        result = gf.dyson_phillips_sum(model, 0.2, 0.4, 1e-8)
        ref = gf.reference_propagator(model, 0.2, 0.4, 1e-9)
        err = gf.opnorm(result.U - ref.U)
        assert err <= result.tail_bound + 1e-7

    @pytest.mark.parametrize("t, eps_tail", [(0.5, 1e-6), (1.0, 1e-8)])
    def test_pre_asymptotic_growth_of_the_panel_differences(self, t, eps_tail):
        # on this short kinked model a subinterval's second panel-doubling
        # difference grows (1.1e-8 to 9.9e-8) before refinement converges
        g = np.random.default_rng(5).standard_normal((5, 5))
        model = gf.rotating_model(np.linspace(1.0, 3.0, 5), g @ g.T / 5, 2.0, beta=0.5,
                                  t0=0.3, alpha=0.3)
        result = gf.dyson_phillips_sum(model, 0.0, t, eps_tail)
        ref = gf.reference_propagator(model, 0.0, t, 1e-10)
        quad_tol = min(eps_tail / 10.0, 1e-8)
        assert gf.trace_norm(result.U - ref.U) <= result.tail_bound + 10 * quad_tol

    def test_bisection_on_large_interval(self, scalar_linear):
        # xi = 1 on [0, 1] forces composition of subinterval sums
        result = gf.dyson_phillips_sum(scalar_linear, 0.0, 1.0, 1e-10)
        assert abs(result.U[0, 0] - math.exp(-1.5)) <= result.tail_bound + 1e-8
        assert "bisect" in result.method

    def test_eps_tail_validation(self, scalar_const):
        with pytest.raises(gf.ValidationError):
            gf.dyson_phillips_sum(scalar_const, 0.0, 1.0, 0.0)

    def test_unresolvable_coupling_raises_config_error(self):
        # a coupling this large keeps xi >= 1/2 past the bisection depth cap
        model = gf.scalar_model(1.0, gf.constant_profile(1e10))
        with pytest.raises(gf.ConfigError):
            gf.dyson_phillips_sum(model, 0.0, 1.0, 1e-8)

    @pytest.mark.xfail(strict=True, reason="tail_bound omits the factor ||e^{-(t-s)A}||_1 "
                       "of the trace norm; a factorial tail bound would make it a bound")
    def test_tail_bound_bounds_the_trace_norm_error_at_dimension_64(self):
        # reported tail 5.0e-2, trace-norm error 5.3e-1
        model = gf.commuting_model(np.linspace(1.0, 8.0, 64), np.ones(64),
                                   gf.constant_profile(1.0))
        result = gf.dyson_phillips_sum(model, 0.0, 0.2, 0.05)
        assert gf.trace_norm(result.U - model.exact(0.0, 0.2)) <= result.tail_bound

    def test_tail_decreases_with_eps(self, scalar_const):
        tails = [gf.dyson_phillips_sum(scalar_const, 0.0, 1.0, eps).tail_bound
                 for eps in (1e-4, 1e-8, 1e-12)]
        assert tails[0] > tails[1] > tails[2]
        assert tails[2] <= 1e-12


class TestCollocationGrid:
    def test_batched_b_matches_per_node_build(self):
        model = make_rotating(dim=6, seed=4)
        grid = _CollocationGrid(model, 0.1, 0.9, 16, 16)
        q = grid.q
        assert grid.nodes.size > _batch_length(model.dim)
        expected = np.array([q.T @ gf.perturbation_entries(model, [x])[0] @ q
                             for x in grid.nodes.ravel()]).reshape(grid.nodes.shape + (6, 6))
        assert grid.b_nodes.shape == expected.shape
        assert np.max(np.abs(grid.b_nodes - expected)) <= 1e-15 * np.max(np.abs(expected))

    def test_partial_weights_integrate_the_heat_factor(self):
        # Interpolation rows sum to one, so summing the weights over the
        # panel nodes leaves int_{edge}^{x_i} e^{-(x_i - r) lambda} dr.
        # x_i - edge is h (1 + xi_i) for half-width h; subtracting the
        # stored times would lose digits next to the edge.
        model = make_rotating(dim=6, seed=4)
        grid = _CollocationGrid(model, 0.1, 0.9, 16, 16)
        xi = np.polynomial.legendre.leggauss(16)[0]
        gap = (0.5 * np.diff(grid.edges)[:, None] * (1.0 + xi))[..., None]
        expected = -np.expm1(-gap * grid.lam) / grid.lam
        # partial[m, a, i, k]: panel, eigenvalue, node, Lagrange row
        assert grid.partial.shape == (16, 6, 16, 16)
        summed = np.swapaxes(grid.partial.sum(axis=3), 1, 2)
        assert np.max(np.abs(summed / expected - 1.0)) <= 1e-13

    def test_memory_stays_below_one_node_pair_matrix_array(self):
        # An (M, P, P, d, d) float array is 32 MiB here; the grid and two
        # series levels must fit below it.
        m, p, d = 256, 16, 8
        model = gf.commuting_model(np.linspace(1.0, 8.0, d),
                                   np.random.default_rng(3).permutation(np.linspace(0.1, 1.0, d)),
                                   gf.kink_profile(0.37, 0.5, offset=0.5))
        tracemalloc.start()
        try:
            grid = _CollocationGrid(model, 0.0, 1.0, m, p)
            grid.terms_at_endpoint(2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.nodes.shape == (m, p)
        assert peak < m * p * p * d * d * 8


class TestGradedPanels:
    def test_kinked_term_converges_within_128_panels(self, monkeypatch):
        # beta = 0.5: uniform panels doubled through the kink to 4096
        rng = np.random.default_rng(42)
        q = np.linalg.qr(rng.standard_normal((16, 16)))[0]
        b0 = (q * rng.random(16)) @ q.T
        model = gf.rotating_model(np.linspace(1.0, 4.0, 16), b0, np.pi, beta=0.5, t0=0.37)
        built = []

        class Counted(dyson._CollocationGrid):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(len(self.edges) - 1)

        monkeypatch.setattr(dyson, "_CollocationGrid", Counted)
        term = gf.dyson_phillips_term(model, 0.1, 0.8, 3)
        assert np.all(np.isfinite(term))
        assert max(built) <= 128

    def test_beta_one_keeps_uniform_panels(self):
        model = gf.commuting_model([1.0, 2.0], [0.3, 0.2], gf.kink_profile(0.4, 1.0))
        grid = _CollocationGrid(model, 0.0, 1.0, 10, 4)
        assert np.array_equal(grid.edges, gf.panel_edges(0.0, 1.0, 10, (0.4,)))


class TestHorizon:
    def test_sum_outside_horizon_rejected(self, scalar_const):
        with pytest.raises(gf.TimeRangeError):
            gf.dyson_phillips_sum(scalar_const, 0.5, 1.5, 1e-8)
        with pytest.raises(gf.TimeRangeError):
            gf.dyson_phillips_sum(scalar_const, -0.5, 0.5, 1e-8)

    def test_term_outside_horizon_rejected(self, scalar_const):
        with pytest.raises(gf.TimeRangeError):
            gf.dyson_phillips_term(scalar_const, 0.5, 1.5, 1)
        with pytest.raises(gf.TimeRangeError):
            gf.dyson_phillips_term(scalar_const, -0.5, 0.5, 0)
