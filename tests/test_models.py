"""Model problems: profiles, generator validation, exact propagators.

Frozen oracles (hand-derived):
- integral of |tau - 1/2|^{1/2} over [0, 1] is (4/3)(1/2)^{3/2}
- commuting model lambdas=(1,3), d0=(2,1), b(tau)=tau on [0,1]:
  U(0,1) = diag(e^{-2}, e^{-3.5})
"""
import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbsflow as gf
from gibbsflow import propagator
from gibbsflow.models import diagonal_form

from conftest import make_rotating, random_symmetric_psd

KINK_INTEGRAL_0_1 = (4.0 / 3.0) * 0.5 ** 1.5  # 0.47140452079103173


class TestProfiles:
    def test_constant(self):
        p = gf.constant_profile(0.7)
        assert p.value(0.3) == 0.7
        assert p.integral(0.2, 0.9) == pytest.approx(0.7 * 0.7, abs=1e-15)
        assert p.breakpoints == ()

    def test_linear(self):
        p = gf.linear_profile(2.0, offset=1.0)
        assert p.value(0.5) == pytest.approx(2.0, abs=1e-15)
        assert p.integral(0.0, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_kink_value_and_breakpoint(self):
        p = gf.kink_profile(0.5, 0.5)
        assert p.value(0.5) == 0.0
        assert p.value(0.75) == pytest.approx(0.5, abs=1e-15)
        assert 0.5 in p.breakpoints

    def test_kink_integral_closed_form(self):
        p = gf.kink_profile(0.5, 0.5)
        assert p.integral(0.0, 1.0) == pytest.approx(KINK_INTEGRAL_0_1, abs=1e-15)

    @given(st.floats(0.05, 0.95), st.floats(0.1, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_kink_integral_matches_adaptive_quadrature(self, t0, beta, a, b):
        lo, hi = min(a, b), max(a, b)
        if hi - lo < 1e-6:
            return
        p = gf.kink_profile(t0, beta, scale=1.3, offset=0.2)
        oracle, err = scipy.integrate.quad(
            p.value, lo, hi, points=[t0] if lo < t0 < hi else None, limit=200)
        assert p.integral(lo, hi) == pytest.approx(oracle, abs=max(1e-9, 10 * err))

    def test_declared_beta(self):
        assert gf.kink_profile(0.5, 0.3).beta == 0.3
        assert gf.constant_profile(0.7).beta == gf.linear_profile(2.0).beta == 1.0

    def test_kink_rejects_bad_beta(self):
        with pytest.raises(gf.ModelError):
            gf.kink_profile(0.5, 0.0)
        with pytest.raises(gf.ModelError):
            gf.kink_profile(0.5, 1.5)

    def test_negative_profile_rejected_by_models(self):
        with pytest.raises(gf.ModelError):
            gf.scalar_model(1.0, gf.linear_profile(-1.0, offset=0.0))

    # The minimum of b is at 0, the horizon or a breakpoint, so the screen
    # looks only there; t0 = 0.3337 is on no coarse uniform grid, and the
    # first kink is negative only near it.
    @pytest.mark.parametrize("profile", [
        gf.kink_profile(0.3337, 0.5, offset=-1e-4),
        gf.linear_profile(-1.0, offset=0.5),
        gf.kink_profile(0.5, 0.5, scale=-1.0, offset=0.5),
    ], ids=["kink-negative-at-t0", "linear-negative-slope", "kink-negative-scale"])
    def test_screen_finds_the_minimum(self, profile):
        with pytest.raises(gf.ModelError, match="is negative at"):
            gf.scalar_model(1.0, profile, beta=0.5)

    def test_screen_passes_non_negative_profiles(self):
        assert gf.scalar_model(1.0, gf.kink_profile(0.3337, 0.5, offset=0.0)).dim == 1
        assert gf.rotating_model([1.0, 2.0, 3.0], [0.5, 0.3, 0.8], 3.0, 0.5).dim == 3

    def test_direct_profile_keeps_the_screen_exact(self):
        with pytest.raises(gf.ModelError, match="negative scale needs slope 0"):
            gf.TimeProfile("p", offset=1.0, slope=0.1, scale=-0.5, t0=0.5, breakpoints=(0.5,))
        with pytest.raises(gf.ModelError, match="needs t0 among the breakpoints"):
            gf.TimeProfile("p", offset=-0.1, scale=1.0, t0=0.5)
        with pytest.raises(gf.ModelError, match="beta in"):
            gf.TimeProfile("p", offset=1.0, beta=1.5)

    @pytest.mark.parametrize("profile", [
        gf.constant_profile(0.7), gf.linear_profile(2.0, 1.0), gf.kink_profile(0.5, 0.5, 1.3, 0.2),
    ], ids=["constant", "linear", "kink"])
    @pytest.mark.parametrize("ts", [np.asarray(0.3), np.linspace(0.0, 1.0, 7),
                                    np.linspace(0.0, 1.0, 12).reshape(3, 4)],
                             ids=["0-d", "1-d", "2-d"])
    def test_value_is_an_array_shaped_like_the_times(self, profile, ts):
        values = profile.value(ts)
        assert isinstance(values, np.ndarray) and values.shape == ts.shape
        assert np.array_equal(values.ravel(), [profile.value(float(t)) for t in ts.ravel()])

    def test_labels_and_breakpoints_follow_the_constructor(self):
        assert gf.linear_profile(0.0, 0.3).label == "linear(slope=0, offset=0.3)"
        flat_kink = gf.kink_profile(0.4, 1.0, scale=0.0)
        assert flat_kink.breakpoints == (0.4,)
        assert flat_kink.label == "kink(t0=0.4, beta=1, scale=0, offset=0)"
        assert gf.constant_profile(0.4).breakpoints == ()


class TestGenerator:
    def test_requires_spectrum_at_least_one(self):
        with pytest.raises(gf.ModelError):
            gf.Generator(np.diag([0.5, 2.0]))

    def test_heat_matches_expm(self, rng):
        m = random_symmetric_psd(rng, 5, scale=2.0) + 1.1 * np.eye(5)
        g = gf.Generator(m)
        assert np.allclose(g.heat(0.4), scipy.linalg.expm(-0.4 * m), atol=1e-12)

    def test_eigenvalues_sorted(self):
        g = gf.Generator(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(g.eigenvalues, [1.0, 2.0, 3.0])


class TestDiagonalForm:
    def test_declared_families_on_a_diagonal_generator(self, commuting_small, rotating_small):
        scalar = gf.scalar_model(1.5, gf.kink_profile(0.4, 0.5))
        for model in (scalar, commuting_small):
            assert diagonal_form(model) is model.perturbation.spectral
        assert np.array_equal(commuting_small.generator.diagonal, [1.0, 2.0, 3.0])
        # diagonal A, but B(t) rotates: its spectral form has a basis
        assert rotating_small.generator.diagonal is not None
        assert diagonal_form(rotating_small) is None

    def test_dense_generator_has_no_diagonal_form(self, commuting_small):
        dense = gf.Generator(np.array([[2.0, 0.5, 0.0], [0.5, 3.0, 0.0], [0.0, 0.0, 1.0]]))
        model = dataclasses.replace(commuting_small, generator=dense)
        assert dense.diagonal is None and diagonal_form(model) is None


class TestScalarModel:
    def test_exact_value(self, scalar_linear):
        # U(0,1) = exp(-1 - int_0^1 tau dtau) = e^{-3/2}
        assert scalar_linear.exact(0.0, 1.0)[0, 0] == pytest.approx(
            math.exp(-1.5), abs=1e-15)

    def test_exact_subinterval(self, scalar_linear):
        # U(0.2, 0.7) = exp(-0.5 - (0.49 - 0.04)/2)
        expected = math.exp(-0.5 - 0.5 * (0.7 ** 2 - 0.2 ** 2))
        assert scalar_linear.exact(0.2, 0.7)[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_requires_a_at_least_one(self):
        with pytest.raises(gf.ModelError):
            gf.scalar_model(0.5, gf.constant_profile(0.0))


class TestCommutingModel:
    def test_exact_hand_computed(self, commuting_linear):
        # diag entries: exp(-1*1 - 2*0.5), exp(-3*1 - 1*0.5)
        u = commuting_linear.exact(0.0, 1.0)
        assert np.allclose(u, np.diag([math.exp(-2.0), math.exp(-3.5)]), atol=1e-15)

    def test_perturbation_values(self, commuting_linear):
        b_half = gf.evaluate_perturbation(commuting_linear, 0.5).entries
        assert np.allclose(b_half, np.diag([1.0, 0.5]), atol=1e-15)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(gf.ModelError):
            gf.commuting_model([1.0, 2.0], [0.1], gf.constant_profile(1.0))

    def test_rejects_negative_d0(self):
        with pytest.raises(gf.ModelError):
            gf.commuting_model([1.0, 2.0], [0.1, -0.2], gf.constant_profile(1.0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_d0(self, bad):
        # the closed forms never pass B through perturbation_entries' check
        with pytest.raises(gf.ModelError, match="finite"):
            gf.commuting_model([1.0, 2.0], [bad, 0.2], gf.constant_profile(1.0))


class TestDeclaredBeta:
    def test_models_declare_the_profile_beta(self):
        kink = gf.kink_profile(0.4, 0.5)
        assert gf.scalar_model(1.0, kink).perturbation.beta == 0.5
        assert gf.scalar_model(1.0, 0.3).perturbation.beta == 1.0
        assert gf.scalar_model(1.0, kink, beta=1.0).perturbation.beta == 1.0
        assert gf.commuting_model([1.0], [0.2], gf.linear_profile(0.5)).perturbation.beta == 1.0

    def test_declared_kink_grades_the_oracle_mesh(self):
        # beta = 1 declared for a kink gave 65 536 uniform cells per piece
        model = gf.commuting_model([1, 2], [0.3, 0.2], gf.kink_profile(0.4, 0.5))
        assert model.perturbation.beta == 0.5 and "beta=0.5" in model.descriptor
        ref = gf.reference_propagator(model, 0.0, 1.0, tol=1e-10)
        assert int(re.search(r"n=(\d+)", ref.method).group(1)) <= 256
        assert np.allclose(ref.U, model.exact(0.0, 1.0), atol=1e-10)


class TestRotatingModel:
    def test_perturbation_psd_and_envelope(self, rotating_small):
        m = rotating_small
        for t in (0.0, 0.25, 0.5, 0.77, 1.0):
            b = gf.evaluate_perturbation(m, t, validate=True)
            w, _ = gf.eigh(b)
            assert w[0] >= -1e-10
        # envelope scales the norm: ||B(t)|| = (1 + |t-t0|^beta) ||b0||
        b0_norm = gf.opnorm(gf.evaluate_perturbation(m, 0.5).entries)
        bt_norm = gf.opnorm(gf.evaluate_perturbation(m, 1.0).entries)
        assert bt_norm == pytest.approx((1.0 + 0.5 ** 0.5) * b0_norm, rel=1e-12)

    def test_t0_is_breakpoint(self, rotating_small):
        assert 0.5 in rotating_small.perturbation.breakpoints

    def test_heat_factor_matches_expm(self, rotating_small):
        m = rotating_small
        tau = 0.03
        for t in (0.1, 0.5, 0.9):
            b = gf.evaluate_perturbation(m, t).entries
            fast = propagator._heat_of_perturbation(m, np.array([t]), tau)[0]
            assert np.allclose(fast, scipy.linalg.expm(-tau * b), atol=1e-12)

    def test_rejects_indefinite_b0(self):
        with pytest.raises(gf.ModelError):
            gf.rotating_model(np.array([1.0, 2.0]), np.diag([1.0, -0.5]),
                              np.pi, beta=0.5)

    def test_no_exact_solution(self, rotating_small):
        assert rotating_small.exact is None


class TestBatchedHeatFactor:
    @pytest.mark.parametrize("build", [
        lambda: gf.scalar_model(1.0, gf.linear_profile(1.0)),
        lambda: gf.scalar_model(1.0, gf.constant_profile(0.4)),
        lambda: gf.commuting_model([1.0, 2.0, 3.0], [0.3, 0.2, 0.1],
                                   gf.kink_profile(0.4, 0.5)),
        lambda: gf.commuting_model([1.0, 2.0], [0.3, 0.2], gf.constant_profile(1.0)),
        lambda: make_rotating(dim=5, seed=3),
    ])
    def test_array_of_times_stacks_single_times(self, build):
        model = build()
        ts = np.array([0.0, 0.13, 0.4, 0.5, 0.77, 1.0])
        tau = 0.05
        form = model.perturbation.spectral
        assert form.profile.value(ts).shape == ts.shape and form.mu.shape == (model.dim,)
        assert (form.frame(ts) is None) == model.descriptor.startswith(("scalar", "commuting"))
        batched = propagator._heat_of_perturbation(model, ts, tau)
        assert batched.shape == (ts.size, model.dim, model.dim)
        for t, factor in zip(ts, batched):
            single = propagator._heat_of_perturbation(model, np.array([t]), tau)
            assert single.shape == (1, model.dim, model.dim)
            assert np.allclose(factor, single[0], rtol=0, atol=1e-15)
            spectral = gf.heat(gf.evaluate_perturbation(model, float(t)), tau)
            assert np.allclose(factor, spectral, rtol=0, atol=1e-13)


class TestBatchedEntries:
    FAMILIES = [
        lambda: gf.scalar_model(1.0, gf.kink_profile(0.4, 0.5, offset=0.1), beta=0.5),
        lambda: gf.scalar_model(1.0, gf.constant_profile(0.4)),
        lambda: gf.commuting_model([1.0, 2.0, 3.0], [0.3, 0.2, 0.1],
                                   gf.kink_profile(0.4, 0.5), beta=0.5),
        lambda: make_rotating(dim=5, seed=3),
    ]
    # 0, the horizon and each family's breakpoint (0.4 or 0.5) among them
    TIMES = np.array([0.0, 0.13, 0.4, 0.5, 0.77, 1.0])

    @staticmethod
    def _formula(model, ts):
        """B from the spectral form's formula, before any check."""
        form = model.perturbation.spectral
        return gf.eigen_entries(form.profile.value(ts)[..., None] * form.mu, form.frame(ts))

    @pytest.mark.parametrize("build", FAMILIES)
    def test_batch_matches_evaluate(self, build):
        model = build()
        batched = self._formula(model, self.TIMES)
        assert batched.shape == (self.TIMES.size, model.dim, model.dim)
        checked = gf.perturbation_entries(model, self.TIMES)
        for t, raw, b in zip(self.TIMES, batched, checked):
            single = self._formula(model, np.array([t]))[0]
            scale = np.max(np.abs(single))
            assert np.max(np.abs(raw - single)) <= 1e-15 * scale
            assert np.max(np.abs(b - single)) <= 1e-15 * scale
            assert np.array_equal(b, b.T)
            assert np.array_equal(gf.evaluate_perturbation(model, float(t)).entries, b)

    @staticmethod
    def _with_entries(entries):
        model = gf.commuting_model([1.0, 2.0], [0.3, 0.2], gf.constant_profile(1.0))
        return dataclasses.replace(model, perturbation=dataclasses.replace(
            model.perturbation, entries=entries, spectral=None))

    def test_non_finite_entries_rejected(self):
        def entries(ts):
            b = np.zeros((len(ts), 2, 2))
            b[-1, 0, 0] = np.nan
            return b

        with pytest.raises(gf.ValidationError, match="finite"):
            gf.perturbation_entries(self._with_entries(entries), self.TIMES)

    def test_asymmetric_entries_rejected(self):
        def entries(ts):
            b = np.ones((len(ts), 2, 2))
            b[2, 0, 1] += 1e-9
            return b

        with pytest.raises(gf.ValidationError, match="t=0.4"):
            gf.perturbation_entries(self._with_entries(entries), self.TIMES)

    def test_asymmetry_within_tolerance_is_symmetrized(self):
        def entries(ts):
            b = np.ones((len(ts), 2, 2))
            b[:, 0, 1] += 1e-13
            return b

        values = gf.perturbation_entries(self._with_entries(entries), self.TIMES)
        assert np.all(values[:, 0, 1] == values[:, 1, 0])

    def test_wrong_shape_rejected(self):
        with pytest.raises(gf.ValidationError, match="shape"):
            gf.perturbation_entries(self._with_entries(lambda ts: np.ones((2, 2))),
                                    self.TIMES)

    def test_times_outside_horizon_rejected(self, rotating_small):
        with pytest.raises(gf.TimeRangeError):
            gf.perturbation_entries(rotating_small, np.array([0.5, 1.0 + 1e-12]))
        with pytest.raises(gf.TimeRangeError):
            gf.perturbation_entries(rotating_small, np.array([-1e-12, 0.5]))


class TestFamilyContract:
    """A family given only ``entries`` goes through the spectral heat route."""

    DIM, SEED = 5, 3
    ROTATING = make_rotating(dim=DIM, seed=SEED)

    @classmethod
    def _entries_only(cls, entries):
        family = gf.PerturbationFamily(entries=entries, alpha=0.0, beta=0.5,
                                       breakpoints=(0.5,))
        return gf.Model(cls.ROTATING.generator, family)

    @classmethod
    def _rotating_formula(cls, ts):
        # B(t) = (1 + |t - 1/2|^{1/2}) R(pi t) b0 R(pi t)^T, R in the (1, 2) plane
        b0 = random_symmetric_psd(np.random.default_rng(cls.SEED), cls.DIM)
        c, s = np.cos(np.pi * ts), np.sin(np.pi * ts)
        r = np.array(np.broadcast_to(np.eye(cls.DIM), (ts.size, cls.DIM, cls.DIM)))
        r[:, 0, 0], r[:, 0, 1], r[:, 1, 0], r[:, 1, 1] = c, -s, s, c
        envelope = 1.0 + np.abs(ts - 0.5) ** 0.5
        return envelope[:, None, None] * (r @ b0 @ np.swapaxes(r, 1, 2))

    @staticmethod
    def _rel(a, b):
        return gf.opnorm(a - b) / gf.opnorm(b)

    def test_matches_built_in_rotating_model(self):
        user = self._entries_only(self._rotating_formula)
        built = self.ROTATING
        assert user.perturbation.spectral is None
        for scheme in gf.Scheme:
            assert self._rel(gf.product_approximant(scheme, user, 0.0, 1.0, 64).U,
                             gf.product_approximant(scheme, built, 0.0, 1.0, 64).U) <= 1e-12
        # the series and the residual stay off the kink, where quadrature is slow
        assert self._rel(gf.dyson_phillips_sum(user, 0.1, 0.4, 1e-6).U,
                         gf.dyson_phillips_sum(built, 0.1, 0.4, 1e-6).U) <= 1e-12
        ours, theirs = (gf.estimate_constants(m, 0.0, 1.0) for m in (user, built))
        for name in ("c_alpha", "m_alpha", "l_alpha_beta", "xi"):
            assert getattr(ours, name) == pytest.approx(getattr(theirs, name), rel=1e-12)
        residuals = [gf.integral_equation_residual(
            lambda s, r: m.generator.heat(r - s), m, 0.1, 0.4) for m in (user, built)]
        assert residuals[0] == pytest.approx(residuals[1], rel=1e-12)

    def test_family_declares_b_exactly_once(self):
        both = {"entries": self._rotating_formula,
                "spectral": self.ROTATING.perturbation.spectral}
        for given in (both, {}):
            with pytest.raises(gf.ModelError, match="exactly one of entries and spectral"):
                gf.PerturbationFamily(alpha=0.0, beta=0.5, **given)

    def test_spectral_route_rejects_asymmetric_entries(self):
        def entries(ts):
            b = self._rotating_formula(ts)
            b[:, 0, 1] += 1e-6
            return b

        with pytest.raises(gf.ValidationError, match="not symmetric"):
            gf.product_approximant(gf.Scheme.LEFT, self._entries_only(entries), 0.0, 1.0, 8)

    def test_spectral_route_rejects_times_past_horizon(self):
        user = self._entries_only(self._rotating_formula)
        with pytest.raises(gf.TimeRangeError):
            propagator._heat_of_perturbation(user, np.array([1.5]), 0.1)
        with pytest.raises(gf.TimeRangeError):
            gf.perturbation_entries(user, np.array([-0.25]))


# Each built-in family at a given horizon.
BUILDERS_BY_HORIZON = [
    lambda h: gf.scalar_model(1.0, gf.linear_profile(1.0), horizon=h),
    lambda h: gf.commuting_model([1.0, 2.0], [0.1, 0.2], gf.linear_profile(1.0), horizon=h),
    lambda h: gf.rotating_model([1.0, 2.0], [0.5, 0.3], 1.0, 1.0, horizon=h),
]
BUILDER_IDS = ["scalar", "commuting", "rotating"]


class TestTimeValidation:
    def test_outside_horizon(self, scalar_linear):
        with pytest.raises(gf.TimeRangeError):
            gf.evaluate_perturbation(scalar_linear, 1.5, validate=True)
        with pytest.raises(gf.TimeRangeError):
            gf.evaluate_perturbation(scalar_linear, -0.1, validate=True)

    def test_inside_horizon_ok(self, scalar_linear):
        gf.evaluate_perturbation(scalar_linear, 1.0, validate=True)

    def test_bad_horizon(self):
        with pytest.raises(gf.ModelError):
            gf.scalar_model(1.0, gf.constant_profile(0.0), horizon=0.0)

    @pytest.mark.parametrize("build", BUILDERS_BY_HORIZON, ids=BUILDER_IDS)
    def test_infinite_horizon_is_rejected_before_the_profile_screen(self, build):
        # The profile screen would otherwise evaluate b at t = inf.
        with pytest.raises(gf.ModelError, match="horizon must be positive and finite"):
            build(float("inf"))

    @pytest.mark.parametrize("build", BUILDERS_BY_HORIZON, ids=BUILDER_IDS)
    def test_nan_horizon_is_named(self, build):
        # The rotating t0 = 0.5 is checked against the horizon after it.
        with pytest.raises(gf.ModelError, match="horizon must be positive and finite, got nan"):
            build(float("nan"))


BUILT_IN = {
    "scalar-number": (lambda: gf.scalar_model(2.0, 0.5),
                      "scalar(a=2, b=const(0.5), alpha=0, beta=1)", (), (0.0, 1.0)),
    "scalar-kink": (lambda: gf.scalar_model(1.5, gf.kink_profile(0.3, 0.75, 2.0, 0.25),
                                            alpha=0.2),
                    "scalar(a=1.5, b=kink(t0=0.3, beta=0.75, scale=2, offset=0.25), "
                    "alpha=0.2, beta=0.75)", (0.3,), (0.2, 0.75)),
    "commuting-kink-at-horizon": (
        lambda: gf.commuting_model([1.0, 2.0, 3.0], [0.1, 0.2, 0.3],
                                   gf.kink_profile(2.0, 0.5), beta=0.25, horizon=2.0),
        "commuting(dim=3, b=kink(t0=2, beta=0.5, scale=1, offset=0), alpha=0, beta=0.25)",
        (), (0.0, 0.25)),
    "rotating": (lambda: gf.rotating_model([1.0, 2.0, 3.0], [0.5, 0.3, 0.8], 3.0, 0.5),
                 "rotating(dim=3, omega=3, t0=0.5, alpha=0, beta=0.5)", (0.5,), (0.0, 0.5)),
    "rotating-t0-at-zero": (
        lambda: gf.rotating_model([1.0, 2.0], [0.5, 0.3], 1.0, 1.0, t0=0.0, alpha=0.5),
        "rotating(dim=2, omega=1, t0=0, alpha=0.5, beta=1)", (), (0.5, 1.0)),
}


class TestSpectralBuilder:
    """The built-in constructors reach ``Model`` through one builder and keep
    their descriptors, breakpoints and declared (alpha, beta)."""

    @pytest.mark.parametrize("key", list(BUILT_IN))
    def test_descriptor_breakpoints_and_exponents(self, key):
        build, descriptor, breakpoints, exponents = BUILT_IN[key]
        model = build()
        family = model.perturbation
        assert model.descriptor == descriptor
        assert family.breakpoints == breakpoints
        assert (family.alpha, family.beta) == exponents
        assert (model.exact is None) == key.startswith("rotating")

    @pytest.mark.parametrize("key", list(BUILT_IN))
    def test_every_constructor_goes_through_the_builder(self, key, monkeypatch):
        from gibbsflow import models

        built = []
        builder = models._spectral_model

        def recording(*args):
            built.append(builder(*args))
            return built[-1]

        monkeypatch.setattr(models, "_spectral_model", recording)
        assert BUILT_IN[key][0]() is built[0] and len(built) == 1
