"""Rate regimes, convergence fitting, and the structural inequality checks.

Frozen oracles:
- log regime: eps(10) = ln(10)/10 = 0.23025850929940458
- synthetic errors 3/n fit slope -1 with r^2 = 1
- ln(n)/n on n = 8..1024 fits an apparent slope strictly inside (-1, -0.7)
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbsflow as gf
from gibbsflow import propagator
from gibbsflow.analysis import (
    INEQUALITY_SLACK,
    LEMMA21_BLOCK,
    _framed_sides,
    _haar,
    _lemma21_arrays,
    _lemma21_sides,
)
from gibbsflow.linalg import opnorm, singular_values, trace_norm

from conftest import make_rotating, python_output


class TestRegimes:
    def test_lipschitz_headline(self):
        regimes = gf.applicable_regimes(0.0, 1.0)
        assert regimes[0].kind is gf.RegimeKind.LIPSCHITZ_LOG
        assert regimes[0].epsilon(10) == pytest.approx(0.23025850929940458, abs=1e-16)

    def test_lipschitz_high_alpha_added(self):
        regimes = gf.applicable_regimes(0.6, 1.0)
        kinds = [r.kind for r in regimes]
        assert kinds == [gf.RegimeKind.LIPSCHITZ_LOG,
                         gf.RegimeKind.LIPSCHITZ_HIGH_ALPHA]
        assert regimes[1].epsilon(16) == pytest.approx(16.0 ** -0.4, rel=1e-14)

    def test_hoelder_dominated(self):
        # beta > 2 alpha - 1 > 0
        regimes = gf.applicable_regimes(0.6, 0.5)
        assert regimes[0].kind is gf.RegimeKind.HOELDER_DOMINATED
        assert regimes[0].epsilon(9) == pytest.approx(9.0 ** -0.5, rel=1e-14)
        assert [r.kind for r in regimes] == [gf.RegimeKind.HOELDER_DOMINATED]

    def test_general_gap(self):
        regimes = gf.applicable_regimes(0.2, 0.5)
        assert regimes[0].kind is gf.RegimeKind.GENERAL_GAP
        assert regimes[0].epsilon(8) == pytest.approx(8.0 ** -0.3, rel=1e-14)

    def test_no_known_rate(self):
        with pytest.raises(gf.NoKnownRateError):
            gf.select_regime(0.9, 0.5)
        assert gf.applicable_regimes(0.9, 0.5) == ()

    def test_log_rate_needs_n_at_least_two(self):
        regime = gf.select_regime(0.0, 1.0)
        with pytest.raises(gf.ValidationError):
            regime.epsilon(1)

    def test_log_rate_not_monotone_below_three(self):
        # ln(2)/2 < ln(3)/3: the guarantee is not a strictly decreasing
        # envelope until n >= 3
        regime = gf.select_regime(0.0, 1.0)
        assert regime.epsilon(2) < regime.epsilon(3)
        values = [regime.epsilon(n) for n in range(3, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_parameter_validation(self):
        with pytest.raises(gf.ValidationError):
            gf.applicable_regimes(1.0, 1.0)
        with pytest.raises(gf.ValidationError):
            gf.applicable_regimes(0.0, 0.0)


class TestFitRate:
    def test_pure_power_law(self):
        ns = [8, 16, 32, 64, 128]
        fit = gf.fit_rate(ns, [3.0 / n for n in ns])
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-10)

    def test_log_over_n_has_shallower_apparent_slope(self):
        ns = [2 ** k for k in range(3, 11)]
        fit = gf.fit_rate(ns, [0.7 * math.log(n) / n for n in ns])
        assert -1.0 < fit.slope < -0.7

    def test_requires_three_positive_errors(self):
        with pytest.raises(gf.ValidationError):
            gf.fit_rate([8, 16], [0.1, 0.05])
        with pytest.raises(gf.ValidationError):
            gf.fit_rate([8, 16, 32], [0.1, 0.0, 0.01])


class TestRunConvergence:
    def test_scalar_left_slope_and_regime(self, scalar_linear):
        report = gf.run_convergence(scalar_linear, gf.Scheme.LEFT, 0.0, 1.0,
                                    [8, 16, 32, 64, 128])
        assert report.regime.kind is gf.RegimeKind.LIPSCHITZ_LOG
        assert -1.1 < report.fitted_slope < -0.9
        assert report.bound_satisfied
        assert not report.exact_reproduction
        assert report.oracle == "exact"
        # operator norm never exceeds trace norm
        for op, tr in zip(report.err_op, report.err_tr):
            assert op <= tr * (1 + 1e-12) + 1e-15

    def test_exact_reproduction_flagged(self):
        # A and B constant and commuting: every ordering reproduces the
        # propagator to rounding, which is flagged instead of rate-fitted
        model = gf.commuting_model([1.0, 2.0], [0.3, 0.5], gf.constant_profile(1.0))
        report = gf.run_convergence(model, gf.Scheme.SYMMETRIC, 0.0, 1.0,
                                    [4, 8, 16])
        assert report.exact_reproduction
        assert math.isnan(report.fitted_slope)
        assert any("rounding" in note for note in report.notes)

    def test_errors_decrease(self, commuting_linear):
        report = gf.run_convergence(commuting_linear, gf.Scheme.SYMMETRIC,
                                    0.0, 1.0, [8, 16, 32, 64])
        assert all(a > b for a, b in zip(report.err_tr, report.err_tr[1:]))

    def test_errors_are_the_norms_of_the_difference(self):
        # both errors come from one SVD, bit for bit the two norms
        model = make_rotating(dim=4, seed=3)
        ns = [4, 8, 16]
        report = gf.run_convergence(model, gf.Scheme.RIGHT, 0.0, 1.0, ns, tol_ref=1e-10)
        u_star = gf.reference_propagator(model, 0.0, 1.0, tol=1e-10).U
        for n, err_op, err_tr in zip(ns, report.err_op, report.err_tr):
            diff = gf.product_approximant(gf.Scheme.RIGHT, model, 0.0, 1.0, n).U - u_star
            assert (err_op, err_tr) == (opnorm(diff), trace_norm(diff))

    def test_explicit_fit_ns(self, scalar_linear):
        report = gf.run_convergence(scalar_linear, gf.Scheme.LEFT, 0.0, 1.0,
                                    [8, 16, 32, 64, 128], fit_ns=[8, 16])
        headline = report.regime_results[0]
        assert headline.train_ns == (8, 16)
        assert headline.test_ns == (32, 64, 128)

    def test_fit_ns_must_be_subset(self, scalar_linear):
        with pytest.raises(gf.ValidationError):
            gf.run_convergence(scalar_linear, gf.Scheme.LEFT, 0.0, 1.0,
                               [8, 16, 32], fit_ns=[12])

    def test_n_list_validation(self, scalar_linear):
        with pytest.raises(gf.ValidationError):
            gf.run_convergence(scalar_linear, gf.Scheme.LEFT, 0.0, 1.0, [8, 16])
        with pytest.raises(gf.ValidationError):
            gf.run_convergence(scalar_linear, gf.Scheme.LEFT, 0.0, 1.0,
                               [16, 8, 32])

    def test_no_regime_reported_when_none_applies(self):
        model = gf.scalar_model(1.0, gf.kink_profile(0.5, 0.5), beta=0.5, alpha=0.9)
        report = gf.run_convergence(model, gf.Scheme.LEFT, 0.0, 1.0, [8, 16, 32])
        assert report.regime is None
        assert report.regime_results == ()
        assert report.bound_satisfied is None
        assert any("no known" in note for note in report.notes)


def brute_force_instance(generator, contractions, times):
    """``(lhs, rhs)`` of one instance as a loop over its factors: the
    reference for the stacked evaluation."""
    ts = [float(x) for x in times]
    product = np.eye(generator.dim)
    norms = 1.0
    for v, t_j in zip(contractions, ts):
        product = product @ v @ generator.heat(t_j)
        norms *= opnorm(v)
    return trace_norm(product), norms * trace_norm(generator.heat(0.25 * sum(ts)))


def draw_group(rng, dim, n_factors):
    """One dimension's draws of an ensemble block, in the ensemble's order,
    one instance at a time: ``(Q, lam, O', s, t)`` per instance."""
    bases = [_haar(rng.standard_normal((dim, dim))) for _ in n_factors]
    eigs = [1.0 + 4.0 * rng.random(dim) for _ in n_factors]
    orth = [_haar(rng.standard_normal((n, dim, dim))) for n in n_factors]
    scales = [rng.random((n, dim)) for n in n_factors]
    times = [0.01 + 1.99 * rng.random(n) for n in n_factors]
    return list(zip(bases, eigs, orth, scales, times))


def eigenframe_sides(basis, eigs, orth, scales, times):
    """The kernel on a stack of one: the instance in its generator's eigenframe."""
    n = times.size
    factors = (orth * scales[:, None, :]) @ basis
    lhs, rhs = _lemma21_sides(eigs[None], factors, scales.max(axis=1), times,
                              np.zeros(n, dtype=int), np.arange(n))
    return lhs[0], rhs[0]


def brute_force_lemma21(count, seed, dim_max):
    """Per-instance ``lhs`` and ``rhs`` of the seeded ensemble, in draw order:
    its stream read block by block, every instance evaluated alone."""
    rng = np.random.default_rng(seed)
    lhs, rhs = np.empty(count), np.empty(count)
    for start in range(0, count, LEMMA21_BLOCK):
        dims = rng.integers(1, dim_max + 1, min(LEMMA21_BLOCK, count - start))
        counts = rng.integers(1, 9, dims.size)
        for dim in range(1, dim_max + 1):
            members = [i for i in range(dims.size) if dims[i] == dim]
            instances = draw_group(rng, dim, [int(counts[i]) for i in members])
            for i, instance in zip(members, instances):
                lhs[start + i], rhs[start + i] = eigenframe_sides(*instance)
    return lhs, rhs


def batch_sides(generators, factor_lists, time_lists):
    """``verify_lemma21``'s evaluation of the given instances, all of one
    dimension, in one stack.  Each generator passes every ``Generator`` check."""
    spectra = [gf.Generator(g).operator.spectrum() for g in generators]
    w, q = np.stack([w for w, _ in spectra]), np.stack([q for _, q in spectra])
    owner = [i for i, ts in enumerate(time_lists) for _ in ts]
    position = [j for ts in time_lists for j in range(len(ts))]
    return _framed_sides(w, q, np.stack([v for vs in factor_lists for v in vs]),
                         np.array([t for ts in time_lists for t in ts]),
                         np.array(owner), np.array(position))


class TestLemma21:
    def test_hand_instance(self):
        # V_1 e^{-t_1 A} with V_1 = I/2, A = diag(1, 2), t_1 = 1:
        # lhs = (1/2) ||e^{-A}||_1, rhs = (1/2) ||e^{-A/4}||_1; holds strictly
        gen = gf.Generator(np.diag([1.0, 2.0]))
        check = gf.verify_lemma21(gen, [0.5 * np.eye(2)], [1.0])
        lhs = 0.5 * (math.exp(-1.0) + math.exp(-2.0))
        rhs = 0.5 * (math.exp(-0.25) + math.exp(-0.5))
        assert check.lhs == pytest.approx(lhs, rel=1e-12)
        assert check.rhs == pytest.approx(rhs, rel=1e-12)
        assert check.holds

    def test_homogeneous_in_factor_size(self):
        # both sides scale linearly with each factor, so expanding factors
        # are admissible and preserve the bound
        gen = gf.Generator(np.diag([1.0, 3.0]))
        small = gf.verify_lemma21(gen, [0.5 * np.eye(2)], [1.0])
        big = gf.verify_lemma21(gen, [5.0 * np.eye(2)], [1.0])
        assert big.lhs == pytest.approx(10.0 * small.lhs, rel=1e-12)
        assert big.rhs == pytest.approx(10.0 * small.rhs, rel=1e-12)
        assert big.holds

    def test_time_validation(self):
        gen = gf.Generator(np.eye(2))
        with pytest.raises(gf.ValidationError):
            gf.verify_lemma21(gen, [np.eye(2)], [-1.0])
        with pytest.raises(gf.ValidationError):
            gf.verify_lemma21(gen, [], [])

    def test_ensemble_holds(self):
        ensemble = gf.lemma21_ensemble(count=120, seed=7, dim_max=10)
        assert ensemble.holds == ensemble.count
        assert ensemble.min_margin >= -1e-10

    def test_ensemble_deterministic(self):
        a = gf.lemma21_ensemble(count=40, seed=3)
        b = gf.lemma21_ensemble(count=40, seed=3)
        assert a == b

    @pytest.mark.parametrize("dim_max", [1, 4, 16])
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_stacked_sides_equal_the_loop(self, seed, dim_max):
        lhs, rhs = _lemma21_arrays(200, seed, dim_max)
        ref_lhs, ref_rhs = brute_force_lemma21(200, seed, dim_max)
        assert np.array_equal(lhs, ref_lhs) and np.array_equal(rhs, ref_rhs)
        ensemble = gf.lemma21_ensemble(200, seed, dim_max)
        assert ensemble.min_margin == float(np.min(ref_rhs - ref_lhs))

    @pytest.mark.parametrize("batch_bytes", [1, 2 ** 30])
    def test_stacked_sides_do_not_depend_on_the_batch_size(self, monkeypatch, batch_bytes):
        # 1 byte: one instance per stack; 2**30: one stack per dimension
        ref_lhs, ref_rhs = brute_force_lemma21(150, 7, 16)
        monkeypatch.setattr(propagator, "BATCH_BYTES", batch_bytes)
        lhs, rhs = _lemma21_arrays(150, 7, 16)
        assert np.array_equal(lhs, ref_lhs) and np.array_equal(rhs, ref_rhs)

    @given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_one_instance_equals_the_loop(self, dim, n_factors, seed):
        # verify_lemma21 works in the generator's eigenframe and the loop in
        # the standard basis, so they agree to rounding, not bit for bit
        rng = np.random.default_rng(seed)
        basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        generator = gf.Generator((basis * (1.0 + 5.0 * rng.random(dim))) @ basis.T)
        factors = list(rng.standard_normal((n_factors, dim, dim)))
        times = list(0.001 + 3.0 * rng.random(n_factors))
        check = gf.verify_lemma21(generator, factors, times)
        lhs, rhs = brute_force_instance(generator, factors, times)
        assert check.lhs == pytest.approx(lhs, rel=1e-12)
        assert check.rhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 3, 16])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_eigenframe_equals_the_standard_basis(self, seed, dim):
        # A = Q diag(lam) Q^T and V_j = Q O'_j diag(s_j) give the eigenframe
        # instance (diag(lam), O'_j diag(s_j) Q): conjugation by Q
        rng = np.random.default_rng(seed)
        for basis, eigs, orth, scales, times in draw_group(rng, dim, [1, 4, 8]):
            generator = gf.Generator((basis * eigs) @ basis.T)
            contractions = list(basis @ orth * scales[:, None, :])
            lhs, rhs = eigenframe_sides(basis, eigs, orth, scales, times)
            ref_lhs, ref_rhs = brute_force_instance(generator, contractions, times)
            assert lhs == pytest.approx(ref_lhs, rel=1e-12)
            assert rhs == pytest.approx(ref_rhs, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 7, 16])
    def test_closed_forms_equal_svd_norms(self, dim):
        # ||O' diag(s) Q|| = max(s) and ||Q diag(e^{-c lam}) Q^T||_1 = sum of
        # e^{-c lam}, within the rounding of an SVD
        rng = np.random.default_rng(dim)
        for basis, eigs, orth, scales, times in draw_group(rng, dim, [8] * 6):
            factors = (orth * scales[:, None, :]) @ basis
            np.testing.assert_array_max_ulp(singular_values(factors)[:, 0],
                                            scales.max(axis=1), maxulp=16)
            decay = np.exp(-0.25 * times.sum() * eigs)
            np.testing.assert_array_max_ulp(trace_norm((basis * decay) @ basis.T),
                                            np.sum(decay), maxulp=16)

    def test_drawn_bases_are_haar(self):
        # QR of Gaussian matrices with R's diagonal made positive; LAPACK's
        # own Q always has Q[0, 0] <= 0
        q = _haar(np.random.default_rng(2).standard_normal((4000, 3, 3)))
        assert np.allclose(np.swapaxes(q, -1, -2) @ q, np.eye(3), atol=1e-14)
        for entry in (q[:, 0, 0], q[:, 1, 1], q[:, 2, 0]):
            assert 0.45 < np.mean(entry > 0) < 0.55

    def test_ensemble_does_not_import_numpy_ma(self):
        # numpy.ma is a lazy import worth tens of milliseconds
        assert python_output("import sys, gibbsflow as gf; gf.lemma21_ensemble(300, 1, 8); "
                             "print('numpy.ma' in sys.modules)") == ["False"]

    @pytest.mark.parametrize("kwargs", [
        {"count": 0}, {"count": -3}, {"count": 2.5}, {"count": True},
        {"dim_max": 0}, {"dim_max": 1.0},
    ])
    def test_ensemble_validation(self, kwargs):
        with pytest.raises(gf.ValidationError):
            gf.lemma21_ensemble(**kwargs)

    def test_factor_shape_validation(self):
        with pytest.raises(gf.ValidationError, match="shape"):
            gf.verify_lemma21(gf.Generator(np.eye(2) * 2.0), [np.eye(3)], [1.0])
        with pytest.raises(gf.ValidationError, match="shape"):
            gf.verify_lemma21(gf.Generator(np.eye(2) * 2.0), [np.eye(2), np.ones(2)], [1.0, 1.0])

    @pytest.mark.parametrize("bad", ["asymmetric", "floor", "nan_factor", "negative_time",
                                     "zero_time", "infinite_time"])
    def test_bad_instance_in_a_batch_raises_like_one(self, bad):
        rng = np.random.default_rng(11)
        generators = [2.0 * np.eye(3) + np.diag(rng.random(3)) for _ in range(4)]
        factor_lists = [list(rng.standard_normal((k, 3, 3))) for k in (1, 3, 2, 4)]
        time_lists = [list(0.1 + rng.random(k)) for k in (1, 3, 2, 4)]
        if bad == "asymmetric":
            generators[2][0, 1] += 1e-3
        elif bad == "floor":
            generators[2][1, 1] = 0.5
        elif bad == "nan_factor":
            factor_lists[2][1][0, 0] = np.nan
        else:
            time_lists[2][1] = {"negative_time": -1.0, "zero_time": 0.0,
                                "infinite_time": np.inf}[bad]
        with pytest.raises(gf.GibbsflowError) as one:
            gf.verify_lemma21(gf.Generator(generators[2]), factor_lists[2], time_lists[2])
        with pytest.raises(gf.GibbsflowError) as batch:
            batch_sides(generators, factor_lists, time_lists)
        assert type(batch.value) is type(one.value)

    def test_self_check_failure_in_a_batch_raises_like_one(self, monkeypatch):
        rng = np.random.default_rng(12)
        generators = [2.0 * np.eye(3) + np.diag(rng.random(3)) for _ in range(3)]
        eigh = np.linalg.eigh

        def skewed(m):
            w, q = eigh(m)
            q[..., -1, :] *= 1.001
            return w, q

        monkeypatch.setattr(np.linalg, "eigh", skewed)
        with pytest.raises(gf.DecompositionError):
            gf.Generator(generators[0])
        with pytest.raises(gf.DecompositionError):
            batch_sides(generators, [[np.eye(3)]] * 3, [[1.0]] * 3)


class TestLifting:
    @pytest.mark.parametrize("scheme", [gf.Scheme.LEFT, gf.Scheme.SYMMETRIC])
    @pytest.mark.parametrize("n", [4, 8])
    def test_holds_on_commuting(self, commuting_linear, scheme, n):
        check = gf.verify_lifting(commuting_linear, scheme, 0.0, 1.0, n)
        assert check.holds
        assert check.k_n == n // 2
        assert check.rhs >= check.lhs - INEQUALITY_SLACK

    def test_holds_on_rotating(self, rotating_small):
        check = gf.verify_lifting(rotating_small, gf.Scheme.SYMMETRIC,
                                  0.0, 1.0, 8, tol_ref=1e-8)
        assert check.holds

    def test_requires_even_n(self, commuting_linear):
        with pytest.raises(gf.ValidationError):
            gf.verify_lifting(commuting_linear, gf.Scheme.LEFT, 0.0, 1.0, 5)
        with pytest.raises(gf.ValidationError):
            gf.verify_lifting(commuting_linear, gf.Scheme.LEFT, 0.0, 1.0, 2)


class TestCocycle:
    def test_scalar(self, scalar_linear):
        check = gf.verify_cocycle(scalar_linear, 0.0, 0.5, 1.0, tol_ref=1e-10)
        assert check.residual <= check.budget
        assert check.contraction_ok
        assert check.holds

    def test_ordering_validation(self, scalar_linear):
        with pytest.raises(gf.ValidationError):
            gf.verify_cocycle(scalar_linear, 0.0, 1.0, 0.5)


class TestContractionCheck:
    def test_all_schemes(self, commuting_small):
        for scheme in gf.Scheme:
            check = gf.verify_contraction(commuting_small, scheme, 0.0, 1.0, 16)
            assert check.holds
            assert check.norm <= math.exp(-1.0) + 1e-10
