"""Properties of the batched pairwise ordered-product kernel.

Every scheme on rotating and commuting models, on an entries-only family,
and on a dense generator.  The commuting model's spectral form is
B(t) = b(t) diag(mu), so its products take the closed form; the others take
the batched tree, where e^{-tau A} is a matrix whether A is diagonal or
dense.  The batch size is drawn too, so
products cross batch boundaries (including one-cell batches) and odd stack
lengths.
"""
import dataclasses
import math
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbsflow as gf
from gibbsflow import propagator
from gibbsflow.models import diagonal_form

from conftest import entries_only, make_rotating, per_cell_product, random_symmetric_psd

ROTATING = make_rotating(dim=5, seed=7)
COMMUTING = gf.commuting_model(np.linspace(1.0, 3.0, 4), [0.6, 0.1, 0.9, 0.3],
                               gf.kink_profile(0.45, 0.5))


def _dense_generator(model, seed):
    """``model`` with A = Q diag(lambda) Q^T for a random orthogonal Q."""
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((model.dim, model.dim)))[0]
    generator = gf.Generator((q * model.generator.spectrum()[0]) @ q.T)
    return dataclasses.replace(model, generator=generator, exact=None)


MODELS = {
    "rotating": ROTATING,
    "commuting": COMMUTING,
    "entries-only": entries_only(ROTATING),
    "dense-generator": _dense_generator(COMMUTING, 23),
}

models = st.sampled_from(sorted(MODELS))
schemes = st.sampled_from(list(gf.Scheme))
batch_cells = st.integers(1, 40)
windows = st.tuples(st.floats(0.0, 0.5), st.floats(0.05, 0.5))


def _kernel(model, scheme, s, t, n, cells):
    """The kernel's product with batches of ``cells`` cells."""
    part = gf.make_partition(s, t, n)
    with mock.patch.object(propagator, "BATCH_BYTES", cells * 8 * model.dim ** 2):
        return propagator._ordered_product(model, part.points, part.step, scheme)


def _rel(a, b):
    return gf.opnorm(a - b) / gf.opnorm(b)


@given(models, schemes, windows, st.integers(1, 300), batch_cells)
@settings(max_examples=40)
def test_matches_per_cell_loop(name, scheme, window, n, cells):
    model = MODELS[name]
    s, width = window
    part = gf.make_partition(s, s + width, n)
    kernel = _kernel(model, scheme, part.s, part.t, n, cells)
    assert _rel(kernel, per_cell_product(scheme, model, part.points, part.step)) <= 1e-12


@given(models, schemes, windows, st.integers(1, 150), batch_cells)
@settings(max_examples=40)
def test_product_splits_into_halves(name, scheme, window, m, cells):
    model = MODELS[name]
    s, width = window
    part = gf.make_partition(s, s + width, 2 * m)
    with mock.patch.object(propagator, "BATCH_BYTES", cells * 8 * model.dim ** 2):
        full = propagator._ordered_product(model, part.points, part.step, scheme)
        early = propagator._ordered_product(model, part.points[:m], part.step, scheme)
        late = propagator._ordered_product(model, part.points[m:], part.step, scheme)
    assert _rel(full, late @ early) <= 1e-12


@given(models, schemes, windows, st.integers(1, 300), batch_cells)
@settings(max_examples=40)
def test_contracts_at_generator_rate(name, scheme, window, n, cells):
    model = MODELS[name]
    s, width = window
    u = _kernel(model, scheme, s, s + width, n, cells)
    bound = math.exp(-width * float(model.generator.spectrum()[0][0]))
    assert gf.opnorm(u) <= bound * (1.0 + 1e-12)


def test_entries_only_heat_equals_per_matrix_spectra():
    # A family without a spectral form gets e^{-tau B(t)} from one stacked
    # eigh; the reference decomposes each matrix on its own.
    model = entries_only(make_rotating(dim=16, seed=3))
    times, tau = np.linspace(0.0, 1.0, 997), 1.0 / 997
    spectra = [gf.HermitianOperator(b).spectrum()
               for b in gf.perturbation_entries(model, times)]
    expected = gf.eigen_entries(np.exp(-tau * np.array([w for w, _ in spectra])),
                                np.array([q for _, q in spectra]))
    np.testing.assert_array_equal(propagator._heat_of_perturbation(model, times, tau),
                                  expected)


def _constant_model(dim, seed):
    """Non-commuting model with B constant in time, given by its entries."""
    rng = np.random.default_rng(seed)
    b = random_symmetric_psd(rng, dim)
    family = gf.PerturbationFamily(entries=lambda ts: np.broadcast_to(b, (ts.size, dim, dim)),
                                   alpha=0.0, beta=1.0)
    return gf.Model(gf.Generator(np.diag(np.linspace(1.0, 4.0, dim))), family)


CONSTANT = _constant_model(4, 19)


@given(windows, st.integers(1, 300), batch_cells)
@settings(max_examples=40)
def test_symmetric_scheme_is_palindromic_for_constant_b(window, n, cells):
    s, width = window
    u = _kernel(CONSTANT, gf.Scheme.SYMMETRIC, s, s + width, n, cells)
    assert gf.opnorm(u - u.T) <= 1e-12 * gf.opnorm(u)


def _identity_basis(model):
    """``model`` whose spectral form names the standard basis as an explicit
    identity stack instead of ``None``: it has no diagonal form, so its
    products take the batched tree and compose every factor as a dense
    matrix."""
    form, eye = model.perturbation.spectral, np.eye(model.dim)
    identity = gf.SpectralForm(form.profile, form.mu,
                               lambda ts: np.broadcast_to(eye, ts.shape + eye.shape))
    return dataclasses.replace(model, perturbation=dataclasses.replace(
        model.perturbation, spectral=identity))


COMMUTING_DENSE = _identity_basis(COMMUTING)


@given(schemes, windows, st.integers(1, 300), st.integers(0, 5))
@settings(max_examples=40)
def test_closed_form_matches_dense_route(scheme, window, n, log_cells):
    # The closed form rounds once, the tree n times, so they agree within
    # rounding.  On the tree, a ``None`` basis gives the identity basis's
    # products bit for bit: a matrix product with a diagonal operand adds
    # exact zeros.  A diagonal A would select the closed form, so that pair
    # runs on a dense generator.
    s, width = window
    cells = 2 ** log_cells
    assert diagonal_form(COMMUTING) is COMMUTING.perturbation.spectral
    assert diagonal_form(COMMUTING_DENSE) is None
    closed = _kernel(COMMUTING, scheme, s, s + width, n, cells)
    dense = _kernel(COMMUTING_DENSE, scheme, s, s + width, n, cells)
    assert _rel(closed, dense) <= 1e-12
    assert np.count_nonzero(closed - np.diag(np.diagonal(closed))) == 0
    assert np.array_equal(
        _kernel(MODELS["dense-generator"], scheme, s, s + width, n, cells),
        _kernel(_dense_generator(COMMUTING_DENSE, 23), scheme, s, s + width, n, cells))


def _hand_written_diagonal(lambdas, mu, profile):
    """Model whose family writes B(t) = b(t) diag(mu) by hand as its
    ``entries``, without a spectral form."""
    mu = np.asarray(mu, dtype=float)

    def values(ts):
        return np.asarray(profile.value(ts), dtype=float)[:, None] * mu

    family = gf.PerturbationFamily(
        entries=lambda ts: gf.eigen_entries(values(ts), None),
        alpha=0.0, beta=profile.beta,
        breakpoints=profile.breakpoints)
    return gf.Model(gf.Generator(np.diag(lambdas)), family)


HAND_WRITTEN = _hand_written_diagonal(np.linspace(1.0, 3.0, 4), [0.6, 0.1, 0.9, 0.3],
                                      gf.kink_profile(0.45, 0.5))


@given(schemes, windows, st.integers(1, 300), batch_cells)
@settings(max_examples=40)
def test_undeclared_diagonal_family_matches_per_cell_loop(scheme, window, n, cells):
    s, width = window
    part = gf.make_partition(s, s + width, n)
    kernel = _kernel(HAND_WRITTEN, scheme, part.s, part.t, n, cells)
    assert _rel(kernel, per_cell_product(scheme, HAND_WRITTEN, part.points, part.step)) <= 1e-12


def test_declaration_survives_a_copied_family(cf4_products):
    # A benchmark tracer rebuilds a model around a copy of its family; the
    # copy keeps the spectral form itself, so it takes the closed form, gives
    # the same products bit for bit, and still serves as a memo key.
    copied = dataclasses.replace(COMMUTING, perturbation=dataclasses.replace(
        COMMUTING.perturbation))
    assert copied.perturbation is not COMMUTING.perturbation
    assert diagonal_form(copied) is COMMUTING.perturbation.spectral
    for scheme in gf.Scheme:
        assert np.array_equal(gf.product_approximant(scheme, copied, 0.0, 1.0, 4096).U,
                              gf.product_approximant(scheme, COMMUTING, 0.0, 1.0, 4096).U)
    first = gf.reference_propagator(copied, 0.0, 0.5, tol=1e-8)
    computed = len(cf4_products)
    assert copied in propagator._PIECE_PRODUCTS
    again = gf.reference_propagator(copied, 0.0, 0.5, tol=1e-8)
    assert len(cf4_products) == computed
    assert np.array_equal(again.U, first.U) and again.method == first.method


def _reference_err_tr(lambdas, mu, t0, offset, n):
    """Trace-norm error on [0, 1] of the n-cell product for the commuting
    model with b(t) = offset + |t - t0|^(1/2), to 40 digits from the exact
    values of the float inputs and sample times."""
    with localcontext() as ctx:
        ctx.prec = 40
        t0, offset = Decimal(t0), Decimal(offset)
        points = [Decimal(float(p)) for p in gf.make_partition(0.0, 1.0, n).points]
        riemann = sum(offset + abs(p - t0).sqrt() for p in points) / n

        def antiderivative(x):
            u = x - t0
            return u * abs(u).sqrt() / Decimal("1.5")

        integral = offset + antiderivative(Decimal(1)) - antiderivative(Decimal(0))
        return sum(abs((-Decimal(l) - Decimal(m) * riemann).exp()
                       - (-Decimal(l) - Decimal(m) * integral).exp())
                   for l, m in zip(lambdas.tolist(), mu.tolist()))


def test_closed_form_error_matches_a_40_digit_reference():
    # A factor rounded once and applied n times drifts by about n eps / 2:
    # the batched tree was 1.7e-12 off here.
    lambdas = np.linspace(1.0, 8.0, 64)
    mu = np.random.default_rng(1).permutation(np.linspace(0.1, 1.0, 64))
    model = gf.commuting_model(lambdas, mu, gf.kink_profile(0.37, 0.5, offset=0.5))
    n = 2 ** 15
    reference = _reference_err_tr(lambdas, mu, 0.37, 0.5, n)
    for scheme in gf.Scheme:
        err_tr = gf.run_convergence(model, scheme, 0.0, 1.0, [n // 4, n // 2, n]).err_tr[-1]
        assert abs(Decimal(err_tr) - reference) <= Decimal("1e-15")


@pytest.mark.parametrize("model", [
    gf.commuting_model(np.linspace(1.0, 3.0, 3), [0.6, 0.1, 0.9], gf.kink_profile(0.45, 0.5)),
    gf.commuting_model(np.linspace(1.0, 3.0, 12), np.linspace(0.1, 0.9, 12),
                       gf.kink_profile(0.45, 0.5)),
    ROTATING,
    entries_only(gf.commuting_model(np.linspace(1.0, 3.0, 12), np.linspace(0.1, 0.9, 12),
                                    gf.kink_profile(0.45, 0.5))),
], ids=["commuting-3", "commuting-12", "rotating-5", "undeclared-12"])
@pytest.mark.parametrize("n", [100, 1000, 5000])
def test_product_does_not_depend_on_batch_bytes(model, n, monkeypatch):
    # Batch lengths are rounded down to powers of two, so the pairwise tree
    # plus the counter merge is the aligned dyadic tree for every d.
    part = gf.make_partition(0.0, 1.0, n)
    for scheme in gf.Scheme:
        products = []
        for batch_bytes in (64 * 1024, 4 * 1024, 1000):
            monkeypatch.setattr(propagator, "BATCH_BYTES", batch_bytes)
            products.append(propagator._ordered_product(model, part.points, part.step, scheme))
        assert all(np.array_equal(p, products[0]) for p in products[1:])
