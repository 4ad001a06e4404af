"""Properties of the batched pairwise ordered-product kernel.

Every scheme on rotating and commuting models, on a family without a
batched ``heat_factor``, and on a dense generator, which takes the kernel's
matrix route for e^{-tau A}.  The batch size is drawn too, so products cross
batch boundaries (including one-cell batches) and odd stack lengths.
"""
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbsflow as gf
from gibbsflow import propagator

from conftest import make_rotating, random_symmetric_psd

ROTATING = make_rotating(dim=5, seed=7)
COMMUTING = gf.commuting_model(np.linspace(1.0, 3.0, 4), [0.6, 0.1, 0.9, 0.3],
                               gf.kink_profile(0.45, 0.5))


def _dense_generator(model, seed):
    """``model`` with A = Q diag(lambda) Q^T for a random orthogonal Q."""
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((model.dim, model.dim)))[0]
    generator = gf.Generator((q * model.generator.eigenvalues) @ q.T)
    return dataclasses.replace(model, generator=generator, exact=None)


MODELS = {
    "rotating": ROTATING,
    "commuting": COMMUTING,
    "spectral": dataclasses.replace(
        ROTATING, perturbation=dataclasses.replace(ROTATING.perturbation, heat_factor=None)),
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


def _loop(model, scheme, points, tau):
    u = np.eye(model.dim)
    for t_k in points:
        u = gf.step_factor(scheme, model, float(t_k), tau) @ u
    return u


def _rel(a, b):
    return gf.opnorm(a - b) / gf.opnorm(b)


@given(models, schemes, windows, st.integers(1, 300), batch_cells)
@settings(max_examples=40)
def test_matches_per_cell_loop(name, scheme, window, n, cells):
    model = MODELS[name]
    s, width = window
    part = gf.make_partition(s, s + width, n)
    kernel = _kernel(model, scheme, part.s, part.t, n, cells)
    assert _rel(kernel, _loop(model, scheme, part.points, part.step)) <= 1e-12


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
    bound = math.exp(-width * float(model.generator.eigenvalues[0]))
    assert gf.opnorm(u) <= bound * (1.0 + 1e-12)


def _constant_model(dim, seed):
    """Non-commuting model with B constant in time; no batched heat factor."""
    rng = np.random.default_rng(seed)
    b = random_symmetric_psd(rng, dim)
    family = gf.PerturbationFamily(entries=lambda ts: np.broadcast_to(b, (ts.size, dim, dim)),
                                   alpha=0.0, beta=1.0, descriptor="constant")
    return gf.Model(gf.Generator(np.diag(np.linspace(1.0, 4.0, dim))), family)


CONSTANT = _constant_model(4, 19)


@given(windows, st.integers(1, 300), batch_cells)
@settings(max_examples=40)
def test_symmetric_scheme_is_palindromic_for_constant_b(window, n, cells):
    s, width = window
    u = _kernel(CONSTANT, gf.Scheme.SYMMETRIC, s, s + width, n, cells)
    assert gf.opnorm(u - u.T) <= 1e-12 * gf.opnorm(u)


def _identity_basis(family):
    """``family`` whose heat factor names the standard basis as an explicit
    identity stack instead of ``None``, which forces the dense route."""
    def heat_factor(ts, tau):
        w, _ = family.heat_factor(ts, tau)
        return w, np.broadcast_to(np.eye(w.shape[-1]), w.shape + w.shape[-1:])

    return dataclasses.replace(family, heat_factor=heat_factor)


COMMUTING_DENSE = dataclasses.replace(COMMUTING,
                                      perturbation=_identity_basis(COMMUTING.perturbation))


@given(schemes, windows, st.integers(1, 300), st.integers(0, 5))
@settings(max_examples=40)
def test_diagonal_route_is_bit_identical_to_dense_route(scheme, window, n, log_cells):
    # Batch lengths that are powers of two all build the same aligned
    # dyadic tree, so the diagonal route (d times longer batches) and the
    # dense one must agree bit for bit, not merely within rounding.
    s, width = window
    cells = 2 ** log_cells
    vector = _kernel(COMMUTING, scheme, s, s + width, n, cells)
    dense = _kernel(COMMUTING_DENSE, scheme, s, s + width, n, cells)
    assert np.array_equal(vector, dense)
    assert np.count_nonzero(vector - np.diag(np.diagonal(vector))) == 0


@pytest.mark.parametrize("model", [
    gf.commuting_model(np.linspace(1.0, 3.0, 3), [0.6, 0.1, 0.9], gf.kink_profile(0.45, 0.5)),
    gf.commuting_model(np.linspace(1.0, 3.0, 12), np.linspace(0.1, 0.9, 12),
                       gf.kink_profile(0.45, 0.5)),
    ROTATING,
], ids=["commuting-3", "commuting-12", "rotating-5"])
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
