"""Shared fixtures: model factories and seeded random matrices."""
from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import gibbsflow as gf
from gibbsflow import propagator

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 run is reproducible.
settings.register_profile("reproducible", derandomize=True, deadline=None, database=None)
settings.load_profile("reproducible")


def python_output(code: str) -> list[str]:
    """Whitespace-split standard output of ``python -c code`` in a fresh
    process that imports this same gibbsflow."""
    env = dict(os.environ, PYTHONPATH=str(Path(gf.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return done.stdout.split()


def entries_only(model: "gf.Model") -> "gf.Model":
    """``model`` with a family that gives B as an ``entries`` formula alone:
    the same B(t), bit for bit, without its spectral form, so every route
    takes its general branch."""
    family = model.perturbation
    general = gf.PerturbationFamily(entries=lambda ts: gf.perturbation_entries(model, ts),
                                    alpha=family.alpha, beta=family.beta,
                                    breakpoints=family.breakpoints)
    return dataclasses.replace(model, perturbation=general)


def per_cell_product(scheme: "gf.Scheme", model: "gf.Model", points, tau: float) -> np.ndarray:
    """W_n ... W_1 over the sample times ``points``, one cell at a time, with
    e^{-tau B(t_k)} from the ``HermitianOperator`` spectrum of each
    ``perturbation_entries`` matrix: a construction independent of the
    product kernel's batches and of the family's spectral form."""
    a = model.generator.operator
    ea, half = gf.heat(a, tau), gf.heat(a, 0.5 * tau)
    u = np.eye(model.dim)
    for b in gf.perturbation_entries(model, np.asarray(points, dtype=float)):
        eb = gf.heat(gf.HermitianOperator(b), tau)
        if scheme is gf.Scheme.LEFT:
            u = ea @ eb @ u
        elif scheme is gf.Scheme.RIGHT:
            u = eb @ ea @ u
        else:
            u = half @ eb @ half @ u
    return u


def random_symmetric_psd(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    return (q * (scale * rng.random(dim))) @ q.T


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


@pytest.fixture
def scalar_linear():
    """a = 1, b(tau) = tau on [0, 1]; exact U(0,1) = e^{-3/2}."""
    return gf.scalar_model(1.0, gf.linear_profile(1.0))


@pytest.fixture
def scalar_const():
    """a = 1, b = 0.4; xi over [0, 1] is 0.4."""
    return gf.scalar_model(1.0, gf.constant_profile(0.4))


@pytest.fixture
def commuting_small():
    """dim 3, lambdas (1, 2, 3), d0 (0.3, 0.2, 0.1), b = 1."""
    return gf.commuting_model([1.0, 2.0, 3.0], [0.3, 0.2, 0.1],
                              gf.constant_profile(1.0))


@pytest.fixture
def commuting_linear():
    """dim 2, lambdas (1, 3), d0 (2, 1), b(tau) = tau."""
    return gf.commuting_model([1.0, 3.0], [2.0, 1.0], gf.linear_profile(1.0))


def make_rotating(dim: int = 6, seed: int = 42, beta: float = 0.5,
                  alpha: float = 0.0, omega: float = np.pi) -> "gf.Model":
    rng = np.random.default_rng(seed)
    b0 = random_symmetric_psd(rng, dim, scale=1.0)
    return gf.rotating_model(np.linspace(1.0, 4.0, dim), b0, omega,
                             beta=beta, t0=0.5, alpha=alpha)


@pytest.fixture
def rotating_small():
    return make_rotating(dim=4, seed=11)


@pytest.fixture
def cf4_products(monkeypatch):
    """(lo, hi, n) of every CF4 piece product the reference oracle computes,
    that is of every miss of its memo."""
    products = []
    compute = propagator._magnus_product

    def counted(model, edges):
        products.append((float(edges[0]), float(edges[-1]), edges.size - 1))
        return compute(model, edges)

    monkeypatch.setattr(propagator, "_magnus_product", counted)
    return products
