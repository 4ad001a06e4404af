"""The benchmark tracer's hook contract with the package.

``perfbench/tracer.py`` wraps package functions by name and parses the
``method`` strings of results.  A hook whose target is renamed is skipped
and its metrics silently read 0, so these tests fail instead.  The tracer
module is loaded by path and never installed.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import gibbsflow as gf
from gibbsflow import dyson, propagator
from gibbsflow.models import diagonal_form

from conftest import entries_only, python_output

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_exists(tracer):
    hooks = {**tracer.SPAN_HOOKS, **tracer.COUNTER_HOOKS}
    missing = [f"{module}.{attr}" for module, attr in hooks.values()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_importing_the_cli_loads_every_hooked_module(tracer):
    # The tracer imports gibbsflow and gibbsflow.cli, then looks its hook
    # modules up in sys.modules; the package namespace imports lazily.
    modules = {module for module, _ in {**tracer.SPAN_HOOKS, **tracer.COUNTER_HOOKS}.values()}
    modules |= {"gibbsflow.dyson", "gibbsflow.reports", "gibbsflow.linalg"}
    code = ("import sys, gibbsflow, gibbsflow.cli; "
            f"print(*(m in sys.modules for m in {sorted(modules)!r}))")
    assert python_output(code) == ["True"] * len(modules)


def test_instrumented_model_matches_the_model(tracer, cf4_products):
    # The tracer rebuilds every traced model with ``dataclasses.replace``.
    # The copy keeps the family's declaration, computes what the model
    # computes bit for bit, and serves as a memo key.
    commuting = gf.commuting_model([1.0, 2.0, 3.0], [0.3, 0.2, 0.5], gf.kink_profile(0.4, 0.5))
    models = (gf.scalar_model(1.5, gf.kink_profile(0.4, 0.5)), commuting,
              gf.rotating_model([1.0, 2.0, 3.0], [0.3, 0.2, 0.5], 2.0, beta=0.5),
              entries_only(commuting))
    for model in models:
        traced = tracer.Tracer().instrument_model(model)
        assert traced is not model and traced == model and hash(traced) == hash(model)
        assert diagonal_form(traced) is diagonal_form(model)
        for scheme in gf.Scheme:
            assert np.array_equal(gf.product_approximant(scheme, traced, 0.0, 1.0, 4096).U,
                                  gf.product_approximant(scheme, model, 0.0, 1.0, 4096).U)
        first = gf.reference_propagator(traced, 0.0, 0.5, tol=1e-8)
        computed = len(cf4_products)
        assert len(propagator._PIECE_PRODUCTS[traced]) == computed > 0
        again = gf.reference_propagator(traced, 0.0, 0.5, tol=1e-8)
        assert len(cf4_products) == computed
        assert np.array_equal(again.U, first.U) and again.method == first.method
        del propagator._PIECE_PRODUCTS[traced]
        uncached = gf.reference_propagator(model, 0.0, 0.5, tol=1e-8)
        assert len(cf4_products) == 2 * computed
        assert np.array_equal(first.U, uncached.U)
        cf4_products.clear()


def test_collocation_grid_exists():
    assert isinstance(dyson._CollocationGrid, type)


def test_panel_tally_counts_every_grid(tracer, monkeypatch):
    # The tracer replaces the grid class with a subclass that reads
    # ``edges``; restore the class afterwards.
    monkeypatch.setattr(dyson, "_CollocationGrid", dyson._CollocationGrid)
    counting = tracer.Tracer()
    counting._count_collocation_panels()
    built = []

    class Recorded(dyson._CollocationGrid):
        def __init__(self, model, s, t, n_panels, nodes_per_panel):
            built.append(n_panels)
            super().__init__(model, s, t, n_panels, nodes_per_panel)

    monkeypatch.setattr(dyson, "_CollocationGrid", Recorded)
    model = gf.commuting_model([1.0, 2.0], [0.3, 0.2], gf.linear_profile(0.5, 0.2))
    assert model.perturbation.breakpoints == ()
    gf.dyson_phillips_term(model, 0.0, 1.0, 2, gf.QuadratureSpec(initial_panels=2))
    assert counting.missing == [] and len(built) >= 2
    assert built == [2 ** (k + 1) for k in range(len(built))]
    assert counting.tallies["dyson.panels"] == sum(built) == 2 * built[-1] - 2


def test_diff_pattern_matches_a_fresh_oracle(tracer):
    model = gf.commuting_model([1.0, 2.0], [0.3, 0.2], gf.kink_profile(0.4, 0.5))
    ref = gf.reference_propagator(model, 0.0, 1.0, 1e-8)
    match = tracer._DIFF.search(ref.method)
    assert match is not None
    assert 0.0 <= float(match.group(1)) <= 0.5e-8


def test_depth_pattern_matches_a_series(tracer):
    model = gf.commuting_model([1.0, 2.0], [0.3, 0.2], gf.constant_profile(0.5))
    series = gf.dyson_phillips_sum(model, 0.0, 1.0, 1e-6)
    match = tracer._DEPTH.search(series.method)
    assert match is not None
    assert int(match.group(1)) >= 1
