"""Adaptive panel quadrature for matrix-valued integrands."""
import numpy as np
import pytest

import gibbsflow as gf
from gibbsflow.quadrature import CHUNK_NODES, panel_nodes


class TestSpec:
    def test_defaults(self):
        spec = gf.QuadratureSpec()
        assert spec.tol == 1e-10
        assert spec.nodes_per_panel == 16

    def test_validation(self):
        with pytest.raises(gf.ValidationError):
            gf.QuadratureSpec(tol=0.0)
        with pytest.raises(gf.ValidationError):
            gf.QuadratureSpec(nodes_per_panel=1)
        with pytest.raises(gf.ValidationError):
            gf.QuadratureSpec(max_doublings=-1)


class TestPanelEdges:
    def test_plain_split(self):
        edges = gf.panel_edges(0.0, 1.0, 4, ())
        assert np.allclose(edges, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_breakpoints_become_edges(self):
        edges = gf.panel_edges(0.0, 1.0, 4, (0.3,))
        assert any(abs(e - 0.3) < 1e-15 for e in edges)
        assert edges[0] == 0.0 and edges[-1] == 1.0
        assert np.all(np.diff(edges) > 0)

    def test_exterior_breakpoints_ignored(self):
        edges = gf.panel_edges(0.2, 0.8, 2, (0.0, 1.0, 0.5))
        assert edges[0] == 0.2 and edges[-1] == 0.8
        assert any(abs(e - 0.5) < 1e-15 for e in edges)

    def test_rejects_empty_interval(self):
        with pytest.raises(gf.ValidationError):
            gf.panel_edges(1.0, 1.0, 2, ())


class TestIntegrateMatrix:
    def test_polynomial_exact(self):
        # degree-7 polynomial is exact under 16-node panels
        result = gf.integrate_matrix(
            lambda x: (x ** 7)[:, None, None], 0.0, 1.0, gf.QuadratureSpec())
        assert result[0, 0] == pytest.approx(1.0 / 8.0, abs=1e-14)

    def test_matrix_valued(self):
        result = gf.integrate_matrix(
            lambda x: np.stack([np.sin(x), x, x, np.cos(x)], axis=-1).reshape(-1, 2, 2),
            0.0, np.pi / 2, gf.QuadratureSpec())
        quarter = (np.pi / 2) ** 2 / 2
        expected = np.array([[1.0, quarter], [quarter, 1.0]])
        assert np.allclose(result, expected, atol=1e-13)

    def test_kink_with_aligned_breakpoint(self):
        # |x - 1/2|^{1/2} integrates to (4/3)(1/2)^{3/2} with a panel edge at the kink
        result = gf.integrate_matrix(
            lambda x: np.sqrt(abs(x - 0.5))[:, None, None], 0.0, 1.0,
            gf.QuadratureSpec(tol=1e-9), breakpoints=(0.5,))
        assert result[0, 0] == pytest.approx((4.0 / 3.0) * 0.5 ** 1.5, abs=1e-9)

    def test_accuracy_error_when_budget_exhausted(self):
        spec = gf.QuadratureSpec(tol=1e-15, initial_panels=1, max_doublings=1,
                                 nodes_per_panel=2)
        with pytest.raises(gf.AccuracyError):
            gf.integrate_matrix(
                lambda x: np.sqrt(abs(x - 0.37))[:, None, None], 0.0, 1.0, spec)

    def test_nodes_span_several_chunks(self):
        # 64 panels of 16 nodes: each refinement takes several integrand calls
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.stack([np.exp(x), np.cos(3.0 * x)], axis=-1)[..., None] * np.eye(2)

        result = gf.integrate_matrix(f, 0.0, 2.0, gf.QuadratureSpec(initial_panels=64))
        expected = np.diag([np.exp(2.0) - 1.0, np.sin(6.0) / 3.0])
        assert np.allclose(result, expected, rtol=0, atol=1e-13)
        # two refinements (64 and 128 panels) in full chunks
        assert sizes == [CHUNK_NODES] * ((64 + 128) * 16 // CHUNK_NODES)

    def test_rejects_unvectorized_integrand(self):
        with pytest.raises(gf.ValidationError):
            gf.integrate_matrix(lambda x: np.array([[x ** 2]]), 0.0, 1.0)

    def test_panel_nodes_cover_interval(self):
        nodes, weights = panel_nodes(0.0, 2.0, 3, 8, (0.7,))
        assert nodes.shape == weights.shape
        assert np.all((nodes > 0.0) & (nodes < 2.0))
        assert np.sum(weights) == pytest.approx(2.0, abs=1e-13)
