"""Adaptive panel quadrature for matrix-valued integrands."""
import numpy as np
import pytest

import gibbsflow as gf
from gibbsflow.quadrature import (CHUNK_NODES, GRADED_EXPONENT, _refine_by_doubling,
                                  mesh_grading, panel_nodes)


def _uniform_edges(a, b, n_panels, breakpoints):
    """The breakpoint-aligned uniform edges that grading 1 must reproduce."""
    cuts = sorted({float(x) for x in breakpoints if a < x < b})
    pieces = list(zip([a, *cuts], [*cuts, b]))
    edges = [a]
    for lo, hi in pieces:
        k = max(1, round(n_panels * (hi - lo) / (b - a)))
        edges.extend(np.linspace(lo, hi, k + 1)[1:])
    return np.asarray(edges)


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

    @pytest.mark.parametrize("field", ["nodes_per_panel", "initial_panels", "max_doublings"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(gf.ValidationError, match=f"{field} must be an integer"):
            gf.QuadratureSpec(**{field: value})


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

    def test_rejects_bad_grading(self):
        for grading in (0, 1.5):
            with pytest.raises(gf.ValidationError):
                gf.panel_edges(0.0, 1.0, 4, (0.3,), grading)

    @pytest.mark.parametrize("name", ["n_panels", "grading"])
    @pytest.mark.parametrize("count", [2.5, 0, -1, True, False, 4.0])
    def test_counts_must_be_integers_at_least_one(self, name, count):
        counts = {"n_panels": 4, "grading": 1, name: count}
        with pytest.raises(gf.ValidationError, match=f"{name} must be an integer >= 1"):
            gf.panel_edges(0.0, 1.0, counts["n_panels"], (0.3,), counts["grading"])


class TestGradedEdges:
    WINDOWS = [(0.0, 1.0), (0.0, 0.37), (0.37, 1.0), (0.2, 0.8)]

    @pytest.mark.parametrize("a, b", WINDOWS)
    @pytest.mark.parametrize("n_panels", [1, 5, 64, 1024])
    def test_grading_one_is_the_uniform_mesh_bit_for_bit(self, a, b, n_panels):
        for breakpoints in [(), (0.37,), (0.37, 0.5), (0.0, 0.37, 1.0)]:
            expected = _uniform_edges(a, b, n_panels, breakpoints)
            assert np.array_equal(gf.panel_edges(a, b, n_panels, breakpoints), expected)
            assert np.array_equal(gf.panel_edges(a, b, n_panels, breakpoints, 1), expected)

    @pytest.mark.parametrize("a, b", WINDOWS)
    @pytest.mark.parametrize("n_panels", [1, 7, 64, 1024])
    @pytest.mark.parametrize("grading", [2, GRADED_EXPONENT])
    def test_graded_edges_increase_with_exact_ends(self, a, b, n_panels, grading):
        for breakpoints in [(0.37,), (0.37, 0.5)]:
            edges = gf.panel_edges(a, b, n_panels, breakpoints, grading)
            assert edges[0] == a and edges[-1] == b
            assert np.all(np.diff(edges) > 0)
            cuts = [x for x in breakpoints if a < x < b]
            assert all(x in edges for x in cuts)
            assert edges.size == _uniform_edges(a, b, n_panels, breakpoints).size

    def test_interior_breakpoint_is_graded_from_both_sides(self):
        edges = gf.panel_edges(0.0, 1.0, 64, (0.5,), 4)
        k = int(np.flatnonzero(edges == 0.5)[0])
        # 32 cells per piece, graded toward 0.5 only: x -> x^4 on [0, 1]
        assert edges[k] - edges[k - 1] == pytest.approx(0.5 / 32 ** 4, rel=1e-9)
        assert edges[k + 1] - edges[k] == pytest.approx(0.5 / 32 ** 4, rel=1e-9)
        assert edges[1] - edges[0] == pytest.approx(0.5 * (1 - (31 / 32) ** 4), rel=1e-12)

    def test_breakpoint_at_window_end_is_graded_toward(self):
        early = gf.panel_edges(0.0, 0.37, 16, (0.37,), 4)
        late = gf.panel_edges(0.37, 1.0, 16, (0.37,), 4)
        assert np.diff(early)[-1] == pytest.approx(0.37 / 16 ** 4, rel=1e-9)
        assert np.diff(late)[0] == pytest.approx(0.63 / 16 ** 4, rel=1e-9)
        assert np.all(np.diff(np.diff(early)) < 0)   # shrinking toward 0.37
        assert np.all(np.diff(np.diff(late)) > 0)    # growing away from 0.37

    def test_piece_between_breakpoints_is_graded_toward_both(self):
        edges = gf.panel_edges(0.3, 0.5, 8, (0.3, 0.5), 4)
        widths = np.diff(edges)
        assert widths[0] == pytest.approx(widths[-1], rel=1e-9)
        assert widths[0] == pytest.approx(0.1 / 4 ** 4, rel=1e-9)
        assert np.argmax(widths) in (3, 4)

    def test_window_ends_that_are_not_breakpoints_stay_uniform(self):
        edges = gf.panel_edges(0.0, 1.0, 4, (), 4)
        assert np.array_equal(edges, np.linspace(0.0, 1.0, 5))

    def test_grading_follows_the_declared_hoelder_order(self):
        assert mesh_grading(1.0) == 1
        assert mesh_grading(0.999) == mesh_grading(0.5) == mesh_grading(0.25) == 4


class TestRefineByDoubling:
    @staticmethod
    def sequence(values):
        calls = []

        def estimate(n):
            calls.append(n)
            return np.array([[values[len(calls) - 1]]])

        return estimate, calls

    def test_stops_on_the_raw_difference_without_an_order(self):
        estimate, calls = self.sequence([1.0, 0.5, 0.5 + 1e-4])
        u, n, diff = _refine_by_doubling(estimate, 2, 1e-4, 10)
        assert calls == [2, 4, 8] and n == 8
        assert diff == pytest.approx(1e-4) and u[0, 0] == 0.5 + 1e-4

    def test_fourth_order_estimate_is_a_fifteenth_of_the_difference(self):
        # differences 1.6e-1, 1e-2, 6.25e-4: ratio 16, so the error of the
        # last estimate is its difference over 15
        estimate, calls = self.sequence([1.0, 1.16, 1.17, 1.170625])
        u, n, error = _refine_by_doubling(estimate, 1, 4.2e-5, 10, order=4)
        assert calls == [1, 2, 4, 8] and u[0, 0] == 1.170625
        assert error == pytest.approx(6.25e-4 / 15)
        # the first doubling has no ratio yet and assumes the full order
        estimate, calls = self.sequence([1.0, 1.0015])
        _, n, error = _refine_by_doubling(estimate, 1, 1.01e-4, 10, order=4)
        assert n == 2 and error == pytest.approx(1e-4)

    def test_slower_convergence_than_the_order_is_not_trusted(self):
        # differences halve: the error is the difference itself, not 1/15 of it
        estimate, calls = self.sequence([0.0, 1e-2, 1.5e-2, 1.75e-2])
        with pytest.raises(gf.AccuracyError) as caught:
            _refine_by_doubling(estimate, 1, 5e-4, 3, order=4)
        assert calls == [1, 2, 4, 8]
        assert caught.value.achieved == pytest.approx(2.5e-3)

    def test_gives_up_once_the_difference_stops_shrinking(self):
        # differences 1e-1, 1e-3, 1e-3: no progress, so no further doublings
        estimate, calls = self.sequence([1.0, 1.1, 1.101, 1.1, 1.0])
        with pytest.raises(gf.AccuracyError) as caught:
            _refine_by_doubling(estimate, 1, 1e-12, 10)
        assert calls == [1, 2, 4, 8]
        assert caught.value.requested == 1e-12
        assert caught.value.achieved == pytest.approx(1e-3)
        assert "stopped converging" in str(caught.value)

    def test_a_growth_at_the_first_comparison_is_pre_asymptotic(self):
        # differences 1e-2, 5e-2, 1e-4, 1e-9: the second difference grows and
        # refinement goes on; the next error is the raw 1e-4, not 1e-4 / 15,
        # so tol 1e-5 still needs one more doubling
        estimate, calls = self.sequence([1.0, 1.01, 1.06, 1.0601, 1.060100001])
        u, n, error = _refine_by_doubling(estimate, 1, 1e-5, 10, order=4)
        assert calls == [1, 2, 4, 8, 16] and n == 16 and u[0, 0] == 1.060100001
        assert error == pytest.approx(1e-9 / 15, rel=1e-4)

    def test_a_growth_at_the_second_comparison_gives_up(self):
        # differences 1e-2, 5e-2, 6e-2: only the first growth is forgiven
        estimate, calls = self.sequence([1.0, 1.01, 1.06, 1.12, 1.0])
        with pytest.raises(gf.AccuracyError) as caught:
            _refine_by_doubling(estimate, 1, 1e-12, 10, order=4)
        assert calls == [1, 2, 4, 8]
        assert caught.value.achieved == pytest.approx(6e-2)
        assert "did not shrink from 5.000e-02" in str(caught.value)

    def test_gives_up_when_the_doublings_run_out(self):
        estimate, calls = self.sequence([1.0, 0.5, 0.25, 0.125])
        with pytest.raises(gf.AccuracyError) as caught:
            _refine_by_doubling(estimate, 1, 1e-12, 2)
        assert calls == [1, 2, 4]
        assert caught.value.achieved == pytest.approx(0.25)


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

    def test_graded_kink_converges_where_uniform_panels_cannot(self):
        # |x - 0.37|^{1/4} at tol 1e-12: uniform panels converge with order
        # 1.25 and run out of doublings; graded ones need 256 panels
        sizes = []

        def f(x):
            sizes.append(x.size)
            return (abs(x - 0.37) ** 0.25)[:, None, None]

        spec = gf.QuadratureSpec(tol=1e-12)
        exact = 0.8 * (0.37 ** 1.25 + 0.63 ** 1.25)
        result = gf.integrate_matrix(f, 0.0, 1.0, spec, breakpoints=(0.37,),
                                     grading=GRADED_EXPONENT)
        assert result[0, 0] == pytest.approx(exact, abs=1e-12)
        assert sum(sizes) <= 16 * (2 + 4 + 8 + 16 + 32 + 64 + 128 + 256)
        with pytest.raises(gf.AccuracyError):
            gf.integrate_matrix(f, 0.0, 1.0, spec, breakpoints=(0.37,))

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
