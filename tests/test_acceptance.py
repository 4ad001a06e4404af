"""Acceptance suite: one test per criterion, one pass/fail line each.

Each test prints a single summary line (visible with ``pytest -s`` and on
failure) and enforces the stated tolerances and runtime budgets.
"""
import json
import math
import time

import numpy as np
import pytest

import gibbsflow as gf
from gibbsflow import cli

from conftest import random_symmetric_psd


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} [{num}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def make_rotating16(alpha: float) -> "gf.Model":
    rng = np.random.default_rng(42)
    b0 = random_symmetric_psd(rng, 16, scale=1.0)
    return gf.rotating_model(np.linspace(1.0, 4.0, 16), b0, np.pi,
                             beta=0.5, t0=0.5, alpha=alpha)


def test_criterion_1_scalar_oracle_rate():
    start = time.perf_counter()
    model = gf.scalar_model(1.0, gf.linear_profile(1.0))
    ns = [2 ** k for k in range(3, 11)]  # 8 .. 1024
    report = gf.run_convergence(model, gf.Scheme.LEFT, 0.0, 1.0, ns)
    exact = math.exp(-1.5)
    worst = max(abs(err - exact * math.expm1(1.0 / (2.0 * n)))
                for n, err in zip(report.n_list, report.err_tr))
    elapsed = time.perf_counter() - start
    ok = (worst <= 1e-12
          and -1.05 <= report.fitted_slope <= -0.95
          and elapsed < 1.0)
    _line(1, "scalar oracle rate", ok,
          f"max|err - closed form|={worst:.2e}, slope={report.fitted_slope:.4f}, "
          f"{elapsed:.2f}s")


def test_criterion_2_commuting_oracle():
    start = time.perf_counter()
    model = gf.commuting_model(np.linspace(1.0, 3.0, 8), np.linspace(0.2, 1.6, 8),
                               gf.linear_profile(1.0))
    ns = [2 ** k for k in range(3, 10)]  # 8 .. 512
    slopes, monotone = [], True
    for scheme in gf.Scheme:
        report = gf.run_convergence(model, scheme, 0.0, 1.0, ns)
        slopes.append(report.fitted_slope)
        monotone &= all(a > b for a, b in zip(report.err_tr, report.err_tr[1:]))
    elapsed = time.perf_counter() - start
    ok = monotone and max(slopes) <= -0.9 and elapsed < 5.0
    _line(2, "commuting oracle", ok,
          f"slopes={[f'{s:.3f}' for s in slopes]}, monotone={monotone}, {elapsed:.2f}s")


def test_criterion_3_rate_upper_bound():
    start = time.perf_counter()
    ns = [2 ** k for k in range(3, 11)]  # 8 .. 1024
    # beta = 0.5: the general gap n^-(beta-alpha) at alpha = 0.2, the
    # Hoelder-dominated n^-beta at alpha = 0.6
    expected_label = {0.2: "n^-0.3", 0.6: "n^-0.5"}
    details, ok = [], True
    for alpha in (0.2, 0.6):
        model = make_rotating16(alpha)
        for scheme in (gf.Scheme.LEFT, gf.Scheme.SYMMETRIC):
            report = gf.run_convergence(model, scheme, 0.0, 1.0, ns,
                                        tol_ref=1e-8, slack=0.1,
                                        fit_ns=[8, 16, 32])
            ok &= report.regime == expected_label[alpha]
            ok &= bool(report.bound_satisfied)
            details.append(f"alpha={alpha}/{scheme.value}:{report.regime}"
                           f"{'+' if report.bound_satisfied else '-'}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _line(3, "rate upper bound", ok, f"{', '.join(details)}, {elapsed:.1f}s")


def test_criterion_4_ordered_product_ensemble():
    start = time.perf_counter()
    ensemble = gf.lemma21_ensemble(count=1000, seed=0, dim_max=16)
    elapsed = time.perf_counter() - start
    ok = ensemble.holds and ensemble.holds_count == 1000 and elapsed < 10.0
    _line(4, "ordered-product trace bound", ok,
          f"{ensemble.holds_count}/1000 hold, min margin={ensemble.min_margin:.2e}, "
          f"{elapsed:.1f}s")


def test_criterion_5_series_tail():
    start = time.perf_counter()
    quad_tol = 1e-10
    models = [
        gf.scalar_model(1.0, gf.constant_profile(0.4)),
        gf.commuting_model([1.0, 2.0, 3.0], [0.3, 0.2, 0.1],
                           gf.constant_profile(1.0)),
    ]
    worst_excess, ok = -math.inf, True
    for model in models:
        xi = gf.estimate_constants(model, 0.0, 1.0).xi
        assert xi <= 0.5
        exact = model.exact(0.0, 1.0)
        partial = np.zeros_like(exact)
        terms = {k: gf.dyson_phillips_term(model, 0.0, 1.0, k) for k in range(7)}
        for n_trunc in range(1, 7):
            partial = sum(terms[k] for k in range(n_trunc + 1))
            err = gf.trace_norm(partial - exact)
            budget = xi ** (n_trunc + 1) / (1.0 - xi) + 10.0 * quad_tol
            worst_excess = max(worst_excess, err - budget)
            ok &= err <= budget
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _line(5, "series tail bound", ok,
          f"max(err - budget)={worst_excess:.2e}, {elapsed:.1f}s")


def test_criterion_6_evolution_family_axioms():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    cases = []
    scalar = gf.scalar_model(1.0, gf.linear_profile(1.0))
    commuting = gf.commuting_model(np.linspace(1, 3, 4), np.linspace(0.1, 0.7, 4),
                                   gf.linear_profile(1.0))
    rot_rng = np.random.default_rng(6)
    rotating = gf.rotating_model(np.linspace(1, 4, 4),
                                 random_symmetric_psd(rot_rng, 4), np.pi,
                                 beta=0.5, t0=0.5)
    for model, count, tol in ((scalar, 8, 1e-9), (commuting, 8, 1e-9),
                              (rotating, 4, 1e-7)):
        for _ in range(count):
            s, r, t = np.sort(0.05 + 0.9 * rng.random(3))
            r = min(max(r, s + 0.03), t - 0.03)
            cases.append((model, float(s), float(r), float(t), tol))
    assert len(cases) == 20
    worst_residual_ratio, worst_norm, ok = 0.0, 0.0, True
    for model, s, r, t, tol in cases:
        check = gf.verify_cocycle(model, s, r, t, tol_ref=tol)
        worst_residual_ratio = max(worst_residual_ratio, check.residual / check.budget)
        worst_norm = max(worst_norm, check.norm)
        ok &= check.holds and check.norm <= 1.0 + 1e-10
    elapsed = time.perf_counter() - start
    _line(6, "evolution-family axioms", ok,
          f"20 triples, max residual/budget={worst_residual_ratio:.2f}, "
          f"max norm={worst_norm:.6f}, {elapsed:.1f}s")


def test_criterion_7_lifting_decomposition():
    start = time.perf_counter()
    scalar = gf.scalar_model(1.0, gf.linear_profile(1.0))
    commuting = gf.commuting_model(np.linspace(1, 3, 4), np.linspace(0.1, 0.7, 4),
                                   gf.linear_profile(1.0))
    rot_rng = np.random.default_rng(6)
    rotating = gf.rotating_model(np.linspace(1, 4, 4),
                                 random_symmetric_psd(rot_rng, 4), np.pi,
                                 beta=0.5, t0=0.5)
    min_margin, checks, ok = math.inf, 0, True
    for model, tol in ((scalar, 1e-10), (commuting, 1e-10), (rotating, 1e-7)):
        for scheme in (gf.Scheme.LEFT, gf.Scheme.SYMMETRIC):
            for n in (4, 8, 16, 32):
                check = gf.verify_lifting(model, scheme, 0.0, 1.0, n, tol_ref=tol)
                margin = check.rhs - check.lhs
                min_margin = min(min_margin, margin)
                ok &= check.holds and margin >= -1e-10 * max(1.0, check.rhs)
                checks += 1
    elapsed = time.perf_counter() - start
    _line(7, "lifting decomposition", ok,
          f"{checks} checks, min margin={min_margin:.2e}, {elapsed:.1f}s")


def test_criterion_8_integral_equation_residual():
    start = time.perf_counter()
    tol = 1e-10  # the residual's quadrature tolerance
    tol_ref = 1e-10
    budget_exact = 10.0 * tol
    budget_ref = 10.0 * (tol + tol_ref)
    scalar = gf.scalar_model(1.0, gf.linear_profile(1.0))
    commuting = gf.commuting_model([1.0, 3.0], [2.0, 1.0], gf.linear_profile(1.0))
    results, ok = [], True
    for label, model in (("scalar", scalar), ("commuting", commuting)):
        res_exact = gf.integral_equation_residual(model.exact, model, 0.0, 1.0, tol)
        ok &= res_exact <= budget_exact
        results.append(f"{label}/exact={res_exact:.1e}")

        def via_reference(s, t, _model=model):
            return gf.reference_propagator(_model, s, t, tol_ref).U

        res_ref = gf.integral_equation_residual(via_reference, model, 0.0, 1.0, tol)
        ok &= res_ref <= budget_ref
        results.append(f"{label}/reference={res_ref:.1e}")
    elapsed = time.perf_counter() - start
    _line(8, "integral-equation residual", ok,
          f"{', '.join(results)} (budget {budget_ref:.0e}), {elapsed:.1f}s")


def test_criterion_9_norm_ordering_and_determinism(tmp_path):
    start = time.perf_counter()
    # norm ordering holds in every convergence report
    scalar = gf.scalar_model(1.0, gf.linear_profile(1.0))
    commuting = gf.commuting_model(np.linspace(1, 3, 4), np.linspace(0.1, 0.7, 4),
                                   gf.linear_profile(1.0))
    ordering_ok = True
    for model in (scalar, commuting):
        for scheme in gf.Scheme:
            report = gf.run_convergence(model, scheme, 0.0, 1.0, [8, 16, 32, 64])
            for op, tr in zip(report.err_op, report.err_tr):
                ordering_ok &= op <= tr * (1 + 1e-12) + 1e-15

    # byte-identical jsonl across repeated runs with the same config and seed
    config = tmp_path / "exp.yaml"
    config.write_text("""
model:
  family: commuting
  lambdas: [1.0, 2.0, 3.0]
  d0: [0.3, 0.2, 0.1]
  b: {kind: linear, slope: 1.0}
n_list: [8, 16, 32]
seed: 11
verify: {lemma_instances: 10, cocycle_triples: 2, lifting_ns: [4], contraction_ns: [4]}
""")
    payloads = []
    for name in ("first.jsonl", "second.jsonl"):
        out = tmp_path / name
        code = cli.main(["run", "--config", str(config), "--output", str(out)])
        assert code == 0
        payloads.append(out.read_bytes())
    deterministic = payloads[0] == payloads[1]
    json.loads(payloads[0].decode().splitlines()[0])  # stream is valid jsonl
    elapsed = time.perf_counter() - start
    ok = ordering_ok and deterministic
    _line(9, "norm ordering and determinism", ok,
          f"err_op<=err_tr everywhere={ordering_ok}, "
          f"byte-identical={deterministic}, {elapsed:.1f}s")
