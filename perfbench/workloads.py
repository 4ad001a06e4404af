"""Workload inputs (built from the benchmark seed) and their output checks.

Each workload turns ``--seed`` into the program's input and knows how to
judge the program's output.  An *operation* is one record-producing job of
the CLI (a convergence scheme; one lifting, cocycle, contraction or lemma21
job) or one library call.  ``check`` returns one ``(stage, ok, detail)``
triple per operation; a missing record, a ``failure`` record, a non-zero
exit or a failed check makes that operation fail.

The seed changes inputs without changing how much work they ask for, so
that run-to-run spread measures the code and not the seed:

* run-smooth permutes the b0 entries that the rotation never touches
  (indices 2..15), one of 16 variants whose goldens were taken once;
  every variant needs the same reference cell count.
* verify-kinked picks the program's own seed (lemma21 ensemble, cocycle
  split point) from a pool whose cocycle reference cell counts equal those
  of program seed 0; the oracle's cost jumps by up to 8x with the split point.
* run-wide permutes the commuting coupling d0; with the exact oracle the
  work does not depend on the values.
* series-kinked permutes d0 too, but there the pairing of d0 with the
  eigenvalues sets how many panels the series and the residual quadrature
  need (2x to 4x apart), so the permutation comes from a pool whose panel
  and integrand counts equal those of permutation seed 1.
* run-wide and series-kinked are checked against closed forms.
"""
from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"

SCHEMES = ("left", "right", "symmetric")
README_LAMBDAS = {"start": 1.0, "stop": 4.0, "count": 16}
README_B0 = [0.5, 0.3, 0.8, 0.2, 0.9, 0.4, 0.7, 0.1,
             0.6, 0.2, 0.4, 0.8, 0.3, 0.5, 0.9, 0.2]
OMEGA = 3.14159265358979
SMOOTH_VARIANTS = 16
SMOOTH_TOL_REF = 1e-10
SMOOTH_N_LIST = [8, 16, 32, 64, 128]
KINKED_TOL_REF = 1e-8
KINKED_VERIFY = {"lemma_instances": 1000, "lifting_ns": [8], "cocycle_triples": 1,
                 "contraction_ns": [4, 16, 64]}
# Commuting kinked coupling b(t) = 0.5 + |t - 0.37|^0.5 shared by run-wide and
# series-kinked; its closed forms give both workloads an exact check.
KINK = {"kind": "kink", "t0": 0.37, "beta": 0.5, "scale": 1.0, "offset": 0.5}
WIDE_DIM = 64
WIDE_N_LIST = {"start": 16, "stop": 32768, "factor": 2}
WIDE_TOL = 1e-9
SERIES_DIM = 8
SERIES_EPS_TAIL = 1e-6
# dyson_phillips_sum's default quadrature tolerance for eps_tail = 1e-6.
SERIES_QUAD_TOL = max(min(SERIES_EPS_TAIL / 10.0, 1e-8), 1e-13)
# 10 * QuadratureSpec().tol, with the default tolerance 1e-10.
RESIDUAL_LIMIT = 1e-9


def config_text(data: dict) -> str:
    """JSON text that YAML 1.1 reads back with every float exact.

    PyYAML reads an exponent float only with a dot in its mantissa, so
    ``1e-10`` is written ``1.0e-10``.
    """
    return re.sub(r"(?<![\w.])(-?\d+)(e[-+]\d+)", r"\1.0\2", json.dumps(data, indent=1))


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as handle:
        return json.load(handle)


def smooth_b0(variant: int) -> list:
    b0 = list(README_B0)
    if variant:
        b0[2:] = np.random.default_rng(variant).permutation(README_B0[2:]).tolist()
    return b0


def smooth_config(seed: int) -> dict:
    return {
        "model": {"family": "rotating", "lambdas": README_LAMBDAS,
                  "b0": smooth_b0(seed % SMOOTH_VARIANTS), "omega": OMEGA, "t0": 0.5},
        "beta": 1.0, "tol_ref": SMOOTH_TOL_REF, "scheme": "all",
        "n_list": SMOOTH_N_LIST, "seed": seed,
    }


def kinked_config(program_seed: int) -> dict:
    return {
        "model": {"family": "rotating", "lambdas": README_LAMBDAS, "b0": README_B0,
                  "omega": OMEGA, "t0": 0.5},
        "beta": 0.5, "tol_ref": KINKED_TOL_REF, "scheme": "all",
        "seed": program_seed, "verify": KINKED_VERIFY,
    }


def kinked_input(seed: int, goldens: dict) -> dict:
    pool = goldens["verify-kinked"]["program_seeds"]
    return kinked_config(pool[seed % len(pool)])


def commuting_inputs(seed: int, dim: int) -> tuple[list, list]:
    lambdas = np.linspace(1.0, 8.0, dim)
    d0 = np.random.default_rng(seed).permutation(np.linspace(0.1, 1.0, dim))
    return lambdas.tolist(), d0.tolist()


def wide_config(seed: int) -> dict:
    lambdas, d0 = commuting_inputs(seed, WIDE_DIM)
    return {
        "model": {"family": "commuting", "lambdas": lambdas, "d0": d0, "b": KINK},
        "beta": 0.5, "scheme": "all", "n_list": WIDE_N_LIST, "seed": seed,
    }


def series_input(seed: int, goldens: dict) -> dict:
    pool = goldens["series-kinked"]["permutation_seeds"]
    lambdas, d0 = commuting_inputs(pool[seed % len(pool)], SERIES_DIM)
    return {"lambdas": lambdas, "d0": d0, "kink": KINK, "beta": 0.5,
            "eps_tail": SERIES_EPS_TAIL}


# -- closed forms for the commuting kinked model -----------------------------

def _kink_value(t: float) -> float:
    return KINK["offset"] + KINK["scale"] * abs(t - KINK["t0"]) ** KINK["beta"]


def _kink_integral(s: float, t: float) -> float:
    def antiderivative(x: float) -> float:
        u = x - KINK["t0"]
        return math.copysign(abs(u) ** (KINK["beta"] + 1.0) / (KINK["beta"] + 1.0), u)

    return KINK["offset"] * (t - s) + KINK["scale"] * (antiderivative(t) - antiderivative(s))


def commuting_exact(lambdas, d0, s: float = 0.0, t: float = 1.0) -> np.ndarray:
    """Diagonal of U(s, t) = exp(-(t-s) A - d0 int_s^t b)."""
    return np.exp(-np.asarray(lambdas) * (t - s) - np.asarray(d0) * _kink_integral(s, t))


def commuting_product_error(lambdas, d0, n: int, s: float = 0.0, t: float = 1.0) -> float:
    """Trace-norm error of every n-cell product scheme on a commuting model.

    All factors are diagonal, so each scheme equals
    exp(-(t-s) A - d0 tau sum_k b(t_k)) with left-endpoint samples t_k.
    """
    tau = (t - s) / n
    riemann = tau * math.fsum(_kink_value(s + k * tau) for k in range(n))
    approx = np.exp(-np.asarray(lambdas) * (t - s) - np.asarray(d0) * riemann)
    return float(np.sum(np.abs(approx - commuting_exact(lambdas, d0, s, t))))


def trace_norm(matrix) -> float:
    return float(np.sum(np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)))


# -- output checks -------------------------------------------------------------

def _failures(records) -> dict:
    return {r["stage"]: f"{r['error']}: {'; '.join(r['messages'])}"
            for r in records if r.get("kind") == "failure"}


def _convergence_checks(records, expected_n, err_ok):
    """One operation per scheme: record present, n_list and err_tr as expected."""
    failed = _failures(records)
    by_scheme = {r["scheme"]: r for r in records if r.get("kind") == "convergence"}
    out = []
    for scheme in SCHEMES:
        stage = f"run:{scheme}"
        record = by_scheme.get(scheme)
        if record is None:
            out.append((stage, False, failed.get(stage, "no convergence record")))
            continue
        if record["n_list"] != list(expected_n):
            out.append((stage, False, f"n_list {record['n_list']} != {list(expected_n)}"))
            continue
        out.append((stage, *err_ok(scheme, record)))
    return out


def check_smooth(records, config, goldens) -> list:
    golden = goldens["run-smooth"]
    variant = golden["variants"][str(config["seed"] % SMOOTH_VARIANTS)]
    limit = golden["err_tr_abs_tol"]

    def err_ok(scheme, record):
        if record["bound_satisfied"] is not True:
            return False, f"bound_satisfied={record['bound_satisfied']}"
        if record["regime"] != "log(n)/n":
            return False, f"regime {record['regime']!r}"
        gap = max(abs(a - b) for a, b in zip(record["err_tr"], variant[scheme]))
        return gap <= limit, f"max |err_tr - golden| = {gap:.3e} (limit {limit:g})"

    return _convergence_checks(records, SMOOTH_N_LIST, err_ok)


def _n_values(spec: dict) -> list:
    values, n = [], spec["start"]
    while n <= spec["stop"]:
        values.append(n)
        n *= spec["factor"]
    return values


def check_wide(records, config, goldens) -> list:
    model = config["model"]
    ns = _n_values(WIDE_N_LIST)
    expected = [commuting_product_error(model["lambdas"], model["d0"], n) for n in ns]

    def err_ok(scheme, record):
        gap = max(abs(a - b) for a, b in zip(record["err_tr"], expected))
        return gap <= WIDE_TOL, f"max |err_tr - closed form| = {gap:.3e} (limit {WIDE_TOL:g})"

    return _convergence_checks(records, ns, err_ok)


def check_kinked(records, config, goldens) -> list:
    failed = _failures(records)
    spec = config["verify"]
    expected = ["lemma21"]
    expected += [f"lifting:{s}:n={n}" for s in SCHEMES for n in spec["lifting_ns"]]
    expected += [f"cocycle:{i}" for i in range(spec["cocycle_triples"])]
    expected += [f"contraction:{s}:n={n}" for s in SCHEMES for n in spec["contraction_ns"]]

    found = {}
    cocycles = 0
    for record in records:
        kind = record.get("kind")
        if kind == "lemma21":
            found["lemma21"] = (record["holds_count"] == record["count"],
                                f"holds {record['holds_count']}/{record['count']}")
        elif kind in ("lifting", "contraction"):
            found[f"{kind}:{record['scheme']}:n={record['n']}"] = (
                record["holds"] is True, f"holds={record['holds']}")
        elif kind == "cocycle":
            found[f"cocycle:{cocycles}"] = (
                record["holds"] is True,
                f"residual {record['residual']:.3e} budget {record['budget']:.3e}")
            cocycles += 1
    return [(stage, *found[stage]) if stage in found
            else (stage, False, failed.get(stage, "no record"))
            for stage in expected]


def check_series(result, config, goldens) -> list:
    """``result`` is the child's report: one entry per library call."""
    out = []
    dyson = result.get("dyson_phillips_sum", {})
    if "error" in dyson:
        out.append(("dyson_phillips_sum", False, dyson["error"]))
    elif "U" in dyson:
        gap = trace_norm(np.asarray(dyson["U"])
                         - np.diag(commuting_exact(config["lambdas"], config["d0"])))
        limit = dyson["tail_bound"] + 10.0 * SERIES_QUAD_TOL
        out.append(("dyson_phillips_sum", gap <= limit,
                    f"||U - exact||_1 = {gap:.3e} (limit {limit:.3e})"))
    else:
        out.append(("dyson_phillips_sum", False, "no result"))
    residual = result.get("integral_equation_residual", {})
    if "error" in residual:
        out.append(("integral_equation_residual", False, residual["error"]))
    elif "residual" in residual:
        value = residual["residual"]
        out.append(("integral_equation_residual", value <= RESIDUAL_LIMIT,
                    f"residual {value:.3e} (limit {RESIDUAL_LIMIT:g})"))
    else:
        out.append(("integral_equation_residual", False, "no result"))
    return out
