"""One table of bad scalar arguments.

Every entry point judges its scalar arguments by the package's one number
rule: a boolean is no number, a count is an integer, and a number is finite
and within its bounds.  Each row calls one entry point with one bad value and
expects the error class of its layer and a message that names the argument.
"""
import math
import re

import numpy as np
import pytest

import gibbsflow as gf
from gibbsflow import cli
from gibbsflow.errors import MAX_COUNT, MAX_DIM

MODEL = gf.scalar_model(1.0, gf.linear_profile(1.0))
LEFT = gf.Scheme.LEFT
HEAT_OPERATOR = gf.HermitianOperator(np.eye(2))


def _integrand(x):
    return x[:, None, None]


# (entry point, argument, call with that argument set to x, error class)
COUNTS = [
    ("make_partition", "n", lambda x: gf.make_partition(0.0, 1.0, x), gf.ValidationError),
    ("product_approximant", "n", lambda x: gf.product_approximant(LEFT, MODEL, 0.0, 1.0, x),
     gf.ValidationError),
    ("verify_contraction", "n", lambda x: gf.verify_contraction(MODEL, LEFT, 0.0, 1.0, x),
     gf.ValidationError),
    ("verify_lifting", "n", lambda x: gf.verify_lifting(MODEL, LEFT, 0.0, 1.0, x),
     gf.ValidationError),
    ("run_convergence", "n_list", lambda x: gf.run_convergence(MODEL, LEFT, 0.0, 1.0,
                                                               [8, 16, x]), gf.ValidationError),
    ("run_convergence", "fit_ns", lambda x: gf.run_convergence(MODEL, LEFT, 0.0, 1.0,
                                                               [8, 16, 32], fit_ns=[x]),
     gf.ValidationError),
    ("panel_edges", "n_panels", lambda x: gf.panel_edges(0.0, 1.0, x), gf.ValidationError),
    ("panel_edges", "grading", lambda x: gf.panel_edges(0.0, 1.0, 4, (), x),
     gf.ValidationError),
    ("lemma21_ensemble", "count", lambda x: gf.lemma21_ensemble(x), gf.ValidationError),
    ("lemma21_ensemble", "dim_max", lambda x: gf.lemma21_ensemble(4, dim_max=x),
     gf.ValidationError),
    ("lemma21_ensemble", "seed", lambda x: gf.lemma21_ensemble(4, seed=x), gf.ValidationError),
    ("dyson_phillips_term", "k", lambda x: gf.dyson_phillips_term(MODEL, 0.0, 1.0, x),
     gf.ValidationError),
    ("estimate_constants", "grid", lambda x: gf.estimate_constants(MODEL, 0.0, 1.0, grid=x),
     gf.ValidationError),
    ("contraction_coefficient", "grid",
     lambda x: gf.contraction_coefficient(MODEL, 0.0, 1.0, grid=x), gf.ValidationError),
]

POSITIVE_REALS = [
    ("integrate_matrix", "tol", lambda x: gf.integrate_matrix(_integrand, 0.0, 1.0, tol=x),
     gf.ValidationError),
    ("reference_propagator", "tol", lambda x: gf.reference_propagator(MODEL, 0.0, 1.0, tol=x),
     gf.ValidationError),
    ("dyson_phillips_term", "tol", lambda x: gf.dyson_phillips_term(MODEL, 0.0, 1.0, 1, tol=x),
     gf.ValidationError),
    ("integral_equation_residual", "tol",
     lambda x: gf.integral_equation_residual(MODEL.exact, MODEL, 0.0, 1.0, tol=x),
     gf.ValidationError),
    ("dyson_phillips_sum", "eps_tail", lambda x: gf.dyson_phillips_sum(MODEL, 0.0, 1.0, x),
     gf.ValidationError),
    ("run_convergence", "tol_ref",
     lambda x: gf.run_convergence(MODEL, LEFT, 0.0, 1.0, [8, 16, 32], tol_ref=x),
     gf.ValidationError),
    ("verify_lifting", "tol_ref", lambda x: gf.verify_lifting(MODEL, LEFT, 0.0, 1.0, 8, x),
     gf.ValidationError),
    ("verify_cocycle", "tol_ref", lambda x: gf.verify_cocycle(MODEL, 0.0, 0.5, 1.0, tol_ref=x),
     gf.ValidationError),
    ("scalar_model", "horizon", lambda x: gf.scalar_model(1.0, 0.5, horizon=x), gf.ModelError),
    ("commuting_model", "horizon", lambda x: gf.commuting_model([1, 2], [0.3, 0.2], 0.5,
                                                                horizon=x), gf.ModelError),
    ("rotating_model", "horizon", lambda x: gf.rotating_model([1, 2], [0.3, 0.2], 1.0, 1.0,
                                                              horizon=x), gf.ModelError),
    ("kink_profile", "beta", lambda x: gf.kink_profile(0.5, x), gf.ModelError),
    ("TimeProfile", "beta", lambda x: gf.TimeProfile("p", beta=x), gf.ModelError),
    ("PerturbationFamily", "beta",
     lambda x: gf.PerturbationFamily(entries=np.zeros, alpha=0.0, beta=x), gf.ModelError),
]

# Arguments with no table of their own.  Together with the tables these rows
# hold the calls that used to get through: scalar_model(1.0, 0.5,
# horizon=True), reference_propagator(m, 0, 1, tol=True), kink_profile(0.5,
# True), rotating_model([1, 2], [0.3, 0.2], inf, beta=1.0).
SINGLE = [
    ("rotating_model", "omega", lambda x: gf.rotating_model([1, 2], [0.3, 0.2], x, beta=1.0),
     math.inf, gf.ModelError),
    ("rotating_model", "omega", lambda x: gf.rotating_model([1, 2], [0.3, 0.2], x, beta=1.0),
     math.nan, gf.ModelError),
    ("rotating_model", "t0", lambda x: gf.rotating_model([1, 2], [0.3, 0.2], 1.0, 1.0, t0=x),
     True, gf.ModelError),
    ("make_partition", "t", lambda x: gf.make_partition(0, x, 4), True, gf.ValidationError),
    ("product_approximant", "s",
     lambda x: gf.product_approximant(LEFT, MODEL, x, 1.0, 4), True, gf.ValidationError),
    ("heat", "t", lambda x: gf.heat(HEAT_OPERATOR, x), True, gf.ValidationError),
    ("verify_lifting", "n", lambda x: gf.verify_lifting(MODEL, LEFT, 0.0, 1.0, x), 8.0,
     gf.ValidationError),
    ("run_convergence", "slack",
     lambda x: gf.run_convergence(MODEL, LEFT, 0.0, 1.0, [8, 16, 32], slack=x), True,
     gf.ValidationError),
    ("scalar_model", "alpha", lambda x: gf.scalar_model(1.0, 0.5, alpha=x), True,
     gf.ModelError),
    ("scalar_model", "a", lambda x: gf.scalar_model(x, 0.5), True, gf.ModelError),
    ("constant_profile", "offset", lambda x: gf.constant_profile(x), True, gf.ModelError),
    ("RateRegime.epsilon", "n", lambda x: gf.RateRegime(1.0).epsilon(x), True,
     gf.ValidationError),
    # An int too large for a float is infinite, not an OverflowError.
    ("reference_propagator", "tol", lambda x: gf.reference_propagator(MODEL, 0.0, 1.0, tol=x),
     10 ** 400, gf.ValidationError),
    # An infinite interval end, not numpy's "cannot convert float NaN to integer".
    ("panel_edges", "b", lambda x: gf.panel_edges(0.0, x, 4), math.inf, gf.ValidationError),
    ("panel_edges", "a", lambda x: gf.panel_edges(x, 1.0, 4), -math.inf, gf.ValidationError),
    ("integrate_matrix", "b", lambda x: gf.integrate_matrix(_integrand, 0.0, x), math.inf,
     gf.ValidationError),
    # A count past the largest size numpy can index, not numpy's "Maximum
    # allowed size exceeded" or "high is out of bounds for int64".
    ("estimate_constants", "grid", lambda x: gf.estimate_constants(MODEL, 0.0, 1.0, grid=x),
     10 ** 400, gf.ValidationError),
    ("make_partition", "n", lambda x: gf.make_partition(0.0, 1.0, x), 10 ** 400,
     gf.ValidationError),
    ("product_approximant", "n", lambda x: gf.product_approximant(LEFT, MODEL, 0.0, 1.0, x),
     10 ** 400, gf.ValidationError),
    ("lemma21_ensemble", "dim_max", lambda x: gf.lemma21_ensemble(4, dim_max=x), 10 ** 400,
     gf.ValidationError),
]

ROWS = (
    [(entry, name, call, value, error) for entry, name, call, error in COUNTS
     for value in (True, math.nan, math.inf, 2.5)]
    + [(entry, name, call, value, error) for entry, name, call, error in POSITIVE_REALS
       for value in (True, math.nan, 0, -1)]
    + SINGLE
)


@pytest.mark.parametrize("entry, name, call, value, error", ROWS,
                         ids=[f"{entry}-{name}={value!r:.12}"
                              for entry, name, _, value, _ in ROWS])
def test_a_bad_scalar_argument_is_rejected_by_name(entry, name, call, value, error):
    with pytest.raises(error) as info:
        call(value)
    assert re.search(rf"(^|: ){re.escape(name)} must be ", str(info.value)), str(info.value)


def test_numpy_scalars_are_numbers_and_numpy_booleans_are_not():
    assert gf.make_partition(np.float64(0.0), np.float64(1.0), np.int64(8)).n == 8
    with pytest.raises(gf.ValidationError, match="n must be an integer"):
        gf.make_partition(0.0, 1.0, np.bool_(True))


BIG = "1" + "0" * 400
SCALAR = "model: {family: scalar, a: 1.0, b: 0.5}\n"


@pytest.mark.parametrize("document, line", [
    (SCALAR + f"t: {BIG}", "error: t: must be finite, got inf"),
    (f"model: {{family: scalar, a: {BIG}}}", "error: model.a: must be finite, got inf"),
    (f"model: {{family: commuting, lambdas: [1.0, {BIG}], d0: [0.1, 0.2]}}",
     "error: model.lambdas: must be finite, got inf"),
    # A count past the most entries numpy can size.
    (SCALAR + f"grid: {BIG}", f"error: grid: must be <= {MAX_COUNT}, got {BIG}"),
    (SCALAR + f"n_list: [8, 16, {BIG}]",
     f"error: n_list: must be strictly increasing integers >= 1 and <= {MAX_COUNT}, "
     f"got [8, 16, {BIG}]"),
    (SCALAR + f"verify: {{lifting_ns: [4, {BIG}]}}",
     f"error: verify.lifting_ns: must be even integers >= 4 and <= {MAX_COUNT}, "
     f"got [4, {BIG}]"),
    (SCALAR + f"verify: {{contraction_ns: [4, {BIG}]}}",
     f"error: verify.contraction_ns: must be integers >= 1 and <= {MAX_COUNT}, "
     f"got [4, {BIG}]"),
    (SCALAR + f"verify: {{dim_max: {BIG}}}",
     f"error: verify.dim_max: must be <= {MAX_DIM}, got {BIG}"),
], ids=["t", "model.a", "lambdas-entry", "grid", "n_list-entry", "lifting_ns-entry",
        "contraction_ns-entry", "dim_max"])
def test_a_config_integer_too_large_for_a_float_is_a_config_error(document, line, tmp_path,
                                                                  capsys):
    path = tmp_path / "big.yaml"
    path.write_text(document + "\n")
    assert cli.main(["constants", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [line] and captured.out == ""


def test_a_config_integer_past_the_digit_limit_is_a_config_error(tmp_path, capsys):
    # PyYAML's int constructor raises ValueError past Python's 4300-digit
    # string conversion limit.
    path = tmp_path / "digits.yaml"
    path.write_text(SCALAR + "t: 1" + "0" * 5000 + "\n")
    with pytest.raises(gf.ConfigError, match="invalid YAML: Exceeds the limit"):
        gf.parse_config(path.read_text())
    assert cli.main(["constants", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: invalid YAML: ")
    assert captured.out == ""
