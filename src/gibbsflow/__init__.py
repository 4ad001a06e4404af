"""gibbsflow: product-formula approximation of non-autonomous Gibbs semiflows.

The package studies the two-parameter contraction family U(s, t) generated by
d/dt u = -(A + B(t)) u, where A is a fixed self-adjoint generator with
spectrum >= 1 and trace-class heat factors, and t -> B(t) >= 0 is a
Hoelder-continuous perturbation family.  It provides:

- exactly solvable and rotating model problems (``models``),
- left/right/symmetric ordered product approximants and a high-accuracy
  reference propagator (``propagator``),
- a perturbation-series evaluator with estimated truncation tails (``dyson``),
- the smoothing/size/regularity constants entering the error bounds
  (``constants``),
- convergence-rate fits against the theoretical regimes, plus ensemble checks
  of the structural inequalities (``analysis``),
- YAML-configured experiments with deterministic JSONL/CSV/plot reporting
  (``config``, ``reports``, ``cli``).
"""

__version__ = "0.1.0"

import importlib

# Submodule -> the public names it defines.  Each submodule is imported when
# one of its names is first read (PEP 562), so a library user who never
# touches configuration or reporting does not import them or yaml.
_EXPORTS = {
    "errors": (
        "GibbsflowError", "ValidationError", "ConfigError", "ModelError",
        "TimeRangeError", "DecompositionError", "AccuracyError",
    ),
    "linalg": (
        "HermitianOperator", "heat", "singular_values", "eigen_entries", "trace_norm",
        "opnorm",
    ),
    "models": (
        "TimeProfile", "constant_profile", "linear_profile", "kink_profile",
        "Generator", "SpectralForm", "PerturbationFamily", "Model",
        "perturbation_entries", "scalar_model", "commuting_model",
        "rotating_model",
    ),
    "quadrature": ("panel_edges", "integrate_matrix"),
    "propagator": (
        "Scheme", "Partition", "make_partition", "PropagatorResult",
        "product_approximant", "reference_propagator",
        "integral_equation_residual",
    ),
    "constants": (
        "ConstantsReport", "estimate_constants", "smoothing_constant",
        "contraction_coefficient",
    ),
    "dyson": ("dyson_phillips_term", "dyson_phillips_sum"),
    "analysis": (
        "RateRegime", "applicable_regimes", "RateFit", "fit_rate",
        "RegimeResult", "ConvergenceReport", "run_convergence",
        "Lemma21Check", "verify_lemma21", "Lemma21Ensemble", "lemma21_ensemble",
        "LiftingCheck", "verify_lifting", "CocycleCheck", "verify_cocycle",
        "ContractionCheck", "verify_contraction",
    ),
    "config": (
        "ExperimentConfig", "VerifySpec", "parse_config", "config_from_dict",
        "build_model",
    ),
    "reports": ("ReportEnvelope",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
