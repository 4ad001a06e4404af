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

from .errors import (
    AccuracyError,
    ConfigError,
    DecompositionError,
    DomainError,
    GibbsflowError,
    ModelError,
    NoKnownRateError,
    TimeRangeError,
    ValidationError,
)
from .linalg import (
    HermitianOperator,
    eigh,
    fractional_power,
    heat,
    operator_function,
    opnorm,
    schatten_norm,
    singular_values,
    trace_norm,
)
from .models import (
    Generator,
    Model,
    PerturbationFamily,
    TimeProfile,
    commuting_model,
    constant_profile,
    eigen_entries,
    evaluate_perturbation,
    kink_profile,
    linear_profile,
    perturbation_entries,
    rotating_model,
    scalar_model,
)
from .quadrature import QuadratureSpec, integrate_matrix, panel_edges
from .propagator import (
    Partition,
    PropagatorResult,
    Scheme,
    integral_equation_residual,
    make_partition,
    product_approximant,
    reference_propagator,
    step_factor,
)
from .constants import ConstantsReport, contraction_coefficient, estimate_constants, smoothing_constant
from .dyson import dyson_phillips_sum, dyson_phillips_term
from .analysis import (
    CocycleCheck,
    ContractionCheck,
    ConvergenceReport,
    Lemma21Check,
    Lemma21Ensemble,
    LiftingCheck,
    RateFit,
    RateRegime,
    RegimeKind,
    RegimeResult,
    applicable_regimes,
    fit_rate,
    lemma21_ensemble,
    run_convergence,
    select_regime,
    verify_cocycle,
    verify_contraction,
    verify_lemma21,
    verify_lifting,
)
from .config import ExperimentConfig, VerifySpec, build_model, config_from_dict, parse_config
from .reports import ReportEnvelope

__all__ = [
    "__version__",
    # errors
    "GibbsflowError", "ValidationError", "ConfigError", "ModelError",
    "TimeRangeError", "DomainError", "DecompositionError", "AccuracyError",
    "NoKnownRateError",
    # linear algebra
    "HermitianOperator", "eigh", "operator_function", "heat",
    "fractional_power", "singular_values", "schatten_norm", "trace_norm",
    "opnorm",
    # models
    "TimeProfile", "constant_profile", "linear_profile", "kink_profile",
    "Generator", "PerturbationFamily", "Model", "evaluate_perturbation",
    "perturbation_entries", "eigen_entries", "scalar_model", "commuting_model", "rotating_model",
    # quadrature
    "QuadratureSpec", "panel_edges", "integrate_matrix",
    # propagator
    "Scheme", "Partition", "make_partition", "PropagatorResult",
    "step_factor", "product_approximant", "reference_propagator",
    "integral_equation_residual",
    # constants
    "ConstantsReport", "estimate_constants", "smoothing_constant",
    "contraction_coefficient",
    # perturbation series
    "dyson_phillips_term", "dyson_phillips_sum",
    # analysis
    "RegimeKind", "RateRegime", "applicable_regimes", "select_regime",
    "RateFit", "fit_rate", "RegimeResult", "ConvergenceReport",
    "run_convergence", "Lemma21Check", "verify_lemma21", "Lemma21Ensemble",
    "lemma21_ensemble", "LiftingCheck", "verify_lifting", "CocycleCheck",
    "verify_cocycle", "ContractionCheck", "verify_contraction",
    # configuration and reporting
    "ExperimentConfig", "VerifySpec", "parse_config", "config_from_dict",
    "build_model", "ReportEnvelope",
]
