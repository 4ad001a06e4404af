"""Experiment configuration: one human-editable YAML document.

``parse_config`` validates the whole document and reports *every* failure it
finds (with dotted key paths), not just the first.  A parsed configuration
normalizes to a plain dictionary that re-parses to an equal configuration,
which is how report envelopes echo their provenance.

An absent key takes the field default of ``ExperimentConfig`` or ``VerifySpec``,
or, in a model or profile, the keyword default of its constructor.
"""
from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Optional

import numpy as np
import yaml

from .errors import MAX_COUNT, MAX_DIM, ConfigError, _number_problem
from .models import (
    Model,
    TimeProfile,
    commuting_model,
    constant_profile,
    kink_profile,
    linear_profile,
    rotating_model,
    scalar_model,
)
from .reports import FORMATS

__all__ = ["ExperimentConfig", "VerifySpec", "parse_config", "config_from_dict", "build_model"]

SCHEME_NAMES = ("left", "right", "symmetric")

# ``model.b`` of a scalar or commuting model when absent: no coupling.
DEFAULT_COUPLING = 0.0

# Each profile kind's constructor and its keys, in the order of the
# constructor's arguments, with their bounds.  A canonical profile dict holds
# the kind and then every one of these keys.
PROFILES = {
    "constant": (constant_profile, {"value": {"lo": 0.0}}),
    "linear": (linear_profile, {"slope": {}, "offset": {"lo": 0.0}}),
    "kink": (kink_profile, {"t0": {}, "beta": {"lo": 0.0, "lo_open": True, "hi": 1.0},
                            "scale": {"lo": 0.0}, "offset": {"lo": 0.0}}),
}


@dataclass(frozen=True)
class VerifySpec:
    """Sizes of the property suites run by the ``verify`` subcommand."""

    lemma_instances: int = 1000
    dim_max: int = 16
    lifting_ns: tuple[int, ...] = (4, 8, 16, 32)
    cocycle_triples: int = 20
    contraction_ns: tuple[int, ...] = (4, 16, 64)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description."""

    model_family: str
    model_params: dict
    alpha: float = 0.0
    beta: float = 1.0
    horizon: float = 1.0
    s: float = 0.0
    t: float = 1.0
    schemes: tuple[str, ...] = SCHEME_NAMES
    n_list: tuple[int, ...] = (8, 16, 32, 64, 128)
    tol_ref: float = 1e-10
    slack: float = 0.1
    grid: int = 101
    seed: int = 0
    output_path: str = "-"
    output_format: str = "jsonl"
    verify: VerifySpec = field(default_factory=VerifySpec)

    def to_dict(self) -> dict:
        """Canonical plain-data form; re-parses to an equal config."""
        return {
            "model": {"family": self.model_family, **self.model_params},
            "alpha": self.alpha,
            "beta": self.beta,
            "horizon": self.horizon,
            "s": self.s,
            "t": self.t,
            "scheme": list(self.schemes),
            "n_list": list(self.n_list),
            "tol_ref": self.tol_ref,
            "slack": self.slack,
            "grid": self.grid,
            "seed": self.seed,
            "output": {"path": self.output_path, "format": self.output_format},
            "verify": {key: list(value) if isinstance(value, tuple) else value
                       for key, value in asdict(self.verify).items()},
        }


# The field defaults, read where a key is absent.
DEFAULTS = ExperimentConfig(model_family="", model_params={})


def _keyword_defaults(constructor) -> dict:
    """The keyword defaults of a model or profile constructor."""
    return {name: p.default for name, p in inspect.signature(constructor).parameters.items()
            if p.default is not p.empty}


def _float_hint(values) -> str:
    """A hint for the first string in ``values`` that reads as a finite float:
    YAML 1.1 takes ``1e-10`` (no dot) for a string, and ``1.0e-10`` for a
    number."""
    for x in values:
        if isinstance(x, str):
            try:
                value = float(x)
            except ValueError:
                continue
            if np.isfinite(value):
                return (f" (YAML reads {x!r} as a string; write it as "
                        f"{np.format_float_scientific(value, trim='0')})")
    return ""


class _Collector:
    def __init__(self):
        self.errors: list[str] = []

    def error(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def require_number(self, data: dict, path: str, key: str, default=None,
                       lo=None, hi=None, lo_open=False, hi_open=False, integer=False):
        """``data[key]`` (``default`` when absent) as a finite float, or an int
        when ``integer``, within the bounds; None once a failure is recorded."""
        value = data.get(key, default)
        where = f"{path}{key}"
        if value is None:
            self.error(where, "is required")
            return None
        problem = _number_problem(value, lo, hi, lo_open, hi_open, integer)
        if problem is not None:
            self.error(where, problem + ("" if integer else _float_hint([value])))
            return None
        return value if integer else float(value)

    def check_known_keys(self, data: dict, path: str, known: tuple[str, ...]) -> None:
        for key in data:
            if key not in known:
                self.error(f"{path}{key}", f"unknown key (expected one of {', '.join(known)})")


def _float_list(col: _Collector, model: dict, key: str, seen: dict):
    """``model[key]`` as a list of floats, or a {start, stop, count} linspace
    shorthand whose count defaults to the number of eigenvalues read before."""
    raw, path = model.get(key), f"model.{key}"
    if isinstance(raw, dict):
        col.check_known_keys(raw, f"{path}.", ("start", "stop", "count"))
        start = col.require_number(raw, f"{path}.", "start")
        stop = col.require_number(raw, f"{path}.", "stop")
        lambdas = seen.get("lambdas")
        n = col.require_number(raw, f"{path}.", "count", default=lambdas and len(lambdas),
                               lo=1, hi=MAX_COUNT, integer=True)
        if None in (start, stop, n):
            return None
        try:
            return [float(x) for x in np.linspace(start, stop, n)]
        except MemoryError as exc:  # a count numpy cannot allocate
            col.error(f"{path}.count", f"is too large ({exc}), got {n}")
            return None
    if isinstance(raw, list) and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                                     for x in raw):
        problem = next(filter(None, map(_number_problem, raw)), None)
        if not raw or problem is not None:
            col.error(path, problem or "must not be empty")
            return None
        return [float(x) for x in raw]
    hint = _float_hint(raw) if isinstance(raw, list) else ""
    col.error(path, f"must be a list of numbers or {{start, stop, count}}, got {raw!r}{hint}")
    return None


def _square_or_diagonal(col: _Collector, model: dict, key: str, seen: dict):
    """``model[key]`` as nested lists forming a square matrix, or else as a
    list of floats (a diagonal) without a default count."""
    raw, path = model.get(key), f"model.{key}"
    if not (isinstance(raw, list) and raw and all(isinstance(r, list) for r in raw)):
        return _float_list(col, model, key, {})
    flat = [x for r in raw for x in r]
    if {len(r) for r in raw} != {len(raw)} or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in flat):
        col.error(path, "nested lists must form a square numeric matrix" + _float_hint(flat))
        return None
    flat = _float_list(col, {key: flat}, key, {})
    return flat and [flat[i:i + len(raw)] for i in range(0, len(flat), len(raw))]


def _parse_profile(col: _Collector, model: dict, key: str, seen: dict):
    """The canonical dict of the profile ``model[key]`` (``DEFAULT_COUPLING``
    when absent), defaults filled in; a kink's beta defaults to the model's."""
    raw, path = model.get(key, DEFAULT_COUPLING), f"model.{key}"
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        raw = {"kind": "constant", "value": raw}
    if not isinstance(raw, dict):
        col.error(path, f"must be a number or a mapping with 'kind', got {raw!r}")
        return None
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in PROFILES:
        col.error(f"{path}.kind", f"must be one of {', '.join(PROFILES)}, got {kind!r}")
        return None
    constructor, keys = PROFILES[kind]
    col.check_known_keys(raw, f"{path}.", ("kind", *keys))
    defaults = {"beta": seen["beta"], **_keyword_defaults(constructor)}
    spec = {"kind": kind}
    for key, bounds in keys.items():
        spec[key] = col.require_number(raw, f"{path}.", key, default=defaults.get(key), **bounds)
    return None if None in spec.values() else spec


def _time_profile(spec: dict) -> TimeProfile:
    """The profile of a canonical profile dict."""
    kind, *args = spec.values()
    return PROFILES[kind][0](*args)


def _eigenvalues_at_least_1(col: _Collector, params: dict) -> None:
    if min(params["lambdas"]) < 1.0:
        col.error("model.lambdas", f"must all be >= 1, got min {min(params['lambdas']):g}")


def _d0_fits_lambdas(col: _Collector, params: dict) -> None:
    lambdas, d0 = params["lambdas"], params["d0"]
    if min(d0) < 0.0:
        col.error("model.d0", f"must be non-negative, got min {min(d0):g}")
    if len(d0) != len(lambdas):
        col.error("model.d0", f"length {len(d0)} must match lambdas ({len(lambdas)})")


def _two_eigenvalues(col: _Collector, params: dict) -> None:
    if len(params["lambdas"]) < 2:
        col.error("model.lambdas",
                  f"rotating model needs >= 2 eigenvalues, got {len(params['lambdas'])}")


# Each family's builder, a reader per key in canonical order, and the rules checked once
# every key is read.  ``read(col, model, key, seen)`` returns the builder's argument, None
# once it records a failure; ``seen`` holds beta, horizon and the keys read before ``key``.
FAMILIES = {
    "scalar": (scalar_model, {
        "a": lambda col, model, key, seen: col.require_number(model, "model.", key, lo=1.0),
        "b": _parse_profile,
    }, ()),
    "commuting": (commuting_model, {"lambdas": _float_list, "d0": _float_list,
                                    "b": _parse_profile},
                  (_eigenvalues_at_least_1, _d0_fits_lambdas)),
    "rotating": (rotating_model, {
        "lambdas": _float_list, "b0": _square_or_diagonal,
        "omega": lambda col, model, key, seen: col.require_number(model, "model.", key),
        "t0": lambda col, model, key, seen: col.require_number(
            model, "model.", key, _keyword_defaults(rotating_model)[key], lo=0.0,
            hi=seen["horizon"]),
    }, (_eigenvalues_at_least_1, _two_eigenvalues)),
}


def _parse_model(raw, col: _Collector, beta: float, horizon: float):
    """The family and canonical parameters of ``model``, each None once it fails."""
    if not isinstance(raw, dict):
        col.error("model", f"is required and must be a mapping, got {raw!r}")
        return None, None
    family = raw.get("family")
    if not isinstance(family, str) or family not in FAMILIES:
        col.error("model.family", f"must be one of {', '.join(FAMILIES)}, got {family!r}")
        return None, None
    _, readers, rules = FAMILIES[family]
    col.check_known_keys(raw, "model.", ("family", *readers))
    params = {}
    for key, read in readers.items():
        params[key] = read(col, raw, key, {"beta": beta, "horizon": horizon, **params})
    if None in params.values():
        return family, None
    for rule in rules:
        rule(col, params)
    return family, params


def _int_list(data: dict, col: _Collector, path: str, key: str, defaults, *, lo: int,
              even: bool = False):
    """``data[key]`` (the field ``key`` of ``defaults`` when absent) as a
    tuple of integers from ``lo`` to ``MAX_COUNT``, even ones when ``even``.
    None once a failure is recorded."""
    raw = data.get(key, list(getattr(defaults, key)))
    if isinstance(raw, list) and raw and all(
            _number_problem(x, lo, MAX_COUNT, integer=True) is None and not (even and x % 2)
            for x in raw):
        return tuple(raw)
    col.error(f"{path}{key}", f"must be {'even ' if even else ''}integers >= {lo} and "
                              f"<= {MAX_COUNT}, got {raw!r}")
    return None


def _parse_n_list(raw, col: _Collector):
    if raw is None:
        return DEFAULTS.n_list
    if isinstance(raw, dict):
        col.check_known_keys(raw, "n_list.", ("start", "stop", "factor"))
        start = col.require_number(raw, "n_list.", "start", lo=1, hi=MAX_COUNT, integer=True)
        stop = col.require_number(raw, "n_list.", "stop", lo=1, hi=MAX_COUNT, integer=True)
        factor = col.require_number(raw, "n_list.", "factor", default=2, lo=2, integer=True)
        if None not in (start, stop) and stop < start:
            col.error("n_list.stop", f"must be >= start, got {stop} < {start}")
        if None in (start, stop, factor) or stop < start:
            return None
        values = [start]
        while values[-1] * factor <= stop:
            values.append(values[-1] * factor)
        return tuple(values)
    if isinstance(raw, list) and all(_number_problem(x, integer=True) is None for x in raw):
        if any(not 1 <= x <= MAX_COUNT for x in raw) or list(raw) != sorted(set(raw)):
            col.error("n_list", f"must be strictly increasing integers >= 1 and "
                                f"<= {MAX_COUNT}, got {raw!r}")
            return None
        return tuple(raw)
    col.error("n_list", f"must be a list of integers or {{start, stop, factor}}, got {raw!r}")
    return None


TOP_KEYS = tuple(DEFAULTS.to_dict())


def config_from_dict(data: Any) -> ExperimentConfig:
    """Validate a plain-data configuration, collecting every failure."""
    col = _Collector()
    if not isinstance(data, dict):
        raise ConfigError([f"configuration must be a mapping, got {type(data).__name__}"])
    col.check_known_keys(data, "", TOP_KEYS)

    alpha = col.require_number(data, "", "alpha", DEFAULTS.alpha, lo=0.0, hi=1.0, hi_open=True)
    beta = (col.require_number(data, "", "beta", lo=0.0, lo_open=True, hi=1.0)
            if "beta" in data else None)
    horizon = col.require_number(data, "", "horizon", DEFAULTS.horizon, lo=0.0, lo_open=True)
    s = col.require_number(data, "", "s", DEFAULTS.s, lo=0.0)
    t = col.require_number(data, "", "t", DEFAULTS.t, lo=0.0, lo_open=True)
    if s is not None and t is not None and not s < t:
        col.error("s", f"must satisfy s < t, got s={s:g}, t={t:g}")
    if t is not None and horizon is not None and t > horizon:
        col.error("t", f"must satisfy t <= horizon, got t={t:g}, horizon={horizon:g}")

    raw_scheme = data.get("scheme", list(DEFAULTS.schemes))
    names = (list(SCHEME_NAMES) if raw_scheme == "all" else
             [raw_scheme] if isinstance(raw_scheme, str) else raw_scheme)
    schemes: Optional[tuple[str, ...]] = None
    if (isinstance(names, list) and names and all(x in SCHEME_NAMES for x in names)
            and len(set(names)) == len(names)):
        schemes = tuple(names)
    else:
        col.error("scheme", f"must be 'all', one of {', '.join(SCHEME_NAMES)}, "
                            f"or a list of distinct scheme names, got {raw_scheme!r}")

    n_list = _parse_n_list(data.get("n_list"), col)
    if n_list is not None and len(n_list) < 3:
        col.error("n_list", f"needs at least 3 values for rate fitting, got {list(n_list)!r}")
    tol_ref = col.require_number(data, "", "tol_ref", DEFAULTS.tol_ref, lo=0.0, lo_open=True)
    slack = col.require_number(data, "", "slack", DEFAULTS.slack, lo=0.0, hi=1.0, hi_open=True)
    grid = col.require_number(data, "", "grid", DEFAULTS.grid, lo=2, hi=MAX_COUNT,
                              integer=True)
    seed = col.require_number(data, "", "seed", DEFAULTS.seed, lo=0, hi=2 ** 64 - 1, integer=True)

    raw_output = data.get("output", {})
    output_path = output_format = None
    if not isinstance(raw_output, dict):
        col.error("output", f"must be a mapping, got {raw_output!r}")
    else:
        col.check_known_keys(raw_output, "output.", ("path", "format"))
        output_path = raw_output.get("path", DEFAULTS.output_path)
        if not isinstance(output_path, str) or not output_path:
            col.error("output.path", f"must be a non-empty string, got {output_path!r}")
        output_format = raw_output.get("format", DEFAULTS.output_format)
        if output_format not in FORMATS:
            col.error("output.format",
                      f"must be one of {', '.join(FORMATS)}, got {output_format!r}")

    raw_verify = data.get("verify", {})
    verify = None
    if not isinstance(raw_verify, dict):
        col.error("verify", f"must be a mapping, got {raw_verify!r}")
    else:
        col.check_known_keys(raw_verify, "verify.", tuple(f.name for f in fields(VerifySpec)))
        sizes = DEFAULTS.verify
        lemma = col.require_number(raw_verify, "verify.", "lemma_instances",
                                   sizes.lemma_instances, lo=1, integer=True)
        dim_max = col.require_number(raw_verify, "verify.", "dim_max", sizes.dim_max, lo=1,
                                     hi=MAX_DIM, integer=True)
        triples = col.require_number(raw_verify, "verify.", "cocycle_triples",
                                     sizes.cocycle_triples, lo=1, integer=True)
        lifting_ns = _int_list(raw_verify, col, "verify.", "lifting_ns", sizes, lo=4, even=True)
        contraction_ns = _int_list(raw_verify, col, "verify.", "contraction_ns", sizes, lo=1)
        if None not in (lemma, dim_max, triples, lifting_ns, contraction_ns):
            verify = VerifySpec(lemma, dim_max, lifting_ns, triples, contraction_ns)

    family, params = _parse_model(data.get("model"), col,
                                  DEFAULTS.beta if beta is None else beta,
                                  DEFAULTS.horizon if horizon is None else horizon)
    # A kink declares its own Hoelder exponent: the model's beta defaults to
    # it and may not claim more regularity than it has.
    kink_beta = (params or {}).get("b", {}).get("beta")
    if "beta" not in data:
        beta = DEFAULTS.beta if kink_beta is None else kink_beta
    elif None not in (beta, kink_beta) and beta > kink_beta:
        col.error("beta", f"must be <= the kink's beta {kink_beta:g}, got {beta:g}")
    if beta == 1.0 and n_list is not None and 1 in n_list:
        col.error("n_list", f"must not hold 1 at beta = 1 (the log(n)/n rate is defined "
                            f"for n >= 2), got {list(n_list)!r}")

    if col.errors:
        raise ConfigError(col.errors)
    return ExperimentConfig(
        model_family=family, model_params=params,
        alpha=alpha, beta=beta, horizon=horizon, s=s, t=t,
        schemes=schemes, n_list=tuple(n_list), tol_ref=tol_ref, slack=slack,
        grid=grid, seed=seed,
        output_path=output_path, output_format=output_format, verify=verify,
    )


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML configuration document, with libyaml's safe
    loader when PyYAML was built with it.  A scalar the loader cannot
    construct, such as an integer past Python's 4300-digit string limit,
    raises ``ValueError`` and is a config error like a syntax error."""
    try:
        data = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError([f"invalid YAML: {exc}"]) from exc
    return config_from_dict(data)


def build_model(config: ExperimentConfig) -> Model:
    """The family's builder called with the parameters, a profile dict as its profile."""
    params = {key: _time_profile(value) if isinstance(value, dict) else value
              for key, value in config.model_params.items()}
    return FAMILIES[config.model_family][0](**params, beta=config.beta, alpha=config.alpha,
                                             horizon=config.horizon)
