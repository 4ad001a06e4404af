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

from .errors import ConfigError
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

__all__ = ["ExperimentConfig", "VerifySpec", "parse_config", "config_from_dict", "build_model"]

SCHEME_NAMES = ("left", "right", "symmetric")
OUTPUT_FORMATS = ("csv", "jsonl", "plot")
MODEL_FAMILIES = ("scalar", "commuting", "rotating")

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
        if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
            self.error(where, f"must be an integer, got {value!r}" if integer
                       else f"must be a number, got {value!r}{_float_hint([value])}")
            return None
        show = str if integer else "{:g}".format
        if not integer:
            value = float(value)
            if not np.isfinite(value):
                self.error(where, f"must be finite, got {value!r}")
                return None
        if lo is not None and (value <= lo if lo_open else value < lo):
            self.error(where, f"must be {'>' if lo_open else '>='} {show(lo)}, got {show(value)}")
            return None
        if hi is not None and (value >= hi if hi_open else value > hi):
            self.error(where, f"must be {'<' if hi_open else '<='} {show(hi)}, got {show(value)}")
            return None
        return value

    def field_number(self, data: dict, path: str, key: str, defaults, **bounds):
        """``require_number`` defaulting to the field ``key`` of ``defaults``."""
        return self.require_number(data, path, key, getattr(defaults, key), **bounds)

    def check_known_keys(self, data: dict, path: str, known: tuple[str, ...]) -> None:
        for key in data:
            if key not in known:
                self.error(f"{path}{key}", f"unknown key (expected one of {', '.join(known)})")


def _finite_floats(values, col: _Collector, path: str):
    """``values`` as floats, or None once a non-finite one is recorded."""
    floats = [float(x) for x in values]
    bad = next((x for x in floats if not np.isfinite(x)), None)
    if bad is not None:
        col.error(path, f"must be finite, got {bad!r}")
        return None
    return floats


def _float_list(raw, col: _Collector, path: str, *, count: int | None = None):
    """A list of floats, or a {start, stop, count} linspace shorthand."""
    if isinstance(raw, dict):
        col.check_known_keys(raw, f"{path}.", ("start", "stop", "count"))
        start = col.require_number(raw, f"{path}.", "start")
        stop = col.require_number(raw, f"{path}.", "stop")
        n = col.require_number(raw, f"{path}.", "count", default=count, lo=1, integer=True)
        if None in (start, stop, n):
            return None
        try:
            return [float(x) for x in np.linspace(start, stop, n)]
        except (ValueError, MemoryError) as exc:  # a count numpy cannot allocate
            col.error(f"{path}.count", f"is too large ({exc}), got {n}")
            return None
    if isinstance(raw, list) and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                                     for x in raw):
        if not raw:
            col.error(path, "must not be empty")
            return None
        return _finite_floats(raw, col, path)
    hint = _float_hint(raw) if isinstance(raw, list) else ""
    col.error(path, f"must be a list of numbers or {{start, stop, count}}, got {raw!r}{hint}")
    return None


def _parse_profile(raw, col: _Collector, path: str, default_beta: float):
    """The canonical dict of a profile, defaults filled in; a kink's beta
    defaults to the model's."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        raw = {"kind": "constant", "value": float(raw)}
    if not isinstance(raw, dict):
        col.error(path, f"must be a number or a mapping with 'kind', got {raw!r}")
        return None
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in PROFILES:
        col.error(f"{path}.kind", f"must be one of {', '.join(PROFILES)}, got {kind!r}")
        return None
    constructor, keys = PROFILES[kind]
    col.check_known_keys(raw, f"{path}.", ("kind", *keys))
    defaults = {"beta": default_beta, **_keyword_defaults(constructor)}
    spec = {"kind": kind}
    for key, bounds in keys.items():
        spec[key] = col.require_number(raw, f"{path}.", key, default=defaults.get(key), **bounds)
    return None if None in spec.values() else spec


def _time_profile(spec: dict) -> TimeProfile:
    """The profile of a canonical profile dict."""
    kind, *args = spec.values()
    return PROFILES[kind][0](*args)


def _parse_n_list(raw, col: _Collector):
    if raw is None:
        return DEFAULTS.n_list
    if isinstance(raw, dict):
        col.check_known_keys(raw, "n_list.", ("start", "stop", "factor"))
        start = col.require_number(raw, "n_list.", "start", lo=1, integer=True)
        stop = col.require_number(raw, "n_list.", "stop", lo=1, integer=True)
        factor = col.require_number(raw, "n_list.", "factor", default=2, lo=2, integer=True)
        if None in (start, stop, factor) or stop < start:
            if stop is not None and start is not None and stop < start:
                col.error("n_list.stop", f"must be >= start, got {stop} < {start}")
            return None
        values = []
        n = start
        while n <= stop:
            values.append(n)
            n *= factor
        return tuple(values)
    if isinstance(raw, list) and all(isinstance(x, int) and not isinstance(x, bool)
                                     for x in raw):
        if any(x < 1 for x in raw) or list(raw) != sorted(set(raw)):
            col.error("n_list", f"must be strictly increasing positive integers, got {raw!r}")
            return None
        return tuple(raw)
    col.error("n_list", f"must be a list of integers or {{start, stop, factor}}, got {raw!r}")
    return None


TOP_KEYS = ("model", "alpha", "beta", "horizon", "s", "t", "scheme", "n_list",
            "tol_ref", "slack", "grid", "seed", "output", "verify")


def config_from_dict(data: Any) -> ExperimentConfig:
    """Validate a plain-data configuration, collecting every failure."""
    col = _Collector()
    if not isinstance(data, dict):
        raise ConfigError([f"configuration must be a mapping, got {type(data).__name__}"])
    col.check_known_keys(data, "", TOP_KEYS)

    alpha = col.field_number(data, "", "alpha", DEFAULTS, lo=0.0, hi=1.0, hi_open=True)
    beta = (col.require_number(data, "", "beta", lo=0.0, lo_open=True, hi=1.0)
            if "beta" in data else None)
    horizon = col.field_number(data, "", "horizon", DEFAULTS, lo=0.0, lo_open=True)
    s = col.field_number(data, "", "s", DEFAULTS, lo=0.0)
    t = col.field_number(data, "", "t", DEFAULTS, lo=0.0, lo_open=True)
    if s is not None and t is not None and not s < t:
        col.error("s", f"must satisfy s < t, got s={s:g}, t={t:g}")
    if t is not None and horizon is not None and t > horizon:
        col.error("t", f"must satisfy t <= horizon, got t={t:g}, horizon={horizon:g}")

    raw_scheme = data.get("scheme", list(DEFAULTS.schemes))
    if raw_scheme == "all":
        schemes: Optional[tuple[str, ...]] = SCHEME_NAMES
    elif isinstance(raw_scheme, str) and raw_scheme in SCHEME_NAMES:
        schemes = (raw_scheme,)
    elif (isinstance(raw_scheme, list) and raw_scheme
          and all(x in SCHEME_NAMES for x in raw_scheme)
          and len(set(raw_scheme)) == len(raw_scheme)):
        schemes = tuple(raw_scheme)
    else:
        col.error("scheme", f"must be 'all', one of {', '.join(SCHEME_NAMES)}, "
                            f"or a list of distinct scheme names, got {raw_scheme!r}")
        schemes = None

    n_list = _parse_n_list(data.get("n_list"), col)
    if n_list is not None and len(n_list) < 3:
        col.error("n_list", f"needs at least 3 values for rate fitting, got {list(n_list)!r}")
    tol_ref = col.field_number(data, "", "tol_ref", DEFAULTS, lo=0.0, lo_open=True)
    slack = col.field_number(data, "", "slack", DEFAULTS, lo=0.0, hi=1.0, hi_open=True)
    grid = col.field_number(data, "", "grid", DEFAULTS, lo=2, integer=True)
    seed = col.field_number(data, "", "seed", DEFAULTS, lo=0, hi=2 ** 64 - 1, integer=True)

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
        if output_format not in OUTPUT_FORMATS:
            col.error("output.format",
                      f"must be one of {', '.join(OUTPUT_FORMATS)}, got {output_format!r}")

    raw_verify = data.get("verify", {})
    verify = None
    if not isinstance(raw_verify, dict):
        col.error("verify", f"must be a mapping, got {raw_verify!r}")
    else:
        col.check_known_keys(raw_verify, "verify.", tuple(f.name for f in fields(VerifySpec)))
        sizes = DEFAULTS.verify
        lemma = col.field_number(raw_verify, "verify.", "lemma_instances", sizes,
                                 lo=1, integer=True)
        dim_max = col.field_number(raw_verify, "verify.", "dim_max", sizes, lo=1, integer=True)
        triples = col.field_number(raw_verify, "verify.", "cocycle_triples", sizes,
                                   lo=1, integer=True)
        lifting_ns = raw_verify.get("lifting_ns", list(sizes.lifting_ns))
        if (not isinstance(lifting_ns, list) or not lifting_ns
                or any(not isinstance(x, int) or x < 4 or x % 2 for x in lifting_ns)):
            col.error("verify.lifting_ns", f"must be even integers >= 4, got {lifting_ns!r}")
            lifting_ns = None
        contraction_ns = raw_verify.get("contraction_ns", list(sizes.contraction_ns))
        if (not isinstance(contraction_ns, list) or not contraction_ns
                or any(not isinstance(x, int) or x < 1 for x in contraction_ns)):
            col.error("verify.contraction_ns", f"must be integers >= 1, got {contraction_ns!r}")
            contraction_ns = None
        if None not in (lemma, dim_max, triples, lifting_ns, contraction_ns):
            verify = VerifySpec(lemma, dim_max, tuple(lifting_ns), triples,
                                tuple(contraction_ns))

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

    if col.errors:
        raise ConfigError(col.errors)
    return ExperimentConfig(
        model_family=family, model_params=params,
        alpha=alpha, beta=beta, horizon=horizon, s=s, t=t,
        schemes=schemes, n_list=tuple(n_list), tol_ref=tol_ref, slack=slack,
        grid=grid, seed=seed,
        output_path=output_path, output_format=output_format, verify=verify,
    )


def _parse_model(raw, col: _Collector, beta: float, horizon: float):
    if not isinstance(raw, dict):
        col.error("model", f"is required and must be a mapping, got {raw!r}")
        return None, None
    family = raw.get("family")
    if family not in MODEL_FAMILIES:
        col.error("model.family",
                  f"must be one of {', '.join(MODEL_FAMILIES)}, got {family!r}")
        return None, None
    if family == "scalar":
        col.check_known_keys(raw, "model.", ("family", "a", "b"))
        a = col.require_number(raw, "model.", "a", lo=1.0)
        profile = _parse_profile(raw.get("b", DEFAULT_COUPLING), col, "model.b", beta)
        if None in (a, profile):
            return family, None
        return family, {"a": a, "b": profile}
    if family == "commuting":
        col.check_known_keys(raw, "model.", ("family", "lambdas", "d0", "b"))
        lambdas = _float_list(raw.get("lambdas"), col, "model.lambdas")
        d0 = _float_list(raw.get("d0"), col, "model.d0",
                         count=None if lambdas is None else len(lambdas))
        profile = _parse_profile(raw.get("b", DEFAULT_COUPLING), col, "model.b", beta)
        if None in (lambdas, d0, profile):
            return family, None
        if min(lambdas) < 1.0:
            col.error("model.lambdas", f"must all be >= 1, got min {min(lambdas):g}")
        if min(d0) < 0.0:
            col.error("model.d0", f"must be non-negative, got min {min(d0):g}")
        if len(d0) != len(lambdas):
            col.error("model.d0", f"length {len(d0)} must match lambdas ({len(lambdas)})")
        return family, {"lambdas": lambdas, "d0": d0, "b": profile}
    col.check_known_keys(raw, "model.", ("family", "lambdas", "b0", "omega", "t0"))
    lambdas = _float_list(raw.get("lambdas"), col, "model.lambdas")
    omega = col.require_number(raw, "model.", "omega")
    t0 = col.require_number(raw, "model.", "t0", _keyword_defaults(rotating_model)["t0"],
                            lo=0.0, hi=horizon)
    b0_raw = raw.get("b0")
    b0 = None
    if isinstance(b0_raw, list) and b0_raw and all(isinstance(r, list) for r in b0_raw):
        if (len({len(r) for r in b0_raw}) == 1 and len(b0_raw[0]) == len(b0_raw)
                and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                        for r in b0_raw for x in r)):
            rows = _finite_floats([x for r in b0_raw for x in r], col, "model.b0")
            if rows is not None:
                b0 = np.reshape(rows, (len(b0_raw), len(b0_raw))).tolist()
        else:
            col.error("model.b0", "nested lists must form a square numeric matrix"
                                  + _float_hint(x for r in b0_raw for x in r))
    else:
        b0 = _float_list(b0_raw, col, "model.b0")
    if None in (lambdas, omega, t0) or b0 is None:
        return family, None
    if min(lambdas) < 1.0:
        col.error("model.lambdas", f"must all be >= 1, got min {min(lambdas):g}")
    if len(lambdas) < 2:
        col.error("model.lambdas", f"rotating model needs >= 2 eigenvalues, got {len(lambdas)}")
    return family, {"lambdas": lambdas, "b0": b0, "omega": omega, "t0": t0}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML configuration document, with libyaml's safe
    loader when PyYAML was built with it."""
    try:
        data = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError([f"invalid YAML: {exc}"]) from exc
    return config_from_dict(data)


def build_model(config: ExperimentConfig) -> Model:
    """Construct the configured model instance."""
    params = config.model_params
    declared = {"beta": config.beta, "alpha": config.alpha, "horizon": config.horizon}
    if config.model_family == "scalar":
        return scalar_model(params["a"], _time_profile(params["b"]), **declared)
    if config.model_family == "commuting":
        return commuting_model(params["lambdas"], params["d0"], _time_profile(params["b"]),
                               **declared)
    return rotating_model(params["lambdas"], np.asarray(params["b0"], dtype=float),
                          params["omega"], t0=params["t0"], **declared)
