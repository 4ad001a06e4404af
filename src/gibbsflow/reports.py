"""Result records and emitters.

Every computation is reduced to a plain record dictionary (``kind`` key plus
JSON-compatible payload).  The ``constants``, ``lifting``, ``cocycle`` and
``contraction`` records are ``kind`` plus the fields of ``ConstantsReport``,
``LiftingCheck``, ``CocycleCheck`` and ``ContractionCheck`` (``result_record``),
so renaming a field renames its record key.  Emitters consume record dicts
only, so a stored JSONL stream can be re-emitted in any other format without
recomputing.

The JSONL emitter is byte-deterministic for a fixed (configuration, seed)
pair: keys are sorted, floats are serialized at full precision, and no
record carries a wall-clock measurement.
"""
from __future__ import annotations

import csv
import enum
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Optional, TextIO

import numpy as np

from . import __version__
from .analysis import ConvergenceReport, Lemma21Ensemble
from .errors import ValidationError

__all__ = [
    "ReportEnvelope",
    "meta_record",
    "result_record",
    "convergence_record",
    "lemma21_record",
    "failure_record",
    "write_jsonl",
    "write_csv",
    "write_plot",
    "read_jsonl",
]

RECORD_KINDS = ("meta", "constants", "convergence", "lifting", "lemma21",
                "cocycle", "contraction", "failure")


def _plain(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays and enums to plain Python data."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_plain(x) for x in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(x) for x in value]
    return value


def meta_record(config_dict: dict, seed: int) -> dict:
    """Provenance header: configuration echo, package version, seed."""
    return _plain({
        "kind": "meta",
        "schema": 1,
        "package": "gibbsflow",
        "version": __version__,
        "seed": seed,
        "config": config_dict,
    })


def result_record(kind: str, result: Any) -> dict:
    """A result dataclass as a record: ``kind`` plus its fields, verbatim."""
    return _plain({"kind": kind, **asdict(result)})


def convergence_record(report: ConvergenceReport) -> dict:
    return _plain({
        "kind": "convergence",
        "model": report.model,
        "scheme": report.scheme.value,
        "s": report.s,
        "t": report.t,
        "n_list": list(report.n_list),
        "err_op": list(report.err_op),
        "err_tr": list(report.err_tr),
        "fitted_slope": report.fitted_slope,
        "r_squared": report.r_squared,
        "fitted_prefactor": report.fitted_prefactor,
        "regime": report.regime.label if report.regime is not None else None,
        "bound_satisfied": report.bound_satisfied,
        "regimes": [
            {
                "label": r.regime.label,
                "prefactor": r.prefactor,
                "bound_satisfied": r.bound_satisfied,
                "train_ns": list(r.train_ns),
                "test_ns": list(r.test_ns),
                "epsilon": [r.regime.epsilon(n) for n in report.n_list],
            }
            for r in report.regime_results
        ],
        "exact_reproduction": report.exact_reproduction,
        "oracle": report.oracle,
        "slack": report.slack,
        "notes": list(report.notes),
    })


def lemma21_record(ensemble: Lemma21Ensemble) -> dict:
    return _plain({
        "kind": "lemma21",
        "count": ensemble.count,
        "seed": ensemble.seed,
        "dim_max": ensemble.dim_max,
        "holds_count": ensemble.holds,
        "failures": ensemble.count - ensemble.holds,
        "min_margin": ensemble.min_margin,
        "holds": ensemble.holds == ensemble.count,
    })


def failure_record(stage: str, exc: Exception) -> dict:
    """Degrade an exception to a record so a partial run still reports.

    The error is named by the exception's first public class, so numpy's
    private ``_ArrayMemoryError`` reads ``MemoryError``.
    """
    messages = (list(exc.messages) if isinstance(exc, ValidationError)
                and getattr(exc, "messages", None) else [str(exc)])
    return _plain({
        "kind": "failure",
        "stage": stage,
        "error": next(c.__name__ for c in type(exc).__mro__ if not c.__name__.startswith("_")),
        "messages": messages,
    })


@dataclass
class ReportEnvelope:
    """Ordered collection of record dicts bound for one output stream."""

    records: list = field(default_factory=list)

    def add(self, record: dict) -> None:
        kind = record.get("kind")
        if kind not in RECORD_KINDS:
            raise ValidationError(f"unknown record kind: {kind!r}")
        self.records.append(record)

    def write(self, stream: TextIO, fmt: str) -> None:
        if fmt == "jsonl":
            write_jsonl(self.records, stream)
        elif fmt == "csv":
            write_csv(self.records, stream)
        elif fmt == "plot":
            write_plot(self.records, stream)
        else:
            raise ValidationError(f"unknown output format: {fmt!r}")


def write_jsonl(records: Iterable[dict], stream: TextIO) -> None:
    """One sorted-key JSON object per line."""
    for record in records:
        stream.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
        stream.write("\n")


# Keys of a convergence record that ``write_csv`` or ``write_plot`` read;
# ``regimes`` is optional.
EMITTED_KEYS = ("model", "scheme", "s", "t", "n_list", "err_op", "err_tr",
                "fitted_slope", "regime")


def _unemittable(record: dict) -> Optional[str]:
    """Why the emitters could not write a convergence record, or None."""
    missing = [key for key in EMITTED_KEYS if key not in record]
    if missing:
        return f"convergence record lacks {', '.join(missing)}"
    regimes = record.get("regimes") or []
    if not (isinstance(regimes, list) and all(isinstance(r, dict) for r in regimes)):
        return "convergence record's regimes must be a list of objects"
    n_list = record["n_list"]
    if not isinstance(n_list, list):
        return "convergence record's n_list must be a list"
    columns = {"err_op": record["err_op"], "err_tr": record["err_tr"],
               **{f"regimes[{i}].epsilon": r.get("epsilon") for i, r in enumerate(regimes)}}
    for name, column in columns.items():
        if not (isinstance(column, list) and len(column) == len(n_list)
                and all(isinstance(x, float) for x in column)):
            return f"convergence record's {name} must be a list of floats as long as n_list"
    return None


def read_jsonl(stream: TextIO) -> list:
    """Parse a stored JSONL stream back into record dicts, rejecting a
    convergence record that the CSV or plot emitter could not write."""
    records = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"line {lineno}: invalid JSON record: {exc}") from exc
        if not isinstance(record, dict) or record.get("kind") not in RECORD_KINDS:
            raise ValidationError(f"line {lineno}: not a known record kind")
        problem = _unemittable(record) if record["kind"] == "convergence" else None
        if problem is not None:
            raise ValidationError(f"line {lineno}: {problem}")
        records.append(record)
    return records


CSV_COLUMNS = ("scheme", "n", "err_op", "err_tr", "epsilon_theory", "ratio")


def write_csv(records: Iterable[dict], stream: TextIO) -> None:
    """Flat per-(scheme, n) table of the convergence records.

    ``epsilon_theory`` is the headline-regime rate evaluated at n; ``ratio``
    is err_tr / epsilon_theory (empty when no regime applies).
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        if record.get("kind") != "convergence":
            continue
        headline = record["regimes"][0] if record.get("regimes") else None
        for i, n in enumerate(record["n_list"]):
            eps = headline["epsilon"][i] if headline is not None else None
            ratio = (record["err_tr"][i] / eps) if eps else None
            writer.writerow([
                record["scheme"], n,
                repr(record["err_op"][i]), repr(record["err_tr"][i]),
                "" if eps is None else repr(eps),
                "" if ratio is None else repr(ratio),
            ])


def write_plot(records: Iterable[dict], stream: TextIO) -> None:
    """Gnuplot-ready blocks: one indexed block per convergence record.

    Each block is headed by comment lines naming the model/scheme and the
    columns, followed by whitespace-separated full-precision rows; blocks
    are separated by two blank lines so gnuplot's ``index`` selects them.
    """
    first = True
    for record in records:
        if record.get("kind") != "convergence":
            continue
        if not first:
            stream.write("\n\n")
        first = False
        stream.write(f"# convergence model={record['model']} scheme={record['scheme']}\n")
        stream.write(f"# s={record['s']!r} t={record['t']!r}"
                     f" slope={record['fitted_slope']!r}"
                     f" regime={record['regime']}\n")
        headline = record["regimes"][0] if record.get("regimes") else None
        stream.write("# n err_op err_tr epsilon_theory\n")
        for i, n in enumerate(record["n_list"]):
            eps = headline["epsilon"][i] if headline is not None else float("nan")
            stream.write(f"{n} {record['err_op'][i]!r} {record['err_tr'][i]!r} {eps!r}\n")
