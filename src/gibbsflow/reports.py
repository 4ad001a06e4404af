"""Result records and their one writer.

Every computation is reduced to a plain record dictionary (``kind`` key plus
JSON-compatible payload).  All six result kinds, ``constants``,
``convergence``, ``lemma21``, ``lifting``, ``cocycle`` and ``contraction``,
are ``kind`` plus the fields of their dataclasses (``ConstantsReport``,
``ConvergenceReport``, ``Lemma21Ensemble``, ``LiftingCheck``, ``CocycleCheck``
and ``ContractionCheck``) by ``result_record``, so adding or renaming a field
adds or renames its record key.

``ReportEnvelope`` writes records one at a time, in any of ``FORMATS``, and
flushes each, so a caller streams every record as it is made and a run cut
short keeps what it finished.  It consumes record dicts only, so a stored
JSONL stream can be re-written in any other format without recomputing.

The JSONL format is byte-deterministic for a fixed (configuration, seed)
pair: keys are sorted, floats are serialized at full precision, and no
record carries a wall-clock measurement.
"""
from __future__ import annotations

import csv
import enum
import json
from dataclasses import asdict
from typing import Any, Optional, TextIO

import numpy as np

from . import __version__
from .errors import ValidationError

__all__ = [
    "ReportEnvelope",
    "meta_record",
    "result_record",
    "failure_record",
    "read_jsonl",
]

RECORD_KINDS = ("meta", "constants", "convergence", "lifting", "lemma21",
                "cocycle", "contraction", "failure")
FORMATS = ("csv", "jsonl", "plot")
CSV_COLUMNS = ("scheme", "n", "err_op", "err_tr", "epsilon_theory", "ratio")


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


# Keys of a convergence record that the csv or plot writer reads;
# ``regimes`` is optional.
EMITTED_KEYS = ("model", "scheme", "s", "t", "n_list", "err_op", "err_tr",
                "fitted_slope", "regime")


def _unemittable(record: dict) -> Optional[str]:
    """Why the csv or plot writer could not write a convergence record, or None."""
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
    convergence record that the csv or plot writer could not write."""
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


class ReportEnvelope:
    """The one record writer: each record goes to ``stream`` in ``fmt`` and
    is flushed at once, so a stream cut short keeps every record before the cut.

    * ``jsonl`` -- one sorted-key JSON object per line, for every kind.
    * ``csv`` -- a flat per-(scheme, n) table of the convergence records,
      headed by ``CSV_COLUMNS`` as soon as the envelope exists.
      ``epsilon_theory`` is the headline-regime rate evaluated at n;
      ``ratio`` is err_tr / epsilon_theory (empty when no regime applies).
    * ``plot`` -- gnuplot-ready blocks, one per convergence record: comment
      lines naming the model/scheme and the columns, then whitespace-separated
      full-precision rows; blocks are separated by two blank lines so
      gnuplot's ``index`` selects them.
    """

    def __init__(self, stream: TextIO, fmt: str):
        if fmt not in FORMATS:
            raise ValidationError(f"unknown output format: {fmt!r}")
        self.stream, self.fmt = stream, fmt
        self._blocks = 0
        if fmt == "csv":
            self._csv = csv.writer(stream, lineterminator="\n")
            self._csv.writerow(CSV_COLUMNS)
            stream.flush()

    def write(self, record: dict) -> None:
        kind = record.get("kind")
        if kind not in RECORD_KINDS:
            raise ValidationError(f"unknown record kind: {kind!r}")
        if self.fmt == "jsonl":
            self.stream.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
        elif kind == "convergence" and self.fmt == "csv":
            self._csv_rows(record)
        elif kind == "convergence":
            self._plot_block(record)
        self.stream.flush()

    def _csv_rows(self, record: dict) -> None:
        headline = record["regimes"][0] if record.get("regimes") else None
        for i, n in enumerate(record["n_list"]):
            eps = headline["epsilon"][i] if headline is not None else None
            ratio = (record["err_tr"][i] / eps) if eps else None
            self._csv.writerow([
                record["scheme"], n,
                repr(record["err_op"][i]), repr(record["err_tr"][i]),
                "" if eps is None else repr(eps),
                "" if ratio is None else repr(ratio),
            ])

    def _plot_block(self, record: dict) -> None:
        write = self.stream.write
        if self._blocks:
            write("\n\n")
        self._blocks += 1
        write(f"# convergence model={record['model']} scheme={record['scheme']}\n")
        write(f"# s={record['s']!r} t={record['t']!r}"
              f" slope={record['fitted_slope']!r}"
              f" regime={record['regime']}\n")
        headline = record["regimes"][0] if record.get("regimes") else None
        write("# n err_op err_tr epsilon_theory\n")
        for i, n in enumerate(record["n_list"]):
            eps = headline["epsilon"][i] if headline is not None else float("nan")
            write(f"{n} {record['err_op'][i]!r} {record['err_tr'][i]!r} {eps!r}\n")
