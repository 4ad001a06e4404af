"""Command-line interface.

Subcommands
-----------
run        convergence study for every configured scheme
verify     structural checks: ordered-product bound ensemble, split-product
           lifting, composition law, contraction
constants  perturbation/smoothing constants for the configured model
report     re-emit a stored JSONL record stream in another format

Exit codes: 0 success, 1 validation failure (``ValidationError`` and its
subclasses, ``DomainError``, ``NoKnownRateError``, and ``MemoryError`` for a
size no array can hold), 2 numerical failure
(``AccuracyError``, ``DecompositionError``), 3 I/O failure.  JSONL output
is byte-identical for a fixed configuration and seed; wall-clock timings
only ever go to stderr.
"""
from __future__ import annotations

import argparse
import io
import os
import sys
import time
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
# Not used here: perfbench/tracer.py patches gibbsflow.dyson once it has
# imported this module, so the CLI keeps it loaded.
from . import dyson  # noqa: F401
from .analysis import (
    lemma21_ensemble,
    run_convergence,
    verify_cocycle,
    verify_contraction,
    verify_lifting,
)
from .config import ExperimentConfig, build_model, config_from_dict, parse_config
from .constants import estimate_constants
from .errors import (
    AccuracyError,
    ConfigError,
    DecompositionError,
    GibbsflowError,
    ValidationError,
)
from .models import Model
from .propagator import Scheme
from .reports import (
    ReportEnvelope,
    convergence_record,
    failure_record,
    lemma21_record,
    meta_record,
    read_jsonl,
    result_record,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ACCURACY = 2
EXIT_IO = 3


def _info(verbose: bool, message: str) -> None:
    """A ``--verbose`` progress line on stderr."""
    if verbose:
        print(f"INFO gibbsflow: {message}", file=sys.stderr)


def _exit_code(exc: Exception) -> int:
    """Numerical failures exit 2; every other package error, and a
    ``MemoryError``, is a validation failure."""
    if isinstance(exc, (AccuracyError, DecompositionError)):
        return EXIT_ACCURACY
    return EXIT_VALIDATION


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbsflow",
        description="Product-formula approximation of non-autonomous "
                    "Gibbs semiflows: convergence studies and bound checks.",
    )
    parser.add_argument("--version", action="version", version=f"gibbsflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_config: bool = True) -> None:
        if needs_config:
            p.add_argument("--config", required=True, metavar="PATH",
                           help="YAML experiment configuration")
            p.add_argument("--seed", type=int, default=None,
                           help="override the configured seed")
        p.add_argument("--output", default=None, metavar="PATH",
                       help="output path ('-' for stdout; default from config)")
        p.add_argument("--format", default=None, choices=("csv", "jsonl", "plot"),
                       help="output format (default from config)")
        p.add_argument("--verbose", action="store_true",
                       help="progress and timings on stderr")

    common(sub.add_parser("run", help="run the configured convergence study"))
    common(sub.add_parser("verify", help="run the structural check suites"))
    common(sub.add_parser("constants", help="report the model constants"))

    rep = sub.add_parser("report", help="re-emit stored JSONL records")
    rep.add_argument("input", metavar="PATH", help="stored JSONL stream ('-' for stdin)")
    common(rep, needs_config=False)
    return parser


def _read_text(path: str, error: type[ValidationError]) -> str:
    """All of ``path`` ('-' for stdin) decoded as UTF-8; other bytes raise
    ``error``.  Bytes are read, so no locale's error handler can let them
    through as surrogates."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{'stdin' if path == '-' else path}: not UTF-8 text ({exc})") from exc


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The configuration at ``--config``; a ``--seed`` override is judged by
    the configuration's own seed rule."""
    config = parse_config(_read_text(args.config, ConfigError))
    if args.seed is not None:
        config = config_from_dict({**config.to_dict(), "seed": args.seed})
    return config


def _check_output_path(path: str) -> None:
    """Fail before any computation when ``path`` cannot be written."""
    if path == "-":
        return
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise IsADirectoryError(f"output path {path!r} is a directory")
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise PermissionError(f"output directory {directory!r} is missing or not writable")


def _emit(envelope: ReportEnvelope, path: str, fmt: str, verbose: bool) -> None:
    if path == "-":
        envelope.write(sys.stdout, fmt)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        envelope.write(handle, fmt)
    _info(verbose, f"wrote {len(envelope.records)} records to {path} ({fmt})")


# A command is a list of (stage, job) pairs; each job returns one record.
Jobs = list[tuple[str, Callable[[], dict]]]


def _constants_jobs(config: ExperimentConfig, model: Model) -> Jobs:
    return [("constants", lambda: result_record(
        "constants", estimate_constants(model, config.s, config.t, grid=config.grid)))]


def _convergence_jobs(config: ExperimentConfig, model: Model) -> Jobs:
    return _constants_jobs(config, model) + [
        (f"run:{name}", lambda name=name: convergence_record(run_convergence(
            model, Scheme(name), config.s, config.t, config.n_list,
            tol_ref=config.tol_ref, slack=config.slack)))
        for name in config.schemes
    ]


def _verify_jobs(config: ExperimentConfig, model: Model) -> Jobs:
    spec = config.verify
    jobs: Jobs = [("lemma21", lambda: lemma21_record(
        lemma21_ensemble(spec.lemma_instances, seed=config.seed, dim_max=spec.dim_max)))]
    for scheme_name in config.schemes:
        for n in spec.lifting_ns:
            jobs.append((f"lifting:{scheme_name}:n={n}",
                         lambda sn=scheme_name, nn=n: result_record("lifting", verify_lifting(
                             model, Scheme(sn), config.s, config.t, nn,
                             tol_ref=config.tol_ref))))
    rng = np.random.default_rng(config.seed)
    for i in range(spec.cocycle_triples):
        r = config.s + (0.2 + 0.6 * float(rng.random())) * (config.t - config.s)
        jobs.append((f"cocycle:{i}", lambda rr=r: result_record(
            "cocycle", verify_cocycle(model, config.s, rr, config.t, tol_ref=config.tol_ref))))
    for scheme_name in config.schemes:
        for n in spec.contraction_ns:
            jobs.append((f"contraction:{scheme_name}:n={n}",
                         lambda sn=scheme_name, nn=n: result_record(
                             "contraction",
                             verify_contraction(model, Scheme(sn), config.s, config.t, nn))))
    return jobs


def _run_jobs(config: ExperimentConfig, jobs: Jobs,
              verbose: bool) -> tuple[ReportEnvelope, int]:
    """The ``meta`` record, then one record per ``(stage, job)`` in order.

    A failing job degrades to a failure record, logged on stderr, and the
    remaining jobs still run; with ``verbose`` each job's time is logged too.
    """
    envelope = ReportEnvelope()
    envelope.add(meta_record(config.to_dict(), config.seed))
    exit_code = EXIT_OK
    for stage, job in jobs:
        start = time.perf_counter()
        try:
            record = job()
        except (GibbsflowError, MemoryError) as exc:
            record = failure_record(stage, exc)
            exit_code = max(exit_code, _exit_code(exc))
            print(f"ERROR gibbsflow: stage {stage} failed: {'; '.join(record['messages'])}",
                  file=sys.stderr)
        else:
            _info(verbose, f"{stage} finished in {time.perf_counter() - start:.3f}s")
        envelope.add(record)
    return envelope, exit_code


def _cmd_report(args: argparse.Namespace) -> tuple[ReportEnvelope, int]:
    records = read_jsonl(io.StringIO(_read_text(args.input, ValidationError), newline=None))
    envelope = ReportEnvelope()
    for record in records:
        envelope.add(record)
    return envelope, EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            envelope, exit_code = _cmd_report(args)
            fmt = args.format or "jsonl"
            path = args.output or "-"
        else:
            config = _load_config(args)
            fmt = args.format or config.output_format
            path = args.output or config.output_path
            _check_output_path(path)
            jobs = {"run": _convergence_jobs, "verify": _verify_jobs,
                    "constants": _constants_jobs}[args.command]
            start = time.perf_counter()
            envelope, exit_code = _run_jobs(config, jobs(config, build_model(config)),
                                            args.verbose)
            _info(args.verbose,
                  f"{args.command} completed in {time.perf_counter() - start:.3f}s")
        _emit(envelope, path, fmt, args.verbose)
        return exit_code
    except ConfigError as exc:
        for message in exc.messages:
            print(f"error: {message}", file=sys.stderr)
        return EXIT_VALIDATION
    except GibbsflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except MemoryError as exc:
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
