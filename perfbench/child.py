"""One benchmark child process: a set-up probe, a library iteration or a traced one.

run.py starts these with ``PYTHONPATH`` pointing at the package source:

    child.py setup cli CONFIG             import, parse CONFIG, build the model
    child.py setup library INPUT          import, build the library model
    child.py library INPUT RESULT         the series-kinked calls, untraced
    child.py trace TRACE cli ARG...       gibbsflow.cli.main(ARG...), traced
    child.py trace TRACE library INPUT RESULT

A set-up probe prints ``time.monotonic()`` once the model is built, so the
parent can time it from its own spawn time.  A traced child writes the
tracer's spans, counters and summary to TRACE.
"""
from __future__ import annotations

import json
import sys
import time


def build_library_model(spec: dict):
    import gibbsflow as gf

    kink = spec["kink"]
    return gf.commuting_model(
        spec["lambdas"], spec["d0"],
        gf.kink_profile(kink["t0"], kink["beta"], kink["scale"], kink["offset"]),
        beta=spec["beta"])


def _error(exc: Exception) -> dict:
    """An exception as data; an AccuracyError keeps its requested and achieved values."""
    return {"error": f"{type(exc).__name__}: {exc}",
            "requested": getattr(exc, "requested", None),
            "achieved": getattr(exc, "achieved", None)}


def run_library(spec: dict, build) -> dict:
    """The series-kinked operations: one entry per library call."""
    import gibbsflow as gf

    model = build(spec)
    result = {}
    try:
        series = gf.dyson_phillips_sum(model, 0.0, 1.0, eps_tail=spec["eps_tail"])
        result["dyson_phillips_sum"] = {"U": series.U.tolist(),
                                        "tail_bound": series.tail_bound,
                                        "method": series.method}
    except Exception as exc:  # an operation that raises is a failed operation
        result["dyson_phillips_sum"] = _error(exc)
    try:
        residual = gf.integral_equation_residual(model.exact, model, 0.0, 1.0)
        result["integral_equation_residual"] = {"residual": float(residual)}
    except Exception as exc:
        result["integral_equation_residual"] = _error(exc)
    return result


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "setup":
        if argv[1] == "cli":
            import gibbsflow.cli as cli

            with open(argv[2], encoding="utf-8") as handle:
                cli.build_model(cli.parse_config(handle.read()))
        else:
            build_library_model(_read_json(argv[2]))
        print(repr(time.monotonic()))
        return 0
    if mode == "library":
        _write_json(argv[2], run_library(_read_json(argv[1]), build_library_model))
        return 0
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        trace_path, kind = argv[1], argv[2]
        if kind == "cli":
            import gibbsflow.cli

            code = tracer.span("cli.main", gibbsflow.cli.main)(argv[3:])
        else:
            build = tracer.span("models.build", build_library_model, on_exit=tracer.built)
            _write_json(argv[4], run_library(_read_json(argv[3]), build))
            code = 0
        _write_json(trace_path, tracer.dump())
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
