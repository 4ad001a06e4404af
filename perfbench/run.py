"""gibbsflow benchmark: one workload, timed or traced, with output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout that holds ``src/gibbsflow``; see README.md here.
The program is driven from outside: every iteration is a fresh process
(closed loop, one client, one process at a time) with the BLAS thread count
fixed.  ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones from two traced iterations.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "gibbsflow"
WORK = ROOT / ".perfbench_work"

BLAS_THREADS = 1
SETUP_PROBES = 15
# Every run ends well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0

# Count metrics that must repeat exactly between the two traced iterations.
REPEATED_COUNTS = ("propagator.ref_unique_ratio", "dyson.panels", "dyson.bisections",
                   "quadrature.integrand_evals")


@dataclasses.dataclass(frozen=True)
class Workload:
    command: Optional[str]                    # CLI subcommand; None for the library
    make_input: Callable[[int, dict], dict]   # (seed, goldens) -> program input
    check: Callable                           # (output, input, goldens) -> checks


WORKLOADS = {
    "run-smooth": Workload("run", lambda seed, g: wl.smooth_config(seed), wl.check_smooth),
    "verify-kinked": Workload("verify", wl.kinked_input, wl.check_kinked),
    "run-wide": Workload("run", lambda seed, g: wl.wide_config(seed), wl.check_wide),
    "series-kinked": Workload(None, wl.series_input, wl.check_series),
}


@dataclasses.dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    checks: list
    output_bytes: int


class Runner:
    """Spawns the children of one benchmark run inside its work directory."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.workload, self.seed, self.work = name, WORKLOADS[name], seed, work
        self.goldens = wl.load_goldens()
        self.input = self.workload.make_input(seed, self.goldens)
        self.input_path = work / ("config.yaml" if self.workload.command else "input.json")
        self.input_path.write_text(wl.config_text(self.input), encoding="utf-8")
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
            "OMP_NUM_THREADS": str(BLAS_THREADS),
            "MKL_NUM_THREADS": str(BLAS_THREADS),
            "GIBBSFLOW_THREADS": "1",
        })
        self.started = time.monotonic()
        self.count = 0

    def _remaining(self) -> float:
        return max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))

    def setup_probe(self) -> float:
        """Seconds from spawn until the child has imported, parsed and built."""
        kind = "cli" if self.workload.command else "library"
        argv = [sys.executable, str(HERE / "child.py"), "setup", kind, str(self.input_path)]
        start = time.monotonic()
        done = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=self._remaining())
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        return float(done.stdout.strip().splitlines()[-1]) - start

    def iterate(self, trace_path: Optional[Path] = None) -> Iteration:
        """One fresh process running the whole workload once."""
        self.count += 1
        tag = f"{self.count}{'-traced' if trace_path else ''}"
        output = self.work / (f"out-{tag}.jsonl" if self.workload.command
                              else f"result-{tag}.json")
        if self.workload.command:
            program = [self.workload.command, "--config", str(self.input_path),
                       "--output", str(output)]
        else:
            program = [str(self.input_path), str(output)]
        if trace_path is not None:
            kind = "cli" if self.workload.command else "library"
            argv = [sys.executable, str(HERE / "child.py"), "trace", str(trace_path), kind,
                    *program]
        elif self.workload.command:
            argv = [sys.executable, "-m", "gibbsflow.cli", *program]
        else:
            argv = [sys.executable, str(HERE / "child.py"), "library", *program]

        with open(self.work / f"stdout-{tag}.txt", "w") as out, \
                open(self.work / f"stderr-{tag}.txt", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(self._remaining(), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return Iteration(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                         self._judge(output, code),
                         output.stat().st_size if output.exists() else 0)

    def _judge(self, output: Path, code: int) -> list:
        empty = [] if self.workload.command else {}
        try:
            text = output.read_text(encoding="utf-8")
            produced = ([json.loads(line) for line in text.splitlines() if line.strip()]
                        if self.workload.command else json.loads(text))
        except (OSError, ValueError):
            produced = empty
        try:
            checks = self.workload.check(produced, self.input, self.goldens)
        except (KeyError, TypeError, ValueError) as exc:
            # Records of an unexpected shape: every operation counts as failed.
            checks = [(stage, False, f"malformed output ({exc!r})")
                      for stage, _, _ in self.workload.check(empty, self.input, self.goldens)]
        if code != 0:
            checks = [(stage, False, f"exit code {code}; {detail}")
                      for stage, _, detail in checks]
        return checks


# -- reporting -------------------------------------------------------------------

def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metadata(runner: Runner, iterations: int) -> dict:
    sources = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        revision = done.stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": runner.name, "seed": runner.seed, "iterations": iterations,
        "program_seed": runner.input.get("seed"),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "git_revision": revision,
        "source_sha256": sources.hexdigest(),
    }


def report_failures(checks: list) -> int:
    failed = [(stage, detail) for stage, ok, detail in checks if not ok]
    for stage, detail in failed[:20]:
        print(f"FAILED {stage}: {detail}")
    return len(failed)


def metric_block(names: list, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}


def timed_run(runner: Runner, seconds: float, spec: dict) -> dict:
    runner.setup_probe()  # warm-up: byte-code and page caches, discarded
    setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    runs = []
    begin = time.monotonic()
    while True:
        runs.append(runner.iterate())
        elapsed = time.monotonic() - begin
        if elapsed + statistics.median(r.wall_s for r in runs) > seconds:
            break
    samples = {
        "wall_s": [r.wall_s for r in runs],
        "cpu_s": [r.cpu_s for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
        "setup_s": setups,
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(json.dumps({"meta": metadata(runner, len(runs))}, sort_keys=True))
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        print(f"{name:<12} median {med:.6g} {units[name]}  q1 {q1:.6g}  q3 {q3:.6g}"
              f"  n={len(values)}")
    checks = [c for r in runs for c in r.checks]
    failed = report_failures(checks)
    print(f"failed_ratio {failed}/{len(checks)} operations")
    medians = {name: statistics.median(values) for name, values in samples.items()}
    return {"correct": failed == 0, "attempted": len(checks), "failed": failed,
            "metrics": metric_block(spec["end_to_end"], medians)}


def traced_run(runner: Runner, spec: dict) -> dict:
    plain = runner.iterate()
    traced, summaries, missing = [], [], set()
    for k in (1, 2):
        path = runner.work / f"trace-{k}.json"
        traced.append(runner.iterate(trace_path=path))
        dump = json.loads(path.read_text()) if path.exists() else {"summary": {},
                                                                   "missing_hooks": []}
        summaries.append(dump["summary"])
        missing.update(dump["missing_hooks"])

    faults = [f"traced iteration {k} wrote no trace" for k, s in enumerate(summaries, 1)
              if not s]
    first, second = summaries
    for key in sorted(set(first) | set(second)):
        if (key.endswith(("_calls", "_cells")) or key in REPEATED_COUNTS) \
                and first.get(key) != second.get(key):
            faults.append(f"count differs between traced runs: {key}: "
                          f"{first.get(key)} != {second.get(key)}")
    values = {m["name"]: 0 for m in spec["per_layer"]}
    values.update({key: (first[key] + second[key]) / 2.0 if isinstance(first[key], float)
                   else first[key] for key in first if key in second})
    checks = [c for r in (plain, *traced) for c in r.checks]
    failed = report_failures(checks)
    values["trace.overhead_s"] = statistics.fmean(r.wall_s for r in traced) - plain.wall_s
    values["reports.bytes"] = traced[0].output_bytes if runner.workload.command else 0
    values["failed_ratio"] = failed / len(checks)

    print(json.dumps({"meta": metadata(runner, 3)}, sort_keys=True))
    print(f"wall_s untraced {plain.wall_s:.4f} s, traced "
          f"{', '.join(f'{r.wall_s:.4f}' for r in traced)} s")
    for m in spec["per_layer"]:
        print(f"{m['name']:<36} {values[m['name']]} {m['unit']}")
    for hook in sorted(missing):
        print(f"WARNING hook target not found, its metrics read 0: {hook}")
    for fault in faults:
        print(f"BENCHMARK FAULT {fault}")
    return {"correct": failed == 0 and not faults,
            "attempted": len(checks), "failed": failed,
            "metrics": metric_block(spec["per_layer"], values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no gibbsflow sources under {PACKAGE}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, work)
    result = traced_run(runner, spec) if args.trace else timed_run(runner, args.seconds, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
