"""Regenerate perfbench/goldens.json from the current sources.

    python3 perfbench/make_goldens.py

Goldens pin the program's outputs at the commit that defined the
benchmark.  Regenerating them on a later commit would hide a change in
results, so do it only when a change to the benchmark itself requires it.
It writes:

* run-smooth: err_tr per scheme for each of the 16 seed variants, taken
  from ``gibbsflow run`` on exactly the config the benchmark builds;
* verify-kinked: the pool of program seeds whose cocycle split point r
  needs the same reference cell counts on [0, r] and [r, 1] as program
  seed 0, so every benchmark seed asks for the same oracle work;
* series-kinked: the pool of d0 permutation seeds whose series panels and
  residual integrand evaluations equal those of permutation seed 1.
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
POOL_SIZE = 8
MAX_PROGRAM_SEED = 400


def smooth_goldens(work: Path, env: dict) -> dict:
    variants = {}
    for variant in range(wl.SMOOTH_VARIANTS):
        config, output = work / "smooth.yaml", work / "smooth.jsonl"
        config.write_text(wl.config_text(wl.smooth_config(variant)), encoding="utf-8")
        subprocess.run([sys.executable, "-m", "gibbsflow.cli", "run", "--config", str(config),
                        "--output", str(output)], env=env, cwd=ROOT, check=True)
        records = [json.loads(line) for line in output.read_text().splitlines()]
        runs = {r["scheme"]: r for r in records if r["kind"] == "convergence"}
        if not all(r["bound_satisfied"] and r["regime"] == "log(n)/n" for r in runs.values()):
            raise SystemExit(f"run-smooth variant {variant} fails its own rate check")
        variants[str(variant)] = {s: runs[s]["err_tr"] for s in wl.SCHEMES}
        print(f"run-smooth variant {variant}: {variants[str(variant)]['left'][-1]:.6e}",
              flush=True)
    return {"err_tr_abs_tol": 100 * wl.SMOOTH_TOL_REF, "n_list": wl.SMOOTH_N_LIST,
            "variants": variants}


def cocycle_cells(model, program_seed: int) -> tuple:
    """Reference cell counts on [0, r] and [r, 1] for this program seed's split."""
    from gibbsflow import reference_propagator

    # The split point rule of ``gibbsflow verify`` for s = 0, t = 1.
    r = 0.2 + 0.6 * float(np.random.default_rng(program_seed).random())
    cells = []
    for s, t in ((0.0, r), (r, 1.0)):
        method = reference_propagator(model, s, t, wl.KINKED_TOL_REF).method
        cells.append(int(re.search(r"n=(\d+)", method).group(1)))
    return tuple(cells)


def kinked_pool() -> dict:
    from gibbsflow.config import build_model, config_from_dict

    model = build_model(config_from_dict(wl.kinked_config(0)))
    target = cocycle_cells(model, 0)
    pool = [0]
    for program_seed in range(1, MAX_PROGRAM_SEED):
        if len(pool) == POOL_SIZE:
            break
        cells = cocycle_cells(model, program_seed)
        print(f"verify-kinked program seed {program_seed}: cells {cells}", flush=True)
        if cells == target:
            pool.append(program_seed)
    return {"cocycle_cells": list(target), "program_seeds": pool}


def series_pool() -> dict:
    """Pool of d0 permutations whose series work equals permutation seed 1's."""
    import gibbsflow as gf
    from child import build_library_model
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()

    def counts(permutation_seed: int) -> tuple:
        before = tracer.summary()
        lambdas, d0 = wl.commuting_inputs(permutation_seed, wl.SERIES_DIM)
        spec = {"lambdas": lambdas, "d0": d0, "kink": wl.KINK, "beta": 0.5}
        model = tracer.instrument_model(build_library_model(spec))
        gf.dyson_phillips_sum(model, 0.0, 1.0, eps_tail=wl.SERIES_EPS_TAIL)
        gf.integral_equation_residual(model.exact, model, 0.0, 1.0)
        after = tracer.summary()
        return tuple(after[k] - before[k]
                     for k in ("dyson.panels", "quadrature.integrand_evals"))

    target = counts(1)
    pool = [1]
    for permutation_seed in range(2, MAX_PROGRAM_SEED):
        if len(pool) == POOL_SIZE:
            break
        found = counts(permutation_seed)
        print(f"series-kinked permutation seed {permutation_seed}: counts {found}", flush=True)
        if found == target:
            pool.append(permutation_seed)
    return {"panels_and_integrand_evals": list(target), "permutation_seeds": pool}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", GIBBSFLOW_THREADS="1")
    work = ROOT / ".perfbench_work" / "goldens"
    work.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    goldens = {"run-smooth": smooth_goldens(work, env), "verify-kinked": kinked_pool(),
               "series-kinked": series_pool()}
    wl.GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {wl.GOLDENS} in {time.monotonic() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
