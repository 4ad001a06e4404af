"""In-process tracer for one traced benchmark iteration.

The tracer never edits the package: it replaces names where callers look
them up.  gibbsflow modules import each other with ``from .x import y``, so a
function has one binding per importing module; ``Tracer.install`` rebinds
every one of them (this also catches recursion, such as the bisection inside
``dyson_phillips_sum``).  The perturbation family is a frozen dataclass, so
its per-cell callables are wrapped on a ``dataclasses.replace``d model.

Coarse public functions get one span each (name, start, end, parent).
Functions called once per cell or node (heat factors, B(t), heat, SVD
norms, quadrature integrands) only bump an in-memory counter and total time.
Both kinds push a frame, so a span's self time is its duration minus the
time its direct children (spans or counters) took.

A hook whose target no longer exists is skipped and listed in
``missing_hooks``; its metrics then read 0.
"""
from __future__ import annotations

import dataclasses
import inspect
import re
import sys
import time
from collections import defaultdict

# Span name -> (module, attribute) of the function it wraps.  Every gibbsflow
# binding of that function object is rebound, not only this one.
SPAN_HOOKS = {
    "config.parse": ("gibbsflow.config", "parse_config"),
    "models.build": ("gibbsflow.config", "build_model"),
    "analysis.convergence": ("gibbsflow.analysis", "run_convergence"),
    "analysis.lifting": ("gibbsflow.analysis", "verify_lifting"),
    "analysis.cocycle": ("gibbsflow.analysis", "verify_cocycle"),
    "analysis.lemma21": ("gibbsflow.analysis", "lemma21_ensemble"),
    "analysis.contraction": ("gibbsflow.analysis", "verify_contraction"),
    "propagator.ref": ("gibbsflow.propagator", "reference_propagator"),
    "propagator.product": ("gibbsflow.propagator", "product_approximant"),
    "constants.estimate": ("gibbsflow.constants", "estimate_constants"),
    "constants.coefficient": ("gibbsflow.constants", "contraction_coefficient"),
    "dyson.sum": ("gibbsflow.dyson", "dyson_phillips_sum"),
    "quadrature.integrate": ("gibbsflow.quadrature", "integrate_matrix"),
}

# Counter name -> (module, attribute) of a function called per cell or node.
COUNTER_HOOKS = {
    "linalg.heat": ("gibbsflow.linalg", "heat"),
    "linalg.svd": ("gibbsflow.linalg", "singular_values"),
}

# Per-cell B(t) callables of the perturbation family -> counter name.
FAMILY_COUNTERS = {"heat_factor": "models.heat_factor", "evaluate": "models.evaluate"}

_DIFF = re.compile(r"diff=([0-9.eE+-]+)")
_DEPTH = re.compile(r"depth=(\d+)")


class Tracer:
    """Spans and counters of one process, kept in memory until the end."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index, child time]
        self.counters = defaultdict(lambda: [0, 0.0])
        self.tallies = defaultdict(float)
        self.ref_keys = []         # (s, t, tol) of every reference call
        self.ref_ratios = []       # achieved / requested of every reference call
        self.missing = []
        self._frames = []          # open frames: [start, child time, span index or -1]

    # -- wrappers ------------------------------------------------------

    def span(self, name, fn, on_enter=None, on_exit=None):
        """Wrap ``fn`` so that every call records one span called ``name``.

        Observers get the call's arguments by parameter name:
        ``on_enter(arguments)`` returns a token, and
        ``on_exit(token, arguments, result, error)`` sees every call; on
        success its return value replaces the result.
        """
        frames = self._frames
        signature = inspect.signature(fn) if on_enter or on_exit else None

        def wrapper(*args, **kwargs):
            parent = next((f[2] for f in reversed(frames) if f[2] >= 0), -1)
            start = time.perf_counter()
            frame = [start, 0.0, len(self.spans)]
            self.spans.append([name, start, start, parent, 0.0])
            frames.append(frame)
            arguments = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            token = on_enter(arguments) if on_enter else None
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                if on_exit:
                    on_exit(token, arguments, None, error)
                raise
            finally:
                frames.pop()
                end = time.perf_counter()
                span = self.spans[frame[2]]
                span[2], span[4] = end, frame[1]
                if frames:
                    frames[-1][1] += end - start
            return on_exit(token, arguments, result, None) if on_exit else result

        return wrapper

    def counter(self, name, fn):
        """Wrap ``fn`` so that calls only add to a count and a total time."""
        cell = self.counters[name]
        frames = self._frames

        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0, -1]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                frames.pop()
                elapsed = time.perf_counter() - frame[0]
                cell[0] += 1
                cell[1] += elapsed
                if frames:
                    frames[-1][1] += elapsed

        return wrapper

    def instrument_model(self, model):
        """A copy of ``model`` whose B(t) callables feed the counters."""
        family = model.perturbation
        changes = {field: self.counter(name, getattr(family, field))
                   for field, name in FAMILY_COUNTERS.items()
                   if getattr(family, field, None) is not None}
        return dataclasses.replace(
            model, perturbation=dataclasses.replace(family, **changes))

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap every hook.  Call before the traced work starts."""
        import gibbsflow
        import gibbsflow.cli  # noqa: F401  (its bindings are rebound too)

        observers = {
            "models.build": (None, self.built),
            "propagator.ref": (self._ref_enter, self._ref_exit),
            "propagator.product": (None, self._product_exit),
            "dyson.sum": (None, self._dyson_exit),
        }
        for name, (module_name, attr) in SPAN_HOOKS.items():
            enter, leave = observers.get(name, (None, None))
            if name == "quadrature.integrate":
                make = self._integrate_wrapper
            else:
                make = (lambda fn, n=name, a=enter, b=leave: self.span(n, fn, a, b))
            self._rebind(module_name, attr, make)
        for name, (module_name, attr) in COUNTER_HOOKS.items():
            self._rebind(module_name, attr, lambda fn, n=name: self.counter(n, fn))

        self._patch_class("gibbsflow.reports", "ReportEnvelope", "write",
                          lambda fn: self.span("reports.emit", fn))
        self._patch_class("gibbsflow.linalg", "HermitianOperator", "spectrum",
                          self._eigh_wrapper)
        self._count_collocation_panels()

    def _rebind(self, module_name, attr, make):
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "gibbsflow" or name.startswith("gibbsflow.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def _patch_class(self, module_name, cls_name, attr, make):
        cls = getattr(sys.modules.get(module_name), cls_name, None)
        if cls is None or not hasattr(cls, attr):
            self.missing.append(f"{module_name}.{cls_name}.{attr}")
            return
        setattr(cls, attr, make(getattr(cls, attr)))

    def _eigh_wrapper(self, spectrum):
        """Count decompositions actually computed, not cache hits."""
        cell = self.counters["linalg.eigh"]

        def wrapper(op):
            if getattr(op, "_spectrum", None) is None:
                cell[0] += 1
            return spectrum(op)

        return wrapper

    def _integrate_wrapper(self, integrate):
        counter = self.counter

        def with_counted_integrand(f, *args, **kwargs):
            return integrate(counter("quadrature.integrand", f), *args, **kwargs)

        return self.span("quadrature.integrate", with_counted_integrand)

    def _count_collocation_panels(self):
        dyson = sys.modules["gibbsflow.dyson"]
        grid = getattr(dyson, "_CollocationGrid", None)
        if grid is None:
            self.missing.append("gibbsflow.dyson._CollocationGrid")
            return
        tallies = self.tallies

        class CountedGrid(grid):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tallies["dyson.panels"] += len(self.edges) - 1

        dyson._CollocationGrid = CountedGrid

    # -- observers -----------------------------------------------------

    def built(self, token, arguments, model, error):
        """Observer for a model constructor span: instrument what it built."""
        return None if error else self.instrument_model(model)

    def _samples(self):
        return sum(self.counters[name][0] for name in FAMILY_COUNTERS.values())

    def _ref_enter(self, arguments):
        tol = float(arguments["tol"])
        self.ref_keys.append((float(arguments["s"]), float(arguments["t"]), tol))
        return self._samples(), tol

    def _ref_exit(self, token, arguments, result, error):
        samples, tol = token
        self.tallies["propagator.ref_cells"] += self._samples() - samples
        achieved = getattr(error, "achieved", None)
        if achieved is None and result is not None:
            match = _DIFF.search(getattr(result, "method", ""))
            achieved = float(match.group(1)) if match else None
        if achieved is not None:
            self.ref_ratios.append(achieved / tol)
        return result

    def _product_exit(self, token, arguments, result, error):
        self.tallies["propagator.product_cells"] += int(arguments["n"])
        return result

    def _dyson_exit(self, token, arguments, result, error):
        match = _DEPTH.search(getattr(result, "method", ""))
        if match:
            self.tallies["dyson.depth_max"] = max(self.tallies["dyson.depth_max"],
                                                  int(match.group(1)))
        return result

    # -- output --------------------------------------------------------

    def summary(self):
        """Per-layer metrics: counts, totals, self times and ratios.

        A layer's ``_s`` sums its outermost spans only, so recursion is not
        counted twice; ``_self_s`` sums every span's self time.
        """
        names = [span[0] for span in self.spans]

        def nested_in_same(i):
            parent = self.spans[i][3]
            while parent >= 0:
                if names[parent] == names[i]:
                    return True
                parent = self.spans[parent][3]
            return False

        calls, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
        for i, (name, start, end, parent, child) in enumerate(self.spans):
            calls[name] += 1
            own[name] += (end - start) - child
            if not nested_in_same(i):
                total[name] += end - start

        def count(name):
            return self.counters[name][0]

        def seconds(name):
            return self.counters[name][1]

        product_cells = int(self.tallies["propagator.product_cells"])
        dyson_spans = {i for i, name in enumerate(names) if name == "dyson.sum"}
        out = {
            "propagator.ref_calls": calls["propagator.ref"],
            "propagator.ref_unique_ratio": (len(set(self.ref_keys)) / len(self.ref_keys)
                                            if self.ref_keys else 0.0),
            "propagator.ref_cells": int(self.tallies["propagator.ref_cells"]),
            "propagator.ref_s": total["propagator.ref"],
            "propagator.ref_self_s": own["propagator.ref"],
            "propagator.ref_achieved_over_tol": max(self.ref_ratios, default=0.0),
            "models.heat_factor_calls": count("models.heat_factor"),
            "models.heat_factor_s": seconds("models.heat_factor"),
            "models.evaluate_calls": count("models.evaluate"),
            "models.evaluate_s": seconds("models.evaluate"),
            "propagator.product_calls": calls["propagator.product"],
            "propagator.product_cells": product_cells,
            "propagator.product_self_s": own["propagator.product"],
            "propagator.product_us_per_cell": (1e6 * own["propagator.product"] / product_cells
                                               if product_cells else 0.0),
            "linalg.eigh_calls": count("linalg.eigh"),
            "linalg.svd_calls": count("linalg.svd"),
            "linalg.svd_s": seconds("linalg.svd"),
            "linalg.heat_calls": count("linalg.heat"),
            "linalg.heat_s": seconds("linalg.heat"),
            "constants.estimate_s": total["constants.estimate"],
            "constants.coefficient_calls": calls["constants.coefficient"],
            "constants.coefficient_s": total["constants.coefficient"],
            "dyson.sum_calls": len(dyson_spans),
            "dyson.bisections": len({self.spans[i][3] for i in dyson_spans} & dyson_spans),
            "dyson.depth_max": int(self.tallies["dyson.depth_max"]),
            "dyson.panels": int(self.tallies["dyson.panels"]),
            "dyson.s": total["dyson.sum"],
            "dyson.self_s": own["dyson.sum"],
            "quadrature.integrate_calls": calls["quadrature.integrate"],
            "quadrature.integrand_evals": count("quadrature.integrand"),
            "quadrature.s": total["quadrature.integrate"],
            "quadrature.self_s": own["quadrature.integrate"],
            "cli.self_s": own["cli.main"],
            "reports.emit_s": total["reports.emit"],
            "config.parse_s": total["config.parse"],
            "models.build_s": total["models.build"],
        }
        for job in ("convergence", "lifting", "cocycle", "lemma21", "contraction"):
            out[f"analysis.{job}_s"] = total[f"analysis.{job}"]
        return out

    def dump(self):
        """Raw spans and counters, for reading one trace by hand."""
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "self_s": (e - s) - c}
                      for n, s, e, p, c in self.spans],
            "counters": {name: {"calls": c[0], "seconds": c[1]}
                         for name, c in sorted(self.counters.items())},
            "tallies": dict(sorted(self.tallies.items())),
            "missing_hooks": self.missing,
            "summary": self.summary(),
        }
