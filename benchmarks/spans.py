"""Layer spans for the traced benchmark run, installed from outside the package.

Each hook replaces one function under the name its calling module looks it
up by (``transport.christoffel_components`` is the Christoffel routine as
transport sees it), so the package runs unmodified and a call is attributed
to the layer that made it. Spans nest: a span's self time is its duration
minus the durations of the spans it directly encloses. Statistics are kept
in memory as running sums and read once the traced pass ends.
"""
from __future__ import annotations

import dataclasses
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span, extra call counter). A module may reach the same
# function under several names; every name it uses is hooked.
FUNCTION_HOOKS = [
    ("grbell.geometry", "christoffel_components", "geometry.christoffel", None),
    ("grbell.geodesics", "christoffel_components", "geometry.christoffel", "geodesics.christoffel.calls"),
    ("grbell.transport", "christoffel_components", "geometry.christoffel", "transport.christoffel.calls"),
    ("grbell.geometry", "metric_components", "geometry.metric", None),
    ("grbell.geodesics", "metric_components", "geometry.metric", None),
    ("grbell.transport", "metric_components", "geometry.metric", None),
    ("grbell.frames", "metric_components", "geometry.metric", None),
    ("grbell.scenario", "metric_components", "geometry.metric", None),
    ("grbell.scenario", "integrate_geodesic", "geodesics.integrate", None),
    ("grbell.scenario", "transport_R_to_L", "transport.r_to_l", None),
    ("grbell.transport", "parallel_transport", "transport.parallel", None),
    ("grbell.scenario", "build_static_frame", "frames.build", None),
    ("grbell.scenario", "build_comoving_frame", "frames.build", None),
    ("grbell.scenario", "project_to_frame", "frames.project", None),
    ("grbell.scenario", "generalized_bell_check", "correlations.check", None),
    ("grbell.scenario", "violation_condition", "correlations.check", None),
    ("grbell.scenario", "find_max_violation", "correlations.max_violation", None),
    ("grbell.lhv", "lhv_inequality_audit", "lhv.audit", None),
    ("grbell.scenario", "lhv_inequality_audit", "lhv.audit", None),
    ("grbell.cli", "lhv_inequality_audit", "lhv.audit", None),
    ("grbell.scenario", "run_scenario", "scenario.run", None),
    ("grbell.scenario", "config_from_dict", "scenario.config", None),
    ("grbell.scenario", "csv_row", "scenario.csv", None),
    ("grbell.scenario", "rows_to_csv", "scenario.csv", None),
    ("grbell.cli", "main", "cli.main", None),
]

# methods are looked up on the class by every caller
METHOD_HOOKS = [
    ("grbell.geodesics", "GeodesicPath", "state_at", "transport.state_at"),
]

# the sign model's sampler and responses are fields of the model object, so
# they are wrapped on each model that make_sign_model returns
MODEL_FACTORY_HOOKS = [
    ("grbell.lhv", "make_sign_model"),
    ("grbell.scenario", "make_sign_model"),
    ("grbell.cli", "make_sign_model"),
]

# spans whose call count is a metric, reported as <span>.calls
CALL_COUNT_SPANS = [
    "geometry.christoffel",
    "geometry.metric",
    "geodesics.integrate",
    "transport.r_to_l",
    "transport.parallel",
    "transport.state_at",
    "frames.build",
    "frames.project",
    "scenario.config",
]

# counters fed by hooks: calls attributed to one caller, and work done
COUNTERS = [
    "geodesics.christoffel.calls",
    "transport.christoffel.calls",
    "geodesics.steps",
    "lhv.samples_drawn",
]

SELF_TIME_SPANS = [
    "geometry.christoffel",
    "geometry.metric",
    "geodesics.integrate",
    "transport.r_to_l",
    "transport.parallel",
    "frames.build",
    "frames.project",
    "correlations.check",
    "correlations.max_violation",
    "lhv.audit",
    "lhv.sample",
    "lhv.respond",
    "scenario.run",
    "scenario.config",
    "scenario.csv",
    "cli.main",
]


class Tracer:
    """Call counts and self time per span name, plus work counters."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self.missing: list[str] = []
        self._child_s: list[float] = []

    def wrap(self, fn, span, counter=None, observe=None):
        calls, self_s, counters, child_s = self.calls, self.self_s, self.counters, self._child_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child_s.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child_s.pop()
                if child_s:
                    child_s[-1] += dt
                calls[span] += 1
                self_s[span] += dt - inner
                if counter is not None:
                    counters[counter] += 1
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def wrap_model(self, model):
        def count_samples(counters, args, _result):
            counters["lhv.samples_drawn"] += int(args[0])

        return dataclasses.replace(
            model,
            sample=self.wrap(model.sample, "lhv.sample", observe=count_samples),
            respond_A=self.wrap(model.respond_A, "lhv.respond"),
            respond_B=self.wrap(model.respond_B, "lhv.respond"),
        )

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of one traced pass, by name."""
        out: dict[str, float] = {f"{span}.calls": self.calls[span] for span in CALL_COUNT_SPANS}
        out.update({name: self.counters[name] for name in COUNTERS})
        for span in SELF_TIME_SPANS:
            out[f"{span}.self_s"] = self.self_s[span]
        steps = out["geodesics.steps"]
        out["geodesics.christoffel_per_step"] = (
            out["geodesics.christoffel.calls"] / steps if steps else 0.0
        )
        triples = self.counters["lhv.triples"]
        out["lhv.samples_per_triple"] = out["lhv.samples_drawn"] / triples if triples else 0.0
        return out


def _observe_path(counters, _args, path):
    counters["geodesics.steps"] += len(path.taus) - 1


def _observe_audit(counters, args, _report):
    counters["lhv.triples"] += len(args[1])


OBSERVERS = {"geodesics.integrate": _observe_path, "lhv.audit": _observe_audit}


@contextmanager
def tracing(tracer: Tracer):
    """Install every hook for the duration of the block, then restore."""
    restore = []

    def patch(owner, attr, replacement):
        restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    try:
        for module_name, attr, span, counter in FUNCTION_HOOKS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                tracer.missing.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr)
            patch(module, attr, tracer.wrap(fn, span, counter, OBSERVERS.get(span)))
        for module_name, cls_name, attr, span in METHOD_HOOKS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            if cls is None or attr not in vars(cls):
                tracer.missing.append(f"{module_name}.{cls_name}.{attr}")
                continue
            patch(cls, attr, tracer.wrap(vars(cls)[attr], span))
        for module_name, attr in MODEL_FACTORY_HOOKS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                tracer.missing.append(f"{module_name}.{attr}")
                continue
            factory = getattr(module, attr)
            patch(module, attr, lambda *a, _f=factory, **k: tracer.wrap_model(_f(*a, **k)))
        if tracer.missing:
            print(f"trace: not hooked (name not found): {', '.join(tracer.missing)}", file=sys.stderr)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
