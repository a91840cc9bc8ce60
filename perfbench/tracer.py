"""Outside-in layer tracing for the charger benchmark.

The tracer swaps public functions at the module boundaries of
``dbsrc`` for timing or counting wrappers and puts the originals back
when the ``with`` block ends.  Nothing under ``src/`` knows about it.

A call site only sees a wrapper when it looks the name up at call time
in the module whose attribute is swapped: ``run_scenario`` looks up
``parallel_step``, ``plant_step`` and ``battery_step`` in
``dbsrc.charger``; ``parallel_step`` looks up ``solve_controls`` in
``dbsrc.control``; ``solve_controls`` and ``plant_step`` reach the
kernels through the ``dbsrc._kernels`` module object.  Kernel calls made
from inside another kernel are only seen on the pure-Python backend;
numba binds them at compile time.

Spans nest on a stack, so each span's self time is its duration minus
the durations of the spans opened directly inside it.
"""

import os
import time
from array import array
from collections import defaultdict

import numpy as np

import dbsrc
import dbsrc._kernels
import dbsrc.charger
import dbsrc.cli
import dbsrc.control

K = dbsrc._kernels


class Span:
    """Timings of one wrapped function: call count, total and self
    time, and per-call durations split by ``classify(result)``."""

    def __init__(self, classify=None, inner_counter=None):
        self.classify = classify
        self.inner_counter = inner_counter
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = defaultdict(lambda: array("d"))
        self.inner_calls = defaultdict(int)


def _one_class(_result) -> str:
    return "all"


def _solve_class(solution) -> str:
    return "lowpower" if solution.low_power else "analytic"


def _scan_class(result) -> str:
    return "lowpower" if result[7] == K.OK_LOWPOWER else "analytic"


class Tracer:
    """Context manager that instruments dbsrc's layer boundaries.

    Span names are ``<layer>.<function>``; the layers are the modules.
    Counted kernels only get a call counter, because they run millions
    of times per scenario and a timer around each would dominate.
    """

    COUNTED = ("regulated_point", "forward_point", "invert_exact")

    def __init__(self):
        self.counts = {name: [0] for name in self.COUNTED}
        self.spans = {
            "cli.main": Span(),
            "cli.write_csv": Span(),
            "charger.run_scenario": Span(),
            "control.parallel_step": Span(classify=_one_class),
            "charger.plant_step": Span(),
            "charger.battery_step": Span(),
            "power.solve_controls": Span(classify=_solve_class),
            "kernels.solve_controls_scan": Span(
                classify=_scan_class,
                inner_counter=self.counts["regulated_point"]),
        }
        # (module, attribute, span name or counter name)
        self.targets = [
            (dbsrc.cli, "main", "cli.main"),
            (dbsrc.cli, "write_csv", "cli.write_csv"),
            (dbsrc, "run_scenario", "charger.run_scenario"),
            (dbsrc.cli, "run_scenario", "charger.run_scenario"),
            (dbsrc.charger, "parallel_step", "control.parallel_step"),
            (dbsrc.charger, "plant_step", "charger.plant_step"),
            (dbsrc.charger, "battery_step", "charger.battery_step"),
            (dbsrc.control, "solve_controls", "power.solve_controls"),
            (K, "solve_controls_scan", "kernels.solve_controls_scan"),
        ] + [(K, name, name) for name in self.COUNTED]
        self.out_bytes = 0
        self._stack = [0.0]
        self._saved = []

    def __enter__(self):
        for module, attr, key in self.targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            if key in self.spans:
                wrapper = self._timed(self.spans[key], original)
            else:
                wrapper = _counted(self.counts[key], original)
            if attr == "write_csv":
                wrapper = self._sized(wrapper)
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _timed(self, span: Span, fn):
        stack = self._stack
        perf = time.perf_counter
        inner = span.inner_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            before = inner[0] if inner is not None else 0
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                child = stack.pop()
                stack[-1] += elapsed
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - child
            if span.classify is not None:
                label = span.classify(result)
                span.durations[label].append(elapsed)
                if inner is not None:
                    span.inner_calls[label] += inner[0] - before
            return result
        return wrapper

    def _sized(self, fn):
        def wrapper(path, header, rows):
            fn(path, header, rows)
            self.out_bytes += os.path.getsize(path)
        return wrapper


def _counted(cell, fn):
    def wrapper(*args):
        cell[0] += 1
        return fn(*args)
    return wrapper


def _percentile_us(samples, q: float) -> float:
    return float(np.percentile(samples, q)) * 1e6 if len(samples) else 0.0


def _per_call(total: float, calls: int, scale: float = 1e6) -> float:
    return total / calls * scale if calls else 0.0


def layer_metrics(tracer: Tracer, period: float) -> dict:
    """Per-layer figures from one traced call, as name -> (value, unit).

    Times are in microseconds per call unless the unit says otherwise;
    percentiles and means over an empty class read 0.  ``period`` is the
    control period that ``control.over_period_share`` compares each
    ``parallel_step`` duration with.
    """
    spans = tracer.spans
    solve = spans["power.solve_controls"]
    scan = spans["kernels.solve_controls_scan"]
    step = spans["control.parallel_step"]
    loop = spans["charger.run_scenario"]
    cli = spans["cli.main"]
    csv = spans["cli.write_csv"]
    plant = spans["charger.plant_step"]
    battery = spans["charger.battery_step"]
    step_us = np.asarray(step.durations["all"])
    lp_solves = solve.durations["lowpower"]
    an_solves = solve.durations["analytic"]
    lp_scans = scan.durations["lowpower"]
    an_scans = scan.durations["analytic"]
    counts = {name: cell[0] for name, cell in tracer.counts.items()}
    return {
        "kernels.h_evals_per_lowpower_solve": (
            _per_call(scan.inner_calls["lowpower"], len(lp_scans), 1.0),
            "count"),
        "power.solve_us.lowpower.p50": (_percentile_us(lp_solves, 50), "us"),
        "power.solve_us.lowpower.p99": (_percentile_us(lp_solves, 99), "us"),
        "kernels.scan_us.lowpower": (
            _per_call(sum(lp_scans), len(lp_scans)), "us"),
        "power.lowpower_time_share": (
            sum(lp_solves) / loop.total if loop.total else 0.0, "ratio"),
        "control.over_period_share": (
            float(np.mean(step_us > period)) if step_us.size else 0.0,
            "ratio"),
        "power.solve_us.analytic.p50": (_percentile_us(an_solves, 50), "us"),
        "power.solve_us.analytic.p99": (_percentile_us(an_solves, 99), "us"),
        "kernels.scan_us.analytic": (
            _per_call(sum(an_scans), len(an_scans)), "us"),
        "power.wrap_us_per_call": (
            _per_call(solve.self_time, solve.calls), "us"),
        "control.step_self_us": (_per_call(step.self_time, step.calls), "us"),
        "charger.loop_us_per_step": (
            _per_call(loop.self_time, step.calls), "us"),
        "charger.plant_us_per_call": (
            _per_call(plant.total, plant.calls), "us"),
        "charger.battery_us_per_call": (
            _per_call(battery.total, battery.calls), "us"),
        "cli.self_s": (cli.self_time, "s"),
        "cli.write_csv_s": (csv.total, "s"),
        "cli.out_bytes": (tracer.out_bytes, "bytes"),
        "charger.steps": (step.calls, "count"),
        "power.solve_calls.analytic": (len(an_solves), "count"),
        "power.solve_calls.lowpower": (len(lp_solves), "count"),
        "kernels.regulated_point_calls": (counts["regulated_point"], "count"),
        "kernels.forward_point_calls": (counts["forward_point"], "count"),
        "kernels.invert_exact_calls": (counts["invert_exact"], "count"),
    }
