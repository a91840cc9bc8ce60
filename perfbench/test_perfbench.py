"""Tests of the benchmark itself, on shortened workloads.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import os
import signal
import sys
import time
from contextlib import nullcontext

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# the shortened default run is all low-power (the soft-start ramp), the
# trickle run has both kinds of solve and the CLI run only analytic ones
SHORT = {"charge-default": 0.3, "charge-trickle": 0.1, "charge-cc-cli": 3.0}


@pytest.fixture(autouse=True)
def in_tmp_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def plain_and_traced(name, seed=3):
    workload = workloads.build(name, seed, duration=SHORT[name])
    ok_plain, sim_plain = workload.check(workload.call())
    with tracer.Tracer() as trace:
        ok_traced, sim_traced = workload.check(workload.call())
    return workload, sim_plain, sim_traced, trace


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tracing_leaves_the_simulation_unchanged(name):
    workload, sim_plain, sim_traced, trace = plain_and_traced(name)
    assert sim_traced == sim_plain
    layers = tracer.layer_metrics(trace, workload.cfg.dt)
    steps = layers["charger.steps"][0]
    assert steps == workload.steps
    lowpower = layers["power.solve_calls.lowpower"][0]
    analytic = layers["power.solve_calls.analytic"][0]
    assert lowpower + analytic == steps
    assert lowpower / steps == sim_plain["sim.lowpower_share"]
    assert layers["kernels.forward_point_calls"][0] == steps


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counts_repeat_exactly(name):
    *_, first = plain_and_traced(name)
    *_, second = plain_and_traced(name)
    assert {k: c[0] for k, c in first.counts.items()} == \
        {k: c[0] for k, c in second.counts.items()}
    for key, span in first.spans.items():
        assert span.calls == second.spans[key].calls, key
        assert {k: len(v) for k, v in span.durations.items()} == \
            {k: len(v) for k, v in second.spans[key].durations.items()}
        assert span.inner_calls == second.spans[key].inner_calls, key


@pytest.mark.parametrize("error", [None, RuntimeError])
def test_wrapped_attributes_are_restored(error):
    trace = tracer.Tracer()
    originals = [(m, a, getattr(m, a)) for m, a, _ in trace.targets]
    with pytest.raises(RuntimeError) if error else nullcontext():
        with trace:
            assert all(getattr(m, a) is not f for m, a, f in originals)
            if error:
                raise error("leave the block early")
    assert all(getattr(m, a) is f for m, a, f in originals)


def test_lowpower_solves_are_attributed():
    workload, *_, trace = plain_and_traced("charge-trickle")
    layers = tracer.layer_metrics(trace, workload.cfg.dt)
    scans = trace.spans["kernels.solve_controls_scan"]
    assert sum(scans.inner_calls.values()) == \
        layers["kernels.regulated_point_calls"][0]
    assert layers["kernels.h_evals_per_lowpower_solve"][0] > 20


def test_speed_probe_samples_inside_and_restores_the_alarm():
    handler = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 3 * speed.PERIOD_S:
            pass
        elapsed = time.perf_counter() - start
    assert len(probe.samples) > 2 * speed.EDGE_SAMPLES
    assert 0.0 < probe.inside_s < elapsed
    assert probe.corrected(elapsed) > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
