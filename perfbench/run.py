#!/usr/bin/env python3
"""Charger benchmark for dbsrc.

Run from the root of a checkout:

    python3 perfbench/run.py --workload charge-default --seed 1 \\
        --seconds 30 --trace 0

The package is imported from ``src/`` of the working directory; the
benchmark fails, without printing a result, when that is missing.

``--trace 0`` measures the end-to-end metrics.  Set-up (importing
dbsrc, building the config and a 50-step warm-up) is timed in this
process and in fresh interpreters, and ``setup_s`` is the median.  The
workload is then called, at least once, until the next call would end
more than half a call past ``--seconds``; ``wall_s`` is the median
call.  ``--trace 1`` makes one untraced and one traced call and reports
the per-layer metrics of the traced one (see ``tracer.py``).  Every
call's output is checked; the last line of standard output is the JSON
result, preceded by a ``context`` line (the run's environment) and a
``sim`` line (simulated statistics).
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# The harness needs numpy for its checks, so numpy is loaded before the
# set-up clock starts.  Its import was most of a set-up and most of the
# set-up's run-to-run spread, and dbsrc does not control it.
import numpy

import speed

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)

SETUP_PROBES = 16       # fresh interpreters timed besides this process
PROBE_TIMEOUT_S = 120


def setup(name: str, seed: int):
    """Import the package, build the workload and warm it up; returns
    the workload and the seconds this took, raw and corrected."""
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        import dbsrc
        import workloads
        if os.path.dirname(os.path.abspath(dbsrc.__file__)) != \
                os.path.join(SRC, "dbsrc"):
            raise SystemExit(f"dbsrc was imported from {dbsrc.__file__}, "
                             f"not from {SRC}")
        workload = workloads.build(name, seed)
        workload.warm_up()
        elapsed = time.perf_counter() - start
    return workload, (elapsed, probe.corrected(elapsed))


def probe_setup(name: str, seed: int) -> tuple:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S)
    return tuple(json.loads(out.stdout.strip().splitlines()[-1]))


def src_lines() -> int:
    total = 0
    for root, _dirs, files in os.walk(SRC):
        for fname in files:
            if fname.endswith(".py"):
                with open(os.path.join(root, fname), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def context(workload, seed: int) -> dict:
    import dbsrc
    return {
        "workload": workload.name, "seed": seed, "steps": workload.steps,
        "backend": "numba" if dbsrc.NUMBA_ENABLED else "pure-python",
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "src_loc": src_lines(),
    }


def timed_call(workload):
    """One call: (result, seconds).  A scenario abort is a failed call,
    not a crash; its result is None."""
    from dbsrc import DbsrcError
    start = time.perf_counter()
    try:
        result = workload.call()
    except DbsrcError:
        result = None
    return result, time.perf_counter() - start


def check(workload, result):
    """(ok, sim) of one call's result."""
    return (False, {}) if result is None else workload.check(result)


def measure(workload, seconds: float, setups: list):
    """End-to-end run: calls until the budget is spent.  ``setups``
    holds the (raw, corrected) seconds of each set-up."""
    walls, times, factors, oks, sims = [], [], [], [], []
    start = time.perf_counter()
    while True:
        with speed.SpeedProbe() as probe:
            result, wall = timed_call(workload)
        ok, sim = check(workload, result)
        walls.append(wall)
        times.append(probe.corrected(wall))
        factors.append(probe.factor())
        # a deterministic scenario must repeat its statistics exactly
        oks.append(ok and (not sims or sim == sims[0]))
        sims.append(sim)
        # another call only if it ends, by the mean so far, less than half
        # a call past the budget: the number of calls is then steady
        if time.perf_counter() - start + statistics.mean(walls) / 2 \
                >= seconds:
            break
    time_s = statistics.median(times)
    metrics = {
        "time_s": (time_s, "s"),
        "steps_per_s": (workload.steps / time_s, "1/s"),
        "setup_s": (statistics.median(c for _, c in setups), "s"),
        "ok_share": (sum(oks) / len(oks), "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {"wall_s": statistics.median(walls),
           "setup_wall_s": statistics.median(r for r, _ in setups),
           "call_walls_s": walls, "call_times_s": times,
           "speed_factors": factors}
    return metrics, oks, sims[0], raw


def measure_traced(workload):
    """Per-layer run: one untraced call, then one traced call."""
    import tracer
    import workloads
    result, wall_plain = timed_call(workload)
    ok_plain, sim_plain = check(workload, result)
    with tracer.Tracer() as trace:
        result, wall_traced = timed_call(workload)
    ok_traced, sim = check(workload, result)
    metrics = tracer.layer_metrics(trace, workload.cfg.dt)
    metrics["trace.overhead_ratio"] = (wall_traced / wall_plain, "ratio")
    for key, value in sim.items():
        metrics[key] = (value, workloads.SIM_UNITS[key])
    # tracing must not change what the scenario computes
    return (metrics, [ok_plain, ok_traced and sim == sim_plain], sim,
            {"call_walls_s": [wall_plain, wall_traced]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload, setup_here = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps(setup_here))
        return 0
    import workloads
    try:
        if args.trace:
            metrics, oks, sim, raw = measure_traced(workload)
        else:
            setups = [setup_here] + [probe_setup(args.workload, args.seed)
                                     for _ in range(SETUP_PROBES)]
            metrics, oks, sim, raw = measure(workload, args.seconds, setups)
    finally:
        shutil.rmtree(workloads.OUT_DIR, ignore_errors=True)
    print(json.dumps({"context": dict(context(workload, args.seed), **raw)}))
    print(json.dumps({"sim": sim}))
    print(json.dumps({
        "correct": all(oks), "attempted": len(oks),
        "failed": oks.count(False),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
