"""The three charger workloads: what each runs and how its output is
checked.

Each workload is one call into a public entry point of ``dbsrc``,
looked up at call time so that the tracer's wrappers are seen.  The
checks use the criterion-10 tolerances of the acceptance suite, none
loosened; the 30 s wall-clock bound of criterion 10 is left to the
test suite.  ``check`` returns whether the output passed and the
simulated statistics (``sim.*``), which a change that only makes the
code faster must leave identical.
"""

import math
import os
from dataclasses import replace

import numpy as np

import dbsrc
import dbsrc.cli
from dbsrc.charger import TRACE_COLUMNS

CC_TOL = 0.02          # |I_out - I_cc| / I_cc
CV_TOL = 0.01          # |V_bat - V_cv| / V_cv at the end
ANGLE_TOL = 5e-3       # |sigma - sigma*|, |delta - delta*| in rad
LOWPOWER_S_ADD = 1e-6  # criterion 10's mode threshold on s_add
# The trickle run reaches its setpoint at the first step; the angle and
# W loops settle within about 20 ms, so 50 ms (100 sensor time constants)
# are left out of its check window.
TRICKLE_SETTLE_S = 0.05
WARM_UP_STEPS = 50
OUT_DIR = ".perfbench_out"   # under the working directory; removed after a run
SIM_UNITS = {"sim.lowpower_share": "ratio", "sim.cc_err": "ratio",
             "sim.cv_err": "ratio", "sim.angle_err_max": "rad",
             "sim.v_bat_final": "V"}


def _worst(x, target, window) -> float:
    """Largest |x - target| inside the window; 0 for an empty window,
    which the checks reject on its own."""
    return float(np.max(np.abs(x[window] - target))) if window.any() else 0.0


def _sim_stats(cfg, i_out, v_bat, sigma, delta, s_add, window):
    """Simulated statistics; the errors are taken over the check
    window, except the CV error, which is the distance of the final
    pack voltage from the CV setpoint."""
    return {
        "sim.lowpower_share": float(np.mean(s_add > 0.0)),
        "sim.cc_err": _worst(i_out, cfg.i_cc, window) / cfg.i_cc,
        "sim.cv_err": float(abs(v_bat[-1] - cfg.v_cv) / cfg.v_cv),
        "sim.angle_err_max": max(_worst(sigma, cfg.sigma_ref, window),
                                 _worst(delta, cfg.delta_ref, window)),
        "sim.v_bat_final": float(v_bat[-1]),
    }


def _cc_window(cfg, t, i_ref):
    """Criterion 10's constant-current window: from 2 s after the
    current reference first reaches I_cc to 0.5 s before it last
    holds it."""
    at_cc = np.flatnonzero(i_ref >= 0.999 * cfg.i_cc)
    if at_cc.size == 0:
        return np.zeros(t.shape, dtype=bool)
    return (t >= t[at_cc[0]] + 2.0) & (t <= t[at_cc[-1]] - 0.5)


def _steps(cfg) -> int:
    return int(round(cfg.duration / cfg.dt))


class ScenarioWorkload:
    """A call of ``dbsrc.run_scenario`` on a fixed config."""

    def __init__(self, name: str, cfg):
        self.name = name
        self.cfg = cfg
        self.steps = _steps(cfg)

    def warm_up(self):
        dbsrc.run_scenario(replace(self.cfg,
                                   duration=WARM_UP_STEPS * self.cfg.dt))

    def call(self):
        return dbsrc.run_scenario(self.cfg)


class DefaultCharge(ScenarioWorkload):
    """The study case, ``run_scenario(ScenarioConfig())``."""

    def check(self, trace):
        cfg = self.cfg
        t, i_ref, gain = trace["t"], trace["I_ref"], trace["G"]
        sigma, delta = trace["sigma"], trace["delta"]
        s_add, d, s = trace["s_add"], trace["d"], trace["s"]
        window = _cc_window(cfg, t, i_ref)
        sim = _sim_stats(cfg, trace["I_out"], trace["V_bat"], sigma,
                         delta, s_add, window)
        tail_delta = float(np.max(np.abs(delta[-2000:] - cfg.delta_ref)))
        modes = (
            (s_add > LOWPOWER_S_ADD) & (gain < 1),
            (s_add <= LOWPOWER_S_ADD) & (d < math.pi - 1e-6) & (gain < 1),
            (s_add <= LOWPOWER_S_ADD) & (np.abs(d - math.pi) < 1e-9)
            & (s > 1e-6),
            (s_add > LOWPOWER_S_ADD) & (gain > 1),
        )
        firsts = [np.flatnonzero(m)[0] if m.any() else -1 for m in modes]
        order_ok = all(f >= 0 for f in firsts) and firsts == sorted(firsts)
        unity = np.flatnonzero(gain >= 1.0)
        mid_ok = unity.size > 0 and \
            0.3 * cfg.duration < t[unity[0]] < 0.7 * cfg.duration
        ok = (trace.steps == self.steps and window.any()
              and sim["sim.cc_err"] < CC_TOL and sim["sim.cv_err"] < CV_TOL
              and sim["sim.angle_err_max"] < ANGLE_TOL
              and tail_delta < ANGLE_TOL and order_ok and mid_ok)
        return bool(ok), sim


class TrickleCharge(ScenarioWorkload):
    """A 2 A charge across G = 1 with seeded sensor noise."""

    def check(self, trace):
        cfg = self.cfg
        t, gain = trace["t"], trace["G"]
        window = t >= TRICKLE_SETTLE_S
        sim = _sim_stats(cfg, trace["I_out"], trace["V_bat"],
                         trace["sigma"], trace["delta"], trace["s_add"],
                         window)
        ok = (trace.steps == self.steps and gain[0] < 1.0 < gain[-1]
              and sim["sim.cc_err"] < CC_TOL
              and sim["sim.angle_err_max"] < ANGLE_TOL)
        return bool(ok), sim


class CcCliCharge:
    """``dbsrc charge`` through ``dbsrc.cli.main``: CC only, across
    G = 1 and ending before CV, with every step written as a CSV row."""

    def __init__(self, name: str, settings: dict):
        self.name = name
        self.settings = settings
        self.cfg = dbsrc.ScenarioConfig(**settings)
        self.steps = _steps(self.cfg)
        os.makedirs(OUT_DIR, exist_ok=True)
        self.out = os.path.join(OUT_DIR, f"{name}.csv")

    def _argv(self, settings):
        argv = ["charge", "--out", self.out]
        for key, value in settings.items():
            argv += ["--set", f"{key}={value!r}"]
        return argv

    def warm_up(self):
        dbsrc.cli.main(self._argv(dict(
            self.settings, duration=WARM_UP_STEPS * self.cfg.dt)))

    def call(self):
        return dbsrc.cli.main(self._argv(self.settings))

    def check(self, exit_code):
        cfg = self.cfg
        with open(self.out) as fh:
            header = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(self.out, delimiter=",", skiprows=1, ndmin=2)
        col = {name: data[:, i] for i, name in enumerate(TRACE_COLUMNS)}
        window = _cc_window(cfg, col["t"], col["I_ref"])
        sim = _sim_stats(cfg, col["I_out"], col["V_bat"],
                         col["sigma"], col["delta"], col["s_add"], window)
        ok = (exit_code == dbsrc.cli.EXIT_OK
              and header == list(TRACE_COLUMNS)
              and data.shape == (self.steps, len(TRACE_COLUMNS))
              and window.any() and sim["sim.cc_err"] < CC_TOL)
        return bool(ok), sim


NAMES = ("charge-default", "charge-trickle", "charge-cc-cli")


def build(name: str, seed: int, duration: float | None = None):
    """The workload ``name`` for ``seed``; ``duration`` shortens the
    scenario (for the benchmark's own tests)."""
    def scenario(**kwargs):
        cfg = dbsrc.ScenarioConfig(**kwargs)
        return cfg if duration is None else replace(cfg, duration=duration)

    if name == "charge-default":
        return DefaultCharge(name, scenario())
    # The other two last a few seconds per call, so that a run makes
    # several calls and their median shrugs off a slow spell of the machine.
    if name == "charge-trickle":
        # 2 A from just below G = 1 (15 Ah) to just above it; the current
        # reference jumps to its setpoint at the first step
        return TrickleCharge(name, scenario(
            i_cc=2.0, i_ref_slew=1e6, initial_charge_ah=14.0,
            time_scale=3000.0, duration=1.0, noise_std_angle=1e-3,
            noise_std_w=1e-5, seed=seed))
    if name == "charge-cc-cli":
        # 25 A from 11 Ah: G = 1 at t = 5.8 s, 336 V (short of CV) at 10 s
        return CcCliCharge(name, {
            "i_ref_slew": 1e6, "initial_charge_ah": 11.0,
            "duration": 10.0 if duration is None else duration})
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
