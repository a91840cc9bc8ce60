"""Warm-started low-power solve: differential tests against the cold
scan, the shape of the dimming curve that certifies the warm root, and
scenario-level equality of warm and cold solves."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import dbsrc.charger
from dbsrc import ScenarioConfig, default_tank, run_scenario
from dbsrc import _kernels as k
from dbsrc.charger import TRACE_COLUMNS

TANK = default_tank()
Z_MAX = k.tank_impedance(TANK.omega_max, TANK.inductance, TANK.capacitance)
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.filter_too_much])


@st.composite
def lowpower_states(draw):
    """Arguments of solve_controls_scan for a low-power solve: references,
    G and corrections around the charger's operating range, and W* below
    what omega_max delivers at s_add = 0."""
    sigma_ref = draw(st.floats(-0.3, 0.3))
    delta_ref = draw(st.floats(-0.3, 0.3))
    gain = draw(st.floats(0.5, 1.5))
    sigma_reg = draw(st.floats(-0.2, 0.2))
    delta_reg = draw(st.floats(-0.2, 0.2))
    h0 = k.regulated_point(sigma_ref, delta_ref, 0.0, gain, sigma_reg,
                           delta_reg)[3]
    assume(h0 > 1e-6)
    w_ref = k.hz_split(h0, Z_MAX, TANK.turns_ratio) \
        * draw(st.floats(0.02, 0.98))
    return (sigma_ref, delta_ref, 0.0, gain, w_ref, sigma_reg, delta_reg,
            TANK.inductance, TANK.capacitance, TANK.turns_ratio,
            TANK.omega_max)


def with_w(args, w_ref):
    return args[:4] + (w_ref,) + args[5:]


@SETTINGS
@given(args=lowpower_states(), w_step=st.floats(-0.05, 0.05),
       root_shift=st.floats(-0.05, 0.05),
       peak_shift=st.one_of(st.none(), st.integers(-4, 4)))
def test_warm_solve_returns_the_scan_root_or_falls_back(
        args, w_step, root_shift, peak_shift):
    cold = k.solve_controls_scan(*args)
    assume(cold[7] == k.OK_LOWPOWER)
    # the previous step: W* a few percent away, warm-started from nothing
    prev = k.solve_controls_scan(*with_w(args, args[4] * math.exp(w_step)),
                                 1.0, -1.0)
    assume(prev[7] == k.OK_LOWPOWER)
    s_prev = min(max(prev[4] + root_shift, 0.0), math.pi)
    s_peak = -1.0 if peak_shift is None or prev[10] < 0 \
        else prev[10] + peak_shift * k.SCAN_STEP
    warm = k.solve_controls_scan(*args, s_prev, s_peak)
    assert warm[7] == cold[7]
    assert warm[9] >= 1
    if not warm[8]:
        assert abs(warm[4] - cold[4]) <= 1e-9
        assert 0.0 <= warm[10] <= math.pi


@SETTINGS
@given(args=lowpower_states())
def test_dimming_curve_is_non_increasing_right_of_the_peak_bound(args):
    """max(H, 0) never rises on [s_peak, pi]; the warm solve only accepts
    positive-target crossings there, so this makes them unique."""
    sigma_ref, delta_ref, _s, gain, _w, sigma_reg, delta_reg = args[:7]
    bound = k.solve_controls_scan(*args, 1.0, -1.0)[10]
    assume(bound >= 0.0)
    xs = np.linspace(bound, math.pi, 1500)
    h = np.maximum([k.regulated_point(sigma_ref, delta_ref, x, gain,
                                      sigma_reg, delta_reg)[3] for x in xs],
                   0.0)
    assert np.all(np.diff(h) <= 1e-12 * max(1.0, h.max()))


def test_no_warm_state_is_the_cold_scan():
    args = (0.1, 0.0, 0.0, 1.25, 0.004, 0.01, -0.02, TANK.inductance,
            TANK.capacitance, TANK.turns_ratio, TANK.omega_max)
    out = k.solve_controls_scan(*args)
    assert out[7] == k.OK_LOWPOWER
    assert out[8:] == (False, out[9], -1.0)
    assert out[9] > 100        # every grid point right of the root


PARALLEL_STEP = dbsrc.charger.parallel_step
SOLVE_CONTROLS_SCAN = k.solve_controls_scan
REGULATED_POINT = k.regulated_point


def cold_parallel_step(*args, warm=None, **kwargs):
    """parallel_step with the warm state dropped: every solve is cold."""
    return PARALLEL_STEP(*args, **kwargs)


SCENARIOS = [
    # soft-start ramp: low-power buck throughout
    ScenarioConfig(duration=0.3),
    # 2 A across G = 1 with sensor noise: low-power buck and boost
    ScenarioConfig(i_cc=2.0, i_ref_slew=1e6, initial_charge_ah=14.98,
                   time_scale=3000.0, duration=0.1, noise_std_angle=1e-3,
                   noise_std_w=1e-5, seed=3),
    # delta* > 0: H is negative just left of pi, where the hump is tracked
    ScenarioConfig(duration=0.3, delta_ref=0.05),
]


@pytest.mark.parametrize("cfg", SCENARIOS)
def test_warm_scenario_equals_cold_scenario(cfg, monkeypatch):
    fallbacks, warm_starts = [], []

    def scan(*args):
        out = SOLVE_CONTROLS_SCAN(*args)
        fallbacks.append(out[8])
        warm_starts.append(args[11] >= 0)   # s_prev of a warm state
        return out

    monkeypatch.setattr(k, "solve_controls_scan", scan)
    warm = run_scenario(cfg)
    assert sum(fallbacks) == 0
    assert np.mean(warm_starts) > 0.9
    warm_starts.clear()
    monkeypatch.setattr(dbsrc.charger, "parallel_step", cold_parallel_step)
    cold = run_scenario(cfg)
    assert not any(warm_starts)     # the cold run really solves cold
    assert np.mean(cold["s_add"] > 0) > 0.9
    for name in TRACE_COLUMNS:
        assert np.array_equal(warm[name], cold[name]), name


@pytest.mark.parametrize("cfg", SCENARIOS)
def test_reported_h_evaluations_are_regulated_point_calls(cfg, monkeypatch):
    """The count a scan reports (index 9) is its number of H evaluations,
    each a module-level regulated_point call, which is what perfbench's
    tracer counts."""
    calls = [0]
    counts = []

    def regulated_point(*args):
        calls[0] += 1
        return REGULATED_POINT(*args)

    def scan(*args):
        before = calls[0]
        out = SOLVE_CONTROLS_SCAN(*args)
        counts.append((out[9], calls[0] - before))
        return out

    monkeypatch.setattr(k, "regulated_point", regulated_point)
    monkeypatch.setattr(k, "solve_controls_scan", scan)
    run_scenario(cfg)
    assert len(counts) == int(round(cfg.duration / cfg.dt))
    assert sum(reported > 1 for reported, _ in counts) > 100
    assert [reported for reported, _ in counts] == \
        [called for _, called in counts]
