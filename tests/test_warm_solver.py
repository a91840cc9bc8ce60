"""Warm-started low-power solve: differential tests against the cold
scan, the shape of the dimming curve that certifies the warm root, and
scenario-level equality of warm and cold solves."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import dbsrc.charger
from dbsrc import (ControlReferences, ScenarioConfig, UnreachablePowerError,
                   default_tank, run_scenario, solve_controls)
from dbsrc import _kernels as k
from dbsrc.charger import ANGLE_CORR_LIMIT, TRACE_COLUMNS

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


# dH/ds to carry into a warm solve: the previous solve's own (None), no
# Newton step (0.0, NaN, positive), a zero-length one (-inf), one thrown
# to an end of the range (subnormal) and wildly wrong ones
SLOPES = st.one_of(
    st.none(), st.just(0.0), st.just(math.nan), st.just(math.inf),
    st.just(-math.inf), st.floats(1e-300, 1e300),
    st.floats(-1e-308, -5e-324), st.floats(-1e300, -1e-300))


@SETTINGS
@given(args=lowpower_states(), w_step=st.floats(-0.05, 0.05),
       root_shift=st.floats(-0.05, 0.05),
       peak_shift=st.one_of(st.none(), st.integers(-4, 4)), slope=SLOPES)
def test_warm_solve_returns_the_scan_root_or_falls_back(
        args, w_step, root_shift, peak_shift, slope):
    """A warm solve returns the cold scan's result bit for bit, unless it
    falls back; a bad slope may cost evaluations but never moves it."""
    cold = k.solve_controls_scan(*args)
    assume(cold[7] == k.OK_LOWPOWER)
    # the previous step: W* a few percent away, warm-started from nothing
    prev = k.solve_controls_scan(*with_w(args, args[4] * math.exp(w_step)),
                                 (1.0, -1.0, 0.0))
    assume(prev[7] == k.OK_LOWPOWER)
    s_prev = min(max(prev[4] + root_shift, 0.0), math.pi)
    s_peak = -1.0 if peak_shift is None or prev[10][1] < 0 \
        else prev[10][1] + peak_shift * k.SCAN_STEP
    if slope is None:
        slope = prev[10][2]
    warm = k.solve_controls_scan(*args, (s_prev, s_peak, slope))
    assert warm[7] == cold[7]
    assert warm[9] >= 1
    if not warm[8]:
        assert warm[:7] == cold[:7]
        assert 0.0 <= warm[10][1] <= math.pi
        assert warm[10][2] < 0.0


@SETTINGS
@given(args=lowpower_states())
def test_dimming_curve_is_non_increasing_right_of_the_peak_bound(args):
    """max(H, 0) never rises on [s_peak, pi]; the warm solve only accepts
    positive-target crossings there, so this makes them unique."""
    sigma_ref, delta_ref, _s, gain, _w, sigma_reg, delta_reg = args[:7]
    bound = k.solve_controls_scan(*args, (1.0, -1.0, 0.0))[10][1]
    assume(bound >= 0.0)
    xs = np.linspace(bound, math.pi, 1500)
    h = np.maximum([k.regulated_point(sigma_ref, delta_ref, x, gain,
                                      sigma_reg, delta_reg)[3] for x in xs],
                   0.0)
    assert np.all(np.diff(h) <= 1e-12 * max(1.0, h.max()))


CORRECTIONS = st.floats(-ANGLE_CORR_LIMIT, ANGLE_CORR_LIMIT)


@SETTINGS
@given(sigma_ref=st.floats(-1.5, 1.5), delta_ref=st.floats(-1.5, 1.5),
       gain=st.floats(0.05, 3.0), sigma_reg=CORRECTIONS,
       delta_reg=CORRECTIONS, w_frac=st.floats(0.02, 0.98),
       w_step=st.floats(-0.05, 0.05))
# the curve rises right of the peak bound here: q falls back to pi near
# s_add = 1.35, H drops there and climbs to a second maximum past the
# bound of 1.2272
@example(0.288942188866184, 0.055806097490722295, 1.4873622709182488,
         0.4065670641821407, 0.16913595893280353, 0.488, 0.01)
def test_warm_solve_equals_the_cold_scan_over_the_loops_domain(
        sigma_ref, delta_ref, gain, sigma_reg, delta_reg, w_frac, w_step):
    """Over all the loop can reach, where max(H, 0) may rise right of the
    peak bound: a warm solve from the previous solve's state returns the
    cold scan's result bit for bit, unless it falls back."""
    h0 = k.regulated_point(sigma_ref, delta_ref, 0.0, gain, sigma_reg,
                           delta_reg)[3]
    assume(h0 > 1e-6)
    w_ref = k.hz_split(h0, Z_MAX, TANK.turns_ratio) * w_frac
    args = (sigma_ref, delta_ref, 0.0, gain, w_ref, sigma_reg, delta_reg,
            TANK.inductance, TANK.capacitance, TANK.turns_ratio,
            TANK.omega_max)
    cold = k.solve_controls_scan(*args)
    assume(cold[7] == k.OK_LOWPOWER)
    prev = k.solve_controls_scan(*with_w(args, w_ref * math.exp(w_step)),
                                 (1.0, -1.0, 0.0))
    assume(prev[7] == k.OK_LOWPOWER)
    warm = k.solve_controls_scan(*args, prev[10])
    assert warm[7] == cold[7]
    if not warm[8]:
        assert warm[:7] == cold[:7]


def test_no_warm_state_is_the_cold_scan():
    args = (0.1, 0.0, 0.0, 1.25, 0.004, 0.01, -0.02, TANK.inductance,
            TANK.capacitance, TANK.turns_ratio, TANK.omega_max)
    out = k.solve_controls_scan(*args)
    assert out[7] == k.OK_LOWPOWER
    assert out[8:] == (False, out[9], (out[4], -1.0, 0.0))
    assert out[9] > 100        # every grid point right of the root


TANK_ARGS = (TANK.inductance, TANK.capacitance, TANK.turns_ratio,
             TANK.omega_max)


# warm solves outside lowpower_states' domain that find no bracket:
# _warm_bracket's three exits (no crossing left of the previous root; the
# regula falsi not converging; no crossing right of x up to pi, here
# after _last_peak bounds a curve that rises into pi)
@pytest.mark.parametrize("args, warm, status, evaluations", [
    ((0.6390909273849767, -0.23904046819562152, 0.0, 2.455361611980796,
      0.013065333641745605, -0.1259401473040701, 0.47893229765171486),
     (2.6797765070593025, -1.0, 0.0), k.OK_LOWPOWER, 699),
    ((1.0769481365698936, -0.47787636975048364, 0.0, 0.9247391320588176,
      0.006316370736139303, 0.3699203082226493, -0.34160967340572856),
     (2.3063321253618225, 1.8837284075235303, -21.706049085888903),
     k.UNREACHABLE, 432),
    ((1.4181503335392587, 0.14355342411862915, 0.0, 1.749866453997007,
      0.00012429528305573306, 0.37275110588317406, -0.5057446291098138),
     (1.0, k.SCAN_GRID[1], -1.0), k.UNREACHABLE, 35),
], ids=["no_crossing_left", "regula_falsi_stalls", "no_crossing_right"])
def test_warm_solve_without_a_bracket_falls_back(args, warm, status,
                                                 evaluations):
    cold = k.solve_controls_scan(*args, *TANK_ARGS)
    out = k.solve_controls_scan(*args, *TANK_ARGS, warm)
    assert out[8] and not cold[8]
    assert out[7] == status and out[9] == evaluations
    assert out[:8] == cold[:8]


def test_last_peak_bound_at_pi_when_the_curve_rises_into_it():
    # a positive sigma_reg puts q past pi near s_add = pi, where H is
    # then far from 0 and still rising
    sigma_ref, delta_ref, gain, sigma_reg, delta_reg = (
        1.4181503335392587, 0.14355342411862915, 1.749866453997007,
        0.37275110588317406, -0.5057446291098138)
    h = [k.regulated_point(sigma_ref, delta_ref, k.SCAN_GRID[j], gain,
                           sigma_reg, delta_reg)[3] for j in range(3)]
    assert h[0] > h[1] > h[2] > 0.0
    assert k._last_peak(sigma_ref, delta_ref, 0.0, gain, sigma_reg,
                        delta_reg, k.SCAN_GRID[1]) == (math.pi, 4)


def test_scan_root_short_of_the_request_is_unreachable():
    # the scan's crossing delivers 6.4% less than W*, past W_REL_TOL
    refs = ControlReferences(0.5316748140458589, 1.0189761796177643)
    gain, w_ref = 1.8912108347101384, 0.027472660978977662
    corrections = (-0.25723053692363285, -0.18888800342477763)
    with pytest.raises(UnreachablePowerError):
        solve_controls(refs, gain, w_ref, TANK, corrections)
    out = k.solve_controls_scan(refs.sigma_ref, refs.delta_ref, 0.0, gain,
                                w_ref, *corrections, *TANK_ARGS)
    assert out[7] == k.UNREACHABLE
    assert out[9] > 100        # it is the scan's result, not an early exit
    assert out[6] < (1.0 - k.W_REL_TOL) * w_ref


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
        warm_starts.append(args[11] is not None)   # a warm state
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
