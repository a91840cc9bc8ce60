"""run_scenario against the layered loop it replaced: the same
closed loop written as calls of the public step functions
(parallel_step, plant_step, battery_step, pack_voltage), each building
its records.  The float-level loop must reproduce it bit for bit."""

import math
from dataclasses import replace

import numpy as np
import pytest

import dbsrc.charger
from dbsrc import (ControlReferences, DbsrcError, InfeasibleReferenceError,
                   PiController, ScenarioAbort, ScenarioConfig,
                   UnreachablePowerError, battery_step, pack_voltage,
                   parallel_step, plant_step, run_scenario)
from dbsrc import _kernels as k
from dbsrc.charger import (ANGLE_CORR_LIMIT, NOISE_BLOCK, STORED_COLUMNS,
                           W_CORR_LIMIT, Trace)
from dbsrc.model import _ANGLE_MAX, _ANGLE_MIN, _BETA_MIN


def layered_run_scenario(cfg: ScenarioConfig) -> Trace:
    """The closed loop one public call per layer and step, in
    run_scenario's operation order."""
    dt = cfg.dt
    n_steps = int(round(cfg.duration / dt))
    refs = ControlReferences(sigma_ref=cfg.sigma_ref,
                             delta_ref=cfg.delta_ref, s_add=0.0)
    lim = ANGLE_CORR_LIMIT
    pi_sigma = PiController(cfg.sigma_kp, cfg.sigma_ki, dt, -lim, lim)
    pi_delta = PiController(cfg.delta_kp, cfg.delta_ki, dt, -lim, lim)
    pi_w = PiController(cfg.w_kp, cfg.w_ki, dt, -W_CORR_LIMIT, W_CORR_LIMIT)
    pi_volt = PiController(cfg.volt_kp, cfg.volt_ki, dt, 0.0, cfg.i_cc)

    charge = cfg.initial_charge_ah
    tau = cfg.sensor_tau
    alpha = 1.0 if tau == 0 else 1.0 - math.exp(-dt / tau)
    lag_w = lag_sigma = lag_delta = 0.0
    std_angle, std_w = cfg.noise_std_angle, cfg.noise_std_w
    rng = np.random.default_rng(cfg.seed) \
        if std_angle > 0 or std_w > 0 else None
    noise, j = [], 0

    data = {c: np.empty(n_steps) for c in STORED_COLUMNS}
    trace = Trace(data=data, steps=0, cfg=cfg)
    warm = None
    tank, v_in = cfg.tank, cfg.v_in
    i_ref = 0.0
    slew = cfg.i_ref_slew * dt
    for step in range(n_steps):
        v_bat = pack_voltage(charge, cfg)
        gain = tank.turns_ratio * v_bat / v_in
        di = pi_volt.step(cfg.v_cv - v_bat) - i_ref
        if di < -slew:
            di = -slew
        if di > slew:
            di = slew
        i_ref += di
        w_ref = i_ref / v_in
        try:
            sol = parallel_step(refs, w_ref, lag_sigma, lag_delta, lag_w,
                                pi_sigma, pi_delta, pi_w, gain, tank,
                                warm=warm)
            w_true, sigma_true, delta_true = plant_step(sol.params, cfg,
                                                        gain)
        except DbsrcError as exc:
            trace.steps = step
            raise ScenarioAbort(
                f"scenario aborted at step {step} (t={step * dt:.6f} s): "
                f"{exc}", trace, step) from exc
        warm = sol.warm

        w_m, sigma_m, delta_m = w_true, sigma_true, delta_true
        if rng is not None:
            if j == len(noise):
                noise, j = rng.standard_normal(3 * NOISE_BLOCK).tolist(), 0
            sigma_m += std_angle * noise[j]
            delta_m += std_angle * noise[j + 1]
            w_m += std_w * noise[j + 2]
            j += 3
        if alpha == 1.0:
            lag_w, lag_sigma, lag_delta = w_m, sigma_m, delta_m
        else:
            lag_w += alpha * (w_m - lag_w)
            lag_sigma += alpha * (sigma_m - lag_sigma)
            lag_delta += alpha * (delta_m - lag_delta)
        charge = battery_step(charge, w_true * v_in, cfg)

        row = (i_ref, v_bat, *sol.params, sigma_true, sol.s_add, w_true)
        for name, value in zip(STORED_COLUMNS, row):
            data[name][step] = value
    trace.steps = n_steps
    return trace


def assert_same_trace(got: Trace, want: Trace):
    assert got.steps == want.steps
    assert list(got.data) == list(want.data)
    for name in STORED_COLUMNS:
        # the bytes, so that -0.0 and NaN payloads count too
        assert got.data[name][:got.steps].tobytes() == \
            want.data[name][:want.steps].tobytes(), name


# a faster current ramp, so that a short run has both kinds of solve
SHORT = ScenarioConfig(duration=0.5, i_ref_slew=200.0)


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(duration=0.5),
    SHORT,
    # sensor noise on a 2 A charge across G = 1, low-power buck and boost
    ScenarioConfig(i_cc=2.0, i_ref_slew=1e6, initial_charge_ah=14.98,
                   time_scale=3000.0, duration=0.2, noise_std_angle=1e-3,
                   noise_std_w=1e-5, seed=2),
    # measurements passed through unlagged
    replace(SHORT, sensor_tau=0.0),
], ids=["default", "both-solves", "noisy", "tau0"])
def test_equals_the_layered_loop(cfg):
    trace = run_scenario(cfg)
    assert trace.steps == int(round(cfg.duration / cfg.dt))
    assert_same_trace(trace, layered_run_scenario(cfg))


def test_aborts_where_the_layered_loop_aborts():
    # half the tank inductance puts the plant below resonance once the
    # frequency drops past it
    cfg = ScenarioConfig(l_scale=0.5, duration=1.0)
    with pytest.raises(ScenarioAbort) as got:
        run_scenario(cfg)
    with pytest.raises(ScenarioAbort) as want:
        layered_run_scenario(cfg)
    assert got.value.step == want.value.step == 9352
    assert str(got.value) == str(want.value)
    assert type(got.value.__cause__) is type(want.value.__cause__)
    assert_same_trace(got.value.trace, want.value.trace)


def assert_same_failure(cfg):
    """run_scenario fails as the layered loop does: the same exception
    type and message, and for an abort the same step, partial trace and
    type of cause.  Returns run_scenario's exception."""
    with pytest.raises(Exception) as got:
        run_scenario(cfg)
    with pytest.raises(Exception) as want:
        layered_run_scenario(cfg)
    got, want = got.value, want.value
    assert type(got) is type(want)
    assert str(got) == str(want)
    if isinstance(want, ScenarioAbort):
        assert got.step == want.step
        assert type(got.__cause__) is type(want.__cause__)
        assert_same_trace(got.trace, want.trace)
    return got


def test_infinite_gain_fails_as_the_layered_loop_fails(monkeypatch):
    # ScenarioConfig rejects a config whose G can overflow ...
    with pytest.raises(ValueError, match="largest gain"):
        replace(SHORT, v_empty=1e308, v_full=1e308)
    # ... so the loops' shared G check is reached through a pack voltage
    # that makes G = n V_bat / V_in overflow to +inf at the first step
    def overflow(charge_ah, cfg):
        return 1e308
    monkeypatch.setattr(dbsrc.charger, "pack_voltage", overflow)
    monkeypatch.setitem(globals(), "pack_voltage", overflow)
    got = assert_same_failure(SHORT)
    assert type(got) is ValueError
    assert str(got) == "gain must be non-negative and finite"


def test_nan_power_request_fails_as_the_layered_loop_fails(monkeypatch):
    # a NaN plant W reaches the W PI through the lag, and W* is NaN at
    # the next step
    monkeypatch.setattr(k, "w_from_amplitude", lambda *args: math.nan)
    got = assert_same_failure(SHORT)
    assert type(got) is ValueError
    assert str(got) == "W* must be finite and non-negative, not nan"


def _status(status):
    return lambda out: out[:7] + (status,) + out[8:]


# G of SHORT's trace rises from 0.75 at step 0 (low-power solves until
# step 361) to 0.7551; G > 0.75 fails a warm low-power solve, G > 0.751
# an analytic one near step 1500
@pytest.mark.parametrize("threshold", [0.75, 0.751],
                         ids=["lowpower", "analytic"])
@pytest.mark.parametrize("spoil, error", [
    (_status(k.INFEASIBLE), InfeasibleReferenceError),
    (_status(k.UNREACHABLE), UnreachablePowerError),
    (lambda out: (math.nan,) + out[1:], ValueError),
    (lambda out: out[:3] + (0.0,) + out[4:], ValueError),
], ids=["infeasible", "unreachable", "d_nan", "omega_zero"])
def test_spoilt_solve_fails_as_the_layered_loop_fails(monkeypatch, spoil,
                                                      error, threshold):
    """A scan result that a check rejects, injected for every solve past
    a gain (the failing step's solve runs twice, the second time through
    the checked call), aborts or raises as the layered loop does."""
    scan = k.solve_controls_scan

    def spoilt(*args):
        out = scan(*args)
        return spoil(out) if args[3] > threshold else out

    monkeypatch.setattr(k, "solve_controls_scan", spoilt)
    got = assert_same_failure(SHORT)
    if error is ValueError:
        assert type(got) is ValueError
    else:
        assert type(got) is ScenarioAbort
        assert type(got.__cause__) is error
        assert got.step > 0


def _set(index, value):
    return lambda out: out[:index] + (value,) + out[index + 1:]


@pytest.mark.parametrize("index, bound, outward", [
    (0, _ANGLE_MAX, math.inf),
    (1, _ANGLE_MIN, -math.inf),
    (2, _BETA_MIN, -math.inf),
    (2, _ANGLE_MAX, math.inf),
], ids=["d_max", "s_min", "beta_min", "beta_max"])
def test_switching_ranges_bound_the_loop_as_they_bound_the_checks(
        monkeypatch, index, bound, outward):
    """d, s or beta put on a bound of SwitchingParams' ranges at every
    analytic solve passes as in the layered loop, and one float past it
    fails as there."""
    scan = k.solve_controls_scan
    for value in (bound, math.nextafter(bound, outward)):
        def spoilt(*args):
            out = scan(*args)
            return _set(index, value)(out) if args[3] > 0.751 else out

        monkeypatch.setattr(k, "solve_controls_scan", spoilt)
        if value == bound:
            assert_same_trace(run_scenario(SHORT),
                              layered_run_scenario(SHORT))
        else:
            got = assert_same_failure(SHORT)
            assert type(got) is ValueError
            assert "out of" in str(got)


def test_a_run_without_failures_makes_no_checked_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("a checked call on the success path")

    monkeypatch.setattr(dbsrc.charger, "_checked_solve", refuse)
    monkeypatch.setattr(dbsrc.charger, "_checked_impedance", refuse)
    trace = run_scenario(SHORT)
    assert trace.steps == int(round(SHORT.duration / SHORT.dt))
    assert 0.0 < np.mean(trace["s_add"] > 0) < 1.0   # both kinds of solve
