"""Quasi-steady-state battery-charger scenario.

Closed loop around the converter: a coulomb-counting battery model with
an Ah-to-voltage map sets the gain G; an outer CC/CV stage produces the
current reference (constant current until the pack reaches the CV
setpoint, then voltage regulation); the converter controller (parallel
compensation for sigma/delta, series compensation for W) turns it into
PWM parameters; the plant side evaluates the steady-state model with
injected uncertainties (beta offset, scaled tank inductance) and
first-order sensor lags close the loop.

The plant is algebraic; only the battery charge, the sensor filters and
the PI integrators carry state, so a fixed explicit step is exact enough
and the whole run is deterministic for a given config and seed.
"""

import math
import numbers
from dataclasses import dataclass, field
from math import inf

import numpy as np

from . import _kernels as k
from .control import PiController
# run_scenario does parallel_step's work on floats without calling it;
# the name stays a charger attribute because perfbench's tracer wraps
# dbsrc.charger.parallel_step and fails on a missing attribute
from .control import parallel_step  # noqa: F401
from .errors import DbsrcError, DegenerateTankCurrentError
from .inversion import ControlReferences
from .model import (SwitchingParams, TankConfig, _check_finite,
                    _checked_impedance, _params_in_range)
from .power import _checked_solve


def default_tank() -> TankConfig:
    """Tank of the study case: C = 47 nF, L = 80 uH (resonance near
    82 kHz), 165 kHz frequency ceiling, turns ratio chosen so G = 1 is
    crossed mid-charge (n = 600 V / 320 V)."""
    return TankConfig(inductance=80e-6, capacitance=47e-9,
                      turns_ratio=600.0 / 320.0,
                      omega_max=2 * math.pi * 165e3)


# angle corrections saturate at +-0.5 rad to keep the inversion inputs
# inside the reference domain
ANGLE_CORR_LIMIT = 0.5
# near G = cos(sigma*) the beta-offset uncertainty roughly halves the
# plant amplitude, so the W correction needs headroom of order W* itself
W_CORR_LIMIT = 0.25
# steps of sensor noise drawn per rng call: the draws of one block are
# the stream of as many scalar calls, and a small block keeps the list
# of floats small
NOISE_BLOCK = 256
# the message of the plant's collapse check, in plant_step and the loop
PLANT_COLLAPSED = "plant tank current collapsed"


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a charger run depends on; the defaults reproduce the
    study case (600 V input, CC 25 A then CV 400 V, 30 Ah pack from 240 V
    to 400 V, 100 us control step, charge compressed by time_scale)."""
    tank: TankConfig = field(default_factory=default_tank)
    v_in: float = 600.0
    i_cc: float = 25.0
    v_cv: float = 400.0
    dt: float = 1e-4
    duration: float = 50.0
    time_scale: float = 100.0
    sigma_ref: float = 0.1
    delta_ref: float = 0.0
    capacity_ah: float = 30.0
    v_empty: float = 240.0
    v_full: float = 400.0
    initial_charge_ah: float = 0.0
    sensor_tau: float = 5e-4
    i_ref_slew: float = 18.0   # A/s soft-start ramp of the current setpoint
    noise_std_angle: float = 0.0
    noise_std_w: float = 0.0
    seed: int = 0
    # plant-side model errors, invisible to the controller
    beta_offset: float = -0.1   # added to the applied beta
    l_scale: float = 1.05       # scales the tank inductance
    # PI gains; the defaults settle the study case well inside its duration
    sigma_kp: float = 0.5
    sigma_ki: float = 200.0
    delta_kp: float = 0.5
    delta_ki: float = 200.0
    w_kp: float = 6.0
    w_ki: float = 5000.0
    volt_kp: float = 25.0
    volt_ki: float = 40.0

    def __post_init__(self):
        # an infinite or NaN number would overflow the step count, give
        # no steps or fail mid-run without the partial trace; the tank
        # checks its own fields
        _check_finite(self, skip=("tank",))
        if not (self.v_in > 0 and self.i_cc > 0 and self.v_cv > 0):
            raise ValueError("v_in, i_cc, v_cv must be positive")
        if not (self.dt > 0 and self.duration > 0 and self.time_scale > 0):
            raise ValueError("dt, duration, time_scale must be positive")
        if not self.capacity_ah > 0:
            raise ValueError("capacity must be positive")
        # v_empty >= 0 keeps G = n V_bat / V_in >= 0 throughout the run
        if not self.v_full >= self.v_empty >= 0:
            raise ValueError("need 0 <= v_empty <= v_full")
        if not self.i_ref_slew > 0:
            raise ValueError("i_ref_slew must be positive")
        if not self.sensor_tau >= 0:
            raise ValueError("sensor_tau must be non-negative")
        if not (self.noise_std_angle >= 0 and self.noise_std_w >= 0
                and self.seed >= 0):
            raise ValueError(
                "noise_std_angle, noise_std_w, seed must be non-negative")
        # numbers.Integral, so that numpy integers pass too
        if not isinstance(self.seed, numbers.Integral):
            raise ValueError("seed must be an integer")
        if not self.l_scale > 0:
            raise ValueError("l_scale must be positive")
        # each loop's error is ref - meas on a channel that rises with
        # its actuator, so a negative gain is positive feedback
        if min(self.sigma_kp, self.sigma_ki, self.delta_kp, self.delta_ki,
               self.w_kp, self.w_ki, self.volt_kp, self.volt_ki) < 0:
            raise ValueError("the PI gains must be non-negative")
        # sigma* and delta* are checked by the record that defines them
        ControlReferences(self.sigma_ref, self.delta_ref)


def plant_step(p: SwitchingParams, cfg: ScenarioConfig,
               gain: float) -> tuple[float, float, float]:
    """True converter outputs (W, sigma, delta) at gain G, before sensor
    lag.

    The steady-state model of cfg.tank, its checks included, with beta
    replaced by beta + cfg.beta_offset and L by L * cfg.l_scale.
    """
    d, s, beta, omega = p
    tank = cfg.tank
    z = _checked_impedance(omega, gain, tank.inductance * cfg.l_scale,
                           tank.capacitance)
    amp, sigma, delta, degenerate = k.forward_point(
        d, s, beta + cfg.beta_offset, gain)
    if degenerate:
        raise DegenerateTankCurrentError(PLANT_COLLAPSED)
    return k.w_from_amplitude(amp, s, delta, z, tank.turns_ratio), \
        sigma, delta


def pack_voltage(charge_ah: float, cfg: ScenarioConfig) -> float:
    """Pack voltage of the linear Ah-to-voltage map from v_empty to
    v_full over capacity_ah."""
    frac = charge_ah / cfg.capacity_ah
    if frac < 0.0:
        frac = 0.0
    if frac > 1.0:
        frac = 1.0
    return cfg.v_empty + (cfg.v_full - cfg.v_empty) * frac


def battery_step(charge_ah: float, i_out: float,
                 cfg: ScenarioConfig) -> float:
    """Coulomb counting: the pack charge after one control step dt of
    output current i_out.

    time_scale compresses physical charging time into scenario time
    (one scenario second integrates time_scale physical seconds); the
    charge is clamped to [0, capacity_ah].
    """
    charge = charge_ah + i_out * cfg.dt * cfg.time_scale / 3600.0
    if charge < 0.0:
        charge = 0.0
    if charge > cfg.capacity_ah:
        charge = cfg.capacity_ah
    return charge


TRACE_COLUMNS = ("t", "G", "I_ref", "I_out", "V_bat", "d", "s", "beta",
                 "omega", "sigma", "delta", "sigma_ref", "delta_ref",
                 "s_add", "W")
# the columns run_scenario writes; Trace derives the other six
STORED_COLUMNS = ("I_ref", "V_bat", "d", "s", "beta", "omega", "sigma",
                  "s_add", "W")


@dataclass
class Trace:
    """Recorded scenario signals, one entry per control step.

    data holds the STORED_COLUMNS.  The other columns of TRACE_COLUMNS
    are exact functions of them and of the run's config, computed on
    access in the loop's own operation order, so they are bit-identical
    to the values the loop used.
    """
    data: dict[str, np.ndarray]
    steps: int
    cfg: ScenarioConfig

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name, slice(None))

    def column(self, name: str, rows: slice) -> np.ndarray:
        """Column name at the steps range(self.steps)[rows]; each
        derived column is defined here alone, for any such row range."""
        if name in self.data:
            return self.data[name][: self.steps][rows]
        cfg = self.cfg
        if name == "t":
            return np.arange(*rows.indices(self.steps)) * cfg.dt
        if name == "G":
            return cfg.tank.turns_ratio * self.column("V_bat", rows) / cfg.v_in
        if name == "I_out":
            return self.column("W", rows) * cfg.v_in
        if name == "delta":
            return (self.column("beta", rows) + cfg.beta_offset) \
                - self.column("sigma", rows)
        if name in ("sigma_ref", "delta_ref"):
            return np.full(len(range(self.steps)[rows]), getattr(cfg, name))
        raise KeyError(name)

    def column_stack(self, rows: slice = slice(None)) -> np.ndarray:
        """The TRACE_COLUMNS at the steps range(self.steps)[rows], one
        row per step: column_stack()[rows] without the whole table."""
        return np.column_stack([self.column(c, rows) for c in TRACE_COLUMNS])


class ScenarioAbort(DbsrcError):
    """Mid-run controller or plant failure; carries the partial trace."""

    def __init__(self, message: str, trace: Trace, step: int):
        super().__init__(message)
        self.trace = trace
        self.step = step


def run_scenario(cfg: ScenarioConfig) -> Trace:
    """Run the CC/CV charge and record the closed-loop trace.

    The scenario traverses low-power buck (during the current ramp),
    regular buck, boost past G = 1 and finally low-power boost as the CV
    stage tapers the current.

    Each step does the work of parallel_step, plant_step and
    battery_step on plain floats, without a record per step: the
    four PiController steps, one _kernels.solve_controls_scan, whose
    warm state goes to the next step's solve (see solve_controls), and
    the plant's tank_impedance, forward_point and w_from_amplitude.
    The checks of solve_controls and plant_step are plain comparisons
    on that path, each passing only where its checked function would;
    the ranges of d, s, beta and omega are model._params_in_range, the
    test that SwitchingParams enforces.  When one fails, the step calls power._checked_solve (on the step's
    inputs and the warm state it received) or model._checked_impedance,
    so every error comes from its one definition.
    tests/test_scenario_oracle.py checks the loop against those calls,
    bit for bit, failures included.  The kernels, the PI steps,
    pack_voltage and battery_step are looked up when the run starts.

    Raises:
        ScenarioAbort: when the controller signals unreachable power or
            the plant model degenerates; the partial trace is attached.
    """
    dt = cfg.dt
    n_steps = int(round(cfg.duration / dt))

    lim = ANGLE_CORR_LIMIT
    pi_sigma = PiController(cfg.sigma_kp, cfg.sigma_ki, dt, -lim, lim)
    pi_delta = PiController(cfg.delta_kp, cfg.delta_ki, dt, -lim, lim)
    pi_w = PiController(cfg.w_kp, cfg.w_ki, dt, -W_CORR_LIMIT, W_CORR_LIMIT)
    pi_volt = PiController(cfg.volt_kp, cfg.volt_ki, dt, 0.0, cfg.i_cc)

    charge = cfg.initial_charge_ah
    # first-order sensor lags with unit DC gain, exact for a measurement
    # held over dt; alpha = 1 (tau = 0, or a tau so small that alpha
    # rounds to 1) passes the measurements through unrounded
    tau = cfg.sensor_tau
    alpha = 1.0 if tau == 0 else 1.0 - math.exp(-dt / tau)
    lag_w = lag_sigma = lag_delta = 0.0

    std_angle, std_w = cfg.noise_std_angle, cfg.noise_std_w
    noisy = std_angle > 0 or std_w > 0
    rng = np.random.default_rng(cfg.seed) if noisy else None
    noise, j = [], 0    # the current block of draws, the index of the next

    data = {c: np.empty(n_steps) for c in STORED_COLUMNS}
    # one memoryview per STORED_COLUMNS entry, in its order: a float
    # stored through a memoryview of a float64 array is the same double,
    # in about half the time of an ndarray item store
    col_i_ref, col_v_bat, col_d, col_s, col_beta, col_omega, col_sigma, \
        col_s_add, col_w = map(memoryview, data.values())
    trace = Trace(data=data, steps=0, cfg=cfg)
    warm = None     # low-power solver state: what the last solve returned

    # the references at s_add = 0, checked by ScenarioConfig
    sigma_ref, delta_ref = cfg.sigma_ref, cfg.delta_ref
    tank, v_in, v_cv = cfg.tank, cfg.v_in, cfg.v_cv
    ind, cap, ratio, omega_max = (tank.inductance, tank.capacitance,
                                  tank.turns_ratio, tank.omega_max)
    ind_plant, beta_offset = ind * cfg.l_scale, cfg.beta_offset
    # bound once; perfbench's tracer and the tests patch these names
    # before a run starts, so they still see every call
    scan, impedance = k.solve_controls_scan, k.tank_impedance
    forward_point, w_from_amplitude = k.forward_point, k.w_from_amplitude
    volt_step, sigma_step, delta_step, w_step = (
        pi_volt.step, pi_sigma.step, pi_delta.step, pi_w.step)
    pack, coulomb = pack_voltage, battery_step
    lowpower, in_range = k.OK_LOWPOWER, _params_in_range
    i_ref = 0.0
    slew = cfg.i_ref_slew * dt
    for step in range(n_steps):
        v_bat = pack(charge, cfg)
        gain = ratio * v_bat / v_in

        # outer CC/CV stage: voltage PI saturated at the CC setpoint,
        # slew-limited on the way up (soft start)
        i_cmd = volt_step(v_cv - v_bat)
        di = i_cmd - i_ref
        if di < -slew:
            di = -slew
        if di > slew:
            di = slew
        i_ref += di
        w_ref = i_ref / v_in

        try:
            # parallel_step: the angle PIs' actions go onto q and beta,
            # the W PI trims the power request
            sigma_reg = sigma_step(sigma_ref - lag_sigma)
            delta_reg = delta_step(delta_ref - lag_delta)
            w_eff = w_ref + w_step(w_ref - lag_w)
            if w_eff < 0.0:
                w_eff = 0.0
            # _checked_solve's checks as comparisons, each passing only
            # where the check would; when one fails, _checked_solve runs
            # on the same inputs and warm state and raises its error
            solved = False
            if 0.0 <= w_eff < inf and 0.0 <= gain < inf:
                d, s, beta, omega, s_add, _h, _w, status, _fb, _n, \
                    warm_out = scan(sigma_ref, delta_ref, 0.0, gain, w_eff,
                                    sigma_reg, delta_reg, ind, cap, ratio,
                                    omega_max, warm)
                solved = (status <= lowpower
                          and in_range(d, s, beta, omega))
            if solved:
                warm = warm_out
            else:
                (d, s, beta, omega), s_add, _low, warm = _checked_solve(
                    sigma_ref, delta_ref, 0.0, gain, w_eff, sigma_reg,
                    delta_reg, ind, cap, ratio, omega_max, warm)
            # plant_step: the model at beta + beta_offset and L * l_scale,
            # through _checked_impedance only when Z is not positive
            z = impedance(omega, ind_plant, cap)
            if not z > 0:
                z = _checked_impedance(omega, gain, ind_plant, cap)
            amp, sigma_true, delta_true, degenerate = forward_point(
                d, s, beta + beta_offset, gain)
            if degenerate:
                raise DegenerateTankCurrentError(PLANT_COLLAPSED)
        except DbsrcError as exc:
            trace.steps = step
            raise ScenarioAbort(
                f"scenario aborted at step {step} (t={step * dt:.6f} s): "
                f"{exc}", trace, step) from exc
        w_true = w_from_amplitude(amp, s, delta_true, z, ratio)

        i_out = w_true * v_in

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

        charge = coulomb(charge, i_out, cfg)

        col_i_ref[step], col_v_bat[step] = i_ref, v_bat
        col_d[step], col_s[step], col_beta[step], col_omega[step] = \
            d, s, beta, omega
        col_sigma[step], col_s_add[step], col_w[step] = \
            sigma_true, s_add, w_true
    trace.steps = n_steps
    return trace
