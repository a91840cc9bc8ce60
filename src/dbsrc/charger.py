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
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as k
from .control import PiController, parallel_step
from .errors import (BelowResonanceError, DbsrcError,
                     DegenerateTankCurrentError)
from .inversion import ControlReferences
from .model import SwitchingParams, TankConfig


def default_tank() -> TankConfig:
    """Tank of the study case: C = 47 nF, L = 80 uH (resonance near
    82 kHz), 165 kHz frequency ceiling, turns ratio chosen so G = 1 is
    crossed mid-charge (n = 600 V / 320 V)."""
    return TankConfig(inductance=80e-6, capacitance=47e-9,
                      turns_ratio=600.0 / 320.0,
                      omega_max=2 * math.pi * 165e3)


@dataclass(frozen=True)
class Uncertainties:
    """Plant-side model errors, invisible to the controller: a constant
    offset on the applied beta and a scale on the tank inductance."""
    beta_offset: float = -0.1
    l_scale: float = 1.05


def plant_step(p: SwitchingParams, u: Uncertainties, gain: float,
               tank: TankConfig) -> tuple[float, float, float]:
    """True converter outputs (W, sigma, delta) at gain G, before sensor
    lag.

    Evaluates the steady-state model with beta replaced by
    beta + beta_offset and L by L * l_scale.
    """
    d, s, beta, omega = p
    if omega is None:
        raise ValueError("SwitchingParams.omega must be set")
    ind = tank.inductance * u.l_scale
    z = k.tank_impedance(omega, ind, tank.capacitance)
    if z <= 0:
        raise BelowResonanceError(
            f"plant sees Z({omega}) <= 0 with scaled inductance")
    amp, sigma, delta, degenerate = k.forward_point(
        d, s, beta + u.beta_offset, gain)
    if degenerate:
        raise DegenerateTankCurrentError("plant tank current collapsed")
    return k.w_from_amplitude(amp, s, delta, z, tank.turns_ratio), \
        sigma, delta


class SensorLag:
    """Discrete first-order measurement filter with unit DC gain."""

    def __init__(self, tau: float, dt: float):
        if tau < 0 or dt <= 0:
            raise ValueError("need tau >= 0 and dt > 0")
        self.alpha = 1.0 if tau == 0 else 1.0 - math.exp(-dt / tau)
        self.state = 0.0

    def step(self, value: float) -> float:
        self.state += self.alpha * (value - self.state)
        return self.state


# angle corrections saturate at +-0.5 rad to keep the inversion inputs
# inside the reference domain
ANGLE_CORR_LIMIT = 0.5
# near G = cos(sigma*) the beta-offset uncertainty roughly halves the
# plant amplitude, so the W correction needs headroom of order W* itself
W_CORR_LIMIT = 0.25


@dataclass(frozen=True)
class ControllerGains:
    """Loop gains; defaults settle the study-case scenario well inside
    its duration."""
    sigma_kp: float = 0.5
    sigma_ki: float = 200.0
    delta_kp: float = 0.5
    delta_ki: float = 200.0
    w_kp: float = 6.0
    w_ki: float = 5000.0
    volt_kp: float = 25.0
    volt_ki: float = 40.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Charger scenario parameters; the defaults reproduce the study
    case (600 V input, CC 25 A then CV 400 V, 30 Ah pack from 240 V to
    400 V, 100 us control step, charge compressed by time_scale)."""
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

    def __post_init__(self):
        if self.v_in <= 0 or self.i_cc <= 0 or self.v_cv <= 0:
            raise ValueError("v_in, i_cc, v_cv must be positive")
        if self.dt <= 0 or self.duration <= 0 or self.time_scale <= 0:
            raise ValueError("dt, duration, time_scale must be positive")
        if self.capacity_ah <= 0:
            raise ValueError("capacity must be positive")
        if self.v_full < self.v_empty:
            raise ValueError("v_full must be >= v_empty")
        if self.i_ref_slew <= 0:
            raise ValueError("i_ref_slew must be positive")
        if self.sensor_tau < 0:
            raise ValueError("sensor_tau must be non-negative")


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
    are exact functions of them and of the run's config and plant beta
    offset, computed on access in the loop's own operation order, so
    they are bit-identical to the values the loop used.
    """
    data: dict[str, np.ndarray]
    steps: int
    cfg: ScenarioConfig
    beta_offset: float

    def __getitem__(self, name: str) -> np.ndarray:
        if name in self.data:
            return self.data[name][: self.steps]
        cfg = self.cfg
        if name == "t":
            return np.arange(self.steps) * cfg.dt
        if name == "G":
            return cfg.tank.turns_ratio * self["V_bat"] / cfg.v_in
        if name == "I_out":
            return self["W"] * cfg.v_in
        if name == "delta":
            return (self["beta"] + self.beta_offset) - self["sigma"]
        if name in ("sigma_ref", "delta_ref"):
            return np.full(self.steps, getattr(cfg, name))
        raise KeyError(name)

    def column_stack(self) -> np.ndarray:
        return np.column_stack([self[c] for c in TRACE_COLUMNS])


class ScenarioAbort(DbsrcError):
    """Mid-run controller or plant failure; carries the partial trace."""

    def __init__(self, message: str, trace: Trace, step: int):
        super().__init__(message)
        self.trace = trace
        self.step = step


def run_scenario(cfg: ScenarioConfig,
                 gains: ControllerGains | None = None,
                 uncertainties: Uncertainties | None = None) -> Trace:
    """Run the CC/CV charge and record the closed-loop trace.

    The scenario traverses low-power buck (during the current ramp),
    regular buck, boost past G = 1 and finally low-power boost as the CV
    stage tapers the current.  Each low-power solve is warm-started
    from the previous one (PowerSolution.warm, see solve_controls).

    Raises:
        ScenarioAbort: when the controller signals unreachable power or
            the plant model degenerates; the partial trace is attached.
    """
    if gains is None:
        gains = ControllerGains()
    if uncertainties is None:
        uncertainties = Uncertainties()

    dt = cfg.dt
    n_steps = int(round(cfg.duration / dt))
    refs = ControlReferences(sigma_ref=cfg.sigma_ref,
                             delta_ref=cfg.delta_ref, s_add=0.0)

    lim = ANGLE_CORR_LIMIT
    pi_sigma = PiController(gains.sigma_kp, gains.sigma_ki, dt, -lim, lim)
    pi_delta = PiController(gains.delta_kp, gains.delta_ki, dt, -lim, lim)
    pi_w = PiController(gains.w_kp, gains.w_ki, dt,
                        -W_CORR_LIMIT, W_CORR_LIMIT)
    pi_volt = PiController(gains.volt_kp, gains.volt_ki, dt, 0.0, cfg.i_cc)

    charge = cfg.initial_charge_ah
    lag_w = SensorLag(cfg.sensor_tau, dt)
    lag_sigma = SensorLag(cfg.sensor_tau, dt)
    lag_delta = SensorLag(cfg.sensor_tau, dt)

    noisy = cfg.noise_std_angle > 0 or cfg.noise_std_w > 0
    rng = np.random.default_rng(cfg.seed) if noisy else None

    data = {c: np.empty(n_steps) for c in STORED_COLUMNS}
    # one local reference per STORED_COLUMNS entry, in its order
    col_i_ref, col_v_bat, col_d, col_s, col_beta, col_omega, col_sigma, \
        col_s_add, col_w = data.values()
    trace = Trace(data=data, steps=0, cfg=cfg,
                  beta_offset=uncertainties.beta_offset)
    warm = None     # low-power solver state, kept while solves hand none on

    tank, v_in, v_cv = cfg.tank, cfg.v_in, cfg.v_cv
    i_ref = 0.0
    slew = cfg.i_ref_slew * dt
    for step in range(n_steps):
        v_bat = pack_voltage(charge, cfg)
        gain = tank.turns_ratio * v_bat / v_in

        # outer CC/CV stage: voltage PI saturated at the CC setpoint,
        # slew-limited on the way up (soft start)
        i_cmd = pi_volt.step(v_cv - v_bat)
        di = i_cmd - i_ref
        if di < -slew:
            di = -slew
        if di > slew:
            di = slew
        i_ref += di
        w_ref = i_ref / v_in

        try:
            params, s_add, _w, _low, warm_next = parallel_step(
                refs, w_ref, lag_sigma.state, lag_delta.state, lag_w.state,
                pi_sigma, pi_delta, pi_w, gain, tank, warm=warm)
            w_true, sigma_true, delta_true = plant_step(
                params, uncertainties, gain, tank)
        except DbsrcError as exc:
            trace.steps = step
            raise ScenarioAbort(
                f"scenario aborted at step {step} (t={step * dt:.6f} s): "
                f"{exc}", trace, step) from exc

        i_out = w_true * v_in

        w_m, sigma_m, delta_m = w_true, sigma_true, delta_true
        if rng is not None:
            sigma_m += cfg.noise_std_angle * rng.standard_normal()
            delta_m += cfg.noise_std_angle * rng.standard_normal()
            w_m += cfg.noise_std_w * rng.standard_normal()
        lag_w.step(w_m)
        lag_sigma.step(sigma_m)
        lag_delta.step(delta_m)

        charge = battery_step(charge, i_out, cfg)

        if warm_next is not None:
            warm = warm_next

        col_i_ref[step], col_v_bat[step] = i_ref, v_bat
        col_d[step], col_s[step], col_beta[step], col_omega[step] = params
        col_sigma[step], col_s_add[step], col_w[step] = \
            sigma_true, s_add, w_true
    trace.steps = n_steps
    return trace
