"""Discrete-time feedback layer around the inversion maps.

Two compositions are provided.  Series compensation trims the reference
inputs of the inverse map: PI controllers for sigma and delta adjust the
effective references, so under ideal model matching their outputs stay
at zero.  Parallel compensation adds the PI actions to the outputs of
the combined map instead (sigma action onto the duty variable q, delta
action onto beta), with the power channel handled by the series solve of
the frequency (and s_add) inside solve_controls.
"""

import math

from .inversion import ControlReferences, invert_alignment
from .model import SwitchingParams, TankConfig
from .power import PowerSolution, solve_controls

# keeps corrected references inside the inversion domain [-pi/2, pi/2]
REF_LIMIT = math.pi / 2 - 1e-9


class PiController:
    """PI regulator with output saturation and integrator freeze.

    u = clamp(kp * e + integrator) where the integrator accumulates
    ki * e * dt but is frozen whenever the unclamped output is saturated
    and the increment would drive it further into saturation.
    """
    __slots__ = ("kp", "ki", "dt", "output_min", "output_max", "integrator")

    def __init__(self, kp: float, ki: float, dt: float,
                 output_min: float = -math.inf,
                 output_max: float = math.inf):
        if not dt > 0:
            raise ValueError("dt must be positive")
        self.kp = kp
        self.ki = ki
        self.dt = dt
        self.output_min = output_min
        self.output_max = output_max
        self.integrator = 0.0

    def step(self, error: float) -> float:
        lo, hi = self.output_min, self.output_max
        prop = self.kp * error
        incr = self.ki * error * self.dt
        candidate = self.integrator + incr
        u = prop + candidate
        if (u > hi and incr > 0) or (u < lo and incr < 0):
            candidate = self.integrator  # anti-windup: freeze
            u = prop + candidate
        self.integrator = candidate
        # min(max(u, lo), hi) as two tests in that order, so NaN, -0.0 and
        # lo > hi come out the same; the other step-path clamps copy it
        if u < lo:
            u = lo
        if u > hi:
            u = hi
        return u


def _clamp_ref(x: float) -> float:
    return min(max(x, -REF_LIMIT), REF_LIMIT)


def series_step(refs: ControlReferences, sigma_meas: float,
                delta_meas: float, pi_sigma: PiController,
                pi_delta: PiController, gain: float) -> SwitchingParams:
    """Series nonlinear compensation step.

    The PI outputs shift the effective references fed to the inverse
    map: sigma*_eff = sigma* + PI(sigma* - sigma_meas) and likewise for
    delta, with direct feedforward of the setpoints.  Corrected
    references are clamped to the inversion domain before the solve.

    Raises:
        InfeasibleReferenceError: if the clamped effective references
            are still not invertible at this gain.
    """
    corr_sigma = pi_sigma.step(refs.sigma_ref - sigma_meas)
    corr_delta = pi_delta.step(refs.delta_ref - delta_meas)
    effective = ControlReferences(
        sigma_ref=_clamp_ref(refs.sigma_ref + corr_sigma),
        delta_ref=_clamp_ref(refs.delta_ref + corr_delta),
        s_add=refs.s_add,
    )
    return invert_alignment(effective, gain).params


def parallel_step(refs: ControlReferences, w_ref: float, sigma_meas: float,
                  delta_meas: float, w_meas: float, pi_sigma: PiController,
                  pi_delta: PiController, pi_w: PiController, gain: float,
                  tank: TankConfig,
                  warm: tuple | None = None) -> PowerSolution:
    """Parallel nonlinear compensation step.

    The PI actions are added to the outputs of the combined inversion
    inside solve_controls (sigma action onto q, delta action onto beta,
    in that order), while the frequency and s_add come from the series
    power solve.  A series PI on W trims the power request from the W
    measurement (PiController(0.0, 0.0, dt) leaves W* >= 0 as it is).
    warm is passed on to solve_controls: pass sol.warm to the next step.

    Raises:
        InfeasibleReferenceError, UnreachablePowerError: propagated from
            solve_controls.
    """
    sigma_reg = pi_sigma.step(refs.sigma_ref - sigma_meas)
    delta_reg = pi_delta.step(refs.delta_ref - delta_meas)
    w_eff = w_ref + pi_w.step(w_ref - w_meas)
    if w_eff < 0.0:
        w_eff = 0.0
    return solve_controls(refs, gain, w_eff, tank, (sigma_reg, delta_reg),
                          warm)
