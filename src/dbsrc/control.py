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
from dataclasses import dataclass

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

    def __init__(self, kp: float, ki: float, dt: float,
                 output_min: float = -math.inf,
                 output_max: float = math.inf):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.kp = kp
        self.ki = ki
        self.dt = dt
        self.output_min = output_min
        self.output_max = output_max
        self.integrator = 0.0

    def step(self, error: float) -> float:
        incr = self.ki * error * self.dt
        candidate = self.integrator + incr
        u_raw = self.kp * error + candidate
        if (u_raw > self.output_max and incr > 0) or \
           (u_raw < self.output_min and incr < 0):
            candidate = self.integrator  # anti-windup: freeze
        self.integrator = candidate
        u = self.kp * error + self.integrator
        return min(max(u, self.output_min), self.output_max)


@dataclass
class ControllerIo:
    """Inputs of one controller step: references plus the (filtered)
    measurements of the alignment angles and the transconductance."""
    refs: ControlReferences
    w_ref: float = 0.0
    sigma_meas: float = 0.0
    delta_meas: float = 0.0
    w_meas: float = 0.0


def _clamp_ref(x: float) -> float:
    return min(max(x, -REF_LIMIT), REF_LIMIT)


def series_step(io: ControllerIo, pi_sigma: PiController,
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
    refs = io.refs
    corr_sigma = pi_sigma.step(refs.sigma_ref - io.sigma_meas)
    corr_delta = pi_delta.step(refs.delta_ref - io.delta_meas)
    effective = ControlReferences(
        sigma_ref=_clamp_ref(refs.sigma_ref + corr_sigma),
        delta_ref=_clamp_ref(refs.delta_ref + corr_delta),
        s_add=refs.s_add,
    )
    return invert_alignment(effective, gain).params


def parallel_step(io: ControllerIo, pi_sigma: PiController,
                  pi_delta: PiController, gain: float, tank: TankConfig,
                  pi_w: PiController | None = None,
                  warm: tuple[float, float] | None = None) -> PowerSolution:
    """Parallel nonlinear compensation step.

    The PI actions are added to the outputs of the combined inversion
    inside solve_controls (sigma action onto q, delta action onto beta,
    in that order), while the frequency and s_add come from the series
    power solve.  An optional series PI on W trims the power request
    from the W measurement.  warm is passed on to solve_controls: the
    previous step's ``PowerSolution.warm``.

    Raises:
        InfeasibleReferenceError, UnreachablePowerError: propagated from
            solve_controls.
    """
    sigma_reg = pi_sigma.step(io.refs.sigma_ref - io.sigma_meas)
    delta_reg = pi_delta.step(io.refs.delta_ref - io.delta_meas)
    w_eff = io.w_ref
    if pi_w is not None:
        w_eff = max(io.w_ref + pi_w.step(io.w_ref - io.w_meas), 0.0)
    return solve_controls(io.refs, gain, w_eff, tank,
                          corrections=(sigma_reg, delta_reg), warm=warm)
