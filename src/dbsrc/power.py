"""Output power (transconductance) control.

The transconductance splits into an angle-dependent factor H and the
frequency-dependent tank reactance: W = n/(2 pi^2) * H / Z(omega), with
H = A(sigma*, delta*, s_add, G) * (cos(s + delta*) + cos delta*)
/ cos sigma*.  H and feasibility both come from the one inverse,
_kernels.regulated_point: a point is feasible only where the inverse
exists and the in-phase coefficient A is non-negative, and H reads 0
elsewhere.  Regular operation solves Z = n H / (2 pi^2 W*) for the
above-resonance frequency.  When that frequency would exceed omega_max,
a low-power mode pins omega = omega_max and dims the output by raising
the additive short-time s_add instead.  W does not decrease
monotonically in s_add from zero, so the controller takes the rightmost
crossing of its target, on the branch where H only falls towards pi;
the boundary s_add0 where that branch starts is only reported
(s_add_zero_boundary).
"""

import math
from typing import NamedTuple, Optional, Tuple

from . import _kernels as k
from .errors import (InfeasibleReferenceError, UnreachablePowerError,
                     ZeroPowerReferenceError)
from .inversion import ControlReferences, fully_driven_maps
from .model import SwitchingParams, TankConfig


class PowerSolution(NamedTuple):
    """Commutation parameters chosen by the power controller: an
    immutable NamedTuple record (params, s_add, achieved_w, low_power,
    warm), so it compares equal to and unpacks like a plain tuple.

    low_power is set when omega was pinned at omega_max and the output
    was dimmed via s_add (W* = 0 included); achieved_w then carries the
    scan result, otherwise it equals the request exactly.  achieved_w is
    the W at the reference angles, which the forward model at params
    confirms only at zero corrections (see solve_controls).  warm is
    what to pass as ``warm`` to the next solve_controls call:
    (s_add, s_peak) after a low-power solve of W* > 0, None otherwise.
    """
    params: SwitchingParams
    s_add: float
    achieved_w: float
    low_power: bool
    warm: Optional[Tuple[float, float]] = None


def gain_term_h(refs: ControlReferences, gain: float) -> float:
    """Angle-dependent transconductance factor H (module docstring)
    evaluated at the exact inverse-map point for the references.

    Raises:
        InfeasibleReferenceError: references not invertible at this gain.
    """
    if abs(math.cos(refs.sigma_ref)) <= 1e-9:
        raise ValueError("cos(sigma*) too small for the H split")
    if gain <= 0:
        raise ValueError("gain must be positive")
    _d, _s, _beta, h, feasible, _boost = k.regulated_point(
        refs.sigma_ref, refs.delta_ref, refs.s_add, gain, 0.0, 0.0)
    if not feasible:
        raise InfeasibleReferenceError(
            f"references not invertible at G={gain}")
    return h


def required_impedance(h: float, w_ref: float, turns_ratio: float) -> float:
    """Tank reactance needed for the requested transconductance:
    Z = n H / (2 pi^2 W*).

    Raises:
        ZeroPowerReferenceError: for W* = 0 (infinite impedance; the
            caller must take the low-power/shutdown path).
    """
    if w_ref == 0:
        raise ZeroPowerReferenceError(
            "W* = 0 needs infinite impedance; use the low-power path")
    return k.hz_split(h, w_ref, turns_ratio)


def frequency_from_impedance(z: float, tank: TankConfig) -> float:
    """Above-resonance frequency with tank reactance z:
    omega = (sqrt(C^2 Z^2 + 4 L C) + C Z) / (2 L C).

    Z = 0 gives the resonant frequency 1/sqrt(LC).
    """
    if z < 0:
        raise ValueError("Z must be non-negative (above-resonance operation)")
    return k.omega_from_impedance(z, tank.inductance, tank.capacitance)


def fully_driven_frequency(gain: float, g_star: float, w_ref: float,
                           tank: TankConfig) -> Tuple[float, float, float]:
    """Combined fully-driven feedforward law (d = pi throughout).

    (beta, s) from fully_driven_maps; then the H/Z split
    Z = n H / (2 pi^2 W*) with H = 8 (cos s + 1) sqrt(1 - G cos(beta + s))
    and the above-resonance frequency for that Z.  For G <= G* this
    reduces to W = 8 n / pi^2 * sqrt(1 - G^2) / Z.

    Returns (beta, s, omega).

    Raises:
        ZeroPowerReferenceError: for W* <= 0.
        ValueError: for G <= 0 or G* outside (0, 1].
    """
    if w_ref <= 0:
        raise ZeroPowerReferenceError("W* must be positive")
    beta, s = fully_driven_maps(gain, g_star)
    arg = max(1.0 - gain * math.cos(beta + s), 0.0)
    z = k.hz_split(8.0 * (math.cos(s) + 1.0) * math.sqrt(arg), w_ref,
                   tank.turns_ratio)
    return beta, s, frequency_from_impedance(z, tank)


def s_add_zero_boundary(refs: ControlReferences, gain: float) -> float:
    """Short-time boundary s_add0 with H(s_add0) = H(0).

    The rightmost crossing of H(0), found by the low-power solve's scan
    (a pi/512 walk down from pi, then bisection to 1e-10).  Past s_add0
    the factor H (hence W at fixed frequency) is non-increasing up to
    pi.  Returns 0.0 when H never rises above H(0), i.e. the
    dimming is already monotone from the start.  refs.s_add is ignored.

    Raises:
        InfeasibleReferenceError: references not invertible at s_add = 0.
    """
    if gain <= 0:
        raise ValueError("gain must be positive")
    s_add0, feasible = k.s_add_zero_scan(refs.sigma_ref, refs.delta_ref, gain)
    if not feasible:
        raise InfeasibleReferenceError(
            f"references not invertible at G={gain} with s_add = 0")
    return s_add0


def solve_controls(refs: ControlReferences, gain: float, w_ref: float,
                   tank: TankConfig,
                   corrections: Tuple[float, float] = (0.0, 0.0),
                   warm: Optional[Tuple[float, float]] = None
                   ) -> PowerSolution:
    """Full control solve: references plus power request to
    (d, s, beta, omega, s_add).

    Walks the combined inversion with the regulator corrections applied
    to q and beta, computes H, the required impedance and frequency; if
    the frequency exceeds omega_max, enters low-power mode: pins
    omega = omega_max and bisects H to the fixed-frequency target at its
    rightmost crossing, which lies on the monotone branch of the dimming
    curve (past s_add0, skipping the non-monotonic region in one
    discontinuous step).  W* = 0 maps to a fully shorted secondary
    (s = pi) rather than an error; it is a low-power result that hands
    no warm state on.

    warm, the ``warm`` field of the previous step's solution, starts the
    low-power search from the previous root: it tracks the last local
    maximum of max(H, 0), right of which max(H, 0) is non-increasing,
    brackets the crossing there and narrows the bracket by regula
    falsi, which finds the scan's s_add with 9 to 13 H evaluations
    instead of about 240.  When the crossing cannot be certified on
    that monotone branch the full scan runs instead.
    Without warm (the default) every low-power solve is the full scan.

    achieved_w is the W of H at the reference angles sigma*, delta*; the
    forward model at the returned params confirms it only at zero
    corrections, since nonzero ones move the angles and W with them.

    Raises:
        InfeasibleReferenceError: references not invertible at this gain.
        UnreachablePowerError: no s_add in [0, pi] meets the request at
            omega <= omega_max (e.g. collapsed tank current).
    """
    if w_ref < 0:
        raise ValueError("W* must be non-negative")
    sigma_reg, delta_reg = corrections
    s_prev, s_peak = (-1.0, -1.0) if warm is None else warm
    d, s, beta, omega, s_used, h, w_got, status, _fallback, _evals, \
        s_peak = k.solve_controls_scan(
            refs.sigma_ref, refs.delta_ref, refs.s_add, gain, w_ref,
            sigma_reg, delta_reg, tank.inductance, tank.capacitance,
            tank.turns_ratio, tank.omega_max, s_prev, s_peak)
    if status == k.INFEASIBLE:
        raise InfeasibleReferenceError(
            f"corrected references not invertible at G={gain}")
    if status == k.UNREACHABLE:
        raise UnreachablePowerError(
            f"W*={w_ref} unreachable at omega_max with references "
            f"(sigma*={refs.sigma_ref}, delta*={refs.delta_ref})")
    low_power = status == k.OK_LOWPOWER
    return PowerSolution(SwitchingParams(d, s, beta, omega), s_used, w_got,
                         low_power,
                         (s_used, s_peak) if low_power and w_ref > 0 else None)
