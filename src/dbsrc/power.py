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
from math import inf
from typing import NamedTuple, Optional, Tuple

from . import _kernels as k
from .errors import (InfeasibleReferenceError, UnreachablePowerError,
                     ZeroPowerReferenceError)
from .inversion import ControlReferences, fully_driven_maps
from .model import (SwitchingParams, TankConfig, _checked_params,
                    _tuple_new)


class PowerSolution(NamedTuple):
    """Commutation parameters chosen by the power controller: an
    immutable NamedTuple record (params, s_add, low_power, warm), so it
    compares equal to and unpacks like a plain tuple.

    low_power is set when omega was pinned at omega_max and the output
    was dimmed via s_add (W* = 0 included).  The W this point delivers
    is the forward model's, transconductance(sol.params, gain, tank).
    warm is the low-power solver's state: pass sol.warm to the next
    solve.
    """
    params: SwitchingParams
    s_add: float
    low_power: bool
    warm: Optional[tuple] = None


def gain_term_h(refs: ControlReferences, gain: float) -> float:
    """Angle-dependent transconductance factor H (module docstring)
    evaluated at the exact inverse-map point for the references.

    Raises:
        InfeasibleReferenceError: references not invertible at this gain.
    """
    if abs(math.cos(refs.sigma_ref)) <= 1e-9:
        raise ValueError("cos(sigma*) too small for the H split")
    if not 0.0 < gain < inf:
        raise ValueError("gain must be positive and finite")
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
        ValueError: for W* negative, infinite or NaN.
        ZeroPowerReferenceError: for W* = 0 (infinite impedance; the
            caller must take the low-power/shutdown path).
    """
    if not 0.0 <= w_ref < inf:
        raise ValueError(f"W* must be finite and non-negative, not {w_ref}")
    if w_ref == 0:
        raise ZeroPowerReferenceError(
            "W* = 0 needs infinite impedance; use the low-power path")
    return k.hz_split(h, w_ref, turns_ratio)


def frequency_from_impedance(z: float, tank: TankConfig) -> float:
    """Above-resonance frequency with tank reactance z:
    omega = (sqrt(C^2 Z^2 + 4 L C) + C Z) / (2 L C).

    Z = 0 gives the resonant frequency 1/sqrt(LC).
    """
    if not z >= 0:
        raise ValueError("Z must be non-negative (above-resonance operation)")
    return k.omega_from_impedance(z, tank.inductance, tank.capacitance)


def fully_driven_frequency(gain: float, g_star: float, w_ref: float,
                           tank: TankConfig) -> Tuple[float, float, float]:
    """Combined fully-driven feedforward law (d = pi throughout).

    (beta, s) from fully_driven_maps; then Z is the forward model's W at
    (pi, s, beta) and unit reactance over W*, since W is proportional to
    1/Z, and omega is the above-resonance frequency for that Z.  That Z
    is n H / (2 pi^2 W*) with H = 8 (cos s + 1) sqrt(1 - G cos(beta + s)),
    and for G <= G* W = 8 n / pi^2 * sqrt(1 - G^2) / Z.

    Returns (beta, s, omega).

    Raises:
        ValueError: for W* negative, infinite or NaN, G not positive
            and finite, or G* outside (0, 1].
        ZeroPowerReferenceError: for W* = 0.
    """
    if not 0.0 <= w_ref < inf:
        raise ValueError(f"W* must be finite and non-negative, not {w_ref}")
    if w_ref == 0:
        raise ZeroPowerReferenceError("W* must be positive")
    beta, s = fully_driven_maps(gain, g_star)
    amp, _sigma, delta, _degenerate = k.forward_point(math.pi, s, beta, gain)
    z = k.w_from_amplitude(amp, s, delta, 1.0, tank.turns_ratio) / w_ref
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
    if not 0.0 < gain < inf:
        raise ValueError("gain must be positive and finite")
    s_add0, feasible = k.s_add_zero_scan(refs.sigma_ref, refs.delta_ref, gain)
    if not feasible:
        raise InfeasibleReferenceError(
            f"references not invertible at G={gain} with s_add = 0")
    return s_add0


def solve_controls(refs: ControlReferences, gain: float, w_ref: float,
                   tank: TankConfig,
                   corrections: Tuple[float, float] = (0.0, 0.0),
                   warm: Optional[tuple] = None) -> PowerSolution:
    """Full control solve: references plus power request to
    (d, s, beta, omega, s_add).

    Walks the combined inversion with the regulator corrections applied
    to q and beta, computes H, the required impedance and frequency; if
    the frequency exceeds omega_max, enters low-power mode: pins
    omega = omega_max and bisects H to the fixed-frequency target at its
    rightmost crossing, which lies on the monotone branch of the dimming
    curve (past s_add0, skipping the non-monotonic region in one
    discontinuous step).  W* = 0 is not an error: the inverse runs at
    s_add = pi and omega_max.  That gives s = pi, a shorted secondary,
    while q <= pi; a sigma correction that pushes q past pi splits it as
    (boost d, s = q - pi), a point that still transfers power.

    warm starts the low-power search from an earlier solve: pass sol.warm
    to the next solve.  It then finds the scan's s_add with 7.6 to 10.4
    H evaluations on average instead of about 240 (see _kernels).
    Without warm (the default) every low-power solve is the full scan.

    Raises:
        ValueError: for W* or G negative, infinite or NaN.
        InfeasibleReferenceError: references not invertible at this gain.
        UnreachablePowerError: no s_add in [0, pi] meets the request at
            omega <= omega_max (e.g. collapsed tank current).
    """
    if not 0.0 <= w_ref < inf:
        raise ValueError(f"W* must be finite and non-negative, not {w_ref}")
    if not 0.0 <= gain < inf:
        raise ValueError("gain must be non-negative and finite")
    sigma_reg, delta_reg = corrections
    d, s, beta, omega, s_used, _h, _w, status, _fallback, _evals, \
        warm = k.solve_controls_scan(
            refs.sigma_ref, refs.delta_ref, refs.s_add, gain, w_ref,
            sigma_reg, delta_reg, tank.inductance, tank.capacitance,
            tank.turns_ratio, tank.omega_max, warm)
    if status == k.INFEASIBLE:
        raise InfeasibleReferenceError(
            f"corrected references not invertible at G={gain}")
    if status == k.UNREACHABLE:
        raise UnreachablePowerError(
            f"W*={w_ref} unreachable at omega_max with references "
            f"(sigma*={refs.sigma_ref}, delta*={refs.delta_ref})")
    # no class calls, once per control step; the range checks still run
    return _tuple_new(PowerSolution, (
        _checked_params(SwitchingParams, d, s, beta, omega), s_used,
        status == k.OK_LOWPOWER, warm))
