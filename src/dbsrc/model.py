"""Steady-state first-harmonic model of the dual-bridge series resonant
converter.

The forward plant map: given PWM commutation parameters (d, s, beta,
omega), voltage gain G and the tank (L, C, n), compute the
waveform-alignment angles sigma = atan2(B, A) and delta = beta - sigma
from the harmonic coefficients A, B (_kernels.forward_point), the tank
current amplitude and the output transconductance W = I_out / V_in.

All operations are pure functions of their arguments.  Angles are plain
radians; no wrapping is performed, callers supply beta in [-pi, pi].
"""

import math
from dataclasses import dataclass
from math import inf
from typing import NamedTuple, Optional, Tuple

from . import _kernels as k
from .errors import BelowResonanceError, DegenerateTankCurrentError


@dataclass(frozen=True)
class TankConfig:
    """Physical plant parameters of the resonant stage.

    Attributes:
        inductance: series (leakage) inductance L in henry.
        capacitance: resonant capacitance C in farad.
        turns_ratio: transformer turns ratio n.
        omega_max: maximum angular switching frequency in rad/s; must lie
            above the resonance 1/sqrt(LC) so that Z(omega_max) > 0.
    """
    inductance: float
    capacitance: float
    turns_ratio: float
    omega_max: float

    def __post_init__(self):
        if not (self.inductance > 0 and self.capacitance > 0):
            raise ValueError("L and C must be positive")
        if not self.turns_ratio > 0:
            raise ValueError("turns ratio must be positive")
        if not self.omega_max > self.omega_resonant:
            raise ValueError("omega_max must exceed the resonant frequency")

    @property
    def omega_resonant(self) -> float:
        """Resonant angular frequency 1/sqrt(LC)."""
        return 1.0 / math.sqrt(self.inductance * self.capacitance)


class _SwitchingFields(NamedTuple):
    d: float
    s: float
    beta: float
    omega: Optional[float] = None


_ANGLE_MIN = -k.RANGE_TOL
_ANGLE_MAX = math.pi + k.RANGE_TOL
_BETA_MIN = -math.pi - k.RANGE_TOL
# bound once, so that building a record per control step skips the
# attribute lookup on tuple
_tuple_new = tuple.__new__


def _checked_params(cls, d: float, s: float, beta: float,
                    omega: Optional[float] = None):
    """The range checks of SwitchingParams, then the record of class cls
    built by tuple.__new__.  This is SwitchingParams.__new__ itself;
    solve_controls calls it directly, without the cost of a class call,
    since it runs once per control step."""
    if not _ANGLE_MIN <= d <= _ANGLE_MAX:
        raise ValueError(f"d out of [0, pi]: {d}")
    if not _ANGLE_MIN <= s <= _ANGLE_MAX:
        raise ValueError(f"s out of [0, pi]: {s}")
    if not _BETA_MIN <= beta <= _ANGLE_MAX:
        raise ValueError(f"beta out of [-pi, pi]: {beta}")
    if omega is not None and not omega > 0:
        raise ValueError("omega must be positive")
    return _tuple_new(cls, (d, s, beta, omega))


class SwitchingParams(_SwitchingFields):
    """PWM commutation tuple driving both bridges: an immutable
    NamedTuple record (d, s, beta, omega), so it compares equal to and
    unpacks like a plain tuple.

    d is the input-bridge on-time, s the output-bridge short-time (both
    radians in [0, pi]), beta the inter-bridge phase shift in [-pi, pi]
    and omega the angular switching frequency (rad/s).  omega may be
    None for results of the inversion maps, which determine d, s, beta
    only.  The ranges are checked on construction by _checked_params
    (``_make`` and ``_replace`` skip the checks).
    """
    __slots__ = ()
    __new__ = _checked_params


def alignment_angles(p: SwitchingParams, gain: float) -> Tuple[float, float]:
    """Waveform-alignment pair (sigma, delta) at gain G.

    sigma = atan2(B, A) is the angle from the input-bridge positive
    rising edge to the tank current zero crossing, delta = beta - sigma
    the angle from the zero crossing to the output-bridge positive
    rising edge.

    Raises:
        DegenerateTankCurrentError: at the collapse point A = B = 0,
            where the zero-crossing angle is physically undefined.
        ValueError: for G < 0, infinite or NaN.
    """
    if not 0.0 <= gain < inf:
        raise ValueError("gain must be non-negative and finite")
    _amp, sigma, delta, degenerate = k.forward_point(p.d, p.s, p.beta, gain)
    if degenerate:
        raise DegenerateTankCurrentError(
            "tank current amplitude collapsed; sigma undefined")
    return sigma, delta


def tank_impedance(omega: float, tank: TankConfig) -> float:
    """Series tank reactance Z(omega) = omega L - 1/(omega C)."""
    if not omega > 0:
        raise ValueError("omega must be positive")
    return k.tank_impedance(omega, tank.inductance, tank.capacitance)


def _checked_impedance(omega: Optional[float], gain: float, ind: float,
                       cap: float) -> float:
    """Z(omega) for inductance ind and capacitance cap, after a forward
    map's checks: ValueError for an unset omega, omega <= 0 or NaN, or
    G < 0, inf or NaN; BelowResonanceError for Z(omega) <= 0."""
    if omega is None:
        raise ValueError("SwitchingParams.omega must be set")
    if not omega > 0:
        raise ValueError("omega must be positive")
    if not 0.0 <= gain < inf:
        raise ValueError("gain must be non-negative and finite")
    z = k.tank_impedance(omega, ind, cap)
    if z <= 0:
        raise BelowResonanceError(
            f"Z({omega}) <= 0: operation below resonance is rejected")
    return z


def transconductance(p: SwitchingParams, gain: float, tank: TankConfig) -> float:
    """Output transconductance W = I_out / V_in.

    W = n/(2 pi^2) * sqrt(A^2+B^2)/Z(omega) * (cos(s+delta) + cos delta).
    Returns exactly 0 at the collapse point, where the amplitude is 0.

    Raises:
        BelowResonanceError: if Z(omega) <= 0.
        ValueError: for an unset omega, or G < 0, infinite or NaN.
    """
    z = _checked_impedance(p.omega, gain, tank.inductance, tank.capacitance)
    amp, _sigma, delta, _degenerate = k.forward_point(p.d, p.s, p.beta, gain)
    return k.w_from_amplitude(amp, p.s, delta, z, tank.turns_ratio)


def tank_current_amplitude(p: SwitchingParams, gain: float, v_in: float,
                           tank: TankConfig) -> float:
    """Tank current amplitude I_t = V_in sqrt(A^2+B^2) / (2 pi Z) at
    gain G = n V_out / V_in and input voltage V_in.

    Returns exactly 0 at the collapse point.

    Raises:
        BelowResonanceError: if Z(omega) <= 0.
        ValueError: for an unset omega, V_in <= 0, or G < 0, inf or NaN.
    """
    if not v_in > 0:
        raise ValueError("V_in must be positive")
    z = _checked_impedance(p.omega, gain, tank.inductance, tank.capacitance)
    amp = k.forward_point(p.d, p.s, p.beta, gain)[0]
    return v_in * amp / (2.0 * math.pi * z)


def sync_rect_residual(p: SwitchingParams, gain: float) -> float:
    """Synchronous rectification condition residual.

    cos(beta) - G - cos(beta - d) - G cos(s); zero exactly when the
    output bridge is aligned with the tank current (delta = 0), given a
    positive in-phase coefficient.

    Raises:
        ValueError: for G < 0, infinite or NaN.
    """
    if not 0.0 <= gain < inf:
        raise ValueError("gain must be non-negative and finite")
    return math.cos(p.beta) - gain - math.cos(p.beta - p.d) \
        - gain * math.cos(p.s)
