"""Steady-state first-harmonic model of the dual-bridge series resonant
converter.

The forward plant map: given PWM commutation parameters (d, s, beta,
omega), voltage gain G and the tank (L, C, n), compute the harmonic
coefficients A, B, the waveform-alignment angles sigma = atan2(B, A) and
delta = beta - sigma, the tank current amplitude and the output
transconductance W = I_out / V_in.

All operations are pure functions of their arguments.  Angles are plain
radians; no wrapping is performed, callers supply beta in [-pi, pi].
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import _kernels as k
from .errors import BelowResonanceError, DegenerateTankCurrentError

DEGENERATE_AMP_SQ = k.DEGENERATE_AMP_SQ


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
        if self.inductance <= 0 or self.capacitance <= 0:
            raise ValueError("L and C must be positive")
        if self.turns_ratio <= 0:
            raise ValueError("turns ratio must be positive")
        if self.omega_max <= self.omega_resonant:
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


class SwitchingParams(_SwitchingFields):
    """PWM commutation tuple driving both bridges: an immutable
    NamedTuple record (d, s, beta, omega), so it compares equal to and
    unpacks like a plain tuple.

    d is the input-bridge on-time, s the output-bridge short-time (both
    radians in [0, pi]), beta the inter-bridge phase shift in [-pi, pi]
    and omega the angular switching frequency (rad/s).  omega may be
    None for results of the inversion maps, which determine d, s, beta
    only.  The ranges are checked on construction (``_make`` and
    ``_replace`` skip the checks).
    """
    __slots__ = ()

    def __new__(cls, d: float, s: float, beta: float,
                omega: Optional[float] = None):
        tol = 1e-9
        if not -tol <= d <= math.pi + tol:
            raise ValueError(f"d out of [0, pi]: {d}")
        if not -tol <= s <= math.pi + tol:
            raise ValueError(f"s out of [0, pi]: {s}")
        if not -math.pi - tol <= beta <= math.pi + tol:
            raise ValueError(f"beta out of [-pi, pi]: {beta}")
        if omega is not None and omega <= 0:
            raise ValueError("omega must be positive")
        return tuple.__new__(cls, (d, s, beta, omega))


@dataclass(frozen=True)
class AlignmentAngles:
    """Measurable waveform-alignment pair.

    sigma: angle from the input-bridge positive rising edge to the tank
    current zero crossing; delta: angle from the zero crossing to the
    output-bridge positive rising edge.  sigma + delta = beta.
    """
    sigma: float
    delta: float


@dataclass(frozen=True)
class HarmonicCoefficients:
    """First-harmonic coefficients (A, B) of the voltage applied to the
    tank, in the factor-4 normalization."""
    a: float
    b: float

    @property
    def amplitude_sq(self) -> float:
        return self.a * self.a + self.b * self.b

    @property
    def degenerate(self) -> bool:
        """True at the tank-current collapse point (A = B = 0)."""
        return self.amplitude_sq < DEGENERATE_AMP_SQ


def harmonic_coefficients(p: SwitchingParams, gain: float) -> HarmonicCoefficients:
    """A = 4 sin d + 4 G sin(beta+s) + 4 G sin beta,
    B = 4 - 4 G cos(beta+s) - 4 G cos beta - 4 cos d."""
    a, b = k.harmonic_ab(p.d, p.s, p.beta, gain)
    return HarmonicCoefficients(a, b)


def alignment_angles(c: HarmonicCoefficients, beta: float) -> AlignmentAngles:
    """sigma = atan2(B, A), delta = beta - sigma.

    Raises:
        DegenerateTankCurrentError: at the collapse point A = B = 0,
            where the zero-crossing angle is physically undefined.
    """
    if c.degenerate:
        raise DegenerateTankCurrentError(
            "tank current amplitude collapsed; sigma undefined")
    sigma = math.atan2(c.b, c.a)
    return AlignmentAngles(sigma=sigma, delta=beta - sigma)


def tank_impedance(omega: float, tank: TankConfig) -> float:
    """Series tank reactance Z(omega) = omega L - 1/(omega C)."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    return k.tank_impedance(omega, tank.inductance, tank.capacitance)


def transconductance(p: SwitchingParams, gain: float, tank: TankConfig) -> float:
    """Output transconductance W = I_out / V_in.

    W = n/(2 pi^2) * sqrt(A^2+B^2)/Z(omega) * (cos(s+delta) + cos delta).
    Returns exactly 0 at the collapse point.

    Raises:
        BelowResonanceError: if Z(omega) <= 0.
    """
    if p.omega is None:
        raise ValueError("SwitchingParams.omega must be set")
    w, ok = k.transconductance_point(
        p.d, p.s, p.beta, p.omega, gain,
        tank.inductance, tank.capacitance, tank.turns_ratio)
    if not ok:
        raise BelowResonanceError(
            f"Z({p.omega}) <= 0: operation below resonance is rejected")
    return w


def tank_current_amplitude(p: SwitchingParams, gain: float, v_in: float,
                           tank: TankConfig) -> float:
    """Tank current amplitude I_t = V_in sqrt(A^2+B^2) / (2 pi Z) at
    gain G = n V_out / V_in and input voltage V_in.

    Returns exactly 0 at the collapse point.

    Raises:
        BelowResonanceError: if Z(omega) <= 0.
        ValueError: for G < 0 or V_in <= 0.
    """
    if gain < 0:
        raise ValueError("gain must be non-negative")
    if v_in <= 0:
        raise ValueError("V_in must be positive")
    if p.omega is None:
        raise ValueError("SwitchingParams.omega must be set")
    z = tank_impedance(p.omega, tank)
    if z <= 0:
        raise BelowResonanceError(
            f"Z({p.omega}) <= 0: operation below resonance is rejected")
    c = harmonic_coefficients(p, gain)
    if c.degenerate:
        return 0.0
    return v_in * math.sqrt(c.amplitude_sq) / (2.0 * math.pi * z)


def sync_rect_residual(p: SwitchingParams, gain: float) -> float:
    """Synchronous rectification condition residual.

    cos(beta) - G - cos(beta - d) - G cos(s); zero exactly when the
    output bridge is aligned with the tank current (delta = 0), given a
    positive in-phase coefficient.
    """
    return math.cos(p.beta) - gain - math.cos(p.beta - p.d) \
        - gain * math.cos(p.s)
