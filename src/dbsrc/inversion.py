"""Closed-form inverse maps from waveform-alignment references to PWM
commutation parameters.

Given references sigma*, delta* (each in [-pi/2, pi/2]), an externally
commanded additive short-time s_add and the voltage gain G, solve

    sigma(d, s, beta, G) = sigma*,   delta(d, s, beta, G) = delta*

for d in [0, pi], s in [0, pi], beta = sigma* + delta*, taking the
branch with minimal short-time.  The buck branch keeps s = s_add and
solves for d; the boost branch first needs s_min > 0 on top of which
s_add rides, with d recomputed so the alignment is preserved.

Also provided: the combined duty variable q that merges d and s into a
single control channel, the fully-driven special-case maps, the beta=0
maps and the small-angle linearized approximation.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

from . import _kernels as k
from .errors import InfeasibleReferenceError, UndefinedAtUnityGainError
from .model import SwitchingParams


class Mode(Enum):
    BUCK = "buck"
    BOOST = "boost"


@dataclass(frozen=True)
class ControlReferences:
    """Setpoints for the inversion maps.

    sigma_ref, delta_ref: desired alignment angles in [-pi/2, pi/2];
    s_add: additive short-time in [0, pi] used for low-power dimming.
    """
    sigma_ref: float
    delta_ref: float
    s_add: float = 0.0

    def __post_init__(self):
        half_pi = math.pi / 2
        if not -half_pi <= self.sigma_ref <= half_pi:
            raise ValueError("sigma_ref out of [-pi/2, pi/2]")
        if not -half_pi <= self.delta_ref <= half_pi:
            raise ValueError("delta_ref out of [-pi/2, pi/2]")
        if not 0.0 <= self.s_add <= math.pi:
            raise ValueError("s_add out of [0, pi]")


@dataclass(frozen=True)
class InversionResult:
    """Outcome of the inverse map: commutation parameters (omega unset),
    selected branch, minimal boost short-time and feasibility."""
    params: SwitchingParams
    mode: Mode
    s_min: float
    feasible: bool


def try_invert_alignment(refs: ControlReferences, gain: float) -> InversionResult:
    """Inverse map that reports infeasibility in the result instead of
    raising; see invert_alignment."""
    if gain <= 0:
        raise ValueError("gain must be positive")
    d, s, beta, s_min, is_boost, feasible = k.invert_exact(
        refs.sigma_ref, refs.delta_ref, refs.s_add, gain)
    return InversionResult(
        params=SwitchingParams(d=d, s=s, beta=beta),
        mode=Mode.BOOST if is_boost else Mode.BUCK,
        s_min=s_min,
        feasible=feasible,
    )


def invert_alignment(refs: ControlReferences, gain: float) -> InversionResult:
    """Solve the alignment references for (d, s, beta).

    Buck branch (2 cos sigma* >= G cos(delta*+s_add) + G cos delta*):
    s = s_add and d = acos(cos sigma* - G cos(delta*+s_add)
    - G cos delta*) + sigma*.  Boost branch: s = s_min + s_add with
    s_min = acos(2 cos sigma* / G - cos delta*) - delta*, then the same
    d expression evaluated at the total s.  beta = sigma* + delta*.

    Raises:
        InfeasibleReferenceError: when an acos argument leaves [-1, 1]
            beyond tolerance, (d, s) leaves its range, or the resulting
            in-phase coefficient is negative.
    """
    result = try_invert_alignment(refs, gain)
    if not result.feasible:
        raise InfeasibleReferenceError(
            f"references (sigma*={refs.sigma_ref}, delta*={refs.delta_ref}, "
            f"s_add={refs.s_add}) not achievable at G={gain}")
    return result


def q_combine(d: float, s: float, mode: Mode) -> float:
    """Merge (d, s) into the single duty variable q.

    Buck: q = d (s stays at s_add); boost: q = s + pi.  Continuous at
    the branch point d = pi, s = 0 where both give q = pi.
    """
    if mode is Mode.BUCK:
        return d
    return s + math.pi


def q_split(q: float, s_add: float) -> Tuple[float, float]:
    """Split the duty variable back into (d, s) the paper's way.

    q <= pi: (d, s) = (q, s_add); q > pi: (d, s) = (pi, q - pi) with
    s_add already folded into q on the boost side.  This d = pi split
    is lossless at s_add = 0; in boost with s_add > 0 the exact inverse
    needs another d, the one _kernels.regulated_point takes.
    """
    if not -k.RANGE_TOL <= q <= 2.0 * math.pi + k.RANGE_TOL:
        raise ValueError(f"q out of [0, 2 pi]: {q}")
    if q <= math.pi:
        return q, s_add
    return math.pi, q - math.pi


def q_from_references(refs: ControlReferences, gain: float) -> Tuple[float, Mode]:
    """Duty variable q straight from the references.

    Buck: q = acos(cos sigma* - G cos delta* - G cos(delta*+s_add))
    + sigma* (principal branch); boost:
    q = 2 pi - acos(cos delta* - (2/G) cos sigma*) - delta* + s_add.

    Raises:
        InfeasibleReferenceError: on an acos domain violation, or
            when a boost point has no d in [0, pi] that keeps the
            alignment.
    """
    if gain <= 0:
        raise ValueError("gain must be positive")
    q, _d, is_boost, feasible = k.q_reference(
        refs.sigma_ref, refs.delta_ref, refs.s_add, gain)
    if not feasible:
        raise InfeasibleReferenceError(
            f"references not representable as q at G={gain}")
    return q, Mode.BOOST if is_boost else Mode.BUCK


def fully_driven_maps(gain: float, g_star: float) -> Tuple[float, float]:
    """Feedforward maps with the input bridge fully driven (d = pi).

    beta = acos(min(G, G*)), s = acos(2 G* / max(G, G*) - 1) with
    G* the cosine of the minimum alignment angle kept in fully-driven
    mode; the buck and boost expressions are stitched by the min/max so
    both are continuous at G = G*.
    """
    if not 0.0 < g_star <= 1.0:
        raise ValueError("G* must be in (0, 1]")
    if gain <= 0:
        raise ValueError("gain must be positive")
    beta = math.acos(min(gain, g_star))
    s = math.acos(2.0 * g_star / max(gain, g_star) - 1.0)
    return beta, s


def beta_zero_maps(gain: float) -> Tuple[float, float]:
    """Feedforward maps with both waveforms aligned (beta = 0).

    G <= 1: d = acos(1 - 2 G), s = 0; G > 1: d = pi,
    s = acos(2/G - 1).  Both satisfy 1 - G - cos d - G cos s = 0.
    """
    if gain <= 0:
        raise ValueError("gain must be positive")
    if gain <= 1.0:
        return math.acos(1.0 - 2.0 * gain), 0.0
    return math.pi, math.acos(2.0 / gain - 1.0)


def linearized_inverse(refs: ControlReferences, gain: float) -> Tuple[float, float, float]:
    """Piecewise linearization of the inverse map around
    sigma* = delta* = 0.

    G < 1: d = acos(1 - 2 G) + sigma*, s = 0;
    G > 1: d = pi, s = pi - acos(1 - 2/G) - delta*;
    beta = sigma* + delta*.  Only an approximation of the exact maps and
    singular at G = 1, where the tank current collapses.

    Raises:
        UndefinedAtUnityGainError: for |G - 1| < 1e-6.
    """
    if gain <= 0:
        raise ValueError("gain must be positive")
    if abs(gain - 1.0) < 1e-6:
        raise UndefinedAtUnityGainError("linearized map undefined at G = 1")
    beta = refs.sigma_ref + refs.delta_ref
    if gain < 1.0:
        d = math.acos(1.0 - 2.0 * gain) + refs.sigma_ref
        s = 0.0
    else:
        d = math.pi
        s = math.pi - math.acos(1.0 - 2.0 / gain) - refs.delta_ref
    return d, s, beta
