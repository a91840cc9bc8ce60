"""Forward steady-state model tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbsrc import (BelowResonanceError, ControlReferences,
                   DegenerateTankCurrentError, ScenarioConfig,
                   SwitchingParams, TankConfig, alignment_angles,
                   plant_step, solve_controls, sync_rect_residual,
                   tank_current_amplitude, tank_impedance, transconductance)
from dbsrc import _kernels as k

TANK = TankConfig(inductance=80e-6, capacitance=47e-9, turns_ratio=1.0,
                  omega_max=2 * math.pi * 165e3)


def params(d, s, beta, omega=None):
    return SwitchingParams(d=d, s=s, beta=beta, omega=omega)


def harmonic_ab(d, s, beta, gain):
    """Reference copy of the first-harmonic coefficients that
    forward_point computes in its own frame:
    A = 4 sin d + 4 G sin(beta+s) + 4 G sin beta,
    B = 4 - 4 G cos(beta+s) - 4 G cos beta - 4 cos d."""
    a = 4.0 * math.sin(d) + 4.0 * gain * math.sin(beta + s) \
        + 4.0 * gain * math.sin(beta)
    b = 4.0 - 4.0 * gain * math.cos(beta + s) - 4.0 * gain * math.cos(beta) \
        - 4.0 * math.cos(d)
    return a, b


def reference_forward_point(d, s, beta, gain):
    """forward_point as harmonic_ab followed by the amplitude, atan2,
    delta = beta - sigma and the collapse test."""
    a, b = harmonic_ab(d, s, beta, gain)
    amp_sq = a * a + b * b
    if amp_sq < k.DEGENERATE_AMP_SQ:
        return 0.0, 0.0, 0.0, True
    sigma = math.atan2(b, a)
    return math.sqrt(amp_sq), sigma, beta - sigma, False


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(d=st.floats(0.0, math.pi), s=st.floats(0.0, math.pi),
       beta=st.floats(-math.pi, math.pi), gain=st.floats(0.0, 3.0))
def test_forward_point_is_the_reference_composition_property(d, s, beta,
                                                             gain):
    # bit for bit: repr tells every float apart, -0.0 from 0.0 included
    got = k.forward_point(d, s, beta, gain)
    assert list(map(repr, got)) == \
        list(map(repr, reference_forward_point(d, s, beta, gain)))


class TestSwitchingParamsRecord:
    @pytest.mark.parametrize("kwargs, message", [
        (dict(d=-0.01, s=0.0, beta=0.0), "d out of"),
        (dict(d=math.pi + 0.01, s=0.0, beta=0.0), "d out of"),
        (dict(d=1.0, s=-0.01, beta=0.0), "s out of"),
        (dict(d=1.0, s=math.pi + 0.01, beta=0.0), "s out of"),
        (dict(d=1.0, s=0.0, beta=-math.pi - 0.01), "beta out of"),
        (dict(d=1.0, s=0.0, beta=math.pi + 0.01), "beta out of"),
        (dict(d=1.0, s=0.0, beta=0.0, omega=0.0), "omega must be positive"),
        (dict(d=1.0, s=0.0, beta=0.0, omega=-1.0), "omega must be positive"),
        (dict(d=math.nan, s=0.0, beta=0.0), "d out of"),
        (dict(d=1.0, s=math.nan, beta=0.0), "s out of"),
        (dict(d=1.0, s=0.0, beta=math.nan), "beta out of"),
        (dict(d=1.0, s=0.0, beta=0.0, omega=math.nan),
         "omega must be positive"),
    ])
    def test_out_of_range_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SwitchingParams(**kwargs)

    def test_range_edges_and_tolerance_accepted(self):
        p = SwitchingParams(-1e-10, math.pi + 1e-10, -math.pi)
        assert (p.d, p.s, p.beta, p.omega) == (-1e-10, math.pi + 1e-10,
                                               -math.pi, None)

    @pytest.mark.parametrize("field", ["d", "s", "beta", "omega"])
    def test_fields_cannot_be_assigned(self, field):
        p = params(1.0, 0.2, 0.1, 1e6)
        with pytest.raises(AttributeError):
            setattr(p, field, 0.5)
        assert p == params(1.0, 0.2, 0.1, 1e6)


class TestHarmonicCoefficients:
    def test_collapse_point(self):
        a, b = harmonic_ab(math.pi, 0.0, 0.0, 1.0)
        assert a * a + b * b < k.DEGENERATE_AMP_SQ
        assert b == 0.0
        assert k.forward_point(math.pi, 0.0, 0.0, 1.0)[3]

    def test_full_square_wave_no_load(self):
        a, b = harmonic_ab(math.pi, 0.0, 0.0, 0.0)
        assert abs(a) < 1e-14
        assert b == pytest.approx(8.0, abs=1e-14)

    def test_half_wave_buck(self):
        a, b = harmonic_ab(math.pi / 2, 0.0, 0.0, 0.5)
        assert a == pytest.approx(4.0, abs=1e-14)
        assert b == pytest.approx(0.0, abs=1e-14)


class TestAlignmentAngles:
    def test_in_phase(self):
        # B = 4 - 8 G - 4 cos d vanishes in floats at d = 1, G = (1 - cos 1)/2
        # while A = 4 sin 1 > 0
        gain = (1.0 - math.cos(1.0)) / 2.0
        assert harmonic_ab(1.0, 0.0, 0.0, gain)[1] == 0.0
        sigma, delta = alignment_angles(params(1.0, 0.0, 0.0), gain)
        assert sigma == 0.0
        assert delta == 0.0

    def test_quadrature(self):
        # G = 0, d = pi: A = 4 sin pi (rounding noise), B = 8
        sigma, delta = alignment_angles(params(math.pi, 0.0, math.pi / 2),
                                        0.0)
        assert sigma == pytest.approx(math.pi / 2, abs=1e-15)
        assert delta == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateTankCurrentError):
            alignment_angles(params(math.pi, 0.0, 0.0), 1.0)

    def test_sigma_plus_delta_is_beta(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = rng.uniform(0, math.pi)
            s = rng.uniform(0, math.pi)
            beta = rng.uniform(-math.pi, math.pi)
            gain = rng.uniform(0, 2)
            try:
                sigma, delta = alignment_angles(params(d, s, beta), gain)
            except DegenerateTankCurrentError:
                continue
            # delta = beta - sigma; closure exact to rounding
            assert abs(sigma + delta - beta) <= 5e-16 * max(1.0, abs(beta))


class TestTankConfig:
    @pytest.mark.parametrize("field", ["inductance", "capacitance",
                                       "turns_ratio", "omega_max"])
    def test_nan_rejected(self, field):
        kwargs = dict(inductance=80e-6, capacitance=47e-9, turns_ratio=1.0,
                      omega_max=2 * math.pi * 165e3)
        kwargs[field] = math.nan
        with pytest.raises(ValueError):
            TankConfig(**kwargs)

    @pytest.mark.parametrize("field, message", [
        ("inductance", "L and C must be positive"),
        ("capacitance", "L and C must be positive"),
        ("turns_ratio", "turns ratio must be positive"),
        ("omega_max", "omega_max must exceed the resonant frequency"),
    ])
    def test_infinity_rejected(self, field, message):
        # +inf passed the positivity tests and failed or ran on in the
        # charger loop; values <= 0 keep their messages
        kwargs = dict(inductance=80e-6, capacitance=47e-9, turns_ratio=1.0,
                      omega_max=2 * math.pi * 165e3)
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            TankConfig(**dict(kwargs, **{field: math.inf}))
        for value in (-math.inf, 0.0):
            with pytest.raises(ValueError, match=f"^{message}$"):
                TankConfig(**dict(kwargs, **{field: value}))


class TestTankImpedance:
    def test_zero_at_resonance(self):
        assert abs(tank_impedance(TANK.omega_resonant, TANK)) < 1e-9

    def test_paper_resonant_frequency(self):
        assert abs(tank_impedance(2 * math.pi * 82.07e3, TANK)) < 0.1

    def test_direct_evaluation(self):
        omega = 2 * math.pi * 165e3
        expected = omega * 80e-6 - 1.0 / (omega * 47e-9)
        assert tank_impedance(omega, TANK) == pytest.approx(expected, rel=1e-15)

    def test_strictly_increasing_with_sign_change(self):
        omegas = np.geomspace(1e3, 1e8, 300)
        values = [tank_impedance(w, TANK) for w in omegas]
        assert all(b > a for a, b in zip(values, values[1:]))
        w0 = TANK.omega_resonant
        assert tank_impedance(w0 * (1 - 1e-6), TANK) < 0
        assert tank_impedance(w0 * (1 + 1e-6), TANK) > 0

    def test_non_positive_frequency_rejected(self):
        with pytest.raises(ValueError, match="omega must be positive"):
            tank_impedance(0.0, TANK)


@pytest.mark.parametrize("forward_map", [
    lambda p: transconductance(p, 0.5, TANK),
    lambda p: tank_current_amplitude(p, 0.5, 600.0, TANK),
], ids=["transconductance", "tank_current_amplitude"])
def test_unset_frequency_rejected(forward_map):
    # the inversion maps leave omega unset; the forward maps need it
    with pytest.raises(ValueError, match="omega must be set"):
        forward_map(params(math.pi / 2, 0.0, 0.0))


class TestTransconductance:
    def test_collapse_gives_zero(self):
        p = params(math.pi, 0.0, 0.0, omega=2 * math.pi * 120e3)
        assert transconductance(p, 1.0, TANK) == 0.0

    def test_hand_evaluated_point(self):
        # A=4, B=0, delta=0 at (pi/2, 0, 0, G=0.5): W = n/(2 pi^2) * 4/Z * 2
        omega = 2 * math.pi * 165e3
        z = omega * 80e-6 - 1.0 / (omega * 47e-9)
        expected = 1.0 / (2 * math.pi ** 2) * 4.0 / z * 2.0
        p = params(math.pi / 2, 0.0, 0.0, omega=omega)
        assert transconductance(p, 0.5, TANK) == pytest.approx(expected, rel=1e-12)

    def test_full_short_with_zero_delta(self):
        # d=pi/2, beta=pi/4, G=0 gives sigma=pi/4=beta, so delta=0;
        # s=pi makes cos(s+delta)+cos(delta) = 0 exactly
        p = params(math.pi / 2, math.pi, math.pi / 4, omega=2 * math.pi * 120e3)
        assert transconductance(p, 0.0, TANK) == 0.0

    def test_below_resonance_rejected(self):
        p = params(math.pi / 2, 0.0, 0.0, omega=0.5 * TANK.omega_resonant)
        with pytest.raises(BelowResonanceError):
            transconductance(p, 0.5, TANK)


class TestTankCurrentAmplitude:
    def test_collapse_is_exactly_zero(self):
        p = params(math.pi, 0.0, 0.0, omega=2 * math.pi * 120e3)
        assert tank_current_amplitude(p, 1.0, 600.0, TANK) == 0.0

    @pytest.mark.parametrize("gain, v_in", [(-0.1, 600.0), (0.5, 0.0),
                                            (math.nan, 600.0),
                                            (0.5, math.nan)])
    def test_bad_operating_point_rejected(self, gain, v_in):
        p = params(math.pi / 2, 0.0, 0.0, omega=2 * math.pi * 120e3)
        with pytest.raises(ValueError):
            tank_current_amplitude(p, gain, v_in, TANK)

    def test_hand_arithmetic(self):
        # amplitude 4 at 600 V with Z = 100 ohm: 600*4/(2 pi 100)
        from dbsrc import frequency_from_impedance
        omega = frequency_from_impedance(100.0, TANK)
        p = params(math.pi / 2, 0.0, 0.0, omega=omega)
        expected = 600.0 * 4.0 / (2 * math.pi * 100.0)
        assert tank_current_amplitude(p, 0.5, 600.0, TANK) == pytest.approx(
            expected, rel=1e-9)
        assert expected == pytest.approx(3.8197, abs=1e-4)

    def test_ratio_identity_random_grid(self):
        # I_t / I_out (= I_t / (W V_in)) must equal
        # (pi/n) / (cos(s+delta) + cos(delta)) on any valid point
        rng = np.random.default_rng(42)
        tank = TankConfig(inductance=80e-6, capacitance=47e-9,
                          turns_ratio=1.875, omega_max=2 * math.pi * 165e3)
        op_v = 600.0
        checked = 0
        while checked < 100:
            d = rng.uniform(0, math.pi)
            s = rng.uniform(0, math.pi)
            beta = rng.uniform(-math.pi / 2, math.pi / 2)
            gain = rng.uniform(0.05, 2.0)
            omega = rng.uniform(tank.omega_resonant * 1.01, tank.omega_max)
            p = params(d, s, beta, omega=omega)
            try:
                _sigma, delta = alignment_angles(p, gain)
            except DegenerateTankCurrentError:
                continue
            denom = math.cos(s + delta) + math.cos(delta)
            if abs(denom) < 1e-3:
                continue
            w = transconductance(p, gain, tank)
            it = tank_current_amplitude(p, gain, op_v, tank)
            lhs = it / (w * op_v)
            rhs = (math.pi / tank.turns_ratio) / denom
            assert lhs == pytest.approx(rhs, rel=1e-9)
            checked += 1


class TestSyncRectResidual:
    def test_collapse_point(self):
        assert sync_rect_residual(params(math.pi, 0.0, 0.0), 1.0) == 0.0

    def test_half_wave_point(self):
        assert sync_rect_residual(params(math.pi / 2, 0.0, 0.0), 0.5) == \
            pytest.approx(0.0, abs=1e-15)

    def test_zero_iff_delta_zero(self):
        # both directions on a grid where A > 0, via the inverse map
        from dbsrc import ControlReferences, invert_alignment
        rng = np.random.default_rng(3)
        for _ in range(100):
            sigma_ref = rng.uniform(-0.4, 0.4)
            gain = rng.uniform(0.3, 1.8)
            refs = ControlReferences(sigma_ref=sigma_ref, delta_ref=0.0)
            res = invert_alignment(refs, gain)
            p = res.params
            assert abs(sync_rect_residual(p, gain)) < 1e-9
            # perturbed beta moves delta off zero: residual must move too
            p2 = params(p.d, p.s, p.beta + 0.05)
            try:
                _sigma2, delta2 = alignment_angles(p2, gain)
            except DegenerateTankCurrentError:
                continue
            if abs(delta2) > 1e-3:
                assert abs(sync_rect_residual(p2, gain)) > 1e-6


@pytest.mark.parametrize("gain", [math.nan, -0.5, math.inf])
@pytest.mark.parametrize("forward_map", [
    alignment_angles,
    lambda p, gain: transconductance(p, gain, TANK),
    sync_rect_residual,
    lambda p, gain: tank_current_amplitude(p, gain, 600.0, TANK),
    lambda p, gain: plant_step(p, ScenarioConfig(), gain),
    lambda p, gain: solve_controls(ControlReferences(0.1, 0.0), gain, 0.01,
                                   TANK),
    lambda p, gain: solve_controls(ControlReferences(0.1, 0.0), gain, 0.0,
                                   TANK),
], ids=["alignment_angles", "transconductance", "sync_rect_residual",
        "tank_current_amplitude", "plant_step", "solve_controls",
        "solve_controls-zero-power"])
def test_bad_gain_rejected(forward_map, gain):
    # a NaN or negative G would otherwise come back as a NaN or a number
    p = params(math.pi / 2, 0.0, 0.0, omega=2 * math.pi * 120e3)
    with pytest.raises(ValueError, match="gain must be non-negative"):
        forward_map(p, gain)
