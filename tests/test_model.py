"""Forward steady-state model tests."""

import math

import numpy as np
import pytest

from dbsrc import (AlignmentAngles, BelowResonanceError,
                   DegenerateTankCurrentError, HarmonicCoefficients,
                   SwitchingParams, TankConfig, alignment_angles,
                   harmonic_coefficients, sync_rect_residual,
                   tank_current_amplitude, tank_impedance, transconductance)
from dbsrc.model import DEGENERATE_AMP_SQ

TANK = TankConfig(inductance=80e-6, capacitance=47e-9, turns_ratio=1.0,
                  omega_max=2 * math.pi * 165e3)


def params(d, s, beta, omega=None):
    return SwitchingParams(d=d, s=s, beta=beta, omega=omega)


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
        c = harmonic_coefficients(params(math.pi, 0.0, 0.0), 1.0)
        assert c.amplitude_sq < DEGENERATE_AMP_SQ
        assert c.b == 0.0
        assert c.degenerate

    def test_full_square_wave_no_load(self):
        c = harmonic_coefficients(params(math.pi, 0.0, 0.0), 0.0)
        assert abs(c.a) < 1e-14
        assert c.b == pytest.approx(8.0, abs=1e-14)

    def test_half_wave_buck(self):
        c = harmonic_coefficients(params(math.pi / 2, 0.0, 0.0), 0.5)
        assert c.a == pytest.approx(4.0, abs=1e-14)
        assert c.b == pytest.approx(0.0, abs=1e-14)


class TestAlignmentAngles:
    def test_in_phase(self):
        ang = alignment_angles(HarmonicCoefficients(4.0, 0.0), 0.0)
        assert ang.sigma == 0.0
        assert ang.delta == 0.0

    def test_quadrature(self):
        ang = alignment_angles(HarmonicCoefficients(0.0, 8.0), math.pi / 2)
        assert ang.sigma == pytest.approx(math.pi / 2, abs=1e-15)
        assert ang.delta == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateTankCurrentError):
            alignment_angles(HarmonicCoefficients(0.0, 0.0), 0.0)

    def test_sigma_plus_delta_is_beta(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = rng.uniform(0, math.pi)
            s = rng.uniform(0, math.pi)
            beta = rng.uniform(-math.pi, math.pi)
            gain = rng.uniform(0, 2)
            c = harmonic_coefficients(params(d, s, beta), gain)
            if c.degenerate:
                continue
            ang = alignment_angles(c, beta)
            # delta = beta - sigma; closure exact to rounding
            assert abs(ang.sigma + ang.delta - beta) <= 5e-16 * max(1.0, abs(beta))


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

    @pytest.mark.parametrize("gain, v_in", [(-0.1, 600.0), (0.5, 0.0)])
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
            c = harmonic_coefficients(p, gain)
            if c.degenerate:
                continue
            ang = alignment_angles(c, beta)
            denom = math.cos(s + ang.delta) + math.cos(ang.delta)
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
            c2 = harmonic_coefficients(p2, gain)
            if c2.degenerate:
                continue
            ang2 = alignment_angles(c2, p2.beta)
            if abs(ang2.delta) > 1e-3:
                assert abs(sync_rect_residual(p2, gain)) > 1e-6
