"""Feedback-layer tests: PI regulator contract, series and parallel
compensation around the inversion maps."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbsrc import (ControlReferences, PiController, TankConfig,
                   invert_alignment, parallel_step, series_step,
                   solve_controls, transconductance)
from dbsrc import _kernels as k

TANK = TankConfig(inductance=80e-6, capacitance=47e-9, turns_ratio=1.0,
                  omega_max=2 * math.pi * 165e3)


def refs(sigma=0.1, delta=0.0):
    return ControlReferences(sigma_ref=sigma, delta_ref=delta)


class TestPiController:
    def test_pure_proportional(self):
        pi = PiController(kp=1.0, ki=0.0, dt=1.0)
        assert pi.step(0.5) == 0.5

    @pytest.mark.parametrize("dt", [0.0, -1e-4, math.nan])
    def test_non_positive_or_nan_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt"):
            PiController(kp=1.0, ki=1.0, dt=dt)

    def test_misspelt_attribute_rejected(self):
        # __slots__: a typo cannot add a state the step never reads
        pi = PiController(kp=1.0, ki=1.0, dt=1.0)
        with pytest.raises(AttributeError):
            pi.intergrator = 1.0

    def test_pure_integral_accumulates(self):
        pi = PiController(kp=0.0, ki=1.0, dt=1.0)
        assert pi.step(1.0) == 1.0
        assert pi.step(1.0) == 2.0

    def test_anti_windup_freezes_integrator(self):
        pi = PiController(kp=1.0, ki=1.0, dt=1.0, output_min=-1.0,
                          output_max=1.0)
        for _ in range(50):
            u = pi.step(0.5)
        assert u == 1.0
        assert pi.integrator <= 1.0
        # after the error flips, the output must leave saturation promptly
        u = pi.step(-0.5)
        assert u < 1.0

    def test_output_clamped(self):
        pi = PiController(kp=10.0, ki=0.0, dt=1.0, output_min=-1.0,
                          output_max=1.0)
        assert pi.step(5.0) == 1.0
        assert pi.step(-5.0) == -1.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(kp=st.floats(0.0, 100.0), ki=st.floats(0.0, 1e4),
           dt=st.floats(1e-6, 1.0), lo=st.floats(-10.0, 10.0),
           width=st.floats(1e-6, 20.0),
           errors=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=60))
    def test_bounds_and_anti_windup_property(self, kp, ki, dt, lo, width,
                                             errors):
        hi = lo + width
        pi = PiController(kp=kp, ki=ki, dt=dt, output_min=lo, output_max=hi)
        for e in errors:
            before = pi.integrator
            incr = ki * e * dt
            u_raw = kp * e + before + incr
            u = pi.step(e)
            assert lo <= u <= hi
            if (u_raw > hi and incr > 0) or (u_raw < lo and incr < 0):
                assert pi.integrator == before


class _ReferencePi:
    """The min(max(...)) form of PiController.step, kept as the
    reference that the branch form must match bit for bit."""

    def __init__(self, kp, ki, dt, output_min, output_max):
        self.kp, self.ki, self.dt = kp, ki, dt
        self.output_min, self.output_max = output_min, output_max
        self.integrator = 0.0

    def step(self, error):
        incr = self.ki * error * self.dt
        candidate = self.integrator + incr
        u_raw = self.kp * error + candidate
        if (u_raw > self.output_max and incr > 0) or \
           (u_raw < self.output_min and incr < 0):
            candidate = self.integrator
        self.integrator = candidate
        u = self.kp * error + self.integrator
        return min(max(u, self.output_min), self.output_max)


def _same_float(a, b):
    """Equal as floats, with the same sign of zero; NaN matches NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


_ERRORS = st.one_of(st.floats(-10.0, 10.0),
                    st.sampled_from([0.0, -0.0, math.nan, 1e-300, -1e-300]))
_LIMITS = st.one_of(st.floats(-10.0, 10.0),
                    st.sampled_from([0.0, -0.0, math.inf, -math.inf]))


class TestPiControllerReference:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(kp=st.sampled_from([0.0, 0.5, 6.0, 25.0]) | st.floats(0.0, 100.0),
           ki=st.sampled_from([0.0, 200.0, 5000.0]) | st.floats(0.0, 1e4),
           dt=st.sampled_from([1e-4, 1.0]) | st.floats(1e-6, 1.0),
           lo=_LIMITS, hi=_LIMITS,
           errors=st.lists(_ERRORS, min_size=1, max_size=60))
    def test_step_equals_reference_property(self, kp, ki, dt, lo, hi,
                                            errors):
        # lo > hi is not a sensible controller, but both forms must still
        # agree there: the two clamps run in the same order
        pi = PiController(kp, ki, dt, lo, hi)
        ref = _ReferencePi(kp, ki, dt, lo, hi)
        for e in errors:
            assert _same_float(pi.step(e), ref.step(e))
            assert _same_float(pi.integrator, ref.integrator)

    def test_freeze_and_saturation_reached(self):
        pi = PiController(1.0, 1.0, 1.0, -1.0, 1.0)
        ref = _ReferencePi(1.0, 1.0, 1.0, -1.0, 1.0)
        outputs = [(pi.step(e), ref.step(e), pi.integrator, ref.integrator)
                   for e in (0.5, 0.5, 0.5, -0.25, -3.0, -3.0, 0.0, -0.0)]
        for u, u_ref, integ, integ_ref in outputs:
            assert _same_float(u, u_ref)
            assert _same_float(integ, integ_ref)
        assert outputs[2][0] == 1.0 and outputs[2][2] == outputs[1][2]
        assert outputs[5][0] == -1.0 and outputs[5][2] == outputs[4][2]


def make_pi_pair(dt=1e-4, kp=0.5, ki=200.0):
    lim = 0.5
    return (PiController(kp, ki, dt, -lim, lim),
            PiController(kp, ki, dt, -lim, lim))


class TestSeriesStep:
    def test_disabled_pi_equals_pure_inversion(self):
        pi_s = PiController(0.0, 0.0, 1e-4)
        pi_d = PiController(0.0, 0.0, 1e-4)
        p = series_step(refs(0.2, 0.1), 0.0, 0.0, pi_s, pi_d, 0.8)
        expected = invert_alignment(refs(0.2, 0.1), 0.8).params
        assert p == expected

    def test_perfect_match_keeps_pi_at_zero(self):
        # measurements equal to the references: PI outputs stay zero and
        # the output is the pure feedforward
        pi_s, pi_d = make_pi_pair()
        for _ in range(10):
            p = series_step(refs(0.2, 0.1), 0.2, 0.1, pi_s, pi_d, 0.8)
        assert pi_s.integrator == 0.0
        assert pi_d.integrator == 0.0
        assert p == invert_alignment(refs(0.2, 0.1), 0.8).params

    def test_measurement_offset_rejected(self):
        # plant reports sigma with a +0.05 bias; integral action drives the
        # measured error to zero
        pi_s, pi_d = make_pi_pair()
        gain = 0.8
        r = refs(0.2, 0.1)
        sigma_m = delta_m = 0.0
        err = None
        for _ in range(4000):
            p = series_step(r, sigma_m, delta_m, pi_s, pi_d, gain)
            _amp, sigma, delta, _deg = k.forward_point(p.d, p.s, p.beta, gain)
            sigma_m, delta_m = sigma + 0.05, delta
            err = r.sigma_ref - sigma_m
        assert abs(err) < 1e-6


class TestParallelStep:
    def test_zero_corrections_equal_solve_controls(self):
        pi_s = PiController(0.0, 0.0, 1e-4)
        pi_d = PiController(0.0, 0.0, 1e-4)
        pi_w = PiController(0.0, 0.0, 1e-4)
        sol = parallel_step(refs(), 0.02, 0.0, 0.0, 0.0, pi_s, pi_d, pi_w,
                            0.7, TANK)
        direct = solve_controls(refs(), 0.7, 0.02, TANK)
        assert sol == direct

    def test_power_request_clamped_at_zero(self):
        # a W measurement far above W* drives W* + PI(W* - W_meas) below
        # zero: the solve runs at W* = 0, low power, and hands the warm
        # state it was given on
        dt = 1e-4
        pis = [PiController(0.5, 200.0, dt, -0.5, 0.5) for _ in range(4)]
        pi_w = PiController(6.0, 5000.0, dt, -0.25, 0.25)
        warm = (2.0, 2.5, -0.3)
        sol = parallel_step(refs(), 0.01, 0.12, 0.01, 1.0, pis[0], pis[1],
                            pi_w, 0.7, TANK, warm=warm)
        assert sol.low_power
        assert sol.warm is warm
        assert transconductance(sol.params, 0.7, TANK) == 0.0
        corrections = (pis[2].step(0.1 - 0.12), pis[3].step(0.0 - 0.01))
        assert sol == solve_controls(refs(), 0.7, 0.0, TANK, corrections,
                                     warm)

    def test_beta_offset_rejected(self):
        # plant applies beta - 0.1; delta converges to delta* and the beta
        # command absorbs +0.1
        dt = 1e-4
        pi_s = PiController(0.5, 200.0, dt, -0.5, 0.5)
        pi_d = PiController(0.5, 200.0, dt, -0.5, 0.5)
        pi_w = PiController(0.0, 0.0, dt)
        gain = 0.7
        r = refs(0.1, 0.0)
        w_ref = 0.02
        sigma_m = delta_m = 0.0
        for _ in range(5000):
            sol = parallel_step(r, w_ref, sigma_m, delta_m, 0.0, pi_s, pi_d,
                                pi_w, gain, TANK)
            p = sol.params
            _amp, sigma_m, delta_m, _deg = k.forward_point(
                p.d, p.s, p.beta - 0.1, gain)
        assert abs(delta_m - r.delta_ref) < 1e-3
        assert abs(sigma_m - r.sigma_ref) < 1e-3
        nominal = solve_controls(r, gain, w_ref, TANK).params
        assert p.beta - nominal.beta == pytest.approx(0.1, abs=1e-3)

    def test_inductance_error_rejected_by_w_loop(self):
        # plant inductance 5% high: the series W compensation restores the
        # requested transconductance
        dt = 1e-4
        pi_s = PiController(0.5, 200.0, dt, -0.5, 0.5)
        pi_d = PiController(0.5, 200.0, dt, -0.5, 0.5)
        pi_w = PiController(6.0, 5000.0, dt, -0.25, 0.25)
        plant_tank = TankConfig(inductance=80e-6 * 1.05, capacitance=47e-9,
                                turns_ratio=1.0,
                                omega_max=2 * math.pi * 165e3)
        gain = 0.7
        r = refs(0.1, 0.0)
        w_ref = 0.02
        sigma_m = delta_m = w_m = 0.0
        alpha = 1.0 - math.exp(-dt / 5e-4)  # sensor lag, as in the charger
        for _ in range(5000):
            sol = parallel_step(r, w_ref, sigma_m, delta_m, w_m, pi_s, pi_d,
                                pi_w, gain, TANK)
            w_true = transconductance(sol.params, gain, plant_tank)
            _amp, sigma_t, delta_t, _deg = k.forward_point(
                sol.params.d, sol.params.s, sol.params.beta, gain)
            w_m += alpha * (w_true - w_m)
            sigma_m += alpha * (sigma_t - sigma_m)
            delta_m += alpha * (delta_t - delta_m)
        assert w_m == pytest.approx(w_ref, rel=1e-4)

    def test_outputs_stay_in_range_under_noise(self):
        import numpy as np
        rng = np.random.default_rng(5)
        dt = 1e-4
        pi_s = PiController(0.5, 200.0, dt, -0.5, 0.5)
        pi_d = PiController(0.5, 200.0, dt, -0.5, 0.5)
        pi_w = PiController(0.0, 0.0, dt)
        r = refs(0.1, 0.0)
        for _ in range(2000):
            sigma_m = 0.1 + rng.uniform(-0.3, 0.3)
            delta_m = rng.uniform(-0.3, 0.3)
            sol = parallel_step(r, 0.02, sigma_m, delta_m, 0.0, pi_s, pi_d,
                                pi_w, 0.9, TANK)
            p = sol.params
            assert 0.0 <= p.d <= math.pi
            assert 0.0 <= p.s <= math.pi
            assert -math.pi <= p.beta <= math.pi
            assert p.omega > 0
