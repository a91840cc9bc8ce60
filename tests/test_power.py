"""Power-control tests: H split, frequency solve, fully-driven law,
dimming boundary and the combined control solve."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbsrc import (ControlReferences, InfeasibleReferenceError,
                   PowerSolution, SwitchingParams, TankConfig, UnreachablePowerError,
                   ZeroPowerReferenceError, default_tank,
                   frequency_from_impedance, fully_driven_frequency,
                   fully_driven_maps,
                   gain_term_h, invert_alignment, required_impedance,
                   s_add_zero_boundary, solve_controls, tank_impedance,
                   transconductance, try_invert_alignment)
from dbsrc import _kernels as k

EPS = np.finfo(float).eps
TANK = TankConfig(inductance=80e-6, capacitance=47e-9, turns_ratio=1.0,
                  omega_max=2 * math.pi * 165e3)


def refs(sigma=0.1, delta=0.0, s_add=0.0):
    return ControlReferences(sigma_ref=sigma, delta_ref=delta, s_add=s_add)


class TestGainTermH:
    def test_basic_buck(self):
        # d = pi/2, A = 4, H = 4 * 2 / 1 = 8
        assert gain_term_h(refs(0.0, 0.0), 0.5) == pytest.approx(8.0, abs=1e-12)

    def test_collapse(self):
        assert gain_term_h(refs(0.0, 0.0), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_against_forward_model(self):
        # independent oracle: H = W * 2 pi^2 * Z / n with W from the full
        # forward model at the inverse-map point
        r = refs(0.1, 0.0)
        gain = 0.7
        res = invert_alignment(r, gain)
        omega = 2 * math.pi * 150e3
        p = SwitchingParams(d=res.params.d, s=res.params.s,
                            beta=res.params.beta, omega=omega)
        w = transconductance(p, gain, TANK)
        z = tank_impedance(omega, TANK)
        h_oracle = w * 2 * math.pi ** 2 * z / TANK.turns_ratio
        assert gain_term_h(r, gain) == pytest.approx(h_oracle, rel=1e-12)


class TestRequiredImpedance:
    def test_algebraic_inverse(self):
        w_ref = 8 * 1.0 / (2 * math.pi ** 2 * 100.0)
        assert required_impedance(8.0, w_ref, 1.0) == pytest.approx(
            100.0, rel=1e-12)

    def test_zero_h(self):
        assert required_impedance(0.0, 0.04, 1.0) == 0.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroPowerReferenceError):
            required_impedance(8.0, 0.0, 1.0)

    @pytest.mark.parametrize("w_ref", [-0.05, -math.inf, math.nan, math.inf])
    def test_negative_or_nan_reference_rejected(self, w_ref):
        # no negative or NaN reactance from a bad W*, and no Z = 0 (the
        # resonant frequency) from an infinite one
        with pytest.raises(ValueError, match="W"):
            required_impedance(1.0, w_ref, 1.0)


class TestFrequencyFromImpedance:
    def test_resonance(self):
        omega = frequency_from_impedance(0.0, TANK)
        assert omega == pytest.approx(1.0 / math.sqrt(80e-6 * 47e-9),
                                      rel=1e-12)
        assert omega == pytest.approx(2 * math.pi * 82.07e3, rel=5e-3)

    def test_round_trip_residual(self):
        # 1e-3 ohm floor: at resonance Z is the cancellation of ~40 ohm
        # reactances, so the absolute noise floor is ~1e-13
        for z in [0.0] + list(np.geomspace(1e-3, 1e4, 60)):
            omega = frequency_from_impedance(z, TANK)
            back = tank_impedance(omega, TANK)
            assert abs(back - z) <= 1e-9 * max(z, 1e-3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            frequency_from_impedance(-1.0, TANK)


class TestFullyDrivenFrequency:
    def test_zero_gain_impedance(self):
        w_ref = 0.05
        beta, s, omega = fully_driven_frequency(1e-12, 1.0, w_ref, TANK)
        assert beta == pytest.approx(math.pi / 2, abs=1e-9)
        assert s == 0.0
        z = tank_impedance(omega, TANK)
        assert z == pytest.approx(8 * 1.0 / (math.pi ** 2 * w_ref), rel=1e-9)

    def test_unity_boundary_hits_resonance(self):
        _beta, _s, omega = fully_driven_frequency(1.0, 1.0, 0.05, TANK)
        assert omega == pytest.approx(TANK.omega_resonant, rel=1e-12)
        # the tank current collapses there, so Z is exactly 0
        assert omega == frequency_from_impedance(0.0, TANK)

    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(gain=st.floats(0.0, 3.0, exclude_min=True),
           g_star=st.floats(0.05, 1.0), w_ref=st.floats(1e-4, 0.2))
    @example(1.0, 1.0, 0.05)
    @example(0.95, 0.95, 0.05)
    def test_forward_model_view_matches_closed_form_property(
            self, gain, g_star, w_ref):
        # reference copy of the closed-form law: Z = n H / (2 pi^2 W*)
        # with H = 8 (cos s + 1) sqrt(1 - G cos(beta + s)).  Near the
        # collapse G = G* = 1 the closed form itself loses about eps/arg
        # to cancellation (2.6e-13 at G = 1, G* = 0.99999, where the view
        # is within 8e-15 of a 50-digit evaluation), hence that term
        beta_ref, s_ref = fully_driven_maps(gain, g_star)
        arg = 1.0 - gain * math.cos(beta_ref + s_ref)
        h = 8.0 * (math.cos(s_ref) + 1.0) * math.sqrt(max(arg, 0.0))
        z = TANK.turns_ratio * h / (2.0 * math.pi ** 2 * w_ref)
        omega_ref = frequency_from_impedance(z, TANK)
        beta, s, omega = fully_driven_frequency(gain, g_star, w_ref, TANK)
        assert (beta, s) == (beta_ref, s_ref)
        tol = 1e-14 + (4 * EPS / arg if arg > 0 else 0.0)
        assert abs(omega - omega_ref) <= tol * omega_ref

    def test_forward_model_agreement(self):
        # the returned point must deliver the requested W through the
        # full model, buck and boost side
        g_star = 0.95
        for gain in (0.5, 0.95, 1.4, 1.9):
            w_ref = 0.05
            beta, s, omega = fully_driven_frequency(gain, g_star, w_ref, TANK)
            p = SwitchingParams(d=math.pi, s=s, beta=beta, omega=omega)
            w = transconductance(p, gain, TANK)
            assert w == pytest.approx(w_ref, rel=1e-6)

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroPowerReferenceError):
            fully_driven_frequency(0.5, 0.95, 0.0, TANK)

    def test_nan_reference_rejected(self):
        # NaN names W*, as required_impedance does, and is not taken for
        # zero power; neither is a negative W* or -inf, and inf gives no
        # Z = 0 (the resonant frequency)
        for w_ref in (math.nan, math.inf, -math.inf, -0.05):
            with pytest.raises(ValueError, match="W\\*"):
                fully_driven_frequency(0.5, 0.95, w_ref, TANK)


class TestSAddZeroBoundary:
    def test_exists_and_matches_h0(self):
        r = refs(0.1, 0.0)
        h0 = gain_term_h(r, 0.7)
        s0 = s_add_zero_boundary(r, 0.7)
        assert s0 > 0
        h_at = k.regulated_point(0.1, 0.0, s0, 0.7, 0.0, 0.0)[3]
        assert h_at == pytest.approx(h0, rel=1e-6)

    def test_monotone_case_returns_zero(self):
        assert s_add_zero_boundary(refs(0.1, 0.5), 0.5) == 0.0

    def test_full_short_kills_power(self):
        # H(pi) = 0 regardless of gain: cos(pi+delta*) + cos(delta*) = 0
        for gain in (0.5, 0.7, 1.0, 1.3, 2.0):
            assert k.regulated_point(0.1, 0.0, math.pi, gain, 0.0, 0.0)[3] \
                == pytest.approx(0.0, abs=1e-12)

    def test_h_non_increasing_past_boundary(self):
        for gain in (0.7, 1.0, 1.3):
            s0 = s_add_zero_boundary(refs(0.1, 0.0), gain)
            grid = np.arange(s0, math.pi, math.pi / 256)
            hs = [k.regulated_point(0.1, 0.0, x, gain, 0.0, 0.0)[3]
                  for x in grid]
            for a, b in zip(hs, hs[1:]):
                assert b <= a + 1e-9


class TestSolveControls:
    def test_analytic_branch_exact(self):
        r = refs(0.1, 0.0)
        h0 = gain_term_h(r, 0.7)
        w0 = TANK.turns_ratio * h0 / (
            2 * math.pi ** 2 * tank_impedance(TANK.omega_max, TANK))
        sol = solve_controls(r, 0.7, 2 * w0, TANK)
        assert not sol.low_power
        assert sol.s_add == 0.0
        assert sol.params.omega < TANK.omega_max
        w = transconductance(sol.params, 0.7, TANK)
        assert w == pytest.approx(2 * w0, rel=1e-6)

    def test_low_power_halving(self):
        r = refs(0.1, 0.0)
        h0 = gain_term_h(r, 0.7)
        w0 = TANK.turns_ratio * h0 / (
            2 * math.pi ** 2 * tank_impedance(TANK.omega_max, TANK))
        sol = solve_controls(r, 0.7, w0 / 2, TANK)
        assert sol.low_power
        assert sol.params.omega == TANK.omega_max
        assert sol.s_add > s_add_zero_boundary(r, 0.7)
        w = transconductance(sol.params, 0.7, TANK)
        assert w == pytest.approx(w0 / 2, rel=0.01)

    def test_nan_power_reference_rejected(self):
        # NaN fails every comparison, so without the check it would run
        # the cold scan against a NaN target; an infinite W* would solve
        # to Z = 0, the resonant frequency
        for w_ref in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="W\\*"):
                solve_controls(refs(0.1, 0.0), 0.7, w_ref, TANK)

    @pytest.mark.parametrize("corrections, message", [
        ((math.nan, 0.0), "s out of \\[0, pi\\]: nan"),
        ((0.0, math.nan), "beta out of \\[-pi, pi\\]: nan"),
    ], ids=["sigma_reg", "delta_reg"])
    def test_nan_correction_rejected(self, corrections, message):
        # a NaN correction passes the kernel's clamps; SwitchingParams'
        # range checks are what stop it
        with pytest.raises(ValueError, match=message):
            solve_controls(refs(0.1, 0.0), 0.9, 0.05, default_tank(),
                           corrections)

    @pytest.mark.parametrize("references, delta_reg, beta", [
        ((1.4, 1.5), 0.5, math.pi), ((-1.4, -1.5), -0.5, -math.pi)],
        ids=["above", "below"])
    def test_corrected_beta_clamped_to_its_range(self, references, delta_reg,
                                                 beta):
        # sigma* + delta* + delta_reg = +-3.4 leaves [-pi, pi]
        sol = solve_controls(ControlReferences(*references), 1.0, 0.01,
                             default_tank(), (0.0, delta_reg))
        assert sol.params.beta == beta

    def test_zero_reference_full_short(self):
        sol = solve_controls(refs(0.1, 0.0), 0.7, 0.0, TANK)
        assert sol.s_add == math.pi
        assert transconductance(sol.params, 0.7, TANK) == 0.0
        assert sol.params.s == math.pi

    def test_zero_reference_hands_no_warm_state_on(self):
        # W* = 0 is a low-power result, but its s_add = pi is no root of
        # the dimming curve to start the next low-power search from: it
        # hands on the warm state it was given
        r = refs(0.1, 0.0)
        warm = (1.0, 2.0, 0.0)
        sol = solve_controls(r, 0.7, 0.0, TANK, warm=warm)
        assert sol.low_power
        assert sol.warm is warm
        h0 = gain_term_h(r, 0.7)
        w0 = TANK.turns_ratio * h0 / (
            2 * math.pi ** 2 * tank_impedance(TANK.omega_max, TANK))
        assert solve_controls(r, 0.7, w0 / 2, TANK).warm is not None

    def test_warm_state_of_three_elements(self):
        # a low-power solve hands (s_add, s_peak, slope) on, and the next
        # solve warm-starts from it
        r = refs(0.1, 0.0)
        h0 = gain_term_h(r, 0.7)
        w0 = TANK.turns_ratio * h0 / (
            2 * math.pi ** 2 * tank_impedance(TANK.omega_max, TANK))
        first = solve_controls(r, 0.7, w0 / 2, TANK, warm=(1.0, -1.0, 0.0))
        assert len(first.warm) == 3 and first.warm[2] < 0.0
        cold = solve_controls(r, 0.7, 0.45 * w0, TANK)
        sol = solve_controls(r, 0.7, 0.45 * w0, TANK, warm=first.warm)
        assert sol[:3] == cold[:3]
        assert sol.warm[:2] != cold.warm[:2]    # s_peak: a warm solve
        assert sol.warm[2] < 0.0

    def test_analytic_solve_hands_the_warm_state_on(self):
        # an analytic solve does not touch the low-power state
        r = refs(0.1, 0.0)
        h0 = gain_term_h(r, 0.7)
        w0 = TANK.turns_ratio * h0 / (
            2 * math.pi ** 2 * tank_impedance(TANK.omega_max, TANK))
        warm = (1.0, 2.0, -0.5)
        sol = solve_controls(r, 0.7, 2 * w0, TANK, warm=warm)
        assert not sol.low_power
        assert sol.warm is warm

    def test_solution_record_fields(self):
        sol = solve_controls(refs(0.1, 0.0), 0.7, 0.02, TANK)
        assert isinstance(sol, PowerSolution)
        assert sol._fields == ("params", "s_add", "low_power", "warm")
        assert isinstance(sol.params, SwitchingParams)
        p = sol.params
        assert 0.0 <= p.d <= math.pi and 0.0 <= p.s <= math.pi
        assert -math.pi <= p.beta <= math.pi
        assert p.omega > 0.0
        assert sol.s_add >= 0.0
        assert transconductance(sol.params, 0.7, TANK) > 0.0
        assert sol.low_power in (True, False)
        with pytest.raises(AttributeError):
            sol.s_add = 1.0

    def test_collapse_unreachable(self):
        with pytest.raises(UnreachablePowerError):
            solve_controls(refs(0.0, 0.0), 1.0, 0.01, TANK)

    def test_low_power_monotone_dimming(self):
        # delivered W follows the requested power, and s_add rises as it
        # falls, for fixed refs
        r = refs(0.1, 0.0)
        h0 = gain_term_h(r, 1.3)
        w0 = TANK.turns_ratio * h0 / (
            2 * math.pi ** 2 * tank_impedance(TANK.omega_max, TANK))
        previous = None
        for frac in (0.9, 0.7, 0.5, 0.3, 0.1, 0.02):
            sol = solve_controls(r, 1.3, frac * w0, TANK)
            assert sol.low_power
            assert transconductance(sol.params, 1.3, TANK) == \
                pytest.approx(frac * w0, rel=0.01)
            if previous is not None:
                assert sol.s_add > previous
            previous = sol.s_add

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(sigma_ref=st.floats(-0.5, 0.5), delta_ref=st.floats(-0.5, 0.5),
           s_add=st.floats(0.0, 1.5), gain=st.floats(0.25, 2.0),
           w_ref=st.floats(1e-4, 0.05))
    def test_solution_delivers_the_request_property(
            self, sigma_ref, delta_ref, s_add, gain, w_ref):
        # at zero corrections the forward model at the chosen parameters
        # delivers W*: to rounding on the analytic branch and within the
        # scan's W_REL_TOL at low power, with s_add > 0 in boost too
        try:
            sol = solve_controls(refs(sigma_ref, delta_ref, s_add), gain,
                                 w_ref, TANK)
        except (InfeasibleReferenceError, UnreachablePowerError):
            return
        _amp, sigma, _delta, degenerate = k.forward_point(
            sol.params.d, sol.params.s, sol.params.beta, gain)
        assert not degenerate
        assert abs(sigma - sigma_ref) <= 1e-9
        w = transconductance(sol.params, gain, TANK)
        tol = k.W_REL_TOL + 1e-9 if sol.low_power else 1e-9
        assert abs(w - w_ref) <= tol * w_ref


class TestFeasibilityContract:
    """solve_controls and the inverse map decide feasibility alike."""

    def test_negative_a_references_are_infeasible(self):
        # the inverse rejects these because A < 0 at its point
        r = refs(-0.318, -0.499, 0.208)
        assert not try_invert_alignment(r, 0.787).feasible
        with pytest.raises(InfeasibleReferenceError):
            solve_controls(r, 0.787, 0.01, default_tank())

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(sigma_ref=st.floats(-0.5, 0.5), delta_ref=st.floats(-0.5, 0.5),
           s_add=st.floats(0.0, 1.5), gain=st.floats(0.25, 2.0),
           w_ref=st.floats(1e-4, 0.05))
    @example(sigma_ref=-0.318, delta_ref=-0.499, s_add=0.208, gain=0.787,
             w_ref=0.01)
    def test_infeasible_exactly_when_the_inverse_is_property(
            self, sigma_ref, delta_ref, s_add, gain, w_ref):
        r = refs(sigma_ref, delta_ref, s_add)
        feasible = try_invert_alignment(r, gain).feasible
        try:
            solve_controls(r, gain, w_ref, default_tank())
            raised = False
        except UnreachablePowerError:
            raised = False
        except InfeasibleReferenceError:
            raised = True
        assert raised == (not feasible)


class TestDomains:
    def test_fully_driven_frequency_rejects_non_positive_gain(self):
        for gain in (-0.5, 0.0):
            with pytest.raises(ValueError):
                fully_driven_frequency(gain, 0.95, 0.05, TANK)

    def test_infeasible_references_raise(self):
        # A < 0 at the inverse-map point for these references
        r = refs(0.2, -1.0)
        with pytest.raises(InfeasibleReferenceError):
            gain_term_h(r, 0.9)
        with pytest.raises(InfeasibleReferenceError):
            s_add_zero_boundary(r, 0.9)

    @pytest.mark.parametrize("call", [
        lambda g: gain_term_h(refs(), g),
        lambda g: s_add_zero_boundary(refs(), g),
        lambda g: fully_driven_frequency(g, 0.95, 0.05, TANK),
    ], ids=["gain_term_h", "s_add_zero_boundary", "fully_driven_frequency"])
    def test_nan_gain_rejected(self, call):
        # each gain check reads "not gain > 0", which NaN fails too
        with pytest.raises(ValueError, match="gain"):
            call(math.nan)

    @pytest.mark.parametrize("call", [
        lambda g: gain_term_h(refs(), g),
        lambda g: s_add_zero_boundary(refs(), g),
        lambda g: fully_driven_frequency(g, 0.95, 0.05, TANK),
    ], ids=["gain_term_h", "s_add_zero_boundary", "fully_driven_frequency"])
    def test_infinite_gain_rejected(self, call):
        # an infinite G would otherwise give H = NaN, s_add0 = 0 or a
        # ValueError about Z instead of G
        with pytest.raises(ValueError, match="gain must be positive"):
            call(math.inf)

    def test_nan_impedance_rejected(self):
        with pytest.raises(ValueError, match="Z"):
            frequency_from_impedance(math.nan, TANK)

    def test_non_positive_gain_rejected(self):
        for gain in (-1.0, 0.0):
            with pytest.raises(ValueError):
                gain_term_h(refs(), gain)
            with pytest.raises(ValueError):
                s_add_zero_boundary(refs(), gain)
