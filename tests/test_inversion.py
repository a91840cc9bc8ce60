"""Inverse-map tests: branch selection, round trips, q equivalence,
special-case maps."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbsrc import (ControlReferences, InfeasibleReferenceError, Mode,
                   UndefinedAtUnityGainError, beta_zero_maps,
                   fully_driven_maps, invert_alignment, linearized_inverse,
                   q_combine, q_from_references, q_split,
                   try_invert_alignment)
from dbsrc import _kernels as k


def refs(sigma=0.0, delta=0.0, s_add=0.0):
    return ControlReferences(sigma_ref=sigma, delta_ref=delta, s_add=s_add)


def forward_angles(params, gain):
    _amp, sigma, delta, degenerate = k.forward_point(
        params.d, params.s, params.beta, gain)
    assert not degenerate
    return sigma, delta


def inversion_residual(params, sigma_ref, delta_ref, gain):
    """G cos(delta* + s) + G cos delta* + cos(d - sigma*) - cos sigma*"""
    return gain * math.cos(delta_ref + params.s) + gain * math.cos(delta_ref) \
        + math.cos(params.d - sigma_ref) - math.cos(sigma_ref)


def composed_regulated_point(sigma_ref, delta_ref, s_add, gain, sigma_reg,
                             delta_reg):
    """_kernels.regulated_point as the composition it folds:
    q_reference, the corrections and their clamps, the q split, A and
    H."""
    q, d, is_boost, feasible = k.q_reference(sigma_ref, delta_ref, s_add,
                                             gain)
    beta = min(max(sigma_ref + delta_ref + delta_reg, -math.pi), math.pi)
    q = min(max(q + sigma_reg, 0.0), 2.0 * math.pi)
    d, s = (q, s_add) if q <= math.pi else (d, q - math.pi)
    a = 4.0 * math.sin(d) + 4.0 * gain * math.sin(beta + s) \
        + 4.0 * gain * math.sin(beta)
    if a < k.A_MIN or not feasible:
        return d, s, beta, 0.0, False, is_boost
    h = a * (math.cos(s + delta_ref) + math.cos(delta_ref)) \
        / math.cos(sigma_ref)
    return d, s, beta, h, True, is_boost


class TestInvertAlignment:
    def test_basic_buck(self):
        res = invert_alignment(refs(), 0.5)
        assert res.mode is Mode.BUCK
        assert res.params.d == pytest.approx(math.pi / 2, abs=1e-15)
        assert res.params.s == 0.0
        assert res.params.beta == 0.0
        assert res.s_min == 0.0

    def test_unity_gain_full_square(self):
        res = invert_alignment(refs(), 1.0)
        assert res.params.d == math.pi
        assert res.params.s == 0.0
        assert res.params.beta == 0.0

    def test_basic_boost(self):
        res = invert_alignment(refs(), 2.0)
        assert res.mode is Mode.BOOST
        assert res.params.d == math.pi
        assert res.params.s == pytest.approx(math.pi / 2, abs=1e-15)
        assert res.params.beta == 0.0

    def test_round_trip_boost_with_s_add(self):
        res = invert_alignment(refs(0.3, 0.1, 0.2), 1.2)
        sigma, delta = forward_angles(res.params, 1.2)
        assert sigma == pytest.approx(0.3, abs=1e-9)
        assert delta == pytest.approx(0.1, abs=1e-9)

    def test_infeasible_raises(self):
        # buck branch with cos(delta*+s_add)+cos(delta*) < 0: the acos
        # argument exceeds +1, no d exists
        with pytest.raises(InfeasibleReferenceError):
            invert_alignment(refs(-0.3, 0.5, 2.5), 2.0)

    def test_round_trip_grid(self):
        gains = (0.25, 0.5, 0.95, 1.0, 1.05, 1.5, 2.0)
        angles = np.arange(-0.5, 0.5001, 0.05)
        for gain in gains:
            for sigma_ref in angles:
                for delta_ref in angles:
                    for s_add in (0.0, 0.2, 1.0):
                        res = try_invert_alignment(
                            refs(sigma_ref, delta_ref, s_add), gain)
                        if not res.feasible:
                            continue
                        amp, sigma, delta, degen = k.forward_point(
                            res.params.d, res.params.s, res.params.beta, gain)
                        if degen:
                            continue  # collapse point sigma*=delta*=0, G=1
                        assert abs(sigma - sigma_ref) < 1e-9
                        assert abs(delta - delta_ref) < 1e-9

    def test_inversion_condition_residual_grid(self):
        gains = (0.25, 0.95, 1.05, 2.0)
        angles = np.arange(-0.5, 0.5001, 0.1)
        for gain in gains:
            for sigma_ref in angles:
                for delta_ref in angles:
                    for s_add in (0.0, 0.2, 1.0):
                        res = try_invert_alignment(
                            refs(sigma_ref, delta_ref, s_add), gain)
                        if not res.feasible:
                            continue
                        assert abs(inversion_residual(
                            res.params, sigma_ref, delta_ref, gain)) < 1e-12

    def test_branch_continuity_in_gain(self):
        # crossing 2 cos(sigma*) = G (cos(delta*+s_add) + cos(delta*)) moves
        # (d, s) by less than 1e-3 for a 1e-6 gain perturbation.  Needs
        # s_add = 0 and delta* >= 0: for delta* < 0 the boost acos lands on
        # the far root and the minimal valid short-time jumps by 2|delta*|;
        # sigma* away from 0 avoids the acos square-root singularity.
        for sigma_ref, delta_ref in ((0.3, 0.1), (0.2, 0.15), (-0.25, 0.2)):
            g_boundary = 2 * math.cos(sigma_ref) / (
                math.cos(delta_ref) + math.cos(delta_ref))
            lo = invert_alignment(refs(sigma_ref, delta_ref),
                                  g_boundary - 1e-6)
            hi = invert_alignment(refs(sigma_ref, delta_ref),
                                  g_boundary + 1e-6)
            assert lo.mode is Mode.BUCK
            assert hi.mode is Mode.BOOST
            assert abs(lo.params.d - hi.params.d) < 1e-3
            assert abs(lo.params.s - hi.params.s) < 1e-3
            assert hi.s_min < 1e-3

    def test_minimality_of_short_time(self):
        # no smaller s admits any d in [0, pi] satisfying the inversion
        # condition (brute-force scan at 1e-3 step).  Holds for
        # sigma* >= 0 (the soft-switching domain); for sigma* < 0 the
        # condition admits a second d root below pi that the closed form
        # does not use.
        cases = [(0.2, 0.1, 1.4), (0.0, 0.0, 2.0), (0.3, -0.2, 1.1),
                 (0.25, 0.15, 1.6), (0.1, 0.0, 0.7)]
        for sigma_ref, delta_ref, gain in cases:
            res = try_invert_alignment(refs(sigma_ref, delta_ref), gain)
            if not res.feasible:
                continue
            s_returned = res.params.s
            for s_try in np.arange(0.0, s_returned - 1e-3, 1e-3):
                # d would need cos(d - sigma*) = cos sigma* - G cos(delta*+s)
                # - G cos delta*, with d in [0, pi]
                target = math.cos(sigma_ref) \
                    - gain * math.cos(delta_ref + s_try) \
                    - gain * math.cos(delta_ref)
                if abs(target) > 1.0:
                    continue  # no d at all
                d_try = math.acos(target) + sigma_ref
                assert not (0.0 <= d_try <= math.pi), (
                    f"smaller s={s_try} works at "
                    f"({sigma_ref}, {delta_ref}, G={gain})")


class TestQMaps:
    def test_q_combine_examples(self):
        assert q_combine(math.pi / 2, 0.0, Mode.BUCK) == math.pi / 2
        assert q_combine(math.pi, math.pi / 2, Mode.BOOST) == 3 * math.pi / 2
        # continuity at the branch point
        assert q_combine(math.pi, 0.0, Mode.BUCK) == math.pi
        assert q_combine(math.pi, 0.0, Mode.BOOST) == math.pi

    def test_q_split_examples(self):
        assert q_split(math.pi / 2, 0.2) == (math.pi / 2, 0.2)
        d, s = q_split(3 * math.pi / 2, 0.2)
        assert d == math.pi
        assert s == pytest.approx(math.pi / 2, abs=1e-15)
        assert q_split(math.pi, 0.0) == (math.pi, 0.0)

    def test_q_from_references_buck(self):
        q, mode = q_from_references(refs(), 0.5)
        assert mode is Mode.BUCK
        assert q == pytest.approx(math.pi / 2, abs=1e-15)

    def test_q_from_references_boost(self):
        q, mode = q_from_references(refs(), 2.0)
        assert mode is Mode.BOOST
        assert q == pytest.approx(3 * math.pi / 2, abs=1e-15)

    def test_q_equivalence_random(self):
        # q computed directly from the references must equal q_combine of
        # the exact inverse map, with matching mode
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 300:
            sigma_ref = rng.uniform(-0.5, 0.5)
            delta_ref = rng.uniform(-0.5, 0.5)
            s_add = rng.choice([0.0, 0.2, 1.0])
            gain = rng.uniform(0.2, 2.2)
            r = refs(sigma_ref, delta_ref, s_add)
            res = try_invert_alignment(r, gain)
            if not res.feasible:
                continue
            q, mode = q_from_references(r, gain)
            assert mode is res.mode
            assert abs(q - q_combine(res.params.d, res.params.s,
                                     res.mode)) < 1e-12
            checked += 1

    def test_q_split_matches_inverse_map_at_zero_s_add(self):
        # with s_add = 0 and sigma* >= 0 the scalar q encodes the exact
        # solution: splitting recovers (d, s) identically
        grid = np.arange(0.0, 0.5001, 0.05)
        gains = (0.25, 0.5, 0.95, 1.0, 1.05, 1.5, 2.0)
        for gain in gains:
            for sigma_ref in grid:
                for delta_ref in np.arange(-0.5, 0.5001, 0.05):
                    r = refs(sigma_ref, delta_ref, 0.0)
                    res = try_invert_alignment(r, gain)
                    if not res.feasible:
                        continue
                    q, _mode = q_from_references(r, gain)
                    d, s = q_split(q, 0.0)
                    assert abs(d - res.params.d) < 1e-12
                    assert abs(s - res.params.s) < 1e-12

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(d=st.floats(0.0, math.pi), s_add=st.floats(0.0, math.pi))
    def test_q_round_trip_buck_property(self, d, s_add):
        # buck: s stays at s_add and q carries d
        q = q_combine(d, s_add, Mode.BUCK)
        assert 0.0 <= q <= 2.0 * math.pi
        d_back, s_back = q_split(q, s_add)
        assert abs(d_back - d) <= 1e-15
        assert abs(s_back - s_add) <= 1e-15

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(s=st.floats(0.0, math.pi, exclude_min=True),
           share=st.floats(0.0, 1.0))
    def test_q_round_trip_boost_property(self, s, share):
        # boost: d = pi and s (which includes s_add <= s) is folded into q
        s_add = share * s
        q = q_combine(math.pi, s, Mode.BOOST)
        assert 0.0 <= q <= 2.0 * math.pi
        d_back, s_back = q_split(q, s_add)
        assert abs(d_back - math.pi) <= 1e-15
        assert abs(s_back - s) <= 1e-15

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(sigma_ref=st.floats(-math.pi / 2, math.pi / 2),
           delta_ref=st.floats(-math.pi / 2, math.pi / 2),
           s_add=st.floats(0.0, math.pi), gain=st.floats(0.05, 3.0))
    def test_regulated_point_is_the_exact_inverse_property(
            self, sigma_ref, delta_ref, s_add, gain):
        # the controller's q split at zero corrections is the exact
        # inverse, and so dims along the same H
        d, s, beta, _s_min, _boost, ok = k.invert_exact(
            sigma_ref, delta_ref, s_add, gain)
        if not ok:
            return
        point = k.regulated_point(sigma_ref, delta_ref, s_add, gain, 0.0, 0.0)
        assert point[:3] == (d, s, beta)

    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(sigma_ref=st.floats(-math.pi / 2, math.pi / 2),
           delta_ref=st.floats(-math.pi / 2, math.pi / 2),
           s_add=st.floats(0.0, math.pi), gain=st.floats(0.05, 3.0),
           sigma_reg=st.floats(-0.5, 0.5), delta_reg=st.floats(-0.5, 0.5))
    @example(0.1, 0.0, 0.0, 1.3, 0.2, -0.1)
    @example(0.1, 0.0, math.pi, 0.8, 0.0, 0.0)
    @example(-0.3, 0.4, math.pi, 2.5, 0.5, -0.5)
    def test_regulated_point_equals_its_composition_property(
            self, sigma_ref, delta_ref, s_add, gain, sigma_reg, delta_reg):
        # regulated_point writes the q map, the split and A out in one
        # frame; this is the composition it folds, infeasible points too
        args = (sigma_ref, delta_ref, s_add, gain, sigma_reg, delta_reg)
        want = composed_regulated_point(*args)
        got = k.regulated_point(*args)
        assert got == want
        assert repr(got) == repr(want)      # signs of zero too


class TestFullyDrivenMaps:
    def test_buck_side(self):
        beta, s = fully_driven_maps(0.5, 0.95)
        assert beta == pytest.approx(math.acos(0.5), abs=1e-15)
        assert s == 0.0

    def test_continuity_at_g_star(self):
        beta, s = fully_driven_maps(0.95, 0.95)
        assert beta == pytest.approx(math.acos(0.95), abs=1e-15)
        assert s == 0.0

    def test_boost_side(self):
        beta, s = fully_driven_maps(1.9, 0.95)
        assert s == pytest.approx(math.pi / 2, abs=1e-12)
        assert beta == pytest.approx(math.acos(0.95), abs=1e-15)


class TestBetaZeroMaps:
    def test_examples(self):
        assert beta_zero_maps(0.5) == (pytest.approx(math.pi / 2, abs=1e-15), 0.0)
        assert beta_zero_maps(1.0) == (math.pi, 0.0)
        d, s = beta_zero_maps(2.0)
        assert d == math.pi
        assert s == pytest.approx(math.pi / 2, abs=1e-15)

    def test_residual_on_gain_grid(self):
        # 1 - G - cos d - G cos s = 0
        for gain in np.linspace(0.05, 3.0, 60):
            d, s = beta_zero_maps(gain)
            residual = 1.0 - gain - math.cos(d) - gain * math.cos(s)
            assert abs(residual) < 1e-12


class TestLinearizedInverse:
    def test_buck_example(self):
        d, s, beta = linearized_inverse(refs(0.1, 0.0), 0.5)
        assert d == pytest.approx(math.pi / 2 + 0.1, abs=1e-15)
        assert s == 0.0
        assert beta == pytest.approx(0.1, abs=1e-15)

    def test_boost_example(self):
        d, s, beta = linearized_inverse(refs(0.0, 0.1), 2.0)
        assert d == math.pi
        assert s == pytest.approx(math.pi / 2 - 0.1, abs=1e-12)
        assert beta == pytest.approx(0.1, abs=1e-15)

    def test_unity_gain_rejected(self):
        with pytest.raises(UndefinedAtUnityGainError):
            linearized_inverse(refs(0.1, 0.0), 1.0)

    def test_first_order_agreement_with_exact(self):
        # |linearized - exact| shrinks quadratically in the reference size
        for gain in (0.5, 2.0):
            for scale in (0.1, 0.05, 0.02):
                for sigma_ref, delta_ref in ((scale, 0.0), (0.0, scale),
                                             (scale, -scale)):
                    d_lin, s_lin, _ = linearized_inverse(
                        refs(sigma_ref, delta_ref), gain)
                    exact = invert_alignment(refs(sigma_ref, delta_ref), gain)
                    err = abs(d_lin - exact.params.d) + \
                        abs(s_lin - exact.params.s)
                    assert err < 10.0 * (abs(sigma_ref) + abs(delta_ref)) ** 2


class TestInfeasibleInRange:
    def test_failed_boost_on_time_is_infeasible(self):
        # boost needs s = s_min + s_add > pi here and the on-time acos
        # fails; the result must say infeasible, not carry s out of range
        r = refs(0.0, -1.0, 1.5)
        assert try_invert_alignment(r, 5.0).feasible is False
        with pytest.raises(InfeasibleReferenceError):
            invert_alignment(r, 5.0)

    def test_parameters_in_range_over_domain(self):
        rng = np.random.default_rng(2001)
        half_pi = math.pi / 2
        for _ in range(5000):
            r = refs(rng.uniform(-half_pi, half_pi),
                     rng.uniform(-half_pi, half_pi),
                     rng.uniform(0.0, math.pi))
            p = try_invert_alignment(r, rng.uniform(0.01, 5.0)).params
            assert 0.0 <= p.d <= math.pi
            assert 0.0 <= p.s <= math.pi
