"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import math
import time

import numpy as np
import pytest

from dbsrc import (ControlReferences, PiController, ScenarioConfig,
                   SwitchingParams, TankConfig, fully_driven_maps,
                   gain_term_h, invert_alignment, linearized_inverse,
                   q_combine, q_from_references, q_split, run_scenario,
                   s_add_zero_boundary, solve_controls,
                   tank_current_amplitude, tank_impedance, transconductance,
                   try_invert_alignment, frequency_from_impedance)
from dbsrc import _kernels as k

TANK = TankConfig(inductance=80e-6, capacitance=47e-9, turns_ratio=1.0,
                  omega_max=2 * math.pi * 165e3)

GRID_ANGLES = np.arange(-0.5, 0.5001, 0.05)
GRID_GAINS = (0.25, 0.5, 0.95, 1.0, 1.05, 1.5, 2.0)
GRID_S_ADD = (0.0, 0.2, 1.0)


def report(number: int, description: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def refs(sigma, delta, s_add=0.0):
    return ControlReferences(sigma_ref=sigma, delta_ref=delta, s_add=s_add)


def grid_points():
    for gain in GRID_GAINS:
        for sigma_ref in GRID_ANGLES:
            for delta_ref in GRID_ANGLES:
                for s_add in GRID_S_ADD:
                    yield sigma_ref, delta_ref, s_add, gain


def test_criterion_1_resonant_frequency():
    omega = frequency_from_impedance(0.0, TANK)
    target = 2 * math.pi * 82.07e3
    ok = abs(omega - target) / target < 0.005
    report(1, f"resonant frequency {omega/(2*math.pi):.1f} Hz within 0.5% "
              f"of 82.07 kHz", ok)


def test_criterion_2_round_trip():
    start = time.perf_counter()
    worst = 0.0
    feasible = 0
    for sigma_ref, delta_ref, s_add, gain in grid_points():
        d, s, beta, _smin, _boost, ok = k.invert_exact(
            sigma_ref, delta_ref, s_add, gain)
        if not ok:
            continue
        _amp, sigma, delta, degen = k.forward_point(d, s, beta, gain)
        if degen:
            continue  # the collapse point itself; covered by criterion 4
        feasible += 1
        worst = max(worst, abs(sigma - sigma_ref), abs(delta - delta_ref))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and feasible > 5000 and elapsed < 1.0
    report(2, f"round trip on {feasible} feasible grid points, worst "
              f"angle error {worst:.2e} (< 1e-9), {elapsed:.2f} s", ok)


def test_criterion_3_inversion_condition_residual():
    worst_res = 0.0
    worst_a = 0.0
    for sigma_ref, delta_ref, s_add, gain in grid_points():
        d, s, beta, _smin, _boost, ok = k.invert_exact(
            sigma_ref, delta_ref, s_add, gain)
        if not ok:
            continue
        residual = gain * math.cos(delta_ref + s) + gain * math.cos(delta_ref) \
            + math.cos(d - sigma_ref) - math.cos(sigma_ref)
        worst_res = max(worst_res, abs(residual))
        a1 = math.sin(d) + gain * math.sin(beta + s) + gain * math.sin(beta)
        worst_a = min(worst_a, a1)
    ok = worst_res < 1e-12 and worst_a >= -1e-12
    report(3, f"inversion-condition residual {worst_res:.2e} (< 1e-12), "
              f"min A {worst_a:.2e} (>= 0)", ok)


def test_criterion_4_collapse_point():
    res = invert_alignment(refs(0.0, 0.0), 1.0)
    p = SwitchingParams(d=res.params.d, s=res.params.s, beta=res.params.beta,
                        omega=2 * math.pi * 120e3)
    i_t = tank_current_amplitude(p, 1.0, 600.0, TANK)
    w = transconductance(p, 1.0, TANK)
    ok = (res.params.d == math.pi and res.params.s == 0.0
          and res.params.beta == 0.0 and i_t == 0.0 and w == 0.0)
    report(4, f"collapse point d={res.params.d}, s={res.params.s}, "
              f"beta={res.params.beta}, I_t={i_t}, W={w}", ok)


def test_criterion_5_mode_boundary_continuity():
    worst = 0.0
    for sigma_ref, delta_ref in ((0.3, 0.1), (0.2, 0.15), (-0.25, 0.2)):
        g_b = math.cos(sigma_ref) / math.cos(delta_ref)
        lo = invert_alignment(refs(sigma_ref, delta_ref), g_b - 1e-6).params
        hi = invert_alignment(refs(sigma_ref, delta_ref), g_b + 1e-6).params
        worst = max(worst, abs(lo.d - hi.d), abs(lo.s - hi.s))
    beta_at, s_at = fully_driven_maps(0.95, 0.95)
    fd_jump = 0.0
    for eps in (1e-8,):
        b1, s1 = fully_driven_maps(0.95 - eps, 0.95)
        b2, s2 = fully_driven_maps(0.95 + eps, 0.95)
        fd_jump = max(fd_jump, abs(b1 - beta_at), abs(b2 - beta_at),
                      abs(s1 - s_at), abs(s2 - s_at))
    ok = worst < 1e-3 and s_at == 0.0 and fd_jump < 1e-3
    report(5, f"buck/boost crossing moves (d, s) by {worst:.2e} (< 1e-3); "
              f"fully-driven s(G*)={s_at}, jump {fd_jump:.2e}", ok)


def test_criterion_6_q_equivalence():
    worst_q = 0.0
    worst_ds = 0.0
    mode_ok = True
    for sigma_ref, delta_ref, s_add, gain in grid_points():
        r = refs(sigma_ref, delta_ref, s_add)
        res = try_invert_alignment(r, gain)
        if not res.feasible:
            continue
        q, mode = q_from_references(r, gain)
        mode_ok = mode_ok and (mode is res.mode)
        worst_q = max(worst_q, abs(
            q - q_combine(res.params.d, res.params.s, res.mode)))
        # the scalar q encodes (d, s) losslessly on the s_add = 0,
        # sigma* >= 0 subgrid; check the split there
        if s_add == 0.0 and sigma_ref >= 0.0:
            d, s = q_split(q, s_add)
            worst_ds = max(worst_ds, abs(d - res.params.d),
                           abs(s - res.params.s))
    ok = worst_q < 1e-12 and worst_ds < 1e-12 and mode_ok
    report(6, f"q route vs exact inverse: q error {worst_q:.2e}, (d, s) "
              f"split error {worst_ds:.2e} (< 1e-12), modes match", ok)


def test_criterion_7_frequency_solve():
    worst = 0.0
    for z in [0.0] + list(np.geomspace(1e-3, 1e4, 200)):
        omega = frequency_from_impedance(z, TANK)
        back = tank_impedance(omega, TANK)
        worst = max(worst, abs(back - z) / max(z, 1e-3))
    ok = worst < 1e-9
    report(7, f"impedance round trip on Z in [0, 1e4]: worst relative "
              f"residual {worst:.2e} (< 1e-9)", ok)


def test_criterion_8_low_power_law():
    start = time.perf_counter()
    sigma_ref, delta_ref = 0.1, 0.0
    non_monotone_seen = False
    ok = True
    details = []
    for gain in (0.7, 1.0, 1.3):
        h0 = k.regulated_point(sigma_ref, delta_ref, 0.0, gain, 0.0, 0.0)[3]
        h_pi = k.regulated_point(sigma_ref, delta_ref, math.pi, gain,
                                 0.0, 0.0)[3]
        ok = ok and abs(h0 / h0 - 1.0) == 0.0 and abs(h_pi / h0) < 1e-12
        s0 = s_add_zero_boundary(refs(sigma_ref, delta_ref), gain)
        grid = np.arange(0.0, s0, math.pi / 256)
        if any(k.regulated_point(sigma_ref, delta_ref, x, gain, 0.0, 0.0)[3]
               > h0 * (1 + 1e-9) for x in grid):
            non_monotone_seen = True
        tail = np.arange(s0, math.pi, math.pi / 256)
        hs = [k.regulated_point(sigma_ref, delta_ref, x, gain, 0.0, 0.0)[3]
              for x in tail]
        decreasing = all(b <= a + 1e-9 for a, b in zip(hs, hs[1:]))
        ok = ok and decreasing
        details.append(f"G={gain}: s_add0={s0:.3f} monotone_tail={decreasing}")
    elapsed = time.perf_counter() - start
    ok = ok and non_monotone_seen and elapsed < 5.0
    report(8, f"dimming law (W/W0: 1 at 0, 0 at pi; hump before s_add0; "
              f"non-increasing after): {'; '.join(details)}; "
              f"non-monotone seen={non_monotone_seen}, {elapsed:.2f} s", ok)


def test_criterion_9_power_halving():
    r = refs(0.1, 0.0)
    gain = 0.7
    h0 = gain_term_h(r, gain)
    z_max = tank_impedance(TANK.omega_max, TANK)
    w0 = TANK.turns_ratio * h0 / (2 * math.pi ** 2 * z_max)
    sol = solve_controls(r, gain, w0 / 2, TANK)
    w = transconductance(sol.params, gain, TANK)
    rel = abs(w - w0 / 2) / (w0 / 2)
    ok = sol.low_power and sol.params.omega == TANK.omega_max and rel < 0.01
    report(9, f"half-power request at pinned omega_max met within "
              f"{rel * 100:.4f}% (< 1%) using s_add={sol.s_add:.3f} rad", ok)


def test_criterion_10_charger_scenario():
    start = time.perf_counter()
    cfg = ScenarioConfig()
    trace = run_scenario(cfg)  # default gains and default uncertainties
    elapsed = time.perf_counter() - start

    t = trace["t"]
    i_out = trace["I_out"]
    i_ref = trace["I_ref"]
    v_bat = trace["V_bat"]
    gain = trace["G"]
    s_add = trace["s_add"]
    d = trace["d"]
    s = trace["s"]
    sigma = trace["sigma"]
    delta = trace["delta"]

    at_cc = np.flatnonzero(i_ref >= 0.999 * cfg.i_cc)
    cc_window = (t >= t[at_cc[0]] + 2.0) & (t <= t[at_cc[-1]] - 0.5)
    cc_err = float(np.max(np.abs(i_out[cc_window] - cfg.i_cc)) / cfg.i_cc)
    cv_err = float(abs(v_bat[-1] - cfg.v_cv) / cfg.v_cv)
    delta_err_cc = float(np.max(np.abs(delta[cc_window] - cfg.delta_ref)))
    sigma_err_cc = float(np.max(np.abs(sigma[cc_window] - cfg.sigma_ref)))
    delta_err_tail = float(np.max(np.abs(delta[-2000:] - cfg.delta_ref)))

    modes = {
        "low-power buck": (s_add > 1e-6) & (gain < 1),
        "buck": (s_add <= 1e-6) & (d < math.pi - 1e-6) & (gain < 1),
        "boost": (s_add <= 1e-6) & (np.abs(d - math.pi) < 1e-9) & (s > 1e-6),
        "low-power boost": (s_add > 1e-6) & (gain > 1),
    }
    firsts = [np.flatnonzero(m)[0] if m.any() else -1 for m in modes.values()]
    sequence_ok = all(f >= 0 for f in firsts) and firsts == sorted(firsts)

    # unity gain crossed roughly mid-charge (turns ratio 600/320)
    t_unity = t[np.flatnonzero(gain >= 1.0)[0]]
    mid_ok = 0.3 * cfg.duration < t_unity < 0.7 * cfg.duration

    ok = (cc_err < 0.02 and cv_err < 0.01 and delta_err_cc < 5e-3
          and sigma_err_cc < 5e-3 and delta_err_tail < 5e-3
          and sequence_ok and mid_ok and elapsed < 30.0)
    report(10, f"charger with beta-0.1/Lx1.05 uncertainty: CC error "
               f"{cc_err * 100:.2f}% (< 2%), CV {v_bat[-1]:.1f} V "
               f"({cv_err * 100:.3f}% < 1%), |delta-delta*| "
               f"{max(delta_err_cc, delta_err_tail):.1e} (< 5e-3), "
               f"mode order {'ok' if sequence_ok else 'BROKEN'}, G=1 at "
               f"t={t_unity:.1f}/{cfg.duration:.0f} s, "
               f"{elapsed:.1f} s (< 30 s)", ok)


def test_criterion_11_linearized_map_degradation():
    # open loop: the linearized inverse leaves a visible steady error for
    # references away from zero
    sigma_ref, delta_ref = 0.3, 0.2
    open_loop_errs = []
    closed_loop_errs = []
    for gain in (0.5, 2.0):
        d, s, beta = linearized_inverse(refs(sigma_ref, delta_ref), gain)
        _amp, sg, dl, _deg = k.forward_point(d, s, beta, gain)
        open_loop_errs.append(max(abs(sg - sigma_ref), abs(dl - delta_ref)))

        # series PI around the linearized map
        dt = 1e-4
        pi_s = PiController(0.5, 200.0, dt, -0.5, 0.5)
        pi_d = PiController(0.5, 200.0, dt, -0.5, 0.5)
        sg_m = dl_m = 0.0
        for _ in range(3000):
            corr_s = pi_s.step(sigma_ref - sg_m)
            corr_d = pi_d.step(delta_ref - dl_m)
            d, s, beta = linearized_inverse(
                refs(min(max(sigma_ref + corr_s, -1.5), 1.5),
                     min(max(delta_ref + corr_d, -1.5), 1.5)), gain)
            _amp, sg_m, dl_m, _deg = k.forward_point(d, s, beta, gain)
        closed_loop_errs.append(max(abs(sg_m - sigma_ref),
                                    abs(dl_m - delta_ref)))
    ok = min(open_loop_errs) > 1e-3 and max(closed_loop_errs) < 1e-3
    report(11, f"linearized map: open-loop angle errors "
               f"{[f'{e:.3f}' for e in open_loop_errs]} (visible), with PI "
               f"{[f'{e:.1e}' for e in closed_loop_errs]} (< 1e-3)", ok)
