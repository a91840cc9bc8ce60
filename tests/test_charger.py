"""Charger scenario component tests (short runs; the full study case
lives in the acceptance suite)."""

import math
from dataclasses import replace

import numpy as np
import pytest

import dbsrc.charger
from dbsrc import (BelowResonanceError, DegenerateTankCurrentError,
                   PiController, ScenarioAbort, ScenarioConfig,
                   SwitchingParams, battery_step, default_tank,
                   pack_voltage, plant_step, run_scenario, transconductance)
from dbsrc import _kernels as k


class TestBattery:
    def test_empty_voltage(self):
        assert pack_voltage(0.0, ScenarioConfig()) == 240.0

    def test_full_voltage(self):
        assert pack_voltage(30.0, ScenarioConfig()) == 400.0

    def test_zero_current_no_change(self):
        assert battery_step(5.0, 0.0, ScenarioConfig()) == 5.0

    def test_coulomb_counting(self):
        cfg = ScenarioConfig(dt=1.0, time_scale=1.0)
        assert battery_step(0.0, 25.0, cfg) == pytest.approx(
            25.0 / 3600.0, rel=1e-12)

    def test_clamped_at_capacity(self):
        cfg = ScenarioConfig(dt=10.0, time_scale=100.0)
        charge = battery_step(29.9999, 1000.0, cfg)
        assert charge == 30.0
        assert pack_voltage(charge, cfg) == 400.0

    def test_clamped_at_empty(self):
        cfg = ScenarioConfig(dt=10.0, time_scale=100.0)
        charge = battery_step(0.0001, -1000.0, cfg)
        assert charge == 0.0
        assert pack_voltage(charge, cfg) == 240.0

    @pytest.mark.parametrize("charge, volts", [
        (-5.0, 240.0), (-1e-300, 240.0), (15.0, 320.0), (30.0 + 1e-9, 400.0),
        (1e9, 400.0)])
    def test_voltage_clamped_at_both_ends(self, charge, volts):
        assert pack_voltage(charge, ScenarioConfig()) == volts

    @pytest.mark.parametrize("charge", [
        math.nan, -0.0, 0.0, -math.inf, math.inf, -1e-300, 30.0,
        30.0 + 1e-9])
    def test_clamps_equal_min_max_form(self, charge):
        """NaN, -0.0 and infinities clamp as min(max(x, lo), hi) does."""
        cfg = ScenarioConfig()
        frac = min(max(charge / cfg.capacity_ah, 0.0), 1.0)
        expected = (min(max(charge, 0.0), cfg.capacity_ah),
                    cfg.v_empty + (cfg.v_full - cfg.v_empty) * frac)
        # i_out = -0.0 leaves every charge, -0.0 included, unchanged
        got = (battery_step(charge, -0.0, cfg), pack_voltage(charge, cfg))
        for g, e in zip(got, expected):
            assert (math.isnan(g) and math.isnan(e)) or \
                (g == e and math.copysign(1.0, g) == math.copysign(1.0, e))


class TestPlantStep:
    def setup_method(self):
        self.cfg = ScenarioConfig()
        self.tank = self.cfg.tank
        self.p = SwitchingParams(d=2.0, s=0.3, beta=0.15,
                                 omega=2 * math.pi * 120e3)
        self.gain = 0.8

    def test_zero_uncertainty_matches_model(self):
        none = replace(self.cfg, beta_offset=0.0, l_scale=1.0)
        w, sigma, delta = plant_step(self.p, none, self.gain)
        # transconductance raises BelowResonanceError where Z <= 0
        assert w == transconductance(self.p, self.gain, self.tank)
        _amp, sg, dl, _deg = k.forward_point(self.p.d, self.p.s, self.p.beta,
                                             self.gain)
        assert (sigma, delta) == (sg, dl)

    def test_beta_offset_shifts_alignment(self):
        # oracle: evaluate the model directly at beta - 0.1
        u = replace(self.cfg, beta_offset=-0.1, l_scale=1.0)
        _w, sigma, delta = plant_step(self.p, u, self.gain)
        _amp, sg, dl, _deg = k.forward_point(
            self.p.d, self.p.s, self.p.beta - 0.1, self.gain)
        assert sigma == sg
        assert delta == dl
        # open loop the rectifier edge moves earlier
        _w0, _sg0, dl0 = plant_step(
            self.p, replace(self.cfg, beta_offset=0.0, l_scale=1.0), self.gain)
        assert delta < dl0

    def test_inductance_scale_lowers_power(self):
        base, _s, _d = plant_step(
            self.p, replace(self.cfg, beta_offset=0.0, l_scale=1.0), self.gain)
        scaled, _s, _d = plant_step(
            self.p, replace(self.cfg, beta_offset=0.0, l_scale=1.05),
            self.gain)
        assert scaled < base

    def test_unset_frequency_rejected(self):
        with pytest.raises(ValueError, match="omega"):
            plant_step(self.p._replace(omega=None), self.cfg, self.gain)

    @pytest.mark.parametrize("omega", [0.0, math.nan, -2 * math.pi * 120e3],
                             ids=["zero", "nan", "negative"])
    def test_non_positive_frequency_rejected(self, omega):
        # _replace skips SwitchingParams' checks; the plant checks omega
        # through the model, as transconductance does
        p = self.p._replace(omega=omega)
        with pytest.raises(ValueError, match="omega must be positive"):
            plant_step(p, self.cfg, self.gain)
        with pytest.raises(ValueError, match="omega must be positive"):
            transconductance(p, self.gain, self.tank)

    def test_below_resonance_is_the_model_check(self):
        # with l_scale = 1 the plant's tank is the model's, and so is
        # the rejection
        p = self.p._replace(omega=0.99 * self.tank.omega_resonant)
        with pytest.raises(BelowResonanceError) as plant:
            plant_step(p, replace(self.cfg, l_scale=1.0), self.gain)
        with pytest.raises(BelowResonanceError) as model:
            transconductance(p, self.gain, self.tank)
        assert str(plant.value) == str(model.value)

    def test_below_scaled_resonance_rejected(self):
        # L * 0.9 moves the resonance above 1.01 times the nominal one
        p = self.p._replace(omega=1.01 * self.tank.omega_resonant)
        plant_step(p, replace(self.cfg, l_scale=1.0), self.gain)
        with pytest.raises(BelowResonanceError):
            plant_step(p, replace(self.cfg, l_scale=0.9), self.gain)

    def test_collapsed_tank_current_rejected(self):
        # d = 0 with s = pi collapses the tank current (A = B = 0), here
        # at the plant's beta of -0.1
        p = SwitchingParams(0.0, math.pi, 0.0, self.p.omega)
        with pytest.raises(DegenerateTankCurrentError):
            plant_step(p, self.cfg, self.gain)


def short_config(**kw):
    defaults = dict(duration=1.5, initial_charge_ah=3.0)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestScenarioConfig:
    @pytest.mark.parametrize("name", ["noise_std_angle", "noise_std_w",
                                      "seed"])
    def test_negative_noise_or_seed_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            ScenarioConfig(**{name: -1})
        ScenarioConfig(**{name: 0})

    @pytest.mark.parametrize("value", [1.5, 2.0])
    def test_non_integral_seed_rejected(self, value):
        # a float seed fails here, not mid-run in numpy
        with pytest.raises(ValueError, match="seed"):
            ScenarioConfig(seed=value, noise_std_w=1e-5, duration=0.2)
        ScenarioConfig(seed=np.int64(2), noise_std_w=1e-5, duration=0.2)

    @pytest.mark.parametrize("name", [
        "sigma_kp", "sigma_ki", "delta_kp", "delta_ki", "w_kp", "w_ki",
        "volt_kp", "volt_ki"])
    def test_negative_gain_rejected(self, name):
        # each loop's error is ref - meas on a channel that rises with
        # its actuator, so a negative gain is positive feedback
        with pytest.raises(ValueError, match="non-negative"):
            ScenarioConfig(**{name: -1.0})
        ScenarioConfig(**{name: 0.0})

    @pytest.mark.parametrize("name", [
        "v_in", "i_cc", "v_cv", "dt", "duration", "time_scale",
        "capacity_ah", "v_empty", "v_full", "initial_charge_ah",
        "i_ref_slew", "sensor_tau", "noise_std_angle", "noise_std_w",
        "sigma_ref", "delta_ref"])
    def test_nan_rejected(self, name):
        with pytest.raises(ValueError):
            ScenarioConfig(**{name: math.nan})

    @pytest.mark.parametrize("name, value", [
        *((name, value) for name in (
            "beta_offset", "l_scale", "sigma_kp", "sigma_ki", "delta_kp",
            "delta_ki", "w_kp", "w_ki", "volt_kp", "volt_ki")
          for value in (math.nan, math.inf, -math.inf)),
        ("l_scale", 0.0), ("l_scale", -1.05)])
    def test_plant_errors_and_gains_checked(self, name, value):
        # checked on construction, not mid-run by a plain ValueError
        # that would lose the partial trace
        with pytest.raises(ValueError, match="finite|positive"):
            ScenarioConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("duration", math.inf), ("dt", math.inf), ("v_in", math.inf),
        ("time_scale", math.inf), ("v_full", math.inf),
        ("v_empty", -math.inf), ("noise_std_w", math.inf),
        ("v_empty", -100.0)])
    def test_every_number_checked(self, name, value):
        # each went wrong in the run: an overflow, no steps, a bare
        # ValueError without the partial trace, or a negative G
        with pytest.raises(ValueError, match=name):
            ScenarioConfig(**{name: value})

    @pytest.mark.parametrize("overrides", [
        dict(v_empty=1e308, v_full=1e308), dict(v_in=1e-307),
        dict(tank=replace(default_tank(), turns_ratio=1e306))],
        ids=["v_full", "v_in", "turns_ratio"])
    def test_infinite_largest_gain_rejected(self, overrides):
        # G = n V_bat / V_in would reach +inf in the run, which stops at
        # its first step without a partial trace
        with pytest.raises(ValueError, match="largest gain"):
            ScenarioConfig(**overrides)

    @pytest.mark.parametrize("name, value", [
        ("v_in", 0.0), ("i_cc", -1.0), ("v_cv", 0.0), ("dt", 0.0),
        ("duration", -1.0), ("time_scale", 0.0), ("capacity_ah", 0.0),
        ("i_ref_slew", 0.0), ("sensor_tau", -1e-3)])
    def test_out_of_range_rejected(self, name, value):
        # the message names the field ("capacity" for capacity_ah)
        with pytest.raises(ValueError, match=name.removesuffix("_ah")):
            ScenarioConfig(**{name: value})

    def test_integer_beyond_float_range_accepted(self):
        # an integer is finite, though too large for math.isfinite
        ScenarioConfig(seed=10**400, noise_std_w=1e-5)

    def test_empty_pack_may_start_at_zero_gain(self):
        # G = 0 at the first step: the buck inverse holds there
        trace = run_scenario(short_config(v_empty=0.0, initial_charge_ah=0.0,
                                          duration=0.01))
        assert trace["G"][0] == 0.0

    @pytest.mark.parametrize("name", ["sigma_ref", "delta_ref"])
    def test_references_checked_on_construction(self, name):
        # the check of ControlReferences, before any run
        with pytest.raises(ValueError, match=name):
            ScenarioConfig(**{name: 2.0})


class TestRunScenario:
    def test_deterministic(self):
        cfg = short_config()
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a.steps == b.steps
        for col in a.data:
            assert np.array_equal(a[col], b[col])

    def test_deterministic_with_noise(self):
        cfg = short_config(noise_std_angle=0.01, noise_std_w=1e-4, seed=42)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        for col in a.data:
            assert np.array_equal(a[col], b[col])
        c = run_scenario(short_config(noise_std_angle=0.01, noise_std_w=1e-4,
                                      seed=43))
        assert not np.array_equal(a["I_out"], c["I_out"])

    def test_energy_bookkeeping(self):
        cfg = short_config()
        tr = run_scenario(cfg)
        integrated = float(np.sum(tr["I_out"])) * cfg.dt * cfg.time_scale / 3600.0
        final = cfg.initial_charge_ah + integrated
        # one-step quadrature slack
        step_ah = float(np.max(np.abs(tr["I_out"]))) * cfg.dt * \
            cfg.time_scale / 3600.0
        charge = cfg.initial_charge_ah
        for i in range(tr.steps):
            charge = battery_step(charge, tr["I_out"][i], cfg)
        assert abs(charge - final) <= step_ah + 1e-12

    def test_outputs_within_ranges(self):
        tr = run_scenario(short_config())
        assert np.all(tr["d"] >= 0) and np.all(tr["d"] <= math.pi)
        assert np.all(tr["s"] >= 0) and np.all(tr["s"] <= math.pi)
        assert np.all(np.abs(tr["beta"]) <= math.pi)
        assert np.all(tr["omega"] > 0)
        assert np.all(tr["omega"] <= default_tank().omega_max * (1 + 1e-12))

    def test_current_reference_slew_limited_both_ways(self):
        # near full charge the CV stage first ramps I_ref up, then pulls
        # it down faster than the slew allows
        cfg = ScenarioConfig(initial_charge_ah=29.5, duration=1.0,
                             time_scale=1000.0)
        i_ref = run_scenario(cfg)["I_ref"]
        slew = cfg.i_ref_slew * cfg.dt
        prev, nxt = i_ref[:-1], i_ref[1:]
        assert np.all((prev - slew <= nxt) & (nxt <= prev + slew))
        assert np.sum(nxt == prev + slew) > 1000
        assert np.sum(nxt == prev - slew) > 1000

    def test_each_layer_called_once_per_step(self, monkeypatch):
        # perfbench's tracer counts solves, plant evaluations and battery
        # steps through these module attributes; the loop does the work
        # of parallel_step and plant_step without calling them, through
        # the kernels they call
        hooks = ((dbsrc.charger, "battery_step"),
                 (k, "solve_controls_scan"), (k, "forward_point"),
                 (k, "w_from_amplitude"))
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module, name in hooks:
            calls[name] = 0
            monkeypatch.setattr(module, name,
                                counted(name, getattr(module, name)))
        calls["PiController.step"] = 0
        monkeypatch.setattr(PiController, "step", counted(
            "PiController.step", PiController.step))
        tr = run_scenario(ScenarioConfig(duration=0.2, i_ref_slew=200.0))
        assert 0.0 < np.mean(tr["s_add"] > 0) < 1.0   # both solve branches
        expected = {name: tr.steps for _module, name in hooks}
        expected["PiController.step"] = 4 * tr.steps
        assert calls == expected

    def test_each_step_gets_the_warm_state_of_the_last(self, monkeypatch):
        # the loop passes the warm state a solve returns (the scan's
        # index 10) to the next solve (its argument 11) whatever the
        # solve was, analytic and W* = 0 ones included
        scan = k.solve_controls_scan
        given, returned = [], []

        def wrapper(*args):
            given.append(args[11])
            result = scan(*args)
            returned.append(result[10])
            return result

        monkeypatch.setattr(k, "solve_controls_scan", wrapper)
        tr = run_scenario(ScenarioConfig(duration=0.3))
        assert len(given) == tr.steps and given[0] is None
        for i in range(1, tr.steps):
            assert given[i] is returned[i - 1], i
        assert len({id(warm) for warm in returned}) > 100

    @pytest.mark.parametrize("tau", [5e-4, 0.0])
    def test_measurements_are_lagged_plant_outputs(self, monkeypatch, tau):
        # each step measures through a first-order lag per signal,
        # m += alpha * (y - m) from m = 0 over the plant outputs of the
        # steps before it; tau = 0 passes them through, m = y.  The plant
        # outputs are forward_point's angles and w_from_amplitude's W,
        # the measurements what the PIs get: per step the voltage error,
        # then sigma* - sigma_m, delta* - delta_m and W* - W_m
        forward, w_of = k.forward_point, k.w_from_amplitude
        angles, ws, errors = [], [], []

        def forward_wrapper(*args):
            out = forward(*args)
            angles.append(out[1:3])
            return out

        def w_wrapper(*args):
            ws.append(w_of(*args))
            return ws[-1]

        def pi_wrapper(pi, error):
            errors.append(error)
            return step(pi, error)

        step = PiController.step
        monkeypatch.setattr(k, "forward_point", forward_wrapper)
        monkeypatch.setattr(k, "w_from_amplitude", w_wrapper)
        monkeypatch.setattr(PiController, "step", pi_wrapper)
        cfg = ScenarioConfig(duration=0.05, sensor_tau=tau)
        tr = run_scenario(cfg)
        assert len(angles) == len(ws) == tr.steps == 500
        assert len(errors) == 4 * tr.steps
        outputs = [(w, sg, dl) for w, (sg, dl) in zip(ws, angles)]
        # the trace records the plant outputs
        assert np.array_equal(tr["W"], ws)
        assert np.array_equal(tr["sigma"], [sg for sg, _ in angles])
        assert np.array_equal(tr["delta"], [dl for _, dl in angles])
        alpha = 1.0 if tau == 0 else 1.0 - math.exp(-cfg.dt / tau)
        w = sigma = delta = 0.0
        for i, (w_true, sigma_true, delta_true) in enumerate(outputs):
            w_ref = tr["I_ref"][i] / cfg.v_in
            assert errors[4 * i:4 * i + 4] == [
                cfg.v_cv - tr["V_bat"][i], cfg.sigma_ref - sigma,
                cfg.delta_ref - delta, w_ref - w], i
            if tau == 0:
                w, sigma, delta = w_true, sigma_true, delta_true
            else:
                w += alpha * (w_true - w)
                sigma += alpha * (sigma_true - sigma)
                delta += alpha * (delta_true - delta)

    def test_abort_on_collapsed_references(self):
        # sigma* = 0 at G = 1 collapses the tank current; with the
        # correction loops disabled nothing rescues it and the power
        # request is unreachable (closed-loop corrections would otherwise
        # keep the amplitude alive)
        cfg = ScenarioConfig(sigma_ref=0.0, duration=1.0,
                             initial_charge_ah=15.0)
        with pytest.raises(ScenarioAbort) as exc_info:
            run_scenario(replace(cfg, sigma_kp=0.0, sigma_ki=0.0,
                                 delta_kp=0.0, delta_ki=0.0, w_kp=0.0,
                                 w_ki=0.0))
        abort = exc_info.value
        assert abort.trace.steps == abort.step
        assert "unreachable" in str(abort)

    @pytest.mark.parametrize("aborts", [False, True],
                             ids=["full", "aborted"])
    def test_trace_data_are_float64_arrays(self, aborts):
        # the loop stores through memoryviews of the columns; the trace,
        # whole or partial, still holds the arrays themselves
        cfg = ScenarioConfig(duration=0.05)
        if aborts:
            cfg = replace(cfg, sigma_ref=0.0, initial_charge_ah=15.0,
                          sigma_kp=0.0, sigma_ki=0.0, delta_kp=0.0,
                          delta_ki=0.0, w_kp=0.0, w_ki=0.0)
            with pytest.raises(ScenarioAbort) as exc_info:
                run_scenario(cfg)
            trace = exc_info.value.trace
        else:
            trace = run_scenario(cfg)
        n_steps = int(round(cfg.duration / cfg.dt))
        assert (trace.steps < n_steps) == aborts
        assert list(trace.data) == list(dbsrc.charger.STORED_COLUMNS)
        for column in trace.data.values():
            assert type(column) is np.ndarray
            assert column.dtype == np.float64
            assert column.flags.c_contiguous
            assert column.shape == (n_steps,)
