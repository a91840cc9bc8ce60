"""Consistency of the scenario trace: the stored columns reproduce the
plant outputs, the derived columns equal the loop's formulas, and the
run's config replays it."""

from dataclasses import replace

import numpy as np
import pytest

from dbsrc import (ScenarioAbort, ScenarioConfig, SwitchingParams, plant_step,
                   run_scenario)
from dbsrc.charger import STORED_COLUMNS, TRACE_COLUMNS

# a fast soft start (low-power, then analytic steps) across G = 1 with
# noise, under other uncertainties than the study case
CFG = ScenarioConfig(duration=0.4, initial_charge_ah=14.85, i_ref_slew=100.0,
                     noise_std_angle=1e-3, seed=5, beta_offset=0.07,
                     l_scale=1.02)


@pytest.fixture(scope="module")
def trace():
    return run_scenario(CFG)


def test_only_independent_columns_are_stored(trace):
    assert set(trace.data) == set(STORED_COLUMNS)
    assert set(STORED_COLUMNS) < set(TRACE_COLUMNS)
    assert all(len(trace[c]) == trace.steps for c in TRACE_COLUMNS)


def test_plant_reproduces_recorded_outputs(trace):
    # every row: a wrong operation order in a derived column shows only
    # in the last bit of about one row in a hundred
    for i in range(trace.steps):
        params = SwitchingParams(d=trace["d"][i], s=trace["s"][i],
                                 beta=trace["beta"][i],
                                 omega=trace["omega"][i])
        w, sigma, delta = plant_step(params, CFG, trace["G"][i])
        assert (w, sigma, delta) == (trace["W"][i], trace["sigma"][i],
                                     trace["delta"][i])


def test_derived_columns_follow_the_loop_formulas(trace):
    for i in range(trace.steps):
        assert trace["t"][i] == i * CFG.dt
        assert trace["G"][i] == \
            CFG.tank.turns_ratio * trace["V_bat"][i] / CFG.v_in
        assert trace["I_out"][i] == trace["W"][i] * CFG.v_in
        assert trace["sigma_ref"][i] == CFG.sigma_ref
        assert trace["delta_ref"][i] == CFG.delta_ref


def test_two_runs_agree_on_every_column(trace):
    again = run_scenario(CFG)
    assert again.steps == trace.steps
    for name in TRACE_COLUMNS:
        assert np.array_equal(again[name], trace[name]), name
    assert np.array_equal(again.column_stack(), trace.column_stack())


def test_config_replays_the_run():
    # the plant errors and the gains are part of the run's one record
    first = run_scenario(replace(CFG, w_kp=5.0, sigma_ki=150.0,
                                 volt_kp=20.0))
    again = run_scenario(first.cfg)
    assert again.steps == first.steps
    assert np.array_equal(again.column_stack(), first.column_stack())


def test_unknown_column_raises(trace):
    with pytest.raises(KeyError):
        trace["I_in"]


def test_abort_trace_stacks_its_steps():
    cfg = ScenarioConfig(sigma_ref=0.0, duration=1.0, initial_charge_ah=15.0)
    with pytest.raises(ScenarioAbort) as exc_info:
        run_scenario(replace(cfg, sigma_kp=0.0, sigma_ki=0.0, delta_kp=0.0,
                             delta_ki=0.0, w_kp=0.0, w_ki=0.0))
    partial = exc_info.value.trace
    stacked = partial.column_stack()
    assert stacked.shape == (partial.steps, len(TRACE_COLUMNS))
    assert partial.steps == exc_info.value.step
    rows = slice(1, None, 3)
    assert partial.column_stack(rows).shape == stacked[rows].shape
    assert partial.column_stack(rows).tobytes() == stacked[rows].tobytes()


@pytest.mark.parametrize("rows", [
    slice(1, None, 3), slice(512, 1024), slice(None, None, -7),
    slice(-5, None), slice(3990, 5000, 2), slice(7, 7), slice(9, 2, -4)],
    ids=["step-3", "one-block", "reversed-step-7", "last-5",
         "past-the-end-step-2", "empty", "reversed-step-4"])
def test_row_range_is_those_rows_of_the_stack(trace, rows):
    # the CLI writes the trace a block at a time through this read
    assert trace.steps == 4000
    block, expected = trace.column_stack(rows), trace.column_stack()[rows]
    assert block.shape == expected.shape
    assert block.tobytes() == expected.tobytes()
    for name in TRACE_COLUMNS:
        assert (trace.column(name, rows).tobytes()
                == trace[name][rows].tobytes())
