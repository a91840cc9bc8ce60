"""Golden slices: short charger runs, one per operating mode plus a
noisy one, compared bit for bit with the traces frozen in tests/golden/.

Each slice starts at its setpoint (i_ref_slew = 1e6) from a chosen
charge, so that every step after the first runs in one mode, classified
as in criterion 10.  The noisy slice adds seeded sensor noise to the
low-power buck point, so it also pins the order of the noise draws.
Every SLICE_STRIDE-th row is stored at %.17g, which reads back as the
same float.  A change that is meant to keep the trajectories must pass
these unchanged; one that moves them on purpose rewrites the files with
``python tests/test_golden.py`` and says why.
"""

import math
import os

import numpy as np
import pytest

from dbsrc import ScenarioConfig, run_scenario
from dbsrc.charger import TRACE_COLUMNS

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")
SLICE_STRIDE = 20

# name -> (mode, i_cc, initial_charge_ah, noise_std_angle, noise_std_w):
# 2 A dims at omega_max, 25 A does not; 5 Ah starts at G = 0.83, 25 Ah at
# G = 1.17; the noise is drawn with seed 1
SLICES = {
    "low-power-buck": ("low-power-buck", 2.0, 5.0, 0.0, 0.0),
    "buck": ("buck", 25.0, 5.0, 0.0, 0.0),
    "boost": ("boost", 25.0, 25.0, 0.0, 0.0),
    "low-power-boost": ("low-power-boost", 2.0, 25.0, 0.0, 0.0),
    "noisy-low-power-buck": ("low-power-buck", 2.0, 5.0, 1e-3, 1e-5),
}


def slice_config(name):
    _mode, i_cc, charge_ah, std_angle, std_w = SLICES[name]
    return ScenarioConfig(i_cc=i_cc, i_ref_slew=1e6,
                          initial_charge_ah=charge_ah, duration=0.2,
                          noise_std_angle=std_angle, noise_std_w=std_w,
                          seed=1)


def mode_mask(trace, mode):
    """Criterion 10's classification of each step into ``mode``."""
    s_add, gain, d, s = trace["s_add"], trace["G"], trace["d"], trace["s"]
    lowpower = s_add > 1e-6
    return {
        "low-power-buck": lowpower & (gain < 1),
        "buck": ~lowpower & (d < math.pi - 1e-6) & (gain < 1),
        "boost": ~lowpower & (np.abs(d - math.pi) < 1e-9) & (s > 1e-6),
        "low-power-boost": lowpower & (gain > 1),
    }[mode]


def sliced_rows(trace):
    return np.column_stack([trace[c] for c in TRACE_COLUMNS])[::SLICE_STRIDE]


def golden_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.csv")


@pytest.mark.parametrize("name", sorted(SLICES))
def test_golden_slice(name):
    trace = run_scenario(slice_config(name))
    assert trace.steps == 2000
    # the first step solves at s_add = 0 before the power loop engages
    assert mode_mask(trace, SLICES[name][0])[1:].all()
    with open(golden_path(name)) as fh:
        assert fh.readline().rstrip("\n").split(",") == list(TRACE_COLUMNS)
    golden = np.loadtxt(golden_path(name), delimiter=",", skiprows=1)
    rows = sliced_rows(trace)
    assert rows.shape == golden.shape
    for j, column in enumerate(TRACE_COLUMNS):
        np.testing.assert_array_equal(rows[:, j], golden[:, j],
                                      err_msg=column)


def write_slices():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in SLICES:
        np.savetxt(golden_path(name),
                   sliced_rows(run_scenario(slice_config(name))),
                   fmt="%.17g", delimiter=",",
                   header=",".join(TRACE_COLUMNS), comments="")


if __name__ == "__main__":
    write_slices()
