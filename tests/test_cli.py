"""Command-line interface tests: CSV contracts, config handling, exit
codes."""

import io
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dbsrc.cli
from dbsrc import (ControlReferences, ScenarioConfig, run_scenario,
                   s_add_zero_boundary)
from dbsrc.charger import STORED_COLUMNS, TRACE_COLUMNS, ScenarioAbort, Trace
from dbsrc.cli import (CHARGE_DEFAULTS, CSV_BLOCK, EXIT_ABORT, EXIT_CONFIG,
                       EXIT_OK, TraceRows, main, write_csv)


def run_cmd(tmp_path, *args):
    out = tmp_path / "out.csv"
    code = main(list(args) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def rows_of(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestMap:
    def test_buck_grid_all_short_times_zero(self, tmp_path):
        code, text = run_cmd(tmp_path, "map", "--set", "gain=0.5",
                             "--set", "s_add=0")
        assert code == EXIT_OK
        header, rows = rows_of(text)
        assert header == ["sigma_ref", "delta_ref", "d", "s", "beta",
                          "feasible"]
        feasible = [r for r in rows if r[5] == "1"]
        assert feasible
        assert all(float(r[3]) == 0.0 for r in feasible)

    def test_boost_grid_has_full_on_time_cells(self, tmp_path):
        code, text = run_cmd(tmp_path, "map", "--set", "gain=1.5")
        assert code == EXIT_OK
        _header, rows = rows_of(text)
        boost_cells = [r for r in rows if r[5] == "1"
                       and float(r[2]) == math.pi and float(r[3]) > 0]
        assert boost_cells

    def test_single_point(self, tmp_path):
        code, text = run_cmd(
            tmp_path, "map", "--set", "gain=0.5",
            "--set", "sigma_start=0", "--set", "sigma_stop=0",
            "--set", "sigma_steps=1", "--set", "delta_start=0",
            "--set", "delta_stop=0", "--set", "delta_steps=1")
        assert code == EXIT_OK
        _header, rows = rows_of(text)
        assert len(rows) == 1
        assert float(rows[0][2]) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_infeasible_cells_flagged_not_dropped(self, tmp_path):
        code, text = run_cmd(
            tmp_path, "map", "--set", "gain=2.0", "--set", "s_add=2.5",
            "--set", "sigma_start=-0.5", "--set", "sigma_stop=0.5",
            "--set", "delta_start=0.5", "--set", "delta_stop=0.5",
            "--set", "delta_steps=1", "--set", "sigma_steps=11")
        assert code == EXIT_OK
        _header, rows = rows_of(text)
        assert len(rows) == 11
        bad = [r for r in rows if r[5] == "0"]
        assert bad
        assert all(r[2] == "nan" for r in bad)


class TestTrajectory:
    def test_default_sweep_tracks_references(self, tmp_path):
        code, text = run_cmd(tmp_path, "trajectory")
        assert code == EXIT_OK
        header, rows = rows_of(text)
        assert header == ["t", "G", "sigma_ref", "delta_ref", "s_add",
                          "sigma", "delta", "d", "s", "beta", "feasible"]
        checked = 0
        for r in rows:
            if r[10] != "1":
                continue
            assert abs(float(r[5]) - float(r[2])) < 1e-9
            assert abs(float(r[6]) - float(r[3])) < 1e-9
            checked += 1
        assert checked > 1000

    def test_buck_rows_short_time_equals_s_add(self, tmp_path):
        code, text = run_cmd(tmp_path, "trajectory")
        assert code == EXIT_OK
        _header, rows = rows_of(text)
        for r in rows:
            if r[10] == "1" and float(r[1]) < 1.0 - 1e-9:
                gain = float(r[1])
                sigma_ref, delta_ref, s_add = map(float, r[2:5])
                # buck test: 2 cos(sigma*) >= G (cos(delta*+s_add)+cos(delta*))
                if 2 * math.cos(sigma_ref) >= gain * (
                        math.cos(delta_ref + s_add) + math.cos(delta_ref)):
                    assert float(r[8]) == s_add

    def test_constant_references_give_constant_outputs(self, tmp_path):
        code, text = run_cmd(
            tmp_path, "trajectory", "--set", "sigma_offset=0.1",
            "--set", "sigma_amp=0", "--set", "delta_amp=0",
            "--set", "s_add_amp=0", "--set", "gain_start=0.5",
            "--set", "gain_stop=0.5")
        assert code == EXIT_OK
        _header, rows = rows_of(text)
        d_values = {r[7] for r in rows}
        s_values = {r[8] for r in rows}
        assert len(d_values) == 1 and len(s_values) == 1

    @pytest.mark.parametrize("case", ["sigma_amp=1.6", "s_add_offset=3.0"])
    def test_references_out_of_domain_rejected(self, tmp_path, case):
        # each row's references are checked by ControlReferences
        code, text = run_cmd(tmp_path, "trajectory", "--set", case)
        assert code == EXIT_CONFIG
        assert text == ""

    def test_negative_amplitude_runs(self, tmp_path):
        # a negative amplitude is a sinusoid in antiphase, inside the
        # reference domain
        code, text = run_cmd(tmp_path, "trajectory", "--set",
                             "sigma_amp=-0.3")
        assert code == EXIT_OK
        _header, rows = rows_of(text)
        assert float(rows[100][2]) == pytest.approx(
            -0.3 * math.sin(2 * math.pi * 1.5 * 0.1), abs=1e-15)


class TestLowpower:
    def test_curves(self, tmp_path):
        code, text = run_cmd(tmp_path, "lowpower")
        assert code == EXIT_OK
        header, rows = rows_of(text)
        assert header == ["G", "s_add", "W_over_W0", "s_add_0"]
        by_gain = {}
        for r in rows:
            by_gain.setdefault(r[0], []).append(r)
        assert len(by_gain) == 3
        for gain, gr in by_gain.items():
            assert float(gr[0][2]) == pytest.approx(1.0, abs=1e-12)
            assert float(gr[-1][2]) == pytest.approx(0.0, abs=1e-12)
        # non-monotonic dimming at G = 0.7: ratio exceeds 1
        g07 = by_gain["0.69999999999999996"]
        assert max(float(r[2]) for r in g07) > 1.0

    def test_gain_list_parsing(self, tmp_path):
        code, text = run_cmd(tmp_path, "lowpower", "--set", "gains=0.5,1.0")
        assert code == EXIT_OK
        _header, rows = rows_of(text)
        assert len({r[0] for r in rows}) == 2


CHARGE_BASE = dict(duration=2.0, initial_charge_ah=3.0)


def charge_args(**overrides):
    values = {**CHARGE_BASE, **overrides}
    args = ["charge"]
    for key, val in values.items():
        args += ["--set", f"{key}={val}"]
    return args


@pytest.fixture(scope="module")
def base_table():
    """The library's table for the charge command's CHARGE_BASE run."""
    return run_scenario(ScenarioConfig(**CHARGE_BASE)).column_stack()


class TestCharge:
    def test_header_and_determinism(self, tmp_path):
        code1, text1 = run_cmd(tmp_path, *charge_args())
        assert code1 == EXIT_OK
        header, rows = rows_of(text1)
        assert header == ["t", "G", "I_ref", "I_out", "V_bat", "d", "s",
                          "beta", "omega", "sigma", "delta", "sigma_ref",
                          "delta_ref", "s_add", "W"]
        assert len(rows) == 20000
        code2, text2 = run_cmd(tmp_path, *charge_args())
        assert text1 == text2

    @pytest.mark.parametrize("decimate, n_rows", [
        (100, 200), (7, 2858), (20001, 1)],
        ids=["divides", "does-not-divide", "beyond-the-steps"])
    def test_decimation(self, tmp_path, base_table, decimate, n_rows):
        # every field bit for bit against the library's table
        code, text = run_cmd(tmp_path, *charge_args(decimate=decimate))
        assert code == EXIT_OK
        _header, rows = rows_of(text)
        assert len(rows) == n_rows
        assert (np.array(rows, dtype=float).tobytes()
                == base_table[::decimate].tobytes())

    def test_csv_is_written_without_the_whole_table(self, tmp_path,
                                                    monkeypatch):
        # tracemalloc sees numpy's buffers.  The trace's columns exist
        # before tracing starts; writing its CSV may hold a few blocks,
        # never all rows.  Few distinct values keep each block's strings
        # small, so the bound reads what grows with the steps.
        steps = 64 * CSV_BLOCK
        rng = np.random.default_rng(25)
        trace = Trace(data={c: rng.integers(0, 4, steps) * 0.25
                            for c in STORED_COLUMNS},
                      steps=steps, cfg=ScenarioConfig())
        monkeypatch.setattr(dbsrc.cli, "run_scenario", lambda cfg: trace)
        out = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            code = main(charge_args() + ["--out", str(out)])
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < len(TRACE_COLUMNS) * 8 * steps / 4
        assert out.read_text().count("\n") == 1 + steps

    def test_trace_rows_take_slices_with_a_positive_step(self):
        trace = run_scenario(ScenarioConfig(duration=0.01))
        rows = TraceRows(trace, 3)
        table = trace.column_stack()[::3]
        assert len(rows) == len(table) == 34
        for part in (slice(None), slice(1, None, 2), slice(-5, 40)):
            assert rows[part].tobytes() == table[part].tobytes()
        with pytest.raises(ValueError):
            rows[::-1]

    def test_float_format_round_trips(self, tmp_path):
        code, text = run_cmd(tmp_path, *charge_args(duration=0.01))
        assert code == EXIT_OK
        _header, rows = rows_of(text)
        for r in rows[:20]:
            for field in r:
                assert "," not in field
                value = float(field)  # '.' decimal separator, parseable
                assert f"{value:.17g}" == field

    def test_step_size_robustness(self, tmp_path):
        # doubled dt must reproduce the same steady-state values
        base = dict(duration=6.0, initial_charge_ah=6.0)
        code1, text1 = run_cmd(tmp_path, *charge_args(**base))
        code2, text2 = run_cmd(tmp_path, *charge_args(**base, dt=2e-4))
        assert code1 == code2 == EXIT_OK
        _h, rows1 = rows_of(text1)
        _h, rows2 = rows_of(text2)
        i1 = np.array([float(r[3]) for r in rows1[-10000:]])
        i2 = np.array([float(r[3]) for r in rows2[-5000:]])
        assert abs(i1.mean() - i2.mean()) / 25.0 < 1e-3
        v1, v2 = float(rows1[-1][4]), float(rows2[-1][4])
        assert abs(v1 - v2) / v1 < 1e-3

    def test_no_uncertainty_tracks_tighter(self, tmp_path):
        # paired mid-CC runs: removing the plant uncertainties must not
        # worsen the settled current tracking
        base = dict(duration=6.0, initial_charge_ah=6.0)
        _code, with_unc = run_cmd(tmp_path, *charge_args(**base))
        _code, without = run_cmd(tmp_path, *charge_args(
            **base, beta_offset=0.0, l_scale=1.0))
        def settled_err(text):
            _h, rows = rows_of(text)
            tail = rows[len(rows) // 2:]
            return max(abs(float(r[3]) - float(r[2])) for r in tail)
        assert settled_err(without) <= settled_err(with_unc)
        assert settled_err(without) < 0.01  # ideal plant: near-exact

    @staticmethod
    def assert_partial_trace(tmp_path, **overrides):
        """dbsrc charge with these settings exits 3, and its CSV is the
        partial trace of the ScenarioAbort that run_scenario raises for
        the same config, bit for bit; returns that abort."""
        out = tmp_path / "out.csv"
        code = main(charge_args(**overrides) + ["--out", str(out)])
        assert code == EXIT_ABORT
        header, rows = rows_of(out.read_text())
        assert header == list(TRACE_COLUMNS)
        values = {**CHARGE_BASE, **overrides}
        with pytest.raises(ScenarioAbort) as info:
            run_scenario(ScenarioConfig(
                **{key: float(v) for key, v in values.items()}))
        abort = info.value
        assert len(rows) == abort.step
        assert (np.array(rows, dtype=float).reshape(-1, len(TRACE_COLUMNS))
                .tobytes() == abort.trace.column_stack().tobytes())
        return abort

    def test_abort_writes_partial_trace_exit_3(self, tmp_path):
        # collapsed tank current with every correction loop off: the
        # first step aborts, so the CSV is the header alone
        abort = self.assert_partial_trace(
            tmp_path, sigma_ref=0.0, initial_charge_ah=15.0, sigma_kp=0,
            sigma_ki=0, delta_kp=0, delta_ki=0, w_kp=0, w_ki=0)
        assert abort.step == 0

    def test_abort_mid_run_writes_the_steps_before_it(self, tmp_path):
        # the plant's halved inductance leaves the controller's
        # frequency below the plant's resonance once the current rises
        abort = self.assert_partial_trace(tmp_path, l_scale=0.5)
        assert 0 < abort.step < 20000


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main(["map", "--set", "nonsense=1", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()  # no partial output on config errors

    def test_bad_value_rejected(self, tmp_path):
        code, text = run_cmd(tmp_path, "map", "--set", "gain=banana")
        assert code == EXIT_CONFIG
        assert text == ""

    @pytest.mark.parametrize("case", [
        "charge L=-1", "charge v_cv=nan", "charge w_kp=nan",
        "charge sigma_ki=inf", "charge dt=nan", "charge duration=inf",
        "charge sensor_tau=nan", "charge beta_offset=inf",
        "charge seed=-1 noise_std_w=1e-5", "charge sigma_kp=-1",
        "map gain=nan",
        "map sigma_stop=1.7", "map s_add=4",
        "lowpower sigma_ref=1.5707963267948966", "lowpower gains=0.5,-1",
    ], ids=lambda case: case.replace(" ", "-"))
    def test_invalid_physical_value_rejected(self, tmp_path, case):
        command, *settings = case.split()
        args = [command]
        for setting in settings:
            args += ["--set", setting]
        code, text = run_cmd(tmp_path, *args)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("case", [
        "map gain=-1", "map sigma_steps=0",
        "trajectory dt=0", "trajectory gain_start=-1",
        "lowpower gains=", "lowpower s_add_step=0",
        # feasible references, but A sits inside the A_MIN tolerance at
        # G = 0.6, so H(0) = -4.8e-12
        "lowpower sigma_ref=0 delta_ref=-0.9272952180026123 gains=0.6",
        "charge decimate=0",
    ], ids=lambda case: case.replace(" ", "-"))
    def test_cli_check_rejected(self, tmp_path, case):
        # the checks that no library call covers
        command, *settings = case.split()
        args = [command]
        for setting in settings:
            args += ["--set", setting]
        code, text = run_cmd(tmp_path, *args)
        assert code == EXIT_CONFIG
        assert text == ""

    @pytest.mark.parametrize("case", ["map sigma_steps", "charge seed"],
                             ids=lambda case: case.replace(" ", "-"))
    def test_integer_beyond_float_range_rejected(self, tmp_path, capsys,
                                                 case):
        # an int setting parses, but math.isfinite cannot take it
        command, key = case.split()
        code, text = run_cmd(tmp_path, command,
                             "--set", f"{key}=1" + "0" * 400)
        assert code == EXIT_CONFIG
        assert text == ""
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")

    @pytest.mark.parametrize("source", ["config", "set"])
    def test_setting_without_equals_rejected(self, tmp_path, capsys, source):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gain = 0.5\nsigma_steps 3\n")
        args = (["--config", str(cfg)] if source == "config"
                else ["--set", "nokey"])
        code, text = run_cmd(tmp_path, "map", *args)
        assert code == EXIT_CONFIG
        assert text == ""
        where = f"{cfg}:2" if source == "config" else "'nokey'"
        assert where in capsys.readouterr().err

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\ngain = 0.5\ns_add = 0.0  # inline\n"
                       "sigma_steps = 3\ndelta_steps = 3\n"
                       "sigma_start = -0.3\nsigma_stop = 0.3\n"
                       "delta_start = -0.3\ndelta_stop = 0.3\n")
        out = tmp_path / "out.csv"
        code = main(["map", "--config", str(cfg), "--set", "gain=1.5",
                     "--out", str(out)])
        assert code == EXIT_OK
        _header, rows = rows_of(out.read_text())
        assert len(rows) == 9
        # override took effect: boost cells exist at G = 1.5
        assert any(float(r[3]) > 0 for r in rows if r[5] == "1")

    def test_missing_config_file(self, tmp_path):
        code, _ = run_cmd(tmp_path, "map", "--config", "/no/such/file.cfg")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("args", [["map"], charge_args(duration=0.01)],
                             ids=["map", "charge"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, args):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(args + ["--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: cannot write {out}: No such file or directory\n")
        assert captured.out == ""

    def test_missing_out_directory_fails_before_the_run(
            self, tmp_path, capsys, monkeypatch):
        def no_run(scenario):
            raise AssertionError("run_scenario was called")
        monkeypatch.setattr(dbsrc.cli, "run_scenario", no_run)
        out = tmp_path / "no" / "x.csv"
        assert main(charge_args() + ["--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: No such file or directory\n")

    @pytest.mark.parametrize("args", [["map"], charge_args()],
                             ids=["map", "charge"])
    def test_file_as_out_directory_fails_before_the_run(
            self, tmp_path, capsys, monkeypatch, args):
        def no_run(*_args):
            raise AssertionError("the command was run")
        monkeypatch.setattr(dbsrc.cli, "run_scenario", no_run)
        monkeypatch.setattr(dbsrc.cli.k, "invert_exact", no_run)
        parent = tmp_path / "file.txt"
        parent.write_text("a file\n")
        out = parent / "x.csv"
        assert main(args + ["--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: Not a directory\n")
        assert parent.read_text() == "a file\n"

    @pytest.mark.parametrize("args", [["map"], charge_args()],
                             ids=["map", "charge"])
    def test_directory_as_out_fails_before_the_run(
            self, tmp_path, capsys, monkeypatch, args):
        def no_run(*_args):
            raise AssertionError("the command was run")
        monkeypatch.setattr(dbsrc.cli, "run_scenario", no_run)
        monkeypatch.setattr(dbsrc.cli.k, "invert_exact", no_run)
        assert main(args + ["--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: cannot write {tmp_path}: Is a directory\n")

    @pytest.mark.parametrize("denied", [os.W_OK, os.X_OK],
                             ids=["unwritable", "unsearchable"])
    def test_closed_out_directory_fails_before_the_run(
            self, tmp_path, capsys, monkeypatch, denied):
        # os.access is faked, so the check is seen whatever the user's uid
        def no_run(scenario):
            raise AssertionError("run_scenario was called")
        monkeypatch.setattr(dbsrc.cli, "run_scenario", no_run)
        monkeypatch.setattr(dbsrc.cli.os, "access", lambda path, mode: not (
            os.path.isdir(path) and mode & denied))
        out = tmp_path / "x.csv"
        assert main(charge_args() + ["--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: Permission denied\n")
        assert not out.exists()

    def test_writable_out_file_in_a_closed_directory_is_written(
            self, capsys, monkeypatch):
        # open(path, "w") on an existing file needs only the file's
        # permission, so a closed directory (as /dev is to most users)
        # does not stop it
        monkeypatch.setattr(dbsrc.cli.os, "access",
                            lambda path, mode: not os.path.isdir(path))
        assert main(["map", "--out", os.devnull]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_console_entry_point(self, tmp_path):
        out = tmp_path / "out.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "dbsrc.cli", "map", "--set", "gain=0.5",
             "--set", "sigma_steps=2", "--set", "delta_steps=2",
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()


class TestDerivedValues:
    def test_charge_defaults_are_library_defaults(self, tmp_path):
        code, text = run_cmd(tmp_path, "charge", "--set", "duration=0.01")
        assert code == EXIT_OK
        trace = run_scenario(replace(ScenarioConfig(), duration=0.01))
        lines = [",".join(TRACE_COLUMNS)]
        lines += [",".join(f"{v:.17g}" for v in row)
                  for row in trace.column_stack()]
        assert text == "\n".join(lines) + "\n"

    def test_charge_keys(self):
        assert set(CHARGE_DEFAULTS) == {
            "L", "C", "n", "f_max", "v_in", "i_cc", "v_cv", "dt",
            "duration", "time_scale", "sigma_ref", "delta_ref",
            "capacity_ah", "v_empty", "v_full", "initial_charge_ah",
            "sensor_tau", "i_ref_slew", "noise_std_angle", "noise_std_w",
            "seed", "beta_offset", "l_scale", "sigma_kp", "sigma_ki",
            "delta_kp", "delta_ki", "w_kp", "w_ki", "volt_kp", "volt_ki",
            "decimate"}

    def test_lowpower_boundary_is_library_boundary(self, tmp_path):
        code, text = run_cmd(tmp_path, "lowpower")
        assert code == EXIT_OK
        _header, rows = rows_of(text)
        for gain in (0.7, 1.0, 1.3):
            column = {float(r[3]) for r in rows if float(r[0]) == gain}
            assert column == {
                s_add_zero_boundary(ControlReferences(0.1, 0.0), gain)}


def savetxt_bytes(rows, header):
    """The test oracle: np.savetxt's bytes for the same call."""
    buf = io.StringIO()
    np.savetxt(buf, rows, fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")
    return buf.getvalue().encode()


# bit patterns the writer must keep apart or format exactly
SPECIAL_VALUES = [0.0, -0.0, math.nan, -math.nan,
                  np.array(0x7FF0_0000_0000_0ABC).view(np.float64).item(),
                  math.inf, -math.inf, 5e-324, -2.2250738585072009e-308,
                  1.0, 1e16, 0.1]


class TestWriteCsv:
    @settings(max_examples=15, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n_cols=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           palette=st.lists(st.floats(allow_nan=True, allow_infinity=True,
                                      allow_subnormal=True),
                            min_size=1, max_size=6),
           form=st.sampled_from(["array", "strided", "tuples"]))
    @pytest.mark.parametrize("n_rows", [0, 1, CSV_BLOCK - 1, CSV_BLOCK,
                                        CSV_BLOCK + 1, 3 * CSV_BLOCK + 7])
    def test_bytes_equal_savetxt_property(self, tmp_path, n_rows, n_cols,
                                          seed, palette, form):
        rng = np.random.default_rng(seed)
        pool = np.array(palette + SPECIAL_VALUES)
        # runs of repeats from the pool, and random bit patterns (NaN
        # payloads and subnormals among them) between the runs
        runs = rng.integers(1, 50, size=4 * n_rows * n_cols + 1)
        picks = np.repeat(rng.integers(0, len(pool), size=runs.size), runs)
        table = pool[picks[:4 * n_rows * n_cols]].reshape(2 * n_rows,
                                                          2 * n_cols)
        noise = rng.random(table.shape) < 0.3
        table[noise] = rng.integers(-2**63, 2**63 - 1, size=noise.sum(),
                                    dtype=np.int64).view(np.float64)
        if form == "array":
            rows = table[:n_rows, :n_cols]
        elif form == "strided":
            rows = table[::2, ::2]
        else:
            # as map and trajectory pass them: floats, then an int flag
            rows = [tuple(row[:-1]) + (int(row[-1] > 0),)
                    for row in table[:n_rows, :n_cols].tolist()]
        header = [f"c{j}" for j in range(n_cols)]
        out = tmp_path / "out.csv"
        write_csv(str(out), header, rows)
        assert out.read_bytes() == savetxt_bytes(rows, header)

    @pytest.mark.parametrize("args", [
        ["map", "--set", "sigma_steps=3", "--set", "delta_steps=4"],
        charge_args(duration=0.01)], ids=["map", "charge"])
    def test_stdout_gets_the_file_bytes(self, tmp_path, capsys, args):
        out = tmp_path / "out.csv"
        assert main(args + ["--out", str(out)]) == EXIT_OK
        for to_stdout in ([], ["--out", "-"]):
            capsys.readouterr()
            assert main(args + to_stdout) == EXIT_OK
            assert capsys.readouterr().out.encode() == out.read_bytes()
