"""Public-API guard: dbsrc.__all__ names exactly what the package
exports."""

from dataclasses import fields

import dbsrc
from dbsrc import _kernels, charger, cli, control, model, power

# names deleted with the two-record forward model, the second q map, the
# sensor-lag class (the loop's lags are floats), the CLI's lazy config
# view (cli._typed parses every key once) and the gain and plant-error
# records (their fields are ScenarioConfig's, which Trace.cfg carries)
# and the solve's W of H at the reference angles (the W a solve delivers
# is transconductance at its params)
REMOVED = {
    model: ("AlignmentAngles", "HarmonicCoefficients",
            "harmonic_coefficients", "DEGENERATE_AMP_SQ",
            "_impedance_above_resonance"),
    _kernels: ("q_reference", "clamped_acos", "transconductance_point"),
    charger: ("SensorLag", "ControllerGains", "Uncertainties"),
    charger.Trace: ("beta_offset",),
    power.PowerSolution: ("achieved_w",),
    cli: ("Schema", "_from_config", "_CHARGE_CLASSES", "_LIBRARY_ONLY",
          "_linspace", "parse_config_file"),
}


def test_every_exported_name_resolves():
    missing = [name for name in dbsrc.__all__ if not hasattr(dbsrc, name)]
    assert missing == []
    assert len(set(dbsrc.__all__)) == len(dbsrc.__all__)


def test_star_import():
    namespace = {}
    exec("from dbsrc import *", namespace)
    assert set(dbsrc.__all__) <= set(namespace)


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        for name in names:
            assert not hasattr(module, name)
            if isinstance(module, type):
                # NamedTuple records list their fields in _fields,
                # dataclasses through fields()
                field_names = module._fields if hasattr(module, "_fields") \
                    else [f.name for f in fields(module)]
                assert name not in field_names
            assert not hasattr(dbsrc, name)
            assert name not in dbsrc.__all__


# the attributes perfbench/tracer.py wraps: Tracer.__enter__ reads each
# with getattr, so a missing one makes every --trace 1 run fail, even
# where the loop no longer calls it (charger.parallel_step and
# charger.plant_step)
TRACED = {
    charger: ("parallel_step", "plant_step", "battery_step"),
    control: ("solve_controls",),
    _kernels: ("solve_controls_scan", "regulated_point", "forward_point",
               "invert_exact"),
    cli: ("main", "write_csv", "run_scenario"),
    dbsrc: ("run_scenario",),
}


def test_traced_attributes_exist():
    for module, names in TRACED.items():
        for name in names:
            assert callable(getattr(module, name, None)), \
                f"{module.__name__}.{name}"
