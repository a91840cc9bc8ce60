"""Public-API guard: dbsrc.__all__ names exactly what the package
exports."""

from dataclasses import fields

import dbsrc
from dbsrc import _kernels, charger, cli, model

# names deleted with the two-record forward model, the second q map, the
# sensor-lag class (the loop's lags are floats), the CLI's lazy config
# view (cli._typed parses every key once) and the gain and plant-error
# records (their fields are ScenarioConfig's, which Trace.cfg carries)
REMOVED = {
    model: ("AlignmentAngles", "HarmonicCoefficients",
            "harmonic_coefficients", "DEGENERATE_AMP_SQ"),
    _kernels: ("q_reference", "clamped_acos", "transconductance_point"),
    charger: ("SensorLag", "ControllerGains", "Uncertainties"),
    charger.Trace: ("beta_offset",),
    cli: ("Schema", "_from_config", "_CHARGE_CLASSES", "_LIBRARY_ONLY",
          "_linspace"),
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
                assert name not in {f.name for f in fields(module)}
            assert not hasattr(dbsrc, name)
            assert name not in dbsrc.__all__
