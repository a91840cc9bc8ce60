"""Public-API guard: dbsrc.__all__ names exactly what the package
exports."""

import dbsrc
from dbsrc import _kernels, charger, cli, model

# names deleted with the two-record forward model, the second q map, the
# sensor-lag class (the loop's lags are floats) and the CLI's lazy
# config view (cli._typed parses every key once)
REMOVED = {
    model: ("AlignmentAngles", "HarmonicCoefficients",
            "harmonic_coefficients", "DEGENERATE_AMP_SQ"),
    _kernels: ("q_reference", "clamped_acos", "transconductance_point"),
    charger: ("SensorLag",),
    cli: ("Schema",),
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
            assert not hasattr(dbsrc, name)
            assert name not in dbsrc.__all__
