"""Dual-bridge series resonant DC/DC converter library.

Steady-state first-harmonic model, closed-form inversion of the
waveform-alignment angles into PWM commutation parameters, frequency /
short-time output power control, PI-compensated controller
architectures and a quasi-steady-state battery-charger scenario.
"""

from .charger import (ScenarioAbort, ScenarioConfig, Trace, battery_step,
                      default_tank, pack_voltage, plant_step, run_scenario)
from .control import PiController, parallel_step, series_step
from .errors import (BelowResonanceError, DbsrcError,
                     DegenerateTankCurrentError, InfeasibleReferenceError,
                     UndefinedAtUnityGainError, UnreachablePowerError,
                     ZeroPowerReferenceError)
from .inversion import (ControlReferences, InversionResult, Mode,
                        beta_zero_maps, fully_driven_maps, invert_alignment,
                        linearized_inverse, q_combine, q_from_references,
                        q_split, try_invert_alignment)
from .model import (SwitchingParams, TankConfig, alignment_angles,
                    sync_rect_residual, tank_current_amplitude,
                    tank_impedance, transconductance)
from .power import (PowerSolution, frequency_from_impedance,
                    fully_driven_frequency, gain_term_h, required_impedance,
                    s_add_zero_boundary, solve_controls)

__version__ = "0.1.0"

# the kernels are plain Python; perfbench/run.py reads this for its context
NUMBA_ENABLED = False

__all__ = [
    "NUMBA_ENABLED", "__version__",
    # model
    "TankConfig", "SwitchingParams", "alignment_angles", "tank_impedance",
    "transconductance", "tank_current_amplitude", "sync_rect_residual",
    # inversion
    "ControlReferences", "InversionResult", "Mode", "invert_alignment",
    "try_invert_alignment", "q_combine", "q_split", "q_from_references",
    "fully_driven_maps", "beta_zero_maps", "linearized_inverse",
    # power
    "PowerSolution", "gain_term_h", "required_impedance",
    "frequency_from_impedance", "fully_driven_frequency",
    "s_add_zero_boundary", "solve_controls",
    # control
    "PiController", "series_step", "parallel_step",
    # charger
    "ScenarioConfig", "Trace", "ScenarioAbort", "battery_step",
    "pack_voltage", "plant_step", "run_scenario", "default_tank",
    # errors
    "DbsrcError", "DegenerateTankCurrentError", "BelowResonanceError",
    "InfeasibleReferenceError", "ZeroPowerReferenceError",
    "UnreachablePowerError", "UndefinedAtUnityGainError",
]
