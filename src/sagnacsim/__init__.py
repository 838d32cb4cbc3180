"""Deterministic simulator and analysis toolkit for a fiber Sagnac loop
that interleaves phase-encoded key distribution with interferometric
disturbance sensing, null-frequency localization and weak-measurement
quasi-static metrology."""

__version__ = "0.1.0"

from types import ModuleType as _Module

from .controller import EventKind, ScenarioScript, SystemMode, run_scenario
from .disturbance import (DisturbanceEvent, ImpactParams, PressureParams,
                          PztParams, impact_phase, pressure_delay, pzt_phase)
from .optics import (C_VACUUM, LoopChannel, SpectralPacket,
                     omega_from_wavelength)
from .perception import (FrequencySweep, InterferenceTrace,
                         LocalizationReport, NullFrequency,
                         find_null_frequencies, frequency_sweep,
                         localization_report, loop_phase, resolution,
                         synthesize_trace)
from .qkd import (DetectorModel, SiftedKeyRecord, SourceModel,
                  qber_threshold_check, run_session)
from .wm import (WmCalibration, WmReading, calibrate, contrast_ratio,
                 disturbed_intensity, infer_delay, mass_from_delay,
                 pressure_staircase)

# The submodules that the imports above bind are not exported.
__all__ = sorted(name for name, value in globals().items()
                 if not (name.startswith("_") or isinstance(value, _Module)))
