"""Every process-wide ``functools`` cache of sagnacsim that is keyed on
values holds a bounded number of entries and shares only read-only
arrays.  Caches keyed on types, or on nothing, hold one entry per class
or one in all and are exempt."""
import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import sagnacsim
from sagnacsim.disturbance import DisturbanceEvent, PztParams
from sagnacsim.optics import LoopChannel

#: Arguments of one call of each cache keyed on values.
VALUE_KEYED = {
    "perception._bessel_orders": [(3.8276237805496392, 32768)],
    "perception._drive_rows": [(0.9569059451374098, 25, 0, 4)],
    "perception._sweep_response": [(
        DisturbanceEvent(PztParams(drive_amplitude_v=1.2, frequency_hz=3e3),
                         position_m=5000.0),
        LoopChannel(length_m=30000.0, bias_phase_rad=0.5 * np.pi),
        np.arange(2000.0, 3000.0, 250.0).tobytes(), 2000, 5.645e-3)],
    "perception._welch_plan": [(128, 200e3)],
    "qkd._harmonic_plan": [(1.0, 1e-6, 0.4)],
    "qkd._steady_class_probabilities": [(0.01, 1e-6, 0.4)],
}

#: Caches keyed on types or on nothing.
EXEMPT = {"cli._parsers", "errors._number_kind", "errors.field_specs"}


def _caches() -> dict:
    """Each ``functools`` cache defined in a sagnacsim module, by
    ``module.name``."""
    found = {}
    for info in pkgutil.iter_modules(sagnacsim.__path__):
        module = importlib.import_module(f"sagnacsim.{info.name}")
        for name, value in vars(module).items():
            if (hasattr(value, "cache_parameters")
                    and value.__module__ == module.__name__):
                found[f"{info.name}.{name}"] = value
    return found


def _arrays(value):
    """Every ndarray in ``value``, through tuples, lists, dict values and
    dataclass fields."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _arrays(getattr(value, field.name))


def test_every_cache_is_classified():
    assert set(_caches()) == set(VALUE_KEYED) | EXEMPT


@pytest.mark.parametrize("name", sorted(VALUE_KEYED))
def test_value_keyed_caches_are_bounded(name):
    maxsize = _caches()[name].cache_parameters()["maxsize"]
    assert maxsize is not None and 0 < maxsize <= 64


@pytest.mark.parametrize("name", sorted(VALUE_KEYED))
def test_cached_arrays_are_read_only(name):
    cache = _caches()[name]
    for args in VALUE_KEYED[name]:
        for value in (cache(*args), cache(*args)):
            for array in _arrays(value):
                assert not array.flags.writeable
