"""What each import loads, checked in a fresh interpreter.

The test process has already imported every module, so each check runs its own
`python` with `src` on the path.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import spraylink

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SUBMODULES = ("calibration", "channel", "cli", "config", "errors", "fitting", "kinetics", "sensor", "traceio")
# the names `import spraylink` has exported since the package imported every submodule eagerly
PUBLIC_NAMES = [
    "AlignmentError", "BoundsViolationError", "ChannelEstimate", "ConeGeometry", "DETECTION_SCOPE",
    "FitProblem", "FitResult", "FlowRateReport", "InsufficientDataError", "KineticsParams",
    "MQ3_SENSITIVITY", "MassMeasurement", "MeasurementError", "NoSignalError", "OutOfCalibrationError",
    "ParseError", "SearchConfig", "SensitivityCoeffs", "SensitivityTable", "SensorSpec",
    "SprayLinkError", "Trace", "TransmitterSpec", "TrendReport", "ValidationError",
    "bound_concentration", "bundled_sensitivity_table", "calibration", "channel",
    "concentration_from_voltage", "detect_onset", "distance_trend", "errors",
    "estimate_channel_params", "fit_sensitivity", "fitting", "flow_rate", "free_concentration",
    "impulse_response", "in_detection_scope", "initial_concentration", "kinetics",
    "levenberg_marquardt", "load_sensitivity_table", "load_trace", "mse", "peak_time", "preprocess",
    "reference_resistance", "resample", "resistance_from_voltage", "sample_response",
    "scaling_factor", "sensitivity", "sensor", "store_trace", "traceio", "voltage_from_resistance",
    "voltage_from_sensitivity",
]


def modules_after(statement):
    """The names in sys.modules after statement runs in a fresh interpreter."""
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def test_import_spraylink_loads_no_submodule_and_no_numpy():
    loaded = modules_after("import spraylink")
    assert not {name for name in loaded if name.startswith("spraylink.")}
    assert "numpy" not in loaded


def test_the_cli_loads_neither_calibration_nor_configparser():
    loaded = modules_after("import spraylink.cli")
    assert "spraylink.fitting" in loaded
    assert "spraylink.calibration" not in loaded
    assert "configparser" not in loaded


@pytest.mark.parametrize("name", SUBMODULES)
def test_each_submodule_imports_alone(name):
    assert f"spraylink.{name}" in modules_after(f"import spraylink.{name}")


def test_the_public_names_resolve_to_their_submodules_objects():
    assert spraylink.__all__ == PUBLIC_NAMES
    modules = [importlib.import_module(f"spraylink.{name}") for name in SUBMODULES]
    listed = dir(spraylink)
    for name in PUBLIC_NAMES:
        assert name in listed
        value = getattr(spraylink, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"spraylink.{name}"]
        else:
            held = [getattr(module, name) for module in modules if hasattr(module, name)]
            assert held and all(other is value for other in held), name
    with pytest.raises(AttributeError, match="no_such_name"):
        spraylink.no_such_name
