"""Modeling and parameter estimation for spray-to-gas-sensor links.

A sprayer emits liquid droplets toward a metal-oxide gas sensor; this
package evaluates the closed-form voltage response of that link (cone
geometry, adhesion/detachment kinetics, sensor sensitivity, measurement
circuit) and fits its free parameters from measured voltage traces.

The public names load with their submodule on first access (PEP 562), so
`import spraylink` costs little and a command loads only what it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "calibration": ("FlowRateReport", "MassMeasurement", "flow_rate", "reference_resistance"),
    "channel": (
        "ConeGeometry", "TransmitterSpec", "impulse_response", "initial_concentration",
        "sample_response", "scaling_factor",
    ),
    "errors": (
        "AlignmentError", "BoundsViolationError", "InsufficientDataError", "MeasurementError",
        "NoSignalError", "OutOfCalibrationError", "ParseError", "SprayLinkError", "ValidationError",
    ),
    "fitting": (
        "ChannelEstimate", "FitProblem", "FitResult", "SearchConfig", "TrendReport",
        "distance_trend", "estimate_channel_params", "fit_sensitivity", "levenberg_marquardt",
        "mse",
    ),
    "kinetics": ("KineticsParams", "bound_concentration", "free_concentration", "peak_time"),
    "sensor": (
        "DETECTION_SCOPE", "MQ3_SENSITIVITY", "SensitivityCoeffs", "SensitivityTable", "SensorSpec",
        "bundled_sensitivity_table", "concentration_from_voltage", "in_detection_scope",
        "load_sensitivity_table", "resistance_from_voltage", "sensitivity",
        "voltage_from_resistance", "voltage_from_sensitivity",
    ),
    "traceio": ("Trace", "detect_onset", "load_trace", "preprocess", "resample", "store_trace"),
}
# public name -> its submodule; a submodule's own name maps to itself
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
