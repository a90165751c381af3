"""Modeling and parameter estimation for spray-to-gas-sensor links.

A sprayer emits liquid droplets toward a metal-oxide gas sensor; this
package evaluates the closed-form voltage response of that link (cone
geometry, adhesion/detachment kinetics, sensor sensitivity, measurement
circuit) and fits its free parameters from measured voltage traces.
"""

__version__ = "0.1.0"

from .calibration import FlowRateReport, MassMeasurement, flow_rate, reference_resistance
from .channel import (
    ConeGeometry,
    TransmitterSpec,
    impulse_response,
    initial_concentration,
    sample_response,
    scaling_factor,
)
from .errors import (
    AlignmentError,
    BoundsViolationError,
    InsufficientDataError,
    MeasurementError,
    NoSignalError,
    OutOfCalibrationError,
    ParseError,
    SprayLinkError,
    ValidationError,
)
from .fitting import (
    ChannelEstimate,
    FitProblem,
    FitResult,
    SearchConfig,
    TrendReport,
    distance_trend,
    estimate_channel_params,
    fit_sensitivity,
    levenberg_marquardt,
    mse,
)
from .kinetics import (
    KineticsParams,
    bound_concentration,
    free_concentration,
    peak_time,
)
from .sensor import (
    DETECTION_SCOPE,
    MQ3_SENSITIVITY,
    SensitivityCoeffs,
    SensitivityTable,
    SensorSpec,
    bundled_sensitivity_table,
    concentration_from_voltage,
    in_detection_scope,
    load_sensitivity_table,
    resistance_from_voltage,
    sensitivity,
    voltage_from_resistance,
    voltage_from_sensitivity,
)
from .traceio import Trace, detect_onset, load_trace, preprocess, resample, store_trace

__all__ = [name for name in dir() if not name.startswith("_")]
