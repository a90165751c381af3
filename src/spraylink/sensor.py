"""Metal-oxide gas sensor model: sensitivity curve and measurement circuit.

The sensor expresses the adhered-droplet concentration B as a resistance
ratio through the fitted power law

    f(B) = a * B^b + c        (= R_S / R_o, dimensionless)

and the measurement circuit is a voltage divider driven at Ein with load
RL, so the observed voltage and the sensor resistance are tied by

    R_S = (Ein / Eout - 1) * RL
    Eout = Ein * RL / (Ro * (f(B) + RL / Ro)).

R_o is the sensor resistance at the 0.0004 kg/m^3 reference concentration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfCalibrationError, ValidationError
from .traceio import read_columns

# Concentration range the sensor is specified for, kg/m^3. Values outside
# are evaluated as-is (never clamped); use in_detection_scope to flag them.
DETECTION_SCOPE = (5e-5, 1e-2)


@dataclass(frozen=True)
class SensitivityCoeffs:
    """Power-law coefficients of the sensitivity curve f(B) = a*B^b + c."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValidationError(f"a must be finite and > 0, got {self.a!r}")
        if not (math.isfinite(self.b) and self.b < 0.0):
            raise ValidationError(f"b must be finite and < 0, got {self.b!r}")
        if not math.isfinite(self.c):
            raise ValidationError(f"c must be finite, got {self.c!r}")
        # f is decreasing in B (b < 0), so its minimum over the detection
        # scope sits at the upper end.
        hi = DETECTION_SCOPE[1]
        if self.a * hi**self.b + self.c <= 0.0:
            raise ValidationError(
                "sensitivity must stay positive over the detection scope "
                f"{DETECTION_SCOPE}; f({hi}) <= 0 for (a, b, c) = "
                f"({self.a}, {self.b}, {self.c})"
            )


#: Coefficients of the fitted MQ-3 sensitivity curve.
MQ3_SENSITIVITY = SensitivityCoeffs(a=0.0116, b=-0.5855, c=-0.0743)


@dataclass(frozen=True)
class SensorSpec:
    """Measurement-circuit constants and the sensitivity curve.

    Fields: supply voltage ein (V), load resistance rl (Ohm), reference
    resistance ro (Ohm, at 0.0004 kg/m^3), sensitivity coefficients sens.
    """

    ein: float
    rl: float
    ro: float
    sens: SensitivityCoeffs = MQ3_SENSITIVITY

    def __post_init__(self):
        for name in ("ein", "rl", "ro"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValidationError(f"{name} must be finite and > 0, got {v!r}")


def in_detection_scope(b) -> bool:
    """True when every concentration lies inside the sensor's rated scope."""
    arr = np.asarray(b, dtype=float)
    return bool(np.all((arr >= DETECTION_SCOPE[0]) & (arr <= DETECTION_SCOPE[1])))


def sensitivity(b, sens: SensitivityCoeffs):
    """Resistance ratio R_S/R_o for adhered concentration b (kg/m^3).

    b must be strictly positive (the power law diverges at 0); callers that
    want the b -> 0 limit use the impulse-response convention instead.
    Accepts a scalar or array.
    """
    arr = np.asarray(b, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValidationError("concentration must be finite and > 0")
    out = sens.a * arr**sens.b + sens.c
    return float(out) if np.ndim(b) == 0 else out


def _divider_resistance(eout: float, ein: float, rl: float) -> float:
    """Bottom-leg resistance of the divider from the measured output voltage."""
    if not (0.0 < eout < ein):
        raise ValidationError(
            f"output voltage must lie strictly inside (0, {ein}) V, got {eout!r}"
        )
    return (ein / eout - 1.0) * rl


def resistance_from_voltage(eout: float, spec: SensorSpec) -> float:
    """Sensor resistance R_S = (Ein/Eout - 1) * RL, in Ohm."""
    return _divider_resistance(eout, spec.ein, spec.rl)


def voltage_from_resistance(rs: float, spec: SensorSpec) -> float:
    """Divider output Eout = Ein * RL / (RL + R_S); inverse of resistance_from_voltage."""
    if not (math.isfinite(rs) and rs > 0.0):
        raise ValidationError(f"sensor resistance must be finite and > 0, got {rs!r}")
    return spec.ein * spec.rl / (spec.rl + rs)


def voltage_from_sensitivity(ratio, spec: SensorSpec):
    """Output voltage for a resistance ratio R_S/R_o.

    Eout = Ein * RL / (Ro * (ratio + RL/Ro)), always in (0, Ein).
    Accepts a scalar or array ratio.
    """
    arr = np.asarray(ratio, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValidationError("resistance ratio must be finite and > 0")
    out = spec.ein * spec.rl / (spec.ro * (arr + spec.rl / spec.ro))
    return float(out) if np.ndim(ratio) == 0 else out


def concentration_from_voltage(eout: float, spec: SensorSpec) -> float:
    """Invert the voltage back to adhered concentration, kg/m^3.

    Composes the circuit inversion with the power-law inversion
    B = ((ratio - c) / a)^(1/b). Voltages whose implied ratio is not above
    the offset c are outside the power law's range.
    """
    ratio = resistance_from_voltage(eout, spec) / spec.ro
    sens = spec.sens
    if ratio <= sens.c:
        raise OutOfCalibrationError(
            f"voltage {eout!r} V implies ratio {ratio!r} <= offset {sens.c!r}; "
            "outside the sensitivity curve's range"
        )
    return ((ratio - sens.c) / sens.a) ** (1.0 / sens.b)


@dataclass(frozen=True)
class SensitivityTable:
    """Calibration points (concentration kg/m^3, resistance ratio R_S/R_o)."""

    concentration: np.ndarray
    ratio: np.ndarray

    def __post_init__(self):
        conc = np.asarray(self.concentration, dtype=float)
        rat = np.asarray(self.ratio, dtype=float)
        if conc.ndim != 1 or rat.shape != conc.shape:
            raise ValidationError("table columns must be 1-D and equal length")
        if not (np.all(np.isfinite(conc)) and np.all(np.isfinite(rat))):
            raise ValidationError("table values must be finite")
        conc.setflags(write=False)
        rat.setflags(write=False)
        object.__setattr__(self, "concentration", conc)
        object.__setattr__(self, "ratio", rat)

    def __len__(self) -> int:
        return self.concentration.size


def load_sensitivity_table(path) -> SensitivityTable:
    """Read a CSV `concentration_kg_m3,rs_over_ro` (rules of traceio.read_columns)."""
    return SensitivityTable(*read_columns(path, "concentration_kg_m3,rs_over_ro"))


def bundled_sensitivity_table() -> SensitivityTable:
    """The packaged MQ-3 sensitivity table.

    The points are a reconstruction consistent with the fitted curve
    MQ3_SENSITIVITY (see the data file's comments), not datasheet ground
    truth.
    """
    from importlib import resources

    ref = resources.files("spraylink").joinpath("data/mq3_sensitivity.csv")
    with resources.as_file(ref) as path:
        return load_sensitivity_table(path)
