"""Bench-measurement utilities: flow rate from mass loss, reference resistance.

The sprayer's volumetric flow rate is measured by weighing it before and
after a timed spray: Q_i = ((m_before - m_after) / rho_d) / dt, averaged
over repeated measurements. The sensor's reference resistance R_o comes
from the divider reading at the reference concentration; the detection
scope is mapped linearly onto 0..5 V, which puts the 0.0004 kg/m^3
reference at 0.2 V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import MeasurementError, ValidationError
from .sensor import _divider_resistance
from .traceio import read_columns


@dataclass(frozen=True)
class MassMeasurement:
    """One weigh-spray-weigh record: masses in kg, spray interval dt in s."""

    mass_before: float
    mass_after: float
    dt: float

    def __post_init__(self):
        if not (
            math.isfinite(self.mass_before)
            and math.isfinite(self.mass_after)
            and self.mass_before > self.mass_after >= 0.0
        ):
            raise MeasurementError(
                f"need mass_before > mass_after >= 0, got "
                f"{self.mass_before!r} and {self.mass_after!r}"
            )
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise MeasurementError(f"dt must be finite and > 0, got {self.dt!r}")


@dataclass(frozen=True)
class FlowRateReport:
    """Mean flow rate q (m^3/s), per-measurement values, and sample std."""

    q: float
    per_measurement: tuple
    std: float


def flow_rate(measurements, rho_d: float) -> FlowRateReport:
    """Average volumetric flow rate from mass-difference measurements.

    Each record contributes Q_i = ((before - after) / rho_d) / dt; the
    report carries the arithmetic mean, every Q_i, and the sample standard
    deviation (ddof = 1; zero for a single measurement).
    """
    if not (math.isfinite(rho_d) and rho_d > 0.0):
        raise ValidationError(f"rho_d must be finite and > 0, got {rho_d!r}")
    ms = list(measurements)
    if not ms:
        raise ValidationError("need at least one measurement")
    qs = tuple(((m.mass_before - m.mass_after) / rho_d) / m.dt for m in ms)
    mean = sum(qs) / len(qs)
    if len(qs) > 1:
        std = math.sqrt(sum((q - mean) ** 2 for q in qs) / (len(qs) - 1))
    else:
        std = 0.0
    return FlowRateReport(q=mean, per_measurement=qs, std=std)


def reference_resistance(eout_ref: float, ein: float, rl: float) -> float:
    """Reference resistance R_o from the divider reading at the reference
    concentration: (Ein/Eout - 1) * RL, in Ohm.

    With the detection scope scaled linearly onto 0..Ein volts, the
    0.0004 kg/m^3 reference reads 0.2 V on a 5 V supply; that convention is
    only used to justify the reference voltage, nowhere else.
    """
    if not (math.isfinite(ein) and ein > 0.0):
        raise ValidationError(f"ein must be finite and > 0, got {ein!r}")
    if not (math.isfinite(rl) and rl > 0.0):
        raise ValidationError(f"rl must be finite and > 0, got {rl!r}")
    return _divider_resistance(eout_ref, ein, rl)


def load_mass_measurements(path) -> list[MassMeasurement]:
    """Read a CSV `mass_before_kg,mass_after_kg,dt_s` (rules of traceio.read_columns)."""
    columns = read_columns(path, "mass_before_kg,mass_after_kg,dt_s")
    return [MassMeasurement(*row) for row in zip(*(c.tolist() for c in columns))]
