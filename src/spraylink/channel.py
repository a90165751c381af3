"""Spray-cone geometry, initial concentration, and the end-to-end response.

The sprayer emits total mass m_TX = Q * Te * rho_d into a cone of
half-beamwidth theta. Droplet/air interaction concentrates most droplets
into a narrower inner cone (half-beamwidth theta_rv) that encloses the
sensor's reception volume; the spray coefficient gamma quantifies how far
the spatial distribution deviates from homogeneous. The fraction of the
transmitted mass attributed to the inner cone is

    eta = (tan(theta_rv) / tan(theta))^2 * gamma,   1 <= gamma <= (tan theta / tan theta_rv)^2,

and the initial concentration in the reception volume reduces to

    C0 = 3 Q Te rho_d gamma / (pi s^3 tan^2(theta)),

independent of theta_rv. The end-to-end voltage response to a short spray
is the composition C0 -> B(t) -> f(B) -> divider voltage. One rule, _defined,
says where it is defined: at B = 0 (t = 0, t -> infinity), which maps to 0 V
by continuity, or where f(B) is finite and > 0. The private evaluator _volts
gives NaN elsewhere, for the fitting stages to mask; response_voltages
raises OutOfCalibrationError there.

Angles are radians everywhere in this module; only the CLI/config boundary
speaks degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kinetics as kin_mod
from .errors import BoundsViolationError, OutOfCalibrationError, ValidationError, require_positive
from .kinetics import KineticsParams
from .sensor import DETECTION_SCOPE, SensorSpec
from .traceio import Trace

# Relative slack when checking gamma against its geometric upper bound, so a
# bound computed by the caller through a different floating-point path is
# still admitted.
_GAMMA_BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class TransmitterSpec:
    """Sprayer emission parameters.

    Fields: volumetric flow rate q (m^3/s), emission time te (s), liquid
    density rho_d (kg/m^3), outer-cone half-beamwidth theta (rad), spray
    coefficient gamma (dimensionless, >= 1; its geometric upper bound is
    only checkable against a ConeGeometry, see scaling_factor).
    """

    q: float
    te: float
    rho_d: float
    theta: float
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("q", "te", "rho_d"):
            require_positive(name, getattr(self, name))
        if not (0.0 < self.theta < math.pi / 2.0):
            raise ValidationError(
                f"theta must lie in (0, pi/2) rad, got {self.theta!r}"
            )
        if not (math.isfinite(self.gamma) and self.gamma >= 1.0):
            raise ValidationError(f"gamma must be >= 1, got {self.gamma!r}")

    @property
    def mass(self) -> float:
        """Transmitted mass m_TX = Q * Te * rho_d, kg."""
        return self.q * self.te * self.rho_d


@dataclass(frozen=True)
class ConeGeometry:
    """Concentric outer/inner spray cones at transmitter distance s.

    Fields: s (m), outer half-beamwidth theta (rad), inner half-beamwidth
    theta_rv (rad). Derived volumes and the inner-cone base diameter are
    exposed as properties.
    """

    s: float
    theta: float
    theta_rv: float

    def __post_init__(self):
        require_positive("s", self.s)
        if not (0.0 < self.theta_rv <= self.theta < math.pi / 2.0):
            raise ValidationError(
                "need 0 < theta_rv <= theta < pi/2, got "
                f"theta_rv = {self.theta_rv!r}, theta = {self.theta!r}"
            )

    @property
    def v_c(self) -> float:
        """Outer cone volume (pi/3) s (s tan theta)^2, m^3."""
        return math.pi / 3.0 * self.s * (self.s * math.tan(self.theta)) ** 2

    @property
    def v_rc(self) -> float:
        """Inner cone volume, m^3."""
        return math.pi / 3.0 * self.s * (self.s * math.tan(self.theta_rv)) ** 2

    @property
    def r_rv(self) -> float:
        """Inner cone base diameter 2 s tan(theta_rv), m."""
        return 2.0 * self.s * math.tan(self.theta_rv)

    @property
    def gamma_max(self) -> float:
        """Upper bound of the spray coefficient, (tan theta / tan theta_rv)^2."""
        return (math.tan(self.theta) / math.tan(self.theta_rv)) ** 2


def scaling_factor(geom: ConeGeometry, gamma: float) -> float:
    """Fraction of transmitted mass attributed to the inner cone.

    eta = (tan theta_rv / tan theta)^2 * gamma, in (0, 1]. gamma outside
    [1, gamma_max] raises BoundsViolationError carrying the admissible
    interval.
    """
    hi = geom.gamma_max
    if not (math.isfinite(gamma) and 1.0 <= gamma <= hi * (1.0 + _GAMMA_BOUND_SLACK)):
        raise BoundsViolationError("gamma", gamma, 1.0, hi)
    eta = (math.tan(geom.theta_rv) / math.tan(geom.theta)) ** 2 * gamma
    # eta == 1 exactly at the gamma bound; shave off pure-roundoff excess.
    return min(eta, 1.0)


def initial_concentration(tx: TransmitterSpec, s: float) -> float:
    """Initial droplet concentration in the reception volume, kg/m^3.

    C0 = 3 Q Te rho_d gamma / (pi s^3 tan^2 theta). The inner-cone angle
    cancels out, so no ConeGeometry is needed. A C0 that is not a finite
    float > 0 (s^3 under- or overflows) raises ValidationError naming s.
    """
    require_positive("distance s", s)
    try:
        c0 = (
            3.0
            * tx.q
            * tx.te
            * tx.rho_d
            * tx.gamma
            / (math.pi * s**3 * math.tan(tx.theta) ** 2)
        )
    except (ZeroDivisionError, OverflowError):
        c0 = math.nan
    if not 0.0 < c0 < math.inf:
        raise ValidationError(
            f"distance s = {s!r} m gives no finite C0 > 0 "
            "(s^3 or Q Te rho_d gamma leaves the float range)"
        )
    return c0


def impulse_response(
    tx: TransmitterSpec,
    kin: KineticsParams,
    sensor: SensorSpec,
    s: float,
    t: float,
) -> float:
    """End-to-end voltage at one time t, V: response_voltages at a single sample."""
    return float(response_voltages(tx, kin, sensor, s, np.array([t]))[0])


def _defined(b, ratio):
    """The model's definedness rule: B = 0, or the ratio f(B) finite and > 0."""
    return (b == 0.0) | ((ratio > 0.0) & (ratio < math.inf))


def _volts(b, sensor: SensorSpec, ab=None) -> np.ndarray:
    """Volts at concentrations b (an array) by the sensor formulas, unchecked; NaN where not _defined.

    ab, if given, is sens.a * b**sens.b, already computed; it is left as it
    is. The volts are a new array. When every sample is defined (every
    ratio f(B) > 0, and every infinite one at B = 0) they are computed in
    the ratio's place and returned as they are.
    """
    sens = sensor.sens
    with np.errstate(divide="ignore", over="ignore"):
        if ab is None:
            ab = b**sens.b
            np.multiply(sens.a, ab, out=ab)
        ratio = ab + sens.c
        defined = ratio.min(initial=math.inf) > 0.0 and (
            ratio.max(initial=0.0) < math.inf or not b[ratio == math.inf].any()
        )
        volts = ratio if defined else ratio.copy()
        volts += sensor.rl / sensor.ro
        np.multiply(sensor.ro, volts, out=volts)
        np.divide(sensor.ein * sensor.rl, volts, out=volts)
    return volts if defined else np.where(_defined(b, ratio), volts, math.nan)


def response_voltages(
    tx: TransmitterSpec,
    kin: KineticsParams,
    sensor: SensorSpec,
    s: float,
    times: np.ndarray,
) -> np.ndarray:
    """End-to-end voltage at each time after a short spray emission, V.

    Composes initial_concentration -> bound_concentration -> sensitivity ->
    voltage_from_sensitivity, with the continuous limit 0 V where the
    adhered concentration vanishes (t = 0, t -> infinity). Times are
    elapsed after the propagation delay; the trace pipeline handles that
    alignment. Raises OutOfCalibrationError where the model is undefined
    at any sample (see the module doc).
    """
    b = np.atleast_1d(kin_mod.bound_concentration(initial_concentration(tx, s), kin, times))
    volts = _volts(b, sensor)
    if np.isnan(volts).any():
        raise OutOfCalibrationError(
            f"sensitivity f(B) is not finite and > 0 at every modeled concentration "
            f"(peak B = {np.max(b):.6g} kg/m^3; rated detection scope {DETECTION_SCOPE} kg/m^3)"
        )
    return volts


def sample_response(
    tx: TransmitterSpec,
    kin: KineticsParams,
    sensor: SensorSpec,
    s: float,
    times,
) -> Trace:
    """Sample the end-to-end response on a time grid and return a Trace.

    times must be 1-D, finite, >= 0 and strictly increasing, or else
    bound_concentration or Trace raises ValidationError; an empty grid
    gives an empty Trace. The trace metadata records the generating parameters.
    """
    t = np.asarray(times, dtype=float)
    volts = response_voltages(tx, kin, sensor, s, t)
    meta = {
        "source": "model",
        "k1": kin.k1,
        "k2": kin.k2,
        "gamma": tx.gamma,
        "s": s,
        "q": tx.q,
        "te": tx.te,
        "rho_d": tx.rho_d,
        "theta": tx.theta,
    }
    return Trace(t.copy(), volts, meta=meta)
