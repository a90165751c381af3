"""Shared fixtures, and the numerical references the tests check the closed forms against."""

import math

import numpy as np
import pytest

from spraylink.channel import TransmitterSpec
from spraylink.errors import ValidationError
from spraylink.kinetics import KineticsParams
from spraylink.sensor import MQ3_SENSITIVITY, SensorSpec


@pytest.fixture
def bench_tx() -> TransmitterSpec:
    """Transmitter with the bench parameter set (gamma 1)."""
    return TransmitterSpec(
        q=2.204e-6, te=0.5, rho_d=789.0, theta=math.radians(38.0), gamma=1.0
    )


@pytest.fixture
def bench_sensor() -> SensorSpec:
    """Sensor with the bench circuit constants and fitted MQ-3 curve."""
    return SensorSpec(ein=5.0, rl=1000.0, ro=24000.0, sens=MQ3_SENSITIVITY)


def _fd_jacobian(fun, p, r0, step, hi):
    """Forward finite-difference Jacobian of fun at p, with r0 = fun(p).

    Parameter j is stepped by step[j]; a step that would cross hi[j] is
    flipped backward so the probe stays feasible.
    """
    J = np.empty((r0.size, p.size))
    for j in range(p.size):
        h = step[j]
        if p[j] + h > hi[j]:
            h = -h
        probe = p.copy()
        probe[j] += h
        J[:, j] = (np.asarray(fun(probe), dtype=float) - r0) / h
    return J


def rk4_trajectory(c0: float, kin: KineticsParams, t_end: float, dt: float):
    """Integrate (C, B, Z) with classical fixed-step RK4.

    Returns (t, c, b, z) as float arrays of length n+1 where n = round(t_end/dt).
    Z accumulates the detached mass (dZ/dt = k2 B), so c + b + z is a
    conserved quantity equal to c0 up to roundoff. This integrator exists to
    validate the closed forms and deliberately shares no code with them.
    """
    if not (math.isfinite(c0) and c0 >= 0.0):
        raise ValidationError(f"c0 must be finite and >= 0, got {c0!r}")
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValidationError(f"dt must be finite and > 0, got {dt!r}")
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise ValidationError(f"t_end must be finite and > 0, got {t_end!r}")
    if dt > t_end:
        raise ValidationError(f"dt = {dt!r} exceeds t_end = {t_end!r}")

    k1, k2 = kin.k1, kin.k2
    n = int(round(t_end / dt))
    t = np.arange(n + 1) * dt
    cs = np.empty(n + 1)
    bs = np.empty(n + 1)
    zs = np.empty(n + 1)
    c, b, z = c0, 0.0, 0.0
    cs[0], bs[0], zs[0] = c, b, z
    h = dt
    for i in range(1, n + 1):
        dc1 = -k1 * c
        db1 = k1 * c - k2 * b
        dz1 = k2 * b
        c2 = c + 0.5 * h * dc1
        b2 = b + 0.5 * h * db1
        dc2 = -k1 * c2
        db2 = k1 * c2 - k2 * b2
        dz2 = k2 * b2
        c3 = c + 0.5 * h * dc2
        b3 = b + 0.5 * h * db2
        dc3 = -k1 * c3
        db3 = k1 * c3 - k2 * b3
        dz3 = k2 * b3
        c4 = c + h * dc3
        b4 = b + h * db3
        dc4 = -k1 * c4
        db4 = k1 * c4 - k2 * b4
        dz4 = k2 * b4
        c += h / 6.0 * (dc1 + 2.0 * dc2 + 2.0 * dc3 + dc4)
        b += h / 6.0 * (db1 + 2.0 * db2 + 2.0 * db3 + db4)
        z += h / 6.0 * (dz1 + 2.0 * dz2 + 2.0 * dz3 + dz4)
        cs[i], bs[i], zs[i] = c, b, z
    return t, cs, bs, zs
