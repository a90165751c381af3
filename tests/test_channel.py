"""Cone geometry, initial concentration, and the composed voltage response."""

import dataclasses
import math

import numpy as np
import pytest

from spraylink import channel
from spraylink.channel import (
    ConeGeometry,
    TransmitterSpec,
    impulse_response,
    initial_concentration,
    response_voltages,
    sample_response,
    scaling_factor,
)
from spraylink.errors import BoundsViolationError, OutOfCalibrationError, ValidationError
from spraylink.kinetics import KineticsParams, bound_concentration, peak_time
from spraylink.sensor import SensitivityCoeffs, sensitivity, voltage_from_sensitivity

C0_BENCH_S1 = 0.001360223615642522  # bench parameters, gamma 1, s = 1 m


def geom(theta_deg=38.0, theta_rv_deg=19.0, s=1.0):
    return ConeGeometry(
        s=s, theta=math.radians(theta_deg), theta_rv=math.radians(theta_rv_deg)
    )


def test_transmitter_validation():
    with pytest.raises(ValidationError):
        TransmitterSpec(q=0.0, te=0.5, rho_d=789.0, theta=0.5)
    with pytest.raises(ValidationError):
        TransmitterSpec(q=1e-6, te=0.5, rho_d=789.0, theta=math.pi / 2)
    with pytest.raises(ValidationError):
        TransmitterSpec(q=1e-6, te=0.5, rho_d=789.0, theta=0.5, gamma=0.5)


def test_transmitter_mass(bench_tx):
    assert bench_tx.mass == bench_tx.q * bench_tx.te * bench_tx.rho_d == 2.204e-6 * 0.5 * 789.0


def test_cone_geometry():
    g = geom()
    assert g.v_c == pytest.approx(math.pi / 3.0 * math.tan(g.theta) ** 2, rel=1e-12)
    assert g.v_rc < g.v_c
    assert g.r_rv == pytest.approx(2.0 * math.tan(g.theta_rv), rel=1e-12)
    with pytest.raises(ValidationError):
        ConeGeometry(s=1.0, theta=math.radians(19.0), theta_rv=math.radians(38.0))
    with pytest.raises(ValidationError):
        ConeGeometry(s=0.0, theta=0.5, theta_rv=0.3)


def test_scaling_factor_equal_angles():
    assert scaling_factor(geom(38.0, 38.0), 1.0) == 1.0


def test_scaling_factor_half_angle():
    assert scaling_factor(geom(38.0, 19.0), 1.0) == pytest.approx(
        0.1942334549963162, rel=1e-12
    )


def test_scaling_factor_saturates_at_gamma_max():
    g = geom(38.0, 19.0)
    assert scaling_factor(g, g.gamma_max) == 1.0


def test_scaling_factor_gamma_bounds():
    g = geom(38.0, 19.0)
    with pytest.raises(BoundsViolationError) as err:
        scaling_factor(g, 0.5)
    assert err.value.interval == (1.0, g.gamma_max)
    with pytest.raises(BoundsViolationError):
        scaling_factor(g, g.gamma_max * 1.01)


def test_scaling_factor_range():
    rng = np.random.default_rng(3)
    for _ in range(100):
        th = rng.uniform(0.1, 1.4)
        th_rv = rng.uniform(0.05, th)
        g = ConeGeometry(s=rng.uniform(0.1, 3.0), theta=th, theta_rv=th_rv)
        gamma = rng.uniform(1.0, g.gamma_max)
        eta = scaling_factor(g, gamma)
        assert 0.0 < eta <= 1.0


def test_initial_concentration_bench(bench_tx):
    assert initial_concentration(bench_tx, 1.0) == pytest.approx(C0_BENCH_S1, rel=1e-12)
    assert initial_concentration(bench_tx, 0.9) == pytest.approx(
        0.0018658760159705379, rel=1e-12
    )
    with pytest.raises(ValidationError):
        initial_concentration(bench_tx, 0.0)


# s^3 underflows to 0, is subnormal so C0 overflows to inf, or overflows
@pytest.mark.parametrize("s", [1e-200, 1e-105, 1e300])
def test_initial_concentration_refuses_distance_out_of_float_range(bench_tx, s):
    with pytest.raises(ValidationError, match="distance s = "):
        initial_concentration(bench_tx, s)


def test_initial_concentration_scalings(bench_tx):
    import dataclasses

    doubled = dataclasses.replace(bench_tx, gamma=2.0)
    assert initial_concentration(doubled, 1.0) == 2.0 * initial_concentration(bench_tx, 1.0)
    # inverse cube in distance, exactly 1/8 at doubled distance
    assert initial_concentration(bench_tx, 0.9) / initial_concentration(bench_tx, 1.8) == 8.0
    s = np.linspace(0.3, 3.0, 50)
    c0 = np.array([initial_concentration(bench_tx, float(si)) for si in s])
    assert np.all(np.diff(c0) < 0.0)


def test_impulse_response_limits(bench_tx, bench_sensor):
    kin = KineticsParams(2.0, 0.5)
    assert impulse_response(bench_tx, kin, bench_sensor, 1.0, 0.0) == 0.0
    assert impulse_response(bench_tx, kin, bench_sensor, 1.0, 1e9) == 0.0


def test_impulse_response_matches_manual_composition(bench_tx, bench_sensor):
    kin = KineticsParams(2.0, 0.5)
    t_star = peak_time(kin)
    direct = impulse_response(bench_tx, kin, bench_sensor, 1.0, t_star)
    c0 = initial_concentration(bench_tx, 1.0)
    b = bound_concentration(c0, kin, t_star)
    manual = voltage_from_sensitivity(sensitivity(b, bench_sensor.sens), bench_sensor)
    assert direct == pytest.approx(manual, rel=1e-12)
    assert 0.0 < direct < bench_sensor.ein
    # grid evaluation composes identically
    t = np.linspace(0.0, 10.0, 301)
    grid = response_voltages(bench_tx, kin, bench_sensor, 1.0, t)
    pointwise = np.array(
        [impulse_response(bench_tx, kin, bench_sensor, 1.0, float(ti)) for ti in t]
    )
    np.testing.assert_allclose(grid, pointwise, rtol=1e-12, atol=0.0)


def test_impulse_response_bounded(bench_tx, bench_sensor):
    kin = KineticsParams(2.0, 0.5)
    t = np.linspace(0.0, 50.0, 2000)
    v = response_voltages(bench_tx, kin, bench_sensor, 1.0, t)
    assert np.all(v >= 0.0)
    assert np.all(v < bench_sensor.ein)


def test_sample_response_empty_and_single(bench_tx, bench_sensor):
    kin = KineticsParams(2.0, 0.5)
    empty = sample_response(bench_tx, kin, bench_sensor, 1.0, [])
    assert len(empty) == 0
    single = sample_response(bench_tx, kin, bench_sensor, 1.0, [0.0])
    assert len(single) == 1
    assert single.volts[0] == 0.0


def test_sample_response_peak_interior(bench_tx, bench_sensor):
    import dataclasses

    tx = dataclasses.replace(bench_tx, gamma=3.0)
    kin = KineticsParams(2.0, 0.5)
    times = np.arange(0, 1001) * 0.01
    trace = sample_response(tx, kin, bench_sensor, 1.0, times)
    peak_idx = int(np.argmax(trace.volts))
    assert peak_idx > 0
    assert abs(trace.times[peak_idx] - peak_time(kin)) <= 0.01
    assert trace.meta["gamma"] == 3.0 and trace.meta["s"] == 1.0


def test_sample_response_validation(bench_tx, bench_sensor):
    kin = KineticsParams(2.0, 0.5)
    with pytest.raises(ValidationError):
        sample_response(bench_tx, kin, bench_sensor, 1.0, [0.0, 2.0, 1.0])
    with pytest.raises(ValidationError):
        sample_response(bench_tx, kin, bench_sensor, 1.0, [-1.0, 0.0])
    # every class of invalid time grid: 2-D (also empty), 0-D, negative,
    # NaN, inf, non-increasing, duplicated
    for times in ([[0.0, 1.0], [2.0, 3.0]], [[]], 1.0, [0.0, -1.0], [0.0, math.nan],
                  [0.0, math.inf], [0.0, 2.0, 1.0], [0.0, 1.0, 1.0]):
        with pytest.raises(ValidationError):
            sample_response(bench_tx, kin, bench_sensor, 1.0, times)


_STEEP = SensitivityCoeffs(a=1e-13, b=-5.0, c=0.01)


# (distance, sensitivity, rates, duration, samples, some sample undefined)
@pytest.mark.parametrize(
    "s, sens, k1, k2, t_end, n, undefined",
    [
        # B = 0 at t = 0 and where the tail underflows, defined everywhere else
        pytest.param(1.0, None, 2.0, 0.5, 2000.0, 2001, False, id="in_range_zero_tail"),
        # f(B) <= 0 around the peak
        pytest.param(0.05, None, 2.0, 0.5, 10.0, 1001, True, id="near_field_peak"),
        # B^-5 overflows in the tail before B underflows to 0
        pytest.param(1.0, _STEEP, 20.0, 5.0, 200.0, 2001, True, id="steep_tail_overflow"),
    ],
)
def test_volts_follow_the_sensor_composition(
    bench_tx, bench_sensor, s, sens, k1, k2, t_end, n, undefined
):
    sensor = bench_sensor if sens is None else dataclasses.replace(bench_sensor, sens=sens)
    kin = KineticsParams(k1, k2)
    times = np.linspace(0.0, t_end, n)
    c0 = initial_concentration(bench_tx, s)
    b = bound_concentration(c0, kin, times)
    volts = channel._volts(b, sensor)
    nan = np.isnan(volts)
    assert nan.any() == undefined
    # B = 0 is defined and gives exactly 0 V, at t = 0 and in an underflowed tail
    assert b[0] == 0.0 and (t_end < 100.0 or b[-1] == 0.0)
    assert np.all(volts[b == 0.0] == 0.0)
    # bit for bit the public composition on the defined samples...
    ok = (b > 0.0) & ~nan
    expected = voltage_from_sensitivity(sensitivity(b[ok], sensor.sens), sensor)
    np.testing.assert_array_equal(volts[ok], expected)
    # ...and NaN exactly where that composition raises
    for value in b[nan]:
        with pytest.raises(ValidationError), np.errstate(over="ignore"):
            voltage_from_sensitivity(sensitivity(value, sensor.sens), sensor)
    if undefined:
        with pytest.raises(OutOfCalibrationError) as err:
            response_voltages(bench_tx, kin, sensor, s, times)
        assert f"peak B = {np.max(b):.6g} kg/m^3" in str(err.value)
        assert "detection scope (5e-05, 0.01)" in str(err.value)
    else:
        np.testing.assert_array_equal(response_voltages(bench_tx, kin, sensor, s, times), volts)


# concentrations, kg/m^3: all defined; B = 0 among them (ratio inf there);
# NaN rows and f(B) <= 0 (B above 0.042 for the MQ-3 curve) among defined
# ones; a positive B whose B^-5 overflows under the steep curve; empty
_DEFINED = np.geomspace(1e-6, 1e-2, 64)
_VOLTS_CASES = [  # (b, sensitivity, every sample defined)
    pytest.param(_DEFINED, None, True, id="all_defined"),
    pytest.param(np.concatenate(([0.0, -0.0], _DEFINED, [0.0])), None, True, id="zero_b"),
    pytest.param(np.concatenate(([0.0, np.nan], _DEFINED, [np.nan])), None, False, id="nan_rows"),
    pytest.param(np.concatenate(([0.0], _DEFINED, [0.05, 1.0])), None, False, id="ratio_not_positive"),
    pytest.param(np.concatenate(([0.0], _DEFINED, [1e-70])), _STEEP, False, id="ratio_overflow"),
    pytest.param(np.empty(0), None, True, id="empty"),
]


@pytest.mark.parametrize("b, sens, fast", _VOLTS_CASES)
def test_volts_equal_the_masked_composition_bit_for_bit(bench_sensor, monkeypatch, b, sens, fast):
    # _volts returns its volts unmasked, without asking _defined, once every
    # sample is defined; on any input that must be np.where(_defined, volts,
    # nan), given ab or not
    sensor = bench_sensor if sens is None else dataclasses.replace(bench_sensor, sens=sens)
    a, p, c = sensor.sens.a, sensor.sens.b, sensor.sens.c
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ab = a * b**p
        ratio = ab + c
        volts = sensor.ein * sensor.rl / (sensor.ro * (ratio + sensor.rl / sensor.ro))
    expected = np.where(channel._defined(b, ratio), volts, math.nan)
    masked = []
    defined = channel._defined
    monkeypatch.setattr(channel, "_defined", lambda *args: masked.append(1) or defined(*args))
    with np.errstate(invalid="ignore"):  # NaN rows: NaN ** p
        for got in (channel._volts(b, sensor), channel._volts(b, sensor, ab.copy())):
            assert got.shape == b.shape and got.tobytes() == expected.tobytes()
    assert (not masked) == fast


def test_response_voltages_on_no_times(bench_tx, bench_sensor):
    volts = response_voltages(bench_tx, KineticsParams(2.0, 0.5), bench_sensor, 1.0, np.empty(0))
    assert isinstance(volts, np.ndarray) and volts.shape == (0,)
