"""Flow-rate averaging and reference-resistance calibration."""

import pytest

from spraylink.calibration import (
    FlowRateReport,
    MassMeasurement,
    flow_rate,
    load_mass_measurements,
    reference_resistance,
)
from spraylink.errors import MeasurementError, ParseError, ValidationError
from spraylink.sensor import voltage_from_sensitivity


def test_flow_rate_single_measurement():
    # constructed to land on the bench flow rate 2.204e-6 m^3/s
    report = flow_rate([MassMeasurement(1.0, 1.0 - 8.6948e-4, 0.5)], rho_d=789.0)
    assert report.q == pytest.approx(2.2040050697084915e-06, rel=1e-12)
    assert report.q == pytest.approx(2.204e-6, rel=1e-5)
    assert report.std == 0.0
    assert len(report.per_measurement) == 1


def test_flow_rate_identical_measurements():
    m = MassMeasurement(0.5, 0.4995, 1.0)
    report = flow_rate([m, m], rho_d=789.0)
    assert report.q == report.per_measurement[0]
    assert report.std == 0.0


def test_flow_rate_permutation_invariant():
    ms = [
        MassMeasurement(1.0, 0.999, 0.5),
        MassMeasurement(1.0, 0.9985, 0.5),
        MassMeasurement(1.0, 0.9992, 0.5),
    ]
    fwd = flow_rate(ms, rho_d=789.0)
    rev = flow_rate(list(reversed(ms)), rho_d=789.0)
    assert fwd.q == rev.q
    assert fwd.std == rev.std


def test_flow_rate_copies_equal_single():
    m = MassMeasurement(1.0, 0.999, 0.5)
    single = flow_rate([m], rho_d=789.0)
    many = flow_rate([m] * 5, rho_d=789.0)
    assert many.q == single.q


def test_mass_measurement_validation():
    with pytest.raises(MeasurementError):
        MassMeasurement(1.0, 1.0, 0.5)  # no mass difference
    with pytest.raises(MeasurementError):
        MassMeasurement(0.9, 1.0, 0.5)  # gained mass
    with pytest.raises(MeasurementError):
        MassMeasurement(1.0, 0.9, 0.0)  # no interval


def test_flow_rate_validation():
    with pytest.raises(ValidationError):
        flow_rate([], rho_d=789.0)
    with pytest.raises(ValidationError):
        flow_rate([MassMeasurement(1.0, 0.9, 0.5)], rho_d=0.0)
    # a squared deviation overflows; a Q_i, and the mean of finite ones, is inf
    for records in ([(1e200, 0.0, 1.0), (1.0, 0.0, 1.0)], [(1e308, 0.0, 1e-308)],
                    [(1e308, 0.0, 1.0), (1e308, 0.0, 1.0)]):
        with pytest.raises(MeasurementError, match="float range"):
            flow_rate([MassMeasurement(*r) for r in records], rho_d=1.0)


def test_reference_resistance():
    assert reference_resistance(0.2, 5.0, 1000.0) == 24000.0
    assert reference_resistance(2.5, 5.0, 1000.0) == 1000.0
    assert reference_resistance(4.999, 5.0, 1000.0) == pytest.approx(
        0.2000400080015563, rel=1e-10
    )
    with pytest.raises(ValidationError):
        reference_resistance(5.0, 5.0, 1000.0)
    with pytest.raises(ValidationError):
        reference_resistance(0.0, 5.0, 1000.0)


def test_reference_resistance_inverse_pair(bench_sensor):
    eout = voltage_from_sensitivity(1.0, bench_sensor)
    assert reference_resistance(eout, bench_sensor.ein, bench_sensor.rl) == bench_sensor.ro


def test_load_mass_measurements(tmp_path):
    path = tmp_path / "mass.csv"
    path.write_text(
        "mass_before_kg,mass_after_kg,dt_s\n"
        "1.0,0.99913052,0.5\n"
        "# a comment\n"
        "0.99913052,0.99826104,0.5\n"
    )
    ms = load_mass_measurements(path)
    assert len(ms) == 2
    report = flow_rate(ms, rho_d=789.0)
    assert report.q == pytest.approx(2.204e-6, rel=1e-4)

    bad = tmp_path / "bad.csv"
    bad.write_text("mass_before_kg,mass_after_kg,dt_s\n1.0,0.9\n")
    with pytest.raises(ParseError) as err:
        load_mass_measurements(bad)
    assert err.value.line == 2
