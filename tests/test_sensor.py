"""Sensitivity curve, measurement circuit, and table I/O."""

import math

import numpy as np
import pytest

from spraylink.errors import OutOfCalibrationError, ParseError, ValidationError
from spraylink.sensor import (
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


def test_sensitivity_reference_concentration():
    # near 1 by the definition of Ro; the ~0.058 excess is fit residual
    assert sensitivity(0.0004, MQ3_SENSITIVITY) == pytest.approx(
        1.0579748588582714, rel=1e-12
    )


def test_sensitivity_scope_edges():
    assert sensitivity(1e-2, MQ3_SENSITIVITY) == pytest.approx(
        0.09767209787693062, rel=1e-12
    )
    assert sensitivity(5e-5, MQ3_SENSITIVITY) == pytest.approx(
        3.7514012397920893, rel=1e-12
    )


def test_sensitivity_reciprocal_coeffs():
    assert sensitivity(2.0, SensitivityCoeffs(a=1.0, b=-1.0, c=0.0)) == 0.5


def test_sensitivity_rejects_nonpositive():
    with pytest.raises(ValidationError):
        sensitivity(0.0, MQ3_SENSITIVITY)
    with pytest.raises(ValidationError):
        sensitivity(-1e-4, MQ3_SENSITIVITY)


def test_coeffs_validation():
    with pytest.raises(ValidationError):
        SensitivityCoeffs(a=-0.01, b=-0.5, c=0.0)
    with pytest.raises(ValidationError):
        SensitivityCoeffs(a=0.01, b=0.5, c=0.0)
    # curve dips non-positive inside the detection scope
    with pytest.raises(ValidationError):
        SensitivityCoeffs(a=0.0116, b=-0.5855, c=-0.5)
    for c in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="c must be finite"):
            SensitivityCoeffs(a=0.0116, b=-0.5855, c=c)


@pytest.mark.parametrize(
    "conc, ratio, match",
    [([[1e-4, 2e-4]], [[1.5, 1.2]], "1-D and equal length"),
     ([1e-4, 2e-4], [1.5], "1-D and equal length"),
     ([1e-4, math.nan], [1.5, 1.2], "must be finite"),
     ([1e-4, 2e-4], [1.5, math.inf], "must be finite")],
)
def test_table_validation(conc, ratio, match):
    with pytest.raises(ValidationError, match=match):
        SensitivityTable(conc, ratio)


def test_resistance_from_voltage(bench_sensor):
    assert resistance_from_voltage(0.2, bench_sensor) == 24000.0
    assert resistance_from_voltage(2.5, bench_sensor) == bench_sensor.rl
    with pytest.raises(ValidationError):
        resistance_from_voltage(0.0, bench_sensor)
    with pytest.raises(ValidationError):
        resistance_from_voltage(5.0, bench_sensor)


def test_resistance_voltage_round_trip(bench_sensor):
    for eout in (0.1, 1.0, 4.9):
        back = voltage_from_resistance(
            resistance_from_voltage(eout, bench_sensor), bench_sensor
        )
        assert back == pytest.approx(eout, rel=1e-12)


def test_voltage_from_sensitivity(bench_sensor):
    assert voltage_from_sensitivity(1.0, bench_sensor) == 0.2
    assert voltage_from_sensitivity(1e9, bench_sensor) < 1e-3
    ratio = sensitivity(0.0004, MQ3_SENSITIVITY)
    assert voltage_from_sensitivity(ratio, bench_sensor) == pytest.approx(
        0.1894556803262598, rel=1e-12
    )
    with pytest.raises(ValidationError):
        voltage_from_sensitivity(0.0, bench_sensor)


def test_concentration_round_trip(bench_sensor):
    b0 = 1e-3
    eout = voltage_from_sensitivity(sensitivity(b0, MQ3_SENSITIVITY), bench_sensor)
    assert concentration_from_voltage(eout, bench_sensor) == pytest.approx(b0, rel=1e-9)
    assert concentration_from_voltage(0.1894556803262598, bench_sensor) == pytest.approx(
        4.0e-4, rel=1e-9
    )


def test_concentration_from_voltage_errors(bench_sensor):
    # at the supply rail the divider itself is out of its domain
    with pytest.raises(ValidationError):
        concentration_from_voltage(bench_sensor.ein, bench_sensor)
    # a positive-offset curve runs out of calibration before the rail
    spec = SensorSpec(ein=5.0, rl=1000.0, ro=24000.0, sens=SensitivityCoeffs(1.0, -1.0, 0.05))
    with pytest.raises(OutOfCalibrationError):
        concentration_from_voltage(4.99, spec)


def test_concentration_to_voltage_monotone(bench_sensor):
    b = np.linspace(DETECTION_SCOPE[0], DETECTION_SCOPE[1], 1000)
    v = voltage_from_sensitivity(sensitivity(b, MQ3_SENSITIVITY), bench_sensor)
    assert np.all(np.diff(v) > 0.0)
    assert np.all((v > 0.0) & (v < bench_sensor.ein))


def test_in_detection_scope():
    assert in_detection_scope(1e-3)
    assert not in_detection_scope(1e-6)
    assert not in_detection_scope([1e-3, 2e-2])


def test_bundled_table():
    table = bundled_sensitivity_table()
    assert len(table) == 13
    assert np.all(np.diff(table.concentration) > 0.0)
    assert table.concentration[0] == DETECTION_SCOPE[0]
    assert table.concentration[-1] == DETECTION_SCOPE[1]
    # the fitted curve reproduces the reconstructed points within its RMSE
    resid = (
        MQ3_SENSITIVITY.a * table.concentration**MQ3_SENSITIVITY.b
        + MQ3_SENSITIVITY.c
        - table.ratio
    )
    assert math.sqrt(float(resid @ resid) / resid.size) <= 0.0371


def test_table_loader_errors(tmp_path):
    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("conc,ratio\n1e-4,1.0\n")
    with pytest.raises(ParseError):
        load_sensitivity_table(bad_header)

    bad_row = tmp_path / "bad_row.csv"
    bad_row.write_text("concentration_kg_m3,rs_over_ro\n1e-4,1.0\noops,2\n")
    with pytest.raises(ParseError) as err:
        load_sensitivity_table(bad_row)
    assert err.value.line == 3

    ok = tmp_path / "ok.csv"
    ok.write_text(
        "# comment line\nconcentration_kg_m3,rs_over_ro\n1e-4,1.5\n2e-4,1.0\n"
    )
    table = load_sensitivity_table(ok)
    assert len(table) == 2
    assert table.ratio[1] == 1.0
