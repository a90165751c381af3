"""Trace model, CSV round trips, preprocessing, and resampling."""

import os
import stat

import numpy as np
import pytest

from spraylink.calibration import load_mass_measurements
from spraylink.errors import NoSignalError, ParseError, ValidationError
from spraylink.sensor import load_sensitivity_table
from spraylink.traceio import (
    Trace,
    atomic_write_text,
    detect_onset,
    load_trace,
    preprocess,
    read_columns,
    resample,
    store_trace,
)


def make_trace(times, volts, **meta):
    return Trace(np.asarray(times, float), np.asarray(volts, float), meta=dict(meta))


def test_trace_validation():
    with pytest.raises(ValidationError):
        make_trace([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValidationError):
        make_trace([0.0, 1.0], [0.0, np.nan])
    empty = make_trace([], [])
    assert len(empty) == 0
    t = make_trace([0.0, 0.5], [0.1, 0.2])
    assert t.samples == [(0.0, 0.1), (0.5, 0.2)]


def test_store_load_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    times = np.sort(rng.uniform(0.0, 10.0, size=1000))
    times = np.unique(times)
    volts = rng.uniform(0.0, 5.0, size=times.size)
    trace = make_trace(times, volts)
    path = tmp_path / "trace.csv"
    store_trace(trace, path)
    back = load_trace(path)
    assert np.array_equal(back.times, trace.times)
    assert np.array_equal(back.volts, trace.volts)


def test_load_trace_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("time_s,voltage_v\n")
    assert len(load_trace(empty)) == 0

    three = tmp_path / "three.csv"
    three.write_text("time_s,voltage_v\n0.0,0.1\n0.5,0.2\n1.0,0.15\n")
    trace = load_trace(three)
    assert len(trace) == 3
    assert trace.volts[2] == 0.15

    headerless = tmp_path / "headerless.csv"
    headerless.write_text("0.0,0.1\n")
    with pytest.raises(ParseError):
        load_trace(headerless)

    malformed = tmp_path / "malformed.csv"
    malformed.write_text("time_s,voltage_v\n0.0,0.1\nnope\n")
    with pytest.raises(ParseError) as err:
        load_trace(malformed)
    assert err.value.line == 3

    backwards = tmp_path / "backwards.csv"
    backwards.write_text("time_s,voltage_v\n1.0,0.1\n0.5,0.2\n")
    with pytest.raises(ValidationError):
        load_trace(backwards)


# (loader, header, two valid data rows) for every CSV input format
CSV_FORMATS = [
    pytest.param(load_trace, "time_s,voltage_v", ["0.0,0.1", "0.5,0.2"], id="trace"),
    pytest.param(
        load_sensitivity_table,
        "concentration_kg_m3,rs_over_ro",
        ["1e-4,1.5", "2e-4,1.0"],
        id="sensitivity",
    ),
    pytest.param(
        load_mass_measurements,
        "mass_before_kg,mass_after_kg,dt_s",
        ["1.0,0.999,0.5", "0.999,0.998,0.5"],
        id="mass",
    ),
]


@pytest.mark.parametrize("load, header, rows", CSV_FORMATS)
def test_csv_rules_shared_by_every_format(tmp_path, load, header, rows):
    def write(*lines, tail=b""):
        path = tmp_path / "in.csv"
        path.write_bytes("\r\n".join(lines).encode() + b"\r\n" + tail)
        return path

    # comments and blank lines are skipped, also before the header; CRLF ends
    assert len(load(write("# before the header", "", header, rows[0], "", "# mid", rows[1]))) == 2
    # a leading UTF-8 byte-order mark (spreadsheet exports) is skipped
    assert len(load(write("\ufeff" + header, rows[0], rows[1]))) == 2
    assert len(load(write("\ufeff# exported", header, rows[0], rows[1]))) == 2

    bad = "nope" + rows[1][rows[1].index(","):]
    with pytest.raises(ParseError, match="bad number") as err:
        load(write("# c", header, rows[0], "", bad))
    assert err.value.line == 5

    with pytest.raises(ParseError, match="columns") as err:
        load(write(header, rows[0], rows[1] + ",9"))
    assert err.value.line == 3
    # the first fault in the file is the one reported
    with pytest.raises(ParseError, match="bad number") as err:
        load(write(header, bad, rows[1] + ",9"))
    assert err.value.line == 2

    with pytest.raises(ParseError, match="missing header"):
        load(write("# only a comment", ""))
    with pytest.raises(ParseError, match="expected header") as err:
        load(write("# c", header.upper(), rows[0]))
    assert err.value.line == 2

    path = write(header, rows[0], tail=b"\xff\n")
    with pytest.raises(ParseError, match="UTF-8") as err:
        load(path)
    assert err.value.path == path


def test_read_columns_across_cast_chunks(tmp_path):
    path = tmp_path / "long.csv"
    rows = [f"{i},{i * 0.5!r}" for i in range(10000)]
    path.write_text("a,b\n" + "\n".join(rows) + "\n")
    a, b = read_columns(path, "a,b")
    assert np.array_equal(a, np.arange(10000.0))
    assert np.array_equal(b, np.arange(10000.0) * 0.5)
    assert a.flags.c_contiguous and b.flags.c_contiguous

    rows[9000] = "9000,x"
    path.write_text("a,b\n" + "\n".join(rows) + "\n")
    with pytest.raises(ParseError) as err:
        read_columns(path, "a,b")
    assert err.value.line == 9002


def test_preprocess_explicit_t0():
    trace = make_trace([0.0, 1.0, 2.0, 3.0], [0.7, 0.7, 1.2, 0.9])
    out = preprocess(trace, t0=1.0)
    assert out.times[0] == 0.0 and out.volts[0] == 0.0
    np.testing.assert_allclose(out.times, [0.0, 1.0, 2.0])
    np.testing.assert_allclose(out.volts, [0.0, 0.5, 0.2])
    assert out.meta["t0"] == 1.0 and out.meta["offset_v"] == 0.7


def test_preprocess_t0_between_samples():
    trace = make_trace([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
    out = preprocess(trace, t0=0.5)
    assert out.times[0] == 0.0 and out.volts[0] == 0.0
    np.testing.assert_allclose(out.times, [0.0, 0.5, 1.5])
    np.testing.assert_allclose(out.volts, [0.0, 0.5, 0.5])


def test_preprocess_constant_trace_is_zeroed():
    trace = make_trace([0.0, 1.0, 2.0], [0.7, 0.7, 0.7])
    out = preprocess(trace, t0=1.0)
    assert np.all(out.volts == 0.0)


def test_preprocess_idempotent():
    trace = make_trace(np.linspace(0.0, 5.0, 51), np.sin(np.linspace(0.0, 5.0, 51)) + 0.8)
    once = preprocess(trace, t0=1.0)
    twice = preprocess(once, t0=0.0)
    assert np.array_equal(once.times, twice.times)
    assert np.array_equal(once.volts, twice.volts)


def test_preprocess_negative_dips():
    # shallow dip (within the noise floor) is clamped to zero
    shallow = make_trace([0.0, 1.0, 2.0], [0.5, 0.497, 0.8])
    out = preprocess(shallow, t0=0.0)
    assert np.all(out.volts >= 0.0)
    assert "clamped_noise_dip_v" in out.meta
    # deep dip is preserved and flagged
    deep = make_trace([0.0, 1.0, 2.0], [0.5, 0.4, 0.8])
    out = preprocess(deep, t0=0.0)
    assert out.volts.min() < 0.0
    assert out.meta["negative_values"] is True


def test_preprocess_validation():
    trace = make_trace([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValidationError):
        preprocess(trace, t0=5.0)
    with pytest.raises(ValidationError):
        preprocess(make_trace([], []), t0=0.0)


def test_detect_onset():
    t = np.arange(0.0, 10.0, 0.01)
    onset = 4.0
    v = np.where(t < onset, 0.7, 0.7 + np.clip(t - onset, 0.0, None))
    trace = make_trace(t, v)
    found = detect_onset(trace)
    assert abs(found - onset) <= 0.01
    out = preprocess(trace, t0="auto")
    assert out.times[0] == 0.0 and out.volts[0] == 0.0

    flat = make_trace(t, np.full_like(t, 0.7))
    with pytest.raises(NoSignalError):
        detect_onset(flat)


def test_resample_identity():
    trace = make_trace(np.linspace(0.0, 2.0, 21), np.random.default_rng(1).uniform(size=21))
    back = resample(trace, trace.times)
    assert np.array_equal(back.times, trace.times)
    assert np.array_equal(back.volts, trace.volts)


def test_resample_midpoint_and_extrapolation():
    trace = make_trace([0.0, 1.0], [0.0, 1.0])
    assert resample(trace, [0.5]).volts[0] == 0.5
    with pytest.raises(ValidationError):
        resample(trace, [0.5, 1.5])


def test_resample_interpolation_error_bound(bench_tx, bench_sensor):
    from spraylink.channel import sample_response
    from spraylink.kinetics import KineticsParams

    # the response climbs like t^0.59 out of t = 0, so the source trace has
    # to be an order denser than the 0.01 s target grid
    kin = KineticsParams(2.0, 0.5)
    dense = sample_response(bench_tx, kin, bench_sensor, 1.0, np.arange(0, 10001) * 0.001)
    grid = np.arange(0.005, 9.99, 0.01)
    interped = resample(dense, grid)
    direct = sample_response(bench_tx, kin, bench_sensor, 1.0, grid)
    err = interped.volts - direct.volts
    assert float(err @ err) / err.size < 1e-8


@pytest.mark.parametrize(
    "umask, mode",
    [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
    ids=["umask022", "umask077", "umask002"],
)
def test_written_files_get_the_plain_open_mode(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "est.json", "{}\n")
        store_trace(make_trace([0.0, 1.0], [0.0, 0.5]), tmp_path / "trace.csv")
        (tmp_path / "kept.json").write_text("")
        os.chmod(tmp_path / "kept.json", 0o640)
        atomic_write_text(tmp_path / "kept.json", "{}\n")  # replaced, mode kept
    finally:
        os.umask(old)
    for name in ("est.json", "trace.csv"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode
    assert stat.S_IMODE(os.stat(tmp_path / "kept.json").st_mode) == 0o640
    assert (tmp_path / "kept.json").read_text() == "{}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["est.json", "kept.json", "trace.csv"]


def test_write_into_missing_directory_names_the_target(tmp_path):
    target = tmp_path / "missing" / "est.json"
    with pytest.raises(FileNotFoundError) as err:
        atomic_write_text(target, "{}\n")
    assert err.value.filename == str(target)
    assert str(target) in str(err.value) and ".tmp" not in str(err.value)


def test_range_errors_print_plain_floats():
    trace = make_trace([0.0, 10.0], [0.0, 1.0])
    with pytest.raises(ValidationError) as err:
        preprocess(trace, t0=float("nan"))
    assert str(err.value) == "t0 = nan outside trace span [0.0, 10.0]"
    with pytest.raises(ValidationError) as err:
        resample(trace, np.array([0.5, 11.0]))
    assert str(err.value) == "grid [0.5, 11.0] extends beyond trace span [0.0, 10.0]"
