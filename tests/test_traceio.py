"""Trace model, CSV round trips, preprocessing, and resampling."""

import os
import stat
import tempfile
import urllib.request
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spraylink import traceio
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
    for times, volts in (([[0.0, 1.0]], [[0.0, 1.0]]), ([0.0, 1.0], [0.0]), (0.0, 0.0)):
        with pytest.raises(ValidationError, match="1-D and equal length"):
            make_trace(times, volts)
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


# A frozen copy of read_columns as it was when every row went through the
# line loop: the oracle the bulk reader is checked against.
def _oracle_to_floats(fields, rows, width, path):
    try:
        return np.array(fields, dtype=float)
    except ValueError:
        values = []
        for i, field_text in enumerate(fields):
            try:
                values.append(float(field_text))
            except ValueError as exc:
                raise ParseError(
                    f"bad number: {exc}", path=path, line=rows[i // width]
                ) from exc
        return np.array(values)


def oracle_read_columns(path, header):
    names = header.split(",")
    width = len(names)
    chunks, fields, rows = [], [], []
    header_seen = False
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for line_no, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                parts = text.split(",")
                if not header_seen:
                    if [c.strip() for c in parts] != names:
                        raise ParseError(
                            f"expected header '{header}', got {text!r}",
                            path=path,
                            line=line_no,
                        )
                    header_seen = True
                    continue
                if len(parts) != width:
                    _oracle_to_floats(fields, rows, width, path)
                    raise ParseError(
                        f"expected {width} columns, got {len(parts)}",
                        path=path,
                        line=line_no,
                    )
                fields.extend(parts)
                rows.append(line_no)
                if len(rows) == 4096:
                    chunks.append(_oracle_to_floats(fields, rows, width, path))
                    fields.clear()
                    rows.clear()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path) from exc
    if not header_seen:
        raise ParseError("missing header", path=path)
    chunks.append(_oracle_to_floats(fields, rows, width, path))
    return tuple(np.concatenate(chunks).reshape(-1, width).T.copy())


def _outcome(read, path, header):
    try:
        return read(path, header)
    except ParseError as exc:
        return exc


def assert_same_as_oracle(path, header):
    """read_columns gives the oracle's arrays bit for bit, or its ParseError."""
    got, want = _outcome(read_columns, path, header), _outcome(oracle_read_columns, path, header)
    if isinstance(want, ParseError):
        assert type(got) is ParseError, got
        assert (str(got), got.line, got.path) == (str(want), want.line, want.path)
        return
    assert not isinstance(got, ParseError), got
    assert len(got) == len(want)
    for column, expected in zip(got, want):
        assert column.dtype == np.float64 and column.flags.c_contiguous
        assert column.shape == expected.shape
        # bits, not values: -0.0 and NaN payloads count
        assert np.array_equal(column.view(np.uint64), expected.view(np.uint64))


_NUMBER_TEXT = st.one_of(
    st.builds(
        lambda x, fmt: fmt(x),
        st.floats(),
        st.sampled_from([repr, "%.17g".__mod__, "%.3f".__mod__, "%e".__mod__]),
    ),
    st.sampled_from([
        "1e400", "4.9e-324", "-0", "+nan", "-nan", "INF", "infinity", ".5", "5.", "1",
    ]),
)
# tokens the contract refuses, or float() takes and numpy's C reader does not,
# and numbers next to a control character or a Unicode space
_ODD_TOKENS = st.one_of(
    st.sampled_from([
        "1_0", "٣", "1e5٠", "", "nan(1)", "\x00", "1\x002", '"1"', "1e", "- 1", "−1",
        "0x1p3", "1d5", "2 # c", "nope",
    ]),
    st.builds(
        lambda c, lead: c + "1" if lead else "1" + c,
        st.sampled_from([chr(i) for i in range(32)] + ["\x7f", "\x85", "\xa0", "\u2028", "\u3000"]),
        st.booleans(),
    ),
)
_PAD = st.sampled_from(["", "", " ", "\t", " \t "])
_SKIPPED = st.sampled_from(["", "", "   ", "\t", "#", "# note", " # indented", "\x1c"])


@st.composite
def csv_texts(draw, header=None, max_rows=12):
    """CSV text under the read_columns rules, hostile in every way they name.

    Returns (text, header). Without a header, one of 1 to 3 columns is drawn.
    Each kind of fault is drawn on its own, so that clean files, and files
    with only one kind of fault, are common.
    """
    if header is None:
        header = ",".join("abc"[: draw(st.integers(1, 3))])
    width = len(header.split(","))
    header_kind = draw(st.sampled_from(["exact"] * 4 + ["padded", "wrong", "none"]))
    row_width = draw(st.sampled_from([width] * 4 + [width + 1, max(width - 1, 1)]))
    # one in n fields holds an odd token, and one in m rows is an odd line; 0: never
    n, m = draw(st.sampled_from([0, 0, 0, 4, 16])), draw(st.sampled_from([0, 0, 0, 4, 16]))

    def field():
        odd = n and draw(st.integers(1, n)) == 1
        return draw(_PAD) + draw(_ODD_TOKENS if odd else _NUMBER_TEXT) + draw(_PAD)

    def row():
        kind = draw(st.integers(1, 3)) if m and draw(st.integers(1, m)) == 1 else 0
        if kind == 1:
            return draw(_SKIPPED)
        if kind == 2:
            return ",".join(field() for _ in range(draw(st.integers(1, width + 2))))
        return ",".join(field() for _ in range(row_width)) + ("," if kind == 3 else "")

    lines = draw(st.lists(_SKIPPED, max_size=2))
    if header_kind == "padded":
        lines.append(",".join(draw(_PAD) + name + draw(_PAD) for name in header.split(",")))
    elif header_kind == "wrong":
        lines.append(header.upper())
    elif header_kind == "exact":
        lines.append(header)
    lines += [row() for _ in range(draw(st.integers(0, max_rows)))]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    return ("\ufeff" if draw(st.booleans()) else "") + text, header


@settings(deadline=None, max_examples=300)
@given(case=csv_texts())
def test_read_columns_matches_the_line_loop(case):
    text, header = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert_same_as_oracle(path, header)


@pytest.mark.parametrize("load, header, rows", CSV_FORMATS)
def test_short_files_load_without_warnings(tmp_path, load, header, rows):
    path = tmp_path / "in.csv"
    for body, n in (("", 0), ("\n\n", 0), (f"{rows[0]}\n", 1), (f"{rows[0]}", 1)):
        path.write_text(f"{header}\n{body}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "input contained no data"
            assert len(load(path)) == n
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert len(load(path)) == n
        assert caught == []
        assert_same_as_oracle(path, header)


@pytest.mark.parametrize(
    "line", ["# mid-body note", "", "   ", "4500,1_0", "4500, 2250.0 # inline", "4500\x1c,2250.0"]
)
def test_long_file_with_one_odd_line_matches_the_line_loop(tmp_path, line):
    rows = [f"{i},{i * 0.5!r}" for i in range(10000)]
    rows.insert(4500, line)
    path = tmp_path / "long.csv"
    path.write_text("a,b\n" + "\n".join(rows) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_as_oracle(path, "a,b")


def test_unseekable_stream_is_read_line_by_line(tmp_path):
    for text, rows in (("a,b\n0,1\n1,2\n", 2), ("a,b\n", 0), ("a,b\n1_0,2\n", 1)):
        read_end, write_end = os.pipe()
        os.write(write_end, text.encode())
        os.close(write_end)
        try:
            a, b = read_columns(f"/dev/fd/{read_end}", "a,b")
        finally:
            os.close(read_end)
        assert a.size == b.size == rows


def assert_bits_equal(got, want):
    assert len(got) == len(want)
    for column, expected in zip(got, want):
        assert np.array_equal(column.view(np.uint64), expected.view(np.uint64))


def _spy_on_loadtxt(monkeypatch, before=lambda source: None):
    """Record each source that traceio hands np.loadtxt, calling before(source) first."""
    seen, real = [], np.loadtxt

    def spy(source, *args, **kwargs):
        seen.append(source)
        before(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(traceio.np, "loadtxt", spy)
    return seen


def test_every_kind_of_path_reads_the_same_rows(tmp_path, monkeypatch):
    text = "# capture\na,b\n" + "".join(f"{i},{i * 0.25!r}\n" for i in range(2000))
    path = tmp_path / "in.csv"
    path.write_text(text)
    want = oracle_read_columns(path, "a,b")
    with monkeypatch.context() as m:
        seen = _spy_on_loadtxt(m)
        m.setattr(traceio, "_parse_lines", lambda *args: pytest.fail("bulk result dropped"))
        for source in (str(path), os.fsencode(path), path):
            seen.clear()
            assert_bits_equal(read_columns(source, "a,b"), want)
            # by name, numpy reads in chunks; a handle it reads line by line
            assert [type(s) for s in seen] == [str]
    with monkeypatch.context() as m:
        seen = _spy_on_loadtxt(m)
        assert_bits_equal(read_columns(os.open(path, os.O_RDONLY), "a,b"), want)  # closes it
        assert seen == []  # an int descriptor has no name: the line loop reads it

    read_end, write_end = os.pipe()
    os.write(write_end, text.encode())
    os.close(write_end)
    try:
        assert_bits_equal(read_columns(f"/dev/fd/{read_end}", "a,b"), want)
    finally:
        os.close(read_end)


@pytest.mark.parametrize("change", ["replaced", "removed"])
def test_a_path_changed_during_the_parse_is_read_from_the_checked_handle(
    tmp_path, monkeypatch, change
):
    path = tmp_path / "in.csv"
    path.write_text("a,b\n" + "".join(f"{i},{i * 0.5!r}\n" for i in range(300)))
    want = oracle_read_columns(path, "a,b")

    def change_path(source):
        if change == "replaced":
            (tmp_path / "other.csv").write_text("a,b\n7,8\n9,10\n")
            os.replace(tmp_path / "other.csv", path)
        else:
            path.unlink()

    seen = _spy_on_loadtxt(monkeypatch, before=change_path)
    assert_bits_equal(read_columns(path, "a,b"), want)
    assert [type(s) for s in seen] == [str]
    assert path.exists() == (change == "replaced")


def _no_urlopen(*args, **kwargs):
    raise AssertionError("urlopen called")


@pytest.mark.parametrize(
    "name", ["in.csv.gz", "in.csv.bz2", "in.csv.xz", "in.csv.lzma", "http://host/in.csv"]
)
def test_names_numpy_would_decompress_or_fetch_read_as_plain_files(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(urllib.request, "urlopen", _no_urlopen)
    (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
    (tmp_path / name).write_text("a,b\n" + "".join(f"{i},{-i}\n" for i in range(50)))
    assert_same_as_oracle(name, "a,b")


def test_store_trace_text_is_the_per_row_format(tmp_path):
    rng = np.random.default_rng(3)
    times = np.concatenate(([-0.0, 5e-324, 0.1], np.sort(rng.uniform(1.0, 2.0, 500)),
                            [1.7976931348623157e308]))
    volts = np.concatenate(([-0.0, 5e-324, 0.1], rng.normal(size=500), [-1.7976931348623157e308]))
    for trace in (make_trace(times, volts), make_trace([], [])):
        path = tmp_path / "trace.csv"
        store_trace(trace, path)
        rows = "".join(f"{t:.17g},{v:.17g}\n" for t, v in trace.samples)
        assert path.read_bytes() == f"time_s,voltage_v\n{rows}".encode()


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
    for t0 in ("abc", None):
        with pytest.raises(ValidationError, match="t0 must be a time in seconds or 'auto'"):
            preprocess(trace, t0=t0)


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
    with pytest.raises(ValidationError, match="at least 3 samples"):
        detect_onset(make_trace([0.0, 0.1], [0.0, 1.0]))


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
    with pytest.raises(ValidationError, match="empty trace"):
        resample(make_trace([], []), [])


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


def test_write_over_a_directory_names_the_target(tmp_path):
    target = tmp_path / "probe"
    target.mkdir()
    with pytest.raises(IsADirectoryError) as err:
        atomic_write_text(target, "{}\n")
    assert err.value.filename == str(target) and err.value.filename2 is None
    assert ".tmp" not in str(err.value)
    assert [p.name for p in tmp_path.iterdir()] == ["probe"]
    assert list(target.iterdir()) == []


def test_range_errors_print_plain_floats():
    trace = make_trace([0.0, 10.0], [0.0, 1.0])
    with pytest.raises(ValidationError) as err:
        preprocess(trace, t0=float("nan"))
    assert str(err.value) == "t0 = nan outside trace span [0.0, 10.0]"
    with pytest.raises(ValidationError) as err:
        resample(trace, np.array([0.5, 11.0]))
    assert str(err.value) == "grid [0.5, 11.0] extends beyond trace span [0.0, 10.0]"
