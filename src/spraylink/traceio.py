"""Voltage-trace data model, CSV I/O, and preprocessing.

A trace is a strictly increasing series of (time s, voltage V) samples plus
a metadata dict. Preprocessing aligns the time axis to a start time t0,
removes the offset voltage observed at t0, and truncates everything before
it, so that a prepared trace starts at (0 s, 0 V).

File format: CSV with the exact header `time_s,voltage_v`, read by
read_columns, the one reader of every CSV input of the package.
"""

from __future__ import annotations

import contextlib
import os
import stat
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NoSignalError, ParseError, ValidationError

TRACE_HEADER = "time_s,voltage_v"

# Post-offset negative dips no deeper than this are treated as noise and
# clamped to zero; deeper dips are preserved and flagged.
DEFAULT_NOISE_FLOOR_V = 0.005


@dataclass
class Trace:
    """Time-stamped voltage samples with preprocessing metadata."""

    times: np.ndarray
    volts: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.volts, dtype=float)
        if t.ndim != 1 or v.shape != t.shape:
            raise ValidationError("times and volts must be 1-D and equal length")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValidationError("trace values must be finite")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ValidationError("time stamps must be strictly increasing")
        t.setflags(write=False)
        v.setflags(write=False)
        self.times = t
        self.volts = v

    def __len__(self) -> int:
        return self.times.size

    @property
    def samples(self) -> list[tuple[float, float]]:
        """Samples as a list of (t, v) pairs."""
        return list(zip(self.times.tolist(), self.volts.tolist()))


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a same-directory temp file and rename.

    The file ends with the mode a plain open() would leave: an existing
    file keeps its mode, a new one gets 0o666 less the umask. An OSError
    from creating the temp file or from the rename names path, not the
    temp file, which is gone by then.
    """
    path = os.fspath(path)
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        with contextlib.suppress(FileNotFoundError):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, path) from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def store_trace(trace: Trace, path) -> None:
    """Write a trace as CSV; 17 significant digits preserve float64 exactly."""
    # One % over Python floats: the same text as an f-string per row, faster
    values = np.column_stack((trace.times, trace.volts)).ravel().tolist()
    rows = ("%.17g,%.17g\n" * len(trace)) % tuple(values)
    atomic_write_text(path, f"{TRACE_HEADER}\n{rows}")


# Rows per bulk str -> float cast in _parse_lines; bounds the list of
# pending field strings while keeping the per-row Python work small.
_CHUNK_ROWS = 4096


def _to_floats(fields, rows, width, path) -> np.ndarray:
    """Cast field strings to float64, or raise ParseError at the first bad one.

    numpy's cast parses like float(); float() itself runs only when the
    bulk cast fails, to find the failing line.
    """
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


def _skip_header(lines, header: str, path) -> int:
    """Consume numbered lines up to and including the header, check it, return its number."""
    names = header.split(",")
    for line_no, line in lines:
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if [c.strip() for c in text.split(",")] != names:
            raise ParseError(
                f"expected header '{header}', got {text!r}", path=path, line=line_no
            )
        return line_no
    raise ParseError("missing header", path=path)


def _parse_lines(lines, width: int, path) -> np.ndarray:
    """Parse the numbered data lines after the header into an (n, width) array.

    This loop defines the rules of read_columns and is the only source of
    line-numbered errors.
    """
    chunks, fields, rows = [], [], []
    for line_no, line in lines:
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split(",")
        if len(parts) != width:
            # A bad number on an earlier line is reported first.
            _to_floats(fields, rows, width, path)
            raise ParseError(
                f"expected {width} columns, got {len(parts)}", path=path, line=line_no
            )
        fields.extend(parts)
        rows.append(line_no)
        if len(rows) == _CHUNK_ROWS:
            chunks.append(_to_floats(fields, rows, width, path))
            fields.clear()
            rows.clear()
    chunks.append(_to_floats(fields, rows, width, path))
    return np.concatenate(chunks).reshape(-1, width)


# numpy's reader strips U+001C-U+001F around a number, as str.isspace()
# does; float() does not, so a file holding these bytes goes to the loop.
_SEPARATOR_BYTES = b"\x1c\x1d\x1e\x1f"


def _holds_separator_bytes(raw) -> bool:
    """Whether a seekable binary stream holds a byte 0x1c-0x1f; rewinds it."""
    try:
        for block in iter(lambda: raw.read(1 << 16), b""):
            if any(byte in block for byte in _SEPARATOR_BYTES):
                return True
        return False
    finally:
        raw.seek(0)


# numpy opens a name with one of these endings through a decompressor.
_COMPRESSED_ENDINGS = (".gz", ".bz2", ".xz", ".lzma")


def _bulk_name(path):
    """The absolute name under which numpy should read path, or None for the line loop.

    An int file descriptor has no name, and numpy would decompress a name
    with a compression ending. The name is made absolute so that numpy
    cannot take it for a URL.
    """
    if isinstance(path, int):
        return None
    name = os.fsdecode(path)
    if name.endswith(_COMPRESSED_ENDINGS):
        return None
    return name if os.path.isabs(name) else os.path.join(os.getcwd(), name)


def _names_open_file(name, fh) -> bool:
    """Whether name still leads to fh's file, at fh's size and modification time."""
    try:
        named = os.stat(name)
    except OSError:
        return False
    opened = os.fstat(fh.fileno())
    return all(
        getattr(named, key) == getattr(opened, key)
        for key in ("st_dev", "st_ino", "st_size", "st_mtime_ns")
    )


def _parse_bulk(fh, name, header_line: int, width: int):
    """Parse the data lines after the header with numpy's C reader, or return None.

    fh is just past the header, which ends line `header_line`. The reader
    reads the file by its absolute name, and the result stands only if
    that name still leads to fh's file. None means the reader refused the
    text or the name, and _parse_lines decides it. For text without the
    bytes 0x1c-0x1f, whatever the reader accepts with `width` columns,
    _parse_lines accepts with the same values: both convert each field
    with the routine behind float(), and both skip empty lines.
    Whitespace-only and '#' lines, inline comments, and tokens such as '1_0'
    that float() takes and the reader does not, make the reader refuse; so
    does a file without data rows.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on input without rows
            data = np.loadtxt(name, delimiter=",", comments=None, dtype=float, ndmin=2,
                              skiprows=header_line, encoding="utf-8-sig")
    except (ValueError, OSError, Warning):  # UnicodeDecodeError is a ValueError
        return None
    if not _names_open_file(name, fh):
        return None  # the name leads to another file now
    return data if data.shape[1] == width else None


def read_columns(path, header: str) -> tuple[np.ndarray, ...]:
    """Read a CSV of numbers under an exact header; one float64 array per column.

    Blank lines and lines starting with '#' are skipped anywhere, also
    before the header. The header's comma-separated names must equal
    `header` (surrounding spaces ignored). Every later line holds one
    number per header column, as accepted by float(). A leading UTF-8
    byte-order mark, as spreadsheet exports write, is skipped. Any
    violation, and text that is not UTF-8, raises ParseError with the path
    and, where it applies, the 1-based line number.

    The rows are parsed in bulk by numpy's C reader from the file's
    absolute name (str, bytes or PathLike), after the header's lines:
    numpy reads a file it opens by name in chunks, but a file object one
    line at a time. The result is kept only if the name still leads to the
    open handle's file, unchanged in size and modification time, so that
    the file parsed is the one whose header was checked. The line loop,
    which defines the rules, reads the handle instead for: an int file
    descriptor; a name ending .gz, .bz2, .xz or .lzma, which numpy would
    decompress; a stream that cannot seek, such as a pipe; a file holding
    one of the bytes 0x1c-0x1f; and, from the start again, a file the C
    reader refuses (every file that breaks a rule among them) or whose
    name no longer leads to the handle's file. The result, or the error,
    does not depend on which of the two parsed it.
    """
    width = len(header.split(","))
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            data = None
            name = _bulk_name(path)
            # the scan reads fh's bytes before fh decodes any, then rewinds
            if name is not None and fh.seekable() and not _holds_separator_bytes(fh.buffer):
                header_line = _skip_header(enumerate(fh, start=1), header, path)
                data = _parse_bulk(fh, name, header_line, width)
                fh.seek(0)  # for the loop, if the bulk reader refused
            if data is None:
                lines = enumerate(fh, start=1)
                _skip_header(lines, header, path)
                data = _parse_lines(lines, width, path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path) from exc
    return tuple(data.T.copy())


def load_trace(path) -> Trace:
    """Read a trace CSV written by store_trace (or compatible)."""
    times, volts = read_columns(path, TRACE_HEADER)
    return Trace(times, volts, meta={"source": str(path)})


def detect_onset(trace: Trace) -> float:
    """Estimate the signal start time from the trace itself.

    Rule: the first time at which the centered finite-difference slope
    exceeds 3x the standard deviation of the slopes over the initial 10%
    of samples. Deterministic and parameter-free; pass an explicit t0 to
    preprocess() to override it.
    """
    n = len(trace)
    if n < 3:
        raise ValidationError("onset detection needs at least 3 samples")
    t, v = trace.times, trace.volts
    slopes = (v[2:] - v[:-2]) / (t[2:] - t[:-2])
    head = slopes[: max(2, n // 10)]
    threshold = 3.0 * float(np.std(head))
    idx = np.nonzero(slopes > threshold)[0]
    if idx.size == 0:
        raise NoSignalError("no onset detected: slope never exceeds threshold")
    return float(t[idx[0] + 1])


def preprocess(raw: Trace, t0="auto", noise_floor: float = DEFAULT_NOISE_FLOOR_V) -> Trace:
    """Align a raw trace to its start time and remove the offset voltage.

    t0 may be a time in seconds (a number, or its text) or "auto" (onset
    detection); anything else raises ValidationError. The output is
    (0, 0) and then the samples strictly after t0, at raw time minus t0,
    less the voltage at t0 (interpolated when t0 falls between samples), so
    a sample at t0 itself becomes that (0, 0). Negative dips after
    offset removal are clamped to zero only when no deeper than
    noise_floor; otherwise they are kept and flagged in meta.
    """
    if len(raw) == 0:
        raise ValidationError("cannot preprocess an empty trace")
    if t0 == "auto":
        t0 = detect_onset(raw)
    else:
        try:
            t0 = float(t0)
        except (TypeError, ValueError):
            raise ValidationError(f"t0 must be a time in seconds or 'auto', got {t0!r}") from None
        if not (raw.times[0] <= t0 <= raw.times[-1]):
            raise ValidationError(
                f"t0 = {t0!r} outside trace span "
                f"[{float(raw.times[0])!r}, {float(raw.times[-1])!r}]"
            )
    v0 = float(np.interp(t0, raw.times, raw.volts))
    keep = raw.times > t0
    new_t = np.concatenate(([0.0], raw.times[keep] - t0))
    new_v = np.concatenate(([0.0], raw.volts[keep] - v0))
    meta = dict(raw.meta)
    meta.update({"t0": t0, "offset_v": v0, "preprocessed": True})
    min_v = float(new_v.min())
    if min_v < 0.0:
        if -min_v <= noise_floor:
            new_v = np.maximum(new_v, 0.0)
            meta["clamped_noise_dip_v"] = -min_v
        else:
            meta["negative_values"] = True
    return Trace(new_t, new_v, meta=meta)


def resample(trace: Trace, grid) -> Trace:
    """Linearly interpolate a trace onto a new time grid.

    The grid must lie within the trace's span; extrapolation is refused.
    """
    if len(trace) == 0:
        raise ValidationError("cannot resample an empty trace")
    g = np.asarray(grid, dtype=float)
    if g.size and (g[0] < trace.times[0] or g[-1] > trace.times[-1]):
        raise ValidationError(
            f"grid [{float(g[0])!r}, {float(g[-1])!r}] extends beyond trace span "
            f"[{float(trace.times[0])!r}, {float(trace.times[-1])!r}]"
        )
    new_v = np.interp(g, trace.times, trace.volts)
    meta = dict(trace.meta)
    meta["resampled"] = True
    return Trace(g.copy(), new_v, meta=meta)
