"""Hourly energy data: CSV ingestion and synthetic generation.

A frame holds one series, household active power: its timestamps and
the target value at each. A CSV needs a `datetime` column and a
`Global_active_power` column; any other column is ignored. Timestamps
are naive local times, read from ISO 8601 text and held as one
datetime64[us] array, so sub-second parts are kept; a CSV row whose
timestamp carries a UTC offset, or names a date or an hour that does not
exist, is rejected. A CSV is UTF-8 text: a chunk of plain ASCII lines of
real dates is parsed from its bytes one column at a time, and any other
chunk row by row as `csv.reader` splits its decoded text. Errors number
lines as a file opened with newline="" does. In a plain chunk, a target
written "-?D+(.D*)?" with at most 18 significant digits is read from its
digit bytes, N / 10**k rounded to the nearest double as float() rounds
it (Clinger 1990): an integer SWAR parse, one division, and a step by
the exact residual of Dekker's two-product where N needs more than 53
bits. Other targets go through numpy's cast.

CSV output goes through byte kernels: each chunk of rows is laid out in
numpy as a uint8 array, one NUL-padded column of bytes per line, and
written at once without the pad bytes. Timestamps print as isoformat;
a float prints as repr, whose shortest round-trip digits (Steele &
White 1990, Gay 1990) are computed exactly with integer arithmetic for
|v| in [1e-4, 1e16); 0, NaN, infinities and other magnitudes go through
repr one value at a time.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .encoding import DAYOFWEEK, HOUR
from .errors import ConfigError, DataError, is_real

# The CSV headers of the timestamps and the target, and the name reports
# and saved models give the target.
TIME_HEADER = "datetime"
TARGET_HEADER = "Global_active_power"
TARGET_NAME = "global_active_power"

DEFAULT_START = datetime(2023, 1, 1, 0, 0, 0)
_EPOCH = datetime(1970, 1, 1)
_ONE_HOUR = np.timedelta64(1, "h")

# Rows per chunk when reading a CSV: enough to amortise each chunk's
# numpy calls, few enough to keep peak memory flat.
CHUNK_ROWS = 1024
# Rows per chunk when writing one: enough to amortise the byte kernels'
# numpy calls, few enough that each of their arrays stays under 128 kB
# (the largest takes 55 bytes a row), which malloc reuses instead of
# mapping fresh pages: chunks of 4096 rows wrote a year more slowly.
WRITE_ROWS = 2048

# Base level added to the synthetic target so loads stay positive.
SYNTHETIC_BASE_LEVEL = 2.0


def _first_disorder(timestamps):
    """(kind, index) of the first timestamp not later than the one before
    it, or None when the array is strictly increasing."""
    steps = np.diff(timestamps)
    bad = np.flatnonzero(steps <= np.timedelta64(0))
    if not bad.size:
        return None
    kind = "duplicate" if steps[bad[0]] == 0 else "non-monotonic"
    return kind, int(bad[0]) + 1


@dataclass(frozen=True)
class TimeSeriesFrame:
    """Immutable hourly series: timestamps and the target at each."""

    timestamps: np.ndarray  # datetime64[us], strictly increasing
    target: np.ndarray  # float64, one value per timestamp
    rejected_rows: tuple = ()

    def __post_init__(self):
        n = len(self.timestamps)
        if len(self.target) != n:
            raise DataError(f"target has {len(self.target)} rows, expected {n}")
        self.target.setflags(write=False)
        self.timestamps.setflags(write=False)
        disorder = _first_disorder(self.timestamps)
        if disorder is not None:
            kind, i = disorder
            raise DataError(f"{kind} timestamp at row {i}")

    def __len__(self):
        return len(self.timestamps)

    @property
    def gap_count(self) -> int:
        """Missing hourly rows implied by steps longer than one hour."""
        missing = np.diff(self.timestamps) // _ONE_HOUR - 1
        return int(missing[missing > 0].sum())

    def meta(self) -> dict:
        return {
            "rows": len(self),
            "gap_count": self.gap_count,
            "rejected_rows": [list(r) for r in self.rejected_rows],
        }


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the synthetic daily/weekly-cycle generator."""

    n_hours: int = 8760
    daily_amplitude: float = 1.0
    weekly_amplitude: float = 0.5
    trend_slope: float = 0.0
    noise_std: float = 0.3
    seed: int = 42

    def __post_init__(self):
        if self.n_hours < 1:
            raise ConfigError("n_hours must be >= 1")
        for name in ("daily_amplitude", "weekly_amplitude", "trend_slope",
                     "noise_std"):
            if not is_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number, got "
                                  f"{getattr(self, name)!r}")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        if self.daily_amplitude < 0 or self.weekly_amplitude < 0:
            raise ConfigError("amplitudes must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _parse_rows(rows, first_row, time_idx, target_idx, rejected):
    """Parse rows one by one; the only definition of a rejected row.

    Appends (row_index, reason) to `rejected` for each row it rejects,
    numbering rows from `first_row`. Returns the accepted rows'
    microseconds since the epoch and their target values; no values
    when `target_idx` is None.
    """
    micros = []
    values = []
    for row_index, row in enumerate(rows, first_row):
        try:
            ts = datetime.fromisoformat(row[time_idx].strip())
        except (ValueError, IndexError):
            rejected.append((row_index, "unparseable timestamp"))
            continue
        if ts.tzinfo is not None:
            rejected.append((row_index, "timestamp has a UTC offset"))
            continue
        if target_idx is not None:
            try:
                value = float(row[target_idx])
            except (ValueError, IndexError):
                rejected.append((row_index, "unparseable numeric in column "
                                            f"{TARGET_NAME!r}"))
                continue
            if not math.isfinite(value):
                rejected.append((row_index, "non-finite value in column "
                                            f"{TARGET_NAME!r}"))
                continue
            values.append(value)
        micros.append((ts - _EPOCH) // datetime.resolution)
    return micros, np.array(values, dtype=np.float64)


# The bytes a target field that `_parse_columns` casts may hold, besides
# the NUL padding of a fixed-width bytes array: every other byte makes
# float() and numpy's cast differ, or both reject it.
_NUMERIC_BYTES = b"\0" + b"0123456789.eE+-"
# Per byte of a "YYYY-MM-DD HH:MM:SS" timestamp, the lowest value it may
# take and how far above it it may go; the separator is checked alone.
_STAMP_LOW = np.frombuffer(b"0000-00-00 00:00:00", np.uint8)
_STAMP_SPAN = np.frombuffer(b"9999-19-39T29:59:59", np.uint8) - _STAMP_LOW
# The days of months 0-19 in a common year; a month that is not has none.
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
                       + [0] * 7, np.uint8)


# Shared by the reader's and the writer's float kernels: 10**k for
# k <= 22, exact doubles, and Dekker's split of each into two halves of
# at most 26 significant bits; the fields of a double's bits.
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HIGH = _POW10 * 134_217_729.0 - (_POW10 * 134_217_729.0 - _POW10)
_POW10_LOW = _POW10 - _POW10_HIGH
_MANTISSA = np.uint64((1 << 52) - 1)
_EXPONENT = np.uint64(0x7FF << 52)


def _lanes(byte):
    """A uint64 with `byte` in each of its eight byte lanes."""
    return np.uint64(int.from_bytes(bytes([byte]) * 8, "little"))


# The decimal reader sees a field as the 24 bytes that end where it ends,
# three little-endian uint64 words of eight byte lanes (SWAR), and works
# on the bytes XOR "0": a digit is its value, "." is 0x1E and any other
# ASCII byte is above 9 and below 0x80.
_LANE_TOP = _lanes(0x80)
_LANE_LOW7 = _lanes(0x7F)
_LANE_ZEROS = _lanes(0x30)
_LANE_ABOVE_9 = _lanes(0x76)  # sets a lane's top bit iff it holds > 9
_LANE_POINTS = _lanes(0x1E)
_DECIMAL_BYTES = 24
# Per width b of a field without its sign, 0-25, the mask of its bytes,
# the last b of the 24 (none beyond 24): column b, a row per word.
_BODY_LANES = np.zeros((_DECIMAL_BYTES + 2, _DECIMAL_BYTES), np.uint8)
for _b in range(_DECIMAL_BYTES + 1):
    _BODY_LANES[_b, _DECIMAL_BYTES - _b:] = 0xFF
_BODY_LANES = _BODY_LANES.view(np.uint64).T.copy()
# Per word, lane i holding the point: the top byte of (1 << 8i) times its
# constant is the point's place, k + 1 for k digits after it, 24 - 8j - i.
_POINT_PLACE = np.array([[sum((t + 17 - 8 * j) << 8 * t for t in range(8))]
                         for j in range(3)], np.uint64)
# Per place 0-23, the top bit of the point's lane (none at place 0):
# column p, a row per word.
_POINT_LANES = np.zeros((_DECIMAL_BYTES, _DECIMAL_BYTES), np.uint8)
_POINT_LANES[np.arange(1, _DECIMAL_BYTES),
             _DECIMAL_BYTES - np.arange(1, _DECIMAL_BYTES)] = 0x80
_POINT_LANES = _POINT_LANES.view(np.uint64).T.copy()
# Lemire's parse of eight digits in one word's lanes, and each word's
# weight among the 24 digit places.
_EIGHT_DIGITS = (np.uint64(0x000000FF000000FF),
                 np.uint64(100 + (1_000_000 << 32)),
                 np.uint64(1 + (10_000 << 32)))
_WORD_WEIGHT = np.array([[10**16], [10**8], [1]], np.uint64)
# By place (0 with no point): 10**place, capped at 10**19, which no
# 24-place number with its first five places zero reaches; 9 * 10**k;
# 10**k and its Dekker halves.
_PLACE_DIVISOR = np.array([10**19] + [10**min(p, 19) for p in range(1, 24)],
                          np.uint64)
_PLACE_NINES = np.array([0] + [9 * 10**k if k < 19 else 0
                               for k in range(23)], np.uint64)
_PLACE_SCALE = np.concatenate(([1.0], _POW10))
_PLACE_HIGH = np.concatenate(([1.0], _POW10_HIGH))
_PLACE_LOW = np.concatenate(([0.0], _POW10_LOW))
_U7, _U8, _U16, _U32, _U56 = map(np.uint64, (7, 8, 16, 32, 56))


def _line_ends(data, stop=None):
    """The text lines data[:stop] ends, as open(newline="") ends them."""
    return (data.count(b"\n", 0, stop) + data.count(b"\r", 0, stop)
            - data.count(b"\r\n", 0, stop))


def _decode(data, path, line, encoding="utf-8"):
    """`data`, the file's lines from `line` on, as text; a byte that is not
    UTF-8 is a DataError naming its line."""
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        line += _line_ends(data, exc.start)
        raise DataError(f"{path}: line {line} is not UTF-8 text") from None


def _text_lines(chunks, path, line):
    """The text lines of chunks of the file's byte lines, from `line` on,
    split as a file opened with newline="" splits them."""
    for chunk in chunks:
        data = b"".join(chunk)
        yield from io.StringIO(_decode(data, path, line), newline="")
        line += _line_ends(data)


def _fields(buf, start, width):
    """Each row's bytes buf[start:start + width] as one row of a uint8
    array, NUL-padded to the widest."""
    w = int(width.max())
    if start[-1] + w > buf.size:
        buf = np.concatenate((buf, np.zeros(w, np.uint8)))
    cells = sliding_window_view(buf, w)[start]
    if (width != w).any():
        cells *= np.arange(w) < width[:, None]
    return cells


def _read_decimals(buf, start, width):
    """(values, settled): each field buf[start:start + width] read as
    float() reads it, where `settled` is true.

    A field settles when it is "-?D+(.D*)?" with at most 24 bytes after
    its sign and at most 18 significant digits. Its digits, the point read
    as 0, give an integer V by Lemire's eight-digit SWAR parse; V without
    that 0 is N, and with k digits after the point the value is
    N / 10**k. N < 2**53 reads exactly as c = float(N) / 10**k, one rounding
    (Clinger 1990). Above that the exact residual N - c * 10**k, through
    Dekker's two-product, moves c to the double nearest N / 10**k: by
    whole gaps between neighbours while the residual exceeds half a gap,
    and to the even one on a tie. A step out of c's binade, or to its
    first double with the value below it, where the gap below halves,
    does not settle; nor does any other field.
    """
    n = len(start)
    negative = buf.take(start) == 45  # "-"
    body = np.minimum(width - negative, _DECIMAL_BYTES + 1)
    padded = np.concatenate((np.zeros(_DECIMAL_BYTES, np.uint8), buf))
    ends = np.ndarray((padded.size - _DECIMAL_BYTES + 1,),
                      f"V{_DECIMAL_BYTES}", padded, strides=(1,))
    lanes = np.bitwise_xor(ends[start + width].view(np.uint64)
                           .reshape(n, 3).T, _LANE_ZEROS, order="C")
    lanes &= _BODY_LANES.take(body, axis=1)  # bytes before the body: 0
    above_9 = (lanes + _LANE_ABOVE_9) & _LANE_TOP
    points = ~((lanes ^ _LANE_POINTS) + _LANE_LOW7) & _LANE_TOP
    marks = points >> _U7
    place = np.minimum(((marks * _POINT_PLACE) >> _U56).sum(axis=0),
                       len(_PLACE_SCALE) - 1).astype(np.intp)
    # Every byte above 9 must be the one point, at its place.
    strays = np.bitwise_or.reduce(
        above_9 ^ _POINT_LANES.take(place, axis=1), axis=0)
    settled = (strays == 0) & (place < body) & (body <= _DECIMAL_BYTES)
    lanes ^= marks * np.uint64(0x1E)
    lanes = lanes * np.uint64(10) + (lanes >> _U8)
    mask, ones, tens = _EIGHT_DIGITS
    lanes = ((lanes & mask) * ones
             + ((lanes >> _U16) & mask) * tens) >> _U32
    settled &= lanes[0] < 1000  # V below 10**19
    number = (lanes * _WORD_WEIGHT).sum(axis=0)  # V, then N
    number -= (number // _PLACE_DIVISOR.take(place)
               * _PLACE_NINES.take(place))
    settled &= number < np.uint64(10**18)
    # A field that does not settle may give any number below, an
    # overflow or a NaN among them; it is dropped.
    with np.errstate(all="ignore"):
        digits = number.view(np.int64)
        scale = _PLACE_SCALE.take(place)
        value = digits / scale
        product = value * scale
        split = value * 134_217_729.0
        high = split - (split - value)
        low = value - high
        scale_high = _PLACE_HIGH.take(place)
        scale_low = _PLACE_LOW.take(place)
        error = ((high * scale_high - product) + high * scale_low
                 + low * scale_high) + low * scale_low
        big = digits > 1 << 53
        residual = ((digits - product.astype(np.int64)) - error) * big
        bits = value.view(np.int64)
        gap = ((bits.view(np.uint64) & _EXPONENT)
               - np.uint64(52 << 52)).view(np.float64) * scale
        steps = np.rint(residual / gap)
        residual -= steps * gap
        near = bits + steps.astype(np.int64)
        half = 0.5 * gap
        # near must lie in bits' binade, and above its first double if the
        # value lies below near: the gap below that one is half as wide.
        offset = near - (bits & ~np.int64(_MANTISSA))
        inside = ((offset.view(np.uint64) <= _MANTISSA)
                  & ((offset > 0) | (residual >= 0)))
        settled &= ~big | ((abs(residual) <= half) & inside)
        tie = (abs(residual) == half) & ((near & 1) == 1)
        near += np.sign(residual).astype(np.int64) * tie
        value = near.view(np.float64)
    return np.where(negative, -value, value), settled


def _parse_columns(chunk, data, n_cols, time_idx, target_idx):
    """`_parse_rows`'s result for the byte lines `chunk`, joined as `data`,
    parsed one column at a time; None unless every line is ASCII without
    a quote or a NUL, ends in "\\n" or "\\r\\n", has `n_cols` fields, a time
    field "YYYY-MM-DD HH:MM:SS" (or with "T") of a real date and hour from
    year 1 and a target field of `_NUMERIC_BYTES` that reads as a finite
    number: through `_read_decimals`, or numpy's cast where that does not
    settle it. On such fields numpy's casts to datetime64 and float64
    agree with `datetime.fromisoformat` and `float`, as `_read_decimals`
    does with `float`."""
    if (not data.isascii() or b'"' in data or b"\0" in data
            or not data.endswith(b"\n")):
        return None
    buf = np.frombuffer(data, np.uint8)
    n_lines = len(chunk)
    lengths = np.fromiter(map(len, chunk), np.intp, n_lines)
    starts = lengths.cumsum()
    ends = starts - 1  # at each "\n"
    starts -= lengths
    crlf = buf.take(ends - 1) == 13
    if np.count_nonzero(crlf) != data.count(b"\r"):
        return None  # a lone "\r" ends a text line
    ends -= crlf
    commas = np.flatnonzero(buf == 44)
    if commas.size != n_lines * (n_cols - 1):
        return None
    commas = commas.reshape(n_lines, n_cols - 1)
    # Rows of sorted commas inside their own lines: n_cols - 1 per line.
    if n_cols > 1 and not ((commas[:, 0] >= starts).all()
                           and (commas[:, -1] < ends).all()):
        return None

    def field(k):
        start = commas[:, k - 1] + 1 if k else starts
        end = commas[:, k] if k < n_cols - 1 else ends
        return start, end - start

    start, width = field(time_idx)
    if not (width == 19).all():
        return None
    stamps = sliding_window_view(buf, 19)[start]
    sep = stamps[:, 10]
    digits = stamps - _STAMP_LOW
    if not ((digits <= _STAMP_SPAN).all()
            and ((sep == 32) | (sep == 84)).all()  # " " or "T"
            and digits[:, :4].view(np.uint32).all()):  # year 0000
        return None
    # A date or an hour that datetime does not hold must not reach numpy's
    # cast: on some numpy versions it crashes there rather than raising.
    # Day 0 less 1 wraps to 255, past every month's days.
    month, day, hour = (digits[:, k] * 10 + digits[:, k + 1]
                        for k in (5, 8, 11))
    bad = np.flatnonzero((day - 1 >= _MONTH_DAYS.take(month)) | (hour > 23))
    if bad.size:  # only February 29 of a leap year may be real
        year = digits[bad, :4] @ np.array([1000, 100, 10, 1], np.int16)
        if not ((month[bad] == 2) & (day[bad] == 29) & (hour[bad] < 24)
                & (year % np.where(year % 100, 4, 400) == 0)).all():
            return None
    micros = stamps.view("S19").ravel().astype("datetime64[us]")
    if target_idx is None:
        return micros.view(np.int64), np.empty(0)
    start, width = field(target_idx)
    if not width.all():  # float() rejects an empty field
        return None
    values, settled = _read_decimals(buf, start, width)
    if not settled.all():
        rest = np.flatnonzero(~settled)
        cells = _fields(buf, start[rest], width[rest])
        if cells.tobytes().translate(None, _NUMERIC_BYTES):
            return None
        try:
            values[rest] = cells.view(f"S{cells.shape[1]}").ravel().astype(
                np.float64)
        except ValueError:
            return None
        if not np.isfinite(values[rest]).all():
            return None
    return micros.view(np.int64), values


def _csv_rows(lines, path, line):
    """csv.reader's rows of text `lines`, the file's from `line` on; a
    line csv.reader refuses, such as one with a field longer than
    csv.field_size_limit(), is a DataError naming its line."""
    reader = csv.reader(lines)
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}: line {line - 1 + reader.line_num}: "
                        f"{exc}") from None


def _row_blocks(reader):
    """csv rows from `reader`, CHUNK_ROWS at a time."""
    while rows := list(itertools.islice(reader, CHUNK_ROWS)):
        yield rows


def _body_blocks(chunks, path, columns):
    """Per chunk of the body's byte lines, (micros, values) from
    `_parse_columns`, or the chunk's csv rows where it returns None. A
    chunk holding a quote passes the rest of the file to csv.reader, as
    a quoted field may span lines."""
    line = 2
    for chunk in chunks:
        data = b"".join(chunk)
        parsed = _parse_columns(chunk, data, *columns)
        if parsed is not None:
            yield parsed
        elif b'"' in data:
            yield from _row_blocks(_csv_rows(_text_lines(
                itertools.chain([chunk], chunks), path, line), path, line))
            return
        else:
            yield list(_csv_rows(io.StringIO(_decode(data, path, line),
                                             newline=""), path, line))
        # A parsed chunk holds no lone "\r", so its lines are its text lines.
        line += len(chunk) if parsed is not None else _line_ends(data)


def load_csv(path, allow_missing_target: bool = False) -> TimeSeriesFrame:
    """Load an hourly energy CSV into a TimeSeriesFrame.

    Only the `datetime` and `Global_active_power` columns are read; other
    columns are ignored. Rows with an unparseable cell in those two
    columns or a timestamp that carries a UTC offset are rejected and
    recorded in ``rejected_rows`` as (row_index, reason); non-monotonic
    or duplicate timestamps are hard errors, reported with the path and
    the same 0-based data-row index. With ``allow_missing_target`` a file
    without the target column loads with a NaN target (prediction-only
    input). A byte that is not UTF-8, or a line csv.reader refuses, is a
    DataError naming its line.

    The file is read as bytes, CHUNK_ROWS lines at a time.
    `_parse_columns` parses a chunk of plain lines, which `csv.reader`
    would split at each comma, one column at a time. Any other
    chunk is decoded and goes through `csv.reader` and `_parse_rows`,
    which alone decides rejections, as does the rest of the file after a
    chunk holding a quote, and the whole file when the header holds one
    or a lone carriage return.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")

    with open(path, "rb") as fh:
        head = fh.readline()
        # utf-8-sig drops the byte-order mark that spreadsheet exports add.
        lines = io.StringIO(_decode(head, path, 1, "utf-8-sig"),
                            newline="").readlines()
        chunks = iter(lambda: list(itertools.islice(fh, CHUNK_ROWS)), [])
        plain = len(lines) <= 1 and b'"' not in head
        if plain:
            reader = _csv_rows(lines, path, 1)
        else:
            reader = _csv_rows(itertools.chain(
                lines, _text_lines(chunks, path, len(lines) + 1)), path, 1)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required")
        header = [h.strip() for h in header]
        if TIME_HEADER not in header:
            raise DataError(f"{path}: missing timestamp column "
                            f"{TIME_HEADER!r}")
        time_idx = header.index(TIME_HEADER)
        if TARGET_HEADER in header:
            target_idx = header.index(TARGET_HEADER)
        elif allow_missing_target:
            target_idx = None
        else:
            raise DataError(f"{path}: missing target column "
                            f"{TARGET_HEADER!r}")

        micro_chunks = []
        value_chunks = []
        rejected = []
        first_row = 0
        blocks = (_body_blocks(chunks, path,
                               (len(header), time_idx, target_idx))
                  if plain else _row_blocks(reader))
        for block in blocks:
            if isinstance(block, list):  # csv rows
                micros, values = _parse_rows(block, first_row, time_idx,
                                             target_idx, rejected)
                micros = np.array(micros, dtype=np.int64)
                first_row += len(block)
            else:
                micros, values = block
                first_row += len(micros)
            micro_chunks.append(micros)
            value_chunks.append(values)

    if not sum(map(len, micro_chunks)):
        raise DataError(f"{path}: no valid data rows")
    timestamps = np.concatenate(micro_chunks).view("datetime64[us]")
    disorder = _first_disorder(timestamps)
    if disorder is not None:
        kind, row = disorder
        for rejected_row, _ in rejected:  # accepted index -> CSV data row
            if rejected_row > row:
                break
            row += 1
        raise DataError(f"{path}: {kind} timestamp at row {row}")

    if target_idx is None:
        target = np.full(len(timestamps), np.nan)
    else:
        target = np.concatenate(value_chunks)
    return TimeSeriesFrame(timestamps=timestamps, target=target,
                           rejected_rows=tuple(rejected))


# The byte kernels of write_series_csv. The byte after each pair of
# digits of "YYYY-MM-DD HH:MM:SS.ffffff", and a line's end.
_ISO_SEPARATORS = np.frombuffer(b"\0-- ::.\0\0\0", np.uint8)
_CRLF = np.frombuffer(b"\r\n", np.uint8)
_DAY_US = 86_400_000_000
# datetime's years 1-9999 in microseconds from the epoch.
_ISO_FIRST = -62_135_596_800_000_000
_ISO_LAST = 253_402_300_799_999_999
# Decade thresholds 1e-4 .. 1e15 as doubles: each is the double nearest
# its power of ten and not below it, so |v| >= 1e{e} holds exactly when
# |v| >= 10**e.
_DECADES = np.array([float(f"1e{e}") for e in range(-4, 16)])
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)
# The three ASCII digits of each of 0-999 and a NUL, as one uint32.
_TRIPLES = np.zeros((1000, 4), np.uint8)
_TRIPLES[:, :3] = np.arange(1000)[:, None] // [100, 10, 1] % 10 + 48
_TRIPLES = _TRIPLES.view(np.uint32).ravel()


def write_series_csv(path, header, timestamps, columns) -> None:
    """Write CSV rows of a timestamp and float values, WRITE_ROWS at a time.

    The bytes equal what csv.writer writes for the rows
    ``[ts.isoformat(sep=" "), repr(float(v)), ...]`` under `header`. Each
    chunk is laid out by numpy, one NUL-padded column of bytes per line,
    and written at once without its pad bytes: timestamps by
    `_stamp_cells`, values by `_float_cells`, which finds repr's shortest
    round-trip digits (Steele & White 1990, Gay 1990) in exact integer
    arithmetic for every |v| in [1e-4, 1e16) and calls repr for the rest.
    """
    timestamps = np.asarray(timestamps).astype("datetime64[us]", copy=False)
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    head = io.StringIO(newline="")
    csv.writer(head).writerow(header)
    with open(path, "wb") as fh:
        fh.write(head.getvalue().encode("utf-8"))
        for start in range(0, len(timestamps), WRITE_ROWS):
            chunk = slice(start, start + WRITE_ROWS)
            fh.write(_format_rows(timestamps[chunk],
                                  [c[chunk] for c in columns]))


def _format_rows(timestamps, columns):
    """One chunk's CSV lines as bytes, each ended by "\\r\\n" like
    csv.writer's. The kernels give one column of bytes per line, so
    each of their numpy steps runs along the chunk's rows."""
    n = len(timestamps)
    cells = [_stamp_cells(timestamps)]
    for values in columns:
        cells += [np.full((1, n), 44, np.uint8), _float_cells(values)]
    cells.append(np.broadcast_to(_CRLF[:, None], (2, n)))
    return np.concatenate(cells).T.tobytes().translate(None, b"\0")


def _put_texts(cells, rows, texts):
    """`cells` with the column of each of `rows` replaced by one of the
    bytes `texts`, NUL-padded, lengthened if a text is longer."""
    texts = texts.view(np.uint8).reshape(len(texts), -1).T
    extra = len(texts) - len(cells)
    if extra > 0:
        cells = np.concatenate(
            [cells, np.zeros((extra, cells.shape[1]), np.uint8)])
    cells[:, rows] = 0
    cells[:len(texts), rows] = texts
    return cells


def _stamp_cells(timestamps):
    """Each timestamp's isoformat(sep=" ") as one column of a uint8
    array, NUL-padded: "YYYY-MM-DD HH:MM:SS", then ".ffffff" where the
    microseconds are not zero. A timestamp outside years 1-9999, which
    datetime cannot hold, is written as numpy prints it."""
    micros = timestamps.view(np.int64)
    days = micros // _DAY_US
    clock = micros - days * _DAY_US
    secs = clock // 1_000_000
    fraction = clock - secs * 1_000_000
    whole = fraction == 0
    some = not whole.all()
    # Two-digit parts: century, year, month, day, hours, minutes,
    # seconds, then the microseconds where any.
    pairs = np.empty((10 if some else 7, len(micros)), np.uint8)
    year, pairs[2], pairs[3] = _civil_from_days(days)
    pairs[0] = year // 100
    pairs[1] = year % 100
    minutes = secs // 60
    pairs[4] = minutes // 60
    pairs[5] = minutes % 60
    pairs[6] = secs - 60 * minutes
    if some:
        pairs[7] = fraction // 10_000
        pairs[8] = fraction // 100 % 100
        pairs[9] = fraction % 100
    tens = pairs // 10
    # Per pair of digits: its tens, its ones and the byte after it.
    cells = np.empty((len(pairs), 3, len(micros)), np.uint8)
    cells[:, 0] = tens + 48
    cells[:, 1] = pairs - 10 * tens + 48
    cells[:, 2] = _ISO_SEPARATORS[:len(pairs), None]
    cells = cells.reshape(-1, len(micros))
    if some:
        cells[20:] *= (~whole).view(np.uint8)
    else:
        cells = cells[:20]
    odd = (micros < _ISO_FIRST) | (micros > _ISO_LAST)
    if odd.any():
        stamps = timestamps[odd]
        texts = np.where(whole[odd], np.datetime_as_string(stamps, unit="s"),
                         np.datetime_as_string(stamps, unit="us"))
        cells = _put_texts(cells, odd,
                           np.char.replace(texts.astype("S"), b"T", b" "))
    return cells


def _civil_from_days(days):
    """(year, month, day) of each count of days from 1970-01-01, by
    Hinnant's civil_from_days: eras of 400 years from 0000-03-01."""
    z = days + 719_468
    era = z // 146_097
    doe = z - era * 146_097  # day of the era
    yoe = (doe - doe // 1460 + doe // 36_524 - doe // 146_096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)  # from March 1
    mp = (5 * doy + 2) // 153  # month from March
    month = mp + np.where(mp < 10, 3, -9)
    return (yoe + era * 400 + (month <= 2), month,
            doy - (153 * mp + 2) // 5 + 1)


def _repr_floats(values):
    """repr of each value, as a bytes array."""
    return np.array([repr(v) for v in values.tolist()], dtype="S")


def _float_cells(values):
    """Each value's repr as one column of a uint8 array, with NUL pad
    bytes around and inside it.

    Where |v| is in [1e-4, 1e16), repr prints the fewest digits that
    read back as v, the nearest such to v, ties to an even last digit,
    without an exponent. `_shortest_digits` finds them, and each digit
    lands in the row of its decimal place: integer places, ".", fraction
    places. Every other value goes through `_repr_floats`.
    """
    n = len(values)
    m, count, point, exact = _shortest_digits(values)
    tape = _digit_tape(m)
    # Place q goes to row 15 - q of a canvas without the point. The
    # printed places run from max(point - 1, 0) down to
    # min(point - count, -1): a leading "0" below 1, trailing zeros and
    # ".0" on whole numbers.
    high = 15 - np.maximum(point - 1, 0)
    low = 15 - np.minimum(point - count, -1)
    first, last = int(high.min()), int(low.max())
    canvas = np.zeros((last - first + 1, n), np.uint8)
    for p in np.flatnonzero(np.bincount(point + 3)) - 3:
        top = 15 - max(p - 1, 0) - first
        start = first + p + 3  # digit i lands in row 16 - p + i
        canvas[top:] += ((point == p).view(np.uint8)
                         * tape[start + top:start + len(canvas)])
    rows = np.arange(first, last + 1, dtype=np.int8)[:, None]
    canvas *= (rows <= low).view(np.uint8)
    cut = 16 - first
    cells = np.concatenate([(np.signbit(values).view(np.uint8) * 45)[None],
                            canvas[:cut], np.full((1, n), 46, np.uint8),
                            canvas[cut:]])
    if not exact.all():
        cells = _put_texts(cells, ~exact, _repr_floats(values[~exact]))
    return cells


def _digit_tape(m):
    """The ASCII digits of each int64 m below 10**17 as a column of 55
    bytes: digit i, i = 0 .. 16 from the left, in row 19 + i, "0"s above
    and NULs below. The 17 digits and a leading "0" are found as six
    groups of three."""
    billions = m // 10**9
    parts = np.stack([billions, m - 10**9 * billions], dtype=np.int32,
                     casting="same_kind")  # each below 10**9
    thousands = parts // 1000
    millions = parts // 10**6
    groups = np.stack([millions, thousands - 1000 * millions,
                       parts - 1000 * thousands], axis=1)
    tape = np.zeros((55, len(m)), np.uint8)
    tape[:18] = 48
    tape[18:36].reshape(2, 3, 3, -1)[:] = _TRIPLES.take(groups).view(
        np.uint8).reshape(2, 3, -1, 4)[..., :3].transpose(0, 1, 3, 2)
    return tape


def _shortest_digits(values):
    """(m, count, point, exact): for each value v with exact true,
    repr's shortest digits of |v| are the first `count` of the 17 digits
    of the int64 m, with `point` of them before the decimal point.
    `exact` is |v| in [1e-4, 1e16); the other rows hold the digits of 1.

    The values that read back as v, scaled by 10**k, k = 16 -
    floor(log10 |v|), lie in an interval around y = |v| * 10**k in
    [1e16, 1e17) (`_scaled_interval`). m is the point of the coarsest
    grid 10**j in that interval nearest y, ties to even.
    """
    mag = np.abs(values)
    exact = (mag >= 1e-4) & (mag < 1e16)
    mag = np.where(exact, mag, 1.0)
    e10 = _DECADES.searchsorted(mag, side="right") - 5
    whole, frac, first, last = _scaled_interval(mag, 16 - e10)
    j = np.zeros(len(mag), np.int64)
    for t in range(1, 18):
        fits = last // 10**t * 10**t >= first
        if not fits.any():
            break
        j += fits
    grid = _POW10_INT[j]
    q = whole // grid
    floor = q * grid
    # The sign of 2 * (y - floor) - grid: where floor or floor + grid is
    # nearer y. Its integer part decides unless it is 0 or -1.
    over = (2 * (whole - floor) - grid) + 2 * frac
    up = (floor + grid <= last) & ((floor < first) | (over > 0)
                                   | ((over == 0) & ((q & 1) == 1)))
    m = (q + up) * grid
    exact &= m < 10**17  # not rounded up to the next decade
    return m, (17 - j).astype(np.int8), (e10 + 1).astype(np.int8), exact


def _scaled_interval(mag, k):
    """(whole, frac, first, last) for positive normal doubles `mag` and
    10**k, k <= 22: y = mag * 10**k exactly as whole + frac, frac in
    [0, 1), and the first and last integers that, divided by 10**k, read
    back as mag.

    10**k is a double, and Dekker's two-product gives the rounding error
    of the product. Those values lie within half an ulp of mag (a
    quarter on the lower side of a power of two), ends included when
    the mantissa is even.
    """
    scale = _POW10[k]
    top = mag * scale
    split = mag * 134_217_729.0  # Dekker's split: 2**27 + 1
    high = split - (split - mag)
    low = mag - high
    err = ((high * _POW10_HIGH[k] - top) + high * _POW10_LOW[k]
           + low * _POW10_HIGH[k]) + low * _POW10_LOW[k]
    below = np.floor(err)
    whole = top.astype(np.int64) + below.astype(np.int64)
    frac = err - below
    # Half an ulp, 2**(e - 53) for mag in [2**e, 2**(e + 1)), scaled: a
    # power of two times 10**k, so exact.
    bits = mag.view(np.uint64)
    half = ((bits & _EXPONENT) - (53 << 52)).view(np.float64) * scale
    lower = frac - np.where(bits & _MANTISSA, half, 0.5 * half)
    upper = frac + half
    even = (bits & 1) == 0
    first = whole + np.where(even, np.ceil(lower),
                             np.floor(lower) + 1).astype(np.int64)
    last = whole + np.where(even, np.floor(upper),
                            np.ceil(upper) - 1).astype(np.int64)
    return whole, frac, first, last


def write_csv(frame: TimeSeriesFrame, path) -> None:
    """Write a frame as `datetime,Global_active_power` (round-trips
    load_csv)."""
    write_series_csv(path, [TIME_HEADER, TARGET_HEADER],
                     frame.timestamps, [frame.target])


def generate_synthetic(config: SyntheticConfig) -> TimeSeriesFrame:
    """Generate an hourly frame with daily and weekly cycles plus trend/noise.

    Deterministic for a fixed seed. The noise comes from the first child
    of the seed's SeedSequence, which is the same whatever the number of
    children spawned, so a later input drawn from another child leaves
    the target as it is.
    """
    n = config.n_hours
    timestamps = np.datetime64(DEFAULT_START, "us") + np.arange(n) * _ONE_HOUR
    t = np.arange(n, dtype=np.float64)
    hour = HOUR.phases(timestamps)
    dow_hour = DAYOFWEEK.phases(timestamps) * 24 + hour

    target = (
        SYNTHETIC_BASE_LEVEL
        + config.daily_amplitude * np.sin(2 * np.pi * hour / 24.0)
        + config.weekly_amplitude * np.sin(2 * np.pi * dow_hour / 168.0)
        + config.trend_slope * t
    )
    if config.noise_std > 0:
        rng = np.random.default_rng(
            np.random.SeedSequence(config.seed).spawn(1)[0])
        target = target + rng.normal(0.0, config.noise_std, size=n)
    return TimeSeriesFrame(timestamps=timestamps, target=target)
