"""Hourly energy data: CSV ingestion and synthetic generation.

A frame holds one series, household active power: its timestamps and
the target value at each. A CSV needs a `datetime` column and a
`Global_active_power` column; any other column is ignored. Timestamps
are naive local times, read from ISO 8601 text and held as one
datetime64[us] array, so sub-second parts are kept; a CSV row whose
timestamp carries a UTC offset is rejected. A CSV is UTF-8 text: a chunk
of plain ASCII lines is parsed from its bytes one column at a time, and
any other chunk row by row as `csv.reader` splits its decoded text.
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

# Rows per chunk when reading or writing a CSV: enough to amortise each
# chunk's numpy calls, few enough to keep peak memory flat.
CHUNK_ROWS = 1024

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
_STAMP_SPAN = np.frombuffer(b"9999-99-99T99:99:99", np.uint8) - _STAMP_LOW


def _decode(data, path, line, encoding="utf-8"):
    """`data`, the file's lines from `line` on, as text; a byte that is not
    UTF-8 is a DataError naming its line."""
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        line += data.count(b"\n", 0, exc.start)
        raise DataError(f"{path}: line {line} is not UTF-8 text") from None


def _text_lines(chunks, path, line):
    """The text lines of chunks of the file's byte lines, from `line` on,
    split at "\\n", "\\r" and "\\r\\n" as a file opened with
    newline="" splits them."""
    for chunk in chunks:
        yield from io.StringIO(_decode(b"".join(chunk), path, line),
                               newline="")
        line += len(chunk)


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


def _parse_columns(chunk, data, n_cols, time_idx, target_idx):
    """`_parse_rows`'s result for the byte lines `chunk`, joined as `data`,
    parsed one column at a time; None unless every line is ASCII without
    a quote or a NUL, ends in "\\n" or "\\r\\n", has `n_cols` fields, a time
    field "YYYY-MM-DD HH:MM:SS" (or with "T") of a year from 1 and a
    target field of `_NUMERIC_BYTES` that numpy's cast reads as a finite
    number. On such a field numpy's casts to datetime64 and float64 agree
    with `datetime.fromisoformat` and `float`, rejections included."""
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
    if not (((stamps - _STAMP_LOW) <= _STAMP_SPAN).all()
            and ((sep == 32) | (sep == 84)).all()  # " " or "T"
            and (stamps[:, :4] != 48).any(axis=1).all()):  # year 0000
        return None
    try:
        micros = stamps.view("S19").ravel().astype("datetime64[us]")
    except ValueError:
        return None
    if target_idx is None:
        return micros.view(np.int64), np.empty(0)
    start, width = field(target_idx)
    if not width.all():  # float() rejects an empty field
        return None
    cells = _fields(buf, start, width)
    if cells.tobytes().translate(None, _NUMERIC_BYTES):
        return None
    try:
        values = cells.view(f"S{cells.shape[1]}").ravel().astype(np.float64)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return micros.view(np.int64), values


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
            yield from _row_blocks(csv.reader(_text_lines(
                itertools.chain([chunk], chunks), path, line)))
            return
        else:
            yield list(csv.reader(io.StringIO(_decode(data, path, line),
                                              newline="")))
        line += len(chunk)


def load_csv(path, allow_missing_target: bool = False) -> TimeSeriesFrame:
    """Load an hourly energy CSV into a TimeSeriesFrame.

    Only the `datetime` and `Global_active_power` columns are read; other
    columns are ignored. Rows with an unparseable cell in those two
    columns or a timestamp that carries a UTC offset are rejected and
    recorded in ``rejected_rows`` as (row_index, reason); non-monotonic
    or duplicate timestamps are hard errors, reported with the path and
    the same 0-based data-row index. With ``allow_missing_target`` a file
    without the target column loads with a NaN target (prediction-only
    input). A byte that is not UTF-8 is a DataError naming its line.

    The file is read as bytes, CHUNK_ROWS lines at a time.
    `_parse_columns` parses a chunk of plain lines, which `csv.reader`
    would split at each comma, with one numpy cast per column. Any other
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
            reader = csv.reader(lines)
        else:
            reader = csv.reader(itertools.chain(
                lines, _text_lines(chunks, path, 2)))
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


def write_series_csv(path, header, timestamps, columns) -> None:
    """Write CSV rows of a timestamp and float values, CHUNK_ROWS at a time.

    The bytes equal what csv.writer writes for the rows
    ``[ts.isoformat(sep=" "), repr(float(v)), ...]`` under `header`.
    """
    timestamps = np.asarray(timestamps).astype("datetime64[us]", copy=False)
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(timestamps), CHUNK_ROWS):
            chunk = slice(start, start + CHUNK_ROWS)
            fh.write(_format_rows(timestamps[chunk],
                                  [c[chunk] for c in columns]))


def _format_rows(timestamps, columns):
    """One chunk's CSV lines, each ended by "\\r\\n" like csv.writer's."""
    stamps = np.datetime_as_string(timestamps, unit="s")
    fraction = timestamps.view(np.int64) % 1_000_000 != 0
    if fraction.any():
        # isoformat prints microseconds only where they are non-zero.
        stamps = np.where(fraction,
                          np.datetime_as_string(timestamps, unit="us"),
                          stamps)
    cells = [stamps.tolist()]
    cells += [list(map(repr, c.tolist())) for c in columns]
    text = "\r\n".join(map(",".join, zip(*cells))) + "\r\n"
    # The ISO separator is the only "T" in the text: a float's repr is
    # digits, ".", "e", a sign, "inf" or "nan".
    return text.replace("T", " ")


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
