import csv
import hashlib
import math
import os
import subprocess
import sys
from dataclasses import fields
from datetime import datetime
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import cyclecast
from cyclecast import dataset
from cyclecast.dataset import (
    CHUNK_ROWS, WRITE_ROWS, SyntheticConfig, TimeSeriesFrame, _parse_rows,
    generate_synthetic, load_csv, write_csv, write_series_csv,
)
from cyclecast.errors import ConfigError, DataError
from cyclecast.evaluation import train_rows

# A household-power header: load_csv reads the first two columns and
# ignores the rest.
HEADER = ("datetime,Global_active_power,Global_reactive_power,Voltage,"
          "Global_intensity,Sub_metering_1,Sub_metering_2,Sub_metering_3")


def make_csv(tmp_path, rows, name="data.csv", header=HEADER):
    path = tmp_path / name
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def row(ts, value=1.0):
    return f"{ts},{value},0.1,240.0,4.2,0.0,1.0,2.0"


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = make_csv(tmp_path, [
            row("2023-01-01 00:00:00", 1.5),
            row("2023-01-01 01:00:00", 2.5),
            row("2023-01-01 02:00:00", 3.5),
        ])
        frame = load_csv(path)
        assert len(frame) == 3
        assert frame.timestamps[0] < frame.timestamps[1] < frame.timestamps[2]
        assert frame.target.tolist() == [1.5, 2.5, 3.5]
        assert frame.gap_count == 0
        assert frame.rejected_rows == ()

    def test_out_of_order_reports_row(self, tmp_path):
        path = make_csv(tmp_path, [
            row("2023-01-01 00:00:00"),
            row("2023-01-01 02:00:00"),
            row("2023-01-01 01:00:00"),
        ])
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_duplicate_timestamp(self, tmp_path):
        path = make_csv(tmp_path, [
            row("2023-01-01 00:00:00"),
            row("2023-01-01 00:00:00"),
        ])
        with pytest.raises(DataError, match="duplicate"):
            load_csv(path)

    @pytest.mark.parametrize("rejected", [1, 3, 5])
    def test_order_error_names_file_and_csv_row(self, tmp_path, rejected):
        # Data row `rejected` holds `oops`. Data row 4 repeats the last
        # accepted timestamp before it: the fourth accepted row when the
        # rejected row comes first, the fifth when it comes after. The
        # error must count CSV data rows as rejected_rows does.
        stamps = [f"2023-01-01 0{h}:00:00" for h in range(6)]
        rows = [row(ts) for ts in stamps[:4]]
        rows.append(row(stamps[2] if rejected == 3 else stamps[3]))
        rows.append(row(stamps[5]))
        rows[rejected] = f"{stamps[rejected]},oops,0.1,240.0,4.2,0.0,1.0,2.0"
        path = make_csv(tmp_path, rows)
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: duplicate timestamp at row 4"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "absent.csv")

    def test_missing_target_column(self, tmp_path):
        path = make_csv(tmp_path, ["2023-01-01 00:00:00,240.0"],
                        header="datetime,Voltage")
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value) == \
            f"{path}: missing target column 'Global_active_power'"

    @pytest.mark.parametrize("allow_missing_target", [False, True])
    def test_time_header_is_datetime(self, tmp_path, allow_missing_target):
        # Header names are matched exactly.
        path = make_csv(tmp_path, [row("2023-01-01 00:00:00")],
                        header=HEADER.replace("datetime", "Datetime"))
        with pytest.raises(DataError) as info:
            load_csv(path, allow_missing_target=allow_missing_target)
        assert str(info.value) == \
            f"{path}: missing timestamp column 'datetime'"

    def test_missing_target_allowed_loads_nan(self, tmp_path):
        path = make_csv(tmp_path, ["2023-01-01 00:00:00",
                                   "2023-01-01 01:00:00"], header="datetime")
        frame = load_csv(path, allow_missing_target=True)
        assert len(frame) == 2
        assert np.isnan(frame.target).all()
        assert frame.rejected_rows == ()

    def test_time_and_target_only(self, tmp_path):
        path = make_csv(tmp_path, ["2023-01-01 00:00:00,1.5",
                                   "2023-01-01 01:00:00,2.5"],
                        header="datetime,Global_active_power")
        frame = load_csv(path)
        assert frame.target.tolist() == [1.5, 2.5]
        assert frame.rejected_rows == ()

    def test_garbage_in_ignored_column_keeps_row(self, tmp_path):
        path = make_csv(tmp_path, [
            row("2023-01-01 00:00:00", 1.5),
            "2023-01-01 01:00:00,2.5,0.1,240.0,4.2,0.0,1.0,oops",
            "2023-01-01 02:00:00,3.5,0.1,240.0,4.2,0.0,1.0,nan",
        ])
        frame = load_csv(path)
        assert frame.target.tolist() == [1.5, 2.5, 3.5]
        assert frame.rejected_rows == ()

    def test_target_after_other_columns(self, tmp_path):
        rows = [row("2023-01-01 00:00:00", 1.5),
                row("2023-01-01 01:00:00", "oops"),
                row("2023-01-01 02:00:00", 3.5)]
        reordered = []
        for text in [HEADER] + rows:
            ts, target, *others = text.split(",")
            reordered.append(",".join(others[:3] + [ts, target] + others[3:]))
        a = load_csv(make_csv(tmp_path, rows))
        b = load_csv(make_csv(tmp_path, reordered[1:], name="moved.csv",
                              header=reordered[0]))
        assert np.array_equal(a.timestamps, b.timestamps)
        assert a.target.tolist() == b.target.tolist() == [1.5, 3.5]
        assert a.rejected_rows == b.rejected_rows

    def test_bad_numeric_rejected_with_index(self, tmp_path):
        path = make_csv(tmp_path, [
            row("2023-01-01 00:00:00"),
            "2023-01-01 01:00:00,oops,0.1,240.0,4.2,0.0,1.0,2.0",
            row("2023-01-01 02:00:00"),
        ])
        frame = load_csv(path)
        assert len(frame) == 2
        assert frame.rejected_rows[0][0] == 1
        assert "global_active_power" in frame.rejected_rows[0][1]

    def test_gap_flagged_not_fatal(self, tmp_path):
        path = make_csv(tmp_path, [
            row("2023-01-01 00:00:00"),
            row("2023-01-01 03:00:00"),
        ])
        frame = load_csv(path)
        assert frame.gap_count == 2
        # A 90-minute step misses no whole hourly row.
        path = make_csv(tmp_path, [
            row("2023-01-01 00:00:00"),
            row("2023-01-01 01:30:00"),
        ], name="ninety.csv")
        assert load_csv(path).gap_count == 0

    def test_utc_offset_rejected_with_index(self, tmp_path):
        path = make_csv(tmp_path, [
            row("2023-01-01 00:00:00"),
            row("2023-01-01 01:00:00+01:00"),
            row("2023-01-01 02:00:00"),
        ])
        frame = load_csv(path)
        assert len(frame) == 2
        assert frame.rejected_rows == ((1, "timestamp has a UTC offset"),)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # Spreadsheet exports often start a UTF-8 file with a BOM, which
        # would otherwise stick to the first header name.
        plain = make_csv(tmp_path, [
            row("2023-01-01 00:00:00", 1.5),
            row("2023-01-01 01:00:00", "oops"),
            row("2023-01-01 02:00:00", 3.5),
        ])
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = load_csv(plain), load_csv(marked)
        assert np.array_equal(a.timestamps, b.timestamps)
        assert a.target.tolist() == b.target.tolist() == [1.5, 3.5]
        assert a.rejected_rows == b.rejected_rows != ()

    def test_year_scale_file(self, tmp_path):
        # Hourly 2023 file at the 8,737-row scale loads in full.
        frame = generate_synthetic(SyntheticConfig(n_hours=8737, seed=1))
        path = tmp_path / "year.csv"
        write_csv(frame, path)
        loaded = load_csv(path)
        assert len(loaded) == 8737
        years = loaded.timestamps[[0, -1]].astype("datetime64[Y]")
        assert np.array_equal(years, np.array(["2023", "2023"],
                                              dtype="datetime64[Y]"))

    def test_round_trip_bit_exact(self, tmp_path):
        frame = generate_synthetic(SyntheticConfig(n_hours=100, seed=9))
        path = tmp_path / "rt.csv"
        write_csv(frame, path)
        assert path.read_text().splitlines()[0] == \
            "datetime,Global_active_power"
        loaded = load_csv(path)
        assert np.array_equal(loaded.timestamps, frame.timestamps)
        assert np.array_equal(loaded.target.view(np.int64),
                              frame.target.view(np.int64))

    def test_sub_second_timestamp_round_trip(self, tmp_path):
        # The ignored columns are not written back.
        path = make_csv(tmp_path, [row("2023-01-01 00:00:00.500000", 1.5)])
        out = tmp_path / "out.csv"
        write_csv(load_csv(path), out)
        assert out.read_text().splitlines()[1] == \
            "2023-01-01 00:00:00.500000,1.5"


def hourly(n, start="2023-01-01T00"):
    stamps = np.datetime64(start, "s") + np.arange(n) * np.timedelta64(1, "h")
    return [str(ts).replace("T", " ") for ts in stamps]


def per_row_reference(path):
    """Accepted rows of a CSV in HEADER's layout, parsed one at a time:
    their timestamps and targets."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    stamps, values = [], []
    for r in rows:
        try:
            ts = datetime.fromisoformat(r[0].strip())
            value = float(r[1])
        except (ValueError, IndexError):
            continue
        if ts.tzinfo is None and math.isfinite(value):
            stamps.append(ts)
            values.append(value)
    return np.array(stamps, dtype="datetime64[us]"), np.array(values)


class TestLoadCsvChunks:
    """Rows are parsed CHUNK_ROWS at a time; row numbers stay global."""

    def test_rejected_rows_numbered_across_chunks(self, tmp_path):
        stamps = hourly(2 * CHUNK_ROWS + 10)
        rows = [row(ts) for ts in stamps]
        bad = [CHUNK_ROWS - 1, CHUNK_ROWS, 2 * CHUNK_ROWS + 1]
        rows[bad[0]] = row(stamps[bad[0]], "oops")
        rows[bad[1]] = row(stamps[bad[1]] + "+00:00")
        rows[bad[2]] = row(stamps[bad[2]], "inf")
        frame = load_csv(make_csv(tmp_path, rows))
        assert frame.rejected_rows == (
            (bad[0], "unparseable numeric in column 'global_active_power'"),
            (bad[1], "timestamp has a UTC offset"),
            (bad[2], "non-finite value in column 'global_active_power'"),
        )
        assert len(frame) == len(rows) - 3

    def test_duplicate_across_chunk_boundary_names_csv_row(self, tmp_path):
        stamps = hourly(CHUNK_ROWS + 5)
        rows = [row(ts) for ts in stamps]
        rows[3] = row(stamps[3], "oops")  # shifts accepted indices by one
        rows[CHUNK_ROWS] = row(stamps[CHUNK_ROWS - 1])
        path = make_csv(tmp_path, rows)
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value) == \
            f"{path}: duplicate timestamp at row {CHUNK_ROWS}"

    def test_blank_and_short_rows_rejected(self, tmp_path):
        stamps = hourly(2 * CHUNK_ROWS + 50)
        rows = [row(ts) for ts in stamps]
        rows[10] = stamps[10]
        rows[11] = f"{stamps[11]},1.5"  # short of ignored columns only
        rows[CHUNK_ROWS - 1] = ""
        # Short of the target, alone in its chunk.
        rows[CHUNK_ROWS + 9] = stamps[CHUNK_ROWS + 9]
        # Short of ignored columns only, alone in its chunk.
        rows[2 * CHUNK_ROWS + 9] = f"{stamps[2 * CHUNK_ROWS + 9]},2.5"
        frame = load_csv(make_csv(tmp_path, rows))
        assert frame.rejected_rows == (
            (10, "unparseable numeric in column 'global_active_power'"),
            (CHUNK_ROWS - 1, "unparseable timestamp"),
            (CHUNK_ROWS + 9,
             "unparseable numeric in column 'global_active_power'"),
        )
        assert len(frame) == len(rows) - 3
        assert frame.target[10] == 1.5
        assert frame.target[2 * CHUNK_ROWS + 9 - 3] == 2.5

    def test_chunked_parse_matches_row_reference(self, tmp_path):
        rng = np.random.default_rng(4)
        n = 3 * CHUNK_ROWS + 17
        stamps = hourly(n, "1969-12-30T00")
        rows = []
        for i, ts in enumerate(stamps):
            if i % 97 == 5:
                ts += f".{rng.integers(1, 10**6):06d}"
            cells = rng.normal(size=7) * 10.0 ** rng.integers(-300, 300, 7)
            rows.append(",".join([ts] + [repr(float(c)) for c in cells]))
        for i in (7, CHUNK_ROWS - 1, CHUNK_ROWS, 2 * CHUNK_ROWS + 3):
            rows[i] = row(stamps[i], "nan")
        # Bad cells in ignored columns reject nothing.
        for i in (8, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 1):
            rows[i] = rows[i].rsplit(",", 1)[0] + ",oops"
        rows[2 * CHUNK_ROWS] = ""
        rows[n - 1] = rows[n - 1].split(",")[0]
        path = make_csv(tmp_path, rows)
        frame = load_csv(path)
        stamps_ref, values_ref = per_row_reference(path)
        assert [r for r, _ in frame.rejected_rows] == [
            7, CHUNK_ROWS - 1, CHUNK_ROWS, 2 * CHUNK_ROWS,
            2 * CHUNK_ROWS + 3, n - 1]
        assert np.array_equal(frame.timestamps, stamps_ref)
        assert np.array_equal(frame.target.view(np.int64),
                              values_ref.view(np.int64))



def csv_reference(path, allow_missing_target=False):
    """`load_csv`'s result by csv.reader and `_parse_rows` alone, on the
    file read as text: (timestamps, target, rejected_rows)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        time_idx = header.index("datetime")
        target_idx = (header.index("Global_active_power")
                      if "Global_active_power" in header else None)
        rejected = []
        micros, values = _parse_rows(list(reader), 0, time_idx, target_idx,
                                     rejected)
    stamps = np.array(micros, dtype=np.int64).view("datetime64[us]")
    if target_idx is None:
        values = np.full(len(stamps), np.nan)
    return stamps, values, tuple(rejected)


def assert_loads_as_reference(path, allow_missing_target=False):
    frame = load_csv(path, allow_missing_target=allow_missing_target)
    stamps, values, rejected = csv_reference(path, allow_missing_target)
    assert frame.rejected_rows == rejected
    assert np.array_equal(frame.timestamps, stamps)
    assert np.array_equal(frame.target.view(np.int64),
                          values.view(np.int64))
    return frame


# Runs `assert_loads_as_reference` on each CSV named after the tests
# directory, printing each file's rejected rows.
CHECK_AS_REFERENCE = """
import sys
sys.path.insert(0, sys.argv[1])
from test_dataset import assert_loads_as_reference
for path in sys.argv[2:]:
    print(assert_loads_as_reference(path).rejected_rows)
"""


# Layouts of the differential tests: the header, and where the time and
# target fields sit among the cells.
LAYOUTS = {
    "two-columns": ("datetime,Global_active_power", 0, 1),
    "time-only": ("datetime", 0, None),
    "five-columns": ("note,datetime,Voltage,Global_active_power,Sub_1",
                     1, 3),
}


def layout_lines(layout, n, rng):
    """`n` clean CRLF lines of a layout, as lists of cells."""
    header, time_idx, target_idx = LAYOUTS[layout]
    n_cols = header.count(",") + 1
    lines = []
    for ts in hourly(n):
        cells = [f"{rng.integers(0, 10 ** rng.integers(1, 6))}"
                 for _ in range(n_cols)]
        cells[time_idx] = ts
        if target_idx is not None:
            cells[target_idx] = repr(float(rng.normal(2.0, 1.0)
                                           * 10.0 ** rng.integers(-3, 3)))
        lines.append(cells)
    return lines


def write_lines(path, header, lines):
    """Write `header` and lines given as cells or as ready bytes."""
    data = [header.encode() + b"\r\n"]
    for line in lines:
        if isinstance(line, list):
            line = ",".join(line).encode() + b"\r\n"
        data.append(line)
    path.write_bytes(b"".join(data))
    return path


class TestColumnarReader:
    """`load_csv` parses plain chunks one column at a time and anything
    else through csv.reader and `_parse_rows`; both must give what the
    second gives for the whole file."""

    # Per mutation, the cells it edits a line to: time and target mutate
    # the named field, other the first ignored column, line the bytes.
    MUTATIONS = [
        ("time", lambda ts: ts.replace(" ", "T")),
        ("time", lambda ts: ts + ".5"),
        ("time", lambda ts: ts + "+01:00"),
        ("time", lambda ts: " " + ts + " "),
        ("time", lambda ts: "0000" + ts[4:]),
        ("time", lambda ts: ts[:16]),
        ("time", lambda ts: ts.replace("-", "/")),
        ("time", lambda ts: ts + "\u00e9"),
        ("target", lambda v: "1_0"),
        ("target", lambda v: "inf"),
        ("target", lambda v: "nan"),
        ("target", lambda v: "1e400"),
        ("target", lambda v: "+.5"),
        ("target", lambda v: "5."),
        ("target", lambda v: ""),
        ("target", lambda v: " 7"),
        ("target", lambda v: v + "e"),
        ("target", lambda v: v + "\x00"),
        ("other", lambda c: "caf\u00e9"),
        ("other", lambda c: c + "\x00"),
        ("line", lambda b: b"\r\n"),
        ("line", lambda b: b"\n"),
        ("line", lambda b: b[:-2] + b"\n"),
        ("line", lambda b: b[:-2] + b"\rjunk\r\n"),
        ("line", lambda b: b.split(b",")[0] + b"\r\n"),
        ("line", lambda b: b[:-2] + b",extra\r\n"),
    ]

    def mutated_file(self, tmp_path, layout, rng, mutations, n_chunks):
        """`n_chunks` chunks and a bit, with `mutations` at random lines
        of chunk 1 and the chunk before the last."""
        header, time_idx, target_idx = LAYOUTS[layout]
        lines = layout_lines(layout, n_chunks * CHUNK_ROWS + 10, rng)
        fields = {"time": time_idx, "target": target_idx,
                  "other": next((i for i in range(header.count(",") + 1)
                                 if i not in (time_idx, target_idx)), None)}
        for chunk in {1, n_chunks - 2}:
            at = rng.choice(CHUNK_ROWS, len(mutations), replace=False)
            for i, (what, edit) in zip(at + chunk * CHUNK_ROWS, mutations):
                if what == "line":
                    lines[i] = edit(",".join(lines[i]).encode() + b"\r\n")
                elif fields[what] is not None:
                    lines[i][fields[what]] = edit(lines[i][fields[what]])
        lines = [",".join(c).encode("utf-8") + b"\r\n"
                 if isinstance(c, list) else c for c in lines]
        return write_lines(tmp_path / f"{layout}.csv", header, lines)

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_each_mutation_matches_csv_reference(self, tmp_path, layout):
        # One mutation per file, in chunks that are plain but for it.
        rng = np.random.default_rng(0)
        for mutation in self.MUTATIONS:
            path = self.mutated_file(tmp_path, layout, rng, [mutation], 3)
            assert_loads_as_reference(
                path, allow_missing_target=LAYOUTS[layout][2] is None)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_mutated_rows_match_csv_reference(self, tmp_path, layout, seed):
        # Every mutation in chunks 1 and 4 (from 0), and a quoted field
        # whose line break is the edge of chunks 4 and 5.
        rng = np.random.default_rng(seed)
        path = self.mutated_file(tmp_path, layout, rng, self.MUTATIONS, 6)
        text = path.read_bytes().split(b"\r\n")
        header, time_idx, target_idx = LAYOUTS[layout]
        edge = 5 * CHUNK_ROWS  # the last line of chunk 4, after the header
        quoted = target_idx if target_idx is not None else time_idx
        cells = text[edge].split(b",")
        cells[quoted] = b'"' + cells[quoted]
        text[edge] = b",".join(cells)
        text[edge + 1] += b'"'
        path.write_bytes(b"\r\n".join(text))
        frame = assert_loads_as_reference(
            path, allow_missing_target=target_idx is None)
        assert len(frame.rejected_rows) > 10

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_order_error_matches_csv_reference(self, tmp_path, layout):
        # A duplicate after the rejected rows names the same CSV row.
        rng = np.random.default_rng(3)
        header, time_idx, _ = LAYOUTS[layout]
        lines = layout_lines(layout, 3 * CHUNK_ROWS, rng)
        for i in (5, CHUNK_ROWS + 5):
            lines[i] = b"\r\n"
        lines[2 * CHUNK_ROWS][time_idx] = lines[2 * CHUNK_ROWS - 1][time_idx]
        path = write_lines(tmp_path / "dup.csv", header, lines)
        with pytest.raises(DataError) as info:
            load_csv(path, allow_missing_target=True)
        assert str(info.value) == \
            f"{path}: duplicate timestamp at row {2 * CHUNK_ROWS}"

    @pytest.mark.parametrize("ending", [b"\r\n", b"\n"])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_plain_chunks_skip_parse_rows(self, tmp_path, monkeypatch,
                                          layout, ending):
        rng = np.random.default_rng(5)
        header, time_idx, _ = LAYOUTS[layout]
        lines = layout_lines(layout, 2 * CHUNK_ROWS + 7, rng)
        for cells in lines[::3]:
            cells[time_idx] = cells[time_idx].replace(" ", "T")
        lines = [",".join(c).encode() + ending for c in lines]
        path = write_lines(tmp_path / "plain.csv", header, lines)
        stamps, values, _ = csv_reference(path, True)

        def refuse(*args):
            raise AssertionError("a plain chunk went row by row")

        monkeypatch.setattr(dataset, "_parse_rows", refuse)
        frame = load_csv(path, allow_missing_target=True)
        assert frame.rejected_rows == ()
        assert np.array_equal(frame.timestamps, stamps)
        assert np.array_equal(frame.target.view(np.int64),
                              values.view(np.int64))

    @pytest.mark.parametrize("line, data", [
        (1, b"datetime,Global_active_power\xff\n2023-01-01 00:00:00,1\n"),
        (3, b"datetime,Global_active_power,note\n"
            b"2023-01-01 00:00:00,1,a\n2023-01-01 01:00:00,1,\xe9\n"),
        # After a quote, the rest of the file goes through csv.reader.
        (2 * CHUNK_ROWS + 3, b"datetime,Global_active_power\n"
         + b'2023-01-01 00:00:00,"1"\n' + b"bad\n" * (2 * CHUNK_ROWS)
         + b"\xe9\n"),
        # A quoted header sends the whole file there.
        (4, b'"datetime",Global_active_power\n' + b"x\n" * 2
         + b"\x80\n"),
        # Lines are numbered as text lines, which a lone "\r" also ends.
        (7, b"datetime,Global_active_power\r" + b"x\r" * 4 + b"y\n"
         + b"\xe9\n"),
    ], ids=["header", "ignored-column", "after-quote", "quoted-header",
            "lone-cr-header"])
    def test_non_utf8_byte_is_data_error_naming_its_line(self, tmp_path,
                                                         line, data):
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: line {line} is not UTF-8 text"

    @pytest.mark.parametrize("fault", [b"\xe9", b"y" * 200_000],
                             ids=["non-utf8", "overlong-field"])
    @pytest.mark.parametrize("ends", [b"\r", b"\r\n"], ids=["cr", "crlf"])
    def test_lines_after_lone_crs_are_numbered_as_text_lines(
            self, tmp_path, fault, ends):
        # Every other line of the first chunk ends in a lone "\r" (or in
        # "\r\n"), so it goes through csv.reader; either check names
        # the line of the next chunk that it refuses as a file opened with
        # newline="" numbers it.
        lines = [f"{ts},1.5".encode() + (ends if i % 2 else b"\n")
                 for i, ts in enumerate(hourly(3 * CHUNK_ROWS))]
        at = 2 * CHUNK_ROWS + 40
        lines[at] = lines[at][:-1] + b"," + fault + b"\n"
        path = tmp_path / "cr.csv"
        path.write_bytes(b"datetime,Global_active_power\n" + b"".join(lines))
        with open(path, newline="", encoding="latin-1") as fh:
            line = next(i for i, text in enumerate(fh, 1)
                        if text.endswith(fault.decode("latin-1") + "\n"))
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value).startswith(f"{path}: line {line}")

    # Timestamps of the form a plain chunk reads that `datetime` cannot
    # hold. Handed to numpy's cast in a chunk of more than 500 rows, such
    # a field crashed the process (numpy 2.4) instead of raising.
    IMPOSSIBLE_STAMPS = [
        "2023-02-29 03:00:00", "1900-02-29 03:00:00", "2023-04-31 03:00:00",
        "2023-03-00 03:00:00", "2023-00-10 03:00:00", "2023-13-01 03:00:00",
        "2023-19-01 03:00:00", "2023-03-10 24:00:00", "2023-03-10 29:00:00",
        "2023-03-10 03:60:00", "2023-03-10 03:00:60",
    ]

    def test_impossible_dates_are_rejected_rows(self, tmp_path):
        paths = []
        for k, stamp in enumerate(self.IMPOSSIBLE_STAMPS):
            lines = [[ts, f"{i}.5"] for i, ts in enumerate(hourly(1000))]
            lines[600][0] = stamp
            paths.append(str(write_lines(tmp_path / f"{k}.csv",
                                         "datetime,Global_active_power",
                                         lines)))
        # In a child process, so that a crash fails this test alone.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(cyclecast.__file__).parent.parent),
             os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", CHECK_AS_REFERENCE,
             str(Path(__file__).parent), *paths],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == \
            ["((600, 'unparseable timestamp'),)"] * len(paths)

    @pytest.mark.parametrize("start", [
        "2024-02-20T00", "2000-02-20T00", "0001-01-01T00", "9999-12-01T00",
        "2023-12-25T00"])
    def test_real_dates_skip_parse_rows(self, tmp_path, monkeypatch, start):
        # Leap days, century years, the first and last years datetime
        # holds, up to its last hour, and a year's end all stay on the
        # columnar path.
        n = 31 * 24 if start.startswith("9999") else 2 * CHUNK_ROWS
        lines = [[ts, f"{i}.5"] for i, ts in enumerate(hourly(n, start))]
        path = write_lines(tmp_path / "dates.csv",
                           "datetime,Global_active_power", lines)
        stamps, values, _ = csv_reference(path)

        def refuse(*args):
            raise AssertionError("a plain chunk went row by row")

        monkeypatch.setattr(dataset, "_parse_rows", refuse)
        frame = load_csv(path)
        assert np.array_equal(frame.timestamps, stamps)
        assert np.array_equal(frame.target, values)

    @pytest.mark.parametrize("header", [
        b'"datetime","Global_active_power"\r\n',
        b"datetime,Global_active_power\rjunk\r\n",
        b"\xef\xbb\xbfdatetime,Global_active_power\n",
    ], ids=["quoted", "lone-cr", "byte-order-mark"])
    def test_header_forms_match_csv_reference(self, tmp_path, header):
        body = "".join(f"{ts},{i}.5\r\n"
                       for i, ts in enumerate(hourly(CHUNK_ROWS + 3)))
        path = tmp_path / "header.csv"
        path.write_bytes(header + body.encode())
        assert_loads_as_reference(path)


def reference_csv(tmp_path, header, stamps, columns):
    """The bytes csv.writer writes for isoformat stamps and repr values."""
    path = tmp_path / "reference.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for ts, *values in zip(stamps.tolist(), *columns):
            writer.writerow([ts.isoformat(sep=" ")]
                            + [repr(float(v)) for v in values])
    return path.read_bytes()


class TestWriteCsv:
    def test_matches_csv_writer_reference(self, tmp_path):
        rng = np.random.default_rng(6)
        n = 2 * CHUNK_ROWS + 300
        hours = np.datetime64("2023-01-01", "us") + \
            np.arange(n) * np.timedelta64(1, "h")
        # Sub-second stamps in the first and last chunk only, so one chunk
        # prints whole seconds throughout.
        micros = np.zeros(n, dtype=np.int64)
        some = slice(0, CHUNK_ROWS, 7)
        micros[some] = rng.integers(1, 10**6, micros[some].size)
        micros[-1] = 999_999
        stamps = np.concatenate([
            np.array(["0001-01-01T00:00:00.000001",
                      "1969-12-31T23:59:59.999999",
                      "1970-01-01T00:00:00"], dtype="datetime64[us]"),
            hours + micros.astype("timedelta64[us]"),
            np.array(["9999-12-31T23:59:59.999999"], dtype="datetime64[us]"),
        ])
        extremes = [0.0, -0.0, 1e-6, 1e-5, 1e16, 1e17, 1e20, 1e22, 5e-324,
                    -2.2250738585072014e-308, 1.7976931348623157e308, 0.1,
                    1 / 3, 123456789012345678.0, math.inf, -math.inf,
                    math.nan]
        values = rng.normal(size=(2, stamps.size)) * \
            10.0 ** rng.integers(-320, 308, (2, stamps.size))
        values[0, :len(extremes)] = extremes
        values[1, -len(extremes):] = extremes
        path = tmp_path / "out.csv"
        write_series_csv(path, ["datetime", "a", "b,c"], stamps, values)
        assert path.read_bytes() == reference_csv(
            tmp_path, ["datetime", "a", "b,c"], stamps, values)

    def test_frame_matches_csv_writer_reference(self, tmp_path):
        frame = generate_synthetic(SyntheticConfig(n_hours=CHUNK_ROWS + 9))
        path = tmp_path / "frame.csv"
        write_csv(frame, path)
        assert path.read_bytes() == reference_csv(
            tmp_path, ["datetime", "Global_active_power"], frame.timestamps,
            [frame.target])


def kernel_texts(values):
    """What write_series_csv writes for each value, chunk by chunk."""
    texts = []
    for start in range(0, len(values), WRITE_ROWS):
        cells = dataset._float_cells(values[start:start + WRITE_ROWS])
        texts += [bytes(c).replace(b"\0", b"").decode() for c in cells.T]
    return texts


def assert_texts_are_repr(values):
    values = np.asarray(values, dtype=np.float64)
    want = [repr(v) for v in values.tolist()]
    got = kernel_texts(values)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, f"{len(bad)} differ, first (repr, kernel): {bad[0]}"


def neighbours(values):
    """Each value and the doubles on either side of it."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, 0),
                           np.nextafter(values, np.inf)])


class TestFloatKernel:
    """`_float_cells`, which writes every value of write_series_csv:
    repr's shortest digits by exact integer steps in [1e-4, 1e16), repr
    itself elsewhere."""

    def test_random_in_domain_bits_match_repr(self):
        rng = np.random.default_rng(34)
        low, high = np.array([1e-4, 1e16]).view(np.int64)
        values = rng.integers(low, high, 200_000).view(np.float64)
        values[rng.random(values.size) < 0.3] *= -1
        assert_texts_are_repr(values)

    @pytest.mark.parametrize("values", [
        # Halfway between two 16-digit candidates: the even one wins.
        [8.0000152587890625, 0.30000000000000004, 2.0000000000000004],
        # The interval is narrower below a power of two.
        neighbours(2.0 ** np.arange(-13, 54)),
        [1e-4, 9.999999999999999e-05, 9999999999999998.0, 1e16,
         1.0000000000000002e16, 5e-324, 2.2250738585072014e-308,
         1.7976931348623157e308],
        # Powers of ten and their neighbours, and runs of nines whose
        # shortest form may round up to the next decade.
        neighbours([float(f"1e{e}") for e in range(-5, 18)]),
        [float("9" * d + f"e{e}") for d in range(14, 19)
         for e in range(-22, 3)],
        [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf],
        # Short decimals: one digit, whole numbers with trailing zeros.
        [0.1, 0.5, 1.0, 2.5, 100.0, 1230000.0, 123456789012345.0,
         1e15 + 0.5, 0.0001234, 0.00999],
    ], ids=["ties", "powers-of-two", "domain-edges", "decades", "nines",
            "zeros-nan-inf", "short"])
    def test_hard_cases_match_repr(self, values):
        values = np.asarray(values, dtype=np.float64)
        assert_texts_are_repr(np.concatenate([values, -values]))

    def test_all_in_domain_chunk_skips_repr(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        n = 2 * WRITE_ROWS + 3
        stamps = np.datetime64("2023-01-01", "us") + \
            np.arange(n) * np.timedelta64(1, "h")
        values = 10.0 ** rng.uniform(-4, 15.9, (2, n))  # in [1e-4, 1e16)
        values[0, ::5] *= -1

        def refuse(values):
            raise AssertionError("an in-domain chunk went through repr")

        monkeypatch.setattr(dataset, "_repr_floats", refuse)
        path = tmp_path / "out.csv"
        write_series_csv(path, ["datetime", "a", "b"], stamps, values)
        assert path.read_bytes() == reference_csv(
            tmp_path, ["datetime", "a", "b"], stamps, values)

    def test_stamps_match_isoformat(self, tmp_path):
        days = ["0001-01-01", "0001-03-01", "0004-02-29", "0100-03-01",
                "1600-02-29", "1900-02-28", "1900-03-01", "1969-12-31",
                "1970-01-01", "2000-02-29", "2023-12-31", "2024-02-29",
                "2100-03-01", "9999-12-31"]
        clocks = ["T00:00:00", "T23:59:59", "T12:34:56.000001",
                  "T23:59:59.999999", "T00:00:00.5"]
        stamps = np.array([d + c for d in days for c in clocks],
                          dtype="datetime64[us]")
        values = np.arange(len(stamps), dtype=np.float64)[None] + 0.25
        path = tmp_path / "out.csv"
        write_series_csv(path, ["datetime", "v"], stamps, values)
        assert path.read_bytes() == reference_csv(
            tmp_path, ["datetime", "v"], stamps, values)

    def test_whole_second_chunk_beside_fractional_ones(self, tmp_path):
        # Microseconds in the first and last chunk only.
        n = 3 * WRITE_ROWS
        stamps = np.datetime64("1999-12-31T20", "us") + \
            np.arange(n) * np.timedelta64(1, "h")
        stamps[[5, -1]] += np.timedelta64(7, "us")
        values = np.linspace(-3, 3, n)[None]
        path = tmp_path / "out.csv"
        write_series_csv(path, ["datetime", "v"], stamps, values)
        assert path.read_bytes() == reference_csv(
            tmp_path, ["datetime", "v"], stamps, values)

    def test_stamps_beyond_datetime_print_as_numpy(self, tmp_path):
        # datetime holds years 1-9999 only; later ones keep numpy's form.
        stamps = np.array(["9999-12-31T23:59:59", "10000-01-01T00:00:00",
                           "12345-06-07T08:09:10.5"], dtype="datetime64[us]")
        path = tmp_path / "out.csv"
        write_series_csv(path, ["datetime", "v"], stamps, [[1.0, 2.0, 3.0]])
        assert path.read_bytes() == (
            b"datetime,v\r\n9999-12-31 23:59:59,1.0\r\n"
            b"10000-01-01 00:00:00,2.0\r\n"
            b"12345-06-07 08:09:10.500000,3.0\r\n")



def read_fields(texts, prefix=b"2023-01-01 00:00:00,"):
    """`_read_decimals` over byte fields, one per line after `prefix`,
    so that the bytes before each are those of a real line."""
    widths = np.array([len(t) for t in texts])
    lines = len(prefix) + widths + 2
    start = np.cumsum(lines) - lines + len(prefix)
    data = b"".join(prefix + t + b"\r\n" for t in texts)
    return dataset._read_decimals(np.frombuffer(data, np.uint8), start,
                                  widths)


def decimal_ties(rng, n):
    """n decimals that lie halfway between two doubles: odd integers
    times half the gap of their binade, from 2**53 to 2**59, and odd
    integers in [2**53, 2**54) over 2 and 4 (17 and 18 digits)."""
    texts = []
    for _ in range(n // 2):
        j = int(rng.integers(0, 6))
        m = int(rng.integers(2**52, 2**53)) << j
        texts.append(str(2 * m + (1 << j)))
    for _ in range(n - n // 2):
        m = int(rng.integers(2**52, 2**53)) * 2 + 1
        i = int(rng.integers(1, 3))
        texts.append(str(Decimal(m) / Decimal(2**i)))
    return texts


def near_halfway(rng, n):
    """n decimals of 17 or 18 significant digits next to the midpoint
    of two neighbouring doubles."""
    values = 10.0 ** rng.uniform(-3, 15, n)
    texts = []
    for v in values.tolist():
        mid = (Decimal(v) + Decimal(math.nextafter(v, math.inf))) / 2
        digits = int(rng.integers(17, 19))
        exponent = mid.adjusted() - digits + 1
        q = mid.scaleb(-exponent).to_integral_value()
        q += int(rng.integers(-1, 2))
        texts.append(f"{Decimal(q).scaleb(exponent):f}")
    return texts


def decimal_fields(rng, n):
    """n seeded target fields: repr of doubles drawn as bits across
    [1e-4, 1e16), where repr has no exponent; decimals of 1 to 18 digits,
    a point anywhere or nowhere, some with leading zeros; ties; decimals
    next to a midpoint; and hourly-load-like values. A third are
    negative, and zeros of every sign and form are among them."""
    k = n // 5
    low, high = np.array([1e-4, 1e16]).view(np.int64)
    texts = [repr(v) for v in
             rng.integers(low, high, k).view(np.float64).tolist()]
    for _ in range(k):
        digits = "".join(map(str, rng.integers(0, 10, rng.integers(1, 19))))
        point = int(rng.integers(0, len(digits) + 1))
        texts.append(digits if point == 0 else
                     digits[:point] + "." + digits[point:])
    texts += decimal_ties(rng, k // 2) + near_halfway(rng, k // 2)
    texts += [repr(v) for v in rng.normal(2.0, 1.0, n - len(texts) - 8)
              .tolist()]
    texts = ["-" + t if r < 1 / 3 and t[0] != "-" else t
             for t, r in zip(texts, rng.random(len(texts)))]
    texts += ["0", "-0", "0.0", "-0.0", "-0.000", "000", "0.", "-0."]
    return [t.encode() for t in rng.permutation(texts)]


class TestDecimalReader:
    """`_read_decimals`, which reads the target fields of plain chunks:
    every field it settles reads as float() reads it, and any other goes
    through numpy's cast as before."""

    def test_seeded_fields_read_as_float(self):
        rng = np.random.default_rng(37)
        texts = decimal_fields(rng, 200_000)
        want = np.array([float(t) for t in texts])
        values, settled = read_fields(texts)
        wrong = np.flatnonzero(settled & (values.view(np.int64)
                                          != want.view(np.int64)))
        assert not wrong.size, [texts[i] for i in wrong[:5]]
        # None of these needs the cast.
        assert settled.all()
        ties = read_fields([b"9007199254740993", b"9007199254740995",
                            b"18014398509481985", b"4503599627370496.5",
                            b"-4503599627370497.5"])
        assert ties[1].all()
        assert ties[0].tolist() == [9007199254740992.0, 9007199254740996.0,
                                    18014398509481984.0, 4503599627370496.0,
                                    -4503599627370498.0]

    def test_first_field_of_the_buffer(self):
        values, settled = read_fields([b"1.5", b"-0.25", b"7"], prefix=b"")
        assert settled.all()
        assert values.tolist() == [1.5, -0.25, 7.0]

    def test_zeros_keep_their_sign(self):
        values, settled = read_fields([b"0", b"-0", b"0.000", b"-0.0"])
        assert settled.all()
        assert np.signbit(values).tolist() == [False, True, False, True]

    @pytest.mark.parametrize("text", [
        b"1e5", b"+1.5", b".5", b"-.5", b"1E5", b"1" * 25, b"0" * 25,
        b"1.5e-3", b"00000000000000000000001.5", b"1234567890123456789",
        b"0.0000000000000000000000001"])
    def test_other_forms_go_to_the_cast(self, text):
        values, settled = read_fields([text, b"2.5"])
        assert settled.tolist() == [False, True]

    @pytest.mark.parametrize("text", [
        b"1.2.3", b"1..2", b"-", b"--1", b"1-2", b"1.2.3.4.5.6.7.8.9.0.1",
        b"." * 24, b"1" + b"." * 23, b"9.9.9.9.9.9.9.9.9.9.9.9",
        b"e", b"+", b"1e", b" 1", b"1 ", b"1_0", b"inf", b"nan"])
    def test_malformed_fields_never_settle(self, text):
        values, settled = read_fields([text, b"2.5"])
        assert settled.tolist() == [False, True]

    def test_every_form_loads_as_float(self, tmp_path, monkeypatch):
        # Fields the reader settles and fields it leaves to the cast, in
        # chunks that stay columnar, load as float() reads them.
        rng = np.random.default_rng(38)
        texts = decimal_fields(rng, 3 * CHUNK_ROWS)
        forms = [b"1e5", b"+1.5", b".5", b"5.", b"1" * 25, b"1.5E-3"]
        texts[::97] = (forms * 6)[:len(texts[::97])]
        stamps = hourly(len(texts))
        path = tmp_path / "forms.csv"
        path.write_bytes(b"datetime,Global_active_power\r\n" + b"".join(
            f"{ts},".encode() + t + b"\r\n" for ts, t in zip(stamps, texts)))

        def refuse(*args):
            raise AssertionError("a plain chunk went row by row")

        monkeypatch.setattr(dataset, "_parse_rows", refuse)
        frame = load_csv(path)
        want = np.array([float(t) for t in texts])
        assert np.array_equal(frame.target.view(np.int64),
                              want.view(np.int64))

class TestGenerateSynthetic:
    def test_all_components_zero_gives_constant(self):
        cfg = SyntheticConfig(n_hours=48, daily_amplitude=0.0,
                              weekly_amplitude=0.0, trend_slope=0.0,
                              noise_std=0.0)
        frame = generate_synthetic(cfg)
        assert np.ptp(frame.target) == 0.0

    def test_quarter_period_difference(self):
        # hour 6 minus hour 18 on the same day: sin(pi/2) - sin(3pi/2) = 2.
        cfg = SyntheticConfig(n_hours=24, daily_amplitude=1.0,
                              weekly_amplitude=0.0, trend_slope=0.0,
                              noise_std=0.0)
        frame = generate_synthetic(cfg)
        assert frame.target[6] - frame.target[18] == pytest.approx(2.0, abs=1e-12)

    def test_same_seed_bit_identical(self):
        a = generate_synthetic(SyntheticConfig(n_hours=200, seed=7))
        b = generate_synthetic(SyntheticConfig(n_hours=200, seed=7))
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.target, b.target)

    def test_target_digest_pinned(self):
        # The target's bytes, pinned so a change to the generator that
        # moves them shows here.
        frame = generate_synthetic(SyntheticConfig(n_hours=500, seed=7))
        assert hashlib.sha256(frame.target.tobytes()).hexdigest() == (
            "aac5ec5467f81124248dbef99431e4a64e32fa348b7411e92a14232d11fcf020")

    def test_different_seed_differs(self):
        a = generate_synthetic(SyntheticConfig(n_hours=50, seed=1))
        b = generate_synthetic(SyntheticConfig(n_hours=50, seed=2))
        assert not np.array_equal(a.target, b.target)

    def test_schema_fully_populated(self):
        frame = generate_synthetic(SyntheticConfig(n_hours=24))
        assert [f.name for f in fields(frame)] == [
            "timestamps", "target", "rejected_rows"]
        assert frame.target.shape == (24,)
        assert np.isfinite(frame.target).all()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(n_hours=0)
        with pytest.raises(ConfigError):
            SyntheticConfig(noise_std=-1.0)
        for name in ("daily_amplitude", "weekly_amplitude", "trend_slope",
                     "noise_std"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ConfigError, match=name):
                    SyntheticConfig(**{name: bad})
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            SyntheticConfig(seed=-1)


class TestTemporalSplit:
    """The hold-out split of a frame's rows, drawn by `train_rows`."""

    def test_eighty_twenty(self):
        assert train_rows(10, 0.2) == 8
        assert train_rows(50, 0.37) == 32

    def test_boundary_keeps_one_train_row(self):
        # ceil(0.001 * 10) = 1: the split is legal with a single train row.
        assert train_rows(10, 0.999) == 1

    def test_empty_test_rejected(self):
        with pytest.raises(ConfigError):
            train_rows(10, 0.0001)

    def test_fraction_bounds(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                train_rows(10, bad)

    def test_too_short(self):
        with pytest.raises(DataError):
            train_rows(1, 0.5)


def stamps(*texts):
    return np.array(texts, dtype="datetime64[us]")


class TestFrameInvariants:
    def test_column_length_mismatch(self):
        with pytest.raises(DataError, match="target has 2 rows, expected 1"):
            TimeSeriesFrame(
                timestamps=stamps("2023-01-01"),
                target=np.array([1.0, 2.0]),
            )

    def test_order_checked_without_csv(self):
        with pytest.raises(DataError,
                           match="^non-monotonic timestamp at row 2$"):
            TimeSeriesFrame(
                timestamps=stamps("2023-01-01T00", "2023-01-01T02",
                                  "2023-01-01T01"),
                target=np.zeros(3),
            )

    def test_columns_read_only(self):
        frame = generate_synthetic(SyntheticConfig(n_hours=10))
        with pytest.raises(ValueError):
            frame.target[0] = 99.0
