"""On-disk format tests.

Oracles: byte comparison of write -> read -> write, behavioral equality of
reloaded models, handcrafted malformed documents with known offending
line and field positions, the whole-file dataset reader that the block
reader replaced (``oracle_read_dataset``) and the whole-body feature-table
reader that the streamed row walk replaced (``oracle_read_features``),
both built on the whole-body parser (``oracle_parse_body``) and each of
which must give the same bits or the same error on every document of a
corpus, and the row template the float kernel replaced
(``template_render_rows``), whose text every rendered block must match
byte for byte.
"""

import decimal
import io
import json
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from spokesense import _decimals, formats, synth
from spokesense.eigen import EigenSignature
from spokesense.errors import (
    FormatError,
    UnsupportedVersionError,
    ValidationError,
)
from spokesense.formats import (
    FeatureTable,
    format_float,
    read_dataset,
    read_features,
    read_model,
    read_profile,
    write_confusion,
    write_dataset,
    write_distance_report,
    write_eigen_report,
    write_features,
    write_model,
    write_predictions,
    write_profile,
    write_spectrum,
)
from spokesense.signals import Spectrum, TimeSeries
from spokesense.similarity import DistanceReport
from spokesense.svm import ConfusionMatrix, fit_svm_model, predict_batch
from spokesense.synth import builtin_profile, builtin_profiles


def random_series(rng: np.random.RandomState, n: int = 40, label="gravel") -> TimeSeries:
    # exponents spanning the double range stress the decimal rendering
    channels = rng.randn(3, n) * np.power(10.0, rng.uniform(-12, 9, size=(3, n)))
    return TimeSeries(sample_rate_hz=1440.0, channels=channels, label=label)


def roundtrip_bytes(write, read, path_a, path_b):
    """write -> read -> write again; the two files must match byte for byte."""
    loaded = read(path_a)
    write(path_b, loaded)
    assert path_a.read_bytes() == path_b.read_bytes()
    return loaded


# ---------------------------------------------------------------- dataset


def test_dataset_round_trip_byte_identical(tmp_path):
    rng = np.random.RandomState(70)
    for label in ("gravel", None):
        series = random_series(rng, label=label)
        a = tmp_path / f"a_{label}.csv"
        b = tmp_path / f"b_{label}.csv"
        write_dataset(a, series)
        loaded = roundtrip_bytes(write_dataset, read_dataset, a, b)
        assert np.array_equal(loaded.channels, series.channels)
        assert loaded.sample_rate_hz == series.sample_rate_hz
        assert loaded.label == series.label


def test_dataset_leading_lines(tmp_path):
    series = random_series(np.random.RandomState(71), n=5)
    path = tmp_path / "d.csv"
    write_dataset(path, series)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# sample_rate_hz={format_float(1440.0)}"
    assert lines[1] == "# format=spokesense-dataset v2"
    assert lines[2] == "# label=gravel"
    assert lines[3] == "ch1,ch2,ch3"
    assert len(lines[4].split(",")) == 3


def test_dataset_without_format_line_reads_as_v1(tmp_path):
    path = tmp_path / "legacy.csv"
    path.write_text(
        "# sample_rate_hz=720\nt,ch1,ch2,ch3\n0,0.5,1.5,-2.5\n0.001,1,2,3\n"
    )
    series = read_dataset(path)
    assert series.sample_rate_hz == 720.0
    assert series.label is None
    assert series.channels.tolist() == [[0.5, 1.0], [1.5, 2.0], [-2.5, 3.0]]


def test_dataset_future_version_rejected(tmp_path):
    path = tmp_path / "future.csv"
    for tag in ("v3", "v99", "v" + "9" * 5000):
        path.write_text(
            f"# sample_rate_hz=720\n# format=spokesense-dataset {tag}\n"
            "ch1,ch2,ch3\n1,2,3\n1,2,3\n"
        )
        with pytest.raises(UnsupportedVersionError, match="newer than supported version 2"):
            read_dataset(path)


def test_csv_version_leading_zeros_name_the_version(tmp_path):
    # decided without int() on the digits, which raises a bare ValueError
    # past 4,300 of them
    path = tmp_path / "zeros.csv"
    path.write_text(f"# spokesense-features v{'0' * 5000}1\na,b\n1,2\n")
    assert read_features(path).values.tolist() == [[1.0, 2.0]]
    for version, header in (("1", "t,ch1,ch2,ch3\n0,"), ("2", "ch1,ch2,ch3\n")):
        path.write_text(
            f"# sample_rate_hz=720\n# format=spokesense-dataset v{'0' * 5000}{version}\n"
            f"{header}1,2,3\n"
        )
        assert read_dataset(path).channels.tolist() == [[1.0], [2.0], [3.0]]


def test_csv_versions_below_1_rejected(tmp_path):
    # the version is an integer >= 1 in ASCII digits, in a banner and in a
    # format metadata line; an Arabic-Indic and a fullwidth one once read as 1
    path = tmp_path / "bad.csv"
    for tag in ("v0", "v-3", "v\u0661", "v\uff11", "v" + "0" * 5000):
        path.write_text(f"# spokesense-features v{tag[1:]}\na,b\n1,2\n")
        with pytest.raises(FormatError, match="bad version in banner") as info:
            read_features(path)
        assert info.value.line == 1
        path.write_text(
            f"# sample_rate_hz=720\n# format=spokesense-dataset {tag}\nt,ch1,ch2,ch3\n0,1,2,3\n"
        )
        with pytest.raises(FormatError, match="bad version in format metadata") as info:
            read_dataset(path)
        assert info.value.field == "format"


def test_dataset_nan_cell_names_row_and_column(tmp_path):
    path = tmp_path / "nan.csv"
    for table in (
        "v1\nt,ch1,ch2,ch3\n0,1,2,3\n0.001,1,nan,3\n",
        "v2\nch1,ch2,ch3\n1,2,3\n1,nan,3\n",
    ):
        path.write_text(f"# sample_rate_hz=720\n# format=spokesense-dataset {table}")
        with pytest.raises(FormatError) as info:
            read_dataset(path)
        assert info.value.line == 5
        assert info.value.field == "ch2"


def test_dataset_bad_time_cell_names_row_and_column(tmp_path):
    path = tmp_path / "bad_t.csv"
    path.write_text(
        "# sample_rate_hz=720\nt,ch1,ch2,ch3\n0,1,2,3\nsoon,1,2,3\n"
    )
    with pytest.raises(FormatError) as info:
        read_dataset(path)
    assert info.value.line == 4
    assert info.value.field == "t"


def test_dataset_rows_of_compensating_widths_rejected(tmp_path):
    # one row a cell too wide and a later one a cell short: the cell total
    # is right, but the rows are not
    path = tmp_path / "shifted.csv"
    path.write_text("# sample_rate_hz=720\nt,ch1,ch2,ch3\n0,1,2,3,4\n0.001,1,2\n")
    with pytest.raises(FormatError, match="expected 4 fields, got 5") as info:
        read_dataset(path)
    assert info.value.line == 3


def test_dataset_tiny_rate_round_trips(tmp_path):
    # v1 wrote a time column, whose k / 5e-324 overflowed; v2 has none
    series = TimeSeries(sample_rate_hz=5e-324, channels=np.arange(6.0).reshape(3, 2))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(a, series)
    loaded = roundtrip_bytes(write_dataset, read_dataset, a, b)
    assert loaded.sample_rate_hz == 5e-324
    assert np.array_equal(loaded.channels, series.channels)


def test_dataset_malformed_documents(tmp_path):
    cases = {
        "no_rate.csv": (
            "# format=spokesense-dataset v1\nt,ch1,ch2,ch3\n0,1,2,3\n",
            "missing '# sample_rate_hz='",
        ),
        "bad_header.csv": ("# sample_rate_hz=720\nt,a,b,c\n0,1,2,3\n", "expected header"),
        "short_row.csv": ("# sample_rate_hz=720\nt,ch1,ch2,ch3\n0,1,2\n", "expected 4 fields"),
        "no_rows.csv": ("# sample_rate_hz=720\nt,ch1,ch2,ch3\n", "no samples"),
        "bad_meta.csv": (
            "# sample_rate_hz=720\n# loose comment\nt,ch1,ch2,ch3\n0,1,2,3\n",
            "bad metadata comment",
        ),
        "empty.csv": ("", "missing header row"),
        "wrong_name.csv": (
            "# sample_rate_hz=720\n# format=spokesense-model v1\nt,ch1,ch2,ch3\n0,1,2,3\n",
            "expected a spokesense-dataset document",
        ),
        "no_version.csv": (
            "# sample_rate_hz=720\n# format=spokesense-dataset\nt,ch1,ch2,ch3\n0,1,2,3\n",
            "bad format metadata",
        ),
        "zero_rate.csv": (
            "# sample_rate_hz=0\nt,ch1,ch2,ch3\n0,1,2,3\n",
            "invalid dataset: sample rate must be finite and > 0",
        ),
        "repeated_rate.csv": (
            "# sample_rate_hz=720\n# sample_rate_hz=1440\nt,ch1,ch2,ch3\n0,1,2,3\n",
            "repeated metadata line '# sample_rate_hz=1440'",
        ),
        "repeated_label.csv": (
            "# sample_rate_hz=720\n# format=spokesense-dataset v2\n# label=a\n# label=a\n"
            "ch1,ch2,ch3\n1,2,3\n",
            "repeated metadata line '# label=a'",
        ),
    }
    for name, (text, message) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(FormatError, match=message):
            read_dataset(path)


def test_dataset_header_must_match_version(tmp_path):
    # v1 leads with t, v2 does not; the error names the header line
    path = tmp_path / "header.csv"
    cases = [
        ("# sample_rate_hz=720\n# format=spokesense-dataset v2\n", "t,ch1,ch2,ch3", "1,2,3"),
        ("# sample_rate_hz=720\n# format=spokesense-dataset v1\n", "ch1,ch2,ch3", "0,1,2,3"),
        ("# sample_rate_hz=720\n", "ch1,ch2,ch3", "0,1,2,3"),
    ]
    for head, header, row in cases:
        path.write_text(f"{head}{header}\n{row}\n")
        expected = "ch1,ch2,ch3" if "v2" in head else "t,ch1,ch2,ch3"
        message = f"expected header '{expected}', got '{header}'"
        with pytest.raises(FormatError, match=message) as info:
            read_dataset(path)
        assert info.value.line == head.count("\n") + 1


def test_dataset_read_missing_file(tmp_path):
    with pytest.raises(FormatError):
        read_dataset(tmp_path / "absent.csv")


def test_csv_readers_reject_non_utf8_bytes(tmp_path):
    path = tmp_path / "latin1.csv"
    for reader, head in (
        (read_dataset, b"# sample_rate_hz=720\nt,ch1,ch2,ch3\n0,1,2,3\n"),
        (read_features, b"# spokesense-features v1\na,label\n1,x\n"),
    ):
        path.write_bytes(head + b"0.001,1,2,\xff\n")
        with pytest.raises(FormatError, match="cannot read"):
            reader(path)


def oracle_parse_float(text, line, field):
    """The cell rule that oracle_parse_body was written against."""
    try:
        value = float(text)
    except ValueError as exc:
        raise FormatError(f"not a number: {text!r}", line=line, field=field) from exc
    if not np.isfinite(value):
        raise FormatError(f"non-finite value {text!r}", line=line, field=field)
    return value


def oracle_parse_body(lines, first_line, columns, width, empty):
    """The whole-body parser that the streamed row walk replaced: the body's
    ``lines`` (from line ``first_line`` on) joined and split into cells once,
    converted in one call and walked row by row only when faulty."""
    end = first_line + len(lines)
    numbers = range(first_line, end)
    text = ",\n".join(lines)
    if "" in lines or text.startswith("#") or "\n#" in text:
        for number, line in zip(numbers, lines):
            if line.startswith("#") and "=" not in line:
                raise FormatError(f"bad trailing comment {line!r}", line=number)
        numbers = [number for number, line in zip(numbers, lines) if line[:1] not in ("", "#")]
        text = ",\n".join(line for line in lines if line[:1] not in ("", "#"))
    lines.clear()
    if not numbers:
        raise FormatError(empty, line=end)
    cells = text.split(",")
    del text
    rows = len(numbers)
    block = None
    if len(cells) == rows * width and ",".join(cells[width::width]).count("\n") == rows - 1:
        grid = np.array(cells, dtype=object).reshape(rows, width)[:, : len(columns)]
        try:
            block = grid.astype(np.float64)
        except ValueError:
            pass
    if block is None or not np.isfinite(block).all():
        for number, row in zip(numbers, ",".join(cells).split(",\n")):
            row_cells = row.split(",")
            if len(row_cells) != width:
                raise FormatError(f"expected {width} fields, got {len(row_cells)}", line=number)
            for name, cell in zip(columns, row_cells):
                oracle_parse_float(cell, number, name)
    if len(columns) == width:
        return block, None
    labels = cells[width - 1 :: width]
    if "" in labels:
        raise FormatError("empty label", line=numbers[labels.index("")], field="label")
    return block, labels


def oracle_read_dataset(path):
    """read_dataset as it was before the streaming reader: the whole file
    read as text and split into lines, and the body parsed by
    oracle_parse_body."""
    try:
        lines = path.read_text(encoding="utf-8").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if lines[-1] == "":
        lines.pop()
    meta, pos = {}, 0
    while pos < len(lines) and lines[pos].startswith("#"):
        key, sep, value = lines[pos][1:].strip().partition("=")
        if not sep:
            raise FormatError(f"bad metadata comment {lines[pos]!r}", line=pos + 1)
        if key.strip() in meta:
            raise FormatError(f"repeated metadata line {lines[pos]!r}", line=pos + 1)
        meta[key.strip()] = value
        pos += 1
    version = formats.check_format_metadata(meta, formats.DATASET_FORMAT)
    if pos == len(lines):
        raise FormatError("missing header row", line=pos + 1)
    header, header_line = lines[pos].split(","), pos + 1
    if "sample_rate_hz" not in meta:
        raise FormatError("missing '# sample_rate_hz=' metadata", line=header_line)
    rate = oracle_parse_float(meta["sample_rate_hz"], 1, "sample_rate_hz")
    columns = ["t", "ch1", "ch2", "ch3"] if version == 1 else ["ch1", "ch2", "ch3"]
    if header != columns:
        raise FormatError(
            f"expected header {','.join(columns)!r}, got {','.join(header)!r}", line=header_line
        )
    body = lines[pos + 1 :]
    empty = "dataset has no samples"
    block, _ = oracle_parse_body(body, header_line + 1, header, len(header), empty)
    samples = np.ascontiguousarray(block[:, -3:].T)
    try:
        return TimeSeries(sample_rate_hz=rate, channels=samples, label=meta.get("label"))
    except ValidationError as exc:
        raise FormatError(f"invalid dataset: {exc}") from exc


def read_outcome(read, path):
    """What a reader gives for ``path``: the channels' bytes, layout and the
    record's fields, or the error's type, message, line and field."""
    try:
        series = read(path)
    except FormatError as exc:
        return type(exc), str(exc), exc.line, exc.field
    channels = series.channels
    return channels.shape, channels.flags.c_contiguous, channels.tobytes(), (
        series.sample_rate_hz, series.label
    )


V2_HEAD = "# sample_rate_hz=720\n# format=spokesense-dataset v2\n# label=sand\nch1,ch2,ch3\n"
V1_HEAD = "# sample_rate_hz=720\nt,ch1,ch2,ch3\n"


def v2_rows(n, start=0):
    return "".join(f"{k}.25,-{k}e-3,{k * 7 % 11}\n" for k in range(start, start + n))


def v1_rows(n):
    return "".join(f"{k / 720!r},{k}.25,-{k}e-3,{k * 7 % 11}\n" for k in range(n))


# (head, body) documents, encoded as UTF-8 unless the body is bytes.  LONG
# rows of v2_rows are over 150 KB, more than two of the reader's blocks, so
# a fault after them lies in a later block.
LONG = 2 * formats._ROWS + 100
READER_CORPUS = {
    "plain": (V2_HEAD, v2_rows(5)),
    "plain_blocks": (V2_HEAD, v2_rows(LONG)),
    "no_final_newline": (V2_HEAD, v2_rows(5).rstrip("\n")),
    "v1_t_column": (V1_HEAD, v1_rows(5)),
    "v1_t_column_blocks": (V1_HEAD, v1_rows(LONG)),
    "v1_bad_t": (V1_HEAD, v1_rows(3) + "soon,1,2,3\n"),
    "v1_nan_t": (V1_HEAD, v1_rows(3) + "nan,1,2,3\n"),
    "underscore": (V2_HEAD, v2_rows(3) + "1_0,2,3\n"),
    "underscore_late_block": (V2_HEAD, v2_rows(LONG - 1) + "1,2_5,3\n"),
    "underscore_exponent": (V2_HEAD, "1e1_0,2,3\n"),
    "bad_underscore": (V2_HEAD, "1__0,2,3\n"),
    "trailing_kv": (V2_HEAD, v2_rows(4) + "# rows=4\n# note=a,b\n"),
    "trailing_kv_blocks": (V2_HEAD, v2_rows(LONG) + "# rows=many\n"),
    "kv_between_rows": (V2_HEAD, v2_rows(2) + "# mid=1\n" + v2_rows(2)),
    "bad_trailing_comment": (V2_HEAD, v2_rows(2) + "# loose\n"),
    "blank_line": (V2_HEAD, v2_rows(2) + "\n" + v2_rows(2)),
    "blank_first": (V2_HEAD, "\n" + v2_rows(2)),
    "blank_last": (V2_HEAD, v2_rows(2) + "\n\n"),
    "blank_late_block": (V2_HEAD, v2_rows(LONG - 5) + "\n" + v2_rows(5)),
    "only_blank_lines": (V2_HEAD, "\n\n\n"),
    "space_line": (V2_HEAD, v2_rows(2) + " \n" + v2_rows(2)),
    "tab_line": (V2_HEAD, v2_rows(2) + "\t\n"),
    "padded_cells": (V2_HEAD, " 1 ,\t2\t,\x0b3\x0c\n"),
    "unicode_space_cells": (V2_HEAD, " 1,\xa02,3 \n"),
    "separator_space": (V2_HEAD, "\x1c1,2,3\n"),
    "separator_space_late": (V2_HEAD, v2_rows(LONG) + "1,2\x1f,3\n"),
    "arabic_digits": (V2_HEAD, "١٢,2,3\n"),
    "nan": (V2_HEAD, v2_rows(2) + "1,nan,3\n"),
    "inf": (V2_HEAD, v2_rows(2) + "1,2,-inf\n"),
    "overflow": (V2_HEAD, v2_rows(2) + "1e400,2,3\n"),
    "nan_late_block": (V2_HEAD, v2_rows(LONG - 1) + "1,2,NaN\n"),
    "underflow": (V2_HEAD, "1e-400,4.9e-324,-0\n"),
    "short_row": (V2_HEAD, v2_rows(2) + "1,2\n"),
    "long_row": (V2_HEAD, v2_rows(2) + "1,2,3,4\n"),
    "all_rows_long": (V2_HEAD, "1,2,3,4\n5,6,7,8\n"),
    "ragged": (V2_HEAD, "1,2,3,4\n1,2\n"),
    "empty_cell": (V2_HEAD, "1,,3\n"),
    "empty_row_cells": (V2_HEAD, ",,\n"),
    "quoted_cell": (V2_HEAD, '1,"2",3\n'),
    "quoted_comma": (V2_HEAD, '1,"2,5",3\n'),
    "crlf": (V2_HEAD.replace("\n", "\r\n"), v2_rows(5).replace("\n", "\r\n")),
    "crlf_body": (V2_HEAD, v2_rows(LONG).replace("\n", "\r\n")),
    "lone_cr": (V2_HEAD, v2_rows(3).replace("\n", "\r")),
    "cr_document": (V2_HEAD.replace("\n", "\r"), v2_rows(3).replace("\n", "\r")),
    "nul_cell": (V2_HEAD, "1\x00,2,3\n"),
    "empty_body": (V2_HEAD, ""),
    "header_without_newline": (V2_HEAD.rstrip("\n"), ""),
    "zero_rate": (V2_HEAD.replace("=720", "=0"), v2_rows(2)),
    "bad_header": (V2_HEAD.replace("ch3\n", "cx\n"), v2_rows(2)),
    "invalid_utf8": (V2_HEAD, v2_rows(2).encode() + b"1,2,\xff\n"),
    "invalid_utf8_late": (V2_HEAD, v2_rows(LONG).encode() + b"1,\xc3\x28,3\n"),
    "truncated_utf8": (V2_HEAD, v2_rows(2).encode() + b"1,2,3\xe2\x82"),
    "utf8_cell": (V2_HEAD, "1,2,é\n"),
}

# Documents whose first fault changed with the streaming reader: the head is
# checked before bytes beyond the decoder's first chunk are decoded, so a
# fault in the head now wins over a later undecodable byte.
LATE_BYTE = v2_rows(2000).encode() + b"\xff\n"
ORDER_CHANGED = {
    "bad_header_then_bad_byte": (
        V2_HEAD.replace("ch3\n", "cx\n"), LATE_BYTE,
        "expected header 'ch1,ch2,ch3', got 'ch1,ch2,cx' (line 4)",
    ),
    "no_rate_then_bad_byte": (
        "# format=spokesense-dataset v2\nch1,ch2,ch3\n", LATE_BYTE,
        "missing '# sample_rate_hz=' metadata (line 2)",
    ),
}


def write_document(path, head, body):
    path.write_bytes(head.encode() + (body if isinstance(body, bytes) else body.encode()))


@pytest.mark.filterwarnings("error")  # numpy warns on a body without data
@pytest.mark.parametrize("name", list(READER_CORPUS))
def test_dataset_reader_matches_cell_by_cell_oracle(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    write_document(path, *READER_CORPUS[name])
    assert read_outcome(read_dataset, path) == read_outcome(oracle_read_dataset, path)


def test_dataset_reader_corpus_takes_both_paths(tmp_path):
    # The block reader takes rows of cells that the kernel or float() reads;
    # the cell-by-cell path takes what it refuses, valid (``#`` lines, blank
    # lines) or not.
    cases = {
        "plain_blocks": (True, True), "v1_t_column_blocks": (True, True),
        "crlf_body": (True, True), "padded_cells": (True, True),
        "trailing_kv_blocks": (False, True), "underscore_late_block": (True, True),
        "blank_late_block": (False, True), "separator_space_late": (False, False),
        "nan_late_block": (False, False), "empty_body": (False, False),
        "cr_document": (False, True),
    }
    for name, (blocks_read, valid) in cases.items():
        path = tmp_path / f"{name}.csv"
        write_document(path, *READER_CORPUS[name])
        with path.open(encoding="utf-8") as fh:
            header = formats._read_document(fh, formats.DATASET_FORMAT)[2]
            assert (formats._read_samples(fh, len(header)) is not None) == blocks_read, name
        assert isinstance(read_outcome(read_dataset, path)[0], tuple) == valid, name


def test_dataset_reader_matches_oracle_on_mutated_bodies(tmp_path):
    # One character, drawn from those the two paths could read differently,
    # inserted at a random place of a small valid body, then a seeded
    # sample of double insertions.
    rng = np.random.RandomState(77)
    alphabet = list(",\n\r\t #_=.-+eE0\"'\x00\x0b\x0c\x1c\x1f\xa0 ١") + ["nan", "inf"]
    base = v2_rows(4)
    path = tmp_path / "mutated.csv"
    for trial in range(400):
        body = base
        for _ in range(1 + trial % 2):
            at = rng.randint(len(body) + 1)
            body = body[:at] + alphabet[rng.randint(len(alphabet))] + body[at:]
        write_document(path, V2_HEAD, body)
        assert read_outcome(read_dataset, path) == read_outcome(oracle_read_dataset, path), body


@pytest.mark.parametrize("name", list(ORDER_CHANGED))
def test_dataset_head_fault_now_reported_before_late_bad_byte(tmp_path, name):
    head, body, message = ORDER_CHANGED[name]
    path = tmp_path / f"{name}.csv"
    write_document(path, head, body)
    with pytest.raises(FormatError, match="cannot read"):
        oracle_read_dataset(path)
    with pytest.raises(FormatError) as info:
        read_dataset(path)
    assert str(info.value) == message


def test_dataset_read_and_write_peaks_below_two_channel_copies(tmp_path):
    # A 60 s record at 1,440 Hz: each call may hold the channels and less
    # than one more copy of them, not the whole table as text.
    rng = np.random.RandomState(78)
    series = TimeSeries(sample_rate_hz=1440.0, channels=rng.randn(3, 60 * 1440))
    path = tmp_path / "record.csv"
    tracemalloc.start()
    try:
        write_dataset(path, series)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded = read_dataset(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.channels.tobytes() == series.channels.tobytes()
    bound = 2 * series.channels.nbytes
    assert write_peak < bound and read_peak < bound, (write_peak, read_peak, bound)


@pytest.mark.parametrize("ending", ["trailing_kv", "cr_only"])
def test_dataset_body_the_kernel_refuses_read_without_its_text(tmp_path, ending):
    # A 60 s record that the block reader refuses, by a trailing ``# key=``
    # line or by CR-only newlines, is walked a row at a time: its read holds
    # the float block and the channels, not the body as text (29.3 and
    # 25.8 MB traced when it did).
    rng = np.random.RandomState(79)
    series = TimeSeries(sample_rate_hz=1440.0, channels=rng.randn(3, 60 * 1440))
    path = tmp_path / "record.csv"
    write_dataset(path, series)
    data = path.read_bytes()
    if ending == "trailing_kv":
        path.write_bytes(data + b"# rows=86400\n")
    else:
        path.write_bytes(data.replace(b"\n", b"\r"))
    tracemalloc.start()
    try:
        loaded = read_dataset(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.channels.tobytes() == series.channels.tobytes()
    assert read_peak < 5e6, read_peak


def test_padded_labels_rejected_on_write(tmp_path):
    # The reader strips metadata lines, so "wet " would read back as "wet".
    path = tmp_path / "padded.csv"
    for label in ("wet ", " wet", "wet\t", "\u00a0wet"):
        with pytest.raises(ValidationError, match="whitespace"):
            write_dataset(path, TimeSeries(720.0, np.zeros((3, 4)), label=label))
        assert not path.exists()
        with pytest.raises(ValidationError, match="whitespace"):
            write_features(path, [[1.0]], ("a",), labels=[label])
    write_dataset(path, TimeSeries(720.0, np.zeros((3, 4)), label="wet sand"))
    assert read_dataset(path).label == "wet sand"


def test_labels_utf8_cannot_encode_rejected_before_open(tmp_path):
    # A lone surrogate has no UTF-8 encoding; it must fail typed, not as a
    # UnicodeEncodeError from a file already opened for writing.
    path = tmp_path / "surrogate.csv"
    for label in ("\ud800", "wet\udfff"):
        with pytest.raises(ValidationError, match="UTF-8"):
            write_dataset(path, TimeSeries(720.0, np.zeros((3, 2)), label=label))
        assert not path.exists()
        with pytest.raises(ValidationError, match="UTF-8"):
            write_features(path, [[1.0]], ("a",), labels=[label])
        assert not path.exists()
        with pytest.raises(ValidationError, match="UTF-8"):
            write_features(path, [[1.0]], (label,))
        assert not path.exists()
    write_dataset(path, TimeSeries(720.0, np.zeros((3, 2)), label="gr\u00e4vel \U0001F30B"))
    assert read_dataset(path).label == "gr\u00e4vel \U0001F30B"


# Each once went through str(): a None label was written as the class "None"
# and read back as text, an int layout id as "7".
@pytest.mark.parametrize(
    "write",
    [
        lambda path: write_features(path, [[1.0], [2.0]], ("a",), labels=[None, "x"]),
        lambda path: write_features(path, [[1.0]], ("a",), labels=[3]),
        lambda path: write_features(path, [[1.0]], ("a",), layout_id=7),
        lambda path: write_dataset(path, TimeSeries(720.0, np.zeros((3, 2)), label=5)),
    ],
    ids=["none_label", "int_label", "int_layout_id", "int_dataset_label"],
)
def test_text_cells_must_be_text(tmp_path, write):
    path = tmp_path / "t.csv"
    with pytest.raises(ValidationError, match="is not text"):
        write(path)
    assert not path.exists()


def test_numpy_text_is_text(tmp_path):
    path = tmp_path / "t.csv"
    write_features(path, [[1.0]], ("a",), labels=[np.str_("x")], layout_id=np.str_("l"))
    table = read_features(path)
    assert (table.labels, table.layout_id) == (["x"], "l")


# ---------------------------------------------------------------- features


def test_features_round_trip_byte_identical(tmp_path):
    rng = np.random.RandomState(72)
    values = rng.randn(12, 4) * np.power(10.0, rng.uniform(-10, 10, size=(12, 4)))
    names = ("alpha", "beta", "gamma", "delta")
    labels = [f"row{i}" for i in range(12)]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_features(a, values, names, labels=labels, layout_id="layout-1")

    def rewrite(path, table: FeatureTable):
        write_features(
            path, table.values, table.names, labels=table.labels, layout_id=table.layout_id
        )

    loaded = roundtrip_bytes(rewrite, read_features, a, b)
    assert np.array_equal(loaded.values, values)
    assert loaded.names == names
    assert loaded.labels == labels
    assert loaded.layout_id == "layout-1"


def test_features_optional_parts_absent(tmp_path):
    path = tmp_path / "bare.csv"
    write_features(path, [[1.0, 2.0]], ("a", "b"))
    loaded = read_features(path)
    assert loaded.labels is None
    assert loaded.layout_id is None
    assert loaded.values.tolist() == [[1.0, 2.0]]


def test_features_banner_rejections(tmp_path):
    future = tmp_path / "future.csv"
    for tag in ("v99", "v" + "9" * 5000):
        future.write_text(f"# spokesense-features {tag}\na,b\n1,2\n")
        with pytest.raises(UnsupportedVersionError, match="newer than supported version 1"):
            read_features(future)
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("# spokesense-dataset v1\na,b\n1,2\n")
    with pytest.raises(FormatError):
        read_features(wrong)
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("# spokesense-features v1\n# layout=L1\n# layout=L2\na,b\n1,2\n")
    with pytest.raises(FormatError, match="repeated metadata line '# layout=L2'") as info:
        read_features(repeated)
    assert info.value.line == 3
    missing = tmp_path / "missing.csv"
    missing.write_text("a,b\n1,2\n")
    with pytest.raises(FormatError):
        read_features(missing)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(FormatError, match="file is empty"):
        read_features(empty)


def test_features_cell_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# spokesense-features v1\na,b,label\n1,2,x\n3,oops,y\n")
    with pytest.raises(FormatError) as info:
        read_features(path)
    assert info.value.line == 4
    assert info.value.field == "b"
    infinite = tmp_path / "inf.csv"
    infinite.write_text("# spokesense-features v1\na,b\n1,2\n3,4\n5,-inf\n")
    with pytest.raises(FormatError) as info:
        read_features(infinite)
    assert info.value.line == 5
    assert info.value.field == "b"
    short = tmp_path / "short.csv"
    short.write_text("# spokesense-features v1\na,b\n1\n")
    with pytest.raises(FormatError):
        read_features(short)
    unlabeled = tmp_path / "unlabeled.csv"
    unlabeled.write_text("# spokesense-features v1\na,label\n1,\n")
    with pytest.raises(FormatError):
        read_features(unlabeled)
    labels_only = tmp_path / "labels_only.csv"
    labels_only.write_text("# spokesense-features v1\nlabel\nx\n")
    with pytest.raises(FormatError, match="no feature columns") as info:
        read_features(labels_only)
    assert info.value.line == 2


def test_features_write_validation(tmp_path):
    path = tmp_path / "x.csv"
    with pytest.raises(ValidationError):
        write_features(path, [[np.nan]], ("a",))
    with pytest.raises(ValidationError):
        write_features(path, [[1.0]], ("bad,name",))
    with pytest.raises(ValidationError):
        write_features(path, [[1.0]], ("label",))
    with pytest.raises(ValidationError):
        write_features(path, [[1.0]], ("a",), labels=["#hash"])
    with pytest.raises(ValidationError):
        write_features(path, [[1.0]], ("a", "b"))
    with pytest.raises(ValidationError):
        write_features(path, np.empty((0, 2)), ("a", "b"))
    with pytest.raises(ValidationError, match="1 labels for 2 rows"):
        write_features(path, [[1.0], [2.0]], ("a",), labels=["x"])


def test_features_reader_rejects_feature_column_named_label(tmp_path):
    # The writer refuses such a table, so the reader must not return one.
    path = tmp_path / "label.csv"
    for header, row in (("a,label,label", "1,2,x"), ("label,b", "1,2")):
        path.write_text(f"# spokesense-features v1\n{header}\n{row}\n")
        with pytest.raises(FormatError, match="reserved") as info:
            read_features(path)
        assert info.value.line == 2


def oracle_read_features(path):
    """read_features as it was before the streamed row walk: the body read
    as one string, split into lines and parsed by oracle_parse_body."""
    path = Path(path)
    with formats._reading(path) as fh:
        _, meta, header, header_line = formats._read_document(fh, formats.FEATURES_FORMAT)
        body = fh.read().split("\n")
    if body[-1] == "":
        body.pop()
    if "" in header:
        raise FormatError("empty column name in header", line=header_line)
    names = header[:-1] if header[-1] == "label" else header
    if not names:
        raise FormatError("feature file has no feature columns", line=header_line)
    empty = "feature file has no rows"
    values, labels = oracle_parse_body(body, header_line + 1, names, len(header), empty)
    if "label" in names:
        raise FormatError("'label' is reserved for the label column", line=header_line)
    return FeatureTable(
        values=values, names=tuple(names), labels=labels, layout_id=meta.get("layout")
    )


def features_outcome(read, path):
    """What a reader gives for ``path``: the values' bytes and layout, the
    names, labels and layout id, or the error's type, message, line and
    field."""
    try:
        table = read(path)
    except FormatError as exc:
        return type(exc), str(exc), exc.line, exc.field
    values = table.values
    return (values.shape, values.dtype, values.flags.c_contiguous, values.tobytes(),
            table.names, table.labels, table.layout_id)


FEATURES_HEAD = "# spokesense-features v1\n# layout=L1\na,b,label\n"
UNLABELED_HEAD = "# spokesense-features v1\na,b\n"


def feature_rows(n, labels=True):
    return "".join(f"{k}.5,-{k}e-3" + (f",row{k}" if labels else "") + "\n" for k in range(n))


# (head, body) documents, as READER_CORPUS; the documents whose names say
# "then" pin which of two faults is reported.
FEATURES_CORPUS = {
    "valid": (FEATURES_HEAD, feature_rows(5)),
    "valid_unlabeled": (UNLABELED_HEAD, feature_rows(5, labels=False)),
    "no_final_newline": (FEATURES_HEAD, feature_rows(3).rstrip("\n")),
    "hash_lines": (FEATURES_HEAD, "# a=1\n" + feature_rows(2) + "# mid=a,b\n" + feature_rows(2)),
    "blank_lines": (FEATURES_HEAD, "\n" + feature_rows(2) + "\n\n" + feature_rows(2) + "\n"),
    "crlf": (FEATURES_HEAD.replace("\n", "\r\n"), feature_rows(3).replace("\n", "\r\n")),
    "lone_cr": (FEATURES_HEAD, feature_rows(3).replace("\n", "\r")),
    "padded_cells": (FEATURES_HEAD, " 1 ,\t2_0\t, x \n"),
    "one_column_space_row": ("# spokesense-features v1\na\n", "1\n \n"),
    "ragged_row": (FEATURES_HEAD, feature_rows(2) + "1,2\n"),
    "long_row": (FEATURES_HEAD, feature_rows(2) + "1,2,x,y\n"),
    "bad_cell": (FEATURES_HEAD, feature_rows(2) + "1,oops,x\n"),
    "non_finite_cell": (FEATURES_HEAD, feature_rows(2) + "1,-inf,x\n"),
    "nan_unlabeled": (UNLABELED_HEAD, feature_rows(2, labels=False) + "nan,2\n"),
    "empty_label": (FEATURES_HEAD, feature_rows(2) + "1,2,\n"),
    "empty_body": (FEATURES_HEAD, ""),
    "only_blank_and_kv": (FEATURES_HEAD, "\n# rows=0\n\n"),
    "bad_trailing_comment": (FEATURES_HEAD, feature_rows(2) + "# loose\n"),
    "late_bad_byte": (FEATURES_HEAD, feature_rows(2000).encode() + b"1,2,\xff\n"),
    "truncated_utf8": (FEATURES_HEAD, feature_rows(2).encode() + b"1,2,x\xe2\x82"),
    "bad_cell_then_bad_comment": (FEATURES_HEAD, "1,oops,x\n# loose\n"),
    "bad_comment_then_late_bad_byte": (
        FEATURES_HEAD, b"# loose\n" + feature_rows(2000).encode() + b"\xff\n"
    ),
    "bad_cell_then_late_bad_byte": (
        FEATURES_HEAD, b"1,oops,x\n" + feature_rows(2000).encode() + b"\xff\n"
    ),
    "bad_comment_then_empty_body": (FEATURES_HEAD, "# loose\n\n"),
    "empty_label_then_bad_cell": (FEATURES_HEAD, "1,2,\n1,oops,x\n"),
    "empty_label_then_ragged": (FEATURES_HEAD, "1,2,\n1,2\n"),
    "ragged_then_bad_cell": (FEATURES_HEAD, "1,2\n1,oops,x\n"),
    "bad_cell_then_ragged": (FEATURES_HEAD, "1,oops,x\n1,2\n"),
    "bad_cell_then_non_finite": (FEATURES_HEAD, "1,oops,x\n1,nan,x\n"),
    "non_finite_then_bad_cell": (FEATURES_HEAD, "inf,oops,x\n"),
    "reserved_label": ("# spokesense-features v1\na,label,label\n", "1,2,x\n"),
    "reserved_then_bad_cell": ("# spokesense-features v1\na,label,label\n", "1,x,y\n"),
    "reserved_then_empty_body": ("# spokesense-features v1\nlabel,b\n", ""),
    "reserved_then_bad_comment": ("# spokesense-features v1\nlabel,b\n", "# loose\n"),
    "empty_column_then_bad_cell": ("# spokesense-features v1\na,,label\n", "1,oops,x\n"),
    "no_columns_then_ragged": ("# spokesense-features v1\nlabel\n", "x,y\n"),
    "bad_banner_then_bad_cell": ("# spokesense-features v9\na,b\n", "oops,1\n"),
}

# Documents whose first fault changed with the streamed row walk: the walk
# reads the open file and names faulty cells by their column, so the header
# is checked before the body is decoded, as the dataset reader checks it,
# and a header fault now wins over a later undecodable byte.
FEATURES_ORDER_CHANGED = {
    "empty_column_then_late_bad_byte": (
        "# spokesense-features v1\na,,label\n", LATE_BYTE,
        "empty column name in header (line 2)",
    ),
    "no_columns_then_late_bad_byte": (
        "# spokesense-features v1\nlabel\n", LATE_BYTE,
        "feature file has no feature columns (line 2)",
    ),
}


@pytest.mark.parametrize("name", list(FEATURES_CORPUS))
def test_features_reader_matches_whole_body_oracle(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    write_document(path, *FEATURES_CORPUS[name])
    assert features_outcome(read_features, path) == features_outcome(oracle_read_features, path)


def test_features_reader_matches_oracle_on_mutated_bodies(tmp_path):
    # As for datasets: one or two characters inserted into a small labelled
    # body, so that labels, ragged rows and comments meet the cell faults.
    rng = np.random.RandomState(80)
    alphabet = list(",\n\r\t #=.-eE0x\x00\x1c\xa0") + ["nan", "inf"]
    base = feature_rows(4)
    path = tmp_path / "mutated.csv"
    for trial in range(200):
        body = base
        for _ in range(1 + trial % 2):
            at = rng.randint(len(body) + 1)
            body = body[:at] + alphabet[rng.randint(len(alphabet))] + body[at:]
        write_document(path, FEATURES_HEAD, body)
        outcome = features_outcome(read_features, path)
        assert outcome == features_outcome(oracle_read_features, path), body


@pytest.mark.parametrize("name", list(FEATURES_ORDER_CHANGED))
def test_features_header_fault_now_reported_before_late_bad_byte(tmp_path, name):
    head, body, message = FEATURES_ORDER_CHANGED[name]
    path = tmp_path / f"{name}.csv"
    write_document(path, head, body)
    with pytest.raises(FormatError, match="cannot read"):
        oracle_read_features(path)
    with pytest.raises(FormatError) as info:
        read_features(path)
    assert str(info.value) == message


# ---------------------------------------------------------------- model


def classifier_fixture():
    rng = np.random.RandomState(73)
    centers = {"hard": (3.0, -1.0), "mid": (0.0, 3.0), "soft": (-3.0, -1.0)}
    rows, labels = [], []
    for name, center in centers.items():
        rows.append(rng.randn(8, 2) * 0.4 + np.asarray(center))
        labels.extend([name] * 8)
    x = np.vstack(rows)
    probe = np.vstack([x, rng.randn(15, 2) * 2.5])
    return x, labels, probe


def test_model_round_trip_bytes_and_behavior(tmp_path):
    x, labels, probe = classifier_fixture()
    model = fit_svm_model(x, labels, feature_layout_id="layout-7")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_model(a, model)
    loaded = roundtrip_bytes(write_model, read_model, a, b)
    assert loaded.class_names == model.class_names
    assert loaded.feature_layout_id == "layout-7"
    assert np.array_equal(loaded.standardizer.means, model.standardizer.means)
    assert np.array_equal(loaded.standardizer.stds, model.standardizer.stds)
    for mine, theirs in zip(model.pairwise, loaded.pairwise):
        assert (mine.class_a, mine.class_b) == (theirs.class_a, theirs.class_b)
        assert mine.svm.kernel == theirs.svm.kernel
        assert np.array_equal(mine.svm.support_vectors, theirs.svm.support_vectors)
        assert np.array_equal(mine.svm.coefficients, theirs.svm.coefficients)
        assert mine.svm.bias == theirs.svm.bias
    # the reloaded model must classify exactly like the in-memory one
    assert predict_batch(loaded, probe) == predict_batch(model, probe)


def test_model_json_layout(tmp_path):
    x, labels, _ = classifier_fixture()
    model = fit_svm_model(x, labels, feature_layout_id="layout-7")
    path = tmp_path / "m.json"
    write_model(path, model)
    doc = json.loads(path.read_text())
    assert doc["format"] == "spokesense-model"
    assert doc["version"] == 1
    assert set(doc) == {
        "format", "version", "feature_layout_id", "class_names", "standardizer", "pairwise",
    }
    assert set(doc["standardizer"]) == {"means", "stds"}
    assert len(doc["pairwise"]) == 3
    entry = doc["pairwise"][0]
    assert set(entry) == {
        "class_a", "class_b", "kernel", "params", "support_vectors", "coefficients", "bias",
    }
    assert entry["kernel"] == "rbf"
    assert set(entry["params"]) == {"c", "gamma"}
    # sorted keys guarantee byte-stable output
    assert list(doc) == sorted(doc)


def mutated_model_doc(tmp_path, mutate):
    x, labels, _ = classifier_fixture()
    model = fit_svm_model(x, labels)
    path = tmp_path / "m.json"
    write_model(path, model)
    doc = json.loads(path.read_text())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    return bad


def test_model_version_99_rejected(tmp_path):
    bad = mutated_model_doc(tmp_path, lambda doc: doc.update(version=99))
    with pytest.raises(UnsupportedVersionError):
        read_model(bad)


def test_model_malformed_documents(tmp_path):
    mutations = [
        lambda doc: doc.update(format="something-else"),
        lambda doc: doc.update(version="1"),
        lambda doc: doc.pop("standardizer"),
        lambda doc: doc["standardizer"].update(stds=[0.0, 1.0]),
        lambda doc: doc["standardizer"].update(means=[1.0]),
        lambda doc: doc.update(class_names=["solo"]),
        lambda doc: doc.update(class_names=["dup", "dup", "x"]),
        lambda doc: doc["pairwise"][0].update(class_a="stranger"),
        lambda doc: doc["pairwise"].__setitem__(1, doc["pairwise"][0]),
        lambda doc: doc["pairwise"].pop(),
        lambda doc: doc["pairwise"][0].update(coefficients=[1.0]),
        lambda doc: doc["pairwise"][0].update(support_vectors=[]),
        lambda doc: doc["pairwise"][0]["params"].pop("gamma"),
        lambda doc: doc["pairwise"][0].update(bias="high"),
    ]
    for index, mutate in enumerate(mutations):
        bad = mutated_model_doc(tmp_path, mutate)
        with pytest.raises(FormatError):
            read_model(bad)


BIG = 10**400  # a JSON integer beyond the double range
RAGGED = [[1.0, 2.0], [1.0]]


def set_in(*keys_and_value):
    """A mutation that sets the item at the path ``keys`` to ``value``."""
    *keys, last, value = keys_and_value

    def mutate(doc):
        for key in keys:
            doc = doc[key]
        doc[last] = value

    return mutate


MODEL_MUTATIONS = [
    set_in("feature_layout_id", 5),
    set_in("class_names", [["a"], "b"]),
    set_in("class_names", [1, 2, 3]),
    set_in("class_names", "hard"),
    set_in("standardizer", []),
    set_in("standardizer", "means", ["x", 1.0]),
    set_in("standardizer", "means", [[1.0], 2.0]),
    set_in("standardizer", "means", RAGGED),
    set_in("standardizer", "means", []),
    set_in("standardizer", "means", [True, 1.0]),
    set_in("standardizer", "means", [BIG, 1.0]),
    set_in("standardizer", "means", [float("nan"), 1.0]),
    set_in("standardizer", "stds", [1.0, float("inf")]),
    set_in("standardizer", "stds", [1.0, 1.0, 1.0]),
    set_in("standardizer", "stds", 1.0),
    set_in("pairwise", "none"),
    set_in("pairwise", 0, 5),
    set_in("pairwise", 0, "class_a", 5),
    set_in("pairwise", 0, "kernel", "poly"),
    set_in("pairwise", 0, "kernel", 5),
    set_in("pairwise", 0, "params", []),
    set_in("pairwise", 0, "params", "c", BIG),
    set_in("pairwise", 0, "params", "c", 0),
    set_in("pairwise", 0, "params", "c", True),
    set_in("pairwise", 0, "params", "gamma", BIG),
    set_in("pairwise", 0, "params", "gamma", float("nan")),
    set_in("pairwise", 0, "params", "gamma", "wide"),
    set_in("pairwise", 0, "support_vectors", RAGGED),
    set_in("pairwise", 0, "support_vectors", [["a", "b"]]),
    set_in("pairwise", 0, "support_vectors", [1.0, 2.0]),
    set_in("pairwise", 0, "support_vectors", [[]]),
    set_in("pairwise", 0, "support_vectors", [[[1.0, 2.0]]]),
    set_in("pairwise", 0, "support_vectors", [[BIG, 0.0]]),
    set_in("pairwise", 0, "support_vectors", [[float("-inf"), 0.0]]),
    set_in("pairwise", 0, "support_vectors", [[1.0, 2.0, 3.0]]),
    set_in("pairwise", 0, "coefficients", ["x"]),
    set_in("pairwise", 0, "coefficients", [[1.0]]),
    set_in("pairwise", 0, "coefficients", {"a": 1.0}),
    set_in("pairwise", 0, "bias", BIG),
    set_in("pairwise", 0, "bias", True),
    set_in("pairwise", 0, "bias", None),
    set_in("pairwise", 0, "bias", [1.0]),
    set_in("pairwise", 0, "bias", float("nan")),
]

PROFILE_MUTATIONS = [
    set_in("name", 5),
    set_in("name", ""),
    set_in("band_rms", ["a", 0.1, 0.1]),
    set_in("band_rms", [[0.1], 0.2, 0.3]),
    set_in("band_rms", [True, 0.1, 0.1]),
    set_in("band_rms", [BIG, 0.1, 0.1]),
    set_in("band_rms", [float("nan"), 0.1, 0.1]),
    set_in("band_rms", 0.1),
    set_in("tonal_components", "none"),
    set_in("tonal_components", [5]),
    set_in("tonal_components", [{"freq_hz": BIG, "amplitude": 1.0, "channel_gains": [1, 1, 1]}]),
    set_in("tonal_components", [{"freq_hz": 9.0, "amplitude": 1.0, "channel_gains": RAGGED}]),
    set_in("tonal_components", [{"freq_hz": 9.0, "amplitude": 1.0, "channel_gains": [1, "1", 1]}]),
    set_in("tonal_components", [{"freq_hz": -9.0, "amplitude": 1.0, "channel_gains": [1, 1, 1]}]),
    set_in("tonal_components", [{"freq_hz": 9.0, "channel_gains": [1, 1, 1]}]),
    set_in("impulse_rate_hz", BIG),
    set_in("impulse_rate_hz", True),
    set_in("impulse_rate_hz", None),
    set_in("impulse_rate_hz", float("inf")),
    set_in("noise_floor_rms", -1.0),
    set_in("channel_band_gains", [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]),
    set_in("channel_band_gains", [["a", 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    set_in("channel_band_gains", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0] * 3]),
    set_in("channel_band_gains", [[BIG, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
]


def test_json_mutations_raise_typed_errors(tmp_path):
    # every fault in a model or profile document is a typed error, never a
    # bare ValueError, TypeError or OverflowError
    x, labels, _ = classifier_fixture()
    documents = [
        (read_model, lambda path: write_model(path, fit_svm_model(x, labels)), MODEL_MUTATIONS),
        (read_profile, lambda path: write_profile(path, builtin_profile("small_stone")),
         PROFILE_MUTATIONS),
    ]
    for read, write, mutations in documents:
        path = tmp_path / "doc.json"
        write(path)
        text = path.read_text()
        for mutate in mutations:
            doc = json.loads(text)
            mutate(doc)
            path.write_text(json.dumps(doc))
            with pytest.raises((FormatError, ValidationError)):
                read(path)


def test_json_versions_must_be_integers_from_1(tmp_path):
    path = tmp_path / "doc.json"
    for write, read, obj in (
        (write_model, read_model, fit_svm_model(*classifier_fixture()[:2])),
        (write_profile, read_profile, builtin_profile("flat")),
    ):
        write(path, obj)
        doc = json.loads(path.read_text())
        for version in (True, 0, -5, 1.0, "1", None):
            path.write_text(json.dumps({**doc, "version": version}))
            with pytest.raises(FormatError, match="'version' must be an integer >= 1") as info:
                read(path)
            assert info.value.field == "version" and info.value.line is None
        for version in (2, 10**40):
            path.write_text(json.dumps({**doc, "version": version}))
            newer = f"version {version} is newer"
            with pytest.raises(UnsupportedVersionError, match=newer) as info:
                read(path)
            assert info.value.field == "version"
        for fmt in ("spokesense-features", None, 7):
            path.write_text(json.dumps({**doc, "format": fmt, "version": True}))
            with pytest.raises(FormatError, match=f"document, got {fmt!r}") as info:
                read(path)
            assert type(info.value) is FormatError and info.value.field == "format"


def test_json_unreadable_numbers_and_nesting_rejected(tmp_path):
    path = tmp_path / "doc.json"
    # an integer literal too long to convert, and arrays nested too deep to parse
    for raw in ('{"format": "spokesense-model", "version": 1' + "0" * 5000 + "}",
                "[" * 100_000 + "]" * 100_000):
        path.write_text(raw)
        for read in (read_model, read_profile):
            with pytest.raises(FormatError, match="invalid JSON"):
                read(path)


def test_model_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        read_model(path)
    array = tmp_path / "array.json"
    array.write_text("[1, 2, 3]")
    with pytest.raises(FormatError):
        read_model(array)


def test_json_readers_reject_non_utf8_bytes(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"format": "\xff"}\n')
    for reader in (read_model, read_profile):
        with pytest.raises(FormatError, match="cannot read"):
            reader(path)


def test_readers_name_an_unreadable_path_as_given(tmp_path, monkeypatch):
    # Every reader opens through one rule: the message names the argument
    # as given, text or Path, and the OS error names the normalised path.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_bytes(b'{"a": "\xff"}')
    (tmp_path / "bad.csv").write_bytes(b"# spokesense-features v1\na,b\n1,\xff\n")
    missing = "[Errno 2] No such file or directory: 'absent.json'"
    undecodable = "'utf-8' codec can't decode byte 0xff in position {}: invalid start byte"
    cases = [
        (read_model, ".//absent.json", missing),
        (read_profile, "./bad.json", undecodable.format(7)),
        (read_features, "./bad.csv", undecodable.format(31)),
    ]
    for reader, name, error in cases:
        for arg in (name, Path(name)):
            with pytest.raises(FormatError) as info:
                reader(arg)
            shown = arg if reader is not read_features else Path(arg)
            assert str(info.value) == f"cannot read {shown}: {error}", arg


# ---------------------------------------------------------------- profile


def test_profile_round_trip_all_builtins(tmp_path):
    for index, profile in enumerate(builtin_profiles()):
        a = tmp_path / f"a{index}.json"
        b = tmp_path / f"b{index}.json"
        write_profile(a, profile)
        loaded = roundtrip_bytes(write_profile, read_profile, a, b)
        assert loaded == profile  # frozen dataclasses compare field-wise


# write_profile's exact bytes for two builtins: key order, indentation,
# tonal lists, a pooled mixture's values and each number's rendering.
PROFILE_BYTES = {
    "large_stone": """\
{
  "band_rms": [
    0.2,
    0.25,
    0.08
  ],
  "channel_band_gains": [
    [
      1.0,
      0.35,
      0.15
    ],
    [
      0.35,
      1.0,
      0.35
    ],
    [
      0.05,
      0.35,
      1.0
    ]
  ],
  "format": "spokesense-profile",
  "impulse_amplitude": 0.8,
  "impulse_rate_hz": 6.0,
  "name": "large_stone",
  "noise_floor_rms": 0.005,
  "tonal_components": [
    {
      "amplitude": 0.18,
      "channel_gains": [
        0.6,
        1.0,
        0.4
      ],
      "freq_hz": 90.0
    },
    {
      "amplitude": 0.1,
      "channel_gains": [
        0.2,
        0.4,
        1.0
      ],
      "freq_hz": 500.0
    }
  ],
  "version": 1
}
""",
    "mixture": """\
{
  "band_rms": [
    0.06999999999999999,
    0.105,
    0.060000000000000005
  ],
  "channel_band_gains": [
    [
      1.0,
      0.35,
      0.15
    ],
    [
      0.35,
      1.0,
      0.35
    ],
    [
      0.05,
      0.35,
      1.0
    ]
  ],
  "format": "spokesense-profile",
  "impulse_amplitude": 0.175,
  "impulse_rate_hz": 4.0,
  "name": "mixture",
  "noise_floor_rms": 0.005,
  "tonal_components": [
    {
      "amplitude": 0.075,
      "channel_gains": [
        0.3,
        1.0,
        0.3
      ],
      "freq_hz": 200.0
    }
  ],
  "version": 1
}
""",
}


def test_profile_bytes_are_pinned(tmp_path):
    for name, expected in PROFILE_BYTES.items():
        path = tmp_path / f"{name}.json"
        write_profile(path, builtin_profile(name))
        assert path.read_bytes() == expected.encode("utf-8")


def test_profile_rejections(tmp_path):
    path = tmp_path / "p.json"
    write_profile(path, builtin_profile("small_stone"))
    doc = json.loads(path.read_text())

    def rewrite(mutate):
        bad = dict(doc)
        mutate(bad)
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(bad))
        return target

    with pytest.raises(UnsupportedVersionError):
        read_profile(rewrite(lambda d: d.update(version=99)))
    with pytest.raises(FormatError):
        read_profile(rewrite(lambda d: d.update(band_rms=[0.1, 0.2])))
    with pytest.raises(FormatError):
        read_profile(rewrite(lambda d: d.update(band_rms=[-0.1, 0.2, 0.3])))
    with pytest.raises(FormatError):
        read_profile(rewrite(lambda d: d.update(impulse_rate_hz="often")))
    with pytest.raises(FormatError):
        read_profile(rewrite(lambda d: d.update(channel_band_gains=[[1.0, 0.0], [0.0, 1.0]])))


# ---------------------------------------------------------------- reports


def test_confusion_report_layout(tmp_path):
    confusion = ConfusionMatrix(
        class_names=("flat", "sand"), counts=np.array([[8, 2], [1, 9]], dtype=np.int64)
    )
    path = tmp_path / "c.csv"
    write_confusion(path, confusion, 0.85)
    lines = path.read_text().splitlines()
    assert lines[0] == "# spokesense-confusion v1"
    assert lines[1] == "class,flat,sand"
    assert lines[2] == "flat,8,2"
    assert lines[3] == "sand,1,9"
    assert lines[4] == f"# accuracy={format_float(0.85)}"
    with pytest.raises(ValidationError):
        write_confusion(
            path,
            ConfusionMatrix(class_names=("a,b", "c"), counts=np.zeros((2, 2), dtype=np.int64)),
            0.5,
        )


def test_distance_report_layout(tmp_path):
    report = DistanceReport(
        class_names=("flat", "sand"),
        euclidean=np.array([2.5, 0.5]),
        mahalanobis=np.array([0.25, 1.75]),
        nearest_euclidean="sand",
        nearest_mahalanobis="flat",
        metric_divergence=True,
    )
    path = tmp_path / "d.csv"
    write_distance_report(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == "# spokesense-distances v1"
    assert lines[1] == "class,euclidean,mahalanobis"
    assert lines[2] == f"flat,{format_float(2.5)},{format_float(0.25)}"
    assert lines[3] == f"sand,{format_float(0.5)},{format_float(1.75)}"
    assert lines[4] == "# nearest_euclidean=sand"
    assert lines[5] == "# nearest_mahalanobis=flat"
    assert lines[6] == "# metric_divergence=true"


def test_eigen_report_layout(tmp_path):
    rows = [
        (0, EigenSignature(3.0, 2.0, 1.0), "flat"),
        (1, EigenSignature(0.5, 0.25, 0.125), None),
    ]
    path = tmp_path / "e.csv"
    write_eigen_report(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "# spokesense-eigen v1"
    assert lines[1] == "window_index,lambda1,lambda2,lambda3,label"
    assert lines[2].startswith("0,3,") and lines[2].endswith(",flat")
    assert lines[3].endswith(",")  # empty label cell


def test_spectrum_layout(tmp_path):
    spectrum = Spectrum(bin_resolution_hz=2.0, magnitudes=np.array([1.0, 0.5, 0.25]))
    path = tmp_path / "s.csv"
    write_spectrum(path, spectrum)
    lines = path.read_text().splitlines()
    assert lines[0] == "# spokesense-spectrum v1"
    assert lines[1] == f"# bin_resolution_hz={format_float(2.0)}"
    assert lines[2] == "frequency_hz,magnitude"
    assert lines[3] == f"0,{format_float(1.0)}"
    assert lines[4] == f"2,{format_float(0.5)}"
    assert lines[5] == f"4,{format_float(0.25)}"


def test_predictions_layout(tmp_path):
    path = tmp_path / "p.csv"
    write_predictions(path, [(0, 0, 1080, "flat"), (1, 540, 1080, "sand")])
    lines = path.read_text().splitlines()
    assert lines[0] == "# spokesense-predictions v1"
    assert lines[1] == "window_index,start_index,length,predicted"
    assert lines[2] == "0,0,1080,flat"
    assert lines[3] == "1,540,1080,sand"
    with pytest.raises(ValidationError):
        write_predictions(path, [(0, 0, 10, "bad,label")])


THIRD = 1.0 / 3.0  # needs all 17 significant digits, as does 0.1

# Full file text of every CSV writer, taken from the row-by-row writers the
# one table writer replaced: integer cells, a missing eigen label, tables with
# the label first and last, 17-digit floats, -0.0 and empty row lists.
GOLDEN = {
    "dataset": (
        lambda path: write_dataset(path, TimeSeries(
            sample_rate_hz=3.0,
            channels=np.array([[0.1, -0.0], [THIRD, 2.5e-300], [-7.0, 1e22]]),
            label="gravel",
        )),
        "# sample_rate_hz=3\n# format=spokesense-dataset v2\n# label=gravel\nch1,ch2,ch3\n"
        "0.10000000000000001,0.33333333333333331,-7\n"
        "-0,2.5e-300,1e+22\n",
    ),
    "features": (
        lambda path: write_features(
            path, np.array([[0.1, -0.0], [THIRD, 12.0]]), ("f1", "f2"),
            labels=["sand", "flat"], layout_id="L1",
        ),
        "# spokesense-features v1\n# layout=L1\nf1,f2,label\n"
        "0.10000000000000001,-0,sand\n0.33333333333333331,12,flat\n",
    ),
    "features_unlabeled": (
        lambda path: write_features(path, np.array([[2.0 / 3.0, -1.5]]), ("a", "b")),
        "# spokesense-features v1\na,b\n0.66666666666666663,-1.5\n",
    ),
    "confusion": (
        lambda path: write_confusion(path, ConfusionMatrix(
            class_names=("flat", "sand"),
            counts=np.array([[12, 0], [3, 1234567]], dtype=np.int64),
        ), 0.1),
        "# spokesense-confusion v1\nclass,flat,sand\nflat,12,0\nsand,3,1234567\n"
        "# accuracy=0.10000000000000001\n",
    ),
    "distances": (
        lambda path: write_distance_report(path, DistanceReport(
            class_names=("flat", "sand"),
            euclidean=np.array([THIRD, -0.0]),
            mahalanobis=np.array([0.1, 2.0]),
            nearest_euclidean="sand",
            nearest_mahalanobis="flat",
            metric_divergence=True,
        )),
        "# spokesense-distances v1\nclass,euclidean,mahalanobis\n"
        "flat,0.33333333333333331,0.10000000000000001\nsand,-0,2\n"
        "# nearest_euclidean=sand\n# nearest_mahalanobis=flat\n# metric_divergence=true\n",
    ),
    "eigen": (
        lambda path: write_eigen_report(path, [
            (0, EigenSignature(THIRD, 0.1, -0.0), "flat"),
            (17, EigenSignature(3.0, 2.0, 1.0), None),
        ]),
        "# spokesense-eigen v1\nwindow_index,lambda1,lambda2,lambda3,label\n"
        "0,0.33333333333333331,0.10000000000000001,-0,flat\n17,3,2,1,\n",
    ),
    "eigen_empty": (
        lambda path: write_eigen_report(path, []),
        "# spokesense-eigen v1\nwindow_index,lambda1,lambda2,lambda3,label\n",
    ),
    "spectrum": (
        lambda path: write_spectrum(
            path, Spectrum(bin_resolution_hz=0.1, magnitudes=np.array([THIRD, -0.0, 5.0]))
        ),
        "# spokesense-spectrum v1\n# bin_resolution_hz=0.10000000000000001\n"
        "frequency_hz,magnitude\n0,0.33333333333333331\n0.10000000000000001,-0\n"
        "0.20000000000000001,5\n",
    ),
    "predictions": (
        lambda path: write_predictions(path, [(0, 0, 1080, "flat"), (1, 540, 1080, "sand")]),
        "# spokesense-predictions v1\nwindow_index,start_index,length,predicted\n"
        "0,0,1080,flat\n1,540,1080,sand\n",
    ),
    "predictions_empty": (
        lambda path: write_predictions(path, []),
        "# spokesense-predictions v1\nwindow_index,start_index,length,predicted\n",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_csv_writers_golden_bytes(tmp_path, name):
    write, text = GOLDEN[name]
    path = tmp_path / f"{name}.csv"
    write(path)
    assert path.read_bytes() == text.encode("utf-8")


# The dataset golden bytes of the v1 writer, with its t = k / rate column.
DATASET_V1 = (
    "# sample_rate_hz=3\n# format=spokesense-dataset v1\n# label=gravel\nt,ch1,ch2,ch3\n"
    "0,0.10000000000000001,0.33333333333333331,-7\n"
    "0.33333333333333331,-0,2.5e-300,1e+22\n"
)


@pytest.mark.parametrize("format_line", [True, False], ids=["format_line", "no_format_line"])
def test_dataset_v1_reads_same_bits_as_v2(tmp_path, format_line):
    v1, v2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
    text = DATASET_V1 if format_line else DATASET_V1.replace("# format=spokesense-dataset v1\n", "")
    v1.write_text(text)
    GOLDEN["dataset"][0](v2)
    old, new = read_dataset(v1), read_dataset(v2)
    assert old.channels.tobytes() == new.channels.tobytes()
    assert (old.sample_rate_hz, old.label) == (new.sample_rate_hz, new.label) == (3.0, "gravel")


def test_format_float_exact_for_doubles():
    rng = np.random.RandomState(74)
    values = np.concatenate(
        [
            rng.randn(200) * np.power(10.0, rng.uniform(-300, 300, size=200)),
            [0.0, 1.0, -1.0, 2**-1074, 1.7976931348623157e308],
        ]
    )
    for value in values:
        assert float(format_float(value)) == value


# ---------------------------------------------------------------- float kernel


def template_render_rows(*columns) -> str:
    """_render_rows as it was before the float kernel: one row template of
    ``%.17g``, ``%d`` and ``%s`` filled in by ``%`` for the whole block."""
    blocks, row = [], []
    for column in columns:
        if isinstance(column, list):
            blocks.append(np.array(column, dtype=object).reshape(-1, 1))
            row.append("%s")
        else:
            block = np.asarray(column)
            blocks.append(block if block.ndim == 2 else block.reshape(-1, 1))
            row += ["%.17g" if block.dtype.kind == "f" else "%d"] * blocks[-1].shape[1]
    if len({block.dtype for block in blocks}) > 1:
        blocks = [block.astype(object) for block in blocks]
    cells = np.hstack(blocks)
    template = ",".join(row) + "\n"
    return (template * cells.shape[0]) % tuple(cells.ravel().tolist())


def assert_renders_as_template(*columns):
    assert formats._render_rows(*columns) == template_render_rows(*columns)


def power_neighbours(low, high, steps=4):
    """+-10**k for k in [low, high] and their ``steps`` nearest doubles on
    each side: where log10 and the decade checks can go wrong."""
    values = []
    for k in range(low, high + 1):
        for toward in (0.0, np.inf):
            value = float(f"1e{k}")
            for _ in range(steps):
                value = np.nextafter(value, toward)
                values.append(value)
        values.append(float(f"1e{k}"))
    values = np.array(values)
    return np.concatenate([values, -values])


def test_render_rows_matches_template_on_full_range_bit_patterns():
    rng = np.random.default_rng(81)
    bits = rng.integers(0, 1 << 64, size=24_000, dtype=np.uint64).view(np.float64)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
               1.7976931348623157e308, 1e-6, 1e17]
    low, high = np.array([1e-6, 1e17]).view(np.int64)
    in_range = rng.integers(low, high, size=24_000).view(np.float64) * rng.choice([-1, 1], 24_000)
    decades = 10.0 ** rng.uniform(-7, 18, size=24_000) * rng.choice([-1, 1], 24_000)
    for values in (np.concatenate([bits, special]), in_range, decades):
        assert_renders_as_template(values[: values.size // 3 * 3].reshape(-1, 3))
        assert_renders_as_template(values)


def test_render_rows_matches_template_next_to_powers_of_ten():
    # The doubles just below 10**k are also the nearest any double comes to
    # rounding up to the next decade at 17 digits; none of them does.
    values = power_neighbours(-7, 17)
    assert_renders_as_template(values)
    below = np.nextafter(10.0 ** np.arange(-6, 18), 0.0)
    assert not any(formats.format_float(v).lstrip("0.").startswith("1") for v in below)


def test_render_rows_matches_template_on_ties():
    # 1 + m * 2**-17 with m odd has 18 significant digits ending in 5: a
    # tie at 17 digits, broken to even.  Scaled by powers of two and ten.
    m = np.arange(1, 1 << 17, 2 * 97, dtype=np.float64)
    ties = 1.0 + m * 2.0**-17
    assert all(format(Decimal(t), "f").rstrip("0")[-1] == "5" for t in ties)
    assert all(len(format(Decimal(t), "f").replace(".", "")) == 18 for t in ties)
    scaled = np.concatenate(
        [ties * 2.0**e for e in range(-20, 57)] + [ties * 10.0**e for e in range(-6, 17)]
    )
    assert_renders_as_template(np.concatenate([scaled, -scaled]))


def test_render_rows_matches_template_on_mixed_tables():
    rng = np.random.default_rng(82)
    rows = 700
    values = rng.normal(0.0, 0.3, (rows, 18)) * 10.0 ** rng.integers(-8, 18, (rows, 18))
    labels = ["flat", "sand", "é", "日本語", "a\x00b", "\x00", "z\x00"] * 100
    windows = rng.integers(0, 10**6, (rows, 3))
    empty = ["" if k % 3 else "stone" for k in range(rows)]
    assert_renders_as_template(values, labels)  # features
    assert_renders_as_template(windows, labels)  # predictions
    assert_renders_as_template(labels[:5], windows[:5, :2].astype(np.int64))  # confusion
    assert_renders_as_template(labels[:5], values[:5, :2])  # distances
    assert_renders_as_template(np.arange(rows), values[:, :3], empty)  # eigen
    assert_renders_as_template(np.arange(rows) * 0.25, values[:, 0])  # spectrum
    assert_renders_as_template([""] * rows)


def test_render_rows_kernel_takes_every_in_range_cell(monkeypatch):
    # format_float renders only zeros, non-finite and out-of-range cells, so
    # a block of N(0, 0.3) cells in [1e-6, 1e17) never reaches it.
    block = np.random.default_rng(83).normal(0.0, 0.3, (formats._ROWS, 3))
    assert (np.abs(block) >= 1e-6).all()
    want = template_render_rows(block)

    def refuse(value):
        raise AssertionError(f"{value!r} was rendered by format_float")

    monkeypatch.setattr(formats, "format_float", refuse)
    assert formats._render_rows(block) == want
    with pytest.raises(AssertionError, match="was rendered by format_float"):
        formats._render_rows(np.array([[0.5, 0.0, 0.5]]))


def test_text_cells_with_nul_and_non_ascii_round_trip(tmp_path):
    labels = ["é", "日本語", "a\x00b", "\x00", "z\x00"]
    path = tmp_path / "f.csv"
    write_features(path, np.arange(10.0).reshape(5, 2) / 3.0, ["x", "y"], labels)
    table = read_features(path)
    assert table.labels == labels
    assert path.read_text(encoding="utf-8").endswith(
        template_render_rows(np.arange(10.0).reshape(5, 2) / 3.0, labels)
    )


# ---------------------------------------------------------------- decimal kernel


def kernel_read(monkeypatch, texts, width=3):
    """What _read_block reads for the ``texts``, ``width`` to a row, and the
    texts of the cells it handed to float()."""
    fallback = []
    cell_value = _decimals._cell_value

    def record(cell):
        fallback.append(cell.decode())
        return cell_value(cell)

    body = "".join(",".join(texts[i : i + width]) + "\n" for i in range(0, len(texts), width))
    with monkeypatch.context() as patch:
        patch.setattr(_decimals, "_cell_value", record)
        data = body.encode()
        values = _decimals._read_block(io.BytesIO(data), len(data), width)
    return values, fallback


def test_decimal_kernel_word_constants_are_uint64():
    # numpy 1.x promotes a uint64 scalar times a Python int to float64, and
    # a float64 mask fails the kernel's bitwise steps; every word constant
    # is therefore a uint64 scalar of its own.
    constants = [_decimals._ZEROS, _decimals._NINES, _decimals._TOPS]
    constants += [c for step in _decimals._SUMS for c in step]
    assert all(type(c) is np.uint64 for c in constants)
    assert [int(c) for c in constants[:3]] == [0x3030303030303030, 0x7676767676767676,
                                               0x8080808080808080]


def assert_reads_as_float(monkeypatch, texts, width=3):
    """The cells of the ``texts`` read to the bits float() gives; returns
    the texts handed to float()."""
    texts = list(texts)[: len(texts) // width * width]
    values, fallback = kernel_read(monkeypatch, texts, width)
    assert values is not None
    want = np.array([float(text) for text in texts])
    wrong = np.flatnonzero(values.view(np.uint64) != want.view(np.uint64))
    assert wrong.size == 0, [texts[i] for i in wrong[:5]]
    return fallback


def test_decimal_kernel_reads_17_digit_bit_patterns(monkeypatch):
    rng = np.random.default_rng(84)
    low, high = np.array([1e-6, 1e17]).view(np.int64)
    in_range = rng.integers(low + 1, high, size=60_000).view(np.float64) * rng.choice([-1, 1], 60_000)
    texts = ["0", "-0", "0.0", "-0.0", "1e-06", "-1e-06"] + ["%.17g" % v for v in in_range]
    assert assert_reads_as_float(monkeypatch, texts) == []
    bits = rng.integers(0, 1 << 64, size=30_000, dtype=np.uint64).view(np.float64)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
               np.nextafter(1e-6, 0.0), np.nextafter(1e17, 0.0), 1e17, -1e17]
    beyond = np.concatenate([special, bits[np.isfinite(bits)]])
    fallback = assert_reads_as_float(monkeypatch, ["%.17g" % v for v in beyond])
    assert all(not 1e-6 < abs(float(text)) < 1e17 for text in fallback)
    assert len(fallback) > 20_000  # most full-range doubles lie outside


@pytest.mark.parametrize("digits", range(1, 20))
def test_decimal_kernel_reads_every_precision(monkeypatch, digits):
    rng = np.random.default_rng(85 + digits)
    values = np.concatenate([
        10.0 ** rng.uniform(-8, 19, 6_000) * rng.choice([-1, 1], 6_000),
        rng.normal(0.0, 0.3, 6_000),
    ])
    assert_reads_as_float(monkeypatch, [f"%.{digits}g" % v for v in values])
    assert_reads_as_float(monkeypatch, [repr(float(v)) for v in values[::digits]])


def test_decimal_kernel_reads_neighbours_of_powers_of_ten(monkeypatch):
    values = power_neighbours(-8, 18, steps=8)
    fallback = assert_reads_as_float(monkeypatch, ["%.17g" % v for v in values])
    assert all(not 1e-6 < abs(float(text)) < 1e17 for text in fallback)
    assert_reads_as_float(monkeypatch, [repr(float(v)) for v in values])
    texts = [f"{sign}1{'0' * k}" for k in range(19) for sign in ("", "-")]
    texts += [f"{sign}0.{'0' * k}1" for k in range(22) for sign in ("", "-")]
    assert assert_reads_as_float(monkeypatch, texts) == []


def midpoint(m, e):
    """The exact decimal of (2 * m + 1) * 2**e: for m of 53 bits, the
    midpoint between two adjacent doubles."""
    m, e = 2 * int(m) + 1, int(e)
    return Decimal(m << e) if e >= 0 else Decimal(f"{m * 5**-e}E{e}")


def midpoints(rng, count):
    """Midpoints whose digits D stay below 2**60."""
    m = rng.integers(1 << 52, 1 << 53, size=count)
    return [midpoint(v, e) for v, e in zip(m, rng.integers(-2, 6, size=count))]


def test_decimal_kernel_sends_exact_midpoints_to_float(monkeypatch):
    # Ziv's test refuses every tie; float() breaks it to even.
    ties = midpoints(np.random.default_rng(86), 2_000)
    texts = [format(t, "f") for t in ties] + [format(-t, "f") for t in ties]
    texts += ["9007199254740993", "9007199254740993.0", "4503599627370496.5"]
    texts = texts[: len(texts) // 3 * 3]
    assert assert_reads_as_float(monkeypatch, texts) == texts


def test_decimal_kernel_reads_decimals_next_to_midpoints(monkeypatch):
    # 17 to 19 digits on each side of a midpoint between two doubles near
    # each power of two in [2**-20, 2**56], and one unit from the exact ties.
    rng = np.random.default_rng(87)
    m = rng.integers(1 << 52, 1 << 53, size=3_000)
    texts = []
    for v, e in zip(m, rng.integers(-73, 5, size=3_000)):
        tie = midpoint(v, e)
        for digits in (17, 18, 19):
            unit = Decimal(f"1E{tie.adjusted() + 1 - digits}")
            texts += [format(tie.quantize(unit, rounding), "f")
                      for rounding in (decimal.ROUND_DOWN, decimal.ROUND_UP)]
    for tie in midpoints(rng, 2_000):
        places = -tie.as_tuple().exponent
        unit = Decimal(1).scaleb(-places)
        texts += [format(tie - unit, "f"), format(tie + unit, "f")]
    assert_reads_as_float(monkeypatch, texts)
    assert_reads_as_float(monkeypatch, ["-" + text for text in texts])


def test_decimal_kernel_cells_near_its_pattern(monkeypatch):
    # Cells the kernel's pattern nearly matches: float() reads them, or
    # refuses them and so does the block.
    odd = ["1e5", "1E+05", "1e-5", "1e+5", "+1", " 1", "1 ", "1_0", "5.", ".5", "-.5",
           "1.5e+00", "0" * 30 + "1", "0." + "0" * 25 + "1", "1" * 20, "1" * 19 + ".5",
           "١٢", "-0e-05", "00000000000000000000000.5", "18446744073709551616",
           "1844674407370955161.6", "1" + "0" * 23, "9" * 24, "1152921504606846977"]
    odd += [text + "\r" for text in odd[:3]]
    kernel = {"5.", ".5", "-.5", "1.5e+00", "-0e-05", "1152921504606846977"}
    fallback = assert_reads_as_float(monkeypatch, odd, width=1)
    assert fallback == [text for text in odd if text not in kernel]
    for bad in [".", "-", "-.", "1.2.3", "1..2", "1e+5x", "e+05", "1e+0.5", "1e+.5", "1.e+-5",
                "--1", "1-", "-1-", "0x10", "", "1,2", "nan", "-inf", "1e400", "1\x00", "1e++5"]:
        assert kernel_read(monkeypatch, ["1.5", bad, "2"])[0] is None, bad


def test_dataset_v1_bodies_read_by_kernel(tmp_path, monkeypatch):
    rng = np.random.default_rng(88)
    channels = rng.normal(0.0, 0.3, (6_000, 3)) * 10.0 ** rng.integers(-5, 6, (6_000, 3))
    rows = [f"{k / 720!r}," + ",".join("%.17g" % v for v in row) for k, row in enumerate(channels)]
    path = tmp_path / "v1.csv"
    path.write_text(V1_HEAD + "\n".join(rows) + "\n")
    values, fallback = kernel_read(monkeypatch, ",".join(rows).split(","), width=4)
    assert all(not 1e-6 < abs(float(text)) for text in fallback)
    assert read_outcome(read_dataset, path) == read_outcome(oracle_read_dataset, path)
    assert read_dataset(path).channels.tobytes() == np.ascontiguousarray(channels.T).tobytes()


def test_dataset_reader_kernel_takes_every_in_range_cell(tmp_path, monkeypatch):
    # A simulated 60 s record: only its cells outside (1e-6, 1e17), if any,
    # may reach float(); a kernel that stops applying fails here.  (The
    # double 1e-6 is written 9.9999999999999995e-07, whose k is 23.)
    series = synth.generate(synth.GenSpec(builtin_profile("small_stone"), 60.0, 1440.0, seed=89))
    path = tmp_path / "record.csv"
    write_dataset(path, series)
    cell_value = _decimals._cell_value

    def refuse(cell):
        value = cell_value(cell)
        if value is not None and 1e-6 < abs(value) < 1e17:
            raise AssertionError(f"{cell!r} was read by float()")
        return value

    monkeypatch.setattr(_decimals, "_cell_value", refuse)
    assert read_dataset(path).channels.tobytes() == series.channels.tobytes()
    path.write_text(path.read_text() + " 0.5,0.5,0.5\n")  # padding: the kernel refuses it
    with pytest.raises(AssertionError, match="was read by float"):
        read_dataset(path)
