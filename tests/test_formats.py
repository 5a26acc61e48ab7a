"""On-disk format tests.

Oracles: byte comparison of write -> read -> write, behavioral equality of
reloaded models, handcrafted malformed documents with known offending
line and field positions, and the whole-file dataset reader that numpy's
row-block reader replaced (``oracle_read_dataset``), which must give the
same channel bits or the same error on every document of a corpus.
"""

import json
import tracemalloc

import numpy as np
import pytest

from spokesense import formats
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


def oracle_read_dataset(path):
    """read_dataset as it was before the streaming reader: the whole file
    read as text and split into lines, and the body parsed by _parse_body."""
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
    rate = formats._parse_float(meta["sample_rate_hz"], 1, "sample_rate_hz")
    columns = ["t", "ch1", "ch2", "ch3"] if version == 1 else ["ch1", "ch2", "ch3"]
    if header != columns:
        raise FormatError(
            f"expected header {','.join(columns)!r}, got {','.join(header)!r}", line=header_line
        )
    body = lines[pos + 1 :]
    empty = "dataset has no samples"
    block, _ = formats._parse_body(body, header_line + 1, header, len(header), empty)
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


# (head, body) documents, encoded as UTF-8 unless the body is bytes.  Bodies
# longer than formats._ROWS rows put their fault in a later row block.
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
    # numpy's reader takes plain rows; the cell-by-cell path takes what it
    # refuses, valid (``#`` lines, underscores, blank lines) or not.
    cases = {
        "plain_blocks": (True, True), "v1_t_column_blocks": (True, True),
        "crlf_body": (True, True), "padded_cells": (True, True),
        "trailing_kv_blocks": (False, True), "underscore_late_block": (False, True),
        "blank_late_block": (False, True), "separator_space_late": (False, False),
        "nan_late_block": (False, False), "empty_body": (False, False),
    }
    for name, (numpy_reads, valid) in cases.items():
        path = tmp_path / f"{name}.csv"
        write_document(path, *READER_CORPUS[name])
        with path.open(encoding="utf-8") as fh:
            header = formats._read_document(fh, formats.DATASET_FORMAT)[2]
            assert (formats._read_samples(fh, len(header)) is not None) == numpy_reads, name
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
