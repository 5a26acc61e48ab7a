"""Property tests of the CSV readers and writers.

Oracles: the row-by-row readers that the block parser replaced (kept below
as ``OldLines`` and ``old_read_*``, which have since learnt per-format
versions, dataset v2 and the rule that a metadata key appears once), which
must agree with the current readers on every single-fault mutation of a
valid dataset (v1 or v2) or feature document; and exact write -> read ->
write round trips of arbitrary finite doubles, subnormals, -0.0 and +/-max
included.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spokesense.errors import (
    FormatError,
    SpokesenseError,
    UnsupportedVersionError,
    ValidationError,
)
from spokesense.formats import (
    CURRENT_VERSIONS,
    DATASET_FORMAT,
    FEATURES_FORMAT,
    FeatureTable,
    format_float,
    read_dataset,
    read_features,
    write_dataset,
    write_features,
)
from spokesense.features import FeatureConfig
from spokesense.signals import TimeSeries

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
MAX = np.finfo(np.float64).max


# ------------------------------------------------ the row-by-row readers


def old_parse_float(text, line, field):
    try:
        value = float(text)
    except ValueError as exc:
        raise FormatError(f"not a number: {text!r}", line=line, field=field) from exc
    if not np.isfinite(value):
        raise FormatError(f"non-finite value {text!r}", line=line, field=field)
    return value


def old_parse_block(rows, columns, width):
    block = np.empty((len(rows), len(columns)))
    for out_row, (line_no, cells) in enumerate(rows):
        if len(cells) != width:
            raise FormatError(f"expected {width} fields, got {len(cells)}", line=line_no)
        try:
            block[out_row] = [float(cell) for cell in cells[: len(columns)]]
        except ValueError:
            for col, name in enumerate(columns):
                old_parse_float(cells[col], line_no, name)
    bad = np.argwhere(~np.isfinite(block))
    if bad.size:
        (line_no, cells), col = rows[bad[0, 0]], bad[0, 1]
        old_parse_float(cells[col], line_no, columns[col])
    return block


def old_check_document(found, tag, expected_format, bad_tag, **position):
    if found != expected_format:
        raise FormatError(f"expected a {expected_format} document, got {found!r}", **position)
    try:
        version = int(tag[1:])
    except ValueError as exc:
        raise FormatError(bad_tag, **position) from exc
    if version > CURRENT_VERSIONS[expected_format]:
        raise UnsupportedVersionError(
            f"{expected_format} version {version} is newer than supported "
            f"version {CURRENT_VERSIONS[expected_format]}",
            **position,
        )
    return version


def old_check_format_metadata(meta, expected_format):
    if "format" not in meta:
        return 1
    parts = meta["format"].split()
    if len(parts) != 2 or not parts[1].startswith("v"):
        raise FormatError(
            f"bad format metadata {meta['format']!r}; expected "
            f"'{expected_format} v{CURRENT_VERSIONS[expected_format]}'",
            field="format",
        )
    bad_tag = f"bad version in format metadata {meta['format']!r}"
    return old_check_document(parts[0], parts[1], expected_format, bad_tag, field="format")


class OldLines:
    def __init__(self, path, expected_format, require_banner=True):
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise FormatError(f"cannot read {path}: {exc}") from exc
        self.lines = raw.split("\n")
        if self.lines and self.lines[-1] == "":
            self.lines.pop()
        self.pos = 0
        if require_banner:
            self._read_banner(expected_format)

    def _read_banner(self, expected_format):
        if not self.lines:
            raise FormatError("file is empty", line=1)
        banner = self.lines[0]
        parts = banner.split()
        if len(parts) != 3 or parts[0] != "#" or not parts[2].startswith("v"):
            raise FormatError(
                f"expected '# {expected_format} v{CURRENT_VERSIONS[expected_format]}' banner, "
                f"got {banner!r}",
                line=1,
            )
        bad_tag = f"bad version in banner {banner!r}"
        old_check_document(parts[1], parts[2], expected_format, bad_tag, line=1)
        self.pos = 1

    def metadata(self):
        meta = {}
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            if not line.startswith("#"):
                break
            key, sep, value = line[1:].strip().partition("=")
            if not sep:
                raise FormatError(f"bad metadata comment {line!r}", line=self.pos + 1)
            if key.strip() in meta:
                raise FormatError(f"repeated metadata line {line!r}", line=self.pos + 1)
            meta[key.strip()] = value
            self.pos += 1
        return meta

    def header(self):
        if self.pos >= len(self.lines):
            raise FormatError("missing header row", line=self.pos + 1)
        line_no = self.pos + 1
        self.pos += 1
        return self.lines[line_no - 1].split(","), line_no

    def rows(self):
        data, trailing = [], {}
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            line_no = self.pos + 1
            self.pos += 1
            if line == "":
                continue
            if line.startswith("#"):
                key, sep, value = line[1:].strip().partition("=")
                if not sep:
                    raise FormatError(f"bad trailing comment {line!r}", line=line_no)
                trailing[key.strip()] = value
                continue
            data.append((line_no, line.split(",")))
        return data, trailing


def old_read_dataset(path):
    scanner = OldLines(Path(path), DATASET_FORMAT, require_banner=False)
    meta = scanner.metadata()
    version = old_check_format_metadata(meta, DATASET_FORMAT)
    if "sample_rate_hz" not in meta:
        raise FormatError("missing '# sample_rate_hz=' metadata", line=scanner.pos + 1)
    rate = old_parse_float(meta["sample_rate_hz"], 1, "sample_rate_hz")
    header, header_line = scanner.header()
    expected = {1: ["t", "ch1", "ch2", "ch3"], 2: ["ch1", "ch2", "ch3"]}[version]
    if header != expected:
        raise FormatError(
            f"expected header {','.join(expected)!r}, got {','.join(header)!r}", line=header_line
        )
    rows, _ = scanner.rows()
    if not rows:
        raise FormatError("dataset has no samples", line=scanner.pos + 1)
    block = old_parse_block(rows, header, len(expected))
    samples = np.ascontiguousarray(block[:, len(expected) - 3 :].T)
    try:
        return TimeSeries(sample_rate_hz=rate, channels=samples, label=meta.get("label"))
    except ValidationError as exc:
        raise FormatError(f"invalid dataset: {exc}") from exc


def old_read_features(path):
    scanner = OldLines(Path(path), FEATURES_FORMAT)
    meta = scanner.metadata()
    header, header_line = scanner.header()
    if len(header) < 1 or any(h == "" for h in header):
        raise FormatError("empty column name in header", line=header_line)
    has_labels = header[-1] == "label"
    names = header[:-1] if has_labels else header
    if not names:
        raise FormatError("feature file has no feature columns", line=header_line)
    rows, _ = scanner.rows()
    if not rows:
        raise FormatError("feature file has no rows", line=scanner.pos + 1)
    values = old_parse_block(rows, names, len(header))
    labels = [cells[-1] for _, cells in rows] if has_labels else None
    if labels is not None and "" in labels:
        raise FormatError("empty label", line=rows[labels.index("")][0], field="label")
    return FeatureTable(
        values=values, names=tuple(names), labels=labels, layout_id=meta.get("layout")
    )


# ------------------------------------------------ documents and mutations


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 6))
    channels = np.array(draw(st.lists(FINITE, min_size=3 * n, max_size=3 * n))).reshape(3, n)
    rate = draw(st.sampled_from([1440.0, 720.0, 0.3, 48000.0]))
    label = draw(st.sampled_from([None, "gravel", "wet sand", "a=b"]))
    return TimeSeries(sample_rate_hz=rate, channels=channels, label=label)


@st.composite
def feature_tables(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 4))
    values = np.array(draw(st.lists(FINITE, min_size=rows * cols, max_size=rows * cols)))
    labels = draw(st.sampled_from([None, "abc"]))
    return FeatureTable(
        values=values.reshape(rows, cols),
        names=tuple(f"f{k}" for k in range(cols)),
        labels=None if labels is None else [f"{labels}{i % 2}" for i in range(rows)],
        layout_id=draw(st.sampled_from([None, "layout-1"])),
    )


CELLS = ["abc", "nan", "inf", "", "1_000", " 2 "]
INSERTS = ["", "# k=v", "# loose"]


@st.composite
def single_fault(draw, lines: list[str], header_at: int) -> str:
    """``lines`` (no trailing newline) with one mutation in the header or body."""
    lines = list(lines)
    body = range(header_at + 1, len(lines))
    kinds = ["cell", "drop_comma", "add_comma", "insert", "truncate", "header"]
    kind = draw(st.sampled_from(kinds))
    if kind == "cell":
        at = draw(st.sampled_from(body))
        cells = lines[at].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(CELLS))
        lines[at] = ",".join(cells)
    elif kind == "drop_comma":
        at = draw(st.sampled_from(body))
        commas = [k for k, ch in enumerate(lines[at]) if ch == ","]
        if commas:
            k = draw(st.sampled_from(commas))
            lines[at] = lines[at][:k] + lines[at][k + 1 :]
    elif kind == "add_comma":
        at = draw(st.sampled_from(body))
        k = draw(st.integers(0, len(lines[at])))
        lines[at] = lines[at][:k] + "," + lines[at][k:]
    elif kind == "insert":
        at = draw(st.integers(header_at + 1, len(lines)))
        lines.insert(at, draw(st.sampled_from(INSERTS)))
    elif kind == "truncate":
        lines[-1] = lines[-1][: draw(st.integers(0, len(lines[-1]) - 1))]
        return "\n".join(lines)
    else:
        names = lines[header_at].split(",")
        change = draw(st.sampled_from(["drop", "rename", "empty", "extra", "label"]))
        k = draw(st.integers(0, len(names) - 1))
        if change == "drop":
            del names[k]
        elif change == "rename":
            names[k] = "renamed"
        elif change == "empty":
            names[k] = ""
        elif change == "extra":
            names.insert(k, "extra")
        else:
            names.append("label")
        lines[header_at] = ",".join(names)
    return "\n".join(lines) + "\n"


def outcome(read, path):
    """Everything a reader reports: the error's type, text and position, or
    the bits of what it read."""
    try:
        result = read(path)
    except SpokesenseError as exc:
        return ("error", type(exc), str(exc), exc.line, exc.field)
    if isinstance(result, TimeSeries):
        return ("dataset", result.sample_rate_hz, result.label, result.channels.tobytes())
    return (
        "features", result.values.shape, result.values.tobytes(), result.names,
        result.labels, result.layout_id,
    )


def assert_readers_agree(workdir, write, read, old_read, document, data):
    path = workdir / "document.csv"
    write(path, document)
    lines = path.read_text().split("\n")[:-1]
    header_at = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    text = data.draw(single_fault(lines, header_at))
    path.write_text(text)
    assert outcome(read, path) == outcome(old_read, path), text


def write_dataset_v1(path, series, format_line=True):
    """``series`` in dataset v1, which leads each row with its time t = k / rate."""
    head = [f"# sample_rate_hz={format_float(series.sample_rate_hz)}"]
    head += [f"# format={DATASET_FORMAT} v1"] if format_line else []
    head += [] if series.label is None else [f"# label={series.label}"]
    times = np.arange(series.n_samples) / series.sample_rate_hz
    rows = [",".join(map(format_float, row)) for row in zip(times, *series.channels)]
    path.write_text("\n".join([*head, "t,ch1,ch2,ch3", *rows]) + "\n")


DATASET_WRITERS = {
    "v2": write_dataset,
    "v1": write_dataset_v1,
    "v1_no_format_line": lambda path, series: write_dataset_v1(path, series, format_line=False),
}


@PROPERTY
@given(document=datasets(), version=st.sampled_from(list(DATASET_WRITERS)), data=st.data())
def test_dataset_reader_matches_row_by_row_reader(workdir, document, version, data):
    write = DATASET_WRITERS[version]
    assert_readers_agree(workdir, write, read_dataset, old_read_dataset, document, data)


def write_table(path, table):
    write_features(path, table.values, table.names, labels=table.labels, layout_id=table.layout_id)


@PROPERTY
@given(document=feature_tables(), data=st.data())
def test_features_reader_matches_row_by_row_reader(workdir, document, data):
    assert_readers_agree(workdir, write_table, read_features, old_read_features, document, data)


def test_readers_agree_on_valid_documents(workdir):
    rng = np.random.RandomState(75)
    series = TimeSeries(1440.0, rng.randn(3, 50) * 10.0 ** rng.uniform(-300, 300, (3, 50)), "x")
    path = workdir / "valid.csv"
    outcomes = []
    for write in DATASET_WRITERS.values():
        write(path, series)
        outcomes.append(outcome(read_dataset, path))
        assert outcomes[-1] == outcome(old_read_dataset, path)
    assert outcomes[0][0] == "dataset" and outcomes.count(outcomes[0]) == len(outcomes)
    table = FeatureTable(rng.randn(9, 3), ("a", "b", "c"), [f"r{i}" for i in range(9)], "l")
    write_table(path, table)
    assert outcome(read_features, path) == outcome(old_read_features, path)


# ------------------------------------------------ round trips


EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, MAX, -MAX]


def storable(label):
    """Whether a writer must accept ``label`` as a text cell."""
    return not (label == "" or "," in label or "\n" in label or "\r" in label
                or label.startswith("#") or label != label.strip()
                or any("\ud800" <= ch <= "\udfff" for ch in label))


# Any code point, lone surrogates included (the default alphabet excludes them).
ANY_CHAR = st.characters() | st.characters(categories=["Cs"])


@PROPERTY
@given(
    values=st.lists(FINITE, min_size=3, max_size=30).map(lambda v: v[: len(v) // 3 * 3]),
    rate=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    label=st.one_of(
        st.none(),
        st.text(max_size=8),
        st.text(ANY_CHAR, max_size=8),
        st.sampled_from(["wet ", " wet", "a=b", "\ud800"]),
    ),
)
@example(values=EDGES[:6], rate=5e-324, label="x")
@example(values=EDGES[:6], rate=MAX, label="x")
@example(values=EDGES[1:], rate=1440.0, label="x")
def test_dataset_round_trip_any_finite_doubles(workdir, values, rate, label):
    channels = np.array(values).reshape(3, -1)
    series = TimeSeries(sample_rate_hz=rate, channels=channels, label=label)
    first, second = workdir / "first.csv", workdir / "second.csv"
    first.unlink(missing_ok=True)
    if not (label is None or storable(label)):
        with pytest.raises(ValidationError):
            write_dataset(first, series)
        assert not first.exists()
        return
    write_dataset(first, series)
    loaded = read_dataset(first)
    assert np.array_equal(loaded.channels.view(np.uint64), channels.view(np.uint64))
    assert np.float64(loaded.sample_rate_hz).view(np.uint64) == np.float64(rate).view(np.uint64)
    assert loaded.label == label
    write_dataset(second, loaded)
    assert first.read_bytes() == second.read_bytes()


@PROPERTY
@given(
    values=st.lists(FINITE, min_size=1, max_size=24),
    cols=st.integers(1, 4),
    labelled=st.booleans(),
)
@example(values=EDGES, cols=1, labelled=True)
def test_features_round_trip_any_finite_doubles(workdir, values, cols, labelled):
    rows = max(1, len(values) // cols)
    mat = np.resize(np.array(values), (rows, cols))
    labels = [f"row{i}" for i in range(rows)] if labelled else None
    names = tuple(f"f{k}" for k in range(cols))
    first, second = workdir / "first.csv", workdir / "second.csv"
    write_features(first, mat, names, labels=labels, layout_id="layout-1")
    loaded = read_features(first)
    assert np.array_equal(loaded.values.view(np.uint64), mat.view(np.uint64))
    assert loaded.labels == labels and loaded.names == names
    write_table(second, loaded)
    assert first.read_bytes() == second.read_bytes()


def storable_layout(layout):
    """Whether ``write_features`` must accept ``layout`` as a layout id."""
    return not ("\n" in layout or "\r" in layout or layout != layout.strip()
                or any("\ud800" <= ch <= "\udfff" for ch in layout))


@PROPERTY
@given(layout=st.one_of(st.text(max_size=12), st.text(ANY_CHAR, max_size=8)))
@example(layout=FeatureConfig(include_position_extras=True).layout_id())
@example(layout="")
@example(layout="#a=b,c")
# Once written unchecked: the next two made files the reader rejects, the
# two after read back as "x", and the last raised a bare UnicodeEncodeError
# from a file already opened.
@example(layout="x\ny,z")
@example(layout="a\rb")
@example(layout="x\n# k=v")
@example(layout="x ")
@example(layout="\ud800")
def test_features_layout_id_round_trips_or_is_rejected(workdir, layout):
    path = workdir / "layout.csv"
    path.unlink(missing_ok=True)
    if not storable_layout(layout):
        with pytest.raises(ValidationError):
            write_features(path, [[1.0]], ("a",), layout_id=layout)
        assert not path.exists()
        return
    write_features(path, [[1.0]], ("a",), layout_id=layout)
    assert read_features(path).layout_id == layout


@PROPERTY
@given(value=st.floats())
@example(value=-0.0)
@example(value=5e-324)
@example(value=MAX)
@example(value=-MAX)
def test_format_float_is_17_significant_digits(value):
    assert format_float(value) == format(value, ".17g")
