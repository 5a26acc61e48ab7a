"""On-disk schemas and their validation.

Text formats only.  CSV documents open with ``# <format-name> v<version>``
followed by ``# key=value`` metadata lines, each key at most once, a header
row, data rows, and optional trailing ``# key=value`` summary lines.  The
one exception is the dataset CSV, whose first line is pinned to
``# sample_rate_hz=<float>``; its version rides in a
``# format=<name> v<version>`` metadata line and files without one are read
as version 1.  JSON documents are written by one writer, ``_write_json``,
which stamps their ``format`` and ``version`` fields and dumps them with
sorted keys; a profile document is its ``TerrainProfile``'s fields.

Each format has its own current version in ``CURRENT_VERSIONS``: writers
write it and readers reject newer ones.  A version is an integer >= 1 in
ASCII digits, checked by one rule for the CSV banner, the dataset's format
line and the JSON ``version`` field.  The dataset is at v2: the header
``ch1,ch2,ch3`` and one row of three cells per sample, sample k sitting at
time k / rate.  Its v1 files are still read: their header is
``t,ch1,ch2,ch3``, and the ``t`` cells are checked like the others and
dropped.  Every other format is at v1.

Every CSV table is written by one writer, ``_write_table``: head lines, a
header row, the rows rendered in blocks of at most ``_BLOCK_CELLS`` cells,
tail lines, each block written to the open file as it is rendered, so no
whole-table string is built.  Every real number is rendered by one rule,
``%.17g``, which round-trips IEEE doubles exactly, so write -> read ->
write is byte-identical; integer cells read as ``str(int)`` does.  The rule
is computed for whole blocks of floats by one exact vectorized kernel
(``_render_floats``); ``%`` renders zeros, non-finite values and
magnitudes outside [1e-6, 1e17) one cell at a time, and the bytes are
those ``%`` gives for every cell.  A file is read as UTF-8 text line by
line up to its header row.  A dataset body is then read as bytes, a block
at a time, into the channel array (``_read_samples``): one exact vectorized
decimal kernel parses its cells, and ``float()`` each cell the kernel
refuses (``_decimals._read_block``), among them the writer's own 17-digit
values below 1e-6.  Every other body, a feature table's or a dataset's
that the kernel refuses (``#`` lines, blank lines, CR-only newlines,
ragged rows, a cell ``float()`` refuses, an empty body), is read by one
streamed row walk, ``_parse_body``, so the accepted files and the values
read are the same on both paths.  It walks the open file a line at a time,
twice: once to decode the body and count its rows, once to fill a
(columns, rows) block, allocated once, with ``float()`` of each cell,
stopping at the line and field of the first fault.  A dataset's channels
are the block's rows as they are; a feature table is its one transposed
copy.  No read holds a body as text.
Every number of a JSON document is read by one checked reader, ``_array``:
JSON numbers only (no booleans), finite and of the expected shape.
Readers raise typed errors with line/field positions and never abort the
process.

Free-text cells (labels, class names) must be encodable as UTF-8 and must
not contain commas, newlines, a leading ``#`` or leading or trailing
whitespace; a ``# layout=`` value may be empty or hold commas and ``#``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ._decimals import _read_block, _times_power
from .errors import FormatError, UnsupportedVersionError, ValidationError, _finite_array
from .signals import Spectrum, TimeSeries
from .svm import BinarySvm, Kernel, PairwiseEntry, Standardizer, SvmModel
from .synth import TerrainProfile, Tonal

DATASET_FORMAT = "spokesense-dataset"
FEATURES_FORMAT = "spokesense-features"
MODEL_FORMAT = "spokesense-model"
PROFILE_FORMAT = "spokesense-profile"
CONFUSION_FORMAT = "spokesense-confusion"
DISTANCES_FORMAT = "spokesense-distances"
EIGEN_FORMAT = "spokesense-eigen"
SPECTRUM_FORMAT = "spokesense-spectrum"
PREDICTIONS_FORMAT = "spokesense-predictions"
# The version each writer writes and the newest each reader accepts.
CURRENT_VERSIONS = {
    DATASET_FORMAT: 2, FEATURES_FORMAT: 1, MODEL_FORMAT: 1, PROFILE_FORMAT: 1, CONFUSION_FORMAT: 1,
    DISTANCES_FORMAT: 1, EIGEN_FORMAT: 1, SPECTRUM_FORMAT: 1, PREDICTIONS_FORMAT: 1,
}


_FLOAT = "%.17g"  # 17 significant digits: exact for IEEE doubles
_SURROGATE = re.compile("[\ud800-\udfff]")  # the only code points UTF-8 cannot encode
_BLOCK_CELLS = 3072  # cells per block of a table written: keeps the float kernel's arrays small
_BODY_BYTES = 1 << 16  # bytes per block of a dataset body read, then to the end of a row


def format_float(value: float) -> str:
    """The one decimal rendering of a real number in CSV."""
    return _FLOAT % float(value)


# A rendered cell is a row of byte slots, the last one its separator; slots
# its text does not use hold _GAP, a byte UTF-8 never holds, and are dropped
# when a block becomes text.  A float cell has _CELL slots: sign, "0.000",
# the 17 digits each followed by a slot for the point, and the exponent.
_GAP = 0xFF
_CELL = 48


@functools.cache
def _kernel_tables() -> SimpleNamespace:
    """The float kernel's tables, built on first use: 8-byte slot words for
    the sign, "0.000" and the lead digit, for each 4-digit group and for
    each decimal exponent -6..17; the trailing zeros of each group; and, per
    (exponent, trailing zeros, sign), the _GAP words of the unused slots."""
    digit = [6, *range(8, 40, 2)]  # slot of digit i; the slot after it holds a point
    gaps = np.full((24, 17, 2, _CELL), _GAP, np.uint8)
    for exponent in range(-6, 18):
        for zeros in range(17):
            kept = 17 - zeros
            if 0 <= exponent < 17:  # ddd.ddd
                point = [digit[exponent] + 1] * (kept > exponent + 1)
                used = digit[: max(kept, exponent + 1)] + point
            elif exponent >= -4:  # 0.000ddd
                used = [1, 2, 3, 4, 5][: 1 - exponent] + digit[:kept]
            else:  # d.ddde-05
                used = digit[:kept] + [7] * (kept > 1) + [40, 41, 42, 43]
            gaps[exponent + 6, zeros, :, used + [_CELL - 1]] = 0
    gaps[:, :, 1, 0] = 0  # the minus sign
    group = np.arange(10000)[:, None]
    groups = np.full((10000, 4, 2), ord("."), np.uint8)  # "d.d.d.d."
    groups[:, :, 0] = ord("0") + group // [1000, 100, 10, 1] % 10

    def words(texts):
        return np.array([text.encode() for text in texts], dtype="S8").view(np.uint64)

    return SimpleNamespace(
        lead=words(f"-0.000{d}." for d in range(10)),
        groups=groups.reshape(-1, 8).view(np.uint64).ravel(),
        exponents=words(f"e{e:+03d}" for e in range(-6, 18)),
        zeros=(group % [10, 100, 1000, 10000] == 0).sum(axis=1),
        gaps=gaps.reshape(-1, _CELL).view(np.uint64),
    )


def _decade_step(hi, lo):
    """+1 where hi + lo < 10**16, -1 where it is >= 10**17, else 0; decided
    on hi and lo, since hi alone rounds across either bound."""
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    return below.astype(np.intp) - above


def _render_floats(x, cells) -> None:
    """The ``%.17g`` texts of the floats ``x`` into the slot rows ``cells``.

    |x| in [1e-6, 1e17) takes 17 digits D = round(|x| * 10**k), with k from
    log10 moved until the exact product lies in [10**16, 10**17); D rounds
    half to even as ``%`` does, since the product's high part is an even
    integer there.  Zeros, non-finite values, the rest of the range and the
    few values whose k would pass 22 are rendered by ``format_float``.
    """
    tables = _kernel_tables()
    a = np.abs(x)
    exact = (a >= 1e-6) & (a < 1e17)
    if not exact.all():
        a = np.where(exact, a, 1.0)
    k = (16.0 - np.floor(np.log10(a))).clip(0, 22).astype(np.intp)
    hi, lo = _times_power(a, k)
    step = _decade_step(hi, lo)
    moved = np.flatnonzero(step)
    if moved.size:  # log10 rounded across a power of ten, or k would pass 22
        k[moved] = (k[moved] + step[moved]).clip(0, 22)
        hi[moved], lo[moved] = _times_power(a[moved], k[moved])
        exact[moved] &= _decade_step(hi[moved], lo[moved]) == 0
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    top = digits == 10**17  # rounded up into the next decade
    digits[top] = 10**16
    exponent = 22 - k + top  # the decimal exponent, plus 6
    lead = digits // 10**16
    upper, lower = np.divmod(digits - lead * 10**16, 10**8)
    g1, g3 = upper // 10**4, lower // 10**4
    g2, g4 = upper - g1 * 10**4, lower - g3 * 10**4
    words = cells.view(np.uint64)
    words[:, 0] = tables.lead[lead]
    for w, group in enumerate((g1, g2, g3, g4), 1):
        words[:, w] = tables.groups[group]
    words[:, 5] = tables.exponents[exponent]
    z = tables.zeros
    zeros = z[g4] + (g4 == 0) * (z[g3] + (g3 == 0) * (z[g2] + (g2 == 0) * z[g1]))
    words |= tables.gaps[(exponent * 17 + zeros) * 2 + np.signbit(x)]
    for i in np.flatnonzero(~exact):
        text = format_float(x[i]).encode()
        cells[i] = _GAP
        cells[i, : len(text)] = np.frombuffer(text, np.uint8)


def _text_cells(texts: list[str]) -> np.ndarray:
    """Slot rows of the ``texts`` as UTF-8, each padded with _GAP."""
    encoded = [text.encode() for text in texts]
    width = max(map(len, encoded)) + 1
    padded = bytearray(b"".join(text.ljust(width, bytes([_GAP])) for text in encoded))
    return np.frombuffer(padded, np.uint8).reshape(-1, width)


def _render_rows(*columns) -> str:
    """One line per row of the ``columns`` side by side, in order.

    A column is a numpy block (1-d for one cell per row), rendered by the
    ``%.17g`` rule of ``format_float`` when it holds floats and as
    ``str(int)`` when it holds integers, or a list of text cells, written
    as they are.  Floats of magnitude in [1e-6, 1e17) are rendered by one
    exact vectorized kernel (``_render_floats``), the others by
    ``format_float``; the bytes are those of ``format_float`` either way.
    """
    blocks = []
    for column in columns:
        if isinstance(column, list):
            cells = _text_cells(column)
        else:
            block = np.asarray(column)
            if block.dtype.kind == "f":
                cells = np.empty((block.size, _CELL), np.uint8)
                _render_floats(block.astype(np.float64, copy=False).reshape(-1), cells)
            else:
                cells = _text_cells(["%d" % v for v in block.reshape(-1).tolist()])
        cells[:, -1] = ord(",")
        blocks.append(cells.reshape(len(column), -1))
    blocks[-1][:, -1] = ord("\n")
    return np.hstack(blocks).tobytes().translate(None, bytes([_GAP])).decode()


def _check_line_text(value: str, what: str) -> str:
    """``value`` as text that a ``# key=value`` line gives back unchanged."""
    if not isinstance(value, str):
        raise ValidationError(f"{what} {value!r} is not text")
    text = str(value)
    if "\n" in text or "\r" in text or text != text.strip() or _SURROGATE.search(text):
        raise ValidationError(f"{what} {text!r} is not UTF-8 or has newlines or outer whitespace")
    return text


def _check_text_cell(value: str, what: str) -> str:
    text = _check_line_text(value, what)
    if text == "" or "," in text or text.startswith("#"):
        raise ValidationError(f"{what} {text!r} is empty or has a comma or a leading '#'")
    return text


def _parse_float(text: str, line: int, field: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise FormatError(f"not a number: {text!r}", line=line, field=field) from exc
    if not math.isfinite(value):
        raise FormatError(f"non-finite value {text!r}", line=line, field=field)
    return value


def _check_format(found, expected_format: str, **position) -> None:
    """Reject another format's document; errors carry ``position``."""
    if found != expected_format:
        raise FormatError(f"expected a {expected_format} document, got {found!r}", **position)


def _check_version(tag: str, expected_format: str, bad_tag: str, **position) -> int:
    """The version n of a tag ``v<n>``: an integer >= 1 in ASCII digits (else
    ``bad_tag``), no newer than the current one; errors carry ``position``.
    Leading zeros are dropped and a tag longer than the current version is
    newer, so no digit string of any length reaches ``int()``."""
    digits = tag[1:].lstrip("0") if tag[1:].isascii() and tag[1:].isdecimal() else ""
    if not digits:
        raise FormatError(bad_tag, **position)
    current = CURRENT_VERSIONS[expected_format]
    if len(digits) > len(str(current)) or int(digits) > current:
        raise UnsupportedVersionError(
            f"{expected_format} version {digits} is newer than supported version {current}",
            **position,
        )
    return int(digits)


@contextlib.contextmanager
def _reading(path):
    """``path`` (text or a ``Path``) open as UTF-8 text with universal
    newlines, as ``Path.read_text`` reads it; a file that cannot be opened
    or decoded raises ``FormatError`` naming ``path`` as given.  The decoder
    reads in chunks and counts offsets from its chunk, so an undecodable
    byte is named by decoding the whole file, at its offset in the file."""
    try:
        with open(Path(path), encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        if isinstance(exc, UnicodeDecodeError):
            try:
                Path(path).read_bytes().decode("utf-8")
            except (OSError, UnicodeDecodeError) as whole:
                exc = whole
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _read_document(fh, expected_format: str):
    """Version, metadata, header cells and header line number of the CSV
    file open as ``fh``, which is left at the first body line.

    Dataset files carry their version in a ``# format=<name> v<version>``
    metadata line instead of a first-line banner, because their first line
    is pinned to ``# sample_rate_hz=<float>``.
    """
    banner = expected_format != DATASET_FORMAT
    line = fh.readline()  # "" only at the end of the file
    if banner:
        if not line:
            raise FormatError("file is empty", line=1)
        first = line.removesuffix("\n")
        parts = first.split()
        if len(parts) != 3 or parts[0] != "#" or not parts[2].startswith("v"):
            raise FormatError(
                f"expected {_banner(expected_format)!r} banner, got {first!r}", line=1
            )
        _check_format(parts[1], expected_format, line=1)
        bad_tag = f"bad version in banner {first!r}"
        version = _check_version(parts[2], expected_format, bad_tag, line=1)
        line = fh.readline()
    meta: dict[str, str] = {}
    pos = int(banner)
    while line.startswith("#"):
        text = line.removesuffix("\n")
        key, sep, value = text[1:].strip().partition("=")
        if not sep:
            raise FormatError(f"bad metadata comment {text!r}", line=pos + 1)
        if key.strip() in meta:
            raise FormatError(f"repeated metadata line {text!r}", line=pos + 1)
        meta[key.strip()] = value
        pos += 1
        line = fh.readline()
    if not banner:
        version = check_format_metadata(meta, expected_format)
    if not line:
        raise FormatError("missing header row", line=pos + 1)
    return version, meta, line.removesuffix("\n").split(","), pos + 1


def _parse_body(fh, first_line: int, columns: list[str], width: int, empty: str):
    """The (columns, rows) float block of the ``columns`` cells of the rows
    of ``width`` cells that ``fh`` holds from its position, line
    ``first_line``, to its end, and the rows' last cells when they are
    labels.

    Blank lines are skipped and ``#`` lines must be ``key=value``.  The body
    is walked a line at a time, twice: the first walk decodes it, counts its
    rows and finds its first bad ``#`` line, raised once the whole body has
    decoded; the second fills the block, allocated once, a column per row,
    and stops at the first faulty line and field.  ``empty`` is the error
    for a body without rows.
    """
    start, lines, rows, fault = fh.tell(), 0, 0, None
    for line in iter(fh.readline, ""):
        text = line.removesuffix("\n")
        if fault is None and text.startswith("#") and "=" not in text:
            fault = FormatError(f"bad trailing comment {text!r}", line=first_line + lines)
        lines += 1
        rows += line[:1] not in ("\n", "#")
    if fault:
        raise fault
    if not rows:
        raise FormatError(empty, line=first_line + lines)
    fh.seek(start)
    block = np.empty((len(columns), rows))
    labels = None if len(columns) == width else []
    row = 0
    for number, line in enumerate(iter(fh.readline, ""), first_line):
        if line[:1] in ("\n", "#"):
            continue
        cells = line.removesuffix("\n").split(",")
        if len(cells) != width:
            raise FormatError(f"expected {width} fields, got {len(cells)}", line=number)
        block[:, row] = [_parse_float(cell, number, name) for name, cell in zip(columns, cells)]
        row += 1
        if labels is not None:
            labels.append(cells[-1])
            if fault is None and not cells[-1]:
                fault = FormatError("empty label", line=number, field="label")
    if fault:
        raise fault
    return block, labels


def _banner(format_name: str) -> str:
    return f"# {format_name} v{CURRENT_VERSIONS[format_name]}"


def check_format_metadata(meta: dict[str, str], expected_format: str) -> int:
    """The version in an optional ``format=<name> v<version>`` metadata
    entry; a file without the entry is version 1.
    """
    if "format" not in meta:
        return 1
    parts = meta["format"].split()
    if len(parts) != 2 or not parts[1].startswith("v"):
        raise FormatError(
            f"bad format metadata {meta['format']!r}; expected "
            f"'{expected_format} v{CURRENT_VERSIONS[expected_format]}'",
            field="format",
        )
    _check_format(parts[0], expected_format, field="format")
    bad_tag = f"bad version in format metadata {meta['format']!r}"
    return _check_version(parts[1], expected_format, bad_tag, field="format")


def _write_text(path, parts) -> None:
    """The strings of ``parts`` written to ``path`` in turn."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


def _write_table(path, head: list[str], header: list[str], *columns, tail=()) -> None:
    """The ``head`` lines, the ``header`` cells, one row per row of the
    ``columns`` (see ``_render_rows``), rendered in blocks of at most
    ``_BLOCK_CELLS`` cells (at least one row), and the ``tail`` lines."""
    rows = max(1, _BLOCK_CELLS // len(header))

    def text():
        yield "".join(f"{line}\n" for line in (*head, ",".join(header)))
        for first in range(0, len(columns[0]), rows):
            yield _render_rows(*(column[first:first + rows] for column in columns))
        yield "".join(f"{line}\n" for line in tail)

    _write_text(path, text())


def _write_json(path, format_name: str, fields: dict) -> None:
    """``fields`` stamped with ``format`` and the current version, as JSON."""
    doc = {**fields, "format": format_name, "version": CURRENT_VERSIONS[format_name]}
    _write_text(path, [json.dumps(doc, sort_keys=True, indent=2) + "\n"])


# ---------------------------------------------------------------- dataset


def write_dataset(path, series: TimeSeries) -> None:
    # The first line is pinned to the sample rate; the version rides in a
    # format metadata line instead of the usual banner.
    head = [f"# sample_rate_hz={format_float(series.sample_rate_hz)}",
            f"# format={DATASET_FORMAT} v{CURRENT_VERSIONS[DATASET_FORMAT]}"]
    if series.label is not None:
        head.append(f"# label={_check_text_cell(series.label, 'label')}")
    _write_table(path, head, ["ch1", "ch2", "ch3"], series.channels.T)


def _read_samples(fh, width: int):
    """The (3, rows) channel block of a dataset body of ``width``-cell rows,
    or None when the body takes the cell-by-cell path: an empty body, a
    text position that is no byte offset, or a block ``_read_block``
    refuses.

    The body is read as bytes.  A first pass counts the rows, so the block
    is allocated once, in the channel-major layout ``TimeSeries`` holds; the
    second reads ``_BODY_BYTES`` and on to the end of a row at a time and
    writes each block's values into their columns.
    """
    start = fh.tell()
    if start >> 64:  # the text decoder holds a carriage return
        return None
    raw = fh.buffer
    raw.seek(start)
    rows, last = 0, b"\n"
    for chunk in iter(lambda: raw.read(_BODY_BYTES), b""):
        rows += np.count_nonzero(np.frombuffer(chunk, np.uint8) == 10)  # bytes.count is slower
        last = chunk[-1:]
    rows += last != b"\n"
    if not rows:
        return None
    raw.seek(start)
    samples = np.empty((3, rows))
    first = 0
    while first < rows:
        values = _read_block(raw, _BODY_BYTES, width)
        if values is None:
            return None
        block = values.reshape(-1, width)
        samples[:, first : first + block.shape[0]] = block[:, -3:].T
        first += block.shape[0]
    return samples


def read_dataset(path) -> TimeSeries:
    path = Path(path)
    with _reading(path) as fh:
        version, meta, header, header_line = _read_document(fh, DATASET_FORMAT)
        if "sample_rate_hz" not in meta:
            raise FormatError("missing '# sample_rate_hz=' metadata", line=header_line)
        rate = _parse_float(meta["sample_rate_hz"], 1, "sample_rate_hz")
        columns = ["t", "ch1", "ch2", "ch3"] if version == 1 else ["ch1", "ch2", "ch3"]
        if header != columns:
            raise FormatError(
                f"expected header {','.join(columns)!r}, got {','.join(header)!r}",
                line=header_line,
            )
        start = fh.tell()
        samples = _read_samples(fh, len(header))
        if samples is None:  # read the body cell by cell, naming its first fault
            fh.seek(start)
            empty = "dataset has no samples"
            block, _ = _parse_body(fh, header_line + 1, header, len(header), empty)
            samples = block if version == 2 else block[1:].copy()  # the t row is not kept
    try:
        return TimeSeries(sample_rate_hz=rate, channels=samples, label=meta.get("label"))
    except ValidationError as exc:
        raise FormatError(f"invalid dataset: {exc}") from exc


# ---------------------------------------------------------------- features


@dataclass(eq=False)
class FeatureTable:
    """In-memory image of a feature CSV."""

    values: np.ndarray
    names: tuple[str, ...]
    labels: list[str] | None
    layout_id: str | None


def write_features(path, values, names, labels=None, layout_id: str | None = None) -> None:
    mat = _finite_array(values, "feature matrix", (None, None))
    names = [_check_text_cell(n, "column name") for n in names]
    if len(names) != mat.shape[1]:
        raise ValidationError(f"{len(names)} names for {mat.shape[1]} columns")
    if "label" in names:
        raise ValidationError("'label' is reserved for the label column")
    columns = [mat]
    if labels is not None:
        labels = [_check_text_cell(v, "label") for v in labels]
        if len(labels) != mat.shape[0]:
            raise ValidationError(f"{len(labels)} labels for {mat.shape[0]} rows")
        columns.append(labels)
        names.append("label")
    layout = [] if layout_id is None else [f"# layout={_check_line_text(layout_id, 'layout id')}"]
    _write_table(path, [_banner(FEATURES_FORMAT), *layout], names, *columns)


def read_features(path) -> FeatureTable:
    path = Path(path)
    with _reading(path) as fh:
        _, meta, header, header_line = _read_document(fh, FEATURES_FORMAT)
        if "" in header:
            raise FormatError("empty column name in header", line=header_line)
        names = header[:-1] if header[-1] == "label" else header
        if not names:
            raise FormatError("feature file has no feature columns", line=header_line)
        empty = "feature file has no rows"
        block, labels = _parse_body(fh, header_line + 1, names, len(header), empty)
    if "label" in names:
        raise FormatError("'label' is reserved for the label column", line=header_line)
    return FeatureTable(
        values=block.T.copy(), names=tuple(names), labels=labels, layout_id=meta.get("layout")
    )


# ---------------------------------------------------------------- model


def _float_list(values) -> list:
    """(Nested) lists of Python floats, as JSON holds them."""
    return np.asarray(values, dtype=np.float64).tolist()


def write_model(path, model: SvmModel) -> None:
    pairwise = []
    for entry in model.pairwise:
        svm = entry.svm
        params: dict[str, float] = {"c": svm.c}
        if svm.kernel.name == "rbf":
            params["gamma"] = svm.kernel.gamma
        pairwise.append(
            {
                "class_a": entry.class_a,
                "class_b": entry.class_b,
                "kernel": svm.kernel.name,
                "params": params,
                "support_vectors": _float_list(svm.support_vectors),
                "coefficients": _float_list(svm.coefficients),
                "bias": float(svm.bias),
            }
        )
    doc = {
        "feature_layout_id": model.feature_layout_id,
        "class_names": list(model.class_names),
        "standardizer": {
            "means": _float_list(model.standardizer.means),
            "stds": _float_list(model.standardizer.stds),
        },
        "pairwise": pairwise,
    }
    _write_json(path, MODEL_FORMAT, doc)


def _load_json(path, expected_format: str) -> dict:
    with _reading(path) as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}", line=exc.lineno) from exc
    except (ValueError, RecursionError) as exc:  # an integer too long, or nesting too deep
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("top-level JSON value must be an object")
    _check_format(doc.get("format"), expected_format, field="format")
    version = doc.get("version")
    tag = f"v{version}" if type(version) is int else ""  # a bool is no version
    _check_version(tag, expected_format, "'version' must be an integer >= 1", field="version")
    return doc


def _array(value, shape: tuple, field: str, what: str) -> np.ndarray:
    """``value`` as a float array of ``shape``, where ``None`` is any length
    >= 1; only finite JSON numbers in nested lists of that shape pass."""
    dims = ", ".join("n" if n is None else str(n) for n in shape)
    expected = f"finite numbers of shape ({dims})" if shape else "a finite number"
    error = FormatError(f"{field!r} must be {expected} in {what}", field=field)
    items = [value]
    for length in shape:
        if not all(
            isinstance(v, list) and (len(v) >= 1 if length is None else len(v) == length)
            for v in items
        ):
            raise error
        items = [item for v in items for item in v]
    if not all(type(v) in (int, float) for v in items):  # a bool is no number
        raise error
    try:
        arr = np.array(items, dtype=np.float64)
    except OverflowError:  # an integer beyond the double range
        raise error from None
    if not np.isfinite(arr).all():
        raise error
    return arr.reshape([-1 if n is None else n for n in shape])


def _require(doc: dict, key: str, kind, what: str):
    """``doc[key]``, which must be of type ``kind``, or a number (``kind`` is
    ``float``) or float array (``kind`` is a shape) read by ``_array``."""
    if key not in doc:
        raise FormatError(f"missing {key!r} in {what}", field=key)
    value = doc[key]
    if kind is float or isinstance(kind, tuple):
        arr = _array(value, () if kind is float else kind, key, what)
        return float(arr) if kind is float else arr
    if not isinstance(value, kind):
        raise FormatError(f"{key!r} has wrong type in {what}", field=key)
    return value


def read_model(path) -> SvmModel:
    doc = _load_json(path, MODEL_FORMAT)
    layout_id = _require(doc, "feature_layout_id", str, "model")
    class_names = _require(doc, "class_names", list, "model")
    if any(not isinstance(n, str) for n in class_names):
        raise FormatError("class_names must be strings", field="class_names")
    if len(class_names) < 2 or len(set(class_names)) != len(class_names):
        raise FormatError("class_names must hold at least 2 unique names", field="class_names")
    std_doc = _require(doc, "standardizer", dict, "model")
    means = _require(std_doc, "means", (None,), "standardizer")
    stds = _require(std_doc, "stds", means.shape, "standardizer")
    if np.any(stds <= 0.0):
        raise FormatError("standardizer stds must be positive", field="stds")
    entries = _require(doc, "pairwise", list, "model")
    expected_pairs = set(itertools.combinations(class_names, 2))
    seen: set[tuple[str, str]] = set()
    pairwise = []
    for k, entry_doc in enumerate(entries):
        what = f"pairwise[{k}]"
        if not isinstance(entry_doc, dict):
            raise FormatError(f"{what} must be an object", field="pairwise")
        class_a = _require(entry_doc, "class_a", str, what)
        class_b = _require(entry_doc, "class_b", str, what)
        if (class_a, class_b) not in expected_pairs:
            raise FormatError(
                f"{what} names unexpected pair ({class_a!r}, {class_b!r})", field="pairwise"
            )
        if (class_a, class_b) in seen:
            raise FormatError(f"{what} duplicates pair ({class_a!r}, {class_b!r})")
        seen.add((class_a, class_b))
        kernel_name = _require(entry_doc, "kernel", str, what)
        params = _require(entry_doc, "params", dict, what)
        c = _require(params, "c", float, what)
        try:
            if kernel_name == "rbf":
                kernel = Kernel("rbf", _require(params, "gamma", float, what))
            else:
                kernel = Kernel(kernel_name)
        except ValidationError as exc:
            raise FormatError(f"bad kernel in {what}: {exc}") from exc
        if c <= 0:
            raise FormatError(f"{what} has non-positive c", field="c")
        sv = _require(entry_doc, "support_vectors", (None, means.shape[0]), what)
        svm = BinarySvm(
            kernel=kernel,
            support_vectors=sv,
            coefficients=_require(entry_doc, "coefficients", sv.shape[:1], what),
            bias=_require(entry_doc, "bias", float, what),
            c=c,
        )
        pairwise.append(PairwiseEntry(class_a=class_a, class_b=class_b, svm=svm))
    if len(seen) != len(expected_pairs):
        raise FormatError(
            f"model lists {len(seen)} class pairs, expected {len(expected_pairs)}"
        )
    return SvmModel(
        standardizer=Standardizer(means=means, stds=stds),
        class_names=tuple(class_names),
        pairwise=pairwise,
        feature_layout_id=layout_id,
    )


# ---------------------------------------------------------------- profile


def write_profile(path, profile: TerrainProfile) -> None:
    _write_json(path, PROFILE_FORMAT, asdict(profile))


def read_profile(path) -> TerrainProfile:
    doc = _load_json(path, PROFILE_FORMAT)
    try:
        tonals = []
        for k, t_doc in enumerate(_require(doc, "tonal_components", list, "profile")):
            what = f"tonal_components[{k}]"
            if not isinstance(t_doc, dict):
                raise FormatError(f"{what} must be an object", field="tonal_components")
            tonals.append(
                Tonal(
                    freq_hz=_require(t_doc, "freq_hz", float, what),
                    amplitude=_require(t_doc, "amplitude", float, what),
                    channel_gains=tuple(_require(t_doc, "channel_gains", (3,), what).tolist()),
                )
            )
        gains = _require(doc, "channel_band_gains", (3, 3), "profile")
        return TerrainProfile(
            name=_require(doc, "name", str, "profile"),
            band_rms=tuple(_require(doc, "band_rms", (3,), "profile").tolist()),
            tonal_components=tuple(tonals),
            impulse_rate_hz=_require(doc, "impulse_rate_hz", float, "profile"),
            impulse_amplitude=_require(doc, "impulse_amplitude", float, "profile"),
            noise_floor_rms=_require(doc, "noise_floor_rms", float, "profile"),
            channel_band_gains=tuple(map(tuple, gains.tolist())),
        )
    except ValidationError as exc:
        raise FormatError(f"invalid profile: {exc}") from exc


# ---------------------------------------------------------------- reports


def write_confusion(path, confusion, mean_trial_accuracy: float) -> None:
    names = [_check_text_cell(n, "class name") for n in confusion.class_names]
    counts = np.asarray(confusion.counts, dtype=np.int64)
    tail = [f"# accuracy={format_float(mean_trial_accuracy)}"]
    _write_table(path, [_banner(CONFUSION_FORMAT)], ["class", *names], names, counts, tail=tail)


def write_distance_report(path, report) -> None:
    names = [_check_text_cell(n, "class name") for n in report.class_names]
    tail = [
        f"# nearest_euclidean={report.nearest_euclidean}",
        f"# nearest_mahalanobis={report.nearest_mahalanobis}",
        f"# metric_divergence={'true' if report.metric_divergence else 'false'}",
    ]
    distances = np.column_stack([report.euclidean, report.mahalanobis])
    header = ["class", "euclidean", "mahalanobis"]
    _write_table(path, [_banner(DISTANCES_FORMAT)], header, names, distances, tail=tail)


def write_eigen_report(path, rows) -> None:
    """Rows of (window_index, EigenSignature, label or None)."""
    rows = list(rows)
    labels = ["" if label is None else _check_text_cell(label, "label") for _, _, label in rows]
    indices = np.array([index for index, _, _ in rows], dtype=np.int64)
    lambdas = np.array([sig.as_tuple() for _, sig, _ in rows], dtype=np.float64).reshape(-1, 3)
    header = ["window_index", "lambda1", "lambda2", "lambda3", "label"]
    _write_table(path, [_banner(EIGEN_FORMAT)], header, indices, lambdas, labels)


def write_spectrum(path, spectrum: Spectrum) -> None:
    head = [_banner(SPECTRUM_FORMAT),
            f"# bin_resolution_hz={format_float(spectrum.bin_resolution_hz)}"]
    header = ["frequency_hz", "magnitude"]
    _write_table(path, head, header, spectrum.frequencies_hz, spectrum.magnitudes)


def write_predictions(path, rows) -> None:
    """Rows of (window_index, start_index, length, predicted label)."""
    rows = list(rows)
    labels = [_check_text_cell(label, "label") for _, _, _, label in rows]
    windows = np.array([(i, start, n) for i, start, n, _ in rows], dtype=np.int64).reshape(-1, 3)
    header = ["window_index", "start_index", "length", "predicted"]
    _write_table(path, [_banner(PREDICTIONS_FORMAT)], header, windows, labels)
