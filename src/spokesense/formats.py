"""On-disk schemas and their validation.

Text formats only.  CSV documents open with ``# <format-name> v<version>``
followed by ``# key=value`` metadata lines, a header row, data rows, and
optional trailing ``# key=value`` summary lines.  The one exception is the
dataset CSV, whose first line is pinned to ``# sample_rate_hz=<float>``;
its version rides in a ``# format=<name> v<version>`` metadata line and
files without one are read as version 1.  JSON documents carry
``format`` and ``version`` fields and are dumped with sorted keys.

Every real number in CSV is rendered by one rule, ``%.17g``, which
round-trips IEEE doubles exactly, so write -> read -> write is
byte-identical; a table's rows are rendered from one row template.  A
table body is parsed as one block: its rows are joined and split into
cells once, the cells are converted by Python's ``float()`` rule in one
call and checked by one finiteness pass.  Only a faulty body is walked row
by row, to name the line and field of its first fault.  Readers raise
typed errors with line/field positions and never abort the process.

Free-text cells (labels, class names) must be encodable as UTF-8 and must
not contain commas, newlines, a leading ``#`` or leading or trailing
whitespace.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, UnsupportedVersionError, ValidationError
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
CURRENT_VERSION = 1


_FLOAT = "%.17g"  # 17 significant digits: exact for IEEE doubles
_SURROGATE = re.compile("[\ud800-\udfff]")  # the only code points UTF-8 cannot encode


def format_float(value: float) -> str:
    """The one decimal rendering of a real number in CSV."""
    return _FLOAT % float(value)


def _render_rows(block: np.ndarray, labels: list[str] | None = None) -> str:
    """One line per row of ``block``, its cells rendered by ``_FLOAT`` and
    ended by the row's label cell when ``labels`` are given."""
    row = ",".join([_FLOAT] * block.shape[1])
    if labels is not None:
        block = np.column_stack([block.astype(object), labels])
        row += ",%s"
    return (f"{row}\n" * block.shape[0]) % tuple(block.ravel().tolist())


def _check_text_cell(value: str, what: str) -> str:
    text = str(value)
    if (text == "" or "," in text or "\n" in text or "\r" in text or text.startswith("#")
            or text != text.strip() or _SURROGATE.search(text)):
        raise ValidationError(
            f"{what} {text!r} cannot be stored: must be non-empty, encodable as UTF-8 and "
            "free of commas, newlines, a leading '#' and leading or trailing whitespace"
        )
    return text


def _parse_float(text: str, line: int, field: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise FormatError(f"not a number: {text!r}", line=line, field=field) from exc
    if not np.isfinite(value):
        raise FormatError(f"non-finite value {text!r}", line=line, field=field)
    return value


def _check_document(found: str, tag: str, expected_format: str, bad_tag: str, **position) -> None:
    """Reject another format's document, a version tag other than ``v<int>``
    (message ``bad_tag``) or a newer version; errors carry ``position``."""
    if found != expected_format:
        raise FormatError(f"expected a {expected_format} document, got {found!r}", **position)
    try:
        version = int(tag[1:])
    except ValueError as exc:
        raise FormatError(bad_tag, **position) from exc
    if version > CURRENT_VERSION:
        raise UnsupportedVersionError(
            f"{expected_format} version {version} is newer than supported "
            f"version {CURRENT_VERSION}",
            **position,
        )


def _read_document(path: Path, expected_format: str, banner: bool = True):
    """Metadata, header cells, header line number and body lines of a CSV file.

    Dataset files carry their version in a ``# format=<name> v<version>``
    metadata line instead of a first-line banner, because their first line
    is pinned to ``# sample_rate_hz=<float>``; their reader passes
    ``banner=False``.
    """
    try:
        lines = path.read_text(encoding="utf-8").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if lines[-1] == "":
        lines.pop()
    if banner:
        if not lines:
            raise FormatError("file is empty", line=1)
        parts = lines[0].split()
        if len(parts) != 3 or parts[0] != "#" or not parts[2].startswith("v"):
            raise FormatError(
                f"expected '# {expected_format} v{CURRENT_VERSION}' banner, got {lines[0]!r}",
                line=1,
            )
        bad_tag = f"bad version in banner {lines[0]!r}"
        _check_document(parts[1], parts[2], expected_format, bad_tag, line=1)
    meta: dict[str, str] = {}
    pos = int(banner)
    while pos < len(lines) and lines[pos].startswith("#"):
        key, sep, value = lines[pos][1:].strip().partition("=")
        if not sep:
            raise FormatError(f"bad metadata comment {lines[pos]!r}", line=pos + 1)
        meta[key.strip()] = value
        pos += 1
    if not banner:
        check_format_metadata(meta, expected_format)
    if pos == len(lines):
        raise FormatError("missing header row", line=pos + 1)
    return meta, lines[pos].split(","), pos + 1, lines[pos + 1 :]


def _parse_body(lines: list[str], first_line: int, columns: list[str], width: int, empty: str):
    """Float block of the ``columns`` cells of a table body's rows of
    ``width`` cells, and the rows' last cells when they are labels.

    Blank lines are skipped and ``#`` lines must be ``key=value``.  ``lines``
    (the body from line ``first_line`` on) is emptied once joined, so its
    strings are freed before the float conversion.  ``empty`` is the error
    for a body without rows.
    """
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
    # No cell holds a newline but the one the join put at the start of each
    # row after the first, so every row is ``width`` cells wide exactly when
    # the cell count is rows * width and every width-th cell starts a row.
    block = None
    if len(cells) == rows * width and ",".join(cells[width::width]).count("\n") == rows - 1:
        grid = np.array(cells, dtype=object).reshape(rows, width)[:, : len(columns)]
        try:
            block = grid.astype(np.float64)
        except ValueError:
            pass
    if block is None or not np.isfinite(block).all():
        # A fault: walk the rows to name the first faulty line and field.
        for number, row in zip(numbers, ",".join(cells).split(",\n")):
            row_cells = row.split(",")
            if len(row_cells) != width:
                raise FormatError(f"expected {width} fields, got {len(row_cells)}", line=number)
            for name, cell in zip(columns, row_cells):
                _parse_float(cell, number, name)
    if len(columns) == width:
        return block, None
    labels = cells[width - 1 :: width]
    if "" in labels:
        raise FormatError("empty label", line=numbers[labels.index("")], field="label")
    return block, labels


def _banner(format_name: str) -> str:
    return f"# {format_name} v{CURRENT_VERSION}\n"


def check_format_metadata(meta: dict[str, str], expected_format: str) -> None:
    """Validate an optional ``format=<name> v<version>`` metadata entry.

    A file without the entry is treated as version 1.
    """
    if "format" not in meta:
        return
    parts = meta["format"].split()
    if len(parts) != 2 or not parts[1].startswith("v"):
        raise FormatError(
            f"bad format metadata {meta['format']!r}; expected "
            f"'{expected_format} v{CURRENT_VERSION}'",
            field="format",
        )
    bad_tag = f"bad version in format metadata {meta['format']!r}"
    _check_document(parts[0], parts[1], expected_format, bad_tag, field="format")


def _write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------- dataset


def write_dataset(path, series: TimeSeries) -> None:
    # The first line is pinned to the sample rate; the version rides in a
    # format metadata line instead of the usual banner.
    parts = [f"# sample_rate_hz={format_float(series.sample_rate_hz)}\n"]
    parts.append(f"# format={DATASET_FORMAT} v{CURRENT_VERSION}\n")
    if series.label is not None:
        parts.append(f"# label={_check_text_cell(series.label, 'label')}\n")
    parts.append("t,ch1,ch2,ch3\n")
    if not np.isfinite((series.n_samples - 1) / series.sample_rate_hz):
        raise ValidationError(
            f"sample rate {series.sample_rate_hz!r} Hz is too small: time stamps overflow"
        )
    times = np.arange(series.n_samples) / series.sample_rate_hz
    parts.append(_render_rows(np.column_stack([times, series.channels.T])))
    _write_text(path, "".join(parts))


def read_dataset(path) -> TimeSeries:
    meta, header, header_line, body = _read_document(Path(path), DATASET_FORMAT, banner=False)
    if "sample_rate_hz" not in meta:
        raise FormatError("missing '# sample_rate_hz=' metadata", line=header_line)
    rate = _parse_float(meta["sample_rate_hz"], 1, "sample_rate_hz")
    if header != ["t", "ch1", "ch2", "ch3"]:
        raise FormatError(
            f"expected header 't,ch1,ch2,ch3', got {','.join(header)!r}", line=header_line
        )
    block, _ = _parse_body(body, header_line + 1, header, 4, "dataset has no samples")
    samples = np.ascontiguousarray(block[:, 1:].T)
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
    mat = np.asarray(values, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise ValidationError(f"feature matrix must be 2-d and non-empty, got {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValidationError("feature matrix contains non-finite values")
    names = [_check_text_cell(n, "column name") for n in names]
    if len(names) != mat.shape[1]:
        raise ValidationError(f"{len(names)} names for {mat.shape[1]} columns")
    if "label" in names:
        raise ValidationError("'label' is reserved for the label column")
    if labels is not None:
        labels = [_check_text_cell(v, "label") for v in labels]
        if len(labels) != mat.shape[0]:
            raise ValidationError(f"{len(labels)} labels for {mat.shape[0]} rows")
    parts = [_banner(FEATURES_FORMAT)]
    if layout_id is not None:
        parts.append(f"# layout={layout_id}\n")
    header = ",".join(names) + (",label" if labels is not None else "")
    parts.append(header + "\n")
    parts.append(_render_rows(mat, labels))
    _write_text(path, "".join(parts))


def read_features(path) -> FeatureTable:
    meta, header, header_line, body = _read_document(Path(path), FEATURES_FORMAT)
    if "" in header:
        raise FormatError("empty column name in header", line=header_line)
    names = header[:-1] if header[-1] == "label" else header
    if not names:
        raise FormatError("feature file has no feature columns", line=header_line)
    empty = "feature file has no rows"
    values, labels = _parse_body(body, header_line + 1, names, len(header), empty)
    return FeatureTable(
        values=values, names=tuple(names), labels=labels, layout_id=meta.get("layout")
    )


# ---------------------------------------------------------------- model


def _float_list(values) -> list[float]:
    return [float(v) for v in np.asarray(values, dtype=np.float64).ravel()]


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
                "support_vectors": [
                    _float_list(row) for row in svm.support_vectors
                ],
                "coefficients": _float_list(svm.coefficients),
                "bias": float(svm.bias),
            }
        )
    doc = {
        "format": MODEL_FORMAT,
        "version": CURRENT_VERSION,
        "feature_layout_id": model.feature_layout_id,
        "class_names": list(model.class_names),
        "standardizer": {
            "means": _float_list(model.standardizer.means),
            "stds": _float_list(model.standardizer.stds),
        },
        "pairwise": pairwise,
    }
    _write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _load_json(path, expected_format: str) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}", line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise FormatError("top-level JSON value must be an object")
    if doc.get("format") != expected_format:
        raise FormatError(
            f"expected a {expected_format} document, got {doc.get('format')!r}",
            field="format",
        )
    version = doc.get("version")
    if not isinstance(version, int):
        raise FormatError("missing integer 'version'", field="version")
    if version > CURRENT_VERSION:
        raise UnsupportedVersionError(
            f"{expected_format} version {version} is newer than supported "
            f"version {CURRENT_VERSION}",
            field="version",
        )
    return doc


def _require(doc: dict, key: str, kind, what: str):
    if key not in doc:
        raise FormatError(f"missing {key!r} in {what}", field=key)
    value = doc[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise FormatError(f"{key!r} must be a number in {what}", field=key)
        return float(value)
    if not isinstance(value, kind):
        raise FormatError(f"{key!r} has wrong type in {what}", field=key)
    return value


def _finite_vector(values, field: str, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or not np.isfinite(arr).all():
        raise FormatError(f"{field!r} must be a list of finite numbers in {what}", field=field)
    return arr


def read_model(path) -> SvmModel:
    doc = _load_json(path, MODEL_FORMAT)
    layout_id = _require(doc, "feature_layout_id", str, "model")
    class_names = _require(doc, "class_names", list, "model")
    if len(class_names) < 2 or len(set(class_names)) != len(class_names):
        raise FormatError("class_names must hold at least 2 unique names", field="class_names")
    if any(not isinstance(n, str) for n in class_names):
        raise FormatError("class_names must be strings", field="class_names")
    std_doc = _require(doc, "standardizer", dict, "model")
    means = _finite_vector(_require(std_doc, "means", list, "standardizer"), "means", "standardizer")
    stds = _finite_vector(_require(std_doc, "stds", list, "standardizer"), "stds", "standardizer")
    if means.shape != stds.shape or means.shape[0] == 0:
        raise FormatError("standardizer means/stds must be equal-length and non-empty")
    if np.any(stds <= 0.0):
        raise FormatError("standardizer stds must be positive", field="stds")
    width = means.shape[0]
    entries = _require(doc, "pairwise", list, "model")
    expected_pairs = {
        (class_names[a], class_names[b])
        for a in range(len(class_names))
        for b in range(a + 1, len(class_names))
    }
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
        sv_doc = _require(entry_doc, "support_vectors", list, what)
        if not sv_doc:
            raise FormatError(f"{what} has no support vectors")
        sv = np.asarray(sv_doc, dtype=np.float64)
        if sv.ndim != 2 or sv.shape[1] != width or not np.isfinite(sv).all():
            raise FormatError(
                f"{what} support vectors must be finite rows of width {width}"
            )
        coeff = _finite_vector(
            _require(entry_doc, "coefficients", list, what), "coefficients", what
        )
        if coeff.shape[0] != sv.shape[0]:
            raise FormatError(f"{what} has {coeff.shape[0]} coefficients for {sv.shape[0]} vectors")
        bias = _require(entry_doc, "bias", float, what)
        if not np.isfinite(bias) or c <= 0:
            raise FormatError(f"{what} has non-finite bias or non-positive c")
        pairwise.append(
            PairwiseEntry(
                class_a=class_a,
                class_b=class_b,
                svm=BinarySvm(
                    kernel=kernel,
                    support_vectors=sv,
                    coefficients=coeff,
                    bias=float(bias),
                    c=float(c),
                ),
            )
        )
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
    doc = {
        "format": PROFILE_FORMAT,
        "version": CURRENT_VERSION,
        "name": profile.name,
        "band_rms": [float(v) for v in profile.band_rms],
        "tonal_components": [
            {
                "freq_hz": float(t.freq_hz),
                "amplitude": float(t.amplitude),
                "channel_gains": [float(g) for g in t.channel_gains],
            }
            for t in profile.tonal_components
        ],
        "impulse_rate_hz": float(profile.impulse_rate_hz),
        "impulse_amplitude": float(profile.impulse_amplitude),
        "noise_floor_rms": float(profile.noise_floor_rms),
        "channel_band_gains": [[float(g) for g in row] for row in profile.channel_band_gains],
    }
    _write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def read_profile(path) -> TerrainProfile:
    doc = _load_json(path, PROFILE_FORMAT)
    name = _require(doc, "name", str, "profile")
    band_rms = _finite_vector(_require(doc, "band_rms", list, "profile"), "band_rms", "profile")
    if band_rms.shape[0] != 3:
        raise FormatError("band_rms must list 3 values", field="band_rms")
    tonal_docs = _require(doc, "tonal_components", list, "profile")
    tonals = []
    for k, t_doc in enumerate(tonal_docs):
        what = f"tonal_components[{k}]"
        if not isinstance(t_doc, dict):
            raise FormatError(f"{what} must be an object", field="tonal_components")
        gains = _finite_vector(
            _require(t_doc, "channel_gains", list, what), "channel_gains", what
        )
        if gains.shape[0] != 3:
            raise FormatError(f"{what} channel_gains must list 3 values")
        tonals.append(
            (
                _require(t_doc, "freq_hz", float, what),
                _require(t_doc, "amplitude", float, what),
                tuple(float(g) for g in gains),
            )
        )
    gain_doc = _require(doc, "channel_band_gains", list, "profile")
    gain_mat = np.asarray(gain_doc, dtype=np.float64)
    if gain_mat.shape != (3, 3) or not np.isfinite(gain_mat).all():
        raise FormatError("channel_band_gains must be a finite 3x3 matrix", field="channel_band_gains")
    try:
        return TerrainProfile(
            name=name,
            band_rms=tuple(float(v) for v in band_rms),
            tonal_components=tuple(
                Tonal(freq_hz=f, amplitude=a, channel_gains=g) for f, a, g in tonals
            ),
            impulse_rate_hz=_require(doc, "impulse_rate_hz", float, "profile"),
            impulse_amplitude=_require(doc, "impulse_amplitude", float, "profile"),
            noise_floor_rms=_require(doc, "noise_floor_rms", float, "profile"),
            channel_band_gains=tuple(tuple(float(g) for g in row) for row in gain_mat),
        )
    except ValidationError as exc:
        raise FormatError(f"invalid profile: {exc}") from exc


# ---------------------------------------------------------------- reports


def write_confusion(path, confusion, mean_trial_accuracy: float) -> None:
    names = [_check_text_cell(n, "class name") for n in confusion.class_names]
    parts = [_banner(CONFUSION_FORMAT)]
    parts.append("class," + ",".join(names) + "\n")
    for i, name in enumerate(names):
        row = ",".join(str(int(v)) for v in confusion.counts[i])
        parts.append(f"{name},{row}\n")
    parts.append(f"# accuracy={format_float(mean_trial_accuracy)}\n")
    _write_text(path, "".join(parts))


def write_distance_report(path, report) -> None:
    names = [_check_text_cell(n, "class name") for n in report.class_names]
    parts = [_banner(DISTANCES_FORMAT)]
    parts.append("class,euclidean,mahalanobis\n")
    for i, name in enumerate(names):
        parts.append(
            f"{name},{format_float(report.euclidean[i])},"
            f"{format_float(report.mahalanobis[i])}\n"
        )
    parts.append(f"# nearest_euclidean={report.nearest_euclidean}\n")
    parts.append(f"# nearest_mahalanobis={report.nearest_mahalanobis}\n")
    parts.append(f"# metric_divergence={'true' if report.metric_divergence else 'false'}\n")
    _write_text(path, "".join(parts))


def write_eigen_report(path, rows) -> None:
    """Rows of (window_index, EigenSignature, label or None)."""
    parts = [_banner(EIGEN_FORMAT)]
    parts.append("window_index,lambda1,lambda2,lambda3,label\n")
    for index, signature, label in rows:
        text_label = "" if label is None else _check_text_cell(label, "label")
        parts.append(
            f"{int(index)},{format_float(signature.lambda1)},"
            f"{format_float(signature.lambda2)},{format_float(signature.lambda3)},"
            f"{text_label}\n"
        )
    _write_text(path, "".join(parts))


def write_spectrum(path, spectrum: Spectrum) -> None:
    parts = [_banner(SPECTRUM_FORMAT)]
    parts.append(f"# bin_resolution_hz={format_float(spectrum.bin_resolution_hz)}\n")
    parts.append("frequency_hz,magnitude\n")
    parts.append(_render_rows(np.column_stack([spectrum.frequencies_hz, spectrum.magnitudes])))
    _write_text(path, "".join(parts))


def write_predictions(path, rows) -> None:
    """Rows of (window_index, start_index, length, predicted label)."""
    parts = [_banner(PREDICTIONS_FORMAT)]
    parts.append("window_index,start_index,length,predicted\n")
    for index, start, length, label in rows:
        parts.append(f"{int(index)},{int(start)},{int(length)},{_check_text_cell(label, 'label')}\n")
    _write_text(path, "".join(parts))
