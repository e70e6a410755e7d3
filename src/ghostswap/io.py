"""Plain-text output formats: CSV tables, PGM images, JSON summaries.

Floats are written with repr so a round trip through text recovers the
exact double. PGM output is plain (P2) with a fixed 16-bit maxval; the
pixel vector is laid out row-major from the bottom-left corner of the
grid, while the PGM raster lists the top row first.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Callable
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "csv_text",
    "write_csv",
    "read_csv",
    "write_pgm",
    "parse_pgm",
    "write_json",
    "image_layout",
    "to_raster",
    "write_image_records",
    "read_image_records",
]

PGM_MAXVAL = 65535

RECORD_COLUMNS = ["pixel_index", "analytic_intensity", "sampled_count", "corrected_count"]


def _format_cell(cell: object) -> str:
    if cell is None:
        return ""
    if isinstance(cell, str):
        text = cell
    elif isinstance(cell, (bool, np.bool_)):
        raise ValueError(f"booleans are not valid cells, got {cell!r}")
    elif isinstance(cell, (int, np.integer)):
        text = str(int(cell))
    elif isinstance(cell, (float, np.floating)):
        text = repr(float(cell))
    else:
        raise ValueError(f"unsupported cell type {type(cell).__name__}")
    if "," in text or "\n" in text or "\r" in text:
        raise ValueError(f"cell {text!r} contains a separator")
    return text


def csv_text(header: list[str], rows) -> str:
    """Comma-separated table with a header row and LF line endings."""
    lines = [",".join(_format_cell(name) for name in header)]
    for row in rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def write_csv(path: str | Path, header: list[str], rows) -> None:
    Path(path).write_text(csv_text(header, rows), encoding="ascii")


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows as raw strings; cells keep their textual form."""
    with open(path, newline="", encoding="ascii") as handle:
        reader = csv.reader(handle)
        table = [row for row in reader if row]
    if not table:
        raise ValueError(f"{path} is empty")
    return table[0], table[1:]


def image_layout(d: int, square: bool = False) -> tuple[int, int]:
    """Grid shape for a d-pixel image: 1 x d, or sqrt(d) x sqrt(d)."""
    if square:
        side = math.isqrt(d)
        if side * side != d:
            raise ValueError(f"square layout needs a square pixel count, got {d}")
        return side, side
    return 1, d


def to_raster(pixels: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Reshape a bottom-left row-major pixel vector to top-first raster rows."""
    pixels = np.asarray(pixels)
    height, width = shape
    if height * width != pixels.size:
        raise ValueError(f"{pixels.size} pixels do not fill a {height}x{width} grid")
    return pixels.reshape(height, width)[::-1]


def write_pgm(path: str | Path, pixels: np.ndarray, shape: tuple[int, int]) -> float:
    """Plain PGM with the peak pixel mapped to the full 16-bit range.

    Returns the level-per-intensity scale factor (0 for an all-zero
    image) so the quantization can be undone downstream.
    """
    values = np.asarray(pixels, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"expected a 1-D pixel vector, got shape {values.shape}")
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise ValueError("pixels must be finite and nonnegative")
    peak = float(values.max())
    scale = PGM_MAXVAL / peak if peak > 0 else 0.0
    levels = np.rint(values * scale).astype(np.int64)
    raster = to_raster(_texts(levels, str), shape)
    height, width = shape
    lines = [
        "P2",
        f"{width} {height}",
        str(PGM_MAXVAL),
    ]
    lines.extend(map(" ".join, raster.tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
    return scale


def parse_pgm(text: str) -> np.ndarray:
    """Levels of a plain PGM as a (height, width) integer array.

    Comments (# to end of line) and arbitrary whitespace are accepted,
    as the format allows.
    """
    tokens: list[str] = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if not tokens or tokens[0] != "P2":
        raise ValueError("not a plain PGM: missing P2 magic")
    if len(tokens) < 4:
        raise ValueError("truncated PGM header")
    width, height, maxval = (int(t) for t in tokens[1:4])
    if width <= 0 or height <= 0:
        raise ValueError(f"bad PGM size {width}x{height}")
    if not 0 < maxval <= PGM_MAXVAL:
        raise ValueError(f"bad PGM maxval {maxval}")
    samples = tokens[4:]
    if len(samples) != width * height:
        raise ValueError(
            f"expected {width * height} samples, found {len(samples)}"
        )
    levels = np.array([int(t) for t in samples], dtype=np.int64).reshape(height, width)
    if np.any(levels < 0) or np.any(levels > maxval):
        raise ValueError("PGM sample outside 0..maxval")
    return levels


def _coerce_json(value: object) -> object:
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


_JSON_ENCODER = json.JSONEncoder(indent=2, sort_keys=True, default=_coerce_json)


def _json_text(value: object, indent: str) -> str:
    """json.dumps(value, indent=2, sort_keys=True) for a value nested `indent` deep.

    With an indent the standard library encodes in pure Python, one step per
    item. Here dicts with string keys are walked, and 1-D integer arrays and
    lists of plain ints are formatted in one pass; anything else goes to the
    standard encoder, re-indented, so the text is the same.
    """
    inner = indent + "  "
    if isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        members = (
            f"{inner}{encode_basestring_ascii(key)}: {_json_text(value[key], inner)}"
            for key in sorted(value)
        )
        return "{\n" + ",\n".join(members) + "\n" + indent + "}"
    is_int_array = isinstance(value, np.ndarray) and value.dtype.kind in "iu"
    if is_int_array and value.ndim == 1 and value.size:
        items = _texts(value, str).tolist()
    elif isinstance(value, (list, tuple)) and value and set(map(type, value)) == {int}:
        items = map(int.__repr__, value)
    else:
        return _JSON_ENCODER.encode(value).replace("\n", "\n" + indent)
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def write_json(path: str | Path, payload: dict) -> None:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline.

    The text equals json.dumps(payload, indent=2, sort_keys=True) with numpy
    scalars and arrays taken as the Python numbers and lists they hold.
    """
    Path(path).write_text(_json_text(payload, "") + "\n", encoding="ascii")


def _texts(values: np.ndarray, fmt: Callable[[Any], str]) -> np.ndarray:
    """fmt of each value of a 1-D array, as a 1-D object array.

    fmt is called once per distinct int or distinct double bit pattern: the
    columns written here hold few distinct values. Integers whose span is
    at most four times their number are marked in a table indexed by value,
    which costs no sort; other integers, and doubles, go through np.unique.
    Deduplicating doubles on their int64 view keeps -0.0 apart from 0.0 and
    each NaN payload apart.
    """
    if values.dtype.kind in "iu" and values.size:
        # offsets in 64 bits: int8 100 - (-128) wraps in int8, and uint64
        # values past the int64 range stay exact in uint64
        wide = np.uint64 if values.dtype.kind == "u" else np.int64
        low = wide(values.min())
        span = int(values.max()) - int(low)
        if span <= 4 * values.size:
            offsets = values.astype(wide, copy=False) - low
            present = np.zeros(span + 1, dtype=bool)
            present[offsets] = True
            distinct = np.flatnonzero(present).astype(wide)
            table = np.empty(span + 1, dtype=object)
            table[distinct] = list(map(fmt, (distinct + low).tolist()))
            return table[offsets]
    keys = values.view(np.int64) if values.dtype.kind == "f" else values
    distinct, inverse = np.unique(keys, return_inverse=True)
    texts = np.array(list(map(fmt, distinct.view(values.dtype).tolist())), dtype=object)
    return texts[inverse]


# The image table runs to one row per pixel, so it is formatted a column at
# a time. figure2, hom and contrast-curve stay on csv_text, for two reasons
# measured on the benchmark. Tail class: tried on figure2, the columnar
# writer shortened each figure-panel cycle, so a run held 11 or more
# d = 10^5 panels and the tail percentile moved onto them (latency_tail_ms
# 308 -> 804 ms). Check cost: the benchmark reads every output back outside
# its timed window, so a faster writer also means more outputs to check and
# a longer run. The two writers share no logic.
def write_image_records(
    path: str | Path,
    analytic: np.ndarray,
    sampled: np.ndarray | None,
    corrected: np.ndarray | None,
) -> None:
    """Per-pixel table of analytic intensity and (optional) counts.

    Pixel indices are 1-based. The count columns stay blank when no
    sampling was requested. The bytes equal those of csv_text on the same
    cells, but each column is formatted in one pass.
    """
    analytic = np.asarray(analytic, dtype=float)
    if analytic.ndim != 1:
        raise ValueError(f"expected a 1-D analytic vector, got shape {analytic.shape}")
    n = analytic.size
    for name, column in (("sampled", sampled), ("corrected", corrected)):
        if column is not None and np.shape(column) != (n,):
            raise ValueError(f"{name} has shape {np.shape(column)}, expected ({n},)")
    columns = (
        map(str, range(1, n + 1)),
        _texts(analytic, repr).tolist(),
        repeat("", n)
        if sampled is None
        else _texts(np.asarray(sampled, dtype=np.int64), str).tolist(),
        repeat("", n)
        if corrected is None
        else _texts(np.asarray(corrected, dtype=float), repr).tolist(),
    )
    lines = [",".join(RECORD_COLUMNS), *map(",".join, zip(*columns))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_image_records(path: str | Path) -> dict[str, np.ndarray | None]:
    """Inverse of write_image_records; blank columns come back as None.

    A count column is blank on every row or on none, as the first record
    shows. Blank columns are read as one-character text and checked empty
    rather than skipped, so that loadtxt still checks every row for four
    cells.
    """
    kinds = dict(zip(RECORD_COLUMNS, (np.int64, float, np.int64, float)))
    with open(path, encoding="ascii") as handle:
        header = handle.readline().rstrip("\n").split(",")
        if header != RECORD_COLUMNS:
            raise ValueError(f"unexpected header {header}")
        first = handle.readline().rstrip("\n").split(",")
        if first == [""]:
            raise ValueError(f"{path} has no records")
        blank = {name for name, cell in zip(RECORD_COLUMNS[2:], first[2:]) if cell == ""}
        dtype = [(name, "U1" if name in blank else kind) for name, kind in kinds.items()]
        handle.seek(0)
        table = np.loadtxt(handle, dtype=dtype, delimiter=",", comments=None, skiprows=1, ndmin=1)
    records: dict[str, np.ndarray | None] = {}
    for name in RECORD_COLUMNS:
        if name not in blank:
            records[name] = np.ascontiguousarray(table[name])
        elif np.any(table[name] != ""):
            raise ValueError(f"{path}: {name} is blank on only some rows")
        else:
            records[name] = None
    return records
