"""Round-trip tests for the CSV, PGM, and JSON writers."""

from __future__ import annotations

import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from ghostswap.io import (
    RECORD_COLUMNS,
    csv_text,
    image_layout,
    parse_pgm,
    read_csv,
    read_image_records,
    to_raster,
    write_csv,
    write_image_records,
    write_json,
    write_pgm,
)


def test_csv_floats_survive_a_round_trip(tmp_path):
    path = tmp_path / "values.csv"
    values = [0.1, 1.0 / 3.0, math.pi, 1e-300, 45.0, 6.02214076e23]
    write_csv(path, ["index", "value"], [(k, v) for k, v in enumerate(values)])
    header, rows = read_csv(path)
    assert header == ["index", "value"]
    assert [float(row[1]) for row in rows] == values
    assert [int(row[0]) for row in rows] == list(range(len(values)))


def test_csv_uses_lf_and_leads_with_header(tmp_path):
    path = tmp_path / "values.csv"
    write_csv(path, ["a", "b"], [(1, 2.5)])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw == b"a,b\n1,2.5\n"


def test_csv_blank_cells_for_none(tmp_path):
    path = tmp_path / "values.csv"
    write_csv(path, ["a", "b"], [(1, None), (None, 2)])
    header, rows = read_csv(path)
    assert rows == [["1", ""], ["", "2"]]


def test_csv_rejects_cells_with_separators(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", ["a"], [("1,2",)])


def test_pgm_peak_maps_to_full_scale(tmp_path):
    path = tmp_path / "image.pgm"
    scale = write_pgm(path, np.array([0.0, 0.25, 0.5, 1.0]), (1, 4))
    assert scale == 65535.0
    levels = parse_pgm(path.read_text())
    assert levels.shape == (1, 4)
    assert levels[0, 3] == 65535
    assert levels[0, 0] == 0
    assert levels[0, 1] == round(0.25 * 65535)


def test_pgm_zero_image_has_zero_scale(tmp_path):
    path = tmp_path / "flatzero.pgm"
    scale = write_pgm(path, np.zeros(4), (1, 4))
    assert scale == 0.0
    levels = parse_pgm(path.read_text())
    assert np.all(levels == 0)


def test_pgm_round_trip_within_quantization(tmp_path):
    rng = np.random.default_rng(4)
    pixels = rng.random(9)
    path = tmp_path / "grid.pgm"
    scale = write_pgm(path, pixels, (3, 3))
    levels = parse_pgm(path.read_text())
    recovered = to_raster(pixels, (3, 3))
    assert np.all(np.abs(levels / scale - recovered) <= 0.5 / scale + 1e-12)


def test_raster_rows_start_at_the_top():
    # pixel vectors are row-major from the bottom-left corner, rasters
    # list the top row first
    raster = to_raster(np.array([0.0, 1.0, 2.0, 3.0]), (2, 2))
    assert np.array_equal(raster, np.array([[2.0, 3.0], [0.0, 1.0]]))


def test_pgm_grid_orientation(tmp_path):
    path = tmp_path / "quad.pgm"
    write_pgm(path, np.array([3.0, 1.0, 0.0, 2.0]), (2, 2))
    levels = parse_pgm(path.read_text())
    expected = np.rint(np.array([[0.0, 2.0], [3.0, 1.0]]) * (65535 / 3.0))
    assert np.array_equal(levels, expected)


def test_parse_pgm_tolerates_comments_and_whitespace():
    text = "P2 # magic\n# a comment line\n 2   2\n65535\n0 1\n\n2   3\n"
    levels = parse_pgm(text)
    assert np.array_equal(levels, np.array([[0, 1], [2, 3]]))


def test_parse_pgm_rejects_malformed_input():
    with pytest.raises(ValueError):
        parse_pgm("P5\n1 1\n65535\n0\n")
    with pytest.raises(ValueError):
        parse_pgm("P2\n2 2\n65535\n0 1 2\n")
    with pytest.raises(ValueError):
        parse_pgm("P2\n1 1\n65535\n70000\n")


def test_write_json_is_sorted_and_ends_with_newline(tmp_path):
    path = tmp_path / "summary.json"
    write_json(path, {"zeta": 1, "alpha": {"b": np.float64(0.5), "a": np.int64(3)}})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"alpha"') < text.index('"zeta"')
    parsed = json.loads(text)
    assert parsed["alpha"] == {"a": 3, "b": 0.5}
    assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == text


def test_write_json_serializes_arrays(tmp_path):
    path = tmp_path / "arr.json"
    write_json(path, {"pixels": np.array([1.5, 2.5])})
    assert json.loads(path.read_text())["pixels"] == [1.5, 2.5]


def test_image_layout_shapes():
    assert image_layout(4) == (1, 4)
    assert image_layout(4, square=True) == (2, 2)
    assert image_layout(16, square=True) == (4, 4)
    assert image_layout(7) == (1, 7)
    with pytest.raises(ValueError):
        image_layout(8, square=True)


def test_image_records_round_trip(tmp_path):
    path = tmp_path / "image_records.csv"
    analytic = np.array([0.1, 1.0 / 3.0, 0.25, 0.0])
    sampled = np.array([12, 0, 7, 3])
    corrected = np.array([11.5, 0.0, 6.5, 2.5])
    write_image_records(path, analytic, sampled, corrected)
    records = read_image_records(path)
    assert np.array_equal(records["pixel_index"], np.array([1, 2, 3, 4]))
    assert np.array_equal(records["analytic_intensity"], analytic)
    assert np.array_equal(records["sampled_count"], sampled)
    assert records["sampled_count"].dtype == np.int64
    assert np.array_equal(records["corrected_count"], corrected)


def test_image_records_without_samples(tmp_path):
    path = tmp_path / "analytic_only.csv"
    analytic = np.array([0.5, 0.5])
    write_image_records(path, analytic, None, None)
    header, rows = read_csv(path)
    assert header == ["pixel_index", "analytic_intensity", "sampled_count", "corrected_count"]
    assert all(row[2] == "" and row[3] == "" for row in rows)
    records = read_image_records(path)
    assert records["sampled_count"] is None
    assert records["corrected_count"] is None


def test_image_records_match_the_cell_by_cell_writer(tmp_path):
    # reference: the rows built one cell at a time and written by csv_text
    analytic = np.array([0.0, -0.0, 5e-324, 1 / 3, 1e300, 1 / 3, 0.0, -0.0, 0.1, 0.1])
    sampled = np.array([0, 2**62, 7, 2**63 - 1, 7, 0, 1, 12, 12, 3], dtype=np.int64)
    corrected = np.array([0.0, 2.0**62, 5.2, 1e300, 5.2, 0.0, 5e-324, -0.0, 10.2, 1.2])
    cases = [
        (sampled, corrected),
        (None, None),
        (sampled, None),
        (None, corrected),
    ]
    for k, (counts, floats) in enumerate(cases):
        path = tmp_path / f"records_{k}.csv"
        write_image_records(path, analytic, counts, floats)
        rows = [
            (
                i + 1,
                float(analytic[i]),
                None if counts is None else int(counts[i]),
                None if floats is None else float(floats[i]),
            )
            for i in range(analytic.size)
        ]
        assert path.read_bytes() == csv_text(RECORD_COLUMNS, rows).encode("ascii")


def test_image_records_reject_count_columns_of_the_wrong_length(tmp_path):
    analytic = np.array([0.5, 0.25, 0.25])
    path = tmp_path / "records.csv"
    with pytest.raises(ValueError):
        write_image_records(path, analytic, np.array([1, 2]), None)
    with pytest.raises(ValueError):
        write_image_records(path, analytic, None, np.array([1.0, 2.0, 3.0, 4.0]))
    assert not path.exists()


def _numpy_as_python(value):
    return value.tolist() if isinstance(value, np.ndarray) else value.item()


JSON_PAYLOADS = {
    "empty": {},
    "empty-containers": {"a": {}, "b": [], "c": [[]], "d": {"e": {"f": []}}, "t": ()},
    "nested": {"list": [1, 2.5, "x", None, [3, {"k": [4, 5]}]], "dict": {"z": 1, "a": {"m": 2}}},
    "plain-ints": {"small": [0, 1, -7], "huge": [10**30, -(2**70)], "tuple": (4, 5, 6)},
    "bools-among-ints": {"mixed": [1, True, 0, False], "flags": [True, False]},
    "numpy-scalars": {
        "int64": np.int64(-3),
        "uint8": np.uint8(200),
        "float64": np.float64(0.1),
        "float32": np.float32(0.1),
    },
    "numpy-arrays": {
        "int64": np.arange(-3, 4),
        "int32": np.array([7, 7, -1], dtype=np.int32),
        "uint64": np.array([2**64 - 1, 0], dtype=np.uint64),
        "empty": np.array([], dtype=np.int64),
        "floats": np.array([1.5, -0.0, 5e-324]),
        "matrix": np.array([[1, 2], [3, 4]]),
        "bools": np.array([True, False]),
        "scalar": np.array(9),
    },
    "constants": {
        "true": True,
        "false": False,
        "null": None,
        "nan": float("nan"),
        "inf": float("inf"),
        "-inf": float("-inf"),
        "in-list": [float("nan"), None, float("-inf")],
    },
    "escapes": {
        'quote"back\\slash': "line\nbreak\ttab\r",
        "café": "ünïcødé ☃ \U0001f600",
        "control": "\x00\x1f\x7f",
        "": "",
    },
    "non-string-keys": {"outer": {1: "one", 2: [3]}},
    "big-list": {"mask": [k % 3 for k in range(10**5)]},
    "big-array": {"mask": np.arange(10**5, dtype=np.int64) % 5, "after": 1},
}


@pytest.mark.parametrize("name", JSON_PAYLOADS)
def test_write_json_matches_the_standard_encoder(tmp_path, name):
    # reference: the standard library's encoder, numpy values taken as Python
    payload = JSON_PAYLOADS[name]
    path = tmp_path / "summary.json"
    write_json(path, payload)
    reference = json.dumps(payload, indent=2, sort_keys=True, default=_numpy_as_python)
    assert path.read_bytes() == (reference + "\n").encode("ascii")


def test_write_json_of_an_int_list_beats_the_standard_encoder(tmp_path):
    payload = {"mask": [k % 2 for k in range(10**5)]}
    path = tmp_path / "summary.json"
    ours, reference = [], []
    for _ in range(5):
        start = time.perf_counter()
        write_json(path, payload)
        ours.append(time.perf_counter() - start)
        start = time.perf_counter()
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii")
        reference.append(time.perf_counter() - start)
    assert min(ours) < min(reference)


HEADER = ",".join(RECORD_COLUMNS) + "\n"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(HEADER + "1,0.5,,\n2,0.5,3,\n", id="sampled-blank-then-filled"),
        pytest.param(HEADER + "1,0.5,3,\n2,0.5,,\n", id="sampled-filled-then-blank"),
        pytest.param(HEADER + "1,0.5,,\n2,0.5,,2.5\n", id="corrected-blank-then-filled"),
        pytest.param(HEADER + "1,0.5,3,2.5\n2,0.5,4,\n", id="corrected-filled-then-blank"),
        pytest.param(HEADER + "1,0.5,3,2.5\n2,0.5,4\n", id="short-row"),
        pytest.param(HEADER + "1,0.5,,\n2,0.5,,,\n", id="long-row"),
        pytest.param(HEADER + "1,0.5,3\n", id="short-first-row"),
        pytest.param("pixel_index,analytic,sampled_count,corrected_count\n1,0.5,,\n", id="header"),
        pytest.param(HEADER, id="no-records"),
        pytest.param("", id="empty-file"),
    ],
)
def test_read_image_records_rejects_malformed_tables(tmp_path, text):
    path = tmp_path / "image_records.csv"
    path.write_text(text, encoding="ascii")
    with pytest.raises(ValueError):
        read_image_records(path)


def _bits(values: np.ndarray) -> list[int]:
    return values.view(np.int64).tolist()


def test_image_records_round_trip_is_bit_exact(tmp_path):
    analytic = np.array([-0.0, 5e-324, 1e300, 0.0])
    sampled = np.array([0, 2**63 - 1, 1, 2**62], dtype=np.int64)
    corrected = np.array([5e-324, -0.0, 1e300, 0.1])
    full = [(analytic, sampled, corrected), (analytic, None, corrected), (analytic, sampled, None)]
    one_record = [tuple(None if c is None else c[:1] for c in case) for case in full]
    for k, (floats, counts, corrections) in enumerate(full + one_record):
        path = tmp_path / f"records_{k}.csv"
        write_image_records(path, floats, counts, corrections)
        records = read_image_records(path)
        assert np.array_equal(records["pixel_index"], np.arange(1, floats.size + 1))
        assert _bits(records["analytic_intensity"]) == _bits(floats)
        if counts is None:
            assert records["sampled_count"] is None
        else:
            assert records["sampled_count"].dtype == np.int64
            assert records["sampled_count"].tolist() == counts.tolist()
        if corrections is None:
            assert records["corrected_count"] is None
        else:
            assert _bits(records["corrected_count"]) == _bits(corrections)


def test_read_image_records_memory_stays_bounded(tmp_path):
    # a d = 10^5 table is 2.6 MB of text; the reader's traced peak stays
    # within a few copies of its columns
    d = 10**5
    rng = np.random.default_rng(8)
    sampled = rng.poisson(50.0, d)
    path = tmp_path / "image_records.csv"
    write_image_records(path, rng.random(d), sampled, sampled - 0.5)
    tracemalloc.start()
    try:
        records = read_image_records(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert records["sampled_count"].size == d
    assert peak < 15e6
