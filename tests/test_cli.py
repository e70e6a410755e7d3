"""End-to-end tests of the ghostctl command line."""

from __future__ import annotations

import json

import numpy as np
import pytest

import ghostswap.cli as cli
from ghostswap.analytic import Image
from ghostswap.coincidence import estimate_contrast
from ghostswap.hilbert import ObjectMask
from ghostswap.io import parse_pgm, read_csv, read_image_records


def write_config(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


IMAGE_JOB = {
    "dimension": 4,
    "mask": [0, 0, 1, 0],
    "family": "anti_symmetric",
    "expected_total": 684,
    "seed": 5,
}


def run_image(tmp_path, payload=IMAGE_JOB, extra=(), subdir="out"):
    config = write_config(tmp_path, payload)
    out_dir = tmp_path / subdir
    code = cli.main(["image", str(config), "--out-dir", str(out_dir), *extra])
    return code, out_dir


def test_image_command_outputs(tmp_path):
    code, out = run_image(tmp_path)
    assert code == 0
    for name in ("image_records.csv", "analytic.pgm", "sampled.pgm", "summary.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["dimension"] == 4
    assert summary["family"] == "anti_symmetric"
    assert summary["seed"] == 5
    assert summary["layout"] == {"height": 1, "width": 4, "origin": "bottom-left"}
    assert summary["contrast"]["analytic"]["value"] == -1.0 / 3.0
    records = read_image_records(out / "image_records.csv")
    total = records["sampled_count"].sum()
    assert total > 0


def test_image_contrast_survives_csv_round_trip(tmp_path):
    code, out = run_image(tmp_path)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    records = read_image_records(out / "image_records.csv")
    mask = ObjectMask(IMAGE_JOB["mask"])
    redone = estimate_contrast(records["sampled_count"], mask)
    assert redone.value == summary["contrast"]["raw"]["value"]
    assert redone.sigma == summary["contrast"]["raw"]["sigma"]


def test_image_pgm_matches_records(tmp_path):
    code, out = run_image(tmp_path)
    summary = json.loads((out / "summary.json").read_text())
    records = read_image_records(out / "image_records.csv")
    levels = parse_pgm((out / "analytic.pgm").read_text())
    scale = summary["pgm_scale"]["analytic"]
    expected = np.rint(records["analytic_intensity"] * scale).astype(np.int64)
    assert np.array_equal(levels[0], expected)


def test_image_command_is_deterministic(tmp_path):
    _, first = run_image(tmp_path, subdir="a")
    _, second = run_image(tmp_path, subdir="b")
    for name in ("image_records.csv", "analytic.pgm", "sampled.pgm", "summary.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_image_seed_flag_overrides_config(tmp_path):
    _, base = run_image(tmp_path, subdir="base")
    code, other = run_image(tmp_path, extra=("--seed", "6"), subdir="other")
    assert code == 0
    a = read_image_records(base / "image_records.csv")["sampled_count"]
    b = read_image_records(other / "image_records.csv")["sampled_count"]
    assert not np.array_equal(a, b)
    assert json.loads((other / "summary.json").read_text())["seed"] == 6


def test_image_analytic_only(tmp_path):
    code, out = run_image(tmp_path, extra=("--analytic-only",))
    assert code == 0
    assert not (out / "sampled.pgm").exists()
    records = read_image_records(out / "image_records.csv")
    assert records["sampled_count"] is None
    assert records["corrected_count"] is None
    summary = json.loads((out / "summary.json").read_text())
    assert summary["contrast"]["raw"] is None
    assert summary["contrast"]["corrected"] is None
    assert summary["analytic_only"] is True


def test_image_quadrant_layout(tmp_path):
    payload = {
        "dimension": 4,
        "mask": "quadrant_on",
        "family": "symmetric",
        "expected_total": 4000,
    }
    code, out = run_image(tmp_path, payload)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["layout"]["height"] == 2
    levels = parse_pgm((out / "analytic.pgm").read_text())
    assert levels.shape == (2, 2)
    # the bright pixel is pixel 1: bottom-left corner, last raster row
    assert levels[1, 0] == 65535


def test_image_degenerate_mask_exits_3(tmp_path):
    payload = dict(IMAGE_JOB, mask=[1, 1, 1, 1])
    code, _ = run_image(tmp_path, payload)
    assert code == 3
    code, _ = run_image(tmp_path, payload, extra=("--analytic-only",))
    assert code == 3


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param({**IMAGE_JOB, "expected_total": 1e-9}, id="no-events"),
        pytest.param(
            {
                **IMAGE_JOB,
                "mask": [1, 0, 0, 0],
                "family": "symmetric",
                "expected_total": 8,
                "accidental_fraction": 0.9,
                "seed": 111,
            },
            id="corrected-to-zero",
        ),
    ],
)
def test_image_empty_draw_exits_3(tmp_path, capsys, payload):
    code, out = run_image(tmp_path, payload)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("ghostctl: undefined contrast: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


def test_image_config_errors_exit_2(tmp_path):
    code, _ = run_image(tmp_path, {**IMAGE_JOB, "surprise": 1})
    assert code == 2
    missing = tmp_path / "never_written.json"
    assert cli.main(["image", str(missing)]) == 2
    code, _ = run_image(tmp_path, IMAGE_JOB, extra=("--seed", "-4"))
    assert code == 2


HOM_JOB = {
    "dimension": 2,
    "pattern_a": [1, 0],
    "pattern_d": [0, 1],
    "delays": [-1.0, 0.0, 1.0],
    "dip_width": 0.5,
}
SHOTS_JOB = {
    **{key: value for key, value in IMAGE_JOB.items() if key != "expected_total"},
    "shots": 10**30,
}
# 400 digits: past float's range, within Python's 4300-digit parsing limit
HUGE = 10**399


@pytest.mark.parametrize(
    "command, payload, extra",
    [
        pytest.param("image", {**IMAGE_JOB, "seed": 5_000_000_000}, (), id="image-job-seed"),
        pytest.param("image", IMAGE_JOB, ("--seed", "5000000000"), id="image-flag-seed"),
        pytest.param("image", {**IMAGE_JOB, "expected_total": 1e30}, (), id="expected-total"),
        pytest.param("image", SHOTS_JOB, (), id="shots"),
        pytest.param("image", {**SHOTS_JOB, "shots": HUGE}, (), id="huge-shots"),
        pytest.param(
            "image", {**IMAGE_JOB, "accidental_fraction": HUGE}, (), id="huge-accidental-fraction"
        ),
        pytest.param(
            "image", {**IMAGE_JOB, "dimension": 10**6 + 1, "mask": "half_on"}, (),
            id="image-dimension-past-cap",
        ),
        pytest.param("hom", {**HOM_JOB, "dimension": 10**9}, (), id="hom-dimension-past-cap"),
        pytest.param("image", {**IMAGE_JOB, "mask": ["1", 0, 0, 0]}, (), id="string-mask"),
        pytest.param("image", {**IMAGE_JOB, "mask": [True, 0, 0, 0]}, (), id="bool-mask"),
        pytest.param("figure2", [True, 0, 0, 0], (), id="figure2-bool-mask"),
        pytest.param("hom", {**HOM_JOB, "pattern_d": [0, True]}, (), id="bool-pattern"),
        pytest.param("hom", {**HOM_JOB, "delays": [float("nan"), 0.0]}, (), id="nan-delay"),
        pytest.param("hom", {**HOM_JOB, "dip_width": HUGE}, (), id="huge-dip-width"),
        pytest.param("hom", {**HOM_JOB, "delays": [0.0, HUGE]}, (), id="huge-delay"),
        pytest.param(
            "hom", {**HOM_JOB, "delays": {"start": -1, "stop": 1, "count": 10**21}}, (),
            id="delay-grid-past-int64",
        ),
        pytest.param(
            "hom", {**HOM_JOB, "delays": {"start": -1, "stop": 1, "count": 10**6 + 1}}, (),
            id="delay-grid-past-cap",
        ),
        pytest.param("hom", {**HOM_JOB, "delays": [0] * (10**6 + 1)}, (), id="delay-list-past-cap"),
        pytest.param(
            "hom", {**HOM_JOB, "seed": 5_000_000_000, "shots_per_delay": 100}, (), id="hom-job-seed"
        ),
        pytest.param("hom", {**HOM_JOB, "shots_per_delay": 100}, ("--seed", "-4"), id="hom-flag-seed"),
        pytest.param(
            "hom", {**HOM_JOB, "shots_per_delay": 100}, ("--seed", "5000000000"), id="hom-flag-big-seed"
        ),
    ],
)
def test_input_boundary_exits_2(tmp_path, capsys, command, payload, extra):
    config = write_config(tmp_path, payload)
    out = tmp_path / "out"
    if command == "figure2":  # the payload is a mask file
        job = ["figure2", "--dimension", str(len(payload)), "--mask", str(config)]
    else:
        job = [command, str(config)]
    code = cli.main([*job, "--out-dir", str(out), *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ghostctl: configuration error: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["figure2", "--dimension", "1000000000", "--budget", "1"], id="figure2-dimension"),
        pytest.param(["figure2", "--dimension", "1000001", "--mask", "unread.json"], id="figure2-mask"),
        pytest.param(
            ["contrast-curve", "--d-min", "2", "--d-max", str(10**12), "--budget", "1"], id="curve-d-max"
        ),
        pytest.param(
            ["contrast-curve", "--d-min", str(10**12), "--d-max", str(10**12), "--budget", "1"],
            id="curve-d-min",
        ),
    ],
)
def test_dimension_flags_past_the_cap_exit_2(tmp_path, capsys, argv):
    # the cap is checked before any mask list or curve row is built
    out = tmp_path / "out"
    flag = "--out" if argv[0] == "contrast-curve" else "--out-dir"
    assert cli.main([*argv, flag, str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ghostctl: configuration error: ") and "at most" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_figure2_outputs_and_identities(tmp_path):
    out = tmp_path / "fig"
    code = cli.main(
        ["figure2", "--dimension", "6", "--budget", "3", "--out-dir", str(out)]
    )
    assert code == 0
    stems = ("psi_minus", "psi_plus", "phi", "anti_symmetric", "symmetric", "sum")
    for stem in stems:
        assert (out / f"{stem}.csv").exists()
        assert (out / f"{stem}.pgm").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert all(summary["identities"].values())
    # identical pixel values must give byte-identical files
    assert (out / "anti_symmetric.csv").read_bytes() == (out / "psi_minus.csv").read_bytes()
    header, rows = read_csv(out / "sum.csv")
    assert header == ["pixel_index", "intensity"]
    flat = {row[1] for row in rows}
    assert flat == {repr(3 / 36)}


def test_figure2_reference_dimension_runs_fast(tmp_path):
    out = tmp_path / "wide"
    code = cli.main(
        ["figure2", "--dimension", "100", "--budget", "20", "--out-dir", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out / "anti_symmetric.csv")
    values = np.array([float(row[1]) for row in rows])
    # frozen: bright pixels (20 - 1) / 20000, dark 20 / 20000
    assert values[0] == 19.0 / 20000.0
    assert values[-1] == 20.0 / 20000.0


def test_figure2_degenerate_budgets_allowed(tmp_path):
    for budget in ("0", "4"):
        out = tmp_path / f"b{budget}"
        code = cli.main(
            ["figure2", "--dimension", "4", "--budget", budget, "--out-dir", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["contrast"] is None


def test_figure2_mask_file(tmp_path):
    mask_path = tmp_path / "mask.json"
    mask_path.write_text("[0, 1, 1, 0]")
    out = tmp_path / "masked"
    code = cli.main(
        ["figure2", "--dimension", "4", "--mask", str(mask_path), "--out-dir", str(out)]
    )
    assert code == 0
    assert json.loads((out / "summary.json").read_text())["budget"] == 2
    conflicting = cli.main(
        [
            "figure2", "--dimension", "4", "--budget", "3",
            "--mask", str(mask_path), "--out-dir", str(tmp_path / "x"),
        ]
    )
    assert conflicting == 2
    wrong_length = cli.main(
        ["figure2", "--dimension", "6", "--mask", str(mask_path), "--out-dir", str(tmp_path / "y")]
    )
    assert wrong_length == 2


def test_figure2_identity_breach_exits_4(tmp_path, monkeypatch):
    real = cli.analytic_image

    def corrupted(mask, family):
        image = real(mask, family)
        if family.value == "phi":
            broken = np.array(image.numerators, dtype=np.int64).copy()
            broken[0] += 1
            return Image.from_rational(broken, image.denominator, family=family)
        return image

    monkeypatch.setattr(cli, "analytic_image", corrupted)
    code = cli.main(
        ["figure2", "--dimension", "4", "--budget", "2", "--out-dir", str(tmp_path / "bad")]
    )
    assert code == 4


def test_hom_command(tmp_path):
    payload = {
        "dimension": 2,
        "pattern_a": [1, 0],
        "pattern_d": [1, 0],
        "delays": {"start": -3.0, "stop": 3.0, "count": 7},
        "dip_width": 1.0,
        "shots_per_delay": 2000,
        "seed": 4,
    }
    config = write_config(tmp_path, payload, "hom.json")
    out = tmp_path / "scan"
    code = cli.main(["hom", str(config), "--out-dir", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["antisymmetric_weight"] == 0.0
    header, rows = read_csv(out / "hom_scan.csv")
    assert header == ["delay", "rate", "sampled_count"]
    assert len(rows) == 7
    middle = rows[3]
    assert float(middle[0]) == 0.0
    assert float(middle[1]) == 0.0
    assert int(middle[2]) == 0


def test_hom_command_analytic_scan(tmp_path):
    payload = {
        "dimension": 2,
        "pattern_a": [1, 0],
        "pattern_d": [0, 1],
        "delays": [-1.0, 0.0, 1.0],
        "dip_width": 0.5,
    }
    config = write_config(tmp_path, payload, "hom.json")
    out = tmp_path / "flat"
    code = cli.main(["hom", str(config), "--out-dir", str(out)])
    assert code == 0
    header, rows = read_csv(out / "hom_scan.csv")
    assert all(row[2] == "" for row in rows)
    rates = np.array([float(row[1]) for row in rows])
    assert np.all(np.abs(rates - 0.5) < 1e-15)


RNG_SCHEME = "SeedSequence(seed).spawn, one PCG64 stream per 4096-draw block"


@pytest.mark.parametrize(
    "command, payload, extra, scheme",
    [
        pytest.param("image", IMAGE_JOB, (), RNG_SCHEME, id="fixed-time"),
        pytest.param("image", {**SHOTS_JOB, "shots": 684}, (), None, id="fixed-shots"),
        pytest.param("image", IMAGE_JOB, ("--analytic-only",), None, id="analytic-only"),
        pytest.param("hom", {**HOM_JOB, "shots_per_delay": 100}, (), RNG_SCHEME, id="hom-sampled"),
        pytest.param("hom", HOM_JOB, (), None, id="hom-unsampled"),
    ],
)
def test_summary_names_the_block_rng_scheme(tmp_path, command, payload, extra, scheme):
    # runs whose draws come in seeded 4096-draw blocks say so; runs that
    # draw nothing that way keep the summary they had before the scheme
    config = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.main([command, str(config), "--out-dir", str(out), *extra]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary.get("rng_scheme") == scheme
    assert ("rng_scheme" in summary) == (scheme is not None)


def test_hom_bad_config_exits_2(tmp_path):
    payload = {"dimension": 2, "pattern_a": [1, 0]}
    config = write_config(tmp_path, payload, "partial.json")
    assert cli.main(["hom", str(config)]) == 2


def test_contrast_curve_to_file(tmp_path):
    out = tmp_path / "curve.csv"
    code = cli.main(
        ["contrast-curve", "--d-min", "2", "--d-max", "6", "--budget", "3", "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["dimension", "anti_symmetric", "symmetric"]
    assert [row[0] for row in rows] == ["2", "3", "4", "5", "6"]
    # dimensions not exceeding the budget have no dark pixels to compare
    assert rows[0][1:] == ["", ""]
    assert rows[1][1:] == ["", ""]
    assert float(rows[2][1]) == -1.0 / 9.0
    assert float(rows[2][2]) == 1.0 / 15.0
    assert float(rows[4][1]) == -1.0 / 15.0


def test_contrast_curve_to_stdout(tmp_path, capsys):
    code = cli.main(["contrast-curve", "--d-min", "2", "--d-max", "3", "--budget", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "dimension,anti_symmetric,symmetric"
    assert lines[1] == f"2,{-1.0!r},{1 / 3!r}"


def test_contrast_curve_bad_ranges_exit_2():
    assert cli.main(["contrast-curve", "--d-min", "1", "--d-max", "3", "--budget", "1"]) == 2
    assert cli.main(["contrast-curve", "--d-min", "4", "--d-max", "3", "--budget", "1"]) == 2
    assert cli.main(["contrast-curve", "--d-min", "2", "--d-max", "3", "--budget", "0"]) == 2
