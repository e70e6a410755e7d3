"""Validation tests for the JSON job descriptions."""

from __future__ import annotations

import json

import numpy as np
import pytest

from ghostswap.configfile import HomJob, ImageJob, load_hom_job, load_image_job
from ghostswap.errors import ConfigError
from ghostswap.hilbert import Projection


def write_job(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


BASE_IMAGE_JOB = {
    "dimension": 4,
    "mask": [1, 0, 0, 0],
    "family": "anti_symmetric",
    "expected_total": 684,
}


def test_image_job_minimal(tmp_path):
    job = load_image_job(write_job(tmp_path, BASE_IMAGE_JOB))
    assert isinstance(job, ImageJob)
    assert job.mask.values == (1, 0, 0, 0)
    assert job.family is Projection.ANTI_SYMMETRIC
    assert job.mode == "fixed_time"
    assert job.total == 684.0
    assert job.accidental_fraction == 0.0
    assert job.seed == 0
    assert job.out_dir is None
    assert job.mask_preset is None
    assert not job.square_layout


def test_image_job_full(tmp_path):
    payload = {
        "dimension": 4,
        "mask": "quadrant_on",
        "family": "symmetric",
        "mode": "fixed_shots",
        "shots": 1000,
        "accidental_fraction": 0.25,
        "seed": 7,
        "out_dir": "results",
    }
    job = load_image_job(write_job(tmp_path, payload))
    assert job.mask.values == (1, 0, 0, 0)
    assert job.mask_preset == "quadrant_on"
    assert job.square_layout
    assert job.mode == "fixed_shots"
    assert job.total == 1000.0
    assert job.accidental_fraction == 0.25
    assert job.seed == 7
    assert job.out_dir == "results"


def test_image_job_half_on_preset(tmp_path):
    payload = dict(BASE_IMAGE_JOB, dimension=5, mask="half_on")
    job = load_image_job(write_job(tmp_path, payload))
    assert job.mask.values == (1, 1, 1, 0, 0)
    assert not job.square_layout


def test_image_job_campaign_config_round_trip(tmp_path):
    job = load_image_job(write_job(tmp_path, BASE_IMAGE_JOB))
    config = job.campaign_config()
    assert config.mask is job.mask
    assert config.family is job.family
    assert config.total == job.total
    assert config.seed == job.seed


def test_image_job_mode_total_pairing(tmp_path):
    with pytest.raises(ConfigError):
        load_image_job(write_job(tmp_path, {**BASE_IMAGE_JOB, "shots": 10}))
    missing = dict(BASE_IMAGE_JOB)
    del missing["expected_total"]
    with pytest.raises(ConfigError):
        load_image_job(write_job(tmp_path, missing))
    with pytest.raises(ConfigError):
        load_image_job(write_job(tmp_path, {**BASE_IMAGE_JOB, "mode": "fixed_shots"}))
    shots_job = dict(missing, shots=100, mode="fixed_time")
    with pytest.raises(ConfigError):
        load_image_job(write_job(tmp_path, shots_job))


def test_image_job_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="pixel_count"):
        load_image_job(write_job(tmp_path, {**BASE_IMAGE_JOB, "pixel_count": 4}))


def test_image_job_rejects_bad_masks(tmp_path):
    for mask in ([1, 0, 0], [1, 0, 2, 0], "diagonal_on", 7):
        with pytest.raises(ConfigError):
            load_image_job(write_job(tmp_path, {**BASE_IMAGE_JOB, "mask": mask}))
    with pytest.raises(ConfigError):
        load_image_job(
            write_job(tmp_path, {**BASE_IMAGE_JOB, "dimension": 8, "mask": "quadrant_on"})
        )


def test_image_job_rejects_bad_values(tmp_path):
    bad_payloads = [
        {**BASE_IMAGE_JOB, "dimension": 1},
        {**BASE_IMAGE_JOB, "dimension": "four"},
        {**BASE_IMAGE_JOB, "family": "psi_star"},
        {**BASE_IMAGE_JOB, "expected_total": 0},
        {**BASE_IMAGE_JOB, "expected_total": -5},
        {**BASE_IMAGE_JOB, "accidental_fraction": 1.0},
        {**BASE_IMAGE_JOB, "accidental_fraction": -0.1},
        {**BASE_IMAGE_JOB, "seed": -1},
        {**BASE_IMAGE_JOB, "seed": 1.5},
        {**BASE_IMAGE_JOB, "mode": "until_tired"},
        {**BASE_IMAGE_JOB, "out_dir": 3},
    ]
    for payload in bad_payloads:
        with pytest.raises(ConfigError):
            load_image_job(write_job(tmp_path, payload))


def test_image_job_allows_elementary_families(tmp_path):
    for name in ("psi_minus", "psi_plus", "phi", "symmetric", "anti_symmetric"):
        job = load_image_job(write_job(tmp_path, {**BASE_IMAGE_JOB, "family": name}))
        assert job.family.value == name


def test_image_job_accepts_degenerate_masks(tmp_path):
    # a mask with no dark pixels is loadable; the failure belongs to the
    # contrast stage, not the parser
    job = load_image_job(write_job(tmp_path, {**BASE_IMAGE_JOB, "mask": [1, 1, 1, 1]}))
    assert job.mask.is_degenerate


def test_malformed_file_is_a_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_image_job(path)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_image_job(listy)
    with pytest.raises(ConfigError):
        load_image_job(tmp_path / "missing.json")


def test_undecodable_file_is_a_config_error(tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    huge = tmp_path / "huge.json"
    huge.write_text('{"seed": 1' + "0" * 5000 + "}")
    for path in (binary, huge):
        with pytest.raises(ConfigError):
            load_image_job(path)


BASE_HOM_JOB = {
    "dimension": 2,
    "pattern_a": [1, 0],
    "pattern_d": [0, 1],
    "delays": [-2.0, 0.0, 2.0],
    "dip_width": 1.0,
}


def test_hom_job_minimal(tmp_path):
    job = load_hom_job(write_job(tmp_path, BASE_HOM_JOB))
    assert isinstance(job, HomJob)
    assert job.pattern_a.values == (1, 0)
    assert job.pattern_d.values == (0, 1)
    assert np.array_equal(job.delays, np.array([-2.0, 0.0, 2.0]))
    assert job.dip_width == 1.0
    assert job.shots_per_delay is None
    assert job.seed == 0
    assert job.out_dir is None


def test_hom_job_delay_grid(tmp_path):
    payload = dict(BASE_HOM_JOB, delays={"start": -3.0, "stop": 3.0, "count": 61})
    job = load_hom_job(write_job(tmp_path, payload))
    assert job.delays.size == 61
    assert job.delays[0] == -3.0
    assert job.delays[-1] == 3.0
    assert job.delays[30] == 0.0


def test_hom_job_with_sampling(tmp_path):
    payload = dict(BASE_HOM_JOB, shots_per_delay=500, seed=9, out_dir="scans")
    job = load_hom_job(write_job(tmp_path, payload))
    assert job.shots_per_delay == 500
    assert job.seed == 9
    assert job.out_dir == "scans"


def test_hom_job_rejects_bad_values(tmp_path):
    bad_payloads = [
        {**BASE_HOM_JOB, "pattern_a": [0, 0]},
        {**BASE_HOM_JOB, "pattern_d": [1, 0, 0]},
        {**BASE_HOM_JOB, "delays": []},
        {**BASE_HOM_JOB, "delays": {"start": -1.0, "stop": 1.0}},
        {**BASE_HOM_JOB, "delays": {"start": -1.0, "stop": 1.0, "count": 0}},
        {**BASE_HOM_JOB, "delays": {"start": -1.0, "stop": 1.0, "count": 5, "step": 2}},
        {**BASE_HOM_JOB, "dip_width": 0.0},
        {**BASE_HOM_JOB, "dip_width": -1.0},
        {**BASE_HOM_JOB, "shots_per_delay": 0},
        {**BASE_HOM_JOB, "unexpected": True},
    ]
    for payload in bad_payloads:
        with pytest.raises(ConfigError):
            load_hom_job(write_job(tmp_path, payload))


def test_hom_job_allows_full_patterns(tmp_path):
    payload = dict(BASE_HOM_JOB, pattern_a=[1, 1], pattern_d=[1, 1])
    job = load_hom_job(write_job(tmp_path, payload))
    assert job.pattern_a.budget == 2
