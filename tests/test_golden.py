"""Byte-level pins of every file ghostctl writes, and of campaign draws.

Each case runs cli.main once and compares the SHA-256 of every file it
wrote with the digest recorded here. A change to any written byte, from
a writer rewrite, a changed float, a reordered block seed or a new summary
key, fails a case; a change that means to alter the output updates the
digest in the same commit and names it as an output-contract change.

The campaign pins hold sample_campaign's counts as literal arrays and its
contrasts as float.hex strings, so the RNG contract is pinned apart from
the writers.

Sampled runs depend on numpy's Generator streams, which numpy does not
promise to keep across versions, so their failures name the numpy version.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

import ghostswap.cli as cli
from ghostswap.coincidence import CampaignConfig, bootstrap_contrast_sigma, sample_campaign
from ghostswap.hilbert import ObjectMask, Projection

IMAGE_JOB = {
    "dimension": 16,
    "mask": [0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    "family": "anti_symmetric",
    "expected_total": 800,
    "seed": 7,
}
SHOTS_JOB = {
    **{key: value for key, value in IMAGE_JOB.items() if key != "expected_total"},
    "family": "symmetric",
    "shots": 640,
}
HOM_JOB = {
    "dimension": 4,
    "pattern_a": [1, 1, 0, 0],
    "pattern_d": [0, 1, 1, 0],
    "delays": {"start": -2.0, "stop": 2.0, "count": 9},
    "dip_width": 0.7,
}


BLOCK_JOB = {
    "dimension": 2 * 4096 + 5,  # the draws cross two block boundaries
    "mask": "half_on",
    "family": "anti_symmetric",
    "expected_total": 30 * (2 * 4096 + 5),
    "accidental_fraction": 0.05,
    "seed": 11,
}

# name -> (command, job or mask file payload, extra argv, RNG-backed)
CASES = {
    "image-fixed-time": ("image", IMAGE_JOB, [], True),
    "image-fixed-shots": ("image", SHOTS_JOB, [], True),
    "image-accidentals": (
        "image", {**IMAGE_JOB, "accidental_fraction": 0.3, "family": "phi"}, [], True
    ),
    "image-analytic-only": ("image", IMAGE_JOB, ["--analytic-only"], False),
    "image-quadrant-on": (
        "image", {**SHOTS_JOB, "mask": "quadrant_on", "accidental_fraction": 0.1}, [], True
    ),
    "image-block-boundary": ("image", BLOCK_JOB, [], True),
    "figure2-budget": ("figure2", None, ["--dimension", "10", "--budget", "3"], False),
    "figure2-mask": ("figure2", [0, 1, 0, 0, 1, 1, 0], ["--dimension", "7"], False),
    "hom-unsampled": ("hom", HOM_JOB, [], False),
    "hom-sampled": ("hom", {**HOM_JOB, "shots_per_delay": 300, "seed": 3}, [], True),
    "contrast-curve": (
        "contrast-curve", None, ["--d-min", "2", "--d-max", "40", "--budget", "3"], False
    ),
}

DIGESTS = {
    "image-fixed-time": {
        "analytic.pgm": "d195d6fa5546408b8bfc06d7b0a4031df2f44f942a1643f7322d6ac4c1f4be80",
        "image_records.csv": "c39e58e45551d873ad463267c4880debef0e44523f005193ba1012da4dfdb9c0",
        "sampled.pgm": "3b3ac9bf3e0161fdbfad6f5bab6793b65430bf570dabddd05bf253be8b848735",
        "summary.json": "7e0e9ed77a10c0f613d689cf9f55d65b859d489f0b800812f31975140d7ec1c2",
    },
    "image-fixed-shots": {
        "analytic.pgm": "763bd1030ab419e37fb546037d6abb9c04fb8200af9fe12461a8fa36a6ac9db8",
        "image_records.csv": "7094b8898cb2d73037e191a494eb56a2ca2c16eecdd1ea1186debf075f879e87",
        "sampled.pgm": "4329671b3b1d154636c858cbbf82b1a8d6273dafd4cfbce34093ce2d07eef23c",
        "summary.json": "b84b4be1d85adb2a60882e923441b3b9ba0ed3029cd03db52bb5e39f01ad4dce",
    },
    "image-accidentals": {
        "analytic.pgm": "80bc63c0bddf85f3a999abf64f85c6e431ebb0166fbf0ced0dec1bbe2b619b92",
        "image_records.csv": "a08ddd905311977a51b23e4d8848a4797f825f229120d93a2832fa2f49a2e227",
        "sampled.pgm": "2e7c0d9abec490b4ab3e02ff906ce5bba05959ef8486542c08aef6f9aa59bb3d",
        "summary.json": "c4521d30a4c218a5567f8255795b153f946f7b1b9a3ec87f40788a0c1bc04b71",
    },
    "image-analytic-only": {
        "analytic.pgm": "d195d6fa5546408b8bfc06d7b0a4031df2f44f942a1643f7322d6ac4c1f4be80",
        "image_records.csv": "d8943bb32338663fe8f7da05d3d556f6c90f22c191e14986611095f8e78036c1",
        "summary.json": "fd34ce76802a3634c529d10b255eb919346eed83fc8113fbd1d95d55db349bd9",
    },
    "image-quadrant-on": {
        "analytic.pgm": "46455a2657d0cc16e1af31c2651e70bd0ea4fe48e8d641a13bbdd39914d14d67",
        "image_records.csv": "2cadd4e860c0564c765bbeaf4fa3438a971a126d210d3b1ef3391d35306fda7b",
        "sampled.pgm": "5d629ac727806367039fd83ca8eae661e58a983556a74ed042ccdb053b452d51",
        "summary.json": "e0ae4812765463eda417e8ad1a5377446266e6ad997ea51844ce34760ce4907c",
    },
    "image-block-boundary": {
        "analytic.pgm": "4e95d42eedd14a9cfb0c8f4b7d2ec572fc028beb4e1f3c1f7d2ce06c78500ff5",
        "image_records.csv": "de6375b3c1cbbad882ff71c61cc035446f4ad36c8c6bf4f2db5929fca143c7eb",
        "sampled.pgm": "dc7106c7e32c4b4f96dc117c0a38398e1c446ac7cae9a2d928aa4e3ba3ca8f74",
        "summary.json": "a147a98cba760a76b874f764616313a9d394f3bd40cd954940464287f6695453",
    },
    "figure2-budget": {
        "anti_symmetric.csv": "cc4f42fc04481ea97bd63f1fd4a457428c8aec4b0f5cb0f6ee332dffb947aa18",
        "anti_symmetric.pgm": "fef512c1a7a2a83425a2f1c82cbbaabe352325beaa65cd624a84d1cb5fd18146",
        "phi.csv": "a02ce9f13b20d86d4d78e6af181e686680d8930ec4eed246453fd37983d18ed2",
        "phi.pgm": "853f76bc78a0ac816ffb3a751d8dd0265581bdff2d7cc1a7a75867856d7f7675",
        "psi_minus.csv": "cc4f42fc04481ea97bd63f1fd4a457428c8aec4b0f5cb0f6ee332dffb947aa18",
        "psi_minus.pgm": "fef512c1a7a2a83425a2f1c82cbbaabe352325beaa65cd624a84d1cb5fd18146",
        "psi_plus.csv": "cc4f42fc04481ea97bd63f1fd4a457428c8aec4b0f5cb0f6ee332dffb947aa18",
        "psi_plus.pgm": "fef512c1a7a2a83425a2f1c82cbbaabe352325beaa65cd624a84d1cb5fd18146",
        "sum.csv": "9636563e097b309fbcdac5f8ed47b642652632cf2fb13d2400cecfee68713176",
        "sum.pgm": "32e9d5cf5985c73cff7b65c4e87abcaa5edf4e4ff5151f10335c9c95718fbd76",
        "summary.json": "b61c89e90e8012ad171d7784dcb489e3764dab451ad48b8363d8282da4559dc3",
        "symmetric.csv": "5c57c52a06a66fd59cc21117c7d49715a603f05e6a08ea8d9d36d155be52b0f3",
        "symmetric.pgm": "547188746c25ffb142005c8e6cf54ec53a39959c9ccfaa54dc952713b8983a58",
    },
    "figure2-mask": {
        "anti_symmetric.csv": "2e133133394a5a71a0eb4f3095a00853353e70a00f287acdadcaaa7e3ec766b3",
        "anti_symmetric.pgm": "1926b97a7ccefeda7b4ec5fde5ede4cd92419cbccc75963a14243d667ba3240d",
        "phi.csv": "3e2c8a83df23f441746c8a89f92b767556c80fdf7639246489df0e4658c5ced6",
        "phi.pgm": "06ef8ec0b1ef84e5688d1840337701842366ce799118061522f963fe6100e302",
        "psi_minus.csv": "2e133133394a5a71a0eb4f3095a00853353e70a00f287acdadcaaa7e3ec766b3",
        "psi_minus.pgm": "1926b97a7ccefeda7b4ec5fde5ede4cd92419cbccc75963a14243d667ba3240d",
        "psi_plus.csv": "2e133133394a5a71a0eb4f3095a00853353e70a00f287acdadcaaa7e3ec766b3",
        "psi_plus.pgm": "1926b97a7ccefeda7b4ec5fde5ede4cd92419cbccc75963a14243d667ba3240d",
        "sum.csv": "0c38c26ab41a660ddbcc3201f9d7deb724576e152b35327446e92657676976dc",
        "sum.pgm": "411a9fbf15ca0f24752c830612c5d5410bf5313bdd072a5fc95bcde3103c2d84",
        "summary.json": "195f2130f669057f9797bf512beb5dc4b85741bae787d027e3ece7274ea1086f",
        "symmetric.csv": "68381d3f6401bf373872e58504601b95aa2ffc945151d5f4d8f39833a6637aa5",
        "symmetric.pgm": "1a81c2d398614d9b85184f1851f3a97abcaf73d02d5347267ef9d022bfa673f3",
    },
    "hom-unsampled": {
        "hom_scan.csv": "3414d4013f8c1d5d16f48109dd94f05fee2b43b5b349a72601959f962c4d9196",
        "summary.json": "d3c0511a836176db130dcfce0f925195788311fbdd583d25d0af32cfc9a6876f",
    },
    "hom-sampled": {
        "hom_scan.csv": "7c1c38b8094ae89cd297853599d452f00783e26e2a214fcf06ee8f1ecc244bf6",
        "summary.json": "11a5b1ba19a0f242f0d388308a002012be4e479fe0cb230e4623418b566d93b4",
    },
    "contrast-curve": {
        "curve.csv": "41769a0efb3d0754222d9b5233c769218c4dbc8fd63cd89163fea34427273e65",
        "stdout": "41769a0efb3d0754222d9b5233c769218c4dbc8fd63cd89163fea34427273e65",
    },
}


def _run(tmp_path, capsys, command, payload, extra) -> dict[str, str]:
    """Run one case and return the SHA-256 of each file it wrote (and of stdout
    for contrast-curve, which can print its table)."""
    out = tmp_path / "out"
    argv = [command]
    if payload is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        argv += ["--mask", str(path)] if command == "figure2" else [str(path)]
    if command == "contrast-curve":
        out.mkdir()
        assert cli.main([*argv, *extra]) == 0
        digests = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
        argv += ["--out", str(out / "curve.csv")]
    else:
        digests = {}
        argv += ["--out-dir", str(out)]
    assert cli.main([*argv, *extra]) == 0
    digests.update(
        (path.name, hashlib.sha256(path.read_bytes()).hexdigest()) for path in out.iterdir()
    )
    return digests


@pytest.mark.parametrize("name", CASES)
def test_output_bytes_are_pinned(tmp_path, capsys, name):
    command, payload, extra, rng_backed = CASES[name]
    expected = DIGESTS[name]
    digests = _run(tmp_path, capsys, command, payload, extra)
    note = ""
    if rng_backed:
        note = (
            f" (sampled with numpy {np.__version__}; numpy does not promise"
            " Generator streams stable across versions)"
        )
    assert digests == expected, f"{name}: output bytes changed{note}"


# The RNG contract apart from the writers: sample_campaign's counts for
# three seeds per mode at d = 2 and d = 16 with accidental fraction 0.2, and
# float.hex of the raw and the corrected contrast value and sigma.
CAMPAIGN_SETUPS = {
    2: ([1, 0], Projection.SYMMETRIC, 400),
    16: (IMAGE_JOB["mask"], Projection.ANTI_SYMMETRIC, 800),
}

# (mode, d, seed) -> (counts, (raw value, raw sigma), (corrected value, corrected sigma))
CAMPAIGN_PINS = {
    ("fixed_time", 2, 1): (
        [263, 152],
        ("0x1.11e39fc4c7dd7p-2", "0x1.837a765b9fecap-5"),
        ("0x1.534ba75aeff3cp-2", "0x1.e110614872e09p-5"),
    ),
    ("fixed_time", 2, 7): (
        [268, 150],
        ("0x1.21125f8a6956fp-2", "0x1.806309d604f04p-5"),
        ("0x1.657dba51cc7f4p-2", "0x1.dc84813af4af9p-5"),
    ),
    ("fixed_time", 2, 4294967295): (
        [223, 140],
        ("0x1.d44685fe96eb9p-3", "0x1.a293fb207a19bp-5"),
        ("0x1.2c5338fd4945ap-2", "0x1.0d0b05d07199dp-4"),
    ),
    ("fixed_time", 16, 1): (
        [57, 45, 32, 44, 52, 49, 47, 49, 60, 56, 61, 60, 57, 51, 61, 62],
        ("-0x1.5a98d9d67f577p-7", "0x1.36ca965fef436p-8"),
        ("-0x1.abca86af2a1aap-7", "0x1.7fa8de2ff6f08p-8"),
    ),
    ("fixed_time", 16, 7): (
        [60, 44, 47, 41, 38, 53, 41, 54, 56, 57, 51, 40, 66, 53, 43, 56],
        ("-0x1.7e4b17e4b17e6p-7", "0x1.3d4c5d2bf5fecp-8"),
        ("-0x1.ddddddddddde0p-7", "0x1.8cb67b8011cc8p-8"),
    ),
    ("fixed_time", 16, 4294967295): (
        [39, 38, 46, 50, 56, 48, 37, 48, 50, 53, 41, 39, 58, 47, 47, 49],
        ("-0x1.8400ea442cd73p-7", "0x1.484a8bb7a27ddp-8"),
        ("-0x1.edf170209e6f6p-7", "0x1.a20b2e6e5862cp-8"),
    ),
    ("fixed_shots", 2, 1): (
        [255, 145],
        ("0x1.199999999999ap-2", "0x1.89cebbed329fcp-5"),
        ("0x1.6000000000000p-2", "0x1.ed843054420c1p-5"),
    ),
    ("fixed_shots", 2, 7): (
        [251, 149],
        ("0x1.051eb851eb852p-2", "0x1.8c0f1e3fc11a3p-5"),
        ("0x1.4666666666666p-2", "0x1.f0260c2666d80p-5"),
    ),
    ("fixed_shots", 2, 4294967295): (
        [249, 151],
        ("0x1.f5c28f5c28f5cp-3", "0x1.8d1ddcf8b4d89p-5"),
        ("0x1.399999999999ap-2", "0x1.f162aae21bd82p-5"),
    ),
    ("fixed_shots", 16, 1): (
        [45, 45, 29, 48, 53, 56, 42, 56, 59, 66, 46, 36, 47, 52, 69, 51],
        ("-0x1.47ae147ae147bp-6", "0x1.2efe476804669p-8"),
        ("-0x1.999999999999ap-6", "0x1.7b04b2ca37ff7p-8"),
    ),
    ("fixed_shots", 16, 7): (
        [59, 40, 33, 61, 56, 53, 44, 50, 46, 44, 52, 46, 62, 60, 45, 49],
        ("-0x1.f92c5f92c5f94p-7", "0x1.371740d46fb57p-8"),
        ("-0x1.3bbbbbbbbbbbdp-6", "0x1.850613387232ap-8"),
    ),
    ("fixed_shots", 16, 4294967295): (
        [56, 42, 56, 45, 51, 66, 42, 52, 52, 54, 46, 41, 43, 49, 44, 61],
        ("-0x1.0369d0369d038p-7", "0x1.432730a1661a8p-8"),
        ("-0x1.4444444444446p-7", "0x1.93fb6633482ccp-8"),
    ),
}


@pytest.mark.parametrize("key", CAMPAIGN_PINS, ids=lambda key: "-".join(map(str, key)))
def test_campaign_counts_and_contrasts_are_pinned(key):
    mode, d, seed = key
    mask, family, total = CAMPAIGN_SETUPS[d]
    result = sample_campaign(
        CampaignConfig(
            mask=ObjectMask(mask), family=family, mode=mode, total=total,
            accidental_fraction=0.2, seed=seed,
        )
    )
    counts, raw, corrected = CAMPAIGN_PINS[key]
    note = f" (sampled with numpy {np.__version__})"
    assert result.counts.pixels.tolist() == counts, f"{key}: counts changed{note}"
    assert (result.raw_contrast.value.hex(), result.raw_contrast.sigma.hex()) == raw
    assert (
        result.corrected_contrast.value.hex(), result.corrected_contrast.sigma.hex()
    ) == corrected


# float.hex of bootstrap_contrast_sigma with 10^4 resamples. The two-pixel
# cases, bright pixel first, draw the same stream as a per-pixel bootstrap
# did; the d = 16 case pins the draw of the bright and dark totals.
BOOTSTRAP_PINS = {
    ("two-pixel", 2): "0x1.c4f5716905c33p-5",
    ("two-pixel", 77): "0x1.bbb983fe82d0ep-5",
    ("d16", 3): "0x1.36f132b001811p-8",
}
BOOTSTRAP_SETUPS = {
    "two-pixel": ([45, 175], [1, 0]),
    "d16": (CAMPAIGN_PINS[("fixed_time", 16, 1)][0], IMAGE_JOB["mask"]),
}


@pytest.mark.parametrize("key", BOOTSTRAP_PINS, ids=lambda key: "-".join(map(str, key)))
def test_bootstrap_sigma_is_pinned(key):
    name, seed = key
    counts, mask = BOOTSTRAP_SETUPS[name]
    sigma = bootstrap_contrast_sigma(np.array(counts), ObjectMask(mask), resamples=10_000, seed=seed)
    assert sigma.hex() == BOOTSTRAP_PINS[key], f"{key}: bootstrap changed (numpy {np.__version__})"
