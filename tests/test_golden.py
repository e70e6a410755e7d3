"""Byte-level pins of every file ghostctl writes.

Each case runs cli.main once and compares the SHA-256 of every file it
wrote with the digest recorded here. A change to any written byte, from
a writer rewrite, a changed float, a reordered block seed or a new summary
key, fails a case; a change that means to alter the output updates the
digest in the same commit and names it as an output-contract change.

Sampled runs depend on numpy's Generator streams, which numpy does not
promise to keep across versions, so their failures name the numpy version.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

import ghostswap.cli as cli

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
        "summary.json": "2e56d5a2f34e5492fb95ad45f4d270149d69a371c9897f877c6fc18c3f938c18",
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
        "summary.json": "d3a6e4066f13603e1e7975af325c6de0178db2822f17740ae214c92e610421c8",
    },
    "image-block-boundary": {
        "analytic.pgm": "4e95d42eedd14a9cfb0c8f4b7d2ec572fc028beb4e1f3c1f7d2ce06c78500ff5",
        "image_records.csv": "de6375b3c1cbbad882ff71c61cc035446f4ad36c8c6bf4f2db5929fca143c7eb",
        "sampled.pgm": "dc7106c7e32c4b4f96dc117c0a38398e1c446ac7cae9a2d928aa4e3ba3ca8f74",
        "summary.json": "a72e82b04fab688cbfa7bf3bb2b90c473a2a3d22b5261b536b4f2db524a9e136",
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
