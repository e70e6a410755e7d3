"""ghostctl: imaging campaigns, family panels, delay scans, contrast curves.

Exit codes: 0 on success, 2 for configuration problems, 3 when contrast
is undefined (no bright or no dark pixels, or counts that sum to zero), 4
when the closed-form family identities fail to hold (which would mean the
library itself is inconsistent).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from ghostswap.analytic import (
    add_images,
    analytic_contrast,
    analytic_image,
)
from ghostswap.coincidence import _NOISE, _RNG_SCHEME, hom_scan, sample_campaign
from ghostswap.configfile import (
    _library_checks,
    _parse_mask,
    _read_json,
    load_hom_job,
    load_image_job,
)
from ghostswap.errors import ConfigError, DegenerateMaskError, ImageConsistencyError
from ghostswap.hilbert import ObjectMask, Projection, validate_dimension
from ghostswap.io import (
    csv_text,
    image_layout,
    write_csv,
    write_image_records,
    write_json,
    write_pgm,
)

__all__ = ["main", "run"]

FIGURE_STEMS = ("psi_minus", "psi_plus", "phi", "anti_symmetric", "symmetric", "sum")


def _out_dir(flag: str | None, config_dir: str | None) -> Path:
    path = Path(flag or config_dir or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        raise ConfigError(f"cannot make output directory {path}: {error.strerror}") from error
    return path


def _contrast_entry(contrast) -> dict | None:
    if contrast is None:
        return None
    return {"value": contrast.value, "sigma": contrast.sigma}


def cmd_image(args: argparse.Namespace) -> int:
    job = load_image_job(args.config)
    if args.seed is not None:
        job = replace(job, seed=args.seed)
    analytic = analytic_image(job.mask, job.family)
    predicted = analytic_contrast(job.mask.d, job.mask.budget, job.family)

    result = None
    if not args.analytic_only:
        result = sample_campaign(job.campaign_config())

    out = _out_dir(args.out_dir, job.out_dir)
    layout = image_layout(job.mask.d, square=job.square_layout)
    height, width = layout

    sampled = corrected = None
    if result is not None:
        sampled = result.counts.pixels
        corrected = result.corrected_counts.pixels
    write_image_records(out / "image_records.csv", analytic.pixels, sampled, corrected)

    scales = {"analytic": write_pgm(out / "analytic.pgm", analytic.pixels, layout)}
    files = ["image_records.csv", "analytic.pgm", "summary.json"]
    if sampled is not None:
        scales["sampled"] = write_pgm(
            out / "sampled.pgm", sampled.astype(float), layout
        )
        files.insert(2, "sampled.pgm")

    summary = {
        "command": "image",
        "dimension": job.mask.d,
        "mask": job.mask.as_array(),
        "mask_preset": job.mask_preset,
        "budget": job.mask.budget,
        "family": job.family.value,
        "mode": job.mode,
        "total": job.total,
        "accidental_fraction": job.accidental_fraction,
        "seed": job.seed,
        "analytic_only": bool(args.analytic_only),
        "layout": {"height": height, "width": width, "origin": "bottom-left"},
        "pgm_scale": scales,
        "contrast": {
            "analytic": _contrast_entry(predicted),
            "raw": _contrast_entry(result.raw_contrast if result else None),
            "corrected": _contrast_entry(result.corrected_contrast if result else None),
        },
        "files": sorted(files),
    }
    scheme = _NOISE[job.mode]["scheme"]
    if result is not None and scheme is not None:
        summary["rng_scheme"] = scheme
    write_json(out / "summary.json", summary)
    print(f"image: wrote {len(files)} files to {out}")
    return 0


def _figure_mask(args: argparse.Namespace) -> ObjectMask:
    with _library_checks("--dimension"):
        d = validate_dimension(args.dimension)
    if args.mask is not None:
        values = _read_json(args.mask)
        if not isinstance(values, list):
            raise ConfigError(f"mask file must hold a list of {d} entries")
        mask, _ = _parse_mask(values, d, "mask file")
        if args.budget is not None and args.budget != mask.budget:
            raise ConfigError(
                f"--budget {args.budget} conflicts with mask budget {mask.budget}"
            )
        return mask
    budget = args.budget
    if budget is None:
        raise ConfigError("give --budget or --mask")
    if not 0 <= budget <= d:
        raise ConfigError(f"budget {budget} outside 0..{d}")
    mask, _ = _parse_mask([1] * budget + [0] * (d - budget), d, "--dimension")
    return mask


def cmd_figure2(args: argparse.Namespace) -> int:
    """Panel of all five family images for one mask, with identity checks."""
    mask = _figure_mask(args)
    d, budget = mask.d, mask.budget
    images = {family.value: analytic_image(mask, family) for family in Projection}
    images["sum"] = add_images(
        images["anti_symmetric"], images["symmetric"]
    )

    # the closed forms promise these at the integer level; a breach means
    # the library is internally inconsistent, not that the input is bad
    identities = {
        "anti_symmetric_equals_psi_minus": bool(
            np.array_equal(
                images["anti_symmetric"].numerators, images["psi_minus"].numerators
            )
        ),
        "symmetric_equals_psi_plus_plus_phi": bool(
            np.array_equal(
                images["symmetric"].numerators,
                images["psi_plus"].numerators + images["phi"].numerators,
            )
        ),
        "sum_is_flat": bool(
            np.all(images["sum"].numerators == 2 * budget)
        ),
    }
    if not all(identities.values()):
        failed = ", ".join(name for name, ok in identities.items() if not ok)
        raise ImageConsistencyError(f"family identities failed: {failed}")

    out = _out_dir(args.out_dir, None)
    layout = image_layout(d)
    scales = {}
    for stem in FIGURE_STEMS:
        pixels = images[stem].pixels
        write_csv(
            out / f"{stem}.csv",
            ["pixel_index", "intensity"],
            [(k + 1, float(pixels[k])) for k in range(d)],
        )
        scales[stem] = write_pgm(out / f"{stem}.pgm", pixels, layout)

    contrast = None
    if not mask.is_degenerate:
        contrast = {
            family: _contrast_entry(analytic_contrast(d, budget, Projection.from_name(family)))
            for family in ("anti_symmetric", "symmetric", "phi")
        }

    summary = {
        "command": "figure2",
        "dimension": d,
        "budget": budget,
        "mask": mask.as_array(),
        "denominator": 2 * d * d,
        "identities": identities,
        "pgm_scale": scales,
        "contrast": contrast,
        "files": sorted(
            [f"{stem}.csv" for stem in FIGURE_STEMS]
            + [f"{stem}.pgm" for stem in FIGURE_STEMS]
            + ["summary.json"]
        ),
    }
    write_json(out / "summary.json", summary)
    print(f"figure2: wrote {len(summary['files'])} files to {out}")
    return 0


def cmd_hom(args: argparse.Namespace) -> int:
    job = load_hom_job(args.config)
    if args.seed is not None:
        job = replace(job, seed=args.seed)
    scan = hom_scan(
        job.pattern_a,
        job.pattern_d,
        job.delays,
        job.dip_width,
        shots_per_delay=job.shots_per_delay,
        seed=job.seed,
    )
    out = _out_dir(args.out_dir, job.out_dir)
    rows = []
    for k in range(scan.delays.size):
        sampled = None if scan.sampled_counts is None else int(scan.sampled_counts[k])
        rows.append((float(scan.delays[k]), float(scan.rates[k]), sampled))
    write_csv(out / "hom_scan.csv", ["delay", "rate", "sampled_count"], rows)
    summary = {
        "command": "hom",
        "dimension": job.pattern_a.d,
        "pattern_a": job.pattern_a.as_array(),
        "pattern_d": job.pattern_d.as_array(),
        "antisymmetric_weight": scan.antisymmetric_weight,
        "dip_width": scan.dip_width,
        "shots_per_delay": job.shots_per_delay,
        "seed": job.seed,
        "files": ["hom_scan.csv", "summary.json"],
    }
    if scan.sampled_counts is not None:
        summary["rng_scheme"] = _RNG_SCHEME
    write_json(out / "summary.json", summary)
    print(f"hom: wrote 2 files to {out}")
    return 0


def cmd_contrast_curve(args: argparse.Namespace) -> int:
    """Closed-form contrast against dimension at a fixed mask budget."""
    for flag, d in (("--d-min", args.d_min), ("--d-max", args.d_max)):
        with _library_checks(flag):
            validate_dimension(d)
    if args.d_max < args.d_min:
        raise ConfigError(f"--d-max {args.d_max} is below --d-min {args.d_min}")
    if args.budget < 1:
        raise ConfigError(f"--budget must be at least 1, got {args.budget}")
    rows = []
    for d in range(args.d_min, args.d_max + 1):
        if args.budget >= d:
            # no dark pixels left at this dimension: contrast is undefined
            rows.append((d, None, None))
            continue
        negative = analytic_contrast(d, args.budget, Projection.ANTI_SYMMETRIC)
        positive = analytic_contrast(d, args.budget, Projection.SYMMETRIC)
        rows.append((d, negative.value, positive.value))
    header = ["dimension", "anti_symmetric", "symmetric"]
    if args.out is None:
        print(csv_text(header, rows), end="")
    else:
        write_csv(args.out, header, rows)
        print(f"contrast-curve: wrote {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Report a malformed command line as a configuration error, exit 2."""
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ghostctl",
        description="Heralded ghost images, coincidence campaigns, and delay scans.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    image = commands.add_parser("image", help="run one imaging campaign from a job file")
    image.add_argument("config", help="JSON job description")
    image.add_argument("--seed", type=int, default=None, help="override the job seed")
    image.add_argument("--out-dir", default=None, help="override the job output directory")
    image.add_argument(
        "--analytic-only",
        action="store_true",
        help="skip sampling; write only the closed-form image",
    )
    image.set_defaults(handler=cmd_image)

    figure = commands.add_parser(
        "figure2", help="closed-form images of every family for one mask"
    )
    figure.add_argument("--dimension", type=int, required=True)
    figure.add_argument("--budget", type=int, default=None, help="bright pixels in the default mask")
    figure.add_argument("--mask", default=None, help="JSON file holding an explicit 0/1 mask")
    figure.add_argument("--out-dir", default=None)
    figure.set_defaults(handler=cmd_figure2)

    hom = commands.add_parser("hom", help="interference dip scan from a job file")
    hom.add_argument("config", help="JSON job description")
    hom.add_argument("--seed", type=int, default=None, help="override the job seed")
    hom.add_argument("--out-dir", default=None, help="override the job output directory")
    hom.set_defaults(handler=cmd_hom)

    curve = commands.add_parser(
        "contrast-curve", help="closed-form contrast against dimension"
    )
    curve.add_argument("--d-min", type=int, required=True)
    curve.add_argument("--d-max", type=int, required=True)
    curve.add_argument("--budget", type=int, required=True)
    curve.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    curve.set_defaults(handler=cmd_contrast_curve)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except ConfigError as error:
        print(f"ghostctl: configuration error: {error}", file=sys.stderr)
        return 2
    except DegenerateMaskError as error:
        print(f"ghostctl: undefined contrast: {error}", file=sys.stderr)
        return 3
    except ImageConsistencyError as error:
        print(f"ghostctl: internal inconsistency: {error}", file=sys.stderr)
        return 4


def run() -> None:
    sys.exit(main())
