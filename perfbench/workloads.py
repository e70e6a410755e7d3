"""The benchmark workloads: inputs made from a seed, requests, output checks.

Each workload is a fixed cycle of request shapes (sizes, modes, commands),
so its cost does not depend on the seed; the seed only fills in mask
contents, families, accidental fractions, campaign seeds and the kind of
each malformed job. Every request drives the public API: cli.main on job
files written into the run's input directory, or library calls looked up
on their module at call time so the tracer can see them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ghostswap import analytic, cli, coincidence
from ghostswap.analytic import analytic_contrast
from ghostswap.hilbert import ObjectMask, Projection
from ghostswap.io import parse_pgm, read_csv, read_image_records

import checks
from checks import require

FAMILIES = tuple(Projection)
FIGURE_STEMS = ("psi_minus", "psi_plus", "phi", "anti_symmetric", "symmetric", "sum")


@dataclass
class Request:
    """One call into the program and the check of what it produced.

    execute(out_dir) returns whatever verify(value, out_dir) needs; an
    exception out of execute, or a CheckFailed out of verify, is a failed
    request. well_formed is False for job files that must be refused with
    exit 2; their latency is kept out of the percentiles.
    """

    label: str
    elements: int
    execute: Callable[[Path], object]
    verify: Callable[[object, Path], None]
    well_formed: bool = True


def _random_mask(rng: np.random.Generator, d: int, budget: int) -> np.ndarray:
    mask = np.zeros(d, dtype=np.int64)
    mask[rng.choice(d, size=budget, replace=False)] = 1
    return mask


def _quadrant_mask(d: int) -> np.ndarray:
    side = math.isqrt(d)
    half = max(side // 2, 1)
    k = np.arange(d)
    return ((k // side < half) & (k % side < half)).astype(np.int64)


def _write_job(path: Path, job: dict) -> Path:
    path.write_text(json.dumps(job), encoding="ascii")
    return path


def _cli(argv: list[str]) -> Callable[[Path], object]:
    return lambda out: cli.main([*argv, "--out-dir", str(out)])


def _expect_refusal(code: object, out: Path) -> None:
    require(code == 2, f"malformed job ended with exit {code!r}, expected 2")


def _load_summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text(encoding="ascii"))


# ---------------------------------------------------------------------------
# campaign-sweep: library campaigns at small d
# ---------------------------------------------------------------------------


class CampaignSweep:
    """sample_campaign -> estimate_contrast -> subtract_accidentals per request."""

    name = "campaign-sweep"
    variants = 8
    trace_cycles = 40
    dimensions = (2, 16, 256)

    def __init__(self, rng: np.random.Generator, inputs: Path) -> None:
        self.cycles = []
        for variant in range(self.variants):
            cycle = []
            for repetition in range(4):
                for mode in ("fixed_time", "fixed_shots"):
                    for d in self.dimensions:
                        # Every cycle bootstraps its first d = 2 campaign. The
                        # d = 16 bootstrap is the slowest request; only variant
                        # 0 has one, so it comes some 40 times a run and the
                        # tail percentile (10 samples beyond) falls inside that
                        # class rather than on host stalls.
                        bootstrap = (repetition, mode, d) == (0, "fixed_time", 2) or (
                            (variant, repetition, mode, d) == (0, 2, "fixed_shots", 16)
                        )
                        cycle.append(self._request(rng, d, mode, bootstrap))
            self.cycles.append(cycle)
        self.warmup = self.cycles[0][0]

    @staticmethod
    def _request(rng, d: int, mode: str, bootstrap: bool) -> Request:
        mask = _random_mask(rng, d, int(rng.integers(1, d)))
        values = mask.tolist()
        family = FAMILIES[int(rng.integers(len(FAMILIES)))]
        fraction = (0.0, 0.05, 0.2)[int(rng.integers(3))]
        total = 1000 * d if mode == "fixed_shots" else 1000.0 * d
        seed = int(rng.integers(2**32))

        def execute(out: Path):
            object_mask = ObjectMask(values)
            config = coincidence.CampaignConfig(
                mask=object_mask,
                family=family,
                mode=mode,
                total=total,
                accidental_fraction=fraction,
                seed=seed,
            )
            result = coincidence.sample_campaign(config)
            estimate = coincidence.estimate_contrast(result.counts, object_mask)
            corrected = coincidence.subtract_accidentals(
                result.counts, result.accidental_estimate
            )
            sigma = None
            if bootstrap:
                sigma = coincidence.bootstrap_contrast_sigma(
                    result.counts, object_mask, resamples=10_000, seed=seed
                )
            return result, estimate, corrected, sigma

        def verify(value, out: Path) -> None:
            result, estimate, corrected, sigma = value
            counts = result.counts.pixels
            require(counts.shape == (d,), f"counts have shape {counts.shape}")
            if mode == "fixed_shots":
                require(int(counts.sum()) == total, "fixed_shots counts miss the total")
            means = checks.expected_counts(mask, family, float(total), fraction)
            checks.check_poisson_fit(counts, means, fixed_total=mode == "fixed_shots")
            require(estimate == result.raw_contrast, "estimate_contrast disagrees with the campaign")
            expected = (1.0 - fraction) * checks.contrast(d, int(mask.sum()), family)
            checks.check_within_sigma(estimate.value, estimate.sigma, expected, "raw contrast")
            floor = np.clip(counts - result.accidental_estimate, 0.0, None)
            require(np.array_equal(corrected.pixels, floor), "accidental subtraction is off")
            if sigma is not None:
                require(
                    abs(sigma - estimate.sigma) <= 0.2 * estimate.sigma + 1e-12,
                    f"bootstrap sigma {sigma!r} vs propagated {estimate.sigma!r}",
                )

        return Request(f"campaign d={d} {mode}", d, execute, verify)

    def repeat_check(self, scratch: Path) -> bool:
        result_a = self.warmup.execute(scratch)[0]
        result_b = self.warmup.execute(scratch)[0]
        return np.array_equal(result_a.counts.pixels, result_b.counts.pixels)


# ---------------------------------------------------------------------------
# wide-image: ghostctl image at d = 10^4 and 316^2
# ---------------------------------------------------------------------------

IMAGE_MALFORMED = (
    ("unknown key", lambda job, d: {**job, "exposure": 1}),
    ("mask length", lambda job, d: {**job, "mask": [0, 1, 0]}),
    ("bad family", lambda job, d: {**job, "family": "chi"}),
    ("two totals", lambda job, d: {**job, "shots": 10, "expected_total": 10.0}),
    ("fraction above 1", lambda job, d: {**job, "accidental_fraction": 1.5}),
    ("mask value 2", lambda job, d: {**job, "mask": [2] + [0] * (d - 1)}),
)
# Input-boundary probes that must also end in exit 2 (ROADMAP open item 2).
IMAGE_PROBES = (
    ("expected_total 1e30", lambda job, d: {**job, "expected_total": 1e30}),
    ("seed 5000000000", lambda job, d: {**job, "seed": 5_000_000_000}),
)


class WideImage:
    """Per-pixel cost: RNG streams, mask parsing, per-row CSV formatting."""

    name = "wide-image"
    variants = 2
    trace_cycles = 1
    # (d, mode, mask given as a 0/1 "list" or the quadrant_on preset), or
    # ("graded", slot, mask kind), a fixed_time job at d = side^2 with side =
    # FIXED_TIME_SIDES[2 slot + variant], or a job that must be refused.
    # Per cycle, 4 fixed_shots jobs at 10^4 sit below the six graded
    # fixed_time jobs and 2 jobs at 99856 above them: the median falls on the
    # second and third graded jobs. A cycle takes 5 to 8 s here, so a 22 s
    # run holds 3 or 4 cycles and at most 8 jobs at 99856; the tail
    # percentile (10 samples beyond) stays among the largest graded jobs.
    # The graded sizes, 78^2 to 122^2 around 10^4, span a factor 2.4, wider
    # than the host's slow-to-fast speed ratio (about 1.6, in spells of
    # seconds), so the percentiles move smoothly with the share of slow time
    # rather than jumping between the two speeds.
    FIXED_TIME_SIDES = tuple(range(78, 123, 4))
    shapes = (
        (99856, "fixed_time", "list"),
        (10_000, "fixed_shots", "list"),
        ("graded", 2, "list"),
        ("graded", 5, "quadrant_on"),
        ("malformed",),
        (10_000, "fixed_shots", "quadrant_on"),
        ("graded", 0, "list"),
        ("probe", 0),
        ("graded", 3, "quadrant_on"),
        (99856, "fixed_shots", "quadrant_on"),
        (10_000, "fixed_shots", "list"),
        ("graded", 4, "list"),
        ("probe", 1),
        (10_000, "fixed_shots", "quadrant_on"),
        ("graded", 1, "quadrant_on"),
    )

    def __init__(self, rng: np.random.Generator, inputs: Path) -> None:
        self.cycles = []
        for variant in range(self.variants):
            cycle = []
            for index, shape in enumerate(self.shapes):
                path = inputs / f"image-{variant}-{index}.json"
                if shape[0] == "malformed":
                    cycle.append(self._malformed(rng, path, IMAGE_MALFORMED))
                elif shape[0] == "probe":
                    cycle.append(self._malformed(rng, path, (IMAGE_PROBES[shape[1]],)))
                elif shape[0] == "graded":
                    side = self.FIXED_TIME_SIDES[2 * shape[1] + variant]
                    cycle.append(self._request(rng, path, side * side, "fixed_time", shape[2]))
                else:
                    cycle.append(self._request(rng, path, *shape))
            self.cycles.append(cycle)
        self.warmup = self.cycles[0][1]

    @staticmethod
    def _job(rng, d: int, mode: str, mask_kind: str):
        if mask_kind == "list":
            mask = _random_mask(rng, d, int(rng.integers(1, d)))
            spec: object = mask.tolist()
        else:
            mask = _quadrant_mask(d)
            spec = "quadrant_on"
        family = FAMILIES[int(rng.integers(len(FAMILIES)))]
        fraction = (0.02, 0.05, 0.1)[int(rng.integers(3))]
        job = {
            "dimension": d,
            "mask": spec,
            "family": family.value,
            "accidental_fraction": fraction,
            "seed": int(rng.integers(2**32)),
        }
        if mode == "fixed_time":
            job["expected_total"] = 50.0 * d
        else:
            job["shots"] = 50 * d
        return job, mask, family

    def _request(self, rng, path: Path, d: int, mode: str, mask_kind: str) -> Request:
        job, mask, family = self._job(rng, d, mode, mask_kind)
        _write_job(path, job)
        total = float(job.get("expected_total", job.get("shots")))
        fraction = job["accidental_fraction"]

        def verify(code, out: Path) -> None:
            require(code == 0, f"image ended with exit {code!r}")
            records = read_image_records(out / "image_records.csv")
            require(
                np.array_equal(records["pixel_index"], np.arange(1, d + 1)),
                "image_records.csv pixel index is off",
            )
            require(
                np.array_equal(records["analytic_intensity"], checks.image_pixels(mask, family)),
                "analytic column differs from the closed form",
            )
            counts = records["sampled_count"]
            require(counts is not None and counts.size == d, "sampled counts missing")
            if mode == "fixed_shots":
                require(int(counts.sum()) == int(total), "fixed_shots counts miss the total")
            means = checks.expected_counts(mask, family, total, fraction)
            checks.check_poisson_fit(counts, means, fixed_total=mode == "fixed_shots")
            summary = _load_summary(out)
            budget = int(mask.sum())
            predicted = summary["contrast"]["analytic"]["value"]
            require(
                predicted == analytic_contrast(d, budget, family).value,
                "summary analytic contrast differs from analytic_contrast",
            )
            raw = summary["contrast"]["raw"]
            # accidentals add a flat floor, which scales the expected raw contrast
            checks.check_within_sigma(
                raw["value"], raw["sigma"], (1.0 - fraction) * predicted, "raw contrast"
            )

        return Request(f"image d={d} {mode} {mask_kind}", d, _cli(["image", str(path)]), verify)

    def _malformed(self, rng, path: Path, kinds) -> Request:
        label, corrupt = kinds[int(rng.integers(len(kinds)))]
        d = 10_000
        job, _, _ = self._job(rng, d, "fixed_time", "quadrant_on")
        _write_job(path, corrupt(job, d))
        return Request(
            f"image malformed: {label}", 0, _cli(["image", str(path)]), _expect_refusal, False
        )

    def repeat_check(self, scratch: Path) -> bool:
        return _outputs_repeat(self.warmup, scratch, ("image_records.csv", "sampled.pgm"))


# ---------------------------------------------------------------------------
# figure-panel: closed forms and writers only
# ---------------------------------------------------------------------------


class FigurePanel:
    """ghostctl figure2 panels and contrast-curve tables; no RNG."""

    name = "figure-panel"
    variants = 2
    trace_cycles = 1
    # ("figure2", d, "budget" or "mask") or ("curve", slot). Six cheap panels
    # below six curves below five 10^4 panels and one 10^5 panel: the median
    # falls mid-way through the curves and the tail percentile (10 samples
    # beyond) inside the 10^4 panels for 2 to 10 cycles a run. Curve slot k
    # of variant v runs to d = CURVE_D_MAX[2 k + v]: the curve lengths span a
    # factor 3.2, wider than the host's slow-to-fast speed ratio (about 1.6,
    # in spells of seconds), so the median moves smoothly with the share of
    # slow time rather than jumping between the two speeds, as it does when
    # every request in the median class has the same cost.
    CURVE_D_MAX = tuple(range(2000, 6401, 400))
    shapes = (
        ("figure2", 100_000, "budget"),
        ("curve", 2),
        ("figure2", 100, "mask"),
        ("figure2", 10_000, "mask"),
        ("curve", 5),
        ("figure2", 100, "budget"),
        ("figure2", 10_000, "budget"),
        ("curve", 0),
        ("figure2", 100, "mask"),
        ("figure2", 10_000, "mask"),
        ("curve", 3),
        ("figure2", 100, "budget"),
        ("figure2", 10_000, "budget"),
        ("curve", 1),
        ("figure2", 100, "mask"),
        ("figure2", 10_000, "mask"),
        ("curve", 4),
        ("figure2", 100, "budget"),
    )

    def __init__(self, rng: np.random.Generator, inputs: Path) -> None:
        self.cycles = []
        for variant in range(self.variants):
            cycle = []
            for index, shape in enumerate(self.shapes):
                if shape[0] == "curve":
                    d_max = self.CURVE_D_MAX[2 * shape[1] + variant]
                    cycle.append(self._curve(rng, d_max))
                else:
                    path = inputs / f"mask-{variant}-{index}.json"
                    cycle.append(self._figure(rng, path, shape[1], shape[2]))
            self.cycles.append(cycle)
        self.warmup = self.cycles[0][2]

    @staticmethod
    def _figure(rng, path: Path, d: int, source: str) -> Request:
        budget = int(rng.integers(1, d))
        argv = ["figure2", "--dimension", str(d)]
        if source == "mask":
            mask = _random_mask(rng, d, budget)
            path.write_text(json.dumps(mask.tolist()), encoding="ascii")
            argv += ["--mask", str(path)]
        else:
            mask = np.zeros(d, dtype=np.int64)
            mask[:budget] = 1
            argv += ["--budget", str(budget)]

        def verify(code, out: Path) -> None:
            require(code == 0, f"figure2 ended with exit {code!r}")
            summary = _load_summary(out)
            require(all(summary["identities"].values()), "figure2 reports a failed identity")
            numerators = {}
            for stem in FIGURE_STEMS:
                header, rows = read_csv(out / f"{stem}.csv")
                require(len(rows) == d, f"{stem}.csv has {len(rows)} rows")
                pixels = np.array([float(row[1]) for row in rows])
                numerators[stem] = np.rint(pixels * (2 * d * d)).astype(np.int64)
                require(
                    np.array_equal(pixels, numerators[stem] / (2 * d * d)),
                    f"{stem}.csv is not a ratio over 2 d^2",
                )
                levels = parse_pgm((out / f"{stem}.pgm").read_text(encoding="ascii"))
                scale = summary["pgm_scale"][stem]
                require(
                    np.array_equal(levels, np.rint(pixels * scale).astype(np.int64)[None, :]),
                    f"{stem}.pgm does not round-trip",
                )
            for family in (Projection.PSI_MINUS, Projection.PSI_PLUS, Projection.PHI):
                require(
                    np.array_equal(numerators[family.value], checks.image_numerators(mask, family)),
                    f"{family.value} image differs from the closed form",
                )
            require(
                np.array_equal(numerators["anti_symmetric"], numerators["psi_minus"]),
                "anti_symmetric differs from psi_minus",
            )
            require(
                np.array_equal(numerators["symmetric"], numerators["psi_plus"] + numerators["phi"]),
                "symmetric differs from psi_plus + phi",
            )
            require(np.all(numerators["sum"] == 2 * budget), "sum image is not flat")

        return Request(f"figure2 d={d} by {source}", 6 * d, _cli(argv), verify)

    @staticmethod
    def _curve(rng, d_max: int) -> Request:
        budget = int(rng.integers(1, 6))

        def execute(out: Path):
            path = out / "curve.csv"
            argv = ["contrast-curve", "--d-min", "2", "--d-max", str(d_max)]
            return cli.main([*argv, "--budget", str(budget), "--out", str(path)])

        def verify(code, out: Path) -> None:
            require(code == 0, f"contrast-curve ended with exit {code!r}")
            header, rows = read_csv(out / "curve.csv")
            require(len(rows) == d_max - 1, f"curve has {len(rows)} rows")
            for d, row in zip(range(2, d_max + 1), rows):
                require(int(row[0]) == d, f"curve row for d={row[0]}, expected {d}")
                if budget >= d:
                    require(row[1:] == ["", ""], f"curve row d={d} should be blank")
                    continue
                for cell, family in zip(row[1:], (Projection.ANTI_SYMMETRIC, Projection.SYMMETRIC)):
                    exact = checks.contrast(d, budget, family)
                    require(
                        abs(float(cell) - exact) <= 1e-15 * abs(exact),
                        f"curve d={d} {family.value} {cell} vs {exact!r}",
                    )

        return Request(f"contrast-curve 2..{d_max}", d_max - 1, execute, verify)

    def repeat_check(self, scratch: Path) -> bool:
        return _outputs_repeat(self.warmup, scratch, tuple(f"{s}.csv" for s in FIGURE_STEMS))


# ---------------------------------------------------------------------------
# inner-pair: delay scans and the dense oracle
# ---------------------------------------------------------------------------

HOM_MALFORMED = (
    ("empty delays", lambda job: {**job, "delays": []}),
    ("negative dip width", lambda job: {**job, "dip_width": -1.0}),
    ("dark pattern", lambda job: {**job, "pattern_a": [0] * job["dimension"]}),
    ("zero shots", lambda job: {**job, "shots_per_delay": 0}),
    ("unknown key", lambda job: {**job, "exposure": 1}),
)
HOM_PROBE = ("NaN delay", lambda job: {**job, "delays": [float("nan"), 0.0]})
# delay grids reach this many dip widths, where the envelope is exactly 0
GRID_WIDTHS = 50.0


class InnerPair:
    """ghostctl hom scans and library conditional_density calls."""

    name = "inner-pair"
    variants = 4
    trace_cycles = 4
    # ("hom", d, delay points) or ("density", d, family), or a job that must
    # be refused. The family is fixed per slot because it sets the cost: PHI
    # contracts d projectors, the others about d^2 / 2. The median falls among
    # the d = 16 densities, two of the eight well-formed requests in the
    # middle; the 10^4-point scan comes once a cycle, over 11 times a run, so
    # it holds the tail percentile.
    shapes = (
        ("hom", 2, 1001),
        ("density", 8, Projection.PSI_PLUS),
        ("hom", 16, 2001),
        ("density", 12, Projection.PHI),
        ("hom", 64, 10_001),
        ("density", 16, Projection.ANTI_SYMMETRIC),
        ("malformed",),
        ("hom", 32, 4001),
        ("density", 16, Projection.SYMMETRIC),
        ("probe",),
    )

    def __init__(self, rng: np.random.Generator, inputs: Path) -> None:
        self.cycles = []
        for variant in range(self.variants):
            cycle = []
            for index, shape in enumerate(self.shapes):
                path = inputs / f"hom-{variant}-{index}.json"
                if shape[0] == "hom":
                    cycle.append(self._hom(rng, path, shape[1], shape[2]))
                elif shape[0] == "density":
                    cycle.append(self._density(rng, shape[1], shape[2]))
                else:
                    kinds = HOM_MALFORMED if shape[0] == "malformed" else (HOM_PROBE,)
                    cycle.append(self._malformed(rng, path, kinds))
            self.cycles.append(cycle)
        self.warmup = self.cycles[0][0]

    @staticmethod
    def _job(rng, d: int, points: int) -> dict:
        width = float(rng.uniform(0.5, 2.0))
        return {
            "dimension": d,
            "pattern_a": _random_mask(rng, d, int(rng.integers(1, d + 1))).tolist(),
            "pattern_d": _random_mask(rng, d, int(rng.integers(1, d + 1))).tolist(),
            "delays": {"start": -GRID_WIDTHS * width, "stop": GRID_WIDTHS * width, "count": points},
            "dip_width": width,
            "shots_per_delay": 1000,
            "seed": int(rng.integers(2**32)),
        }

    def _hom(self, rng, path: Path, d: int, points: int) -> Request:
        job = self._job(rng, d, points)
        _write_job(path, job)
        weight = checks.antisymmetric_weight(
            np.array(job["pattern_a"]), np.array(job["pattern_d"])
        )

        def verify(code, out: Path) -> None:
            require(code == 0, f"hom ended with exit {code!r}")
            header, rows = read_csv(out / "hom_scan.csv")
            require(len(rows) == points, f"hom_scan.csv has {len(rows)} rows")
            delays = np.array([float(row[0]) for row in rows])
            rates = np.array([float(row[1]) for row in rows])
            counts = np.array([int(row[2]) for row in rows])
            summary = _load_summary(out)
            require(
                abs(summary["antisymmetric_weight"] - weight) <= 1e-12,
                f"antisymmetric weight {summary['antisymmetric_weight']!r} vs {weight!r}",
            )
            centre = int(np.argmin(np.abs(delays)))
            require(
                rates[centre] == summary["antisymmetric_weight"],
                "rate at zero delay is not the antisymmetric weight",
            )
            require(rates[0] == 0.5 and rates[-1] == 0.5, "rate far from the dip is not 1/2")
            checks.check_poisson_fit(counts, 1000 * rates, fixed_total=False)

        return Request(f"hom d={d} n={points}", points, _cli(["hom", str(path)]), verify)

    @staticmethod
    def _density(rng, d: int, family: Projection) -> Request:
        mask = _random_mask(rng, d, int(rng.integers(1, d)))
        values = mask.tolist()

        def execute(out: Path):
            return analytic.conditional_density(ObjectMask(values), family)

        def verify(rho, out: Path) -> None:
            diagonal = np.diagonal(rho.entries)
            require(
                np.max(np.abs(diagonal - checks.image_pixels(mask, family))) <= 1e-12,
                "conditional_density diagonal differs from the closed-form image",
            )

        return Request(f"conditional_density d={d} {family.value}", d, execute, verify)

    def _malformed(self, rng, path: Path, kinds) -> Request:
        label, corrupt = kinds[int(rng.integers(len(kinds)))]
        _write_job(path, corrupt(self._job(rng, 8, 101)))
        return Request(f"hom malformed: {label}", 0, _cli(["hom", str(path)]), _expect_refusal, False)

    def repeat_check(self, scratch: Path) -> bool:
        return _outputs_repeat(self.warmup, scratch, ("hom_scan.csv",))


def _outputs_repeat(request: Request, scratch: Path, names: tuple[str, ...]) -> bool:
    """Run a CLI request twice on fresh directories; its files must match."""
    outputs = []
    for attempt in ("a", "b"):
        out = scratch / f"repeat-{attempt}"
        out.mkdir()
        request.execute(out)
        outputs.append([(out / name).read_bytes() for name in names])
    return outputs[0] == outputs[1]

WORKLOADS = {cls.name: cls for cls in (CampaignSweep, WideImage, FigurePanel, InnerPair)}
