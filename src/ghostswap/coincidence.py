"""Coincidence-counting campaigns, contrast estimation, and delay scans.

Campaigns draw per-pixel counts around the closed-form image. Two noise
models are provided: "fixed_time" gives each pixel an independent Poisson
draw for a fixed integration time, "fixed_shots" distributes an exact
number of events multinomially. Poisson draws, of pixels and of scanned
delays alike, are keyed to the seed in fixed blocks of 4096: block b draws
from child b of SeedSequence(seed), so a draw depends only on the seed, its
block and the means within that block, and blocks may be evaluated in any
order or on any worker with the same result bit for bit.

The contrast estimator propagates Poisson counting noise to first order;
a parametric bootstrap is available as an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ghostswap.analytic import (
    ContrastValue,
    Image,
    _contrast_rows,
    _require_contrast,
    analytic_image,
)
from ghostswap.hilbert import ObjectMask, Projection

__all__ = [
    "MAX_EVENT_TOTAL",
    "MAX_SCAN_DELAYS",
    "CampaignConfig",
    "CampaignResult",
    "HomScanResult",
    "sample_campaign",
    "estimate_contrast",
    "bootstrap_contrast_sigma",
    "subtract_accidentals",
    "antisymmetric_weight",
    "hom_scan",
    "rate_budget",
]

_MODES = ("fixed_time", "fixed_shots")

# numpy seed sequences take unsigned 32-bit words
_MAX_SEED = 2**32 - 1

# Largest event total of a campaign or a delay scan: numpy's Poisson draw
# refuses means above about 9.2e18 and its multinomial needs an int64 count.
MAX_EVENT_TOTAL = 1e18

# Largest number of delays in one scan: a grid past this is refused before
# anything is allocated for it.
MAX_SCAN_DELAYS = 10**6

# Poisson draws are keyed to the seed per block of this many means. One
# generator per block instead of one per mean keeps the draw vectorized;
# changing the block size changes every draw, so it is not a parameter.
_BLOCK = 4096

# Recorded in summary.json by every run whose draws come from _poisson_draws.
_RNG_SCHEME = f"SeedSequence(seed).spawn, one PCG64 stream per {_BLOCK}-draw block"


def _validate_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    if not 0 <= seed <= _MAX_SEED:
        raise ValueError(f"seed {seed} outside 0..{_MAX_SEED}")
    return seed


@dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to reproduce one counting campaign.

    total is the expected number of events in fixed_time mode and the
    exact number of events in fixed_shots mode, at most MAX_EVENT_TOTAL.
    accidental_fraction is the share of events coming from uncorrelated
    pairs, spread uniformly over the pixels.
    """

    mask: ObjectMask
    family: Projection
    mode: str
    total: float
    accidental_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.mask, ObjectMask):
            raise ValueError(f"mask must be an ObjectMask, got {self.mask!r}")
        if not isinstance(self.family, Projection):
            raise ValueError(f"family must be a Projection member, got {self.family!r}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not 0 < self.total <= MAX_EVENT_TOTAL:
            raise ValueError(
                f"total must be positive and at most {MAX_EVENT_TOTAL:g}, got {self.total!r}"
            )
        total = float(self.total)
        if self.mode == "fixed_shots" and total != int(total):
            raise ValueError(f"fixed_shots mode needs a whole number of events, got {total}")
        fraction = float(self.accidental_fraction)
        if not 0.0 <= fraction < 1.0:
            raise ValueError(
                f"accidental_fraction must lie in [0, 1), got {self.accidental_fraction!r}"
            )
        _validate_seed(self.seed)


@dataclass(frozen=True)
class CampaignResult:
    """Sampled and accidental-corrected counts plus the contrasts estimated from them."""

    counts: Image
    corrected_counts: Image
    raw_contrast: ContrastValue
    corrected_contrast: ContrastValue
    accidental_estimate: np.ndarray = field(repr=False)
    seed: int = 0


def _expected_counts(config: CampaignConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel expected counts and the uniform accidental floor."""
    image = analytic_image(config.mask, config.family)
    total = float(config.total)
    fraction = float(config.accidental_fraction)
    signal = image.pixels * (total / image.total)
    accidental = np.full(config.mask.d, fraction * total / config.mask.d)
    return (1.0 - fraction) * signal + accidental, accidental


def _poisson_draws(seed: int, means: np.ndarray) -> np.ndarray:
    """One Poisson draw per mean. Means k*_BLOCK to (k+1)*_BLOCK - 1 are drawn
    in one call from child k of the seed, so no draw depends on the means of
    other blocks or on the order in which blocks are evaluated."""
    counts = np.empty(means.size, dtype=np.int64)
    children = np.random.SeedSequence(seed).spawn(-(-means.size // _BLOCK))
    for k, child in enumerate(children):
        block = slice(k * _BLOCK, (k + 1) * _BLOCK)
        counts[block] = np.random.default_rng(child).poisson(means[block])
    return counts


def sample_campaign(config: CampaignConfig) -> CampaignResult:
    """Draw one campaign and estimate its contrasts.

    fixed_time mode draws pixels in blocks of 4096, block k from child k
    of the seed, so the counts never depend on evaluation order or worker
    count, and a pixel's count depends only on the seed and the expected
    counts of its own block. fixed_shots mode splits an exact event total
    multinomially.
    Raw or corrected counts that sum to zero raise DegenerateMaskError.
    """
    _require_contrast(config.mask.d, config.mask.budget)
    means, accidental = _expected_counts(config)
    if config.mode == "fixed_time":
        counts = _poisson_draws(config.seed, means)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        counts = rng.multinomial(int(config.total), means / means.sum()).astype(np.int64)
    counts_image = Image(counts, kind="counts", family=config.family)
    corrected_image = subtract_accidentals(counts_image, accidental)
    return CampaignResult(
        counts=counts_image,
        corrected_counts=corrected_image,
        raw_contrast=_propagated_contrast(counts.astype(float), config.mask),
        corrected_contrast=_propagated_contrast(corrected_image.pixels, config.mask),
        accidental_estimate=accidental,
        seed=config.seed,
    )


def _propagated_contrast(values: np.ndarray, mask: ObjectMask) -> ContrastValue:
    """Contrast of one count vector with first-order Poisson error propagation.

    Each pixel is treated as an independent Poisson count with variance
    equal to its value; the derivative of the contrast with respect to
    pixel k is (w_k - C) / total with w_k = +1/n_bright on bright pixels
    and -1/n_dark on dark ones. The inputs are not checked.
    """
    bright = mask.as_array() == 1
    value = float(_contrast_rows(values[None, :], bright)[0])
    n_bright = mask.budget
    n_dark = mask.d - n_bright
    total = float(values.sum())
    weights = np.where(bright, 1.0 / n_bright, -1.0 / n_dark)
    derivatives = (weights - value) / total
    variance = float((derivatives**2 * values).sum())
    return ContrastValue(value, float(np.sqrt(variance)))


def _as_count_values(counts: Image | np.ndarray, mask: ObjectMask) -> np.ndarray:
    values = counts.pixels if isinstance(counts, Image) else np.asarray(counts)
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"expected a 1-D count vector, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("counts must be finite")
    if np.any(values < 0):
        raise ValueError("counts must be nonnegative")
    if np.any(values != np.floor(values)):
        raise ValueError("counts must be whole numbers")
    if values.size != mask.d:
        raise ValueError(f"counts have {values.size} pixels but mask has {mask.d}")
    _require_contrast(mask.d, mask.budget)
    return values


def estimate_contrast(counts: Image | np.ndarray, mask: ObjectMask) -> ContrastValue:
    """Contrast of raw detector counts with propagated Poisson sigma."""
    return _propagated_contrast(_as_count_values(counts, mask), mask)


def bootstrap_contrast_sigma(
    counts: Image | np.ndarray,
    mask: ObjectMask,
    resamples: int = 10_000,
    seed: int = 0,
) -> float:
    """Parametric bootstrap of the contrast sigma.

    Resamples every pixel as Poisson around the observed count and takes
    the spread of the recomputed contrasts. Resamples that come out all
    zero carry no contrast and are dropped.
    """
    values = _as_count_values(counts, mask)
    if resamples < 2:
        raise ValueError(f"need at least 2 resamples, got {resamples}")
    rng = np.random.default_rng(np.random.SeedSequence(_validate_seed(seed)))
    draws = rng.poisson(lam=values, size=(int(resamples), values.size)).astype(float)
    draws = draws[draws.sum(axis=1) > 0]
    if len(draws) < 2:
        raise ValueError("all resamples were empty; counts are too small to bootstrap")
    contrasts = _contrast_rows(draws, mask.as_array() == 1)
    return float(np.std(contrasts, ddof=1))


def subtract_accidentals(
    counts: Image | np.ndarray, accidental: np.ndarray | float
) -> Image:
    """Counts minus an accidental estimate, clamped at zero.

    The result is real-valued (kind "counts" still, but no longer whole
    numbers in general).
    """
    values = counts.pixels if isinstance(counts, Image) else np.asarray(counts)
    values = np.asarray(values, dtype=float)
    estimate = np.broadcast_to(np.asarray(accidental, dtype=float), values.shape)
    if not np.all(np.isfinite(estimate)):
        raise ValueError("accidental estimate must be finite")
    if np.any(estimate < 0):
        raise ValueError("accidental estimate must be nonnegative")
    family = counts.family if isinstance(counts, Image) else None
    return Image(np.clip(values - estimate, 0.0, None), kind="counts", family=family)


# ---------------------------------------------------------------------------
# two-photon interference scan
# ---------------------------------------------------------------------------

def _validate_patterns(pattern_a: ObjectMask, pattern_d: ObjectMask) -> None:
    for name, pattern in (("pattern_a", pattern_a), ("pattern_d", pattern_d)):
        if not isinstance(pattern, ObjectMask):
            raise ValueError(f"{name} must be an ObjectMask, got {pattern!r}")
        if pattern.budget == 0:
            raise ValueError(f"{name} transmits nothing; at least one pixel must be on")
    if pattern_a.d != pattern_d.d:
        raise ValueError(f"pattern dimensions differ: {pattern_a.d} vs {pattern_d.d}")


def antisymmetric_weight(pattern_a: ObjectMask, pattern_d: ObjectMask) -> float:
    """Anti-symmetric fraction of the inner pair heralded by two patterns.

    The outer detections behind pattern_a and pattern_d leave photons B
    and C in a uniform mixture of pixel states |i, j> over the transmitted
    pixels A and D. Each |i, j> with i != j has overlap 1/2 with the
    anti-symmetric projectors and |i, i> has none, so the weight is
    (1 - |A & D| / (|A| |D|)) / 2. Identical single-pixel patterns give 0,
    disjoint ones 1/2.
    """
    _validate_patterns(pattern_a, pattern_d)
    shared = int(np.dot(pattern_a.as_array(), pattern_d.as_array()))
    return (1.0 - shared / (pattern_a.budget * pattern_d.budget)) / 2.0


def _scan_inputs(
    pattern_a: ObjectMask,
    pattern_d: ObjectMask,
    delays: np.ndarray,
    dip_width: float,
    shots_per_delay: int | None,
    seed: int,
) -> tuple[np.ndarray, float, int | None, int]:
    """Checked delays, dip width, shots and seed of a delay scan.

    hom_scan and the delay scan job loader both run these checks. The seed
    is checked even when nothing is sampled.
    """
    _validate_patterns(pattern_a, pattern_d)
    delays = np.array(delays, dtype=float)
    if delays.ndim != 1:
        raise ValueError(f"delays must be a 1-D vector, got shape {delays.shape}")
    _validate_delay_count(delays.size)
    if not np.all(np.isfinite(delays)):
        raise ValueError("delays must be finite")
    dip_width = float(dip_width)
    if not np.isfinite(dip_width) or dip_width <= 0:
        raise ValueError(f"dip_width must be positive, got {dip_width}")
    if shots_per_delay is not None:
        shots_per_delay = int(shots_per_delay)
        if not 0 < shots_per_delay <= MAX_EVENT_TOTAL:
            raise ValueError(
                f"shots_per_delay must be positive and at most {MAX_EVENT_TOTAL:g}, "
                f"got {shots_per_delay}"
            )
    return delays, dip_width, shots_per_delay, _validate_seed(seed)


def _validate_delay_count(count: int) -> int:
    """A delay count of 1 to MAX_SCAN_DELAYS; checked before a grid is built."""
    if not 0 < count <= MAX_SCAN_DELAYS:
        raise ValueError(f"a delay scan takes 1 to {MAX_SCAN_DELAYS} delays, got {count}")
    return count


@dataclass(frozen=True)
class HomScanResult:
    """Coincidence rate versus relative delay for one pattern pair."""

    delays: np.ndarray = field(repr=False)
    rates: np.ndarray = field(repr=False)
    sampled_counts: np.ndarray | None = field(repr=False)
    antisymmetric_weight: float
    dip_width: float


def hom_scan(
    pattern_a: ObjectMask,
    pattern_d: ObjectMask,
    delays: np.ndarray,
    dip_width: float,
    shots_per_delay: int | None = None,
    seed: int = 0,
) -> HomScanResult:
    """Coincidence rate of the inner pair against relative delay.

    At zero delay the photons interfere fully and the rate equals the
    anti-symmetric weight of the heralded pair; at delays far beyond
    dip_width they become distinguishable and the rate settles at 1/2.
    The indistinguishability envelope is Gaussian in the delay.

    With shots_per_delay set, each delay also gets a Poisson-sampled
    count with expectation shots_per_delay * rate. Delays are drawn in
    blocks of 4096, block k from child k of the seed, as campaign pixels
    are. At most MAX_SCAN_DELAYS delays are scanned.
    """
    delays, dip_width, shots, seed = _scan_inputs(
        pattern_a, pattern_d, delays, dip_width, shots_per_delay, seed
    )
    weight = antisymmetric_weight(pattern_a, pattern_d)
    envelope = np.exp(-(delays**2) / (2.0 * dip_width**2))
    # ordered so that full indistinguishability returns the weight exactly
    # and a fully decayed envelope returns exactly 1/2
    rates = weight * envelope + (1.0 - envelope) * 0.5
    sampled: np.ndarray | None = None
    if shots is not None:
        sampled = _poisson_draws(seed, shots * rates)
        sampled.setflags(write=False)
    delays.setflags(write=False)
    rates.setflags(write=False)
    return HomScanResult(
        delays=delays,
        rates=rates,
        sampled_counts=sampled,
        antisymmetric_weight=weight,
        dip_width=dip_width,
    )


def rate_budget(transmission: float) -> float:
    """Four-fold coincidence rate factor for one arm transmission.

    All four photons must survive, so the rate scales with the fourth
    power of the per-photon transmission.
    """
    transmission = float(transmission)
    if not np.isfinite(transmission) or not 0.0 < transmission <= 1.0:
        raise ValueError(
            f"transmission must lie in (0, 1], got {transmission!r}"
        )
    return transmission**4
