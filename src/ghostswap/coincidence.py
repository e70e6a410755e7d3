"""Coincidence-counting campaigns, contrast estimation, and delay scans.

Campaigns draw per-pixel counts around the closed-form image. The table
_NOISE holds the two noise models, keyed by mode: "fixed_time" gives each
pixel an independent Poisson draw for a fixed integration time,
"fixed_shots" distributes an exact number of events multinomially. Poisson
draws, of pixels and of scanned delays alike, are keyed to the seed in
fixed blocks of 4096: block b draws from child b of SeedSequence(seed), so
a draw depends only on the seed, its block and the means within that block,
and blocks may be evaluated in any order or on any worker with the same
result bit for bit.

The contrast depends on the counts only through the bright total and the
dark total. The estimator propagates Poisson counting noise of those two
totals to first order. The raw sigma is the same for both noise models:
the contrast is homogeneous of degree 0 in the two totals, so a fixed
event total's multinomial covariance cancels exactly what its variances
lose. A parametric bootstrap is available as an independent check; it
resamples the two totals, so its cost does not grow with d.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ghostswap.analytic import (
    ContrastValue,
    Image,
    _closed_form,
    _contrast,
    _contrasts,
    _require_contrast,
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

# numpy seed sequences take unsigned 32-bit words
_MAX_SEED = 2**32 - 1

# Largest event total of a campaign or a delay scan: numpy's Poisson draw
# refuses means above about 9.2e18 and its multinomial needs an int64 count.
MAX_EVENT_TOTAL = 1e18

# Largest number of delays in one scan: a grid past this is refused before
# anything is allocated for it.
MAX_SCAN_DELAYS = 10**6

# Dip widths whose doubled square is a finite nonzero double, so that the
# envelope of a scan is 1 at zero delay and never divides by zero.
_DIP_WIDTHS = (1e-150, 1e150)

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
        if not isinstance(self.mode, str) or self.mode not in _NOISE:
            raise ValueError(f"mode must be one of {tuple(_NOISE)}, got {self.mode!r}")
        for name in ("total", "accidental_fraction"):
            value = getattr(self, name)
            if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0 < self.total <= MAX_EVENT_TOTAL:
            raise ValueError(
                f"total must be positive and at most {MAX_EVENT_TOTAL:g}, got {self.total!r}"
            )
        if _NOISE[self.mode]["whole"] and self.total != int(self.total):
            raise ValueError(f"{self.mode} mode needs a whole number of events, got {self.total}")
        if not 0.0 <= self.accidental_fraction < 1.0:
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
    numerators, denominator = _closed_form(config.mask, config.family)
    pixels = numerators / denominator
    total = float(config.total)
    fraction = float(config.accidental_fraction)
    signal = pixels * (total / float(pixels.sum()))
    accidental = np.full(config.mask.d, fraction * total / config.mask.d)
    return (1.0 - fraction) * signal + accidental, accidental


def _poisson_draws(seed: int, means: np.ndarray) -> np.ndarray:
    """One Poisson draw per mean. Means k*_BLOCK to (k+1)*_BLOCK - 1 are drawn
    in one call from child k of the seed, so no draw depends on the means of
    other blocks or on the order in which blocks are evaluated."""
    counts = np.empty(means.size, dtype=np.int64)
    for k in range(-(-means.size // _BLOCK)):
        # the state of SeedSequence(seed).spawn(n)[k], without its siblings
        child = np.random.SeedSequence(seed, spawn_key=(k,))
        block = slice(k * _BLOCK, (k + 1) * _BLOCK)
        counts[block] = np.random.default_rng(child).poisson(means[block])
    return counts


def _multinomial_draw(seed: int, means: np.ndarray, total: float) -> np.ndarray:
    """An exact total of events split over the pixels in proportion to the means."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.multinomial(int(total), means / means.sum())


# Noise models by mode: the job-file key of the event total, whether that
# total must be whole, the draw from (seed, means, total), and the
# rng_scheme that summary.json records (None: no rng_scheme key).
_NOISE = {
    "fixed_time": dict(key="expected_total", whole=False, scheme=_RNG_SCHEME,
                       draw=lambda seed, means, _: _poisson_draws(seed, means)),
    "fixed_shots": dict(key="shots", whole=True, scheme=None, draw=_multinomial_draw),
}


def sample_campaign(config: CampaignConfig) -> CampaignResult:
    """Draw one campaign and estimate its contrasts.

    The draw of each mode is described in the module docstring. Raw or
    corrected counts that sum to zero raise DegenerateMaskError.
    """
    _require_contrast(config.mask.d, config.mask.budget)
    means, accidental = _expected_counts(config)
    counts = _NOISE[config.mode]["draw"](config.seed, means, config.total)
    # subtract_accidentals without re-checking a floor built from a checked config
    corrected = np.maximum(counts - accidental, 0.0)
    # the floor is a constant, so a corrected pixel varies as its raw count does
    raw_contrast, corrected_contrast = _contrasts(config.mask, counts, counts, corrected)
    return CampaignResult(
        counts=Image(counts, kind="counts", family=config.family),
        corrected_counts=Image(corrected, kind="counts", family=config.family),
        raw_contrast=raw_contrast,
        corrected_contrast=corrected_contrast,
        accidental_estimate=accidental,
        seed=config.seed,
    )


def _count_values(counts: Image | np.ndarray, mask: ObjectMask | None = None) -> np.ndarray:
    """Float pixels of whole counts, checked as an Image is and against a mask if given."""
    image = counts if isinstance(counts, Image) else Image(counts, kind="counts")
    values = np.asarray(image.pixels, dtype=float)
    if mask is not None and values.size != mask.d:
        raise ValueError(f"counts have {values.size} pixels but mask has {mask.d}")
    if image.pixels.dtype.kind == "f" and (values != np.floor(values)).any():
        raise ValueError("counts must be whole numbers")
    if mask is not None:
        _require_contrast(mask.d, mask.budget)
    return values


def estimate_contrast(counts: Image | np.ndarray, mask: ObjectMask) -> ContrastValue:
    """Contrast of raw detector counts with propagated Poisson sigma."""
    values = _count_values(counts, mask)
    return _contrasts(mask, values, values)[0]


def bootstrap_contrast_sigma(
    counts: Image | np.ndarray,
    mask: ObjectMask,
    resamples: int = 10_000,
    seed: int = 0,
) -> float:
    """Parametric bootstrap of the contrast sigma.

    Resamples every pixel as Poisson around the observed count and takes
    the spread of the recomputed contrasts. The contrast depends on the
    counts only through the bright total and the dark total, and a sum of
    independent Poisson counts is Poisson, so each resample draws those two
    totals, bright first: the same distribution as a per-pixel draw, at a
    cost independent of d. Resamples that come out all zero carry no
    contrast and are dropped. Bright or dark totals above MAX_EVENT_TOTAL
    are refused.
    """
    values = _count_values(counts, mask)
    if resamples < 2:
        raise ValueError(f"need at least 2 resamples, got {resamples}")
    bright = mask.as_array() == 1
    totals = [float(values[bright].sum()), float(values[~bright].sum())]
    if max(totals) > MAX_EVENT_TOTAL:
        raise ValueError(
            f"bootstrap takes bright and dark totals of at most {MAX_EVENT_TOTAL:g}, "
            f"got {totals[0]:g} and {totals[1]:g}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(_validate_seed(seed)))
    on, off = rng.poisson(totals, size=(int(resamples), 2)).astype(float).T
    nonempty = on + off > 0
    on, off = on[nonempty], off[nonempty]
    if on.size < 2:
        raise ValueError("all resamples were empty; counts are too small to bootstrap")
    contrasts = _contrast(on, off, mask.budget, mask.d - mask.budget).value
    return float(np.std(contrasts, ddof=1))


def subtract_accidentals(
    counts: Image | np.ndarray, accidental: np.ndarray | float
) -> Image:
    """Counts minus an accidental estimate, clamped at zero.

    The counts are checked as estimate_contrast checks them. The result is
    real-valued (kind "counts" still, but no longer whole numbers in
    general).
    """
    values = _count_values(counts)
    estimate = np.broadcast_to(np.asarray(accidental, dtype=float), values.shape)
    if not np.isfinite(estimate).all():
        raise ValueError("accidental estimate must be finite")
    if (estimate < 0).any():
        raise ValueError("accidental estimate must be nonnegative")
    family = counts.family if isinstance(counts, Image) else None
    return Image(np.maximum(values - estimate, 0.0), kind="counts", family=family)


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
    if not _DIP_WIDTHS[0] <= dip_width <= _DIP_WIDTHS[1]:
        raise ValueError(
            f"dip_width must lie in [{_DIP_WIDTHS[0]:g}, {_DIP_WIDTHS[1]:g}], got {dip_width}"
        )
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
    are. At most MAX_SCAN_DELAYS delays are scanned, and dip_width lies in
    [1e-150, 1e150].
    """
    delays, dip_width, shots, seed = _scan_inputs(
        pattern_a, pattern_d, delays, dip_width, shots_per_delay, seed
    )
    weight = antisymmetric_weight(pattern_a, pattern_d)
    with np.errstate(over="ignore"):  # a delay past 1e154 squares to inf: envelope 0
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
