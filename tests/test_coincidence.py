"""Coincidence campaign, contrast estimator, and interference-dip tests.

Frozen statistical expectations come from the closed-form images; the
uncertainty checks use an in-test bootstrap written independently of the
library's propagation formula.
"""

from __future__ import annotations

import numpy as np
import pytest

from ghostswap.analytic import Image, analytic_contrast, analytic_image, contrast_of_image
from ghostswap.coincidence import (
    MAX_SCAN_DELAYS,
    CampaignConfig,
    CampaignResult,
    HomScanResult,
    antisymmetric_weight,
    bootstrap_contrast_sigma,
    estimate_contrast,
    hom_scan,
    rate_budget,
    sample_campaign,
    subtract_accidentals,
)
from ghostswap.errors import DegenerateMaskError
from ghostswap.hilbert import ObjectMask, Projection, enumerate_projectors


def in_test_bootstrap_sigma(counts, mask, resamples, seed):
    """Independent parametric bootstrap, loop-based on purpose."""
    rng = np.random.default_rng(seed)
    bright = mask.as_array() == 1
    values = []
    for _ in range(resamples):
        draw = rng.poisson(np.asarray(counts, dtype=float))
        total = draw.sum()
        if total == 0:
            continue
        values.append((draw[bright].mean() - draw[~bright].mean()) / total)
    return float(np.std(values, ddof=1))


# ---------------------------------------------------------------------------
# campaign configuration and sampling
# ---------------------------------------------------------------------------

def test_campaign_config_validation():
    mask = ObjectMask([1, 0])
    good = CampaignConfig(mask=mask, family=Projection.ANTI_SYMMETRIC, mode="fixed_time", total=220)
    assert good.seed == 0
    with pytest.raises(ValueError):
        CampaignConfig(mask=mask, family=Projection.ANTI_SYMMETRIC, mode="per_pixel", total=220)
    with pytest.raises(ValueError):
        CampaignConfig(mask=mask, family=Projection.ANTI_SYMMETRIC, mode="fixed_time", total=0)
    with pytest.raises(ValueError):
        CampaignConfig(
            mask=mask, family=Projection.ANTI_SYMMETRIC, mode="fixed_time", total=100,
            accidental_fraction=1.0,
        )
    with pytest.raises(ValueError):
        CampaignConfig(
            mask=mask, family=Projection.ANTI_SYMMETRIC, mode="fixed_time", total=100,
            seed=-1,
        )


def test_sample_campaign_dark_pixel_rates():
    # frozen: for d=4, budget 1, anti-symmetric family the bright pixel has
    # zero expected signal and each dark pixel expects 684/3 = 228 counts
    mask = ObjectMask([1, 0, 0, 0])
    totals = np.zeros(4)
    n_seeds = 400
    for seed in range(n_seeds):
        config = CampaignConfig(
            mask=mask, family=Projection.ANTI_SYMMETRIC, mode="fixed_time", total=684, seed=seed
        )
        result = sample_campaign(config)
        counts = result.counts.pixels
        assert counts[0] == 0
        totals += counts
    means = totals / n_seeds
    # 228 with sigma sqrt(228/400) ~ 0.76 per pixel
    assert np.allclose(means[1:], 228.0, atol=4.0)


def test_sample_campaign_is_deterministic():
    mask = ObjectMask([1, 1, 0, 0])
    config = CampaignConfig(
        mask=mask, family=Projection.SYMMETRIC, mode="fixed_time", total=5000,
        accidental_fraction=0.2, seed=42,
    )
    first = sample_campaign(config)
    second = sample_campaign(config)
    assert np.array_equal(first.counts.pixels, second.counts.pixels)
    assert first.raw_contrast == second.raw_contrast
    assert first.corrected_contrast == second.corrected_contrast
    third = sample_campaign(
        CampaignConfig(
            mask=mask, family=Projection.SYMMETRIC, mode="fixed_time", total=5000,
            accidental_fraction=0.2, seed=43,
        )
    )
    assert not np.array_equal(first.counts.pixels, third.counts.pixels)


def test_sample_campaign_per_pixel_substreams():
    # pixels draw in blocks of 4096, block k from child k of the seed: a
    # block whose expected counts are unchanged draws the same counts even
    # when other blocks change, which is what makes parallel evaluation
    # order-independent
    d = 2 * 4096 + 5
    runs = []
    for bright in (0, 1):
        values = np.zeros(d, dtype=np.int64)
        values[bright] = 1
        runs.append(
            sample_campaign(
                CampaignConfig(
                    mask=ObjectMask(values), family=Projection.ANTI_SYMMETRIC,
                    mode="fixed_time", total=300 * (d - 1), seed=11,
                )
            ).counts.pixels
        )
    base, moved = runs
    # every pixel past block 0 is dark, with expectation 300, in both runs
    assert np.array_equal(base[4096:], moved[4096:])
    # blocks 1 and 2 have equal means, so only their own streams tell them apart
    assert not np.array_equal(base[2 * 4096:], base[4096:4096 + 5])


def test_sample_campaign_fixed_shots_mode():
    mask = ObjectMask([1, 0, 0, 0])
    config = CampaignConfig(
        mask=mask, family=Projection.ANTI_SYMMETRIC, mode="fixed_shots", total=684, seed=3
    )
    result = sample_campaign(config)
    assert result.counts.pixels.sum() == 684
    again = sample_campaign(config)
    assert np.array_equal(result.counts.pixels, again.counts.pixels)


def test_sample_campaign_accidental_estimate():
    mask = ObjectMask([1, 1, 0, 0])
    config = CampaignConfig(
        mask=mask, family=Projection.SYMMETRIC, mode="fixed_time", total=1000,
        accidental_fraction=0.2, seed=1,
    )
    result = sample_campaign(config)
    assert np.array_equal(result.accidental_estimate, np.full(4, 50.0))
    assert result.seed == 1
    assert result.counts.kind == "counts"
    assert np.issubdtype(result.counts.pixels.dtype, np.integer)


def test_sample_campaign_rejects_degenerate_masks():
    for values in ([1, 1, 1, 1], [0, 0, 0, 0]):
        config = CampaignConfig(
            mask=ObjectMask(values), family=Projection.SYMMETRIC,
            mode="fixed_time", total=100,
        )
        with pytest.raises(DegenerateMaskError):
            sample_campaign(config)


def test_sample_campaign_rejects_empty_draws():
    # no events at all, and events that accidental subtraction removes
    # entirely: this seed draws one count per pixel against a floor of 1.8
    mask = ObjectMask([1, 0, 0, 0])
    empty = CampaignConfig(
        mask=mask, family=Projection.SYMMETRIC, mode="fixed_time", total=1e-9,
    )
    corrected_away = CampaignConfig(
        mask=mask, family=Projection.SYMMETRIC, mode="fixed_time", total=8,
        accidental_fraction=0.9, seed=111,
    )
    for config in (empty, corrected_away):
        with pytest.raises(DegenerateMaskError):
            sample_campaign(config)


@pytest.mark.parametrize("mode", ["fixed_time", "fixed_shots"])
@pytest.mark.parametrize("d", [2, 16, 256, 4096])
def test_campaign_result_matches_public_estimators(d, mode):
    # the campaign's own estimates equal the public functions applied to its
    # counts, exactly: a contrast must not depend on how it was batched.
    # Raw counts are whole numbers and sum exactly in any order; the
    # corrected counts sit 8.2 below them, so their contrast is the sharper
    # check.
    config = CampaignConfig(
        mask=ObjectMask.half_on(d), family=Projection.ANTI_SYMMETRIC, mode=mode,
        total=41 * d, accidental_fraction=0.2, seed=d,
    )
    result = sample_campaign(config)
    assert estimate_contrast(result.counts, config.mask) == result.raw_contrast
    corrected = subtract_accidentals(result.counts, result.accidental_estimate)
    assert np.array_equal(result.corrected_counts.pixels, corrected.pixels)
    assert result.corrected_counts.kind == "counts"
    corrected_value = contrast_of_image(result.corrected_counts, config.mask).value
    assert corrected_value == result.corrected_contrast.value


def test_campaign_contrast_is_exact_when_bright_counts_vanish():
    # with budget 1 the anti-symmetric image is zero at the bright pixel,
    # so every draw gives the analytic contrast: exactly at d=2, and to
    # within rounding of the dark-pixel mean at d=4
    for seed in range(50):
        two = CampaignConfig(
            mask=ObjectMask([1, 0]),
            family=Projection.ANTI_SYMMETRIC, mode="fixed_time", total=220, seed=seed,
        )
        assert sample_campaign(two).raw_contrast.value == -1.0
        four = CampaignConfig(
            mask=ObjectMask([1, 0, 0, 0]),
            family=Projection.ANTI_SYMMETRIC, mode="fixed_time", total=220, seed=seed,
        )
        assert sample_campaign(four).raw_contrast.value == pytest.approx(-1.0 / 3.0, abs=5e-16)


def test_campaign_convergence_to_analytic_contrast():
    mask = ObjectMask([1, 1, 0, 0])
    predicted = analytic_contrast(4, 2, Projection.SYMMETRIC).value
    values = []
    for seed in range(300):
        config = CampaignConfig(
            mask=mask, family=Projection.SYMMETRIC, mode="fixed_time", total=2000, seed=seed
        )
        values.append(sample_campaign(config).raw_contrast.value)
    values = np.array(values)
    sem = values.std(ddof=1) / np.sqrt(len(values))
    assert abs(values.mean() - predicted) < 3 * sem


def test_accidental_subtraction_neutrality():
    mask = ObjectMask([1, 1, 0, 0])
    corrected, clean = [], []
    for seed in range(300):
        noisy = CampaignConfig(
            mask=mask, family=Projection.SYMMETRIC, mode="fixed_time", total=3000,
            accidental_fraction=0.3, seed=seed,
        )
        quiet = CampaignConfig(
            mask=mask, family=Projection.SYMMETRIC, mode="fixed_time", total=3000,
            accidental_fraction=0.0, seed=seed,
        )
        corrected.append(sample_campaign(noisy).corrected_contrast.value)
        clean.append(sample_campaign(quiet).raw_contrast.value)
    corrected = np.array(corrected)
    clean = np.array(clean)
    gap = abs(corrected.mean() - clean.mean())
    spread = np.sqrt(
        corrected.var(ddof=1) / len(corrected) + clean.var(ddof=1) / len(clean)
    )
    assert gap < 4 * spread


# ---------------------------------------------------------------------------
# contrast estimation
# ---------------------------------------------------------------------------

def test_estimate_contrast_reference_counts():
    mask = ObjectMask([1, 0])
    result = estimate_contrast(np.array([45, 175]), mask)
    # frozen: (45 - 175) / 220
    assert result.value == -130.0 / 220.0
    # frozen by first-order propagation, cross-checked by the bootstrap below
    assert result.sigma == pytest.approx(0.05439027512846356, abs=1e-12)


def test_estimate_contrast_accepts_counts_images():
    mask = ObjectMask([1, 0])
    image = Image(np.array([45, 175]), kind="counts")
    assert estimate_contrast(image, mask).value == -130.0 / 220.0


def test_estimate_contrast_rejects_bad_counts():
    mask = ObjectMask([1, 0])
    with pytest.raises(ValueError):
        estimate_contrast(np.array([45.5, 175.0]), mask)
    with pytest.raises(ValueError):
        estimate_contrast(np.array([-1, 175]), mask)
    with pytest.raises(ValueError):
        estimate_contrast(np.array([0, 0]), mask)
    with pytest.raises(DegenerateMaskError):
        estimate_contrast(np.array([3, 4]), ObjectMask([1, 1]))


def test_propagated_sigma_agrees_with_bootstrap():
    cases = [
        (np.array([45, 175]), ObjectMask([1, 0])),
        (np.array([168, 191, 98, 227]), ObjectMask([0, 0, 1, 0])),
        (np.array([40, 60, 55, 38, 120, 90]), ObjectMask([1, 0, 1, 0, 0, 1])),
    ]
    for counts, mask in cases:
        propagated = estimate_contrast(counts, mask).sigma
        resampled = bootstrap_contrast_sigma(counts, mask, resamples=10_000, seed=77)
        assert abs(propagated - resampled) / resampled < 0.20


def test_bootstrap_matches_independent_implementation():
    counts = np.array([45, 175])
    mask = ObjectMask([1, 0])
    library = bootstrap_contrast_sigma(counts, mask, resamples=4000, seed=5)
    reference = in_test_bootstrap_sigma(counts, mask, resamples=4000, seed=60)
    assert library == pytest.approx(reference, rel=0.1)


def test_bootstrap_is_deterministic():
    counts = np.array([45, 175])
    mask = ObjectMask([1, 0])
    a = bootstrap_contrast_sigma(counts, mask, resamples=500, seed=9)
    b = bootstrap_contrast_sigma(counts, mask, resamples=500, seed=9)
    assert a == b


def test_sigma_vanishes_when_bright_counts_vanish():
    mask = ObjectMask([1, 0])
    result = estimate_contrast(np.array([0, 220]), mask)
    assert result.value == -1.0
    assert result.sigma == 0.0


# ---------------------------------------------------------------------------
# accidental subtraction
# ---------------------------------------------------------------------------

def test_subtract_accidentals_reference():
    mask = ObjectMask([1, 0])
    corrected = subtract_accidentals(np.array([45, 175]), np.array([10.0, 10.0]))
    assert np.array_equal(corrected.pixels, np.array([35.0, 165.0]))
    # frozen: (35 - 165) / 200
    value = estimate_contrast(corrected, mask).value
    assert value == -0.65


def test_subtract_accidentals_clamps_at_zero():
    corrected = subtract_accidentals(np.array([5, 20]), 10.0)
    assert np.array_equal(corrected.pixels, np.array([0.0, 10.0]))
    assert corrected.kind == "counts"


def test_subtract_accidentals_rejects_negative_estimate():
    with pytest.raises(ValueError):
        subtract_accidentals(np.array([5, 20]), -1.0)


# ---------------------------------------------------------------------------
# interference dip
# ---------------------------------------------------------------------------

def test_antisymmetric_weight_reference_values():
    same = antisymmetric_weight(ObjectMask([1, 0]), ObjectMask([1, 0]))
    assert same == 0.0
    opposite = antisymmetric_weight(ObjectMask([1, 0]), ObjectMask([0, 1]))
    assert opposite == pytest.approx(0.5, abs=1e-15)
    partial = antisymmetric_weight(
        ObjectMask([1, 1, 0, 0]), ObjectMask([0, 1, 1, 0])
    )
    # closed form (1 - overlap) / 2 with overlap 1/4
    assert partial == pytest.approx(0.375, abs=1e-15)


def test_antisymmetric_weight_matches_dense_oracle():
    # dense reference: the heralded pair is the uniform mixture of |i, j>
    # over the transmitted pixels, weighed against every anti-symmetric
    # projector of the full basis
    rng = np.random.default_rng(4711)
    for d in range(2, 9):
        overlap = np.zeros((d, d))
        for projector in enumerate_projectors(d, Projection.ANTI_SYMMETRIC):
            overlap += np.abs(projector.state_vector()) ** 2
        for _ in range(8):
            a, b = rng.integers(0, 2, size=(2, d))
            a[rng.integers(d)] = 1
            b[rng.integers(d)] = 1
            expected = float(np.sum(np.outer(a, b) * overlap)) / (a.sum() * b.sum())
            got = antisymmetric_weight(ObjectMask(a), ObjectMask(b))
            assert abs(got - expected) <= 1e-12


def test_hom_scan_same_pattern_dip():
    pattern = ObjectMask([1, 0])
    delays = np.array([-50.0, -2.0, -1.0, 0.0, 1.0, 2.0, 50.0])
    scan = hom_scan(pattern, pattern, delays, dip_width=1.0)
    assert scan.rates[3] == 0.0
    assert scan.rates[0] == 0.5
    assert scan.rates[-1] == 0.5
    magnitudes = np.abs(delays)
    order = np.argsort(magnitudes)
    assert np.all(np.diff(scan.rates[order]) >= 0)
    assert scan.sampled_counts is None


def test_hom_scan_opposite_pattern_flat():
    scan = hom_scan(
        ObjectMask([1, 0]),
        ObjectMask([0, 1]),
        np.linspace(-3, 3, 41),
        dip_width=1.0,
    )
    assert np.all(np.abs(scan.rates - 0.5) < 1e-15)


def test_hom_scan_halfway_rate_value():
    # frozen: gamma(1) = exp(-1/2), same-pattern rate (1 - gamma)/2
    pattern = ObjectMask([1, 0])
    scan = hom_scan(pattern, pattern, np.array([1.0]), dip_width=1.0)
    assert scan.rates[0] == pytest.approx((1 - np.exp(-0.5)) / 2, abs=1e-15)


def test_hom_scan_sampling_is_deterministic():
    pattern = ObjectMask([1, 0])
    delays = np.linspace(-2, 2, 21)
    a = hom_scan(pattern, pattern, delays, dip_width=1.0, shots_per_delay=1000, seed=13)
    b = hom_scan(pattern, pattern, delays, dip_width=1.0, shots_per_delay=1000, seed=13)
    assert np.array_equal(a.sampled_counts, b.sampled_counts)
    assert a.sampled_counts[10] == 0  # rate is exactly zero at zero delay
    assert a.sampled_counts[0] > 0


def test_hom_scan_validation():
    pattern = ObjectMask([1, 0])
    with pytest.raises(ValueError):
        hom_scan(pattern, pattern, np.array([]), dip_width=1.0)
    with pytest.raises(ValueError):
        hom_scan(pattern, pattern, np.array([0.0]), dip_width=0.0)
    with pytest.raises(ValueError):
        hom_scan(pattern, ObjectMask([1, 0, 0]), np.array([0.0]), dip_width=1.0)
    with pytest.raises(ValueError):
        hom_scan(ObjectMask([0, 0]), pattern, np.array([0.0]), dip_width=1.0)


def test_hom_scan_caps_the_delay_count():
    pattern = ObjectMask([1, 0])
    scan = hom_scan(pattern, pattern, np.zeros(MAX_SCAN_DELAYS), dip_width=1.0)
    assert scan.rates.size == MAX_SCAN_DELAYS
    with pytest.raises(ValueError, match="delay scan takes"):
        hom_scan(pattern, pattern, np.zeros(MAX_SCAN_DELAYS + 1), dip_width=1.0)


def test_poisson_draws_build_one_generator_per_block(monkeypatch):
    # the cost model of the sampler: one generator per 4096 draws, not one
    # per pixel or per delay
    built = []
    real = np.random.default_rng

    def counting_rng(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    sample_campaign(
        CampaignConfig(
            mask=ObjectMask.half_on(100_000), family=Projection.ANTI_SYMMETRIC,
            mode="fixed_time", total=1e7, seed=3,
        )
    )
    assert len(built) == 25  # ceil(10^5 / 4096)
    built.clear()
    pattern = ObjectMask([1, 0])
    delays = np.linspace(-3.0, 3.0, 10_001)
    hom_scan(pattern, pattern, delays, dip_width=1.0, shots_per_delay=100, seed=3)
    assert len(built) == 3


def test_all_on_patterns_are_allowed_in_hom_scan():
    # a full-transmission pattern heralds everywhere; only empty patterns fail
    scan = hom_scan(
        ObjectMask([1, 1]),
        ObjectMask([1, 1]),
        np.array([0.0]),
        dip_width=1.0,
    )
    assert scan.rates[0] == pytest.approx(0.25, abs=1e-15)


# ---------------------------------------------------------------------------
# rate budget
# ---------------------------------------------------------------------------

def test_rate_budget_reference_values():
    assert rate_budget(0.25) == 0.00390625
    assert rate_budget(0.5) == 0.0625
    assert rate_budget(1.0) == 1.0


def test_rate_budget_validation():
    for bad in (0.0, -0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            rate_budget(bad)
