"""Coincidence campaign, contrast estimator, and interference-dip tests.

Frozen statistical expectations come from the closed-form images; the
uncertainty checks use an in-test bootstrap written independently of the
library's propagation formula.
"""

from __future__ import annotations

import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import random_mask

import ghostswap.analytic
from ghostswap.analytic import Image, analytic_contrast, analytic_image, contrast_of_image
from ghostswap.coincidence import (
    MAX_EVENT_TOTAL,
    MAX_SCAN_DELAYS,
    CampaignConfig,
    CampaignResult,
    HomScanResult,
    _contrasts,
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


@pytest.mark.parametrize(
    "change",
    [
        {"total": True},
        {"total": "5"},
        {"accidental_fraction": "0.5"},
        {"accidental_fraction": None},
        {"accidental_fraction": False},
        {"mode": ["fixed_time"]},
    ],
    ids=repr,
)
def test_campaign_config_refuses_non_numbers_with_value_error(change):
    # a bool or a str once passed as a total or a fraction, or failed with
    # a TypeError from a comparison; an unhashable mode must not reach the
    # noise table's dict lookup, which would raise TypeError too
    fields = {"mode": "fixed_time", "total": 100, "accidental_fraction": 0.0, **change}
    with pytest.raises(ValueError):
        CampaignConfig(mask=ObjectMask([1, 0]), family=Projection.ANTI_SYMMETRIC, **fields)


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
@pytest.mark.parametrize("d", [2, 16, 256, 4096, 20000])
def test_campaign_result_matches_public_estimators(d, mode):
    # the campaign's own estimates equal the public functions applied to its
    # counts, exactly: a contrast must not depend on how it was batched.
    # Below 2^53 raw counts sum exactly in any order; above it the int64
    # counts of the campaign and the float counts estimate_contrast sees must
    # be summed the same way, variances included, also with more than 8192
    # pixels a side (d = 20000). The corrected counts sit 0.2 * total / d
    # below the raw ones, so their contrast is the sharper check at 41 d.
    for total in (41 * d, 1e16, 1e17, 1e18):
        config = CampaignConfig(
            mask=ObjectMask.half_on(d), family=Projection.ANTI_SYMMETRIC, mode=mode,
            total=total, accidental_fraction=0.2, seed=d,
        )
        result = sample_campaign(config)
        assert estimate_contrast(result.counts, config.mask) == result.raw_contrast, total
        assert contrast_of_image(result.counts, config.mask).value == result.raw_contrast.value
        corrected = subtract_accidentals(result.counts, result.accidental_estimate)
        assert np.array_equal(result.corrected_counts.pixels, corrected.pixels), total
        assert result.corrected_counts.kind == "counts"
        corrected_value = contrast_of_image(result.corrected_counts, config.mask).value
        assert corrected_value == result.corrected_contrast.value, total


def _composed_campaign(config):
    """A campaign put together from public parts and numpy: the closed-form
    image, the seed's spawned children, Image, subtract_accidentals, and
    estimate_contrast for the raw contrast; the corrected contrast is
    propagated at the corrected pixels with the raw counts as variances."""
    image = analytic_image(config.mask, config.family)
    total, fraction, d = float(config.total), config.accidental_fraction, config.mask.d
    accidental = np.full(d, fraction * total / d)
    means = (1.0 - fraction) * image.pixels * (total / image.total) + accidental
    if config.mode == "fixed_time":
        children = np.random.SeedSequence(config.seed).spawn(-(-d // 4096))
        draws = [
            np.random.default_rng(child).poisson(means[k * 4096:(k + 1) * 4096])
            for k, child in enumerate(children)
        ]
        counts = Image(np.concatenate(draws), kind="counts", family=config.family)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        draw = rng.multinomial(int(config.total), means / means.sum())
        counts = Image(draw, kind="counts", family=config.family)
    corrected = subtract_accidentals(counts, accidental)
    (corrected_contrast,) = _contrasts(
        config.mask, counts.pixels.astype(float), corrected.pixels
    )
    return counts, corrected, accidental, estimate_contrast(counts, config.mask), corrected_contrast


def _bits(contrast):
    return contrast.value.hex(), contrast.sigma.hex()


@pytest.mark.parametrize("mode", ["fixed_time", "fixed_shots"])
@pytest.mark.parametrize("d", [2, 16, 256, 4095, 4096, 4097, 8193])
def test_campaign_is_bit_identical_to_its_public_composition(d, mode):
    rng = np.random.default_rng(d)
    for family in Projection:
        for fraction in (0.0, 0.05, 0.2):
            total = 41 * d
            config = CampaignConfig(
                mask=random_mask(rng, d), family=family, mode=mode,
                total=total if mode == "fixed_shots" else float(total),
                accidental_fraction=fraction, seed=int(rng.integers(2**32)),
            )
            result = sample_campaign(config)
            counts, corrected, accidental, raw, corrected_contrast = _composed_campaign(config)
            case = (family.value, fraction)
            assert result.counts.pixels.dtype == np.int64, case
            assert result.counts.pixels.tobytes() == counts.pixels.tobytes(), case
            assert result.corrected_counts.pixels.tobytes() == corrected.pixels.tobytes(), case
            assert result.accidental_estimate.tobytes() == accidental.tobytes(), case
            for image in (result.counts, result.corrected_counts):
                assert (image.kind, image.family) == ("counts", family), case
                assert not image.pixels.flags.writeable, case
            assert _bits(result.raw_contrast) == _bits(raw), case
            assert _bits(result.corrected_contrast) == _bits(corrected_contrast), case


def test_campaign_cost_model(monkeypatch):
    # a campaign builds no closed-form Image and one SeedSequence per block of
    # 4096 pixels, child k keyed as SeedSequence(seed).spawn(n)[k] is
    closed_forms, sequences = [], []
    real_image, real_sequence = ghostswap.analytic.analytic_image, np.random.SeedSequence

    def counting_image(*args, **kwargs):
        closed_forms.append(1)
        return real_image(*args, **kwargs)

    def recording_sequence(*args, **kwargs):
        sequences.append(real_sequence(*args, **kwargs))
        return sequences[-1]

    for module in [m for name, m in sys.modules.items() if name.startswith("ghostswap")]:
        if getattr(module, "analytic_image", None) is real_image:
            monkeypatch.setattr(module, "analytic_image", counting_image)
    monkeypatch.setattr(np.random, "SeedSequence", recording_sequence)
    d = 2 * 4096 + 5
    for mode in ("fixed_time", "fixed_shots"):
        sequences.clear()
        sample_campaign(
            CampaignConfig(
                mask=ObjectMask.half_on(d), family=Projection.SYMMETRIC, mode=mode,
                total=30 * d, accidental_fraction=0.2, seed=11,
            )
        )
        keys = [(seq.entropy, seq.spawn_key) for seq in sequences]
        if mode == "fixed_time":
            assert keys == [(11, (0,)), (11, (1,)), (11, (2,))]
        else:
            assert keys == [(11, ())]
    assert closed_forms == []
    spawned = real_sequence(11).spawn(3)
    for k, child in enumerate(spawned):
        state = real_sequence(11, spawn_key=(k,)).generate_state(8)
        assert np.array_equal(state, child.generate_state(8))


def test_corrected_contrast_sigma_is_calibrated():
    # the accidental floor is a constant, so a corrected pixel varies as its
    # raw count does: with half the events accidental, the corrected sigma
    # covers the closed-form contrast at the one-sigma rate and matches the
    # spread of 1000 campaigns
    mask = ObjectMask.half_on(16)
    truth = analytic_contrast(16, mask.budget, Projection.ANTI_SYMMETRIC).value
    values, sigmas = np.empty(1000), np.empty(1000)
    for seed in range(values.size):
        corrected = sample_campaign(
            CampaignConfig(
                mask=mask, family=Projection.ANTI_SYMMETRIC, mode="fixed_time",
                total=6400.0, accidental_fraction=0.5, seed=seed,
            )
        ).corrected_contrast
        values[seed], sigmas[seed] = corrected.value, corrected.sigma
    coverage = np.mean(np.abs(values - truth) <= sigmas)
    assert abs(coverage - 0.683) <= 4 * np.sqrt(0.683 * 0.317 / values.size)
    assert 0.9 <= values.std(ddof=1) / np.median(sigmas) <= 1.1


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

def _multinomial_sigma(counts, mask):
    """First-order sigma of the raw contrast with the event total N = B + D
    fixed: Var B = Var D = BD/N and Cov(B, D) = -BD/N, written out here."""
    bright = mask.as_array() == 1
    on, off = float(counts[bright].sum()), float(counts[~bright].sum())
    total, n_on, n_off = on + off, mask.budget, mask.d - mask.budget
    contrast = (on / n_on - off / n_off) / total
    slope_on, slope_off = (1 / n_on - contrast) / total, -(1 / n_off + contrast) / total
    variance, covariance = on * off / total, -on * off / total
    return math.sqrt(
        slope_on**2 * variance + slope_off**2 * variance + 2 * slope_on * slope_off * covariance
    )


@pytest.mark.parametrize("d", [2, 3, 16, 256])
def test_raw_sigma_does_not_depend_on_the_noise_model(d):
    # The raw contrast is homogeneous of degree 0 in (B, D), so
    # B dC/dB + D dC/dD = 0 and the Poisson sigma equals the multinomial one
    # in exact arithmetic: a fixed_shots campaign needs no covariance term.
    # Budgets of at least 2 (where d allows) keep the bright total nonzero.
    rng = np.random.default_rng(2000 + d)
    for family in (Projection.ANTI_SYMMETRIC, Projection.SYMMETRIC):
        for _ in range(50):
            budget = int(rng.integers(min(2, d - 1), d))
            values = np.zeros(d, dtype=int)
            values[rng.choice(d, size=budget, replace=False)] = 1
            mask = ObjectMask(values)
            config = CampaignConfig(
                mask=mask, family=family, mode="fixed_shots",
                total=int(rng.integers(10, 10**6)), seed=int(rng.integers(2**32)),
            )
            result = sample_campaign(config)
            expected = _multinomial_sigma(result.counts.pixels, mask)
            sigma = result.raw_contrast.sigma
            assert abs(sigma - expected) <= 4 * math.ulp(sigma), (family.value, config)


SOURCE = Path(__file__).resolve().parent.parent / "src" / "ghostswap"


def test_noise_modes_are_named_only_in_the_noise_table():
    # every branch on the counting mode reads coincidence._NOISE; a mode name
    # anywhere else in the package would be a second place that decides it
    modes = {"fixed_time", "fixed_shots"}
    tables, strays = [], []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["_NOISE"]:
                tables.append((path.name, {key.value for key in node.value.keys}))
                inside |= {id(child) for child in ast.walk(node)}
        strays += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in modes and id(node) not in inside
        ]
    assert tables == [("coincidence.py", modes)]
    assert strays == []


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


@pytest.mark.parametrize("d", [16, 64])
def test_bootstrap_of_totals_matches_a_per_pixel_bootstrap(d):
    # the library resamples the bright and dark totals; the reference draws
    # every pixel, so the two agree only if the totals carry the distribution
    rng = np.random.default_rng(d)
    mask = random_mask(rng, d)
    counts = rng.poisson(40.0, d) + 1
    library = bootstrap_contrast_sigma(counts, mask, resamples=4000, seed=5)
    reference = in_test_bootstrap_sigma(counts, mask, resamples=4000, seed=60)
    assert library == pytest.approx(reference, rel=0.1)


def test_bootstrap_draws_two_totals_per_resample(monkeypatch):
    # the cost model of the bootstrap: one Poisson call of resamples x 2
    # totals, whatever d is
    counts = np.random.default_rng(1).poisson(50, 256)
    calls = []
    real = np.random.default_rng

    class RecordingGenerator:
        def __init__(self, rng):
            self._rng = rng

        def poisson(self, lam=1.0, size=None):
            calls.append(size)
            return self._rng.poisson(lam, size)

        def __getattr__(self, name):
            return getattr(self._rng, name)

    monkeypatch.setattr(
        np.random, "default_rng", lambda *args, **kwargs: RecordingGenerator(real(*args, **kwargs))
    )
    bootstrap_contrast_sigma(counts, ObjectMask.half_on(256), resamples=3000, seed=4)
    assert calls == [(3000, 2)]


def test_bootstrap_refuses_totals_past_the_event_cap():
    # numpy's Poisson draw refuses means above about 9.2e18; the cap is
    # checked on the bright and dark totals, not on single pixels
    at_cap = np.array([MAX_EVENT_TOTAL, 5.0])
    assert bootstrap_contrast_sigma(at_cap, ObjectMask([1, 0]), resamples=100) >= 0.0
    for counts, mask in (
        (np.array([1e19, 5.0]), ObjectMask([1, 0])),
        (np.array([6e17, 6e17, 1, 1]), ObjectMask([1, 1, 0, 0])),
        (np.array([3, 6e17, 6e17]), ObjectMask([1, 0, 0])),
    ):
        with pytest.raises(ValueError, match="at most 1e\\+18"):
            bootstrap_contrast_sigma(counts, mask, resamples=100)


def test_sigma_vanishes_when_bright_counts_vanish():
    mask = ObjectMask([1, 0])
    result = estimate_contrast(np.array([0, 220]), mask)
    assert result.value == -1.0
    assert result.sigma == 0.0


# ---------------------------------------------------------------------------
# exact law of the raw contrast
# ---------------------------------------------------------------------------

def lattice_contrast(bright, dark, n_bright, n_dark):
    """Raw contrast estimate and its propagated Poisson sigma at bright total
    B and dark total D, written out here: C = (B/n_b - D/n_d) / (B + D). A
    bright pixel's derivative is (1/n_b - C) / (B + D) and its variance its
    count, so the bright pixels add (1/n_b - C)^2 B / (B + D)^2 to sigma^2
    and the dark pixels (1/n_d + C)^2 D / (B + D)^2."""
    total = bright + dark
    contrast = (bright / n_bright - dark / n_dark) / total
    spread = (1 / n_bright - contrast) ** 2 * bright + (1 / n_dark + contrast) ** 2 * dark
    return contrast, np.sqrt(spread) / total


def _log_factorials(k):
    return np.array([math.lgamma(x + 1.0) for x in k.tolist()])


def _truncated_poisson(mean):
    """Counts within 12 SD of a Poisson mean and their pmf."""
    half = 12.0 * math.sqrt(mean)
    k = np.arange(max(0, math.floor(mean - half)), math.ceil(mean + half) + 1)
    return k, np.exp(k * math.log(mean) - mean - _log_factorials(k))


def _expected_totals(mask, family, total, fraction):
    """Expected bright and dark totals of a campaign, as sample_campaign means them."""
    image = analytic_image(mask, family)
    means = (1.0 - fraction) * image.pixels * (total / image.total) + fraction * total / mask.d
    bright = mask.as_array() == 1
    return float(means[bright].sum()), float(means[~bright].sum())


def exact_contrast_law(mask, family, mode, total, fraction):
    """Exact law of the raw contrast estimate of a campaign, summed over the
    bright and dark totals (B, D), on which alone the estimate depends.

    In fixed_time mode B and D are independent Poissons, truncated at 12 SD;
    in fixed_shots mode B is binomial over all of 0..N and D = N - B. The
    outcome B + D = 0 has no contrast and is left out. Returns the contrast
    of the expected counts, and the mean, SD, one-sigma coverage of that
    contrast and RMS sigma of the estimate.
    """
    d, n_bright = mask.d, mask.budget
    lam_b, lam_d = _expected_totals(mask, family, total, fraction)
    truth = (lam_b / n_bright - lam_d / (d - n_bright)) / (lam_b + lam_d)
    if mode == "fixed_shots":
        n = int(total)
        k = np.arange(n + 1)
        log_fact = _log_factorials(k)
        p = lam_b / (lam_b + lam_d)
        log_pmf = log_fact[n] - log_fact - log_fact[::-1] + k * math.log(p) + (n - k) * math.log1p(-p)
        blocks = [(k, n - k, np.exp(log_pmf))]
    else:
        kb, pb = _truncated_poisson(lam_b)
        kd, pd = _truncated_poisson(lam_d)
        blocks = (
            np.broadcast_arrays(kb[i:i + 256, None], kd[None, :], np.outer(pb[i:i + 256], pd))
            for i in range(0, kb.size, 256)
        )
    # weighted sums of 1, C - truth, (C - truth)^2, covered and sigma^2
    sums = np.zeros(5)
    for b, dark, weight in blocks:
        keep = b + dark > 0
        contrast, sigma = lattice_contrast(b[keep], dark[keep], n_bright, d - n_bright)
        weight, offset = weight[keep], contrast - truth
        sums += [
            weight.sum(), (weight * offset).sum(), (weight * offset**2).sum(),
            weight[np.abs(offset) <= sigma].sum(), (weight * sigma**2).sum(),
        ]
    _, first, second, covered, variance = sums / sums[0]
    return {
        "truth": truth,
        "mean": truth + first,
        "sd": math.sqrt(second - first**2),
        "coverage": covered,
        "rms_sigma": math.sqrt(variance),
    }


@pytest.mark.parametrize("mode", ["fixed_time", "fixed_shots"])
@pytest.mark.parametrize("d", [4, 16, 256])
def test_raw_contrast_sigma_is_calibrated_by_its_exact_law(d, mode):
    # 100 d events on a half-on mask: the propagated sigma covers the
    # contrast of the expected counts at the one-sigma rate, and its RMS is
    # the exact SD of the estimate
    mask = ObjectMask.half_on(d)
    for family in (Projection.ANTI_SYMMETRIC, Projection.SYMMETRIC):
        for fraction in (0.0, 0.5):
            law = exact_contrast_law(mask, family, mode, 100 * d, fraction)
            case = (family.value, fraction, law)
            assert abs(law["coverage"] - 0.683) <= 0.03, case
            assert 0.95 <= law["sd"] / law["rms_sigma"] <= 1.05, case


@pytest.mark.parametrize("mode", ["fixed_time", "fixed_shots"])
def test_lattice_contrast_is_the_library_estimate(mode):
    # the exact law above describes estimate_contrast, not a copy of it:
    # counts with the totals of sampled lattice points give the same value
    # and sigma to 1e-12
    rng = np.random.default_rng(12)
    for d in (4, 16, 256):
        mask = ObjectMask.half_on(d)
        bright = mask.as_array() == 1
        n_bright = mask.budget
        for family in (Projection.ANTI_SYMMETRIC, Projection.SYMMETRIC):
            lam_b, lam_d = _expected_totals(mask, family, 100 * d, 0.5)
            for _ in range(5):
                if mode == "fixed_shots":
                    b = int(rng.integers(0, 100 * d + 1))
                    dark = 100 * d - b
                else:
                    b, dark = (int(rng.choice(_truncated_poisson(lam)[0])) for lam in (lam_b, lam_d))
                counts = np.zeros(d, dtype=np.int64)
                counts[bright] = b // n_bright
                counts[~bright] = dark // (d - n_bright)
                counts[np.flatnonzero(bright)[0]] += b % n_bright
                counts[np.flatnonzero(~bright)[0]] += dark % (d - n_bright)
                estimate = estimate_contrast(counts, mask)
                contrast, sigma = lattice_contrast(float(b), float(dark), n_bright, d - n_bright)
                assert estimate.value == pytest.approx(contrast, rel=1e-12, abs=0.0), (d, b, dark)
                assert estimate.sigma == pytest.approx(sigma, rel=1e-12, abs=0.0), (d, b, dark)


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


@pytest.mark.parametrize(
    "counts", [[-5, 3], [2.5, 3.0], [np.nan, 3.0], [np.inf, 3.0], [[1, 2]]], ids=repr
)
@pytest.mark.parametrize(
    "check",
    [
        lambda counts: subtract_accidentals(counts, 0.0),
        lambda counts: estimate_contrast(counts, ObjectMask([1, 0])),
        lambda counts: bootstrap_contrast_sigma(counts, ObjectMask([1, 0]), resamples=10),
    ],
    ids=["subtract_accidentals", "estimate_contrast", "bootstrap_contrast_sigma"],
)
def test_counts_have_one_validator(check, counts):
    # subtract_accidentals once clamped a negative count to zero and kept a
    # fractional one, counts that the two estimators refuse
    with pytest.raises(ValueError):
        check(np.array(counts))


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


def test_hom_scan_takes_extreme_delays_and_widths():
    # no overflow warning (pytest turns warnings into errors) and no NaN:
    # the envelope is 1 at zero delay and 0 where the delay dwarfs the width
    pattern = ObjectMask([1, 0])
    for width in (1e-150, 1.0, 1e150):
        scan = hom_scan(pattern, pattern, np.array([0.0, 1e200, -1e308]), dip_width=width)
        assert scan.rates.tolist() == [0.0, 0.5, 0.5]
    for width in (5e-324, 1e-151, 1e151, 1e308, float("inf"), float("nan"), 0.0, -1.0):
        with pytest.raises(ValueError, match="dip_width must lie in"):
            hom_scan(pattern, pattern, np.array([0.0]), dip_width=width)


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
