"""Acceptance checks, one test per contract point.

Each test prints a single "[acceptance NN] name: PASS/FAIL" line (visible
under pytest -s) and then asserts, so the suite fails loudly on any miss.
Numeric pins are stated inline with their tolerances.
"""

from __future__ import annotations

import json
import time

import numpy as np

import ghostswap.cli as cli
from ghostswap.analytic import (
    analytic_contrast,
    analytic_image,
    conditional_density,
    projection_probability,
)
from ghostswap.coincidence import (
    CampaignConfig,
    bootstrap_contrast_sigma,
    estimate_contrast,
    hom_scan,
    rate_budget,
    sample_campaign,
)
from ghostswap.hilbert import (
    ObjectMask,
    Projection,
    build_initial_state,
    enumerate_projectors,
    project_bc,
)
from ghostswap.io import read_csv

from conftest import norm_sq, random_mask, tensor_image


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line = f"{line} ({detail})"
    print(line)
    assert ok, line


def test_01_closed_form_contrast_pins():
    family = Projection.ANTI_SYMMETRIC
    analytic_contrast(2, 1, family)  # warm any lazy setup
    start = time.perf_counter()
    two = analytic_contrast(2, 1, family).value
    four = analytic_contrast(4, 1, family).value
    elapsed = time.perf_counter() - start
    ok = (
        abs(two - (-1.0)) <= 1e-15
        and abs(four - (-1.0 / 3.0)) <= 1e-15
        and elapsed < 1e-3
    )
    _report(1, "closed-form contrast pins", ok, f"{two}, {four}, {elapsed * 1e6:.0f}us")


def _exact_poisson_contrast_sd(bright: float, dark: float) -> float:
    """SD of (a - b) / (a + b) summed exactly over Poisson(bright) x Poisson(dark).

    The outcome a + b = 0 is left out (probability exp(-(bright + dark))) and
    the rest renormalised. Both pmfs are truncated at 600 counts, more than
    30 sigma past the larger mean for the counts used here.
    """
    k = np.arange(600)
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, 600)))))
    pmf_a = np.exp(k * np.log(bright) - bright - log_factorial)
    pmf_b = np.exp(k * np.log(dark) - dark - log_factorial)
    total = k[:, None] + k[None, :]
    contrast = np.divide(
        k[:, None] - k[None, :], total, out=np.zeros(total.shape), where=total > 0
    )
    weight = np.where(total > 0, np.outer(pmf_a, pmf_b), 0.0)
    weight /= weight.sum()
    mean = float(np.sum(weight * contrast))
    return float(np.sqrt(np.sum(weight * (contrast - mean) ** 2)))


def test_02_two_pixel_estimate_with_uncertainty():
    counts = np.array([45, 175])
    mask = ObjectMask([1, 0])
    start = time.perf_counter()
    estimate = estimate_contrast(counts, mask)
    resampled = bootstrap_contrast_sigma(counts, mask, resamples=10_000, seed=2)
    elapsed = time.perf_counter() - start
    value_ok = abs(estimate.value - (-0.59)) <= 0.005
    agreement_ok = abs(estimate.sigma - resampled) / resampled < 0.20
    # With d = 2 the contrast is C = (a - b) / (a + b), a bright and b dark.
    # First-order Poisson propagation gives sigma = 2 sqrt(ab / (a + b)^3)
    # = 0.0543903 for {45, 175}. Conditioning on N = a + b = 220 makes a
    # binomial with p = 45/220, and 2 sqrt(p (1 - p) / N) is the same number.
    # Summing C exactly over Poisson(45) x Poisson(175) gives SD 0.0545149,
    # within 0.3% of the first-order value; pinned here to 1%.
    a, b = (float(c) for c in counts)
    closed_form_ok = abs(estimate.sigma - 2.0 * np.sqrt(a * b / (a + b) ** 3)) <= 1e-12
    exact_sd = _exact_poisson_contrast_sd(a, b)
    exact_ok = abs(estimate.sigma - exact_sd) / exact_sd < 0.01
    ok = value_ok and agreement_ok and closed_form_ok and exact_ok and elapsed < 1.0
    _report(
        2,
        "two-pixel estimate with uncertainty",
        ok,
        f"value={estimate.value:.6f}, sigma={estimate.sigma:.6f}, "
        f"exact={exact_sd:.6f}, bootstrap={resampled:.6f}, {elapsed:.2f}s",
    )


def test_03_four_pixel_estimate_bracket():
    counts = np.array([168, 191, 98, 227])
    mask = ObjectMask([0, 0, 1, 0])
    value = estimate_contrast(counts, mask).value
    ok = -0.34 <= value <= -0.04
    _report(3, "four-pixel estimate bracket", ok, f"value={value:.6f}")


def test_04_closed_forms_match_tensor_contraction():
    rng = np.random.default_rng(1404)
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for _ in range(200):
        d = int(rng.integers(2, 9))
        mask = random_mask(rng, d, contrastable=False)
        family = rng.choice(list(Projection))
        gap = np.max(
            np.abs(tensor_image(mask, family) - analytic_image(mask, family).pixels)
        )
        worst = max(worst, float(gap))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 60.0
    _report(
        4,
        "closed forms match tensor contraction",
        ok,
        f"{checked} masks, worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_05_family_probabilities_by_enumeration():
    worst = 0.0
    for d in range(2, 9):
        state = build_initial_state(d)
        for family in (Projection.ANTI_SYMMETRIC, Projection.SYMMETRIC, Projection.PHI):
            total = sum(
                norm_sq(project_bc(state, p)) for p in enumerate_projectors(d, (family,))
            )
            worst = max(worst, abs(total - projection_probability(d, family)))
    ok = worst <= 1e-12
    _report(5, "family probabilities by enumeration", ok, f"worst gap {worst:.2e}")


def test_06_family_panel_identities_from_files(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "panel"
    code = cli.main(
        ["figure2", "--dimension", "100", "--budget", "20", "--out-dir", str(out)]
    )
    columns = {}
    for stem in ("psi_minus", "psi_plus", "phi", "anti_symmetric", "symmetric", "sum"):
        _, rows = read_csv(out / f"{stem}.csv")
        columns[stem] = np.array([float(row[1]) for row in rows])
    elapsed = time.perf_counter() - start
    same_minus = np.array_equal(columns["anti_symmetric"], columns["psi_minus"])
    same_plus = np.array_equal(
        columns["symmetric"], columns["psi_plus"] + columns["phi"]
    )
    flat = np.array_equal(columns["sum"], np.full(100, 40.0 / 20000.0))
    ok = code == 0 and same_minus and same_plus and flat and elapsed < 5.0
    _report(
        6,
        "family panel identities from files",
        ok,
        f"exit={code}, {elapsed:.2f}s",
    )


def test_07_conditional_densities_sum_to_identity():
    rng = np.random.default_rng(1407)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 9))
        mask = random_mask(rng, d, contrastable=False)
        total = (
            conditional_density(mask, Projection.ANTI_SYMMETRIC).entries
            + conditional_density(mask, Projection.SYMMETRIC).entries
        )
        expected = (mask.budget / d**2) * np.eye(d)
        worst = max(worst, float(np.max(np.abs(total - expected))))
    ok = worst <= 1e-12
    _report(7, "conditional densities sum to identity", ok, f"worst gap {worst:.2e}")


def test_08_campaign_mean_contrast():
    mask = ObjectMask([1, 0])
    start = time.perf_counter()
    values = np.empty(10_000)
    for seed in range(values.size):
        config = CampaignConfig(
            mask=mask,
            family=Projection.ANTI_SYMMETRIC,
            mode="fixed_time",
            total=220,
            seed=seed,
        )
        values[seed] = sample_campaign(config).raw_contrast.value
    elapsed = time.perf_counter() - start
    mean = values.mean()
    sem = values.std(ddof=1) / np.sqrt(values.size)
    ok = abs(mean - (-1.0)) <= 3 * sem and elapsed < 120.0
    _report(
        8,
        "campaign mean contrast",
        ok,
        f"mean={mean}, sem={sem}, {elapsed:.1f}s",
    )


def test_09_interference_dip_endpoints():
    pattern = ObjectMask([1, 0])
    same = hom_scan(pattern, pattern, np.array([0.0, 60.0]), dip_width=1.0)
    opposite = hom_scan(
        pattern,
        ObjectMask([0, 1]),
        np.linspace(-5.0, 5.0, 101),
        dip_width=1.0,
    )
    deviation = float(np.max(np.abs(opposite.rates - 0.5)))
    ok = same.rates[0] == 0.0 and same.rates[1] == 0.5 and deviation < 1e-15
    _report(
        9,
        "interference dip endpoints",
        ok,
        f"dip={same.rates[0]}, far={same.rates[1]}, flat dev {deviation:.2e}",
    )


def test_10_fourfold_rate_budget():
    value = rate_budget(0.25)
    ok = value == 0.00390625
    _report(10, "fourfold rate budget", ok, f"value={value}")
