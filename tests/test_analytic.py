"""Closed-form image and contrast tests.

Frozen expectations were computed by summing joint probabilities from the
dense-tensor machinery (an independent path) or by hand from the masked
state, before the closed forms were implemented.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostswap.analytic import (
    ContrastValue,
    Image,
    add_images,
    analytic_contrast,
    analytic_image,
    conditional_density,
    contrast_of_image,
    projection_probability,
)
from ghostswap.errors import DegenerateMaskError
from ghostswap.hilbert import (
    ObjectMask,
    Projection,
    apply_object_mask,
    build_initial_state,
    enumerate_projectors,
    project_bc,
)

from conftest import norm_sq, random_mask, tensor_image


def oracle_density(mask: ObjectMask, family: Projection) -> np.ndarray:
    """Conditional density by explicit outer products over projections."""
    state = apply_object_mask(build_initial_state(mask.d), mask)
    d = mask.d
    rho = np.zeros((d, d), dtype=complex)
    for p in enumerate_projectors(d, (family,)):
        phi = project_bc(state, p)
        for a in range(d):
            rho += np.outer(phi[a, :], phi[a, :].conj())
    return rho


# ---------------------------------------------------------------------------
# Image type
# ---------------------------------------------------------------------------

def test_image_basic_properties():
    img = Image(np.array([0.0, 0.25]), kind="probability")
    assert img.d == 2
    assert img.total == 0.25
    assert img.numerators is None


def test_image_rejects_negative_and_bad_kind():
    with pytest.raises(ValueError):
        Image(np.array([-0.1, 0.2]))
    with pytest.raises(ValueError):
        Image(np.array([0.1, 0.2]), kind="intensities")


def test_image_from_rational_matches_division():
    img = Image.from_rational(np.array([19, 20, 20]), 20000)
    assert np.array_equal(img.pixels, np.array([19, 20, 20]) / 20000)
    assert img.denominator == 20000


def test_add_images_exact_path():
    a = Image.from_rational(np.array([1, 2]), 6)
    b = Image.from_rational(np.array([2, 1]), 6)
    s = add_images(a, b)
    assert s.numerators is not None
    assert np.array_equal(s.numerators, np.array([3, 3]))
    assert np.array_equal(s.pixels, np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# analytic images
# ---------------------------------------------------------------------------

def test_analytic_image_d4_single_bright_pixel():
    mask = ObjectMask([1, 0, 0, 0])
    # frozen from the full contraction: 2 d^2 = 32
    as_img = analytic_image(mask, Projection.ANTI_SYMMETRIC)
    assert np.array_equal(as_img.pixels, np.array([0, 1, 1, 1]) / 32)
    phi_img = analytic_image(mask, Projection.PHI)
    assert np.array_equal(phi_img.pixels, np.array([2, 0, 0, 0]) / 32)
    s_img = analytic_image(mask, Projection.SYMMETRIC)
    assert np.array_equal(s_img.pixels, np.array([2, 1, 1, 1]) / 32)


def test_analytic_image_inversion_pattern():
    # the anti-symmetric image is dark exactly where the object transmits
    mask = ObjectMask([1, 0, 1, 0, 0])
    as_img = analytic_image(mask, Projection.ANTI_SYMMETRIC).pixels
    s_img = analytic_image(mask, Projection.SYMMETRIC).pixels
    bright = mask.as_array() == 1
    assert as_img[bright].max() < as_img[~bright].min()
    assert s_img[bright].min() > s_img[~bright].max()


def test_analytic_image_reference_values_d100():
    mask = ObjectMask([1] * 20 + [0] * 80)
    img = analytic_image(mask, Projection.ANTI_SYMMETRIC).pixels
    # frozen: (20 - 1) / 20000 and 20 / 20000
    assert img[0] == 9.5e-4
    assert img[-1] == 1.0e-3


def test_analytic_image_matches_oracle_on_random_masks():
    rng = np.random.default_rng(31)
    families = (
        Projection.PSI_MINUS,
        Projection.PSI_PLUS,
        Projection.PHI,
        Projection.ANTI_SYMMETRIC,
        Projection.SYMMETRIC,
    )
    for d in range(2, 9):
        for _ in range(4):
            mask = random_mask(rng, d, contrastable=False)
            for family in families:
                closed = analytic_image(mask, family).pixels
                brute = tensor_image(mask, family)
                assert np.allclose(closed, brute, atol=1e-12, rtol=0.0)


def test_analytic_image_totals():
    mask = ObjectMask([1, 1, 0, 0, 0, 0])
    d, budget = 6, 2
    as_total = analytic_image(mask, Projection.ANTI_SYMMETRIC).total
    s_total = analytic_image(mask, Projection.SYMMETRIC).total
    assert as_total == pytest.approx(budget * (d - 1) / (2 * d * d), abs=1e-15)
    assert s_total == pytest.approx(budget * (d + 1) / (2 * d * d), abs=1e-15)
    assert as_total + s_total == pytest.approx(budget / d, abs=1e-15)


def test_family_identities_are_exact():
    rng = np.random.default_rng(5150)
    for d in (2, 5, 10, 12, 15, 100):
        values = np.zeros(d, dtype=int)
        budget = int(rng.integers(1, d))
        values[rng.choice(d, size=budget, replace=False)] = 1
        mask = ObjectMask(values)
        psi_minus = analytic_image(mask, Projection.PSI_MINUS)
        psi_plus = analytic_image(mask, Projection.PSI_PLUS)
        phi = analytic_image(mask, Projection.PHI)
        as_img = analytic_image(mask, Projection.ANTI_SYMMETRIC)
        s_img = analytic_image(mask, Projection.SYMMETRIC)
        # AS is the PsiMinus image, bit for bit
        assert np.array_equal(as_img.pixels, psi_minus.pixels)
        # S is PsiPlus + Phi, exact through the rational representation
        assert np.array_equal(s_img.pixels, add_images(psi_plus, phi).pixels)
        # AS + S is flat at budget/d^2, exact through the rational representation
        flat = add_images(as_img, s_img)
        assert flat.numerators is not None
        assert np.all(flat.numerators == 2 * budget)
        assert np.all(flat.pixels == flat.pixels[0])
        # float addition agrees to strict rounding tolerance as well
        assert np.allclose(as_img.pixels + s_img.pixels, budget / (d * d), rtol=4e-16)


# ---------------------------------------------------------------------------
# projection probabilities
# ---------------------------------------------------------------------------

# Dimensions from the smallest to the cap, primes among them, for the
# bit-exact closed-form checks
REFERENCE_DIMENSIONS = (2, 3, 17, 4097, 999983, 10**6)
PAIR_FAMILIES = (Projection.PSI_MINUS, Projection.PSI_PLUS, Projection.ANTI_SYMMETRIC)


def test_projection_probabilities_reference_values():
    assert projection_probability(2, Projection.ANTI_SYMMETRIC) == 0.25
    assert projection_probability(2, Projection.SYMMETRIC) == 0.75
    assert projection_probability(4, Projection.ANTI_SYMMETRIC) == 0.375
    assert projection_probability(4, Projection.SYMMETRIC) == 0.625
    for d in REFERENCE_DIMENSIONS:
        for family in PAIR_FAMILIES:
            assert projection_probability(d, family) == (d - 1) / (2 * d), (d, family)
        assert projection_probability(d, Projection.PHI) == 1 / d, d
        assert projection_probability(d, Projection.SYMMETRIC) == (d + 1) / (2 * d), d


def test_projection_probabilities_sum_to_one():
    for d in (2, 3, 7, 50):
        total = projection_probability(d, Projection.ANTI_SYMMETRIC) + projection_probability(
            d, Projection.SYMMETRIC
        )
        assert total == pytest.approx(1.0, abs=1e-15)


def test_projection_probability_matches_brute_force():
    for d in range(2, 9):
        state = build_initial_state(d)
        for family in (Projection.ANTI_SYMMETRIC, Projection.SYMMETRIC, Projection.PHI):
            brute = sum(norm_sq(project_bc(state, p)) for p in enumerate_projectors(d, (family,)))
            assert projection_probability(d, family) == pytest.approx(brute, abs=1e-12)


# ---------------------------------------------------------------------------
# conditional densities
# ---------------------------------------------------------------------------

def test_conditional_density_d2_reference():
    mask = ObjectMask([1, 0])
    rho_as = conditional_density(mask, Projection.ANTI_SYMMETRIC)
    rho_s = conditional_density(mask, Projection.SYMMETRIC)
    # frozen from explicit outer products
    assert np.allclose(rho_as.entries, np.diag([0.0, 0.125]), atol=1e-15)
    assert np.allclose(rho_s.entries, np.diag([0.25, 0.125]), atol=1e-15)
    assert rho_as.trace == pytest.approx(0.125, abs=1e-15)
    assert rho_s.trace == pytest.approx(0.375, abs=1e-15)


def test_conditional_density_matches_oracle():
    rng = np.random.default_rng(88)
    for d in (2, 3, 5, 7):
        mask = random_mask(rng, d, contrastable=False)
        for family in (Projection.ANTI_SYMMETRIC, Projection.SYMMETRIC):
            got = conditional_density(mask, family)
            assert np.allclose(got.entries, oracle_density(mask, family), atol=1e-13)


def test_conditional_density_diagonal_matches_image():
    rng = np.random.default_rng(123)
    for d in (2, 4, 6, 8):
        mask = random_mask(rng, d)
        for family in (Projection.ANTI_SYMMETRIC, Projection.SYMMETRIC):
            rho = conditional_density(mask, family)
            img = analytic_image(mask, family).pixels
            assert np.allclose(np.diag(rho.entries).real, img, atol=1e-12)


def test_density_sum_identity():
    rng = np.random.default_rng(2024)
    for d in range(2, 9):
        for _ in range(6):
            mask = random_mask(rng, d, contrastable=False)
            rho_as = conditional_density(mask, Projection.ANTI_SYMMETRIC)
            rho_s = conditional_density(mask, Projection.SYMMETRIC)
            expected = (mask.budget / (d * d)) * np.eye(d)
            assert np.allclose(rho_as.entries + rho_s.entries, expected, atol=1e-12)


def test_conditional_density_keeps_the_dense_cap():
    # the result is a dense d x d matrix, so the dense-tensor limit still holds
    conditional_density(ObjectMask.half_on(16), Projection.ANTI_SYMMETRIC)
    with pytest.raises(ValueError):
        conditional_density(ObjectMask.half_on(17), Projection.ANTI_SYMMETRIC)


def test_conditional_density_zero_mask_is_zero():
    mask = ObjectMask([0, 0, 0])
    rho = conditional_density(mask, Projection.SYMMETRIC)
    assert np.all(rho.entries == 0)
    assert rho.trace == 0.0


# ---------------------------------------------------------------------------
# contrasts
# ---------------------------------------------------------------------------

def test_analytic_contrast_reference_values():
    assert analytic_contrast(2, 1, Projection.ANTI_SYMMETRIC).value == -1.0
    assert analytic_contrast(4, 1, Projection.ANTI_SYMMETRIC).value == -1.0 / 3.0
    assert analytic_contrast(4, 1, Projection.SYMMETRIC).value == 0.2
    assert analytic_contrast(100, 20, Projection.ANTI_SYMMETRIC).value == -1.0 / 1980.0
    assert analytic_contrast(100, 20, Projection.SYMMETRIC).value == 1.0 / 2020.0
    assert analytic_contrast(2, 1, Projection.ANTI_SYMMETRIC).sigma == 0.0
    for d in REFERENCE_DIMENSIONS:
        for b in {1, 2, d // 3, d // 2, d - 1} & set(range(1, d)):
            for family in PAIR_FAMILIES:
                assert analytic_contrast(d, b, family).value == -1.0 / (b * (d - 1)), (d, b, family)
            assert analytic_contrast(d, b, Projection.PHI).value == 1.0 / b, (d, b)
            assert analytic_contrast(d, b, Projection.SYMMETRIC).value == 1.0 / (b * (d + 1)), (d, b)


def test_analytic_contrast_signs():
    for d in (2, 5, 9):
        for budget in range(1, d):
            assert analytic_contrast(d, budget, Projection.ANTI_SYMMETRIC).value < 0
            assert analytic_contrast(d, budget, Projection.SYMMETRIC).value > 0


def test_analytic_contrast_degenerate_budgets():
    with pytest.raises(DegenerateMaskError):
        analytic_contrast(4, 0, Projection.ANTI_SYMMETRIC)
    with pytest.raises(DegenerateMaskError):
        analytic_contrast(4, 4, Projection.ANTI_SYMMETRIC)
    with pytest.raises(DegenerateMaskError):
        analytic_contrast(4, 4, Projection.SYMMETRIC)
    with pytest.raises(ValueError):
        analytic_contrast(4, 5, Projection.SYMMETRIC)


def test_contrast_of_image_closure_with_closed_forms():
    rng = np.random.default_rng(61)
    for d in range(2, 11):
        for _ in range(5):
            mask = random_mask(rng, d)
            for family in (
                Projection.ANTI_SYMMETRIC,
                Projection.SYMMETRIC,
                Projection.PHI,
            ):
                image = analytic_image(mask, family)
                measured = contrast_of_image(image, mask).value
                predicted = analytic_contrast(d, mask.budget, family).value
                assert measured == pytest.approx(predicted, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.data())
def test_contrast_closure_property(d, data):
    budget = data.draw(st.integers(1, d - 1))
    on = data.draw(st.permutations(range(d)))[:budget]
    values = [1 if k in on else 0 for k in range(d)]
    mask = ObjectMask(values)
    image = analytic_image(mask, Projection.ANTI_SYMMETRIC)
    assert contrast_of_image(image, mask).value == pytest.approx(
        -1.0 / (budget * (d - 1)), abs=1e-12
    )


def test_contrast_of_image_on_counts():
    counts = Image(np.array([45, 175]), kind="counts")
    mask = ObjectMask([1, 0])
    result = contrast_of_image(counts, mask)
    # frozen: (45 - 175) / 220
    assert result.value == -130.0 / 220.0
    assert result.sigma == 0.0


def test_contrast_of_image_accepts_plain_arrays():
    mask = ObjectMask([0, 0, 1, 0])
    value = contrast_of_image(np.array([168.0, 191.0, 98.0, 227.0]), mask).value
    # frozen: (98 - 586/3) / 684
    assert value == pytest.approx((98 - 586 / 3) / 684, abs=1e-15)


def test_contrast_of_image_checks_plain_arrays_as_images():
    # a plain array gets an Image's checks: a negative pixel once gave 7.0,
    # an infinite one nan, and a nan one "image total is zero"
    mask = ObjectMask([1, 0, 0])
    for pixels, message in (
        ([5.0, -5.0, 1.0], "nonnegative"),
        ([np.inf, 1.0, 1.0], "finite"),
        ([np.nan, 1.0, 1.0], "finite"),
    ):
        with pytest.raises(ValueError, match=message):
            contrast_of_image(np.array(pixels), mask)


def test_contrast_of_image_errors():
    mask = ObjectMask([1, 1])
    with pytest.raises(DegenerateMaskError):
        contrast_of_image(Image(np.array([1.0, 2.0]), kind="counts"), mask)
    good_mask = ObjectMask([1, 0])
    with pytest.raises(ValueError):
        contrast_of_image(Image(np.array([0.0, 0.0]), kind="counts"), good_mask)
    with pytest.raises(ValueError):
        contrast_of_image(Image(np.array([1.0, 2.0, 3.0]), kind="counts"), good_mask)


def test_contrast_value_is_immutable():
    cv = ContrastValue(-1.0, 0.0)
    with pytest.raises(AttributeError):
        cv.value = 0.5
