"""Independent oracles and statistics for checking benchmark outputs.

The closed forms here are written out from the package README rather than
imported, so a check compares the program against a second derivation and
not against itself.
"""

from __future__ import annotations

import math

import numpy as np

from ghostswap.hilbert import Projection

# Families whose heralded image is the inverted mask, (b - o(k)) / 2d^2.
PAIR_FAMILIES = (Projection.PSI_MINUS, Projection.PSI_PLUS, Projection.ANTI_SYMMETRIC)

# Pearson chi-square tests must reject the sampled counts at no more than
# this p-value; a sampler bug shows as p near 0, ordinary noise does not.
MIN_P_VALUE = 1e-6


class CheckFailed(Exception):
    """An output did not match what the inputs imply."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def image_numerators(mask: np.ndarray, family: Projection) -> np.ndarray:
    """Integer numerators over 2 d^2 of the heralded image of a 0/1 mask."""
    budget = int(mask.sum())
    if family in PAIR_FAMILIES:
        return budget - mask
    if family is Projection.PHI:
        return 2 * mask
    return budget + mask


def image_pixels(mask: np.ndarray, family: Projection) -> np.ndarray:
    d = mask.size
    return image_numerators(mask, family) / (2 * d * d)


def contrast(d: int, budget: int, family: Projection) -> float:
    """Closed-form contrast of the heralded image for a mask of this budget."""
    if family in PAIR_FAMILIES:
        return -1.0 / (budget * (d - 1))
    if family is Projection.PHI:
        return 1.0 / budget
    return 1.0 / (budget * (d + 1))


def expected_counts(
    mask: np.ndarray, family: Projection, total: float, fraction: float
) -> np.ndarray:
    """Mean counts per pixel: the image scaled to the total plus a flat floor."""
    pixels = image_pixels(mask, family)
    signal = pixels * (total / pixels.sum())
    return (1.0 - fraction) * signal + fraction * total / mask.size


def antisymmetric_weight(pattern_a: np.ndarray, pattern_d: np.ndarray) -> float:
    """(1 - |A and D| / (|A| |D|)) / 2, the anti-symmetric share of the inner pair."""
    shared = int(np.sum(pattern_a * pattern_d))
    return 0.5 * (1.0 - shared / (int(pattern_a.sum()) * int(pattern_d.sum())))


def chi2_pvalue(statistic: float, dof: int) -> float:
    """Upper tail of the chi-square distribution, summed exactly in log space.

    Uses the finite series for integer degrees of freedom: for even k,
    Q = exp(-x/2) sum_{i < k/2} (x/2)^i / i!; for odd k the same with
    half-integer powers plus erfc(sqrt(x/2)).
    """
    if statistic <= 0.0:
        return 1.0
    half = statistic / 2.0
    log_half = math.log(half)
    if dof % 2 == 0:
        i = np.arange(dof // 2, dtype=float)
        log_gamma = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, dof // 2)))))
        head = 0.0
    else:
        i = np.arange(1, (dof + 1) // 2, dtype=float) - 0.5
        # lgamma(i + 1/2) for i = 1, 2, ... from lgamma(1/2) upward
        log_gamma = math.lgamma(0.5) + np.cumsum(np.log(i))
        head = math.erfc(math.sqrt(half))
    tail = float(np.exp(-half + i * log_half - log_gamma).sum())
    return min(1.0, head + tail)


def check_poisson_fit(counts: np.ndarray, means: np.ndarray, *, fixed_total: bool) -> None:
    """Pearson chi-square of counts against their means.

    Pixels with zero mean must have zero counts and carry no degree of
    freedom; an exact event total removes one more.
    """
    empty = means <= 0.0
    require(not np.any(counts[empty]), "counts on pixels whose mean is zero")
    live = ~empty
    dof = int(live.sum()) - (1 if fixed_total else 0)
    if dof < 1:
        return
    residual = counts[live] - means[live]
    statistic = float(np.sum(residual * residual / means[live]))
    p_value = chi2_pvalue(statistic, dof)
    require(
        p_value > MIN_P_VALUE,
        f"counts fail the Poisson fit: chi2 {statistic:.1f} on {dof} dof, p {p_value:.2e}",
    )


def check_within_sigma(value: float, sigma: float, expected: float, what: str) -> None:
    # the relative term covers rounding when a count vector carries no noise
    require(
        abs(value - expected) <= 5.0 * sigma + 1e-12 * abs(expected),
        f"{what} {value!r} is more than 5 sigma ({sigma!r}) from {expected!r}",
    )
