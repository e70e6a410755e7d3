"""Closed-form images, projection probabilities, and contrasts.

Heralding on a joint projection of the inner photons B and C turns the
per-pixel coincidence distribution of photons A (behind the object mask)
and D (scanned) into an image of the mask. With budget b bright pixels in
dimension d the per-pixel intensities are

    anti-symmetric family:  (b - o(k)) / (2 d^2)
    diagonal family:        2 o(k)     / (2 d^2)
    symmetric aggregate:    (b + o(k)) / (2 d^2)

with o(k) in {0, 1} the mask value, so the anti-symmetric image is an
inverted copy of the object and the two aggregates sum to a flat b / d^2.
All closed-form images carry exact integer numerators over the common
denominator 2 d^2, which keeps the identities between families free of
float rounding at any dimension.

The contrast of an image against its mask is defined as

    (mean over bright pixels - mean over dark pixels) / (sum over all pixels)

which evaluates to -1 / (b (d - 1)) for the anti-symmetric family and
+1 / (b (d + 1)) for the symmetric aggregate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ghostswap.errors import DegenerateMaskError
from ghostswap.hilbert import DensityMatrix, ObjectMask, Projection, validate_dimension

__all__ = [
    "Image",
    "ContrastValue",
    "add_images",
    "analytic_image",
    "projection_probability",
    "conditional_density",
    "analytic_contrast",
    "contrast_of_image",
]

_KINDS = ("probability", "counts")


class Image:
    """Per-pixel nonnegative intensities with a semantic kind.

    kind "probability" marks exact per-event probabilities; kind "counts"
    marks detector counts, which stay integer-valued until accidental
    subtraction turns them into reals. Images built from closed forms also
    carry their exact rational representation (integer numerators over one
    integer denominator) so identity checks between images avoid float
    rounding.
    """

    __slots__ = ("_pixels", "_kind", "_family", "_numerators", "_denominator")

    def __init__(
        self,
        pixels: np.ndarray,
        kind: str = "probability",
        family: Projection | None = None,
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"image kind must be one of {_KINDS}, got {kind!r}")
        source = np.asarray(pixels)
        # raw detector counts keep their integer dtype; everything else is real
        values = source.astype(np.int64 if source.dtype.kind in "iu" else float)
        if values.ndim != 1 or values.size < 2:
            raise ValueError(f"image must be a 1-D vector of at least 2 pixels, got shape {values.shape}")
        if values.dtype.kind == "f" and not np.isfinite(values).all():
            raise ValueError("image pixels must be finite")
        if values.min() < 0:
            raise ValueError("image pixels must be nonnegative")
        values.setflags(write=False)
        self._pixels = values
        self._kind = kind
        self._family = family
        self._numerators: np.ndarray | None = None
        self._denominator: int | None = None

    @classmethod
    def from_rational(
        cls,
        numerators: np.ndarray,
        denominator: int,
        kind: str = "probability",
        family: Projection | None = None,
    ) -> "Image":
        """Image whose pixels are integer numerators over one denominator."""
        numer = np.asarray(numerators, dtype=np.int64).copy()
        denominator = int(denominator)
        if denominator <= 0:
            raise ValueError(f"denominator must be positive, got {denominator}")
        if np.any(numer < 0):
            raise ValueError("numerators must be nonnegative")
        image = cls(numer / denominator, kind=kind, family=family)
        numer.setflags(write=False)
        image._numerators = numer
        image._denominator = denominator
        return image

    @property
    def pixels(self) -> np.ndarray:
        return self._pixels

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def family(self) -> Projection | None:
        return self._family

    @property
    def d(self) -> int:
        return self._pixels.size

    @property
    def total(self) -> float:
        return float(self._pixels.sum())

    @property
    def numerators(self) -> np.ndarray | None:
        """Exact integer numerators, or None for images without them."""
        return self._numerators

    @property
    def denominator(self) -> int | None:
        return self._denominator

    def __repr__(self) -> str:
        tag = f", family={self._family.value}" if self._family else ""
        return f"Image(d={self.d}, kind={self._kind!r}{tag})"


def add_images(first: Image, second: Image) -> Image:
    """Pixelwise sum, staying on the exact rational path when possible."""
    if first.d != second.d:
        raise ValueError(f"image dimensions differ: {first.d} vs {second.d}")
    if first.kind != second.kind:
        raise ValueError(f"image kinds differ: {first.kind!r} vs {second.kind!r}")
    if (
        first.numerators is not None
        and second.numerators is not None
        and first.denominator == second.denominator
    ):
        return Image.from_rational(
            first.numerators + second.numerators, first.denominator, kind=first.kind
        )
    return Image(first.pixels + second.pixels, kind=first.kind)


@dataclass(frozen=True)
class ContrastValue:
    """Contrast estimate with a one-sigma uncertainty (0 when exact)."""

    value: float
    sigma: float


_NUMERATORS = {
    Projection.PSI_MINUS: lambda b: (b - 1, b),
    Projection.PSI_PLUS: lambda b: (b - 1, b),
    Projection.ANTI_SYMMETRIC: lambda b: (b - 1, b),
    Projection.PHI: lambda b: (2, 0),
    Projection.SYMMETRIC: lambda b: (b + 1, b),
}


def _numerators(family: Projection, budget: int) -> tuple[int, int]:
    """Bright and dark pixel numerators over 2 d^2 of a family's image at a budget."""
    if not isinstance(family, Projection):
        raise ValueError(f"expected a Projection member, got {family!r}")
    return _NUMERATORS[family](budget)


def analytic_image(mask: ObjectMask, family: Projection) -> Image:
    """Closed-form heralded image of a mask for one projection family.

    Works at any dimension; no dense tensors are involved. The pixels are
    exact rationals over the common denominator 2 d^2.
    """
    return Image.from_rational(*_closed_form(mask, family), family=family)


def _closed_form(mask: ObjectMask, family: Projection) -> tuple[np.ndarray, int]:
    """Integer pixel numerators of the closed-form image and their denominator 2 d^2."""
    bright, dark = _numerators(family, mask.budget)
    return dark + (bright - dark) * mask.as_array(), 2 * mask.d**2


def projection_probability(d: int, family: Projection) -> float:
    """Total probability of the family outcome with no object in place.

    (d - 1) / (2 d) for the anti-symmetric family, (d + 1) / (2 d) for the
    symmetric aggregate; the two sum to 1. With no object all d pixels are
    bright.
    """
    d = validate_dimension(d)
    bright, _ = _numerators(family, d)
    return bright / (2 * d)


def conditional_density(mask: ObjectMask, family: Projection) -> DensityMatrix:
    """Unnormalized state of photon D heralded on photon A and the family.

    Tracing photon A out of the projected four-photon state leaves no
    coherence between pixels of photon D, so the density matrix is diagonal
    and its diagonal is the analytic image; the trace is the heralded event
    probability. The dense contraction this equals lives in the tests as an
    oracle. The result is a dense d x d matrix, so the dimension is capped
    by the dense-tensor limit.
    """
    validate_dimension(mask.d, exact=True)
    return DensityMatrix(np.diag(analytic_image(mask, family).pixels))


def _require_contrast(d: int, budget: int) -> None:
    """Raise DegenerateMaskError when a budget leaves no bright or no dark pixel."""
    if budget in (0, d):
        raise DegenerateMaskError(
            f"mask budget {budget} of {d} pixels leaves no contrast to measure"
        )


def _contrast(on, off, n_on: int, n_off: int, var_on=0.0, var_off=0.0) -> ContrastValue:
    """Contrast C = (on/n_on - off/n_off) / T, T = on + off > 0, of a bright and
    a dark total over n_on and n_off pixels, and its first-order sigma for
    totals of variance var_on and var_off, the root of
    [(1/n_on - C)^2 var_on + (1/n_off + C)^2 var_off] / T^2. Totals may be
    arrays when no variance is given."""
    total = on + off
    value = (on / n_on - off / n_off) / total
    if not (var_on or var_off):
        return ContrastValue(value, 0.0)
    # each derivative is divided by T before it is squared, as in a per-pixel sum
    bright, dark = (1 / n_on - value) / total, (1 / n_off + value) / total
    return ContrastValue(value, math.sqrt(bright * bright * var_on + dark * dark * var_off))


def _contrasts(
    mask: ObjectMask, variances: np.ndarray | None, *vectors: np.ndarray
) -> list[ContrastValue]:
    """Contrast of each pixel vector from its bright and dark sums, with a first-order
    sigma if pixel k is an independent count of variance variances[k] (else 0).
    A zero total raises DegenerateMaskError; inputs are not otherwise checked.
    Each sum is over a float array, so that int and float counts give the same
    totals past 2^53: numpy's sum(dtype=float) casts in 8192-element buffers."""
    sides = (bright := mask.as_array() == 1), ~bright
    var = () if variances is None else [float(variances[side].astype(float).sum()) for side in sides]
    contrasts = []
    for values in vectors:
        on, off = (float(values[side].astype(float).sum()) for side in sides)
        if not on + off > 0:
            raise DegenerateMaskError("image total is zero; contrast is undefined")
        contrasts.append(_contrast(on, off, mask.budget, mask.d - mask.budget, *var))
    return contrasts


def analytic_contrast(d: int, budget: int, family: Projection) -> ContrastValue:
    """Closed-form contrast for a mask with the given budget.

    Negative for the anti-symmetric family, -1 / (budget (d - 1)), and
    positive for the symmetric aggregate, +1 / (budget (d + 1)). Budgets of
    0 or d leave no bright or no dark pixels and have no defined contrast.
    """
    d = validate_dimension(d)
    if not isinstance(budget, (int, np.integer)) or isinstance(budget, bool):
        raise ValueError(f"budget must be an integer, got {budget!r}")
    budget = int(budget)
    if not 0 <= budget <= d:
        raise ValueError(f"budget {budget} outside 0..{d}")
    _require_contrast(d, budget)
    bright, dark = _numerators(family, budget)
    return _contrast(budget * bright, (d - budget) * dark, budget, d - budget)


def contrast_of_image(image: Image | np.ndarray, mask: ObjectMask) -> ContrastValue:
    """Contrast of per-pixel values against a mask.

    value = (mean over bright pixels - mean over dark pixels) / total.
    A plain array is checked as an Image is: 1-D, finite and nonnegative.
    The sigma is 0; counting uncertainty belongs to estimators that know
    the noise model of their input.
    """
    if not isinstance(image, Image):
        image = Image(np.asarray(image, dtype=float))
    values = image.pixels
    if values.size != mask.d:
        raise ValueError(f"image has {values.size} pixels but mask has {mask.d}")
    _require_contrast(mask.d, mask.budget)
    return _contrasts(mask, None, values)[0]
