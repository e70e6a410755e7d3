"""Closed-form heralded images of one mask, family by family.

The object sits in front of photon A only, yet the heralded coincidence
image appears in photon D. Which projection family heralds the event
decides the polarity: the anti-symmetric family yields a negative of the
mask, the diagonal family a positive, and their weighted sum is flat.
"""

from __future__ import annotations

from ghostswap import ObjectMask, Projection, add_images, analytic_image


def bar(value: float, peak: float, width: int = 40) -> str:
    filled = 0 if peak == 0 else round(width * value / peak)
    return "#" * filled


def main() -> None:
    mask = ObjectMask([1, 1, 0, 1, 0, 0, 0, 0])
    print(f"mask          {mask.values}  (budget {mask.budget} of {mask.d})\n")

    families = (
        Projection.ANTI_SYMMETRIC,
        Projection.PSI_PLUS,
        Projection.PHI,
        Projection.SYMMETRIC,
    )
    images = {family: analytic_image(mask, family) for family in families}
    peak = max(image.pixels.max() for image in images.values())

    for family, image in images.items():
        print(f"{family.value}")
        for k, value in enumerate(image.pixels):
            marker = "*" if mask.values[k] else " "
            print(f"  pixel {k + 1} {marker} {value:.6f} {bar(value, peak)}")
        print()

    flat = add_images(images[Projection.ANTI_SYMMETRIC], images[Projection.SYMMETRIC])
    print("anti-symmetric + symmetric (object disappears):")
    print(" ", " ".join(f"{value:.6f}" for value in flat.pixels))


if __name__ == "__main__":
    main()
