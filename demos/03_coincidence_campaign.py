"""Poisson coincidence campaigns converging on the closed-form contrast.

Repeats one imaging campaign at growing event totals and shows the
estimated contrast closing in on the prediction, with the propagated
sigma shrinking alongside. An accidental floor is mixed in and
subtracted again to show the corrected estimate staying on target.
"""

from __future__ import annotations

from ghostswap import (
    CampaignConfig,
    ObjectMask,
    Projection,
    analytic_contrast,
    sample_campaign,
)


def main() -> None:
    mask = ObjectMask([1, 1, 0, 0, 0, 0])
    family = Projection.ANTI_SYMMETRIC
    predicted = analytic_contrast(mask.d, mask.budget, family).value
    print(f"mask {mask.values}, family {family.value}")
    print(f"predicted contrast {predicted:+.6f}\n")

    print(f"{'events':>8} {'raw':>10} {'sigma':>8} {'corrected':>10}")
    for total in (200, 2_000, 20_000, 200_000):
        config = CampaignConfig(
            mask=mask,
            family=family,
            mode="fixed_time",
            total=total,
            accidental_fraction=0.15,
            seed=20,
        )
        result = sample_campaign(config)
        raw = result.raw_contrast
        corrected = result.corrected_contrast
        print(
            f"{total:>8} {raw.value:>+10.5f} {raw.sigma:>8.5f} {corrected.value:>+10.5f}"
        )

    print("\naccidentals dilute the raw contrast toward zero; subtracting the")
    print("uniform floor restores the prediction within counting noise.")


if __name__ == "__main__":
    main()
