"""Interference dip of the inner photon pair against relative delay.

When the two heralding patterns transmit the same pixels, the inner
photons bunch and the coincidence rate dips to zero at matched arrival
times. Disjoint patterns leave the pair half anti-symmetric at every
delay, so the scan stays flat at 1/2: the dip is a witness of
indistinguishability, not of the patterns themselves.
"""

from __future__ import annotations

import numpy as np

from ghostswap import ObjectMask, hom_scan


def ascii_plot(delays: np.ndarray, rates: np.ndarray, width: int = 48) -> None:
    for delay, rate in zip(delays, rates):
        filled = round(width * rate / 0.6)
        print(f"  {delay:+6.2f} {rate:8.5f} {'#' * filled}")


def main() -> None:
    delays = np.linspace(-3.0, 3.0, 25)
    same = hom_scan(
        ObjectMask([1, 0]),
        ObjectMask([1, 0]),
        delays,
        dip_width=1.0,
        shots_per_delay=4000,
        seed=8,
    )
    print(f"same pattern, anti-symmetric weight {same.antisymmetric_weight}")
    ascii_plot(same.delays, same.rates)

    print("\nsampled counts at 4000 shots per delay:")
    print(" ", " ".join(str(c) for c in same.sampled_counts))

    opposite = hom_scan(
        ObjectMask([1, 0]),
        ObjectMask([0, 1]),
        delays,
        dip_width=1.0,
    )
    print(f"\nopposite patterns, anti-symmetric weight {opposite.antisymmetric_weight}")
    print(f"rate spread across the scan: {opposite.rates.max() - opposite.rates.min():.2e}")


if __name__ == "__main__":
    main()
