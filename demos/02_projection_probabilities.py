"""How often each projection family fires, by dimension.

With no object in place the anti-symmetric outcomes carry (d - 1) / 2d
of the events and the symmetric ones (d + 1) / 2d, so the two converge
to an even split as the dimension grows. The closed forms are checked
here against explicit enumeration of every projector.
"""

from __future__ import annotations

from ghostswap import (
    Projection,
    build_initial_state,
    enumerate_projectors,
    project_bc,
    projection_probability,
)


def enumerated_probability(d: int, family: Projection) -> float:
    state = build_initial_state(d)
    return sum(
        float((abs(project_bc(state, p)) ** 2).sum()) for p in enumerate_projectors(d, (family,))
    )


def main() -> None:
    print(f"{'d':>3} {'anti-symmetric':>16} {'symmetric':>12} {'diagonal':>10} {'enumerated gap':>15}")
    for d in range(2, 11):
        negative = projection_probability(d, Projection.ANTI_SYMMETRIC)
        positive = projection_probability(d, Projection.SYMMETRIC)
        diagonal = projection_probability(d, Projection.PHI)
        gap = max(
            abs(enumerated_probability(d, family) - projection_probability(d, family))
            for family in (Projection.ANTI_SYMMETRIC, Projection.SYMMETRIC, Projection.PHI)
        )
        print(f"{d:>3} {negative:>16.6f} {positive:>12.6f} {diagonal:>10.6f} {gap:>15.2e}")
    print("\nanti-symmetric + symmetric = 1 at every dimension;")
    print("the projector count is d^2: d(d-1)/2 + d(d-1)/2 + d.")


if __name__ == "__main__":
    main()
