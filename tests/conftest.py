"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import settings

from ghostswap.hilbert import (
    ObjectMask,
    Projection,
    apply_object_mask,
    build_initial_state,
    enumerate_projectors,
    project_bc,
)

# The same examples on every run, with no example database and no deadline,
# so a tier-1 result does not depend on earlier runs or on machine speed.
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")


def random_mask(rng: np.random.Generator, d: int, *, contrastable: bool = True) -> ObjectMask:
    """Draw a random mask; with contrastable=True the budget stays in [1, d-1]."""
    if contrastable:
        budget = int(rng.integers(1, d))
    else:
        budget = int(rng.integers(0, d + 1))
    on = rng.choice(d, size=budget, replace=False)
    values = np.zeros(d, dtype=int)
    values[on] = 1
    return ObjectMask(values)


def norm_sq(a: np.ndarray) -> float:
    return float((abs(a) ** 2).sum())


def tensor_image(mask: ObjectMask, family: Projection) -> np.ndarray:
    """Heralded image by full contraction of the dense four-photon state:
    |project_bc|^2 summed over photon A and the family's projectors."""
    state = apply_object_mask(build_initial_state(mask.d), mask)
    pixels = np.zeros(mask.d)
    for projector in enumerate_projectors(mask.d, (family,)):
        pixels += (np.abs(project_bc(state, projector)) ** 2).sum(axis=0)
    return pixels
