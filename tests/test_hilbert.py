"""Exact state algebra tests.

Expected values marked as frozen below were computed with the naive
loop-based oracles in this file (or by direct pair counting) before the
library implementation existed, and must never be edited to match the
library.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostswap.hilbert import (
    MAX_EXACT_DIMENSION,
    BellProjector,
    FourPhotonState,
    ObjectMask,
    Projection,
    apply_object_mask,
    build_initial_state,
    enumerate_projectors,
    joint_probability,
    project_bc,
)

from conftest import random_mask


# ---------------------------------------------------------------------------
# naive oracles, deliberately loop-based and independent of the library paths
# ---------------------------------------------------------------------------

def naive_initial_amplitudes(d: int) -> np.ndarray:
    amp = np.zeros((d, d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            amp[i, i, j, j] = 1.0 / d
    return amp


def naive_project(amp: np.ndarray, pi: np.ndarray) -> np.ndarray:
    d = amp.shape[0]
    out = np.zeros((d, d), dtype=complex)
    for a in range(d):
        for dd in range(d):
            acc = 0j
            for b in range(d):
                for c in range(d):
                    acc += pi[b, c].conjugate() * amp[a, b, c, dd]
            out[a, dd] = acc
    return out


def naive_weight(amp: np.ndarray, pi: np.ndarray) -> float:
    phi = naive_project(amp, pi)
    return float((abs(phi) ** 2).sum())


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------

def test_mask_values_and_budget():
    mask = ObjectMask([1, 0, 1, 0])
    assert mask.d == 4
    assert mask.budget == 2
    assert not mask.is_degenerate


def test_mask_rejects_non_binary_values():
    with pytest.raises(ValueError):
        ObjectMask([1, 2])
    with pytest.raises(ValueError):
        ObjectMask([0.5, 0.5])


def test_mask_rejects_too_short():
    with pytest.raises(ValueError):
        ObjectMask([1])


def test_mask_stores_one_read_only_array():
    mask = ObjectMask(np.array([1.0, 0.0, 1.0]))
    array = mask.as_array()
    assert array is mask.as_array()
    assert array.dtype == np.int64
    assert not array.flags.writeable
    assert type(mask.budget) is int and mask.budget == 2
    assert mask.values == (1, 0, 1)
    assert all(type(v) is int for v in mask.values)
    assert mask == ObjectMask([1, 0, 1])
    assert hash(mask) == hash(ObjectMask([1, 0, 1]))
    assert mask != ObjectMask([1, 0, 0])


def test_mask_rejects_non_numeric_values():
    for values in (["1", 0, 0, 0], [None, 0], [[1, 0], [0, 1]], [True, False]):
        with pytest.raises(ValueError):
            ObjectMask(values)


def test_mask_degeneracy_flags():
    assert ObjectMask([0, 0]).is_degenerate
    assert ObjectMask([1, 1]).is_degenerate
    assert not ObjectMask([1, 0]).is_degenerate


def test_half_on_preset():
    assert ObjectMask.half_on(2).values == (1, 0)
    assert ObjectMask.half_on(4).values == (1, 1, 0, 0)
    assert ObjectMask.half_on(5).values == (1, 1, 1, 0, 0)


def test_quadrant_on_preset_d4():
    # 2x2 grid indexed row-major from the bottom-left: pixel 1 is the
    # bottom-left corner, so only that pixel is on.
    mask = ObjectMask.quadrant_on(4)
    assert mask.values == (1, 0, 0, 0)
    assert mask.budget == 1


def test_quadrant_on_preset_d16():
    mask = ObjectMask.quadrant_on(16)
    # bottom rows 0 and 1, columns 0 and 1 of a 4x4 grid
    assert mask.values == (1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    assert mask.budget == 4


def test_quadrant_on_requires_square_dimension():
    with pytest.raises(ValueError):
        ObjectMask.quadrant_on(6)


# ---------------------------------------------------------------------------
# initial state
# ---------------------------------------------------------------------------

def test_initial_state_d2_amplitude():
    state = build_initial_state(2)
    # frozen: amplitude at (1, 1, 1, 1) is 1/d = 0.5
    assert state.amplitude(1, 1, 1, 1) == 0.5
    assert state.amplitude(1, 2, 1, 1) == 0.0


def test_initial_state_d4_support():
    state = build_initial_state(4)
    nonzero = np.argwhere(state.amplitudes != 0)
    # frozen by pair counting: d^2 = 16 coordinates (i, i, j, j)
    assert len(nonzero) == 16
    assert np.all(state.amplitudes[nonzero[:, 0], nonzero[:, 1], nonzero[:, 2], nonzero[:, 3]] == 0.25)
    for a, b, c, dd in nonzero:
        assert a == b and c == dd


def test_initial_state_matches_naive_oracle():
    for d in (2, 3, 5, 8):
        state = build_initial_state(d)
        assert np.array_equal(state.amplitudes, naive_initial_amplitudes(d))
        assert state.norm_sq == pytest.approx(1.0, abs=1e-12)


def test_initial_state_dimension_validation():
    with pytest.raises(ValueError):
        build_initial_state(1)
    with pytest.raises(ValueError):
        build_initial_state(MAX_EXACT_DIMENSION + 1)
    with pytest.raises(ValueError):
        build_initial_state(0)


def test_state_amplitudes_are_read_only():
    state = build_initial_state(2)
    with pytest.raises(ValueError):
        state.amplitudes[0, 0, 0, 0] = 1.0


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------

def test_masked_state_d2_brute_force_norm():
    state = apply_object_mask(build_initial_state(2), ObjectMask([1, 0]))
    # frozen by brute force: only (1, 1, j, j) amplitudes survive and the
    # squared norm drops to budget/d = 1/2
    expected = naive_initial_amplitudes(2)
    expected[1, :, :, :] = 0.0
    assert np.array_equal(state.amplitudes, expected)
    assert state.norm_sq == pytest.approx(0.5, abs=1e-15)
    assert not state.is_degenerate


def test_masked_norm_equals_budget_over_d():
    rng = np.random.default_rng(20260819)
    for d in range(2, 9):
        for _ in range(8):
            mask = random_mask(rng, d, contrastable=False)
            state = apply_object_mask(build_initial_state(d), mask)
            assert state.norm_sq == pytest.approx(mask.budget / d, abs=1e-12)


def test_all_zero_mask_gives_degenerate_state():
    state = apply_object_mask(build_initial_state(4), ObjectMask([0, 0, 0, 0]))
    assert state.norm_sq == 0.0
    assert state.is_degenerate
    assert np.all(state.amplitudes == 0)


def test_mask_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        apply_object_mask(build_initial_state(2), ObjectMask([1, 0, 1]))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.data())
def test_mask_idempotence(d, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    mask = ObjectMask(bits)
    once = apply_object_mask(build_initial_state(d), mask)
    twice = apply_object_mask(once, mask)
    assert np.array_equal(once.amplitudes, twice.amplitudes)


# ---------------------------------------------------------------------------
# projector enumeration and state vectors
# ---------------------------------------------------------------------------

def test_projector_family_counts_d4():
    assert len(enumerate_projectors(4, (Projection.PSI_MINUS,))) == 6
    assert len(enumerate_projectors(4, (Projection.PSI_PLUS,))) == 6
    assert len(enumerate_projectors(4, (Projection.PHI,))) == 4
    assert len(enumerate_projectors(4)) == 16


def test_projector_enumeration_large_dimension():
    # enumeration is index bookkeeping and is not capped at the dense-tensor limit
    assert len(enumerate_projectors(100)) == 10000


def test_aggregate_families_expand():
    as_set = enumerate_projectors(3, (Projection.ANTI_SYMMETRIC,))
    assert all(p.family is Projection.PSI_MINUS for p in as_set)
    assert len(as_set) == 3
    s_set = enumerate_projectors(3, (Projection.SYMMETRIC,))
    assert {p.family for p in s_set} == {Projection.PSI_PLUS, Projection.PHI}
    assert len(s_set) == 6


def test_psi_minus_12_state_vector():
    p = BellProjector(Projection.PSI_MINUS, d=2, n=1, m=2)
    vec = p.state_vector()
    r = 1 / np.sqrt(2)
    assert vec[0, 1] == r
    assert vec[1, 0] == -r
    assert vec[0, 0] == 0 and vec[1, 1] == 0


def test_phi_3_state_vector():
    p = BellProjector(Projection.PHI, d=4, n=3, m=3)
    vec = p.state_vector()
    expected = np.zeros((4, 4), dtype=complex)
    expected[2, 2] = 1.0
    assert np.array_equal(vec, expected)


def test_projector_index_validation():
    with pytest.raises(ValueError):
        BellProjector(Projection.PSI_MINUS, d=2, n=2, m=1)
    with pytest.raises(ValueError):
        BellProjector(Projection.PSI_MINUS, d=2, n=1, m=3)
    with pytest.raises(ValueError):
        BellProjector(Projection.PHI, d=2, n=1, m=2)
    with pytest.raises(ValueError):
        BellProjector(Projection.ANTI_SYMMETRIC, d=2, n=1, m=2)


def test_orthonormal_and_complete_for_all_exact_dimensions():
    for d in range(2, MAX_EXACT_DIMENSION + 1):
        projectors = enumerate_projectors(d)
        assert len(projectors) == d * d
        stack = np.array([p.state_vector().reshape(-1) for p in projectors])
        gram = stack @ stack.conj().T
        assert np.allclose(gram, np.eye(d * d), atol=1e-12)
        completeness = stack.conj().T @ stack
        assert np.allclose(completeness, np.eye(d * d), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.data())
def test_exchange_symmetry_classes(d, data):
    n = data.draw(st.integers(1, d - 1))
    m = data.draw(st.integers(n + 1, d))
    minus = BellProjector(Projection.PSI_MINUS, d=d, n=n, m=m).state_vector()
    plus = BellProjector(Projection.PSI_PLUS, d=d, n=n, m=m).state_vector()
    phi = BellProjector(Projection.PHI, d=d, n=n, m=n).state_vector()
    assert np.array_equal(minus.T, -minus)
    assert np.array_equal(plus.T, plus)
    assert np.array_equal(phi.T, phi)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_bc_unmasked_d2_weight():
    state = build_initial_state(2)
    p = BellProjector(Projection.PSI_MINUS, d=2, n=1, m=2)
    two = project_bc(state, p)
    # frozen by direct contraction: weight (1+1)/(2 d^2) = 0.25
    assert two.weight == pytest.approx(0.25, abs=1e-15)


def test_project_bc_masked_d2_psi_minus():
    state = apply_object_mask(build_initial_state(2), ObjectMask([1, 0]))
    two = project_bc(state, BellProjector(Projection.PSI_MINUS, d=2, n=1, m=2))
    # frozen by direct contraction: only the (a=1, d=2) amplitude survives
    assert two.weight == pytest.approx(0.125, abs=1e-15)
    assert two.amplitude(1, 2) == pytest.approx(1 / (2 * np.sqrt(2)), abs=1e-15)
    assert two.amplitude(2, 1) == 0.0


def test_project_bc_masked_d2_phi_1():
    state = apply_object_mask(build_initial_state(2), ObjectMask([1, 0]))
    two = project_bc(state, BellProjector(Projection.PHI, d=2, n=1, m=1))
    # frozen by direct contraction: the conditional state is proportional
    # to |1>_A |1>_D with weight 1/4
    assert two.weight == pytest.approx(0.25, abs=1e-15)
    assert two.amplitude(1, 1) == pytest.approx(0.5, abs=1e-15)
    nonzero = np.argwhere(two.amplitudes != 0)
    assert nonzero.tolist() == [[0, 0]]


def test_project_bc_matches_naive_oracle_on_random_masks():
    rng = np.random.default_rng(7)
    for d in (2, 3, 4, 6):
        state = apply_object_mask(build_initial_state(d), random_mask(rng, d))
        for p in enumerate_projectors(d):
            expected = naive_project(state.amplitudes, p.state_vector())
            got = project_bc(state, p)
            assert np.allclose(got.amplitudes, expected, atol=1e-14)
            assert got.weight == pytest.approx(float((abs(expected) ** 2).sum()), abs=1e-14)


def test_project_bc_dimension_mismatch():
    state = build_initial_state(3)
    with pytest.raises(ValueError):
        project_bc(state, BellProjector(Projection.PSI_MINUS, d=2, n=1, m=2))


def test_joint_probability_masked_d2():
    state = apply_object_mask(build_initial_state(2), ObjectMask([1, 0]))
    # frozen by the naive oracle: the anti-symmetric family puts 1/8 at
    # (a=1, d=2) and nothing anywhere else
    assert joint_probability(state, (Projection.ANTI_SYMMETRIC,), 1, 2) == pytest.approx(0.125, abs=1e-15)
    assert joint_probability(state, (Projection.ANTI_SYMMETRIC,), 1, 1) == 0.0
    assert joint_probability(state, (Projection.ANTI_SYMMETRIC,), 2, 1) == 0.0
    assert joint_probability(state, (Projection.SYMMETRIC,), 1, 1) == pytest.approx(0.25, abs=1e-15)


def test_joint_probability_pixel_bounds():
    state = build_initial_state(2)
    with pytest.raises(ValueError):
        joint_probability(state, (Projection.PHI,), 0, 1)
    with pytest.raises(ValueError):
        joint_probability(state, (Projection.PHI,), 1, 3)


def test_probability_conservation_over_complete_basis():
    rng = np.random.default_rng(99)
    for d in range(2, 9):
        mask = random_mask(rng, d, contrastable=False)
        state = apply_object_mask(build_initial_state(d), mask)
        total = sum(project_bc(state, p).weight for p in enumerate_projectors(d))
        assert total == pytest.approx(mask.budget / d, abs=1e-12)


def test_unmasked_projection_weights_sum_to_one():
    for d in (2, 3, 4, 7):
        state = build_initial_state(d)
        total = sum(project_bc(state, p).weight for p in enumerate_projectors(d))
        assert total == pytest.approx(1.0, abs=1e-12)
