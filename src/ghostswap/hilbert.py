"""Exact state algebra for two position-entangled photon pairs.

Four photons labelled A, B, C, D share a d-dimensional position basis per
photon. The source emits the product of two maximally correlated pairs,

    sum_i |i>_A |i>_B / sqrt(d)  (x)  sum_j |j>_C |j>_D / sqrt(d),

stored here as a dense complex tensor indexed (a, b, c, d). Keeping every
amplitude explicit caps the dimension at MAX_EXACT_DIMENSION but makes all
projection arithmetic exact to machine rounding, so closed-form results
elsewhere in the package can be checked against full contractions.

Joint measurements on the inner photons B and C use a complete orthonormal
basis of d*d states split into three families: the exchange-antisymmetric
pair states (|n,m> - |m,n>)/sqrt(2), the exchange-symmetric pair states
(|n,m> + |m,n>)/sqrt(2), both over 1 <= n < m <= d, and the d diagonal
states |n,n>. Pixel and projector indices are 1-based in docstrings and in
external formats; raw numpy arrays are 0-based.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "MAX_DIMENSION",
    "MAX_EXACT_DIMENSION",
    "Projection",
    "ObjectMask",
    "BellProjector",
    "FourPhotonState",
    "TwoPhotonState",
    "DensityMatrix",
    "validate_dimension",
    "build_initial_state",
    "apply_object_mask",
    "enumerate_projectors",
    "project_bc",
    "joint_probability",
]

MAX_EXACT_DIMENSION = 16

# ghostctl image and figure2 jobs at d = 10**5 peak at 24 and 32 MB of traced
# memory, most of it the text of their files, and the peak grows linearly in
# d: about 0.3 GB at this cap, and it would be about 3 GB at 10**7.
MAX_DIMENSION = 10**6

_HERMITIAN_ATOL = 1e-12
_PSD_EIGENVALUE_ATOL = 1e-10


def validate_dimension(d: int, *, exact: bool = False) -> int:
    """Check a basis dimension and return it as a plain int."""
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool):
        raise ValueError(f"dimension must be an integer, got {d!r}")
    d = int(d)
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if d > MAX_DIMENSION:
        raise ValueError(f"dimension must be at most {MAX_DIMENSION}, got {d}")
    if exact and d > MAX_EXACT_DIMENSION:
        raise ValueError(
            f"dense tensors support dimensions up to {MAX_EXACT_DIMENSION}, got {d}"
        )
    return d


class Projection(Enum):
    """Measurement families for the joint projection of photons B and C.

    PSI_MINUS, PSI_PLUS and PHI are the elementary families that together
    form a complete orthonormal basis. ANTI_SYMMETRIC and SYMMETRIC are the
    aggregates used for imaging: ANTI_SYMMETRIC is PSI_MINUS alone, while
    SYMMETRIC combines PSI_PLUS and PHI.
    """

    PSI_MINUS = "psi_minus"
    PSI_PLUS = "psi_plus"
    PHI = "phi"
    ANTI_SYMMETRIC = "anti_symmetric"
    SYMMETRIC = "symmetric"

    @property
    def is_elementary(self) -> bool:
        return self in (Projection.PSI_MINUS, Projection.PSI_PLUS, Projection.PHI)

    def elementary(self) -> tuple["Projection", ...]:
        """Expand this family into the elementary families it contains."""
        if self.is_elementary:
            return (self,)
        if self is Projection.ANTI_SYMMETRIC:
            return (Projection.PSI_MINUS,)
        return (Projection.PSI_PLUS, Projection.PHI)

    @classmethod
    def from_name(cls, name: str) -> "Projection":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(p.value for p in cls)
            raise ValueError(f"unknown projection family {name!r}; expected one of: {valid}")


def _expand_families(families: Iterable[Projection] | Projection | None) -> tuple[Projection, ...]:
    if families is None:
        requested = (Projection.PSI_MINUS, Projection.PSI_PLUS, Projection.PHI)
    elif isinstance(families, Projection):
        requested = (families,)
    else:
        requested = tuple(families)
    expanded: list[Projection] = []
    for fam in requested:
        if not isinstance(fam, Projection):
            raise ValueError(f"expected a Projection member, got {fam!r}")
        for elem in fam.elementary():
            if elem not in expanded:
                expanded.append(elem)
    if not expanded:
        raise ValueError("at least one projection family is required")
    order = (Projection.PSI_MINUS, Projection.PSI_PLUS, Projection.PHI)
    return tuple(sorted(expanded, key=order.index))


class ObjectMask:
    """Binary transmission mask applied to the position basis of photon A.

    Pixel k transmits when values[k] is 1 and blocks when it is 0. The
    budget is the number of transmitting pixels. A mask is degenerate for
    contrast purposes when it leaves no bright or no dark pixels. The values
    are stored once, as a read-only int64 array.
    """

    __slots__ = ("_array", "_budget")

    def __init__(self, values: Sequence[int] | np.ndarray) -> None:
        array = np.asarray(values)
        if array.ndim != 1 or array.size < 2:
            raise ValueError(f"mask must be a 1-D sequence of at least 2 pixels, got shape {array.shape}")
        if array.dtype.kind not in "iuf":
            raise ValueError(f"mask values must be numbers, got dtype {array.dtype}")
        # an integer is 0 or 1 when no bit above the lowest is set
        if array.dtype.kind == "f" or np.count_nonzero(array >> 1):
            bad = np.flatnonzero((array != 0) & (array != 1))
            if bad.size:
                k = int(bad[0])
                raise ValueError(f"mask values must be 0 or 1, got {array[k].item()!r} at pixel {k + 1}")
        array = array.astype(np.int64)
        array.setflags(write=False)
        self._array = array
        self._budget = int(np.count_nonzero(array))

    @classmethod
    def half_on(cls, d: int) -> "ObjectMask":
        """First ceil(d/2) pixels transmitting, the rest blocked."""
        d = validate_dimension(d)
        on = (d + 1) // 2
        return cls([1] * on + [0] * (d - on))

    @classmethod
    def quadrant_on(cls, d: int) -> "ObjectMask":
        """Bottom-left quadrant of a square grid transmitting.

        Requires d to be a perfect square. Pixels are laid out row-major
        starting from the bottom-left corner of an s x s grid (s = sqrt(d));
        rows and columns below floor(s/2) transmit.
        """
        d = validate_dimension(d)
        s = int(np.sqrt(d))
        if s * s != d:
            raise ValueError(f"quadrant_on needs a square dimension, got {d}")
        half = max(s // 2, 1)
        k = np.arange(d)
        return cls(((k // s < half) & (k % s < half)).astype(np.int64))

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(self._array.tolist())

    @property
    def d(self) -> int:
        return self._array.size

    @property
    def budget(self) -> int:
        """Number of transmitting pixels."""
        return self._budget

    @property
    def is_degenerate(self) -> bool:
        """True when every pixel transmits or none does."""
        return self._budget in (0, self.d)

    def as_array(self) -> np.ndarray:
        """The read-only int64 pixel values."""
        return self._array

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ObjectMask) and np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        return hash(self._array.tobytes())

    def __repr__(self) -> str:
        return f"ObjectMask({self._array.tolist()})"


class BellProjector:
    """One member of the complete joint-projection basis for photons B and C.

    The index pair is 1-based: PSI_MINUS and PSI_PLUS require 1 <= n < m <= d,
    PHI requires m == n.
    """

    __slots__ = ("_family", "_d", "_n", "_m")

    def __init__(self, family: Projection, *, d: int, n: int, m: int) -> None:
        if not isinstance(family, Projection) or not family.is_elementary:
            raise ValueError(f"projector family must be elementary, got {family!r}")
        d = validate_dimension(d)
        n, m = int(n), int(m)
        if family is Projection.PHI:
            if n != m:
                raise ValueError(f"diagonal projectors need n == m, got ({n}, {m})")
            if not 1 <= n <= d:
                raise ValueError(f"index {n} outside 1..{d}")
        else:
            if not (1 <= n < m <= d):
                raise ValueError(f"pair projectors need 1 <= n < m <= d, got ({n}, {m}) for d={d}")
        self._family = family
        self._d = d
        self._n = n
        self._m = m

    @property
    def family(self) -> Projection:
        return self._family

    @property
    def d(self) -> int:
        return self._d

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return self._m

    def state_vector(self) -> np.ndarray:
        """Complex (d, d) matrix of amplitudes over the (b, c) basis."""
        vec = np.zeros((self._d, self._d), dtype=complex)
        i, j = self._n - 1, self._m - 1
        if self._family is Projection.PHI:
            vec[i, i] = 1.0
        else:
            r = 1.0 / np.sqrt(2.0)
            vec[i, j] = r
            vec[j, i] = r if self._family is Projection.PSI_PLUS else -r
        vec.setflags(write=False)
        return vec

    def label(self) -> str:
        return f"{self._family.value}({self._n},{self._m})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BellProjector)
            and (self._family, self._d, self._n, self._m)
            == (other._family, other._d, other._n, other._m)
        )

    def __hash__(self) -> int:
        return hash((self._family, self._d, self._n, self._m))

    def __repr__(self) -> str:
        return f"BellProjector({self.label()}, d={self._d})"


class FourPhotonState:
    """Dense amplitude tensor over the (A, B, C, D) position basis.

    States are unnormalized in general; norm_sq caches the total squared
    magnitude at construction. A state with norm_sq equal to zero is
    flagged degenerate rather than rejected.
    """

    __slots__ = ("_amplitudes", "_norm_sq")

    def __init__(self, amplitudes: np.ndarray) -> None:
        amp = np.asarray(amplitudes, dtype=complex)
        if amp.ndim != 4 or len(set(amp.shape)) != 1:
            raise ValueError(f"amplitudes must be a (d, d, d, d) tensor, got shape {amp.shape}")
        validate_dimension(amp.shape[0], exact=True)
        amp = amp.copy()
        amp.setflags(write=False)
        self._amplitudes = amp
        self._norm_sq = float((abs(amp) ** 2).sum())

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    @property
    def d(self) -> int:
        return self._amplitudes.shape[0]

    @property
    def norm_sq(self) -> float:
        return self._norm_sq

    @property
    def is_degenerate(self) -> bool:
        return self._norm_sq == 0.0

    def amplitude(self, a: int, b: int, c: int, d: int) -> complex:
        """Amplitude at 1-based basis labels (a, b, c, d)."""
        for name, idx in (("a", a), ("b", b), ("c", c), ("d", d)):
            if not 1 <= idx <= self.d:
                raise ValueError(f"index {name}={idx} outside 1..{self.d}")
        return complex(self._amplitudes[a - 1, b - 1, c - 1, d - 1])

    def __repr__(self) -> str:
        return f"FourPhotonState(d={self.d}, norm_sq={self._norm_sq:.6g})"


class TwoPhotonState:
    """Unnormalized amplitude matrix over the (A, D) basis after a projection.

    weight caches the squared norm, which is the probability of the
    projection outcome that produced this state.
    """

    __slots__ = ("_amplitudes", "_weight")

    def __init__(self, amplitudes: np.ndarray) -> None:
        amp = np.asarray(amplitudes, dtype=complex)
        if amp.ndim != 2 or amp.shape[0] != amp.shape[1]:
            raise ValueError(f"amplitudes must be a square matrix, got shape {amp.shape}")
        validate_dimension(amp.shape[0], exact=True)
        amp = amp.copy()
        amp.setflags(write=False)
        self._amplitudes = amp
        self._weight = float((abs(amp) ** 2).sum())

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    @property
    def d(self) -> int:
        return self._amplitudes.shape[0]

    @property
    def weight(self) -> float:
        return self._weight

    def amplitude(self, a: int, d: int) -> complex:
        """Amplitude at 1-based basis labels (a, d)."""
        for name, idx in (("a", a), ("d", d)):
            if not 1 <= idx <= self.d:
                raise ValueError(f"index {name}={idx} outside 1..{self.d}")
        return complex(self._amplitudes[a - 1, d - 1])

    def __repr__(self) -> str:
        return f"TwoPhotonState(d={self.d}, weight={self._weight:.6g})"


class DensityMatrix:
    """Unnormalized density matrix; the trace carries the event probability.

    Construction checks hermiticity to 1e-12 and positive semidefiniteness
    to a -1e-10 eigenvalue floor.
    """

    __slots__ = ("_entries", "_trace")

    def __init__(self, entries: np.ndarray) -> None:
        rho = np.asarray(entries, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {rho.shape}")
        if not np.allclose(rho, rho.conj().T, atol=_HERMITIAN_ATOL, rtol=0.0):
            raise ValueError("density matrix is not hermitian within 1e-12")
        eigenvalues = np.linalg.eigvalsh(rho)
        if eigenvalues.min() < -_PSD_EIGENVALUE_ATOL:
            raise ValueError(
                f"density matrix has negative eigenvalue {eigenvalues.min():.3e}"
            )
        rho = rho.copy()
        rho.setflags(write=False)
        self._entries = rho
        self._trace = float(np.trace(rho).real)

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def d(self) -> int:
        return self._entries.shape[0]

    @property
    def trace(self) -> float:
        return self._trace

    def __repr__(self) -> str:
        return f"DensityMatrix(d={self.d}, trace={self._trace:.6g})"


def build_initial_state(d: int) -> FourPhotonState:
    """Product of two maximally correlated pairs, amplitude 1/d at (i, i, j, j)."""
    d = validate_dimension(d, exact=True)
    amp = np.zeros((d, d, d, d), dtype=complex)
    idx = np.arange(d)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    amp[ii, ii, jj, jj] = 1.0 / d
    return FourPhotonState(amp)


def apply_object_mask(state: FourPhotonState, mask: ObjectMask) -> FourPhotonState:
    """Scale each amplitude by the mask value at photon A's pixel.

    The result is left unnormalized; applying the initial state gives a
    squared norm of budget/d. Masking is idempotent because the values are
    binary.
    """
    if mask.d != state.d:
        raise ValueError(f"mask dimension {mask.d} does not match state dimension {state.d}")
    factors = mask.as_array().astype(complex).reshape(-1, 1, 1, 1)
    return FourPhotonState(state.amplitudes * factors)


def enumerate_projectors(
    d: int, families: Iterable[Projection] | Projection | None = None
) -> tuple[BellProjector, ...]:
    """All projectors of the requested families in canonical order.

    Defaults to the full basis. Aggregate families expand to their
    elementary members; order is PSI_MINUS pairs, PSI_PLUS pairs, then PHI
    diagonals, each lexicographic in (n, m).
    """
    d = validate_dimension(d)
    out: list[BellProjector] = []
    for fam in _expand_families(families):
        if fam is Projection.PHI:
            out.extend(BellProjector(fam, d=d, n=n, m=n) for n in range(1, d + 1))
        else:
            out.extend(
                BellProjector(fam, d=d, n=n, m=m)
                for n in range(1, d)
                for m in range(n + 1, d + 1)
            )
    return tuple(out)


def project_bc(state: FourPhotonState, projector: BellProjector) -> TwoPhotonState:
    """Project photons B and C onto one basis state.

    Returns the unnormalized conditional state of photons A and D,
    phi(a, d) = sum_{b,c} conj(pi(b, c)) psi(a, b, c, d); its weight is the
    outcome probability.
    """
    if projector.d != state.d:
        raise ValueError(
            f"projector dimension {projector.d} does not match state dimension {state.d}"
        )
    phi = np.einsum("bc,abcd->ad", projector.state_vector().conj(), state.amplitudes)
    return TwoPhotonState(phi)


def joint_probability(
    state: FourPhotonState,
    families: Iterable[Projection] | Projection,
    a_pixel: int,
    d_pixel: int,
) -> float:
    """Probability of detecting photon A at a_pixel and photon D at d_pixel.

    Both pixels are 1-based. The central projection outcome is summed over
    every projector in the requested families.
    """
    d = state.d
    for name, idx in (("a_pixel", a_pixel), ("d_pixel", d_pixel)):
        if not isinstance(idx, (int, np.integer)) or not 1 <= int(idx) <= d:
            raise ValueError(f"{name}={idx!r} outside 1..{d}")
    slab = state.amplitudes[a_pixel - 1, :, :, d_pixel - 1]
    total = 0.0
    for projector in enumerate_projectors(d, families):
        amp = (projector.state_vector().conj() * slab).sum()
        total += abs(amp) ** 2
    return float(total)
