"""Exact state and observable arithmetic for small finite-dimensional systems.

Everything here is dense double-precision numpy.  Observables and states are
immutable after construction and validated eagerly, so downstream code can
assume Hermiticity, normalization and matching dimensions without re-checking.
:func:`moment_table` gives the means and second moments of a stack of
observables, the one table every relation is computed from, for one state or
a whole batch at once.  All functions are pure.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    DimensionError,
    UnsupportedDimensionError,
)

# Construction-time tolerances.
HERMITICITY_ATOL = 1e-12
NORMALIZATION_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_ATOL = 1e-10

# Run-time tolerances for quantities that are real or non-negative up to
# round-off, relative to max(1, largest second moment) so they hold at any
# scale of the observables.  Residues beyond these indicate corrupted
# inputs, not noise.
IMAG_RESIDUE_ATOL = 1e-10
VARIANCE_CLAMP_ATOL = 1e-10

# Second moments above this are refused: the product bound multiplies two
# variances, which would overflow double precision.
MOMENT_SCALE_LIMIT = 1e150

# Deviation vectors shorter than this are treated as exactly zero, i.e. the
# state is an eigenstate and no normalized deviation direction exists.
DEVIATION_NORM_FLOOR = 1e-12


def _is_hermitian(m: np.ndarray) -> bool:
    # Entrywise within HERMITICITY_ATOL, as np.allclose(rtol=0) but cheaper.
    return np.abs(m - m.conj().T).max() <= HERMITICITY_ATOL


def _as_square_complex(values, what: str) -> np.ndarray:
    m = np.asarray(values, dtype=complex)
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has non-finite entries")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {m.shape}")
    if m.shape[0] < 2:
        raise UnsupportedDimensionError(
            f"{what} must act on a space of dimension >= 2, got {m.shape[0]}"
        )
    return m


@dataclass(frozen=True, eq=False)
class Observable:
    """A Hermitian matrix of finite entries on a d-dimensional system, d >= 2.

    The stored array is a read-only copy of the input; Hermiticity is
    enforced entrywise at construction within ``HERMITICITY_ATOL``.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _as_square_complex(self.matrix, "observable")
        if not _is_hermitian(m):
            raise ValueError("observable matrix is not Hermitian within 1e-12")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __add__(self, other: "Observable") -> "Observable":
        if not isinstance(other, Observable):
            return NotImplemented
        _check_same_dim(self.dim, other.dim)
        return Observable(self.matrix + other.matrix)

    def __sub__(self, other: "Observable") -> "Observable":
        if not isinstance(other, Observable):
            return NotImplemented
        _check_same_dim(self.dim, other.dim)
        return Observable(self.matrix - other.matrix)

    def __mul__(self, scale: float) -> "Observable":
        if not isinstance(scale, (int, float)):
            return NotImplemented
        return Observable(self.matrix * float(scale))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Observable(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized state vector of finite amplitudes.

    Invariant: the squared amplitudes sum to 1 within ``NORMALIZATION_ATOL``.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if v.size < 2:
            raise UnsupportedDimensionError(
                f"state vector must have dimension >= 2, got {v.size}"
            )
        norm_sq = float(np.vdot(v, v).real)
        # Written so that a NaN or infinite amplitude, which makes the norm
        # non-finite, fails it too.
        if not abs(norm_sq - 1.0) <= NORMALIZATION_ATOL:
            raise ValueError(
                f"state vector is not normalized: sum of |amplitude|^2 = {norm_sq!r}"
            )
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityMatrix":
        """The rank-one projector onto this state."""
        v = self.amplitudes
        return DensityMatrix(np.outer(v, v.conj()))

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A mixed state: finite, Hermitian, unit trace, positive semidefinite.

    Positivity is checked through the eigenvalue spectrum; the smallest
    eigenvalue may sit below zero by at most ``PSD_ATOL`` to absorb
    round-off from reconstructed matrices.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _as_square_complex(self.matrix, "density matrix")
        if not _is_hermitian(m):
            raise ValueError("density matrix is not Hermitian within 1e-12")
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > TRACE_ATOL:
            raise ValueError(f"density matrix trace is {trace!r}, expected 1")
        smallest = float(np.linalg.eigvalsh(m)[0])
        if smallest < -PSD_ATOL:
            raise ValueError(
                f"density matrix has negative eigenvalue {smallest!r}"
            )
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


# States are passed around as a tagged union; dispatch is by isinstance.
QuantumState = PureState | DensityMatrix


def _check_same_dim(*dims: int) -> None:
    if len(set(dims)) > 1:
        raise DimensionError(f"dimension mismatch: {dims}")


def state_array(state: QuantumState) -> np.ndarray:
    """The amplitudes of a pure state or the matrix of a mixed one."""
    if isinstance(state, PureState):
        return state.amplitudes
    if isinstance(state, DensityMatrix):
        return state.matrix
    raise TypeError(f"not a quantum state: {state!r}")


def moment_table(
    mats: np.ndarray, state: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Means ``m_i`` and second moments ``G_ij = <A_i A_j>`` of stacked observables.

    ``mats`` is an ``(..., n, d, d)`` stack of Hermitian matrices and
    ``state`` a ket ``(..., d)`` or a density matrix ``(..., d, d)``; batch
    axes broadcast, so a shared stack serves a batch of kets as
    ``stack[None]``.  For a ket, ``W = A psi`` holds one row per observable,
    ``m = Re(W psi*)`` and ``G = W* W^T``; for a density matrix ``G_ij =
    Tr(rho A_i A_j)`` and ``W`` is None.  Returns ``(m, G, W)``.

    Each instance is judged on its own scale ``max(1, max_i G_ii)``.  A
    scale above ``MOMENT_SCALE_LIMIT`` or not finite, an imaginary part of a
    mean at or above ``IMAG_RESIDUE_ATOL`` times it, or a variance
    ``G_ii - m_i^2`` below ``-VARIANCE_CLAMP_ATOL`` times it raises
    :class:`ConsistencyError`: the input is beyond double precision or
    corrupted.  Overflow is left to that check, so no arithmetic warns.
    """
    with np.errstate(all="ignore"):
        if state.ndim == mats.ndim - 2:  # a ket; a density matrix has one more axis
            W = (mats @ state[..., None, :, None])[..., 0]
            mean = (W @ state.conj()[..., None])[..., 0]
            # einsum forms each product directly, so commuting observables get
            # an exactly real G; a BLAS product can leave round-off in Im G.
            G = np.einsum("...ik,...jk->...ij", W.conj(), W)
        else:
            W = None
            rho_a = state[..., None, :, :] @ mats
            mean = np.trace(rho_a, axis1=-2, axis2=-1)
            G = np.einsum("...iab,...jba->...ij", rho_a, mats)
        m = mean.real
        second = G.real.diagonal(0, -2, -1)
        scale = second.max(-1, initial=1.0)
        residue = np.abs(mean.imag).max(-1)
        lowest = (second - m * m).min(-1)
    for failing, value, message in (
        (~(scale <= MOMENT_SCALE_LIMIT), scale, "second moment {!r} is not finite or exceeds {:g}"),
        (residue >= IMAG_RESIDUE_ATOL * scale, residue,
         "expectation value has imaginary residue {!r} beyond tolerance"),
        (lowest < -VARIANCE_CLAMP_ATOL * scale, lowest, "variance {!r} is negative beyond round-off"),
    ):
        if failing.any():
            # The first failing instance's value; only the scale message uses the limit.
            first = np.ravel(value)[np.ravel(failing)][0]
            raise ConsistencyError(message.format(float(first), MOMENT_SCALE_LIMIT))
    return m, G, W


def _table(observables, state: QuantumState):
    _check_same_dim(*(o.dim for o in observables), state.dim)
    return moment_table(np.array([o.matrix for o in observables]), state_array(state))


def expectation(obs: Observable, state: QuantumState) -> float:
    """Mean value of ``obs`` in ``state``.

    Returns ``<psi|A|psi>`` for a pure state and ``Tr(rho A)`` for a mixed
    one, as checked by :func:`moment_table`.
    """
    m, _, _ = _table((obs,), state)
    return float(m[0])


def variance(obs: Observable, state: QuantumState) -> float:
    """Variance ``<A^2> - <A>^2`` of ``obs`` in ``state``.

    Exact zeros (eigenstates) may round to small negative values; those
    within the tolerance of :func:`moment_table` are clamped to 0.0.
    """
    m, G, _ = _table((obs,), state)
    return max(float(G[0, 0].real - m[0] * m[0]), 0.0)


def commutator_expectation(a: Observable, b: Observable, state: QuantumState) -> complex:
    """Expectation of the commutator ``[A, B] = AB - BA``.

    For Hermitian ``A`` and ``B`` this is ``2i Im <AB>``, purely imaginary
    by construction; it is returned as a complex number so callers can
    take magnitudes or signed combinations.
    """
    _, G, _ = _table((a, b), state)
    return complex(0.0, 2.0 * G[0, 1].imag)


def deviation_state(obs: Observable, psi: PureState) -> tuple[float, PureState | None]:
    """Normalize ``(A - <A>)|psi>`` and return ``(norm, direction)``.

    The norm equals the standard deviation of ``obs`` in ``psi``.  When it
    falls below ``DEVIATION_NORM_FLOOR`` the state is an eigenstate and the
    direction is ``None``.  The returned direction is orthogonal to ``psi``
    by construction.
    """
    if not isinstance(psi, PureState):
        raise TypeError(f"deviation_state needs a PureState, got {psi!r}")
    m, _, W = _table((obs,), psi)
    residual = W[0] - m[0] * psi.amplitudes
    norm = float(np.linalg.norm(residual))
    if norm < DEVIATION_NORM_FLOOR:
        return norm, None
    return norm, PureState(residual / norm)


def orthogonal_qubit(psi: PureState) -> PureState:
    """The unique (up to phase) state orthogonal to a qubit state.

    Uses the fixed phase convention ``(a, b) -> (-conj(b), conj(a))`` so the
    result is deterministic.  Only defined for dimension 2.
    """
    if not isinstance(psi, PureState):
        raise TypeError(f"orthogonal_qubit needs a PureState, got {psi!r}")
    if psi.dim != 2:
        raise UnsupportedDimensionError(
            f"orthogonal complement choice is only fixed for qubits, got dim {psi.dim}"
        )
    a, b = psi.amplitudes
    return PureState(np.array([-np.conj(b), np.conj(a)]))


def random_pure_state(dim: int, seed) -> PureState:
    """Haar-random pure state: a normalized complex Gaussian vector.

    Args:
        dim: Hilbert-space dimension, at least 2.
        seed: anything accepted by ``numpy.random.default_rng``; the same
            seed always yields the same state.
    """
    if dim < 2:
        raise UnsupportedDimensionError(f"dimension must be >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    norm = float(np.linalg.norm(v))
    while norm < 1e-6:  # vanishing draw, probability ~0 but cheap to guard
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        norm = float(np.linalg.norm(v))
    return PureState(v / norm)


def random_observable(dim: int, seed) -> Observable:
    """Random Hermitian matrix ``(G + G^dagger) / 2`` with Gaussian ``G``."""
    if dim < 2:
        raise UnsupportedDimensionError(f"dimension must be >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Observable((g + g.conj().T) / 2.0)
