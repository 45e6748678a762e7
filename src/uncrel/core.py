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
from functools import reduce

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

# A random draw shorter than this is degenerate and gets a fixed fallback.
DEGENERATE_NORM = 1e-6


def _is_hermitian(m: np.ndarray, scale: float = 1.0) -> bool:
    # Entrywise within HERMITICITY_ATOL * scale, as np.allclose(rtol=0) but cheaper.
    return np.abs(m - m.conj().T).max() <= HERMITICITY_ATOL * scale


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
    enforced entrywise at construction within ``HERMITICITY_ATOL`` times
    ``max(1, max|A_ij|)``, so a rescaled observable is accepted as the
    original is.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _as_square_complex(self.matrix, "observable")
        if not _is_hermitian(m, max(1.0, float(np.abs(m).max()))):
            raise ValueError(
                "observable matrix is not Hermitian within 1e-12 times max(1, largest |entry|)"
            )
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
    Tr(rho A_i A_j)`` and ``W`` is None.  Returns ``(m, G, W)``.  An
    ``Im G_ij`` within ``(d + 1) eps sqrt(G_ii G_jj)`` is round-off and is
    returned as 0.

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
            # einsum forms each product directly; a BLAS product can leave
            # more round-off in Im G.
            G = np.einsum("...ik,...jk->...ij", W.conj(), W)
        else:
            W = None
            rho_a = state[..., None, :, :] @ mats
            mean = np.trace(rho_a, axis1=-2, axis2=-1)
            G = np.einsum("...iab,...jba->...ij", rho_a, mats)
        m = mean.real
        second = G.real.diagonal(0, -2, -1)
        # Im G_ij is the commutator's expectation over 2i.  Where that is
        # exactly 0, rounding in A psi still leaves up to about eps
        # sqrt(G_ii G_jj); a value within (d + 1) eps sqrt(G_ii G_jj) is
        # taken as 0, so commuting diagonal observables get a real G.
        floor = (state.shape[-1] + 1) * np.finfo(float).eps * np.sqrt(
            second[..., :, None] * second[..., None, :])
        G.imag[np.abs(G.imag) <= floor] = 0.0
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


# No command calls this; it is the only name behind bench/tracing.py's core.moments span.
def deviation_state(obs: Observable, psi: PureState) -> tuple[float, PureState | None]:
    """Normalize ``(A - <A>)|psi>`` and return ``(norm, direction)``.

    The norm equals the standard deviation of ``obs`` in ``psi``.  When it
    falls below ``DEVIATION_NORM_FLOOR`` the state is an eigenstate and the
    direction is ``None``.  The returned direction is orthogonal to ``psi``
    by construction.
    """
    if not isinstance(psi, PureState):
        raise TypeError(f"deviation_state needs a PureState, got {psi!r}")
    _check_same_dim(obs.dim, psi.dim)
    m, _, W = moment_table(obs.matrix[None], psi.amplitudes)
    residual = W[0] - m[0] * psi.amplitudes
    norm = float(np.linalg.norm(residual))
    if norm < DEVIATION_NORM_FLOOR:
        return norm, None
    return norm, PureState(residual / norm)


def orthogonal_qubit(psi: PureState) -> PureState:
    """The unique (up to phase) state orthogonal to a qubit state.

    Uses the fixed phase convention of :func:`qubit_companions`, so the
    result is deterministic.  Only defined for dimension 2.
    """
    if not isinstance(psi, PureState):
        raise TypeError(f"orthogonal_qubit needs a PureState, got {psi!r}")
    if psi.dim != 2:
        raise UnsupportedDimensionError(
            f"orthogonal complement choice is only fixed for qubits, got dim {psi.dim}"
        )
    return PureState(qubit_companions(psi.amplitudes))


def qubit_companions(kets: np.ndarray) -> np.ndarray:
    """``(a, b) -> (-conj(b), conj(a))``, orthogonal to each qubit ket of a ``(..., 2)`` array."""
    return np.stack([-kets[..., 1].conj(), kets[..., 0].conj()], axis=-1)


def _add_rows(a: np.ndarray):
    """Sum over the first axis, one whole row after another in index order,
    so a value's bits do not depend on the batch it sits in; ``a.sum(0)``
    adds 8 or more contiguous values pairwise instead."""
    return reduce(np.add, a)


def _unit_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each complex row of a 2-d ``v`` over its norm, and the mask of the
    rows whose norm is below ``DEGENERATE_NORM`` (those rows are not unit
    vectors, and callers replace them).

    The norm adds ``Re^2`` and ``Im^2`` of each entry in index order, and the
    division is by real and imaginary part, so each row gets the same bits
    whatever the batch.
    """
    x = np.ascontiguousarray(v).view(float)
    norm = np.sqrt(_add_rows((x * x).T))
    unit = x / np.maximum(norm, DEGENERATE_NORM)[:, None]
    return unit.view(complex), norm < DEGENERATE_NORM


def orthogonal_companions(kets: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Unit vectors orthogonal to each row of ``kets``, from ``(B, d)`` draws.

    Each draw has its ket projected out, ``v - <psi|v> psi``, and is
    renormalized.  A draw whose projection is shorter than
    ``DEGENERATE_NORM`` is replaced, deterministically, by the basis vector
    ``e_j`` at the ket's smallest amplitude (the first on ties), projected
    and renormalized the same way; that projection has norm
    ``sqrt(1 - |psi_j|^2) >= sqrt(1 - 1/d)``.
    """
    def project(v):
        return _unit_rows(v - _add_rows((kets.conj() * v).T)[:, None] * kets)

    perps, degenerate = project(draws)
    if degenerate.any():
        basis = np.eye(kets.shape[-1])[np.argmin(np.abs(kets), axis=-1)]
        perps[degenerate] = project(basis)[0][degenerate]
    return perps


def _gaussians(seed, trials: range | None, count: int) -> np.ndarray:
    """``(len(trials), count)`` standard complex normals from one Philox stream
    (``trials`` None stands for ``range(1)``).

    The stream is ``numpy.random.Philox`` keyed by ``SeedSequence(seed)``.
    Trial ``t`` owns ``S = ceil(count / 2)`` counter steps of 4 raw 64-bit
    words, starting after ``t * S`` steps, and uses its first ``2 count``
    words: each pair ``(a, b)`` becomes ``sqrt(-2 ln(1 - x_a)) (cos 2 pi x_b
    + i sin 2 pi x_b)`` by Box-Muller, with ``x = (word >> 11) 2^-53`` in
    [0, 1).  A block of trials is one ``advance`` and one ``random_raw``.
    """
    trials = range(1) if trials is None else trials
    if trials.step != 1 or trials.start < 0 or len(trials) < 1:
        raise ValueError(f"trials must be a non-empty range of consecutive indices >= 0: {trials}")
    steps = -(-count // 2)
    stream = np.random.Philox(seed)
    stream.advance(trials.start * steps)
    words = stream.random_raw((len(trials), 4 * steps))[:, :2 * count]
    x = (words >> 11).astype(float) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(1.0 - x[:, 0::2]))
    angle = 2.0 * np.pi * x[:, 1::2]
    return radius * np.cos(angle) + 1j * (radius * np.sin(angle))


def random_pure_state(dim: int, seed, trials: range | None = None):
    """Haar-random pure states: normalized complex Gaussian vectors.

    Args:
        dim: Hilbert-space dimension, at least 2.
        seed: any ``numpy.random.SeedSequence`` entropy (an int or a tuple
            of ints); it keys the Philox stream of :func:`_gaussians`, in
            which trial ``t`` takes ``2 dim`` words.
        trials: a ``range`` of consecutive trial indices, or None.

    Returns trial 0 as a validated :class:`PureState` when ``trials`` is
    None, otherwise the ``(len(trials), dim)`` array of those trials' kets,
    each with the same bits as when drawn alone.  A draw of norm below
    ``DEGENERATE_NORM`` (probability below ``1e-12 ** dim``) becomes the
    basis state ``|0>``.
    """
    if dim < 2:
        raise UnsupportedDimensionError(f"dimension must be >= 2, got {dim}")
    kets, degenerate = _unit_rows(_gaussians(seed, trials, dim))
    kets[degenerate] = np.eye(1, dim)
    return kets if trials is not None else PureState(kets[0])


def random_observable(dim: int, seed, trials: range | None = None):
    """Random Hermitian matrices ``(G + G^dagger) / 2`` with Gaussian ``G``.

    ``seed`` and ``trials`` are as for :func:`random_pure_state`; trial
    ``t`` takes ``2 dim^2`` words and fills ``G`` row by row.  Returns trial
    0 as a validated :class:`Observable` when ``trials`` is None, otherwise
    the ``(len(trials), dim, dim)`` array.
    """
    if dim < 2:
        raise UnsupportedDimensionError(f"dimension must be >= 2, got {dim}")
    g = _gaussians(seed, trials, dim * dim).reshape(-1, dim, dim)
    mats = (g + g.conj().swapaxes(-1, -2)) / 2.0
    return mats if trials is not None else Observable(mats[0])
