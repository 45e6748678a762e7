"""Exact state and observable arithmetic for small finite-dimensional systems.

Everything here is dense double-precision numpy.  Observables and states are
immutable after construction and validated eagerly, so downstream code can
assume Hermiticity, normalization and matching dimensions without re-checking.
:func:`moment_table` gives the means and covariances of a stack of
observables, the one table every relation is computed from, for one state or
a whole batch at once.  All functions are pure.  A refused input raises
``ValueError``.  A table whose checks fail beyond round-off, from an input that
is corrupted or beyond double precision, raises :class:`ConsistencyError`.
"""
from __future__ import annotations

from functools import reduce
from operator import index

import numpy as np

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


class ConsistencyError(ArithmeticError):
    """A check of :func:`moment_table` failed beyond round-off, or its moments overflow."""


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
        raise ValueError(
            f"{what} must act on a space of dimension >= 2, got {m.shape[0]}"
        )
    return m


class _Frozen:
    """Base of the immutable value types.  ``__init__`` assigns each field
    once; assigning or deleting a field afterwards raises ``AttributeError``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Observable(_Frozen):
    """A Hermitian matrix of finite entries on a d-dimensional system, d >= 2.

    The stored array is a read-only copy of the input; Hermiticity is
    enforced entrywise at construction within ``HERMITICITY_ATOL`` times
    ``max(1, max|A_ij|)``, so a rescaled observable is accepted as the
    original is.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        m = _as_square_complex(matrix, "observable")
        if not _is_hermitian(m, max(1.0, float(np.abs(m).max()))):
            raise ValueError(
                "observable matrix is not Hermitian within 1e-12 times max(1, largest |entry|)"
            )
        m = m.copy()
        m.flags.writeable = False
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"Observable(dim={self.dim})"


class PureState(_Frozen):
    """A normalized state vector of finite amplitudes.

    Invariant: the squared amplitudes sum to 1 within ``NORMALIZATION_ATOL``.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: np.ndarray) -> None:
        v = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if v.size < 2:
            raise ValueError(
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
        self.amplitudes = v

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim})"


class DensityMatrix(_Frozen):
    """A mixed state: finite, Hermitian, unit trace, positive semidefinite.

    Positivity is checked through the eigenvalue spectrum; the smallest
    eigenvalue may sit below zero by at most ``PSD_ATOL`` to absorb
    round-off from reconstructed matrices.  Such a matrix is stored as the
    nearest positive semidefinite one (eigenvalues clipped at 0, trace
    renormalized), so its variances pass the check of :func:`moment_table`.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        m = _as_square_complex(matrix, "density matrix")
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
        if smallest < 0.0:
            values, vectors = np.linalg.eigh(m)
            m = (vectors * (values.clip(0.0) / values.clip(0.0).sum())) @ vectors.conj().T
        m = m.copy()
        m.flags.writeable = False
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


# States are passed around as a tagged union; dispatch is by isinstance.
QuantumState = PureState | DensityMatrix


def _index(value, name: str) -> int:
    """``value`` as ``operator.index`` takes it; anything else is refused naming ``name``."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_same_dim(*dims: int) -> None:
    if len(set(dims)) > 1:
        raise ValueError(f"dimension mismatch: {dims}")


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
    """Means ``m_i`` and covariances ``C_ij = <(A_i - m_i)(A_j - m_j)>`` of stacked observables.

    ``mats`` is an ``(..., n, d, d)`` stack of Hermitian matrices and
    ``state`` a ket ``(..., d)`` or a density matrix ``(..., d, d)``; batch
    axes broadcast, so a shared stack serves a batch of kets as
    ``stack[None]``.  For a ket, ``W = A psi`` holds one row per observable,
    ``m = Re(W psi*)``, ``D = W - m psi`` and ``C = D* D^T``; for a density
    matrix ``C_ij = Tr(rho A'_i A'_j)`` with ``A'_i = A_i - m_i 1``, and
    ``D`` is None.  Returns ``(m, C, D)``.  No entry of ``C`` subtracts a
    squared mean, so ``A_i + c_i 1`` leaves it as it is.  An ``Im C_ij``
    within ``(d + 1) eps (|W_i| |D_j| + |D_i| |W_j|)``, with ``|W_i|^2 =
    <A_i^2>`` and ``|D_i|^2 = C_ii``, is round-off and is returned as 0.

    Each instance is judged on its own scale ``max(1, max_i <A_i^2>)``.  A
    scale above ``MOMENT_SCALE_LIMIT`` or not finite, an imaginary part of a
    mean at or above ``IMAG_RESIDUE_ATOL`` times it, or a variance ``<A_i^2>
    - m_i^2`` below ``-VARIANCE_CLAMP_ATOL`` times it (the one check a ket
    that is not normalized fails) raises :class:`ConsistencyError`: the
    input is beyond double precision or corrupted.  Overflow is left to
    these checks, so no arithmetic warns.
    """
    with np.errstate(all="ignore"):
        if state.ndim == mats.ndim - 2:  # a ket; a density matrix has one more axis
            W = (mats @ state[..., None, :, None])[..., 0]
            mean = (W @ state.conj()[..., None])[..., 0]
            second = np.einsum("...ik,...ik->...i", W.conj(), W).real
            D = W - mean.real[..., None] * state[..., None, :]
            # einsum forms each product directly; BLAS can leave more round-off in Im C.
            C = np.einsum("...ik,...jk->...ij", D.conj(), D)
        else:
            D = None
            rho_a = state[..., None, :, :] @ mats
            mean = np.trace(rho_a, axis1=-2, axis2=-1)
            second = np.einsum("...iab,...iba->...i", rho_a, mats).real
            centered = mats - mean.real[..., None, None] * np.eye(mats.shape[-1])
            C = np.einsum("...iab,...jba->...ij", state[..., None, :, :] @ centered, centered)
        m = mean.real
        # Im C_ij is <[A_i, A_j]> / 2i; where that is 0, D_i's round-off, eps |W_i|, remains.
        w_d = np.sqrt(second)[..., :, None] * np.sqrt(np.abs(C.real.diagonal(0, -2, -1)))[..., None, :]
        floor = (state.shape[-1] + 1) * np.finfo(float).eps * (w_d + w_d.swapaxes(-1, -2))
        C.imag[np.abs(C.imag) <= floor] = 0.0
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
    return m, C, D


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
    residual = moment_table(obs.matrix[None], psi.amplitudes)[2][0]
    norm = float(np.linalg.norm(residual))
    if norm < DEVIATION_NORM_FLOOR:
        return norm, None
    return norm, PureState(residual / norm)


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


def _gaussians(seed, trials: range, count: int) -> np.ndarray:
    """``(len(trials), count)`` standard complex normals from one Philox stream.

    The stream is ``numpy.random.Philox`` keyed by ``SeedSequence(seed)``.
    Trial ``t`` owns ``S = ceil(count / 2)`` counter steps of 4 raw 64-bit
    words, starting after ``t * S`` steps, and uses its first ``2 count``
    words: each pair ``(a, b)`` becomes ``sqrt(-2 ln(1 - x_a)) (cos 2 pi x_b
    + i sin 2 pi x_b)`` by Box-Muller, with ``x = (word >> 11) 2^-53`` in
    [0, 1).  A block of trials is one ``advance`` and one ``random_raw``.
    """
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


def random_pure_state(dim: int, seed, trials: range) -> np.ndarray:
    """Haar-random pure states: normalized complex Gaussian vectors.

    Args:
        dim: Hilbert-space dimension, at least 2.
        seed: any ``numpy.random.SeedSequence`` entropy (an int or a tuple
            of ints); it keys the Philox stream of :func:`_gaussians`, in
            which trial ``t`` takes ``2 dim`` words.
        trials: a ``range`` of consecutive trial indices.

    Returns the ``(len(trials), dim)`` array of those trials' kets, each
    with the same bits as when drawn alone.  A draw of norm below
    ``DEGENERATE_NORM`` (probability below ``1e-12 ** dim``) becomes the
    basis state ``|0>``.
    """
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    kets, degenerate = _unit_rows(_gaussians(seed, trials, dim))
    kets[degenerate] = np.eye(1, dim)
    return kets


def random_observable(dim: int, seed, trials: range) -> np.ndarray:
    """Random Hermitian matrices ``(G + G^dagger) / 2`` with Gaussian ``G``.

    ``seed`` and ``trials`` are as for :func:`random_pure_state`; trial
    ``t`` takes ``2 dim^2`` words and fills ``G`` row by row.  Returns the
    ``(len(trials), dim, dim)`` array.
    """
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    g = _gaussians(seed, trials, dim * dim).reshape(-1, dim, dim)
    return (g + g.conj().swapaxes(-1, -2)) / 2.0
