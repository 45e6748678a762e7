"""Closed forms for a qubit measured along the three Pauli axes.

For a qubit the seven sum-form bounds reduce to algebra in the Pauli
expectations ``(ex, ey, ez)``.  :func:`closed_form_bounds` evaluates them
over arrays of such triples without touching matrices: the Pauli algebra
gives the covariances ``C_ij = delta_ij - e_i e_j + i eps_ijk e_k`` directly
(:func:`pauli_table`), and the formulas of :mod:`uncrel.relations` run on
them unchanged.  Exact sweeps take the expectations from Bloch angles
(:func:`moments_from_angles`) and the Pauli campaign from kets
(:func:`moments_from_kets`); only this module spells the Pauli algebra.
The matrix engine builds ``C`` from matrices and a state instead; the test
suite checks the two against each other.  Stokes parameters enter as a
density matrix (:func:`stokes_to_density`).

For every state the sum of the three Pauli variances is ``3 - v`` with
``v = ex^2 + ey^2 + ez^2``, so pure states (``v = 1``) pin the left-hand
side at exactly 2 no matter where they sit on the Bloch sphere.
"""
from __future__ import annotations

import math

import numpy as np

from .core import PSD_ATOL, _Frozen, DensityMatrix, Observable, PureState
from .relations import ObservableSet, Relation, SUM_FORM_RELATIONS, bound_values

PAULI_AXES = ("x", "y", "z")

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_CHUNK = 2048


def pauli(axis: str) -> Observable:
    """The Pauli observable for ``axis`` in {'x', 'y', 'z'}."""
    if axis not in _PAULI:
        raise ValueError(f"unknown Pauli axis {axis!r}, expected one of {PAULI_AXES}")
    return Observable(_PAULI[axis])


def pauli_triple() -> ObservableSet:
    """The ordered set (sigma_x, sigma_y, sigma_z)."""
    return ObservableSet(tuple(pauli(axis) for axis in PAULI_AXES))


#: The matrices of :func:`pauli_triple` as one ``(3, 2, 2)`` stack, built once.
_PAULI_STACK = pauli_triple().stack


def _float(field: str, value, scale=None) -> float:
    """``value``, or ``value / scale``, as a float.  A Python int beyond the
    float range raises OverflowError there; it is refused as a ValueError
    that names ``field``, like every other refused input."""
    try:
        return float(value) if scale is None else value / scale
    except OverflowError:
        raise ValueError(f"{field} is too large for a float") from None


class BlochAngles(_Frozen):
    """Polar angle theta in [0, pi] and azimuth phi in [0, 2 pi], radians."""

    __slots__ = ("theta", "phi")

    def __init__(self, theta: float, phi: float = 0.0) -> None:
        t, p = _float("theta", theta), _float("phi", phi)
        # Accept 1e-12 of slop at the ends so grid arithmetic cannot trip
        # the check, then clip onto the closed interval.
        if not -1e-12 <= t <= math.pi + 1e-12:
            raise ValueError(f"theta must be in [0, pi], got {t!r}")
        if not -1e-12 <= p <= 2.0 * math.pi + 1e-12:
            raise ValueError(f"phi must be in [0, 2 pi], got {p!r}")
        self.theta, self.phi = min(max(t, 0.0), math.pi), min(max(p, 0.0), 2.0 * math.pi)


def bloch_to_state(angles: BlochAngles) -> PureState:
    """The qubit ``cos(theta/2)|0> + exp(i phi) sin(theta/2)|1>``."""
    half = 0.5 * angles.theta
    return PureState(
        np.array([math.cos(half), np.exp(1j * angles.phi) * math.sin(half)])
    )


def pauli_table(ex, ey, ez) -> np.ndarray:
    """The covariances ``C_ij = delta_ij - e_i e_j + i eps_ijk e_k`` of the
    Pauli triple at expectations ``e``, elementwise over same-shape arrays or
    floats; the relations evaluate on them exactly as on a table from matrices.
    """
    # Built with the Pauli axes first, the layout bound_values works in.
    e = np.array((ex, ey, ez), dtype=float)
    c = (np.eye(3).reshape((3, 3) + (1,) * (e.ndim - 1)) - e[:, None] * e).astype(complex)
    # sigma_y sigma_z = i sigma_x, cyclically: Im C_12, Im C_20, Im C_01 = (ex, ey, ez)
    c.imag[(1, 2, 0), (2, 0, 1)] = e
    c.imag[(2, 0, 1), (1, 2, 0)] = -e
    return c.transpose(tuple(range(2, e.ndim + 1)) + (0, 1))


def moments_from_angles(theta, phi):
    """Pauli expectations ``(ex, ey, ez)`` of the pure states at Bloch angles
    ``theta`` and ``phi``, elementwise over same-shape arrays or floats."""
    sin_t = np.sin(theta)
    return sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)


def moments_from_kets(kets):
    """``(ex, ey, ez) = (2 Re a*b, 2 Im a*b, |a|^2 - |b|^2)`` of ``(..., 2)`` kets ``(a, b)``,
    in real arithmetic on their float view: the same bits alone or in a batch."""
    ar, ai, br, bi = np.moveaxis(np.ascontiguousarray(kets, dtype=complex).view(float), -1, 0)
    return 2.0 * (ar * br + ai * bi), 2.0 * (ar * bi - ai * br), (ar * ar + ai * ai) - (br * br + bi * bi)


def closed_form_bounds(ex, ey, ez):
    """Vectorized closed forms for arrays of expectation triples.

    Args:
        ex, ey, ez: floats or same-shape numpy arrays of Pauli expectations.

    Returns:
        ``(lhs, bounds)``: ``lhs`` is ``3 - v`` and ``bounds`` maps every
        relation of ``SUM_FORM_RELATIONS``, in order, to its rhs, elementwise
        over the inputs.  No Bloch-ball check is made; radicands are clamped
        at zero, so estimates outside the ball cannot produce NaNs.
    """
    shape = np.shape(ex)
    if np.shape(ey) != shape or np.shape(ez) != shape:
        raise ValueError(f"ex, ey and ez need one shape, got {shape}, {np.shape(ey)}, {np.shape(ez)}")
    flat = [np.asarray(e, dtype=float).reshape(-1) for e in (ex, ey, ez)]
    out = np.empty((1 + len(SUM_FORM_RELATIONS), flat[0].size))
    # Slices of _CHUNK states keep every temporary small enough to be
    # reused from cache rather than drawn from fresh pages.
    for k in range(0, out.shape[1], _CHUNK):
        values = bound_values(pauli_table(*(e[k : k + _CHUNK] for e in flat)))
        out[0, k : k + _CHUNK] = values[Relation.SONG][0]
        for row, rel in enumerate(SUM_FORM_RELATIONS, 1):
            out[row, k : k + _CHUNK] = values[rel][1]
        del values  # freed before the next slice allocates its own
    lhs, *rhs = out.reshape((-1,) + shape)
    return lhs, dict(zip(SUM_FORM_RELATIONS, rhs))


#: A Bloch vector of squared length ``1 + t`` has eigenvalue ``-t/4``: the
#: most ``t`` that :class:`DensityMatrix` accepts, less a round-off margin.
_STOKES_RTOL = 4.0 * PSD_ATOL - 1e-14


class StokesVector(_Frozen):
    """Light-polarization Stokes parameters ``(s0, s1, s2, s3)``.

    Every field must be finite.  ``s0`` is the total intensity and must be
    positive; the polarized part cannot exceed it, so ``sum_i (s_i /
    s0)^2 <= 1`` within ``_STOKES_RTOL``.
    Only the ratios ``s_i / s0`` matter, here and downstream, so any overall
    intensity scale is accepted, and a vector is judged alike at every scale.
    """

    __slots__ = ("s0", "s1", "s2", "s3")

    def __init__(self, s0: float, s1: float, s2: float, s3: float) -> None:
        if not s0 > 0.0:
            raise ValueError(f"s0 must be positive, got {s0!r}")
        # Squares of the ratios, which s1^2 and s0^2 would overflow or underflow
        # far from unit intensity; products, not **, which raises OverflowError.
        rx, ry, rz = _float("s1 / s0", s1, s0), _float("s2 / s0", s2, s0), _float("s3 / s0", s3, s0)
        if rx * rx + ry * ry + rz * rz > 1.0 + _STOKES_RTOL:
            polarized = s1 * s1 + s2 * s2 + s3 * s3
            raise ValueError(f"polarized intensity {polarized!r} exceeds s0^2 = {s0 * s0!r}")
        # A NaN passes every comparison above, and s0 = inf makes every ratio 0 or NaN.
        for field, value in zip(self.__slots__, (s0, s1, s2, s3)):
            if not -math.inf < value < math.inf:
                raise ValueError(f"{field} must be finite, got {value!r}")
        self.s0, self.s1, self.s2, self.s3 = s0, s1, s2, s3


def stokes_to_density(stokes: StokesVector) -> DensityMatrix:
    """Reconstruct the qubit density matrix ``(I + sum_i (s_i/s0) sigma_i)/2``.

    The Stokes invariant keeps its eigenvalues above ``-PSD_ATOL``, and
    :class:`DensityMatrix` stores a vector a round-off past the Bloch-ball
    edge as the pure state on it.
    """
    rx, ry, rz = stokes.s1 / stokes.s0, stokes.s2 / stokes.s0, stokes.s3 / stokes.s0
    return DensityMatrix(0.5 * np.array([[1.0 + rz, rx - 1j * ry], [rx + 1j * ry, 1.0 - rz]]))
