"""Closed forms for a qubit measured along the three Pauli axes.

For a qubit the seven sum-form bounds reduce to algebra in the Pauli
expectations ``(ex, ey, ez)``.  :func:`closed_form_bounds` evaluates them
over arrays of such triples without touching matrices: the Pauli algebra
gives the moment table ``G_ij = delta_ij + i eps_ijk e_k`` directly, and the
formulas of :mod:`uncrel.relations` run on it unchanged.  The matrix engine
shares those formulas and differs only in building ``G`` from matrices and
a state; the two constructions cross-check each other in the test suite.
Stokes parameters enter as a density matrix (:func:`stokes_to_density`).

For every state the sum of the three Pauli variances is ``3 - v`` with
``v = ex^2 + ey^2 + ez^2``, so pure states (``v = 1``) pin the left-hand
side at exactly 2 no matter where they sit on the Bloch sphere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, Observable, PureState
from .errors import UnsupportedRelationError
from .relations import ObservableSet, Relation, SUM_FORM_RELATIONS, bound_values

PAULI_AXES = ("x", "y", "z")

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_CHUNK = 4096


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


@dataclass(frozen=True)
class BlochAngles:
    """Polar angle theta in [0, pi] and azimuth phi in [0, 2 pi], radians."""

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        t, p = float(self.theta), float(self.phi)
        # Accept 1e-12 of slop at the ends so grid arithmetic cannot trip
        # the check, then clip onto the closed interval.
        if not -1e-12 <= t <= math.pi + 1e-12:
            raise ValueError(f"theta must be in [0, pi], got {t!r}")
        if not -1e-12 <= p <= 2.0 * math.pi + 1e-12:
            raise ValueError(f"phi must be in [0, 2 pi], got {p!r}")
        object.__setattr__(self, "theta", min(max(t, 0.0), math.pi))
        object.__setattr__(self, "phi", min(max(p, 0.0), 2.0 * math.pi))


def bloch_to_state(angles: BlochAngles) -> PureState:
    """The qubit ``cos(theta/2)|0> + exp(i phi) sin(theta/2)|1>``."""
    half = 0.5 * angles.theta
    return PureState(
        np.array([math.cos(half), np.exp(1j * angles.phi) * math.sin(half)])
    )


def pauli_table(ex, ey, ez) -> tuple[np.ndarray, np.ndarray]:
    """The moment table of the Pauli triple at given expectations.

    ``m = (ex, ey, ez)`` and ``G_ij = <sigma_i sigma_j> = delta_ij +
    i eps_ijk e_k``, elementwise over same-shape arrays or floats.  The
    relations evaluate on it exactly as on a table built from matrices.
    """
    # Built with the Pauli axes first, the layout bound_values works in.
    e = np.array((ex, ey, ez), dtype=float)
    g = np.zeros((3, 3) + e.shape[1:], dtype=complex)
    g.real[(0, 1, 2), (0, 1, 2)] = 1.0
    # sigma_y sigma_z = i sigma_x, cyclically: G_12, G_20, G_01 = i (ex, ey, ez)
    g.imag[(1, 2, 0), (2, 0, 1)] = e
    g.imag[(2, 0, 1), (1, 2, 0)] = -e
    batch = tuple(range(1, e.ndim))
    return e.transpose(batch + (0,)), g.transpose(tuple(k + 1 for k in batch) + (0, 1))


def moments_from_angles(angles: BlochAngles) -> tuple[float, float, float]:
    """Pauli expectations ``(ex, ey, ez)`` of the pure state at the given Bloch angles."""
    sin_t = math.sin(angles.theta)
    return sin_t * math.cos(angles.phi), sin_t * math.sin(angles.phi), math.cos(angles.theta)


def _require_sum_form(relations) -> None:
    bad = [rel.value for rel in relations if rel not in SUM_FORM_RELATIONS]
    if bad:
        raise UnsupportedRelationError(
            f"no closed form for {bad}; only sum-form relations reduce to Pauli moments"
        )


def closed_form_bounds(ex, ey, ez, relations=SUM_FORM_RELATIONS):
    """Vectorized closed forms for arrays of expectation triples.

    Args:
        ex, ey, ez: floats or same-shape numpy arrays of Pauli expectations.
        relations: sum-form relations to evaluate.

    Returns:
        ``(lhs, bounds)`` where ``lhs`` is ``3 - v`` and ``bounds`` maps each
        relation to its rhs, elementwise over the inputs.  No Bloch-ball
        check is made; radicands are clamped at zero so estimates outside
        the ball, as noisy bootstrap replicates give, cannot produce NaNs.
    """
    _require_sum_form(relations)
    e = np.array((ex, ey, ez), dtype=float)
    flat = e.reshape(3, -1)
    out = np.empty((1 + len(relations), flat.shape[1]))
    # Slices of _CHUNK states keep every temporary small enough to be
    # reused from cache rather than drawn from fresh pages.
    for k in range(0, flat.shape[1], _CHUNK):
        values = bound_values(*pauli_table(*flat[:, k : k + _CHUNK]))
        out[:, k : k + _CHUNK] = [values[Relation.SONG][0], *(values[r][1] for r in relations)]
    lhs, *rhs = out.reshape((-1,) + e.shape[1:])
    return lhs, dict(zip(relations, rhs))


@dataclass(frozen=True)
class StokesVector:
    """Light-polarization Stokes parameters ``(s0, s1, s2, s3)``.

    ``s0`` is the total intensity and must be positive; the polarized part
    cannot exceed it, so ``s1^2 + s2^2 + s3^2 <= s0^2`` within a relative
    1e-9.  Only the ratios ``s_i / s0`` matter downstream, so any overall
    intensity scale is accepted.
    """

    s0: float
    s1: float
    s2: float
    s3: float

    def __post_init__(self) -> None:
        if not self.s0 > 0.0:
            raise ValueError(f"s0 must be positive, got {self.s0!r}")
        # Products, not **, which raises OverflowError on huge values.
        polarized = self.s1 * self.s1 + self.s2 * self.s2 + self.s3 * self.s3
        if polarized > self.s0 * self.s0 * (1.0 + 1e-9):
            raise ValueError(
                f"polarized intensity {polarized!r} exceeds s0^2 = {self.s0 * self.s0!r}"
            )


def stokes_to_density(stokes: StokesVector) -> DensityMatrix:
    """Reconstruct the qubit density matrix ``(I + sum_i (s_i/s0) sigma_i)/2``.

    The Stokes invariant keeps the result positive semidefinite up to
    round-off;  :class:`DensityMatrix` re-checks that defensively.
    """
    rx = stokes.s1 / stokes.s0
    ry = stokes.s2 / stokes.s0
    rz = stokes.s3 / stokes.s0
    rho = 0.5 * np.array(
        [[1.0 + rz, rx - 1j * ry], [rx + 1j * ry, 1.0 - rz]], dtype=complex
    )
    return DensityMatrix(rho)
