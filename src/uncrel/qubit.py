"""Closed forms for a qubit measured along the three Pauli axes.

For a qubit the seven sum-form bounds reduce to algebra in the Pauli
expectations ``(ex, ey, ez)``.  This module derives those expectations from
Bloch angles, raw expectation triples, or Stokes parameters, and evaluates
those bounds without touching matrices: the Pauli algebra gives the
moment table ``G_ij = delta_ij + i eps_ijk e_k`` directly, and the formulas
of :mod:`uncrel.relations` run on it unchanged.  The matrix engine shares
those formulas and differs only in building ``G`` from matrices and a
state; the two constructions cross-check each other in the test suite.

For every state the sum of the three Pauli variances is ``3 - v`` with
``v = ex^2 + ey^2 + ez^2``, so pure states (``v = 1``) pin the left-hand
side at exactly 2 no matter where they sit on the Bloch sphere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, Observable, PureState
from .errors import InvalidMomentsError, UnsupportedRelationError
from .relations import ObservableSet, Relation, SUM_FORM_RELATIONS, bound_values

PAULI_AXES = ("x", "y", "z")

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Estimated moments may spill slightly outside the Bloch ball from shot
# noise.  Up to this much excess in v is silently fine, beyond it the
# moments get flagged, and past HARD_BALL_LIMIT QubitMoments rejects them.
# Sweeps and the bootstrap evaluate the closed forms directly and tabulate
# such estimates instead.
BALL_EXCESS_ATOL = 1e-6
HARD_BALL_LIMIT = 1.05

_CHUNK = 4096


def pauli(axis: str) -> Observable:
    """The Pauli observable for ``axis`` in {'x', 'y', 'z'}."""
    if axis not in _PAULI:
        raise ValueError(f"unknown Pauli axis {axis!r}, expected one of {PAULI_AXES}")
    return Observable(_PAULI[axis])


def pauli_triple() -> ObservableSet:
    """The ordered set (sigma_x, sigma_y, sigma_z)."""
    return ObservableSet(tuple(pauli(axis) for axis in PAULI_AXES))


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


@dataclass(frozen=True)
class QubitMoments:
    """Pauli expectations of one qubit state, estimated or exact.

    Each expectation must lie in ``[-1 - 1e-9, 1 + 1e-9]``, and the
    squared Bloch length ``v = ex^2 + ey^2 + ez^2`` may not exceed
    ``HARD_BALL_LIMIT``: such a triple signals broken estimates rather than
    noise and raises :class:`InvalidMomentsError`.  ``outside_ball`` marks
    noisy estimates whose ``v`` exceeds 1 by more than ``BALL_EXCESS_ATOL``.
    """

    ex: float
    ey: float
    ez: float

    def __post_init__(self) -> None:
        for name in ("ex", "ey", "ez"):
            value = getattr(self, name)
            if not -1.0 - 1e-9 <= value <= 1.0 + 1e-9:
                raise InvalidMomentsError(f"{name} = {value!r} is outside [-1, 1]")
        if self._v > HARD_BALL_LIMIT:
            raise InvalidMomentsError(
                f"squared Bloch length {self._v!r} exceeds {HARD_BALL_LIMIT}; "
                "the expectation triple is not credible"
            )

    @property
    def _v(self) -> float:
        return self.ex**2 + self.ey**2 + self.ez**2

    @property
    def outside_ball(self) -> bool:
        return self._v > 1.0 + BALL_EXCESS_ATOL


def moments_from_expectations(ex: float, ey: float, ez: float) -> QubitMoments:
    """Build :class:`QubitMoments` from a measured or exact Pauli triple."""
    return QubitMoments(float(ex), float(ey), float(ez))


def moments_from_angles(angles: BlochAngles) -> QubitMoments:
    """Exact moments of the pure state at the given Bloch angles."""
    sin_t = math.sin(angles.theta)
    return moments_from_expectations(
        sin_t * math.cos(angles.phi),
        sin_t * math.sin(angles.phi),
        math.cos(angles.theta),
    )


def _require_sum_form(relations) -> None:
    bad = [rel.value for rel in relations if rel not in SUM_FORM_RELATIONS]
    if bad:
        raise UnsupportedRelationError(
            f"no closed form for {bad}; only sum-form relations reduce to Pauli moments"
        )


def closed_form_lhs(moments: QubitMoments) -> float:
    """Sum of the three Pauli variances, ``3 - v``."""
    return float(closed_form_bounds(moments.ex, moments.ey, moments.ez, ())[0])


def closed_form_rhs(moments: QubitMoments, relation: Relation) -> float:
    """Closed-form bound for one sum-form relation at the given moments."""
    _, bounds = closed_form_bounds(moments.ex, moments.ey, moments.ez, (relation,))
    return float(bounds[relation])


def closed_form_bounds(ex, ey, ez, relations=SUM_FORM_RELATIONS):
    """Vectorized closed forms for arrays of expectation triples.

    Args:
        ex, ey, ez: floats or same-shape numpy arrays of Pauli expectations.
        relations: sum-form relations to evaluate.

    Returns:
        ``(lhs, bounds)`` where ``lhs`` is ``3 - v`` and ``bounds`` maps each
        relation to its rhs, elementwise over the inputs.  No Bloch-ball
        validation happens here; radicands are clamped at zero so noisy
        bootstrap replicates cannot produce NaNs.
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


def moments_from_stokes(stokes: StokesVector) -> QubitMoments:
    """Moments from Stokes parameters: the expectations are ``s_i / s0``."""
    return moments_from_expectations(
        stokes.s1 / stokes.s0, stokes.s2 / stokes.s0, stokes.s3 / stokes.s0
    )


def density_to_stokes(rho: DensityMatrix) -> StokesVector:
    """Unit-intensity Stokes parameters of a qubit density matrix."""
    if rho.dim != 2:
        raise ValueError(f"Stokes parameters are defined for qubits, got dim {rho.dim}")
    m = rho.matrix
    return StokesVector(
        1.0,
        float(np.trace(m @ _PAULI["x"]).real),
        float(np.trace(m @ _PAULI["y"]).real),
        float(np.trace(m @ _PAULI["z"]).real),
    )
