"""Raw-numpy reference for the ten relations; imports nothing from uncrel.

Every quantity is built from explicit matrix products: second moments as
``<A @ A> - <A>^2``, commutators as ``A @ B - B @ A`` before taking the
expectation, the Maccone-Pati orthogonal form from the qubit complement
``(-conj b, conj a)`` and the deviation form from the normalized vector
``(A + B - <A + B>) psi``.

A state is a ket of shape ``(..., d)`` (leading axes batch many kets, as
in a Bloch-angle grid) or a single density matrix of shape ``(d, d)``
passed with ``mixed=True``.  Results are keyed by the relation names the
CLI prints (``triple_sum``, ``robertson``, ...).
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np

PX = np.array([[0, 1], [1, 0]], dtype=complex)
PY = np.array([[0, -1j], [1j, 0]], dtype=complex)
PZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PX, PY, PZ)

SUM_FORM = (
    "triple_sum", "triple_commutator", "triple_pairwise",
    "sum_plus", "sum_minus", "chen_fei", "song",
)

_R3 = math.sqrt(3.0)
_SQ = (2.0 + math.sqrt(2.0)) ** 2

#: Analytic sum-form bounds at |0> for the Pauli triple.
ANCHOR_ZERO = {
    "triple_sum": 2.0 / 3.0 + 2.0 / _R3,
    "triple_commutator": 2.0 / _R3,
    "triple_pairwise": 1.0,
    "sum_plus": 1.0,
    "sum_minus": 1.0,
    "chen_fei": 4.0 - _SQ / 4.0,
    "song": 2.0 / 3.0 + _SQ / 9.0,
}


class State:
    """A batch of kets, or one density matrix."""

    def __init__(self, array, mixed: bool = False):
        self.array = np.asarray(array, dtype=complex)
        self.mixed = mixed

    @property
    def dim(self) -> int:
        return self.array.shape[-1]

    def expect_c(self, m: np.ndarray) -> np.ndarray:
        if self.mixed:
            return np.trace(self.array @ m)
        psi = self.array
        return np.einsum("...i,ij,...j->...", psi.conj(), m, psi)

    def expect(self, m: np.ndarray) -> np.ndarray:
        return self.expect_c(m).real

    def var(self, m: np.ndarray) -> np.ndarray:
        return self.expect(m @ m) - self.expect(m) ** 2

    def comm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.expect_c(a @ b - b @ a)


def _std(x):
    return np.sqrt(np.maximum(x, 0.0))


def sum_form(mats, state: State) -> dict:
    """``{relation: (lhs, rhs, mid)}`` for the applicable sum-form bounds."""
    n = len(mats)
    variances = [state.var(m) for m in mats]
    lhs = sum(variances)
    pairs = list(combinations(range(n), 2))
    plus = [state.var(mats[i] + mats[j]) for i, j in pairs]
    minus = [state.var(mats[i] - mats[j]) for i, j in pairs]
    total = mats[0]
    for m in mats[1:]:
        total = total + m
    out = {}
    if n == 3:
        a, b, c = mats
        comms = [state.comm(a, b), state.comm(b, c), state.comm(c, a)]
        mags = sum(np.abs(x) for x in comms)
        stds = [_std(v) for v in variances]
        mid = stds[0] * stds[1] + stds[1] * stds[2] + stds[2] * stds[0]
        out["triple_sum"] = (
            lhs, state.var(a + b + c) / 3.0 + (_R3 / 3.0) * np.abs(sum(comms)), None)
        out["triple_commutator"] = (lhs, (_R3 / 3.0) * mags, None)
        out["triple_pairwise"] = (lhs, 0.5 * mags, mid)
    out["sum_plus"] = (lhs, sum(plus) / (2.0 * (n - 1)), None)
    out["sum_minus"] = (lhs, sum(minus) / (2.0 * (n - 1)), None)
    if n >= 3:
        s1 = sum(_std(x) for x in plus)
        out["chen_fei"] = (
            lhs, sum(plus) / (n - 2) - s1 * s1 / ((n - 1) ** 2 * (n - 2)), None)
    d = sum(_std(x) for x in minus)
    out["song"] = (lhs, state.var(total) / n + 2.0 * d * d / (n * n * (n - 1)), None)
    return out


def robertson(a, b, state: State):
    return state.var(a) * state.var(b), np.abs(0.5 * state.comm(a, b)) ** 2


def orthogonal_qubit(psi: np.ndarray) -> np.ndarray:
    return np.array([-np.conj(psi[1]), np.conj(psi[0])])


def mp_orthogonal(a, b, psi: np.ndarray, perp: np.ndarray):
    state = State(psi)
    signed = float((1j * state.comm(a, b)).real)

    def branch(sign):
        cross = complex(np.conj(psi) @ (a + sign * 1j * b) @ perp)
        return sign * signed + abs(cross) ** 2

    if signed > 0.0:
        rhs = branch(1.0)
    elif signed < 0.0:
        rhs = branch(-1.0)
    else:
        rhs = max(branch(1.0), branch(-1.0))
    return state.var(a) + state.var(b), rhs


def mp_deviation(a, b, psi: np.ndarray):
    state = State(psi)
    total = a + b
    residual = total @ psi - state.expect(total) * psi
    norm = float(np.linalg.norm(residual))
    rhs = 0.0
    if norm >= 1e-12:
        rhs = 0.5 * abs(complex(np.conj(residual / norm) @ total @ psi)) ** 2
    return state.var(a) + state.var(b), rhs


def evaluate(mats, state: State) -> tuple[dict, set]:
    """Every applicable relation for one state, as ``bounds --pairwise`` reports them.

    Returns ``(reports, skipped)``: ``reports`` maps ``(relation, pair)``
    to ``(lhs, rhs, mid)`` with ``pair`` None for sum-form relations;
    ``skipped`` names the relations that do not apply.
    """
    n = len(mats)
    reports = {(rel, None): vals for rel, vals in sum_form(mats, state).items()}
    skipped = {rel for rel in SUM_FORM if (rel, None) not in reports}
    pairs = list(combinations(range(n), 2))
    for i, j in pairs:
        reports[("robertson", (i, j))] = (*robertson(mats[i], mats[j], state), None)
    if state.mixed:
        return reports, skipped | {"mp_orthogonal", "mp_deviation"}
    psi = state.array
    if state.dim == 2:
        perp = orthogonal_qubit(psi)
        for i, j in pairs:
            reports[("mp_orthogonal", (i, j))] = (*mp_orthogonal(mats[i], mats[j], psi, perp), None)
    else:
        skipped.add("mp_orthogonal")
    for i, j in pairs:
        reports[("mp_deviation", (i, j))] = (*mp_deviation(mats[i], mats[j], psi), None)
    return reports, skipped


def bloch_kets(theta, phi) -> np.ndarray:
    """Kets ``cos(theta/2)|0> + exp(i phi) sin(theta/2)|1>``, broadcast."""
    theta, phi = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
    return np.stack([np.cos(theta / 2.0) + 0j, np.exp(1j * phi) * np.sin(theta / 2.0)], -1)


def pauli_bounds(theta, phi) -> dict:
    """Sum-form ``{relation: (lhs, rhs)}`` arrays for the Pauli triple."""
    out = sum_form(list(PAULIS), State(bloch_kets(theta, phi)))
    return {rel: (lhs, rhs) for rel, (lhs, rhs, _) in out.items()}


def grid_min_slack(points: int = 361) -> dict:
    """Minimum slack of each sum-form bound over a Bloch-angle grid.

    The grid has ``points`` polar angles in [0, pi] and ``2 * points - 1``
    azimuths in [0, 2 pi]; it bounds the true minimum from above.
    """
    theta = np.linspace(0.0, math.pi, points)[:, None]
    phi = np.linspace(0.0, 2.0 * math.pi, 2 * points - 1)[None, :]
    return {rel: float(np.min(lhs - rhs)) for rel, (lhs, rhs) in pauli_bounds(theta, phi).items()}


def self_check() -> list[str]:
    """Pin the oracle to the analytic |0> values; returns the mismatches."""
    errors = []
    for rel, (lhs, rhs) in pauli_bounds(0.0, 0.0).items():
        if abs(float(lhs) - 2.0) > 1e-12 or abs(float(rhs) - ANCHOR_ZERO[rel]) > 1e-12:
            errors.append(f"oracle {rel} at |0>: lhs {float(lhs)!r}, rhs {float(rhs)!r}")
    return errors
