"""Independent reference computations for the test suite.

Everything here is deliberately dumb raw numpy: explicit matrix products,
second moments via <A^2> - <A>^2 with a literal A @ A, commutators formed
as matrices before taking expectations.  The library computes the same
quantities along different routes (single matrix-vector products, pair
variance tables, closed-form moment algebra), so agreement between the two
is a genuine cross-check, not the same code called twice.

States are bare arrays: a 1-d array is a ket, a 2-d array a density matrix.
"""
import math
from itertools import combinations

import numpy as np

PX = np.array([[0, 1], [1, 0]], dtype=complex)
PY = np.array([[0, -1j], [1j, 0]], dtype=complex)
PZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PX, PY, PZ)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def ket(theta: float, phi: float) -> np.ndarray:
    return np.array(
        [math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)]
    )


def expect(m: np.ndarray, state: np.ndarray) -> float:
    if state.ndim == 1:
        return complex(np.conj(state) @ m @ state).real
    return complex(np.trace(state @ m)).real


def expect_complex(m: np.ndarray, state: np.ndarray) -> complex:
    if state.ndim == 1:
        return complex(np.conj(state) @ m @ state)
    return complex(np.trace(state @ m))


def var(m: np.ndarray, state: np.ndarray) -> float:
    return expect(m @ m, state) - expect(m, state) ** 2


def comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def comm_expect(a: np.ndarray, b: np.ndarray, state: np.ndarray) -> complex:
    return expect_complex(comm(a, b), state)


# -- per-relation lower bounds, straight from their definitions ---------------

def robertson_rhs(a, b, state) -> float:
    return abs(0.5 * comm_expect(a, b, state)) ** 2


def mp_orthogonal_rhs(a, b, psi, psi_perp) -> float:
    signed = (1j * comm_expect(a, b, psi)).real

    def branch(sign):
        cross = complex(np.conj(psi) @ (a + sign * 1j * b) @ psi_perp)
        return sign * signed + abs(cross) ** 2

    if signed > 0.0:
        return branch(1.0)
    if signed < 0.0:
        return branch(-1.0)
    return max(branch(1.0), branch(-1.0))


def mp_deviation_rhs(a, b, psi) -> float:
    # Equals the library's |<d|(A+B)|psi>|^2 / 2 whenever the deviation
    # direction d exists; this is the dual path the contract promises.
    return 0.5 * var(a + b, psi)


def triple_sum_rhs(a, b, c, state) -> float:
    csum = comm_expect(a, b, state) + comm_expect(b, c, state) + comm_expect(c, a, state)
    return var(a + b + c, state) / 3.0 + (math.sqrt(3.0) / 3.0) * abs(csum)


def _comm_magnitudes(a, b, c, state) -> float:
    return (
        abs(comm_expect(a, b, state))
        + abs(comm_expect(b, c, state))
        + abs(comm_expect(c, a, state))
    )


def triple_commutator_rhs(a, b, c, state) -> float:
    return (math.sqrt(3.0) / 3.0) * _comm_magnitudes(a, b, c, state)


def triple_pairwise_rhs(a, b, c, state) -> float:
    return 0.5 * _comm_magnitudes(a, b, c, state)


def triple_pairwise_mid(a, b, c, state) -> float:
    da, db, dc = (math.sqrt(max(var(m, state), 0.0)) for m in (a, b, c))
    return da * db + db * dc + dc * da


def sum_lhs(mats, state) -> float:
    return sum(var(m, state) for m in mats)


def _pair_vars(mats, state, sign):
    return [var(mats[i] + sign * mats[j], state) for i, j in combinations(range(len(mats)), 2)]


def sum_plus_rhs(mats, state) -> float:
    return sum(_pair_vars(mats, state, +1.0)) / (2.0 * (len(mats) - 1))


def sum_minus_rhs(mats, state) -> float:
    return sum(_pair_vars(mats, state, -1.0)) / (2.0 * (len(mats) - 1))


def chen_fei_rhs(mats, state) -> float:
    n = len(mats)
    pair = _pair_vars(mats, state, +1.0)
    s2 = sum(pair)
    s1 = sum(math.sqrt(max(x, 0.0)) for x in pair)
    return s2 / (n - 2) - s1 * s1 / ((n - 1) ** 2 * (n - 2))


def song_rhs(mats, state) -> float:
    n = len(mats)
    total = mats[0]
    for m in mats[1:]:
        total = total + m
    diff = sum(math.sqrt(max(x, 0.0)) for x in _pair_vars(mats, state, -1.0))
    return var(total, state) / n + 2.0 * diff * diff / (n * n * (n - 1))


def binomial_std_error(up, shots: int):
    """Plug-in standard error of the mean of ``shots`` +-1 outcomes with
    ``up`` ups: ``sqrt((1 - v^2) / n)`` at ``v = (2 up - n) / n``.  When every
    shot landed in one bin (``v = +-1``) that is zero, which understates the
    uncertainty badly, so the floor ``sqrt(1 / n)`` is taken instead."""
    up, n = np.asarray(up, dtype=float), float(shots)
    v = (2.0 * up - n) / n
    plug_in = np.sqrt(np.maximum(1.0 - v * v, 0.0) / n)
    return np.where((up == 0.0) | (up == n), np.sqrt(1.0 / n), plug_in)


# -- frozen anchor values at |0> with the Pauli triple ------------------------
# Exact algebra: with (ex, ey, ez) = (0, 0, 1) each pair combination involving
# sigma_z has variance 1 while sigma_x +/- sigma_y has variance 2, so the
# deviation sums come to 2 + sqrt(2).  The matrix-path functions above
# reproduce each constant to machine precision; the acceptance suite checks
# both directions.

SQ = (2.0 + math.sqrt(2.0)) ** 2

ANCHOR_T1 = 2.0 / 3.0 + 2.0 / math.sqrt(3.0)   # 1.8213672050459184
ANCHOR_T2 = 2.0 / math.sqrt(3.0)               # 1.1547005383792515
ANCHOR_T3 = 1.0
ANCHOR_M1 = 1.0
ANCHOR_M2 = 1.0
ANCHOR_M3 = 4.0 - 0.25 * SQ                    # 1.0857864376269049
ANCHOR_M4 = 2.0 / 3.0 + SQ / 9.0               # 1.9618726944102973


# -- the qubit closed forms in the paper's moment notation --------------------

def bloch_density(ex: float, ey: float, ez: float) -> np.ndarray:
    return 0.5 * (np.eye(2) + ex * PX + ey * PY + ez * PZ)


def pauli_moments(ex: float, ey: float, ez: float) -> dict:
    """The moments the closed forms are written in, from raw matrices.

    ``v`` is the squared Bloch length, ``d`` the sum of pairwise
    expectation products, ``e`` the magnitude of the summed expectations
    and ``h`` the sum of their magnitudes.  ``lp/lm``, ``mp/mm`` and
    ``np_/nm`` are the standard deviations of the pair sums and differences
    for the (x, y), (y, z) and (z, x) axis pairs.
    """
    rho = bloch_density(ex, ey, ez)
    x, y, z = (expect(p, rho) for p in PAULIS)

    def std(a, b, sign):
        return math.sqrt(max(var(a + sign * b, rho), 0.0))

    return {
        "v": x * x + y * y + z * z,
        "d": x * y + y * z + z * x,
        "e": abs(x + y + z),
        "h": abs(x) + abs(y) + abs(z),
        "lp": std(PX, PY, 1.0), "lm": std(PX, PY, -1.0),
        "mp": std(PY, PZ, 1.0), "mm": std(PY, PZ, -1.0),
        "np_": std(PZ, PX, 1.0), "nm": std(PZ, PX, -1.0),
    }


def pauli_closed_forms(v, d, e, h, lp, lm, mp, mm, np_, nm) -> dict:
    """The lhs and the seven sum-form bounds of the Pauli triple, by label."""
    r = 2.0 * math.sqrt(3.0) / 3.0
    return {
        "lhs": 3.0 - v,
        "T1": (3.0 - v - 2.0 * d) / 3.0 + r * e,
        "T2": r * h,
        "T3": h,
        "M1": 0.5 * (3.0 - v - d),
        "M2": 0.5 * (3.0 - v + d),
        "M3": 2.0 * (3.0 - v - d) - 0.25 * (lp + mp + np_) ** 2,
        "M4": (3.0 - v - 2.0 * d) / 3.0 + (lm + mm + nm) ** 2 / 9.0,
    }


# -- the campaign streams, rebuilt from raw Philox words ----------------------
# The library's documented layout, with nothing imported from it: stream
# ``entropy`` is numpy's Philox keyed by two words of ``SeedSequence``; trial
# ``t`` of a draw of ``count`` complex normals starts ``t * ceil(count / 2)``
# counter steps in (4 words a step) and reads ``2 count`` words, a Box-Muller
# pair per normal.  Every step is an elementwise numpy operation or a sum in
# index order, so one trial gets the bits of its row in any batch.

def stream_normals(entropy, trial: int, count: int) -> np.ndarray:
    key = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
    bits = np.random.Philox(key=key)
    bits.advance(trial * ((count + 1) // 2))
    words = bits.random_raw(2 * count)
    uniform = (words >> np.uint64(11)).astype(np.float64) / 2.0**53
    r = np.sqrt(-2.0 * np.log(1.0 - uniform[0::2]))
    t = 2.0 * math.pi * uniform[1::2]
    return r * np.cos(t) + 1j * (r * np.sin(t))


def _unit(v: np.ndarray) -> np.ndarray:
    parts = np.ascontiguousarray(v).view(np.float64)
    return (parts / math.sqrt(sum((parts * parts).tolist()))).view(complex)


def stream_ket(entropy, trial: int, dim: int) -> np.ndarray:
    return _unit(stream_normals(entropy, trial, dim))


def stream_observable(entropy, trial: int, dim: int) -> np.ndarray:
    g = stream_normals(entropy, trial, dim * dim).reshape(dim, dim)
    return (g + g.conj().T) / 2.0


def stream_companion(entropy, trial: int, psi: np.ndarray) -> np.ndarray:
    """The campaign's companion of ``psi``: a stream ket with ``psi``
    projected out, renormalized (its degenerate fallback is not rebuilt)."""
    v = stream_ket(entropy, trial, psi.size)
    return _unit(v - sum((psi.conj() * v).tolist()) * psi)


def campaign_instance(seed: int, trial: int, dim: int, n: int):
    """``(psi, [A_1 .. A_n], psi_perp)`` of instance ``(trial, dim, n)`` of a
    random campaign; ``psi_perp`` is the canonical companion for qubits."""
    psi = stream_ket((seed, dim, n, 0), trial, dim)
    mats = [stream_observable((seed, dim, n, 1 + i), trial, dim) for i in range(n)]
    if dim == 2:
        perp = np.array([-np.conj(psi[1]), np.conj(psi[0])])
    else:
        perp = stream_companion((seed, dim, n, 99), trial, psi)
    return psi, mats, perp
