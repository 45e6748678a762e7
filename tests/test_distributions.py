"""Distributional oracles: every drawn quantity within a DKW band.

The campaign tests replay instances from the same streams, so a generator
that drew from the wrong distribution would still pass them.  These checks
compare the empirical CDF of each drawn quantity, at fixed seeds, with its
exact CDF.  By the Dvoretzky-Kiefer-Wolfowitz inequality with Massart's
constant (Ann. Probab. 18, 1269, 1990), the Kolmogorov distance of N i.i.d.
draws exceeds ``sqrt(ln(2 / alpha) / (2 N))`` with probability at most
``alpha``; here ``alpha = 1e-6``.
"""
import math

import numpy as np
import pytest

from uncrel import random_observable, random_pure_state
from uncrel.core import orthogonal_companions

ALPHA = 1e-6
#: Trials drawn at once; only the picked values of a block outlive it.
BLOCK = 1 << 16


def dkw_band(n: int) -> float:
    return math.sqrt(math.log(2.0 / ALPHA) / (2.0 * n))


def ks_distance(samples: np.ndarray, cdf) -> float:
    """``sup |F_N - F|`` of the samples against the exact CDF ``cdf``."""
    x = np.sort(samples)
    f = cdf(x)
    above = np.arange(1, x.size + 1) / x.size - f
    below = f - np.arange(x.size) / x.size
    return float(max(above.max(), below.max()))


def drawn(draw, n: int, pick) -> np.ndarray:
    """``pick`` of ``draw(trials)`` over trials ``0 .. n - 1``, block by block."""
    return np.concatenate([pick(draw(range(start, min(start + BLOCK, n)))) for start in range(0, n, BLOCK)])


def uniform_cdf(low: float, high: float):
    return lambda x: np.clip((x - low) / (high - low), 0.0, 1.0)


def normal_cdf(variance: float):
    erf = np.frompyfunc(math.erf, 1, 1)
    return lambda x: 0.5 * (1.0 + erf(x / math.sqrt(2.0 * variance)).astype(float))


def _check(samples: np.ndarray, cdf) -> None:
    distance, band = ks_distance(samples, cdf), dkw_band(samples.size)
    assert distance <= band, f"Kolmogorov distance {distance:.2e} beyond the DKW band {band:.2e}"


@pytest.fixture(scope="module")
def pauli_kets():
    """10^6 kets of the acceptance campaign's Pauli stream ``(0, 2, 3, 0)``,
    as their Bloch vectors' ``(e_z, azimuth)``."""
    def bloch(kets):
        a, b = kets[:, 0], kets[:, 1]
        return np.stack([(a * a.conj()).real - (b * b.conj()).real, np.angle(a.conj() * b)], 1)

    return drawn(lambda trials: random_pure_state(2, (0, 2, 3, 0), trials), 10**6, bloch)


def test_pauli_campaign_kets_are_uniform_in_e_z(pauli_kets):
    # Haar-random qubits are uniform on the Bloch sphere: e_z ~ U[-1, 1] (Archimedes).
    _check(pauli_kets[:, 0], uniform_cdf(-1.0, 1.0))


def test_pauli_campaign_kets_have_a_uniform_azimuth(pauli_kets):
    _check(pauli_kets[:, 1], uniform_cdf(-math.pi, math.pi))


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_random_ket_weights_follow_beta_1_d_minus_1(dim):
    # |psi_0|^2 of a Haar-random ket in C^d is Beta(1, d - 1): F(x) = 1 - (1 - x)^(d - 1).
    weights = drawn(lambda trials: random_pure_state(dim, (0, dim, 2, 0), trials), 200_000,
                    lambda kets: np.abs(kets[:, 0]) ** 2)
    _check(weights, lambda x: 1.0 - (1.0 - np.clip(x, 0.0, 1.0)) ** (dim - 1))


@pytest.fixture(scope="module")
def observable_entries():
    """``(A_00, Re A_01, Im A_01)`` of 2 * 10^5 random d = 3 observables."""
    return drawn(lambda trials: random_observable(3, (0, 3, 2, 1), trials), 200_000,
                 lambda mats: np.stack([mats[:, 0, 0].real, mats[:, 0, 1].real, mats[:, 0, 1].imag], 1))


def test_random_observable_diagonal_entries_are_standard_normal(observable_entries):
    # (G + G^dagger) / 2 keeps Re G_ii, and each part of G is N(0, 1).
    _check(observable_entries[:, 0], normal_cdf(1.0))


@pytest.mark.parametrize("part", [1, 2], ids=["re", "im"])
def test_random_observable_off_diagonal_parts_are_normal_of_variance_one_half(observable_entries, part):
    # Re A_01 = (Re G_01 + Re G_10) / 2 and Im A_01 = (Im G_01 - Im G_10) / 2: N(0, 1/2).
    _check(observable_entries[:, part], normal_cdf(0.5))


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_orthogonal_companions_are_uniform_in_the_complement(dim):
    # A companion is a Haar-random unit vector of the ket's (d - 1)-dimensional
    # complement, so |c_0|^2 in any orthonormal basis of it is Beta(1, d - 2).
    ket = random_pure_state(dim, (1, dim), range(1))
    # Conjugated, the rows of vh after the first are an orthonormal basis of the
    # complement, so ``c @ complement[0]`` is a companion's first coordinate in it.
    complement = np.linalg.svd(ket.conj())[2][1:]
    first = drawn(
        lambda trials: orthogonal_companions(np.repeat(ket, len(trials), 0),
                                             random_pure_state(dim, (2, dim), trials)) @ complement[0],
        200_000, lambda c0: np.abs(c0) ** 2)
    _check(first, lambda x: 1.0 - (1.0 - np.clip(x, 0.0, 1.0)) ** (dim - 2))
