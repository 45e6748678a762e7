"""Finite-shot simulation of Pauli measurements with bootstrap error bars.

A projective Pauli measurement on a qubit is a Bernoulli trial with
``p(+1) = (1 + <sigma>) / 2``, so a counting run is one binomial draw per
basis: :func:`simulate_counts` returns the x, y, z up-counts as an array.
:func:`bootstrap_bounds` plugs the estimated expectations into the closed
forms and propagates their uncertainty with a parametric bootstrap (redraw
counts at the estimated p, re-evaluate), as ``(value, std_error)`` pairs.

Every random draw is tied to an explicit seed.  Each basis gets its own
child stream, keyed by its index in the Pauli axis order.
"""
from __future__ import annotations

import numpy as np

from .qubit import _PAULI_STACK, closed_form_bounds
from .core import _Frozen, _index, QuantumState, moment_table, state_array
from .relations import Relation

#: Counting-run length used when a plan does not say otherwise.
DEFAULT_SHOTS_PER_BASIS = 2400

DEFAULT_RESAMPLES = 1000
MIN_BOOTSTRAP_RESAMPLES = 100

#: The most shots a binomial draw takes: numpy counts them in an int64.
_MAX_SHOTS = int(np.iinfo(np.int64).max)


def derive_seed(seed: int, *path: int) -> int:
    """Deterministic child seed for a (master seed, index path) pair.

    Built on ``numpy.random.SeedSequence`` so distinct paths give
    statistically independent streams.  Seeds are non-negative integers.
    """
    entropy = [int(seed), *[int(k) for k in path]]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


class ShotPlan(_Frozen):
    """How to run a simulated counting session in the three Pauli bases.

    The same plan always reproduces the same counts.
    """

    __slots__ = ("shots_per_basis", "seed")

    def __init__(self, shots_per_basis: int = DEFAULT_SHOTS_PER_BASIS, seed: int = 0) -> None:
        shots, seed = _index(shots_per_basis, "shots_per_basis"), _index(seed, "seed")
        if not 1 <= shots <= _MAX_SHOTS:
            raise ValueError(f"shots_per_basis must be in [1, {_MAX_SHOTS}], got {shots}")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.shots_per_basis, self.seed = shots, seed


def simulate_counts(state: QuantumState, plan: ShotPlan) -> np.ndarray:
    """Draw the up-counts in each Pauli basis on a qubit state.

    The up-count for basis ``k`` of ``x, y, z`` is one binomial draw with
    success probability ``(1 + <sigma_k>) / 2``, taken from the child stream
    keyed by ``(plan.seed, k)``; the integer array holds them in that order.
    """
    if state.dim != 2:
        raise ValueError(f"shot simulation is for qubits, got dim {state.dim}")
    means, _, _ = moment_table(_PAULI_STACK, state_array(state))
    p_up = np.clip((1.0 + means) / 2.0, 0.0, 1.0)
    return np.array([np.random.default_rng([plan.seed, k]).binomial(plan.shots_per_basis, p_up[k])
                     for k in range(3)], dtype=np.int64)


def _check_resamples(resamples: int) -> None:
    """Refuse fewer bootstrap replicates than ``MIN_BOOTSTRAP_RESAMPLES``."""
    if _index(resamples, "resamples") < MIN_BOOTSTRAP_RESAMPLES:
        raise ValueError(f"resamples must be >= {MIN_BOOTSTRAP_RESAMPLES}, got {resamples}")


def bootstrap_bounds(
    ups, shots: int, resamples: int = DEFAULT_RESAMPLES, seed: int = 0
) -> tuple[tuple[float, float], dict[Relation, tuple[float, float]]]:
    """Point estimates and bootstrap error bars for the seven closed forms.

    ``ups`` are the x, y and z up-counts of ``shots`` shots each, as
    :func:`simulate_counts` returns them.  Point values plug the estimated
    expectations ``(up - down) / shots`` into the closed forms, also when
    they lie outside the Bloch ball; they do not depend on ``resamples``.
    Error bars are the sample standard deviations over ``resamples``
    parametric replicates, each redrawing every basis count from a binomial
    at its estimated success probability.

    Returns ``(lhs, {relation: rhs})``, the shape of :func:`closed_form_bounds`,
    with a ``(value, std_error)`` pair of floats for each entry.
    """
    _check_resamples(resamples)
    n, ups = _index(shots, "shots"), [_index(up, "up-count") for up in ups]
    if not (1 <= n <= _MAX_SHOTS and len(ups) == 3 and all(0 <= up <= n for up in ups)):
        raise ValueError(f"need 3 up-counts in [0, shots] and shots in [1, {_MAX_SHOTS}], "
                         f"got up-counts {ups} and shots {n}")

    # One row per basis: column 0 holds the point estimate, in exact integer
    # division, and columns 1.. the replicates, so both go through one batched
    # evaluation and no estimate is rejected for lying outside the Bloch ball.
    rng = np.random.default_rng(seed)
    means = np.empty((3, resamples + 1))
    for row, up in zip(means, ups):
        row[0] = point = (up - (n - up)) / n
        p_up = min(max((1.0 + point) / 2.0, 0.0), 1.0)
        replicates = np.multiply(2.0, rng.binomial(n, p_up, size=resamples), out=row[1:])
        replicates -= n
        replicates /= n
    lhs, rhs = closed_form_bounds(*means)
    pairs = [(float(values[0]), float(np.std(values[1:], ddof=1))) for values in (lhs, *rhs.values())]
    return pairs[0], dict(zip(rhs, pairs[1:]))
