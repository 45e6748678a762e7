"""Finite-shot simulation of Pauli measurements with bootstrap error bars.

A projective Pauli measurement on a qubit is a Bernoulli trial with
``p(+1) = (1 + <sigma>) / 2``, so a counting run is one binomial draw per
basis.  Bound values inherit their uncertainty from the three estimated
expectations; a parametric bootstrap (redraw counts at the estimated p,
re-evaluate the closed forms) propagates it without any linearization.

Every random draw is tied to an explicit seed.  Each basis gets its own
child stream, keyed by its index in the Pauli axis order.
"""
from __future__ import annotations

import math

import numpy as np

from .qubit import _PAULI_STACK, PAULI_AXES, closed_form_bounds
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


class MeasurementRecord(_Frozen):
    """Outcome counts of one basis: ``n_plus`` ups and ``n_minus`` downs."""

    __slots__ = ("basis", "n_plus", "n_minus")

    def __init__(self, basis: str, n_plus: int, n_minus: int) -> None:
        if basis not in PAULI_AXES:
            raise ValueError(f"unknown basis {basis!r}")
        if n_plus < 0 or n_minus < 0:
            raise ValueError("outcome counts cannot be negative")
        if n_plus + n_minus < 1:
            raise ValueError("a record needs at least one shot")
        self.basis, self.n_plus, self.n_minus = basis, n_plus, n_minus

    @property
    def total(self) -> int:
        return self.n_plus + self.n_minus


class EstimateWithError(_Frozen):
    """A point value and its one-standard-deviation error bar."""

    __slots__ = ("value", "std_error")

    def __init__(self, value: float, std_error: float) -> None:
        if std_error < 0.0:
            raise ValueError(f"std_error must be >= 0, got {std_error!r}")
        self.value, self.std_error = value, std_error


def simulate_counts(state: QuantumState, plan: ShotPlan) -> list[MeasurementRecord]:
    """Draw outcome counts in each Pauli basis on a qubit state.

    The up-count for basis ``k`` of ``x, y, z`` is one binomial draw with
    success probability ``(1 + <sigma_k>) / 2``, taken from the child stream
    keyed by ``(plan.seed, k)``.  Records come back in that order.
    """
    if state.dim != 2:
        raise ValueError(f"shot simulation is for qubits, got dim {state.dim}")
    means, _, _ = moment_table(_PAULI_STACK, state_array(state))
    p_up = np.clip((1.0 + means) / 2.0, 0.0, 1.0)
    records = []
    for k, basis in enumerate(PAULI_AXES):
        rng = np.random.default_rng([plan.seed, k])
        n_plus = int(rng.binomial(plan.shots_per_basis, p_up[k]))
        records.append(MeasurementRecord(basis, n_plus, plan.shots_per_basis - n_plus))
    return records


def estimate_expectation(record: MeasurementRecord) -> EstimateWithError:
    """Sample mean of the +/-1 outcomes with its binomial standard error.

    ``std_error = sqrt((1 - value^2) / n)``.  When every shot landed in one
    bin the plug-in error would be zero, which understates the uncertainty
    badly, so the floor ``sqrt(1 / n)`` is used instead.
    """
    n = record.total
    value = (record.n_plus - record.n_minus) / n
    if record.n_plus in (0, n):
        std_error = math.sqrt(1.0 / n)
    else:
        std_error = math.sqrt(max(1.0 - value * value, 0.0) / n)
    return EstimateWithError(value, std_error)


def _check_resamples(resamples: int) -> None:
    """Refuse fewer bootstrap replicates than ``MIN_BOOTSTRAP_RESAMPLES``."""
    if _index(resamples, "resamples") < MIN_BOOTSTRAP_RESAMPLES:
        raise ValueError(f"resamples must be >= {MIN_BOOTSTRAP_RESAMPLES}, got {resamples}")


def bootstrap_bounds(
    records: list[MeasurementRecord], resamples: int = DEFAULT_RESAMPLES, seed: int = 0
) -> tuple[EstimateWithError, dict[Relation, EstimateWithError]]:
    """Point estimates and bootstrap error bars for the seven closed forms.

    Needs one record per Pauli basis.  Point values plug the estimated
    expectations into the closed forms, also when they lie outside the
    Bloch ball; they do not depend on ``resamples``.
    Error bars are the sample standard deviations over ``resamples``
    parametric replicates, each drawn by redrawing every basis count from a
    binomial at its estimated success probability.

    Returns ``(lhs, {relation: rhs})`` estimates, the shape of
    :func:`~uncrel.qubit.closed_form_bounds`: ``lhs`` is the shared
    sum-of-variances estimate.
    """
    _check_resamples(resamples)
    by_basis = {}
    for record in records:
        if record.basis in by_basis:
            raise ValueError(f"duplicate record for basis {record.basis!r}")
        by_basis[record.basis] = record
    missing = [b for b in PAULI_AXES if b not in by_basis]
    if missing:
        raise ValueError(f"records missing for bases {missing}")

    # Row 0 holds the point estimate and rows 1.. the replicates, so both
    # go through one batched evaluation and no estimate is rejected for
    # lying outside the Bloch ball.
    rng = np.random.default_rng(seed)
    means = []
    for basis in PAULI_AXES:
        n = by_basis[basis].total
        point = estimate_expectation(by_basis[basis]).value
        p_up = (1.0 + point) / 2.0
        counts = rng.binomial(n, min(max(p_up, 0.0), 1.0), size=resamples)
        means.append(np.concatenate(([point], (2.0 * counts - n) / n)))

    def estimate(values) -> EstimateWithError:
        return EstimateWithError(float(values[0]), float(np.std(values[1:], ddof=1)))

    lhs, rhs = closed_form_bounds(*means)
    return estimate(lhs), {rel: estimate(values) for rel, values in rhs.items()}
