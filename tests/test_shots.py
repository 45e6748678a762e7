import inspect
import math
import re

import numpy as np
import pytest

import _oracles as o
from uncrel import (
    BlochAngles,
    PureState,
    Relation,
    SUM_FORM_RELATIONS,
    ShotPlan,
    bloch_to_state,
    bootstrap_bounds,
    closed_form_bounds,
    derive_seed,
    pauli_triple,
    random_pure_state,
    simulate_counts,
)
from uncrel.core import moment_table

KET0 = PureState(o.KET0)


# -- plan contracts -----------------------------------------------------------

def test_shot_plan_defaults():
    plan = ShotPlan()
    assert plan.shots_per_basis == 2400


def test_shot_plan_validation():
    with pytest.raises(ValueError):
        ShotPlan(shots_per_basis=0)
    with pytest.raises(ValueError, match="shots_per_basis"):
        ShotPlan(shots_per_basis=2**63)  # more than a binomial draw's int64 holds
    assert ShotPlan(shots_per_basis=2**63 - 1).shots_per_basis == 2**63 - 1
    with pytest.raises(ValueError):
        ShotPlan(seed=-1)


@pytest.mark.parametrize("bad", [2.5, 3.0, "3", None])
def test_shot_plan_refuses_counts_and_seeds_that_are_no_integers(bad):
    # 2.5 was once taken as 2 shots.
    for name, call in (("shots_per_basis", lambda: ShotPlan(bad)), ("seed", lambda: ShotPlan(10, bad))):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
            call()


def test_derive_seed_is_deterministic_and_path_sensitive():
    assert derive_seed(3, 1, 4) == derive_seed(3, 1, 4)
    assert derive_seed(3, 1, 4) != derive_seed(3, 4, 1)
    assert derive_seed(3, 1) != derive_seed(4, 1)
    assert derive_seed(0) >= 0


# -- counting -----------------------------------------------------------------

def test_simulate_counts_eigenstate_pole():
    ups = simulate_counts(KET0, ShotPlan(shots_per_basis=500, seed=1))
    assert ups[2] == 500


def test_simulate_counts_deterministic():
    plan = ShotPlan(shots_per_basis=2400, seed=11)
    np.testing.assert_array_equal(simulate_counts(KET0, plan), simulate_counts(KET0, plan))


@pytest.mark.parametrize("shots", [1, 3, 10, 2400])
def test_simulate_counts_are_three_integers_within_the_shots(shots):
    for seed in range(20):
        state = PureState(random_pure_state(2, seed, range(1))[0])
        ups = simulate_counts(state, ShotPlan(shots_per_basis=shots, seed=seed))
        assert ups.shape == (3,) and ups.dtype.kind == "i"
        assert ((0 <= ups) & (ups <= shots)).all()


def test_simulate_counts_rejects_qutrits():
    qutrit = PureState(random_pure_state(3, 1, range(1))[0])
    with pytest.raises(ValueError, match="shot simulation is for qubits, got dim 3"):
        simulate_counts(qutrit, ShotPlan())


def test_simulate_counts_basis_streams_are_independent():
    # Basis k draws from its own stream (seed, k) alone, at (1 + <sigma_k>) / 2.
    state = bloch_to_state(BlochAngles(1.0, 0.4))
    full = simulate_counts(state, ShotPlan(shots_per_basis=900, seed=5))
    for k, sigma in enumerate(o.PAULIS):
        p_up = (1.0 + o.expect(sigma, state.amplitudes)) / 2.0
        n_plus = int(np.random.default_rng([5, k]).binomial(900, p_up))
        assert full[k] == n_plus


def test_simulate_counts_concentration():
    ups = simulate_counts(KET0, ShotPlan(shots_per_basis=1_000_000, seed=2))
    assert abs(ups[0] / 1_000_000 - 0.5) < 0.002


# -- moment estimation, against the oracle's binomial standard error ----------

def test_binomial_std_error_formula():
    assert o.binomial_std_error(750, 1000) == pytest.approx(math.sqrt(0.75 / 1000.0))


def test_binomial_std_error_floor_at_pole():
    for up in (400, 0):
        assert o.binomial_std_error(up, 400) == pytest.approx(math.sqrt(1.0 / 400.0))


def test_binomial_std_error_balanced():
    assert o.binomial_std_error(500, 1000) == pytest.approx(1.0 / math.sqrt(1000.0))


def test_moment_consistency_at_large_shots():
    # estimated moments converge onto the exact expectations; allow a
    # < 1% flake budget over the fixed-seed batch
    failures = 0
    checks = 0
    shots = 1_000_000
    for trial in range(300):
        state = PureState(random_pure_state(2, trial, range(1))[0])
        plan = ShotPlan(shots_per_basis=shots, seed=derive_seed(123, trial))
        means, _, _ = moment_table(pauli_triple().stack, state.amplitudes)
        ups = simulate_counts(state, plan)
        for up, exact, sigma in zip(ups, means, o.binomial_std_error(ups, shots)):
            checks += 1
            if abs((2 * int(up) - shots) / shots - exact) > 5.0 * max(sigma, 1e-12):
                failures += 1
    assert failures / checks < 0.01


def test_error_scaling_tenfold():
    # 100x the shots should shrink the error bar about 10x
    state = bloch_to_state(BlochAngles(1.1, 0.7))
    ratios = []
    for trial in range(100):
        seed = derive_seed(55, trial)
        small = simulate_counts(state, ShotPlan(shots_per_basis=400, seed=seed))
        big = simulate_counts(state, ShotPlan(shots_per_basis=40_000, seed=seed))
        ratios.extend(o.binomial_std_error(small, 400) / o.binomial_std_error(big, 40_000))
    mean_ratio = sum(ratios) / len(ratios)
    assert 7.0 <= mean_ratio <= 13.0


# -- bootstrap ----------------------------------------------------------------

def exact_ups(n, ex, ey, ez):
    """Up-counts of ``n`` shots whose estimates reproduce the given moments exactly."""
    return [round(n * (1.0 + value) / 2.0) for value in (ex, ey, ez)]


@pytest.mark.parametrize("ups, shots, named", [
    ([500, 750], 1000, "up-counts [500, 750]"),
    ([500, 750, 900, 100], 1000, "up-counts [500, 750, 900, 100]"),
    ([500, -1, 900], 1000, "up-counts [500, -1, 900]"),
    ([500, 1001, 900], 1000, "up-counts [500, 1001, 900]"),
    ([0, 0, 0], 0, "shots 0"),
    ([0, 0, 0], 2**63, f"shots {2**63}"),  # more than a binomial draw's int64 holds
    ([500, 2.5, 900], 1000, "up-count must be an integer, got 2.5"),
    ([500, 750, 900], 2.5, "shots must be an integer, got 2.5"),
], ids=["two-counts", "four-counts", "negative-count", "count-above-shots", "no-shots", "shots-2**63",
        "count-2.5", "shots-2.5"])
def test_bootstrap_refuses_anything_but_three_integer_up_counts_within_the_shots(ups, shots, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        bootstrap_bounds(ups, shots)


def test_bootstrap_requires_minimum_resamples():
    with pytest.raises(ValueError, match="resamples"):
        bootstrap_bounds(exact_ups(1000, 0.5, 0.0, 0.8), 1000, resamples=50)


def test_bootstrap_point_values_are_plug_in():
    _, exact = closed_form_bounds(0.5, 0.0, 0.8)
    (lhs, _), estimates = bootstrap_bounds(exact_ups(1000, 0.5, 0.0, 0.8), 1000, resamples=200, seed=1)
    assert lhs == pytest.approx(3.0 - (0.5**2 + 0.8**2), abs=1e-12)
    assert list(estimates) == list(SUM_FORM_RELATIONS)
    for rel in SUM_FORM_RELATIONS:
        value, std_error = estimates[rel]
        assert value == pytest.approx(exact[rel], abs=1e-12)
        assert std_error > 0.0


def test_bootstrap_returns_float_pairs_and_takes_numpy_counts():
    ups = exact_ups(1000, 0.5, 0.0, 0.8)
    lhs, rhs = bootstrap_bounds(np.array(ups), np.int64(1000), resamples=200, seed=1)
    for pair in (lhs, *rhs.values()):
        assert type(pair) is tuple and [type(x) for x in pair] == [float, float]
    assert (lhs, rhs) == bootstrap_bounds(ups, 1000, resamples=200, seed=1)


def test_closed_forms_and_bootstrap_take_no_relation_choice():
    assert list(inspect.signature(closed_form_bounds).parameters) == ["ex", "ey", "ez"]
    # ``resamples`` stays a parameter: the benchmark's tracer counts replicates by it.
    assert list(inspect.signature(bootstrap_bounds).parameters) == ["ups", "shots", "resamples", "seed"]
    ups = exact_ups(1000, 0.5, 0.0, 0.8)
    assert bootstrap_bounds(ups, 1000, 200, 1) == bootstrap_bounds(ups, 1000, resamples=200, seed=1)


def test_bootstrap_point_independent_of_resamples():
    ups = exact_ups(2400, 0.3, -0.2, 0.7)
    first = bootstrap_bounds(ups, 2400, resamples=200, seed=9)
    second = bootstrap_bounds(ups, 2400, resamples=400, seed=9)
    assert first[0][0] == second[0][0]
    for rel in SUM_FORM_RELATIONS:
        assert first[1][rel][0] == second[1][rel][0]


def test_bootstrap_deterministic_per_seed():
    ups = exact_ups(2400, 0.3, -0.2, 0.7)
    first = bootstrap_bounds(ups, 2400, resamples=300, seed=4)
    second = bootstrap_bounds(ups, 2400, resamples=300, seed=4)
    assert first[0][1] == second[0][1]
    for rel in SUM_FORM_RELATIONS:
        assert first[1][rel][1] == second[1][rel][1]


def test_bootstrap_error_bars_stable_across_seeds():
    ups = exact_ups(2400, 0.4, 0.1, 0.6)
    _, first = bootstrap_bounds(ups, 2400, resamples=1000, seed=100)
    _, second = bootstrap_bounds(ups, 2400, resamples=1000, seed=200)
    for rel in SUM_FORM_RELATIONS:
        a = first[rel][1]
        b = second[rel][1]
        assert abs(a - b) / max(a, b) < 0.15, rel.label


def test_bootstrap_hits_exact_bound_at_large_shots():
    ups = simulate_counts(KET0, ShotPlan(shots_per_basis=1_000_000, seed=3))
    _, estimates = bootstrap_bounds(ups, 1_000_000, resamples=500, seed=3)
    value, std_error = estimates[Relation.TRIPLE_COMMUTATOR]
    assert abs(value - o.ANCHOR_T2) <= 3.0 * std_error


def test_statistical_violations_are_rare_at_ten_thousand_shots():
    # plug-in estimates from finite counts may dip below a bound; across
    # the 13-point polar sweep none do at this shot count and seed
    grid = [BlochAngles(k * math.pi / 12.0, 0.0) for k in range(13)]
    negative = {rel: 0 for rel in SUM_FORM_RELATIONS}
    for index, angles in enumerate(grid):
        plan = ShotPlan(shots_per_basis=10_000, seed=derive_seed(0, index))
        ups = simulate_counts(bloch_to_state(angles), plan)
        (lhs, _), estimates = bootstrap_bounds(ups, 10_000, resamples=100, seed=index)
        for rel in SUM_FORM_RELATIONS:
            if lhs - estimates[rel][0] < 0.0:
                negative[rel] += 1
    for rel, count in negative.items():
        assert count / len(grid) < 0.05, rel.label
