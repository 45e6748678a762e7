import math

import numpy as np
import pytest

import _oracles as o
from uncrel import (
    BlochAngles,
    DimensionError,
    EstimateWithError,
    MeasurementRecord,
    PureState,
    Relation,
    SUM_FORM_RELATIONS,
    ShotPlan,
    bloch_to_state,
    bootstrap_bounds,
    closed_form_bounds,
    derive_seed,
    estimate_expectation,
    pauli_triple,
    random_pure_state,
    simulate_counts,
)
from uncrel.core import moment_table

KET0 = PureState(o.KET0)


# -- plan and record contracts ------------------------------------------------

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


def test_measurement_record_contracts():
    rec = MeasurementRecord("z", 7, 3)
    assert rec.total == 10
    with pytest.raises(ValueError):
        MeasurementRecord("w", 1, 1)
    with pytest.raises(ValueError):
        MeasurementRecord("x", -1, 2)
    with pytest.raises(ValueError):
        MeasurementRecord("x", 0, 0)


def test_estimate_with_error_contract():
    with pytest.raises(ValueError):
        EstimateWithError(0.0, -0.1)


def test_derive_seed_is_deterministic_and_path_sensitive():
    assert derive_seed(3, 1, 4) == derive_seed(3, 1, 4)
    assert derive_seed(3, 1, 4) != derive_seed(3, 4, 1)
    assert derive_seed(3, 1) != derive_seed(4, 1)
    assert derive_seed(0) >= 0


# -- counting -----------------------------------------------------------------

def test_simulate_counts_eigenstate_pole():
    records = simulate_counts(KET0, ShotPlan(shots_per_basis=500, seed=1))
    assert records[2].n_plus == 500
    assert records[2].n_minus == 0


def test_simulate_counts_deterministic():
    plan = ShotPlan(shots_per_basis=2400, seed=11)
    first = simulate_counts(KET0, plan)
    second = simulate_counts(KET0, plan)
    assert first == second


def test_simulate_counts_rejects_qutrits():
    with pytest.raises(DimensionError):
        simulate_counts(random_pure_state(3, seed=1), ShotPlan())


def test_simulate_counts_basis_streams_are_independent():
    # Basis k draws from its own stream (seed, k) alone, at (1 + <sigma_k>) / 2.
    state = bloch_to_state(BlochAngles(1.0, 0.4))
    full = simulate_counts(state, ShotPlan(shots_per_basis=900, seed=5))
    for k, (axis, sigma) in enumerate(zip("xyz", o.PAULIS)):
        p_up = (1.0 + o.expect(sigma, state.amplitudes)) / 2.0
        n_plus = int(np.random.default_rng([5, k]).binomial(900, p_up))
        assert full[k] == MeasurementRecord(axis, n_plus, 900 - n_plus)


def test_simulate_counts_concentration():
    records = simulate_counts(
        KET0, ShotPlan(shots_per_basis=1_000_000, seed=2)
    )
    fraction = records[0].n_plus / records[0].total
    assert abs(fraction - 0.5) < 0.002


# -- moment estimation --------------------------------------------------------

def test_estimate_expectation_formula():
    est = estimate_expectation(MeasurementRecord("x", 750, 250))
    assert est.value == pytest.approx(0.5)
    assert est.std_error == pytest.approx(math.sqrt(0.75 / 1000.0))


def test_estimate_expectation_floor_at_pole():
    est = estimate_expectation(MeasurementRecord("z", 400, 0))
    assert est.value == 1.0
    assert est.std_error == pytest.approx(math.sqrt(1.0 / 400.0))
    est = estimate_expectation(MeasurementRecord("z", 0, 400))
    assert est.value == -1.0
    assert est.std_error == pytest.approx(math.sqrt(1.0 / 400.0))


def test_estimate_expectation_balanced():
    est = estimate_expectation(MeasurementRecord("y", 500, 500))
    assert est.value == 0.0
    assert est.std_error == pytest.approx(1.0 / math.sqrt(1000.0))


def test_moment_consistency_at_large_shots():
    # estimated moments converge onto the exact expectations; allow a
    # < 1% flake budget over the fixed-seed batch
    failures = 0
    checks = 0
    for trial in range(300):
        state = random_pure_state(2, seed=trial)
        plan = ShotPlan(shots_per_basis=1_000_000, seed=derive_seed(123, trial))
        means, _, _ = moment_table(pauli_triple().stack, state.amplitudes)
        for record in simulate_counts(state, plan):
            exact = means["xyz".index(record.basis)]
            est = estimate_expectation(record)
            sigma = max(est.std_error, 1e-12)
            checks += 1
            if abs(est.value - exact) > 5.0 * sigma:
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
        for rs, rb in zip(small, big):
            ratios.append(
                estimate_expectation(rs).std_error / estimate_expectation(rb).std_error
            )
    mean_ratio = sum(ratios) / len(ratios)
    assert 7.0 <= mean_ratio <= 13.0


# -- bootstrap ----------------------------------------------------------------

def exact_records(n, ex, ey, ez):
    """Records whose estimates reproduce the given moments exactly."""
    recs = []
    for basis, value in zip("xyz", (ex, ey, ez)):
        n_plus = round(n * (1.0 + value) / 2.0)
        recs.append(MeasurementRecord(basis, n_plus, n - n_plus))
    return recs


def test_bootstrap_requires_all_bases():
    records = exact_records(1000, 0.5, 0.0, 0.8)
    with pytest.raises(ValueError, match="missing"):
        bootstrap_bounds(records[:2])
    with pytest.raises(ValueError, match="duplicate"):
        bootstrap_bounds(records + [records[0]])


def test_bootstrap_requires_minimum_resamples():
    with pytest.raises(ValueError, match="resamples"):
        bootstrap_bounds(exact_records(1000, 0.5, 0.0, 0.8), resamples=50)


def test_bootstrap_point_values_are_plug_in():
    records = exact_records(1000, 0.5, 0.0, 0.8)
    _, exact = closed_form_bounds(0.5, 0.0, 0.8)
    estimates = bootstrap_bounds(records, resamples=200, seed=1)
    for rel in SUM_FORM_RELATIONS:
        lhs_est, rhs_est = estimates[rel]
        assert rhs_est.value == pytest.approx(exact[rel], abs=1e-12)
        assert lhs_est.value == pytest.approx(3.0 - (0.5**2 + 0.8**2), abs=1e-12)
        assert rhs_est.std_error > 0.0


def test_bootstrap_point_independent_of_resamples():
    records = exact_records(2400, 0.3, -0.2, 0.7)
    first = bootstrap_bounds(records, resamples=200, seed=9)
    second = bootstrap_bounds(records, resamples=400, seed=9)
    for rel in SUM_FORM_RELATIONS:
        assert first[rel][1].value == second[rel][1].value
        assert first[rel][0].value == second[rel][0].value


def test_bootstrap_deterministic_per_seed():
    records = exact_records(2400, 0.3, -0.2, 0.7)
    first = bootstrap_bounds(records, resamples=300, seed=4)
    second = bootstrap_bounds(records, resamples=300, seed=4)
    for rel in SUM_FORM_RELATIONS:
        assert first[rel][1].std_error == second[rel][1].std_error


def test_bootstrap_error_bars_stable_across_seeds():
    records = exact_records(2400, 0.4, 0.1, 0.6)
    first = bootstrap_bounds(records, resamples=1000, seed=100)
    second = bootstrap_bounds(records, resamples=1000, seed=200)
    for rel in SUM_FORM_RELATIONS:
        a = first[rel][1].std_error
        b = second[rel][1].std_error
        assert abs(a - b) / max(a, b) < 0.15, rel.label


def test_bootstrap_hits_exact_bound_at_large_shots():
    records = simulate_counts(KET0, ShotPlan(shots_per_basis=1_000_000, seed=3))
    estimates = bootstrap_bounds(records, resamples=500, seed=3)
    _, rhs_est = estimates[Relation.TRIPLE_COMMUTATOR]
    assert abs(rhs_est.value - o.ANCHOR_T2) <= 3.0 * rhs_est.std_error


def test_statistical_violations_are_rare_at_ten_thousand_shots():
    # plug-in estimates from finite counts may dip below a bound; across
    # the 13-point polar sweep none do at this shot count and seed
    grid = [BlochAngles(k * math.pi / 12.0, 0.0) for k in range(13)]
    negative = {rel: 0 for rel in SUM_FORM_RELATIONS}
    for index, angles in enumerate(grid):
        plan = ShotPlan(shots_per_basis=10_000, seed=derive_seed(0, index))
        records = simulate_counts(bloch_to_state(angles), plan)
        estimates = bootstrap_bounds(records, resamples=100, seed=index)
        for rel in SUM_FORM_RELATIONS:
            lhs_est, rhs_est = estimates[rel]
            if lhs_est.value - rhs_est.value < 0.0:
                negative[rel] += 1
    for rel, count in negative.items():
        assert count / len(grid) < 0.05, rel.label
