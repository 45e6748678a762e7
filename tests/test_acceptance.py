"""Acceptance gate: one test per deliverable guarantee, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see a PASS line per
guarantee alongside pytest's own verdicts.  Every tolerance appearing
below is load-bearing; loosening one to make a failure go away defeats
the point of the gate.
"""
import math
import time

import numpy as np
import pytest

import _oracles as o
from uncrel import (
    BlochAngles,
    PureState,
    Relation,
    SUM_FORM_RELATIONS,
    ShotPlan,
    SweepSpec,
    bloch_to_state,
    closed_form_bounds,
    evaluate_all,
    maccone_pati_orthogonal,
    moments_from_angles,
    pauli,
    pauli_triple,
    random_observable,
    random_pure_state,
    run_sweep,
    run_verify,
)
from uncrel.relations import ObservableSet
from uncrel.shots import derive_seed, estimate_expectation, simulate_counts

THETA_SWEEP = SweepSpec("theta", 0.0, 13)
PHI_SWEEP = SweepSpec("phi", math.pi / 3.0, 25)


def _pass(message: str) -> None:
    print(f"\nPASS: {message}")


@pytest.fixture(scope="module")
def pauli_campaign():
    start = time.perf_counter()
    summary = run_verify(100_000, use_paulis=True, seed=0)
    return summary, time.perf_counter() - start


@pytest.fixture(scope="module")
def random_campaign():
    start = time.perf_counter()
    summary = run_verify(84, dims=(2, 3, 4), counts=(2, 3, 4, 5), seed=0)
    return summary, time.perf_counter() - start


def test_lhs_constant_over_both_sweeps():
    """The three-variance sum is exactly 2 along both pure-state sweeps."""
    start = time.perf_counter()
    for spec in (THETA_SWEEP, PHI_SWEEP):
        table = run_sweep(spec)
        assert len(table.lhs) == spec.steps
        for value in table.lhs.tolist():
            assert abs(value - 2.0) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(f"lhs = 2 within 1e-12 at all 13 + 25 sweep points ({elapsed:.3f} s)")


def test_anchor_state_bound_values():
    """Every sum-form bound at |0> matches an independent matrix-path oracle.

    Three paths must agree: the generic matrix engine, the qubit closed
    forms, and the raw-numpy oracle in ``_oracles``.  The oracle is also
    pinned to the analytic constants so a shared systematic error cannot
    hide.
    """
    state = PureState(np.array([1.0, 0.0]))
    engine = {
        rep.relation: rep.rhs
        for rep in evaluate_all(pauli_triple(), state)
        if not hasattr(rep, "reason")
    }
    _, closed = closed_form_bounds(*moments_from_angles(0.0, 0.0))
    x, y, z, psi = o.PX, o.PY, o.PZ, o.KET0
    oracle = {
        Relation.TRIPLE_SUM: o.triple_sum_rhs(x, y, z, psi),
        Relation.TRIPLE_COMMUTATOR: o.triple_commutator_rhs(x, y, z, psi),
        Relation.TRIPLE_PAIRWISE: o.triple_pairwise_rhs(x, y, z, psi),
        Relation.SUM_PLUS: o.sum_plus_rhs([x, y, z], psi),
        Relation.SUM_MINUS: o.sum_minus_rhs([x, y, z], psi),
        Relation.CHEN_FEI: o.chen_fei_rhs([x, y, z], psi),
        Relation.SONG: o.song_rhs([x, y, z], psi),
    }
    anchors = {
        Relation.TRIPLE_SUM: o.ANCHOR_T1,
        Relation.TRIPLE_COMMUTATOR: o.ANCHOR_T2,
        Relation.TRIPLE_PAIRWISE: o.ANCHOR_T3,
        Relation.SUM_PLUS: o.ANCHOR_M1,
        Relation.SUM_MINUS: o.ANCHOR_M2,
        Relation.CHEN_FEI: o.ANCHOR_M3,
        Relation.SONG: o.ANCHOR_M4,
    }
    for rel in SUM_FORM_RELATIONS:
        assert abs(oracle[rel] - anchors[rel]) <= 1e-12, rel
        assert abs(engine[rel] - oracle[rel]) <= 1e-9, rel
        assert abs(closed[rel] - oracle[rel]) <= 1e-9, rel
    _pass("all seven bounds at |0> agree with the matrix oracle within 1e-9")


def test_no_violations_in_randomized_fuzz(pauli_campaign, random_campaign):
    """Large seeded campaigns find no bound violated beyond -1e-9 slack."""
    pauli_summary, pauli_elapsed = pauli_campaign
    random_summary, random_elapsed = random_campaign
    assert pauli_summary.total_instances == 100_000
    assert not pauli_summary.has_violations, pauli_summary.violation_witnesses
    for rel in SUM_FORM_RELATIONS:
        tally = pauli_summary.tallies[rel]
        assert tally.evaluated == 100_000
        assert tally.min_slack >= -1e-9

    assert random_summary.total_instances == 1008
    assert not random_summary.has_violations, random_summary.violation_witnesses
    # pairwise product/sum relations covered alongside the sum forms
    for rel in (
        Relation.ROBERTSON,
        Relation.MACCONE_PATI_ORTHOGONAL,
        Relation.MACCONE_PATI_DEVIATION,
        Relation.SUM_PLUS,
        Relation.SUM_MINUS,
        Relation.SONG,
    ):
        assert random_summary.tallies[rel].violations == 0
    assert random_summary.tallies[Relation.CHEN_FEI].evaluated > 0

    elapsed = pauli_elapsed + random_elapsed
    assert elapsed < 60.0
    _pass(
        "0 violations in 100000 Pauli-triple + 1008 random instances "
        f"({elapsed:.1f} s)"
    )


def test_tightness_ordering(pauli_campaign):
    """The commutator triple bound is a fixed 2/sqrt(3) multiple of the
    pairwise one, and the total-sum bound dominates the other three
    multi-observable bounds on qubits."""
    summary, _ = pauli_campaign
    assert summary.ratio_max_error <= 1e-12
    assert "total_sum_bound_not_dominant" not in summary.notes

    rng = np.random.default_rng(42)
    u = rng.uniform(-1.0, 1.0, size=100_000)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=100_000)
    s = np.sqrt(1.0 - u * u)
    _, bounds = closed_form_bounds(s * np.cos(phi), s * np.sin(phi), u)
    ratio_error = np.abs(
        bounds[Relation.TRIPLE_COMMUTATOR]
        - (2.0 / math.sqrt(3.0)) * bounds[Relation.TRIPLE_PAIRWISE]
    )
    assert float(ratio_error.max()) <= 1e-12
    best_other = np.maximum(
        bounds[Relation.SUM_PLUS],
        np.maximum(bounds[Relation.SUM_MINUS], bounds[Relation.CHEN_FEI]),
    )
    deficit = best_other - bounds[Relation.SONG]
    assert float(deficit.max()) <= 1e-9

    for spec in (THETA_SWEEP, PHI_SWEEP):
        table = run_sweep(spec)
        rhs = {rel: column.tolist() for rel, (column, _, _) in table.bounds.items()}
        for k in range(spec.steps):
            t2 = rhs[Relation.TRIPLE_COMMUTATOR][k]
            t3 = rhs[Relation.TRIPLE_PAIRWISE][k]
            assert abs(t2 - (2.0 / math.sqrt(3.0)) * t3) <= 1e-12
            others = max(
                rhs[r][k]
                for r in (Relation.SUM_PLUS, Relation.SUM_MINUS, Relation.CHEN_FEI)
            )
            assert rhs[Relation.SONG][k] >= others - 1e-9
    _pass(
        "T2 = (2/sqrt 3) T3 within 1e-12 and M4 dominant within 1e-9 on "
        "10^5 states plus both sweeps"
    )


def test_pair_sum_bounds_add_to_lhs():
    """The plus and minus pair-sum bounds always add up to the variance sum."""
    worst = 0.0
    checked = 0
    for trial in range(834):
        for dim in (2, 3, 4):
            for n in (2, 3, 4, 5):
                state = random_pure_state(dim, derive_seed(11, trial, dim, n, 0))
                obs = ObservableSet(
                    tuple(
                        random_observable(dim, derive_seed(11, trial, dim, n, 1 + i))
                        for i in range(n)
                    )
                )
                reports = {r.relation: r for r in evaluate_all(obs, state)}
                plus = reports[Relation.SUM_PLUS]
                minus = reports[Relation.SUM_MINUS]
                worst = max(worst, abs(plus.rhs + minus.rhs - plus.lhs))
                checked += 1
    assert checked == 10_008
    assert worst <= 1e-10
    _pass(f"M1 + M2 = lhs within 1e-10 on {checked} instances (worst {worst:.2e})")


def test_closed_forms_match_matrix_engine():
    """Qubit closed forms and the generic engine agree at random angles."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        angles = BlochAngles(
            math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)
        )
        _, closed = closed_form_bounds(*moments_from_angles(angles.theta, angles.phi))
        engine = {
            rep.relation: rep.rhs
            for rep in evaluate_all(pauli_triple(), bloch_to_state(angles))
            if not hasattr(rep, "reason")
        }
        for rel in SUM_FORM_RELATIONS:
            worst = max(worst, abs(closed[rel] - engine[rel]))
    assert worst <= 1e-12
    _pass(f"closed forms match the engine within 1e-12 at 10^4 angles (worst {worst:.2e})")


def test_equality_witness_and_deviation_dual_path():
    """One orthogonal-state bound is exactly tight, and the deviation-sum
    bound equals half the combined variance on random qubit instances."""
    report = maccone_pati_orthogonal(
        pauli("x"), pauli("y"), PureState(np.array([1.0, 0.0])),
        PureState(np.array([0.0, 1.0])),
    )
    assert abs(report.lhs - 2.0) <= 1e-12
    assert abs(report.rhs - 2.0) <= 1e-12

    worst = 0.0
    for trial in range(10_000):
        state = random_pure_state(2, derive_seed(23, trial, 0))
        a = random_observable(2, derive_seed(23, trial, 1))
        b = random_observable(2, derive_seed(23, trial, 2))
        rep = next(
            r for r in evaluate_all(ObservableSet((a, b)), state, include_pairwise=True)
            if r.relation is Relation.MACCONE_PATI_DEVIATION
        )
        reference = 0.5 * o.var(a.matrix + b.matrix, state.amplitudes)
        worst = max(worst, abs(rep.rhs - reference))
    assert worst <= 1e-10
    _pass(
        "orthogonal-state bound tight at 2 within 1e-12; deviation bound "
        f"dual-path within 1e-10 on 10^4 instances (worst {worst:.2e})"
    )


def test_shot_noise_statistics():
    """Simulated counting statistics behave like counting statistics.

    At 2400 shots per basis the estimated variance sum sits within 3
    reported standard errors of 2 at nearly every sweep point, and scaling
    the shots by 100 shrinks each per-basis standard error by roughly 10.
    """
    start = time.perf_counter()
    plan = ShotPlan(shots_per_basis=2400, seed=7)
    table = run_sweep(SweepSpec("theta", 0.0, 13, shots=plan), resamples=1000)
    within = sum(
        1 for value, err in zip(table.lhs, table.lhs_err) if abs(value - 2.0) <= 3.0 * err
    )
    assert within >= 12, f"only {within}/13 points within 3 sigma"

    ratios = []
    for index, angles in enumerate(zip(*SweepSpec("theta", 0.0, 13).grid())):
        state = bloch_to_state(BlochAngles(*angles))
        child = derive_seed(7, index)
        small = simulate_counts(state, ShotPlan(shots_per_basis=2400, seed=child))
        big = simulate_counts(state, ShotPlan(shots_per_basis=240_000, seed=child))
        for rec_small, rec_big in zip(small, big):
            se_small = estimate_expectation(rec_small).std_error
            se_big = estimate_expectation(rec_big).std_error
            ratios.append(se_small / se_big)
    assert len(ratios) == 39
    assert all(7.0 <= r <= 13.0 for r in ratios), (min(ratios), max(ratios))

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(
        f"{within}/13 sweep points within 3 sigma of 2; std-error ratios in "
        f"[{min(ratios):.2f}, {max(ratios):.2f}] ({elapsed:.1f} s)"
    )


def test_instrument_data_out_of_scope():
    """The published lab points carry detector- and source-specific offsets
    that no simulation here models, so they are deliberately not targets.
    The smooth curves they are compared against are exactly the exact-sweep
    and anchor values covered by the other gate tests."""
    _pass("plotted instrument data out of scope; theory curves covered above")
