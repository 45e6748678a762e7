import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as o
from uncrel import (
    DensityMatrix,
    Observable,
    ObservableSet,
    OrthogonalityError,
    PureState,
    Relation,
    SkippedRelation,
    UnsupportedCountError,
    UnsupportedStateError,
    evaluate_all,
    maccone_pati_orthogonal,
    orthogonal_qubit,
    pauli,
    pauli_triple,
    random_observable,
    random_pure_state,
)

SX, SY, SZ = pauli("x"), pauli("y"), pauli("z")
KET0 = PureState(o.KET0)
KET1 = PureState(o.KET1)
EQUATOR_X = PureState(o.ket(math.pi / 2, 0.0))
MIXED = DensityMatrix(np.eye(2) / 2.0)


def report(relation, observables, state):
    """The report of one sum-form relation, as evaluate_all gives it."""
    reports = evaluate_all(ObservableSet(tuple(observables)), state)
    return next(r for r in reports if r.relation is relation)


def pair_report(relation, a, b, state):
    """The pair (0, 1) report of one pairwise relation, as evaluate_all gives it."""
    reports = evaluate_all(ObservableSet((a, b)), state, include_pairwise=True)
    return next(r for r in reports if r.relation is relation)


def random_instance(dim, n, seed):
    obs = ObservableSet(
        tuple(random_observable(dim, seed=1000 * seed + k) for k in range(n))
    )
    return obs, random_pure_state(dim, seed=seed)


# -- report bookkeeping -------------------------------------------------------

def test_report_slack_and_holds_are_consistent():
    rep = pair_report(Relation.ROBERTSON, SX, SY, KET0)
    assert rep.slack == rep.lhs - rep.rhs
    assert rep.holds == (rep.slack >= -1e-9)
    assert rep.relation is Relation.ROBERTSON


def test_relation_labels():
    assert Relation.TRIPLE_SUM.label == "T1"
    assert Relation.TRIPLE_COMMUTATOR.label == "T2"
    assert Relation.TRIPLE_PAIRWISE.label == "T3"
    assert Relation.SUM_PLUS.label == "M1"
    assert Relation.SUM_MINUS.label == "M2"
    assert Relation.CHEN_FEI.label == "M3"
    assert Relation.SONG.label == "M4"


def test_observable_set_contracts():
    with pytest.raises(UnsupportedCountError):
        ObservableSet((SX,))
    with pytest.raises(Exception, match="mixed dimensions"):
        ObservableSet((SX, random_observable(3, seed=0)))
    triple = pauli_triple()
    assert triple.count == 3 and len(triple) == 3
    assert triple[2].matrix[0, 0] == 1.0


# -- product bound ------------------------------------------------------------

def test_robertson_equality_at_pole():
    rep = pair_report(Relation.ROBERTSON, SX, SY, KET0)
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.rhs == pytest.approx(1.0, abs=1e-12)
    assert rep.holds


def test_robertson_self_commutator():
    assert pair_report(Relation.ROBERTSON, SX, SX, KET0).rhs == 0.0


def test_robertson_trivial_on_equator():
    # The x eigenstate kills both sides: zero variance and zero <sigma_z>.
    rep = pair_report(Relation.ROBERTSON, SX, SY, EQUATOR_X)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)
    assert rep.holds


def test_robertson_matches_oracle_on_random_instances():
    for seed in range(20):
        a = random_observable(3, seed=seed)
        b = random_observable(3, seed=500 + seed)
        psi = random_pure_state(3, seed=seed)
        rep = pair_report(Relation.ROBERTSON, a, b, psi)
        assert rep.rhs == pytest.approx(
            o.robertson_rhs(a.matrix, b.matrix, psi.amplitudes), abs=1e-12
        )
        assert rep.holds


# -- orthogonal-state sum bound -----------------------------------------------

def test_orthogonal_bound_equality_witness():
    rep = maccone_pati_orthogonal(SX, SY, KET0, KET1)
    assert rep.lhs == pytest.approx(2.0, abs=1e-12)
    assert rep.rhs == pytest.approx(2.0, abs=1e-12)
    assert rep.holds


def test_orthogonal_bound_zero_commutator_tie_break():
    rep = maccone_pati_orthogonal(SX, SX, KET0, KET1)
    assert rep.lhs == pytest.approx(2.0, abs=1e-12)
    assert rep.rhs == pytest.approx(2.0, abs=1e-12)


def test_orthogonal_bound_inequality_on_equator():
    state = EQUATOR_X
    rep = maccone_pati_orthogonal(SX, SY, state, orthogonal_qubit(state))
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.rhs <= 1.0 + 1e-9


def test_orthogonal_bound_rejects_non_orthogonal():
    with pytest.raises(OrthogonalityError):
        maccone_pati_orthogonal(SX, SY, KET0, KET0)


def test_orthogonal_bound_rejects_mixed():
    with pytest.raises(UnsupportedStateError):
        maccone_pati_orthogonal(SX, SY, MIXED, KET1)


def test_orthogonal_bound_matches_oracle():
    for seed in range(30):
        a = random_observable(2, seed=seed)
        b = random_observable(2, seed=700 + seed)
        psi = random_pure_state(2, seed=seed)
        perp = orthogonal_qubit(psi)
        rep = maccone_pati_orthogonal(a, b, psi, perp)
        assert rep.rhs == pytest.approx(
            o.mp_orthogonal_rhs(a.matrix, b.matrix, psi.amplitudes, perp.amplitudes),
            abs=1e-12,
        )
        assert rep.holds


# -- deviation sum bound ------------------------------------------------------

def test_deviation_bound_at_pole():
    rep = pair_report(Relation.MACCONE_PATI_DEVIATION, SX, SY, KET0)
    assert rep.lhs == pytest.approx(2.0, abs=1e-12)
    assert rep.rhs == pytest.approx(1.0, abs=1e-12)


def test_deviation_bound_degenerates_on_eigenstate():
    assert pair_report(Relation.MACCONE_PATI_DEVIATION, SZ, SZ, KET0).rhs == 0.0


def test_deviation_bound_dual_path():
    state = PureState(o.ket(math.pi / 4, 0.0))
    rep = pair_report(Relation.MACCONE_PATI_DEVIATION, SX, SZ, state)
    assert rep.rhs == pytest.approx(
        o.mp_deviation_rhs(o.PX, o.PZ, state.amplitudes), abs=1e-10
    )


def test_deviation_bound_dual_path_random():
    for seed in range(30):
        a = random_observable(2, seed=seed)
        b = random_observable(2, seed=900 + seed)
        psi = random_pure_state(2, seed=seed)
        rep = pair_report(Relation.MACCONE_PATI_DEVIATION, a, b, psi)
        assert rep.rhs == pytest.approx(
            o.mp_deviation_rhs(a.matrix, b.matrix, psi.amplitudes), abs=1e-10
        )
        assert rep.holds


# -- triple bounds ------------------------------------------------------------

def test_triple_sum_on_pole_and_equator():
    for state in (KET0, EQUATOR_X):
        rep = report(Relation.TRIPLE_SUM, (SX, SY, SZ), state)
        assert rep.lhs == pytest.approx(2.0, abs=1e-12)
        assert rep.rhs == pytest.approx(o.ANCHOR_T1, abs=1e-12)
        assert rep.holds


def test_triple_sum_commuting_constants():
    ident = Observable(np.eye(2))
    rep = report(Relation.TRIPLE_SUM, (ident, 2.0 * ident, 3.0 * ident), KET0)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)


def test_triple_commutator_at_pole():
    rep = report(Relation.TRIPLE_COMMUTATOR, (SX, SY, SZ), KET0)
    assert rep.rhs == pytest.approx(o.ANCHOR_T2, abs=1e-12)


def test_triple_commutator_commuting_diagonals():
    d1 = Observable(np.diag([1.0, 2.0]))
    d2 = Observable(np.diag([-1.0, 3.0]))
    d3 = Observable(np.diag([0.5, 0.5]))
    psi = random_pure_state(2, seed=4)
    assert report(Relation.TRIPLE_COMMUTATOR, (d1, d2, d3), psi).rhs == 0.0


def test_triple_commutator_dual_path():
    state = PureState(o.ket(math.pi / 3, math.pi / 4))
    rep = report(Relation.TRIPLE_COMMUTATOR, (SX, SY, SZ), state)
    assert rep.rhs == pytest.approx(
        o.triple_commutator_rhs(o.PX, o.PY, o.PZ, state.amplitudes), abs=1e-12
    )


def test_triple_pairwise_at_pole():
    rep = report(Relation.TRIPLE_PAIRWISE, (SX, SY, SZ), KET0)
    assert rep.rhs == pytest.approx(1.0, abs=1e-12)
    assert rep.mid == pytest.approx(1.0, abs=1e-12)


def test_triple_pairwise_equator():
    rep = report(Relation.TRIPLE_PAIRWISE, (SX, SY, SZ), EQUATOR_X)
    assert rep.lhs == pytest.approx(2.0, abs=1e-12)
    assert rep.rhs == pytest.approx(1.0, abs=1e-12)


def test_triple_pairwise_maximally_mixed():
    rep = report(Relation.TRIPLE_PAIRWISE, (SX, SY, SZ), MIXED)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)


def test_triple_pairwise_chain():
    # lhs >= mid >= rhs links through the pairwise deviation products.
    for seed in range(20):
        a = random_observable(2, seed=seed)
        b = random_observable(2, seed=300 + seed)
        c = random_observable(2, seed=600 + seed)
        psi = random_pure_state(2, seed=seed)
        rep = report(Relation.TRIPLE_PAIRWISE, (a, b, c), psi)
        assert rep.lhs >= rep.mid - 1e-10
        assert rep.mid >= rep.rhs - 1e-10


# -- N-observable bounds ------------------------------------------------------

def test_sum_plus_at_pole():
    rep = report(Relation.SUM_PLUS, pauli_triple(), KET0)
    assert rep.rhs == pytest.approx(1.0, abs=1e-12)


def test_sum_plus_identical_pair_on_eigenstate():
    rep = report(Relation.SUM_PLUS, ObservableSet((SZ, SZ)), KET0)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)


def test_sum_plus_matches_oracle_off_pole():
    state = PureState(o.ket(math.pi / 3, 0.0))
    rep = report(Relation.SUM_PLUS, pauli_triple(), state)
    assert rep.rhs == pytest.approx(o.sum_plus_rhs(list(o.PAULIS), state.amplitudes), abs=1e-12)


def test_sum_minus_at_pole():
    rep = report(Relation.SUM_MINUS, pauli_triple(), KET0)
    assert rep.rhs == pytest.approx(1.0, abs=1e-12)


def test_sum_minus_identical_pair():
    rep = report(Relation.SUM_MINUS, ObservableSet((SX, SX)), random_pure_state(2, seed=9))
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)


def test_parallelogram_identity():
    for seed in range(15):
        obs, psi = random_instance(dim=3, n=4, seed=seed)
        plus = report(Relation.SUM_PLUS, obs, psi)
        minus = report(Relation.SUM_MINUS, obs, psi)
        assert plus.rhs + minus.rhs == pytest.approx(plus.lhs, abs=1e-10)


def test_chen_fei_at_pole():
    rep = report(Relation.CHEN_FEI, pauli_triple(), KET0)
    assert rep.rhs == pytest.approx(o.ANCHOR_M3, abs=1e-12)


def test_chen_fei_identical_projectors():
    proj = Observable(np.outer(o.KET0, o.KET0.conj()))
    rep = report(Relation.CHEN_FEI, ObservableSet((proj, proj, proj)), KET0)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)


def test_chen_fei_dual_path_at_singular_point():
    # theta = pi/4 puts the state on an eigenvector of sigma_x + sigma_z,
    # so the z-x pair variance vanishes; both computation routes must land
    # on the same side of the square-root kink.
    state = PureState(o.ket(math.pi / 4, 0.0))
    rep = report(Relation.CHEN_FEI, pauli_triple(), state)
    assert rep.rhs == pytest.approx(
        o.chen_fei_rhs(list(o.PAULIS), state.amplitudes), abs=1e-10
    )


def test_song_at_pole():
    rep = report(Relation.SONG, pauli_triple(), KET0)
    assert rep.rhs == pytest.approx(o.ANCHOR_M4, abs=1e-12)


def test_song_pair_of_identical_on_eigenstate():
    rep = report(Relation.SONG, ObservableSet((SZ, SZ)), KET0)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)


def test_nary_bounds_match_oracle_random():
    for seed in range(12):
        for n in (3, 4, 5):
            obs, psi = random_instance(dim=2, n=n, seed=10 * seed + n)
            mats = [ob.matrix for ob in obs]
            v = psi.amplitudes
            for rel, oracle in (
                (Relation.SUM_PLUS, o.sum_plus_rhs),
                (Relation.SUM_MINUS, o.sum_minus_rhs),
                (Relation.CHEN_FEI, o.chen_fei_rhs),
                (Relation.SONG, o.song_rhs),
            ):
                assert report(rel, obs, psi).rhs == pytest.approx(oracle(mats, v), abs=1e-10)


def test_mixed_states_accepted_by_sum_forms():
    rho = DensityMatrix(np.diag([0.25, 0.75]))
    for rel in (Relation.SUM_PLUS, Relation.SUM_MINUS, Relation.CHEN_FEI, Relation.SONG):
        rep = report(rel, pauli_triple(), rho)
        assert rep.holds
    assert report(Relation.TRIPLE_SUM, (SX, SY, SZ), rho).holds


# -- batch evaluation ---------------------------------------------------------

def test_evaluate_all_pauli_pole():
    results = evaluate_all(pauli_triple(), KET0)
    reports = {r.relation: r for r in results if not isinstance(r, SkippedRelation)}
    assert len(reports) == 7
    expected = {
        Relation.TRIPLE_SUM: o.ANCHOR_T1,
        Relation.TRIPLE_COMMUTATOR: o.ANCHOR_T2,
        Relation.TRIPLE_PAIRWISE: o.ANCHOR_T3,
        Relation.SUM_PLUS: o.ANCHOR_M1,
        Relation.SUM_MINUS: o.ANCHOR_M2,
        Relation.CHEN_FEI: o.ANCHOR_M3,
        Relation.SONG: o.ANCHOR_M4,
    }
    for rel, value in expected.items():
        assert reports[rel].rhs == pytest.approx(value, abs=1e-12)
        assert reports[rel].lhs == pytest.approx(2.0, abs=1e-12)
        assert reports[rel].holds


def test_evaluate_all_maximally_mixed():
    results = evaluate_all(pauli_triple(), MIXED)
    reports = {r.relation: r for r in results if not isinstance(r, SkippedRelation)}
    assert reports[Relation.TRIPLE_SUM].lhs == pytest.approx(3.0, abs=1e-12)
    assert reports[Relation.TRIPLE_COMMUTATOR].rhs == pytest.approx(0.0, abs=1e-12)
    assert reports[Relation.TRIPLE_PAIRWISE].rhs == pytest.approx(0.0, abs=1e-12)
    # all moments zero: each pair variance is 2, so both pair bounds give
    # (1/4) * 3 * 2 = 1.5
    assert reports[Relation.SUM_PLUS].rhs == pytest.approx(1.5, abs=1e-12)
    assert reports[Relation.SUM_MINUS].rhs == pytest.approx(1.5, abs=1e-12)


def test_evaluate_all_skips_triples_for_four_observables():
    obs, psi = random_instance(dim=2, n=4, seed=3)
    results = evaluate_all(obs, psi)
    skipped = {r.relation for r in results if isinstance(r, SkippedRelation)}
    present = {r.relation for r in results if not isinstance(r, SkippedRelation)}
    assert skipped == {
        Relation.TRIPLE_SUM,
        Relation.TRIPLE_COMMUTATOR,
        Relation.TRIPLE_PAIRWISE,
    }
    assert Relation.CHEN_FEI in present and Relation.SONG in present


def test_evaluate_all_skips_chen_fei_for_pairs():
    obs, psi = random_instance(dim=2, n=2, seed=5)
    results = evaluate_all(obs, psi)
    skipped = {r.relation for r in results if isinstance(r, SkippedRelation)}
    assert Relation.CHEN_FEI in skipped


def test_evaluate_all_shares_lhs():
    obs, psi = random_instance(dim=3, n=3, seed=8)
    results = evaluate_all(obs, psi)
    lhs_values = {r.lhs for r in results if not isinstance(r, SkippedRelation)}
    assert len(lhs_values) == 1


def test_evaluate_all_pairwise_reports():
    obs, psi = random_instance(dim=2, n=3, seed=6)
    results = evaluate_all(obs, psi, include_pairwise=True)
    pairs = [r for r in results if not isinstance(r, SkippedRelation) and r.pair is not None]
    by_relation = {}
    for rep in pairs:
        by_relation.setdefault(rep.relation, []).append(rep.pair)
    assert by_relation[Relation.ROBERTSON] == [(0, 1), (0, 2), (1, 2)]
    assert by_relation[Relation.MACCONE_PATI_ORTHOGONAL] == [(0, 1), (0, 2), (1, 2)]
    assert by_relation[Relation.MACCONE_PATI_DEVIATION] == [(0, 1), (0, 2), (1, 2)]
    assert all(rep.holds for rep in pairs)


def test_evaluate_all_pairwise_skips_on_mixed_state():
    results = evaluate_all(pauli_triple(), MIXED, include_pairwise=True)
    skipped = {r.relation for r in results if isinstance(r, SkippedRelation)}
    assert Relation.MACCONE_PATI_ORTHOGONAL in skipped
    assert Relation.MACCONE_PATI_DEVIATION in skipped
    robertson_pairs = [
        r for r in results
        if not isinstance(r, SkippedRelation) and r.relation is Relation.ROBERTSON
    ]
    assert len(robertson_pairs) == 3


def test_evaluate_all_skips_orthogonal_form_above_dim_two():
    obs, psi = random_instance(dim=3, n=3, seed=7)
    results = evaluate_all(obs, psi, include_pairwise=True)
    skipped = {r.relation for r in results if isinstance(r, SkippedRelation)}
    assert Relation.MACCONE_PATI_ORTHOGONAL in skipped
    deviation_pairs = [
        r for r in results
        if not isinstance(r, SkippedRelation)
        and r.relation is Relation.MACCONE_PATI_DEVIATION
    ]
    assert len(deviation_pairs) == 3


def test_commutator_ratio_between_triple_bounds():
    # The two commutator-driven triple bounds scale the same sum, so their
    # ratio is fixed at 2/sqrt(3) whenever the smaller one is nonzero.
    for seed in range(25):
        psi = random_pure_state(2, seed=seed)
        t2 = report(Relation.TRIPLE_COMMUTATOR, (SX, SY, SZ), psi)
        t3 = report(Relation.TRIPLE_PAIRWISE, (SX, SY, SZ), psi)
        if t3.rhs > 1e-12:
            assert t2.rhs == pytest.approx((2.0 / math.sqrt(3.0)) * t3.rhs, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from((2, 3)),
    st.sampled_from((2, 3)),
    st.integers(min_value=-2, max_value=3),
)
def test_rescaled_observables_scale_every_relation(seed, dim, n, k):
    # Every relation is homogeneous in the observables, of degree 2 (4 for
    # the product bound), so scaling them by 10^k scales both sides alike
    # and cannot change a verdict.
    obs, psi = random_instance(dim, n, seed)
    factor = 10.0**k
    unit = evaluate_all(obs, psi, include_pairwise=True)
    scaled = evaluate_all(
        ObservableSet(tuple(factor * ob for ob in obs)), psi, include_pairwise=True
    )
    assert [type(r) for r in scaled] == [type(r) for r in unit]
    for a, b in zip(unit, scaled):
        if isinstance(a, SkippedRelation):
            continue
        power = factor ** (4 if a.relation is Relation.ROBERTSON else 2)
        size = power * max(abs(a.lhs), abs(a.rhs))
        assert abs(b.lhs - power * a.lhs) <= 1e-9 * size, a.relation
        assert abs(b.rhs - power * a.rhs) <= 1e-9 * size, a.relation
        assert a.holds and b.holds, a.relation


def _random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_density(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def _assert_same_reports(before, after):
    """Same relations, pairs and verdicts; values within 1e-9 of max(1, |lhs|)."""
    assert [(type(r), r.relation) for r in after] == [(type(r), r.relation) for r in before]
    for a, b in zip(before, after):
        if isinstance(a, SkippedRelation):
            continue
        scale = max(1.0, abs(a.lhs))
        assert abs(b.lhs - a.lhs) <= 1e-9 * scale, a.relation
        assert abs(b.rhs - a.rhs) <= 1e-9 * scale, a.relation
        assert (b.pair, b.holds) == (a.pair, a.holds), a.relation


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from((2, 3, 4)),
    st.sampled_from((2, 3, 4, 5)),
    st.booleans(),
)
def test_joint_unitary_leaves_every_relation_unchanged(seed, dim, n, mixed):
    # Every relation depends on the state and the observables only through
    # traces of their products, which a joint change of basis preserves.
    obs, psi = random_instance(dim, n, seed)
    u = _random_unitary(dim, seed + 1)
    rotated = ObservableSet(tuple(Observable(u @ ob.matrix @ u.conj().T) for ob in obs))
    if mixed:
        rho = _random_density(dim, seed + 2)
        state, turned = DensityMatrix(rho), DensityMatrix(u @ rho @ u.conj().T)
    else:
        state, turned = psi, PureState(u @ psi.amplitudes)
    _assert_same_reports(
        evaluate_all(obs, state, include_pairwise=True),
        evaluate_all(rotated, turned, include_pairwise=True),
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from((2, 3, 4)),
    st.sampled_from((2, 3, 4, 5)),
    st.booleans(),
)
def test_permuting_observables_leaves_sum_form_bounds_unchanged(seed, dim, n, mixed):
    # The seven sum-form bounds are symmetric in the observables.
    obs, psi = random_instance(dim, n, seed)
    state = DensityMatrix(_random_density(dim, seed + 2)) if mixed else psi
    order = np.random.default_rng(seed + 3).permutation(n)
    permuted = ObservableSet(tuple(obs[int(k)] for k in order))
    _assert_same_reports(evaluate_all(obs, state), evaluate_all(permuted, state))
