import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as o
from uncrel import (
    ConsistencyError,
    DensityMatrix,
    DimensionError,
    Observable,
    ObservableSet,
    PureState,
    UnsupportedDimensionError,
    deviation_state,
    evaluate_all,
    orthogonal_qubit,
    random_observable,
    random_pure_state,
)
from uncrel.core import moment_table, state_array

KET0 = PureState(o.KET0)
KET1 = PureState(o.KET1)
MIXED = DensityMatrix(np.eye(2) / 2.0)

angles = st.tuples(
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
)


def bloch_ket(theta, phi):
    return PureState(o.ket(theta, phi))


def table(state, *observables):
    """Means and second moments of ``observables`` from the one moment table."""
    m, G, _ = moment_table(np.array([ob.matrix for ob in observables]), state_array(state))
    return m, G


def mean(obs, state):
    return table(state, obs)[0][0]


def var(obs, state):
    m, G = table(state, obs)
    return G[0, 0].real - m[0] * m[0]


def comm(a, b, state):
    """<[A, B]> = 2i Im G_ab."""
    return 2j * table(state, a, b)[1][0, 1].imag


# -- construction contracts ---------------------------------------------------

def test_observable_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_observable_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        Observable(np.ones((2, 3)))


def test_observable_rejects_dim_one():
    with pytest.raises(UnsupportedDimensionError):
        Observable(np.array([[1.0]]))


def test_observable_stores_readonly_copy():
    source = np.array([[1.0, 0.0], [0.0, -1.0]])
    obs = Observable(source)
    source[0, 0] = 99.0
    assert obs.matrix[0, 0] == 1.0
    with pytest.raises(ValueError):
        obs.matrix[0, 0] = 5.0


def test_observable_arithmetic():
    sx, sz = Observable(o.PX), Observable(o.PZ)
    np.testing.assert_allclose((sx + sz).matrix, o.PX + o.PZ)
    np.testing.assert_allclose((sx - sz).matrix, o.PX - o.PZ)
    np.testing.assert_allclose((2.0 * sx).matrix, 2.0 * o.PX)
    np.testing.assert_allclose((sx * 3).matrix, 3.0 * o.PX)


def test_observable_add_mismatched_dims():
    with pytest.raises(DimensionError):
        Observable(o.PX) + Observable(np.eye(3))


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        PureState(np.array([1.0, 1.0]))


def test_pure_state_density_is_projector():
    rho = bloch_ket(0.7, 1.1).density()
    np.testing.assert_allclose(rho.matrix @ rho.matrix, rho.matrix, atol=1e-14)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-14


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_constructors_reject_non_finite_entries():
    with pytest.raises(ValueError):
        PureState(np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        PureState(np.array([complex(0.0, np.inf), 0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        Observable(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(np.array([[np.inf, 0.0], [0.0, 0.0]]))


def test_density_matrix_rejects_non_hermitian():
    m = np.array([[0.5, 0.5], [0.0, 0.5]])
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(m)


# -- expectation --------------------------------------------------------------

def test_expectation_eigenstate():
    assert mean(Observable(o.PZ), KET0) == pytest.approx(1.0, abs=1e-12)


def test_expectation_equator_x():
    state = bloch_ket(math.pi / 2, 0.0)
    got = mean(Observable(o.PX), state)
    assert got == pytest.approx(o.expect(o.PX, state.amplitudes), abs=1e-12)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_expectation_maximally_mixed():
    assert mean(Observable(o.PY), MIXED) == pytest.approx(0.0, abs=1e-12)


def test_expectation_dimension_mismatch():
    qutrit = Observable(np.eye(3))
    with pytest.raises(DimensionError):
        evaluate_all(ObservableSet((qutrit, qutrit)), KET0)


def test_expectation_pure_vs_projector():
    obs = random_observable(3, seed=11)
    psi = random_pure_state(3, seed=12)
    assert mean(obs, psi) == pytest.approx(
        mean(obs, psi.density()), abs=1e-12
    )


# -- variance -----------------------------------------------------------------

def test_variance_eigenstate_is_zero():
    assert var(Observable(o.PZ), KET0) == 0.0


def test_variance_conjugate_axis():
    assert var(Observable(o.PX), KET0) == pytest.approx(1.0, abs=1e-12)


def test_variance_summed_observable():
    total = Observable(o.PX + o.PY + o.PZ)
    got = var(total, KET0)
    assert got == pytest.approx(o.var(o.PX + o.PY + o.PZ, o.KET0), abs=1e-12)
    assert got == pytest.approx(2.0, abs=1e-12)


def test_variance_mixed_state_matches_oracle():
    obs = random_observable(2, seed=21)
    rho = MIXED
    assert var(obs, rho) == pytest.approx(
        o.var(obs.matrix, rho.matrix), abs=1e-10
    )


@settings(max_examples=60, deadline=None)
@given(angles, st.integers(min_value=0, max_value=10_000))
def test_variance_equals_deviation_norm_squared(ang, obs_seed):
    # Two independent paths: <A^2> - <A>^2 versus |(A - <A>) psi|^2.
    psi = bloch_ket(*ang)
    obs = random_observable(2, seed=obs_seed)
    norm, _ = deviation_state(obs, psi)
    assert var(obs, psi) == pytest.approx(norm * norm, abs=1e-10)


# -- commutator expectation ---------------------------------------------------

def test_commutator_pauli_pair():
    got = comm(Observable(o.PX), Observable(o.PY), KET0)
    assert got == pytest.approx(2j, abs=1e-12)


def test_commutator_self_is_zero():
    got = comm(Observable(o.PX), Observable(o.PX), KET0)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_commutator_cyclic_pair_on_equator():
    state = bloch_ket(math.pi / 2, 0.0)
    got = comm(Observable(o.PY), Observable(o.PZ), state)
    assert got == pytest.approx(2j, abs=1e-12)


def test_commutator_swap_symmetry():
    # Swapping the arguments negates the value and conjugates it; together
    # the two identities force the expectation onto the imaginary axis.
    a = random_observable(3, seed=31)
    b = random_observable(3, seed=32)
    psi = random_pure_state(3, seed=33)
    fwd = comm(a, b, psi)
    rev = comm(b, a, psi)
    assert fwd == pytest.approx(-rev, abs=1e-12)
    assert fwd == pytest.approx(np.conj(rev), abs=1e-12)
    assert abs(fwd.real) < 1e-10


def test_commutator_mixed_state_matches_oracle():
    a, b = Observable(o.PX), Observable(o.PZ)
    rho = DensityMatrix(np.diag([0.7, 0.3]))
    assert comm(a, b, rho) == pytest.approx(
        o.comm_expect(o.PX, o.PZ, rho.matrix), abs=1e-12
    )


# -- deviation state ----------------------------------------------------------

def test_deviation_state_eigenstate():
    norm, direction = deviation_state(Observable(o.PZ), KET0)
    assert norm == 0.0
    assert direction is None


def test_deviation_state_pauli_x():
    norm, direction = deviation_state(Observable(o.PX), KET0)
    assert norm == pytest.approx(1.0, abs=1e-12)
    # sigma_x |0> = |1>, so the direction is |1> up to global phase
    assert abs(np.vdot(o.KET1, direction.amplitudes)) == pytest.approx(1.0, abs=1e-12)


def test_deviation_state_summed_pair():
    norm, direction = deviation_state(Observable(o.PX + o.PY), KET0)
    assert norm == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert abs(np.vdot(o.KET0, direction.amplitudes)) < 1e-10


def test_deviation_norm_is_standard_deviation():
    for seed in range(8):
        obs = random_observable(3, seed=seed)
        psi = random_pure_state(3, seed=100 + seed)
        norm, _ = deviation_state(obs, psi)
        assert norm == pytest.approx(math.sqrt(var(obs, psi)), abs=1e-10)


# -- orthogonal qubit ---------------------------------------------------------

def test_orthogonal_qubit_basis():
    got = orthogonal_qubit(KET0)
    np.testing.assert_allclose(got.amplitudes, o.KET1, atol=1e-15)


def test_orthogonal_qubit_plus_state():
    plus = bloch_ket(math.pi / 2, 0.0)
    got = orthogonal_qubit(plus)
    assert abs(np.vdot(plus.amplitudes, got.amplitudes)) < 1e-12
    # stated convention (a, b) -> (-conj(b), conj(a))
    expected = np.array([-1.0, 1.0]) / math.sqrt(2.0)
    np.testing.assert_allclose(got.amplitudes, expected, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(angles)
def test_orthogonal_qubit_property(ang):
    psi = bloch_ket(*ang)
    perp = orthogonal_qubit(psi)
    assert abs(np.vdot(psi.amplitudes, perp.amplitudes)) < 1e-12
    assert np.linalg.norm(perp.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_qubit_rejects_qutrit():
    with pytest.raises(UnsupportedDimensionError):
        orthogonal_qubit(random_pure_state(3, seed=5))


# -- random generation --------------------------------------------------------

def test_random_pure_state_deterministic():
    first = random_pure_state(2, seed=42)
    second = random_pure_state(2, seed=42)
    np.testing.assert_array_equal(first.amplitudes, second.amplitudes)


def test_random_pure_state_normalized():
    for seed in range(20):
        psi = random_pure_state(5, seed=seed)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_random_pure_state_haar_symmetry():
    # <sigma_z (x) I> averages to zero over many draws in dimension 4.
    obs = Observable(np.kron(o.PZ, np.eye(2)))
    total = 0.0
    for seed in range(10_000):
        total += mean(obs, random_pure_state(4, seed=seed))
    assert abs(total / 10_000) < 0.05


def test_random_observable_deterministic_and_hermitian():
    first = random_observable(2, seed=7)
    second = random_observable(2, seed=7)
    np.testing.assert_array_equal(first.matrix, second.matrix)
    m = random_observable(3, seed=123).matrix
    np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
    assert abs(np.trace(m).imag) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_stream_trials_rebuilt_alone_equal_their_rows_in_any_block(dim):
    """Trial ``t`` sits at a fixed offset of its stream: rebuilt alone from
    the raw Philox words it has the bits of its row in blocks of 1, 7 and
    512, and trial 0 is the single draw."""
    seed, trials = (5, dim, 3, 1), 1030
    rows = {}
    for block in (1, 7, 512):
        starts = range(0, trials, block)
        kets = np.concatenate([
            random_pure_state(dim, seed, range(s, min(s + block, trials))) for s in starts
        ])
        mats = np.concatenate([
            random_observable(dim, seed, range(s, min(s + block, trials))) for s in starts
        ])
        assert kets.shape == (trials, dim) and mats.shape == (trials, dim, dim)
        rows[block] = kets, mats
    for t in range(trials):
        ket, mat = o.stream_ket(seed, t, dim), o.stream_observable(seed, t, dim)
        for kets, mats in rows.values():
            assert np.array_equal(kets[t], ket), t
            assert np.array_equal(mats[t], mat), t
    assert np.array_equal(random_pure_state(dim, seed).amplitudes, o.stream_ket(seed, 0, dim))
    assert np.array_equal(random_observable(dim, seed).matrix, o.stream_observable(seed, 0, dim))


def test_stream_trials_must_be_a_consecutive_range():
    for trials in (range(0), range(0, 10, 2), range(-1, 3)):
        with pytest.raises(ValueError, match="consecutive"):
            random_pure_state(2, 0, trials)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_stream_kets_are_haar_and_companions_orthogonal(dim):
    """Over 10^5 draws the mean of |psi_0|^2 is 1/d within 5 standard
    errors, and every companion is a unit vector orthogonal to its ket."""
    from uncrel.core import orthogonal_companions

    kets = random_pure_state(dim, (0, dim), range(100_000))
    weight = np.abs(kets[:, 0]) ** 2
    error = weight.std(ddof=1) / math.sqrt(weight.size)
    assert abs(weight.mean() - 1.0 / dim) <= 5.0 * error
    perps = orthogonal_companions(kets, random_pure_state(dim, (1, dim), range(100_000)))
    assert np.abs(np.linalg.norm(perps, axis=1) - 1.0).max() <= 1e-12
    assert np.abs(np.einsum("bk,bk->b", kets.conj(), perps)).max() <= 1e-12


def test_degenerate_companion_draw_takes_the_documented_fallback():
    """A draw in the span of its ket becomes ``e_j - conj(psi_j) psi``,
    normalized, with ``j`` the ket's smallest amplitude; other rows keep
    their projected draws."""
    from uncrel.core import DEGENERATE_NORM, orthogonal_companions

    kets = random_pure_state(3, 11, range(3))
    draws = random_pure_state(3, 12, range(3))
    draws[1] = (0.6 - 0.8j) * kets[1]  # parallel to its ket: nothing is left
    draws[2] = kets[2] + 0.1 * DEGENERATE_NORM * draws[2]  # left shorter than the floor
    perps = orthogonal_companions(kets, draws)
    for b in (1, 2):
        psi = kets[b]
        j = int(np.argmin(np.abs(psi)))
        fallback = np.eye(3)[j] - np.conj(psi[j]) * psi
        np.testing.assert_allclose(perps[b], fallback / np.linalg.norm(fallback), rtol=0, atol=1e-15)
        assert abs(np.vdot(psi, perps[b])) <= 1e-15
    v = draws[0] - np.vdot(kets[0], draws[0]) * kets[0]
    np.testing.assert_allclose(perps[0], v / np.linalg.norm(v), rtol=0, atol=1e-15)


def test_variance_consistency_error_on_corrupt_input():
    # A non-normalized vector smuggled past validation would produce a
    # negative "variance" far beyond round-off; the guard must catch it.
    from uncrel.core import moment_table

    bad = np.array([2.0, 0.0], dtype=complex)
    with pytest.raises(ConsistencyError):
        moment_table(o.PZ[None], bad)


def test_batched_moment_table_equals_per_instance_tables():
    from uncrel.core import moment_table
    from uncrel.relations import instance_values

    kets = np.array([random_pure_state(3, seed=s).amplitudes for s in range(40)])
    rhos = np.array([np.outer(k, k.conj()) * 0.6 + np.eye(3) * 0.4 / 3 for k in kets])
    mats = np.array([
        [random_observable(3, seed=100 * s + i).matrix for i in range(4)] for s in range(40)
    ])
    pauli_kets = np.array([random_pure_state(2, seed=s).amplitudes for s in range(40)])
    stack = np.array(o.PAULIS)
    cases = [(mats, kets), (mats, rhos), (stack[None], pauli_kets)]
    for batch_mats, states in cases:
        m, G, W = moment_table(batch_mats, states)
        assert m.shape == (40, batch_mats.shape[1])
        assert G.shape == (40, batch_mats.shape[1], batch_mats.shape[1])
        for b, state in enumerate(states):
            one = moment_table(batch_mats[min(b, len(batch_mats) - 1)], state)
            assert np.array_equal(one[0], m[b])
            assert np.array_equal(one[1], G[b])
            assert (W is None and one[2] is None) or np.array_equal(one[2], W[b])
    # The relations, companion overlaps included, are the same bits for one
    # instance, a batch of one and a row of a batch.  6 observables give 15 pairs, and
    # ndarray.sum adds a contiguous run of 8 or more values pairwise, so
    # this needs every sum over observables and pairs to add rows in order.
    # Any vectors serve as companions for the arithmetic tested here.
    perps = np.array([random_pure_state(3, seed=1000 + s).amplitudes for s in range(40)])
    mats = np.array([
        [random_observable(3, seed=100 * s + i).matrix for i in range(6)] for s in range(40)
    ])
    batched = instance_values(mats, kets, perps)
    assert len(batched) == 7  # every relation but the three triple bounds
    for b in range(40):
        alone = instance_values(mats[b], kets[b], perps[b])
        one = instance_values(mats[b : b + 1], kets[b : b + 1], perps[b : b + 1])
        for rel, entry in batched.items():
            for batch_row, single, row_of_one in zip(entry, alone[rel], one[rel]):
                assert np.array_equal(single, batch_row[b]), rel
                assert np.array_equal(single, row_of_one[0]), rel


def test_batched_moment_table_raises_on_one_corrupt_instance():
    from uncrel.core import moment_table

    kets = np.array([random_pure_state(2, seed=s).amplitudes for s in range(10)])
    stack = np.array(o.PAULIS)[None]
    moment_table(stack, kets)
    kets[7] *= 2.0  # a non-normalized vector: negative variance beyond round-off
    with pytest.raises(ConsistencyError, match="variance"):
        moment_table(stack, kets)
    kets[7] /= 2.0
    kets[3] = [np.inf, 0.0]
    with pytest.raises(ConsistencyError, match="second moment"):
        moment_table(stack, kets)


def test_package_exports_the_public_api():
    # __all__ is computed from the package's imports; this pins it.
    import uncrel

    assert sorted(uncrel.__all__) == sorted([
        "BlochAngles",
        "BoundReport",
        "ConsistencyError",
        "ContractError",
        "DensityMatrix",
        "DimensionError",
        "EstimateWithError",
        "MeasurementRecord",
        "Observable",
        "ObservableSet",
        "OrthogonalityError",
        "PAIRWISE_RELATIONS",
        "PureState",
        "QuantumState",
        "Relation",
        "SUM_FORM_RELATIONS",
        "ShotPlan",
        "SkippedRelation",
        "StokesVector",
        "SweepSpec",
        "SweepTable",
        "UnsupportedCountError",
        "UnsupportedDimensionError",
        "UnsupportedRelationError",
        "UnsupportedStateError",
        "VerificationSummary",
        "__version__",
        "bloch_to_state",
        "bootstrap_bounds",
        "closed_form_bounds",
        "derive_seed",
        "deviation_state",
        "emit",
        "estimate_expectation",
        "evaluate_all",
        "maccone_pati_orthogonal",
        "moments_from_angles",
        "orthogonal_qubit",
        "pauli",
        "pauli_triple",
        "random_observable",
        "random_pure_state",
        "run_sweep",
        "run_verify",
        "simulate_counts",
        "stokes_to_density",
    ])
    for name in uncrel.__all__:
        assert getattr(uncrel, name) is not None
