import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as o
from uncrel import (
    BlochAngles,
    PAIRWISE_RELATIONS,
    PureState,
    Relation,
    SUM_FORM_RELATIONS,
    StokesVector,
    bloch_to_state,
    closed_form_bounds,
    evaluate_all,
    moments_from_angles,
    pauli,
    pauli_triple,
    stokes_to_density,
)
from uncrel.core import moment_table, state_array
from uncrel.qubit import moments_from_kets, pauli_table
from uncrel.relations import SkippedRelation, bound_values

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def engine_moments(state):
    """Means and variances of the Pauli triple from the matrix engine's table."""
    m, C, _ = moment_table(pauli_triple().stack, state_array(state))
    return m, C.real.diagonal()


def stokes_ratios(s):
    """The Pauli expectations of a Stokes vector, ``s_i / s0``."""
    return s.s1 / s.s0, s.s2 / s.s0, s.s3 / s.s0


def rhs(e, relation):
    """One closed-form bound at the expectation triple ``e``."""
    return closed_form_bounds(*e)[1][relation]


def lhs(e):
    """The closed-form lhs, ``3 - v``, at the expectation triple ``e``."""
    return closed_form_bounds(*e)[0]


angles = st.builds(
    BlochAngles,
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
)


# -- Pauli operators ----------------------------------------------------------

def test_pauli_matrices_are_standard():
    np.testing.assert_array_equal(pauli("x").matrix, o.PX)
    np.testing.assert_array_equal(pauli("y").matrix, o.PY)
    np.testing.assert_array_equal(pauli("z").matrix, o.PZ)


def test_pauli_involution_and_trace():
    for axis in "xyz":
        m = pauli(axis).matrix
        np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-15)
        assert abs(np.trace(m)) < 1e-15


def test_pauli_unknown_axis():
    with pytest.raises(ValueError, match="axis"):
        pauli("w")


def test_pauli_triple_order():
    triple = pauli_triple()
    np.testing.assert_array_equal(triple.stack, np.array(o.PAULIS))
    for ob, matrix in zip(triple.observables, o.PAULIS, strict=True):
        np.testing.assert_array_equal(ob.matrix, matrix)


# -- Bloch angles and states --------------------------------------------------

def test_bloch_angles_range_checks():
    with pytest.raises(ValueError):
        BlochAngles(-0.1, 0.0)
    with pytest.raises(ValueError):
        BlochAngles(math.pi + 0.1, 0.0)
    with pytest.raises(ValueError):
        BlochAngles(0.0, 7.0)


def test_bloch_angles_clip_grid_slop():
    # linspace endpoints can overshoot by an ulp; that must not raise
    a = BlochAngles(math.pi + 5e-13, 2.0 * math.pi + 5e-13)
    assert a.theta == math.pi
    assert a.phi == 2.0 * math.pi


def test_bloch_to_state_poles():
    np.testing.assert_allclose(
        bloch_to_state(BlochAngles(0.0, 0.0)).amplitudes, o.KET0, atol=1e-15
    )
    np.testing.assert_allclose(
        bloch_to_state(BlochAngles(math.pi, 0.0)).amplitudes, o.KET1, atol=1e-12
    )


def test_bloch_to_state_third_turn():
    got = bloch_to_state(BlochAngles(math.pi / 3, 0.0)).amplitudes
    np.testing.assert_allclose(got, [SQRT3 / 2.0, 0.5], atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(angles)
def test_pauli_axis_mapping_dual_path(a):
    # analytic sin/cos expressions against the matrix expectation values
    state = bloch_to_state(a)
    ex = math.sin(a.theta) * math.cos(a.phi)
    ey = math.sin(a.theta) * math.sin(a.phi)
    ez = math.cos(a.theta)
    means, _ = engine_moments(state)
    assert means[0] == pytest.approx(ex, abs=1e-12)
    assert means[1] == pytest.approx(ey, abs=1e-12)
    assert means[2] == pytest.approx(ez, abs=1e-12)


# -- moments ------------------------------------------------------------------

def check_moments(triple, **stated):
    """The stated moment values hold at ``triple`` and fix its closed forms.

    The values are pinned on the raw-matrix oracle, which then feeds the
    paper's closed forms; the library's lhs and seven bounds must match.
    """
    moments = o.pauli_moments(*triple)
    for name, value in stated.items():
        assert moments[name] == pytest.approx(value, abs=1e-12), name
    check_closed_forms(triple, moments)


def check_closed_forms(triple, moments):
    """The library's lhs and seven bounds at ``triple`` are the paper's
    closed forms of ``moments``."""
    expected = o.pauli_closed_forms(**moments)
    assert lhs(triple) == pytest.approx(expected["lhs"], abs=1e-12)
    for rel in SUM_FORM_RELATIONS:
        assert rhs(triple, rel) == pytest.approx(
            expected[rel.label], abs=1e-12
        ), rel.label


def test_moments_from_angles_pole():
    m = moments_from_angles(0.0, 0.0)
    assert m == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)
    check_moments(m, v=1.0, d=0.0, e=1.0, h=1.0)


def test_moments_from_angles_equator_points():
    m = moments_from_angles(math.pi / 2, math.pi / 2)
    assert m == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)
    m = moments_from_angles(math.pi / 2, math.pi / 4)
    assert m[0] == pytest.approx(SQRT2 / 2.0, abs=1e-12)
    assert m[1] == pytest.approx(SQRT2 / 2.0, abs=1e-12)
    assert o.pauli_moments(*m)["v"] == pytest.approx(1.0, abs=1e-12)
    # sigma_x + sigma_y has variance 0 here, at the kink of its square root,
    # where the raw-matrix oracle's std is 2.6e-8 off: pin the exact moments.
    r = math.sqrt(1.5)
    check_closed_forms(m, dict(v=1.0, d=0.5, e=SQRT2, h=SQRT2, lp=0.0, lm=SQRT2,
                               mp=r, mm=r, np_=r, nm=r))


def test_moments_from_kets_match_the_oracle_and_keep_their_bits_in_any_block():
    rng = np.random.default_rng(43)
    kets = rng.normal(size=(1024, 2)) + 1j * rng.normal(size=(1024, 2))
    kets /= np.linalg.norm(kets, axis=1)[:, None]
    moments = np.array(moments_from_kets(kets))
    expected = np.array([[o.expect(p, ket) for p in o.PAULIS] for ket in kets]).T
    np.testing.assert_allclose(moments, expected, rtol=0, atol=1e-15)
    alone = np.array([moments_from_kets(ket) for ket in kets]).T
    assert np.array_equal(alone, moments)
    for size in (7, 512):
        blocks = [moments_from_kets(kets[k : k + size]) for k in range(0, len(kets), size)]
        assert np.array_equal(np.concatenate(blocks, axis=1), moments), size


def test_moments_from_expectations_x_axis():
    check_moments(
        (1.0, 0.0, 0.0), d=0.0, e=1.0, h=1.0,
        lp=1.0, lm=1.0, mp=SQRT2, mm=SQRT2, np_=1.0, nm=1.0,
    )


def test_moments_from_expectations_center():
    m = (0.0, 0.0, 0.0)
    assert lhs(m) == 3.0  # v == 0 exactly
    check_moments(m, **{name: SQRT2 for name in ("lp", "lm", "mp", "mm", "np_", "nm")})


def test_moments_from_expectations_diagonal():
    r = 1.0 / SQRT3
    check_moments((r, r, r), v=1.0, d=1.0, e=SQRT3, h=SQRT3)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
def test_moment_triangle_and_ranges(ex, ey, ez):
    # scale into the ball so construction always succeeds
    length = math.sqrt(ex * ex + ey * ey + ez * ez)
    if length > 1.0:
        ex, ey, ez = ex / length, ey / length, ez / length
    m = (ex, ey, ez)
    # h and e, read back out of the library's T3 and T1 bounds given v and d
    # from the oracle
    oracle = o.pauli_moments(ex, ey, ez)
    base = 3.0 - oracle["v"] - 2.0 * oracle["d"]
    h = rhs(m, Relation.TRIPLE_PAIRWISE)
    e = (rhs(m, Relation.TRIPLE_SUM) - base / 3.0) * SQRT3 / 2.0
    assert h >= e - 1e-12
    # the six pair deviations from the same formula set: Var(A_i + A_j) is
    # twice the deviation bound, Var(A_i - A_j) follows by the parallelogram law
    pair_lhs, half_plus = bound_values(pauli_table(ex, ey, ez))[
        Relation.MACCONE_PATI_DEVIATION
    ]
    for var in (*(2.0 * half_plus), *(2.0 * (pair_lhs - half_plus))):
        assert -1e-12 <= math.sqrt(max(var, 0.0)) <= SQRT2 + 1e-12


# -- closed forms -------------------------------------------------------------

def test_closed_form_anchor_values():
    m = moments_from_angles(0.0, 0.0)
    assert lhs(m) == pytest.approx(2.0, abs=1e-12)
    assert rhs(m, Relation.TRIPLE_COMMUTATOR) == pytest.approx(o.ANCHOR_T2, abs=1e-12)
    assert rhs(m, Relation.SONG) == pytest.approx(o.ANCHOR_M4, abs=1e-12)


def test_closed_form_center_pair_bound():
    m = (0.0, 0.0, 0.0)
    assert rhs(m, Relation.SUM_PLUS) == pytest.approx(1.5, abs=1e-12)
    assert lhs(m) == pytest.approx(3.0, abs=1e-12)


def test_closed_forms_hold_no_pairwise_entry():
    _, bounds = closed_form_bounds(*moments_from_angles(1.0, 2.0))
    assert not set(bounds) & set(PAIRWISE_RELATIONS)


@settings(max_examples=80, deadline=None)
@given(angles)
def test_pure_state_total_variance_is_two(a):
    assert lhs(moments_from_angles(a.theta, a.phi)) == pytest.approx(2.0, abs=1e-12)
    # dual path through the matrix engine
    total = sum(engine_moments(bloch_to_state(a))[1])
    assert total == pytest.approx(2.0, abs=1e-12)


def test_closed_forms_match_engine_sample():
    # the acceptance suite runs the 10^4-point version of this check
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = BlochAngles(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))
        m = moments_from_angles(a.theta, a.phi)
        reports = {
            r.relation: r
            for r in evaluate_all(pauli_triple(), bloch_to_state(a))
            if not isinstance(r, SkippedRelation)
        }
        for rel in SUM_FORM_RELATIONS:
            assert rhs(m, rel) == pytest.approx(reports[rel].rhs, abs=1e-12), rel.label


def _exact_closed_forms(signs):
    """The paper's closed forms at the Bloch vector ``signs / sqrt(2)``, two
    signs +-1 and one 0, from moments whose squares are exact fractions."""
    p = [[Fraction(a * b, 2) for b in signs] for a in signs]  # e_a e_b

    def std(a, b, sign):
        return math.sqrt(2 - (p[a][a] + p[b][b] + 2 * sign * p[a][b]))

    d = p[0][1] + p[1][2] + p[2][0]
    magnitudes = sum(abs(x) for row in p for x in row)  # (|ex| + |ey| + |ez|)^2
    return o.pauli_closed_forms(
        v=1, d=d, e=math.sqrt(1 + 2 * d), h=math.sqrt(magnitudes),
        lp=std(0, 1, 1), lm=std(0, 1, -1), mp=std(1, 2, 1), mm=std(1, 2, -1),
        np_=std(2, 0, 1), nm=std(2, 0, -1),
    )


def test_bounds_exact_where_a_pair_variance_vanishes():
    # At the 12 states (+-e_i +-e_j)/sqrt(2) one of Var(sigma_i +- sigma_j)
    # is exactly 0, at the kink of its square root; both routes must give
    # the exact bounds.
    for signs in itertools.product((-1, 0, 1), repeat=3):
        if sorted(map(abs, signs)) != [0, 1, 1]:
            continue
        theta = math.pi / 2.0 - signs[2] * math.pi / 4.0
        phi = math.atan2(signs[1], signs[0]) % (2.0 * math.pi)
        expected = _exact_closed_forms(signs)
        m = moments_from_angles(theta, phi)
        assert lhs(m) == pytest.approx(expected["lhs"], abs=1e-12), signs
        reports = {
            r.relation: r
            for r in evaluate_all(pauli_triple(), PureState(o.ket(theta, phi)))
            if not isinstance(r, SkippedRelation)
        }
        for rel in SUM_FORM_RELATIONS:
            want = pytest.approx(expected[rel.label], abs=1e-12)
            assert rhs(m, rel) == want, (signs, rel.label)
            assert reports[rel].rhs == want, (signs, rel.label)
            assert reports[rel].lhs == pytest.approx(expected["lhs"], abs=1e-12), signs


@pytest.mark.parametrize("mode", ["theta", "phi"])
def test_grid_trig_matches_per_point_math_bit_for_bit(mode):
    # Exact sweeps take the whole grid's expectations from np.sin and
    # np.cos; on the 10,001-point grids at the default fixed angles (phi 0,
    # theta pi/3) they must have the bits of math.sin and math.cos point by
    # point, or the sweep output would change with the numpy build.
    steps = 10_001
    if mode == "theta":
        theta, phi = np.linspace(0.0, math.pi, steps), np.zeros(steps)
    else:
        theta, phi = np.full(steps, math.pi / 3.0), np.linspace(0.0, 2.0 * math.pi, steps)
    got = np.array(moments_from_angles(theta, phi))
    want = np.array([
        (math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t))
        for t, p in zip(theta.tolist(), phi.tolist())
    ]).T
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_closed_form_bounds_vectorized_matches_scalar():
    rng = np.random.default_rng(3)
    ex = rng.uniform(-0.55, 0.55, size=40)
    ey = rng.uniform(-0.55, 0.55, size=40)
    ez = rng.uniform(-0.55, 0.55, size=40)
    total, bounds = closed_form_bounds(ex, ey, ez)
    assert list(bounds) == list(SUM_FORM_RELATIONS)
    for k in range(ex.size):
        m = (ex[k], ey[k], ez[k])
        assert total[k] == pytest.approx(lhs(m), abs=1e-12)
        for rel in SUM_FORM_RELATIONS:
            assert bounds[rel][k] == pytest.approx(rhs(m, rel), abs=1e-12)


def _closed_form_rows(ex, ey, ez):
    """``closed_form_bounds`` as one ``(8, ...)`` array: the lhs, then the seven rhs."""
    total, bounds = closed_form_bounds(ex, ey, ez)
    return np.array([total, *bounds.values()])


@pytest.fixture(scope="module")
def triple_pool():
    """2,049 expectation triples and the closed forms of each, computed alone.

    The first ones are +-0.0 in every axis, the poles and points outside the
    Bloch ball; then Bloch-sphere points, and 24,000-shot bootstrap
    estimates, some of them outside the ball.
    """
    special = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (-0.0, 0.0, 1.0), (0.0, -0.0, -1.0),
               (-0.0, -0.0, 1.0), (-0.0, -0.0, -0.0), (0.0, 0.0, 0.0), (1.0, -0.0, 0.0),
               (-0.0, -1.0, -0.0), (1.02, 0.9, 0.0), (-1.0, -1.0, -1.0), (1.1, -1.1, 1.1)]
    rng = np.random.default_rng(29)
    sphere = moments_from_angles(rng.uniform(0.0, math.pi, 1019), rng.uniform(0.0, 2.0 * math.pi, 1019))
    p_up = np.array([0.5, 0.99995, 0.5 + 0.5 * SQRT2 / SQRT3])[:, None]
    shots = (2.0 * rng.binomial(24000, p_up, size=(3, 1018)) - 24000) / 24000
    triples = np.concatenate([np.array(special).T, sphere, shots], axis=1)
    alone = np.array([_closed_form_rows(*map(float, e)) for e in triples.T]).T
    return triples, alone


@pytest.mark.parametrize("size", [2047, 2048, 2049, 20001])
def test_closed_form_bounds_in_slices_are_the_bits_of_each_triple_alone(triple_pool, size):
    triples, alone = triple_pool
    picks = np.arange(size) if size <= triples.shape[1] else np.random.default_rng(size).integers(
        0, triples.shape[1], size)
    got = _closed_form_rows(*triples[:, picks])
    assert got.shape == (8, size)
    # Same bits, so -0.0 and 0.0 differ here.
    np.testing.assert_array_equal(got.view(np.uint64), alone[:, picks].view(np.uint64))


def test_closed_form_bounds_keep_the_input_shape():
    total, bounds = closed_form_bounds(0.1, -0.2, 0.3)
    assert np.shape(total) == () and all(np.shape(v) == () for v in bounds.values())
    e = np.random.default_rng(4).uniform(-1.0, 1.0, size=(3, 4, 5))
    got = _closed_form_rows(*e)
    assert got.shape == (8, 4, 5)
    np.testing.assert_array_equal(got.reshape(8, -1), _closed_form_rows(*e.reshape(3, -1)))


@pytest.mark.parametrize("ex, ey, ez", [
    (np.zeros(3), np.zeros(3), 0.0),
    (np.zeros(3), np.zeros(4), np.zeros(3)),
    (np.zeros((2, 3)), np.zeros((3, 2)), np.zeros((2, 3))),
], ids=["array-and-float", "lengths", "transposed"])
def test_closed_form_bounds_refuse_inputs_of_mismatched_shapes(ex, ey, ez):
    with pytest.raises(ValueError):
        closed_form_bounds(ex, ey, ez)


def test_closed_form_bounds_clamps_outside_ball_radicands():
    # bootstrap replicates may push a pair sum past sqrt(2); no NaNs allowed
    total, bounds = closed_form_bounds(1.02, 0.9, 0.0)
    assert list(bounds) == list(SUM_FORM_RELATIONS)
    assert np.isfinite(total)
    for rel, value in bounds.items():
        assert np.isfinite(value), rel.label


# -- Stokes interface ---------------------------------------------------------

def test_stokes_vector_contracts():
    with pytest.raises(ValueError, match="s0"):
        StokesVector(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="polarized"):
        StokesVector(1.0, 1.0, 1.0, 0.0)
    StokesVector(2.0, 1.0, 1.0, 1.0)  # inside, fine


@pytest.mark.parametrize("s", [1e-200, 1.0, 1e200])
def test_stokes_vector_is_judged_alike_at_every_intensity(s):
    # s1^2 + s2^2 + s3^2 and s0^2 underflow to 0 at 1e-200 and overflow to inf
    # at 1e200, so only the ratios s_i / s0 tell these vectors apart.
    with pytest.raises(ValueError, match=r"^polarized intensity .* exceeds s0\^2 = "):
        StokesVector(s, s, s, 0.0)
    edge = stokes_to_density(StokesVector(s, 0.0, s, 0.0))
    np.testing.assert_allclose(edge.matrix, [[0.5, -0.5j], [0.5j, 0.5]], atol=1e-15)


@pytest.mark.parametrize("make, args, field", [
    (BlochAngles, (10**400,), "theta"),
    (BlochAngles, (0.5, 10**400), "phi"),
    (StokesVector, (1, 10**400, 0, 0), "s1"),
], ids=["theta", "phi", "stokes-s1"])
def test_ints_beyond_the_float_range_are_refused_as_value_errors(make, args, field):
    with pytest.raises(ValueError, match=f"^{field}\\b"):
        make(*args)


@pytest.mark.parametrize("args, field", [
    ((math.inf, 1.0, 1.0, 1.0), "s0"),
    ((math.inf, 0.0, 0.0, 0.0), "s0"),
    ((math.inf, math.inf, 0.0, 0.0), "s0"),
    ((1.0, math.nan, 0.0, 0.0), "s1"),
    ((1.0, 0.0, math.nan, 0.0), "s2"),
    ((1.0, 0.0, 0.0, math.nan), "s3"),
], ids=["inf-s0", "inf-s0-unpolarized", "inf-s0-s1", "nan-s1", "nan-s2", "nan-s3"])
def test_stokes_vector_refuses_non_finite_fields_by_name(args, field):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got (inf|nan)$"):
        StokesVector(*args)


@pytest.mark.parametrize("args, message", [
    ((math.nan, 0.0, 0.0, 0.0), "s0 must be positive, got nan"),
    ((-math.inf, 0.0, 0.0, 0.0), "s0 must be positive, got -inf"),
    ((1.0, math.inf, 0.0, 0.0), "polarized intensity inf exceeds s0^2 = 1.0"),
    ((1.0, 0.0, -math.inf, 0.0), "polarized intensity inf exceeds s0^2 = 1.0"),
    ((math.inf, 10**400, 0.0, 0.0), "s1 / s0 is too large for a float"),
], ids=["nan-s0", "minus-inf-s0", "inf-s1", "minus-inf-s2", "inf-s0-huge-int-s1"])
def test_stokes_vector_non_finite_refusals_of_other_checks_keep_their_message(args, message):
    with pytest.raises(ValueError) as refused:
        StokesVector(*args)
    assert str(refused.value) == message


def test_stokes_vector_at_an_int_intensity_beyond_the_float_range_is_accepted():
    rho = stokes_to_density(StokesVector(10**400, 1, 0, 0))  # every ratio is 0
    np.testing.assert_array_equal(rho.matrix, np.eye(2) / 2.0)


def test_stokes_to_density_unpolarized():
    rho = stokes_to_density(StokesVector(1.0, 0.0, 0.0, 0.0))
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2.0, atol=1e-15)


def test_stokes_to_density_z_polarized():
    rho = stokes_to_density(StokesVector(1.0, 0.0, 0.0, 1.0))
    np.testing.assert_allclose(rho.matrix, np.outer(o.KET0, o.KET0.conj()), atol=1e-15)


def test_stokes_to_density_x_polarized_is_pure():
    rho = stokes_to_density(StokesVector(2.0, 2.0, 0.0, 0.0))
    purity = float(np.trace(rho.matrix @ rho.matrix).real)
    assert purity == pytest.approx(1.0, abs=1e-12)
    assert engine_moments(rho)[0][0] == pytest.approx(1.0, abs=1e-12)


def test_stokes_expectations_recovered():
    s = StokesVector(4.0, 1.0, -2.0, 2.0)
    rho = stokes_to_density(s)
    means, _ = engine_moments(rho)
    assert means[0] == pytest.approx(0.25, abs=1e-12)
    assert means[1] == pytest.approx(-0.5, abs=1e-12)
    assert means[2] == pytest.approx(0.5, abs=1e-12)


def test_moments_from_stokes_examples():
    check_moments(stokes_ratios(StokesVector(1.0, 1.0, 0.0, 0.0)), v=1.0, h=1.0)
    check_moments(stokes_ratios(StokesVector(1.0, 0.0, 0.0, 0.0)), v=0.0, e=0.0, h=0.0)
    check_moments(stokes_ratios(StokesVector(2.0, 1.0, 1.0, 1.0)), v=0.75, d=0.75, e=1.5, h=1.5)


def test_moments_from_stokes_dual_path():
    rng = np.random.default_rng(29)
    for _ in range(50):
        direction = rng.standard_normal(3)
        direction *= rng.uniform(0.0, 1.0) / np.linalg.norm(direction)
        s0 = rng.uniform(0.5, 5.0)
        s = StokesVector(s0, *(s0 * direction))
        via_stokes = stokes_ratios(s)
        # the density-matrix route through the matrix engine
        rho = stokes_to_density(s)
        assert tuple(engine_moments(rho)[0]) == pytest.approx(tuple(direction), abs=1e-12)
        reports = [
            r for r in evaluate_all(pauli_triple(), rho)
            if not isinstance(r, SkippedRelation)
        ]
        for rep in reports:
            assert lhs(via_stokes) == pytest.approx(rep.lhs, abs=1e-12)
            assert rhs(via_stokes, rep.relation) == pytest.approx(
                rep.rhs, abs=1e-12
            ), rep.relation.label


def test_stokes_round_trip():
    s = StokesVector(3.0, 0.9, -1.2, 1.5)
    # the Pauli means of the reconstructed density matrix give s_i / s0 back
    back, _ = engine_moments(stokes_to_density(s))
    assert back[0] == pytest.approx(s.s1 / s.s0, abs=1e-12)
    assert back[1] == pytest.approx(s.s2 / s.s0, abs=1e-12)
    assert back[2] == pytest.approx(s.s3 / s.s0, abs=1e-12)


def test_mixed_state_total_variance_identity():
    # 3 - v equals the summed Pauli variances for interior (mixed) states too
    rng = np.random.default_rng(41)
    for _ in range(25):
        direction = rng.standard_normal(3)
        direction *= rng.uniform(0.0, 0.999) / np.linalg.norm(direction)
        s = StokesVector(1.0, *direction)
        rho = stokes_to_density(s)
        total = sum(engine_moments(rho)[1])
        assert total == pytest.approx(lhs(stokes_ratios(s)), abs=1e-12)
