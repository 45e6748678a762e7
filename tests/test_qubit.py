import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as o
from uncrel import (
    BlochAngles,
    InvalidMomentsError,
    Relation,
    SUM_FORM_RELATIONS,
    StokesVector,
    UnsupportedRelationError,
    bloch_to_state,
    closed_form_bounds,
    closed_form_lhs,
    closed_form_rhs,
    density_to_stokes,
    evaluate_all,
    expectation,
    moments_from_angles,
    moments_from_expectations,
    moments_from_stokes,
    pauli,
    pauli_triple,
    stokes_to_density,
    variance,
)
from uncrel.qubit import pauli_table
from uncrel.relations import SkippedRelation, bound_values

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

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
    np.testing.assert_array_equal(triple[0].matrix, o.PX)
    np.testing.assert_array_equal(triple[1].matrix, o.PY)
    np.testing.assert_array_equal(triple[2].matrix, o.PZ)


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
    assert expectation(pauli("x"), state) == pytest.approx(ex, abs=1e-12)
    assert expectation(pauli("y"), state) == pytest.approx(ey, abs=1e-12)
    assert expectation(pauli("z"), state) == pytest.approx(ez, abs=1e-12)


# -- moments ------------------------------------------------------------------

def check_moments(m, **stated):
    """The stated moment values hold at ``m`` and fix its closed forms.

    The values are pinned on the raw-matrix oracle, which then feeds the
    paper's closed forms; the library's lhs and seven bounds must match.
    """
    moments = o.pauli_moments(m.ex, m.ey, m.ez)
    for name, value in stated.items():
        assert moments[name] == pytest.approx(value, abs=1e-12), name
    expected = o.pauli_closed_forms(**moments)
    assert closed_form_lhs(m) == pytest.approx(expected["lhs"], abs=1e-12)
    for rel in SUM_FORM_RELATIONS:
        assert closed_form_rhs(m, rel) == pytest.approx(
            expected[rel.label], abs=1e-12
        ), rel.label


def test_moments_from_angles_pole():
    m = moments_from_angles(BlochAngles(0.0, 0.0))
    assert (m.ex, m.ey, m.ez) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)
    check_moments(m, v=1.0, d=0.0, e=1.0, h=1.0)


def test_moments_from_angles_equator_points():
    m = moments_from_angles(BlochAngles(math.pi / 2, math.pi / 2))
    assert (m.ex, m.ey, m.ez) == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)
    m = moments_from_angles(BlochAngles(math.pi / 2, math.pi / 4))
    assert m.ex == pytest.approx(SQRT2 / 2.0, abs=1e-12)
    assert m.ey == pytest.approx(SQRT2 / 2.0, abs=1e-12)
    check_moments(m, v=1.0)


def test_moments_from_expectations_x_axis():
    m = moments_from_expectations(1.0, 0.0, 0.0)
    check_moments(
        m, d=0.0, e=1.0, h=1.0,
        lp=1.0, lm=1.0, mp=SQRT2, mm=SQRT2, np_=1.0, nm=1.0,
    )
    assert not m.outside_ball


def test_moments_from_expectations_center():
    m = moments_from_expectations(0.0, 0.0, 0.0)
    assert closed_form_lhs(m) == 3.0  # v == 0 exactly
    check_moments(m, **{name: SQRT2 for name in ("lp", "lm", "mp", "mm", "np_", "nm")})


def test_moments_from_expectations_diagonal():
    r = 1.0 / SQRT3
    m = moments_from_expectations(r, r, r)
    check_moments(m, v=1.0, d=1.0, e=SQRT3, h=SQRT3)


def test_moments_reject_out_of_range_component():
    with pytest.raises(InvalidMomentsError):
        moments_from_expectations(1.2, 0.0, 0.0)


def test_moments_reject_far_outside_ball():
    # components individually fine, squared length far beyond credible
    with pytest.raises(InvalidMomentsError):
        moments_from_expectations(0.9, 0.9, 0.9)


def test_moments_flag_slightly_outside_ball():
    m = moments_from_expectations(1.0, 0.01, 0.0)
    assert m.outside_ball
    m = moments_from_expectations(0.6, 0.0, 0.0)
    assert not m.outside_ball


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
    m = moments_from_expectations(ex, ey, ez)
    # h and e, read back out of the library's T3 and T1 bounds given v and d
    # from the oracle
    oracle = o.pauli_moments(ex, ey, ez)
    base = 3.0 - oracle["v"] - 2.0 * oracle["d"]
    h = closed_form_rhs(m, Relation.TRIPLE_PAIRWISE)
    e = (closed_form_rhs(m, Relation.TRIPLE_SUM) - base / 3.0) * SQRT3 / 2.0
    assert h >= e - 1e-12
    # the six pair deviations from the same formula set: Var(A_i + A_j) is
    # twice the deviation bound, Var(A_i - A_j) follows by the parallelogram law
    pair_lhs, half_plus = bound_values(*pauli_table(ex, ey, ez))[
        Relation.MACCONE_PATI_DEVIATION
    ]
    for var in (*(2.0 * half_plus), *(2.0 * (pair_lhs - half_plus))):
        assert -1e-12 <= math.sqrt(max(var, 0.0)) <= SQRT2 + 1e-12


# -- closed forms -------------------------------------------------------------

def test_closed_form_anchor_values():
    m = moments_from_angles(BlochAngles(0.0, 0.0))
    assert closed_form_lhs(m) == pytest.approx(2.0, abs=1e-12)
    assert closed_form_rhs(m, Relation.TRIPLE_COMMUTATOR) == pytest.approx(
        o.ANCHOR_T2, abs=1e-12
    )
    assert closed_form_rhs(m, Relation.SONG) == pytest.approx(o.ANCHOR_M4, abs=1e-12)


def test_closed_form_center_pair_bound():
    m = moments_from_expectations(0.0, 0.0, 0.0)
    assert closed_form_rhs(m, Relation.SUM_PLUS) == pytest.approx(1.5, abs=1e-12)
    assert closed_form_lhs(m) == pytest.approx(3.0, abs=1e-12)


def test_closed_form_rejects_pairwise_relation():
    m = moments_from_angles(BlochAngles(1.0, 2.0))
    with pytest.raises(UnsupportedRelationError):
        closed_form_rhs(m, Relation.ROBERTSON)


@settings(max_examples=80, deadline=None)
@given(angles)
def test_pure_state_total_variance_is_two(a):
    m = moments_from_angles(a)
    assert closed_form_lhs(m) == pytest.approx(2.0, abs=1e-12)
    # dual path through the matrix engine
    state = bloch_to_state(a)
    total = sum(variance(pauli(axis), state) for axis in "xyz")
    assert total == pytest.approx(2.0, abs=1e-12)


def test_closed_forms_match_engine_sample():
    # the acceptance suite runs the 10^4-point version of this check
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = BlochAngles(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))
        m = moments_from_angles(a)
        reports = {
            r.relation: r
            for r in evaluate_all(pauli_triple(), bloch_to_state(a))
            if not isinstance(r, SkippedRelation)
        }
        for rel in SUM_FORM_RELATIONS:
            assert closed_form_rhs(m, rel) == pytest.approx(
                reports[rel].rhs, abs=1e-12
            ), rel.label


def test_closed_form_bounds_vectorized_matches_scalar():
    rng = np.random.default_rng(3)
    ex = rng.uniform(-0.55, 0.55, size=40)
    ey = rng.uniform(-0.55, 0.55, size=40)
    ez = rng.uniform(-0.55, 0.55, size=40)
    lhs, bounds = closed_form_bounds(ex, ey, ez)
    for k in range(ex.size):
        m = moments_from_expectations(ex[k], ey[k], ez[k])
        assert lhs[k] == pytest.approx(closed_form_lhs(m), abs=1e-12)
        for rel in SUM_FORM_RELATIONS:
            assert bounds[rel][k] == pytest.approx(closed_form_rhs(m, rel), abs=1e-12)


def test_closed_form_bounds_clamps_outside_ball_radicands():
    # bootstrap replicates may push a pair sum past sqrt(2); no NaNs allowed
    lhs, bounds = closed_form_bounds(1.02, 0.9, 0.0)
    assert np.isfinite(lhs)
    for rel, value in bounds.items():
        assert np.isfinite(value), rel.label


# -- Stokes interface ---------------------------------------------------------

def test_stokes_vector_contracts():
    with pytest.raises(ValueError, match="s0"):
        StokesVector(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="polarized"):
        StokesVector(1.0, 1.0, 1.0, 0.0)
    StokesVector(2.0, 1.0, 1.0, 1.0)  # inside, fine


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
    assert expectation(pauli("x"), rho) == pytest.approx(1.0, abs=1e-12)


def test_stokes_expectations_recovered():
    s = StokesVector(4.0, 1.0, -2.0, 2.0)
    rho = stokes_to_density(s)
    assert expectation(pauli("x"), rho) == pytest.approx(0.25, abs=1e-12)
    assert expectation(pauli("y"), rho) == pytest.approx(-0.5, abs=1e-12)
    assert expectation(pauli("z"), rho) == pytest.approx(0.5, abs=1e-12)


def test_moments_from_stokes_examples():
    m = moments_from_stokes(StokesVector(1.0, 1.0, 0.0, 0.0))
    check_moments(m, v=1.0, h=1.0)
    m = moments_from_stokes(StokesVector(1.0, 0.0, 0.0, 0.0))
    check_moments(m, v=0.0, e=0.0, h=0.0)
    m = moments_from_stokes(StokesVector(2.0, 1.0, 1.0, 1.0))
    check_moments(m, v=0.75, d=0.75, e=1.5, h=1.5)


def test_moments_from_stokes_dual_path():
    rng = np.random.default_rng(29)
    for _ in range(50):
        direction = rng.standard_normal(3)
        direction *= rng.uniform(0.0, 1.0) / np.linalg.norm(direction)
        s0 = rng.uniform(0.5, 5.0)
        s = StokesVector(s0, *(s0 * direction))
        via_stokes = moments_from_stokes(s)
        assert (via_stokes.ex, via_stokes.ey, via_stokes.ez) == pytest.approx(
            tuple(direction), abs=1e-12
        )
        # the density-matrix route through the matrix engine
        reports = [
            r for r in evaluate_all(pauli_triple(), stokes_to_density(s))
            if not isinstance(r, SkippedRelation)
        ]
        for rep in reports:
            assert closed_form_lhs(via_stokes) == pytest.approx(rep.lhs, abs=1e-12)
            assert closed_form_rhs(via_stokes, rep.relation) == pytest.approx(
                rep.rhs, abs=1e-12
            ), rep.relation.label


def test_stokes_round_trip():
    s = StokesVector(3.0, 0.9, -1.2, 1.5)
    back = density_to_stokes(stokes_to_density(s))
    assert back.s0 == 1.0
    assert back.s1 == pytest.approx(s.s1 / s.s0, abs=1e-12)
    assert back.s2 == pytest.approx(s.s2 / s.s0, abs=1e-12)
    assert back.s3 == pytest.approx(s.s3 / s.s0, abs=1e-12)


def test_mixed_state_total_variance_identity():
    # 3 - v equals the summed Pauli variances for interior (mixed) states too
    rng = np.random.default_rng(41)
    for _ in range(25):
        direction = rng.standard_normal(3)
        direction *= rng.uniform(0.0, 0.999) / np.linalg.norm(direction)
        s = StokesVector(1.0, *direction)
        rho = stokes_to_density(s)
        total = sum(variance(pauli(axis), rho) for axis in "xyz")
        assert total == pytest.approx(
            closed_form_lhs(moments_from_stokes(s)), abs=1e-12
        )
