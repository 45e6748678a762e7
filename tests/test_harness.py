import contextlib
import csv
import functools
import io
import json
import math
import tempfile
import warnings
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as o
from uncrel import (
    BlochAngles,
    BoundReport,
    Observable,
    PureState,
    Relation,
    SUM_FORM_RELATIONS,
    ShotPlan,
    SweepSpec,
    emit,
    evaluate_all,
    maccone_pati_orthogonal,
    pauli_triple,
    random_observable,
    random_pure_state,
    run_sweep,
    run_verify,
)
from uncrel import harness
from uncrel.cli import build_parser, main, parse_angle
from uncrel.relations import ObservableSet, holds

EXPECTED_HEADER = (
    "theta,phi,lhs,lhs_err,T1,T1_err,T2,T2_err,T3,T3_err,M1,M1_err,"
    "M2,M2_err,M3,M3_err,M4,M4_err,"
    "T1_holds,T2_holds,T3_holds,M1_holds,M2_holds,M3_holds,M4_holds"
)


def theta_sweep(shots=None):
    return SweepSpec("theta", 0.0, 13, shots=shots)


def data_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


# -- sweep specification ------------------------------------------------------

def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="mode"):
        SweepSpec("radius", 0.0, 13)
    with pytest.raises(ValueError, match="steps"):
        SweepSpec("theta", 0.0, 1)
    with pytest.raises(ValueError, match="relation"):
        SweepSpec("theta", 0.0, 13, relations=())
    with pytest.raises(ValueError, match="sum-form"):
        SweepSpec("theta", 0.0, 13, relations=(Relation.ROBERTSON,))
    with pytest.raises(ValueError, match="duplicate"):
        SweepSpec("theta", 0.0, 13, relations=(Relation.SONG, Relation.SONG))
    with pytest.raises(ValueError, match="fixed"):
        SweepSpec("phi", 9.0, 25)


def test_sweep_grids_match_published_spacing():
    grid = theta_sweep().grid()
    assert len(grid) == 13
    for k, angles in enumerate(grid):
        assert angles.theta == pytest.approx(k * math.pi / 12.0, abs=1e-12)
        assert angles.phi == 0.0
    grid = SweepSpec("phi", math.pi / 3.0, 25).grid()
    assert len(grid) == 25
    for k, angles in enumerate(grid):
        assert angles.phi == pytest.approx(k * math.pi / 12.0, abs=1e-12)
        assert angles.theta == pytest.approx(math.pi / 3.0, abs=1e-12)


# -- exact sweeps -------------------------------------------------------------

def test_exact_theta_sweep_values():
    rows = run_sweep(theta_sweep())
    assert len(rows) == 13
    for row in rows:
        assert not row.estimated
        assert row.lhs.value == pytest.approx(2.0, abs=1e-12)
        assert row.lhs.std_error == 0.0
        for rel in SUM_FORM_RELATIONS:
            assert row.holds[rel]
            assert row.bounds[rel].std_error == 0.0
    pole = rows[0]
    assert pole.bounds[Relation.TRIPLE_SUM].value == pytest.approx(o.ANCHOR_T1, abs=1e-12)
    assert pole.bounds[Relation.TRIPLE_COMMUTATOR].value == pytest.approx(o.ANCHOR_T2, abs=1e-12)
    assert pole.bounds[Relation.TRIPLE_PAIRWISE].value == pytest.approx(1.0, abs=1e-12)
    assert pole.bounds[Relation.SONG].value == pytest.approx(o.ANCHOR_M4, abs=1e-12)


def test_exact_phi_sweep_start_point():
    rows = run_sweep(SweepSpec("phi", math.pi / 3.0, 25))
    assert len(rows) == 25
    first = rows[0]
    assert first.bounds[Relation.TRIPLE_PAIRWISE].value == pytest.approx(
        (math.sqrt(3.0) + 1.0) / 2.0, abs=1e-12
    )
    for row in rows:
        assert row.lhs.value == pytest.approx(2.0, abs=1e-12)


def test_exact_sweep_curve_ordering():
    # the commutator bound dominates the pairwise one and nothing crosses
    # the constant left-hand side
    for spec in (theta_sweep(), SweepSpec("phi", math.pi / 3.0, 25)):
        for row in run_sweep(spec):
            t2 = row.bounds[Relation.TRIPLE_COMMUTATOR].value
            t3 = row.bounds[Relation.TRIPLE_PAIRWISE].value
            assert t2 >= t3 - 1e-12
            for rel in SUM_FORM_RELATIONS:
                assert row.bounds[rel].value <= 2.0 + 1e-9


def test_exact_sweep_total_bound_dominates():
    for spec in (theta_sweep(), SweepSpec("phi", math.pi / 3.0, 25)):
        for row in run_sweep(spec):
            best_other = max(
                row.bounds[Relation.SUM_PLUS].value,
                row.bounds[Relation.SUM_MINUS].value,
                row.bounds[Relation.CHEN_FEI].value,
            )
            assert row.bounds[Relation.SONG].value >= best_other - 1e-9


# -- simulated sweeps ---------------------------------------------------------

def test_simulated_sweep_rows():
    spec = theta_sweep(shots=ShotPlan(shots_per_basis=2400, seed=7))
    rows = run_sweep(spec, resamples=200)
    assert len(rows) == 13
    for row in rows:
        assert row.estimated
        assert row.lhs.std_error > 0.0
        for rel in SUM_FORM_RELATIONS:
            assert row.bounds[rel].std_error > 0.0


def test_simulated_sweep_deterministic():
    # 2400 shots keeps every grid point inside the Bloch-ball hard limit
    # for this seed; lower counts reject most seeds at mid-sphere angles
    spec = theta_sweep(shots=ShotPlan(shots_per_basis=2400, seed=7))
    first = emit(run_sweep(spec, resamples=150), "csv", None)
    second = emit(run_sweep(spec, resamples=150), "csv", None)
    assert first == second


def test_simulated_sweep_subgrid_reproduces_points():
    # per-point child seeds: a shorter grid over the same angles reproduces
    # the longer sweep's draws point for point
    long = run_sweep(theta_sweep(shots=ShotPlan(shots_per_basis=2400, seed=7)), resamples=150)
    short = run_sweep(
        SweepSpec("theta", 0.0, 2, shots=ShotPlan(shots_per_basis=2400, seed=7)),
        resamples=150,
    )
    assert short[0].lhs == long[0].lhs


# -- randomized verification --------------------------------------------------

def test_verify_pauli_campaign_clean():
    summary = run_verify(300, use_paulis=True, seed=1)
    assert summary.total_instances == 300
    assert not summary.has_violations
    assert summary.ratio_max_error <= 1e-12
    for rel in SUM_FORM_RELATIONS:
        tally = summary.tallies[rel]
        assert tally.evaluated == 300
        assert tally.held == 300
        assert tally.min_slack >= 0.0
        witness = tally.min_slack_witness
        assert witness is not None
        assert set(witness) == {"trial", "dim", "n_observables", "pair", "lhs", "rhs"}


def test_verify_campaign_deterministic():
    first = run_verify(40, dims=(2, 3), counts=(2, 3), seed=5)
    second = run_verify(40, dims=(2, 3), counts=(2, 3), seed=5)
    assert first.to_dict() == second.to_dict()


def test_verify_random_campaign_covers_pairwise():
    summary = run_verify(10, dims=(2, 3), counts=(2, 3), seed=2)
    assert summary.total_instances == 40
    assert not summary.has_violations
    assert Relation.ROBERTSON in summary.tallies
    assert Relation.MACCONE_PATI_ORTHOGONAL in summary.tallies
    assert Relation.MACCONE_PATI_DEVIATION in summary.tallies
    # every instance contributes one robertson report per observable pair:
    # C(2,2) = 1 pair at n = 2 and C(3,2) = 3 at n = 3, for each of 2 dims
    assert summary.tallies[Relation.ROBERTSON].evaluated == 10 * 2 * (1 + 3)


def test_verify_guards_pauli_flag():
    with pytest.raises(ValueError, match="Pauli"):
        run_verify(5, dims=(3,), use_paulis=True)
    with pytest.raises(ValueError, match="trials"):
        run_verify(0)


# -- emission -----------------------------------------------------------------

def test_emit_csv_shape_and_header():
    text = emit(run_sweep(theta_sweep()), "csv", None)
    lines = data_lines(text)
    assert len(lines) == 14
    assert lines[0] == EXPECTED_HEADER
    meta = [line for line in text.splitlines() if line.startswith("#")]
    assert any("generated_by" in line for line in meta)


def test_emit_csv_values_have_12_significant_digits():
    text = emit(run_sweep(theta_sweep()), "csv", None)
    first_data = data_lines(text)[1].split(",")
    assert first_data[2] == "2"  # lhs exactly two
    t1 = float(first_data[4])
    assert t1 == pytest.approx(o.ANCHOR_T1, abs=1e-11)
    assert len(first_data) == 25


def test_emit_csv_json_round_trip():
    rows = run_sweep(theta_sweep())
    text_csv = emit(rows, "csv", None)
    text_json = emit(rows, "json", None)
    parsed = json.loads(text_json)
    csv_rows = list(csv.DictReader(data_lines(text_csv)))
    assert len(parsed["rows"]) == len(csv_rows) == 13
    for jrow, crow in zip(parsed["rows"], csv_rows):
        assert float(crow["theta"]) == jrow["theta"]
        assert float(crow["lhs"]) == jrow["lhs"]["value"]
        for rel in SUM_FORM_RELATIONS:
            assert float(crow[rel.label]) == jrow["bounds"][rel.label]["value"]
            assert (crow[f"{rel.label}_holds"] == "1") == jrow["bounds"][rel.label]["holds"]


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError, match="format"):
        emit(run_sweep(theta_sweep()), "xml", None)


def test_emit_writes_file(tmp_path):
    target = tmp_path / "rows.csv"
    text = emit(run_sweep(theta_sweep()), "csv", target)
    assert target.read_text() == text


def test_emit_io_error_names_path(tmp_path):
    bogus = tmp_path / "no_such_dir" / "rows.csv"
    with pytest.raises(OSError, match="no_such_dir"):
        emit(run_sweep(theta_sweep()), "csv", bogus)


def test_emit_reports_with_skip_markers():
    obs = ObservableSet(tuple(random_observable(2, seed=k) for k in range(4)))
    results = evaluate_all(obs, random_pure_state(2, seed=1))
    text = emit(results, "csv", None)
    reader = csv.DictReader(data_lines(text))
    by_status = {}
    for row in reader:
        by_status.setdefault(row["status"], []).append(row["relation"])
    assert "triple_sum" in by_status["skipped"]
    assert "song" in by_status["ok"]
    payload = json.loads(emit(results, "json", None))
    assert {s["relation"] for s in payload["skipped"]} == {
        "triple_sum", "triple_commutator", "triple_pairwise",
    }


def test_emit_summary_both_formats():
    summary = run_verify(20, use_paulis=True, seed=9)
    text = emit(summary, "csv", None)
    rows = list(csv.DictReader(data_lines(text)))
    assert {r["label"] for r in rows} == {"T1", "T2", "T3", "M1", "M2", "M3", "M4"}
    assert all(r["violations"] == "0" for r in rows)
    payload = json.loads(emit(summary, "json", None))
    assert payload["summary"]["has_violations"] is False
    assert payload["summary"]["tallies"]["song"]["min_slack_witness"] is not None


# -- CLI ----------------------------------------------------------------------

def test_parse_angle_forms():
    assert parse_angle("90deg") == pytest.approx(math.pi / 2.0)
    assert parse_angle("1.5rad") == 1.5
    assert parse_angle("0.25") == 0.25
    with pytest.raises(ValueError):
        parse_angle("north")


def test_cli_rejects_unknown_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["sweep", "--mode", "theta", "--frobnicate"])
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


def test_cli_requires_command(capsys):
    assert main([]) == 1
    assert "command is required" in capsys.readouterr().err


def test_cli_sweep_exact(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code = main(["sweep", "--mode", "theta", "--out", str(target)])
    assert code == 0
    lines = data_lines(target.read_text())
    assert len(lines) == 14
    assert lines[0] == EXPECTED_HEADER


def test_cli_sweep_defaults_by_mode(tmp_path):
    target = tmp_path / "phi.csv"
    assert main(["sweep", "--mode", "phi", "--out", str(target)]) == 0
    rows = data_lines(target.read_text())
    assert len(rows) == 26  # header + 25 azimuth points
    first = rows[1].split(",")
    assert float(first[0]) == pytest.approx(math.pi / 3.0, abs=1e-10)


def test_cli_sweep_angle_suffix_and_relations(tmp_path):
    target = tmp_path / "part.csv"
    code = main([
        "sweep", "--mode", "theta", "--fixed", "90deg", "--steps", "5",
        "--relations", "T2,T3", "--out", str(target),
    ])
    assert code == 0
    lines = data_lines(target.read_text())
    assert lines[0] == "theta,phi,lhs,lhs_err,T2,T2_err,T3,T3_err,T2_holds,T3_holds"
    assert len(lines) == 6


def test_cli_sweep_bad_relation_label(capsys):
    assert main(["sweep", "--mode", "theta", "--relations", "T9"]) == 1
    assert "unknown relation label" in capsys.readouterr().err


def test_cli_sweep_shots_deterministic(tmp_path):
    args = [
        "sweep", "--mode", "theta", "--shots", "2400", "--seed", "7",
        "--resamples", "150",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_cli_sweep_io_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "absent" / "o.csv"
    assert main(["sweep", "--mode", "theta", "--out", str(missing)]) == 3
    assert "error" in capsys.readouterr().err


def test_cli_verify_exit_zero(tmp_path):
    target = tmp_path / "verify.json"
    code = main([
        "verify", "--trials", "25", "--pauli", "--format", "json",
        "--out", str(target),
    ])
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["summary"]["has_violations"] is False
    assert payload["summary"]["total_instances"] == 25


def test_cli_verify_random_dims(tmp_path):
    target = tmp_path / "verify.csv"
    code = main([
        "verify", "--trials", "5", "--dim", "2,3", "--n-observables", "2,4",
        "--out", str(target),
    ])
    assert code == 0
    assert target.exists()


def test_cli_bounds_with_state_file(tmp_path):
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps({"amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))
    target = tmp_path / "bounds.csv"
    code = main(["bounds", "--state-file", str(state_file), "--out", str(target)])
    assert code == 0
    rows = list(csv.DictReader(data_lines(target.read_text())))
    by_label = {r["label"]: r for r in rows}
    assert float(by_label["M4"]["rhs"]) == pytest.approx(o.ANCHOR_M4, abs=1e-11)
    assert by_label["M4"]["holds"] == "1"


def test_cli_bounds_bloch_and_pairwise(tmp_path):
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps({"bloch": {"theta": "90deg", "phi": 0.0}}))
    target = tmp_path / "bounds.json"
    code = main([
        "bounds", "--state-file", str(state_file), "--pairwise",
        "--format", "json", "--out", str(target),
    ])
    assert code == 0
    payload = json.loads(target.read_text())
    labels = {rep["label"] for rep in payload["reports"]}
    assert {"T1", "M4", "R", "MPO", "MPD"} <= labels


def test_cli_bounds_custom_observables(tmp_path):
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps({"stokes": [1.0, 0.0, 0.0, 0.0]}))
    obs_file = tmp_path / "obs.json"
    sx = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    sz = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    obs_file.write_text(json.dumps({"observables": [sx, sz]}))
    code = main([
        "bounds", "--state-file", str(state_file),
        "--observables-file", str(obs_file),
    ])
    assert code == 0


def test_cli_bounds_missing_state_key(tmp_path, capsys):
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps({"wavefunction": [1, 0]}))
    assert main(["bounds", "--state-file", str(state_file)]) == 1
    assert "needs one of" in capsys.readouterr().err


def test_cli_shot_sweep_tabulates_estimates_outside_the_ball(tmp_path):
    # At 2400 shots seed 0 puts some theta-sweep estimates outside the
    # Bloch ball; they are tabulated with their error bars, not rejected.
    target = tmp_path / "shots.csv"
    code = main([
        "sweep", "--mode", "theta", "--shots", "2400", "--seed", "0",
        "--out", str(target),
    ])
    assert code == 0
    rows = list(csv.DictReader(data_lines(target.read_text())))
    assert len(rows) == 13
    within = sum(abs(float(r["lhs"]) - 2.0) <= 3.0 * float(r["lhs_err"]) for r in rows)
    assert within >= 12


@pytest.mark.parametrize(
    "payload",
    [
        {"amplitudes": [[math.nan, 0.0], [1.0, 0.0]]},
        {"density": [[[math.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        {"bloch": 5},
        {"bloch": {"theta": None}},
        {"stokes": 3},
        {"stokes": [1.0, None, 0.0, 0.0]},
    ],
)
def test_cli_bounds_rejects_malformed_state(tmp_path, capsys, payload):
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(payload))
    assert main(["bounds", "--state-file", str(state_file)]) == 1
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err


def test_cli_verify_refuses_empty_lists(capsys):
    for flag in ("--dim", "--n-observables"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", flag, ""])
        assert exc.value.code == 1
        assert "expected comma-separated integers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, reason",
    [
        (["--n-observables", "1"], ">= 2"),
        (["--n-observables", "0"], ">= 2"),
        (["--n-observables", "3,1"], ">= 2"),
        (["--dim", "2,2"], "must not repeat"),
        (["--dim", "3,2,3"], "must not repeat"),
        (["--n-observables", "2,3,2"], "must not repeat"),
    ],
    ids=["n=1", "n=0", "n=3,1", "dim=2,2", "dim=3,2,3", "n=2,3,2"],
)
def test_cli_verify_refuses_small_or_repeated_counts(capsys, flags, reason):
    # A count below 2 has no pair to evaluate; a repeated value would run
    # and count the same instances twice.
    assert main(["verify", "--trials", "3", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("uncrel: error: ") and captured.err.count("\n") == 1
    assert reason in captured.err and "Traceback" not in captured.err


def test_verify_json_rounds_every_float_to_12_digits():
    summary = run_verify(10, dims=(2, 3), counts=(2, 3), seed=4)
    floats = []
    json.loads(
        emit(summary, "json", None),
        parse_float=lambda text: floats.append(float(text)) or float(text),
    )
    assert floats
    for value in floats:
        assert value == float(f"{value:.12g}")
    # the summary object itself keeps full precision
    slack = summary.tallies[Relation.ROBERTSON].min_slack
    assert summary.to_dict()["tallies"]["robertson"]["min_slack"] == slack


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--version"])
    assert exc.value.code == 0
    assert "uncrel" in capsys.readouterr().out


def test_cli_consistency_error_exits_4_with_one_line(tmp_path, capsys):
    # The smallest eigenvalue sits inside the PSD tolerance, so the state is
    # accepted; its z variance is then negative beyond round-off.
    state_file = tmp_path / "state.json"
    state_file.write_text(
        '{"density": [[[1.0000000000990,0],[0,0]],[[0,0],[-0.99e-10,0]]]}'
    )
    assert main(["bounds", "--state-file", str(state_file)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "uncrel: error: variance -3.959997885161215e-10 is negative beyond round-off"
    ]


def test_cli_bounds_refuses_moments_beyond_double_precision(tmp_path, capsys):
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps({"amplitudes": [[0.6, 0.0], [0.8, 0.0]]}))
    big = 1e160
    obs_file = tmp_path / "obs.json"
    obs_file.write_text(json.dumps([
        [[[big, 0.0], [big, 0.0]], [[big, 0.0], [-big, 0.0]]],
        [[[big, 0.0], [0.0, -big]], [[0.0, big], [0.0, 0.0]]],
    ]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([
            "bounds", "--state-file", str(state_file),
            "--observables-file", str(obs_file), "--pairwise",
        ])
    assert code == 4
    assert not caught
    err = capsys.readouterr().err
    assert err.splitlines() == ["uncrel: error: second moment inf is not finite or exceeds 1e+150"]


# -- fuzzed bounds inputs -----------------------------------------------------

_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e-320, 1e-160, 1e160, 1e300, -1e300]),
    st.text(max_size=4),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["theta", "phi", "observables", "x"]), inner, max_size=2),
    ),
    max_leaves=24,
)


def _pairs(z) -> list:
    """A complex array as nested [re, im] pairs."""
    z = np.asarray(z)
    return np.stack([z.real, z.imag], axis=-1).tolist()


_scales = st.integers(-320, 300).map(lambda k: 10.0**k)
_state_scales = st.sampled_from([1.0, 1.0, 1.0, 1.0 + 1e-9, 2.0])


@st.composite
def _bounds_inputs(draw):
    """A state payload and an observables payload (None for the default).

    Most are well formed, at any scale; the rest put arbitrary JSON in
    place of a field or of the whole file.
    """
    dim = draw(st.sampled_from([2, 2, 3, 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    form = draw(st.sampled_from(["amplitudes", "density", "stokes", "bloch", "other"]))
    if draw(st.integers(0, 4)) == 0:
        state = {form: draw(_json_values)} if draw(st.booleans()) else draw(_json_values)
    elif form == "amplitudes":
        state = {form: _pairs(draw(_state_scales) * z[0] / np.linalg.norm(z[0]))}
    elif form == "density":
        rho = z @ z.conj().T
        state = {form: _pairs(draw(_state_scales) * rho / np.trace(rho).real)}
    elif form == "stokes":
        state = {form: [draw(st.one_of(st.floats(-2, 2), _scales, _json_scalars)) for _ in range(4)]}
    else:
        angles = st.one_of(st.floats(0, 3.2), _json_scalars)
        state = {form: {"theta": draw(angles), "phi": draw(angles)}}
    if draw(st.booleans()):
        return state, None
    if draw(st.integers(0, 4)) == 0:
        return state, draw(_json_values)
    count = draw(st.sampled_from([2, 3, 3, 4, 1]))
    size = draw(st.sampled_from([dim, dim, dim + 1]))
    observables = []
    for _ in range(count):
        g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        hermitian = draw(st.integers(0, 5)) > 0
        scale = draw(st.one_of(st.just(1.0), _scales))
        observables.append(_pairs(scale * (g + g.conj().T if hermitian else g)))
    return state, {"observables": observables} if draw(st.booleans()) else observables


@settings(max_examples=300, deadline=None)
@given(_bounds_inputs(), st.booleans(), st.sampled_from(["csv", "json"]))
def test_cli_bounds_fuzz_never_crashes(inputs, pairwise, fmt):
    """Any state and observables file ends in a documented exit code with
    at most a one-line error: no traceback and no numpy warning."""
    state, observables = inputs
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["bounds", "--state-file", str(Path(tmp) / "state.json"), "--format", fmt]
        Path(argv[2]).write_text(json.dumps(state))
        if observables is not None:
            argv += ["--observables-file", str(Path(tmp) / "obs.json")]
            Path(argv[-1]).write_text(json.dumps(observables))
        if pairwise:
            argv.append("--pairwise")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
    if code in (1, 3, 4):
        assert len(err.getvalue().splitlines()) == 1


def _bounds_verdicts(tmp: Path, ket, mats) -> tuple[int, list]:
    """Exit code and ``(relation, pair, holds)`` of ``bounds --pairwise``."""
    (tmp / "state.json").write_text(json.dumps({"amplitudes": _pairs(ket)}))
    (tmp / "obs.json").write_text(json.dumps({"observables": [_pairs(m) for m in mats]}))
    code = main([
        "bounds", "--state-file", str(tmp / "state.json"), "--observables-file",
        str(tmp / "obs.json"), "--pairwise", "--format", "json", "--out", str(tmp / "out.json"),
    ])
    if code != 0:
        return code, []
    reports = json.loads((tmp / "out.json").read_text())["reports"]
    return code, [(r["relation"], r["pair"], r["holds"]) for r in reports]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-6, 70), st.sampled_from([2, 3, 4]))
def test_rescaled_unitary_observables_are_accepted_with_the_same_verdicts(seed, k, dim):
    """``U D U^dagger`` scaled by 10^k is Hermitian to the precision of its
    entries, so ``bounds`` accepts it and judges every relation as it does
    the unscaled set: each relation is homogeneous of degree 2."""
    rng = np.random.default_rng(seed)
    ket = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    mats = []
    for _ in range(3):
        u, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        mats.append(u @ np.diag(rng.uniform(-1.0, 1.0, dim)) @ u.conj().T)
    with tempfile.TemporaryDirectory() as tmp:
        code, verdicts = _bounds_verdicts(Path(tmp), ket / np.linalg.norm(ket), mats)
        scaled = _bounds_verdicts(Path(tmp), ket / np.linalg.norm(ket), [10.0**k * m for m in mats])
    assert code == 0
    assert scaled == (code, verdicts)


# -- the batched campaign against the per-instance engine ----------------------

@functools.lru_cache(maxsize=None)
def _reports_one_by_one(trials, dims, counts, seed):
    """Every instance of a random campaign, in instance order, as
    ``(trial, dim, n, reports)`` from one ``evaluate_all`` call each."""
    instances = []
    for trial in range(trials):
        for dim in dims:
            for n in counts:
                # Rebuilt from the raw stream words, not through the library.
                ket, mats, companion = o.campaign_instance(seed, trial, dim, n)
                psi = PureState(ket)
                obs = ObservableSet(tuple(Observable(m) for m in mats))
                reports = [
                    r for r in evaluate_all(obs, psi, include_pairwise=True)
                    if isinstance(r, BoundReport)
                ]
                if dim > 2:
                    # The campaign's seeded companion stands in for the
                    # canonical one, which exists only for qubits.
                    perp = PureState(companion)
                    mpo = [
                        replace(maccone_pati_orthogonal(obs[i], obs[j], psi, perp), pair=(i, j))
                        for i, j in combinations(range(n), 2)
                    ]
                    at = [r.relation for r in reports].index(Relation.MACCONE_PATI_DEVIATION)
                    reports[at:at] = mpo
                instances.append((trial, dim, n, reports))
    return instances


def _campaign_one_by_one(trials, dims, counts, seed, verdict):
    """Tallies, witnesses, notes and the ratio error of a random campaign,
    digested one instance at a time with ``verdict`` for ``holds``."""
    tallies, witnesses, notes, ratio_error = {}, [], {}, 0.0
    for trial, dim, n, reports in _reports_one_by_one(trials, dims, counts, seed):
        where = {"trial": trial, "dim": dim, "n_observables": n}
        for r in reports:
            tally = tallies.setdefault(r.relation, [0, 0, math.inf, None])
            record = {**where, "pair": list(r.pair) if r.pair else None,
                      "lhs": r.lhs, "rhs": r.rhs}
            tally[0] += 1
            if r.slack < tally[2]:
                tally[2:] = r.slack, record
            if not verdict(r.lhs, r.rhs):
                tally[1] += 1
                if len(witnesses) < 20:
                    witnesses.append({"relation": r.relation.value, **record,
                                      "slack": r.slack})
        rhs = {r.relation: r.rhs for r in reports if r.pair is None}
        if n == 3 and rhs[Relation.TRIPLE_PAIRWISE] > 1e-12:
            ratio_error = max(ratio_error, abs(
                rhs[Relation.TRIPLE_COMMUTATOR]
                - 2.0 / math.sqrt(3.0) * rhs[Relation.TRIPLE_PAIRWISE]
            ))
        m2, m3, m4 = (rhs.get(r) for r in (
            Relation.SUM_MINUS, Relation.CHEN_FEI, Relation.SONG))
        if m3 is not None and m3 < m2 - 1e-12:
            note = notes.setdefault(
                "cross_term_bound_below_pair_difference", {"count": 0, "examples": []})
            note["count"] += 1
            if len(note["examples"]) < 3:
                note["examples"].append({**where, "m2_rhs": m2, "m3_rhs": m3})
        others = max(rhs[r] for r in (
            Relation.SUM_PLUS, Relation.SUM_MINUS, Relation.CHEN_FEI) if r in rhs)
        if m4 < others - 1e-9:
            note = notes.setdefault(
                "total_sum_bound_not_dominant", {"count": 0, "by_dim": {}, "examples": []})
            note["count"] += 1
            note["by_dim"][dim] = note["by_dim"].get(dim, 0) + 1
            if len(note["examples"]) < 3:
                note["examples"].append({**where, "m4_rhs": m4, "best_other_rhs": others})
    return tallies, witnesses, notes, ratio_error


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("campaign", [
    (520, (2, 3), (2, 3), 5, 512),
    (40, (3,), (3,), 1, 512),
    (60, (2, 3, 4), (5, 6), 3, 1),
    (60, (2, 3, 4), (5, 6), 3, 7),
    (60, (2, 3, 4), (5, 6), 3, 512),
])
def test_batched_campaign_matches_one_by_one_evaluation(monkeypatch, campaign, strict):
    # 520 trials cross the 512-trial block boundary; each dim runs at two
    # counts, so by_dim counts from two positions share a key.  With one
    # (dim, n) every note example comes from the same block.  The strict
    # verdict makes many reports violations, which exercises the order of
    # the violation witnesses across relations and pairs.  At n >= 5 there
    # are 10 or more pairs, and one campaign is run in blocks of 1, 7 and
    # 512 trials: the sums over pairs must not depend on the block size.
    verdict = (lambda lhs, rhs: lhs - rhs >= 0.2) if strict else holds
    monkeypatch.setattr(harness, "holds", verdict)
    trials, dims, counts, seed, block = campaign
    monkeypatch.setattr(harness, "_BLOCK_TRIALS", block)
    summary = run_verify(trials, dims=dims, counts=counts, seed=seed)
    tallies, witnesses, notes, ratio_error = _campaign_one_by_one(
        trials, dims, counts, seed, verdict
    )
    assert summary.total_instances == trials * len(dims) * len(counts)
    assert list(summary.tallies) == list(tallies)
    for rel, (evaluated, violations, min_slack, witness) in tallies.items():
        tally = summary.tallies[rel]
        assert (tally.evaluated, tally.violations) == (evaluated, violations), rel
        assert tally.min_slack == min_slack, rel
        assert tally.min_slack_witness == witness, rel
    assert summary.violation_witnesses == witnesses
    assert len(witnesses) == (20 if strict else 0)
    # json.dumps keeps insertion order, which == on dicts ignores.
    assert json.dumps(summary.notes) == json.dumps(notes)
    assert max(note["count"] for note in notes.values()) > 3
    assert summary.ratio_max_error == ratio_error


@pytest.mark.parametrize("args", [
    ["--pauli", "--trials", "3000"],
    ["--trials", "200", "--dim", "2,3,4", "--n-observables", "2,3,5"],
])
def test_min_slack_witnesses_replay_from_the_output_alone(tmp_path, args):
    """Each relation's printed witness, rebuilt from ``seed`` and its
    ``(trial, dim, n_observables)`` through the raw-stream oracle and
    evaluated again, has the printed lhs and rhs to 12 significant digits."""
    target = tmp_path / "verify.json"
    assert main(["verify", *args, "--seed", "13", "--format", "json", "--out", str(target)]) == 0
    summary = json.loads(target.read_text())["summary"]
    for name, tally in summary["tallies"].items():
        w = tally["min_slack_witness"]
        dim, n = w["dim"], w["n_observables"]
        psi, mats, perp = o.campaign_instance(summary["seed"], w["trial"], dim, n)
        if summary["use_paulis"]:
            mats = o.PAULIS
        obs = ObservableSet(tuple(Observable(m) for m in mats))
        reports = evaluate_all(obs, PureState(psi), include_pairwise=not summary["use_paulis"])
        if dim > 2:
            reports += [
                replace(maccone_pati_orthogonal(obs[i], obs[j], PureState(psi), PureState(perp)),
                        pair=(i, j))
                for i, j in combinations(range(n), 2)
            ]
        pair = tuple(w["pair"]) if w["pair"] else None
        (report,) = [r for r in reports if isinstance(r, BoundReport)
                     and r.relation.value == name and r.pair == pair]
        for key in ("lhs", "rhs"):
            assert f"{getattr(report, key):.12g}" == f"{w[key]:.12g}", (name, key, w)
