import contextlib
import csv
import functools
import io
import json
import math
import re
import tempfile
import tracemalloc
import warnings
from itertools import combinations, zip_longest
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as o
import uncrel
from uncrel import (
    BlochAngles,
    BoundReport,
    Observable,
    PureState,
    Relation,
    SUM_FORM_RELATIONS,
    ShotPlan,
    SweepSpec,
    SweepTable,
    closed_form_bounds,
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


def rhs_of(table, rel):
    """The rhs column of ``rel`` in a sweep table."""
    return table.bounds[rel][0]


def with_pair(report, pair):
    """``report`` with its ``pair`` set to ``pair``."""
    return BoundReport(report.relation, report.lhs, report.rhs, report.slack, report.holds,
                       report.mid, pair)


# -- sweep specification ------------------------------------------------------

def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="mode"):
        SweepSpec("radius", 0.0, 13)
    with pytest.raises(ValueError, match="steps"):
        SweepSpec("theta", 0.0, 1)
    with pytest.raises(ValueError, match="relation"):
        SweepSpec("theta", 0.0, 13, relations=())
    with pytest.raises(ValueError, match=r"^no closed form for \['robertson'\]; only sum-form "
                       "relations reduce to Pauli moments$"):
        SweepSpec("theta", 0.0, 13, relations=(Relation.ROBERTSON,))
    with pytest.raises(ValueError, match="duplicate"):
        SweepSpec("theta", 0.0, 13, relations=(Relation.SONG, Relation.SONG))
    with pytest.raises(ValueError, match=r"^theta must be in \[0, pi\], got 9.0$"):
        SweepSpec("phi", 9.0, 25)


@pytest.mark.parametrize("mode", ["theta", "phi"])
def test_sweep_spec_holds_the_angle_bloch_angles_clips(mode):
    """The held angle is phi of a theta sweep and theta of a phi sweep:
    within the 1e-12 slop of either end it is BlochAngles' clipped value,
    and 1e-11 beyond either end it is refused with BlochAngles' message."""
    top = 2.0 * math.pi if mode == "theta" else math.pi
    for fixed, clipped in ((-1e-12, 0.0), (0.0, 0.0), (1.0, 1.0), (top, top), (top + 1e-12, top)):
        angles = BlochAngles(0.0, fixed) if mode == "theta" else BlochAngles(fixed)
        held = SweepSpec(mode, fixed, 13).fixed_angle
        assert held == (angles.phi if mode == "theta" else angles.theta) == clipped
    name = "phi must be in \\[0, 2 pi\\]" if mode == "theta" else "theta must be in \\[0, pi\\]"
    for fixed in (-1e-11, top + 1e-11):
        with pytest.raises(ValueError, match=f"^{name}, got {fixed!r}$"):
            SweepSpec(mode, fixed, 13)


def test_sweep_grids_match_published_spacing():
    theta, phi = theta_sweep().grid()
    assert len(theta) == len(phi) == 13
    for k in range(13):
        assert theta[k] == pytest.approx(k * math.pi / 12.0, abs=1e-12)
        assert phi[k] == 0.0
    theta, phi = SweepSpec("phi", math.pi / 3.0, 25).grid()
    assert len(theta) == len(phi) == 25
    for k in range(25):
        assert phi[k] == pytest.approx(k * math.pi / 12.0, abs=1e-12)
        assert theta[k] == pytest.approx(math.pi / 3.0, abs=1e-12)


# -- exact sweeps -------------------------------------------------------------

def test_exact_theta_sweep_values():
    table = run_sweep(theta_sweep())
    assert len(table.theta) == 13
    assert not table.estimated
    for k in range(13):
        assert table.lhs[k] == pytest.approx(2.0, abs=1e-12)
        assert table.lhs_err[k] == 0.0
        for rel in SUM_FORM_RELATIONS:
            rhs, err, ok = table.bounds[rel]
            assert ok[k]
            assert err[k] == 0.0
    assert rhs_of(table, Relation.TRIPLE_SUM)[0] == pytest.approx(o.ANCHOR_T1, abs=1e-12)
    assert rhs_of(table, Relation.TRIPLE_COMMUTATOR)[0] == pytest.approx(o.ANCHOR_T2, abs=1e-12)
    assert rhs_of(table, Relation.TRIPLE_PAIRWISE)[0] == pytest.approx(1.0, abs=1e-12)
    assert rhs_of(table, Relation.SONG)[0] == pytest.approx(o.ANCHOR_M4, abs=1e-12)


def test_exact_phi_sweep_start_point():
    table = run_sweep(SweepSpec("phi", math.pi / 3.0, 25))
    assert len(table.phi) == 25
    assert rhs_of(table, Relation.TRIPLE_PAIRWISE)[0] == pytest.approx(
        (math.sqrt(3.0) + 1.0) / 2.0, abs=1e-12
    )
    for value in table.lhs:
        assert value == pytest.approx(2.0, abs=1e-12)


def test_exact_sweep_curve_ordering():
    # the commutator bound dominates the pairwise one and nothing crosses
    # the constant left-hand side
    for spec in (theta_sweep(), SweepSpec("phi", math.pi / 3.0, 25)):
        table = run_sweep(spec)
        t2 = rhs_of(table, Relation.TRIPLE_COMMUTATOR)
        t3 = rhs_of(table, Relation.TRIPLE_PAIRWISE)
        for k in range(spec.steps):
            assert t2[k] >= t3[k] - 1e-12
            for rel in SUM_FORM_RELATIONS:
                assert rhs_of(table, rel)[k] <= 2.0 + 1e-9


def test_exact_sweep_total_bound_dominates():
    for spec in (theta_sweep(), SweepSpec("phi", math.pi / 3.0, 25)):
        table = run_sweep(spec)
        for k in range(spec.steps):
            best_other = max(
                rhs_of(table, Relation.SUM_PLUS)[k],
                rhs_of(table, Relation.SUM_MINUS)[k],
                rhs_of(table, Relation.CHEN_FEI)[k],
            )
            assert rhs_of(table, Relation.SONG)[k] >= best_other - 1e-9


# -- simulated sweeps ---------------------------------------------------------

def test_simulated_sweep_rows():
    spec = theta_sweep(shots=ShotPlan(shots_per_basis=2400, seed=7))
    table = run_sweep(spec, resamples=200)
    assert len(table.theta) == 13
    assert table.estimated
    for k in range(13):
        assert table.lhs_err[k] > 0.0
        for rel in SUM_FORM_RELATIONS:
            assert table.bounds[rel][1][k] > 0.0


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
    assert (short.lhs[0], short.lhs_err[0]) == (long.lhs[0], long.lhs_err[0])


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
    # an empty list would run no instance, and the campaign would pass vacuously
    for dims, counts in (((), (2,)), ((2,), ())):
        with pytest.raises(ValueError, match="must not be empty"):
            run_verify(5, dims=dims, counts=counts)


def test_verify_refuses_a_negative_seed_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew a state")

    monkeypatch.setattr(harness, "random_pure_state", no_draw)
    for use_paulis in (False, True):
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
            run_verify(3, seed=-1, use_paulis=use_paulis)


@pytest.mark.parametrize("bad", [2.5, 3.0, "3", None])
@pytest.mark.parametrize("use_paulis", [False, True])
def test_verify_refuses_a_count_or_seed_that_is_no_integer_before_any_draw(monkeypatch, bad, use_paulis):
    def no_draw(*args):
        raise AssertionError("drew a state")

    monkeypatch.setattr(harness, "random_pure_state", no_draw)
    calls = {"trials": lambda: run_verify(bad, use_paulis=use_paulis),
             "seed": lambda: run_verify(3, seed=bad, use_paulis=use_paulis)}
    if not use_paulis:
        calls["a dim"] = lambda: run_verify(3, dims=(2, bad))
        calls["an observable count"] = lambda: run_verify(3, counts=(bad, 3))
    for name, call in calls.items():
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
            call()


def test_counts_take_what_operator_index_takes():
    """numpy and bool integers are counts; each becomes a Python int."""
    spec = SweepSpec("theta", 0.0, np.int64(5))
    assert type(spec.steps) is int and spec.steps == 5
    assert len(run_sweep(spec).theta) == 5
    plan = ShotPlan(np.int32(10), np.uint8(3))
    assert (type(plan.shots_per_basis), type(plan.seed)) == (int, int)
    assert (plan.shots_per_basis, plan.seed) == (10, 3)
    by_numpy = run_verify(np.int64(4), dims=(np.int16(2),), counts=(np.int64(3),), seed=np.int64(1))
    assert by_numpy.to_dict() == run_verify(4, dims=(2,), counts=(3,), seed=1).to_dict()
    assert run_verify(True, use_paulis=True).total_instances == 1


@pytest.mark.parametrize("bad", [2.5, 13.0, "13", None])
def test_sweep_refuses_steps_or_resamples_that_are_no_integers(bad):
    with pytest.raises(ValueError, match=f"^steps must be an integer, got {re.escape(repr(bad))}$"):
        SweepSpec("theta", 0.0, bad)
    for shots in (None, ShotPlan(10)):
        with pytest.raises(ValueError, match=f"^resamples must be an integer, got {re.escape(repr(bad))}$"):
            run_sweep(SweepSpec("theta", 0.0, 3, shots=shots), resamples=bad)


@pytest.mark.parametrize("resamples", [0, 1, 99])
def test_every_sweep_refuses_fewer_resamples_than_the_bootstrap_takes(resamples):
    """An exact sweep ignores ``resamples``, and refuses what a shot sweep would."""
    for shots in (None, ShotPlan(10)):
        with pytest.raises(ValueError, match=f"^resamples must be >= 100, got {resamples}$"):
            run_sweep(SweepSpec("theta", 0.0, 3, shots=shots), resamples=resamples)
    assert len(run_sweep(SweepSpec("theta", 0.0, 3), resamples=100).theta) == 3


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


@pytest.mark.parametrize("spec, resamples", [
    (theta_sweep(), 1000),
    (SweepSpec("phi", math.pi / 3.0, 25, relations=(Relation.SONG, Relation.TRIPLE_SUM)), 1000),
    (theta_sweep(shots=ShotPlan(shots_per_basis=2400, seed=0)), 150),
    (SweepSpec("phi", 1.0, 5, relations=(Relation.TRIPLE_PAIRWISE,),
               shots=ShotPlan(shots_per_basis=10, seed=3)), 100),
], ids=["exact-theta", "exact-phi-subset", "shots-theta", "shots-phi-subset"])
def test_sweep_json_is_what_the_standard_encoder_writes(spec, resamples):
    # The sweep JSON is filled into a row template; the standard encoder,
    # re-encoding the parsed text, must give the same bytes.  A "%" and a
    # "0" in the metadata must not disturb the template.
    table = run_sweep(spec, resamples=resamples)
    odd_lhs = np.array([math.nan, math.inf, -math.inf, -0.0, 1e-300][:len(table.lhs)])
    odd = SweepTable(table.theta, table.phi, odd_lhs, table.lhs_err, table.bounds, table.estimated)
    for data in (table, odd):
        text = emit(data, "json", None, metadata={"note": "100% of 0"})
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError, match="format"):
        emit(run_sweep(theta_sweep()), "xml", None)


def test_emit_writes_file(tmp_path):
    target = tmp_path / "rows.csv"
    text = emit(run_sweep(theta_sweep()), "csv", target)
    assert target.read_text() == text


def test_emit_writes_large_text_in_slices(monkeypatch):
    # One write of the whole text would encode a second whole copy of it.
    sizes = []

    class Recorder(io.StringIO):
        def write(self, text):
            sizes.append(len(text))
            return super().write(text)

    out = Recorder()
    monkeypatch.setattr("sys.stdout", out)
    text = emit(run_sweep(SweepSpec("theta", 0.0, 2001)), "json", None)
    assert _first_difference(out.getvalue(), text) is None
    assert len(text) > 4 * (1 << 16) and max(sizes) <= 1 << 16


#: Rows per rendered sweep block.
BLOCK = harness._BLOCK_ROWS

#: Values whose spellings differ between formatters, or nearly do; planted
#: in the first and the last row of a rendered sweep.
SPECIALS = (math.nan, math.inf, -math.inf, -0.0, 1e-300, 1.5e12, 1e16, 5e-324, 2.0,
            999999999999.5, 0.99999999999996, 9.99999999999995e-05, 3.5e11)


def _planted(table):
    """``table`` with every special value in its first and last row, so in
    the first and the last block, and verdicts taken from the planted values."""
    def plant(column, j):
        column = column.astype(float)
        column[0], column[-1] = SPECIALS[j % len(SPECIALS)], SPECIALS[(j + 3) % len(SPECIALS)]
        return column

    bounds = {rel: (plant(rhs, 4 + 2 * k), plant(err, 5 + 2 * k))
              for k, (rel, (rhs, err, _)) in enumerate(table.bounds.items())}
    lhs = plant(table.lhs, 2)
    with np.errstate(invalid="ignore"):  # inf - inf
        verdicts = {rel: holds(lhs, rhs) for rel, (rhs, _) in bounds.items()}
    return SweepTable(plant(table.theta, 0), plant(table.phi, 1), lhs, plant(table.lhs_err, 3),
                      {rel: (rhs, err, verdicts[rel]) for rel, (rhs, err) in bounds.items()},
                      table.estimated)


def _oracle_text(table, fmt, meta):
    """The sweep text built row by row: each float through f"{x:.12g}" for
    CSV, and rows of dicts through json.dumps(indent=2) for JSON."""
    meta = {"generated_by": f"uncrel {uncrel.__version__}", **meta}
    bounds = list(table.bounds.items())
    if fmt == "json":
        def q(x):
            return float(f"{x:.12g}")

        rows = [
            {"theta": q(table.theta[k]), "phi": q(table.phi[k]), "estimated": table.estimated,
             "lhs": {"value": q(table.lhs[k]), "std_error": q(table.lhs_err[k])},
             "bounds": {rel.label: {"value": q(rhs[k]), "std_error": q(err[k]),
                                    "holds": bool(ok[k])} for rel, (rhs, err, ok) in bounds}}
            for k in range(len(table.theta))
        ]
        return json.dumps({"metadata": meta, "rows": rows}, indent=2) + "\n"
    labels = [rel.label for rel, _ in bounds]
    lines = [f"# {key} = {value}" for key, value in meta.items()]
    lines.append(",".join(["theta", "phi", "lhs", "lhs_err"]
                          + [name for label in labels for name in (label, f"{label}_err")]
                          + [f"{label}_holds" for label in labels]))
    for k in range(len(table.theta)):
        numbers = [table.theta[k], table.phi[k], table.lhs[k], table.lhs_err[k]]
        numbers += [column[k] for _, (rhs, err, _) in bounds for column in (rhs, err)]
        flags = ["1" if ok[k] else "0" for _, (_, _, ok) in bounds]
        lines.append(",".join([f"{x:.12g}" for x in numbers] + flags))
    return "\n".join(lines) + "\n"


def _first_difference(text, expected):
    """None, or the first line where the texts differ, numbered, from each
    (pytest's own diff of two long texts takes minutes)."""
    pairs = zip_longest(text.split("\n"), expected.split("\n"))
    return next(((k, got, want) for k, (got, want) in enumerate(pairs) if got != want), None)


@pytest.mark.parametrize("steps", [2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("shots", [None, ShotPlan(shots_per_basis=10, seed=3)],
                         ids=["exact", "shots"])
def test_sweep_text_is_the_same_across_block_boundaries(shots, steps):
    table = run_sweep(SweepSpec("phi", 1.0, steps, shots=shots), resamples=100)
    for data in (table, _planted(table)):
        for fmt in ("csv", "json"):
            meta = {"note": "100% of 0"}
            with contextlib.redirect_stdout(io.StringIO()):
                text = emit(data, fmt, None, metadata=meta)
            assert _first_difference(text, _oracle_text(data, fmt, meta)) is None


#: Cells whose JSON spelling differs from "%.12g", or nearly does: subnormals
#: and zeros, small integers, magnitudes across [1e11, 1e17], and values
#: that round to a power of ten.
SPELLING_CASES = (
    *SPECIALS, 0.0, -5e-324, 1e-310, -2.2250738585072014e-308, 9.9e-301, 1e-5, 1e-4,
    *map(float, range(-3, 13)), 99999999999.95, 999999999999.4, -999999999999.5,
    *np.geomspace(1e11, 1e17, 25).tolist(), 123456789012.5, 4503599627370495.5, 1e17 - 16,
    1.0000000000004, -0.99999999999996, -9.99999999999995e-05, 9.99999999999995e-06,
)


def _spelling_text(values):
    """The JSON text, and the text the parent rule ``json.dumps(float("%.12g"
    % v))`` gives, of a sweep with ``values`` down two columns, reversed down
    one, and its first and its last value down a whole column each."""
    column = np.array(values, dtype=float)
    first, last = np.full(column.size, column[0]), np.full(column.size, column[-1])
    table = harness.SweepTable(column, column[::-1], first, last,
                               {Relation.SONG: (column, last, ~np.signbit(column))}, False)
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")  # no numpy warning may reach stderr
        with contextlib.redirect_stdout(io.StringIO()):
            text = emit(table, "json", None)
    return text, _oracle_text(table, "json", {})


@pytest.mark.parametrize("value", SPELLING_CASES, ids=repr)
def test_json_cell_is_the_number_rounded_to_12_digits(value):
    text, expected = _spelling_text([value, 0.25, value])
    assert _first_difference(text, expected) is None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=20))
def test_json_cells_are_the_numbers_rounded_to_12_digits(values):
    text, expected = _spelling_text(values)
    assert _first_difference(text, expected) is None


@pytest.mark.parametrize("fmt, ratio", [("json", 2.5), ("csv", 4.0)])
def test_sweep_render_memory_is_a_small_multiple_of_its_text(tmp_path, fmt, ratio):
    # Rendering all cells at once peaked at 4.1 (JSON) and 8.5 (CSV) times
    # the text; a block of rows at a time leaves the block texts and their join.
    table = run_sweep(SweepSpec("theta", 0.3, 5001))
    tracemalloc.start()
    try:
        text = emit(table, fmt, tmp_path / f"sweep.{fmt}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ratio * len(text), peak / len(text)


def test_emit_io_error_names_path(tmp_path):
    bogus = tmp_path / "no_such_dir" / "rows.csv"
    with pytest.raises(OSError, match="no_such_dir"):
        emit(run_sweep(theta_sweep()), "csv", bogus)


def test_emit_reports_with_skip_markers():
    obs = ObservableSet(tuple(Observable(random_observable(2, k, range(1))[0]) for k in range(4)))
    results = evaluate_all(obs, PureState(random_pure_state(2, 1, range(1))[0]))
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


def test_cli_sweep_defaults_to_every_sum_form_relation_and_its_help_names_them(tmp_path, capsys):
    labels = [rel.label for rel in SUM_FORM_RELATIONS]
    target = tmp_path / "all.json"
    assert main(["sweep", "--mode", "theta", "--steps", "3", "--format", "json", "--out", str(target)]) == 0
    payload = json.loads(target.read_text())
    assert payload["metadata"]["relations"] == ",".join(labels)
    assert [list(row["bounds"]) for row in payload["rows"]] == [labels] * 3
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    assert f"comma-separated labels from {','.join(labels)}" in " ".join(capsys.readouterr().out.split())


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


def test_cli_bounds_on_observables_shifted_by_the_identity(tmp_path):
    # sigma_x + 1e4 and sigma_z + 1e4 have the variances and commutator of
    # sigma_x and sigma_z, so every value is theirs up to round-off; M4 is
    # tight at n = 2 and must still hold.
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps({"bloch": {"theta": 1.0, "phi": 0.4}}))
    reports = {}
    for shift in (0, 10000):
        obs_file = tmp_path / f"obs{shift}.json"
        obs_file.write_text(json.dumps([
            [[[shift, 0], [1, 0]], [[1, 0], [shift, 0]]],
            [[[shift + 1, 0], [0, 0]], [[0, 0], [shift - 1, 0]]],
        ]))
        target = tmp_path / f"bounds{shift}.json"
        code = main([
            "bounds", "--state-file", str(state_file), "--observables-file", str(obs_file),
            "--format", "json", "--out", str(target),
        ])
        assert code == 0, shift
        reports[shift] = json.loads(target.read_text())["reports"]
    for unit, shifted in zip(reports[0], reports[10000], strict=True):
        assert (shifted["label"], shifted["holds"]) == (unit["label"], unit["holds"])
        for key in ("lhs", "rhs", "slack"):
            if unit[key] is not None:
                assert shifted[key] == pytest.approx(unit[key], abs=1e-9 * max(1.0, unit["lhs"]))


def test_cli_bounds_custom_observables(tmp_path):
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps({"stokes": [1.0, 0.0, 0.0, 0.0]}))
    obs_file = tmp_path / "obs.json"
    obs_file.write_text(json.dumps({"observables": [SX, SZ]}))
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


SX = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
SZ = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]


@pytest.mark.parametrize(
    "state, observables, reason",
    [
        ({"amplitudes": [["1", 0.0], [0.0, 0.0]]}, None, 'amplitudes must be nested lists of numbers, got "1"'),
        ({"amplitudes": [[True, 0.0], [0.0, 0.0]]}, None, "amplitudes must be nested lists of numbers, got true"),
        ({"density": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [False, 0.0]]]}, None,
         "density must be nested lists of numbers, got false"),
        ({"stokes": [1.0, 0.0, 0.0, 1.0]}, [SX, [[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]],
         "observable must be nested lists of numbers, got true"),
        ({"stokes": [1.0, 0.0, 0.0, 1.0]}, [SX, [[["1", 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]],
         'observable must be nested lists of numbers, got "1"'),
        ({"amplitudes": [[1.0, 0.0], [0.0, 0.0]], "bloch": {"theta": 1.0}}, None,
         "names more than one form: amplitudes, bloch"),
        ({"bloch": {"theta": 1.0}, "density": [], "stokes": [1.0, 0.0, 0.0, 1.0]}, [SX, SZ],
         "names more than one form: density, stokes, bloch"),
    ],
    ids=["amplitude-string", "amplitude-bool", "density-bool", "observable-bool",
         "observable-string", "two-forms", "three-forms"],
)
def test_cli_bounds_refuses_non_numbers_and_more_than_one_form(tmp_path, capsys, state, observables, reason):
    # numpy reads "1" and true as 1.0, and the first form in check order won.
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(state))
    argv = ["bounds", "--state-file", str(state_file)]
    if observables is not None:
        obs_file = tmp_path / "obs.json"
        obs_file.write_text(json.dumps(observables))
        argv += ["--observables-file", str(obs_file)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("uncrel: error: ") and captured.err.count("\n") == 1
    assert reason in captured.err


def test_cli_verify_refuses_empty_lists(capsys):
    for flag in ("--dim", "--n-observables"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", flag, ""])
        assert exc.value.code == 1
        assert "expected comma-separated integers" in capsys.readouterr().err


VERIFY = ["verify", "--trials", "3"]
SWEEP = ["sweep", "--mode", "theta"]


@pytest.mark.parametrize(
    "argv, reason",
    [
        (VERIFY + ["--n-observables", "1"], ">= 2"),
        (VERIFY + ["--n-observables", "0"], ">= 2"),
        (VERIFY + ["--n-observables", "3,1"], ">= 2"),
        (VERIFY + ["--dim", "2,2"], "must not repeat"),
        (VERIFY + ["--dim", "3,2,3"], "must not repeat"),
        (VERIFY + ["--n-observables", "2,3,2"], "must not repeat"),
        (SWEEP + ["--steps", "3", "--shots", str(2**63)], "shots_per_basis must be in [1, "),
        (SWEEP + ["--steps", "2", "--shots", "10", "--resamples", str(10**15)], "Unable to allocate"),
    ],
    ids=["n=1", "n=0", "n=3,1", "dim=2,2", "dim=3,2,3", "n=2,3,2",
         "sweep-shots=2**63", "sweep-resamples=10**15"],
)
def test_cli_verify_refuses_small_or_repeated_counts(capsys, argv, reason):
    # A count below 2 has no pair to evaluate; a repeated value would run
    # and count the same instances twice.  A sweep refuses more shots than
    # an int64 holds, and numpy refuses the 7 PiB of replicates at once,
    # without allocating them.
    assert main(argv) == 1
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
    # A second moment of 1e152 is beyond what the product bound can square.
    state_file, obs_file = tmp_path / "state.json", tmp_path / "obs.json"
    state_file.write_text(json.dumps({"amplitudes": [[1, 0], [0, 0]]}))
    big = 1e76
    obs_file.write_text(json.dumps([[[[big, 0], [0, 0]], [[0, 0], [-big, 0]]],
                                    [[[0, 0], [big, 0]], [[big, 0], [0, 0]]]]))
    assert main(["bounds", "--state-file", str(state_file), "--observables-file", str(obs_file)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "uncrel: error: second moment 1e+152 is not finite or exceeds 1e+150"
    ]


def test_cli_density_within_the_psd_tolerance_passes_the_moment_checks(tmp_path, capsys):
    """The smallest eigenvalue, -0.99e-10, sits inside the PSD tolerance; the
    state is stored as |0><0|, whose z variance is 0, not -4e-10."""
    state_file = tmp_path / "state.json"
    state_file.write_text(
        '{"density": [[[1.0000000000990,0],[0,0]],[[0,0],[-0.99e-10,0]]]}'
    )
    assert main(["bounds", "--state-file", str(state_file), "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    reports = json.loads(captured.out)["reports"]
    assert [r["lhs"] for r in reports] == [2.0] * len(reports)


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
                members = tuple(Observable(m) for m in mats)
                obs = ObservableSet(members)
                reports = [
                    r for r in evaluate_all(obs, psi, include_pairwise=True)
                    if isinstance(r, BoundReport)
                ]
                if dim > 2:
                    # The campaign's seeded companion stands in for the
                    # canonical one, which exists only for qubits.
                    perp = PureState(companion)
                    mpo = [
                        with_pair(maccone_pati_orthogonal(members[i], members[j], psi, perp), (i, j))
                        for i, j in combinations(range(n), 2)
                    ]
                    at = [r.relation for r in reports].index(Relation.MACCONE_PATI_DEVIATION)
                    reports[at:at] = mpo
                instances.append((trial, dim, n, reports))
    return instances


def bloch_vector(psi):
    """``(2 Re a*b, 2 Im a*b, |a|^2 - |b|^2)`` of the qubit ket ``(a, b)``, in Python floats."""
    a, b = complex(psi[0]), complex(psi[1])
    return (2.0 * (a.real * b.real + a.imag * b.imag), 2.0 * (a.real * b.imag - a.imag * b.real),
            (a.real * a.real + a.imag * a.imag) - (b.real * b.real + b.imag * b.imag))


#: Each sum-form bound of the Pauli triple at a ket, from the raw-numpy oracle.
PAULI_ORACLE = {
    Relation.TRIPLE_SUM: lambda psi: o.triple_sum_rhs(*o.PAULIS, psi),
    Relation.TRIPLE_COMMUTATOR: lambda psi: o.triple_commutator_rhs(*o.PAULIS, psi),
    Relation.TRIPLE_PAIRWISE: lambda psi: o.triple_pairwise_rhs(*o.PAULIS, psi),
    Relation.SUM_PLUS: lambda psi: o.sum_plus_rhs(o.PAULIS, psi),
    Relation.SUM_MINUS: lambda psi: o.sum_minus_rhs(o.PAULIS, psi),
    Relation.CHEN_FEI: lambda psi: o.chen_fei_rhs(o.PAULIS, psi),
    Relation.SONG: lambda psi: o.song_rhs(o.PAULIS, psi),
}


@functools.lru_cache(maxsize=None)
def _pauli_reports_one_by_one(trials, seed):
    """Every instance of a Pauli campaign, in instance order, as ``(trial,
    2, 3, reports)``: each ket rebuilt from the raw stream words and its
    Bloch vector evaluated alone by ``closed_form_bounds``.  Each value is
    checked against the oracle on the Pauli matrices on the way."""
    instances = []
    for trial in range(trials):
        psi = o.campaign_instance(seed, trial, 2, 3)[0]
        lhs, rhs = closed_form_bounds(*bloch_vector(psi))
        assert abs(lhs - o.sum_lhs(o.PAULIS, psi)) <= 1e-12
        reports = []
        for rel, value in rhs.items():
            assert abs(value - PAULI_ORACLE[rel](psi)) <= 1e-12, (trial, rel)
            reports.append(BoundReport(rel, float(lhs), float(value), float(lhs - value), holds(lhs, value)))
        instances.append((trial, 2, 3, reports))
    return tuple(instances)


def _campaign_one_by_one(instances, verdict):
    """Tallies, witnesses, notes and the ratio error of a campaign's
    ``(trial, dim, n, reports)`` instances, digested one at a time with
    ``verdict`` for ``holds``."""
    tallies, witnesses, notes, ratio_error = {}, [], {}, 0.0
    for trial, dim, n, reports in instances:
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
        _reports_one_by_one(trials, dims, counts, seed), verdict
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


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("block", [1, 7, 512])
def test_batched_pauli_campaign_matches_one_by_one_bloch_evaluation(monkeypatch, block, strict):
    # The Pauli counterpart of the test above: 520 trials cross the 512-trial
    # block boundary, and blocks of 1, 7 and 512 trials give the same bits.
    verdict = (lambda lhs, rhs: lhs - rhs >= 0.2) if strict else holds
    monkeypatch.setattr(harness, "holds", verdict)
    monkeypatch.setattr(harness, "_BLOCK_TRIALS", block)
    summary = run_verify(520, seed=5, use_paulis=True)
    tallies, witnesses, notes, ratio_error = _campaign_one_by_one(
        _pauli_reports_one_by_one(520, 5), verdict
    )
    assert summary.total_instances == 520
    assert list(summary.tallies) == list(tallies) == list(SUM_FORM_RELATIONS)
    for rel, (evaluated, violations, min_slack, witness) in tallies.items():
        tally = summary.tallies[rel]
        assert (tally.evaluated, tally.violations) == (evaluated, violations), rel
        assert tally.min_slack == min_slack, rel
        assert tally.min_slack_witness == witness, rel
    assert summary.violation_witnesses == witnesses
    assert len(witnesses) == (20 if strict else 0)
    assert json.dumps(summary.notes) == json.dumps(notes)
    assert max(note["count"] for note in notes.values()) > 3
    assert summary.ratio_max_error == ratio_error


def test_campaign_block_memory_does_not_grow_with_dimension():
    # One 64-trial block at d = 32, n = 4 peaked at 8.6 MB; a block now
    # holds at most _BLOCK_ENTRIES = 40,960 matrix entries, 10 trials here.
    tracemalloc.start()
    try:
        summary = run_verify(64, dims=(32,), counts=(4,), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.total_instances == 64
    assert peak < 4e6


@pytest.mark.parametrize("args", [
    ["--pauli", "--trials", "3000"],
    ["--trials", "200", "--dim", "2,3,4", "--n-observables", "2,3,5"],
])
def test_min_slack_witnesses_replay_from_the_output_alone(tmp_path, args):
    """Each relation's printed witness, rebuilt from ``seed`` and its
    ``(trial, dim, n_observables)`` through the raw-stream oracle and
    evaluated again along the campaign's route, has the printed lhs and rhs
    to 12 significant digits.  A Pauli witness replays through its ket's
    Bloch vector and ``closed_form_bounds``."""
    target = tmp_path / "verify.json"
    assert main(["verify", *args, "--seed", "13", "--format", "json", "--out", str(target)]) == 0
    summary = json.loads(target.read_text())["summary"]
    for name, tally in summary["tallies"].items():
        w = tally["min_slack_witness"]
        dim, n = w["dim"], w["n_observables"]
        psi, mats, perp = o.campaign_instance(summary["seed"], w["trial"], dim, n)
        if summary["use_paulis"]:
            lhs, rhs = closed_form_bounds(*bloch_vector(psi))
            replayed = {"lhs": lhs, "rhs": rhs[Relation(name)]}
            for key in ("lhs", "rhs"):
                assert f"{replayed[key]:.12g}" == f"{w[key]:.12g}", (name, key, w)
            continue
        members = tuple(Observable(m) for m in mats)
        obs = ObservableSet(members)
        reports = evaluate_all(obs, PureState(psi), include_pairwise=True)
        if dim > 2:
            reports += [
                with_pair(maccone_pati_orthogonal(members[i], members[j], PureState(psi), PureState(perp)),
                          (i, j))
                for i, j in combinations(range(n), 2)
            ]
        pair = tuple(w["pair"]) if w["pair"] else None
        (report,) = [r for r in reports if isinstance(r, BoundReport)
                     and r.relation.value == name and r.pair == pair]
        for key in ("lhs", "rhs"):
            assert f"{getattr(report, key):.12g}" == f"{w[key]:.12g}", (name, key, w)
