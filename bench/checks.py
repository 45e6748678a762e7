"""Correctness checks of one round of ``uncrel`` outputs.

Outputs are checked against :mod:`oracle` or against properties the
method must have, never against stored copies of earlier output.  Each
check returns a list of error strings; an empty list means correct.
Only operations that completed (exit 0) are checked; a failed operation
is classified by :func:`classify_failure` instead.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import inputs
import oracle

#: How far a Pauli campaign's minimum slack may sit above the oracle's grid
#: minimum: its random states must come this close to each bound's tightest
#: point.  Four times the largest excess seen in 400 simulated campaigns of
#: 10,000 Haar-random states.  Bounds with a kink at their minimum approach
#: it linearly, so their margins are far wider than those of smooth ones.
COVERAGE_MARGIN = {
    "triple_sum": 3e-6,
    "triple_commutator": 2e-3,
    "triple_pairwise": 2e-3,
    "sum_plus": 2e-6,
    "sum_minus": 5e-3,
    "chen_fei": 6e-2,
    "song": 1e-6,
}
#: Relative tolerance of every bounds-query value against the oracle, and
#: how far below its bound a value may sit and still hold, both relative to
#: the scale of the query's observables.
QUERY_RTOL = 1e-9
HOLDS_RTOL = 1e-9
#: Share of completed shot rows whose lhs must lie within 3 error bars of 2.
SHOT_COVERAGE = 0.90

FAULT_BALL = "fault (a): qubit.HARD_BALL_LIMIT = 1.05 rejects a credible shot estimate"
FAULT_CRASH = ("fault (b): absolute IMAG_RESIDUE_ATOL on 10^3-scaled observables "
               "ends in a ConsistencyError traceback")
FAULT_FALSE = ("fault (b): absolute HOLDS_ATOL on 10^3-scaled observables "
               "reports a false violation")


class Context:
    """Oracle figures shared by every round of a run."""

    def __init__(self, workload: str):
        self.errors = oracle.self_check()
        self.grid_min = oracle.grid_min_slack() if workload == "pauli-campaign" else None


# -- campaigns ----------------------------------------------------------------

def _expected_counts(dims, counts, trials) -> dict:
    per_dim = {
        "triple_sum": sum(n == 3 for n in counts),
        "sum_plus": len(counts),
        "chen_fei": sum(n >= 3 for n in counts),
        "robertson": sum(n * (n - 1) // 2 for n in counts),
    }
    per_dim["triple_commutator"] = per_dim["triple_pairwise"] = per_dim["triple_sum"]
    per_dim["sum_minus"] = per_dim["song"] = per_dim["sum_plus"]
    per_dim["mp_orthogonal"] = per_dim["mp_deviation"] = per_dim["robertson"]
    return {rel: trials * len(dims) * k for rel, k in per_dim.items() if k}


def check_verify(workload: str, text: str, ctx: Context) -> list[str]:
    summary = json.loads(text)["summary"]
    errors = []
    pauli = workload == "pauli-campaign"
    if pauli:
        trials, dims, counts = inputs.PAULI_TRIALS, (2,), (3,)
        expected = {rel: trials for rel in oracle.SUM_FORM}
    else:
        trials, dims, counts = inputs.RANDOM_TRIALS, inputs.RANDOM_DIMS, inputs.RANDOM_COUNTS
        expected = _expected_counts(dims, counts, trials)
    if summary["total_instances"] != trials * len(dims) * len(counts):
        errors.append(f"total_instances {summary['total_instances']}")
    if summary["has_violations"] or summary["violation_witnesses"]:
        errors.append("campaign reports violations")
    tallies = summary["tallies"]
    if set(tallies) != set(expected):
        errors.append(f"relations {sorted(tallies)} != {sorted(expected)}")
    for rel, tally in tallies.items():
        if tally["evaluated"] != expected.get(rel) or tally["violations"] != 0:
            errors.append(f"{rel}: evaluated {tally['evaluated']}, violations {tally['violations']}")
        if tally["min_slack"] < -1e-9:
            errors.append(f"{rel}: min slack {tally['min_slack']!r} below -1e-9")
        if pauli:
            witness = tally["min_slack_witness"]
            if abs(witness["lhs"] - 2.0) > 1e-12:
                errors.append(f"{rel}: witness lhs {witness['lhs']!r} != 2")
            ceiling = ctx.grid_min[rel] + COVERAGE_MARGIN[rel]
            if tally["min_slack"] > ceiling:
                errors.append(f"{rel}: min slack {tally['min_slack']!r} above grid min + margin {ceiling!r}")
    if pauli:
        if summary["ratio_max_error"] > 1e-12:
            errors.append(f"T2/T3 ratio error {summary['ratio_max_error']!r}")
        if "total_sum_bound_not_dominant" in summary["notes"]:
            errors.append("M4 dominance note on the Pauli triple")
    else:
        # MPO at d = 2 and M4 at n = 2 are identically tight.
        for rel in ("mp_orthogonal", "song"):
            if abs(tallies[rel]["min_slack"]) > 1e-9:
                errors.append(f"{rel}: min slack {tallies[rel]['min_slack']!r} not within 1e-9 of 0")
    return errors


# -- sweeps -------------------------------------------------------------------

def _sweep_rows(op: dict, text: str) -> list[dict]:
    """Rows as ``{theta, phi, lhs, lhs_err, bounds: {label: (value, err, holds)}}``."""
    if op["argv"][op["argv"].index("--format") + 1] == "json":
        return [
            {
                "theta": r["theta"], "phi": r["phi"],
                "lhs": r["lhs"]["value"], "lhs_err": r["lhs"]["std_error"],
                "bounds": {k: (b["value"], b["std_error"], b["holds"]) for k, b in r["bounds"].items()},
            }
            for r in json.loads(text)["rows"]
        ]
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = []
    for rec in csv.DictReader(io.StringIO("\n".join(lines))):
        labels = [k for k in rec if k.endswith("_holds")]
        rows.append({
            "theta": float(rec["theta"]), "phi": float(rec["phi"]),
            "lhs": float(rec["lhs"]), "lhs_err": float(rec["lhs_err"]),
            "bounds": {
                k[:-6]: (float(rec[k[:-6]]), float(rec[k[:-6] + "_err"]), rec[k] == "1")
                for k in labels
            },
        })
    return rows


_LABELS = dict(zip(("T1", "T2", "T3", "M1", "M2", "M3", "M4"), oracle.SUM_FORM))


def check_sweeps(ops: list[dict], texts: dict) -> list[str]:
    errors = []
    shot_rows = within = 0
    for op in ops:
        text = texts.get(op["name"])
        if text is None:
            continue
        rows = _sweep_rows(op, text)
        span = math.pi if op["mode"] == "theta" else 2.0 * math.pi
        grid = np.linspace(0.0, span, op["steps"])
        theta = np.array([r["theta"] for r in rows])
        phi = np.array([r["phi"] for r in rows])
        varying, held = (theta, phi) if op["mode"] == "theta" else (phi, theta)
        name = op["name"]
        if len(rows) != op["steps"] or np.max(np.abs(varying - grid)) > 1e-11 \
                or np.max(np.abs(held - op["fixed"])) > 1e-11:
            errors.append(f"{name}: grid angles differ from linspace")
            continue
        if {lab for r in rows for lab in r["bounds"]} != set(_LABELS):
            errors.append(f"{name}: relations {sorted(rows[0]['bounds'])}")
            continue
        lhs = np.array([r["lhs"] for r in rows])
        if op["exact"]:
            exact = oracle.pauli_bounds(*((grid, op["fixed"]) if op["mode"] == "theta" else (op["fixed"], grid)))
            if np.max(np.abs(lhs - 2.0)) > 1e-12:
                errors.append(f"{name}: exact lhs departs from 2")
            for label, rel in _LABELS.items():
                values = np.array([r["bounds"][label][0] for r in rows])
                if np.max(np.abs(values - exact[rel][1])) > 1e-9:
                    errors.append(f"{name}: {label} differs from the oracle by {np.max(np.abs(values - exact[rel][1])):.3g}")
                if not all(r["bounds"][label][2] for r in rows):
                    errors.append(f"{name}: {label} reported not holding on an exact row")
            continue
        lhs_err = np.array([r["lhs_err"] for r in rows])
        values = np.array([[v for v, _, _ in r["bounds"].values()] for r in rows])
        errs = np.array([[e for _, e, _ in r["bounds"].values()] for r in rows])
        if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(values))):
            errors.append(f"{name}: non-finite estimate")
        if not (np.all(lhs_err > 0.0) and np.all(errs > 0.0)):
            errors.append(f"{name}: error bar not positive")
        shot_rows += len(rows)
        within += int(np.sum(np.abs(lhs - 2.0) <= 3.0 * lhs_err))
    if shot_rows and within < SHOT_COVERAGE * shot_rows:
        errors.append(f"only {within} of {shot_rows} shot rows have |lhs - 2| <= 3 err")
    if not shot_rows:
        errors.append("no shot sweep completed")
    return errors


# -- bounds queries -----------------------------------------------------------

def _complex(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _angle(value) -> float:
    if isinstance(value, str):
        return math.radians(float(value[:-3])) if value.endswith("deg") else float(value)
    return float(value)


def load_query(op: dict) -> tuple[list, oracle.State]:
    """The query's observables and state, read independently of the CLI."""
    argv = op["argv"]
    with open(argv[argv.index("--state-file") + 1]) as fh:
        payload = json.load(fh)
    if "amplitudes" in payload:
        state = oracle.State(_complex(payload["amplitudes"]))
    elif "density" in payload:
        state = oracle.State(_complex(payload["density"]), mixed=True)
    elif "stokes" in payload:
        s0, *rest = payload["stokes"]
        rho = np.eye(2) / 2.0 + sum(s / (2.0 * s0) * p for s, p in zip(rest, oracle.PAULIS))
        state = oracle.State(rho, mixed=True)
    else:
        angles = payload["bloch"]
        state = oracle.State(oracle.bloch_kets(_angle(angles["theta"]), _angle(angles["phi"])))
    if "--observables-file" in argv:
        with open(argv[argv.index("--observables-file") + 1]) as fh:
            mats = [_complex(m) for m in json.load(fh)["observables"]]
    else:
        mats = list(oracle.PAULIS)
    return mats, state


def _scale(mats, relation: str) -> float:
    """Size of a relation's values on these observables (degree 2 or 4)."""
    s = max(float(np.linalg.norm(m, 2)) ** 2 for m in mats)
    return s * s if relation == "robertson" else s


def _reports(text: str) -> tuple[dict, set]:
    payload = json.loads(text)
    reports = {
        (r["relation"], tuple(r["pair"]) if r["pair"] else None): r for r in payload["reports"]
    }
    return reports, {s["relation"] for s in payload["skipped"]}


def check_query(op: dict, text: str) -> list[str]:
    mats, state = load_query(op)
    expected, skipped = oracle.evaluate(mats, state)
    got, got_skipped = _reports(text)
    name = op["name"]
    errors = []
    if got_skipped != skipped:
        errors.append(f"{name}: skipped {sorted(got_skipped)}, expected {sorted(skipped)}")
    if set(got) != set(expected):
        errors.append(f"{name}: reported {sorted(map(str, got))}, expected {sorted(map(str, expected))}")
        return errors
    for key, (lhs, rhs, mid) in expected.items():
        rep = got[key]
        tol = QUERY_RTOL * max(abs(float(lhs)), _scale(mats, key[0]))
        fields = [("lhs", lhs), ("rhs", rhs)] + ([("mid", mid)] if mid is not None else [])
        for field, value in fields:
            if abs(rep[field] - float(value)) > tol:
                errors.append(f"{name} {key}: {field} {rep[field]!r} vs oracle {float(value)!r}")
        holds = float(lhs - rhs) >= -HOLDS_RTOL * _scale(mats, key[0])
        if rep["holds"] != holds:
            errors.append(f"{name} {key}: holds {rep['holds']} vs oracle {holds}")
    return errors


def check_scaled(op: dict, text: str, unit_text: str) -> list[str]:
    """A 10^3-scaled query reports 10^6 (Robertson 10^12) times the unit one."""
    got, _ = _reports(text)
    unit, _ = _reports(unit_text)
    errors = []
    if set(got) != set(unit):
        return [f"{op['name']}: reports differ from the unscaled query"]
    for key, rep in got.items():
        factor = op["factor"] ** (4 if key[0] == "robertson" else 2)
        base = unit[key]
        scale = factor * max(abs(base["lhs"]), abs(base["rhs"]), 1e-300)
        for field in ("lhs", "rhs"):
            if abs(rep[field] - factor * base[field]) > QUERY_RTOL * scale:
                errors.append(f"{op['name']} {key}: {field} {rep[field]!r} != {factor:g} x {base[field]!r}")
        if rep["holds"] != base["holds"]:
            errors.append(f"{op['name']} {key}: holds {rep['holds']} != unscaled {base['holds']}")
    return errors


def check_bounds(ops: list[dict], texts: dict) -> list[str]:
    errors = []
    for op in ops:
        text = texts.get(op["name"])
        if text is None:
            continue
        errors += check_query(op, text)
        if "scaled_of" in op and texts.get(op["scaled_of"]) is not None:
            errors += check_scaled(op, text, texts[op["scaled_of"]])
    return errors


def check_round(workload: str, ops: list[dict], texts: dict, ctx: Context) -> list[str]:
    """Check the outputs of the operations of one round that completed."""
    if workload == "sweeps":
        return check_sweeps(ops, texts)
    if workload == "bounds-queries":
        return check_bounds(ops, texts)
    return [e for op in ops if op["name"] in texts for e in check_verify(workload, texts[op["name"]], ctx)]


def classify_failure(op: dict, returncode: int, stderr: str, text: str | None) -> str:
    """Name the known fault behind a failed operation, if it is one."""
    if returncode == 1 and "not credible" in stderr:
        return FAULT_BALL
    if returncode == 1 and "ConsistencyError" in stderr:
        return FAULT_CRASH
    if returncode == 2 and text is not None and "scaled_of" in op:
        mats, state = load_query(op)
        expected, _ = oracle.evaluate(mats, state)
        got, _ = _reports(text)
        flagged = [key for key, rep in got.items() if not rep["holds"]]
        if flagged and all(
            float(expected[k][0] - expected[k][1]) >= -HOLDS_RTOL * _scale(mats, k[0]) for k in flagged
        ):
            return FAULT_FALSE
    return f"unrecognised failure (exit {returncode})"
