"""Sweeps over Bloch-sphere grids, randomized verification, and output.

Three entry points sit behind the CLI:

* :func:`run_sweep` walks a one-parameter family of qubit states and
  tabulates the sum-form bounds, either exactly or from simulated counts,
  as one :class:`SweepTable` of columns.
* :func:`run_verify` hammers the relation engine with seeded random states
  and observables, evaluated in blocks of trials from one batched moment
  table each, and tallies any bound violations beyond tolerance.
* :func:`emit` renders a sweep table, reports, or a verification summary
  as CSV or JSON, to stdout or a file.

Output is deterministic: same inputs and seeds, byte-identical text.
"""
from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from ._version import __version__
from .core import orthogonal_companions, qubit_companions, random_observable, random_pure_state
from .errors import ContractError, UnsupportedCountError
from .qubit import (
    _PAULI_STACK,
    _require_sum_form,
    BlochAngles,
    bloch_to_state,
    closed_form_bounds,
    moments_from_angles,
)
from .relations import (
    HOLDS_ATOL,
    BoundReport,
    PAIRWISE_RELATIONS,
    Relation,
    SUM_FORM_RELATIONS,
    SkippedRelation,
    holds,
    instance_values,
)
from .shots import ShotPlan, bootstrap_bounds, derive_seed, simulate_counts

_TWO_PI = 2.0 * math.pi
_RATIO_T2_OVER_T3 = 2.0 / math.sqrt(3.0)

#: Most trials drawn and evaluated together for one (dim, n) of a campaign.
_BLOCK_TRIALS = 512
#: Matrix entries, ``n d^2`` per trial, that one block may hold: full
#: 512-trial blocks up to d = 4 at n = 5, fewer trials beyond.
_BLOCK_ENTRIES = 512 * 5 * 16
_MAX_WITNESSES = 20
_MAX_EXAMPLES = 3
#: The one note that also counts its hits per dimension.
_TOTAL_SUM_NOTE = "total_sum_bound_not_dominant"


@dataclass(frozen=True)
class SweepSpec:
    """A one-parameter sweep over Bloch angles.

    ``mode`` selects which angle varies: "theta" walks the polar angle over
    [0, pi] with the azimuth fixed at ``fixed_angle``; "phi" walks the
    azimuth over [0, 2 pi] with the polar angle fixed.  ``steps`` grid
    points are spaced evenly including both endpoints.  With a
    :class:`ShotPlan` attached the sweep simulates counting statistics,
    otherwise it evaluates the closed forms exactly.
    """

    mode: str
    fixed_angle: float
    steps: int
    relations: tuple[Relation, ...] = SUM_FORM_RELATIONS
    shots: ShotPlan | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("theta", "phi"):
            raise ValueError(f"mode must be 'theta' or 'phi', got {self.mode!r}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        fixed_max = _TWO_PI if self.mode == "theta" else math.pi
        if not -1e-12 <= self.fixed_angle <= fixed_max + 1e-12:
            raise ValueError(
                f"fixed angle {self.fixed_angle!r} outside [0, {fixed_max!r}]"
            )
        rels = tuple(self.relations)
        if not rels:
            raise ValueError("at least one relation is required")
        _require_sum_form(rels)
        if len(set(rels)) != len(rels):
            raise ValueError("duplicate relations in sweep spec")
        object.__setattr__(self, "relations", rels)
        # Clipped onto the closed interval, as BlochAngles clips it.
        object.__setattr__(self, "fixed_angle", min(max(float(self.fixed_angle), 0.0), fixed_max))

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(theta, phi)`` columns of the grid points, in sweep order."""
        fixed = np.full(self.steps, self.fixed_angle)
        if self.mode == "theta":
            return np.linspace(0.0, math.pi, self.steps), fixed
        return fixed, np.linspace(0.0, _TWO_PI, self.steps)


@dataclass(frozen=True)
class SweepTable:
    """A sweep as columns, one entry per grid point in sweep order.

    ``bounds`` maps each relation to its ``(rhs, rhs_err, holds)`` columns.
    Exact tables carry errors of 0 and ``estimated`` False.  In an
    estimated table a ``holds`` entry of False is a statistical statement
    about noisy point values, not a claimed violation of theory.
    """

    theta: np.ndarray
    phi: np.ndarray
    lhs: np.ndarray
    lhs_err: np.ndarray
    bounds: dict[Relation, tuple[np.ndarray, np.ndarray, np.ndarray]]
    estimated: bool


def run_sweep(spec: SweepSpec, *, resamples: int = 1000) -> SweepTable:
    """Evaluate the requested bounds at every grid point of the sweep.

    Exact sweeps evaluate the closed forms over the whole grid at once.
    Simulated sweeps draw counts for each point from a child seed of
    ``spec.shots.seed`` keyed by the point index, so any sub-grid of points
    reproduces the full sweep's values, then bootstrap ``resamples``
    replicates for the error bars.
    """
    theta, phi = spec.grid()
    if spec.shots is None:
        lhs, rhs = closed_form_bounds(*moments_from_angles(theta, phi), spec.relations)
        lhs_err = np.zeros_like(lhs)
        columns = [column for rel in spec.relations for column in (rhs[rel], lhs_err)]
    else:
        lhs, lhs_err, *columns = _simulated_columns(spec, theta, phi, resamples)
    triples = zip(spec.relations, columns[0::2], columns[1::2])
    bounds = {rel: (rhs, err, holds(lhs, rhs)) for rel, rhs, err in triples}
    return SweepTable(theta, phi, lhs, lhs_err, bounds, spec.shots is not None)


def _simulated_columns(spec: SweepSpec, theta, phi, resamples: int) -> np.ndarray:
    """The rows ``lhs, lhs_err``, then ``rhs, rhs_err`` per relation, of a
    shot sweep: one bootstrap per point, stacked."""
    points = []
    for index, angles in enumerate(zip(theta.tolist(), phi.tolist())):
        plan = replace(spec.shots, seed=derive_seed(spec.shots.seed, index))
        records = simulate_counts(bloch_to_state(BlochAngles(*angles)), plan)
        child = derive_seed(spec.shots.seed, index, 1)
        estimates = bootstrap_bounds(records, spec.relations, resamples=resamples, seed=child)
        lhs = next(iter(estimates.values()))[0]
        points.append([x for e in (lhs, *(rhs for _, rhs in estimates.values()))
                       for x in (e.value, e.std_error)])
    return np.array(points).T


# -- randomized verification --------------------------------------------------

@dataclass
class RelationTally:
    """Aggregate outcome of one relation across a verification campaign.

    ``min_slack_witness`` pins down the near-tightness instance: the trial
    coordinates that produced the smallest slack seen for this relation.
    """

    evaluated: int = 0
    violations: int = 0
    min_slack: float = math.inf
    min_slack_witness: dict | None = None

    @property
    def held(self) -> int:
        return self.evaluated - self.violations


@dataclass
class VerificationSummary:
    """What a randomized campaign saw, with enough detail to reproduce.

    ``violation_witnesses`` holds reproduction data (seeds, dimensions,
    indices, slack) for up to 20 violating instances.  ``notes`` collects
    observations that are tracked but deliberately not asserted: instances
    where the pair-sum bound with cross term is less tight than the
    pair-difference bound, and instances where the total-sum bound fails
    to dominate the other three.  Neither is a violation; the dominance
    property is specific to the Pauli triple on qubits and does not carry
    over to arbitrary observable sets.
    """

    trials: int
    dims: tuple[int, ...]
    counts: tuple[int, ...]
    seed: int
    use_paulis: bool
    total_instances: int = 0
    tallies: dict[Relation, RelationTally] = field(default_factory=dict)
    violation_witnesses: list[dict] = field(default_factory=list)
    ratio_max_error: float = 0.0
    notes: dict = field(default_factory=dict)

    @property
    def has_violations(self) -> bool:
        return any(t.violations for t in self.tallies.values())

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "dims": list(self.dims),
            "counts": list(self.counts),
            "seed": self.seed,
            "use_paulis": self.use_paulis,
            "total_instances": self.total_instances,
            "has_violations": self.has_violations,
            "ratio_max_error": self.ratio_max_error,
            "tallies": {
                rel.value: {
                    "label": rel.label,
                    "evaluated": tally.evaluated,
                    "held": tally.held,
                    "violations": tally.violations,
                    "min_slack": tally.min_slack,
                    "min_slack_witness": tally.min_slack_witness,
                }
                for rel, tally in self.tallies.items()
            },
            "violation_witnesses": self.violation_witnesses,
            "notes": self.notes,
        }


def run_verify(
    trials: int,
    dims: tuple[int, ...] = (2,),
    counts: tuple[int, ...] = (3,),
    seed: int = 0,
    *,
    use_paulis: bool = False,
) -> VerificationSummary:
    """Evaluate every applicable relation on seeded random instances.

    One instance is a random pure state plus ``n`` random observables for
    each combination of ``trials`` x ``dims`` x ``counts``.  With
    ``use_paulis`` the observables are the fixed Pauli triple (dims and
    counts must then be ``(2,)`` and ``(3,)``) and only the sum-form
    relations run, which keeps very large state counts affordable.  Empty
    dims or counts, counts below 2 and a dim or count given twice are
    refused.

    Random-observable campaigns also evaluate the pairwise relations.
    Above dimension 2 the orthogonal-state sum bound gets a random
    companion, a random state with the instance's state projected out
    (:func:`~uncrel.core.orthogonal_companions`), since no canonical choice
    exists there.

    Draws come from one counter-based stream per ``(seed, dim, n, role)``,
    role 0 for the state, ``1 + i`` for observable ``i`` and 99 for the
    companion, in which trial ``t`` sits at a fixed offset.  So instance
    ``(t, dim, n)`` is ``random_pure_state(dim, (seed, dim, n, 0))`` and
    ``random_observable(dim, (seed, dim, n, 1 + i))`` at
    ``trials=range(t, t + 1)``, rebuilt alone from those numbers.

    Each ``(dim, n)`` runs a block of trials at a time: one ``trials=``
    draw per role and one :func:`~uncrel.relations.instance_values` call,
    which builds one moment table.  A block holds up to 512
    trials (``_BLOCK_TRIALS``) and, for the largest ``n d^2`` of the
    campaign, no more than ``_BLOCK_ENTRIES`` matrix entries, so memory
    does not grow with the dimension.  For any block size the
    summary is bit for bit, orders included, that of instances run one by
    one in the order ``(trial, dim, n)``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    dims = tuple(int(d) for d in dims)
    counts = tuple(int(n) for n in counts)
    if use_paulis and (dims != (2,) or counts != (3,)):
        raise ValueError("Pauli campaigns fix dims=(2,) and counts=(3,)")
    if not dims or not counts:
        # No instance would run, and the campaign would pass vacuously.
        raise ContractError(f"dims {list(dims)} and counts {list(counts)} must not be empty")
    if min(counts) < 2:
        raise UnsupportedCountError(f"every observable count must be >= 2, got {list(counts)}")
    if len(set(dims)) < len(dims) or len(set(counts)) < len(counts):
        # A repeated value would run and count the same instances twice.
        raise ContractError(f"dims {list(dims)} and counts {list(counts)} must not repeat a value")
    summary = VerificationSummary(trials, dims, counts, seed, use_paulis)
    combos = [(dim, n) for dim in dims for n in counts]
    largest = max(n * dim * dim for dim, n in combos)
    block_trials = max(1, min(_BLOCK_TRIALS, _BLOCK_ENTRIES // largest))
    for start in range(0, trials, block_trials):
        stop = min(start + block_trials, trials)
        block = np.arange(start, stop)
        findings = []
        for position, (dim, n) in enumerate(combos):
            values = _block_values(seed, range(start, stop), dim, n, use_paulis)
            instances = (block * len(combos) + position).tolist()
            findings += _digest_block(summary, values, block, instances, dim, n)
        _merge_findings(summary, findings)
    summary.total_instances = trials * len(combos)
    return summary


def _digest_block(
    summary: VerificationSummary, values: dict, block: np.ndarray, instances: list, dim: int, n: int
) -> list:
    """Count one block's reports into ``summary`` and return its findings.

    A finding is ``((instance, rank, pair), kind, target, record)``: the
    smallest slack and the earliest violations of each relation, and the
    earliest examples of each note, the first of which carries the count of
    all the block's hits of that note.  ``rank`` orders the findings of one
    instance as its reports are ordered.
    """
    reported = SUM_FORM_RELATIONS + (() if summary.use_paulis else PAIRWISE_RELATIONS)
    pairs = list(combinations(range(n), 2))
    findings = []
    for rank, rel in enumerate(rel for rel in reported if rel in values):
        # One row per trial, one column per pair (a single one if not pairwise).
        lhs, rhs = (v.reshape(block.size, -1) for v in values[rel][:2])
        failed = np.flatnonzero(~holds(lhs, rhs))
        tally = summary.tallies.setdefault(rel, RelationTally())
        tally.evaluated += lhs.size
        tally.violations += failed.size
        candidates = [("min", np.argmin(lhs - rhs))]
        candidates += [("violation", k) for k in failed[:_MAX_WITNESSES]]
        for kind, k in candidates:
            b, p = divmod(int(k), lhs.shape[1])
            record = {"trial": int(block[b]), "dim": dim, "n_observables": n,
                      "pair": list(pairs[p]) if rel.pairwise else None,
                      "lhs": float(lhs[b, p]), "rhs": float(rhs[b, p])}
            findings.append(((instances[b], rank, p), kind, rel, record))
    rhs = {rel: entry[1] for rel, entry in values.items()}
    if n == 3:
        t2, t3 = rhs[Relation.TRIPLE_COMMUTATOR], rhs[Relation.TRIPLE_PAIRWISE]
        errors = np.abs(t2 - _RATIO_T2_OVER_T3 * t3)[t3 > 1e-12]
        summary.ratio_max_error = max([summary.ratio_max_error, *errors.tolist()])
    for rank, (name, hit, columns) in enumerate(_notes(rhs)):
        found = np.flatnonzero(hit)
        for j, b in enumerate(found[:_MAX_EXAMPLES]):
            example = {"trial": int(block[b]), "dim": dim, "n_observables": n}
            example.update((key, float(column[b])) for key, column in columns.items())
            count = 0 if j else found.size
            findings.append(((instances[b], rank, 0), "note", (name, dim, count), example))
    return findings


def _block_values(seed: int, trials: range, dim: int, n: int, use_paulis: bool) -> dict:
    """:func:`~uncrel.relations.instance_values` of one block of trials at one ``(dim, n)``.

    Each role draws the whole block from its own stream ``(seed, dim, n,
    role)``: role 0 for the kets, ``1 + i`` for observable ``i`` and 99 for
    the companions.
    """
    kets = random_pure_state(dim, (seed, dim, n, 0), trials)
    if use_paulis:
        return instance_values(_PAULI_STACK[None], kets)
    mats = np.stack([random_observable(dim, (seed, dim, n, 1 + i), trials) for i in range(n)], 1)
    if dim == 2:  # the canonical companion of core.orthogonal_qubit
        perps = qubit_companions(kets)
    else:
        perps = orthogonal_companions(kets, random_pure_state(dim, (seed, dim, n, 99), trials))
    return instance_values(mats, kets, perps)


def _notes(rhs: dict) -> list:
    """The notes of :class:`VerificationSummary` on a block's bounds, in the
    order they are checked: ``(name, hit mask, example columns)``."""
    m1, m2, m3, m4 = map(rhs.get, (Relation.SUM_PLUS, Relation.SUM_MINUS,
                                   Relation.CHEN_FEI, Relation.SONG))
    best_other = np.max([m for m in (m1, m2, m3) if m is not None], axis=0)
    notes = [(_TOTAL_SUM_NOTE, m4 < best_other - HOLDS_ATOL,
              {"m4_rhs": m4, "best_other_rhs": best_other})]
    if m3 is not None:
        notes.insert(0, ("cross_term_bound_below_pair_difference", m3 < m2 - 1e-12,
                         {"m2_rhs": m2, "m3_rhs": m3}))
    return notes


def _merge_findings(summary: VerificationSummary, findings: list) -> None:
    """Add one block's findings to ``summary`` in instance order, so a note
    or a dimension of its ``by_dim`` map is added at its first hit."""
    for _, kind, target, record in sorted(findings, key=lambda finding: finding[0]):
        if kind == "note":
            name, dim, count = target
            by_dim = {"by_dim": {}} if name == _TOTAL_SUM_NOTE else {}
            note = summary.notes.setdefault(name, {"count": 0, **by_dim, "examples": []})
            note["count"] += count
            if "by_dim" in note:
                note["by_dim"][dim] = note["by_dim"].get(dim, 0) + count
            if len(note["examples"]) < _MAX_EXAMPLES:
                note["examples"].append(record)
            continue
        slack = record["lhs"] - record["rhs"]
        tally = summary.tallies[target]
        if kind == "min" and slack < tally.min_slack:
            tally.min_slack, tally.min_slack_witness = slack, record
        if kind == "violation" and len(summary.violation_witnesses) < _MAX_WITNESSES:
            summary.violation_witnesses.append({"relation": target.value, **record, "slack": slack})


# -- serialization ------------------------------------------------------------

#: How json spells the non-finite floats that repr writes as nan and inf.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _quant(value: float) -> float:
    # JSON carries the same 12 significant digits as the CSV text.
    return float(_fmt(value))


def _base_metadata(metadata: dict | None) -> dict:
    merged = {"generated_by": f"uncrel {__version__}"}
    if metadata:
        merged.update(metadata)
    return merged


def emit(data, fmt: str = "csv", destination=None, *, metadata: dict | None = None) -> str:
    """Render a sweep table, bound reports, or a verification summary.

    A :class:`SweepTable` is rendered from its columns, one format pass per
    column, in either format.

    Args:
        data: a :class:`SweepTable`, a list of
            :class:`BoundReport` / :class:`SkippedRelation`, or a
            :class:`VerificationSummary`.
        fmt: "csv" or "json".  CSV floats get 12 significant digits and
            metadata travels in leading ``#`` comment lines; JSON mirrors
            the same fields and the same rounding.
        destination: file path, or None for stdout.
        metadata: extra key/value pairs recorded alongside the data.

    Returns the rendered text (also written to the destination).  A failed
    write raises ``OSError`` naming the path.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    meta = _base_metadata(metadata)
    if isinstance(data, VerificationSummary):
        text = _render_summary(data, fmt, meta)
    elif isinstance(data, SweepTable):
        text = _render_sweep(data, fmt, meta)
    elif isinstance(data, list) and all(
        isinstance(r, (BoundReport, SkippedRelation)) for r in data
    ):
        text = _render_reports(data, fmt, meta)
    else:
        raise TypeError("emit expects a SweepTable, a report list, or a summary")
    _write_text(text, destination)
    return text


def _write_text(text: str, destination) -> None:
    if destination is None:
        _write_slices(sys.stdout, text)
        return
    try:
        with open(destination, "w") as out:
            _write_slices(out, text)
    except OSError as err:
        raise OSError(f"cannot write output to {destination}: {err}") from err


def _write_slices(out, text: str, size: int = 1 << 16) -> None:
    # One write of the whole text would encode a second whole copy of it.
    for start in range(0, len(text), size):
        out.write(text[start:start + size])


def _comment_block(meta: dict) -> str:
    return "".join(f"# {key} = {value}\n" for key, value in meta.items())


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _render_sweep(table: SweepTable, fmt: str, meta: dict) -> str:
    """The CSV or JSON text of a sweep, built column by column."""
    labels = [rel.label for rel in table.bounds]
    columns = [table.theta, table.phi, table.lhs, table.lhs_err]
    columns += [column for rhs, err, _ in table.bounds.values() for column in (rhs, err)]
    cells = [[_fmt(x) for x in column.tolist()] for column in columns]
    verdicts = [ok.tolist() for _, _, ok in table.bounds.values()]
    if fmt == "csv":
        header = ["theta", "phi", "lhs", "lhs_err"]
        header += [name for label in labels for name in (label, f"{label}_err")]
        header += [f"{label}_holds" for label in labels]
        cells += [["1" if ok else "0" for ok in column] for column in verdicts]
        return "".join([_comment_block(meta), *(",".join(row) + "\n" for row in (header, *zip(*cells)))])
    # The text json.dumps(indent=2) gives: a row template whose nulls take
    # each value as json spells it, repr of the float apart from NaN and
    # the infinities.
    numbers = [[_JSON_NONFINITE.get(text, text) for text in map(repr, map(float, column))]
               for column in cells]
    flags = [["true" if ok else "false" for ok in column] for column in verdicts]
    ordered = numbers[:4] + [c for triple in zip(numbers[4::2], numbers[5::2], flags) for c in triple]
    row = {"theta": None, "phi": None, "estimated": table.estimated,
           "lhs": {"value": None, "std_error": None},
           "bounds": {label: {"value": None, "std_error": None, "holds": None} for label in labels}}
    template = json.dumps(row, indent=2).replace("null", "%s").replace("\n", "\n    ")
    head, _, tail = _json_dump({"metadata": meta, "rows": [0]}).rpartition("0")
    # One join makes the only whole copy of the text: a second one, made after the
    # rows are freed, may or may not reuse their memory, so the peak would vary.
    rows = zip(*ordered)
    return "".join([head + template % next(rows), *((",\n    " + template) % row for row in rows), tail])


def _render_reports(reports, fmt: str, meta: dict) -> str:
    evaluated = [r for r in reports if isinstance(r, BoundReport)]
    skipped = [r for r in reports if isinstance(r, SkippedRelation)]
    if fmt == "json":
        payload = {
            "metadata": meta,
            "reports": [
                {
                    "relation": rep.relation.value,
                    "label": rep.relation.label,
                    "pair": list(rep.pair) if rep.pair else None,
                    "lhs": _quant(rep.lhs),
                    "rhs": _quant(rep.rhs),
                    "slack": _quant(rep.slack),
                    "mid": None if rep.mid is None else _quant(rep.mid),
                    "holds": rep.holds,
                }
                for rep in evaluated
            ],
            "skipped": [
                {"relation": rep.relation.value, "reason": rep.reason}
                for rep in skipped
            ],
        }
        return _json_dump(payload)
    rows = [
        ["relation", "label", "pair", "lhs", "rhs", "slack", "mid", "holds", "status", "reason"]
    ]
    for rep in evaluated:
        rows.append(
            [
                rep.relation.value,
                rep.relation.label,
                "" if rep.pair is None else f"{rep.pair[0]}-{rep.pair[1]}",
                _fmt(rep.lhs),
                _fmt(rep.rhs),
                _fmt(rep.slack),
                "" if rep.mid is None else _fmt(rep.mid),
                "1" if rep.holds else "0",
                "ok",
                "",
            ]
        )
    for rep in skipped:
        rows.append(
            [rep.relation.value, rep.relation.label, "", "", "", "", "", "", "skipped", rep.reason]
        )
    return _csv_text(_comment_block(meta), rows)


def _csv_text(comments: str, rows) -> str:
    """CSV text of ``rows`` after the ``#`` comment lines ``comments``."""
    buffer = io.StringIO()
    buffer.write(comments)
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _quant_all(value):
    """``value`` with every float in it rounded by :func:`_quant`."""
    if isinstance(value, dict):
        return {key: _quant_all(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_quant_all(item) for item in value]
    return _quant(value) if isinstance(value, float) else value


def _render_summary(summary: VerificationSummary, fmt: str, meta: dict) -> str:
    if fmt == "json":
        return _json_dump({"metadata": meta, "summary": _quant_all(summary.to_dict())})
    comments = _comment_block(meta)
    comments += (
        "# campaign: trials={} dims={} counts={} seed={} use_paulis={}\n".format(
            summary.trials,
            list(summary.dims),
            list(summary.counts),
            summary.seed,
            summary.use_paulis,
        )
    )
    comments += f"# total_instances = {summary.total_instances}\n"
    rows = [["relation", "label", "evaluated", "held", "violations", "min_slack"]]
    for rel in Relation:
        tally = summary.tallies.get(rel)
        if tally is None:
            continue
        rows.append(
            [
                rel.value,
                rel.label,
                tally.evaluated,
                tally.held,
                tally.violations,
                _fmt(tally.min_slack),
            ]
        )
    return _csv_text(comments, rows)
