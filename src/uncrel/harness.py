"""Sweeps over Bloch-sphere grids, randomized verification, and output.

Three entry points sit behind the CLI:

* :func:`run_sweep` walks a one-parameter family of qubit states and
  tabulates the sum-form bounds, either exactly or from simulated counts,
  as one :class:`SweepTable` of columns.
* :func:`run_verify` hammers the relation engine with seeded random states
  and observables, evaluated in blocks of trials from one batched moment
  table each (Pauli blocks from :func:`uncrel.qubit.moments_from_kets`, as
  exact sweeps from angles), and tallies any bound violations beyond tolerance.
* :func:`emit` renders a sweep table, reports, or a verification summary
  as CSV or JSON, to stdout or a file.

Output is deterministic: same inputs and seeds, byte-identical text.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import sys
from itertools import combinations

import numpy as np

from . import __version__
from .core import (
    _Frozen,
    _index,
    orthogonal_companions,
    qubit_companions,
    random_observable,
    random_pure_state,
)
from .qubit import (BlochAngles, bloch_to_state, closed_form_bounds, moments_from_angles, moments_from_kets,
                    pauli_table)
from .relations import (
    HOLDS_ATOL,
    BoundReport,
    PAIRWISE_RELATIONS,
    Relation,
    SUM_FORM_RELATIONS,
    SkippedRelation,
    bound_values,
    holds,
    instance_values,
)
from .shots import (_check_resamples, DEFAULT_RESAMPLES, ShotPlan, bootstrap_bounds, derive_seed,
                    simulate_counts)

_RATIO_T2_OVER_T3 = 2.0 / math.sqrt(3.0)

#: Most trials drawn and evaluated together for one (dim, n) of a campaign.
_BLOCK_TRIALS = 512
#: Matrix entries, ``n d^2`` per trial, that one block may hold: full
#: 512-trial blocks up to d = 4 at n = 5, fewer trials beyond.
_BLOCK_ENTRIES = 512 * 5 * 16
#: Characters written to a stream at a time.
_WRITE_SLICE = 1 << 16
_MAX_WITNESSES = 20
_MAX_EXAMPLES = 3
#: The one note that also counts its hits per dimension.
_TOTAL_SUM_NOTE = "total_sum_bound_not_dominant"


class SweepSpec(_Frozen):
    """A one-parameter sweep over Bloch angles.

    ``mode`` selects which angle varies: "theta" walks the polar angle over
    [0, pi] with the azimuth fixed at ``fixed_angle``; "phi" walks the
    azimuth over [0, 2 pi] with the polar angle fixed; :class:`BlochAngles`
    refuses and clips the held angle.  ``steps`` grid points are spaced
    evenly including both endpoints.  With a :class:`ShotPlan` attached the
    sweep simulates counting statistics, otherwise it evaluates the closed
    forms exactly.  Only the sum-form ``relations`` have closed forms.
    """

    __slots__ = ("mode", "fixed_angle", "steps", "relations", "shots")

    def __init__(self, mode: str, fixed_angle: float, steps: int,
                 relations: tuple[Relation, ...] = SUM_FORM_RELATIONS,
                 shots: ShotPlan | None = None) -> None:
        if mode not in ("theta", "phi"):
            raise ValueError(f"mode must be 'theta' or 'phi', got {mode!r}")
        steps = _index(steps, "steps")
        if steps < 2:
            raise ValueError(f"steps must be >= 2, got {steps}")
        held = BlochAngles(0.0, fixed_angle) if mode == "theta" else BlochAngles(fixed_angle)
        rels = tuple(relations)
        if not rels:
            raise ValueError("at least one relation is required")
        bad = [rel.value for rel in rels if rel not in SUM_FORM_RELATIONS]
        if bad:
            raise ValueError(f"no closed form for {bad}; only sum-form relations reduce to Pauli moments")
        if len(set(rels)) != len(rels):
            raise ValueError("duplicate relations in sweep spec")
        self.mode, self.steps, self.relations, self.shots = mode, steps, rels, shots
        self.fixed_angle = held.phi if mode == "theta" else held.theta

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(theta, phi)`` columns of the grid points, in sweep order."""
        fixed = np.full(self.steps, self.fixed_angle)
        if self.mode == "theta":
            return np.linspace(0.0, math.pi, self.steps), fixed
        return fixed, np.linspace(0.0, 2.0 * math.pi, self.steps)


class SweepTable(_Frozen):
    """A sweep as columns, one entry per grid point in sweep order.

    ``bounds`` maps each relation to its ``(rhs, rhs_err, holds)`` columns.
    Exact tables carry errors of 0 and ``estimated`` False.  In an
    estimated table a ``holds`` entry of False is a statistical statement
    about noisy point values, not a claimed violation of theory.
    """

    __slots__ = ("theta", "phi", "lhs", "lhs_err", "bounds", "estimated")

    def __init__(self, theta: np.ndarray, phi: np.ndarray, lhs: np.ndarray, lhs_err: np.ndarray,
                 bounds: dict[Relation, tuple[np.ndarray, np.ndarray, np.ndarray]],
                 estimated: bool) -> None:
        self.theta, self.phi, self.lhs, self.lhs_err = theta, phi, lhs, lhs_err
        self.bounds, self.estimated = bounds, estimated


def run_sweep(spec: SweepSpec, *, resamples: int = DEFAULT_RESAMPLES) -> SweepTable:
    """Evaluate the requested bounds at every grid point of the sweep.

    Exact sweeps evaluate the closed forms over the whole grid at once.
    Simulated sweeps draw each point's three up-counts from a child seed of
    ``spec.shots.seed`` keyed by the point index, so any sub-grid of points
    reproduces the full sweep's values, then bootstrap ``resamples``
    replicates for the error bars and stack each point's ``(value,
    std_error)`` pairs into columns; too few replicates are refused for any
    sweep.
    """
    _check_resamples(resamples)
    theta, phi = spec.grid()
    if spec.shots is None:
        lhs, rhs = closed_form_bounds(*moments_from_angles(theta, phi))
        lhs_err = np.zeros_like(lhs)
        rhs_err = dict.fromkeys(rhs, lhs_err)
    else:
        lhs, lhs_err, rhs, rhs_err = _simulated_columns(spec, theta, phi, resamples)
    bounds = {rel: (rhs[rel], rhs_err[rel], holds(lhs, rhs[rel])) for rel in spec.relations}
    return SweepTable(theta, phi, lhs, lhs_err, bounds, spec.shots is not None)


def _simulated_columns(spec: SweepSpec, theta, phi, resamples: int) -> tuple:
    """``lhs, lhs_err, {relation: rhs}, {relation: rhs_err}`` columns of a
    shot sweep, from one bootstrap per point."""
    points = []
    for index, angles in enumerate(zip(theta.tolist(), phi.tolist())):
        plan = ShotPlan(spec.shots.shots_per_basis, derive_seed(spec.shots.seed, index))
        ups = simulate_counts(bloch_to_state(BlochAngles(*angles)), plan)
        child = derive_seed(spec.shots.seed, index, 1)
        lhs, rhs = bootstrap_bounds(ups, plan.shots_per_basis, resamples=resamples, seed=child)
        points.append([lhs, *rhs.values()])
    (lhs, *rhs), (lhs_err, *rhs_err) = np.array(points).T
    return lhs, lhs_err, dict(zip(SUM_FORM_RELATIONS, rhs)), dict(zip(SUM_FORM_RELATIONS, rhs_err))


# -- randomized verification --------------------------------------------------

class RelationTally:
    """Aggregate outcome of one relation across a verification campaign.

    ``min_slack_witness`` pins down the near-tightness instance: the trial
    coordinates that produced the smallest slack seen for this relation.
    """

    __slots__ = ("evaluated", "violations", "min_slack", "min_slack_witness")

    def __init__(self, evaluated: int = 0, violations: int = 0, min_slack: float = math.inf,
                 min_slack_witness: dict | None = None) -> None:
        self.evaluated, self.violations = evaluated, violations
        self.min_slack, self.min_slack_witness = min_slack, min_slack_witness

    @property
    def held(self) -> int:
        return self.evaluated - self.violations


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

    __slots__ = ("trials", "dims", "counts", "seed", "use_paulis", "total_instances", "tallies",
                 "violation_witnesses", "ratio_max_error", "notes")

    def __init__(self, trials: int, dims: tuple[int, ...], counts: tuple[int, ...], seed: int,
                 use_paulis: bool, total_instances: int = 0,
                 tallies: dict[Relation, RelationTally] | None = None,
                 violation_witnesses: list[dict] | None = None, ratio_max_error: float = 0.0,
                 notes: dict | None = None) -> None:
        self.trials, self.dims, self.counts, self.seed = trials, dims, counts, seed
        self.use_paulis, self.total_instances = use_paulis, total_instances
        # A new dict or list per summary where none is given.
        self.tallies = {} if tallies is None else tallies
        self.violation_witnesses = [] if violation_witnesses is None else violation_witnesses
        self.ratio_max_error = ratio_max_error
        self.notes = {} if notes is None else notes

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
    relations are tallied; the formula set still computes the pairwise
    Robertson and deviation-combination values, and the digest drops them.
    Empty dims or counts, counts below 2, a dim or count given twice, a
    negative seed, fewer than one trial and any count, dim or seed that
    ``operator.index`` does not take are refused before any draw.

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
    which builds one moment table.  A Pauli block builds none: its kets go
    through :func:`~uncrel.qubit.moments_from_kets` and the route of exact
    sweeps, :func:`~uncrel.qubit.pauli_table`, to ``bound_values``.  A block
    holds up to 512 trials (``_BLOCK_TRIALS``) and, for the largest ``n
    d^2`` of the campaign, no more than ``_BLOCK_ENTRIES`` matrix entries,
    so memory does not grow with the dimension.  For any block size the
    summary is bit for bit, orders included, that of instances run one by
    one in the order ``(trial, dim, n)``.
    """
    trials, seed = _index(trials, "trials"), _index(seed, "seed")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    dims = tuple(_index(d, "a dim") for d in dims)
    counts = tuple(_index(n, "an observable count") for n in counts)
    if use_paulis and (dims != (2,) or counts != (3,)):
        raise ValueError("Pauli campaigns fix dims=(2,) and counts=(3,)")
    if not dims or not counts:
        # No instance would run, and the campaign would pass vacuously.
        raise ValueError(f"dims {list(dims)} and counts {list(counts)} must not be empty")
    if min(counts) < 2:
        raise ValueError(f"every observable count must be >= 2, got {list(counts)}")
    if len(set(dims)) < len(dims) or len(set(counts)) < len(counts):
        # A repeated value would run and count the same instances twice.
        raise ValueError(f"dims {list(dims)} and counts {list(counts)} must not repeat a value")
    summary = VerificationSummary(trials, dims, counts, seed, use_paulis)
    combos = [(dim, n) for dim in dims for n in counts]
    largest = max(n * dim * dim for dim, n in combos)
    block_trials = max(1, min(_BLOCK_TRIALS, _BLOCK_ENTRIES // largest))
    for start in range(0, trials, block_trials):
        stop = min(start + block_trials, trials)
        block = range(start, stop)
        findings = []
        for position, (dim, n) in enumerate(combos):
            values = _block_values(seed, block, dim, n, use_paulis)
            instances = range(start * len(combos) + position, stop * len(combos), len(combos))
            findings += _digest_block(summary, values, block, instances, dim, n)
        _merge_findings(summary, findings)
    summary.total_instances = trials * len(combos)
    return summary


def _digest_block(
    summary: VerificationSummary, values: dict, block: range, instances: range, dim: int, n: int
) -> list:
    """Count one block's reports into ``summary`` and return its findings.

    A finding is ``((instance, rank, pair), kind, target, record)``: the
    smallest slack and the earliest violations of each relation, and the
    earliest examples of each note, the first of which carries the count of
    all the block's hits of that note.  ``rank`` orders the findings of one
    instance as its reports are ordered.  Each relation gets one verdict,
    one count and one minimum, and records are built only for the indices
    they name that may still enter the summary.
    """
    reported = SUM_FORM_RELATIONS + (() if summary.use_paulis else PAIRWISE_RELATIONS)
    pairs = list(combinations(range(n), 2))
    findings = []
    for rank, rel in enumerate(rel for rel in reported if rel in values):
        # One row per trial, one column per pair (a single one if not pairwise).
        lhs, rhs = (v.reshape(len(block), -1) for v in values[rel][:2])
        slack, failed = lhs - rhs, ~holds(lhs, rhs)
        lowest, count = int(np.argmin(slack)), int(np.count_nonzero(failed))
        tally = summary.tallies.setdefault(rel, RelationTally())
        tally.evaluated += lhs.size
        tally.violations += count
        candidates = [("min", lowest)] if slack.flat[lowest] < tally.min_slack else []
        if count and len(summary.violation_witnesses) < _MAX_WITNESSES:
            candidates += [("violation", k) for k in np.flatnonzero(failed)[:_MAX_WITNESSES]]
        for kind, k in candidates:
            b, p = divmod(int(k), lhs.shape[1])
            record = {"trial": block[b], "dim": dim, "n_observables": n,
                      "pair": list(pairs[p]) if rel.pairwise else None,
                      "lhs": float(lhs[b, p]), "rhs": float(rhs[b, p])}
            findings.append(((instances[b], rank, p), kind, rel, record))
    rhs = {rel: entry[1] for rel, entry in values.items()}
    if n == 3:
        t2, t3 = rhs[Relation.TRIPLE_COMMUTATOR], rhs[Relation.TRIPLE_PAIRWISE]
        errors = np.abs(t2 - _RATIO_T2_OVER_T3 * t3)[t3 > 1e-12]
        summary.ratio_max_error = float(errors.max(initial=summary.ratio_max_error))
    for rank, (name, hit, columns) in enumerate(_notes(rhs)):
        found = np.flatnonzero(hit)
        # With no room left for examples, the first hit still carries the count.
        room = _MAX_EXAMPLES - len(summary.notes.get(name, {}).get("examples", ()))
        for j, b in enumerate(found[:max(room, 1)].tolist()):
            example = {"trial": block[b], "dim": dim, "n_observables": n}
            example.update((key, float(column[b])) for key, column in columns.items())
            count = 0 if j else found.size
            findings.append(((instances[b], rank, 0), "note", (name, dim, count), example))
    return findings


def _block_values(seed: int, trials: range, dim: int, n: int, use_paulis: bool) -> dict:
    """The formula set's values for one block of trials at one ``(dim, n)``.

    Each role draws the whole block from its own stream ``(seed, dim, n,
    role)``: role 0 for the kets, ``1 + i`` for observable ``i`` and 99 for
    the companions above dimension 2.  Qubits take the canonical companion
    :func:`~uncrel.core.qubit_companions`, as
    :func:`~uncrel.relations.evaluate_all` does.  Pauli blocks take their
    expectations from :func:`~uncrel.qubit.moments_from_kets`.
    """
    kets = random_pure_state(dim, (seed, dim, n, 0), trials)
    if use_paulis:
        return bound_values(pauli_table(*moments_from_kets(kets)))
    mats = np.stack([random_observable(dim, (seed, dim, n, 1 + i), trials) for i in range(n)], 1)
    if dim == 2:
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

    A :class:`SweepTable` is rendered from its columns, a block of rows at
    a time, in either format.

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
    write raises ``OSError`` naming the path, or stdout; text for stdout is
    flushed before returning, so its failure surfaces here too.
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
    name = "stdout" if destination is None else destination
    try:
        if destination is None:
            if sys.stdout is None:
                raise OSError("stdout is closed")
            _write_slices(sys.stdout, text)
            sys.stdout.flush()
        else:
            with open(destination, "w") as out:
                _write_slices(out, text)
    except OSError as err:
        raise OSError(f"cannot write output to {name}: {err}") from err


def _write_slices(out, text: str) -> None:
    # One write of the whole text would encode a second whole copy of it.
    for start in range(0, len(text), _WRITE_SLICE):
        out.write(text[start:start + _WRITE_SLICE])


def _comment_block(meta: dict) -> str:
    return "".join(f"# {key} = {value}\n" for key, value in meta.items())


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


#: Rows per rendered block: a block's cell strings die before the next is made.
_BLOCK_ROWS = 512
#: JSON's spellings of a verdict.
_JSON_BOOLS = ("false", "true")


def _render_sweep(table: SweepTable, fmt: str, meta: dict) -> str:
    """The CSV or JSON text of a sweep, built ``_BLOCK_ROWS`` rows at a time
    from a row template, so only the block texts and their join coexist.

    Each block's template holds a slot per column: ``"%.12g"`` spells the
    floats of a block in either format, unless the block's column holds one
    value, spelled once, or JSON cells that :func:`_odd_cells` flags.
    """
    labels = [rel.label for rel in table.bounds]
    columns = [table.theta, table.phi, table.lhs, table.lhs_err]
    if fmt == "csv":
        header = ["theta", "phi", "lhs", "lhs_err"]
        header += [name for label in labels for name in (label, f"{label}_err")]
        header += [f"{label}_holds" for label in labels]
        columns += [column for rhs, err, _ in table.bounds.values() for column in (rhs, err)]
        columns += [ok for _, _, ok in table.bounds.values()]
        pieces = ["", *[","] * (len(columns) - 1), "\n"]
        head, tail = _comment_block(meta) + ",".join(header) + "\n", ""
        sep = ""
    else:
        columns += [column for triple in table.bounds.values() for column in triple]
        # The text json.dumps(indent=2) gives, with each null a cell's slot.
        cell = {"value": None, "std_error": None, "holds": None}
        row = json.dumps({"theta": None, "phi": None, "estimated": table.estimated,
                          "lhs": {"value": None, "std_error": None},
                          "bounds": {label: cell for label in labels}}, indent=2)
        pieces = row.replace("\n", "\n    ").split("null")
        head, _, tail = _json_dump({"metadata": meta, "rows": [0]}).rpartition("0")
        sep = ",\n    "
    plain = np.zeros(len(table.theta), dtype=bool)
    odd = [_odd_cells(c) if fmt == "json" and c.dtype != bool else plain for c in columns]
    blocks = []
    for start in range(0, len(table.theta), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        slots, cells = zip(*(_block_cells(column[block], odd_cells[block], fmt)
                             for column, odd_cells in zip(columns, odd)))
        row = "".join([piece for pair in zip(pieces, slots) for piece in pair] + pieces[-1:])
        blocks += [sep, sep.join(map(row.__mod__, zip(*cells)))]
    # One join makes the only whole copy of the text: a second one, made after the
    # blocks are freed, may or may not reuse their memory, so the peak would vary.
    return "".join([head, *blocks[1:], tail])


def _block_cells(column: np.ndarray, odd: np.ndarray, fmt: str) -> tuple[str, list]:
    """The template slot and the cells of one block of one column.

    ``"%.12g"`` spells a float as :func:`_fmt` does, ``"%d"`` a CSV verdict
    as 1 or 0, and :func:`_json_number` a JSON cell that ``odd`` flags.
    """
    values = column.tolist()
    if column.dtype == bool:
        return ("%d", values) if fmt == "csv" else ("%s", list(map(_JSON_BOOLS.__getitem__, values)))
    bits = column.astype(float, copy=False).view(np.uint64)
    if (bits == bits[0]).all():  # one value, such as every error of an exact sweep
        text = "%.12g" % values[0]
        return "%s", [text if fmt == "csv" else _json_number(text)] * len(values)
    if not odd.any():
        return "%.12g", values
    texts = list(map("%.12g".__mod__, values))
    for k in np.flatnonzero(odd).tolist():
        texts[k] = _json_number(texts[k])
    return "%s", texts


def _odd_cells(column: np.ndarray) -> np.ndarray:
    """A mask of the cells whose JSON spelling may differ from ``"%.12g"``.

    JSON spells a number as ``json.dumps(float("%.12g" % v))``: the shortest
    ``repr`` of ``v`` rounded to 12 digits.  Two decimals of at most 12 digits
    never round to the same normal double, so the two spellings agree unless
    ``"%.12g"`` writes an integer (``2``, ``-0``), an exponent where ``repr``
    writes none (from 1e12), a subnormal, NaN or an infinity.  The mask flags
    every cell within 1e-11 of an integer, relative above 1, so every finite
    cell below 1e-11 or from 1e11 in magnitude, and every one not finite.
    """
    with np.errstate(invalid="ignore"):  # inf - inf
        integral = np.abs(column - np.rint(column)) <= 1e-11 * np.maximum(np.abs(column), 1.0)
    return integral | ~np.isfinite(column)


@functools.lru_cache(maxsize=1024)
def _json_number(text: str) -> str:
    # json's C encoder spells a float as repr does, or NaN, Infinity and -Infinity.
    return json.dumps(float(text))


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
    comments += (f"# campaign: trials={summary.trials} dims={list(summary.dims)} "
                 f"counts={list(summary.counts)} seed={summary.seed} use_paulis={summary.use_paulis}\n"
                 f"# total_instances = {summary.total_instances}\n")
    rows = [["relation", "label", "evaluated", "held", "violations", "min_slack"]]
    for rel in (rel for rel in Relation if rel in summary.tallies):
        tally = summary.tallies[rel]
        rows.append([rel.value, rel.label, tally.evaluated, tally.held, tally.violations, _fmt(tally.min_slack)])
    return _csv_text(comments, rows)
