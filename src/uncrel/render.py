"""Rendering of sweep tables, bound reports and campaign summaries.

:func:`emit` writes a :class:`SweepTable`, a list of bound reports or a
:class:`VerificationSummary` as CSV or JSON, to stdout or a file.  The
records it dispatches on live here too, so a command that only renders,
such as ``uncrel bounds``, loads no sweep or campaign driver: this module
never imports :mod:`uncrel.harness` or :mod:`uncrel.cli`.

Output is deterministic: same inputs and seeds, byte-identical text.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .core import _Frozen
from .relations import BoundReport, Relation, SkippedRelation

#: Characters written to a stream at a time.
_WRITE_SLICE = 1 << 16


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


class RelationTally:
    """Aggregate outcome of one relation across a verification campaign.

    ``min_slack_witness`` pins down the near-tightness instance: the trial
    coordinates that produced the smallest slack seen for this relation.
    """

    __slots__ = ("evaluated", "violations", "min_slack", "min_slack_witness")

    def __init__(self) -> None:
        self.evaluated, self.violations = 0, 0
        self.min_slack, self.min_slack_witness = math.inf, None

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
                 use_paulis: bool) -> None:
        self.trials, self.dims, self.counts, self.seed = trials, dims, counts, seed
        self.use_paulis, self.total_instances, self.ratio_max_error = use_paulis, 0, 0.0
        self.tallies: dict[Relation, RelationTally] = {}
        self.violation_witnesses: list[dict] = []
        self.notes: dict = {}

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
    blocks = []
    for start in range(0, len(table.theta), _BLOCK_ROWS):
        slots, cells = zip(*(_block_cells(column[start:start + _BLOCK_ROWS], fmt) for column in columns))
        row = "".join([piece for pair in zip(pieces, slots) for piece in pair] + pieces[-1:])
        blocks += [sep, sep.join(map(row.__mod__, zip(*cells)))]
    # One join makes the only whole copy of the text: a second one, made after the
    # blocks are freed, may or may not reuse their memory, so the peak would vary.
    return "".join([head, *blocks[1:], tail])


def _block_cells(column: np.ndarray, fmt: str) -> tuple[str, list]:
    """The template slot and the cells of one block of one column.

    ``"%.12g"`` spells a float as :func:`_fmt` does, ``"%d"`` a CSV verdict
    as 1 or 0, and :func:`_json_number` a JSON cell that :func:`_odd_cells`
    flags.
    """
    values = column.tolist()
    if column.dtype == bool:
        return ("%d", values) if fmt == "csv" else ("%s", list(map(_JSON_BOOLS.__getitem__, values)))
    bits = column.astype(float, copy=False).view(np.uint64)
    if (bits == bits[0]).all():  # one value, such as every error of an exact sweep
        text = "%.12g" % values[0]
        return "%s", [text if fmt == "csv" else _json_number(text)] * len(values)
    odd = np.flatnonzero(_odd_cells(column)).tolist() if fmt == "json" else []
    if not odd:
        return "%.12g", values
    texts = list(map("%.12g".__mod__, values))
    for k in odd:
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
