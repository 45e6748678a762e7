"""Command-line front end: ``uncrel sweep | verify | bounds``.

Exit codes:

* 0 - success
* 1 - usage error, invalid input data, or an input too large to allocate
* 2 - a bound violation beyond tolerance was found
* 3 - I/O failure, a failed write to stdout or a closed stdout included
* 4 - a numerical consistency check failed: the input is too large for
  double precision, or its moments are inconsistent beyond round-off

Angles are radians by default; append ``deg`` to give degrees, e.g.
``--fixed 60deg``.

:func:`run` is the process entry point, behind both the ``uncrel``
console script and ``python -m uncrel.cli``.  It freezes the objects
alive at its start (``gc.freeze``), so neither the collections during a
command nor the full collection at shutdown walk the import graph of
numpy and uncrel again.  It flushes stdout, reporting a failed write or
flush of ``--help`` or ``--version`` output with exit code 3, and keeps a failed
stdout buffer from failing a second time at shutdown.  Library callers
call :func:`main` with an argument list; it returns the exit code and
changes no interpreter state.  On glibc, :func:`run` also has the
allocator keep freed memory for reuse (:func:`_keep_freed_memory`);
:func:`main` and an import leave the allocator as it is.

Run as a program (``python -m uncrel.cli``), the module switches the
cyclic collector off before its first import and :func:`run` switches it
back on: numpy's import would run dozens of collections that free almost
nothing, since what an import builds lives as long as the process.
Imported, as by the console script or a library, it leaves the collector
as it is.  The drivers of :mod:`uncrel.harness` load on their first call,
so ``uncrel bounds`` never loads them.
"""
from __future__ import annotations

import gc

if __name__ == "__main__":
    # Run as a program: no cyclic collection while numpy and uncrel load.
    gc.disable()

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .core import ConsistencyError, DensityMatrix, Observable, PureState, QuantumState
from .qubit import BlochAngles, StokesVector, bloch_to_state, pauli_triple, stokes_to_density
from .relations import (
    ObservableSet,
    RELATION_BY_LABEL,
    SUM_FORM_RELATIONS,
    BoundReport,
    evaluate_all,
)
from .render import emit
from .shots import DEFAULT_RESAMPLES, ShotPlan


#: Exit status per error a command may end in; every refused input is a
#: ValueError.  A MemoryError is numpy refusing an array too large to allocate.
_EXIT_CODES = {OSError: 3, ConsistencyError: 4, ValueError: 1, MemoryError: 1}
#: What ``sweep --relations`` takes by default and lists in its help and errors.
_SUM_FORM_LABELS = ",".join(rel.label for rel in SUM_FORM_RELATIONS)


class _Parser(argparse.ArgumentParser):
    """Argparse exits with status 2 on bad flags; this CLI reserves 2 for
    verification failures, so usage errors are remapped to 1.  A failed
    write to stdout, which argparse drops, is raised for :func:`run`."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def _print_message(self, message, file=None):
        if file is not None and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def parse_angle(text: str) -> float:
    """Parse an angle: plain radians, or degrees with a ``deg`` suffix."""
    cleaned = text.strip().lower()
    try:
        if cleaned.endswith("deg"):
            return math.radians(float(cleaned[:-3]))
        if cleaned.endswith("rad"):
            return float(cleaned[:-3])
        return float(cleaned)
    except ValueError:
        raise ValueError(f"cannot parse angle {_clip(repr(text))}") from None


def _clip(text: str) -> str:
    """``text``, or its first 60 characters and ``...``: an error line
    echoes input without growing with it."""
    return text if len(text) <= 60 else text[:60] + "..."


def _integer(text: str, non_negative: bool = False) -> int:
    """``text`` as an int, and at least 0 if ``non_negative``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {_clip(repr(text))}") from None
    if non_negative and value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uncrel",
        description="Evaluate and verify variance uncertainty relations.",
    )
    parser.add_argument("--version", action="version", version=f"uncrel {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    sweep = sub.add_parser(
        "sweep",
        help="tabulate bounds along a one-parameter family of qubit states",
        description=(
            "Sweep one Bloch angle over its full range and tabulate the "
            "sum-form bounds at each grid point, exactly or from simulated "
            "counting statistics."
        ),
    )
    sweep.add_argument(
        "--mode", required=True, choices=("theta", "phi"),
        help="which angle varies; the other stays at --fixed",
    )
    sweep.add_argument(
        "--fixed", default=None, metavar="ANGLE",
        help="held angle (default: 0 for theta sweeps, pi/3 for phi sweeps)",
    )
    sweep.add_argument(
        "--steps", type=_integer, default=None,
        help="grid points including both endpoints (default: 13 theta, 25 phi)",
    )
    sweep.add_argument(
        "--shots", type=_integer, default=None, metavar="N",
        help="simulate N shots per basis instead of exact evaluation",
    )
    # An exact sweep ignores --seed, so the parser judges it; run_sweep judges --resamples.
    sweep.add_argument("--seed", type=lambda text: _integer(text, True), default=0)
    sweep.add_argument("--resamples", type=_integer, default=DEFAULT_RESAMPLES,
                       help=f"bootstrap replicates per point for error bars (default {DEFAULT_RESAMPLES})")
    sweep.add_argument(
        "--relations", default=_SUM_FORM_LABELS, metavar="LABELS",
        help=f"comma-separated labels from {_SUM_FORM_LABELS}",
    )
    _output_flags(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    verify = sub.add_parser(
        "verify",
        help="fuzz the relations with random states and observables",
        description=(
            "Run seeded random instances through every applicable relation "
            "and tally violations; exits 2 if any bound fails beyond "
            "tolerance."
        ),
    )
    verify.add_argument("--trials", type=_integer, default=100)
    verify.add_argument(
        "--dim", type=_int_list, default=(2,), metavar="D[,D...]",
        help="Hilbert-space dimensions to cover (default 2)",
    )
    verify.add_argument(
        "--n-observables", type=_int_list, default=(3,), metavar="N[,N...]",
        help="observable counts to cover (default 3)",
    )
    verify.add_argument("--seed", type=_integer, default=0)
    verify.add_argument(
        "--pauli", action="store_true",
        help="use the fixed Pauli triple on qubits (sum-form relations only)",
    )
    _output_flags(verify)
    verify.set_defaults(handler=_cmd_verify)

    bounds = sub.add_parser(
        "bounds",
        help="report every bound for one state and observable set",
        description=(
            "Load a state (and optionally observables) from JSON files and "
            "print a report per relation."
        ),
    )
    bounds.add_argument(
        "--state-file", required=True,
        help="JSON state: amplitudes, density, stokes, or bloch form",
    )
    bounds.add_argument(
        "--observables-file", default=None,
        help="JSON observable list; defaults to the Pauli triple for qubits",
    )
    bounds.add_argument(
        "--pairwise", action="store_true",
        help="also report the pairwise product/sum relations per pair",
    )
    _output_flags(bounds)
    bounds.set_defaults(handler=_cmd_bounds)
    return parser


def _output_flags(parser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output file (default: stdout)")


def _parse_relations(text: str):
    """The relations that ``text``'s labels name; :class:`SweepSpec` judges the choice."""
    relations = []
    for raw in text.split(","):
        label = raw.strip().upper()
        if not label:
            continue
        if label not in RELATION_BY_LABEL:
            raise ValueError(f"unknown relation label {raw!r}; choose from {_SUM_FORM_LABELS}")
        relations.append(RELATION_BY_LABEL[label])
    return tuple(relations)


# The drivers load on their first call, so ``bounds`` never loads uncrel.harness.
def run_sweep(*args, **kwargs):
    from .harness import run_sweep
    return run_sweep(*args, **kwargs)


def run_verify(*args, **kwargs):
    from .harness import run_verify
    return run_verify(*args, **kwargs)


def _cmd_sweep(args) -> int:
    from .harness import SweepSpec

    if args.fixed is not None:
        fixed = parse_angle(args.fixed)
    else:
        fixed = 0.0 if args.mode == "theta" else math.pi / 3.0
    steps = args.steps if args.steps is not None else (13 if args.mode == "theta" else 25)
    relations = _parse_relations(args.relations)
    plan = None if args.shots is None else ShotPlan(shots_per_basis=args.shots, seed=args.seed)
    spec = SweepSpec(args.mode, fixed, steps, relations, plan)
    table = run_sweep(spec, resamples=args.resamples)
    metadata = {
        "command": "sweep",
        "mode": args.mode,
        "fixed_angle": f"{fixed:.12g}",
        "steps": steps,
        "relations": ",".join(r.label for r in relations),
        "shots_per_basis": args.shots if args.shots is not None else "exact",
        "seed": args.seed,
    }
    if args.shots is not None:
        metadata["resamples"] = args.resamples
    emit(table, args.format, args.out, metadata=metadata)
    return 0


def _cmd_verify(args) -> int:
    summary = run_verify(
        args.trials,
        dims=args.dim,
        counts=args.n_observables,
        seed=args.seed,
        use_paulis=args.pauli,
    )
    metadata = {"command": "verify", "seed": args.seed}
    emit(summary, args.format, args.out, metadata=metadata)
    return 2 if summary.has_violations else 0


def _cmd_bounds(args) -> int:
    state = _load_state(args.state_file)
    observables = _load_observables(args.observables_file, state)
    results = evaluate_all(observables, state, include_pairwise=args.pairwise)
    metadata = {
        "command": "bounds",
        "state_file": args.state_file,
        "observables_file": args.observables_file or "pauli",
    }
    emit(results, args.format, args.out, metadata=metadata)
    violated = any(
        isinstance(r, BoundReport) and not r.holds for r in results
    )
    return 2 if violated else 0


def _load_json(path: str) -> dict:
    with open(path) as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path} nests JSON too deeply to read") from None


def _complex_entries(data, what: str) -> np.ndarray:
    """Convert nested ``[re, im]`` pairs into a complex array."""
    nested = [data]
    while nested:  # numpy would read "1" and true as numbers
        item = nested.pop()
        if isinstance(item, list):
            nested += item
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ValueError(f"{what} must be nested lists of numbers, got {_clip(json.dumps(item))}")
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} must be nested lists of numbers") from None
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValueError(f"{what} must use [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def _load_state(path: str) -> QuantumState:
    payload = _load_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"state file {path} must hold a JSON object")
    forms = [form for form in ("amplitudes", "density", "stokes", "bloch") if form in payload]
    if len(forms) > 1:
        raise ValueError(f"state file {path} names more than one form: {', '.join(forms)}")
    if "amplitudes" in payload:
        return PureState(_complex_entries(payload["amplitudes"], "amplitudes"))
    if "density" in payload:
        return DensityMatrix(_complex_entries(payload["density"], "density"))
    if "stokes" in payload:
        values = payload["stokes"]
        if not isinstance(values, list) or len(values) != 4:
            raise ValueError("stokes form needs [s0, s1, s2, s3]")
        return stokes_to_density(StokesVector(*[_number(v) for v in values]))
    if "bloch" in payload:
        angles = payload["bloch"]
        if not isinstance(angles, dict):
            raise ValueError('bloch form needs {"theta": ..., "phi": ...}')
        theta = _angle_field(angles.get("theta", 0.0))
        phi = _angle_field(angles.get("phi", 0.0))
        return bloch_to_state(BlochAngles(theta, phi))
    raise ValueError(
        f"state file {path} needs one of: amplitudes, density, stokes, bloch"
    )


def _number(value) -> float:
    # The bound also refuses NaN, infinities and ints too large for a float.
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise ValueError(f"expected a finite number, got {_clip(repr(value))}")
    return float(value)


def _angle_field(value) -> float:
    if isinstance(value, str):
        return parse_angle(value)
    return _number(value)


def _load_observables(path: str | None, state: QuantumState) -> ObservableSet:
    if path is None:
        if state.dim != 2:
            raise ValueError(
                "an observables file is required for states above dimension 2"
            )
        return pauli_triple()
    payload = _load_json(path)
    if isinstance(payload, dict):
        payload = payload.get("observables")
    if not isinstance(payload, list) or not payload:
        raise ValueError(f"observables file {path} must hold a non-empty list")
    return ObservableSet(
        tuple(Observable(_complex_entries(entry, "observable")) for entry in payload)
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: a command is required", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except tuple(_EXIT_CODES) as err:
        print(f"{parser.prog}: error: {err}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(err, kind))


def _keep_freed_memory() -> None:
    """Fix glibc's mmap threshold at 4 MiB and its trim threshold at 8 MiB.

    By default they grow with each mapped block freed, and a shot sweep's
    temporaries of a few hundred KiB go back to the kernel at every point
    and are faulted in again.  Without ``mallopt`` this does nothing.
    """
    import ctypes  # loaded by numpy already, so imported here for free

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


def run() -> None:
    gc.freeze()
    gc.enable()
    _keep_freed_memory()
    # argparse prints and exits inside main on --help, --version and usage
    # errors; nothing has flushed that text or reported a failed write of it.
    code, reported = 3, False
    try:
        try:
            code, reported = main(), True
        except SystemExit as done:
            code = done.code
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as err:
        if not reported:
            print(f"uncrel: error: cannot write output to stdout: {err}", file=sys.stderr)
            code = 3
        # What is left in the buffer goes to /dev/null, so the interpreter's
        # own final flush succeeds.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    run()
