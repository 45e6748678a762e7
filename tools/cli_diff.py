"""Run a fixed list of ``uncrel`` commands against two source trees and
report every difference in stdout, stderr, exit code or ``--out`` file.

    python tools/cli_diff.py OLD_ROOT NEW_ROOT

Each root is a checkout with ``src/uncrel``.  Every command runs as
``python -m uncrel.cli`` with that root's ``src`` first on ``PYTHONPATH``,
in a scratch directory of its own laid out the same way for both roots, so
both see the same arguments.  The list (:func:`commands`) holds the
``sweeps``, ``bounds-queries`` and campaign workload commands that
``bench/inputs.py`` writes at seeds 3, 7 and 11, plus exact sweeps at 511,
512, 513 and 10,001 steps and the acceptance campaign ``verify --pauli
--trials 100000 --seed 0``, each as JSON to a file and as CSV to stdout, plus
JSON sweeps with integral cells and columns of one value: exact phi sweeps
at both poles, and shot sweeps at 1, 3 and 10 shots, where expectation
estimates reach +-1 (at 10 shots on both poles), and at 2^53 + 1 shots,
where only exact integer division keeps the point estimates' bits, plus
``--version``, the four ``--help`` texts and a bare ``uncrel``
(:data:`USAGE`), plus
refusals: ``verify`` with one observable, dimension 1, a repeated count,
no trials or a negative seed; ``sweep``
with a pairwise, repeated or empty choice of relations, a held angle out
of range, one step, a step count that is no integer, no shots or fewer
bootstrap replicates than a shot sweep takes; and
``bounds`` on inputs of the wrong dimensions or counts and on a Stokes
vector longer than its intensity (:data:`REFUSALS`), plus the 9-step phi
sweep on the equator, a ``bounds`` query on Pauli observables shifted by
1e4 times the identity, and ``bounds`` on a state 1e-10 past the
Bloch-ball edge as a Stokes vector and as a density matrix
(:data:`EXACT_CASES`); it writes their input files.  The exit status is 0
when every command is identical on both roots, else 1.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (3, 7, 11)
WORKLOADS = ("sweeps", "bounds-queries", "pauli-campaign", "random-campaign")
EXACT_STEPS = (511, 512, 513, 10_001)
#: The acceptance campaign.
PAULI_CAMPAIGN = ["verify", "--pauli", "--trials", "100000", "--seed", "0"]
#: JSON sweeps whose cells JSON spells apart from "%.12g": integral values
#: and columns of one value at the poles, and at few shots, where every
#: expectation estimate may be +-1.
SPECIAL_SWEEPS = {
    "pole-0": ["--mode", "phi", "--fixed", "0", "--steps", "1025"],
    "pole-pi": ["--mode", "phi", "--fixed", "180deg", "--steps", "1025"],
    "shots1-theta": ["--mode", "theta", "--steps", "601", "--shots", "1", "--seed", "5",
                     "--resamples", "100"],
    "shots3-phi": ["--mode", "phi", "--fixed", "0.4", "--steps", "601", "--shots", "3",
                   "--seed", "6", "--resamples", "100"],
    "shots10-pole": ["--mode", "phi", "--fixed", "0", "--steps", "25", "--shots", "10",
                     "--resamples", "100"],
    # <sigma_x> and <sigma_y> are round-off of 0 (+-1e-16) here, and numpy draws a
    # binomial at p > 1/2 as n - X at 1 - p: their last bits can reflect the counts.
    "shots10-pole-pi": ["--mode", "phi", "--fixed", "180deg", "--steps", "25", "--shots", "10",
                        "--resamples", "100"],
    # 2^53 + 1 shots: a point estimate (up - down) / shots taken in int64 and
    # rounded to float differs from Python's exact integer division here.
    "shots-2p53": ["--mode", "theta", "--steps", "5", "--shots", "9007199254740993", "--seed", "2",
                   "--resamples", "100"],
}
#: The parsers' own output: version, help texts, and a bare ``uncrel`` (exit 1).
USAGE = {
    "version": ["--version"],
    "help": ["--help"],
    "sweep-help": ["sweep", "--help"],
    "verify-help": ["verify", "--help"],
    "bounds-help": ["bounds", "--help"],
    "bare": [],
}

SX = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
SZ = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
QUTRIT_Z = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [-1, 0]]]
#: Commands refused with exit 1 and one error line: ``(argv, input files)``.
REFUSALS = {
    "verify-one-observable": (["verify", "--n-observables", "1"], {}),
    "verify-dim-1": (["verify", "--dim", "1"], {}),
    "bounds-qutrit-state-qubit-observables": (
        ["bounds", "--state-file", "qutrit.json", "--observables-file", "qubits.json"],
        {"qutrit.json": {"amplitudes": [[1, 0], [0, 0], [0, 0]]}, "qubits.json": [SX, SZ]}),
    "bounds-one-observable": (
        ["bounds", "--state-file", "qubit.json", "--observables-file", "one-observable.json"],
        {"qubit.json": {"amplitudes": [[1, 0], [0, 0]]}, "one-observable.json": [SX]}),
    "bounds-mixed-dimensions": (
        ["bounds", "--state-file", "qubit.json", "--observables-file", "mixed.json"],
        {"qubit.json": {"amplitudes": [[1, 0], [0, 0]]}, "mixed.json": [SX, QUTRIT_Z]}),
    "bounds-density-1x1": (
        ["bounds", "--state-file", "tiny.json"], {"tiny.json": {"density": [[[1, 0]]]}}),
    "bounds-amplitudes-1": (
        ["bounds", "--state-file", "one.json"], {"one.json": {"amplitudes": [[1, 0]]}}),
    "bounds-observables-1x1": (
        ["bounds", "--state-file", "qubit.json", "--observables-file", "tiny-observables.json"],
        {"qubit.json": {"amplitudes": [[1, 0], [0, 0]]}, "tiny-observables.json": [[[[1, 0]]], [[[1, 0]]]]}),
    "verify-repeated-count": (["verify", "--n-observables", "2,2"], {}),
    "bounds-stokes-beyond-density": (
        ["bounds", "--state-file", "stokes.json"], {"stokes.json": {"stokes": [1, 1.0000000003, 0, 0]}}),
    "sweep-relations-pairwise": (["sweep", "--mode", "theta", "--relations", "R"], {}),
    "sweep-relations-repeated": (["sweep", "--mode", "theta", "--relations", "T1,T1"], {}),
    "sweep-relations-empty": (["sweep", "--mode", "theta", "--relations", ","], {}),
    "sweep-theta-fixed-7": (["sweep", "--mode", "theta", "--fixed", "7"], {}),
    "sweep-phi-fixed-4": (["sweep", "--mode", "phi", "--fixed", "4"], {}),
    "sweep-steps-1": (["sweep", "--mode", "theta", "--steps", "1"], {}),
    "sweep-steps-abc": (["sweep", "--mode", "theta", "--steps", "abc"], {}),
    "sweep-shots-0": (["sweep", "--mode", "theta", "--shots", "0"], {}),
    "verify-trials-0": (["verify", "--trials", "0"], {}),
    "verify-seed-negative": (["verify", "--seed", "-1"], {}),
    "sweep-resamples-50": (["sweep", "--mode", "theta", "--resamples", "50"], {}),
}
#: Commands whose bounds sit where round-off in the moment table shows: at a
#: square-root kink, on observables shifted by the identity, and on a state a
#: round-off past the Bloch-ball edge, as Stokes vector and density matrix:
#: ``(argv, input files)``.
EXACT_CASES = {
    "sweep-equator-phi-9": (["sweep", "--mode", "phi", "--fixed", "90deg", "--steps", "9"], {}),
    "bounds-shifted-by-identity": (
        ["bounds", "--state-file", "bloch.json", "--observables-file", "shifted.json"],
        {"bloch.json": {"bloch": {"theta": 1, "phi": 0.4}},
         "shifted.json": [[[[10000, 0], [1, 0]], [[1, 0], [10000, 0]]],
                          [[[10001, 0], [0, 0]], [[0, 0], [9999, 0]]]]}),
    "bounds-stokes-past-the-edge": (
        ["bounds", "--state-file", "edge-stokes.json"], {"edge-stokes.json": {"stokes": [1, 1.0000000001, 0, 0]}}),
    "bounds-density-past-the-edge": (
        ["bounds", "--state-file", "edge-density.json"],
        {"edge-density.json": {"density": [[[0.5, 0], [0.50000000005, 0]], [[0.50000000005, 0], [0.5, 0]]]}}),
}


def _bench_inputs():
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def commands(base: Path) -> list[tuple[str, list[str]]]:
    """``(name, argv)`` of every command, with its input files written under
    ``base`` and every path in ``argv`` relative to ``base``."""
    inputs = _bench_inputs()
    listed = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            folder = f"{workload}-s{seed}"
            for op in inputs.write_inputs(workload, seed, base / folder):
                argv = [arg.replace(f"{base}{os.sep}", "") for arg in op["argv"]]
                listed.append((f"{folder}/{op['name']}", argv))
    for steps in EXACT_STEPS:
        sweep = ["sweep", "--mode", "theta", "--steps", str(steps)]
        listed.append((f"exact-{steps}-json", [*sweep, "--format", "json", "--out", f"exact-{steps}.json"]))
        listed.append((f"exact-{steps}-csv", [*sweep, "--format", "csv"]))
    listed.append(("pauli-100000-json", [*PAULI_CAMPAIGN, "--format", "json", "--out", "pauli-100000.json"]))
    listed.append(("pauli-100000-csv", [*PAULI_CAMPAIGN, "--format", "csv"]))
    for name, args in SPECIAL_SWEEPS.items():
        listed.append((f"{name}-json", ["sweep", *args, "--format", "json", "--out", f"{name}.json"]))
    listed += [(f"usage-{name}", args) for name, args in USAGE.items()]
    written = {}
    for prefix, cases in (("refuse", REFUSALS), ("exact", EXACT_CASES)):
        for name, (args, files) in cases.items():
            for file_name, payload in files.items():
                # One folder holds every case's files: a name means one content.
                assert written.setdefault(file_name, payload) == payload, file_name
                (base / file_name).write_text(json.dumps(payload))
            listed.append((f"{prefix}-{name}", args))
    return listed


def child_env(root: Path) -> dict:
    """This process's environment with ``root``'s ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def run(root: Path, base: Path, argv: list[str]) -> tuple:
    """Exit code, stdout, stderr and ``--out`` file bytes (None if absent)."""
    done = subprocess.run([sys.executable, "-m", "uncrel.cli", *argv], cwd=base,
                          env=child_env(root), capture_output=True)
    out = base / argv[argv.index("--out") + 1] if "--out" in argv else None
    written = out.read_bytes() if out is not None and out.exists() else None
    return done.returncode, done.stdout, done.stderr, written


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="root of the first checkout")
    parser.add_argument("new", type=Path, help="root of the second checkout")
    args = parser.parse_args()
    roots = [args.old.resolve(), args.new.resolve()]
    if not all((root / "src" / "uncrel").is_dir() for root in roots):
        parser.error("each root must contain src/uncrel")
    fields = ("exit code", "stdout", "stderr", "--out file")
    with tempfile.TemporaryDirectory() as scratch:
        bases = [Path(scratch) / side for side in ("old", "new")]
        listed = commands(bases[0])
        assert commands(bases[1]) == listed
        differ = 0
        for name, argv in listed:
            old, new = (run(root, base, argv) for root, base in zip(roots, bases))
            changed = [field for field, a, b in zip(fields, old, new) if a != b]
            differ += bool(changed)
            print(f"{'DIFF' if changed else 'same'} {name}" + (f": {', '.join(changed)}" if changed else ""))
    print(f"{len(listed) - differ} of {len(listed)} commands identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
