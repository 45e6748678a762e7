"""Split the wall time of ``uncrel`` processes into start-up, command and exit.

    python tools/process_phases.py ROOT [ROOT ...] [--runs N]

Each ROOT is a checkout with ``src/uncrel``.  For each command of
``tools/cli_diff.py``'s list (:func:`cli_diff.commands`), the script runs N
child interpreters per root, one at a time and alternating between the
roots, with that root's ``src`` first on ``PYTHONPATH``.  Each child
imports numpy, then ``uncrel.cli``, and calls ``uncrel.cli.run()``, the
process entry point, with ``main`` wrapped to time its call.  The parent
and the child both read ``time.monotonic``, one clock for every process,
so the phases of one process are:

* numpy: from spawning the process to numpy being imported, so the
  interpreter's own start-up and numpy's import;
* uncrel: from there to ``uncrel.cli`` being imported, the import of
  uncrel's own modules;
* command: the ``main`` call;
* exit: from ``main`` returning until the parent sees the process gone.

Start-up is the first two.  Under ``PYTHONDONTWRITEBYTECODE=1``, as the
benchmark runs, the uncrel phase compiles uncrel's sources as well as
executing them.

Per root, it prints the median of each phase and of the whole wall time
per command, then the medians over every process of a workload, in
milliseconds.  The in-process tracer of ``bench/run.py --trace 1`` sees
neither start-up nor exit.  Nothing is written under ``bench/``.
"""
from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import cli_diff  # noqa: E402

#: Runs ``uncrel.cli.run()`` as ``python -m uncrel.cli`` would, and writes
#: the monotonic times of the numpy and uncrel imports' ends and the
#: ``main`` call's start and end to the file named by its first argument.
CHILD = """
import sys, time
stamps_path = sys.argv.pop(1)
import numpy
numpy_imported = time.monotonic()
import uncrel.cli
imported = time.monotonic()
main = uncrel.cli.main

def timed_main(argv=None):
    with open(stamps_path, "w") as stamps:
        start = time.monotonic()
        try:
            return main(argv)
        finally:
            end = time.monotonic()
            stamps.write(f"{numpy_imported!r} {imported!r} {start!r} {end!r}")

uncrel.cli.main = timed_main
uncrel.cli.run()
"""

PHASES = ("numpy", "uncrel", "command", "exit", "total")


def phases(root: Path, base: Path, argv: list[str], stamps: Path) -> tuple[float, ...]:
    """Seconds of each of :data:`PHASES`, for one run."""
    stamps.unlink(missing_ok=True)
    spawned = time.monotonic()
    subprocess.run([sys.executable, "-c", CHILD, str(stamps), *argv], cwd=base,
                   env=cli_diff.child_env(root), stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    gone = time.monotonic()
    numpy_imported, imported, start, end = map(float, stamps.read_text().split())
    return (numpy_imported - spawned, imported - numpy_imported, end - start, gone - end,
            gone - spawned)


def workload(name: str) -> str:
    """The workload a command of :func:`cli_diff.commands` belongs to."""
    folder, _, _ = name.rpartition("/")
    return folder.rpartition("-s")[0] if folder else "exact-steps"


def _header(label: str) -> str:
    return f"{label:<44}" + "".join(f"{p:>10}" for p in PHASES) + f"{'runs':>7}"


def _row(label: str, samples: list[tuple[float, ...]]) -> str:
    medians = [1e3 * statistics.median(column) for column in zip(*samples)]
    return f"{label:<44}" + "".join(f"{m:>10.1f}" for m in medians) + f"{len(samples):>7}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="+", type=Path, metavar="ROOT",
                        help="root of a checkout to run")
    parser.add_argument("--runs", type=int, default=5,
                        help="processes per command and root (default 5)")
    args = parser.parse_args()
    roots = [root.resolve() for root in args.roots]
    if not all((root / "src" / "uncrel").is_dir() for root in roots):
        parser.error("each root must contain src/uncrel")
    if args.runs < 1:
        parser.error("--runs must be positive")
    per_command = {root: {} for root in roots}
    with tempfile.TemporaryDirectory() as scratch:
        base = Path(scratch) / "work"
        stamps = Path(scratch) / "stamps"
        for name, argv in cli_diff.commands(base):
            for _ in range(args.runs):
                for root in roots:
                    sample = phases(root, base, argv, stamps)
                    per_command[root].setdefault(name, []).append(sample)
    for root, samples in per_command.items():
        print(f"{root}\n{_header('median ms')}")
        by_workload = {}
        for name, runs in samples.items():
            by_workload.setdefault(workload(name), []).extend(runs)
            print(_row(name, runs))
        print(_header("median ms per process"))
        for name, runs in by_workload.items():
            print(_row(name, runs))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
