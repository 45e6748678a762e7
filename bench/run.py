"""End-to-end benchmark of the ``uncrel`` command line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload sweeps --seed 3 --seconds 20 --trace 0

With ``--trace 0`` each operation of the workload runs as its own
``python -m uncrel.cli`` child process, one at a time, with ``src`` on the
import path; the run reports the end-to-end metrics.  With ``--trace 1``
the same operations call ``uncrel.cli.main`` in this process, alternating
an untraced round with a round traced by :mod:`tracing`; the run reports
the per-layer metrics.  Either way the run repeats whole rounds of the
workload's operations for about ``--seconds``, checks the outputs
(:mod:`checks`), and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

#: Shares of a run's wall time given to fresh-interpreter samples taken
#: between operations: REFERENCE_SHARE to ``reference.py`` (see below) and
#: SETUP_SHARE to ``import uncrel`` for ``setup_s``.  After each operation
#: the run samples until each has had its share of the time so far, so the
#: samples spread over the run like the operations do.
REFERENCE_SHARE = 0.2
SETUP_SHARE = 0.2
#: ``latency_p90_s`` is printed only with ten samples beyond it.
P90_MIN_SAMPLES = 100
#: The shared host switches between a fast and a slow state, in stretches
#: of seconds to minutes, and both the operations and a fixed program,
#: ``reference.py``, take about half as long again in the slow state.  So
#: every end-to-end time is scaled by REFERENCE_NOMINAL_S over the mean
#: wall time of the REFERENCE_NEIGHBOURS reference runs nearest to it in
#: time: times are stated at the host speed at which the reference takes
#: REFERENCE_NOMINAL_S (the fast state of a 2-core Xeon with Python 3.11.7
#: and numpy 2.4.6).
REFERENCE_NOMINAL_S = 0.25
REFERENCE_NEIGHBOURS = 4


class Outcome:
    """What one operation did: exit code, wall time and its midpoint, stderr, output."""

    def __init__(self, op: dict, returncode: int, wall: float, stderr: str, rss_mb: float = 0.0, at: float = 0.0):
        self.op = op
        self.returncode = returncode
        self.wall = wall
        self.at = at
        self.stderr = stderr
        self.rss_mb = rss_mb
        path = output_path(op)
        self.text = path.read_text() if path.exists() else None
        self.digest = hashlib.sha256((self.text or "").encode()).hexdigest()


def output_path(op: dict) -> Path:
    return Path(op["argv"][op["argv"].index("--out") + 1])


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


#: Runs ``uncrel.cli`` as ``python -m`` does, then records the process's own
#: peak resident set.  The kernel's rusage for a child also counts the
#: memory of the process that forked it, so it cannot be used here.
CHILD = """
import runpy, sys
rss_path = sys.argv.pop(1)
try:
    runpy.run_module("uncrel.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status, open(rss_path, "w") as out:
        out.write(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


class SubprocessRunner:
    """Runs each operation in a child interpreter, with the samples between them."""

    REFERENCE = [str(BENCH_DIR / "reference.py")]
    SETUP = ["-c", "import uncrel"]

    def __init__(self, root: Path, workdir: Path):
        self.env = _child_env(root)
        self.log = workdir / "stderr.log"
        self.rss = workdir / "rss_kb"
        self.sample(self.SETUP)  # untimed: fills the file cache
        self.start = perf_counter()
        self.references = [self.sample(self.REFERENCE)]
        self.setups = [self.sample(self.SETUP)]

    def child(self, argv: list[str]) -> tuple[int, float, float]:
        """Run one child interpreter; returns (exit code, wall seconds, midpoint time)."""
        with open(self.log, "wb") as err:
            start = perf_counter()
            proc = subprocess.run([sys.executable, *argv], stdout=subprocess.DEVNULL, stderr=err, env=self.env)
            wall = perf_counter() - start
            return proc.returncode, wall, start + wall / 2.0

    def sample(self, argv: list[str]) -> tuple[float, float]:
        """(midpoint time, wall seconds) of a child that must succeed."""
        code, wall, at = self.child(argv)
        if code != 0:
            raise RuntimeError(f"{argv} failed: {self.log.read_text()[-500:]}")
        return at, wall

    def __call__(self, op: dict) -> Outcome:
        output_path(op).unlink(missing_ok=True)
        code, wall, at = self.child(["-c", CHILD, str(self.rss), *op["argv"]])
        outcome = Outcome(op, code, wall, self.log.read_text(), int(self.rss.read_text()) / 1024.0, at)
        while True:
            elapsed = perf_counter() - self.start
            ref_due = REFERENCE_SHARE * elapsed - sum(w for _, w in self.references)
            setup_due = SETUP_SHARE * elapsed - sum(w for _, w in self.setups)
            if max(ref_due, setup_due) <= 0.0:
                return outcome
            if ref_due >= setup_due:
                self.references.append(self.sample(self.REFERENCE))
            else:
                self.setups.append(self.sample(self.SETUP))

    def scaled(self, at: float, wall: float) -> float:
        """``wall``, measured around time ``at``, at the nominal host speed."""
        nearest = sorted(self.references, key=lambda ref: abs(ref[0] - at))[:REFERENCE_NEIGHBOURS]
        return wall * REFERENCE_NOMINAL_S / statistics.mean(w for _, w in nearest)


class InProcessRunner:
    """Calls ``uncrel.cli.main``; exceptions become exit 1 with a traceback."""

    def __init__(self, root: Path):
        sys.path.insert(0, str(root / "src"))
        import uncrel.cli

        self.main = uncrel.cli.main

    def __call__(self, op: dict, main=None) -> Outcome:
        output_path(op).unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = (main or self.main)(list(op["argv"]))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # the CLI let an error escape; record it as a crash
                traceback.print_exc()
                code = 1
            wall = perf_counter() - start
        return Outcome(op, code, wall, err.getvalue())


class Ledger:
    """Counts, failures and checks over every round of a run."""

    def __init__(self, workload: str, ctx: checks.Context):
        self.workload = workload
        self.ctx = ctx
        self.errors = list(ctx.errors)
        self.reference = None
        self.faults = {}
        self.attempted = 0
        self.failures = {}
        self.completed = []

    def record(self, ops: list[dict], outcomes: list[Outcome]) -> None:
        """Account one round; the first is checked in full, later ones must repeat it."""
        self.attempted += len(outcomes)
        signature = [(o.returncode, o.digest) for o in outcomes]
        if self.reference is None:
            self.reference = signature
            texts = {o.op["name"]: o.text for o in outcomes if o.returncode == 0}
            self.errors += checks.check_round(self.workload, ops, texts, self.ctx)
            self.faults = {
                o.op["name"]: checks.classify_failure(o.op, o.returncode, o.stderr, o.text)
                for o in outcomes if o.returncode != 0
            }
        elif signature != self.reference:
            changed = [o.op["name"] for o, ref in zip(outcomes, self.reference) if (o.returncode, o.digest) != ref]
            self.errors.append(f"round output differs from the first round: {changed}")
        self.completed += [o for o in outcomes if o.returncode == 0]
        for o in outcomes:
            if o.returncode != 0:
                fault = self.faults.get(o.op["name"], f"unrecognised failure (exit {o.returncode})")
                self.failures[o.op["name"]] = fault

    @property
    def failed(self) -> int:
        return self.attempted - len(self.completed)


def run_rounds(seconds: float, round_fn) -> int:
    """Run whole rounds for about ``seconds``: stop once one more round
    would end further past it than the rounds so far end short of it."""
    start = perf_counter()
    durations = []
    while True:
        t = perf_counter()
        round_fn()
        durations.append(perf_counter() - t)
        if perf_counter() - start + statistics.median(durations) / 2.0 >= seconds:
            return len(durations)


def end_to_end(ops, ledger: Ledger, runner: SubprocessRunner, seconds: float) -> tuple[dict, list[str]]:
    """Times count only completed operations that cannot reach a known fault."""
    peak = [0.0]

    def one_round():
        outcomes = [runner(op) for op in ops]
        peak[0] = max(peak[0], *(o.rss_mb for o in outcomes))
        ledger.record(ops, outcomes)

    rounds = run_rounds(seconds, one_round)
    timed = [o for o in ledger.completed if o.op.get("timed", True)]
    if not timed:
        raise RuntimeError("no timed operation completed")

    def figures(scale) -> dict:
        walls = [scale(o.at, o.wall) for o in timed]
        per_op = {}
        for o, wall in zip(timed, walls):
            per_op.setdefault(o.op["name"], []).append(wall)
        return {
            "setup_s": statistics.median(scale(at, wall) for at, wall in runner.setups),
            "items_per_s": sum(o.op["items"] for o in timed) / sum(walls),
            "latency_p50_s": statistics.median(statistics.median(w) for w in per_op.values()),
        }

    scaled = figures(runner.scaled)
    raw = figures(lambda at, wall: wall)
    references = [w for _, w in runner.references]
    notes = [
        f"rounds = {rounds}, timed operations = {len(timed)} of {len(ledger.completed)} completed, "
        f"setup samples = {len(runner.setups)}",
        f"reference program: {len(references)} runs, median {statistics.median(references):.4f} s, "
        f"range {min(references):.4f}-{max(references):.4f} s, nominal {REFERENCE_NOMINAL_S} s",
        "unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()),
    ]
    if len(timed) >= P90_MIN_SAMPLES:
        p90 = float(np.percentile([runner.scaled(o.at, o.wall) for o in timed], 90))
        notes.append(f"latency_p90_s = {p90:.6g} s over {len(timed)} operations")
    else:
        notes.append(f"latency_p90_s not reported: {len(timed)} operations, {P90_MIN_SAMPLES} needed")
    metrics = {
        "setup_s": (scaled["setup_s"], "s"),
        "items_per_s": (scaled["items_per_s"], "1/s"),
        "latency_p50_s": (scaled["latency_p50_s"], "s"),
        "peak_rss_mb": (peak[0], "MB"),
    }
    return metrics, notes


def traced(ops, ledger: Ledger, runner: InProcessRunner, seconds: float) -> tuple[dict, list[str]]:
    import tracing

    tracer = tracing.Tracer()
    walls = {"plain": 0.0, "traced": 0.0}

    def plain_round():
        outcomes = [runner(op) for op in ops]
        walls["plain"] += sum(o.wall for o in outcomes)
        ledger.record(ops, outcomes)

    def traced_round():
        tracer.install()
        try:
            main = tracer.wrap(tracing.ROOT_SPAN, runner.main)
            outcomes = [runner(op, main) for op in ops]
        finally:
            tracer.uninstall()
        walls["traced"] += sum(o.wall for o in outcomes)
        ledger.record(ops, outcomes)

    # Alternate which side goes first so warm-up favours neither.
    orders = itertools.cycle([(plain_round, traced_round), (traced_round, plain_round)])

    def pair():
        for half in next(orders):
            half()

    rounds = run_rounds(seconds, pair)
    metrics = tracer.metrics(rounds)
    metrics["trace.overhead_s"] = ((walls["traced"] - walls["plain"]) / rounds, "s")
    notes = [f"round pairs = {rounds}; per-layer figures are per traced round"]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="uncrel end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "uncrel" / "cli.py").is_file():
        print(f"bench: no uncrel sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        ops = inputs.write_inputs(args.workload, args.seed, workdir)
        ledger = Ledger(args.workload, checks.Context(args.workload))
        if args.trace:
            metrics, notes = traced(ops, ledger, InProcessRunner(root), args.seconds)
        else:
            metrics, notes = end_to_end(ops, ledger, SubprocessRunner(root, workdir), args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"uncrel benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: cores={os.cpu_count()} python={platform.python_version()} numpy={np.__version__}")
    for line in notes:
        print(line)
    print(f"attempted = {ledger.attempted}, failed = {ledger.failed}")
    for name, fault in sorted(ledger.failures.items()):
        print(f"failed operation {name}: {fault}")
    for error in ledger.errors:
        print(f"CHECK FAILED: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not ledger.errors,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
