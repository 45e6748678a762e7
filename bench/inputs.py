"""Seeded input generator: one round of inputs per workload.

``write_inputs(workload, seed, directory)`` writes the state and
observable JSON files the workload's ``bounds`` queries read, and returns
its manifest: the ``uncrel`` operations of one round, with everything
needed to check them.  The same seed always writes the same files and
manifest.

Some inputs do not depend on the seed, on purpose: the 2,400-shot sweep
seeds and the 10^3-scaled qubit queries.  They reach two known faults
(see README.md) that fail only on some inputs; fixing the inputs makes
the failed share of a round the same for every workload seed.  Their
operations carry ``"timed": False``: they are checked and counted, but
left out of the timings, so that mending a fault, which lets more of
them complete, does not move a timing.

Run ``python3 bench/inputs.py --workload sweeps --seed 7 --out DIR`` to
write the files and print the manifest.
"""
from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

PAULI_TRIALS = 10_000
RANDOM_TRIALS = 100
RANDOM_DIMS = (2, 3, 4)
RANDOM_COUNTS = (2, 3, 4, 5)
EXACT_STEPS = 5_001
HIGH_SHOTS = 24_000
HIGH_RESAMPLES = 20_000
DOC_SHOTS = 2_400
#: Seeds of the documented 2,400-shot theta (13 points) and phi (25 points,
#: theta = pi/3) sweeps; some of them trip the HARD_BALL_LIMIT fault.
DOC_SHOT_SEEDS = (0, 1)
#: Fixed stream of the 10^3-scaled qubit queries.
SCALED_STREAM = 1707_06044
SCALED_FACTOR = 1e3
#: Stream indices of the scaled qubit queries (two observables, pairwise
#: on).  With uncrel 0.1.0 they are the first indices with each outcome:
#: 0 ends in a ConsistencyError traceback, 2 completes, and 31 reports a
#: false violation of the identically tight MPO bound.
SCALED_CASES = (0, 2, 31)

#: (state form, dimension, observable count or None for the Pauli default)
BOUNDS_QUERIES = (
    ("amplitudes", 2, 2),
    ("amplitudes", 3, 3),
    ("amplitudes", 4, 4),
    ("amplitudes", 5, 5),
    ("amplitudes", 6, 3),
    ("density", 2, 3),
    ("density", 3, 4),
    ("stokes", 2, 5),
    ("stokes", 2, None),
    ("bloch", 2, 2),
    ("bloch", 2, None),
)

WORKLOADS = ("pauli-campaign", "random-campaign", "sweeps", "bounds-queries")


def _pairs(array) -> list:
    """Complex array to nested ``[re, im]`` lists, the CLI's JSON form."""
    a = np.asarray(array, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def random_ket(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_hermitian(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def random_density(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def _state_payload(rng, form: str, dim: int) -> dict:
    if form == "amplitudes":
        return {"amplitudes": _pairs(random_ket(rng, dim))}
    if form == "density":
        return {"density": _pairs(random_density(rng, dim))}
    if form == "stokes":
        s0 = float(rng.uniform(0.5, 4.0))
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        polarized = s0 * float(rng.uniform(0.0, 1.0))
        return {"stokes": [s0, *(polarized * direction).tolist()]}
    theta_deg = float(rng.uniform(0.0, 180.0))
    return {"bloch": {"theta": f"{theta_deg!r}deg", "phi": float(rng.uniform(0.0, 2.0 * math.pi))}}


def _write(path: Path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def _query(state_file: str, obs_file: str | None, out: str) -> list[str]:
    argv = ["bounds", "--state-file", state_file, "--pairwise", "--format", "json", "--out", out]
    if obs_file is not None:
        argv[3:3] = ["--observables-file", obs_file]
    return argv


def bounds_ops(seed: int, directory: Path) -> list[dict]:
    ops = []
    for k, (form, dim, count) in enumerate(BOUNDS_QUERIES):
        rng = np.random.default_rng([seed, k])
        state_file = _write(directory / f"q{k}_state.json", _state_payload(rng, form, dim))
        obs_file = None
        if count is not None:
            obs = [_pairs(random_hermitian(rng, dim)) for _ in range(count)]
            obs_file = _write(directory / f"q{k}_obs.json", {"observables": obs})
        ops.append({
            "name": f"q{k}-{form}-d{dim}-n{count or 3}",
            "argv": _query(state_file, obs_file, str(directory / f"q{k}_out.json")),
            "items": 1,
        })
    for k in SCALED_CASES:
        rng = np.random.default_rng([SCALED_STREAM, k])
        state_file = _write(directory / f"s{k}_state.json", {"amplitudes": _pairs(random_ket(rng, 2))})
        mats = [random_hermitian(rng, 2) for _ in range(2)]
        names = []
        for tag, factor in (("unit", 1.0), ("scaled", SCALED_FACTOR)):
            obs_file = _write(
                directory / f"s{k}_{tag}_obs.json",
                {"observables": [_pairs(factor * m) for m in mats]},
            )
            name = f"s{k}-{tag}"
            op = {
                "name": name,
                "argv": _query(state_file, obs_file, str(directory / f"{name}_out.json")),
                "items": 1,
            }
            if factor != 1.0:
                op["scaled_of"] = names[0]
                op["factor"] = factor
                op["timed"] = False
            names.append(name)
            ops.append(op)
    return ops


def sweep_ops(seed: int, directory: Path) -> list[dict]:
    rng = np.random.default_rng([seed, 1000])
    phi_fixed = float(rng.uniform(0.0, 2.0 * math.pi))
    theta_fixed = float(rng.uniform(0.0, math.pi))
    shot_seed = int(rng.integers(0, 2**31))
    plans = [
        ("exact-theta", "theta", phi_fixed, EXACT_STEPS, None, 0, "json"),
        ("exact-phi", "phi", theta_fixed, EXACT_STEPS, None, 0, "csv"),
        ("shots24k-theta", "theta", phi_fixed, 13, HIGH_SHOTS, shot_seed, "json"),
        ("shots24k-phi", "phi", theta_fixed, 25, HIGH_SHOTS, shot_seed + 1, "csv"),
    ]
    for s in DOC_SHOT_SEEDS:
        plans.append((f"shots2400-theta-s{s}", "theta", 0.0, 13, DOC_SHOTS, s, "json"))
        plans.append((f"shots2400-phi-s{s}", "phi", math.pi / 3.0, 25, DOC_SHOTS, s, "json"))
    ops = []
    for name, mode, fixed, steps, shots, shot_seed_, fmt in plans:
        argv = ["sweep", "--mode", mode, "--fixed", repr(fixed), "--steps", str(steps)]
        if shots is not None:
            resamples = HIGH_RESAMPLES if shots == HIGH_SHOTS else 1000
            argv += ["--shots", str(shots), "--seed", str(shot_seed_), "--resamples", str(resamples)]
        out = str(directory / f"{name}.{fmt}")
        argv += ["--format", fmt, "--out", out]
        ops.append({
            "name": name, "argv": argv, "items": steps,
            "mode": mode, "fixed": fixed, "steps": steps, "exact": shots is None,
            "timed": shots != DOC_SHOTS,
        })
    return ops


def campaign_ops(workload: str, seed: int, directory: Path) -> list[dict]:
    out = str(directory / f"{workload}.json")
    if workload == "pauli-campaign":
        argv = ["verify", "--pauli", "--trials", str(PAULI_TRIALS)]
        items = PAULI_TRIALS
    else:
        argv = [
            "verify", "--trials", str(RANDOM_TRIALS),
            "--dim", ",".join(map(str, RANDOM_DIMS)),
            "--n-observables", ",".join(map(str, RANDOM_COUNTS)),
        ]
        items = RANDOM_TRIALS * len(RANDOM_DIMS) * len(RANDOM_COUNTS)
    argv += ["--seed", str(seed), "--format", "json", "--out", out]
    return [{"name": workload, "argv": argv, "items": items}]


def write_inputs(workload: str, seed: int, directory: Path) -> list[dict]:
    """Write one round's inputs for ``workload`` and return its operations."""
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "bounds-queries":
        return bounds_ops(seed, directory)
    if workload == "sweeps":
        return sweep_ops(seed, directory)
    if workload in ("pauli-campaign", "random-campaign"):
        return campaign_ops(workload, seed, directory)
    raise ValueError(f"unknown workload {workload!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="bounds-queries")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the generated files")
    args = parser.parse_args()
    print(json.dumps(write_inputs(args.workload, args.seed, Path(args.out)), indent=2))


if __name__ == "__main__":
    main()
