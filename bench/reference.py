"""A fixed program that measures how fast the host runs code like uncrel's.

The benchmark times it in a fresh interpreter between its operations. It
imports numpy, then repeats work shaped like one Pauli-campaign instance:
seeding a generator, drawing a state, matrix-vector products, expectation
values and small frozen dataclasses. It imports nothing from uncrel, so a
change to the program cannot move it; only the host's speed can.
"""
from dataclasses import dataclass

import numpy as np

INSTANCES = 700

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class Report:
    lhs: float
    rhs: float
    holds: bool


def instance(index: int) -> list[Report]:
    seed = int(np.random.SeedSequence([0, index, 2, 3, 0]).generate_state(1)[0])
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi = psi / float(np.linalg.norm(psi))
    variances = []
    for m in PAULIS:
        w = m @ psi
        mean = complex(np.vdot(psi, w)).real
        variances.append(float(np.vdot(w, w).real) - mean * mean)
    comms = [
        complex(np.vdot(psi, a @ (b @ psi)) - np.vdot(psi, b @ (a @ psi))).imag
        for a, b in zip(PAULIS, PAULIS[1:] + PAULIS[:1])
    ]
    lhs = sum(variances)
    return [Report(lhs, abs(c), lhs >= abs(c)) for c in comms]


if __name__ == "__main__":
    for i in range(INSTANCES):
        instance(i)
