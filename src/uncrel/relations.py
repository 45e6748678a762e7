"""Variance uncertainty relations: products, sums, and N-observable bounds.

Each relation compares a measured left-hand side against a state-dependent
lower bound and reports the slack between them.  A relation "holds" when the
slack is no worse than ``-HOLDS_ATOL * max(1, |lhs|)``; exact theory can sit
right on the bound, so a little room for round-off is required.

Two families are covered.  Pairwise relations bound either the product of
two variances (Robertson) or their sum (the two Maccone-Pati forms, pure
states only).  Sum-form relations bound the total variance of three or more
observables through pair combinations, commutator means, or the variance of
the summed observable.

Every relation is a function of the covariances ``C_ij = <(A_i - m_i)(A_j -
m_j)>`` alone (plus, for the orthogonal-state form, the overlaps
``<psi|A_i|psi_perp>``), which no shift ``A_i + c_i 1`` changes.
:func:`uncrel.core.moment_table` builds that table and :func:`bound_values`
holds the one formula set.  It adds every sum over observables or pairs row
by row in index order, so a value has the same bits alone or in any batch.
:func:`instance_values` is the one way from states to those values, for
:func:`evaluate_all` and the campaign blocks of :mod:`uncrel.harness`;
:mod:`uncrel.qubit` evaluates the same formulas on the Pauli table.
"""
from __future__ import annotations

import math
from enum import Enum, unique
from functools import lru_cache
from itertools import combinations, repeat

import numpy as np

from . import core
from .core import _add_rows, _Frozen, DensityMatrix, Observable, PureState, QuantumState

# A report may undershoot its bound by this much, times max(1, |lhs|),
# before it counts as a violation; anything worse is a genuine failure, not
# round-off.
HOLDS_ATOL = 1e-9

_SQRT3 = math.sqrt(3.0)


@unique
class Relation(Enum):
    """The supported relations, with the short labels used in reports."""

    ROBERTSON = "robertson"
    MACCONE_PATI_ORTHOGONAL = "mp_orthogonal"
    MACCONE_PATI_DEVIATION = "mp_deviation"
    TRIPLE_SUM = "triple_sum"
    TRIPLE_COMMUTATOR = "triple_commutator"
    TRIPLE_PAIRWISE = "triple_pairwise"
    SUM_PLUS = "sum_plus"
    SUM_MINUS = "sum_minus"
    CHEN_FEI = "chen_fei"
    SONG = "song"

    # Members are singletons, so identity hashing is exact; it spares the
    # Python-level Enum.__hash__ on every dict lookup keyed by a relation.
    __hash__ = object.__hash__

    @property
    def label(self) -> str:
        return _LABELS[self]

    @property
    def pairwise(self) -> bool:
        return self in PAIRWISE_RELATIONS


_LABELS = {
    Relation.ROBERTSON: "R",
    Relation.MACCONE_PATI_ORTHOGONAL: "MPO",
    Relation.MACCONE_PATI_DEVIATION: "MPD",
    Relation.TRIPLE_SUM: "T1",
    Relation.TRIPLE_COMMUTATOR: "T2",
    Relation.TRIPLE_PAIRWISE: "T3",
    Relation.SUM_PLUS: "M1",
    Relation.SUM_MINUS: "M2",
    Relation.CHEN_FEI: "M3",
    Relation.SONG: "M4",
}

#: Sum-form relations in canonical report order.
SUM_FORM_RELATIONS = (
    Relation.TRIPLE_SUM,
    Relation.TRIPLE_COMMUTATOR,
    Relation.TRIPLE_PAIRWISE,
    Relation.SUM_PLUS,
    Relation.SUM_MINUS,
    Relation.CHEN_FEI,
    Relation.SONG,
)

PAIRWISE_RELATIONS = (
    Relation.ROBERTSON,
    Relation.MACCONE_PATI_ORTHOGONAL,
    Relation.MACCONE_PATI_DEVIATION,
)

RELATION_BY_LABEL = {r.label: r for r in Relation}


class BoundReport(_Frozen):
    """One evaluated relation instance.

    ``slack = lhs - rhs``; ``holds`` follows :func:`holds`.  ``mid``
    carries the pairwise-product middle term of the chained triple relation
    and is ``None`` elsewhere.  ``pair`` identifies the observable indices
    for pairwise relations.
    """

    __slots__ = ("relation", "lhs", "rhs", "slack", "holds", "mid", "pair")

    def __init__(self, relation: Relation, lhs: float, rhs: float, slack: float, holds: bool,
                 mid: float | None = None, pair: tuple[int, int] | None = None) -> None:
        self.relation, self.lhs, self.rhs, self.slack = relation, lhs, rhs, slack
        self.holds, self.mid, self.pair = holds, mid, pair


class SkippedRelation(_Frozen):
    """Marker for a relation that does not apply to the given inputs."""

    __slots__ = ("relation", "reason")

    def __init__(self, relation: Relation, reason: str) -> None:
        self.relation, self.reason = relation, reason


def holds(lhs, rhs):
    """Whether ``lhs >= rhs`` up to round-off: ``slack >= -HOLDS_ATOL * max(1, |lhs|)``.

    The allowance grows with the lhs only above ``|lhs| = 1``, so rescaled
    observables keep a verdict only while ``|lhs| >= 1``: ``holds(1e-8,
    1.05e-8)`` is True, ``holds(1.0, 1.05)`` False.  Shifts by multiples of
    the identity, which no covariance sees, keep it.  Works elementwise.
    """
    return lhs - rhs >= -HOLDS_ATOL * np.maximum(1.0, np.abs(lhs))


def _reports(relations, lhs, rhs, mids, pairs) -> list[BoundReport]:
    """Reports from same-shape value arrays, judged together by :func:`holds`."""
    verdicts = holds(lhs, rhs).tolist()
    return [
        BoundReport(rel, a, b, a - b, ok, mid, pair)
        for rel, a, b, ok, mid, pair in zip(
            relations, lhs.tolist(), rhs.tolist(), verdicts, mids, pairs
        )
    ]


class ObservableSet(_Frozen):
    """An ordered collection of two or more same-dimension observables.

    ``stack`` holds their matrices as one ``(n, d, d)`` array, built once.
    """

    __slots__ = ("observables", "stack")

    def __init__(self, observables: tuple[Observable, ...]) -> None:
        obs = tuple(observables)
        if len(obs) < 2:
            raise ValueError(
                f"an observable set needs at least 2 members, got {len(obs)}"
            )
        if any(not isinstance(o, Observable) for o in obs):
            raise TypeError("observable set members must be Observable instances")
        dims = {o.dim for o in obs}
        if len(dims) > 1:
            raise ValueError(f"observables have mixed dimensions: {sorted(dims)}")
        stack = np.stack([o.matrix for o in obs])
        stack.flags.writeable = False
        self.observables, self.stack = obs, stack

    @property
    def dim(self) -> int:
        return self.observables[0].dim

    @property
    def count(self) -> int:
        return len(self.observables)


# -- the formula set ----------------------------------------------------------

@lru_cache(maxsize=None)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Row-major i < j, the order of itertools.combinations(range(n), 2).
    return np.triu_indices(n, 1)


_PURE_ONLY = (Relation.MACCONE_PATI_ORTHOGONAL, Relation.MACCONE_PATI_DEVIATION)

_SIGNS = np.array([1.0, -1.0])

# Rows and columns of C_12, C_20, C_01.
_CYCLIC_ROWS, _CYCLIC_COLUMNS = np.array([1, 2, 0]), np.array([2, 0, 1])


def bound_values(C: np.ndarray, X: np.ndarray | None = None) -> dict:
    """Every relation that applies, from the covariances ``C_ij = <(A_i -
    m_i)(A_j - m_j)>`` ``(..., n, n)`` over any leading batch shape.

    ``X`` holds ``<psi|A_i|psi_perp>`` ``(..., n)``; without it the
    orthogonal-state bound is left out.  Variances are ``Re C_ii``,
    ``Var(A_i +/- A_j) = Re(C_ii + C_jj +/- 2 C_ij)``, ``Var(sum_i A_i)`` is
    the sum of ``Re C`` and ``<[A_i, A_j]> = 2i Im C_ij``.  Returns
    ``relation -> (lhs, rhs)``, plus the middle term for the chained triple
    bound.  Pairwise entries add a trailing axis over the pairs ``i < j`` in
    ``itertools.combinations`` order.  The triple bounds need exactly 3
    observables and the cross-term bound at least 3; otherwise they are absent.
    Sums over observables and pairs add rows in index order, so each
    instance's values are the same bits for any batch shape.
    """
    n = C.shape[-1]
    i, j = _pair_index(n)
    # .T puts the observable axes first, each term per observable a row, and
    # reverses the batch axes, undone by .T on the way out; cov[b, a] is C_ab.
    var, cov = np.ascontiguousarray(C.real.diagonal(0, -2, -1).T), C.T
    c_ij = cov[j, i]
    lhs = _add_rows(var)
    v_i, v_j = var[i], var[j]
    # Var(A_i + A_j) and Var(A_i - A_j) at once, along a leading sign axis.
    sign = _SIGNS.reshape((2,) + (1,) * c_ij.ndim)
    pair = (v_i + v_j) + sign * (2.0 * c_ij.real)
    # Their square roots have infinite slope at 0, an eigenstate of A_i +/- A_j:
    # a value within 8 eps of its terms is round-off of 0 and is taken as 0.
    pair[pair <= 8.0 * np.finfo(float).eps * (np.abs(v_i) + np.abs(v_j))] = 0.0
    plus_sum, minus_sum = _add_rows(pair.swapaxes(0, 1))
    sum_stds, diff_stds = _add_rows(np.sqrt(pair).swapaxes(0, 1))
    total = lhs + 2.0 * _add_rows(c_ij.real)
    values = {
        Relation.ROBERTSON: (v_i * v_j, c_ij.imag**2),
        Relation.MACCONE_PATI_DEVIATION: (v_i + v_j, 0.5 * pair[0]),
        Relation.SUM_PLUS: (lhs, plus_sum / (2.0 * (n - 1))),
        Relation.SUM_MINUS: (lhs, minus_sum / (2.0 * (n - 1))),
        # np.square squares as x * x also for the scalars of one instance, where
        # ** 2 calls pow(), so one instance and a batch agree bit for bit.
        Relation.SONG: (lhs, total / n + 2.0 * np.square(diff_stds) / (n * n * (n - 1))),
    }
    if n >= 3:
        rhs = plus_sum / (n - 2) - np.square(sum_stds) / ((n - 1) ** 2 * (n - 2))
        values[Relation.CHEN_FEI] = (lhs, rhs)
    if n == 3:
        # <[B,C]>, <[C,A]>, <[A,B]> divided by i
        comm = 2.0 * cov.imag[_CYCLIC_COLUMNS, _CYCLIC_ROWS]
        mags = _add_rows(np.abs(comm))
        a, b, c = np.sqrt(np.maximum(var, 0.0))
        values[Relation.TRIPLE_SUM] = (lhs, total / 3.0 + (_SQRT3 / 3.0) * np.abs(_add_rows(comm)))
        values[Relation.TRIPLE_COMMUTATOR] = (lhs, (_SQRT3 / 3.0) * mags)
        values[Relation.TRIPLE_PAIRWISE] = (lhs, 0.5 * mags, a * b + b * c + c * a)
    if X is not None:
        # i<[A,B]> = -2 Im C_ij picks the branch; at zero take the larger.
        signed = -2.0 * c_ij.imag
        x_i, x_j = X.T[i], X.T[j]
        up = signed + np.abs(x_i + 1j * x_j) ** 2
        down = np.abs(x_i - 1j * x_j) ** 2 - signed
        rhs = np.where(signed > 0.0, up, np.where(signed < 0.0, down, np.maximum(up, down)))
        values[Relation.MACCONE_PATI_ORTHOGONAL] = (v_i + v_j, rhs)
    return {rel: tuple([v.T for v in entry]) for rel, entry in values.items()}


def instance_values(stack: np.ndarray, state: np.ndarray, companions=None) -> dict:
    """:func:`bound_values` of the :func:`~uncrel.core.moment_table` of
    ``stack`` and ``state``, over any batch shape.  With ``companions``
    ``(..., d)``, kets orthogonal to the state kets (not checked here), the
    overlaps ``<psi|A_i|psi_perp> = D* psi_perp`` from the centered rows add
    the orthogonal-state bound.
    """
    _, C, D = core.moment_table(stack, state)
    X = None if companions is None else (D.conj() @ companions[..., None])[..., 0]
    return bound_values(C, X)


# -- pairwise relations -------------------------------------------------------

# No command calls this.  Tests replay the campaign's seeded companions above d = 2
# through it, and bench/tracing.py resolves its relations.pairwise span by this name.
def maccone_pati_orthogonal(
    a: Observable,
    b: Observable,
    psi: PureState,
    psi_perp: PureState,
) -> BoundReport:
    """Sum bound built from a state orthogonal to ``psi``.

    rhs = s*i<[A,B]> + |<psi|A + s*iB|psi_perp>|^2 with the sign ``s``
    chosen so the commutator term is non-negative.  When the commutator
    expectation is exactly zero both signs are evaluated and the larger
    bound is reported.  Pure states only; ``psi_perp``, the one companion a
    caller passes in, must be a same-dimension :class:`PureState`
    orthogonal to ``psi`` within 1e-10.
    """
    if isinstance(psi, DensityMatrix):
        raise ValueError("mp_orthogonal is defined for pure states only")
    pair = ObservableSet((a, b))
    ket = core.state_array(psi)
    core._check_same_dim(pair.dim, psi.dim)
    if not isinstance(psi_perp, PureState):
        raise TypeError(f"psi_perp must be a PureState, got {psi_perp!r}")
    core._check_same_dim(psi.dim, psi_perp.dim)
    overlap = abs(complex(np.vdot(ket, psi_perp.amplitudes)))
    if overlap > 1e-10:
        raise ValueError(f"psi_perp has overlap {overlap!r} with psi, expected orthogonal")
    values = instance_values(pair.stack, ket, psi_perp.amplitudes)[Relation.MACCONE_PATI_ORTHOGONAL]
    return _reports([Relation.MACCONE_PATI_ORTHOGONAL], *values, [None], [None])[0]


# -- batch evaluation ---------------------------------------------------------

def evaluate_all(
    observables: ObservableSet,
    state: QuantumState,
    *,
    include_pairwise: bool = False,
) -> list[BoundReport | SkippedRelation]:
    """Evaluate every applicable relation on one observable set and state.

    Sum-form relations come first in canonical order, with explicit
    :class:`SkippedRelation` markers where the observable count rules one
    out.  With ``include_pairwise`` the pairwise relations follow, one
    report per observable pair; the Maccone-Pati forms are skipped for
    mixed states.  The orthogonal form uses the canonical companion
    :func:`~uncrel.core.qubit_companions` in dimension 2, as ``verify``
    campaigns do, and is skipped above it, where no canonical choice exists.

    Every relation comes from one :func:`instance_values` call, the step
    the campaign blocks take, and all sum-form reports share one lhs value
    (the total of the single variances).
    """
    pure = isinstance(state, PureState)
    array = core.state_array(state)
    core._check_same_dim(observables.dim, state.dim)
    companions = None
    if include_pairwise and pure and observables.dim == 2:
        companions = core.qubit_companions(array)
    values = instance_values(observables.stack, array, companions)
    n = observables.count
    summed = [rel for rel in SUM_FORM_RELATIONS if rel in values]
    reports = _reports(
        summed,
        np.full(len(summed), values[Relation.SONG][0]),
        np.array([values[rel][1] for rel in summed]),
        [values[rel][2].tolist() if len(values[rel]) > 2 else None for rel in summed],
        repeat(None),
    )
    by_relation = dict(zip(summed, reports))
    results: list[BoundReport | SkippedRelation] = [
        by_relation.get(rel)
        or SkippedRelation(rel, f"needs {'at least' if rel is Relation.CHEN_FEI else 'exactly'} "
                           f"3 observables, got {n}")
        for rel in SUM_FORM_RELATIONS
    ]
    if not include_pairwise:
        return results
    pairs = list(combinations(range(n), 2))
    for rel in PAIRWISE_RELATIONS:
        if rel in _PURE_ONLY and not pure:
            results.append(SkippedRelation(rel, "defined for pure states only"))
        elif rel in values:
            results.extend(_reports(repeat(rel), *values[rel], repeat(None), pairs))
        else:
            results.append(SkippedRelation(rel, "no canonical orthogonal state above dimension 2"))
    return results
