"""The contracts of uncrel's value and record classes: validated values stay
immutable, and every constructor keeps its positional order, keyword names
and defaults."""
import math

import numpy as np
import pytest

from uncrel import (
    BlochAngles,
    BoundReport,
    DensityMatrix,
    Observable,
    ObservableSet,
    PureState,
    Relation,
    SUM_FORM_RELATIONS,
    ShotPlan,
    SkippedRelation,
    StokesVector,
    SweepSpec,
    SweepTable,
    VerificationSummary,
)
from uncrel.harness import RelationTally

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
KET = np.array([0.6, 0.8j])
RHO = np.diag([0.25, 0.75]).astype(complex)
COLUMN = np.zeros(3)

#: Each validated type with the fields it is built from.
VALIDATED = {
    "Observable": (lambda: Observable(SX), ["matrix"]),
    "PureState": (lambda: PureState(KET), ["amplitudes"]),
    "DensityMatrix": (lambda: DensityMatrix(RHO), ["matrix"]),
    "ObservableSet": (lambda: ObservableSet((Observable(SX), Observable(SZ))), ["observables", "stack"]),
    "BlochAngles": (lambda: BlochAngles(1.0, 2.0), ["theta", "phi"]),
    "StokesVector": (lambda: StokesVector(2.0, 1.0, 0.5, 0.25), ["s0", "s1", "s2", "s3"]),
    "ShotPlan": (lambda: ShotPlan(10, 3), ["shots_per_basis", "seed"]),
    "SweepSpec": (lambda: SweepSpec("phi", 1.0, 5, (Relation.SONG,), ShotPlan()),
                  ["mode", "fixed_angle", "steps", "relations", "shots"]),
}


@pytest.mark.parametrize("kind", sorted(VALIDATED))
def test_validated_fields_cannot_be_assigned_or_deleted(kind):
    make, names = VALIDATED[kind]
    value = make()
    for name in names:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before


def _fields(value, names):
    """The named fields of ``value``, arrays as lists."""
    return [v.tolist() if isinstance(v, np.ndarray) else v for v in (getattr(value, n) for n in names)]


#: ``(class, arguments in positional order by keyword)``.
SIGNATURES = [
    (Observable, {"matrix": SX}),
    (PureState, {"amplitudes": KET}),
    (DensityMatrix, {"matrix": RHO}),
    (ObservableSet, {"observables": (Observable(SX), Observable(SZ))}),
    (BoundReport, {"relation": Relation.ROBERTSON, "lhs": 1.0, "rhs": 0.5, "slack": 0.5,
                   "holds": True, "mid": 0.25, "pair": (0, 1)}),
    (SkippedRelation, {"relation": Relation.CHEN_FEI, "reason": "needs 3"}),
    (BlochAngles, {"theta": 1.0, "phi": 2.0}),
    (StokesVector, {"s0": 2.0, "s1": 1.0, "s2": 0.5, "s3": 0.25}),
    (ShotPlan, {"shots_per_basis": 10, "seed": 3}),
    (SweepSpec, {"mode": "phi", "fixed_angle": 1.0, "steps": 5,
                 "relations": (Relation.SONG,), "shots": ShotPlan()}),
    (SweepTable, {"theta": COLUMN, "phi": COLUMN, "lhs": COLUMN, "lhs_err": COLUMN,
                  "bounds": {}, "estimated": True}),
    (RelationTally, {"evaluated": 5, "violations": 1, "min_slack": -0.5,
                     "min_slack_witness": {"trial": 2}}),
    (VerificationSummary, {"trials": 5, "dims": (2,), "counts": (3,), "seed": 1,
                           "use_paulis": False, "total_instances": 5, "tallies": {},
                           "violation_witnesses": [], "ratio_max_error": 0.5,
                           "notes": {}}),
]


@pytest.mark.parametrize("cls, arguments", SIGNATURES, ids=[c.__name__ for c, _ in SIGNATURES])
def test_constructors_take_fields_by_position_and_keyword(cls, arguments):
    by_keyword, by_position = cls(**arguments), cls(*arguments.values())
    expected = _fields(by_keyword, arguments)
    assert _fields(by_position, arguments) == expected
    assert expected == [v.tolist() if isinstance(v, np.ndarray) else v for v in arguments.values()]


def test_constructor_defaults():
    assert _fields(ShotPlan(), ["shots_per_basis", "seed"]) == [2400, 0]
    report = BoundReport(Relation.SONG, 2.0, 1.0, 1.0, True)
    assert (report.mid, report.pair) == (None, None)
    assert BlochAngles(1.0).phi == 0.0
    spec = SweepSpec("theta", 0.0, 3)
    assert (spec.relations, spec.shots) == (SUM_FORM_RELATIONS, None)
    assert _fields(RelationTally(), ["evaluated", "violations", "min_slack", "min_slack_witness"]) == [
        0, 0, math.inf, None]
    summary = VerificationSummary(5, (2,), (3,), 1, True)
    assert _fields(summary, ["total_instances", "tallies", "violation_witnesses",
                             "ratio_max_error", "notes"]) == [0, {}, [], 0.0, {}]


def test_summaries_share_no_dict_or_list():
    first, second = (VerificationSummary(5, (2,), (3,), 1, True) for _ in range(2))
    first.tallies[Relation.SONG] = RelationTally()
    first.violation_witnesses.append({"trial": 0})
    first.notes["note"] = {}
    assert (second.tallies, second.violation_witnesses, second.notes) == ({}, [], {})
