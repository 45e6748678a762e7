"""Variance uncertainty relations for small quantum systems.

The package evaluates, verifies, and ranks lower bounds on sums and
products of observable variances: exact matrix arithmetic in
:mod:`uncrel.core` and :mod:`uncrel.relations`, single-qubit closed forms
in :mod:`uncrel.qubit`, finite-shot simulation in :mod:`uncrel.shots`,
and sweep/verification drivers plus serialization in
:mod:`uncrel.harness`.  The ``uncrel`` command wraps the drivers.
"""
from types import ModuleType as _ModuleType

from ._version import __version__
from .core import (
    DensityMatrix,
    Observable,
    PureState,
    QuantumState,
    deviation_state,
    orthogonal_qubit,
    random_observable,
    random_pure_state,
)
from .errors import (
    ConsistencyError,
    ContractError,
    DimensionError,
    OrthogonalityError,
    UnsupportedCountError,
    UnsupportedDimensionError,
    UnsupportedRelationError,
    UnsupportedStateError,
)
from .harness import (
    SweepSpec,
    SweepTable,
    VerificationSummary,
    emit,
    run_sweep,
    run_verify,
)
from .qubit import (
    BlochAngles,
    StokesVector,
    bloch_to_state,
    closed_form_bounds,
    moments_from_angles,
    pauli,
    pauli_triple,
    stokes_to_density,
)
from .relations import (
    BoundReport,
    ObservableSet,
    PAIRWISE_RELATIONS,
    Relation,
    SUM_FORM_RELATIONS,
    SkippedRelation,
    evaluate_all,
    maccone_pati_orthogonal,
)
from .shots import (
    EstimateWithError,
    MeasurementRecord,
    ShotPlan,
    bootstrap_bounds,
    derive_seed,
    estimate_expectation,
    simulate_counts,
)

# The public names are exactly the ones imported above.
__all__ = ["__version__"] + sorted(
    name for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, _ModuleType))
)
