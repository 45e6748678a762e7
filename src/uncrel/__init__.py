"""Variance uncertainty relations for small quantum systems.

The package evaluates, verifies, and ranks lower bounds on sums and
products of observable variances: exact matrix arithmetic in
:mod:`uncrel.core` and :mod:`uncrel.relations`, single-qubit closed forms
in :mod:`uncrel.qubit`, finite-shot simulation in :mod:`uncrel.shots`,
sweep and verification drivers in :mod:`uncrel.harness`, and CSV/JSON
output in :mod:`uncrel.render`.  The ``uncrel`` command wraps the drivers.

The package loads lazily: ``import uncrel`` loads no submodule and no
numpy, and ``from uncrel import X`` (or ``uncrel.X``) loads the module
that defines ``X`` on first use.  So each command of ``uncrel`` pays only
for the modules it runs.
"""
from importlib import import_module as _import_module

# The only copy, set before the submodules that import it; pyproject.toml reads it.
__version__ = "0.1.0"

#: Each public name, by the module that defines it.
_EXPORTS = {
    "core": ("ConsistencyError", "DensityMatrix", "Observable", "PureState", "QuantumState",
             "deviation_state", "random_observable", "random_pure_state"),
    "harness": ("SweepSpec", "run_sweep", "run_verify"),
    "qubit": ("BlochAngles", "StokesVector", "bloch_to_state", "closed_form_bounds",
              "moments_from_angles", "pauli", "pauli_triple", "stokes_to_density"),
    "relations": ("BoundReport", "ObservableSet", "PAIRWISE_RELATIONS", "Relation",
                  "SUM_FORM_RELATIONS", "SkippedRelation", "evaluate_all", "maccone_pati_orthogonal"),
    "render": ("SweepTable", "VerificationSummary", "emit"),
    "shots": ("ShotPlan", "bootstrap_bounds", "derive_seed", "simulate_counts"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    """Load a public name from its module on first use, and keep it."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
