"""Exception types shared across the package.

Caller-side contract violations derive from :class:`ContractError` (a
``ValueError``), so sloppy inputs fail loudly at the boundary.  Internal
numerical invariants that fail beyond round-off, and moments too large for
double precision, raise :class:`ConsistencyError` instead: the input is
corrupted or beyond double precision, or there is a bug.  It is never a
recoverable condition; the ``uncrel`` command exits with status 4 on it.
"""


class ContractError(ValueError):
    """A caller-side precondition was violated."""


class DimensionError(ContractError):
    """Operands act on spaces of different dimensions."""


class UnsupportedDimensionError(ContractError):
    """The operation is not provided for this dimension."""


class UnsupportedStateError(ContractError):
    """The relation is defined for pure states only."""


class UnsupportedCountError(ContractError):
    """Too few observables for this relation."""


class UnsupportedRelationError(ContractError):
    """No closed form is available for this relation."""


class OrthogonalityError(ContractError):
    """A companion state is not orthogonal to the reference state."""


class ConsistencyError(ArithmeticError):
    """A numerical invariant failed beyond round-off, or moments overflow."""
