"""Exception types shared across the package.

Every caller-side contract violation raises :class:`ContractError` (a
``ValueError``) with a message naming it; the ``uncrel`` command exits
with status 1 on it.  Internal numerical invariants that fail beyond
round-off, and moments too large for double precision, raise
:class:`ConsistencyError` instead: the input is corrupted or beyond double
precision, or there is a bug.  It is never a recoverable condition; the
``uncrel`` command exits with status 4 on it.
"""


class ContractError(ValueError):
    """A caller-side precondition was violated."""


class ConsistencyError(ArithmeticError):
    """A numerical invariant failed beyond round-off, or moments overflow."""
