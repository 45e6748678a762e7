"""Exception types shared across the package.

Every refused input raises a plain ``ValueError`` naming the broken
precondition; the ``uncrel`` command exits with status 1 on it.  Numerical
invariants that fail beyond round-off, and moments too large for double
precision, raise :class:`ConsistencyError` instead: the input is corrupted
or beyond double precision, or there is a bug.  It is never recoverable;
the ``uncrel`` command exits with status 4 on it.
"""


class ConsistencyError(ArithmeticError):
    """A numerical invariant failed beyond round-off, or moments overflow."""
