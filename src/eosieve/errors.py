"""Exception types shared across the library.

Every error the library raises on purpose is of one of two kinds:
precondition and domain violations raise ``ValueError`` (or a subclass),
internal cross-check failures raise ``ConsistencyError``.  The CLI maps the
former to exit code 2 and the latter to exit code 3.
"""

from __future__ import annotations


class NotClosedError(ValueError):
    """A lattice is not closed under multiplication.

    Carries the offending basis pair ``(i, j)``.
    """

    def __init__(self, i: int, j: int):
        self.pair = (i, j)
        super().__init__(
            f"lattice is not closed under multiplication: "
            f"product of basis elements {i} and {j} has no integral coordinates"
        )


class ContainmentError(ValueError):
    """A claimed suborder is not contained in the claimed superorder."""


class FactorizationError(ValueError):
    """A cofactor survived trial division and is not provably prime."""


class AmbiguousSnapError(ValueError):
    """An empirical split fraction sits between two divisor candidates.

    Carries the observed fraction and the two nearest candidates; the fix is
    to increase the prime budget.
    """

    def __init__(self, phi_hat: float, candidates: tuple[int, int]):
        self.phi_hat = phi_hat
        self.candidates = candidates
        super().__init__(
            f"split fraction {phi_hat:.6f} is ambiguous between divisors "
            f"{candidates[0]} and {candidates[1]}; increase prime_budget"
        )


class ConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree."""
