"""Exception hierarchy shared by every module in the package."""

from __future__ import annotations


class QfiError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(QfiError):
    """Malformed input: wrong shape, non-Hermitian matrix, NaN entries, bad config."""


class DomainError(QfiError):
    """A value lies outside the mathematical domain of the requested operation."""

    def __init__(self, message: str, value: float | None = None):
        super().__init__(message)
        self.value = value


class SingularState(QfiError):
    """Density matrix is rank deficient (smallest eigenvalue at or below rank_tol)."""


class DegenerateCrossing(QfiError):
    """Two eigenvalue clusters approach each other faster than first-order
    perturbation theory can track; carries the colliding pair."""

    def __init__(self, message: str, pair: tuple[float, float] | None = None):
        super().__init__(message)
        self.pair = pair


class TruncationError(QfiError):
    """A finite truncation of an infinite-dimensional model is too small to be faithful."""


class DegenerateInformation(QfiError):
    """Fisher information is numerically zero, so information-based bounds are vacuous."""
