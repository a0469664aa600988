"""Exception types shared across the package."""


class NonFiniteError(ValueError):
    """Input matrix has a NaN or infinite entry."""


class NotSymmetricError(ValueError):
    """Input matrix is not square or not symmetric within tolerance."""


class NotPositiveDefiniteError(ValueError):
    """Matrix fails the strict positive-definiteness threshold."""


class EnumerationCapError(ValueError):
    """An exhaustive subset enumeration would exceed its size cap.

    Raised instead of silently running an exponential computation; callers
    can pass ``force=True`` to run anyway.
    """
