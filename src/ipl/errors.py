"""Exception types shared across the package, and the one enumeration guard."""


class NonFiniteError(ValueError):
    """Input matrix has a NaN or infinite entry."""


class NotSymmetricError(ValueError):
    """Input matrix is not square or not symmetric within tolerance."""


class NotPositiveDefiniteError(ValueError):
    """Matrix fails the strict positive-definiteness threshold."""


class EnumerationCapError(ValueError):
    """An exhaustive scan would enumerate more work than its cap in ``CAPS``.

    Raised by ``check_cap`` instead of silently running an exponential
    computation; callers can pass ``force=True`` to run anyway.
    """


# Most work an exhaustive scan enumerates without force=True: partitions of
# the largest weak-conformality block (2^(k-1) - 1, so k <= 20), cuts of
# conductance (2^(n-1) - 1, n <= 28) and S-local conductance (2^|S| - 2,
# |S| <= 27), and the 4^n pairs of the mixing sweep (n <= 12). The
# conductance table holds one dict per cut in memory (about 400 MB at
# n = 20), so its rows keep a cap of their own (n <= 24).
CAPS = {"partitions": 1 << 19, "cuts": 1 << 27, "pairs": 4**12, "rows": 1 << 23}


def check_cap(unit: str, count: int, what: str, force: bool) -> None:
    """Refuse a scan of ``count`` ``unit`` past its cap unless ``force``."""
    if count > CAPS[unit] and not force:
        raise EnumerationCapError(
            f"{what}: {count} {unit} exceed the cap of {CAPS[unit]}; pass force=True (CLI: --force)"
        )
