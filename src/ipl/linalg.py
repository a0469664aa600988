"""Dense symmetric linear algebra kernel.

Everything downstream funnels through four operations: symmetric
eigendecomposition with a deterministic sign convention, SPD square roots,
SPD solves, and generalized symmetric eigenproblems with an SPD right-hand
matrix. All arithmetic is 64-bit floating point in numpy. ``SpdMatrix``
caches M = V diag(lambda) V^T; its square roots, inverse and solves all work
in that basis, a solve as x = V (V^T b / lambda) plus one refinement step.
Eigenvectors, and so spectral functions, keep the blocks (connected
components) of a symmetric matrix's nonzero pattern; ``SpdMatrix`` eigensolves
each block alone, so its roots, inverse and solves are exactly zero off them.
``_quad`` (as ``SpdMatrix.quad``) is the one routine for quadratic forms
x^T M x: it takes a vector or a stack of rows (one value per row), and for
a diagonal M it uses (x * x) @ diag(M).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .complexes import _components
from .errors import NonFiniteError, NotPositiveDefiniteError, NotSymmetricError

# A matrix is accepted as symmetric when max |A - A^T| <= SYMMETRY_RTOL * max |A|.
SYMMETRY_RTOL = 1e-12
# Construction rejects lambda_min <= dim * PD_RTOL * lambda_max.
PD_RTOL = 1e-12
# Eigenvalues at or below ZERO_RTOL * lambda_max count as kernel, and gen_eig
# refuses a left-hand matrix with an eigenvalue below -ZERO_RTOL * lambda_max.
ZERO_RTOL = 1e-9


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {a.shape}")
    return a


def _check_symmetric(a: np.ndarray) -> float:
    """Refuse an asymmetric matrix; return its scale max |A|."""
    scale = float(np.abs(a).max(initial=0.0))
    skew = float(np.abs(a - a.T).max(initial=0.0))
    if skew > SYMMETRY_RTOL * scale:
        raise NotSymmetricError(
            f"matrix is asymmetric: max |A - A^T| = {skew:.3e} exceeds "
            f"{SYMMETRY_RTOL:.0e} * {scale:.3e}"
        )
    return scale


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Flip one vector, or each column of a matrix, so that its
    largest-magnitude component is positive.

    Ties in magnitude resolve to the lowest index (np.argmax convention),
    which keeps repeated runs bit-identical; a flip multiplies by -1.0, so
    it is exact.
    """
    idx = np.argmax(np.abs(vecs), axis=0)
    top = vecs[idx, np.arange(vecs.shape[1])] if vecs.ndim == 2 else vecs[idx]
    return vecs * np.where(top < 0.0, -1.0, 1.0)


def sym_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns eigenvalues in ascending order and orthonormal eigenvectors as
    columns, with the deterministic sign convention of ``_fix_signs``.
    """
    a = _as_square(a)
    _check_symmetric(a)
    a = 0.5 * (a + a.T)
    vals, vecs = np.linalg.eigh(a)
    return vals, _fix_signs(vecs)


def check_finite(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Return ``a``, or raise NonFiniteError naming its first NaN or infinite entry."""
    bad = np.argwhere(~np.isfinite(a))[:1]
    if len(bad):
        where = "row {}, column {}".format(*bad[0]) if a.ndim == 2 else f"index {bad[0][0]}"
        raise NonFiniteError(f"{what} has a non-finite entry: {a[tuple(bad[0])]} at {where}")
    return a


def _quad(entries: np.ndarray, x, diagonal: bool):
    """x^T M x from M's entries, of a vector (a float) or of each row of a
    stack, as ((x @ M) * x) summed per row; a diagonal M takes
    (x * x) @ diag(M) instead and never forms the product with M."""
    x = np.asarray(x, dtype=float)
    if diagonal:
        q = (x * x) @ np.diagonal(entries)
    else:
        q = x @ entries
        q *= x
        q = q.sum(axis=-1)
    return float(q) if x.ndim == 1 else q


class SpdMatrix:
    """A symmetric positive definite matrix with cached spectral data.

    Construction rejects NaN and infinite entries, symmetrizes via
    (A + A^T)/2, and rejects inputs with max |A - A^T| above
    ``SYMMETRY_RTOL * max |A|`` or whose smallest eigenvalue falls below
    ``dim * PD_RTOL * lambda_max``. Both tests are relative, so scaling A
    by a positive factor, short of over- or underflow, does not change
    whether it is accepted. The eigendecomposition, the symmetric square
    root and its inverse are computed once and shared; instances are
    immutable and safe to use from multiple threads.

    The ``blocks`` of one size are one size stack (``stacks``, built once)
    with one stacked ``eigh`` call per size stack, which solves each block
    alone; any other index is a 1 x 1 block with an axis eigenvector, and
    one stable sort orders the eigenvalues. A connected M, one block of
    every index, is one plain ``eigh``.
    As every eigenvector lives on one block, every product term between two
    blocks is an exact zero: the square roots, ``inverse()`` and ``solve``
    are exactly zero off the blocks (exactly diagonal for a diagonal M).
    """

    def __init__(self, entries):
        a = _as_square(entries)
        if a.shape[0] == 0:
            raise ValueError("SpdMatrix requires dimension >= 1")
        check_finite(a)
        scale = _check_symmetric(a)
        # From 2^1023 on, A + A^T can overflow; halving first is exact there.
        a = 0.5 * (a + a.T) if scale < 2.0**1023 else 0.5 * a + 0.5 * a.T
        # scale >= 2^49 already decides the sum, which could overflow.
        self._is_integral = bool((a == a.round()).all() and scale < 2.0**49 and abs(a).sum() < 2.0**49)
        k = a.shape[0]
        if np.count_nonzero(a) == np.count_nonzero(np.diagonal(a)):
            # Exactly diagonal: a count costs far less than the pattern scan.
            blocks = ()
        else:
            rows, cols = np.nonzero(np.triu(a, 1))
            blocks = _components(k, zip(rows.tolist(), cols.tolist()))
        self._blocks = tuple(np.array(c) for c in blocks if len(c) > 1)
        self._stacks = tuple(np.array([c for c in self._blocks if len(c) == b]) for b in sorted({len(c) for c in self._blocks}))
        if len(self._blocks) == 1 and len(self._blocks[0]) == k:
            # One block of every index: its gather, scatter and sort are identities.
            vals, vecs = np.linalg.eigh(a)
        else:
            vals, vecs = np.diagonal(a).copy(), np.eye(k)
            for idx in self._stacks:
                at = idx[:, :, None], idx[:, None, :]
                vals[idx], vecs[at] = np.linalg.eigh(a[at])
            order = np.argsort(vals, kind="stable")
            vals, vecs = vals[order], vecs.take(order, axis=1)
        if blocks:
            vecs = _fix_signs(vecs)
        self._entries = a
        self._entries.setflags(write=False)
        self._eigenvalues = vals
        self._eigenvectors = vecs
        if vals[0] <= k * PD_RTOL * vals[-1]:
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite: lambda_min = {vals[0]:.3e} "
                f"<= {k} * {PD_RTOL:.0e} * lambda_max = {k * PD_RTOL * vals[-1]:.3e}"
            )

    @classmethod
    def from_diagonal(cls, diag) -> "SpdMatrix":
        return cls(np.diag(np.asarray(diag, dtype=float)))

    @classmethod
    def identity(cls, dim: int) -> "SpdMatrix":
        return cls(np.eye(dim))

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigenvalues

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigenvectors

    @property
    def condition(self) -> float:
        return float(self._eigenvalues[-1] / self._eigenvalues[0])

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """Index arrays of the nonzero pattern's components of size >= 2, by smallest index."""
        return self._blocks

    @property
    def stacks(self) -> tuple[np.ndarray, ...]:
        """The ``blocks`` of each size as one (n, size) index array, by size;
        built once, for the eigensolve and for every weak-conformality scan."""
        return self._stacks

    @property
    def is_diagonal(self) -> bool:
        return not self._blocks

    @property
    def is_integral(self) -> bool:
        """Every entry is an integer and sum|M| < 2^49. Every value a cut
        scan forms from M, split or reference, adds each entry at most 9
        times, signed (the count in ``isoperimetry._widening``), so its
        partial sums are integers below 9 * 2^49 < 2^53, exact whatever the
        order of the additions. A cut scan over two integral inner products
        therefore takes its own values as final and re-scores none."""
        return self._is_integral

    def _spectral_apply(self, f) -> np.ndarray:
        v = self._eigenvectors
        m = (v * f(self._eigenvalues)) @ v.T
        return 0.5 * (m + m.T)

    @cached_property
    def sqrt_entries(self) -> np.ndarray:
        """The symmetric Q with Q @ Q = M, read-only, computed once."""
        q = self._spectral_apply(np.sqrt)
        q.setflags(write=False)
        return q

    @cached_property
    def inv_sqrt_entries(self) -> np.ndarray:
        q = self._spectral_apply(lambda w: 1.0 / np.sqrt(w))
        q.setflags(write=False)
        return q

    def sqrt(self) -> "SpdMatrix":
        return SpdMatrix(self.sqrt_entries)

    def solve(self, b) -> np.ndarray:
        """Solve M x = b in the cached eigenbasis, with one step of iterative refinement."""
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.dim:
            raise ValueError(f"dimension mismatch: M is {self.dim}x{self.dim}, b has leading size {b.shape[0]}")
        if self.is_diagonal:
            d = np.diagonal(self._entries)
            return (b.T / d).T
        v, lam = self._eigenvectors, self._eigenvalues
        x = v @ ((v.T @ b).T / lam).T
        return x + v @ ((v.T @ (b - self._entries @ x)).T / lam).T

    def inverse(self) -> np.ndarray:
        """Explicit inverse, for callers that genuinely need the matrix."""
        return self._spectral_apply(lambda w: 1.0 / w)

    def quad(self, x):
        """The quadratic form x^T M x of a vector (a float) or of each row of a stack."""
        return _quad(self._entries, x, self.is_diagonal)

    def __repr__(self) -> str:
        return f"SpdMatrix(dim={self.dim}, condition={self.condition:.3e})"


def gen_eig(a, b: SpdMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Solve A v = lambda B v for symmetric PSD ``a`` and SPD ``b``.

    Equivalent to ``sym_eig`` on B^{-1/2} A B^{-1/2}; eigenvalues ascend and
    the returned eigenvectors are B-orthonormal (v^T B v = 1).
    """
    a = _as_square(a)
    _check_symmetric(a)
    if a.shape[0] != b.dim:
        raise ValueError(f"dimension mismatch: A is {a.shape[0]}x{a.shape[0]}, B is {b.dim}x{b.dim}")
    w = b.inv_sqrt_entries
    s = w @ a @ w
    # The product is symmetric only up to rounding, which can exceed the
    # input tolerance at high cond(B). Symmetrized, it is exactly symmetric:
    # a symmetry check or a second symmetrization could change nothing, so
    # only eigh and the sign fix remain.
    vals, vecs = np.linalg.eigh(0.5 * (s + s.T))
    if vals[0] < -ZERO_RTOL * vals[-1]:
        raise ValueError(f"left-hand matrix has negative eigenvalue {vals[0]:.3e}")
    return vals, w @ _fix_signs(vecs)
