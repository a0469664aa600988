"""Dense symmetric linear algebra kernel.

Everything downstream funnels through four operations: symmetric
eigendecomposition with a deterministic sign convention, SPD square roots,
SPD solves, and generalized symmetric eigenproblems with an SPD right-hand
matrix. All arithmetic is 64-bit floating point in numpy. ``SpdMatrix``
caches M = V diag(lambda) V^T; its square roots, inverse and solves all work
in that basis, a solve as x = V (V^T b / lambda) plus one refinement step.
``SpdMatrix.quad`` is the one routine for quadratic forms x^T M x: it takes a
vector or a stack of rows (one value per row), and for a diagonal M it uses
(x * x) @ diag(M).
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError, NotPositiveDefiniteError, NotSymmetricError

# Relative tolerance for accepting an input matrix as symmetric.
SYMMETRY_RTOL = 1e-12
# Construction rejects lambda_min <= dim * PD_RTOL * lambda_max.
PD_RTOL = 1e-12


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {a.shape}")
    return a


def _check_symmetric(a: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    skew = float(np.abs(a - a.T).max(initial=0.0))
    if skew > SYMMETRY_RTOL * scale:
        raise NotSymmetricError(
            f"matrix is asymmetric: max |A - A^T| = {skew:.3e} exceeds "
            f"{SYMMETRY_RTOL:.0e} * {scale:.3e}"
        )


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so the largest-magnitude component is positive.

    Ties in magnitude resolve to the lowest index (np.argmax convention),
    which keeps repeated runs bit-identical.
    """
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0.0] = 1.0
    return vecs * signs


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


def _is_exactly_diagonal(a: np.ndarray) -> bool:
    return bool(np.count_nonzero(a - np.diag(np.diagonal(a))) == 0)


class SpdMatrix:
    """A symmetric positive definite matrix with cached spectral data.

    Construction rejects NaN and infinite entries, symmetrizes via
    (A + A^T)/2, and rejects inputs that are asymmetric beyond
    ``SYMMETRY_RTOL`` or whose smallest eigenvalue falls below
    ``dim * PD_RTOL * lambda_max``. The eigendecomposition, the
    symmetric square root and its inverse are computed once and shared;
    instances are immutable and safe to use from multiple threads.

    Exactly diagonal inputs take an exact fast path (sorted entries, axis
    eigenvectors), which keeps extreme diagonal conditioning, as in the
    epsilon-sweep constructions, from accumulating eigensolver noise. The
    eigenvectors are then a permutation matrix, so the square roots and
    the inverse, computed in that basis, are exactly diagonal as well.
    """

    def __init__(self, entries):
        a = _as_square(entries)
        if a.shape[0] == 0:
            raise ValueError("SpdMatrix requires dimension >= 1")
        check_finite(a)
        _check_symmetric(a)
        a = 0.5 * (a + a.T)
        self._is_diagonal = _is_exactly_diagonal(a)
        if self._is_diagonal:
            d = np.diagonal(a).copy()
            order = np.argsort(d, kind="stable")
            vals = d[order]
            vecs = np.zeros_like(a)
            vecs[order, np.arange(a.shape[0])] = 1.0
        else:
            vals, vecs = np.linalg.eigh(a)
            vecs = _fix_signs(vecs)
        self._entries = a
        self._entries.setflags(write=False)
        self._eigenvalues = vals
        self._eigenvectors = vecs
        dim = a.shape[0]
        if vals[0] <= dim * PD_RTOL * vals[-1]:
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite: lambda_min = {vals[0]:.3e} "
                f"<= {dim} * {PD_RTOL:.0e} * lambda_max = {dim * PD_RTOL * vals[-1]:.3e}"
            )
        self._sqrt: np.ndarray | None = None
        self._inv_sqrt: np.ndarray | None = None

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
    def is_diagonal(self) -> bool:
        return self._is_diagonal

    def _spectral_apply(self, f) -> np.ndarray:
        v = self._eigenvectors
        m = (v * f(self._eigenvalues)) @ v.T
        return 0.5 * (m + m.T)

    @property
    def sqrt_entries(self) -> np.ndarray:
        """The symmetric Q with Q @ Q = M."""
        if self._sqrt is None:
            q = self._spectral_apply(np.sqrt)
            q.setflags(write=False)
            self._sqrt = q
        return self._sqrt

    @property
    def inv_sqrt_entries(self) -> np.ndarray:
        if self._inv_sqrt is None:
            q = self._spectral_apply(lambda w: 1.0 / np.sqrt(w))
            q.setflags(write=False)
            self._inv_sqrt = q
        return self._inv_sqrt

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
        """The quadratic form x^T M x of a vector (a float) or of each row of a stack.

        A stack is evaluated as ((x @ M) * x) summed per row; a diagonal M
        takes (x * x) @ diag(M) instead and never forms the product with M.
        """
        x = np.asarray(x, dtype=float)
        if self.is_diagonal:
            q = (x * x) @ np.diagonal(self._entries)
        else:
            q = x @ self._entries
            q *= x
            q = q.sum(axis=-1)
        return float(q) if x.ndim == 1 else q

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
    # input tolerance at high cond(B); symmetrize before the check.
    vals, vecs = sym_eig(0.5 * (s + s.T))
    if vals[0] < -1e-9 * max(1.0, abs(float(vals[-1]))):
        raise ValueError(f"left-hand matrix has negative eigenvalue {vals[0]:.3e}")
    return vals, w @ vecs
