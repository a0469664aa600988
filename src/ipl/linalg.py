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
Construction reads the pattern row by row and stops at the join that links
every index (after row 0 for a dense M). It stores each size stack's blocks
M_CC and their eigenpairs. A connected M keeps one eigenbasis, sign-fixed at
construction: its stored block of eigenvectors is V itself. With several
blocks, the dense V is formed on first read. ``_block_inverses`` gives
(M_CC)^-1 = V_C diag(1 / lambda_C) V_C^T of a stack from those eigenpairs,
for the weak-conformality scan, which so forms no k x k array. ``inverse()``,
the roots, ``solve``, ``gen_eig``, ``_times`` and ``_quad`` keep the dense
product with V: a per-block product moved the bits of ``_spectral_apply``
(the roots and the inverse) on 14 of 514 random permuted multi-block
matrices (blocks of 1-8, k up to 48; 0 of 86 connected ones), and those
bits are pinned; the scan's ranking only selects near ties, which
are scored again on M's own entries, so its outputs keep their bits.
An exactly diagonal M is stored as its diagonal d alone: V is then the
permutation that sorts d, f(M) = diag(f(d)) bit for bit, and no m x m array
exists until a caller reads ``entries``, ``eigenvectors`` or a root's
entries. ``_times`` is the one routine that applies M, or a root of it, to
an array: a diagonal as the exact row or column scaling, any other M as a
matrix product. ``_quad`` (as ``SpdMatrix.quad``) is the one routine for
quadratic forms x^T M x: it takes a vector or a stack of rows (one value
per row), and for a diagonal M it uses (x * x) @ diag(M).

Outside this module every product, quadratic form and spectrum goes through
``_times``, ``_quad`` and ``sym_eig`` (``gen_eig`` too calls ``sym_eig``),
with four exceptions, each for its reason:
- the capped enumerations read dense ``entries``, or the stored blocks, and
  call stacked LAPACK, as their batches need: the cut scans' complement
  terms, ``_cut_masses`` re-scores and coupled-group rows (none for a
  diagonal M_E), the pair sweep and the weak-conformality kernels; the cut
  scans' split forms and ``isoperimetry._widening`` use the operand;
- ``laplacian._laplacian_eigenvalues`` calls an eigenvalue-only ``eigh``,
  as the verifiers skip the sign fix;
- Vol(G) is the sum of M_V's dense entries, whose n^2 summation order is
  part of its bits;
- the CLI reports write ``entries``.
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
    """Refuse a non-finite matrix (a NaN would pass the comparison below),
    then an asymmetric one; return its scale max |A|. A NaN or an infinity
    makes that max non-finite, and only then is the first one looked for."""
    scale = float(np.abs(a).max(initial=0.0))
    if not np.isfinite(scale):
        check_finite(a)
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
    columns, with the deterministic sign convention of ``_fix_signs``. A
    non-finite or asymmetric matrix is refused, as in ``gen_eig``.
    """
    a = _as_square(a)
    vals, vecs = np.linalg.eigh(_halved_sum(a, _check_symmetric(a)))
    return vals, _fix_signs(vecs)


def check_finite(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Return ``a``, or raise NonFiniteError naming its first NaN or infinite entry."""
    bad = np.argwhere(~np.isfinite(a))[:1]
    if len(bad):
        where = "row {}, column {}".format(*bad[0]) if a.ndim == 2 else f"index {bad[0][0]}"
        raise NonFiniteError(f"{what} has a non-finite entry: {a[tuple(bad[0])]} at {where}")
    return a


def _times(a: np.ndarray, x: np.ndarray, right: bool = False) -> np.ndarray:
    """a @ x, or x @ a when ``right``, for an operand ``a``: a matrix, or a
    1-D array that stands for the diagonal matrix diag(a) (as
    ``SpdMatrix`` hands out a diagonal M and its roots). Against a diagonal
    the product is a row (column) scaling, with the bits of the GEMM it
    replaces: each entry of that GEMM is one product plus exact zeros, and
    adding +0.0 turns a -0 into +0, the zeros' only effect."""
    if a.ndim == 2:
        return x @ a if right else a @ x
    # C order, as a GEMM's output, so that a GEMM downstream sees the same layout.
    y = np.multiply(x, a if right else a[:, None], order="C")
    y += 0.0
    return y


def _quad(a: np.ndarray, x):
    """x^T M x of a vector (a float) or of each row of a stack, for M's
    ``_times`` operand ``a``: ((x @ M) * x) summed per row, or for a
    diagonal M (x * x) @ diag(M), which never forms the product with M (a
    boolean x is its own square)."""
    x = np.asarray(x)
    own_square = x.dtype == bool
    x = x.astype(float, copy=False)
    if a.ndim == 2:
        q = x @ a
        q *= x
        return float(q.sum()) if x.ndim == 1 else q.sum(axis=-1)
    sq = x if own_square else x * x
    if x.ndim == 2:
        return sq @ a
    # BLAS sums a dot product with a strided operand in another order than
    # one of two contiguous vectors. diag(M) was a strided view of dense
    # entries; a strided copy of x * x keeps that order, and so the bits.
    s = np.empty((len(sq), 2))
    s[:, 0] = sq
    return float(s[:, 0] @ a)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _dense(a: np.ndarray) -> np.ndarray:
    """The matrix of a ``_times`` operand."""
    return a if a.ndim == 2 else np.diag(a)


def _inv_sqrt(w: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(w)


def _inv(w: np.ndarray) -> np.ndarray:
    return 1.0 / w


def _block_inverses(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """(M_CC)^-1 = V_C diag(1 / lambda_C) V_C^T for every block C of a size
    stack, from its stored eigenpairs ((n, b) and (n, b, b)): one batched
    product, which treats each block alone, symmetrized as
    ``SpdMatrix._spectral_apply`` symmetrizes. For a connected M, one block
    of every index whose stored eigenvectors are V itself, it is
    ``inverse()`` bit for bit."""
    w = (vecs * _inv(vals)[:, None, :]) @ vecs.transpose(0, 2, 1)
    return 0.5 * (w + w.transpose(0, 2, 1))


def _integral(a: np.ndarray, scale: float) -> bool:
    # scale >= 2^49 already decides the sum, which could overflow.
    return bool((a == a.round()).all() and scale < 2.0**49 and abs(a).sum() < 2.0**49)


def _halved_sum(a: np.ndarray, scale: float) -> np.ndarray:
    """(A + A^T) / 2; on a 1-D diagonal d (d.T is d) it gives the diagonal
    of that of diag(d), bit for bit."""
    # From 2^1023 on, A + A^T can overflow; halving first is exact there.
    return 0.5 * (a + a.T) if scale < 2.0**1023 else 0.5 * a + 0.5 * a.T


class SpdMatrix:
    """A symmetric positive definite matrix with cached spectral data.

    Construction rejects NaN and infinite entries, symmetrizes via
    (A + A^T)/2, and rejects inputs with max |A - A^T| above
    ``SYMMETRY_RTOL * max |A|`` or whose smallest eigenvalue falls below
    ``dim * PD_RTOL * lambda_max``. Both tests are relative, so scaling A
    by a positive factor, short of over- or underflow, does not change
    whether it is accepted; a spectrum that overflows a double is refused
    as such. The eigendecomposition, the symmetric square
    root and its inverse are computed once and shared; instances are
    immutable and safe to use from multiple threads.

    An exactly diagonal M (every off-diagonal entry zero, from any
    constructor) is stored as its diagonal d and its stably sorted
    eigenvalues, O(dim) memory: ``entries``, ``eigenvectors`` (the
    permutation that sorts d) and the roots are read-only dense arrays
    formed on first access, and ``solve``, ``quad``, ``inverse()`` and the
    private ``_times`` operands read d. Such an array has the same bits
    whichever thread forms it, so the thread-safety above holds.

    Otherwise the ``blocks`` of one size are one size stack (``stacks``,
    built once) with one stacked ``eigh`` call per size stack, which solves
    each block alone; any other index is a 1 x 1 block with an axis
    eigenvector, and one stable sort orders the eigenvalues. The blocks
    come from the nonzero pattern above the diagonal, read one row at a
    time until every index is joined (after row 0 for a dense M). Each
    stack keeps its blocks of M and their eigenpairs, which the
    weak-conformality scan reads (``_block_inverses``); the dense
    ``eigenvectors`` are formed from them on first read, by the builder
    that gives a diagonal M its permutation. A connected M, one block of
    every index, is one plain ``eigh``, stored as one stack of one block
    whose eigenvectors are sign-fixed at construction and are
    ``eigenvectors`` itself: one eigenbasis, no second copy.
    As every eigenvector lives on one block, every product term between two
    blocks is an exact zero: the square roots, ``inverse()`` and ``solve``
    are exactly zero off the blocks (exactly diagonal for a diagonal M).
    """

    def __init__(self, entries):
        a = _as_square(entries)
        if a.shape[0] == 0:
            raise ValueError("SpdMatrix requires dimension >= 1")
        scale = _check_symmetric(a)
        a = _halved_sum(a, scale)
        if np.count_nonzero(a) == np.count_nonzero(np.diagonal(a)):
            # Exactly diagonal: a count costs far less than the pattern scan.
            self._set_diagonal(np.diagonal(a).copy(), scale)
            return
        k = a.shape[0]
        self._is_integral = _integral(a, scale)
        # The pattern above the diagonal, row by row: the scan ends at its
        # (k - 1)th join, so after row 0 for a dense M.
        pairs = ((i, j) for i in range(k) for j in (np.flatnonzero(a[i, i + 1 :]) + (i + 1)).tolist())
        self._blocks = tuple(np.array(c) for c in _components(k, pairs) if len(c) > 1)
        self._stacks = tuple(np.array([c for c in self._blocks if len(c) == b]) for b in sorted({len(c) for c in self._blocks}))
        self._dim, self._diag, self._eigenvectors = k, None, None
        self._entries, self._operand = _read_only(a), a
        if len(self._blocks[0]) == k:
            # One block of every index: its gather, scatter and sort are
            # identities, so its sign-fixed eigenvectors are V itself.
            vals, vecs = np.linalg.eigh(a)
            self._eigenvectors = _read_only(_fix_signs(vecs))
            self._stacked = ((a[None], vals[None], self._eigenvectors[None]),)
        else:
            # Per size stack its blocks of M and their eigenpairs; each index
            # takes its block's eigenvalue, or its diagonal entry.
            self._stacked = tuple((b, *np.linalg.eigh(b)) for b in (a[c[:, :, None], c[:, None, :]] for c in self._stacks))
            vals = np.diagonal(a).copy()
            for idx, (_, lam, _) in zip(self._stacks, self._stacked):
                vals[idx] = lam
            self._order = np.argsort(vals, kind="stable")
            vals = vals[self._order]
        self._set_eigenvalues(vals)

    def _set_diagonal(self, d: np.ndarray, scale: float) -> None:
        """Store a diagonal M = diag(d) as d: no m x m array."""
        self._dim, self._diag, self._operand = len(d), _read_only(d), d
        self._entries = self._eigenvectors = None
        self._blocks = self._stacks = self._stacked = ()
        self._is_integral = _integral(d, scale)
        self._order = np.argsort(d, kind="stable")
        self._set_eigenvalues(d[self._order])

    def _set_eigenvalues(self, vals: np.ndarray) -> None:
        """Keep the ascending eigenvalues, which the columns of
        ``eigenvectors`` follow (for a diagonal M, or several blocks, in the
        ``_order`` of the indices). A finite M can still have an eigenvalue
        past the largest double; it is refused as such, before the
        positive-definiteness test, whose threshold it would make infinite."""
        self._eigenvalues, k = vals, self._dim
        if not np.isfinite(vals).all():
            raise ValueError(f"matrix spectrum overflows: max |lambda| = {np.abs(vals).max():.3e}; rescale the matrix down")
        if vals[0] <= k * PD_RTOL * vals[-1]:
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite: lambda_min = {vals[0]:.3e} "
                f"<= {k} * {PD_RTOL:.0e} * lambda_max = {k * PD_RTOL * vals[-1]:.3e}"
            )

    @classmethod
    def from_diagonal(cls, diag) -> "SpdMatrix":
        """diag(d) from the 1-D array d, in O(len(d)) time and memory."""
        d = np.asarray(diag, dtype=float)
        if d.ndim != 1:
            raise ValueError(f"expected a 1-D diagonal, got shape {d.shape}")
        if not len(d):
            raise ValueError("SpdMatrix requires dimension >= 1")
        bad = np.flatnonzero(~np.isfinite(d))[:1]
        if len(bad):
            raise NonFiniteError(f"matrix has a non-finite entry: {d[bad[0]]} at row {bad[0]}, column {bad[0]}")
        scale = float(np.abs(d).max())
        m = cls.__new__(cls)
        m._set_diagonal(_halved_sum(d, scale), scale)
        return m

    @classmethod
    def identity(cls, dim: int) -> "SpdMatrix":
        return cls.from_diagonal(np.ones(dim))

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            self._entries = _read_only(_dense(self._diag))
        return self._entries

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigenvalues

    @property
    def eigenvectors(self) -> np.ndarray:
        """V, read-only, with the sign convention of ``_fix_signs``. A
        connected M keeps it from construction, as its one stored block of
        eigenvectors. Otherwise it is formed on first read: each block's
        eigenvectors scattered into the identity, its columns in eigenvalue
        order, signs fixed after the scatter (a no-op on the axis vectors).
        ``take`` keeps V in C order: with ``v[:, order]`` the GEMMs of
        ``_spectral_apply`` sum in another order and move bits."""
        if self._eigenvectors is None:
            v = np.eye(self._dim)
            for idx, (_, _, vecs) in zip(self._stacks, self._stacked):
                v[idx[:, :, None], idx[:, None, :]] = vecs
            self._eigenvectors = _read_only(_fix_signs(v.take(self._order, axis=1)))
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

    @property
    def _diagonal(self) -> np.ndarray:
        """diag(M), read-only."""
        return np.diagonal(self._entries) if self._diag is None else self._diag

    def _spectral_apply(self, f) -> np.ndarray:
        """f(M) as a ``_times`` operand: for a diagonal M the vector f(d),
        whose diag(f(d)) is (V f(lambda)) V^T for the permutation V bit for
        bit, as every entry of that product is one term plus exact zeros."""
        if self._diag is not None:
            return f(self._diag)
        v = self.eigenvectors
        m = (v * f(self._eigenvalues)) @ v.T
        return 0.5 * (m + m.T)

    @cached_property
    def _sqrt_operand(self) -> np.ndarray:
        return _read_only(self._spectral_apply(np.sqrt))

    @cached_property
    def _inv_sqrt_operand(self) -> np.ndarray:
        return _read_only(self._spectral_apply(_inv_sqrt))

    @cached_property
    def sqrt_entries(self) -> np.ndarray:
        """The symmetric Q with Q @ Q = M, read-only, computed once."""
        return _read_only(_dense(self._sqrt_operand))

    @cached_property
    def inv_sqrt_entries(self) -> np.ndarray:
        return _read_only(_dense(self._inv_sqrt_operand))

    @staticmethod
    def _of(a: np.ndarray) -> "SpdMatrix":
        """The SpdMatrix of a ``_times`` operand, a diagonal built from its vector."""
        return SpdMatrix(a) if a.ndim == 2 else SpdMatrix.from_diagonal(a)

    def sqrt(self) -> "SpdMatrix":
        return self._of(self._sqrt_operand)

    def solve(self, b) -> np.ndarray:
        """Solve M x = b in the cached eigenbasis, with one step of iterative refinement."""
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.dim:
            raise ValueError(f"dimension mismatch: M is {self.dim}x{self.dim}, b has leading size {b.shape[0]}")
        if self._diag is not None:
            return (b.T / self._diag).T
        v, lam = self.eigenvectors, self._eigenvalues
        x = v @ ((v.T @ b).T / lam).T
        return x + v @ ((v.T @ (b - self._entries @ x)).T / lam).T

    def inverse(self) -> np.ndarray:
        """Explicit inverse, for callers that genuinely need the matrix."""
        return _dense(self._spectral_apply(_inv))

    def _inverted(self) -> "SpdMatrix":
        """SpdMatrix(inverse()), with a diagonal kept as its diagonal."""
        return self._of(self._spectral_apply(_inv))

    def quad(self, x):
        """The quadratic form x^T M x of a vector (a float) or of each row of a stack."""
        return _quad(self._operand, x)

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
    w = b._inv_sqrt_operand
    s = _times(w, _times(w, a), right=True)
    # The product is symmetric only up to rounding, which can exceed the
    # input tolerance at high cond(B); symmetrized, it is exactly symmetric.
    vals, vecs = sym_eig(0.5 * (s + s.T))
    if vals[0] < -ZERO_RTOL * vals[-1]:
        raise ValueError(f"left-hand matrix has negative eigenvalue {vals[0]:.3e}")
    return vals, _times(w, vecs)
