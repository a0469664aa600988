"""Strong and weak conformality of SPD matrices.

Strong conformality measures the worst correlation, under the inner product
M, of vectors that are orthogonal in the standard inner product; it has the
closed form (lambda_max - lambda_min)/(lambda_max + lambda_min). Weak
conformality restricts to vectors with disjoint support, is tied to the
representing basis, and is computed exactly by maximizing over all
2^(k-1) - 1 unordered support partitions (S, T): for a subset S,

    value(S)^2 = max eig of  M_SS v = (1/lambda) M_ST M_TT^-1 M_ST^T v.

The value is symmetric in S and T. Because M_SS - M_ST M_TT^-1 M_ST^T is
the Schur complement ((M^-1)_SS)^-1, it also equals

    value(S)^2 = 1 - 1/mu_max(M_SS (M^-1)_SS),

which needs only the S-blocks of M and of one shared inverse. The scan uses
this form on the smaller side of every partition, stacked by side size into
one batched Cholesky and eigenvalue call per group. That batch only ranks
the partitions: 1 - 1/mu loses digits, and partitions that tie
mathematically differ only by rounding. Every partition within a rounding
bound of the batch maximum is scored again by ``_partition_value``, the one
per-partition routine, which also yields the reported value and witness
pair; the winner among those is taken under the lexicographic tie-break.
The result is the same as scoring every partition that way.

A block-diagonal M is scored block by block, the blocks being the
connected components C of its nonzero pattern. For disjointly supported x
and y, x^T M y = sum_C x_C^T M_CC y_C <= max_C rho(M_CC) |x|_M |y|_M by
Cauchy-Schwarz, and the best block's witness attains it, so
rho(M) = max_C rho(M_CC). A 1 x 1 block contributes 0, so an exactly
diagonal M scores 0 with witness S = (0,) and no scan. Each block of size
>= 2 is scanned on its own principal submatrix, with cond(M_CC) in its tie
window, and the enumeration cap applies to the largest block; a connected
M is one block. Among the blocks whose value equals the maximum exactly,
each block's partition S_C (it holds min(C)) is lifted to
S_C | {i not in C : i < max(S_C)}, the lexicographically smallest full
partition that restricts to S_C. The smallest lift is the witness
partition, that block's witness pair (zero elsewhere) is the witness pair,
and its scan score is the reported value.

Exact computation is exponential by nature (the decision problem encodes
integer Partition instances), so a block larger than ``WEAK_CAP`` is
refused unless the caller passes ``force=True``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EnumerationCapError
from .linalg import SpdMatrix
from .report import VerificationReport

# Largest block of the nonzero pattern scanned without force=True.
WEAK_CAP = 20
# Partitions per batched call; bounds the stacked blocks at large k.
BATCH_CHUNK = 1 << 12
# Multiple of k * eps * cond(M) that separates a near-tie from a loser.
TIE_SAFETY = 256.0


@dataclass
class ConformalityResult:
    rho_strong: float
    rho_weak: float
    witness_partition: tuple[int, ...]
    witness_x: np.ndarray
    witness_y: np.ndarray

    def to_dict(self) -> dict:
        return {
            "rho_strong": self.rho_strong,
            "rho_weak": self.rho_weak,
            "witness_S": list(self.witness_partition),
            "witness_x": [float(v) for v in self.witness_x],
            "witness_y": [float(v) for v in self.witness_y],
        }


def strong_conformality(m: SpdMatrix) -> float:
    """Closed form (lambda_max - lambda_min)/(lambda_max + lambda_min)."""
    if m.dim < 2:
        raise ValueError("strong conformality requires dimension >= 2")
    lo, hi = float(m.eigenvalues[0]), float(m.eigenvalues[-1])
    return (hi - lo) / (hi + lo)


def _subset_rows(masks: np.ndarray, n: int, cols=None) -> np.ndarray:
    """Membership rows of n columns, one per subset mask.

    Column cols[i] (default i) holds bit i of the mask and every other column
    is False. An unordered bipartition with index 0 on the first side is the
    odd mask 2p + 1 of its partition number p.
    """
    if cols is None:
        return ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    rows = np.zeros((len(masks), n), dtype=bool)
    rows[:, cols] = (masks[:, None] >> np.arange(len(cols))) & 1
    return rows


def _partition_value(entries: np.ndarray, s_idx: np.ndarray, t_idx: np.ndarray):
    """value(S), its top generalized eigenvector v on S, and Z = M_TT^-1 M_TS.

    With M_SS = L L^T, value(S)^2 is the top eigenvalue of the symmetrized
    L^-1 (M_ST Z) L^-T, and v = L^-T u for its unit eigenvector u, so
    v^T M_SS v = 1.
    """
    m_st = entries[np.ix_(s_idx, t_idx)]
    z = np.linalg.solve(entries[np.ix_(t_idx, t_idx)], m_st.T)
    chol = np.linalg.cholesky(entries[np.ix_(s_idx, s_idx)])
    half = np.linalg.solve(chol, m_st @ z)
    c = np.linalg.solve(chol, half.T)
    vals, vecs = np.linalg.eigh(0.5 * (c + c.T))
    value = float(np.sqrt(max(float(vals[-1]), 0.0)))
    return value, np.linalg.solve(chol.T, vecs[:, -1]), z


def _scan_masks(entries: np.ndarray, masks, k: int):
    """Score each partition mask with ``_partition_value``; keep the best, ties to the smaller subset."""
    best_val = -1.0
    best_subset: tuple[int, ...] | None = None
    for row in _subset_rows(2 * np.asarray(masks) + 1, k):
        s_idx = np.flatnonzero(row)
        subset = tuple(s_idx.tolist())
        val = _partition_value(entries, s_idx, np.flatnonzero(~row))[0]
        if val > best_val or (val == best_val and subset < best_subset):
            best_val, best_subset = val, subset
    return best_val, best_subset


def _batched_rho_sq(m: SpdMatrix) -> np.ndarray:
    """value(S)^2 for every partition mask, by the Schur identity, indexed by mask.

    Partition mask p is the subset mask 2p + 1 (see ``_subset_rows``); the
    all-in mask 2^(k-1) - 1 is not a partition and is left out.
    """
    k = m.dim
    entries, inverse = m.entries, m.inverse()
    count = (1 << (k - 1)) - 1
    out = np.empty(count)
    for lo in range(0, count, BATCH_CHUNK):
        members = _subset_rows(2 * np.arange(lo, min(lo + BATCH_CHUNK, count)) + 1, k)
        size = members.sum(axis=1)
        flip = size > k - size
        members[flip] = ~members[flip]
        size[flip] = k - size[flip]
        for s in range(1, k // 2 + 1):
            rows = np.flatnonzero(size == s)
            if len(rows) == 0:
                continue
            idx = np.nonzero(members[rows])[1].reshape(-1, s)
            block = (idx[:, :, None], idx[:, None, :])
            chol = np.linalg.cholesky(entries[block])
            mu = np.linalg.eigvalsh(np.swapaxes(chol, 1, 2) @ inverse[block] @ chol)[:, -1]
            out[lo + rows] = 1.0 - 1.0 / mu
    return out


def _components(entries: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the nonzero pattern, by smallest index."""
    linked = entries != 0.0
    unseen = np.ones(len(entries), dtype=bool)
    blocks = []
    while unseen.any():
        reach = np.zeros_like(unseen)
        reach[np.argmax(unseen)] = True
        while True:
            # The diagonal of an SPD matrix is nonzero, so reach only grows.
            grown = linked[reach].any(axis=0)
            if np.array_equal(grown, reach):
                break
            reach = grown
        unseen &= ~reach
        blocks.append(np.flatnonzero(reach))
    return blocks


def _scan(m: SpdMatrix):
    """(value, x, y, witness partition) of one connected block, by rank-then-recheck."""
    k = m.dim
    # Backward-stable Cholesky and eigensolvers on blocks of M and M^-1,
    # whose condition numbers are at most cond(M), put both the batched
    # value^2 and the one-by-one value^2 within a small multiple of
    # k * eps * cond(M) of the exact value (measured: they differ by at
    # most 0.9 times it on dense, ill-conditioned, near-diagonal, gadget
    # and block-diagonal inputs with k <= 12). Any partition the
    # one-by-one scan could rank first then lies within delta of the
    # batched maximum.
    rho_sq = _batched_rho_sq(m)
    delta = TIE_SAFETY * k * np.finfo(float).eps * m.condition
    near_ties = np.flatnonzero(rho_sq >= rho_sq.max() - delta)
    _, subset = _scan_masks(m.entries, near_ties, k)
    return (*_witness_pair(m, np.array(subset)), subset)


def weak_conformality(m: SpdMatrix, *, force: bool = False) -> ConformalityResult:
    """Exact weak conformality over all support partitions.

    Each block of the nonzero pattern is scanned on its own: the batched
    Schur-complement scan ranks its partitions, the near-ties of its
    maximum are scored again one by one, and ties between those resolve
    to the lexicographically smallest subset containing the block's first
    index. The best block gives the result, under the witness rule of the
    module docstring; a connected M is one block, whose witness is the one
    an exhaustive one-by-one scan selects.

    A block larger than ``WEAK_CAP`` raises ``EnumerationCapError`` unless
    ``force`` is set; a diagonal M needs no scan and is never refused.
    """
    k = m.dim
    if k < 2:
        raise ValueError("weak conformality requires dimension >= 2")
    if m.is_diagonal:
        # Every M_ST is zero, so every partition scores exactly 0; no scan,
        # so no enumeration cap either.
        subset = (0,)
        rho, x, y = _witness_pair(m, np.array(subset))
    else:
        blocks = [c for c in _components(m.entries) if len(c) > 1]
        largest = max(len(c) for c in blocks)
        if largest > WEAK_CAP and not force:
            raise EnumerationCapError(
                f"a block of dimension {largest} exceeds the enumeration cap {WEAK_CAP}: "
                f"exact weak conformality of that block of the nonzero pattern solves "
                f"2^({largest}-1)-1 = {2 ** (largest - 1) - 1} generalized eigenproblems; "
                "pass force=True (CLI: --force) to run anyway"
            )
        if largest == k:
            rho, x, y, subset = _scan(m)
        else:
            rho, x, y, subset = _best_block(m, blocks)
    return ConformalityResult(
        rho_strong=strong_conformality(m),
        rho_weak=rho,
        witness_partition=subset,
        witness_x=x,
        witness_y=y,
    )


def _best_block(m: SpdMatrix, blocks: list[np.ndarray]):
    """The block-split result: best block value, smallest lift among exact ties."""
    best = None
    for c in blocks:
        rho, x_c, y_c, s_c = _scan(SpdMatrix(m.entries[np.ix_(c, c)]))
        s = c[list(s_c)]
        lift = tuple(np.union1d(s, np.setdiff1d(np.arange(s[-1]), c)).tolist())
        if best is None or rho > best[0] or (rho == best[0] and lift < best[1]):
            best = rho, lift, c, x_c, y_c
    rho, lift, c, x_c, y_c = best
    x = np.zeros(m.dim)
    x[c] = x_c
    y = np.zeros(m.dim)
    y[c] = y_c
    return rho, x, y, lift


def _witness_pair(m: SpdMatrix, s_idx: np.ndarray):
    """Value and maximizing pair for the support partition (S, complement of S).

    x is the top generalized eigenvector v on S, with its largest-magnitude
    entry positive; the optimal partner on the complement is y = Z v with
    Z = M_TT^-1 M_TS. Both are returned with unit M-norm and a sign making
    the correlation nonnegative. The value is the one ``_partition_value``
    scores the partition with.
    """
    entries = m.entries
    t_idx = np.setdiff1d(np.arange(m.dim), s_idx, assume_unique=True)
    rho, v, z = _partition_value(entries, s_idx, t_idx)
    if v[np.argmax(np.abs(v))] < 0.0:
        v = -v
    y_t = z @ v
    if np.abs(y_t).max(initial=0.0) < 1e-300:
        # Decoupled blocks (rho = 0): any vector on the complement works.
        y_t = np.zeros(len(t_idx))
        y_t[0] = 1.0
    k = m.dim
    x = np.zeros(k)
    x[s_idx] = v
    y = np.zeros(k)
    y[t_idx] = y_t
    x = x / np.sqrt(m.quad(x))
    y = y / np.sqrt(m.quad(y))
    if float(x @ entries @ y) < 0.0:
        y = -y
    return rho, x, y


def weak_conformality_value(m: SpdMatrix, *, force: bool = False) -> float:
    """Weak conformality as a bare number, with the vacuous 1-d case as 0.

    A one-dimensional space admits no disjoint-support pair, so the least
    valid rho is 0; theorem verifiers use this form for their correction
    factors.
    """
    if m.dim < 2:
        return 0.0
    return weak_conformality(m, force=force).rho_weak


def weak_conformality_sampled(m: SpdMatrix, trials: int, seed: int) -> float:
    """Lower-bound oracle: best correlation over random disjoint-support pairs.

    Support sizes are uniform on [1, k-1]; entries are standard normal.
    Deterministic for a fixed seed, and never exceeds the exact value.
    """
    k = m.dim
    if k < 2:
        raise ValueError("sampled weak conformality requires dimension >= 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, k, size=trials)
    order = np.argsort(rng.random((trials, k)), axis=1)
    ranks = np.argsort(order, axis=1)
    mask = ranks < sizes[:, None]
    x = rng.standard_normal((trials, k)) * mask
    y = rng.standard_normal((trials, k)) * ~mask
    num = np.abs(np.einsum("ti,ti->t", x @ m.entries, y))
    den = np.sqrt(m.quad(x) * m.quad(y))
    return float((num / den).max())


def make_conformality_pair(rho_w: float, rho_s: float, k: int) -> SpdMatrix:
    """Build a k x k SPD matrix with weak conformality rho_w and strong rho_s.

    The 2x2 block [[a, rho_w], [rho_w, 1/a]] has weak conformality rho_w for
    every a >= 1 (there is a single support partition), while its strong
    conformality sqrt((a - 1/a)^2 + 4 rho_w^2)/(a + 1/a) sweeps [rho_w, 1).
    Its square is 1 - 4(1 - rho_w^2)/(a + 1/a)^2, so the target is met by
    a + 1/a = t = 2 sqrt((1 - rho_w^2)/(1 - rho_s^2)) >= 2, that is
    a = (t + sqrt(t^2 - 4))/2; an identity block pads to dimension k.
    """
    if not (0.0 <= rho_w <= rho_s < 1.0):
        raise ValueError("need 0 <= rho_w <= rho_s < 1")
    if k < 2:
        raise ValueError("need dimension k >= 2")

    t = 2.0 * np.sqrt((1.0 - rho_w**2) / (1.0 - rho_s**2))
    alpha = 0.5 * (t + np.sqrt(t * t - 4.0))
    block = np.array([[alpha, rho_w], [rho_w, 1.0 / alpha]])
    entries = np.eye(k)
    entries[:2, :2] = block
    m = SpdMatrix(entries)

    measured_s = strong_conformality(m)
    if abs(measured_s - rho_s) > 1e-8:
        raise RuntimeError(f"constructed matrix has strong conformality {measured_s}, wanted {rho_s}")
    measured_w = weak_conformality(m).rho_weak
    if abs(measured_w - rho_w) > 1e-8:
        raise RuntimeError(f"constructed matrix has weak conformality {measured_w}, wanted {rho_w}")
    return m


@dataclass
class PartitionGadget:
    """SPD encoding of an integer Partition instance.

    For instance x_1..x_n the gadget is M = x x^T + I with x_i = sqrt(x_i).
    Balanced partitions of the instance exist exactly when the weak
    conformality of M attains X/(X+1), where 2X is the instance sum.
    """

    instance: tuple[int, ...]
    matrix: SpdMatrix
    half_sum: float
    affirmative_value: float


def partition_gadget(instance) -> PartitionGadget:
    values = [int(v) for v in instance]
    if len(values) < 2:
        raise ValueError("a Partition instance needs at least two numbers")
    if any(v < 1 for v in values) or any(int(v) != v for v in instance):
        raise ValueError("Partition instance entries must be natural numbers >= 1")
    x = np.sqrt(np.asarray(values, dtype=float))
    m = SpdMatrix(np.outer(x, x) + np.eye(len(values)))
    half = 0.5 * float(sum(values))
    return PartitionGadget(
        instance=tuple(values),
        matrix=m,
        half_sum=half,
        affirmative_value=half / (half + 1.0),
    )


def verify_conformality_bounds(m: SpdMatrix, x, *, force: bool = False) -> VerificationReport:
    """Check the sign and trace sandwiches around x^T M x.

    With rho the exact weak conformality, both
    (1-rho)/(1+rho) |x|^T M |x| <= x^T M x <= (1+rho)/(1-rho) |x|^T M |x| and
    the same bracket with sum_i x_i^2 M_ii in place of |x|^T M |x| must hold.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (m.dim,):
        raise ValueError(f"dimension mismatch: matrix is {m.dim}-dimensional, x has shape {x.shape}")
    rho = weak_conformality(m, force=force).rho_weak
    lo_factor = (1.0 - rho) / (1.0 + rho)
    hi_factor = (1.0 + rho) / (1.0 - rho)
    quad = m.quad(x)
    abs_quad = m.quad(np.abs(x))
    diag_quad = float(np.sum(x * x * np.diagonal(m.entries)))
    slack = 1e-10
    sign_ok = lo_factor * abs_quad - slack <= quad <= hi_factor * abs_quad + slack
    trace_ok = lo_factor * diag_quad - slack <= quad <= hi_factor * diag_quad + slack
    return VerificationReport(
        check="conformality-bounds",
        passed=bool(sign_ok and trace_ok),
        values={
            "rho_weak": rho,
            "quadratic_form": quad,
            "sign_lower": lo_factor * abs_quad,
            "sign_upper": hi_factor * abs_quad,
            "trace_lower": lo_factor * diag_quad,
            "trace_upper": hi_factor * diag_quad,
            "sign_bound_holds": bool(sign_ok),
            "trace_bound_holds": bool(trace_ok),
        },
    )


def inverse_conformality_check(m: SpdMatrix, *, force: bool = False) -> VerificationReport:
    """Both conformalities must be invariant under matrix inversion."""
    if m.dim < 2:
        raise ValueError("conformality requires dimension >= 2")
    inv = SpdMatrix(m.inverse())
    rho_s = strong_conformality(m)
    rho_s_inv = strong_conformality(inv)
    rho_w = weak_conformality(m, force=force).rho_weak
    rho_w_inv = weak_conformality(inv, force=force).rho_weak
    tol = 1e-8
    return VerificationReport(
        check="inverse-conformality",
        passed=bool(abs(rho_s - rho_s_inv) <= tol and abs(rho_w - rho_w_inv) <= tol),
        values={
            "rho_strong": rho_s,
            "rho_strong_inverse": rho_s_inv,
            "rho_weak": rho_w,
            "rho_weak_inverse": rho_w_inv,
        },
    )
