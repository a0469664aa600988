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

which needs only the S-blocks of M and of M^-1. The scan uses
this form on the smaller side of every partition, stacked by side size into
one batch per group. Which partitions share a group, and where
their smaller sides sit, depends on the block size alone (chunks hold
``BATCH_CHUNK`` partitions), never on M: ``_partition_plan`` builds that
index plan once per block size and the process keeps it within the cap (a
forced scan past it builds one chunk at a time and keeps none). It holds
each partition's slot (int32) and smaller-side positions (int16), about
11 MB at k = 20. A scan reads the blocks of M and of M^-1 once, side by
side, and gathers the S-blocks of both with one take per group.

With M_SS = L L^T, the eigenvalues of B = L^T (M^-1)_SS L are those of
M_SS (M^-1)_SS, all >= 1, and E = B - I is positive semidefinite with
largest eigenvalue mu_max - 1. P_S = M_SS (M^-1)_SS - I = L E L^-1 is
similar to E, so the trace of an even power of P_S is the sum of the
eigenvalues of E to that power, at least (mu_max - 1) to that power, and
bounds mu_max from above with no factor. Two such bounds come before any
eigensolve.

The screen, for blocks of ``SCREEN_MIN_SIZE`` or more (below it, its
terms cost more than the products they spare):

    mu_max - 1 <= tr(P_S^2)^(1/2).

tr(P_S^2) is a sum of terms over index 4-tuples supported in S, so one
subset-sum (zeta) transform of those terms, binned by support, gives it for
every partition of a block at once (``_trace_squares``; Yates 1937), in
O(b^4 + b 2^b) per block with no gather, product or factor per partition.
The terms are folded by their symmetry: M_il W_lj M_jm W_mi does not move
under (i, l, j, m) -> (j, m, i, l), (l, i, m, j) or (m, j, l, i), as the
stored blocks of M and of M^-1 are exactly symmetric, so one term per
orbit, weighted exactly by the orbit size (1, 2 or 4), stands for it:
about b^4/4 terms, at most 15 per bin. The transform's low 5 levels are
one product with the 32 x 32 0/1 subset matrix from the right, the next 5
one from the left, and each higher level adds contiguous blocks in place.
Each value carries a derived rounding allowance, (61 + b) eps times the
block's sum of |terms| (the error, at most 68 + b roundings, measured under
0.3% of it), which the bound takes in. That sum is one scalar per block and
factors through b x b products: the 4-tuple terms M_il W_lj M_jm W_mi, the
pair terms -2 M_il W_li and the b constant terms give tr((|M||W| + I)^2),
so no pass over the terms is made for it. The table holds 2^(b-1) values
per block (4 MB at b = 20) until the scan starts. One exact value, at the
largest screen bound, starts the running best.

The tr(P^8) bound, per group of equal smaller sides |S| >= 3, on the
partitions that pass the screen:

    mu_max <= 1 + tr(E^8)^(1/8),

with tr(P^8) = tr(E^8) from three batched products. The running best only
ever holds a value some partition attains, and both bounds stay above
every value they stand for. So only a partition whose bound reaches the
best value met so far, less four times the tie window below, goes on from
a bound: in the end it is factored, forms B and gets an eigenvalue call.
The others keep their bound, which cannot reach the window, so the
ranking below is unchanged.

The screened walk pays per candidate, not per group: at the start of each
plan chunk one compare of the chunk's screen bounds, taken in scan order,
against best - 4 delta finds its candidates, and one ``searchsorted``
splits them by group. A group that holds none is skipped with no array
operation. The best only rises, so the partitions a group would pass at
its turn are among its candidates; they are compared again only when the
best has risen since the chunk began, and they come out the same.

That batch only ranks the partitions: 1 - 1/mu loses digits, and
partitions that tie mathematically differ only by rounding. Every
partition within a rounding bound (the tie window) of the batch maximum is
scored again by ``_partition_value``, the one per-partition routine, and
the best of those scores is the reported value. The result is the same as
scoring every partition that way. Rescoring takes values first: a near tie
costs its solve for Z, its Cholesky factor L, two solves with L and its
``eigh``. The witness vector v = L^-T u is solved once, for the winner
alone, from its rows of L and u in the stacked call, with the bits the
stacked solve gives that row (each solve treats its matrices one at a
time). Rescoring is one pass for every caller: it returns the best score
and the exact maxima with their L, u and Z. The theorem verifiers
(``weak_conformality_value``) take rho alone; only ``weak_conformality``
(so ``ipl conformality``) picks the witness among the maxima and builds
its pair, once, on the winning block's ``_times`` operand: each partition
is scored once, and the pair attains the reported value.

The unit of work is the block C, one of ``SpdMatrix.blocks``, the
connected components of the nonzero pattern; a connected M is one block.
For disjointly supported x, y: x^T M y = sum_C x_C^T M_CC y_C <=
max_C rho(M_CC) |x|_M |y|_M by Cauchy-Schwarz, and the best block's witness
attains it, so rho(M) = max_C rho(M_CC). A 1 x 1 block contributes 0, so
an exactly diagonal M scores 0 with witness S = (0,), scored once for its
pair. As (M^-1)_CC = (M_CC)^-1, each block of size >= 2 is ranked from
its own inverse: ``SpdMatrix`` stores each size stack's blocks of M and
their eigenpairs, and ``_block_inverses`` forms V_C Lambda_C^-1 V_C^T for
a whole stack in one batched product, so the scan forms no k x k array.
For a connected M that is ``inverse()`` bit for bit; with several blocks
its last bits can differ from those of ``inverse()``'s blocks, which the
ranking absorbs, as it only selects the near ties, and those are scored
again on M's own entries. ``SpdMatrix`` inverts block by block, so M^-1
keeps the blocks of M and ``inverse_conformality_check`` scans the same
blocks for both. One tie
window, from k and cond(M), serves them all and is at least each block's
own; the cap applies to the largest block. The blocks of one size form
one size stack (``SpdMatrix.stacks``, built once, the stacks it eigensolves),
with one ranking call per size stack: ``_batched_rho_sq`` ranks every
block of the stack in the same batches under one running best, which
prunes only partitions that cannot reach the window. A stack of b-blocks
holding more than ``BATCH_CHUNK`` partitions is ranked in slices of
BATCH_CHUNK >> (b - 1) blocks, one block from b = 13 on. The near ties of
the top over all blocks, partitions (S, T) of their block C with min(C)
in S, are scored again in one pass, per size-stack slice, stacked by |S|.
They stay in block coordinates: a tie is its block row and partition
number, and its membership row spans the b indices of its block. A slice
orders its ties by |S| once, and one stable argsort of its membership rows
builds every tie's row of block indices, S then T, each in block order;
an |S| stack is a slice of those rows. Among those that score the maximum
exactly, the witness partition is the smallest lift L(S) = S | {i not in
C : i < max(S)}, the lexicographically smallest full partition that
restricts to S. Within a block the lifts order as the S do (where two S
first differ, the smaller index is in C and missing from the other lift,
and the lifts agree below it), so a stack whose maxima share one block
keeps its smallest S, and a connected M gets the first S, as an exhaustive
scan does. ``weak_conformality`` compares the maxima the stacks keep, of
different blocks or stacks, without forming their lifts: two lifts first
differ at the least index of T below max(S) in one and not the other, or
else one is a prefix of the other (``_smallest_lift``). Only the winner's
lift is formed. The witness pair is built on C and is zero off it.

A block of the form D + u u^T (D > 0 diagonal; the Partition gadget
x x^T + I is one) is ranked in closed form. Weak conformality does not
change under positive diagonal scaling, and D^(-1/2) M D^(-1/2) = I + w w^T
with w = D^(-1/2) u. For x on S and y on T, x^T (I + w w^T) y =
(w_S . x)(w_T . y) and x^T (I + w w^T) x = |x|^2 + (w_S . x)^2, so

    value(S)^2 = a c / ((1 + a)(1 + c)) = g / (1 + W + g),

with a and c the sums of w_i^2 over S and over T, W = a + c and g = a c.
One ``_subset_sums`` table over a block's 2^b masks gives a and c for every
partition: no inverse, index plan, product or factor. ``_rank_one_weights``
accepts a block by an exact test on its entries: b >= 4 (every 3 x 3 with a
positive off-diagonal product fits D + u u^T, so the test tells nothing
there), every off-diagonal entry nonzero, each within ``RANK_ONE_RTOL``
|M_ij| of u_i u_j for u_0 = sqrt(M_01 M_02 / M_12), u_i = M_0i / u_0, and
d = diag(M) - u^2 > 0. One scalar 2 x 2 minor of the first block turns a
dense slice away before any array operation (about 2 us). A size-stack
slice takes the closed form only when all its blocks pass; any other takes
``_batched_rho_sq`` unchanged. The near ties of the closed form are scored
again like any others, so rho and the witness keep their bits.

The tie window covers the closed form on every block that passes. Its
values are exact for a matrix within tau |M| entrywise of M, with
tau = RANK_ONE_RTOL + (b + 4) eps: the fit's residual off the diagonal,
the rounding of d_i = M_ii - u_i^2 (at most 2 eps M_ii, however small d_i
is, so a large M_ii / d_i costs nothing) and the subset sums (b eps
relative, a perturbation of u). For D + u u^T, || |M| || <= 2 lambda_max,
so such a perturbation moves every x^T M y by at most
2 tau cond(M) (x^T M x  y^T M y)^(1/2) and value^2 by about 8 tau cond(M)
<= 8 (20 + b) eps cond(M) <= 48 k eps cond(M), under a fifth of the window
(b >= 4). Measured, the closed form lies within 6e-4 k eps cond(M) of the
exact value (50-digit arithmetic, k = 4-7, M_ii / d_i up to 9e7) and within
0.07 k eps cond(M) of ``_partition_value`` (gadgets and random D + u u^T,
k = 4-14), and the fit's residual reaches 3.9 eps |M_ij| (k = 4-20).

Exact computation is exponential by nature (the decision problem encodes
integer Partition instances), so a block past the ``partitions`` cap of
``errors.CAPS`` is refused unless the caller passes ``force=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import CAPS, check_cap
from .linalg import SpdMatrix, _block_inverses, _fix_signs, _quad, _times
from .report import VerificationReport, to_plain

# Partitions per ranking call, over all blocks of its size stack slice;
# bounds the stacked matrices at large k.
BATCH_CHUNK = 1 << 12
# Multiple of k * eps * cond(M) that separates a near-tie from a loser.
TIE_SAFETY = 256.0
# Each off-diagonal entry of a D + u u^T block matches u_i u_j within this
# multiple of |M_ij| (measured: at most 3.9 eps on gadgets and D + u u^T).
RANK_ONE_RTOL = 16.0 * np.finfo(float).eps
# Blocks from this size on are screened by tr(P_S^2) before the tr(P^8)
# bound: below it the screen's folded terms can cost more than the products
# they spare on one block (ranking calls against the unscreened scan, one
# block / a full slice of blocks, dense and near-diagonal, six seeds each:
# b = 8 at 0.82-1.63x / 0.37-0.57x, b = 9 at 0.58-1.32x / 0.25-0.34x,
# b = 10 at 0.59-1.10x / 0.27-0.44x, b = 11 at 0.46-0.72x / 0.21-0.30x,
# b = 12 at 0.25-0.57x / 0.22-0.42x).
SCREEN_MIN_SIZE = 10
# The 32 x 32 0/1 matrix with a one where the row's mask is a subset of the
# column's: a row of a table times its leading 2^r x 2^r block is the
# subset-sum transform of the row over r bits.
SUBSETS = (np.arange(32)[:, None] & np.arange(32) == np.arange(32)[:, None]).astype(float)
SUBSETS.setflags(write=False)


@dataclass
class ConformalityResult:
    rho_strong: float
    rho_weak: float
    witness_partition: tuple[int, ...]
    witness_x: np.ndarray
    witness_y: np.ndarray

    def to_dict(self) -> dict:
        return to_plain(
            {
                "rho_strong": self.rho_strong,
                "rho_weak": self.rho_weak,
                "witness_S": self.witness_partition,
                "witness_x": self.witness_x,
                "witness_y": self.witness_y,
            }
        )


def strong_conformality(m: SpdMatrix) -> float:
    """Closed form (lambda_max - lambda_min)/(lambda_max + lambda_min)."""
    if m.dim < 2:
        raise ValueError("strong conformality requires dimension >= 2")
    lo, hi = float(m.eigenvalues[0]), float(m.eigenvalues[-1])
    if hi >= 2.0**1023:
        # hi + lo can overflow; halving both is exact at this size.
        lo, hi = 0.5 * lo, 0.5 * hi
    return (hi - lo) / (hi + lo)


def _subset_rows(masks: np.ndarray, n: int, cols=None) -> np.ndarray:
    """Membership rows of n columns, one per subset mask.

    Column cols[i] (default i) holds bit i of the mask and every other column
    is False; cols is one index array shared by every mask (the cut scan's
    S-local columns). An unordered bipartition with index 0 on the first side
    is the odd mask 2p + 1 of its partition number p. The bits are unpacked
    from each mask's little-endian bytes.
    """
    octets = masks.astype("<u8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(octets, axis=1, count=n if cols is None else len(cols), bitorder="little").view(bool)
    if cols is None:
        return bits
    rows = np.zeros((len(masks), n), dtype=bool)
    rows[:, cols] = bits
    return rows


def _subset_sums(a: np.ndarray) -> np.ndarray:
    """out[i, mask] = the sum of a[i, j] over the set bits j of mask, for
    every row i of the 2-D a and every mask below 2^(its column count),
    added in increasing j. The table is built with the mask axis first, so
    each step adds one contiguous block, then copied to C order (no copy
    for one row, whose transpose is already C-contiguous)."""
    out = np.zeros((1 << a.shape[1], len(a)))
    for j, col in enumerate(a.T):
        np.add(out[: 1 << j], col, out=out[1 << j : 2 << j])
    return np.ascontiguousarray(out.T)


def _first_set(rows: np.ndarray) -> int:
    """Index of the lexicographically smallest index set among membership rows."""
    if len(rows) == 1:
        return 0
    n = rows.shape[1]
    seq = np.sort(np.where(rows, np.arange(n), n), axis=1)
    seq[seq == n] = -1  # a proper prefix sorts first
    return int(np.lexsort(seq.T[::-1])[0])


def _partition_value(entries: np.ndarray, s_idx: np.ndarray, t_idx: np.ndarray):
    """value(S) for a stack of partitions, with the Cholesky factor L of M_SS,
    the unit eigenvector u and Z = M_TT^-1 M_TS that scored it: row i of
    s_idx and of t_idx holds the two sides of partition i, and every row has
    the same side sizes.

    With M_SS = L L^T, value(S)^2 is the top eigenvalue of the symmetrized
    L^-1 (M_ST Z) L^-T, and u is its unit eigenvector; the top generalized
    eigenvector on S is v = L^-T u, with v^T M_SS v = 1, which only
    ``weak_conformality`` solves, for its winner alone. Each stacked solve,
    Cholesky, product and ``eigh`` treats its matrices one at a time, so a
    partition scores the same bits in any stack, a stack of one included,
    unless the stack's coupling is weak enough to be scaled: value^2 is
    quadratic in M_ST and leaves the normal range near value = 1e-154, so
    when max |M_ST| < 2^-480 max(1, max diag M) the left factor M_ST of
    M_ST Z is scaled by 2^(2j), bringing max |M_ST| near max diag M, and
    value by 2^-j. Both are exact, and Z = M_TT^-1 M_TS keeps its own scale.
    """
    s = s_idx.shape[1]
    idx = np.concatenate((s_idx, t_idx), axis=1)
    # Each partition's matrix with S first, gathered in one take: M_SS, M_ST
    # and M_TT are its blocks (LAPACK reads them at any stride).
    perm = entries.take((idx * len(entries))[:, :, None] + idx[:, None, :])
    m_st = perm[:, :s, s:].copy()
    z = np.linalg.solve(perm[:, s:, s:], m_st.transpose(0, 2, 1))
    top, d, j = float(np.abs(m_st).max()), float(entries.diagonal().max()), 0
    if 0.0 < top < 2.0**-480 * max(d, 1.0):
        j = int(np.frexp(d)[1] - np.frexp(top)[1]) // 2
        m_st = np.ldexp(m_st, 2 * j)
    chol = np.linalg.cholesky(perm[:, :s, :s])
    half = np.linalg.solve(chol, m_st @ z)
    c = np.linalg.solve(chol, half.transpose(0, 2, 1))
    vals, vecs = np.linalg.eigh(0.5 * (c + c.transpose(0, 2, 1)))
    values = np.sqrt(np.maximum(vals[:, -1], 0.0))
    if j:
        values = np.ldexp(values, -j)
    return values, chol, vecs[:, :, -1], z


def _rescore(entries: np.ndarray, near):
    """Score the near ties again with ``_partition_value``. ``near`` holds, per
    size-stack slice, its blocks c (one row of indices per block) and a
    boolean array marking partition p of block row i as a near tie, as
    ``_batched_rho_sq`` indexes them. A slice takes one ``nonzero`` of its
    marks, one stable sort of its ties by |S| and one stable argsort of their
    membership rows, which gives every tie's block indices, S then T, each in
    block order. Each |S| stack (``BATCH_CHUNK`` ties at a time, in the order
    of the marks) is then a slice of those rows, for one
    ``_partition_value`` call.

    Returns (rho, found): rho the best score, and found, per stack whose top
    is the running best, its exact maxima as one tuple (C, S, L, u, Z) of
    arrays with a row per maximum: S the membership row over its block C,
    and L, u and Z its rows of the stack's ``_partition_value`` call.
    Within one block, lifts order as the S do (module docstring), so a stack
    whose maxima share a block keeps only its smallest S.
    ``weak_conformality`` picks the witness among the rest; a rho-only
    caller pays one gather per stack for them.
    """
    best, found = -np.inf, []
    for c, hit in near:
        i, p = hit.nonzero()
        members = _subset_rows(2 * p + 1, c.shape[1])
        sizes = members.sum(axis=1)
        # The ties by |S|, each |S| in the order of its marks, and each tie's
        # block indices, S then T, each side in block order.
        order = sizes.argsort(kind="stable")
        i, members = i[order], members[order]
        sides = c[i[:, None], (~members).argsort(axis=1, kind="stable")]
        end = 0
        for s, ties in enumerate(np.bincount(sizes).tolist()):
            for lo in range(end, end + ties, BATCH_CHUNK):
                hi = min(lo + BATCH_CHUNK, end + ties)
                s_idx = sides[lo:hi, :s]
                values, chol, u, z = _partition_value(entries, s_idx, sides[lo:hi, s:])
                top = values.max()
                if top > best:
                    best, found = top, []
                if top == best:
                    won = (values == top).nonzero()[0]
                    if len(won) > 1 and (i[lo + won] == i[lo + won[0]]).all():
                        rows = s_idx[won].tolist()
                        won = won[[rows.index(min(rows))]]
                    found.append((c[i[lo + won]], members[lo + won], chol[won], u[won], z[won]))
            end += ties
    return float(best), found


def _plan_chunks(k: int):
    """The index half of ``_batched_rho_sq`` for blocks of size k, built one
    chunk of ``BATCH_CHUNK`` partition masks at a time: per chunk, one
    (slots, positions) pair per smaller-side size s, slots (int32) the
    partition numbers and positions (int16, s per row) the smaller side's
    positions.
    """
    count = (1 << (k - 1)) - 1
    for lo in range(0, count, BATCH_CHUNK):
        members = _subset_rows(2 * np.arange(lo, min(lo + BATCH_CHUNK, count)) + 1, k)
        size = members.sum(axis=1)
        flip = size > k - size
        members[flip] = ~members[flip]
        size[flip] = k - size[flip]
        groups = []
        for s in range(1, k // 2 + 1):
            rows = np.flatnonzero(size == s)
            if len(rows):
                pos = np.nonzero(members[rows])[1].reshape(-1, s)
                groups.append(((lo + rows).astype(np.int32), pos.astype(np.int16)))
        yield tuple(groups)


@lru_cache(maxsize=None)
def _partition_plan(k: int) -> tuple:
    """All of ``_plan_chunks``, kept for the life of the process: about 11 MB
    at k = 20, and every smaller k together adds less again. A forced scan
    past the ``partitions`` cap reads ``_plan_chunks`` instead, one chunk at
    a time, and keeps none of its plan (about 43 MB at k = 22). The cache is
    keyed by k alone, so a change of ``BATCH_CHUNK`` must clear it.
    """
    return tuple(_plan_chunks(k))


@lru_cache(maxsize=None)
def _identity(s: int) -> np.ndarray:
    """The s x s identity, read-only, built once per size."""
    eye = np.eye(s)
    eye.setflags(write=False)
    return eye


@lru_cache(maxsize=None)
def _screen_plan(b: int) -> tuple:
    """The b-dependent half of ``_trace_squares``: one term per orbit, each
    read as the product of two entries of its source row (``first`` and
    ``second``), and the bin of each term, its support mask less index 0.

    The source row of a block is x = M_il W_lj at (i, l, j), then 2x, then
    1, -2 and -4. A 4-tuple's orbit under (i, l, j, m) -> (j, m, i, l),
    (l, i, m, j), (m, j, l, i) has 1, 2 or 4 members, all of the same value,
    as M and W are exactly symmetric; its least member (i, l, j, m) stands
    for it as x_ilj x_jmi, with the orbit size read from the 2x copy: x x,
    (2x) x or (2x)(2x). The pair (i, l), i <= l, stands for itself and
    (l, i) as M_il W_li = x_ili times -2 (i = l) or -4, and the b constant
    terms as 1 times 1. Read-only, kept for the life of the process, at
    every b (about 2 MB at b = 24).
    """
    cube = b**3
    i, l, j, m = np.indices((b,) * 4, dtype=np.int32).reshape(4, -1)
    code = np.arange(b**4, dtype=np.int32)  # of (i, l, j, m), in base b
    images = [((p * b + q) * b + r) * b + t for p, q, r, t in ((j, m, i, l), (l, i, m, j), (m, j, l, i))]
    least = (code <= images[0]) & (code <= images[1]) & (code <= images[2])
    fixed = [image[least] == code[least] for image in images]
    i, l, j, m = i[least], l[least], j[least], m[least]
    # The orbit has 4 members, 2 when one map fixes the tuple, and 1 when
    # two do (then all three do).
    pi, pl = np.triu_indices(b)
    one = np.full(b, 2 * cube)
    first = np.concatenate((i * b * b + l * b + j + cube * ~(fixed[0] & fixed[1]), pi * b * b + pl * b + pi, one))
    second = np.concatenate((j * b * b + m * b + i + cube * ~(fixed[0] | fixed[1] | fixed[2]), 2 * cube + 1 + (pi < pl), one))
    bits = (1 << np.arange(b)) >> 1  # index 0 has no bit
    bins = np.concatenate((bits[i] | bits[l] | bits[j] | bits[m], bits[pi] | bits[pl], bits))
    for part in (first, second, bins):
        part.setflags(write=False)
    return first, second, bins


def _trace_squares(a: np.ndarray, a_inv: np.ndarray, b: int):
    """tr(P_S^2) for P_S = M_SS W_SS - I, at every mask 2p + 1 of every block
    of a stack (rows of a and a_inv, the blocks of M and of W = M^-1), and
    the rounding allowance of each block's row.

    tr(P_S^2) = T4(S) - 2 T2(S) + |S|, with T4(S) the sum of M_il W_lj M_jm
    W_mi and T2(S) that of M_il W_li over indices in S. The terms are folded
    by their symmetry (``_screen_plan``): one per orbit, weighted exactly by
    its size, about b^4/4 in all, each two ``take``s from the block's b^3
    products x = M_il W_lj and one product. Only the S holding index 0 are
    read, so each term is binned by its support less index 0, in one
    ``np.bincount`` per stack, and a subset-sum (zeta) transform over the
    other b - 1 indices turns the bins into tr(P_S^2) for every such S at
    once: 2^(b-1) values per block, as many as the block has slots. Its low
    5 levels are one product with the 32 x 32 0/1 subset matrix from the
    right, levels 5-9 one with it from the left (a strided add per level
    costs more than the product), and each higher level adds contiguous
    blocks of 1024 values or more in place, so it stays O(b 2^b).

    A term takes at most 3 products, 14 additions in its bin (supports U and
    U | {0} share one: 9 + 6 orbits at |U| = 3, and 5 + 9 orbits and a pair
    at |U| = 2, the most of any), 31 in each product and b - 11 in the
    higher levels, so each value is off by at most gamma_(68+b) times the
    block's sum|terms| (fewer roundings below b = 11). The allowance takes
    (61 + b) eps, (122 + 2b) units of roundoff, at least 1.79 times that,
    which also covers gamma's denominator and the rounding of sum|terms|.
    That sum is formed without the terms, as tr((|M||W| + I)^2) (the
    4-tuple terms |M_il W_lj| |M_jm W_mi|, the pair terms |2 M_il W_li| and
    the b ones): a sum of nonnegative products, within about (b + 4) eps of
    the sum over the terms. Measured, the error stays under 0.3% of the
    allowance (every ``tests/test_conformality.py`` fuzz kind, b = 2-13).
    """
    n, cube = len(a), b**3
    m, w = a.reshape(n, b, b), a_inv.reshape(n, b, b)
    first, second, bins = _screen_plan(b)
    src = np.empty((n, 2 * cube + 3))
    np.multiply(m[:, :, :, None], w[:, None, :, :], out=src[:, :cube].reshape(n, b, b, b))
    np.multiply(src[:, :cube], 2.0, out=src[:, cube:-3])
    src[:, -3:] = 1.0, -2.0, -4.0
    terms = src.take(first, axis=1)
    terms *= src.take(second, axis=1)
    mw = np.abs(m) @ np.abs(w)
    mw += _identity(b)
    allow = (61 + b) * np.finfo(float).eps * np.einsum("nij,nji->n", mw, mw)[:, None]
    if n > 1:
        bins = (bins + (np.arange(n) << (b - 1))[:, None]).ravel()
    tr = np.bincount(bins, terms.ravel(), n << (b - 1))
    low = min(5, b - 1)
    mid = min(5, b - 1 - low)
    tr = tr.reshape(-1, 1 << low) @ SUBSETS[: 1 << low, : 1 << low]
    tr = (SUBSETS[: 1 << mid, : 1 << mid].T @ tr.reshape(-1, 1 << mid, 1 << low)).reshape(n, -1)
    for j in range(low + mid, b - 1):
        half = tr.reshape(n, -1, 2, 1 << j)
        half[:, :, 1] += half[:, :, 0]
    return tr, allow


def _screen(a: np.ndarray, a_inv: np.ndarray, b: int) -> np.ndarray:
    """Upper bounds on value^2 for every partition of every block of a stack,
    as ``_batched_rho_sq`` lays out its slots, from ``_trace_squares``: P_S
    has the eigenvalues mu - 1 >= 0 of M_SS W_SS (module docstring).
    """
    tr, allow = _trace_squares(a, a_inv, b)
    out = tr[:, :-1] + allow  # the last mask is all of C
    np.sqrt(out, out=out)
    np.divide(out, out + 1.0, out=out)  # r/(1 + r) = 1 - 1/(1 + r) >= value^2, r = sqrt(tr + allowance)
    return out.ravel()


def _batched_rho_sq(a: np.ndarray, a_inv: np.ndarray, delta: float) -> np.ndarray:
    """value(S)^2 for every partition mask of every block of a size stack,
    by the Schur identity, from the stack's (n, b, b) blocks a of M and
    a_inv of M^-1, (M^-1)_CC = (M_CC)^-1: one row per block, indexed by
    mask. A partition that cannot reach the tie window delta of the stack's
    maximum holds an upper bound on its value^2 instead.

    The ``_partition_plan`` of the block size b indexes those blocks, every
    block of the stack in one batch per smaller-side size. Partition mask p
    is the subset mask 2p + 1 of positions in a block (see
    ``_subset_rows``); the all-in mask 2^(b-1) - 1 is not a partition and is
    left out.

    Two upper bounds come before any eigensolve (module docstring). A block
    of b >= ``SCREEN_MIN_SIZE`` first fills every slot with its ``_screen``
    bound from tr(P_S^2), and the running best starts at the value^2 of the
    partition with the largest screen bound, solved alone (S the side
    holding index 0, which the scan itself solves on its smaller side; the
    two differ by rounding only). Then, group by group, only the partitions
    whose slot reaches best - 4 delta are gathered (all of them in a
    smaller block): ``_candidates`` takes, once per plan chunk, those that
    reach it at the chunk's start, a group without one costs nothing, and a
    group's candidates are compared again only when the best has risen
    since (it only rises, so this keeps exactly the partitions that reach
    it at the group's turn). From s = 3 on they take the tr(P^8) bound, as
    |tr(P^4 P^4)| (its terms are not squares, so rounding can take it below
    0), which refines the slot, and only those whose slot still reaches
    best - 4 delta are factored, form B and reach the batched ``eigvalsh``.
    The running best, across chunks and shared by the blocks of the stack,
    is the largest exact value met so far: a value some partition attains,
    never a bound. Every other partition lies more than 3 delta below the
    maximum, and so does the upper bound that fills its slot: rounding
    moves the bounds by far less than delta (measured: at most
    0.6 k eps cond(M), on near-diagonal inputs). Each stacked product,
    Cholesky and ``eigvalsh`` treats its matrices one at a time, so a live
    partition scores the bits it scores in the whole group. So the maximum
    and the slots within delta of it are those of eigensolving every
    partition, bit for bit; delta = inf eigensolves them all. B is held for
    one chunk at a time, the screen's table (2^(b-1) values per block) only
    until the scan starts.
    """
    n, k = a.shape[:2]
    count = (1 << (k - 1)) - 1
    # The stack's blocks of M and of M^-1 side by side, so that one take
    # gathers an S-block of both.
    both = np.array((a, a_inv)).reshape(2, n, k * k)
    flat_both = both.reshape(2, -1)
    screened = k >= SCREEN_MIN_SIZE
    if screened:
        out = _screen(*both, k)
        # One exact value, at the largest screen bound, starts the best.
        j, p = divmod(int(out.argmax()), count)
        pos = ((2 * p + 1) >> np.arange(k) & 1).nonzero()[0]
        m_ss, w_ss = flat_both.take(j * k * k + pos[:, None] * k + pos, axis=1)
        chol = np.linalg.cholesky(m_ss)
        best = 1.0 - 1.0 / float(np.linalg.eigvalsh(chol.T @ w_ss @ chol)[-1])
    else:
        out, best = np.empty(n * count), -np.inf
        # Block j of the stack reads its entries from row j of both and
        # writes its slots at offset j count.
        offsets = count * np.arange(n)[:, None]
    for chunk in (_partition_plan if count <= CAPS["partitions"] else _plan_chunks)(k):
        if screened:
            floor = best - 4.0 * delta
            groups = _candidates(out.reshape(n, count), chunk, floor)
        else:
            groups = ((pos, slots, None) for slots, pos in chunk)
        for pos, slots, j in groups:
            s = pos.shape[1]
            if screened:
                if best - 4.0 * delta > floor:
                    # The best has risen since the candidates were taken.
                    keep = (out[slots] >= best - 4.0 * delta).nonzero()[0]
                    if not len(keep):
                        continue
                    pos, slots, j = pos[keep], slots[keep], j[keep]
                rows = pos * k if n == 1 else pos * k + (j * (k * k))[:, None]
                both_ss = flat_both.take(rows[:, :, None] + pos[:, None, :], axis=1)
            else:
                slots = (offsets + slots).ravel()
                both_ss = both.take((pos * k)[:, :, None] + pos[:, None, :], axis=2).reshape(2, -1, s, s)
            if s > 2:
                # A 1 x 1 or 2 x 2 eigensolve costs about what its bound
                # does, so those groups are solved whole.
                e = both_ss[0] @ both_ss[1]
                e -= _identity(s)  # P = L E L^-1
                e = e @ e
                e = e @ e
                root = np.abs(np.einsum("nij,nji->n", e, e)) ** 0.125  # tr(P^8)^(1/8) = tr(E^8)^(1/8)
                bound = 1.0 - 1.0 / (1.0 + root)
                out[slots] = bound
                live = (bound >= best - 4.0 * delta).nonzero()[0]
                if not len(live):
                    continue
                slots, both_ss = slots[live], both_ss[:, live]
            m_ss, w_ss = both_ss
            chol = np.linalg.cholesky(m_ss)
            mu = np.linalg.eigvalsh(chol.transpose(0, 2, 1) @ w_ss @ chol)[:, -1]
            out[slots] = 1.0 - 1.0 / mu
            best = max(best, 1.0 - 1.0 / float(mu.max()))
    return out.reshape(n, count)


def _candidates(out: np.ndarray, chunk, floor: float):
    """The screened walk's groups of one plan chunk: per group, in scan order,
    that holds a slot of ``out`` (one row per block, every slot at its screen
    bound) reaching ``floor``, the positions, the slot and the block row of
    each such partition. A group's partitions may come in any order: each
    stacked product, Cholesky and ``eigvalsh`` treats its matrices one at a
    time.

    The chunk's candidates are found at once: one take of its slots in scan
    order, one compare and one ``nonzero``, then one ``searchsorted`` for
    where each group's candidates start. A group that holds none costs no
    array operation.
    """
    count = out.shape[1]
    scan = np.concatenate([slots for slots, _ in chunk])
    q, j = (out.take(scan, axis=1) >= floor).T.nonzero()
    starts = [0, *accumulate(len(slots) for slots, _ in chunk)]
    cuts = np.searchsorted(q, starts).tolist()
    slots = scan[q] + j * count
    for (_, pos), start, lo, hi in zip(chunk, starts, cuts, cuts[1:]):
        if lo < hi:
            yield pos[q[lo:hi] - start], slots[lo:hi], j[lo:hi]


def _rank_one_weights(a: np.ndarray):
    """w^2 = u^2 / d, one row per block of the (n, b, b) stack of blocks a,
    if every block passes the module docstring's test for D + u u^T;
    otherwise None. The minor M_01 M_23 = M_02 M_13 of the first block is
    checked first, on scalars, so a dense stack costs no array operation.
    """
    n, b = a.shape[:2]
    if b < 4:
        # Every 3 x 3 with a positive off-diagonal product fits D + u u^T.
        return None
    p, q = a.item(0, 0, 1) * a.item(0, 2, 3), a.item(0, 0, 2) * a.item(0, 1, 3)
    if not abs(p - q) <= 4.0 * RANK_ONE_RTOL * abs(p):
        return None
    with np.errstate(all="ignore"):
        # Non-finite fits (a zero or a negative ratio) fail the tests below.
        u0 = np.sqrt(a[:, 0, 1] * a[:, 0, 2] / a[:, 1, 2])
        u = a[:, 0] / u0[:, None]
        u[:, 0] = u0
        r = a - u[:, :, None] * u[:, None, :]
        d = np.diagonal(r, axis1=1, axis2=2)  # diag(M) - u^2
        fits = np.abs(r) <= RANK_ONE_RTOL * np.abs(a)
        fits.reshape(n, b * b)[:, :: b + 1] = d > 0
        if not (a.all() and fits.all()):
            return None
        return u * u / d


def _rank_one_rho_sq(w2: np.ndarray) -> np.ndarray:
    """value(S)^2 = a c / ((1 + a)(1 + c)) for every partition mask of every
    block of a stack of D + u u^T, from its rows of w^2 = u^2 / d, with a
    and c the sums of w^2 over S and over T, both read from one
    ``_subset_sums`` table. Rows and masks as in ``_batched_rho_sq``."""
    sums = _subset_sums(w2)
    # Mask 2p + 1 for S, and 2^b - 2 - 2p for its complement T.
    a, c = sums[:, 1:-2:2], sums[:, -2:0:-2]
    return a / (1.0 + a) * (c / (1.0 + c))


def _exact_weak(m: SpdMatrix, force: bool):
    """(rho, found) of exact weak conformality: one ranking call per
    size-stack slice (the closed form for a slice of D + u u^T blocks), then
    one ``_rescore`` call on the ranking's own output (the blocks and
    near-tie marks of each slice that holds a near tie), which scores every
    block's near ties again per size-stack slice, stacked by |S|, and
    returns them with the exact maxima it finds, each block C one of
    ``m.blocks``. A diagonal M has no block and gives (0.0, []). A block
    past the ``partitions`` cap raises unless ``force`` is set.
    """
    k = m.dim
    if k < 2:
        raise ValueError("weak conformality requires dimension >= 2")
    if m.is_diagonal:
        # Every M_ST is zero, so every partition scores exactly 0; no scan,
        # so no enumeration cap either.
        return 0.0, []
    largest = m.stacks[-1].shape[1]
    check_cap("partitions", 2 ** (largest - 1) - 1, f"weak conformality of a block of dimension {largest}", force)
    # Backward-stable Cholesky and eigensolvers on blocks of M and M^-1,
    # whose condition numbers are at most cond(M), put both the batched
    # value^2 and the one-by-one value^2 within a small multiple of
    # k * eps * cond(M) of the exact value (measured: they differ by at
    # most 0.9 times it on dense, ill-conditioned, near-diagonal, gadget
    # and block-diagonal inputs with k <= 12). Any partition the
    # one-by-one scan could rank first then lies within delta of the
    # batched maximum over all blocks (|C| <= k, cond(M_CC) <= cond(M)).
    delta = TIE_SAFETY * k * np.finfo(float).eps * m.condition
    # One ranking call per slice of a size stack: at most BATCH_CHUNK
    # partitions, as 2^(b-1) - 1 < 2^(b-1), or a single block of size b.
    # A slice of D + u u^T blocks takes the closed form; the blocks of M^-1
    # are formed, from the stack's eigenpairs, only for a stack with a
    # slice that does not.
    ranked = []
    for c, (a, lam, vecs) in zip(m.stacks, m._stacked):
        n, inverse = max(1, BATCH_CHUNK >> (c.shape[1] - 1)), None
        for at in (slice(lo, lo + n) for lo in range(0, len(c), n)):
            w2 = _rank_one_weights(a[at])
            if w2 is None and inverse is None:
                inverse = _block_inverses(lam, vecs)
            ranked.append((c[at], _rank_one_rho_sq(w2) if w2 is not None else _batched_rho_sq(a[at], inverse[at], delta)))
    top = max(rho_sq.max() for _, rho_sq in ranked)
    return _rescore(m.entries, [(c, hit) for c, rho_sq in ranked if (hit := rho_sq >= top - delta).any()])


def weak_conformality(m: SpdMatrix, *, force: bool = False) -> ConformalityResult:
    """Exact weak conformality over all support partitions.

    The batched Schur-complement scan, or the closed form for D + u u^T
    blocks, ranks the partitions of every block of the nonzero pattern (a
    connected M is one block), one ranking call per size stack of
    equal-size blocks, the near-ties of the top over all
    blocks are scored again in one pass (per size-stack slice, stacked by
    |S|, in block coordinates), and the witness is the smallest lift
    S | {i outside its block : i < max(S)} among the maxima: for a
    connected M the first S, as an exhaustive scan selects.
    The witness pair is built once, on the winning block C, and is zero
    outside it.

    A block past the ``partitions`` cap raises ``EnumerationCapError`` unless
    ``force`` is set; a diagonal M needs no scan and is never refused.
    """
    rho, found = _exact_weak(m, force)
    if not found:
        # A diagonal M has no winning block: its pair is that of S = {0} on
        # C = {0, 1}, scored once on M_CC, the only entries it reads.
        found = _rescore(np.diag(m._diagonal[:2]), [(np.array([[0, 1]]), np.ones((1, 1), dtype=bool))])[1]
    c, s, chol, u, z = _smallest_lift(found, m.dim)
    # Its lift: i <= max S and i not in T.
    outside_t = np.ones(m.dim, dtype=bool)
    outside_t[c[~s]] = False
    subset = tuple(np.flatnonzero(outside_t[: c[s][-1] + 1]).tolist())
    # The winner's top generalized eigenvector v = L^-T u: the one solve of
    # the call, with the bits of its row of a stacked solve.
    v = np.linalg.solve(chol.T, u)
    # The pair on the winning block's ``_times`` operand, and zero off it.
    x, y = np.zeros(m.dim), np.zeros(m.dim)
    x[c], y[c] = _witness_pair(m._operand[c] if m.is_diagonal else m.entries.take(c[:, None] * m.dim + c), s, v, z)
    return ConformalityResult(
        rho_strong=strong_conformality(m),
        rho_weak=rho,
        witness_partition=subset,
        witness_x=x,
        witness_y=y,
    )


def _smallest_lift(found, k: int):
    """The row (C, S, L, u, Z) of ``_rescore``'s exact maxima whose lift
    L(S) = {i <= max S : i not in T} is the smallest, with no lift formed.

    Two lifts first differ at the least index of T' = {t in T : t < max S}
    in one of them and not in the other, and the lift without it is the
    smaller; with no such index, the lift of the smaller max S is a prefix
    of the other. So the lifts order as the keys [k - t for t in T', t
    ascending] + [0, max S]: O(|C|) per maximum, where a lift is O(max S).
    """
    best = None
    for stack in found:
        for row, (c, s) in enumerate(zip(stack[0].tolist(), stack[1].tolist())):
            top = max(i for i, inside in zip(c, s) if inside)
            key = [k - i for i, inside in zip(c, s) if not inside and i < top] + [0, top]
            if best is None or key < best[0]:
                best = key, stack, row
    _, stack, row = best
    return tuple(part[row] for part in stack)


def _witness_pair(a: np.ndarray, s: np.ndarray, v: np.ndarray, z: np.ndarray):
    """Maximizing pair for the support partition (S, T) of a block of M, for
    the block's ``_times`` operand a (its entries, or its diagonal for a
    diagonal M), S marked by the membership row s, from its top generalized
    eigenvector v on S and the Z = M_TT^-1 M_TS that ``_partition_value``
    scored it with.

    x is v on S, with its largest-magnitude entry positive; the optimal
    partner on T is y = Z v, or e_0 on T when Z v is exactly zero. Both are
    returned with unit M-norm and a sign making the correlation
    nonnegative. ``_quad`` takes the norms of a diagonal operand as
    (x * x) @ diag(M): the general ((x @ M) * x) rounds (v M_00) v, not
    (v v) M_00, and it moved the pair's bits on 53 of 300 random diagonal
    inputs (k = 2-13).
    """
    v = _fix_signs(v)
    y_t = z @ v
    top, exp = np.frexp(np.abs(y_t).max(initial=0.0))
    if top == 0.0:
        # Decoupled blocks (rho = 0): any vector on the complement works.
        y_t = np.eye(len(y_t))[0]
    x, y = np.zeros(len(s)), np.zeros(len(s))
    # Scaling by 2^-exp is exact, so the normalized y keeps its bits, and
    # its M-norm neither under- nor overflows however weak the coupling.
    x[s], y[~s] = v, np.ldexp(y_t, -exp)
    x = x / np.sqrt(_quad(a, x))
    y = y / np.sqrt(_quad(a, y))
    if float(_times(a, x, right=True) @ y) < 0.0:
        y = -y
    return x, y


def weak_conformality_value(m: SpdMatrix, *, force: bool = False) -> float:
    """Weak conformality as a bare number, with the vacuous 1-d case as 0.

    A one-dimensional space admits no disjoint-support pair, so the least
    valid rho is 0; theorem verifiers use this form for their correction
    factors. The value is the winning scan score, equal to
    ``weak_conformality(m).rho_weak``; no witness pair is built.
    """
    if m.dim < 2:
        return 0.0
    return _exact_weak(m, force)[0]


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
    num = np.abs(np.einsum("ti,ti->t", _times(m._operand, x, right=True), y))
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
    measured_w = weak_conformality_value(m)
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
    rho = weak_conformality_value(m, force=force)
    lo_factor = (1.0 - rho) / (1.0 + rho)
    hi_factor = (1.0 + rho) / (1.0 - rho)
    quad = m.quad(x)
    abs_quad = m.quad(np.abs(x))
    diag_quad = _quad(m._diagonal, x)
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
    inv = m._inverted()
    rho_s = strong_conformality(m)
    rho_s_inv = strong_conformality(inv)
    rho_w = weak_conformality_value(m, force=force)
    rho_w_inv = weak_conformality_value(inv, force=force)
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
