"""Cut statistics, conductance, and isoperimetric theorem checks.

All volumes and edge masses are measured in the supplied inner products:
Vol(X, Y) = 1_X^T M_V 1_Y and e(X, Y) = 1_{E(X,Y)}^T M_E 1_{E(X,Y)}, where
E(X, Y) is the plain set of edges with one endpoint in X and the other in
Y (edges inside X intersect Y count once). The correlation
Cor(X, Y) = Vol(X,Y) Vol(Xc,Yc) - Vol(X,Yc) Vol(Xc,Y) replaces the product
Vol(X) Vol(Xc) once the vertex inner product has off-diagonal mass.

Conductance and S-local conductance share one exhaustive scan, ``_cut_scan``,
over the vertex sets X inside a column set C (for conductance C = V with
vertex 0 pinned into X). Each cut has three masses: e(X, Xc), Vol(X), and
Vol(C - X) = total - 2 1_X^T r + Vol(X). The scan keeps the minimum of
e / min(Vol(X), Vol(C - X)), and its witness is the lexicographically
smallest vertex set attaining the minimum exactly.

Split identity. The columns split into a low half L, which holds the pinned
column, and a high half H, so a membership vector is x = x_L + x_H. Let the
0/1 indicator of some items be c = p(x_H) + q(x_H) * lam(x_L). Then
c^T M c = p^T M p + 2 (q * M p)^T lam + sum_{e,f} q_e q_f M_ef lam_e lam_f.
- For the volume the items are vertices: in H, p = x_h and q = 0; in L,
  p = 0, q = 1 and lam = x_l.
- For the edge mass the items are edges: an HH edge has p = its cut bit and
  q = 0; an LL edge has p = 0, q = 1 and lam = its cut bit; a crossing
  edge (h, l) has p = x_h, q = 1 - 2 x_h and lam = x_l.
q_e q_f depends on x_H only through the signs 1 - 2 x_h of the edges' high
ends. Grouping the edges by high end therefore leaves at most
1 + |H| + |H|(|H| - 1)/2 features, and pairs of groups that M does not
couple add none, so a diagonal M_E adds none at all. Each mass is then
table[x_L] + F[x_H] @ G[:, x_L] (``_split_forms``), and every G row is read
off the graph: the constant (which the pinned vertex and its crossing edges
share), x_l per low vertex (shared by the crossing edges at l), x_u xor x_v
per LL edge, and 2 W per coupled pair of groups, a segment sum over the
edges of each group. A row is kept only where its F is not identically
zero. The products M p go through ``linalg._times`` on M's operand, so a
diagonal M is a scaling there; the low rows' cut bits are formed once, for
the table and the G rows. A tile of at most CUT_CHUNK cuts, high masks by
low masks, costs three GEMMs.

Recheck rule, one for both paths. Below SPLIT_MIN_BITS free columns H is
empty, and the scan is one batch of ``_low_masses`` over every cut; above
it the split tiles score the cuts. If both inner products are integral
(``SpdMatrix.is_integral``), every mass on either path is an exact integer,
so phi and the witness come straight from the scan's own values, and the
split path keeps only the cuts at its minimum (window factor 1). Otherwise
rounding depends on a cut's place in its batch or tile and on how BLAS
splits the work, so the cuts whose value lies within the ``_widening``
factor of the minimum are re-scored by ``_cut_masses``. That factor is a
rounding bound built from sum|M|, lambda_min(M) and the length of each
evaluation's chains of additions. ``_cut_masses`` sums each row's terms left
to right, whatever the rows beside it, and the minimum and the witness come
from its values alone. Either way ``phi`` and the witness agree with the
conductance table at every size.

Memory. The tables hold 2^|L| and 2^|H| rows, about 2^(n/2) each, with a
feature per low vertex, per LL edge and per coupled pair of edge groups at
most; the split forms add arrays of high rows by items, and a diagonal M
forms no m x m array there. The three tile arrays hold CUT_CHUNK values and
are reused from tile to tile. Memory thus grows with the square root of the
number of cuts; only the optional conductance table grows with the number
itself.

The expander-mixing pair sweep ``verify_eml_batch`` reads the linear part
of each pair's left-hand side from one vertex form over subset masks, by
three identities: tau Cor(X, Y)/Vol(G) is bilinear, with form
tau (M_V - r r^T/Vol(G)) for r = M_V 1; an edge with no off-diagonal M_E
entry adds w_e (X_u Y_v + X_v Y_u), its cut bit plus its inner bit; and
the point mass is -diag(d). Edges that M_E couples are added from
code-word tables. Pairs with X or Y = {}, or = V for a diagonal M_E, pass
by identity. Each orbit of the margin under swapping X and Y (and, for a
diagonal M_E, complementing either) is scored once, at its first pair in
(X mask, Y mask) order, and the witness is the first scored pair whose
margin equals the minimum.

The verifiers read the graph's stored incidence through
``laplacian._incidence_of``, which refuses inner products that do not fit
the graph, and the Laplacian's eigenvalues only, through
``laplacian._laplacian_eigenvalues``: the ``eigh`` of ``semi_hodge`` bit for
bit, on the matrix of ``laplacian._semi_hodge_matrix`` (the one builder of
the Laplacian, which ``inner_product_laplacian`` and the Neumann
epsilon-sweep call too), without its eigenvectors. Omega is the max of the
per-vertex ratios, whose numerators e({a}, ac) are the point masses of the
mixing bound. The two mixing verifiers take their shared inputs (refusals,
spectrum, rho_E, Vol(G), trace term, point masses) from one prelude,
``_mixing_inputs``, which reads tr(M_E) off M_E's diagonal, so that a
diagonal M_E is never formed densely; ``verify_cheeger`` shares its own with
the radius bound through ``laplacian._bound_inputs``. ``verify_eml`` reads
e(X cap Y) as ``CutStats.e_intersection``, from the masks that ``cut_stats``
builds for X and Y; ``cut_stats`` applies M_V through ``linalg._times``.
``verify_cheeger`` allows for the rounding of its two comparisons relative
to what they compare: eigh's backward error, n eps lambda_max, plus 64 eps
of lower + upper for the products that form the bounds. The radius and mixing verifiers allow 1e-9 plus eigh's
backward error as it reaches their margins: n eps lambda_max on the
radius, and on a mixing margin, which reads lambda_n and lambda_2 through
tau and the gap, n eps lambda_n (|Cor(X,Y)| + sqrt(Cor(X) Cor(Y)))/Vol(G).
The sweep takes 2 n eps lambda_n max_X Cor(X)/Vol(G) for every pair: as
Vol(G) M_V - r r^T is positive semidefinite, |Cor(X,Y)| <=
sqrt(Cor(X) Cor(Y)).

One range rule holds for the four verifiers and ``conductance``, in
``laplacian._unit_scaled`` and ``laplacian._rescaled``. An inner product
whose lambda_max lies outside [2^-200, 2^200) is divided by a power of 4,
which is exact; each verifier computes and decides on that pair, and
multiplies each value it reports back by its units' power of 2, exactly.
Inside the window nothing is scaled, and no value leaves the range of a
double. The one refusal is of a reported value whose true size lies
outside that range, naming it.

Every vertex set a caller passes (X and Y of ``cut_stats`` and
``verify_eml``, the Dirichlet, Neumann and local-conductance subsets) is
sorted and refused in one place, ``_vertex_set``.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .complexes import Graph, graph_incidence
from .conformality import _first_set, _subset_rows, _subset_sums, weak_conformality_value
from .errors import check_cap
from .laplacian import (
    _bound_inputs,
    _classical_inner_products,
    _incidence_of,
    _laplacian_eigenvalues,
    _rescaled,
    _semi_hodge_matrix,
    _spectrum,
    _unit_scaled,
    _vertex_masses,
    check_graph_inner_products,
)
from .linalg import ZERO_RTOL, SpdMatrix, _fix_signs, _quad, _times, gen_eig, sym_eig
from .report import VerificationReport, to_plain

# Cuts per tile of a cut scan, and pairs per X chunk of the pair sweep (at
# least one row); bounds their temporaries.
CUT_CHUNK = 1 << 14
# Free membership bits from which a cut scan splits its columns into two
# halves of balanced size; below it the split costs more than it saves
# (measured crossover: n = 11 to 12 for conductance, |S| = 10 to 11 for
# the local conductance).
SPLIT_MIN_BITS = 11
DEFAULT_EPSILON_SCHEDULE = tuple(10.0**-k for k in range(1, 9))


def normalized_inner_products(g: Graph) -> tuple[SpdMatrix, SpdMatrix]:
    """Degree diagonal on vertices, identity on edges (the default pair)."""
    return _classical_inner_products("normalized", g)


def _vertex_set(n: int, subset, least: int = 0) -> list[int]:
    """``subset`` sorted, without repeats, or a ValueError: for a vertex
    outside 0..n-1 (naming it), then for fewer than ``least`` (0, 1 or 2)
    vertices. The one check of every vertex set a caller passes."""
    s = sorted(set(subset))
    if s and (s[0] < 0 or s[-1] >= n):
        raise ValueError(f"vertex index {s[0] if s[0] < 0 else s[-1]} out of range 0..{n - 1}")
    if len(s) < least:
        raise ValueError(f"the subset needs at least {('', 'one vertex', 'two vertices')[least]}")
    return s


def _indicator(n: int, subset) -> np.ndarray:
    x = np.zeros(n)
    x[_vertex_set(n, subset)] = 1.0
    return x


def _edge_mask(g: Graph, in_x: np.ndarray, in_y: np.ndarray) -> np.ndarray:
    """0/1 vector of edges with one endpoint in X and the other in Y."""
    u, v = g.ends
    xu, xv = in_x[u] > 0, in_x[v] > 0
    yu, yv = in_y[u] > 0, in_y[v] > 0
    return ((xu & yv) | (xv & yu)).astype(float)


@dataclass
class CutStats:
    vol_x: float
    vol_y: float
    vol_x_comp: float
    vol_y_comp: float
    vol_xy: float
    cor_xy: float
    cor_x: float
    cor_y: float
    e_xy: float
    e_x: float
    e_y: float
    e_intersection: float
    boundary_edges: tuple

    def to_dict(self) -> dict:
        return to_plain(asdict(self))


def cut_stats(g: Graph, m_v: SpdMatrix, m_e: SpdMatrix, x_set, y_set) -> CutStats:
    check_graph_inner_products(g, m_v, m_e)
    n = g.n
    mv = m_v._operand
    x = _indicator(n, x_set)
    y = _indicator(n, y_set)
    xc, yc = 1.0 - x, 1.0 - y

    def vol(a, b):
        return float(_times(mv, a, right=True) @ b)

    def cor(a, b):
        return vol(a, b) * vol(1 - a, 1 - b) - vol(a, 1 - b) * vol(1 - a, b)

    mask_xy = _edge_mask(g, x, y)
    mask_xx = _edge_mask(g, x, x)
    mask_yy = _edge_mask(g, y, y)
    boundary = tuple(g.edges[i] for i in np.flatnonzero(mask_xy))
    return CutStats(
        vol_x=vol(x, x),
        vol_y=vol(y, y),
        vol_x_comp=vol(xc, xc),
        vol_y_comp=vol(yc, yc),
        vol_xy=vol(x, y),
        cor_xy=cor(x, y),
        cor_x=cor(x, x),
        cor_y=cor(y, y),
        e_xy=m_e.quad(mask_xy),
        e_x=m_e.quad(mask_xx),
        e_y=m_e.quad(mask_yy),
        # An edge lies inside X cap Y exactly when it lies inside X and Y.
        e_intersection=m_e.quad(mask_xx * mask_yy),
        boundary_edges=boundary,
    )


def _row_sums(a: np.ndarray) -> np.ndarray:
    return np.cumsum(a, axis=1, out=a)[:, -1]


def _complement_terms(mv: np.ndarray, cols) -> tuple[float, np.ndarray]:
    """total = 1_C^T M_V 1_C and r = M_V 1_C over the scanned columns C (all
    vertices for None), so that Vol(C - X) = total - 2 1_X^T r + Vol(X) for
    X inside C."""
    sel = slice(None) if cols is None else cols
    by_col = mv[:, sel]
    return float(np.sum(by_col[sel])), by_col.sum(axis=1)


def _cut_masses(rows: np.ndarray, g: Graph, mv: np.ndarray, me: np.ndarray, total: float, r: np.ndarray) -> np.ndarray:
    """The reference (e_cut, vol, vol_comp) of each membership row, shape 3 x rows.

    vol = 1_X^T M_V 1_X, vol_comp = total - 2 1_X^T r + vol with the
    ``_complement_terms``, and e_cut = c^T M_E c for the cut indicator c.
    Each row's sums run left to right over the nonzero entries in row-major
    order (a cumulative sum: numpy's ``sum`` picks its order by the array's
    shape), so a row's values do not depend on the rows beside it.
    """
    u, v = g.ends
    iv, jv = np.nonzero(mv)
    ie, je = np.nonzero(me)
    # Rows per pass, so a pass holds at most 16 CUT_CHUNK terms.
    step = max(1, CUT_CHUNK * 16 // (len(iv) + len(ie)))
    out = np.empty((3, len(rows)))
    for lo in range(0, len(rows), step):
        x = rows[lo : lo + step]
        c = x[:, u] != x[:, v]
        vol = _row_sums(np.where(x[:, iv] & x[:, jv], mv[iv, jv], 0.0))
        out[0, lo : lo + step] = _row_sums(np.where(c[:, ie] & c[:, je], me[ie, je], 0.0))
        out[1, lo : lo + step] = vol
        out[2, lo : lo + step] = total - 2.0 * _row_sums(np.where(x, r, 0.0)) + vol
    return out


def _low_masses(g: Graph, m_v: SpdMatrix, m_e: SpdMatrix, low: np.ndarray, total: float, r: np.ndarray):
    """(e_cut, vol, vol_comp) of every membership row of ``low`` in one
    batch, the reference formulas of ``_cut_masses`` as BLAS products, and
    the rows' cut bits, which the G rows of ``_split_forms`` read too."""
    u, v = g.ends
    x = low.astype(float)
    cut = low[:, u] != low[:, v]
    vol = m_v.quad(x)
    return m_e.quad(cut), vol, total - 2.0 * (x @ r) + vol, cut


def _split_forms(g: Graph, m_v: SpdMatrix, m_e: SpdMatrix, low: np.ndarray, high: np.ndarray, tables, r):
    """Pairs (F, G) for e_cut, vol and vol_comp: F[i] @ G[:, j] is the mass
    of the cut whose membership row is high[i] | low[j].

    The rows low hold the low half L, the rows high the high half H, with
    high[0] empty; ``tables`` are the ``_low_masses`` of the low rows, folded
    in as the last feature, and their cut bits. Every other G row is read
    off the graph, as a column of one array: the constant, x_l for a low
    vertex l, or x_u xor x_v for an LL edge (u, v). A low vertex set in
    every low row (the pinned one) reads the constant, and an edge with one
    low end l, crossing or leaving the columns, reads x_l. A row's F sums
    2 q_e (M p)_e over the items that read it, so a row is kept only where
    some item's (M p) is nonzero on some high row (a dropped row's F is
    exactly zero); the constant's F also takes p^T M p (vol_comp: and
    -2 1_X^T r on H). M enters through ``_times`` on its operand, so a
    diagonal M is a scaling and forms no dense array. Each pair of edge
    groups i < j that M_E couples adds F = sigma_i sigma_j - 1 and
    G = 2 W_ij, summed over the items of group i from the products of M_E
    with lam on the items of group j, one pass per group j.
    """
    n, (u, v) = g.n, g.ends
    # Rows in mask order: low[0] holds the columns set in every low row, and
    # low[-1] and high[-1] hold every column of their half.
    in_low, in_high = low[-1], high[-1]
    (low_u, low_v), (high_u, high_v) = in_low[g.ends], in_high[g.ends]
    key_v = np.where(low[0], 0, 1 + np.arange(n))
    key_e = np.where(low_u & low_v, 1 + n + np.arange(len(u)), key_v[np.where(low_u, u, v)])
    lin, has_high = low_u | low_v, high_u | high_v
    # Edge groups: 0 with no high end, else 1 + the high end h, whose items
    # have q = sigma_h = 1 - 2 x_h, that is 1 - 2 p for an edge with a low end.
    group = np.where(has_high, 1 + np.where(high_u, u, v), 0)
    member = ((group == np.arange(n + 1)[:, None]) & lin).astype(float)
    p_v = high.astype(float)
    p_e = (high[:, u] != high[:, v]).astype(float)
    # The pairs i < j of groups that M_E couples, in order of j.
    j, i = np.nonzero(np.tril(member @ _times(np.abs(m_e._operand), member.T), -1))
    # The G row of each key, as a column: the constant, then x_v per vertex,
    # then the low cut bit per edge.
    rows = np.concatenate([np.ones((len(low), 1), bool), low, tables[3]], axis=1)
    forms = []
    for m, p, q, key, read, extra, table in (
        (m_e, p_e, 1.0 - 2.0 * p_e, key_e, lin, len(i), tables[0]),
        (m_v, p_v, 1.0, key_v, in_low, 0, tables[1]),
    ):
        ap = _times(m._operand, p, right=True)
        # The items with a G row: those whose (M p) is nonzero on some high row.
        act = read & ap.any(axis=0)
        used = np.zeros(rows.shape[1], bool)
        used[key[act]] = used[0] = True
        keys = used.nonzero()[0]
        f, gl = np.empty((len(high), len(keys) + extra + 1)), np.empty((len(keys) + extra + 1, len(low)))
        np.matmul(q * ap, 2.0 * ((key[:, None] == keys) & act[:, None]), out=f[:, : len(keys)])
        f[:, 0] += np.einsum("ij,ij->i", ap, p)
        f[:, -1], gl[: len(keys)], gl[-1] = 1.0, rows[:, keys].T, table
        forms.append((f, gl))
    (f_e, g_e), (f_v, g_v) = forms
    if len(i):
        # sigma_i sigma_j - 1 = -2 (x_i xor x_j), x_0 = 0 for group 0.
        k = f_e.shape[1] - len(i) - 1
        f_e[:, k:-1] = -2.0 * ((high[:, i - 1] & (i > 0)) != high[:, j - 1])
        # The items with a low end, by group, and their lam rows.
        item_group, items = np.nonzero(member)
        a, twice = m_e.entries[items][:, items], 2.0 * member[i][:, items]
        lam = rows[:, key_e[items]].T.astype(float)
        # Group c holds the items b[c]:b[c + 1] and the pairs at[c]:at[c + 1].
        b, at = (np.searchsorted(x, np.arange(n + 2)).tolist() for x in (item_group, j))
        for c in sorted(set(j.tolist())):
            # 2 W_ic sums 2 lam_f y_f over the f of group i < c, y the sum
            # of M_fe lam_e over the e of group c.
            y = a[: b[c], b[c] : b[c + 1]] @ lam[b[c] : b[c + 1]]
            y *= lam[: b[c]]
            np.matmul(twice[at[c] : at[c + 1], : b[c]], y, out=g_e[k + at[c] : k + at[c + 1]])
    f_c, g_c = f_v.copy(), g_v.copy()
    f_c[:, 0], g_c[-1] = f_c[:, 0] - 2.0 * (p_v @ r), tables[2]
    return [(f_e, g_e), (f_v, g_v), (f_c, g_c)]


def _widening(m_e: SpdMatrix, m_v: SpdMatrix, k_e: int, k_v: int) -> float:
    """Rounding window of a split scan with k_e and k_v features, as a factor
    on the least split value.

    Each value of a mass, split or reference, adds signed multiples of the
    entries of M (at most 9 of each, counted over all the terms) in chains of
    at most N = K + nnz + 3 dim additions, so it is off by at most
    6 N eps sum|M|. A split value adds its K features' products F G, each
    exact or one rounding of exact factors, and each factor chains at most
    nnz + 3 dim: a table value (``_low_masses``) nnz + 2 dim + 2 (vol_comp:
    the total over nnz entries, 2 x^T r and vol); an F 2 dim + 2 (M p, one
    product per entry for a diagonal M, its sum over the items of a row or
    with p, and -2 p^T r); a 2 W 2 dim (M lam over one group, then 2 lam
    over the other); G's 0/1 rows and F's sigma_i sigma_j - 1 are exact. A
    reference value chains nnz + 2 dim + 2. sum|M| and nnz are read off M's
    ``_times`` operand (a diagonal's d).
    A cut has e >= lambda_min(M_E) and min(vol, vol_comp) >= lambda_min(M_V),
    so both of its values lie within [lo, hi] times its exact ratio, and a
    cut whose reference value is least has a split value within (hi/lo)^2 of
    the least split value.
    """
    eps = np.finfo(float).eps
    rel = []
    for m, k in ((m_e, k_e), (m_v, k_v)):
        a = np.abs(m._operand)
        lam_lo = m.eigenvalues[0] - m.dim * eps * m.eigenvalues[-1]
        rel.append(6.0 * eps * (k + np.count_nonzero(a) + 3 * m.dim) * float(a.sum()) / lam_lo)
    if max(rel) >= 1.0:  # no bound: every cut is a candidate
        return np.inf
    hi = (1.0 + rel[0]) * (1.0 + eps) / (1.0 - rel[1])
    lo = (1.0 - rel[0]) * (1.0 - eps) / (1.0 + rel[1])
    return (hi / lo) ** 2


def _split_candidates(forms, widen: float, lo_masks: np.ndarray, hi_masks: np.ndarray, pinned: bool):
    """(masks, values) of every cut whose split value lies within the factor
    ``widen`` of the least one, scored in tiles of at most CUT_CHUNK cuts
    (high masks x low masks) by three GEMMs over the ``_split_forms``, under
    the errstate of ``_cut_scan``, its one caller."""
    # Square tiles, so the slice of G a tile reads stays in cache: at n = 24
    # with a dense M_E, tiles one low table wide took 1.8x as long.
    cols_t = min(len(lo_masks), 1 << (CUT_CHUNK.bit_length() // 2))
    rows_t = max(1, CUT_CHUNK // cols_t)
    buf = np.empty((3, rows_t * cols_t))
    best, limit = np.inf, np.inf
    found = []
    for r0 in range(0, len(hi_masks), rows_t):
        for c0 in range(0, len(lo_masks), cols_t):
            rs, cs = slice(r0, r0 + rows_t), slice(c0, c0 + cols_t)
            shape = (len(hi_masks[rs]), len(lo_masks[cs]))
            e, vol, comp = (
                np.matmul(f[rs], gl[:, cs], out=out[: shape[0] * shape[1]].reshape(shape))
                for (f, gl), out in zip(forms, buf)
            )
            phi = np.divide(e, np.minimum(vol, comp, out=vol), out=e)
            # The empty set (unpinned scans) and C itself are no cuts.
            if not pinned and r0 == c0 == 0:
                phi[0, 0] = np.inf
            if r0 + shape[0] == len(hi_masks) and c0 + shape[1] == len(lo_masks):
                phi[-1, -1] = np.inf
            low_phi = phi.min()
            if low_phi > limit:
                continue
            best = min(best, low_phi)
            # An unbounded window takes every cut, and no window takes a
            # cut whose value overflows (C itself excluded).
            limit = min(best * widen, np.finfo(float).max) if widen < np.inf else np.finfo(float).max
            i, j = np.nonzero(phi <= limit)
            found.append((hi_masks[r0 + i] | lo_masks[c0 + j], phi[i, j]))
    masks, values = (np.concatenate(a) for a in zip(*found))
    return masks[values <= limit], values[values <= limit]


# The split tiles score the empty set (unpinned scans) and C itself, 0/0 and
# e/0, before they drop them: numpy's warnings would add nothing.
@np.errstate(divide="ignore", invalid="ignore")
def _cut_scan(g: Graph, m_v: SpdMatrix, m_e: SpdMatrix, cols, pinned: bool):
    """Minimum of e(X, Xc) / min(Vol(X), Vol(C - X)) over the vertex sets X
    with 0 < X < C, C the columns ``cols`` (all vertices for None); with
    ``pinned`` only the sets holding the first column.

    Returns (minimum, witness), the witness being the lexicographically
    smallest vertex set attaining the minimum exactly. The first columns
    form the low half L and the rest the high half H, which is empty below
    SPLIT_MIN_BITS free columns. Without a high half every cut is one row
    of ``_low_masses``, one batch; otherwise ``_split_candidates`` scores
    the cuts in tiles. One rule decides on both paths when a value is
    final: if both inner products are integral (``SpdMatrix.is_integral``)
    every value is exact, so the minimum and the witness come from the
    scan's own values; otherwise ``_cut_masses`` re-scores the cuts within
    the ``_widening`` factor of the minimum. Either way the result depends
    neither on the tiles nor on how BLAS splits its work, and equals the
    minimum of the conductance table.
    """
    n = g.n
    k = n if cols is None else len(cols)
    free = k - pinned
    b = k - (free // 2 if free >= SPLIT_MIN_BITS else 0)
    lo_masks = np.arange(int(pinned), 1 << b, 1 + int(pinned))
    low = _subset_rows(lo_masks, n, cols)
    total, r = _complement_terms(m_v.entries, cols)
    tables = _low_masses(g, m_v, m_e, low, total, r)
    exact = m_v.is_integral and m_e.is_integral
    if b < k:
        hi_masks = np.arange(1 << (k - b)) << b
        forms = _split_forms(g, m_v, m_e, low, _subset_rows(hi_masks, n, cols), tables, r)
        widen = 1.0 if exact else _widening(m_e, m_v, forms[0][0].shape[1], forms[2][0].shape[1])
        masks, phi = _split_candidates(forms, widen, lo_masks, hi_masks, pinned)
        rows = _subset_rows(masks, n, cols)
    else:
        # The empty set (unpinned scans) and C itself are no cuts.
        rows = low[1 - pinned : -1]
        phi = tables[0][1 - pinned : -1] / np.minimum(tables[1], tables[2])[1 - pinned : -1]
        widen = 1.0 if exact else _widening(m_e, m_v, 0, 0)
    if not exact:
        # The split candidates already lie in this window.
        rows = rows[phi <= phi.min() * widen]
        e, vol, comp = _cut_masses(rows, g, m_v.entries, m_e.entries, total, r)
        phi = e / np.minimum(vol, comp)
    best = phi.min()
    ties = rows[phi == best]
    return float(best), tuple(np.flatnonzero(ties[_first_set(ties)]).tolist())


def _first_union(components) -> tuple[int, ...]:
    """The lexicographically smallest proper union of ``components`` (sorted
    by first vertex) that holds vertex 0.

    While the union holds a vertex above the next component's first vertex,
    taking that component in puts its first vertex ahead of the larger one,
    so it sorts first; the last component is never taken, as the union would
    be V. Once the union ends below the next first vertex, it sorts first as
    a proper prefix of every larger union."""
    union = set(components[0])
    for comp in components[1:-1]:
        if comp[0] > max(union):
            break
        union.update(comp)
    return tuple(sorted(union))


def conductance(
    g: Graph,
    m_v: SpdMatrix | None = None,
    m_e: SpdMatrix | None = None,
    *,
    force: bool = False,
    include_table: bool = False,
):
    """Exact inner product conductance by exhaustive cut enumeration.

    Returns (phi, witness, table); the witness is the lexicographically
    smallest vertex set achieving the minimum of
    e(S, Sc) / min(Vol(S), Vol(Sc)). A disconnected graph has phi = 0, and
    its zero cuts are the proper unions of components holding vertex 0, so
    the witness follows from the components without a scan. The table lists
    every cut holding vertex 0 in mask order, with its ``_cut_masses`` values.
    """
    if m_v is None or m_e is None:
        dv, de = normalized_inner_products(g)
        m_v = m_v if m_v is not None else dv
        m_e = m_e if m_e is not None else de
    # A graph of fewer than two vertices has no edge: the default M_E is
    # refused above, and a given one (dimension >= 1) here.
    check_graph_inner_products(g, m_v, m_e)
    n = g.n
    check_cap("cuts", 2 ** (n - 1) - 1, f"conductance of {n} vertices", force)
    if include_table:
        check_cap("rows", 2 ** (n - 1) - 1, f"the conductance table of {n} vertices", force)
    m_v, m_e, sv, se = _unit_scaled(m_v, m_e)
    components = g.components
    if len(components) == 1:
        phi, witness = _cut_scan(g, m_v, m_e, None, pinned=True)
    else:
        phi, witness = 0.0, _first_union(components)
    phi = _rescaled(se - sv, phi=phi)["phi"]
    if not include_table:
        return phi, witness, None
    total, r = _complement_terms(m_v.entries, None)
    table: list = []
    # Odd masks pin vertex 0 into S; the all-vertices mask 2^n - 1 is left out.
    for lo in range(1, (1 << n) - 1, 2 * CUT_CHUNK):
        rows = _subset_rows(np.arange(lo, min(lo + 2 * CUT_CHUNK, (1 << n) - 1), 2), n)
        e, vol, comp = _cut_masses(rows, g, m_v.entries, m_e.entries, total, r)
        cols = _rescaled(se, e_cut=e), _rescaled(sv, vol=vol, vol_comp=comp), _rescaled(se - sv, phi=e / np.minimum(vol, comp))
        table.extend(
            {"subset": np.flatnonzero(row).tolist(), "e_cut": ec, "vol": vs, "vol_comp": vc, "phi": p}
            for row, ec, vs, vc, p in zip(rows, *(c.tolist() for col in cols for c in col.values()))
        )
    return phi, witness, table


def verify_cheeger(
    g: Graph,
    m_v: SpdMatrix,
    m_e: SpdMatrix,
    *,
    force: bool = False,
) -> VerificationReport:
    """Two-sided Cheeger bound for the inner product Laplacian.

    ((1-rho_V)/(1+rho_V))^7 ((1-rho_E)/(1+rho_E))^4 Phi^2/(2 omega)
        <= lambda_2 <= 2/(1-rho_V) * (1+rho_E)/(1-rho_E) * Phi,

    each side within eps (n lambda_max + 64 (lower + upper)), the rounding
    of the comparison, so no scaling of M_V or M_E moves the verdict. The
    bounds are formed on the pair of ``laplacian._unit_scaled``, so Phi^2
    is a double even where the reported Phi is near the top of the range;
    a reported value past that range is refused by ``_rescaled``, naming it.
    The power ``phi**2`` stays as written: ``phi * phi`` rounds differently
    on some doubles.
    """
    if not g.is_connected():
        raise ValueError("the Cheeger bound is stated for connected graphs")
    m_v, m_e, sv, se = _unit_scaled(m_v, m_e)
    phi, witness, _ = conductance(g, m_v, m_e, force=force)
    _, vals, rho_v, rho_e, omega = _bound_inputs(g, m_v, m_e, force)
    lam2 = float(vals[1])
    lower = ((1 - rho_v) / (1 + rho_v)) ** 7 * ((1 - rho_e) / (1 + rho_e)) ** 4 * phi**2 / (2 * omega)
    upper = 2.0 / (1 - rho_v) * (1 + rho_e) / (1 - rho_e) * phi
    slack = np.finfo(float).eps * (g.n * float(vals[-1]) + 64 * (lower + upper))
    return VerificationReport(
        check="cheeger",
        passed=bool(lower <= lam2 + slack and lam2 <= upper + slack),
        values={
            **_rescaled(se - sv, phi=phi),
            "witness_S": [int(s) for s in witness],
            **_rescaled(se - sv, lambda_2=lam2),
            "rho_v": rho_v,
            "rho_e": rho_e,
            **_rescaled(se - sv, omega=omega, lower=lower, upper=upper, lower_margin=lam2 - lower, upper_margin=upper - lam2),
        },
    )


def _mixing_inputs(g: Graph, m_v: SpdMatrix, m_e: SpdMatrix, force: bool, rho_e: float | None = None):
    """What both mixing verifiers read, refused in this order: the
    connectivity check, a given ``rho_e`` outside [0, 1), the eigenvalues
    (as lambda_1, lambda_2, lambda_n), rho_E (``rho_e`` when given), then
    Vol(G), the trace term 12 rho_E/(1 - rho_E^2) tr(M_E) and the per-vertex
    masses e({a}, ac)."""
    if not g.is_connected():
        raise ValueError("the mixing bound is stated for connected graphs")
    # Written so that a NaN fails it too.
    if rho_e is not None and not 0.0 <= rho_e < 1.0:
        raise ValueError(f"rho_e must lie in [0, 1), got {rho_e!r}")
    b = _incidence_of(g, m_v, m_e)
    vals = _laplacian_eigenvalues(b, m_v, m_e)
    if rho_e is None:
        rho_e = weak_conformality_value(m_e, force=force)
    trace_term = 12.0 * rho_e / (1.0 - rho_e**2) * float(m_e._diagonal.sum())
    lams = float(vals[0]), float(vals[1]), float(vals[-1])
    return lams, rho_e, float(np.sum(m_v.entries)), trace_term, _vertex_masses(b, m_e)


def verify_eml(
    g: Graph,
    m_v: SpdMatrix,
    m_e: SpdMatrix,
    x_set,
    y_set,
    *,
    force: bool = False,
    rho_e: float | None = None,
    include_conformality_term: bool = True,
) -> VerificationReport:
    """Expander mixing inequality with the conformality correction term.

    | e(X,Y) + e(X cap Y) - sum_{a in X cap Y} e({a}, ac)
      + (lambda_n + lambda_2)/2 * Cor(X,Y)/Vol(G) |
    <= (lambda_n - lambda_2)/2 * sqrt(Cor(X) Cor(Y))/Vol(G)
       + 12 rho_E/(1 - rho_E^2) * trace(M_E).

    The variant with lambda_1 in place of lambda_2 (the looser mid-shift) is
    recorded alongside. ``include_conformality_term=False`` drops the trace
    term, which the counterexample construction violates. A given ``rho_e``
    (in place of the scan of M_E) must lie in [0, 1). The margin may fall
    short by 1e-9 plus eigh's backward error (module docstring).
    """
    m_v, m_e, sv, se = _unit_scaled(m_v, m_e)
    (lam1, lam2, lam_n), rho_e, vol_g, trace_term, masses = _mixing_inputs(g, m_v, m_e, force, rho_e)
    stats = cut_stats(g, m_v, m_e, x_set, y_set)
    # The sum of e({a}, ac) over X cap Y: +0.0 when X cap Y is empty, as
    # is e(X cap Y).
    point_mass = float(np.sum(masses[sorted(set(x_set) & set(y_set))]))
    sqrt_cor = float(np.sqrt(max(stats.cor_x, 0.0) * max(stats.cor_y, 0.0)))

    def side(lo):
        tau = 0.5 * (lam_n + lo)
        lhs = abs(stats.e_xy + stats.e_intersection - point_mass + tau * stats.cor_xy / vol_g)
        rhs_spectral = 0.5 * (lam_n - lo) * sqrt_cor / vol_g
        return tau, lhs, rhs_spectral

    tau, lhs, rhs_spectral = side(lam2)
    tau_alt, lhs_alt, rhs_alt = side(lam1)
    rhs2 = trace_term if include_conformality_term else 0.0
    margin = rhs_spectral + rhs2 - lhs
    return VerificationReport(
        check="expander-mixing",
        passed=bool(margin >= -1e-9 - np.finfo(float).eps * g.n * lam_n * (abs(stats.cor_xy) + sqrt_cor) / vol_g),
        values={
            **_rescaled(se, e_xy=stats.e_xy, e_intersection=stats.e_intersection, pointwise_mass=point_mass),
            **_rescaled(2 * sv, cor_xy=stats.cor_xy, cor_x=stats.cor_x, cor_y=stats.cor_y),
            **_rescaled(sv, vol_g=vol_g),
            **_rescaled(se - sv, lambda_2=lam2, lambda_n=lam_n),
            "rho_e": rho_e,
            **_rescaled(se - sv, tau=tau),
            **_rescaled(se, lhs=lhs, rhs_spectral=rhs_spectral, rhs_conformality=trace_term, margin=margin),
            **_rescaled(se, lhs_lambda1=lhs_alt, rhs_spectral_lambda1=rhs_alt, margin_lambda1=rhs_alt + rhs2 - lhs_alt),
        },
    )


def _pair_tables(a: np.ndarray):
    """Tables (high, low) with 1_X^T a 1_Y = high[X, Y >> h] + low[X, Y mod 2^h],
    h = n // 2, for every pair of subset masks of the n x n matrix a.

    A pair's value is that one addition wherever ``_pair_rows`` reads it, so
    it does not depend on how the pairs are chunked. x_form[X, i] is
    1_X^T a e_i, and each table is the ``_subset_sums`` of one half of its
    columns, X-major as ``_pair_rows`` reads it.
    """
    x_form = _subset_sums(a.T).T
    h = len(a) // 2
    return [_subset_sums(x_form[:, cols]) for cols in (slice(h, None), slice(h))]


def _pair_rows(tables, xs, y0: int, stop: int) -> np.ndarray:
    """1_X^T a 1_Y for the masks X in the slice xs (rows) and y0 <= Y < stop."""
    high, low = tables
    h = low.shape[1].bit_length() - 1
    base = (y0 >> h) << h
    rows = high[xs, y0 >> h : ((stop - 1) >> h) + 1, None] + low[xs, None, :]
    return rows.reshape(len(rows), -1)[:, y0 - base : stop - base]


def _edge_word_tables(me: np.ndarray, coupled: np.ndarray, bits: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Lookups for the edge mass of the ``coupled`` edges.

    The edges are cut into words of at most 8; bit j of U_w[X] is set when
    the u endpoint of edge j of word w lies in X (V_w likewise). A set of
    coupled edges with indicator c, code c_w per word, has

        c^T M_E c = sum_w D_w[c_w] + sum_{w<x} C_wx[c_w, c_x],

    D_w[c] = bits(c)^T M_ww bits(c), C_wx[c, c'] = 2 bits(c)^T M_wx bits(c').
    C_wx is built only when M_wx is nonzero, and each D_w is added into the
    first C_wx that has w. A lookup is (PU, PV, table): uint16 codes per
    subset mask, PU[X] = (U_w[X] << |x|) | U_x[X] and PV likewise, with
    C_wx + folded D tables indexed by (c_w << |x|) | c_x; or (U_w, V_w, D_w).
    ``_edge_mass`` reads each table at one index per pair or set.
    """
    words = [coupled[i : i + 8] for i in range(0, len(coupled), 8)]
    code_bits = [_subset_rows(np.arange(1 << len(w)), len(w)).astype(float) for w in words]
    ends = [
        tuple((bits[:, side[w]] @ (1 << np.arange(len(w)))).astype(np.uint16) for side in (u, v))
        for w in words
    ]
    diag = [((cb @ me[np.ix_(w, w)]) * cb).sum(axis=1) for cb, w in zip(code_bits, words)]
    lookups = []
    unfolded = set(range(len(words)))
    for w, x in itertools.combinations(range(len(words)), 2):
        block = me[np.ix_(words[w], words[x])]
        if np.any(block):
            table = 2.0 * (code_bits[w] @ block @ code_bits[x].T)
            for k, axis in ((w, 1), (x, 0)):
                if k in unfolded:
                    unfolded.remove(k)
                    table += np.expand_dims(diag[k], axis)
            lookups.append((*((hw << len(words[x])) | lw for hw, lw in zip(ends[w], ends[x])), table.ravel()))
    return lookups + [(*ends[w], diag[w]) for w in sorted(unfolded)]


def _edge_mass(lookups, index):
    """Sum of the ``_edge_word_tables`` lookups, each table read at
    index(PU, PV), added in lookup order to 0.0."""
    total = 0.0
    for pu, pv, table in lookups:
        total = total + table.take(index(pu, pv))
    return total


def verify_eml_batch(
    g: Graph,
    m_v: SpdMatrix,
    m_e: SpdMatrix,
    *,
    force: bool = False,
) -> VerificationReport:
    """Sweep the mixing inequality over every ordered pair (X, Y) of vertex sets.

    Inside its absolute value the left-hand side is 1_X^T F 1_Y plus the
    mass of the edges that M_E couples. The vertex form F folds in three
    identities (d_a = e({a}, ac), r = M_V 1):

    - Cor(X, Y) = Vol(V, V) Vol(X, Y) - Vol(X, V) Vol(V, Y)
      = 1_X^T (Vol(G) M_V - r r^T) 1_Y, so tau Cor(X, Y)/Vol(G) is
      tau (M_V - r r^T / Vol(G)) in F;
    - for an isolated edge (no off-diagonal M_E entry in its row), cut bit
      plus inner bit is X_u Y_v + X_v Y_u, so its mass is
      w_e (E_uv + E_vu) in F;
    - sum_{a in X cap Y} d_a is -diag(d) in F.

    The coupled edges go through ``_edge_word_tables`` and ``_edge_mass``:
    a pair's index into a table is (PU[X] & PV[Y]) | (PV[X] & PU[Y]) on its
    codes packed per word pair, three integer operations and one ``take``.
    The inner mass depends on X & Y only, so it is one table over subset
    masks, read at X & Y in n-bit masks (uint16, uint32 past n = 16). The
    right-hand side uses Cor(X, X) as the Gram determinant
    Vol(X) Vol(Xc) - Vol(X, Xc)^2.

    When X or Y is {}, the edge terms and both correlations are 0, so the
    margin is the trace term, never negative: such pairs pass by identity
    and are not swept. At X = V the correlations are 0 and the edge terms
    e(V, Y) + e(Y) - sum_{a in Y} d_a keep only the off-diagonal M_E entries
    between edges touching Y; so for a diagonal M_E pairs with X or Y = V
    pass by identity too, and as F 1 = 0 and Cor(V - X) = Cor(X) then,
    (V - X, Y) has the margin of (X, Y). The margin is symmetric in X and Y
    (F, the cut code, X & Y and the right-hand side are), so only pairs with
    X <= Y as masks are swept, and for a diagonal M_E only sets without
    vertex n - 1, about 2^(2n-3) pairs: each the first of its orbit in
    (X mask, Y mask) order.
    ``pairs_checked`` counts all 4^n pairs, while ``min_margin`` and the
    witness range over the swept ones. A chunk holds CUT_CHUNK pairs at
    most (one X mask at least), and a pair's margin does not depend on the
    chunk it falls in. The witness is the first pair in (X mask, Y mask)
    order whose margin equals the minimum. The sweep runs on the pair of
    ``laplacian._unit_scaled``, where no margin leaves the range of a double,
    and its margins may fall short by 1e-9 plus eigh's backward error
    (module docstring).
    """
    n = g.n
    check_cap("pairs", 4**n, f"the pair sweep of {n} vertices", force)
    m_v, m_e, sv, se = _unit_scaled(m_v, m_e)
    (_, lam2, lam_n), rho_e, vol_g, trace_term, masses = _mixing_inputs(g, m_v, m_e, force)
    tau = 0.5 * (lam_n + lam2)
    gap = 0.5 * (lam_n - lam2)
    mv, me = m_v.entries, m_e.entries

    count = 1 << n
    bits = _subset_rows(np.arange(count), n)
    s_float = bits.astype(float)
    c_float = 1.0 - s_float
    cor_x = m_v.quad(s_float) * m_v.quad(c_float) - ((s_float @ mv) * c_float).sum(axis=1) ** 2
    sqrt_cor = np.sqrt(np.clip(cor_x, 0.0, None))
    rhs_x = gap * sqrt_cor / vol_g

    u, v = g.ends
    form = -np.diag(masses)
    coupled = np.concatenate([np.arange(0), *m_e.blocks])
    # No off-diagonal entry in its row; a simple graph has one edge per
    # vertex pair, so no entry of form is added twice.
    isolated = np.count_nonzero(me, axis=1) == 1
    for a, b in ((u, v), (v, u)):
        form[a[isolated], b[isolated]] += np.diagonal(me)[isolated]
    r = mv.sum(axis=1)
    form += tau * (mv - np.outer(r, r) / vol_g)
    tables = _pair_tables(form)
    lookups = _edge_word_tables(me, coupled, bits, u, v)
    # The inner mass depends on X & Y alone: one table over subset masks.
    inner_mass = _edge_mass(lookups, np.bitwise_and)
    # Masks of n bits, as narrow as they fit, to index it by X & Y.
    masks = np.arange(count, dtype=np.uint16 if n <= 16 else np.uint32)

    # Mask 0 ({}) passes by identity. With no edge coupled so does V, and
    # complements share a margin: sweep the sets without vertex n - 1.
    stop = count if lookups else count >> 1
    best = np.inf
    worst = None
    # A chunk of w > 1 rows has w <= CUT_CHUNK // (stop - x0) <= CUT_CHUNK / w,
    # so one strictly lower mask of sqrt(CUT_CHUNK) rows covers every square.
    lower = np.tri(min(int(CUT_CHUNK**0.5), stop), k=-1, dtype=bool)
    x0 = 1
    while x0 < stop:
        x1 = min(x0 + max(1, CUT_CHUNK // (stop - x0)), stop)
        xs, ys = slice(x0, x1), slice(x0, stop)
        lhs = _pair_rows(tables, xs, x0, stop)
        if lookups:
            cut = _edge_mass(lookups, lambda pu, pv: (pu[xs, None] & pv[ys]) | (pv[xs, None] & pu[ys]))
            cut += inner_mass.take(masks[xs, None] & masks[ys])
            lhs += cut
        lhs = np.abs(lhs)
        margins = rhs_x[xs, None] * sqrt_cor[ys]
        margins += trace_term
        margins -= lhs
        margins[:, : x1 - x0][lower[: x1 - x0, : x1 - x0]] = np.inf  # Y < X: scored as (Y, X)
        i, j = divmod(int(np.argmin(margins)), margins.shape[1])
        if margins[i, j] < best:
            best = float(margins[i, j])
            x, y = x0 + i, x0 + j
            worst = (x, y, float(lhs[i, j]), float(rhs_x[x] * sqrt_cor[y] + trace_term))
        x0 = x1
    x, y, lhs_w, rhs_w = worst
    return VerificationReport(
        check="expander-mixing-batch",
        passed=bool(best >= -1e-9 - 2.0 * np.finfo(float).eps * n * lam_n * float(cor_x.max()) / vol_g),
        values={
            "pairs_checked": count * count,
            **_rescaled(se, min_margin=best),
            "worst_x": np.flatnonzero(bits[x]).tolist(),
            "worst_y": np.flatnonzero(bits[y]).tolist(),
            **_rescaled(se, worst_lhs=lhs_w, worst_rhs=rhs_w),
            **_rescaled(se - sv, lambda_2=lam2, lambda_n=lam_n),
            "rho_e": rho_e,
        },
    )


def _vertex_boundary(g: Graph, s) -> list[int]:
    """Sorted vertices outside s with a neighbor in s."""
    in_s = _indicator(g.n, s) > 0
    u, v = g.ends
    return np.unique(np.concatenate([v[in_s[u] & ~in_s[v]], u[in_s[v] & ~in_s[u]]])).tolist()


def dirichlet_eigenvalues(g: Graph, subset) -> np.ndarray:
    """Spectrum of the induced subgraph under zero boundary values.

    Eigenvalues of f |-> boundary-clamped Laplacian quotient with the
    degree-weighted denominator; there are |S| of them, all positive when
    every component of the induced subgraph meets the boundary.
    """
    s_list = _vertex_set(g.n, subset, 1)
    s_set = set(s_list)
    # Every component of G[S] must see the boundary; a swallowed component
    # would contribute a zero eigenvalue, which the boundary condition forbids.
    # A component of G[S] without an edge leaving S is a whole component of G.
    if any(s_set.issuperset(comp) for comp in g.components):
        raise ValueError("every component of the induced subgraph needs a nonempty vertex boundary")

    deg = g.degrees().astype(float)
    lap = np.diag(deg) - g.adjacency().astype(float)
    idx = np.array(s_list)
    l_ss = lap[np.ix_(idx, idx)]
    vals, _ = gen_eig(l_ss, SpdMatrix.from_diagonal(deg[idx]))
    return vals


@dataclass
class NeumannResult:
    """Smallest zero-boundary-derivative eigenvalue of an induced subgraph.

    ``values`` is a minimizing function on ``subset + boundary`` (unit
    degree-weighted norm on the subset, degree-weighted mean zero there).
    When lambda_S has ``multiplicity`` above 1 it is one vector of the
    eigenspace, whose orthonormal basis (in the same coordinates and norm)
    is the columns of ``eigenspace``. ``epsilon_trace`` holds the
    weighted-Laplacian sweep when one was run.
    """

    lambda_s: float
    subset: tuple[int, ...]
    boundary: tuple[int, ...]
    values: np.ndarray
    multiplicity: int = 1
    eigenspace: np.ndarray | None = field(default=None, repr=False)
    epsilon_trace: list = field(default_factory=list)
    converged: bool | None = None
    lambda_gap: float | None = None
    vector_gap: float | None = None
    failures: list = field(default_factory=list)

    @property
    def vertices(self) -> tuple[int, ...]:
        return self.subset + self.boundary

    def to_dict(self) -> dict:
        """Every field but ``eigenspace``, as plain Python types."""
        d = asdict(self)
        del d["eigenspace"]
        return to_plain(d)


def neumann_eigenvalue(g: Graph, subset) -> NeumannResult:
    """Direct minimization of the constrained Rayleigh quotient.

    Boundary values are eliminated first: at the optimum each boundary
    vertex carries the mean of its neighbors inside the subset,
    f_B = D_B^-1 A_BS f_S with D_B = diag(A_BS 1). That leaves the Schur
    complement a = L_SS - A_SB D_B^-1 A_BS of the graph Laplacian as the
    reduced quadratic form on the subset, whose smallest generalized
    eigenvalue under the degree-weighted mean-zero constraint is lambda_S.
    Reduced eigenvalues within ZERO_RTOL * lambda_max of it count toward
    its multiplicity.
    """
    s_list = _vertex_set(g.n, subset, 2)
    if not g.is_connected():
        raise ValueError("defined for connected graphs")
    boundary = _vertex_boundary(g, s_list)
    if not boundary:
        raise ValueError("the subset has an empty vertex boundary")
    adj = g.adjacency().astype(float)
    deg_s = g.degrees()[s_list].astype(float)
    a_bs = adj[np.ix_(boundary, s_list)]
    mean_b = a_bs / a_bs.sum(axis=1)[:, None]
    a = np.diag(deg_s) - adj[np.ix_(s_list, s_list)] - a_bs.T @ mean_b
    scale = 1.0 / np.sqrt(deg_s)
    a_tilde = a * scale[:, None] * scale[None, :]
    constraint = np.sqrt(deg_s)
    constraint = constraint / np.linalg.norm(constraint)
    # The right singular vectors past the first span the complement of c.
    basis = np.linalg.svd(constraint[None, :])[2][1:].T
    reduced = basis.T @ a_tilde @ basis
    vals, vecs = sym_eig(reduced)
    lam = max(float(vals[0]), 0.0)
    multiplicity = int(np.sum(vals <= vals[0] + ZERO_RTOL * vals[-1]))
    # Unit degree-weighted norm on S is inherited from the substitution.
    f_s = (basis @ vecs[:, :multiplicity]) * scale[:, None]
    space = np.vstack([f_s, mean_b @ f_s])
    # Fix the overall sign of the reported vector deterministically.
    values = _fix_signs(space[:, 0])
    return NeumannResult(
        lambda_s=lam,
        subset=tuple(s_list),
        boundary=tuple(boundary),
        values=values,
        multiplicity=multiplicity,
        eigenspace=space,
    )


def neumann_limit_experiment(g: Graph, subset, epsilon_schedule=None) -> NeumannResult:
    """Recover lambda_S as the small-epsilon limit of weighted Laplacians.

    For each epsilon the edge weights are 1 on edges meeting the subset and
    epsilon elsewhere; the vertex inner product is the weighted degree on
    the subset and epsilon times it outside. The sweep records the second
    eigenvalue and the harmonic eigenvector restricted to subset+boundary,
    sign-aligned step to step, and stops early, as a failure, if a vertex
    mass underflows to 0 or the kernel stops being one-dimensional; a sweep
    that stopped early has ``converged`` false, whatever its last recorded
    step met. Both inner products are diagonal, so each step hands
    ``_semi_hodge_matrix`` their diagonals mass^(-1/2) and w as 1-D
    operands, without an ``SpdMatrix``: vertex masses of order epsilon^2 two steps from the
    subset need no positive-definiteness check. ``vector_gap`` is the
    largest entry of the last vector's residual after projection onto the
    lambda_S eigenspace, in the degree-weighted inner product on the subset.
    """
    direct = neumann_eigenvalue(g, subset)
    if epsilon_schedule is None:
        epsilon_schedule = DEFAULT_EPSILON_SCHEDULE
    schedule = [float(e) for e in epsilon_schedule]
    if any(not (0.0 < e < 1.0) for e in schedule):
        raise ValueError("epsilon values must lie in (0, 1)")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("epsilon schedule must be strictly decreasing")

    verts = list(direct.vertices)
    deg = g.degrees().astype(float)
    in_s = _indicator(g.n, direct.subset) > 0
    u, v = g.ends
    incident = in_s[u] | in_s[v]
    b = graph_incidence(g).astype(float)

    trace: list = []
    failures: list = []
    prev = None
    for eps in schedule:
        w = np.where(incident, 1.0, eps)
        deg_eps = _quad(w, b != 0)
        mass = np.where(in_s, deg_eps, eps * deg_eps)
        if not mass.all():
            failures.append(f"epsilon={eps:g}: a vertex mass underflows to 0")
            break
        q_inv = 1.0 / np.sqrt(mass)
        spec = _spectrum(_semi_hodge_matrix(b, q_inv, w), q_inv)
        if spec.zero_multiplicity != 1:
            failures.append(
                f"epsilon={eps:g}: kernel dimension {spec.zero_multiplicity} != 1"
            )
            break
        lam2 = float(spec.eigenvalues[1])
        f = spec.harmonic_eigenvectors[:, 1][verts]
        norm = np.sqrt(float(np.sum(deg[list(direct.subset)] * f[: len(direct.subset)] ** 2)))
        if norm > 0:
            f = f / norm
        if prev is None:
            f = _fix_signs(f)
        elif float(f @ prev) < 0:
            f = -f
        prev = f
        trace.append(
            {
                "epsilon": eps,
                "lambda_2": lam2,
                "zero_multiplicity": spec.zero_multiplicity,
                "values": f.copy(),
            }
        )

    converged = False
    lambda_gap = None
    vector_gap = None
    if trace:
        final = trace[-1]
        lambda_gap = abs(float(final["lambda_2"]) - direct.lambda_s)
        f = np.asarray(final["values"], dtype=float)
        space = direct.eigenspace
        weight = deg[list(direct.subset)]
        coef = (weight * f[: len(weight)]) @ space[: len(weight)]
        vector_gap = float(np.abs(f - space @ coef).max())
        converged = not failures and lambda_gap <= 1e-4 and vector_gap <= 1e-3
    return replace(
        direct,
        epsilon_trace=trace,
        converged=converged,
        lambda_gap=lambda_gap,
        vector_gap=vector_gap,
        failures=failures,
    )


def s_local_conductance(g: Graph, subset, *, force: bool = False, neumann: NeumannResult | None = None):
    """Local conductance Phi_S = min_T e(T, Tc)/min(Vol(T), Vol(S-T)) and the
    bound lambda_S <= 2 Phi_S.

    Measured in the default normalized quantities: volumes by degree sums,
    edge masses by counts. T ranges over nonempty proper subsets of S.
    lambda_S comes from ``neumann``, a ``neumann_eigenvalue`` or
    ``neumann_limit_experiment`` result for this subset of g (both report
    the direct lambda_S), or from ``neumann_eigenvalue`` when it is None.
    """
    s_list = _vertex_set(g.n, subset, 2)
    check_cap("cuts", 2 ** len(s_list) - 2, f"local conductance of |S| = {len(s_list)}", force)
    if neumann is None:
        # Checks that g is connected, so every degree below is positive.
        neumann = neumann_eigenvalue(g, s_list)
    elif neumann.subset != tuple(s_list):
        raise ValueError("neumann is the result for another subset")
    direct = neumann
    # The conductance scan over the columns S: with M_V = diag(deg), the
    # complement volume Vol(S) - Vol(T) is its vol_comp.
    best, witness = _cut_scan(g, *normalized_inner_products(g), s_list, pinned=False)
    report = VerificationReport(
        check="s-local-conductance",
        passed=bool(direct.lambda_s <= 2.0 * best + 1e-9),
        values={
            "phi_s": best,
            "witness_T": list(witness),
            "lambda_s": direct.lambda_s,
            "bound": 2.0 * best,
            "margin": 2.0 * best - direct.lambda_s,
        },
    )
    return best, report
