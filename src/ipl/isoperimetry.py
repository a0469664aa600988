"""Cut statistics, conductance, and isoperimetric theorem checks.

All volumes and edge masses are measured in the supplied inner products:
Vol(X, Y) = 1_X^T M_V 1_Y and e(X, Y) = 1_{E(X,Y)}^T M_E 1_{E(X,Y)}, where
E(X, Y) is the plain set of edges with one endpoint in X and the other in
Y (edges inside X intersect Y count once). The correlation
Cor(X, Y) = Vol(X,Y) Vol(Xc,Yc) - Vol(X,Yc) Vol(Xc,Y) replaces the product
Vol(X) Vol(Xc) once the vertex inner product has off-diagonal mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complexes import Graph, unsigned_incidence
from .conformality import DEFAULT_SUBSET_CAP, weak_conformality_value
from .errors import EnumerationCapError, NotPositiveDefiniteError
from .laplacian import (
    IplSetup,
    SpectrumResult,
    check_graph_inner_products,
    compatibility,
    inner_product_laplacian,
)
from .linalg import SpdMatrix, gen_eig, sym_eig
from .report import VerificationReport

CONDUCTANCE_CAP = 24
S_LOCAL_CAP = 20
EML_BATCH_CAP = 10
# Cuts per chunk of the conductance enumeration; bounds its chunk x m temporaries.
CUT_CHUNK = 1 << 14
DEFAULT_EPSILON_SCHEDULE = tuple(10.0**-k for k in range(1, 9))


def normalized_inner_products(g: Graph) -> tuple[SpdMatrix, SpdMatrix]:
    """Degree diagonal on vertices, identity on edges (the default pair)."""
    return SpdMatrix.from_diagonal(g.degrees().astype(float)), SpdMatrix.identity(g.m)


def _indicator(n: int, subset) -> np.ndarray:
    x = np.zeros(n)
    subset = list(subset)
    if subset and (min(subset) < 0 or max(subset) >= n):
        raise ValueError(f"vertex index out of range in {subset}")
    x[subset] = 1.0
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
    boundary_edges: tuple

    def to_dict(self) -> dict:
        d = {k: float(getattr(self, k)) for k in (
            "vol_x", "vol_y", "vol_x_comp", "vol_y_comp", "vol_xy",
            "cor_xy", "cor_x", "cor_y", "e_xy", "e_x", "e_y")}
        d["boundary_edges"] = [[int(u), int(v)] for u, v in self.boundary_edges]
        return d


def cut_stats(g: Graph, m_v: SpdMatrix, m_e: SpdMatrix, x_set, y_set) -> CutStats:
    check_graph_inner_products(g, m_v, m_e)
    n = g.n
    mv = m_v.entries
    x = _indicator(n, x_set)
    y = _indicator(n, y_set)
    xc, yc = 1.0 - x, 1.0 - y

    def vol(a, b):
        return float(a @ mv @ b)

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
        boundary_edges=boundary,
    )


def _subset_bits(n: int, masks: np.ndarray) -> np.ndarray:
    return ((masks[:, None] >> np.arange(n)) & 1).astype(bool)


def conductance(
    g: Graph,
    m_v: SpdMatrix | None = None,
    m_e: SpdMatrix | None = None,
    *,
    cap: int = CONDUCTANCE_CAP,
    force: bool = False,
    include_table: bool = False,
):
    """Exact inner product conductance by exhaustive cut enumeration.

    Returns (phi, witness, table); the witness is the lexicographically
    smallest vertex set achieving the minimum of
    e(S, Sc) / min(Vol(S), Vol(Sc)). A disconnected graph has phi = 0 with
    its first component as witness.
    """
    if m_v is None or m_e is None:
        dv, de = normalized_inner_products(g)
        m_v = m_v if m_v is not None else dv
        m_e = m_e if m_e is not None else de
    check_graph_inner_products(g, m_v, m_e)
    n = g.n
    if n < 2:
        raise ValueError("conductance needs at least two vertices")
    if n > cap and not force:
        raise EnumerationCapError(
            f"{n} vertices exceed the conductance enumeration cap {cap} "
            f"(2^(n-1)-1 = {2 ** (n - 1) - 1} cuts); pass force=True (CLI: --force)"
        )
    if not g.is_connected():
        comp = g.components()[0]
        return 0.0, tuple(comp), [] if include_table else None

    mv = m_v.entries
    u, v = g.ends
    total = float(np.sum(mv))
    best_phi = np.inf
    best_witness: tuple[int, ...] | None = None
    table: list = []

    n_masks = 1 << (n - 1)
    for start in range(0, n_masks - 1, CUT_CHUNK):
        masks = np.arange(start, min(start + CUT_CHUNK, n_masks - 1), dtype=np.int64)
        # Vertex 0 is pinned into S so each unordered cut appears once; the
        # all-vertices mask (n_masks - 1) is excluded above.
        bits = np.concatenate(
            [np.ones((len(masks), 1), dtype=bool), _subset_bits(n - 1, masks)], axis=1
        )
        s_float = bits.astype(float)
        vol_s = m_v.quad(s_float)
        row = s_float @ mv @ np.ones(n)
        vol_c = total - 2.0 * row + vol_s
        e_cut = m_e.quad(bits[:, u] != bits[:, v])
        phi = e_cut / np.minimum(vol_s, vol_c)
        if include_table:
            for i, mask_phi in enumerate(phi):
                subset = tuple(np.flatnonzero(bits[i]))
                table.append(
                    {
                        "subset": [int(s) for s in subset],
                        "e_cut": float(e_cut[i]),
                        "vol": float(vol_s[i]),
                        "vol_comp": float(vol_c[i]),
                        "phi": float(mask_phi),
                    }
                )
        chunk_min = float(phi.min())
        if chunk_min > best_phi:
            continue
        for i in np.flatnonzero(phi == phi.min()):
            subset = tuple(int(s) for s in np.flatnonzero(bits[i]))
            comp = tuple(int(s) for s in np.flatnonzero(~bits[i]))
            witness = min(subset, comp)
            if chunk_min < best_phi or (chunk_min == best_phi and witness < best_witness):
                best_phi, best_witness = chunk_min, witness
    return best_phi, best_witness, (table if include_table else None)


def verify_cheeger(
    g: Graph,
    m_v: SpdMatrix,
    m_e: SpdMatrix,
    *,
    cap: int = DEFAULT_SUBSET_CAP,
    conductance_cap: int = CONDUCTANCE_CAP,
    force: bool = False,
) -> VerificationReport:
    """Two-sided Cheeger bound for the inner product Laplacian.

    ((1-rho_V)/(1+rho_V))^7 ((1-rho_E)/(1+rho_E))^4 Phi^2/(2 omega)
        <= lambda_2 <= 2/(1-rho_V) * (1+rho_E)/(1-rho_E) * Phi.
    """
    if not g.is_connected():
        raise ValueError("the Cheeger bound is stated for connected graphs")
    phi, witness, _ = conductance(g, m_v, m_e, cap=conductance_cap, force=force)
    spec = inner_product_laplacian(IplSetup.from_graph(g, m_v, m_e))
    lam2 = float(spec.eigenvalues[1])
    rho_v = weak_conformality_value(m_v, cap=cap, force=force)
    rho_e = weak_conformality_value(m_e, cap=cap, force=force)
    omega = compatibility(g, m_v, m_e).omega
    lower = ((1 - rho_v) / (1 + rho_v)) ** 7 * ((1 - rho_e) / (1 + rho_e)) ** 4 * phi**2 / (2 * omega)
    upper = 2.0 / (1 - rho_v) * (1 + rho_e) / (1 - rho_e) * phi
    slack = 1e-9
    return VerificationReport(
        check="cheeger",
        passed=bool(lower <= lam2 + slack and lam2 <= upper + slack),
        values={
            "phi": phi,
            "witness_S": [int(s) for s in witness],
            "lambda_2": lam2,
            "rho_v": rho_v,
            "rho_e": rho_e,
            "omega": omega,
            "lower": lower,
            "upper": upper,
            "lower_margin": lam2 - lower,
            "upper_margin": upper - lam2,
        },
    )


def verify_eml(
    g: Graph,
    m_v: SpdMatrix,
    m_e: SpdMatrix,
    x_set,
    y_set,
    *,
    cap: int = DEFAULT_SUBSET_CAP,
    force: bool = False,
    rho_e: float | None = None,
    spectrum: SpectrumResult | None = None,
    include_conformality_term: bool = True,
) -> VerificationReport:
    """Expander mixing inequality with the conformality correction term.

    | e(X,Y) + e(X cap Y) - sum_{a in X cap Y} e({a}, ac)
      + (lambda_n + lambda_2)/2 * Cor(X,Y)/Vol(G) |
    <= (lambda_n - lambda_2)/2 * sqrt(Cor(X) Cor(Y))/Vol(G)
       + 12 rho_E/(1 - rho_E^2) * trace(M_E).

    The variant with lambda_1 in place of lambda_2 (the looser mid-shift) is
    recorded alongside. ``include_conformality_term=False`` drops the trace
    term, which the counterexample construction violates.
    """
    if not g.is_connected():
        raise ValueError("the mixing bound is stated for connected graphs")
    if spectrum is None:
        spectrum = inner_product_laplacian(IplSetup.from_graph(g, m_v, m_e))
    if rho_e is None:
        rho_e = weak_conformality_value(m_e, cap=cap, force=force)
    lam1 = float(spectrum.eigenvalues[0])
    lam2 = float(spectrum.eigenvalues[1])
    lam_n = float(spectrum.eigenvalues[-1])
    vol_g = float(np.sum(m_v.entries))
    stats = cut_stats(g, m_v, m_e, x_set, y_set)
    inter = sorted(set(x_set) & set(y_set))
    e_inter = cut_stats(g, m_v, m_e, inter, inter).e_x if inter else 0.0
    # e({a}, ac) for each vertex a: the mass of the edges incident to a.
    point_mass = float(np.sum(m_e.quad(unsigned_incidence(g))[inter])) if inter else 0.0
    sqrt_cor = float(np.sqrt(max(stats.cor_x, 0.0) * max(stats.cor_y, 0.0)))
    trace_term = 12.0 * rho_e / (1.0 - rho_e**2) * float(np.trace(m_e.entries))

    def side(lo):
        tau = 0.5 * (lam_n + lo)
        lhs = abs(stats.e_xy + e_inter - point_mass + tau * stats.cor_xy / vol_g)
        rhs_spectral = 0.5 * (lam_n - lo) * sqrt_cor / vol_g
        return tau, lhs, rhs_spectral

    tau, lhs, rhs_spectral = side(lam2)
    tau_alt, lhs_alt, rhs_alt = side(lam1)
    rhs2 = trace_term if include_conformality_term else 0.0
    margin = rhs_spectral + rhs2 - lhs
    return VerificationReport(
        check="expander-mixing",
        passed=bool(margin >= -1e-9),
        values={
            "e_xy": stats.e_xy,
            "e_intersection": e_inter,
            "pointwise_mass": point_mass,
            "cor_xy": stats.cor_xy,
            "cor_x": stats.cor_x,
            "cor_y": stats.cor_y,
            "vol_g": vol_g,
            "lambda_2": lam2,
            "lambda_n": lam_n,
            "rho_e": rho_e,
            "tau": tau,
            "lhs": lhs,
            "rhs_spectral": rhs_spectral,
            "rhs_conformality": trace_term,
            "margin": margin,
            "lhs_lambda1": lhs_alt,
            "rhs_spectral_lambda1": rhs_alt,
            "margin_lambda1": rhs_alt + rhs2 - lhs_alt,
        },
    )


def verify_eml_batch(
    g: Graph,
    m_v: SpdMatrix,
    m_e: SpdMatrix,
    *,
    cap: int = DEFAULT_SUBSET_CAP,
    batch_cap: int = EML_BATCH_CAP,
    force: bool = False,
) -> VerificationReport:
    """Sweep the mixing inequality over every ordered pair (X, Y) of vertex sets."""
    n = g.n
    if n > batch_cap and not force:
        raise EnumerationCapError(
            f"{n} vertices exceed the pair-sweep cap {batch_cap} "
            f"(4^n = {4 ** n} pairs); pass force=True (CLI: --force)"
        )
    if not g.is_connected():
        raise ValueError("the mixing bound is stated for connected graphs")
    spectrum = inner_product_laplacian(IplSetup.from_graph(g, m_v, m_e))
    rho_e = weak_conformality_value(m_e, cap=cap, force=force)
    lam2 = float(spectrum.eigenvalues[1])
    lam_n = float(spectrum.eigenvalues[-1])
    tau = 0.5 * (lam_n + lam2)
    gap = 0.5 * (lam_n - lam2)
    mv = m_v.entries
    vol_g = float(np.sum(mv))
    trace_term = 12.0 * rho_e / (1.0 - rho_e**2) * float(np.trace(m_e.entries))
    d_mass = m_e.quad(unsigned_incidence(g))

    count = 1 << n
    bits = _subset_bits(n, np.arange(count, dtype=np.int64))
    s_float = bits.astype(float)
    vol_xy = s_float @ mv @ s_float.T
    row = s_float @ mv @ np.ones(n)
    cor = vol_xy * (vol_g - row[:, None] - row[None, :] + vol_xy) - (
        (row[:, None] - vol_xy) * (row[None, :] - vol_xy)
    )
    cor_diag = np.clip(np.diagonal(cor), 0.0, None)
    sqrt_cor = np.sqrt(cor_diag[:, None] * cor_diag[None, :])

    u, v = g.ends
    bu, bv = bits[:, u], bits[:, v]

    worst = {"margin": np.inf}
    for i in range(count):
        au, av = bu[i], bv[i]
        mask_xy = (au[None, :] & bv) | (av[None, :] & bu)
        cu, cv = au[None, :] & bu, av[None, :] & bv
        e_xy = m_e.quad(mask_xy)
        e_inner = m_e.quad(cu & cv)
        point = (bits[i] & bits).astype(float) @ d_mass
        lhs = np.abs(e_xy + e_inner - point + tau * cor[i] / vol_g)
        rhs = gap * sqrt_cor[i] / vol_g + trace_term
        margins = rhs - lhs
        j = int(np.argmin(margins))
        if margins[j] < worst["margin"]:
            worst = {
                "margin": float(margins[j]),
                "x": [int(t) for t in np.flatnonzero(bits[i])],
                "y": [int(t) for t in np.flatnonzero(bits[j])],
                "lhs": float(lhs[j]),
                "rhs": float(rhs[j]),
            }
    return VerificationReport(
        check="expander-mixing-batch",
        passed=bool(worst["margin"] >= -1e-9),
        values={
            "pairs_checked": count * count,
            "min_margin": worst["margin"],
            "worst_x": worst.get("x", []),
            "worst_y": worst.get("y", []),
            "worst_lhs": worst.get("lhs", 0.0),
            "worst_rhs": worst.get("rhs", 0.0),
            "lambda_2": lam2,
            "lambda_n": lam_n,
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
    s_list = sorted(set(subset))
    if not s_list:
        raise ValueError("subset must be nonempty")
    s_set = set(s_list)
    if max(s_list) >= g.n or min(s_list) < 0:
        raise ValueError("subset contains out-of-range vertices")
    # Every component of G[S] must see the boundary; a swallowed component
    # would contribute a zero eigenvalue, which the boundary condition forbids.
    # A component of G[S] without an edge leaving S is a whole component of G.
    if any(s_set.issuperset(comp) for comp in g.components()):
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

    ``values`` is the minimizing function on ``subset + boundary`` (unit
    degree-weighted norm on the subset, degree-weighted mean zero there).
    ``epsilon_trace`` holds the weighted-Laplacian sweep when one was run.
    """

    lambda_s: float
    subset: tuple[int, ...]
    boundary: tuple[int, ...]
    values: np.ndarray
    epsilon_trace: list = field(default_factory=list)
    converged: bool | None = None
    lambda_gap: float | None = None
    vector_gap: float | None = None
    failures: list = field(default_factory=list)

    @property
    def vertices(self) -> tuple[int, ...]:
        return self.subset + self.boundary

    def to_dict(self) -> dict:
        return {
            "lambda_s": self.lambda_s,
            "subset": [int(v) for v in self.subset],
            "boundary": [int(v) for v in self.boundary],
            "values": [float(v) for v in self.values],
            "epsilon_trace": [
                {
                    "epsilon": float(r["epsilon"]),
                    "lambda_2": float(r["lambda_2"]),
                    "zero_multiplicity": int(r["zero_multiplicity"]),
                    "values": [float(t) for t in r["values"]],
                }
                for r in self.epsilon_trace
            ],
            "converged": self.converged,
            "lambda_gap": self.lambda_gap,
            "vector_gap": self.vector_gap,
            "failures": list(self.failures),
        }

    def to_rows(self):
        rows = [
            [float(r["epsilon"]), float(r["lambda_2"]), abs(float(r["lambda_2"]) - self.lambda_s)]
            for r in self.epsilon_trace
        ]
        return ["epsilon", "lambda_2", "gap"], rows


def neumann_eigenvalue(g: Graph, subset) -> NeumannResult:
    """Direct minimization of the constrained Rayleigh quotient.

    Boundary values are eliminated first: at the optimum each boundary
    vertex carries the mean of its neighbors inside the subset, leaving a
    reduced quadratic form on the subset whose smallest generalized
    eigenvalue under the degree-weighted mean-zero constraint is lambda_S.
    """
    s_list = sorted(set(subset))
    if len(s_list) < 2:
        raise ValueError("the subset needs at least two vertices")
    if not g.is_connected():
        raise ValueError("defined for connected graphs")
    s_set = set(s_list)
    boundary = _vertex_boundary(g, s_set)
    if not boundary:
        raise ValueError("the subset has an empty vertex boundary")
    pos = {v: i for i, v in enumerate(s_list)}
    ns = len(s_list)
    a = np.zeros((ns, ns))
    for u, v in g.edges:
        if u in s_set and v in s_set:
            pu, pv = pos[u], pos[v]
            a[pu, pu] += 1.0
            a[pv, pv] += 1.0
            a[pu, pv] -= 1.0
            a[pv, pu] -= 1.0
    inner_neighbors = {}
    for b in boundary:
        nb = [pos[w] for w in g.neighbors(b) if w in s_set]
        inner_neighbors[b] = nb
        block = np.eye(len(nb)) - np.full((len(nb), len(nb)), 1.0 / len(nb))
        a[np.ix_(nb, nb)] += block

    deg = g.degrees().astype(float)
    deg_s = deg[s_list]
    scale = 1.0 / np.sqrt(deg_s)
    a_tilde = a * scale[:, None] * scale[None, :]
    constraint = np.sqrt(deg_s)
    constraint = constraint / np.linalg.norm(constraint)
    # The right singular vectors past the first span the complement of c.
    basis = np.linalg.svd(constraint[None, :])[2][1:].T
    reduced = basis.T @ a_tilde @ basis
    vals, vecs = sym_eig(reduced)
    lam = max(float(vals[0]), 0.0)
    f_s = (basis @ vecs[:, 0]) * scale
    f_b = np.array([f_s[inner_neighbors[b]].mean() for b in boundary])
    values = np.concatenate([f_s, f_b])
    # Unit degree-weighted norm on S is inherited from the substitution;
    # fix the overall sign deterministically.
    top = int(np.argmax(np.abs(values)))
    if values[top] < 0:
        values = -values
    return NeumannResult(
        lambda_s=lam,
        subset=tuple(s_list),
        boundary=tuple(boundary),
        values=values,
    )


def neumann_limit_experiment(g: Graph, subset, epsilon_schedule=None) -> NeumannResult:
    """Recover lambda_S as the small-epsilon limit of weighted Laplacians.

    For each epsilon the edge weights are 1 on edges meeting the subset and
    epsilon elsewhere; the vertex inner product is the weighted degree on
    the subset and epsilon times it outside. The sweep records the second
    eigenvalue and the harmonic eigenvector restricted to subset+boundary,
    sign-aligned step to step, and stops early if the shrinking weights
    fall below the positive-definiteness threshold or the kernel stops
    being one-dimensional.
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
    b_abs = unsigned_incidence(g).astype(float)

    trace: list = []
    failures: list = []
    prev = None
    for eps in schedule:
        w = np.where(incident, 1.0, eps)
        deg_eps = b_abs @ w
        mv_diag = np.where(in_s, deg_eps, eps * deg_eps)
        try:
            m_v = SpdMatrix.from_diagonal(mv_diag)
            m_e = SpdMatrix.from_diagonal(w)
            spec = inner_product_laplacian(IplSetup.from_graph(g, m_v, m_e))
        except NotPositiveDefiniteError as exc:
            failures.append(f"epsilon={eps:g}: {exc}")
            break
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
        if prev is not None and float(f @ prev) < 0:
            f = -f
        elif prev is None:
            top = int(np.argmax(np.abs(f)))
            if f[top] < 0:
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
        if float(f @ direct.values) < 0:
            f = -f
        vector_gap = float(np.abs(f - direct.values).max())
        converged = lambda_gap <= 1e-4 and vector_gap <= 1e-3
    return NeumannResult(
        lambda_s=direct.lambda_s,
        subset=direct.subset,
        boundary=direct.boundary,
        values=direct.values,
        epsilon_trace=trace,
        converged=converged,
        lambda_gap=lambda_gap,
        vector_gap=vector_gap,
        failures=failures,
    )


def s_local_conductance(
    g: Graph, subset, *, cap: int = S_LOCAL_CAP, force: bool = False
):
    """Local conductance Phi_S = min_T e(T, Tc)/min(Vol(T), Vol(S-T)) and the
    bound lambda_S <= 2 Phi_S.

    Measured in the default normalized quantities: volumes by degree sums,
    edge masses by counts. T ranges over nonempty proper subsets of S.
    """
    s_list = sorted(set(subset))
    if len(s_list) < 2:
        raise ValueError("the subset needs at least two vertices")
    if len(s_list) > cap and not force:
        raise EnumerationCapError(
            f"|S| = {len(s_list)} exceeds the local-conductance cap {cap}; "
            "pass force=True (CLI: --force)"
        )
    deg = g.degrees().astype(float)
    ns = len(s_list)
    masks = np.arange(1, (1 << ns) - 1, dtype=np.int64)
    bits = _subset_bits(ns, masks)
    u, v = g.ends
    pos = {w: i for i, w in enumerate(s_list)}
    in_s_u = np.array([pos.get(w, -1) for w in u])
    in_s_v = np.array([pos.get(w, -1) for w in v])

    def membership(endpoint_pos):
        out = np.zeros((len(masks), len(endpoint_pos)), dtype=bool)
        inside = endpoint_pos >= 0
        out[:, inside] = bits[:, endpoint_pos[inside]]
        return out

    t_u = membership(in_s_u)
    t_v = membership(in_s_v)
    e_cut = (t_u != t_v).sum(axis=1).astype(float)
    deg_s = deg[s_list]
    vol_t = bits @ deg_s
    vol_rest = deg_s.sum() - vol_t
    phi = e_cut / np.minimum(vol_t, vol_rest)
    best = float(phi.min())
    ties = np.flatnonzero(phi == phi.min())
    witness = min(tuple(int(s_list[j]) for j in np.flatnonzero(bits[i])) for i in ties)
    direct = neumann_eigenvalue(g, s_list)
    report = VerificationReport(
        check="s-local-conductance",
        passed=bool(direct.lambda_s <= 2.0 * best + 1e-9),
        values={
            "phi_s": best,
            "witness_T": [int(t) for t in witness],
            "lambda_s": direct.lambda_s,
            "bound": 2.0 * best,
            "margin": 2.0 * best - direct.lambda_s,
        },
    )
    return best, report
