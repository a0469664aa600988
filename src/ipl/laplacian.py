"""Inner product Laplacians and their classical recoveries.

For a chain complex with boundary matrices B_i and one SPD inner product
M_i = Q_i^2 per face dimension, the dimension-i Laplacian is

    L_i = Q_i B_i^T M_{i-1}^{-1} B_i Q_i  +  Q_i^{-1} B_{i+1} M_{i+1} B_{i+1}^T Q_i^{-1},

with the absent term dropped at the extreme dimensions. The single-term
form Q_V^{-1} B M_E B^T Q_V^{-1} (the semi-Hodge Laplacian) also accepts
unsigned incidence matrices, which covers the signless variants and
hypergraphs. Diagonal inner product choices recover the combinatorial,
normalized, and signless Laplacians exactly.

``_semi_hodge_matrix`` is the one builder of the product Q^{-1} B M B^T Q^{-1}:
``semi_hodge``, the upper term of ``inner_product_laplacian``, the theorem
verifiers and each step of the Neumann epsilon-sweep in ``isoperimetry``
call it. The verifiers (``verify_radius_bound`` here; ``verify_cheeger``,
``verify_eml`` and ``verify_eml_batch`` in ``isoperimetry``) read a graph
one way, through ``_incidence_of``: a ``Graph`` gives the signed int64
incidence it stores once, read-only, with no float copy, after
``check_graph_inner_products`` (the one message for inner products that do
not fit a graph), as it does for ``compatibility`` and
``IplSetup.from_graph``. They read eigenvalues only, from
``_laplacian_eigenvalues``: the same ``eigh`` of the same symmetrized matrix
that ``inner_product_laplacian`` and ``semi_hodge`` decompose, so they agree
bit for bit, without the sign fix, eigenvectors or kernel count of a
``SpectrumResult``. Their omega is the max of ``_vertex_ratios``, the array
that ``compatibility`` lists per vertex; its numerators e({v}, vc) are
``_vertex_masses``, which the mixing verifiers read too. ``_incidence_of``
is also the one refusal of a Hypergraph or matrix carrier whose shape does
not fit the inner products. ``_bound_inputs`` is the one home of what the
Cheeger and spectral-radius verifiers share (incidence, eigenvalues, rho_V,
rho_E, omega, refused in that order), as ``isoperimetry._mixing_inputs`` is
for the two mixing verifiers. The range of a double is one rule for the four
verifiers and ``conductance``: ``_unit_scaled`` divides an inner product whose
lambda_max lies outside [2^-200, 2^200) by a power of 4, and ``_rescaled``
multiplies each reported value back by its units' power of 2, refusing only
a value whose true size is no double; both scalings are exact, and inside
the window nothing is scaled. ``_support_ipl`` is the one home of the last
step of both re-expressions, ``hypergraph_to_ipl`` and
``digraph_laplacian``: M_E = diag(pair weights) on the support graph, its
semi-Hodge Laplacian and the largest residual against L. ``IplSetup`` pairs
a chain complex with its inner products, for the Laplacian at any dimension
and its Hodge decomposition.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .complexes import Graph, Hypergraph, SimplicialComplex, boundary_matrix, check_weights, clique_expansion, graph_incidence, unsigned_incidence
from .conformality import weak_conformality_value
from .errors import NotPositiveDefiniteError
from .linalg import PD_RTOL, ZERO_RTOL, SpdMatrix, _times, check_finite, sym_eig
from .report import VerificationReport, to_plain


@dataclass
class SpectrumResult:
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    harmonic_eigenvectors: np.ndarray
    zero_multiplicity: int

    def to_dict(self) -> dict:
        return to_plain(asdict(self))


@dataclass
class Compatibility:
    omega: float
    perfect: bool
    per_vertex: list

    def to_dict(self) -> dict:
        return to_plain(asdict(self))


def check_graph_inner_products(g: Graph, m_v: SpdMatrix, m_e: SpdMatrix) -> None:
    """Raise ValueError unless M_V is n x n and M_E is m x m for the graph g."""
    if m_v.dim != g.n or m_e.dim != g.m:
        raise ValueError(
            f"inner product dimensions must match vertex and edge counts: M_V is {m_v.dim}x{m_v.dim} "
            f"and M_E is {m_e.dim}x{m_e.dim}, the graph has {g.n} vertices and {g.m} edges"
        )


class IplSetup:
    """A chain complex paired with one SPD inner product per dimension."""

    def __init__(self, boundaries, inner_products, target_dim: int):
        self.inner = list(inner_products)
        self.boundaries = list(boundaries)
        dim = len(self.inner) - 1
        if len(self.boundaries) != dim + 1:
            raise ValueError("expected one boundary matrix per dimension (index 0 is the zero map)")
        for i in range(1, dim + 1):
            b = self.boundaries[i]
            expected = (self.inner[i - 1].dim, self.inner[i].dim)
            if b.shape != expected:
                raise ValueError(f"boundary {i} has shape {b.shape}, inner products require {expected}")
        if not (0 <= target_dim <= dim):
            raise ValueError(f"target dimension {target_dim} out of range 0..{dim}")
        self.target_dim = target_dim

    @property
    def dim(self) -> int:
        return len(self.inner) - 1

    @classmethod
    def from_complex(cls, k: SimplicialComplex, inner_products, target_dim: int) -> "IplSetup":
        inner = list(inner_products)
        if len(inner) != k.dimension + 1:
            raise ValueError(f"complex has dimensions 0..{k.dimension}, got {len(inner)} inner products")
        for i, m in enumerate(inner):
            if m.dim != k.face_count(i):
                raise ValueError(f"inner product {i} has dim {m.dim}, complex has {k.face_count(i)} faces")
        boundaries = [boundary_matrix(k, i).astype(float) for i in range(k.dimension + 1)]
        return cls(boundaries, inner, target_dim)

    @classmethod
    def from_graph(cls, g: Graph, m_v: SpdMatrix, m_e: SpdMatrix, target_dim: int = 0) -> "IplSetup":
        return cls([np.zeros((0, g.n)), _incidence_of(g, m_v, m_e).astype(float)], [m_v, m_e], target_dim)

    def with_inverted_inner_products(self) -> "IplSetup":
        """Swap every M_i for its inverse (the coboundary-style Laplacian)."""
        return IplSetup(self.boundaries, [m._inverted() for m in self.inner], self.target_dim)


def _spectrum(matrix: np.ndarray, q_inv: np.ndarray) -> SpectrumResult:
    """Eigendata of a symmetrized Laplacian. Its kernel is the eigenvalues at
    or below ZERO_RTOL * lambda_max, a rule relative to the Laplacian's own
    scale, so scaling an inner product does not change the count."""
    matrix = check_finite(0.5 * (matrix + matrix.T), "the Laplacian")
    vals, vecs = sym_eig(matrix)
    return SpectrumResult(
        matrix=matrix,
        eigenvalues=vals,
        eigenvectors=vecs,
        harmonic_eigenvectors=_times(q_inv, vecs),
        zero_multiplicity=int(np.sum(vals <= ZERO_RTOL * vals[-1])),
    )


def _semi_hodge_matrix(b, q_inv: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Q^{-1} B M B^T Q^{-1} from the array B and the ``_times`` operands
    Q^{-1} and M (1-D for a diagonal), before ``_spectrum`` symmetrizes it:
    the one place this product is formed, in the order
    ((((Q^{-1} B) M) B^T) Q^{-1}). Against a diagonal each product is a
    scaling with the GEMM's bits, so diagonal inner products leave the one
    n x m x n GEMM (Q^{-1} B M) B^T, on the operand the four GEMMs gave it."""
    b = np.asarray(b, dtype=float)
    if b.shape != (len(q_inv), len(m)):
        raise ValueError(f"incidence shape {b.shape} does not match inner products ({len(q_inv)}, {len(m)})")
    return _times(q_inv, _times(m, _times(q_inv, b), right=True) @ b.T, right=True)


# The spectra form their Laplacian at the caller's own scale: an overflow
# reads inf (0 * inf NaN) with no warning, and ``_spectrum`` refuses it by
# name. The verifiers' ``_laplacian_eigenvalues`` runs on the
# ``_unit_scaled`` pair, where the product cannot overflow, and skips the
# errstate, which costs a few microseconds per call.
@np.errstate(over="ignore", invalid="ignore")
def inner_product_laplacian(setup: IplSetup) -> SpectrumResult:
    """L_i of the setup at its target dimension."""
    i = setup.target_dim
    m_i = setup.inner[i]
    q_inv = m_i._inv_sqrt_operand
    lap = np.zeros((m_i.dim, m_i.dim))
    if i >= 1:
        b, q = setup.boundaries[i], m_i._sqrt_operand
        lap += _times(q, _times(q, b.T) @ setup.inner[i - 1].solve(b), right=True)
    if i < setup.dim:
        lap += _semi_hodge_matrix(setup.boundaries[i + 1], q_inv, setup.inner[i + 1]._operand)
    return _spectrum(lap, q_inv)


@np.errstate(over="ignore", invalid="ignore")
def semi_hodge(b, m_v: SpdMatrix, m_e: SpdMatrix) -> SpectrumResult:
    """Q_V^{-1} B M_E B^T Q_V^{-1} for a signed or unsigned incidence B."""
    q_inv = m_v._inv_sqrt_operand
    return _spectrum(_semi_hodge_matrix(b, q_inv, m_e._operand), q_inv)


def _laplacian_eigenvalues(b, m_v: SpdMatrix, m_e: SpdMatrix) -> np.ndarray:
    """The eigenvalues of ``semi_hodge(b, m_v, m_e)``, bit for bit: the same
    ``eigh`` of the same symmetrized ``_semi_hodge_matrix``, with no sign
    fix, harmonic vectors or kernel count. The verifiers read these alone."""
    lap = _semi_hodge_matrix(b, m_v._inv_sqrt_operand, m_e._operand)
    return np.linalg.eigh(0.5 * (lap + lap.T))[0]


def _incidence_of(carrier, m_v: SpdMatrix, m_e: SpdMatrix) -> np.ndarray:
    """Vertex-by-edge incidence of a Graph (its stored signed int64 array,
    once ``check_graph_inner_products`` passes), a Hypergraph, or an
    explicit matrix, with no float copy. The one refusal of a Hypergraph or
    matrix whose shape does not fit the inner products, naming both shapes."""
    if isinstance(carrier, Graph):
        check_graph_inner_products(carrier, m_v, m_e)
        return carrier.incidence
    h = carrier.incidence() if isinstance(carrier, Hypergraph) else np.asarray(carrier)
    if h.shape != (m_v.dim, m_e.dim):
        raise ValueError(f"incidence shape {h.shape} does not match inner products ({m_v.dim}, {m_e.dim})")
    return h


def _vertex_masses(h: np.ndarray, m_e: SpdMatrix) -> np.ndarray:
    """e({v}, vc) = 1_{E(v)}^T M_E 1_{E(v)} per vertex v, the mass of the
    edges whose incidence column h is nonzero at v."""
    return m_e.quad(h != 0)


def _vertex_ratios(h: np.ndarray, m_v: SpdMatrix, m_e: SpdMatrix) -> np.ndarray:
    """e({v}, vc) / M_V[v,v] per vertex v of the incidence h; omega is their max."""
    return _vertex_masses(h, m_e) / m_v._diagonal


def compatibility(carrier, m_v: SpdMatrix, m_e: SpdMatrix) -> Compatibility:
    """Least omega with 1_{E(v)}^T M_E 1_{E(v)} <= omega * M_V[v,v] for all v."""
    ratios = _vertex_ratios(_incidence_of(carrier, m_v, m_e), m_v, m_e)
    omega = float(ratios.max())
    perfect = bool(np.all(np.abs(ratios - omega) <= 1e-9 * abs(omega)))
    return Compatibility(omega=omega, perfect=perfect, per_vertex=ratios.tolist())


def _bound_inputs(carrier, m_v: SpdMatrix, m_e: SpdMatrix, force: bool):
    """What the Cheeger and spectral-radius verifiers read, refused in this
    order: the incidence (``_incidence_of``), the Laplacian eigenvalues,
    rho_V, rho_E, then omega, the max of the ``_vertex_ratios``."""
    b = _incidence_of(carrier, m_v, m_e)
    vals = _laplacian_eigenvalues(b, m_v, m_e)
    rho_v = weak_conformality_value(m_v, force=force)
    rho_e = weak_conformality_value(m_e, force=force)
    return b, vals, rho_v, rho_e, float(_vertex_ratios(b, m_v, m_e).max())


# The window of lambda_max in which a verifier takes an inner product as
# given, [2^-200, 2^200). With both inside it, and lambda_min above
# 1e-12 k lambda_max as ``SpdMatrix`` requires, the largest product a
# verifier forms (Cor_X Cor_Y, phi^2) stays below 2^1024, and phi^2 at its
# least above 2^-1022, so no value of a verifier leaves the doubles.
def _unit_scaled(m_v: SpdMatrix, m_e: SpdMatrix):
    """(M_V / 2^sv, M_E / 2^se, sv, se), the one range rule of the verifiers.

    Inside the window the very objects come back with sv = se = 0. An inner
    product outside it is rebuilt divided by the power of 4 that brings its
    lambda_max into [1/2, 2): an exact scaling, and its square root's too.
    Every theorem checked is homogeneous in M_V and M_E, so a verifier
    computes and decides on the scaled pair and hands each value to
    ``_rescaled`` with its units: sv per Vol, se per e(.,.), se - sv per
    lambda, phi and omega."""
    ev, ee = math.frexp(m_v.eigenvalues[-1])[1], math.frexp(m_e.eigenvalues[-1])[1]
    if -199 <= ev <= 200 and -199 <= ee <= 200:
        return m_v, m_e, 0, 0
    sv, se = (0 if -199 <= e <= 200 else e // 2 * 2 for e in (ev, ee))
    m_v, m_e = (SpdMatrix._of(np.ldexp(m._operand, -k)) if k else m for m, k in ((m_v, sv), (m_e, se)))
    return m_v, m_e, sv, se


def _rescaled(k: int, **values) -> dict:
    """The ``values`` (floats or arrays) of a scaled pair, each times 2^k by
    ``np.ldexp``, which is exact. The first one whose true value is outside
    the range of a double, past the largest or a nonzero below the least,
    is refused with one ValueError naming it and its size."""
    if not k:
        return values
    out = {}
    for name, value in values.items():
        with np.errstate(over="ignore"):
            out[name] = np.ldexp(value, k)
        bad = np.ravel(~np.isfinite(out[name]) | ((out[name] == 0) & (np.asarray(value) != 0)))
        if bad.any():
            from decimal import Decimal  # only a refusal needs it; keeps it out of ``import ipl``

            size = Decimal(float(np.ravel(value)[bad.argmax()])) * Decimal(2) ** k
            raise ValueError(f"{name} = {size:.2e} is outside the range of a double; rescale M_V and M_E")
    return out


def verify_radius_bound(carrier, m_v: SpdMatrix, m_e: SpdMatrix, *, force: bool = False) -> VerificationReport:
    """Spectral radius of the semi-Hodge Laplacian against its conformality bound.

    lambda_max <= (1+rho_V)/(1-rho_V) * ((1+rho_E)/(1-rho_E))^2 * r * omega,
    with r the largest hyperedge size and omega the compatibility constant,
    within 1e-9 plus eigh's backward error n eps lambda_max, as in
    ``verify_cheeger``.
    """
    m_v, m_e, sv, se = _unit_scaled(m_v, m_e)
    b, vals, rho_v, rho_e, omega = _bound_inputs(carrier, m_v, m_e, force)
    lam_max = float(vals[-1])
    # A Graph's edges have two ends (M_E has an edge, and Graph refuses
    # loops); counting them costs an n x m pass.
    rank = 2 if isinstance(carrier, Graph) else int((np.abs(b) > 0).sum(axis=0).max(initial=0))
    bound = (1 + rho_v) / (1 - rho_v) * ((1 + rho_e) / (1 - rho_e)) ** 2 * rank * omega
    return VerificationReport(
        check="semi-hodge-spectral-radius",
        passed=bool(lam_max <= bound + 1e-9 + np.finfo(float).eps * len(vals) * lam_max),
        values={
            **_rescaled(se - sv, lambda_max=lam_max),
            "rho_v": rho_v,
            "rho_e": rho_e,
            "rank": rank,
            **_rescaled(se - sv, omega=omega, bound=bound, margin=bound - lam_max),
        },
    )


def _orthonormal_range(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    if a.size == 0 or min(a.shape) == 0:
        return np.zeros((n, 0))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s[0] == 0.0:
        return np.zeros((n, 0))
    rank = int(np.sum(s > max(a.shape) * np.finfo(float).eps * s[0]))
    return u[:, :rank]


def hodge_decomposition(setup: IplSetup):
    """Orthogonal split R^n = Im(Q_i B_i^T Q_{i-1}^{-1}) + Ker(L_i) + Im(Q_i^{-1} B_{i+1} Q_{i+1}).

    The flanking subspaces are the images of the transposed and plain inner
    product boundary maps zeta_i = Q_{i-1}^{-1} B_i Q_i at dimensions i and
    i+1; both are invariant under L_i and orthogonal to its kernel. Returns
    three orthonormal bases plus a residual dictionary (pairwise cross-Gram
    norms and the composition residual of consecutive maps).
    """
    i = setup.target_dim
    m_i = setup.inner[i]
    n = m_i.dim
    if i >= 1:
        from_below = _times(setup.inner[i - 1]._inv_sqrt_operand, _times(m_i._sqrt_operand, setup.boundaries[i].T), right=True)
    else:
        from_below = np.zeros((n, 0))
    if i < setup.dim:
        from_above = _times(setup.inner[i + 1]._sqrt_operand, _times(m_i._inv_sqrt_operand, setup.boundaries[i + 1]), right=True)
    else:
        from_above = np.zeros((n, 0))
    basis_up = _orthonormal_range(from_below)
    basis_down = _orthonormal_range(from_above)
    spec = inner_product_laplacian(setup)
    basis_harmonic = spec.eigenvectors[:, : spec.zero_multiplicity]

    def gram(a, b):
        return float(np.linalg.norm(a.T @ b)) if a.size and b.size else 0.0

    residuals = {
        "up_harmonic": gram(basis_up, basis_harmonic),
        "up_down": gram(basis_up, basis_down),
        "harmonic_down": gram(basis_harmonic, basis_down),
        "dims": (basis_up.shape[1], basis_harmonic.shape[1], basis_down.shape[1]),
    }
    if 1 <= i <= setup.dim - 1:
        zeta_i = _times(m_i._sqrt_operand, _times(setup.inner[i - 1]._inv_sqrt_operand, setup.boundaries[i]), right=True)
        residuals["zeta_composition"] = float(np.linalg.norm(zeta_i @ from_above))
    return basis_up, basis_harmonic, basis_down, residuals


CLASSICAL_KINDS = ("combinatorial", "normalized", "signless", "normalized-signless")


def _classical_inner_products(kind: str, g: Graph, edge_weights=None) -> tuple[SpdMatrix, SpdMatrix]:
    """(M_V, M_E) of a textbook Laplacian: M_E the diagonal of the edge
    weights (default all ones), M_V the identity for the combinatorial and
    signless kinds and the weighted degree diagonal for the normalized ones.
    A graph with no edges has no M_E, and under the normalized kinds a
    vertex on no edge has degree 0 (the weights are positive): each is
    refused with one message that says so."""
    if not g.m:
        raise ValueError("the graph has no edges, so it has no classical edge inner product")
    w = np.ones(g.m) if edge_weights is None else edge_weights
    m_e = SpdMatrix.from_diagonal(w)
    if kind in ("combinatorial", "signless"):
        return SpdMatrix.identity(g.n), m_e
    # Unit weights: the degree count is |B| @ w bit for bit, every partial
    # sum being an integer below 2^53, in O(m) rather than O(n m).
    degrees = g.degrees().astype(float) if edge_weights is None else _vertex_masses(g.incidence, m_e)
    if not degrees.all():
        label = g.labels[int(np.argmin(degrees))]
        raise ValueError(f"vertex {label!r} is on no edge, so the {kind} vertex inner product (the degrees) is singular")
    return SpdMatrix.from_diagonal(degrees), m_e


def recover_classical(kind: str, g: Graph, edge_weights=None):
    """Vertex/edge inner products that reproduce a textbook Laplacian.

    Returns (M_V, M_E, SpectrumResult), the inner products being the
    ``_classical_inner_products`` of ``kind``. Signless variants route
    through the unsigned incidence.
    """
    if kind not in CLASSICAL_KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {CLASSICAL_KINDS}")
    w = None if edge_weights is None else check_weights("edge weights", edge_weights, g.m)
    m_v, m_e = _classical_inner_products(kind, g, w)
    b = graph_incidence(g) if kind in ("combinatorial", "normalized") else unsigned_incidence(g)
    return m_v, m_e, semi_hodge(b.astype(float), m_v, m_e)


def _support_ipl(graph: Graph, pair_w: np.ndarray, targets):
    """A Laplacian re-expressed on its support graph: the graph's float
    incidence B, M_E = diag(pair_w) and, for each (M_V, L) that ``targets``
    yields once M_E is built, the largest |entry| of semi_hodge(B, M_V, M_E) - L.
    The one home of this step of ``hypergraph_to_ipl`` and ``digraph_laplacian``.
    Pair weights too far apart for a positive definite M_E are refused as
    such: the caller gave no M_E."""
    b = graph_incidence(graph).astype(float)
    try:
        m_e = SpdMatrix.from_diagonal(pair_w)
    except NotPositiveDefiniteError:
        raise ValueError(
            f"the pair weights spread too far for a positive definite M_E = diag(pair weights): "
            f"least {pair_w.min():.3e} <= {len(pair_w)} * {PD_RTOL:.0e} * greatest {pair_w.max():.3e}"
        ) from None
    return b, m_e, [float(np.abs(semi_hodge(b, m_v, m_e).matrix - lap).max()) for m_v, lap in targets]


def hypergraph_to_ipl(hg: Hypergraph, d, d_tilde, w, pi):
    """Re-express L = D - Dt H W Ht Dt as an inner product Laplacian.

    Requires a strictly positive vector pi in the kernel of L. With
    ``d=None``, D is the kernel-consistent D pi = Dt H W H^T Dt pi
    entrywise, derived only once D-tilde, W and pi have passed their
    checks. The carrier
    is the clique expansion with pair weights
    pi_u pi_v dt_u dt_v sum_{e contains u,v} w_e, the vertex inner product
    is diag(pi)^2, and the resulting Laplacian reproduces L entrywise.
    Each residual is held to 1e-9 times the magnitude it is made of:
    max|L| max|pi| for L pi, max|L| max|pi|^2 for the conjugated identity
    and max|L| for the Laplacian, so neither the units of the weights nor
    the scale of pi change the verdict. pi^2 and the pair weights are
    range-checked first, naming the input; a max|L pi| that is still not
    finite (L itself overflows) fails the kernel check as such.
    """
    n = hg.n
    d = None if d is None else check_weights("D", d, n)
    dt, w, pi = check_weights("D-tilde", d_tilde, n), check_weights("W", w, hg.m), check_weights("pi", pi, n)
    h = hg.incidence().astype(float)
    graph, base_w = clique_expansion(hg, w)
    u, v = graph.ends
    # D, pi^2, the pair weights, L and L pi are formed first, an overflow
    # reading inf (or NaN), then checked in turn: the input that leaves the
    # range of a double is named, not the matrix built from it.
    with np.errstate(over="ignore", invalid="ignore"):
        if d is None:
            d = (dt * (h @ (w * (h.T @ (dt * pi))))) / pi
        pi_sq, pair_w = pi**2, pi[u] * pi[v] * dt[u] * dt[v] * base_w
        lap = np.diag(d) - (dt[:, None] * (_times(w, h, right=True) @ h.T) * dt[None, :])
        lap_pi = lap @ pi
    if not np.all(d > 0):  # a given D is positive, as check_weights refuses any other
        raise ValueError(f"the kernel-consistent D is not positive at vertex {hg.labels[np.argmin(d > 0)]!r}")
    for values, name, at, inputs in (
        (pi_sq, "pi^2", lambda i: hg.labels[i], "pi"),
        (pair_w, "the pair weight pi_u pi_v dt_u dt_v w", lambda i: (hg.labels[u[i]], hg.labels[v[i]]), "pi, D-tilde or W"),
    ):
        bad = np.flatnonzero(~((values > 0) & (values < np.inf)))
        if len(bad):
            raise ValueError(f"{name} leaves the range of a double at {at(bad[0])!r}; rescale {inputs}")
    lap_max, pi_max = float(np.abs(lap).max()), float(np.abs(pi).max())
    kernel_resid, tol = float(np.abs(lap_pi).max()), 1e-9 * lap_max * pi_max
    # Written so that a NaN residual fails it too.
    if not kernel_resid <= tol:
        detail = f"(tolerance {tol:.3e})" if np.isfinite(kernel_resid) else "is not finite; rescale D, D-tilde, W or pi"
        raise ValueError(f"pi is not in the kernel of L: max |L pi| = {kernel_resid:.3e} {detail}")
    m_v = SpdMatrix.from_diagonal(pi_sq)
    b, m_e, (ipl_resid,) = _support_ipl(graph, pair_w, [(m_v, lap)])
    conjugated = (pi[:, None] * lap) * pi[None, :]
    clique_resid = float(np.abs(conjugated - _semi_hodge_matrix(b, np.ones(n), pair_w)).max())
    report = VerificationReport(
        check="hypergraph-clique-expansion",
        passed=bool(clique_resid <= 1e-9 * lap_max * pi_max**2 and ipl_resid <= 1e-9 * lap_max),
        values={
            "kernel_residual": kernel_resid,
            "clique_identity_residual": clique_resid,
            "ipl_residual": ipl_resid,
            "pair_weights": pair_w.tolist(),
        },
    )
    return graph, m_v, m_e, report


def stationary_distribution(p: np.ndarray) -> np.ndarray:
    """Stationary distribution of an irreducible row-stochastic matrix.

    The chain is irreducible when the support of P is strongly connected;
    otherwise ValueError names its closed classes (states v1, v2, ... as in
    ``digraph_laplacian``), each of which carries a stationary vector of its
    own. For an irreducible chain pi is unique and positive, and solves
    [(I - P)^T; 1^T] pi = [0; 1] by least squares, which needs no
    aperiodicity. A pi whose least entry is not above n times the solve's
    own residual max |pi P - pi| is refused as not numerically positive:
    that entry may be rounding noise.
    """
    n = p.shape[0]
    reach = ((p > 0) | np.eye(n, dtype=bool)).astype(float)
    while True:
        grown = ((reach @ reach) > 0).astype(float)
        if np.array_equal(grown, reach):
            break
        reach = grown
    if not reach.all():
        reach = reach > 0
        closed = [i for i in range(n) if np.all(reach[:, i] >= reach[i])]
        classes = sorted({tuple(np.flatnonzero(reach[i]).tolist()) for i in closed})
        transient = [i for i in range(n) if i not in closed]
        names = ", ".join("{" + ", ".join(f"v{i + 1}" for i in c) + "}" for c in classes)
        detail = f"; transient states {{{', '.join(f'v{i + 1}' for i in transient)}}}" if transient else ""
        raise ValueError(f"chain is not ergodic: its support is not strongly connected (closed classes {names}{detail})")
    a = np.vstack([np.eye(n) - p.T, np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi = np.linalg.lstsq(a, b, rcond=None)[0]
    if not pi.min() > n * float(np.abs(pi @ p - pi).max()):
        raise ValueError("stationary distribution is not numerically positive; chain is too close to reducible")
    return pi


def digraph_laplacian(p):
    """Symmetrized digraph Laplacians of an ergodic chain, as IPLs.

    Returns (L, normalized_L, pi, report) with
    L = Pi - (Pi P + P^T Pi)/2 and
    normalized_L = I - (Pi^{1/2} P Pi^{-1/2} + Pi^{-1/2} P^T Pi^{1/2})/2.
    Both re-express as inner product Laplacians on the support graph
    ({u,v} is an edge iff P_uv > 0 or P_vu > 0).
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("transition matrix must be square")
    check_finite(p, "transition matrix")
    if np.any(p < 0):
        raise ValueError("transition matrix has negative entries")
    row_err = float(np.abs(p.sum(axis=1) - 1.0).max())
    if row_err > 1e-10:
        raise ValueError(f"rows must sum to 1 within 1e-10 (max error {row_err:.3e})")
    n = p.shape[0]
    pi = stationary_distribution(p)
    stat_resid = float(np.abs(pi @ p - pi).max())

    # Both are symmetric as built: entries (u, v) and (v, u) add the same two
    # rounded products in swapped order, and floating-point addition commutes.
    lap = np.diag(pi) - 0.5 * (pi[:, None] * p + p.T * pi[None, :])
    sq = np.sqrt(pi)
    norm_lap = np.eye(n) - 0.5 * ((sq[:, None] * p) / sq[None, :] + (p.T * sq[None, :]) / sq[:, None])

    u, v = np.nonzero(np.triu((p > 0) | (p.T > 0), 1))
    if not len(u):
        raise ValueError("support graph has no edges")
    graph = Graph(labels=tuple(f"v{i + 1}" for i in range(n)), edges=tuple(zip(u.tolist(), v.tolist())))
    pair_w = 0.5 * (pi[u] * p[u, v] + pi[v] * p[v, u])
    # M_V = I, then diag(pi), each built after M_E, whose refusal comes first.
    targets = ((SpdMatrix.from_diagonal(d), target) for d, target in ((np.ones(n), lap), (pi, norm_lap)))
    _, _, (resid_plain, resid_norm) = _support_ipl(graph, pair_w, targets)
    report = VerificationReport(
        check="digraph-laplacian",
        passed=bool(resid_plain <= 1e-9 and resid_norm <= 1e-9 and stat_resid <= 1e-10),
        values={
            "stationary_residual": stat_resid,
            "ipl_residual": resid_plain,
            "normalized_ipl_residual": resid_norm,
            "support_edges": [list(e) for e in graph.edges],
            "pair_weights": pair_w.tolist(),
        },
    )
    return lap, norm_lap, pi, report
