"""The units of the inner products change no tolerance test.

Symmetry, the kernel of an inner product Laplacian, a kernel vector of a
hypergraph Laplacian, the sign of a generalized spectrum, Neumann
multiplicities, Dirichlet spectra and the Cheeger verdict are all unchanged
when every weight is multiplied by one positive factor, so each test is
relative to the magnitude it tests, at every scale. Under a power of 4 the
verifiers are exact: each reported value is the unscaled one times its
units' power of 2, and each verdict is the unscaled one.
"""

import itertools
import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ipl.isoperimetry
from ipl import (
    Graph,
    Hypergraph,
    NotSymmetricError,
    SpdMatrix,
    gen_eig,
    graph_incidence,
    hypergraph_to_ipl,
    normalized_inner_products,
    semi_hodge,
    strong_conformality,
    verify_cheeger,
    verify_eml,
    verify_eml_batch,
    verify_radius_bound,
    weak_conformality,
)
from ipl.isoperimetry import dirichlet_eigenvalues, neumann_eigenvalue
from ipl.laplacian import _unit_scaled

from conftest import path_graph, random_connected_graph, random_spd, star_graph

SCALES = [1e-12, 1e-6, 1.0, 1e6, 1e12]


@pytest.mark.parametrize("c", SCALES)
def test_asymmetry_refused_at_every_scale(c):
    with pytest.raises(NotSymmetricError, match="asymmetric"):
        SpdMatrix(c * np.array([[1.0, 0.5], [0.0, 1.0]]))


@pytest.mark.parametrize("c", SCALES)
def test_connected_graph_kernel_is_one_dimensional_at_every_scale(c):
    rng = np.random.default_rng(77)
    g = random_connected_graph(rng, 7)
    cases = [(path_graph(3), SpdMatrix.identity(3), SpdMatrix.identity(2)), (g, random_spd(rng, g.n), random_spd(rng, g.m))]
    for graph, m_v, m_e in cases:
        b = graph_incidence(graph).astype(float)
        for scaled_v, scaled_e in ((SpdMatrix(c * m_v.entries), m_e), (m_v, SpdMatrix(c * m_e.entries))):
            assert semi_hodge(b, scaled_v, scaled_e).zero_multiplicity == 1


@pytest.mark.parametrize("c", SCALES)
def test_hypergraph_kernel_check_at_every_scale(c):
    hg = Hypergraph.from_edge_labels(["1", "2", "3"], [("1", "2"), ("2", "3")])
    h = hg.incidence().astype(float)
    w, dt = c * np.ones(hg.m), np.ones(hg.n)
    d = (h @ np.diag(w) @ h.T) @ dt
    with pytest.raises(ValueError, match="not in the kernel"):
        hypergraph_to_ipl(hg, d, dt, w, [1.0, 5.0, 1.0])
    # pi is a kernel vector at any scale of its own.
    for p in (1e-12, 1.0, 1e12):
        assert hypergraph_to_ipl(hg, d, dt, w, p * np.ones(hg.n))[3].passed


@pytest.mark.parametrize("c", SCALES)
def test_gen_eig_refuses_a_negative_left_hand_side_at_every_scale(c):
    with pytest.raises(ValueError, match="negative eigenvalue"):
        gen_eig(c * np.diag([1.0, -1e-3]), SpdMatrix.identity(2))
    assert gen_eig(c * np.diag([1.0, 0.0]), SpdMatrix.identity(2))[0][0] == 0.0


def weighted(g: Graph, c: float) -> Graph:
    # The same graph with every edge of weight c.
    class Weighted(Graph):
        def degrees(self):
            return c * Graph.degrees(self)

        def adjacency(self):
            return c * Graph.adjacency(self)

    return Weighted(g.labels, g.edges)


@pytest.mark.parametrize("c", SCALES)
def test_neumann_and_dirichlet_unchanged_by_scaling(c):
    rng = np.random.default_rng(5)
    for n in (5, 7, 9):
        g = random_connected_graph(rng, n, max_edges=2 * n)
        s = sorted(int(v) for v in rng.choice(n, n - 2, replace=False))
        plain, scaled = neumann_eigenvalue(g, s), neumann_eigenvalue(weighted(g, c), s)
        assert scaled.multiplicity == plain.multiplicity
        assert scaled.lambda_s == pytest.approx(plain.lambda_s, rel=1e-9, abs=1e-12)
        vals = dirichlet_eigenvalues(weighted(g, c), s)
        assert len(vals) == len(s)
        np.testing.assert_allclose(vals, dirichlet_eigenvalues(g, s), rtol=1e-9, atol=1e-12)


def cheeger_cases():
    # K2 with identity inner products meets the upper bound exactly
    # (lambda_2 = 2 phi); the rest are normalized, dense and diagonal pairs.
    rng = np.random.default_rng(25)
    cases = [(path_graph(2), SpdMatrix.identity(2), SpdMatrix.identity(1))]
    for g in (path_graph(2), path_graph(5), star_graph(4)):
        cases.append((g, *normalized_inner_products(g)))
    for n in (4, 6, 8):
        g = random_connected_graph(rng, n, max_edges=10)
        g = g.with_orientation([int(s) for s in rng.choice([-1, 1], g.m)])
        cases.append((g, random_spd(rng, n), random_spd(rng, g.m)))
        cases.append((g, SpdMatrix.from_diagonal(rng.uniform(0.5, 3.0, n)), SpdMatrix.from_diagonal(rng.uniform(0.5, 3.0, g.m))))
    return cases


@pytest.mark.parametrize("c", SCALES)
def test_cheeger_verdict_unchanged_by_scaling(c):
    for g, m_v, m_e in cheeger_cases():
        assert verify_cheeger(g, m_v, m_e).passed
        for scaled_v, scaled_e in ((SpdMatrix(c * m_v.entries), m_e), (m_v, SpdMatrix(c * m_e.entries))):
            rep = verify_cheeger(g, scaled_v, scaled_e)
            assert rep.passed, (g, c, rep.values)


def test_cheeger_tight_bound_at_a_tiny_vertex_mass():
    # lambda_2 = upper = 2e15 on K2 with M_V = 1e-15 I, equal to a few ulps.
    rep = verify_cheeger(path_graph(2), SpdMatrix(1e-15 * np.eye(2)), SpdMatrix.identity(1))
    assert rep.passed, rep.values
    assert abs(rep.values["upper_margin"]) <= 4 * np.spacing(2e15)


@pytest.mark.parametrize("c", SCALES)
def test_cheeger_fails_a_violation_ten_times_its_rounding_bound(c, monkeypatch):
    # On K2 with M_E = I and M_V = c I, rho = 0 makes upper exactly 2 phi, so
    # a conductance phi' lowers upper to 2 phi'. The verifier's rounding
    # bound is eps (n lambda_max + 64 (lower + upper)), with lambda_max =
    # lambda_2 and lower = phi^2 / (2 omega) = upper / 4.
    g, m_v, m_e = path_graph(2), SpdMatrix(c * np.eye(2)), SpdMatrix.identity(1)
    lam2 = verify_cheeger(g, m_v, m_e).values["lambda_2"]
    for factor, passed in ((10.0, False), (0.1, True)):
        upper = lam2 * (1 - factor * np.finfo(float).eps * (2 + 64 * 1.25))
        slack = np.finfo(float).eps * (2 * lam2 + 64 * (upper / 4 + upper))
        assert lam2 - upper == pytest.approx(factor * slack, rel=0.1)
        monkeypatch.setattr(ipl.isoperimetry, "conductance", lambda *args, **kwargs: (upper / 2, (0,), None))
        rep = verify_cheeger(g, m_v, m_e)
        assert (rep.values["upper"], rep.passed) == (upper, passed)


@pytest.mark.parametrize("eps", [1e-100, 1e-160, 1e-200, 1e-290, 1e-310])
def test_weak_pair_of_a_tiny_coupling_is_finite_and_unit(eps):
    m = SpdMatrix([[1.0, eps], [eps, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = weak_conformality(m)
    x, y = r.witness_x, r.witness_y
    assert np.isfinite(x).all() and np.isfinite(y).all()
    assert abs(m.quad(x) - 1.0) <= 1e-12
    assert abs(m.quad(y) - 1.0) <= 1e-12
    assert float(x @ m.entries @ y) >= 0.0


@pytest.mark.parametrize("eps", [1e-160, 1e-200, 1e-290])
def test_weak_conformality_of_a_tiny_coupling_is_the_coupling(eps):
    # value^2 = eps^2 leaves the normal range, so the scan ranks the
    # partition at 0; its score scales M_ST by a power of two first.
    r = weak_conformality(SpdMatrix([[1.0, eps], [eps, 1.0]]))
    assert abs(r.rho_weak - eps) <= 4 * np.spacing(eps)


def test_tiny_coupling_beside_a_strong_block_keeps_rho():
    # A 1e-170 coupling joins index 2 to the 0.3 block {0, 1}; a stack
    # holding both couplings is not scaled.
    a = np.eye(5)
    a[0, 1] = a[1, 0] = 0.3
    a[1, 2] = a[2, 1] = 1e-170
    r = weak_conformality(SpdMatrix(a))
    assert abs(r.rho_weak - 0.3) <= 4 * np.spacing(0.3)
    assert abs(r.witness_x @ a @ r.witness_y - r.rho_weak) <= 1e-15


def test_huge_finite_entries_are_scored_without_overflow(tmp_path):
    # Past 2^1023, A + A^T and lambda_max + lambda_min would overflow; both
    # are halved first, which is exact there, so 1e308 I scores like I, with
    # no warning and the same exit code under -W error.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"rows": (1e308 * np.eye(3)).tolist()}))
    runs = [
        subprocess.run([sys.executable, *flags, "-m", "ipl", "conformality", str(path)], capture_output=True, text=True)
        for flags in ([], ["-W", "error"])
    ]
    assert [(r.returncode, r.stderr) for r in runs] == [(0, "")] * 2
    assert runs[0].stdout == runs[1].stdout
    result = json.loads(runs[0].stdout)["result"]
    assert (result["rho_strong"], result["rho_weak"], result["witness_S"]) == (0, 0, [0])
    plain = np.array([[1.0, 0.1, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = SpdMatrix(1e308 * plain)
        assert not big.is_integral
        assert strong_conformality(big) == pytest.approx(strong_conformality(SpdMatrix(plain)), rel=1e-14)
        assert weak_conformality(big).rho_weak == pytest.approx(0.1, rel=1e-14)


# How each reported float of a verifier scales when M_V is multiplied by
# 4^j_V and M_E by 4^j_E: by 4^(v j_V + e j_E) for units (v, e). A value
# not listed (rho, rank, witnesses, counts) does not scale.
LAMBDA, MASS = (-1, 1), (0, 1)
VERIFIER_UNITS = {
    "cheeger": (verify_cheeger, dict.fromkeys(["phi", "lambda_2", "omega", "lower", "upper", "lower_margin", "upper_margin"], LAMBDA)),
    "radius": (verify_radius_bound, dict.fromkeys(["lambda_max", "omega", "bound", "margin"], LAMBDA)),
    "eml": (
        lambda g, m_v, m_e: verify_eml(g, m_v, m_e, [0, 1], [1, 2]),
        {
            **dict.fromkeys(["e_xy", "e_intersection", "pointwise_mass"], MASS),
            **dict.fromkeys(["cor_xy", "cor_x", "cor_y"], (2, 0)),
            "vol_g": (1, 0),
            **dict.fromkeys(["lambda_2", "lambda_n", "tau"], LAMBDA),
            **dict.fromkeys(["lhs", "rhs_spectral", "rhs_conformality", "margin", "lhs_lambda1", "rhs_spectral_lambda1", "margin_lambda1"], MASS),
        },
    ),
    "batch": (verify_eml_batch, {**dict.fromkeys(["min_margin", "worst_lhs", "worst_rhs"], MASS), **dict.fromkeys(["lambda_2", "lambda_n"], LAMBDA)}),
}
REFUSAL = re.compile(r"(\w+) = -?\d(\.\d+)?e[+-]\d+ is outside the range of a double; rescale M_V and M_E")


def times_power_of_4(m: SpdMatrix, j: int) -> SpdMatrix:
    """m times 4^j, formed exactly (np.ldexp)."""
    if m.is_diagonal:
        return SpdMatrix.from_diagonal(np.ldexp(np.diagonal(m.entries), 2 * j))
    return SpdMatrix(np.ldexp(m.entries, 2 * j))


def exact_scaling_cases(rng, graphs, most=7):
    """Per random connected graph (n = 3 to ``most``, at most 12 edges, so a
    dense M_E's weak conformality scan stays short): the normalized pair,
    and it with a dense M_E, then with a dense M_V."""
    for _ in range(graphs):
        g = random_connected_graph(rng, int(rng.integers(3, most + 1)), max_edges=12)
        m_v, m_e = normalized_inner_products(g)
        yield from ((g, m_v, m_e), (g, m_v, random_spd(rng, g.m)), (g, random_spd(rng, g.n), m_e))


def scaled_report_problems(verifier, units, g, m_v, m_e, j_v, j_e, base):
    """(refused, problems) of the verifier's call on (M_V 4^j_V, M_E 4^j_E)
    against ``base``, its report at j = 0. A problem is a moved verdict, a
    value other than the unscaled one times its units' power of 2 (sign of
    a zero included), a refusal naming any but the first value whose true
    size is not a double, or a refusal of another form."""
    with np.errstate(over="ignore"):
        want = {k: np.ldexp(v, 2 * (units[k][0] * j_v + units[k][1] * j_e)) if k in units else v for k, v in base.values.items()}
    past = [k for k, v in want.items() if k in units and not (np.isfinite(v) and (v != 0 or base.values[k] == 0))]
    try:
        report = verifier(g, times_power_of_4(m_v, j_v), times_power_of_4(m_e, j_e))
    except ValueError as exc:
        named = REFUSAL.fullmatch(str(exc))
        return True, [] if named and past[:1] == [named.group(1)] else [f"refused: {exc} (past the range: {past})"]
    moved = [k for k, v in want.items() if report.values[k] != v or k in units and np.signbit(report.values[k]) != np.signbit(v)]
    return False, (["verdict"] if report.passed != base.passed else []) + moved + past


def test_verifiers_scale_exactly_under_powers_of_4():
    # Every verifier computes and decides on inner products divided by the
    # power of 4 that brings lambda_max near 1 (laplacian._unit_scaled), and
    # reports each value times its units' power of 2 (laplacian._rescaled).
    # So under M_V 4^j_V and M_E 4^j_E each call either reports every float
    # as the unscaled one times that power, exactly, with the same verdict,
    # or refuses with the one line naming the first value that is no double.
    rng = np.random.default_rng(42)
    js = (-500, -150, 0, 150, 500)
    problems, refused = [], 0
    for g, m_v, m_e in exact_scaling_cases(rng, 40):
        for name, (verifier, units) in VERIFIER_UNITS.items():
            base = verifier(g, m_v, m_e)
            for j_v, j_e in itertools.product(js, js):
                was_refused, found = scaled_report_problems(verifier, units, g, m_v, m_e, j_v, j_e, base)
                problems += [(name, g.n, j_v, j_e, p) for p in found]
                refused += was_refused
    assert problems == []
    # 40 graphs, 3 pairs, 4 verifiers and 25 scalings: a share of the calls
    # has a value past the range (j_E - j_V = +-1000 always does).
    assert 0 < refused < 12000 // 2


EPS = np.finfo(float).eps


def sweep_slack(g, m_v, v):
    """1e-9 plus the sweep's 2 n eps lambda_n max_X Cor(X)/Vol(G), with
    Vol(G) and every Cor(X) formed as the sweep forms them."""
    s = ((np.arange(1 << g.n)[:, None] >> np.arange(g.n)) & 1).astype(float)
    c = 1.0 - s
    cor = m_v.quad(s) * m_v.quad(c) - ((s @ m_v.entries) * c).sum(axis=1) ** 2
    return 1e-9 + 2.0 * EPS * g.n * v["lambda_n"] * float(cor.max()) / float(np.sum(m_v.entries))


# The verdicts that allow an absolute 1e-9 plus eigh's backward error, as a
# rule on the graph, M_V and the values a verifier reports.
ABSOLUTE_SLACK = {
    "radius": lambda g, m_v, v: v["lambda_max"] <= v["bound"] + 1e-9 + EPS * g.n * v["lambda_max"],
    "eml": lambda g, m_v, v: v["margin"]
    >= -(1e-9 + EPS * g.n * v["lambda_n"] * (abs(v["cor_xy"]) + float(np.sqrt(max(v["cor_x"], 0.0) * max(v["cor_y"], 0.0)))) / v["vol_g"]),
    "batch": lambda g, m_v, v: v["min_margin"] >= -sweep_slack(g, m_v, v),
}


@pytest.mark.parametrize("j", [-99, 0, 99])
def test_inner_products_inside_the_window_are_taken_as_given(j):
    # With lambda_max in [2^-200, 2^200) for both, _unit_scaled hands back
    # the very objects, unscaled, so each verifier takes the path it took
    # before the range rule: its values are the j = 0 ones times their
    # units' power of 2, and a verdict with an absolute slack is decided on
    # those values as given (so at 4^99 it can differ from j = 0's). Up to
    # 4 vertices the degrees, and so every lambda_max here, lie in [1/2, 4).
    rng = np.random.default_rng(7)
    for g, m_v, m_e in exact_scaling_cases(rng, 6, most=4):
        s_v, s_e = times_power_of_4(m_v, j), times_power_of_4(m_e, j)
        scaled = _unit_scaled(s_v, s_e)
        assert scaled[0] is s_v and scaled[1] is s_e and scaled[2:] == (0, 0)
        for name, (verifier, units) in VERIFIER_UNITS.items():
            refused, problems = scaled_report_problems(verifier, units, g, m_v, m_e, j, j, verifier(g, m_v, m_e))
            assert not refused and set(problems) <= ({"verdict"} if name in ABSOLUTE_SLACK else set()), (name, problems)
            report = verifier(g, s_v, s_e)
            assert name not in ABSOLUTE_SLACK or report.passed == ABSOLUTE_SLACK[name](g, s_v, report.values)
