import itertools

import numpy as np
import pytest

from ipl import (
    EnumerationCapError,
    Graph,
    IplSetup,
    SpdMatrix,
    conductance,
    cut_stats,
    dirichlet_eigenvalues,
    inner_product_laplacian,
    neumann_eigenvalue,
    neumann_limit_experiment,
    normalized_inner_products,
    s_local_conductance,
    verify_cheeger,
    verify_eml,
    verify_eml_batch,
)

from conftest import (
    complete_graph,
    cycle_graph,
    mixing_example_graph,
    path_graph,
    random_connected_graph,
    random_spd,
    star_graph,
)


def k2():
    return Graph.from_edge_labels(["v1", "v2"], [("v1", "v2")])


def test_cut_stats_k2():
    g = k2()
    stats = cut_stats(g, SpdMatrix.identity(2), SpdMatrix.identity(1), [0], [1])
    assert stats.e_xy == 1.0
    assert stats.cor_xy == -1.0
    assert stats.cor_x == 1.0
    assert stats.cor_y == 1.0
    assert stats.boundary_edges == ((0, 1),)


def test_cut_stats_empty_set(rng):
    g = random_connected_graph(rng, 5)
    m_v, m_e = normalized_inner_products(g)
    stats = cut_stats(g, m_v, m_e, [], [0, 1])
    assert stats.vol_x == 0.0
    assert stats.e_xy == 0.0
    assert stats.cor_xy == 0.0


def test_cut_stats_symmetry_and_diagonal_correlation(rng):
    for _ in range(10):
        g = random_connected_graph(rng, 6)
        m_v = SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, g.n))
        m_e = random_spd(rng, g.m)
        x = [int(i) for i in np.flatnonzero(rng.random(g.n) < 0.5)]
        y = [int(i) for i in np.flatnonzero(rng.random(g.n) < 0.5)]
        a = cut_stats(g, m_v, m_e, x, y)
        b = cut_stats(g, m_v, m_e, y, x)
        assert a.e_xy == pytest.approx(b.e_xy, abs=1e-12)
        assert a.cor_xy == pytest.approx(b.cor_xy, abs=1e-10)
        # Diagonal vertex mass: the correlation degenerates to the volume product.
        assert a.cor_x == pytest.approx(a.vol_x * a.vol_x_comp, abs=1e-10)


def test_cut_stats_intersection_edges_count_once():
    g = path_graph(3)
    m_v, m_e = normalized_inner_products(g)
    stats = cut_stats(g, m_v, m_e, [0, 1, 2], [0, 1, 2])
    assert stats.e_xy == 2.0


def test_conductance_small_graphs():
    phi, witness, _ = conductance(k2())
    assert phi == pytest.approx(1.0)
    assert witness == (0,)

    phi, witness, _ = conductance(cycle_graph(4))
    assert phi == pytest.approx(0.5)
    assert witness == (0, 1)

    phi, witness, _ = conductance(path_graph(3))
    assert phi == pytest.approx(1.0)
    assert witness == (0,)


def test_conductance_matches_textbook_oracle(rng):
    # Independent subset loop against the vectorized enumeration.
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(3, 8)))
        deg = g.degrees().astype(float)
        best = np.inf
        for size in range(1, g.n):
            for subset in itertools.combinations(range(g.n), size):
                s = set(subset)
                cut = sum(1 for u, v in g.edges if (u in s) != (v in s))
                vol = deg[list(subset)].sum()
                best = min(best, cut / min(vol, deg.sum() - vol))
        phi, _, _ = conductance(g)
        assert phi == pytest.approx(best, abs=1e-12)
    # Dense and non-integer diagonal inner products, against a loop over
    # cut_stats: the witness must attain the minimum.
    for trial in range(8):
        g = random_connected_graph(rng, int(rng.integers(3, 8)))
        if trial % 2:
            m_v, m_e = random_spd(rng, g.n), random_spd(rng, g.m)
        else:
            m_v = SpdMatrix.from_diagonal(rng.uniform(0.3, 3.0, g.n))
            m_e = SpdMatrix.from_diagonal(rng.uniform(0.3, 3.0, g.m))

        def phi_of(subset):
            comp = [w for w in range(g.n) if w not in subset]
            st = cut_stats(g, m_v, m_e, subset, comp)
            return st.e_xy / min(st.vol_x, st.vol_y)

        best = min(
            phi_of(subset)
            for size in range(1, g.n)
            for subset in itertools.combinations(range(g.n), size)
        )
        phi, witness, _ = conductance(g, m_v, m_e)
        assert phi == pytest.approx(best, rel=1e-12, abs=1e-12)
        assert phi_of(witness) == pytest.approx(best, rel=1e-12, abs=1e-12)


def test_conductance_table_and_complement_symmetry(rng):
    g = cycle_graph(4)
    phi, witness, table = conductance(g, include_table=True)
    assert len(table) == 7
    by_subset = {tuple(r["subset"]): r["phi"] for r in table}
    assert by_subset[(0,)] == by_subset[(0, 2, 3)] == pytest.approx(1.0)
    # Phi(S) = Phi(complement): evaluate both sides from raw cut statistics.
    g2 = random_connected_graph(rng, 6)
    m_v, m_e = SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, 6)), random_spd(rng, g2.m)
    for subset in ((0,), (1, 3), (0, 2, 4), (1, 2, 3, 4)):
        comp = tuple(sorted(set(range(6)) - set(subset)))
        a = cut_stats(g2, m_v, m_e, subset, comp)
        phi_s = a.e_xy / min(a.vol_x, a.vol_y)
        b = cut_stats(g2, m_v, m_e, comp, subset)
        phi_c = b.e_xy / min(b.vol_x, b.vol_y)
        assert phi_s == pytest.approx(phi_c, abs=1e-12)


def test_conductance_disconnected_and_cap():
    g = Graph.from_edge_labels(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    phi, witness, _ = conductance(g)
    assert phi == 0.0
    assert witness == (0, 1)
    with pytest.raises(EnumerationCapError):
        conductance(path_graph(6), cap=5)
    phi, _, _ = conductance(path_graph(6), cap=5, force=True)
    assert phi > 0


def test_conductance_inner_product_weighting():
    g = path_graph(3)
    m_v = SpdMatrix.identity(3)
    m_e = SpdMatrix(np.eye(2) + np.ones((2, 2)))
    phi, witness, table = conductance(g, m_v, m_e, include_table=True)
    # Three cuts: {v1} and {v1,v2} cost a single edge (mass 2) over volume 1;
    # {v1,v3} cuts both edges (joint mass 6) over the middle vertex's volume 1.
    values = {tuple(r["subset"]): r["phi"] for r in table}
    assert values[(0,)] == pytest.approx(2.0)
    assert values[(0, 1)] == pytest.approx(2.0)
    assert values[(0, 2)] == pytest.approx(6.0)
    assert phi == pytest.approx(2.0)
    assert witness == (0,)


def test_cheeger_k2_upper_tight():
    g = k2()
    m_v, m_e = normalized_inner_products(g)
    rep = verify_cheeger(g, m_v, m_e)
    assert rep.passed
    v = rep.values
    assert v["lower"] == pytest.approx(0.5)
    assert v["upper"] == pytest.approx(2.0)
    assert v["lambda_2"] == pytest.approx(2.0)
    assert v["upper_margin"] == pytest.approx(0.0, abs=1e-12)


def test_cheeger_p3_normalized():
    g = path_graph(3)
    rep = verify_cheeger(g, *normalized_inner_products(g))
    assert rep.passed
    assert rep.values["lambda_2"] == pytest.approx(1.0, abs=1e-9)
    assert rep.values["lower"] == pytest.approx(0.5)
    assert rep.values["upper"] == pytest.approx(2.0)


def test_cheeger_zero_conformality_reduction(rng):
    # Diagonal inner products collapse the correction factors exactly.
    g = random_connected_graph(rng, 6)
    m_v = SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, g.n))
    m_e = SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, g.m))
    rep = verify_cheeger(g, m_v, m_e)
    assert rep.passed
    v = rep.values
    phi, omega = v["phi"], v["omega"]
    assert v["lower"] == pytest.approx(phi**2 / (2 * omega), abs=1e-12)
    assert v["upper"] == pytest.approx(2 * phi, abs=1e-12)


def test_cheeger_fuzz(rng):
    for trial in range(20):
        g = random_connected_graph(rng, int(rng.integers(3, 8)), max_edges=9)
        g = g.with_orientation([int(s) for s in rng.choice([-1, 1], g.m)])
        m_v = SpdMatrix.from_diagonal(rng.uniform(0.5, 3.0, g.n))
        m_e = random_spd(rng, g.m) if trial % 2 else SpdMatrix.from_diagonal(rng.uniform(0.5, 3.0, g.m))
        rep = verify_cheeger(g, m_v, m_e)
        assert rep.passed, rep.values


def test_eml_k2_equality():
    g = k2()
    m_v, m_e = normalized_inner_products(g)
    rep = verify_eml(g, m_v, m_e, [0], [1])
    assert rep.passed
    v = rep.values
    assert v["lhs"] == pytest.approx(0.0, abs=1e-12)
    assert v["rhs_spectral"] == pytest.approx(0.0, abs=1e-12)
    assert v["rho_e"] == 0.0


def test_eml_full_vertex_set(rng):
    g = random_connected_graph(rng, 5)
    m_v = SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, g.n))
    m_e = random_spd(rng, g.m)
    rep = verify_eml(g, m_v, m_e, range(g.n), range(g.n))
    assert rep.passed
    assert rep.values["cor_xy"] == pytest.approx(0.0, abs=1e-9)


def test_eml_batch_matches_single(rng):
    # The sweep's minimum margin is the least single-pair margin over every
    # (X, Y), and its worst pair attains it, for dense and diagonal M_E.
    for n, dense in ((5, True), (4, True), (4, False), (5, False)):
        g = random_connected_graph(rng, n, max_edges=7)
        m_v = SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, g.n))
        m_e = random_spd(rng, g.m) if dense else SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, g.m))
        batch = verify_eml_batch(g, m_v, m_e)
        assert batch.passed
        spectrum = inner_product_laplacian(IplSetup.from_graph(g, m_v, m_e))

        def margin(x, y):
            rep = verify_eml(g, m_v, m_e, x, y, rho_e=batch.values["rho_e"], spectrum=spectrum)
            return rep.values["margin"]

        worst = margin(batch.values["worst_x"], batch.values["worst_y"])
        assert worst == pytest.approx(batch.values["min_margin"], abs=1e-9)
        subsets = [s for size in range(n + 1) for s in itertools.combinations(range(n), size)]
        margins = [margin(x, y) for x in subsets for y in subsets]
        assert batch.values["pairs_checked"] == len(margins)
        assert batch.values["min_margin"] == pytest.approx(min(margins), abs=1e-9)


def test_eml_mixing_example_needs_conformality_term():
    g, m_v, m_e, a_idx, b_idx = mixing_example_graph(2)
    with_term = verify_eml(g, m_v, m_e, a_idx, b_idx)
    assert with_term.passed
    without = verify_eml(g, m_v, m_e, a_idx, b_idx, include_conformality_term=False)
    assert not without.passed


def test_dirichlet_examples():
    assert dirichlet_eigenvalues(path_graph(3), [1]) == pytest.approx([1.0])
    np.testing.assert_allclose(dirichlet_eigenvalues(path_graph(4), [1, 2]), [0.5, 1.5], atol=1e-12)


def test_dirichlet_errors():
    g = Graph.from_edge_labels(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    with pytest.raises(ValueError):
        dirichlet_eigenvalues(g, [0, 1])
    with pytest.raises(ValueError):
        dirichlet_eigenvalues(path_graph(3), [])


def test_dirichlet_positive_and_counted(rng):
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(3, 8)))
        size = int(rng.integers(1, g.n))
        subset = sorted(rng.choice(g.n, size=size, replace=False).tolist())
        vals = dirichlet_eigenvalues(g, subset)
        assert len(vals) == len(subset)
        assert vals[0] > 1e-12


def test_neumann_p4_middle_pair():
    res = neumann_eigenvalue(path_graph(4), [1, 2])
    assert res.lambda_s == pytest.approx(1.0, abs=1e-12)
    assert res.subset == (1, 2)
    assert res.boundary == (0, 3)
    f = dict(zip(res.vertices, res.values))
    assert f[0] == pytest.approx(f[1], abs=1e-12)
    assert f[3] == pytest.approx(f[2], abs=1e-12)
    assert f[1] == pytest.approx(-f[2], abs=1e-12)
    # Degree-weighted mean zero and unit norm on the subset.
    assert 2 * f[1] + 2 * f[2] == pytest.approx(0.0, abs=1e-12)
    assert 2 * f[1] ** 2 + 2 * f[2] ** 2 == pytest.approx(1.0, abs=1e-12)


def rayleigh_quotient(g, res):
    f = dict(zip(res.vertices, res.values))
    s = set(res.subset)
    num = sum((f[u] - f[v]) ** 2 for u, v in g.edges if u in s or v in s)
    deg = g.degrees()
    den = sum(f[v] ** 2 * deg[v] for v in res.subset)
    return num / den


def test_neumann_rayleigh_consistency(rng):
    for _ in range(8):
        g = random_connected_graph(rng, int(rng.integers(4, 8)))
        size = int(rng.integers(2, g.n))
        subset = sorted(rng.choice(g.n, size=size, replace=False).tolist())
        if not set(range(g.n)) - set(subset):
            continue
        res = neumann_eigenvalue(g, subset)
        assert rayleigh_quotient(g, res) == pytest.approx(res.lambda_s, abs=1e-9)
        deg = g.degrees()
        constraint = sum(v * deg[s] for v, s in zip(res.values, res.subset))
        assert constraint == pytest.approx(0.0, abs=1e-9)


def test_neumann_sampled_oracle_c4():
    g = cycle_graph(4)
    res = neumann_eigenvalue(g, [0, 1])
    rng = np.random.default_rng(424242)
    deg = g.degrees().astype(float)
    verts = list(res.vertices)
    s_idx = list(range(len(res.subset)))
    d_s = deg[list(res.subset)]
    s_set = set(res.subset)
    edges = [
        (verts.index(u), verts.index(v))
        for u, v in g.edges
        if (u in s_set or v in s_set) and u in verts and v in verts
    ]
    best = np.inf
    for _ in range(100000):
        f = rng.standard_normal(len(verts))
        fs = f[s_idx]
        fs = fs - (d_s @ fs) / (d_s @ d_s) * d_s
        f[s_idx] = fs
        den = float(np.sum(d_s * fs**2))
        if den < 1e-12:
            continue
        num = sum((f[a] - f[b]) ** 2 for a, b in edges)
        best = min(best, num / den)
    assert best >= res.lambda_s - 1e-12
    assert best - res.lambda_s <= 1e-3


def test_neumann_errors():
    with pytest.raises(ValueError):
        neumann_eigenvalue(path_graph(4), [1])
    with pytest.raises(ValueError):
        neumann_eigenvalue(path_graph(4), [0, 1, 2, 3])
    g = Graph.from_edge_labels(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    with pytest.raises(ValueError):
        neumann_eigenvalue(g, [0, 1])


def test_neumann_sweep_p4():
    res = neumann_limit_experiment(path_graph(4), [1, 2])
    assert res.converged
    assert res.lambda_gap <= 1e-4
    assert res.vector_gap <= 1e-3
    assert all(r["zero_multiplicity"] == 1 for r in res.epsilon_trace)
    lambdas = [r["lambda_2"] for r in res.epsilon_trace]
    assert abs(lambdas[-1] - 1.0) < 1e-6


def test_neumann_single_step_test_vector_bound(rng):
    # A two-point test vector supported on s, t in the subset bounds the
    # second eigenvalue by (deg s + deg t + 2*[s ~ t])/(deg s + deg t) at
    # every epsilon; with a nonadjacent pair available the bound is 1.
    for _ in range(8):
        g = random_connected_graph(rng, int(rng.integers(4, 7)))
        size = int(rng.integers(2, g.n - 1))
        subset = sorted(rng.choice(g.n, size=size, replace=False).tolist())
        res = neumann_limit_experiment(g, subset, [0.5])
        lam = res.epsilon_trace[0]["lambda_2"]
        deg = g.degrees()
        adj = g.adjacency()
        bound = min(
            (deg[s] + deg[t] + 2 * adj[s, t]) / (deg[s] + deg[t])
            for i, s in enumerate(subset)
            for t in subset[i + 1 :]
        )
        assert lam <= bound + 1e-9
        if any(
            not adj[s, t] for i, s in enumerate(subset) for t in subset[i + 1 :]
        ):
            assert lam <= 1.0 + 1e-9


def test_neumann_sweep_c5_three_path():
    g = cycle_graph(5)
    res = neumann_limit_experiment(g, [0, 1, 2])
    assert res.converged
    assert res.lambda_gap <= 1e-4


def test_neumann_schedule_validation():
    with pytest.raises(ValueError):
        neumann_limit_experiment(path_graph(4), [1, 2], [0.5, 0.5])
    with pytest.raises(ValueError):
        neumann_limit_experiment(path_graph(4), [1, 2], [1.5])


def test_s_local_examples():
    phi_s, rep = s_local_conductance(path_graph(4), [1, 2])
    assert phi_s == pytest.approx(1.0)
    assert rep.passed
    assert rep.values["witness_T"] in ([1], [2])

    g = complete_graph(4)
    phi_s, rep = s_local_conductance(g, [0, 1])
    assert rep.passed

    g = cycle_graph(4)
    phi_s, rep = s_local_conductance(g, [0, 2])
    assert rep.passed

    phi_s, rep = s_local_conductance(star_graph(4), [0, 1, 2, 3])
    assert rep.passed


def test_s_local_cap():
    with pytest.raises(EnumerationCapError):
        s_local_conductance(cycle_graph(8), range(7), cap=5)
