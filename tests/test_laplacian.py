import itertools

import numpy as np
import pytest

from ipl import (
    Graph,
    Hypergraph,
    IplSetup,
    NonFiniteError,
    SpdMatrix,
    build_complex,
    compatibility,
    digraph_laplacian,
    graph_incidence,
    hodge_decomposition,
    hypergraph_to_ipl,
    inner_product_laplacian,
    normalized_inner_products,
    recover_classical,
    semi_hodge,
    unsigned_incidence,
    verify_radius_bound,
)
from ipl.laplacian import stationary_distribution

from conftest import (
    combinatorial_laplacian,
    complete_graph,
    mixing_example_graph,
    path_graph,
    random_connected_graph,
    random_spd,
)


def p3_with_shared_edge_mass():
    g = path_graph(3)
    return g, SpdMatrix.identity(3), SpdMatrix(np.eye(2) + np.ones((2, 2)))


def test_p3_orientation_classes():
    g, m_v, m_e = p3_with_shared_edge_mass()
    same = inner_product_laplacian(IplSetup.from_graph(g, m_v, m_e))
    np.testing.assert_allclose(
        same.matrix, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], atol=1e-12
    )
    np.testing.assert_allclose(same.eigenvalues, [0, 3, 3], atol=1e-9)

    flipped = inner_product_laplacian(IplSetup.from_graph(g.with_orientation((1, -1)), m_v, m_e))
    np.testing.assert_allclose(
        flipped.matrix, [[2, -3, 1], [-3, 6, -3], [1, -3, 2]], atol=1e-12
    )
    np.testing.assert_allclose(flipped.eigenvalues, [0, 1, 9], atol=1e-9)


def test_identity_inner_products_give_combinatorial(rng):
    g = random_connected_graph(rng, 6)
    spec = inner_product_laplacian(
        IplSetup.from_graph(g, SpdMatrix.identity(g.n), SpdMatrix.identity(g.m))
    )
    np.testing.assert_allclose(spec.matrix, combinatorial_laplacian(g), atol=1e-12)


def test_ipl_symmetric_psd_and_kernel(rng):
    for _ in range(8):
        g = random_connected_graph(rng, 6)
        m_v = random_spd(rng, g.n)
        m_e = random_spd(rng, g.m)
        spec = inner_product_laplacian(IplSetup.from_graph(g, m_v, m_e))
        assert np.abs(spec.matrix - spec.matrix.T).max() <= 1e-12
        assert spec.eigenvalues[0] >= -1e-9 * max(spec.eigenvalues[-1], 1.0)
        kernel_vec = m_v.sqrt_entries @ np.ones(g.n)
        assert np.abs(spec.matrix @ kernel_vec).max() <= 1e-9 * max(spec.eigenvalues[-1], 1.0)
        assert spec.zero_multiplicity == 1


def test_zero_multiplicity_counts_components(rng):
    g = Graph.from_edge_labels(["a", "b", "c", "d", "e"], [("a", "b"), ("c", "d"), ("d", "e")])
    spec = inner_product_laplacian(
        IplSetup.from_graph(g, SpdMatrix.identity(5), SpdMatrix.identity(3))
    )
    assert spec.zero_multiplicity == 2


def test_spectrum_invariant_under_orientations_for_diagonal_edge_mass(rng):
    g = random_connected_graph(rng, 5, max_edges=6)
    m_v = random_spd(rng, g.n)
    m_e = SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, g.m))
    reference = None
    for signs in itertools.product((1, -1), repeat=g.m):
        spec = inner_product_laplacian(IplSetup.from_graph(g.with_orientation(signs), m_v, m_e))
        if reference is None:
            reference = spec.eigenvalues
        else:
            np.testing.assert_allclose(spec.eigenvalues, reference, atol=1e-9)


def test_harmonic_eigenvectors_definition(rng):
    g = random_connected_graph(rng, 5)
    m_v = random_spd(rng, g.n)
    spec = inner_product_laplacian(IplSetup.from_graph(g, m_v, SpdMatrix.identity(g.m)))
    np.testing.assert_allclose(
        m_v.sqrt_entries @ spec.harmonic_eigenvectors, spec.eigenvectors, atol=1e-9
    )


def test_semi_hodge_signless_variants(rng):
    g = random_connected_graph(rng, 6)
    h = unsigned_incidence(g).astype(float)
    d = np.diag(g.degrees().astype(float))
    a = g.adjacency().astype(float)

    spec = semi_hodge(h, SpdMatrix.identity(g.n), SpdMatrix.identity(g.m))
    np.testing.assert_allclose(spec.matrix, d + a, atol=1e-12)

    spec = semi_hodge(h, SpdMatrix(d), SpdMatrix.identity(g.m))
    d_half = np.diag(1.0 / np.sqrt(np.diagonal(d)))
    np.testing.assert_allclose(spec.matrix, d_half @ (d + a) @ d_half, atol=1e-12)

    spec = semi_hodge(graph_incidence(g).astype(float), SpdMatrix.identity(g.n), SpdMatrix.identity(g.m))
    np.testing.assert_allclose(spec.matrix, d - a, atol=1e-12)


def test_compatibility_classical_pairs(rng):
    g = random_connected_graph(rng, 7)
    deg = g.degrees().astype(float)
    comp = compatibility(g, SpdMatrix.from_diagonal(deg), SpdMatrix.identity(g.m))
    assert comp.omega == pytest.approx(1.0)
    assert comp.perfect

    comp = compatibility(g, SpdMatrix.identity(g.n), SpdMatrix.identity(g.m))
    assert comp.omega == pytest.approx(float(deg.max()))
    assert comp.perfect == bool(np.all(deg == deg.max()))


def test_compatibility_to_dict_is_plain():
    g = path_graph(3)
    d = compatibility(g, SpdMatrix.identity(g.n), SpdMatrix.identity(g.m)).to_dict()
    assert d == {"omega": 2.0, "perfect": False, "per_vertex": [1.0, 2.0, 1.0]}
    assert type(d["omega"]) is float and type(d["perfect"]) is bool


def test_compatibility_mixing_example_is_perfect():
    g, m_v, m_e, _, _ = mixing_example_graph(2)
    comp = compatibility(g, m_v, m_e)
    assert comp.omega == pytest.approx(1.0, abs=1e-12)
    assert comp.perfect


def test_radius_bound_normalized_is_two(rng):
    g = random_connected_graph(rng, 6)
    deg = g.degrees().astype(float)
    rep = verify_radius_bound(g, SpdMatrix.from_diagonal(deg), SpdMatrix.identity(g.m))
    assert rep.passed
    assert rep.values["bound"] == pytest.approx(2.0)
    assert rep.values["lambda_max"] <= 2.0 + 1e-9


def test_radius_bound_combinatorial_k3():
    g = complete_graph(3)
    rep = verify_radius_bound(g, SpdMatrix.identity(3), SpdMatrix.identity(3))
    assert rep.passed
    assert rep.values["bound"] == pytest.approx(4.0)
    assert rep.values["lambda_max"] == pytest.approx(3.0, abs=1e-9)


def test_radius_bound_p3_shared_edge_mass():
    g, m_v, m_e = p3_with_shared_edge_mass()
    rep = verify_radius_bound(g.with_orientation((1, -1)), m_v, m_e)
    assert rep.passed
    v = rep.values
    assert v["rho_e"] == pytest.approx(0.5, abs=1e-9)
    assert v["rank"] == 2
    # The middle vertex sees both edges: 1^T (I+J) 1 = 6 against vertex mass 1.
    assert v["omega"] == pytest.approx(6.0)
    assert v["lambda_max"] == pytest.approx(9.0, abs=1e-9)
    assert v["bound"] == pytest.approx(108.0, abs=1e-6)


def test_radius_bound_fuzz(rng):
    for _ in range(10):
        g = random_connected_graph(rng, 6, max_edges=9)
        m_v = random_spd(rng, g.n)
        m_e = random_spd(rng, g.m)
        assert verify_radius_bound(g, m_v, m_e).passed


def test_radius_verdict_allows_for_eigh_rounding():
    # With the normalized M_V times 1e-12 the bound of a tree is tight:
    # lambda_max is 2e12 exactly, against a bound of exactly 2e12, and
    # eigh's last bit on lambda_max, up to n eps lambda_max, fails nothing.
    rng = np.random.default_rng(0)
    trees = [path_graph(3)]
    for n in rng.integers(3, 9, 20).tolist():
        edges = sorted((int(rng.integers(0, i)), i) for i in range(1, n))
        trees.append(Graph(labels=tuple(f"v{i}" for i in range(n)), edges=tuple(edges)))
    for g in trees:
        m_v, m_e = normalized_inner_products(g)
        rep = verify_radius_bound(g, SpdMatrix.from_diagonal(1e-12 * m_v._diagonal), m_e)
        assert rep.passed, (g.edges, rep.values)
        assert rep.values["bound"] == 2e12
        assert rep.values["margin"] >= -np.finfo(float).eps * g.n * rep.values["lambda_max"]


@pytest.mark.parametrize("dense_e", [False, True], ids=["diagonal-ME", "dense-ME"])
def test_radius_bound_on_hypergraphs(dense_e):
    # The hypergraph form of the bound: r is the largest hyperedge, and the
    # carrier is the Hypergraph itself, whose incidence is unsigned.
    rng = np.random.default_rng(31 + dense_e)
    for n in range(3, 8):
        for _ in range(8):
            labels = [f"v{i}" for i in range(n)]
            sizes = rng.integers(1, n + 1, int(rng.integers(1, 9)))
            hg = Hypergraph.from_edge_labels(labels, [rng.choice(labels, size, replace=False) for size in sizes])
            m_v = random_spd(rng, n) if rng.random() < 0.5 else SpdMatrix.from_diagonal(rng.uniform(0.5, 3.0, n))
            m_e = random_spd(rng, hg.m) if dense_e else SpdMatrix.from_diagonal(rng.uniform(0.5, 3.0, hg.m))
            rep = verify_radius_bound(hg, m_v, m_e)
            assert rep.passed, (hg, rep.values)
            assert rep.values["rank"] == hg.rank
            spec = semi_hodge(hg.incidence(), m_v, m_e)
            assert rep.values["lambda_max"] == spec.eigenvalues[-1]


def test_radius_rank_comes_from_the_carrier():
    # A Graph's rank is 2 and a Hypergraph's its largest hyperedge, as the
    # count of nonzero incidence entries per edge gives for the same
    # incidence passed as a matrix: the reports are identical.
    rng = np.random.default_rng(37)
    for n in range(3, 8):
        g = random_connected_graph(rng, n)
        labels = [f"v{i}" for i in range(n)]
        sizes = rng.integers(1, n + 1, int(rng.integers(1, 6)))
        hg = Hypergraph.from_edge_labels(labels, [rng.choice(labels, size, replace=False) for size in sizes])
        for carrier, incidence in ((g, g.incidence), (hg, hg.incidence())):
            m = incidence.shape[1]
            m_v, m_e = random_spd(rng, n), random_spd(rng, m)
            got = verify_radius_bound(carrier, m_v, m_e)
            want = verify_radius_bound(np.array(incidence), m_v, m_e)
            assert got.values == want.values and got.passed == want.passed
            assert got.values["rank"] == int((incidence != 0).sum(axis=0).max())


def test_mismatched_graph_gets_the_shared_message():
    # Every reader of a Graph's incidence refuses inner products that do not
    # fit it with the one message of check_graph_inner_products.
    message = (
        "inner product dimensions must match vertex and edge counts: "
        "M_V is 2x2 and M_E is 2x2, the graph has 3 vertices and 2 edges"
    )
    for call in (compatibility, verify_radius_bound, IplSetup.from_graph):
        with pytest.raises(ValueError) as refused:
            call(path_graph(3), SpdMatrix.identity(2), SpdMatrix.identity(2))
        assert str(refused.value) == message, call


def test_hodge_triangle_dims():
    k = build_complex([("a", "b", "c")])
    setup = IplSetup.from_complex(
        k, [SpdMatrix.identity(3), SpdMatrix.identity(3), SpdMatrix.identity(1)], target_dim=1
    )
    up, harm, down, res = hodge_decomposition(setup)
    assert res["dims"] == (2, 0, 1)


def test_hodge_graph_dims():
    g = path_graph(3)
    setup = IplSetup.from_graph(g, SpdMatrix.identity(3), SpdMatrix.identity(2))
    _, harm, _, res = hodge_decomposition(setup)
    assert res["dims"] == (0, 1, 2)
    two = Graph.from_edge_labels(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    setup = IplSetup.from_graph(two, SpdMatrix.identity(4), SpdMatrix.identity(2))
    _, harm, _, res = hodge_decomposition(setup)
    assert res["dims"][1] == 2


def random_complex(rng, max_vertices=8, max_dim=3):
    n = int(rng.integers(4, max_vertices + 1))
    labels = [f"x{i}" for i in range(n)]
    facets = []
    for _ in range(int(rng.integers(2, 6))):
        size = int(rng.integers(1, max_dim + 2))
        verts = rng.choice(n, size=min(size, n), replace=False)
        facets.append(tuple(labels[v] for v in verts))
    return build_complex(facets)


def test_hodge_random_complexes(rng):
    for _ in range(12):
        k = random_complex(rng)
        inner = [random_spd(rng, k.face_count(i)) for i in range(k.dimension + 1)]
        for target in range(k.dimension + 1):
            setup = IplSetup.from_complex(k, inner, target_dim=target)
            up, harm, down, res = hodge_decomposition(setup)
            n = k.face_count(target)
            assert res["dims"][0] + res["dims"][1] + res["dims"][2] == n
            assert res["up_harmonic"] <= 1e-9
            assert res["up_down"] <= 1e-9
            assert res["harmonic_down"] <= 1e-9
            if "zeta_composition" in res:
                assert res["zeta_composition"] <= 1e-10


def test_hodge_nonzero_spectrum_splits(rng):
    k = build_complex([("a", "b", "c"), ("b", "c", "d"), ("d", "e")])
    inner = [random_spd(rng, k.face_count(i)) for i in range(k.dimension + 1)]
    setup = IplSetup.from_complex(k, inner, target_dim=1)
    spec = inner_product_laplacian(setup)
    m1 = inner[1]
    q, q_inv = m1.sqrt_entries, m1.inv_sqrt_entries
    b1, b2 = setup.boundaries[1], setup.boundaries[2]
    down_term = q @ b1.T @ inner[0].solve(b1) @ q
    up_term = q_inv @ b2 @ inner[2].entries @ b2.T @ q_inv
    threshold = 1e-9 * max(float(spec.eigenvalues[-1]), 1.0)

    def nonzero(matrix):
        vals = np.linalg.eigvalsh(0.5 * (matrix + matrix.T))
        return vals[vals > threshold]

    combined = np.sort(np.concatenate([nonzero(down_term), nonzero(up_term)]))
    ipl_nonzero = spec.eigenvalues[spec.eigenvalues > threshold]
    np.testing.assert_allclose(ipl_nonzero, combined, atol=1e-8)


def test_zeta_composition_random_inner_products(rng):
    k = build_complex([("a", "b", "c"), ("a", "c", "d")])
    inner = [random_spd(rng, k.face_count(i)) for i in range(3)]
    z1 = inner[0].inv_sqrt_entries @ k_boundary(k, 1) @ inner[1].sqrt_entries
    z2 = inner[1].inv_sqrt_entries @ k_boundary(k, 2) @ inner[2].sqrt_entries
    assert np.linalg.norm(z1 @ z2) <= 1e-10


def k_boundary(k, i):
    from ipl import boundary_matrix

    return boundary_matrix(k, i).astype(float)


def test_coboundary_flag_inverts_inner_products():
    g, m_v, m_e = p3_with_shared_edge_mass()
    setup = IplSetup.from_graph(g, m_v, m_e)
    inverted = setup.with_inverted_inner_products()
    spec = inner_product_laplacian(inverted)
    expect = inner_product_laplacian(
        IplSetup.from_graph(g, SpdMatrix(m_v.inverse()), SpdMatrix(m_e.inverse()))
    )
    np.testing.assert_allclose(spec.matrix, expect.matrix, atol=1e-12)


def test_recover_classical_textbook(rng):
    g = random_connected_graph(rng, 6)
    d = np.diag(g.degrees().astype(float))
    a = g.adjacency().astype(float)
    d_half = np.diag(1.0 / np.sqrt(np.diagonal(d)))
    expected = {
        "combinatorial": d - a,
        "normalized": d_half @ (d - a) @ d_half,
        "signless": d + a,
        "normalized-signless": d_half @ (d + a) @ d_half,
    }
    for kind, ref in expected.items():
        _, _, spec = recover_classical(kind, g)
        np.testing.assert_allclose(spec.matrix, ref, atol=1e-12)
    _, _, spec = recover_classical("normalized", g)
    assert spec.eigenvalues[0] >= -1e-10
    assert spec.eigenvalues[-1] <= 2.0 + 1e-10


def test_recover_classical_weighted(rng):
    g = path_graph(4)
    w = rng.uniform(0.5, 2.0, g.m)
    m_v, m_e, spec = recover_classical("combinatorial", g, w)
    b = graph_incidence(g).astype(float)
    np.testing.assert_allclose(spec.matrix, b @ np.diag(w) @ b.T, atol=1e-12)
    with pytest.raises(ValueError):
        recover_classical("combinatorial", g, np.zeros(g.m))
    with pytest.raises(ValueError):
        recover_classical("median", g)


def test_recover_k2_normalized():
    g = Graph.from_edge_labels(["v1", "v2"], [("v1", "v2")])
    _, _, spec = recover_classical("normalized", g)
    np.testing.assert_allclose(spec.matrix, [[1, -1], [-1, 1]], atol=1e-12)
    np.testing.assert_allclose(spec.eigenvalues, [0, 2], atol=1e-12)


def test_classical_inner_products_refuse_a_vertex_on_no_edge_by_label():
    # The normalized kinds need every degree positive; the combinatorial
    # kinds take any graph with an edge. A graph with no edges has no M_E.
    lonely = Graph.from_edge_labels(["a", "b", "c", "d"], [("a", "b"), ("c", "a")])
    for kind in ("normalized", "normalized-signless"):
        with pytest.raises(ValueError, match=f"^vertex 'd' is on no edge, so the {kind} vertex"):
            recover_classical(kind, lonely)
    recover_classical("combinatorial", lonely)
    empty = Graph.from_edge_labels(["a", "b"], [])
    for kind in ("normalized", "combinatorial"):
        with pytest.raises(ValueError, match="^the graph has no edges"):
            recover_classical(kind, empty)


def test_hypergraph_to_ipl_single_triangle():
    hg = Hypergraph.from_edge_labels(["1", "2", "3"], [("1", "2", "3")])
    graph, m_v, m_e, rep = hypergraph_to_ipl(hg, [3.0, 3, 3], [1.0, 1, 1], [1.0], [1.0, 1, 1])
    assert rep.passed
    assert graph.edges == ((0, 1), (0, 2), (1, 2))
    _, _, spec = recover_classical("combinatorial", graph)
    np.testing.assert_allclose(spec.matrix, 3 * np.eye(3) - np.ones((3, 3)), atol=1e-9)


def test_hypergraph_to_ipl_two_uniform_identity(rng):
    g = random_connected_graph(rng, 5)
    hg = Hypergraph(labels=g.labels, hyperedges=g.edges)
    # H W H^T = D + A for a 2-uniform hypergraph, so the kernel-consistent
    # degree diagonal is twice the graph degree and L comes out as D - A.
    graph, m_v, m_e, rep = hypergraph_to_ipl(
        hg, 2.0 * g.degrees().astype(float), np.ones(g.n), np.ones(g.m), np.ones(g.n)
    )
    assert rep.passed
    assert graph.edges == g.edges
    np.testing.assert_allclose(np.diagonal(m_e.entries), np.ones(g.m))


def test_hypergraph_to_ipl_weighted_pair():
    hg = Hypergraph.from_edge_labels(["1", "2", "3"], [("1", "2"), ("1", "2", "3")])
    w = np.array([1.0, 2.0])
    h = hg.incidence().astype(float)
    d = h @ (w * (h.T @ np.ones(3)))
    graph, _, m_e, rep = hypergraph_to_ipl(hg, d, np.ones(3), w, np.ones(3))
    assert rep.passed
    weights = dict(zip(graph.edges, np.diagonal(m_e.entries)))
    assert weights[(0, 1)] == pytest.approx(3.0)
    assert weights[(0, 2)] == pytest.approx(2.0)
    assert weights[(1, 2)] == pytest.approx(2.0)


def test_hypergraph_to_ipl_rejects_bad_kernel():
    hg = Hypergraph.from_edge_labels(["1", "2", "3"], [("1", "2", "3")])
    with pytest.raises(ValueError, match="kernel"):
        hypergraph_to_ipl(hg, [1.0, 1, 1], [1.0, 1, 1], [1.0], [1.0, 1, 1])


def test_digraph_two_cycle():
    lap, norm_lap, pi, rep = digraph_laplacian([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(pi, [0.5, 0.5])
    np.testing.assert_allclose(lap, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)
    assert rep.passed


def test_digraph_k3_walk():
    p = (np.ones((3, 3)) - np.eye(3)) / 2
    lap, norm_lap, pi, rep = digraph_laplacian(p)
    np.testing.assert_allclose(pi, np.full(3, 1 / 3), atol=1e-12)
    np.testing.assert_allclose(lap, (3 * np.eye(3) - np.ones((3, 3))) / 6, atol=1e-12)
    assert rep.passed


def test_digraph_formula_oracle(rng):
    for _ in range(5):
        n = int(rng.integers(2, 7))
        p = rng.uniform(0.05, 1.0, (n, n))
        p = p / p.sum(axis=1, keepdims=True)
        lap, norm_lap, pi, rep = digraph_laplacian(p)
        big_pi = np.diag(pi)
        np.testing.assert_allclose(lap, big_pi - 0.5 * (big_pi @ p + p.T @ big_pi), atol=1e-12)
        root = np.diag(np.sqrt(pi))
        root_inv = np.diag(1.0 / np.sqrt(pi))
        expect = np.eye(n) - 0.5 * (root @ p @ root_inv + root_inv @ p.T @ root)
        np.testing.assert_allclose(norm_lap, 0.5 * (expect + expect.T), atol=1e-12)
        assert rep.passed
        assert np.abs(pi @ p - pi).max() <= 1e-10


def test_digraph_lazy_walk_support_is_clique_expansion():
    p0 = np.array([[0.0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]])
    p = 0.5 * (np.eye(3) + p0)
    _, _, _, rep = digraph_laplacian(p)
    assert rep.values["support_edges"] == [[0, 1], [1, 2]]
    assert rep.passed


def test_digraph_rejects_bad_chains():
    with pytest.raises(ValueError):
        digraph_laplacian([[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(ValueError, match="not ergodic"):
        # State 1 is transient: the stationary weight of state 0 vanishes.
        digraph_laplacian([[0.5, 0.5], [0.0, 1.0]])


def test_stationary_distribution_deterministic():
    p = np.array([[0.9, 0.1], [0.4, 0.6]])
    a = stationary_distribution(p)
    b = stationary_distribution(p)
    assert np.array_equal(a, b)
    np.testing.assert_allclose(a @ p, a, atol=1e-11)


def test_stationary_distribution_refuses_rounding_noise():
    # A 4-state chain with transition probabilities near 1e-153: its true
    # pi_3 is about 2.7e-153, and least squares gives 4.3e-17, under the
    # solve's own residual max |pi P - pi| = 2.4e-17 times n.
    p = np.array(
        [
            [1, 8.549744116080263e-154, 0, 0],
            [0, 1, 1.8875402337824767e-154, 0],
            [0, 0, 1, 4.4078610786455795e-153],
            [5.4959317645938576e-154, 0, 0.5484335181361428, 0.45156648186385717],
        ]
    )
    with pytest.raises(ValueError, match="^stationary distribution is not numerically positive; chain is too close to reducible$"):
        stationary_distribution(p)


def test_vertex_and_edge_laplacians_share_nonzero_spectrum(rng):
    # L_0 and L_1 are built from the same boundary map, so their nonzero
    # spectra coincide for any inner products.
    for _ in range(5):
        g = random_connected_graph(rng, 6)
        m_v = random_spd(rng, g.n)
        m_e = random_spd(rng, g.m)
        spec0 = inner_product_laplacian(IplSetup.from_graph(g, m_v, m_e, target_dim=0))
        spec1 = inner_product_laplacian(IplSetup.from_graph(g, m_v, m_e, target_dim=1))
        thr = 1e-9 * max(spec0.eigenvalues[-1], spec1.eigenvalues[-1], 1.0)
        nz0 = spec0.eigenvalues[spec0.eigenvalues > thr]
        nz1 = spec1.eigenvalues[spec1.eigenvalues > thr]
        assert len(nz0) == len(nz1)
        np.testing.assert_allclose(nz0, nz1, atol=1e-8)


I1, I2 = SpdMatrix.identity(1), SpdMatrix.identity(2)
EDGE = build_complex([("a", "b")])
AB = Hypergraph.from_edge_labels(["a", "b"], [("a", "b")])
H4 = Hypergraph.from_edge_labels(["1", "2", "3", "4"], [("1", "2", "3"), ("3", "4")])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: IplSetup([np.zeros((0, 2))], [I2, I1], 0), "expected one boundary matrix per dimension (index 0 is the zero map)"),
        (lambda: IplSetup([np.zeros((0, 2)), np.ones((3, 1))], [I2, I1], 0), "boundary 1 has shape (3, 1), inner products require (2, 1)"),
        (lambda: IplSetup([np.zeros((0, 2)), np.ones((2, 1))], [I2, I1], 2), "target dimension 2 out of range 0..1"),
        (lambda: IplSetup.from_complex(EDGE, [I2], 0), "complex has dimensions 0..1, got 1 inner products"),
        (lambda: IplSetup.from_complex(EDGE, [I2, I2], 0), "inner product 1 has dim 2, complex has 1 faces"),
        (lambda: semi_hodge(np.ones((3, 2)), I2, I2), "incidence shape (3, 2) does not match inner products (2, 2)"),
        (lambda: compatibility(np.ones((3, 2)), I2, I2), "incidence shape (3, 2) does not match inner products (2, 2)"),
        (lambda: recover_classical("combinatorial", path_graph(3), [1.0]), "edge weights must be a vector of length 2"),
        (lambda: recover_classical("combinatorial", path_graph(3), [1.0, 0.0]), "edge weights must be strictly positive"),
        (lambda: recover_classical("normalized", path_graph(3), [1.0, np.nan]), "edge weights must be strictly positive"),
        (lambda: recover_classical("normalized", path_graph(3), [1.0, np.inf]), "edge weights must be finite"),
        (lambda: hypergraph_to_ipl(Hypergraph.from_edge_labels(["a", "b"], [("a", "b")]), [1.0], [1, 1], [1], [1, 1]), "D must be a vector of length 2"),
        # Each vector of the corpus hypergraph h4 with one entry +inf. An
        # infinite D used to pass, with kernel_residual = inf.
        (lambda: hypergraph_to_ipl(H4, [np.inf, 3, 7, 4], np.ones(4), [1, 2], [1, 2, 1, 1]), "D must be finite"),
        (lambda: hypergraph_to_ipl(H4, None, [1, np.inf, 1, 1], [1, 2], [1, 2, 1, 1]), "D-tilde must be finite"),
        (lambda: hypergraph_to_ipl(H4, None, np.ones(4), [1, np.inf], [1, 2, 1, 1]), "W must be finite"),
        (lambda: hypergraph_to_ipl(H4, None, np.ones(4), [1, 2], [1, 2, 1, np.inf]), "pi must be finite"),
        # Irreducible, but pi_2 = 1e-20 is below the rounding of the least-squares solve.
        (lambda: digraph_laplacian([[1 - 1e-20, 1e-20], [1.0, 0.0]]), "stationary distribution is not numerically positive; chain is too close to reducible"),
        (lambda: digraph_laplacian([[0.5, 0.5]]), "transition matrix must be square"),
        (lambda: digraph_laplacian([[1.5, -0.5], [0.5, 0.5]]), "transition matrix has negative entries"),
        (lambda: digraph_laplacian([[1.0]]), "support graph has no edges"),
        # The corpus chain with the one-way transition v1 -> v3 of 1e-15: its
        # pair weight 1.25e-16 is below 5 * 1e-12 times the largest, 0.21875.
        # The refusal names the pair weights, not an M_E the caller never gave.
        (
            lambda: digraph_laplacian(
                [[0, 0.875, 1e-15, 0.125 - 1e-15], [0.875, 0, 0.125, 0], [0, 0.125, 0, 0.875], [0.125, 0, 0.875 - 1e-15, 1e-15]]
            ),
            "the pair weights spread too far for a positive definite M_E = diag(pair weights): least 1.250e-16 <= 5 * 1e-12 * greatest 2.188e-01",
        ),
        # pi is in the kernel of L, but pi^2 overflows or underflows, or the
        # pair weight 1e100 1e100 1e75 1e75 does.
        (lambda: hypergraph_to_ipl(AB, None, [1, 1], [1], [1e200, 1e200]), "pi^2 leaves the range of a double at 'a'; rescale pi"),
        (lambda: hypergraph_to_ipl(AB, None, [1, 1], [1], [1e-200, 1e-200]), "pi^2 leaves the range of a double at 'a'; rescale pi"),
        (
            lambda: hypergraph_to_ipl(AB, None, [1e75, 1e75], [1], [1e100, 1e100]),
            "the pair weight pi_u pi_v dt_u dt_v w leaves the range of a double at ('a', 'b'); rescale pi, D-tilde or W",
        ),
    ],
    ids=[
        "boundary-count", "boundary-shape", "target-dimension", "complex-inner-product-count", "complex-inner-product-dim",
        "semi-hodge-shape", "compatibility-shape", "edge-weights-length", "edge-weight-zero", "edge-weight-nan",
        "edge-weight-inf", "hypergraph-d-length", "hypergraph-d-inf", "hypergraph-dt-inf", "hypergraph-w-inf", "hypergraph-pi-inf",
        "stationary-not-positive", "transition-not-square", "transition-negative", "support-no-edges",
        "pair-weight-spread", "hypergraph-pi-overflow", "hypergraph-pi-underflow", "hypergraph-pair-weight-overflow",
    ],
)
def test_refusals_name_their_input(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert type(refused.value) is ValueError and str(refused.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: semi_hodge(graph_incidence(complete_graph(2)), SpdMatrix.from_diagonal([1e-154] * 2), SpdMatrix([[1e300]])),
            "the Laplacian has a non-finite entry: inf at row 0, column 0",
        ),
        (
            lambda: inner_product_laplacian(
                IplSetup.from_graph(path_graph(3), SpdMatrix.from_diagonal([1e-154] * 3), SpdMatrix.from_diagonal([1e300] * 2))
            ),
            "the Laplacian has a non-finite entry: inf at row 0, column 0",
        ),
        (
            lambda: hypergraph_to_ipl(H4, None, np.full(4, 1e160), [1, 2], [1, 2, 1, 1]),
            "the pair weight pi_u pi_v dt_u dt_v w leaves the range of a double at ('1', '2'); rescale pi, D-tilde or W",
        ),
        (
            lambda: hypergraph_to_ipl(H4, None, np.ones(4), [1e308, 1e308], [1, 2, 1, 1]),
            "the kernel-consistent D is not positive at vertex '1'",
        ),
    ],
    ids=["semi-hodge-k2", "ipl-path3", "hypergraph-d-tilde", "hypergraph-w"],
)
def test_overflow_is_refused_by_name_without_a_warning(call, message):
    # Each product overflows to inf (or 0 * inf to NaN); under the suite's
    # warnings-as-errors a RuntimeWarning would surface before the refusal.
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message


def test_transition_matrix_with_a_nan_is_refused_as_non_finite():
    # A NaN fails no sign or row-sum test, and used to surface as "chain is
    # not ergodic".
    with pytest.raises(NonFiniteError) as refused:
        digraph_laplacian([[0.5, np.nan], [0.5, 0.5]])
    assert str(refused.value) == "transition matrix has a non-finite entry: nan at row 0, column 1"


def test_hypergraph_kernel_check_refuses_a_nan_residual():
    # D-tilde = 1e200 and pi = 1e-150 keep pi^2 and the pair weights
    # (1e100 w) doubles, but make the kernel-consistent D inf, and L's
    # diagonal D - Dt H W H^T Dt is inf - inf = NaN: max |L pi| is NaN,
    # which the check used to let through (eigh then failed to converge).
    # Forming L warns, so the test quiets numpy.
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as refused:
        hypergraph_to_ipl(H4, None, np.full(4, 1e200), [1, 2], np.full(4, 1e-150))
    assert str(refused.value) == "pi is not in the kernel of L: max |L pi| = nan is not finite; rescale D, D-tilde, W or pi"


def test_carrier_shape_refusal_is_one_message():
    # A Hypergraph or a matrix of 3 vertices and 2 edges against 2 x 2 inner
    # products: compatibility and the radius bound refuse it alike.
    hg = Hypergraph.from_edge_labels(["a", "b", "c"], [("a", "b"), ("b", "c")])
    for carrier in (hg, hg.incidence().astype(float)):
        for check in (compatibility, verify_radius_bound):
            with pytest.raises(ValueError) as refused:
                check(carrier, I2, I2)
            assert str(refused.value) == "incidence shape (3, 2) does not match inner products (2, 2)"


def test_digraph_support_pairs_are_those_of_the_pairwise_loop(rng):
    # {u, v} is a support edge when P_uv > 0 or P_vu > 0: a chain with
    # one-way transitions, then random sparse chains around a cycle. The
    # report holds plain ints and floats.
    chains = [np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]])]
    for n in range(2, 9):
        p = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < 0.4)
        p[np.arange(n), (np.arange(n) + 1) % n] = rng.uniform(0.1, 1.0, n)
        chains.append(p / p.sum(axis=1)[:, None])
    for p in chains:
        n = len(p)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if p[u, v] > 0 or p[v, u] > 0]
        _, _, pi, report = digraph_laplacian(p)
        assert report.values["support_edges"] == [[u, v] for u, v in pairs]
        assert report.values["pair_weights"] == [0.5 * (pi[u] * p[u, v] + pi[v] * p[v, u]) for u, v in pairs]
        assert all(type(a) is int for e in report.values["support_edges"] for a in e)
        assert all(type(w) is float for w in report.values["pair_weights"])


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def semi_hodge_cases(rng):
    """(label, B, Q^-1 diagonal, M diagonal): each kind of pair the product
    is formed from, with diagonal inner products."""
    for n in range(2, 12):
        g = random_connected_graph(rng, n)
        b = graph_incidence(g.with_orientation(rng.choice([-1, 1], g.m))).astype(float)
        yield f"fuzz n={n}", b, 1.0 / np.sqrt(rng.uniform(0.5, 4.0, n)), rng.uniform(0.5, 4.0, g.m)
        yield f"normalized n={n}", b, 1.0 / np.sqrt(g.degrees().astype(float)), np.ones(g.m)
        # The Neumann sweep's pair: weights 1 or eps, masses eps times the
        # weighted degree off a subset.
        in_s = rng.random(n) < 0.5
        u, v = g.ends
        for eps in (1e-1, 1e-4, 1e-8):
            w = np.where(in_s[u] | in_s[v], 1.0, eps)
            deg = unsigned_incidence(g).astype(float) @ w
            yield f"neumann n={n} eps={eps:g}", b, 1.0 / np.sqrt(np.where(in_s, deg, eps * deg)), w
    for n in (3, 6, 9):
        hyperedges = [tuple(sorted(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False).tolist())) for _ in range(n)]
        hg = Hypergraph(tuple(f"v{i}" for i in range(n)), tuple(sorted(set(hyperedges))))
        yield f"hypergraph n={n}", hg.incidence().astype(float), 1.0 / np.sqrt(rng.uniform(0.5, 4.0, n)), rng.uniform(0.5, 4.0, hg.m)
        # hypergraph_to_ipl's clique identity: Q^-1 = I, M = the pair weights.
        clique = complete_graph(n)
        yield f"clique n={n}", graph_incidence(clique).astype(float), np.ones(n), rng.uniform(0.1, 9.0, clique.m)
    # Two components: eigenvectors with exact zeros, -0.0 after the sign fix.
    g = Graph.from_edge_labels(list("abcdefg"), [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("f", "g")])
    yield "two components", graph_incidence(g).astype(float), 1.0 / np.sqrt(rng.uniform(0.5, 4.0, 7)), rng.uniform(0.5, 4.0, 6)


def test_semi_hodge_product_is_the_four_gemm_product_bit_for_bit():
    # Diagonal Q^-1 and M are applied as scalings, leaving one GEMM; the
    # product and the harmonic vectors Q^-1 V keep the bits of the dense
    # q_inv @ b @ m @ b.T @ q_inv and q_inv @ V, signs of zero included. A
    # dense M goes through its own GEMM, beside the diagonal Q^-1.
    from ipl.laplacian import _semi_hodge_matrix, _spectrum

    rng = np.random.default_rng(3830)
    zeros = 0
    for label, b, q, d in semi_hodge_cases(rng):
        q_inv = np.diag(q)
        got = _semi_hodge_matrix(b, q, d)
        assert same_bits(got, q_inv @ b @ np.diag(d) @ b.T @ q_inv), label
        spec = _spectrum(got, q)
        assert same_bits(spec.harmonic_eigenvectors, q_inv @ spec.eigenvectors), label
        zeros += int(np.signbit(spec.eigenvectors[spec.eigenvectors == 0.0]).sum())
        m = random_spd(rng, len(d)).entries
        assert same_bits(_semi_hodge_matrix(b, q, m), q_inv @ b @ m @ b.T @ q_inv), label
    assert zeros > 0


@pytest.mark.parametrize("n, mv, me", [(2, 1e-154, 1e300), (3, 1e-300, 1e100)], ids=["k2", "path3"])
def test_spectra_refuse_a_non_finite_laplacian_by_name(n, mv, me):
    # Q_V^-1 B M_E B^T Q_V^-1 overflows. Decomposed as it stands, K2's gave
    # the eigenvalues [nan, nan] with no kernel and the 3-path's an eigh that
    # did not converge; both spectra refuse it, naming its first non-finite
    # entry. numpy's overflow warning comes first, and is silenced here as
    # the CLI silences it.
    g = path_graph(n)
    m_v, m_e = SpdMatrix.from_diagonal(np.full(n, mv)), SpdMatrix.from_diagonal(np.full(n - 1, me))
    calls = {
        "semi_hodge": lambda: semi_hodge(graph_incidence(g).astype(float), m_v, m_e),
        "inner_product_laplacian": lambda: inner_product_laplacian(IplSetup.from_graph(g, m_v, m_e)),
    }
    for name, call in calls.items():
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError) as refused:
            call()
        assert str(refused.value) == "the Laplacian has a non-finite entry: inf at row 0, column 0", name


def test_graph_scale_diagonal_inner_products_allocate_no_m_by_m_array():
    # At n = 300, m = 1200 (a path plus random edges) none of these calls
    # allocates as much as one m x m float array: the default inner products
    # are stored as their diagonals, and the products scale by them. Each of
    # the last three calls gets a pair of its own, so that none reads a dense
    # view another call formed; cut_stats forms no n x n array, and
    # verify_eml leaves M_E's dense view unformed.
    import tracemalloc

    from ipl import cut_stats, normalized_inner_products, verify_eml, weak_conformality_sampled

    rng = np.random.default_rng(1)
    n, m = 300, 1200
    edges = {(i, i + 1) for i in range(n - 1)}
    while len(edges) < m:
        edges.add(tuple(sorted(int(x) for x in rng.choice(n, 2, replace=False))))
    g = Graph(labels=tuple(f"v{i}" for i in range(n)), edges=tuple(sorted(edges)))
    b = graph_incidence(g).astype(float)
    inner = []
    # compatibility reads the graph's stored incidence as it is: one n x m
    # boolean mask and its float copy, under 1.5 float n x m arrays.
    calls = {
        "normalized_inner_products": (lambda: inner.extend(normalized_inner_products(g)), m * m * 8),
        "semi_hodge": (lambda: semi_hodge(b, *inner), m * m * 8),
        "verify_radius_bound": (lambda: verify_radius_bound(g, *inner), m * m * 8),
        "compatibility": (lambda: compatibility(g, *inner), 1.5 * n * m * 8),
    }
    x, y = range(0, n, 2), range(n // 3, n)
    stats_pair, eml_pair, sampled_pair = (normalized_inner_products(g) for _ in range(3))
    calls["cut_stats"] = (lambda: cut_stats(g, *stats_pair, x, y), n * n * 8 / 2)
    calls["verify_eml"] = (lambda: verify_eml(g, *eml_pair, x, y), 5 * n * m * 8)
    calls["weak_conformality_sampled"] = (lambda: weak_conformality_sampled(sampled_pair[1], 64, 0), m * m * 8 / 2)
    tracemalloc.start()
    try:
        for name, (call, limit) in calls.items():
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            assert tracemalloc.get_traced_memory()[1] - base < limit, name
    finally:
        tracemalloc.stop()
    assert eml_pair[1]._entries is None
