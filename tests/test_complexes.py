import numpy as np
import pytest

from ipl import (
    Graph,
    Hypergraph,
    boundary_matrix,
    build_complex,
    clique_expansion,
    graph_incidence,
    unsigned_incidence,
)

from conftest import path_graph, random_connected_graph


def test_full_triangle_closure():
    k = build_complex([("a", "b", "c")])
    assert k.dimension == 2
    assert [k.face_count(i) for i in range(3)] == [3, 3, 1]


def test_path_complex():
    k = build_complex([("a", "b"), ("b", "c")])
    assert k.dimension == 1
    assert [k.face_count(i) for i in range(2)] == [3, 2]


def test_triangle_plus_pendant_edge():
    k = build_complex([("a", "b", "c"), ("c", "d")])
    assert [k.face_count(i) for i in range(3)] == [4, 4, 1]


def test_downward_closure_property():
    k = build_complex([("a", "b", "c", "d"), ("c", "d", "e")])
    for i in range(1, k.dimension + 1):
        lower = set(k.faces_by_dim[i - 1])
        for face in k.faces_by_dim[i]:
            for j in range(len(face)):
                assert face[:j] + face[j + 1 :] in lower
    for faces in k.faces_by_dim:
        assert list(faces) == sorted(set(faces))


def test_empty_facet_rejected():
    with pytest.raises(ValueError):
        build_complex([()])
    with pytest.raises(ValueError):
        build_complex([])


def test_boundary_triangle_edges():
    k = build_complex([("a", "b", "c")])
    b1 = boundary_matrix(k, 1)
    assert b1.shape == (3, 3)
    for col in b1.T:
        assert sorted(col) == [-1, 0, 1]
    b2 = boundary_matrix(k, 2)
    # Rows follow the sorted edge order (a,b), (a,c), (b,c).
    np.testing.assert_array_equal(b2[:, 0], [1, -1, 1])
    np.testing.assert_array_equal(b1 @ b2, np.zeros((3, 1), dtype=np.int64))


def test_boundary_path_matches_incidence():
    k = build_complex([("a", "b"), ("b", "c")])
    np.testing.assert_array_equal(boundary_matrix(k, 1), [[-1, 0], [1, -1], [0, 1]])


def test_boundary_dim_zero_is_zero_map():
    k = build_complex([("a", "b")])
    assert boundary_matrix(k, 0).shape == (0, 2)
    with pytest.raises(ValueError):
        boundary_matrix(k, 2)


def test_boundary_composition_and_column_structure():
    k = build_complex([("a", "b", "c", "d"), ("b", "c", "e")])
    for i in range(1, k.dimension + 1):
        b = boundary_matrix(k, i)
        for col in b.T:
            nz = col[col != 0]
            assert len(nz) == i + 1
            assert np.array_equal(np.abs(nz), np.ones(i + 1, dtype=np.int64))
            assert np.array_equal(nz[:-1], -nz[1:])
        if i >= 2:
            prev = boundary_matrix(k, i - 1)
            assert not np.any(prev @ b)


def test_graph_incidence_examples():
    k2 = Graph.from_edge_labels(["a", "b"], [("a", "b")])
    np.testing.assert_array_equal(graph_incidence(k2), [[-1], [1]])
    p3 = path_graph(3)
    np.testing.assert_array_equal(graph_incidence(p3), [[-1, 0], [1, -1], [0, 1]])
    np.testing.assert_array_equal(
        graph_incidence(p3.with_orientation((1, -1))), [[-1, 0], [1, 1], [0, -1]]
    )


def test_graph_incidence_columns_sum_to_zero(rng):
    g = random_connected_graph(rng, 7)
    assert not np.any(graph_incidence(g).sum(axis=0))


def test_orientation_flip_negates_columns_and_preserves_bdbt(rng):
    g = random_connected_graph(rng, 6)
    sigma = [int(s) for s in rng.choice([-1, 1], g.m)]
    b0 = graph_incidence(g)
    b1 = graph_incidence(g.with_orientation(sigma))
    np.testing.assert_array_equal(b1, b0 * np.array(sigma))
    d = np.diag(rng.uniform(0.5, 2.0, g.m))
    np.testing.assert_allclose(b1 @ d @ b1.T, b0 @ d @ b0.T, atol=1e-12)


def reference_incidence(g):
    # Column e = (u, v): -sigma_e at u, +sigma_e at v, one entry at a time.
    b = np.zeros((g.n, g.m), dtype=np.int64)
    for e, ((u, v), s) in enumerate(zip(g.edges, g.orientation)):
        b[u, e], b[v, e] = -s, s
    return b


def test_graph_incidence_is_built_once_and_read_only(rng):
    for n in range(2, 9):
        g = random_connected_graph(rng, n)
        b = graph_incidence(g)
        assert b is graph_incidence(g) is g.incidence
        assert b.dtype == np.int64 and not b.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            b[:] = 0
        np.testing.assert_array_equal(b, reference_incidence(g))
        for _ in range(3):
            h = g.with_orientation([int(s) for s in rng.choice([-1, 1], g.m)])
            assert graph_incidence(h) is not b
            np.testing.assert_array_equal(graph_incidence(h), reference_incidence(h))
            u = unsigned_incidence(h)
            np.testing.assert_array_equal(u, np.abs(reference_incidence(h)))
            assert u.dtype == np.int64 and u.flags.writeable and u is not unsigned_incidence(h)
    empty = Graph(labels=("a", "b"), edges=())
    assert graph_incidence(empty).shape == (2, 0)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(labels=("a", "b"), edges=((0, 0),))
    with pytest.raises(ValueError):
        Graph(labels=("a", "b", "c"), edges=((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        Graph(labels=("a", "b"), edges=((0, 1),), orientation=(2,))
    g = Graph.from_edge_labels(["a", "b", "c"], [("c", "b"), ("b", "a")])
    assert g.edges == ((0, 1), (1, 2))


def test_graph_components():
    g = Graph.from_edge_labels(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert g.components == ((0, 1), (2, 3))
    assert g.components is g.components  # one union-find per graph
    assert not g.is_connected()


def test_hypergraph_incidence_and_rank():
    hg = Hypergraph.from_edge_labels(["1", "2", "3"], [("1", "2", "3"), ("2",)])
    h = hg.incidence()
    assert h.shape == (3, 2)
    np.testing.assert_array_equal(h[:, 0], [1, 1, 1])
    np.testing.assert_array_equal(h[:, 1], [0, 1, 0])
    assert hg.rank == 3
    assert hg.max_degree == 2
    with pytest.raises(ValueError):
        Hypergraph(labels=("1",), hyperedges=((),))


def test_clique_expansion_examples():
    hg = Hypergraph.from_edge_labels(["1", "2", "3"], [("1", "2", "3")])
    g, w = clique_expansion(hg)
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    np.testing.assert_allclose(w, [1.0, 1.0, 1.0])

    hg = Hypergraph.from_edge_labels(["1", "2", "3"], [("1", "2"), ("2", "3")])
    g, w = clique_expansion(hg)
    assert g.edges == ((0, 1), (1, 2))
    np.testing.assert_allclose(w, [1.0, 1.0])

    hg = Hypergraph.from_edge_labels(["1", "2", "3"], [("1", "2"), ("1", "2", "3")])
    g, w = clique_expansion(hg, [2.0, 1.0])
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    np.testing.assert_allclose(w, [3.0, 1.0, 1.0])


def test_clique_expansion_idempotent_on_graphs(rng):
    g = random_connected_graph(rng, 6)
    hg = Hypergraph(labels=g.labels, hyperedges=g.edges)
    weights = rng.uniform(0.5, 2.0, g.m)
    g2, w2 = clique_expansion(hg, weights)
    assert g2.edges == g.edges
    np.testing.assert_allclose(w2, weights)


def test_singleton_hyperedges_do_not_expand():
    hg = Hypergraph.from_edge_labels(["1", "2"], [("1",), ("1", "2")])
    g, w = clique_expansion(hg)
    assert g.edges == ((0, 1),)
    np.testing.assert_allclose(w, [1.0])


def test_facets_recovered_and_complex_round_trip():
    from ipl.complexes import facets_of
    from ipl.jsonio import complex_from_dict

    k = build_complex([("a", "b", "c"), ("c", "d")])
    facets = facets_of(k)
    labeled = sorted(tuple(k.labels[v] for v in f) for f in facets)
    assert labeled == [("a", "b", "c"), ("c", "d")]
    # The ground order is derived state; round-tripping preserves the
    # labeled face structure.
    again = complex_from_dict(k.to_dict())

    def labeled_faces(c):
        return [
            sorted(tuple(sorted(c.labels[v] for v in f)) for f in faces)
            for faces in c.faces_by_dim
        ]

    assert sorted(again.labels) == sorted(k.labels)
    assert labeled_faces(again) == labeled_faces(k)


def test_facet_labels_that_do_not_sort_together():
    # 2 and "a" have no order; inside that facet they are visited by str.
    k = build_complex([(2, "a"), ("b", "a")])
    assert k.labels == (2, "a", "b")
    assert k.faces_by_dim[1] == ((0, 1), (1, 2))


TWO_HYPEREDGES = Hypergraph.from_edge_labels(["1", "2", "3"], [("1", "2"), ("2", "3")])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: build_complex([("a", "a")]), "facet ('a', 'a') repeats a vertex"),
        (lambda: Graph(labels=("a", "b", "a"), edges=()), "vertex labels must be distinct: 'a' appears twice"),
        (lambda: Graph(labels=("a", "b"), edges=((1, 0),)), "edge (1, 0) is not a normalized index pair"),
        (lambda: Graph(labels=("a", "b", "c"), edges=((1, 2), (0, 1))), "edges must be sorted"),
        (lambda: Graph(labels=("a", "b"), edges=((0, 1),), orientation=(1, 1)), "orientation length must match edge count"),
        (lambda: Hypergraph(labels=("a", "b", "a"), hyperedges=((0, 1),)), "vertex labels must be distinct: 'a' appears twice"),
        (lambda: Hypergraph(labels=("a",), hyperedges=((0, 1),)), "hyperedge (0, 1) has out-of-range vertices"),
        (lambda: Hypergraph(labels=("a", "b"), hyperedges=((1,), (0,))), "hyperedges must be sorted"),
        (lambda: clique_expansion(TWO_HYPEREDGES, [1.0]), "hyperedge weights must be a vector of length 2"),
        (lambda: clique_expansion(TWO_HYPEREDGES, [1.0, 0.0]), "hyperedge weights must be strictly positive"),
        (lambda: clique_expansion(TWO_HYPEREDGES, [1.0, float("nan")]), "hyperedge weights must be strictly positive"),
        (lambda: clique_expansion(TWO_HYPEREDGES, [1.0, float("inf")]), "hyperedge weights must be finite"),
    ],
    ids=[
        "facet-repeats", "graph-repeated-label", "edge-not-normalized", "edges-unsorted", "orientation-length",
        "hypergraph-repeated-label", "hyperedge-out-of-range", "hyperedges-unsorted", "weights-length",
        "weight-zero", "weight-nan", "weight-inf",
    ],
)
def test_refusals_name_their_input(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert type(refused.value) is ValueError and str(refused.value) == message


@pytest.mark.parametrize(
    "build",
    [
        lambda labels: Graph(labels=labels, edges=()),
        lambda labels: Hypergraph(labels=labels, hyperedges=((0, 1),)),
    ],
    ids=["graph", "hypergraph"],
)
def test_repeated_label_refusal_counts_the_repeats(build):
    # The first label that repeats is named with its count: 'a' three times
    # here, though 'b' repeats too.
    with pytest.raises(ValueError) as refused:
        build(("a", "b", "a", "c", "b", "a"))
    assert str(refused.value) == "vertex labels must be distinct: 'a' appears 3 times"
