import numpy as np
import pytest

from ipl import Graph, SpdMatrix


def path_graph(n):
    return Graph.from_edge_labels(
        [f"v{i + 1}" for i in range(n)],
        [(f"v{i + 1}", f"v{i + 2}") for i in range(n - 1)],
    )


def cycle_graph(n):
    return Graph.from_edge_labels(
        [f"v{i + 1}" for i in range(n)],
        [(f"v{i + 1}", f"v{(i + 1) % n + 1}") for i in range(n)],
    )


def complete_graph(n):
    return Graph.from_edge_labels(
        [f"v{i + 1}" for i in range(n)],
        [(f"v{i + 1}", f"v{j + 1}") for i in range(n) for j in range(i + 1, n)],
    )


def hypercube_graph(dim):
    labels = [f"q{i}" for i in range(1 << dim)]
    return Graph.from_edge_labels(
        labels, [(labels[i], labels[i | 1 << b]) for i in range(1 << dim) for b in range(dim) if not i >> b & 1]
    )


def star_graph(leaves):
    return Graph.from_edge_labels(
        ["c"] + [f"l{i + 1}" for i in range(leaves)],
        [("c", f"l{i + 1}") for i in range(leaves)],
    )


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    labels = [f"o{i}" for i in range(5)] + [f"i{i}" for i in range(5)]
    edges = [(labels[u], labels[v]) for u, v in outer + inner + spokes]
    return Graph.from_edge_labels(labels, edges)


def random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diagonal(r))


def random_spd(rng, dim, lo=0.5, hi=3.0):
    q = random_orthogonal(rng, dim)
    return SpdMatrix((q * rng.uniform(lo, hi, dim)) @ q.T)


def random_connected_graph(rng, n, max_edges=None):
    verts = list(range(n))
    rng.shuffle(verts)
    edges = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        u, v = verts[i], verts[j]
        edges.add((min(u, v), max(u, v)))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    extra = int(rng.integers(0, len(pool) + 1))
    if max_edges is not None:
        extra = max(0, min(extra, max_edges - len(edges)))
    for idx in rng.permutation(len(pool))[:extra]:
        edges.add(pool[idx])
    return Graph(labels=tuple(f"v{i}" for i in range(n)), edges=tuple(sorted(edges)))


def combinatorial_laplacian(g):
    return np.diag(g.degrees().astype(float)) - g.adjacency().astype(float)


def mixing_example_graph(k=2):
    """The three-block graph whose A-B edge mass outruns every volume bound.

    A and B have k vertices, C has 2k; the edges are a complete bipartite
    A-B graph, a k-regular bipartite graph between A+B and C, and a perfect
    matching on C. Vertex masses are 2k^2+2k on A+B and 2k^2+k on C; the
    A-B edge block carries I + 2J, the crossing edges the identity, and the
    matching 2k^2 I. The A-B block is signed as an alternating cycle, which
    keeps the spectrum inside [0, 2].
    """
    labels = (
        [f"a{i}" for i in range(k)]
        + [f"b{i}" for i in range(k)]
        + [f"c{i}" for i in range(2 * k)]
    )
    a_set = set(range(k))
    b_set = set(range(k, 2 * k))
    c_start = 2 * k
    edges = set()
    for a in a_set:
        for b in b_set:
            edges.add((a, b))
    for i in range(2 * k):
        for j in range(k):
            edges.add((i, c_start + (i + j) % (2 * k)))
    for i in range(k):
        edges.add((c_start + 2 * i, c_start + 2 * i + 1))
    graph = Graph(labels=tuple(labels), edges=tuple(sorted(edges)))

    def block(e):
        u, v = e
        if u in a_set and v in b_set:
            return "ab"
        if u >= c_start and v >= c_start:
            return "cc"
        return "cross"

    m = graph.m
    me = np.zeros((m, m))
    for i, e in enumerate(graph.edges):
        for j, f in enumerate(graph.edges):
            if i == j:
                me[i, i] = {"ab": 3.0, "cross": 1.0, "cc": 2.0 * k * k}[block(e)]
            elif block(e) == block(f) == "ab":
                me[i, j] = 2.0
    orientation = []
    for u, v in graph.edges:
        if block((u, v)) == "ab":
            orientation.append(1 if (u + v) % 2 == 0 else -1)
        else:
            orientation.append(1)
    graph = graph.with_orientation(orientation)
    mv = np.array([2 * k * k + 2 * k] * (2 * k) + [2 * k * k + k] * (2 * k), dtype=float)
    a_idx = sorted(a_set)
    b_idx = sorted(b_set)
    return graph, SpdMatrix.from_diagonal(mv), SpdMatrix(me), a_idx, b_idx


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
