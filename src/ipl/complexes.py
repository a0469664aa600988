"""Simplicial complexes, graphs, and hypergraphs with their incidence maps.

A global vertex order fixes every face ordering, so boundary signs come
purely from position parity and outputs are reproducible. Graph edges are
unordered pairs; orientation is a per-edge sign that flips the default
boundary column (-1 at the smaller endpoint, +1 at the larger). A Graph
builds its signed incidence once and holds it read-only (``Graph.incidence``,
which ``graph_incidence`` returns), like its endpoint array ``ends``.
The refusals of two kinds of input live here, one check each:
``_distinct_labels`` for the vertex labels of a Graph or a Hypergraph, and
``check_weights`` for every weight vector (``clique_expansion`` here,
``recover_classical`` and ``hypergraph_to_ipl`` in ``laplacian``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np


def _components(n: int, pairs) -> tuple[tuple[int, ...], ...]:
    """Connected components of vertices 0..n-1 joined by the (a, b) pairs, as
    sorted tuples in sorted order (so by smallest vertex), by union-find."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    joins = 0
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            joins += 1
            if joins == n - 1:  # one component: the other pairs join nothing
                return (tuple(range(n)),)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


@dataclass(frozen=True)
class SimplicialComplex:
    labels: tuple[str, ...]
    faces_by_dim: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.faces_by_dim) - 1

    def face_count(self, i: int) -> int:
        return len(self.faces_by_dim[i])

    def to_dict(self) -> dict:
        facets = [list(self.labels[v] for v in f) for f in facets_of(self)]
        return {"facets": facets}


def facets_of(k: SimplicialComplex) -> list[tuple[int, ...]]:
    """Faces maximal under inclusion."""
    all_faces = [set(f) for faces in k.faces_by_dim for f in faces]
    out = []
    for faces in reversed(k.faces_by_dim):
        for f in faces:
            fs = set(f)
            if not any(fs < g for g in all_faces):
                out.append(f)
    return sorted(out, key=lambda f: (len(f), f))


def build_complex(facets) -> SimplicialComplex:
    """Downward closure of the given facets.

    The ground set is ordered by first appearance across facets, with labels
    inside a facet visited in sorted order.
    """
    facet_list = [tuple(f) for f in facets]
    if not facet_list:
        raise ValueError("at least one facet is required")
    labels: list = []
    seen = {}
    for f in facet_list:
        if len(f) == 0:
            raise ValueError("facets must be nonempty")
        if len(set(f)) != len(f):
            raise ValueError(f"facet {f!r} repeats a vertex")
        try:
            ordered = sorted(f)
        except TypeError:
            ordered = sorted(f, key=str)
        for lab in ordered:
            if lab not in seen:
                seen[lab] = len(labels)
                labels.append(lab)
    by_dim: list[set] = []
    for f in facet_list:
        idx = tuple(sorted(seen[lab] for lab in f))
        dim = len(idx) - 1
        while len(by_dim) <= dim:
            by_dim.append(set())
        for size in range(1, len(idx) + 1):
            for sub in combinations(idx, size):
                by_dim[size - 1].add(sub)
    return SimplicialComplex(
        labels=tuple(labels),
        faces_by_dim=tuple(tuple(sorted(s)) for s in by_dim),
    )


def boundary_matrix(k: SimplicialComplex, i: int) -> np.ndarray:
    """Signed boundary map from i-faces to (i-1)-faces, integer entries.

    Column g has entry (-1)^j in the row of the face obtained by deleting
    position j of g. For i = 0 the target space is trivial and the result
    is a 0 x |S_0| matrix.
    """
    if i < 0 or i > k.dimension:
        raise ValueError(f"dimension {i} out of range 0..{k.dimension}")
    if i == 0:
        return np.zeros((0, k.face_count(0)), dtype=np.int64)
    rows = {f: r for r, f in enumerate(k.faces_by_dim[i - 1])}
    b = np.zeros((k.face_count(i - 1), k.face_count(i)), dtype=np.int64)
    for c, g in enumerate(k.faces_by_dim[i]):
        for j in range(len(g)):
            f = g[:j] + g[j + 1 :]
            b[rows[f], c] = -1 if j % 2 else 1
    return b


def _distinct_labels(labels: tuple) -> None:
    """Refuse repeated vertex labels, naming the first label that repeats and
    how often it appears. A valid tuple pays one set; the repeat is looked
    up only once that fails."""
    if len(set(labels)) != len(labels):
        label, times = next((lab, n) for lab in labels if (n := labels.count(lab)) > 1)
        count = "twice" if times == 2 else f"{times} times"
        raise ValueError(f"vertex labels must be distinct: {label!r} appears {count}")


def check_weights(name: str, values, size: int) -> np.ndarray:
    """``values`` as a float vector of ``size`` strictly positive, finite
    entries, or a ValueError naming ``name``: its length, its sign (a NaN
    fails it too), or an infinite entry."""
    v = np.asarray(values, dtype=float)
    if v.shape != (size,):
        raise ValueError(f"{name} must be a vector of length {size}")
    if not np.all(v > 0):
        raise ValueError(f"{name} must be strictly positive")
    if not np.all(v < np.inf):
        raise ValueError(f"{name} must be finite")
    return v


def _label_indices(index: dict, labels) -> list[int]:
    """Vertex indices of an edge's labels; an unknown label is a ValueError naming it."""
    try:
        return [index[lab] for lab in labels]
    except KeyError as exc:
        raise ValueError(f"an edge names the unknown vertex {exc.args[0]!r}") from None


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with per-edge orientation signs."""

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    orientation: tuple[int, ...] = field(default=())

    def __post_init__(self):
        n = len(self.labels)
        _distinct_labels(self.labels)
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex index {u}")
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u}, {v}) is not a normalized index pair")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edges")
        if list(self.edges) != sorted(self.edges):
            raise ValueError("edges must be sorted")
        if not self.orientation:
            object.__setattr__(self, "orientation", (1,) * len(self.edges))
        if len(self.orientation) != len(self.edges):
            raise ValueError("orientation length must match edge count")
        if any(s not in (-1, 1) for s in self.orientation):
            raise ValueError("orientation entries must be +1 or -1")

    @classmethod
    def from_edge_labels(cls, labels, edge_pairs, orientation=None) -> "Graph":
        labels = tuple(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        pairs = []
        for u, v in edge_pairs:
            iu, iv = _label_indices(index, (u, v))
            pairs.append((min(iu, iv), max(iu, iv)))
        if orientation is None:
            orientation = (1,) * len(pairs)
        if len(orientation) != len(pairs):
            raise ValueError(f"orientation has {len(orientation)} entries for {len(pairs)} edges")
        order = sorted(range(len(pairs)), key=lambda e: pairs[e])
        return cls(
            labels=labels,
            edges=tuple(pairs[e] for e in order),
            orientation=tuple(int(orientation[e]) for e in order),
        )

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edges)

    def with_orientation(self, orientation) -> "Graph":
        return Graph(self.labels, self.edges, tuple(int(s) for s in orientation))

    @cached_property
    def ends(self) -> np.ndarray:
        """Read-only 2 x m array of edge endpoints: ``u, v = g.ends`` with u < v."""
        uv = np.array(self.edges, dtype=np.intp).reshape(self.m, 2).T
        uv.setflags(write=False)
        return uv

    @cached_property
    def incidence(self) -> np.ndarray:
        """Read-only n x m signed vertex-edge incidence, built once: column
        e = (u, v) holds -sigma_e at u, +sigma_e at v. Columns sum to zero."""
        b = np.zeros((self.n, self.m), dtype=np.int64)
        b[self.ends, np.arange(self.m)] = np.array(self.orientation, dtype=np.int64) * [[-1], [1]]
        b.setflags(write=False)
        return b

    def degrees(self) -> np.ndarray:
        return np.bincount(self.ends.ravel(), minlength=self.n)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.int64)
        u, v = self.ends
        a[u, v] = a[v, u] = 1
        return a

    def neighbors(self, v: int) -> tuple[int, ...]:
        out = [b if a == v else a for a, b in self.edges if v in (a, b)]
        return tuple(sorted(out))

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted vertex tuples, in sorted order (one union-find, cached)."""
        return _components(self.n, self.edges)

    def is_connected(self) -> bool:
        return len(self.components) == 1

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.labels),
            "edges": [[self.labels[u], self.labels[v]] for u, v in self.edges],
            "orientation": list(self.orientation),
        }


def graph_incidence(g: Graph) -> np.ndarray:
    """The graph's signed vertex-edge incidence, ``Graph.incidence`` (read-only, built once)."""
    return g.incidence


def unsigned_incidence(g: Graph) -> np.ndarray:
    return np.abs(g.incidence)


@dataclass(frozen=True)
class Hypergraph:
    labels: tuple[str, ...]
    hyperedges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        _distinct_labels(self.labels)
        if not self.hyperedges:
            raise ValueError("a hypergraph needs at least one hyperedge")
        for h in self.hyperedges:
            if len(h) == 0:
                raise ValueError("empty hyperedge")
            if min(h) < 0 or max(h) >= n:
                raise ValueError(f"hyperedge {h!r} has out-of-range vertices")
            if list(h) != sorted(set(h)):
                raise ValueError(f"hyperedge {[self.labels[i] for i in h]} must name distinct vertices in index order")
        if list(self.hyperedges) != sorted(self.hyperedges):
            raise ValueError("hyperedges must be sorted")

    @classmethod
    def from_edge_labels(cls, labels, hyperedges) -> "Hypergraph":
        labels = tuple(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        hs = sorted(tuple(sorted(_label_indices(index, h))) for h in hyperedges)
        return cls(labels=labels, hyperedges=tuple(hs))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.hyperedges)

    @property
    def rank(self) -> int:
        return max(len(h) for h in self.hyperedges)

    @property
    def max_degree(self) -> int:
        deg = np.zeros(self.n, dtype=np.int64)
        for h in self.hyperedges:
            deg[list(h)] += 1
        return int(deg.max())

    def incidence(self) -> np.ndarray:
        h = np.zeros((self.n, self.m), dtype=np.int64)
        for e, verts in enumerate(self.hyperedges):
            h[list(verts), e] = 1
        return h

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.labels),
            "hyperedges": [[self.labels[v] for v in h] for h in self.hyperedges],
        }


def clique_expansion(hg: Hypergraph, edge_weights=None) -> tuple[Graph, np.ndarray]:
    """Graph joining every pair co-contained in a hyperedge.

    The returned weights align with the expansion's sorted edge list; the
    weight of pair {u, v} is the sum of w_e over hyperedges containing both.
    A 2-uniform hypergraph maps to itself with unchanged weights.
    """
    w = np.ones(hg.m) if edge_weights is None else check_weights("hyperedge weights", edge_weights, hg.m)
    pair_w: dict[tuple[int, int], float] = {}
    for e, verts in enumerate(hg.hyperedges):
        for u, v in combinations(verts, 2):
            pair_w[(u, v)] = pair_w.get((u, v), 0.0) + float(w[e])
    pairs = sorted(pair_w)
    graph = Graph(labels=hg.labels, edges=tuple(pairs))
    return graph, np.array([pair_w[p] for p in pairs])
