"""JSON file formats for matrices, graphs, complexes, and hypergraphs.

Matrices: {"rows": [[...], [...]]}, row-major.
Graphs:   {"vertices": [...], "edges": [["a","b"], ...], "orientation": [1, -1, ...]}.
Complexes: {"facets": [["a","b","c"], ...]}.
Hypergraphs: {"vertices": [...], "hyperedges": [[...], ...], "weights": [1.0, ...]}.
Vectors: either a bare JSON array or {"values": [...]}.
The load_* readers refuse NaN and infinities, naming the file and entry.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .complexes import Graph, Hypergraph, SimplicialComplex, build_complex
from .linalg import check_finite


def load_json(path) -> object:
    text = Path(path).read_text()
    return json.loads(text)


def matrix_from_dict(d) -> np.ndarray:
    if not isinstance(d, dict) or "rows" not in d:
        raise ValueError('matrix JSON must be an object with a "rows" key')
    rows = d["rows"]
    a = np.asarray(rows, dtype=float)
    if a.ndim != 2:
        raise ValueError("matrix rows must form a rectangular 2-d array")
    return a


def matrix_to_dict(a: np.ndarray) -> dict:
    return {"rows": [[float(v) for v in row] for row in np.asarray(a, dtype=float)]}


def vector_from_dict(d) -> np.ndarray:
    if isinstance(d, dict):
        if "values" not in d:
            raise ValueError('vector JSON must be an array or an object with a "values" key')
        d = d["values"]
    a = np.asarray(d, dtype=float)
    if a.ndim != 1:
        raise ValueError("vector JSON must be one-dimensional")
    return a


def graph_from_dict(d) -> Graph:
    if not isinstance(d, dict) or "vertices" not in d or "edges" not in d:
        raise ValueError('graph JSON must contain "vertices" and "edges"')
    if not isinstance(d["vertices"], list):
        raise ValueError('graph JSON "vertices" must be a list of labels')
    if not isinstance(d["edges"], list):
        raise ValueError('graph JSON "edges" must be a list of vertex pairs')
    for e in d["edges"]:
        if not (isinstance(e, list) and len(e) == 2):
            raise ValueError(f"graph JSON edge {json.dumps(e)} is not a pair of vertex labels")
    orientation = d.get("orientation")
    if orientation is not None and not isinstance(orientation, list):
        raise ValueError('graph JSON "orientation" must be a list of signs')
    labels = [str(v) for v in d["vertices"]]
    edges = [(str(u), str(v)) for u, v in d["edges"]]
    return Graph.from_edge_labels(labels, edges, orientation)


def complex_from_dict(d) -> SimplicialComplex:
    if not isinstance(d, dict) or "facets" not in d:
        raise ValueError('complex JSON must contain "facets"')
    return build_complex([[str(v) for v in f] for f in d["facets"]])


def hypergraph_from_dict(d) -> tuple[Hypergraph, np.ndarray]:
    if not isinstance(d, dict) or "vertices" not in d or "hyperedges" not in d:
        raise ValueError('hypergraph JSON must contain "vertices" and "hyperedges"')
    labels = [str(v) for v in d["vertices"]]
    raw_edges = [[str(v) for v in h] for h in d["hyperedges"]]
    hg = Hypergraph.from_edge_labels(labels, raw_edges)
    weights = d.get("weights")
    if weights is None:
        w = np.ones(hg.m)
    else:
        if len(weights) != len(raw_edges):
            raise ValueError("need one weight per hyperedge")
        # Hyperedges are sorted on construction; carry the weights along.
        index = {label: i for i, label in enumerate(labels)}
        keyed = sorted(
            (tuple(sorted(index[v] for v in h)), float(wt))
            for h, wt in zip(raw_edges, weights)
        )
        w = np.array([wt for _, wt in keyed])
    return hg, w


def load_matrix(path) -> np.ndarray:
    return check_finite(matrix_from_dict(load_json(path)), f"{path}: matrix")


def load_vector(path) -> np.ndarray:
    return check_finite(vector_from_dict(load_json(path)), f"{path}: vector")


def load_graph(path) -> Graph:
    return graph_from_dict(load_json(path))


def load_hypergraph(path) -> tuple[Hypergraph, np.ndarray]:
    d = load_json(path)
    if isinstance(d, dict) and d.get("weights") is not None:
        # Checked in file order, before the weights are sorted with the hyperedges.
        check_finite(np.asarray(d["weights"], dtype=float), f"{path}: weights")
    return hypergraph_from_dict(d)
