"""JSON file formats for matrices, graphs, complexes, and hypergraphs.

Matrices: {"rows": [[...], [...]]}, row-major.
Graphs:   {"vertices": [...], "edges": [["a","b"], ...], "orientation": [1, -1, ...]}.
Complexes: {"facets": [["a","b","c"], ...]}.
Hypergraphs: {"vertices": [...], "hyperedges": [[...], ...], "weights": [1.0, ...]}.
Vectors: either a bare JSON array or {"values": [...]}.
Every reader names the file in its error when the file cannot be read or
parsed. The load_* readers refuse NaN and infinities, naming the file and entry,
and numeric arrays that are ragged, of the wrong depth or hold non-numbers,
naming the file and key. The graph and hypergraph readers check their
list fields in one place, ``_list_fields``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .complexes import Graph, Hypergraph, SimplicialComplex, build_complex
from .linalg import check_finite


def load_json(path) -> object:
    """The parsed JSON file at ``path``. A missing file raises
    FileNotFoundError; a file that cannot be read, is not UTF-8 or is not
    JSON raises a ValueError naming the path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise
    except OSError as exc:
        # The empty path reads the current directory: name it as '' so it shows.
        raise ValueError(f"{str(path) or repr('')}: cannot read: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None


def _numbers(value, ndim: int, what: str) -> np.ndarray:
    """``value`` as a float array of ``ndim`` dimensions, or a ValueError naming ``what``."""
    try:
        a = np.asarray(value, dtype=float)
        if a.ndim == ndim:
            return a
    except (TypeError, ValueError):  # ragged lists, strings, objects
        pass
    shape = "a list of numbers" if ndim == 1 else "a list of equal-length lists of numbers"
    raise ValueError(f"{what} must be {shape}")


def matrix_from_dict(d, what: str = "matrix JSON") -> np.ndarray:
    if not isinstance(d, dict) or "rows" not in d:
        raise ValueError('matrix JSON must be an object with a "rows" key')
    return _numbers(d["rows"], 2, f'{what} "rows"')


def matrix_to_dict(a: np.ndarray) -> dict:
    return {"rows": np.asarray(a, dtype=float).tolist()}


def vector_from_dict(d, what: str = "vector JSON") -> np.ndarray:
    if isinstance(d, dict):
        if "values" not in d:
            raise ValueError('vector JSON must be an array or an object with a "values" key')
        d, what = d["values"], f'{what} "values"'
    return _numbers(d, 1, what)


def _list_fields(d, kind: str, key: str, pair: bool, **optional: str) -> None:
    """Refuse ``d`` unless it is a ``kind`` JSON object whose "vertices" is a
    list and whose ``key`` is a list of lists of vertex labels (pairs when
    ``pair``), and whose ``optional`` keys are absent, null or lists of what
    they name: the one list-field check of the graph and hypergraph readers."""
    if not isinstance(d, dict) or "vertices" not in d or key not in d:
        raise ValueError(f'{kind} JSON must contain "vertices" and "{key}"')
    shape = "pair" if pair else "list"
    for name, holds in {"vertices": "labels", key: f"vertex {shape}s", **optional}.items():
        value = d.get(name)
        if not isinstance(value, list) and (name not in optional or value is not None):
            raise ValueError(f'{kind} JSON "{name}" must be a list of {holds}')
        for e in value if name == key else ():
            if not (isinstance(e, list) and (len(e) == 2 or not pair)):
                raise ValueError(f"{kind} JSON {key[:-1]} {json.dumps(e)} is not a {shape} of vertex labels")


def graph_from_dict(d) -> Graph:
    _list_fields(d, "graph", "edges", True, orientation="signs")
    orientation = d.get("orientation")
    labels = [str(v) for v in d["vertices"]]
    edges = [(str(u), str(v)) for u, v in d["edges"]]
    return Graph.from_edge_labels(labels, edges, orientation)


def complex_from_dict(d) -> SimplicialComplex:
    if not isinstance(d, dict) or "facets" not in d:
        raise ValueError('complex JSON must contain "facets"')
    return build_complex([[str(v) for v in f] for f in d["facets"]])


def hypergraph_from_dict(d, what: str = "hypergraph JSON") -> tuple[Hypergraph, np.ndarray]:
    _list_fields(d, "hypergraph", "hyperedges", False)
    weights = d.get("weights")
    if weights is not None:
        # Checked in file order, before the weights are sorted with the hyperedges.
        weights = check_finite(_numbers(weights, 1, f'{what} "weights"'), f'{what} "weights"')
    labels = [str(v) for v in d["vertices"]]
    raw_edges = [[str(v) for v in h] for h in d["hyperedges"]]
    hg = Hypergraph.from_edge_labels(labels, raw_edges)
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
    return check_finite(matrix_from_dict(load_json(path), f"{path}: matrix"), f"{path}: matrix")


def load_vector(path) -> np.ndarray:
    return check_finite(vector_from_dict(load_json(path), f"{path}: vector"), f"{path}: vector")


def load_graph(path) -> Graph:
    return graph_from_dict(load_json(path))


def load_hypergraph(path) -> tuple[Hypergraph, np.ndarray]:
    return hypergraph_from_dict(load_json(path), f"{path}: hypergraph")
