"""Seeded input generators and the work counts derived from input shapes.

Every generator draws from its own ``numpy`` generator keyed by
(seed, workload, pass, index), so the same seed always yields the same
inputs and adding an operation does not shift the inputs of the others.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ipl import Graph, SpdMatrix


def rng(*keys: int) -> np.random.Generator:
    return np.random.default_rng(list(keys))


class Build:
    """Set-up bookkeeping: times every ``SpdMatrix`` the inputs need."""

    def __init__(self):
        self.spd_seconds: list[float] = []
        self.matrices: list[SpdMatrix] = []

    def spd(self, entries) -> SpdMatrix:
        t0 = perf_counter()
        m = SpdMatrix(entries)
        self.spd_seconds.append(perf_counter() - t0)
        self.matrices.append(m)
        return m

    def normalized(self, g: Graph) -> tuple[SpdMatrix, SpdMatrix]:
        """The CLI default pair, as ``normalized_inner_products`` builds it."""
        return self.spd(np.diag(g.degrees().astype(float))), self.spd(np.eye(g.m))


def spd_entries(r: np.random.Generator, k: int, lo: float, hi: float) -> np.ndarray:
    """Dense k x k SPD matrix with eigenvalues log-uniform in [lo, hi], both ends attained."""
    q, upper = np.linalg.qr(r.standard_normal((k, k)))
    q = q * np.sign(np.diagonal(upper))
    ev = np.exp(r.uniform(np.log(lo), np.log(hi), k))
    ev[0], ev[-1] = lo, hi
    a = (q * ev) @ q.T
    return 0.5 * (a + a.T)


def near_diagonal_entries(r: np.random.Generator, k: int) -> np.ndarray:
    """Diagonal in [1, 2] plus a dense 1e-3 perturbation: rho_weak near 0, no zero entry."""
    g = r.standard_normal((k, k))
    return np.diag(r.uniform(1.0, 2.0, k)) + 0.5e-3 * (g + g.T)


def block_diagonal_entries(r: np.random.Generator, sizes, lo: float, hi: float) -> np.ndarray:
    k = sum(sizes)
    a = np.zeros((k, k))
    at = 0
    for s in sizes:
        a[at : at + s, at : at + s] = spd_entries(r, s, lo, hi)
        at += s
    return a


def balanced_instance(r: np.random.Generator, k: int) -> list[int]:
    """k naturals that admit a balanced partition, with many tied witnesses.

    A half is drawn and repeated in shuffled order; for odd k one repeated
    number is split in two, which keeps the split side's sum.
    """
    half = [int(v) for v in r.integers(2, 10, size=k // 2)]
    values = half + [int(v) for v in r.permutation(half)]
    if k % 2:
        last = values.pop()
        cut = int(r.integers(1, last))
        values += [cut, last - cut]
    return values


def connected_graph(r: np.random.Generator, n: int, m: int) -> Graph:
    """Connected simple graph with exactly n vertices and m edges.

    A random spanning tree (each vertex joins an earlier one in a shuffled
    order) plus m - n + 1 distinct random extra edges: no rejection loop, so
    set-up cost does not depend on the seed.
    """
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no connected simple graph has {n} vertices and {m} edges")
    order = r.permutation(n)
    edges = {tuple(sorted((int(order[i]), int(order[r.integers(0, i)])))) for i in range(1, n)}
    free = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges |= {free[i] for i in r.choice(len(free), m - (n - 1), replace=False)}
    labels = [f"v{i + 1}" for i in range(n)]
    return Graph.from_edge_labels(labels, [(labels[u], labels[v]) for u, v in sorted(edges)])


def partitions(k: int) -> int:
    """Support partitions exact weak conformality enumerates: 2^(k-1) - 1."""
    return (1 << (k - 1)) - 1 if k >= 2 else 0


def cuts(n: int) -> int:
    """Cuts exact conductance enumerates: 2^(n-1) - 1."""
    return (1 << (n - 1)) - 1


def pairs(n: int) -> int:
    """Ordered vertex-set pairs the expander-mixing sweep checks: 4^n."""
    return 4**n


def structured(m: SpdMatrix) -> bool:
    """True when the nonzero pattern of m has more than one connected component."""
    adj = m.entries != 0.0
    seen = np.zeros(m.dim, dtype=bool)
    frontier = [0]
    seen[0] = True
    while frontier:
        nxt = np.flatnonzero(adj[frontier].any(axis=0) & ~seen)
        seen[nxt] = True
        frontier = list(nxt)
    return not bool(seen.all())


def conformality_attrs(m: SpdMatrix) -> dict:
    return {"partitions": partitions(m.dim), "structured": structured(m)}
