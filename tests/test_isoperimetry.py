import itertools
import json
import tracemalloc

import numpy as np
import pytest

import ipl.isoperimetry
from ipl.errors import CAPS
from ipl.complexes import unsigned_incidence
from ipl.isoperimetry import DEFAULT_EPSILON_SCHEDULE, _vertex_boundary
from ipl.linalg import sym_eig
from ipl import (
    EnumerationCapError,
    Graph,
    IplSetup,
    NotPositiveDefiniteError,
    SpdMatrix,
    compatibility,
    conductance,
    cut_stats,
    dirichlet_eigenvalues,
    graph_incidence,
    inner_product_laplacian,
    neumann_eigenvalue,
    neumann_limit_experiment,
    normalized_inner_products,
    s_local_conductance,
    semi_hodge,
    verify_cheeger,
    verify_eml,
    verify_eml_batch,
    verify_radius_bound,
)

from conftest import (
    complete_graph,
    cycle_graph,
    hypercube_graph,
    mixing_example_graph,
    path_graph,
    random_connected_graph,
    random_spd,
    star_graph,
)


def k2():
    return Graph.from_edge_labels(["v1", "v2"], [("v1", "v2")])


def integer_spd(rng, dim, below=None):
    """A diagonally dominant integer SPD matrix; with ``below``, its largest
    integer multiple with sum|M| < below."""
    b = rng.integers(-2, 3, (dim, dim))
    a = np.diag(np.full(dim, 4 * dim)) + b + b.T
    return SpdMatrix(a if below is None else a * ((below - 1) // int(np.abs(a).sum())))


def test_cut_stats_k2():
    g = k2()
    stats = cut_stats(g, SpdMatrix.identity(2), SpdMatrix.identity(1), [0], [1])
    assert stats.e_xy == 1.0
    assert stats.cor_xy == -1.0
    assert stats.cor_x == 1.0
    assert stats.cor_y == 1.0
    assert stats.boundary_edges == ((0, 1),)


def test_cut_stats_to_dict_is_plain_and_serializable():
    g = path_graph(3)
    d = cut_stats(g, *normalized_inner_products(g), [0, 1], [1, 2]).to_dict()
    assert d["boundary_edges"] == [[0, 1], [1, 2]]
    assert d["e_xy"] == 2.0 and type(d["vol_x"]) is float
    assert json.loads(json.dumps(d)) == d


def test_cut_stats_empty_set(rng):
    g = random_connected_graph(rng, 5)
    m_v, m_e = normalized_inner_products(g)
    stats = cut_stats(g, m_v, m_e, [], [0, 1])
    assert stats.vol_x == 0.0
    assert stats.e_xy == 0.0
    assert stats.cor_xy == 0.0


def test_cut_stats_e_intersection_is_the_mass_of_its_own_edge_mask(rng):
    # An edge lies inside X cap Y exactly when it lies inside X and inside
    # Y, so e_intersection is m_e.quad of the edge mask of X cap Y bit for
    # bit, +0.0 when no edge lies inside, on diagonal, dense and block M_E.
    kinds = set()
    for trial in range(60):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        kind = ("diagonal", "dense", "block")[trial % 3]
        if kind == "diagonal":
            m_e = SpdMatrix.from_diagonal(rng.uniform(0.5, 3.0, g.m))
        elif kind == "dense":
            m_e = random_spd(rng, g.m)
        else:
            half = g.m // 2
            entries = np.zeros((g.m, g.m))
            entries[:half, :half] = random_spd(rng, half).entries if half else 0.0
            entries[half:, half:] = random_spd(rng, g.m - half).entries
            m_e = SpdMatrix(entries)
        x = sorted(rng.choice(g.n, int(rng.integers(0, g.n + 1)), replace=False).tolist())
        rest = [a for a in range(g.n) if a not in x]
        # A random Y, then an empty and a full intersection.
        for y in (rng.choice(g.n, int(rng.integers(0, g.n + 1)), replace=False).tolist(), rest, x):
            inside = np.isin(np.arange(g.n), list(set(x) & set(y)))
            u, v = g.ends
            want = m_e.quad((inside[u] & inside[v]).astype(float))
            got = cut_stats(g, SpdMatrix.identity(g.n), m_e, x, y).e_intersection
            assert type(got) is float and got == want and np.signbit(got) == np.signbit(want), (kind, x, y)
            kinds.add((kind, "empty" if not (inside[u] & inside[v]).any() else "edges"))
    assert len(kinds) == 6, kinds
    assert cut_stats(path_graph(3), SpdMatrix.identity(3), SpdMatrix.identity(2), [0], [2]).e_intersection == 0.0


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


def cut_oracle(g, phi_of):
    """(minimum, lexicographically smallest minimizer) of phi_of over the
    vertex sets holding vertex 0, one subset at a time. Values within 1e-12
    of the minimum count as ties: on non-integer data the loop and the scan
    round differently."""
    values = {
        subset: phi_of(subset)
        for size in range(1, g.n)
        for subset in itertools.combinations(range(g.n), size)
        if subset[0] == 0
    }
    best = min(values.values())
    return best, min(s for s, v in values.items() if v <= best * (1 + 1e-12) + 1e-12)


def test_conductance_matches_textbook_oracle(rng, monkeypatch):
    # Independent subset loops against the scan: as configured, with the
    # split point lowered so that every graph has a high half, and with no
    # rounding bound, so that every cut of a non-integer case is re-scored
    # (integral cases end on the scan's exact values). The witness is the
    # lexicographically smallest minimizer of the loop.
    cases = []
    tie_heavy = [cycle_graph(8), complete_graph(6), hypercube_graph(4)]
    for g in tie_heavy + [random_connected_graph(rng, int(rng.integers(3, 8))) for _ in range(10)]:
        deg = g.degrees().astype(float)

        def count_phi(subset, g=g, deg=deg):
            s = set(subset)
            cut = sum(1 for u, v in g.edges if (u in s) != (v in s))
            vol = deg[list(subset)].sum()
            return cut / min(vol, deg.sum() - vol)

        cases.append((g, None, None, cut_oracle(g, count_phi)))
    # Dense and non-integer diagonal inner products, against a loop over
    # cut_stats.
    for trial in range(8):
        g = random_connected_graph(rng, int(rng.integers(3, 8)))
        if trial % 2:
            m_v, m_e = random_spd(rng, g.n), random_spd(rng, g.m)
        else:
            m_v = SpdMatrix.from_diagonal(rng.uniform(0.3, 3.0, g.n))
            m_e = SpdMatrix.from_diagonal(rng.uniform(0.3, 3.0, g.m))

        def stats_phi(subset, g=g, m_v=m_v, m_e=m_e):
            comp = [w for w in range(g.n) if w not in subset]
            st = cut_stats(g, m_v, m_e, subset, comp)
            return st.e_xy / min(st.vol_x, st.vol_y)

        cases.append((g, m_v, m_e, cut_oracle(g, stats_phi)))

    def unbounded(*args):
        return np.inf

    for split_bits, widening in ((ipl.isoperimetry.SPLIT_MIN_BITS, None), (2, None), (2, unbounded)):
        monkeypatch.setattr(ipl.isoperimetry, "SPLIT_MIN_BITS", split_bits)
        if widening:
            monkeypatch.setattr(ipl.isoperimetry, "_widening", widening)
        for g, m_v, m_e, (best, first) in cases:
            phi, witness, _ = conductance(g, m_v, m_e)
            assert phi == pytest.approx(best, rel=1e-12, abs=1e-12)
            assert witness == first, (split_bits, g.n, g.m)


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


def test_conductance_disconnected_and_cap(monkeypatch):
    g = Graph.from_edge_labels(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    phi, witness, _ = conductance(g)
    assert phi == 0.0
    assert witness == (0, 1)
    # The table still lists every cut holding vertex 0.
    _, _, table = conductance(g, include_table=True)
    assert [r["subset"] for r in table] == [[0], [0, 1], [0, 2], [0, 1, 2], [0, 3], [0, 1, 3], [0, 2, 3]]
    assert [r["phi"] == 0.0 for r in table] == [False, True, False, False, False, False, False]
    monkeypatch.setitem(CAPS, "cuts", 2**4 - 1)  # 5 vertices
    with pytest.raises(EnumerationCapError):
        conductance(path_graph(6))
    phi, _, _ = conductance(path_graph(6), force=True)
    assert phi > 0


def test_conductance_disconnected_witness_is_the_first_zero_row(rng):
    # Edges a-f, b-c, d-e: the first union of components {0, 5} and {1, 2}
    # sorts before the first component alone.
    g = Graph.from_edge_labels(list("abcdef"), [("a", "f"), ("b", "c"), ("d", "e")])
    assert conductance(g)[:2] == (0.0, (0, 1, 2, 5))
    for trial in range(60):
        n = int(rng.integers(3, 11))
        comps = int(rng.integers(2, min(4, n - 1) + 1))
        # Every component gets a vertex, and one of them an edge.
        labels = np.concatenate([np.arange(comps), [0], rng.integers(0, comps, n - comps - 1)])
        labels = labels[rng.permutation(n)]
        edges = set()
        for c in range(comps):
            members = [int(v) for v in np.flatnonzero(labels == c)]
            for i in range(1, len(members)):
                edges.add((members[int(rng.integers(0, i))], members[i]))
            edges.update((u, v) for u in members for v in members if u < v and rng.random() < 0.3)
        g = Graph(labels=tuple(f"v{i}" for i in range(n)), edges=tuple(sorted(edges)))
        assert len(g.components) == comps
        if trial % 2:
            m_v, m_e = random_spd(rng, n), random_spd(rng, g.m)
        else:
            m_v, m_e = (SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, k)) for k in (n, g.m))
        phi, witness, table = conductance(g, m_v, m_e, include_table=True)
        assert phi == 0.0
        assert list(witness) == min(r["subset"] for r in table if r["phi"] == 0.0)


def test_cut_scans_across_chunk_boundaries(rng, monkeypatch):
    # Both scans give the same values and witnesses whether a chunk holds
    # every cut or 7 of them, with the split point as configured and lowered
    # so that these graphs have a high half; tied cuts on cycles and complete
    # graphs then fall into different chunks. With non-integer inner
    # products a row's rounding depends on its place in a batch (BLAS
    # kernels, numpy's summation order), so the scans must take their
    # minimum from values that do not depend on it. Tables
    # are compared on the integer-valued cases only, where every volume and
    # edge mass is exact.
    graphs = [cycle_graph(8), complete_graph(6)] + [
        random_connected_graph(rng, int(rng.integers(4, 9))) for _ in range(13)
    ]

    cases = []
    for i, g in enumerate(graphs):
        if i % 5 == 0:
            m_v, m_e = normalized_inner_products(g)
        elif i % 5 == 1:
            m_v = SpdMatrix.from_diagonal(rng.integers(1, 5, g.n))
            m_e = SpdMatrix.from_diagonal(rng.integers(1, 5, g.m))
        elif i % 5 == 2:
            m_v, m_e = integer_spd(rng, g.n), integer_spd(rng, g.m)
        elif i % 5 == 3:
            m_v = SpdMatrix.from_diagonal(rng.uniform(0.3, 3.0, g.n))
            m_e = SpdMatrix.from_diagonal(rng.uniform(0.3, 3.0, g.m))
        else:
            m_v, m_e = random_spd(rng, g.n), random_spd(rng, g.m)
        cases.append((g, m_v, m_e, list(range(1, g.n)), i % 5 < 3))
    # Every 3- and 4-set of K7 ties; 0.7 and 0.3 are not binary fractions.
    k7 = complete_graph(7)
    cases.append((k7, SpdMatrix.from_diagonal(0.7 * k7.degrees()), SpdMatrix.from_diagonal(np.full(k7.m, 0.3)), [1, 2, 3], False))

    def run():
        out = []
        for g, m_v, m_e, s, exact in cases:
            phi, witness, table = conductance(g, m_v, m_e, include_table=True)
            out.append((phi, witness, table if exact else None, s_local_conductance(g, s)[1].to_dict()))
        return out

    chunk = ipl.isoperimetry.CUT_CHUNK
    for split_bits in (ipl.isoperimetry.SPLIT_MIN_BITS, 3):
        monkeypatch.setattr(ipl.isoperimetry, "SPLIT_MIN_BITS", split_bits)
        monkeypatch.setattr(ipl.isoperimetry, "CUT_CHUNK", chunk)
        whole = run()
        monkeypatch.setattr(ipl.isoperimetry, "CUT_CHUNK", 7)
        assert run() == whole


def test_conductance_agrees_with_its_table(rng):
    # phi is the least phi of the table and the witness its lexicographically
    # first minimizer, also below the split point with non-integer inner
    # products, where the one-batch scan and the table round differently,
    # and at the split point with integral ones, where the scan's own values
    # are final.
    cases = []
    for trial in range(24):
        g = random_connected_graph(rng, int(rng.integers(4, 10)))
        if trial % 3 == 0:
            m_v = SpdMatrix.from_diagonal(rng.uniform(0.3, 3.0, g.n))
            m_e = SpdMatrix.from_diagonal(rng.uniform(0.3, 3.0, g.m))
        elif trial % 3 == 1:
            m_v, m_e = random_spd(rng, g.n), random_spd(rng, g.m)
        else:
            m_v = SpdMatrix.from_diagonal(0.7 * g.degrees())
            m_e = SpdMatrix.from_diagonal(np.full(g.m, 0.3))
        cases.append((g, m_v, m_e))
    k7 = complete_graph(7)
    cases.append((k7, SpdMatrix.from_diagonal(0.7 * k7.degrees()), SpdMatrix.from_diagonal(np.full(k7.m, 0.3))))
    # Integral at the split point: normalized, tie-heavy C14 (7 tied cuts)
    # and integer dense; then integer dense with sum|M| just below 2^49, the
    # is_integral bound, on both sides of the split point.
    for g in (random_connected_graph(rng, 13), random_connected_graph(rng, 14), cycle_graph(14)):
        cases.append((g, *normalized_inner_products(g)))
    g = random_connected_graph(rng, 13)
    cases.append((g, integer_spd(rng, g.n), integer_spd(rng, g.m)))
    for g in (random_connected_graph(rng, 6), random_connected_graph(rng, 13)):
        cases.append((g, integer_spd(rng, g.n, 2**49), integer_spd(rng, g.m, 2**49)))
        assert all(m.is_integral and np.abs(m.entries).sum() >= 2**48 for m in cases[-1][1:])
    assert not SpdMatrix.from_diagonal([2.0**48, 2.0**48]).is_integral
    # Not integral past the split point, so the split candidates are
    # re-scored: a dense pair at n = 15, and at n = 16 (high half 9..15) a
    # block M_E whose one block couples the crossing edges at the high
    # vertices 9 and 15 with an LL edge.
    g = random_connected_graph(rng, 15, max_edges=24)
    cases.append((g, random_spd(rng, g.n), random_spd(rng, g.m)))
    g = _graph_with(rng, 16, 26, [(0, 9), (1, 15), (2, 3)])
    block = [g.edges.index(e) for e in ((0, 9), (1, 15), (2, 3))]
    entries = np.diag(rng.uniform(0.5, 2.0, g.m))
    entries[np.ix_(block, block)] = random_spd(rng, 3).entries
    cases.append((g, SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, g.n)), SpdMatrix(entries)))
    assert not any(m.is_integral for m in cases[-1][1:])
    for g, m_v, m_e in cases:
        phi, witness, table = conductance(g, m_v, m_e, include_table=True)
        best = min(r["phi"] for r in table)
        assert phi == best
        assert list(witness) == min((r["subset"] for r in table if r["phi"] == best), key=tuple)


def test_conductance_without_a_rounding_bound_rescores_every_cut(monkeypatch):
    # M_E = 11^T + 1e-9 I: 6 N eps sum|M_E| exceeds lambda_min(M_E), so
    # _widening has no bound and the one-batch scan rescores every cut with
    # _cut_masses. phi and the witness are still the table's minimum and its
    # lexicographically first minimizer.
    widenings, widening = [], ipl.isoperimetry._widening

    def recording(*args):
        widenings.append(widening(*args))
        return widenings[-1]

    monkeypatch.setattr(ipl.isoperimetry, "_widening", recording)
    labels = [f"v{i + 1}" for i in range(9)]
    g = Graph.from_edge_labels(labels, list(itertools.combinations(labels, 2))[:30])
    m_e = SpdMatrix(np.ones((30, 30)) + 1e-9 * np.eye(30))
    phi, witness, table = conductance(g, normalized_inner_products(g)[0], m_e, include_table=True)
    assert widenings == [np.inf]
    best = min(r["phi"] for r in table)
    assert phi == best
    assert list(witness) == min((r["subset"] for r in table if r["phi"] == best), key=tuple)


def _split_and_reference(g, m_v, m_e, cols, pinned):
    """Every cut of a split scan as (masses from the split forms, one product
    per form; masses from _cut_masses; _widening's factor). The halves are
    those of _cut_scan, which splits from SPLIT_MIN_BITS free columns."""
    iso = ipl.isoperimetry
    k = g.n if cols is None else len(cols)
    b = k - (k - pinned) // 2
    assert k - pinned >= iso.SPLIT_MIN_BITS
    lo_masks = np.arange(int(pinned), 1 << b, 1 + int(pinned))
    hi_masks = np.arange(1 << (k - b)) << b
    low = iso._subset_rows(lo_masks, g.n, cols)
    total, r = iso._complement_terms(m_v.entries, cols)
    tables = iso._low_masses(g, m_v, m_e, low, total, r)
    forms = iso._split_forms(g, m_v, m_e, low, iso._subset_rows(hi_masks, g.n, cols), tables, r)
    split = np.array([(f @ gl).ravel() for f, gl in forms])
    rows = iso._subset_rows((hi_masks[:, None] | lo_masks).ravel(), g.n, cols)
    reference = iso._cut_masses(rows, g, m_v.entries, m_e.entries, total, r)
    return split, reference, iso._widening(m_e, m_v, forms[0][0].shape[1], forms[2][0].shape[1])


def test_split_scan_peak_allocation():
    # One split scan with a dense pair at n = 21 (m = 63, 2^20 cuts). Its
    # traced peak measured 3.79 MiB before the split forms applied M through
    # _times and shared the low cut bits, and 3.66 MiB after; the pin is the
    # earlier peak plus 15%, room for numpy's own allocations to drift, so a
    # set-up that buys time with memory at the caps shows here.
    rng = np.random.default_rng(21)
    g = random_connected_graph(rng, 21, max_edges=63)
    m_v, m_e = random_spd(rng, g.n), random_spd(rng, g.m)
    assert g.m == 63
    ipl.isoperimetry._cut_scan(g, m_v, m_e, None, pinned=True)
    tracemalloc.start()
    ipl.isoperimetry._cut_scan(g, m_v, m_e, None, pinned=True)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 1.15 * 3.79 * 2**20, peak


def test_split_pair_rows_keep_an_item_without_a_key():
    # M_E couples the LL edge (4, 5) to the two crossing edges at the high
    # vertex 10 (the high half is 7..12) by +1 and -1: (M_E p) vanishes at
    # (4, 5) on every high row, so it reads no key of its own, yet its terms
    # in the pair rows of its group with vertex 10's do not vanish. Integral,
    # so every split value is exact.
    g = Graph(labels=tuple(map(str, range(13))), edges=tuple(sorted({(i, i + 1) for i in range(12)} | {(2, 10), (3, 10)})))
    f, e1, e2 = (g.edges.index(e) for e in ((4, 5), (2, 10), (3, 10)))
    entries = 4.0 * np.eye(g.m)
    entries[[f, e1], [e1, f]] = 1.0
    entries[[f, e2], [e2, f]] = -1.0
    split, reference, _ = _split_and_reference(g, SpdMatrix.identity(g.n), SpdMatrix(entries), None, pinned=True)
    assert np.array_equal(split, reference)


def _graph_with(rng, n, max_edges, extra):
    g = random_connected_graph(rng, n, max_edges=max_edges)
    return Graph(labels=g.labels, edges=tuple(sorted(set(g.edges) | set(extra))))


def test_split_values_within_the_widening_of_their_reference(rng):
    # Each cut's split masses against its _cut_masses reference, over every
    # cut of pinned scans (n = 13-18) and S-local ones (|S| = 12-14). Integral
    # pairs match exactly, up to sum|M| just below 2^49. Otherwise both sides
    # of a cut's phi lie within hi/lo of the exact one, so their ratio lies
    # within sqrt of _widening's (hi/lo)^2. Among them are graphs where the
    # pinned vertex 0 has crossing edges (the high half is the last
    # (n - 1) // 2 vertices), so they read the constant row, and
    # block-diagonal M_E coupling edges at several high vertices (pair
    # features).
    cases = []
    g = _graph_with(rng, 13, 24, [(0, 11), (0, 12)])
    cases.append((g, *normalized_inner_products(g), None))
    g = random_connected_graph(rng, 14, max_edges=22)
    cases.append((g, random_spd(rng, g.n), random_spd(rng, g.m), None))
    g = _graph_with(rng, 15, 22, [(0, 14)])
    cases.append((g, integer_spd(rng, g.n, 2**49), integer_spd(rng, g.m, 2**49), None))
    assert all(np.abs(m.entries).sum() >= 2**48 for m in cases[-1][1:3])
    g = _graph_with(rng, 16, 30, [(0, 9), (0, 15), (1, 9), (1, 15)])
    blocks = _permuted_blocks(rng, [4, 5, 3] * (g.m // 12) + [1] * (g.m % 12))
    cases.append((g, random_spd(rng, g.n), blocks, None))
    g = _graph_with(rng, 17, 30, [(0, 16)])
    blocks = _permuted_blocks(rng, [5] * (g.m // 5) + [1] * (g.m % 5))
    cases.append((g, SpdMatrix.from_diagonal(rng.uniform(0.3, 3.0, g.n)), blocks, None))
    g = _graph_with(rng, 18, 36, [(0, 12), (0, 17)])
    cases.append((g, *normalized_inner_products(g), None))
    for size in (12, 13, 14):
        g = random_connected_graph(rng, 16, max_edges=30)
        s = sorted(rng.choice(16, size, replace=False).tolist())
        cases.append((g, *normalized_inner_products(g), s))
        cases.append((g, random_spd(rng, g.n), _permuted_blocks(rng, [3] * (g.m // 3) + [1] * (g.m % 3)), s))
    coupled_groups = 0
    for g, m_v, m_e, cols in cases:
        split, reference, widen = _split_and_reference(g, m_v, m_e, cols, pinned=cols is None)
        if m_v.is_integral and m_e.is_integral:
            assert np.array_equal(split, reference), (g.n, cols)
            continue
        # The empty set (unpinned scans) and C itself are no cuts.
        cuts = slice(int(cols is not None), -1)
        phi = [e[cuts] / np.minimum(vol, comp)[cuts] for e, vol, comp in (split, reference)]
        ratio = phi[0] / phi[1]
        assert 1.0 < widen < np.inf
        assert np.all(ratio <= np.sqrt(widen)) and np.all(ratio >= 1.0 / np.sqrt(widen)), (g.n, cols)
        # A block of M_E holding crossing edges at two high vertices couples
        # their groups.
        if cols is None:
            high = np.arange(g.n) >= g.n - (g.n - 1) // 2
            u, v = g.ends
            crossing = high[u] != high[v]
            for block in m_e.blocks:
                ends = set(np.where(high[u], u, v)[block[crossing[block]]].tolist())
                coupled_groups += len(ends) >= 2
    assert coupled_groups >= 2


def test_only_non_integral_scans_are_rescored(rng, monkeypatch):
    # One exactness rule on both paths: an integral pair of inner products
    # makes every scan value exact, so its scans call neither _widening nor
    # _cut_masses; any other pair is re-scored once per scan. Pinned
    # (conductance) and unpinned (S-local) scans, below and at the split
    # point, and with it lowered to 2; a scan with SPLIT_MIN_BITS free
    # columns or more builds the split forms, once.
    calls = []

    def counted(f):
        def wrapper(*args):
            calls.append(f.__name__)
            return f(*args)

        return wrapper

    for name in ("_split_forms", "_cut_masses", "_widening"):
        monkeypatch.setattr(ipl.isoperimetry, name, counted(getattr(ipl.isoperimetry, name)))
    graphs = [cycle_graph(14), random_connected_graph(rng, 13)] + [random_connected_graph(rng, 7) for _ in range(3)]
    cases = []
    for g in graphs:
        cases += [
            (g, *normalized_inner_products(g), True),
            (g, SpdMatrix.identity(g.n), integer_spd(rng, g.m), True),
            (g, SpdMatrix.from_diagonal(0.7 * g.degrees()), SpdMatrix.identity(g.m), False),
            (g, random_spd(rng, g.n), random_spd(rng, g.m), False),
        ]
    for split_bits in (ipl.isoperimetry.SPLIT_MIN_BITS, 2):
        monkeypatch.setattr(ipl.isoperimetry, "SPLIT_MIN_BITS", split_bits)
        for g, m_v, m_e, integral in cases:
            s = list(range(1, min(g.n, 13)))
            rescored = [] if integral else ["_widening", "_cut_masses"]
            for free, scan in (
                (g.n - 1, lambda: conductance(g, m_v, m_e)),
                (len(s), lambda: ipl.isoperimetry._cut_scan(g, m_v, m_e, s, pinned=False)),
            ):
                calls.clear()
                scan()
                assert calls == ["_split_forms"] * (free >= split_bits) + rescored, (split_bits, g.n, integral)
        # S-local conductance measures in the (integral) normalized pair.
        for g in graphs:
            calls.clear()
            s_local_conductance(g, list(range(1, min(g.n, 13))))
            assert calls == ["_split_forms"] * (min(g.n, 13) - 1 >= split_bits)


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


def _swept_subsets(n, m_e):
    """The sets the sweep scores: every nonempty one, but V only when M_E has
    an off-diagonal entry (pairs with X or Y = {}, and with X or Y = V for a
    diagonal M_E, pass by identity)."""
    diagonal = np.array_equal(m_e.entries, np.diag(np.diagonal(m_e.entries)))
    return [s for size in range(1, n if diagonal else n + 1) for s in itertools.combinations(range(n), size)]


def test_mixing_verdicts_allow_for_eigh_rounding():
    # lambda_n is about 2e11 here, so eigh's last bits on it move a margin
    # by up to n eps lambda_n (|Cor(X,Y)| + sqrt(Cor(X) Cor(Y)))/Vol(G): the
    # sweep's least margin, -1.5e-5, is that rounding, and verify_eml
    # scores the same pair at 0.
    g = cycle_graph(4)
    m_v, m_e = SpdMatrix.from_diagonal([1.0, 1e-11, 1.0, 2.0]), SpdMatrix.identity(4)
    batch = verify_eml_batch(g, m_v, m_e)
    assert batch.passed and batch.values["min_margin"] < -1e-6
    single = verify_eml(g, m_v, m_e, batch.values["worst_x"], batch.values["worst_y"])
    assert single.passed


def test_eml_batch_matches_single(rng):
    # The sweep's minimum margin is the least single-pair margin over the
    # pairs it scores, and its worst pair attains it, for dense and diagonal
    # M_E; it still counts all 4^n pairs as checked.
    for n, dense in ((5, True), (4, True), (4, False), (5, False)):
        g = random_connected_graph(rng, n, max_edges=7)
        m_v = SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, g.n))
        m_e = random_spd(rng, g.m) if dense else SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, g.m))
        batch = verify_eml_batch(g, m_v, m_e)
        assert batch.passed

        def margin(x, y):
            rep = verify_eml(g, m_v, m_e, x, y, rho_e=batch.values["rho_e"])
            return rep.values["margin"]

        worst = margin(batch.values["worst_x"], batch.values["worst_y"])
        assert worst == pytest.approx(batch.values["min_margin"], abs=1e-9)
        subsets = _swept_subsets(n, m_e)
        margins = [margin(x, y) for x in subsets for y in subsets]
        assert batch.values["pairs_checked"] == 4**n
        assert batch.values["min_margin"] == pytest.approx(min(margins), abs=1e-9)


def _eml_scale(g, m_v, m_e, values):
    # Both computations round relative to the magnitudes they add up: up to
    # tau Vol(G) in the correlation term and sum |M_E| in the edge masses.
    # Where the margin itself is near 0, |lhs| + |rhs| alone would leave no
    # room for that rounding.
    tau = 0.5 * (values["lambda_n"] + values["lambda_2"])
    return (
        abs(values["worst_lhs"])
        + abs(values["worst_rhs"])
        + tau * float(np.sum(m_v.entries))
        + float(np.sum(np.abs(m_e.entries)))
    )


def _permuted_blocks(rng, sizes):
    entries = np.zeros((sum(sizes), sum(sizes)))
    start = 0
    for size in sizes:
        entries[start : start + size, start : start + size] = random_spd(rng, size).entries
        start += size
    perm = rng.permutation(len(entries))
    return SpdMatrix(entries[np.ix_(perm, perm)])


def test_eml_batch_matches_exhaustive_fuzz():
    # Every M_E kind the sweep splits differently: all edges isolated
    # (diagonal, integer diagonal), all coupled (dense), and a permuted mix of
    # 1 x 1 and larger blocks; M_V is dense on every third input. Every pair
    # is computed on its own: those the sweep settles by identity must have
    # margin equal to the trace term, and the sweep's minimum and witness
    # must be those of the others. With rho_E = 0 the settled pairs have
    # margin 0, which rounding used to push just below the true minimum.
    rng = np.random.default_rng(15)
    for trial, n in enumerate((2, 3, 3, 4, 4, 5, 5, 6)):
        g = random_connected_graph(rng, n)
        g = g.with_orientation([int(s) for s in rng.choice([-1, 1], g.m)])
        m_v = random_spd(rng, n) if trial % 3 == 0 else SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, n))
        kind = trial % 4
        if kind == 0:
            m_e = SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, g.m))
        elif kind == 1:
            m_e = random_spd(rng, g.m)
        elif kind == 2:
            sizes = []
            while sum(sizes) < g.m:
                sizes.append(min(1 + len(sizes) % 3, g.m - sum(sizes)))
            m_e = _permuted_blocks(rng, sizes)
        else:
            m_e = SpdMatrix.from_diagonal(rng.integers(1, 4, g.m).astype(float))
        batch = verify_eml_batch(g, m_v, m_e)
        v = batch.values
        subsets = [s for size in range(n + 1) for s in itertools.combinations(range(n), size)]
        singles = {
            (x, y): verify_eml(g, m_v, m_e, x, y, rho_e=v["rho_e"]).values
            for x in subsets
            for y in subsets
        }
        swept = set(_swept_subsets(n, m_e))
        margins = {pair: s["margin"] for pair, s in singles.items() if set(pair) <= swept}
        lowest = min(margins.values())
        bound = 1e-12 * _eml_scale(g, m_v, m_e, v)
        for pair, s in singles.items():
            if pair not in margins:
                assert abs(s["margin"] - s["rhs_conformality"]) <= bound, pair
        # The identities the sweep scores each pair orbit by: swapping X and
        # Y, and for a diagonal M_E replacing X by its complement.
        diagonal = m_e.is_diagonal
        for (x, y), s in singles.items():
            assert abs(s["margin"] - singles[y, x]["margin"]) <= bound, (x, y)
            if diagonal:
                xc = tuple(sorted(set(range(n)) - set(x)))
                assert abs(s["margin"] - singles[xc, y]["margin"]) <= bound, (x, y)
        assert v["pairs_checked"] == 4**n
        assert abs(v["min_margin"] - lowest) <= bound
        witness = tuple(v["worst_x"]), tuple(v["worst_y"])
        assert witness in margins, witness
        assert abs(margins[witness] - lowest) <= bound
        assert batch.passed == (lowest >= -1e-9)
        # The witness is the first member of its orbit in (X mask, Y mask) order.
        mask_x, mask_y = (sum(1 << i for i in side) for side in witness)
        assert mask_x <= mask_y, witness
        if diagonal:
            assert n - 1 not in witness[0] + witness[1], witness


def test_eml_batch_min_margin_at_pairs_with_full_set():
    # Cor(V, V) = 0 exactly; computed as a difference of volume products it
    # kept rounding noise, which sqrt(Cor(X) Cor(V)) blew up to about 1e-9
    # relative error in min_margin whenever the worst pair had X or Y = V.
    # With a dense M_E those pairs are swept, and here most witnesses have
    # X or Y = V.
    rng = np.random.default_rng(11)
    at_full_set = 0
    for trial in range(24):
        g = random_connected_graph(rng, 6)
        m_v = random_spd(rng, g.n) if trial % 3 == 0 else SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, g.n))
        m_e = random_spd(rng, g.m)
        v = verify_eml_batch(g, m_v, m_e).values
        single = verify_eml(g, m_v, m_e, v["worst_x"], v["worst_y"], rho_e=v["rho_e"])
        assert abs(v["min_margin"] - single.values["margin"]) <= 1e-12 * _eml_scale(g, m_v, m_e, v)
        at_full_set += len(v["worst_x"]) == 6 or len(v["worst_y"]) == 6
    assert at_full_set >= 12


def test_eml_batch_code_words_and_cross_tables():
    # K7 with M_E blocks of 8, 9, 1 and 3 edges: 20 coupled edges make three
    # words (8 | 8 | 1 + 3). Only the split 9-block couples two words, so the
    # zero blocks M_01 and M_02 get no table and word 0 keeps its own.
    rng = np.random.default_rng(3)
    g = complete_graph(7)
    entries = np.zeros((g.m, g.m))
    start = 0
    for size in (8, 9, 1, 3):
        entries[start : start + size, start : start + size] = random_spd(rng, size).entries
        start += size
    m_e = SpdMatrix(entries)
    coupled = np.array([e for e in range(g.m) if e != 17])
    masks = np.arange(1 << g.n)
    bits = ipl.isoperimetry._subset_rows(masks, g.n)
    u, v = g.ends
    lookups = ipl.isoperimetry._edge_word_tables(entries, coupled, bits, u, v)
    # C_12 (codes of 8 + 4 bits, word 1's D folded in), then D_0 alone.
    assert [len(table) for _, _, table in lookups] == [1 << 12, 1 << 8]
    assert all(pu.dtype == pv.dtype == np.uint16 for pu, pv, _ in lookups)
    # Every pair's cut mass from the tables against the quadratic form.
    x, y = np.repeat(masks, len(masks)), np.tile(masks, len(masks))
    cut = ((bits[x][:, u] & bits[y][:, v]) | (bits[x][:, v] & bits[y][:, u])).astype(float)
    cut[:, 17] = 0.0
    np.testing.assert_allclose(
        ipl.isoperimetry._edge_mass(lookups, lambda pu, pv: (pu[x] & pv[y]) | (pv[x] & pu[y])),
        m_e.quad(cut),
        rtol=0,
        atol=1e-12 * np.abs(entries).sum(),
    )
    m_v = SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, g.n))
    values = verify_eml_batch(g, m_v, m_e).values
    single = verify_eml(g, m_v, m_e, values["worst_x"], values["worst_y"], rho_e=values["rho_e"])
    assert abs(values["min_margin"] - single.values["margin"]) <= 1e-12 * _eml_scale(g, m_v, m_e, values)


def test_pair_tables_against_direct_sums(rng):
    # high[X, Y >> h] + low[X, Y mod 2^h] is 1_X^T a 1_Y for every pair of
    # masks: exactly for integer entries (every partial sum is exact), and
    # within rounding for real ones. a is not symmetric, so X and Y cannot
    # trade places unseen.
    for n in range(2, 11):
        h = n // 2
        s = ipl.isoperimetry._subset_rows(np.arange(1 << n), n).astype(float)
        y = np.arange(1 << n)
        for a, atol in ((rng.integers(-8, 9, (n, n)).astype(float), 0.0), (rng.normal(size=(n, n)), 1e-12 * n * n)):
            high, low = ipl.isoperimetry._pair_tables(a)
            assert high.shape == (1 << n, 1 << (n - h)) and low.shape == (1 << n, 1 << h)
            assert high.flags.c_contiguous and low.flags.c_contiguous
            pairs = high[:, y >> h] + low[:, y & ((1 << h) - 1)]
            np.testing.assert_allclose(pairs, s @ a @ s.T, rtol=0, atol=atol)


def _unpacked_margins(g, m_v, m_e, rho_e):
    """The margin of every pair (X mask, Y mask), with the edge mass read the
    unpacked way: one uint8 code per word and per set, and each lookup index
    (c_w << |x|) | c_x formed in intp. The vertex form, its tables, the
    correlations and every sum are formed as in verify_eml_batch, in the same
    order, so each margin the sweep scores must come out with its bits."""
    iso = ipl.isoperimetry
    n = g.n
    vals = inner_product_laplacian(IplSetup.from_graph(g, m_v, m_e)).eigenvalues
    tau, gap = 0.5 * (vals[-1] + vals[1]), 0.5 * (vals[-1] - vals[1])
    mv, me = m_v.entries, m_e.entries
    vol_g = float(np.sum(mv))
    trace_term = 12.0 * rho_e / (1.0 - rho_e**2) * float(np.trace(me))
    masks = np.arange(1 << n)
    bits = iso._subset_rows(masks, n)
    s = bits.astype(float)
    cor = m_v.quad(s) * m_v.quad(1.0 - s) - ((s @ mv) * (1.0 - s)).sum(axis=1) ** 2
    sqrt_cor = np.sqrt(np.clip(cor, 0.0, None))
    u, v = g.ends
    form = -np.diag(m_e.quad(unsigned_incidence(g)))
    coupled = np.concatenate([np.arange(0), *m_e.blocks])
    for e in np.setdiff1d(np.arange(g.m), coupled):
        form[u[e], v[e]] += me[e, e]
        form[v[e], u[e]] += me[e, e]
    r = mv.sum(axis=1)
    form += tau * (mv - np.outer(r, r) / vol_g)
    high, low = iso._pair_tables(form)
    h = n // 2
    lhs = high[:, masks >> h] + low[:, masks & ((1 << h) - 1)]
    lookups = iso._edge_word_tables(me, coupled, bits, u, v)
    if lookups:
        words = [coupled[i : i + 8] for i in range(0, len(coupled), 8)]
        codes = [[(bits[:, side[w]] @ (1 << np.arange(len(w)))).astype(np.uint8) for side in (u, v)] for w in words]
        # Lookup order: the coupled word pairs, then the words in none.
        pairs = [
            (w, x) for w, x in itertools.combinations(range(len(words)), 2) if np.any(me[np.ix_(words[w], words[x])])
        ]
        order = pairs + [(w, None) for w in range(len(words)) if all(w not in p for p in pairs)]
        assert len(order) == len(lookups)
        for (w, x), (pu, pv, _) in zip(order, lookups):
            if x is not None:
                packed = [(cw.astype(np.uint16) << len(words[x])) | cx for cw, cx in zip(codes[w], codes[x])]
                assert np.array_equal(pu, packed[0]) and np.array_equal(pv, packed[1])

        def edge_mass(code):
            total = 0.0
            for (w, x), (_, _, table) in zip(order, lookups):
                index = code(w).astype(np.intp)
                if x is not None:
                    index = (index << len(words[x])) | code(x)
                total = total + table.take(index)
            return total

        xs, ys = masks[:, None], masks[None, :]
        cut = edge_mass(lambda w: (codes[w][0][xs] & codes[w][1][ys]) | (codes[w][1][xs] & codes[w][0][ys]))
        lhs += cut + edge_mass(lambda w: codes[w][0] & codes[w][1]).take(xs & ys)
    lhs = np.abs(lhs)
    margins = (gap * sqrt_cor / vol_g)[:, None] * sqrt_cor
    margins += trace_term
    margins -= lhs
    return margins, lhs, bool(lookups)


def test_eml_batch_packed_codes_match_the_unpacked_sweep():
    # The sweep's minimum and witness, bit for bit, against the full margin
    # matrix scored with unpacked per-word codes, over the pairs it sweeps
    # (X <= Y, X and Y nonempty, and without vertex n - 1 for an M_E that
    # couples no edges). Inputs: n = 2-10; 17-24 coupled edges in three
    # words, with cross-word lookups and, on K7, word 0 on its own; block,
    # dense and diagonal M_E.
    rng = np.random.default_rng(31)
    k7 = complete_graph(7)
    aligned = np.zeros((k7.m, k7.m))
    start = 0
    for size in (8, 9, 1, 3):
        aligned[start : start + size, start : start + size] = random_spd(rng, size).entries
        start += size
    k8_24 = Graph(labels=tuple(f"v{i}" for i in range(8)), edges=complete_graph(8).edges[:24])
    cases = [(k7, SpdMatrix(aligned)), (k8_24, _permuted_blocks(rng, [5, 5, 4, 4, 3, 2, 1]))]
    g = _graph_with(rng, 10, 22, [(0, 9)])
    cases.append((g, _permuted_blocks(rng, [4, 3] * (g.m // 7) + [1] * (g.m % 7))))
    g = random_connected_graph(rng, 9, max_edges=17)
    cases.append((g, _permuted_blocks(rng, [3, 2] * (g.m // 5) + [1] * (g.m % 5))))
    for n in (2, 3, 5, 6):
        g = random_connected_graph(rng, n, max_edges=9)
        cases.append((g, random_spd(rng, g.m)))
        cases.append((g, SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, g.m))))
    assert [sum(len(b) for b in m_e.blocks) for _, m_e in cases[:2]] == [20, 23]
    for trial, (g, m_e) in enumerate(cases):
        m_v = random_spd(rng, g.n) if trial % 3 == 0 else SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, g.n))
        v = verify_eml_batch(g, m_v, m_e).values
        margins, lhs, coupled = _unpacked_margins(g, m_v, m_e, v["rho_e"])
        n = g.n
        stop = 1 << (n if coupled else n - 1)
        swept = np.triu(np.ones((stop, stop), dtype=bool))
        swept[0] = False
        scored = np.where(swept, margins[:stop, :stop], np.inf)
        x, y = divmod(int(np.argmin(scored)), stop)
        assert same_bits(v["min_margin"], scored[x, y]), (trial, n)
        assert (v["worst_x"], v["worst_y"]) == ([i for i in range(n) if x >> i & 1], [i for i in range(n) if y >> i & 1])
        assert same_bits(v["worst_lhs"], lhs[x, y]), (trial, n)


def test_eml_batch_chunking_is_invisible(rng, monkeypatch):
    # The sweep never splits an X row: a chunk holds one whole row at least,
    # and more only while they fit. Row X = 1 holds the 63 pairs Y = 1..63
    # and later rows are shorter, so 1 gives one-row chunks throughout, 24
    # and 63 give one-row chunks of up to 63 pairs until the rows shorten
    # below them, and 200 starts with three rows at a time. Values and the
    # witness must not move by a bit.
    cases = []
    for trial in range(4):
        g = random_connected_graph(rng, 6)
        m_v = SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, g.n))
        m_e = random_spd(rng, g.m) if trial % 2 else _permuted_blocks(rng, [1, 2] * (g.m // 3) + [1] * (g.m % 3))
        cases.append((g, m_v, m_e))
    whole = [verify_eml_batch(*case).values for case in cases]
    for chunk in (1, 24, 63, 200):
        monkeypatch.setattr(ipl.isoperimetry, "CUT_CHUNK", chunk)
        assert [verify_eml_batch(*case).values for case in cases] == whole


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def test_verifiers_read_the_spectra_and_omega_bit_for_bit():
    # The verifiers take their eigenvalues from the eigh of the matrix that
    # inner_product_laplacian and semi_hodge build, and omega as the max of
    # compatibility's per-vertex ratios, without building either result.
    rng = np.random.default_rng(30)
    for trial in range(200):
        n = 2 + trial % 9
        g = random_connected_graph(rng, n, max_edges=12)
        g = g.with_orientation([int(s) for s in rng.choice([-1, 1], g.m)])
        m_v, m_e = normalized_inner_products(g)
        if trial % 3 == 1:
            m_v, m_e = random_spd(rng, n), random_spd(rng, g.m)
        elif trial % 3 == 2:
            m_e = _permuted_blocks(rng, [4] * (g.m // 4) + [g.m % 4] * (g.m % 4 > 0))
        # One of M_V and M_E scaled by 1e-12, 1e-6, 1, 1e6 or 1e12.
        scaled = SpdMatrix(10.0 ** (6 * (trial % 5 - 2)) * (m_v if trial % 2 else m_e).entries)
        m_v, m_e = (scaled, m_e) if trial % 2 else (m_v, scaled)
        spec = inner_product_laplacian(IplSetup.from_graph(g, m_v, m_e)).eigenvalues
        hodge = semi_hodge(graph_incidence(g), m_v, m_e).eigenvalues
        assert same_bits(hodge, spec)
        omega = compatibility(g, m_v, m_e).omega
        x, y = np.flatnonzero(rng.random(n) < 0.5).tolist(), np.flatnonzero(rng.random(n) < 0.5).tolist()
        cheeger = verify_cheeger(g, m_v, m_e).values
        radius = verify_radius_bound(g, m_v, m_e).values
        eml = verify_eml(g, m_v, m_e, x, y).values
        assert same_bits([cheeger["lambda_2"], cheeger["omega"]], [spec[1], omega])
        assert same_bits([radius["lambda_max"], radius["omega"]], [hodge[-1], omega])
        assert same_bits([eml["lambda_2"], eml["lambda_n"]], [spec[1], spec[-1]])
        if n <= 7:
            batch = verify_eml_batch(g, m_v, m_e).values
            assert same_bits([batch["lambda_2"], batch["lambda_n"]], [spec[1], spec[-1]])


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


def loop_neumann(g, subset):
    # The reduced form built edge by edge and boundary vertex by boundary
    # vertex: each boundary vertex b holds the mean of its neighbors in S,
    # which adds I - J/|N(b) & S| on those neighbors.
    s_list = sorted(subset)
    s_set = set(s_list)
    pos = {v: i for i, v in enumerate(s_list)}
    a = np.zeros((len(s_list), len(s_list)))
    for u, v in g.edges:
        if u in s_set and v in s_set:
            a[pos[u], pos[u]] += 1.0
            a[pos[v], pos[v]] += 1.0
            a[pos[u], pos[v]] -= 1.0
            a[pos[v], pos[u]] -= 1.0
    inner = {}
    for b in _vertex_boundary(g, s_set):
        inner[b] = [pos[w] for w in g.neighbors(b) if w in s_set]
        a[np.ix_(inner[b], inner[b])] += np.eye(len(inner[b])) - 1.0 / len(inner[b])
    deg_s = g.degrees().astype(float)[s_list]
    scale = 1.0 / np.sqrt(deg_s)
    constraint = np.sqrt(deg_s) / np.linalg.norm(np.sqrt(deg_s))
    basis = np.linalg.svd(constraint[None, :])[2][1:].T
    vals, vecs = sym_eig(basis.T @ (a * scale[:, None] * scale[None, :]) @ basis)
    f_s = (basis @ vecs[:, 0]) * scale
    f_b = [f_s[inner[b]].mean() for b in sorted(inner)]
    return max(float(vals[0]), 0.0), np.concatenate([f_s, f_b]), float(np.diff(vals[:2]).min(initial=np.inf))


def test_neumann_schur_matches_loop_reference(rng):
    checked = simple = 0
    while checked < 40:
        g = random_connected_graph(rng, int(rng.integers(5, 12)))
        subset = sorted(rng.choice(g.n, size=int(rng.integers(2, g.n)), replace=False).tolist())
        if not _vertex_boundary(g, subset):
            continue
        res = neumann_eigenvalue(g, subset)
        lam, values, gap = loop_neumann(g, subset)
        assert res.lambda_s == pytest.approx(lam, rel=1e-12, abs=1e-12)
        assert rayleigh_quotient(g, res) == pytest.approx(lam, abs=1e-9)
        if gap > 1e-6:
            # A simple eigenvalue fixes the vector up to its sign, which
            # follows the largest entry; an exact tie in magnitude can
            # resolve either way under rounding.
            assert min(np.abs(res.values - values).max(), np.abs(res.values + values).max()) <= 1e-12
            simple += 1
        checked += 1
    assert simple >= 30


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


def test_s_local_conductance_reuses_a_neumann_result():
    # A direct or a sweep result of the same subset gives the report of a
    # fresh call; one of another subset is refused.
    g = path_graph(6)
    fresh = s_local_conductance(g, [1, 2, 3])
    for res in (neumann_eigenvalue(g, [3, 1, 2]), neumann_limit_experiment(g, [1, 2, 3], [0.5, 0.1])):
        phi, report = s_local_conductance(g, [1, 2, 3], neumann=res)
        assert (phi, report.to_dict()) == (fresh[0], fresh[1].to_dict())
    with pytest.raises(ValueError, match="^neumann is the result for another subset$"):
        s_local_conductance(g, [1, 2, 3], neumann=neumann_eigenvalue(g, [1, 2]))


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


def test_neumann_sweep_on_a_repeated_eigenvalue():
    # lambda_S = 2/3 has a two-dimensional eigenspace on this ball, so the
    # sweep converges to some vector of it, not to the one reported.
    labels = [f"v{i}" for i in range(8)]
    edges = [(0, 2), (1, 6), (1, 7), (2, 3), (2, 6), (2, 7), (3, 4), (3, 5), (4, 6), (5, 7)]
    g = Graph.from_edge_labels(labels, [(labels[a], labels[b]) for a, b in edges])
    res = neumann_limit_experiment(g, [1, 2, 6, 7])
    assert res.multiplicity == 2
    assert res.to_dict()["multiplicity"] == 2
    assert not res.failures
    assert res.lambda_gap <= 1e-4
    assert res.vector_gap <= 1e-3
    assert res.converged


def test_neumann_sweep_past_epsilon_squared_masses():
    # v1 is two steps from the ball, so its vertex mass is epsilon^2: the
    # family's vertex matrix is exactly diagonal but fails the SPD
    # threshold from epsilon = 1e-6 on. The sweep still runs to 1e-8.
    labels = [f"v{i}" for i in range(8)]
    edges = [(0, 2), (0, 3), (0, 4), (1, 6), (2, 3), (2, 5), (3, 4), (3, 6), (3, 7)]
    g = Graph.from_edge_labels(labels, [(labels[a], labels[b]) for a, b in edges])
    res = neumann_limit_experiment(g, [0, 2, 3, 4])
    assert res.failures == []
    assert [r["epsilon"] for r in res.epsilon_trace] == [10.0**-k for k in range(1, 9)]
    assert all(r["zero_multiplicity"] == 1 for r in res.epsilon_trace)
    assert res.converged
    assert res.lambda_gap <= 1e-6


def test_neumann_steps_are_the_semi_hodge_laplacian_bit_for_bit(monkeypatch, rng):
    # Each epsilon step builds Q^-1 B diag(w) B^T Q^-1 from arrays; wherever
    # SpdMatrix accepts the vertex masses, semi_hodge on the same diagonal
    # inner products gives that matrix and its eigenvalues with their bits.
    steps = []

    def spectrum(matrix, q_inv):
        steps.append(ipl.laplacian._spectrum(matrix, q_inv))
        return steps[-1]

    monkeypatch.setattr(ipl.isoperimetry, "_spectrum", spectrum)
    labels = [f"v{i}" for i in range(8)]
    edges = [(0, 2), (0, 3), (0, 4), (1, 6), (2, 3), (2, 5), (3, 4), (3, 6), (3, 7)]
    cases = [(Graph.from_edge_labels(labels, [(labels[a], labels[b]) for a, b in edges]), [0, 2, 3, 4])]
    for _ in range(12):
        g = random_connected_graph(rng, int(rng.integers(4, 10)))
        cases.append((g, sorted(rng.choice(g.n, size=int(rng.integers(2, g.n - 1)), replace=False).tolist())))
    compared = 0
    for g, subset in cases:
        steps.clear()
        res = neumann_limit_experiment(g, subset)
        assert len(steps) == len(res.epsilon_trace) + (len(res.failures) > 0)
        u, v = g.ends
        in_s = np.isin(np.arange(g.n), subset)
        for eps, step in zip(DEFAULT_EPSILON_SCHEDULE, steps):
            w = np.where(in_s[u] | in_s[v], 1.0, eps)
            deg_eps = unsigned_incidence(g).astype(float) @ w
            try:
                m_v = SpdMatrix.from_diagonal(np.where(in_s, deg_eps, eps * deg_eps))
            except NotPositiveDefiniteError:
                continue
            spec = semi_hodge(graph_incidence(g), m_v, SpdMatrix.from_diagonal(w))
            assert same_bits(step.matrix, spec.matrix)
            assert same_bits(step.eigenvalues, spec.eigenvalues)
            compared += 1
    assert compared >= 80


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

    # Refused before the scan, which would divide by the zero volume of {3}.
    g = Graph(labels=("a", "b", "c", "d"), edges=((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="connected"):
        s_local_conductance(g, [2, 3])


def test_s_local_cap(monkeypatch):
    monkeypatch.setitem(CAPS, "cuts", 2**5 - 2)  # |S| = 5
    with pytest.raises(EnumerationCapError):
        s_local_conductance(cycle_graph(8), range(7))


def test_s_local_matches_brute_force(rng):
    # Plain-Python oracle: every nonempty proper T of S, edge counts over
    # degree sums, ties to the lexicographically smallest T.
    graphs = [cycle_graph(n) for n in (4, 7, 10)] + [complete_graph(n) for n in (4, 6)]
    graphs += [random_connected_graph(rng, int(rng.integers(4, 11))) for _ in range(12)]
    for g in graphs:
        deg = [int(d) for d in g.degrees()]
        size = int(rng.integers(2, g.n))
        s = sorted(int(w) for w in rng.choice(g.n, size, replace=False))
        vol_s = sum(deg[w] for w in s)
        best = None
        for k in range(1, len(s)):
            for t in itertools.combinations(s, k):
                in_t = set(t)
                cut = sum(1 for u, v in g.edges if (u in in_t) != (v in in_t))
                vol_t = sum(deg[w] for w in t)
                best = min(best or (np.inf, ()), (cut / min(vol_t, vol_s - vol_t), t))
        phi_s, report = s_local_conductance(g, s)
        assert phi_s == report.values["phi_s"] == best[0]
        assert report.values["witness_T"] == list(best[1])


TWO_EDGES = Graph.from_edge_labels(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])


def scaled_identities(n, mv, me):
    """mv I on the vertices and me I on the edges of the n-path."""
    return SpdMatrix.from_diagonal(np.full(n, mv)), SpdMatrix.from_diagonal(np.full(n - 1, me))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cut_stats(path_graph(3), *normalized_inner_products(path_graph(3)), [0, 5], [1]), "vertex index 5 out of range 0..2"),
        (lambda: verify_cheeger(TWO_EDGES, *normalized_inner_products(TWO_EDGES)), "the Cheeger bound is stated for connected graphs"),
        (lambda: verify_eml(TWO_EDGES, *normalized_inner_products(TWO_EDGES), [0], [2]), "the mixing bound is stated for connected graphs"),
        (lambda: verify_eml_batch(TWO_EDGES, *normalized_inner_products(TWO_EDGES)), "the mixing bound is stated for connected graphs"),
        (lambda: dirichlet_eigenvalues(path_graph(4), [1, 7]), "vertex index 7 out of range 0..3"),
        (lambda: dirichlet_eigenvalues(path_graph(4), []), "the subset needs at least one vertex"),
        (lambda: neumann_eigenvalue(path_graph(4), [-1, 2]), "vertex index -1 out of range 0..3"),
        (lambda: neumann_eigenvalue(path_graph(4), [1, 1]), "the subset needs at least two vertices"),
        (lambda: neumann_limit_experiment(path_graph(4), [2]), "the subset needs at least two vertices"),
        (lambda: s_local_conductance(path_graph(4), [1]), "the subset needs at least two vertices"),
        (lambda: _vertex_boundary(path_graph(4), [4]), "vertex index 4 out of range 0..3"),
    ],
    ids=[
        "cut-stats-range", "cheeger-disconnected", "eml-disconnected", "eml-batch-disconnected", "dirichlet-range",
        "dirichlet-empty", "neumann-range", "neumann-one-vertex", "sweep-one-vertex", "s-local-one-vertex",
        "boundary-range",
    ],
)
def test_refusals_name_their_input(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert type(refused.value) is ValueError and str(refused.value) == message


def test_cut_scan_refuses_masses_past_the_range_of_a_double():
    # The scans run on the pair of laplacian._unit_scaled, so a mass past
    # the range of a double no longer decides anything: at M_V = M_E = 1e308 I,
    # where Vol(G) overflows, phi = 1 on the 3-path (one batch) and 1/6 on
    # the 13-path (split tiles), as at M_V = M_E = I, and the Cheeger check
    # passes on both. Only a reported value whose true size is past that
    # range is refused, with the one line that names it: the tables' e_cut
    # of {v0, v2}, which cuts 2 edges of the 3-path and 3 of the 13-path,
    # and phi at M_V = 1e-300 I, M_E = 1e300 I: 1e600 on the 3-path and
    # 1e600 / 6 on the 13-path.
    def refusal(name):
        return f"{name} is outside the range of a double; rescale M_V and M_E"

    for n, phi in ((3, 1.0), (13, 1 / 6)):
        big = scaled_identities(n, 1e308, 1e308)
        assert conductance(path_graph(n), *big)[:2] == (phi, tuple(range(n // 2)))
        report = verify_cheeger(path_graph(n), *big)
        assert report.passed and report.values["phi"] == phi
        with pytest.raises(ValueError) as refused:
            conductance(path_graph(n), *big, include_table=True)
        assert str(refused.value) == refusal(f"e_cut = {2 + (n > 3)}.00e+308")
        for call in (conductance, lambda *a: conductance(*a, include_table=True), verify_cheeger):
            with pytest.raises(ValueError) as refused:
                call(path_graph(n), *scaled_identities(n, 1e-300, 1e300))
            assert str(refused.value) == refusal("phi = 1.00e+600" if n == 3 else "phi = 1.67e+599")
    # Vol(G) = 1.7e308 is a double, but for X = {v0, v1} the complement
    # volume Vol(G) - 2 1_X^T r + Vol(X) read -inf at the given scale, and
    # phi -0.0: on the scaled pair phi is 1 / 6e307, a subnormal.
    phi, witness, _ = conductance(path_graph(3), SpdMatrix.from_diagonal([6e307, 6e307, 5e307]), SpdMatrix.identity(2))
    assert (phi, witness) == (1.0 / 6e307, (0,))


def _coupled_5_cycle_me(scale):
    # A tridiagonal M_E on the 5-cycle's edges: rho_E > 0.
    return SpdMatrix((np.eye(5) + 0.3 * (np.eye(5, k=1) + np.eye(5, k=-1))) * scale)


@pytest.mark.parametrize(
    "m_v, m_e, name",
    [
        (SpdMatrix.from_diagonal(np.full(5, 4e307)), SpdMatrix.identity(5), "Vol(G) = inf"),
        (SpdMatrix.from_diagonal(np.full(5, 1e300)), _coupled_5_cycle_me(5e307), "the trace term = inf"),
        (SpdMatrix.identity(5), _coupled_5_cycle_me(5e307), "lambda_2 = nan"),
    ],
    ids=["vol-g", "trace-term", "lambda-2"],
)
@pytest.mark.parametrize("verifier", [lambda *a: verify_eml(*a, [0, 1], [1, 2]), verify_eml_batch], ids=["single", "batch"])
def test_mixing_verifiers_refuse_a_term_past_the_range_of_a_double(m_v, m_e, name, verifier):
    # On the 5-cycle Vol(G) = 5 * 4e307 and 5 tr(M_E) = 2.5e309 overflow,
    # and at M_V = I so do the Laplacian's entries; each once refused as
    # `name`. Both verifiers now run on the pair of laplacian._unit_scaled,
    # with no numpy warning, and refuse only a reported value whose true
    # size is past the range of a double, the first in report order:
    # Cor(X, Y) = (8 - 4) (4e307)^2 and 1e600, and lambda_n of the single
    # check; min_margin, held up by the trace term, of the sweep. The sweep
    # at M_V = 4e307 I reports no Cor or Vol and passes, with the margins of
    # M_V = I (a margin is in the units of M_E) and its lambdas / 4e307.
    expected = {
        ("Vol(G) = inf", False): "cor_xy = 1.60e+615",
        ("the trace term = inf", False): "cor_xy = 1.00e+600",
        ("the trace term = inf", True): "min_margin = 1.99e+309",
        ("lambda_2 = nan", False): "lambda_n = 2.03e+308",
        ("lambda_2 = nan", True): "min_margin = 1.99e+309",
    }.get((name, verifier is verify_eml_batch))
    if expected is None:
        report, unit = verifier(cycle_graph(5), m_v, m_e), verifier(cycle_graph(5), SpdMatrix.identity(5), m_e)
        assert report.passed and unit.passed
        for key, value in unit.values.items():
            scale = 1 / 4e307 if key.startswith("lambda") else 1.0
            assert report.values[key] == (pytest.approx(value * scale, rel=1e-12) if isinstance(value, float) else value), key
        return
    with pytest.raises(ValueError) as refused:
        verifier(cycle_graph(5), m_v, m_e)
    assert str(refused.value) == f"{expected} is outside the range of a double; rescale M_V and M_E"


@pytest.mark.parametrize("rho_e", [1.0, -0.5, 2.0, float("nan"), float("inf")])
def test_verify_eml_refuses_a_given_rho_e_outside_zero_one(rho_e):
    # rho_E of an SPD M_E lies in [0, 1); 1 divided by zero in the trace
    # term, -0.5 and 2 made it negative, and NaN passed into every value.
    g = cycle_graph(5)
    with pytest.raises(ValueError) as refused:
        verify_eml(g, *normalized_inner_products(g), [0, 1], [1, 2], rho_e=rho_e)
    assert str(refused.value) == f"rho_e must lie in [0, 1), got {rho_e!r}"


@pytest.mark.parametrize("n", [0, 1])
def test_conductance_below_two_vertices_is_refused_for_having_no_edge(n):
    # A graph of fewer than two vertices has no edge, so conductance needs
    # no size check of its own: the default M_E does not exist and a given
    # one (an SpdMatrix has dimension >= 1) does not fit.
    g = Graph(labels=tuple(f"v{i}" for i in range(n)), edges=())
    with pytest.raises(ValueError, match="^the graph has no edges, so it has no classical edge inner product$"):
        conductance(g)
    one = SpdMatrix.identity(1)
    with pytest.raises(ValueError, match=f"^inner product dimensions must match .* the graph has {n} vertices and 0 edges$"):
        conductance(g, one, one)
