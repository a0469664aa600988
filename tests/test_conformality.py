from functools import lru_cache

import numpy as np
import pytest

from ipl import (
    EnumerationCapError,
    SpdMatrix,
    inverse_conformality_check,
    make_conformality_pair,
    partition_gadget,
    strong_conformality,
    verify_cheeger,
    verify_conformality_bounds,
    verify_eml_batch,
    verify_radius_bound,
    weak_conformality,
    weak_conformality_sampled,
    weak_conformality_value,
)

from ipl import conformality
from ipl.conformality import _batched_rho_sq, _partition_value
from ipl.linalg import _fix_signs, _quad
from ipl.errors import CAPS

from conftest import cycle_graph, random_orthogonal, random_spd


def family_matrix(k, alpha):
    return SpdMatrix(np.eye(k) + (alpha / k) * np.ones((k, k)))


def sampled_orthogonal_pairs(m, trials, seed):
    # Independent upper-bound check for the strong conformality: the best
    # correlation over random pairs orthogonal in the standard inner product.
    rng = np.random.default_rng(seed)
    k = m.dim
    x = rng.standard_normal((trials, k))
    y = rng.standard_normal((trials, k))
    y = y - (np.einsum("ti,ti->t", x, y) / np.einsum("ti,ti->t", x, x))[:, None] * x
    mx = x @ m.entries
    num = np.abs(np.einsum("ti,ti->t", mx, y))
    den = np.sqrt(np.einsum("ti,ti->t", mx, x) * np.einsum("ti,ij,tj->t", y, m.entries, y))
    keep = den > 0
    return float((num[keep] / den[keep]).max())


def test_strong_examples():
    assert strong_conformality(SpdMatrix(np.eye(4))) == 0.0
    assert strong_conformality(SpdMatrix(np.diag([3.0, 1.0]))) == pytest.approx(0.5)
    m = SpdMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert strong_conformality(m) == pytest.approx(0.5)
    oracle = sampled_orthogonal_pairs(m, 20000, 7)
    assert oracle <= 0.5 + 1e-9
    assert oracle >= 0.45


def test_strong_condition_number_identity(rng):
    for _ in range(20):
        m = random_spd(rng, int(rng.integers(2, 10)))
        kappa = m.condition
        assert strong_conformality(m) == pytest.approx(1 - 2 / (kappa + 1), abs=1e-12)


def test_strong_requires_dim_two():
    with pytest.raises(ValueError):
        strong_conformality(SpdMatrix(np.eye(1)))


def test_weak_diagonal_is_zero_with_singleton_witness(rng):
    m = SpdMatrix.from_diagonal(rng.uniform(0.5, 4.0, 5))
    res = weak_conformality(m)
    assert res.rho_weak == 0.0
    assert res.witness_partition == (0,)


def test_weak_two_by_two_offdiagonal():
    alpha = 2.0
    m = SpdMatrix(np.array([[alpha, 0.3], [0.3, 1 / alpha]]))
    res = weak_conformality(m)
    assert res.rho_weak == pytest.approx(0.3, abs=1e-12)


def test_weak_rank_one_shift_family():
    res = weak_conformality(family_matrix(4, 2.0))
    assert res.rho_weak == pytest.approx(0.5, abs=1e-9)


def test_weak_witness_invariants(rng):
    for _ in range(10):
        m = random_spd(rng, int(rng.integers(2, 9)))
        res = weak_conformality(m)
        s = set(res.witness_partition)
        assert all(res.witness_x[i] == 0 for i in range(m.dim) if i not in s)
        assert all(res.witness_y[i] == 0 for i in s)
        ratio = res.witness_x @ m.entries @ res.witness_y / np.sqrt(
            m.quad(res.witness_x) * m.quad(res.witness_y)
        )
        assert ratio == pytest.approx(res.rho_weak, abs=1e-8)
        assert res.rho_weak <= res.rho_strong + 1e-10


@pytest.mark.parametrize("k", [5, 70])
def test_weak_diagonal_pair_bits(k):
    # The pair of S = {0} against {1}, scored on C = {0, 1}: x = e0 / sqrt(M00)
    # and y = e1 / sqrt(M11), to the bit. Past k = 64 no k-bit mask can
    # stand in for S.
    for diag, x0 in ((1.0 + np.arange(k) % 7, 1.0), (0.3 + 1.7 * (np.arange(k) % 5), float.fromhex("0x1.d363d1848dcbfp+0"))):
        res = weak_conformality(SpdMatrix.from_diagonal(diag))
        assert (res.rho_weak, res.witness_partition) == (0.0, (0,))
        x, y = np.zeros(k), np.zeros(k)
        x[0], y[1] = x0, float.fromhex("0x1.6a09e667f3bccp-1")
        assert np.array_equal(res.witness_x, x)
        assert np.array_equal(res.witness_y, y)


def test_rescoring_rows_are_block_wide(monkeypatch):
    # Ten 4 x 4 blocks: the near ties are scored in block coordinates, so
    # every membership row weak_conformality forms is 4 wide, not 40.
    widths, subset_rows = [], conformality._subset_rows

    def recording(masks, n, cols=None):
        rows = subset_rows(masks, n, cols)
        widths.append(rows.shape[1])
        return rows

    monkeypatch.setattr(conformality, "_subset_rows", recording)
    m = SpdMatrix(block_diagonal(np.random.default_rng(10), [4] * 10))
    res = weak_conformality(m)
    assert widths and set(widths) == {4}
    assert (res.rho_weak, res.witness_partition) == reference_block_weak(m)[:2]


def test_weak_diagonal_needs_no_cap():
    # The diagonal identity answers without a scan, so the cap does not apply.
    res = weak_conformality(SpdMatrix.identity(25))
    assert res.rho_weak == 0.0
    assert res.witness_partition == (0,)


def test_weak_cap_and_force(monkeypatch):
    monkeypatch.setitem(CAPS, "partitions", 2**4 - 1)  # a block of 5
    # A dense 6 x 6, and a block of 6 ahead of a block of 2: the cap applies
    # to the largest block, wherever it sits.
    entries = np.eye(8) + 0.1 * np.ones((8, 8))
    entries[:6, 6:] = entries[6:, :6] = 0.0
    for m in (SpdMatrix(np.eye(6) + 0.1 * np.ones((6, 6))), SpdMatrix(entries)):
        with pytest.raises(EnumerationCapError):
            weak_conformality(m)
        res = weak_conformality(m, force=True)
        assert res.rho_weak > 0


def block_diagonal(rng, sizes):
    entries = np.zeros((sum(sizes), sum(sizes)))
    at = 0
    for size in sizes:
        entries[at : at + size, at : at + size] = random_spd(rng, size).entries
        at += size
    return entries


def test_weak_blocks_past_the_cap(rng):
    # 24 > cap, but the largest block of the nonzero pattern has 6 indices.
    entries = block_diagonal(rng, [6, 5, 4, 6, 3])
    p = rng.permutation(24)
    m = SpdMatrix(entries[np.ix_(p, p)])
    res = weak_conformality(m)
    rho, subset, x, y = reference_block_weak(m)
    assert res.rho_weak == rho
    assert res.witness_partition == subset
    assert np.array_equal(res.witness_x, x)
    assert np.array_equal(res.witness_y, y)


def test_weak_exact_block_tie_takes_the_smallest_lift():
    # Blocks {1, 3} and {2, 4} are equal, so their values tie exactly; their
    # lifts are (0, 1) and (0, 1, 2). Block {0, 5} scores lower.
    entries = np.diag([2.0] * 6)
    for i, j, c in ((0, 5, 0.5), (1, 3, 1.0), (2, 4, 1.0)):
        entries[i, j] = entries[j, i] = c
    m = SpdMatrix(entries)
    res = weak_conformality(m)
    assert res.witness_partition == (0, 1)
    assert res.rho_weak == pytest.approx(0.5, abs=1e-15)
    assert np.flatnonzero(res.witness_x).tolist() == [1]
    assert np.flatnonzero(res.witness_y).tolist() == [3]
    assert reference_block_weak(m)[:2] == (res.rho_weak, (0, 1))
    assert weak_conformality_value(m) == res.rho_weak


def test_blocks_share_one_inverse_and_one_recheck(monkeypatch):
    # Three 4 x 4 blocks of distinct values: every block is ranked from M's
    # own inverse, only the best block's near ties are scored again, in one
    # rescoring call, and the witness pair is built on that block's entries
    # without a matrix of its own.
    rng = np.random.default_rng(21)
    m = SpdMatrix(block_diagonal(rng, [4, 4, 4]))
    built, scans = [], []
    init, rescore = SpdMatrix.__init__, conformality._rescore

    def counting_init(self, entries):
        built.append(np.shape(entries))
        init(self, entries)

    def counting_rescore(entries, near, *witness):
        # The indices of every block that holds a near tie.
        scans.append(np.unique(np.concatenate([c[hit.any(axis=1)].ravel() for c, hit in near])).tolist())
        return rescore(entries, near, *witness)

    monkeypatch.setattr(SpdMatrix, "__init__", counting_init)
    monkeypatch.setattr(conformality, "_rescore", counting_rescore)
    rho = weak_conformality_value(m)
    assert built == []
    assert len(scans) == 1
    assert len(scans[0]) == 4  # one block's near ties
    res = weak_conformality(m)
    assert built == []
    assert len(scans) == 2
    assert res.rho_weak == rho
    assert np.flatnonzero(res.witness_x + res.witness_y).tolist() == scans[0]


def test_rescore_gets_only_the_slices_with_a_near_tie(monkeypatch):
    # Blocks of 6, 5, 4 and 3 are four size stacks, one ranking call each.
    # Only the slice of the best block holds a near tie and reaches
    # _rescore, which scores what it scores when handed every slice.
    rng = np.random.default_rng(6543)
    p = rng.permutation(18)
    m = SpdMatrix(block_diagonal(rng, [6, 5, 4, 3])[np.ix_(p, p)])
    ranked, near, rank, rescore = [], [], conformality._batched_rho_sq, conformality._rescore

    def recording_rank(entries, inverse, c, delta):
        ranked.append((c, rank(entries, inverse, c, delta), delta))
        return ranked[-1][1]

    def recording_rescore(entries, slices, *witness):
        near.extend(slices)
        return rescore(entries, slices, *witness)

    monkeypatch.setattr(conformality, "_batched_rho_sq", recording_rank)
    monkeypatch.setattr(conformality, "_rescore", recording_rescore)
    res = weak_conformality(m)
    top = max(rho_sq.max() for _, rho_sq, _ in ranked)
    every = [(c, rho_sq >= top - delta) for c, rho_sq, delta in ranked]
    assert len(every) == 4 and len(near) == 1
    assert near[0][0] is every[int(np.argmax([hit.any() for _, hit in every]))][0]
    assert all(hit.any() for _, hit in near)
    (got, got_found), (want, want_found) = rescore(m.entries, near), rescore(m.entries, every)
    assert got == want == res.rho_weak
    assert len(got_found) == len(want_found) > 0
    assert all(np.array_equal(a, b) for g, w in zip(got_found, want_found) for a, b in zip(g, w))
    rho, subset, x, y = reference_block_weak(m)
    assert (res.rho_weak, res.witness_partition) == (rho, subset)
    assert np.array_equal(res.witness_x, x) and np.array_equal(res.witness_y, y)


def test_witness_pair_reuses_the_winning_score(monkeypatch):
    # A dense k = 8 input with a single near-tie: the rescoring stack is the
    # only _partition_value call, and the pair is built from its L, u and Z
    # with one more solve, v = L^-T u on the winner alone, and no index
    # complement, no np.ix_ gather and no new SpdMatrix.
    m = random_spd(np.random.default_rng(8), 8)
    expected = weak_conformality(m)
    calls, rescored, solves = [], [], []
    score, rescore, solve = conformality._partition_value, conformality._rescore, np.linalg.solve

    def counting_score(entries, s_idx, t_idx):
        calls.append(len(s_idx))
        return score(entries, s_idx, t_idx)

    def recording_solve(a, b):
        solves.append(np.ndim(a))
        return solve(a, b)

    def recording_rescore(entries, near, *witness):
        rescored.append(sum(int(hit.sum()) for _, hit in near))
        return rescore(entries, near, *witness)

    def forbidden(*args, **kwargs):
        raise AssertionError("forbidden call")

    monkeypatch.setattr(conformality, "_partition_value", counting_score)
    monkeypatch.setattr(conformality, "_rescore", recording_rescore)
    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    monkeypatch.setattr(np, "setdiff1d", forbidden)
    monkeypatch.setattr(np, "ix_", forbidden)
    monkeypatch.setattr(SpdMatrix, "__init__", forbidden)
    res = weak_conformality(m)
    assert rescored == [1]
    assert calls == [1]
    assert solves == [3, 3, 3, 2]  # Z, then two with L, on the stack; then v alone
    assert (res.rho_weak, res.witness_partition) == (expected.rho_weak, expected.witness_partition)
    assert np.array_equal(res.witness_x, expected.witness_x)
    assert np.array_equal(res.witness_y, expected.witness_y)


@pytest.mark.parametrize("kind", ["diagonal", "block", "dense"])
def test_rho_only_callers_build_no_witness_pair(kind, monkeypatch):
    # Only weak_conformality reports a witness pair; the verifiers and the
    # bounds check take rho from the scan alone and never build one.
    calls, rescore = [], conformality._rescore

    def no_pair(*args):
        raise AssertionError("a witness pair was built")

    def recording_rescore(entries, near):
        calls.append(len(near))
        return rescore(entries, near)

    monkeypatch.setattr(conformality, "_witness_pair", no_pair)
    monkeypatch.setattr(conformality, "_rescore", recording_rescore)
    rng = np.random.default_rng(12)
    g = cycle_graph(5)

    def inner(k):
        if kind == "diagonal":
            return SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, k))
        if kind == "block":
            return SpdMatrix(block_diagonal(rng, [2, k - 2]))
        return random_spd(rng, k)

    m_v, m_e = inner(g.n), inner(g.m)
    with pytest.raises(AssertionError, match="a witness pair was built"):
        weak_conformality(m_e)
    assert len(calls) == 1
    calls.clear()
    assert weak_conformality_value(m_e) >= 0.0
    assert verify_cheeger(g, m_v, m_e).check
    assert verify_radius_bound(g, m_v, m_e).check
    assert verify_eml_batch(g, m_v, m_e).check
    assert verify_conformality_bounds(m_v, np.ones(g.n)).check
    assert bool(calls) == (kind != "diagonal")


def test_weak_cap_applies_to_the_largest_block(rng, monkeypatch):
    entries = block_diagonal(rng, [6, 1, 1, 1])
    monkeypatch.setitem(CAPS, "partitions", 2**4 - 1)  # a block of 5
    with pytest.raises(EnumerationCapError, match="block of dimension 6: 31 partitions exceed the cap of 15;"):
        weak_conformality(SpdMatrix(entries))
    monkeypatch.setitem(CAPS, "partitions", 2**5 - 1)
    assert weak_conformality(SpdMatrix(entries)).rho_weak > 0


def reference_partition_value(entries, s_idx, t_idx):
    # The per-partition routine with the witness vector solved for every
    # row: value(S), v = L^-T u and Z = M_TT^-1 M_TS, with the weak-coupling
    # scaling of the library's routine.
    m_st = entries[s_idx[:, :, None], t_idx[:, None, :]]
    z = np.linalg.solve(entries[t_idx[:, :, None], t_idx[:, None, :]], np.swapaxes(m_st, 1, 2))
    top, d, j = float(np.abs(m_st).max()), float(entries.diagonal().max()), 0
    if 0.0 < top < 2.0**-480 * max(d, 1.0):
        j = int(np.frexp(d)[1] - np.frexp(top)[1]) // 2
        m_st = np.ldexp(m_st, 2 * j)
    chol = np.linalg.cholesky(entries[s_idx[:, :, None], s_idx[:, None, :]])
    half = np.linalg.solve(chol, m_st @ z)
    c = np.linalg.solve(chol, np.swapaxes(half, 1, 2))
    vals, vecs = np.linalg.eigh(0.5 * (c + np.swapaxes(c, 1, 2)))
    values = np.sqrt(np.maximum(vals[:, -1], 0.0))
    if j:
        values = np.ldexp(values, -j)
    return values, np.linalg.solve(np.swapaxes(chol, 1, 2), vecs[:, :, -1:])[:, :, 0], z


def reference_rescore(entries, near):
    # Every near tie scored with its v, per slice and |S| stack, BATCH_CHUNK
    # at a time; among the exact maxima of each stack the smallest lift
    # S | {i not in C : i < max S}, formed over all k indices, then the
    # smallest lift over the stacks. Returns (rho, lift, (C, S, v, Z)).
    k = len(entries)
    best, ties = -np.inf, []
    for c, hit in near:
        i, p = np.nonzero(hit)
        members = conformality._subset_rows(2 * p + 1, c.shape[1])
        sizes = members.sum(axis=1)
        for s in np.unique(sizes).tolist():
            at = np.flatnonzero(sizes == s)
            for lo in range(0, len(at), conformality.BATCH_CHUNK):
                rows = at[lo : lo + conformality.BATCH_CHUNK]
                idx = c[i[rows, None], np.argsort(~members[rows], axis=1, kind="stable")]
                values, v, z = reference_partition_value(entries, idx[:, :s], idx[:, s:])
                top = values.max()
                if top >= best:
                    best, ties = top, ties if top == best else []
                    won = np.flatnonzero(values == top)
                    lift = np.arange(k) <= idx[won, s - 1 : s]
                    np.put_along_axis(lift, idx[won, s:], False, axis=1)
                    first = conformality._first_set(lift)
                    j = won[first]
                    ties.append((lift[first], c[i[rows[j]]], members[rows[j]], v[j], z[j]))
    lift, *winner = ties[conformality._first_set(np.array([tie[0] for tie in ties]))]
    return float(best), tuple(np.flatnonzero(lift).tolist()), tuple(winner)


def pre_change_witness_pair(entries, s, v, z, diagonal):
    # The pair builder on a block's dense entries, a diagonal M's block
    # included, with the norms of a diagonal M read from a strided view of
    # the block's diagonal.
    v = _fix_signs(v)
    y_t = z @ v
    top, exp = np.frexp(np.abs(y_t).max(initial=0.0))
    if top == 0.0:
        y_t = np.eye(len(y_t))[0]
    x, y = np.zeros(len(s)), np.zeros(len(s))
    x[s], y[~s] = v, np.ldexp(y_t, -exp)
    a = np.diagonal(entries) if diagonal else entries
    x = x / np.sqrt(_quad(a, x))
    y = y / np.sqrt(_quad(a, y))
    if float(x @ entries @ y) < 0.0:
        y = -y
    return x, y


def pre_change_weak(m, monkeypatch):
    # The library's ranking, then reference_rescore on its near ties, and
    # the pair from the winner's v and Z: (rho, witness partition, v, Z, x, y).
    slices = []
    with monkeypatch.context() as patch:
        patch.setattr(conformality, "_rescore", lambda entries, near: slices.append(near) or (0.0, []))
        conformality._exact_weak(m, False)
    if slices:
        rho, subset, winner = reference_rescore(m.entries, slices[0])
    else:
        # A diagonal M scores 0 with witness S = (0,), the pair of S = {0}
        # on C = {0, 1}.
        rho, subset = 0.0, (0,)
        winner = reference_rescore(m.entries, [(np.array([[0, 1]]), np.ones((1, 1), dtype=bool))])[2]
    c, s, v, z = winner
    x, y = np.zeros(m.dim), np.zeros(m.dim)
    x[c], y[c] = pre_change_witness_pair(m.entries.take(c[:, None] * m.dim + c), s, v, z, m.is_diagonal)
    return rho, subset, v, z, x, y


def assert_rescoring_matches_pre_change(m, monkeypatch, label):
    # Bit for bit: rho, the witness partition, the v and Z the pair is built
    # from, the pair itself, and the rho-only value.
    pairs, witness_pair = [], conformality._witness_pair

    def recording(a, s, v, z):
        pairs.append((v, z))
        return witness_pair(a, s, v, z)

    with monkeypatch.context() as patch:
        patch.setattr(conformality, "_witness_pair", recording)
        res = weak_conformality(m)
    rho, subset, v, z, x, y = pre_change_weak(m, monkeypatch)
    ((got_v, got_z),) = pairs
    assert (res.rho_weak, res.witness_partition) == (rho, subset), label
    assert np.array_equal(got_v, v) and np.array_equal(got_z, z), label
    assert np.array_equal(res.witness_x, x) and np.array_equal(res.witness_y, y), label
    assert weak_conformality_value(m) == rho, label


@pytest.mark.parametrize("k", range(2, 14))
def test_rescoring_matches_pre_change_reference(k, monkeypatch):
    rng = np.random.default_rng(3300 + k)
    for kind, entries in [*fuzz_entries(rng, k), *non_normal_and_scaled_entries(rng, k)]:
        assert_rescoring_matches_pre_change(SpdMatrix(entries), monkeypatch, f"{kind} k={k}")


@pytest.mark.parametrize("k", range(11, 17))
def test_gadget_rescoring_matches_pre_change_reference(k, monkeypatch):
    # Balanced gadgets, whose true ties are all rescored, with the k = 16
    # instance of tests/test_runtime.py.
    rng = np.random.default_rng(3400 + k)
    half = [int(v) for v in rng.integers(1, 10, k // 2)]
    instances = [half + [int(v) for v in rng.permutation(half)] + [2] * (k % 2)]
    if k == 16:
        instances.append([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 2, 6, 1, 4, 9, 1])
    for values in instances:
        assert_rescoring_matches_pre_change(partition_gadget(values).matrix, monkeypatch, f"gadget {values}")


def test_block_stack_rescoring_matches_pre_change_reference(monkeypatch):
    # Size stacks of several blocks, exact ties within and across blocks,
    # and rank-one blocks beside dense ones.
    rng = np.random.default_rng(3500)
    for sizes in ([4] * 10, [5, 3, 5, 3, 5], [6, 5, 4, 3], [3] * 12):
        entries = block_diagonal(rng, sizes)
        p = rng.permutation(len(entries))
        assert_rescoring_matches_pre_change(SpdMatrix(entries[np.ix_(p, p)]), monkeypatch, f"blocks {sizes}")
    for b in (4, 6, 7):
        base = np.eye(b) + rng.uniform(0.2, 0.8) * np.ones((b, b))
        entries = np.kron(np.diag([1.0, 4.0, 0.25]), base)
        p = rng.permutation(len(entries))
        assert_rescoring_matches_pre_change(SpdMatrix(entries[np.ix_(p, p)]), monkeypatch, f"tied blocks of {b}")
    for kind, entries in mixed_rank_one_entries(rng):
        assert_rescoring_matches_pre_change(SpdMatrix(entries), monkeypatch, kind)


def test_tied_block_stack_rescoring_matches_pre_change_reference(monkeypatch):
    # Stacks of 2-8 identical blocks of 2-6, some scaled by powers of 4 (an
    # exact scaling, which every value ignores), in block order and
    # permuted: the exact maxima span every block of the stack, and the
    # witness is the smallest of their lifts.
    rng = np.random.default_rng(3600)
    for case in range(15):
        b, n = int(rng.integers(2, 7)), int(rng.integers(2, 9))
        scales = np.ldexp(1.0, 2 * rng.integers(-3, 4, n)) if case % 2 else np.ones(n)
        entries = np.kron(np.diag(scales), random_spd(rng, b).entries)
        p = rng.permutation(len(entries))
        for label, e in (("in block order", entries), ("permuted", entries[np.ix_(p, p)])):
            assert_rescoring_matches_pre_change(SpdMatrix(e), monkeypatch, f"{n} tied blocks of {b} {label}")


def reference_weak(m):
    # The exhaustive scan, one partition at a time over every mask; ties go
    # to the lexicographically first subset.
    k = m.dim
    best = None
    for p in range((1 << (k - 1)) - 1):
        subset = tuple(i for i in range(k) if (2 * p + 1) >> i & 1)
        rest = tuple(i for i in range(k) if i not in subset)
        value = float(_partition_value(m.entries, np.array([subset]), np.array([rest]))[0][0])
        if best is None or value > best[0] or (value == best[0] and subset < best[1]):
            best = value, subset
    score, subset = best
    # The pair, from one more one-by-one call on the winner: x = v with its
    # largest-magnitude entry positive, y = Z v on the complement (e_0 there
    # if Z v is exactly zero), scaled by a power of two to a largest entry in
    # [0.5, 1), both of unit M-norm, y flipped to x^T M y >= 0.
    s_idx = np.array(subset)
    t_idx = np.array([i for i in range(k) if i not in subset])
    values, v, z = reference_partition_value(m.entries, s_idx[None], t_idx[None])
    # One routine scores the partitions and reports the value.
    assert values[0] == score
    v = _fix_signs(v[0])
    y_t = z[0] @ v
    top, exp = np.frexp(np.abs(y_t).max(initial=0.0))
    if top == 0.0:
        y_t = np.eye(len(t_idx))[0]
    x, y = np.zeros(k), np.zeros(k)
    x[s_idx], y[t_idx] = v, np.ldexp(y_t, -exp)
    x, y = x / np.sqrt(m.quad(x)), y / np.sqrt(m.quad(y))
    if float(x @ m.entries @ y) < 0.0:
        y = -y
    return score, subset, x, y


def pattern_components(entries):
    # Transitive closure of the nonzero pattern by repeated squaring.
    reach = (entries != 0).astype(int)
    for _ in range(len(entries).bit_length()):
        reach = np.minimum(reach @ reach, 1)
    return sorted({tuple(np.flatnonzero(row).tolist()) for row in reach})


def reference_block_weak(m):
    # The exhaustive one-by-one scan on each block of size >= 2; among the
    # blocks whose value is the maximum exactly, the smallest lift
    # S_C | {i not in C : i < max(S_C)} is the witness partition.
    best = None
    for comp in pattern_components(m.entries):
        if len(comp) < 2:
            continue
        idx = np.array(comp)
        rho, subset, x_c, y_c = reference_weak(SpdMatrix(m.entries[np.ix_(idx, idx)]))
        s = [comp[i] for i in subset]
        lift = tuple(sorted(set(s) | {i for i in range(max(s)) if i not in comp}))
        if best is None or rho > best[0] or (rho == best[0] and lift < best[1]):
            best = rho, lift, idx, x_c, y_c
    if best is None:
        return reference_weak(m)
    rho, lift, idx, x_c, y_c = best
    x, y = np.zeros(m.dim), np.zeros(m.dim)
    x[idx], y[idx] = x_c, y_c
    return rho, lift, x, y


def assert_matches_reference(m, label=""):
    res = weak_conformality(m)
    blocks = "block-diagonal" in label
    rho, subset, x, y = (reference_block_weak if blocks else reference_weak)(m)
    assert res.rho_weak == rho, label
    assert weak_conformality_value(m) == res.rho_weak, label
    assert res.witness_partition == subset, label
    assert np.array_equal(res.witness_x, x), label
    assert np.array_equal(res.witness_y, y), label
    if blocks:
        # The block witness is a maximizer of the full matrix up to rounding.
        full = reference_weak(m)[0]
        tol = m.dim * np.finfo(float).eps * m.condition
        s_idx = np.array(subset)
        t_idx = np.setdiff1d(np.arange(m.dim), s_idx)
        assert abs(res.rho_weak - full) <= tol, label
        assert abs(_partition_value(m.entries, s_idx[None], t_idx[None])[0][0] - full) <= tol, label


def test_weak_batched_matches_reference(rng):
    assert_matches_reference(random_spd(rng, 8))


def fuzz_entries(rng, k):
    # Entries are symmetric up to rounding, which SpdMatrix symmetrizes.
    q = random_orthogonal(rng, k)
    yield "dense", (q * rng.uniform(0.5, 3.0, k)) @ q.T
    ev = np.geomspace(1e-2, 1e2, k)
    q = random_orthogonal(rng, k)
    yield "ill-conditioned", (q * rng.permutation(ev)) @ q.T
    g = rng.standard_normal((k, k))
    yield "near-diagonal", np.diag(rng.uniform(1.0, 2.0, k)) + 0.5e-3 * (g + g.T)
    half = [int(v) for v in rng.integers(1, 5, (k + 1) // 2)]
    values = (half + half)[:k]
    x = np.sqrt(np.asarray(values, dtype=float))
    yield "gadget", np.outer(x, x) + np.eye(k)
    yield "diagonal", np.diag(rng.uniform(0.5, 4.0, k))
    block = np.zeros((k, k))
    cuts = [0, *sorted(rng.choice(np.arange(1, k), size=min(2, k - 1), replace=False)), k]
    for lo, hi in zip(cuts, cuts[1:]):
        q = random_orthogonal(rng, hi - lo)
        block[lo:hi, lo:hi] = (q * rng.uniform(0.5, 3.0, hi - lo)) @ q.T
    yield "block-diagonal", block
    p = rng.permutation(k)
    yield "permuted block-diagonal", block[np.ix_(p, p)]
    # Equal 2 x 2 blocks, whose values tie exactly.
    tied = np.diag([2.0] * k)
    for i in range(0, k - 1, 2):
        tied[i, i + 1] = tied[i + 1, i] = 1.0
    yield "tied block-diagonal", tied[np.ix_(p, p)]
    # Every value^2 lies within the tie window, so every partition is rescored.
    g = rng.standard_normal((k, k))
    yield "near-diagonal 1e-7", np.diag(rng.uniform(1.0, 2.0, k)) + 0.5e-7 * (g + g.T)
    # Blocks scaled by 10^-4 to 10^4: cond(M) far above every cond(M_CC), so
    # the shared tie window is much wider than each block's own.
    scaled = block.copy()
    for lo, hi in zip(cuts, cuts[1:]):
        scaled[lo:hi, lo:hi] *= 10.0 ** rng.uniform(-4, 4)
    yield "scaled block-diagonal", scaled


@pytest.mark.parametrize("k", range(2, 11))
def test_weak_fuzz_matches_reference(k):
    rng = np.random.default_rng(1000 + k)
    for kind, entries in fuzz_entries(rng, k):
        assert_matches_reference(SpdMatrix(entries), kind)


def brute_force_lift_weak(m):
    # Every partition of every block scored alone; the witness is the
    # smallest lift S | {i not in C : i < max(S)} among the exact maxima,
    # compared over all blocks at once.
    scored = []
    for comp in pattern_components(m.entries):
        for p in range((1 << (len(comp) - 1)) - 1):
            s = [c for i, c in enumerate(comp) if (2 * p + 1) >> i & 1]
            t = [c for c in comp if c not in s]
            value = float(_partition_value(m.entries, np.array([s]), np.array([t]))[0][0])
            lift = tuple(sorted(set(s) | {i for i in range(max(s)) if i not in comp}))
            scored.append((value, lift, comp))
    rho = max(value for value, _, _ in scored)
    winners = [(lift, comp) for value, lift, comp in scored if value == rho]
    return rho, min(winners)[0], {comp for _, comp in winners}, len(winners)


def test_weak_exact_ties_within_and_across_blocks():
    # Blocks of size 3-5 whose entries within a block repeat, so partitions
    # of one block tie exactly, and blocks that are 4^j multiples of one
    # another (4 keeps every square root exact), so blocks tie exactly too.
    rng = np.random.default_rng(2020)
    across = within = 0
    for _ in range(12):
        n = int(rng.integers(3, 6))
        base = np.eye(n) + rng.uniform(0.2, 0.8) * np.ones((n, n))
        if rng.random() < 0.5:
            x = np.sqrt(rng.integers(1, 3, n).astype(float))
            base = np.outer(x, x) + np.eye(n)
        blocks = [4.0 ** int(j) * base for j in rng.integers(-2, 3, int(rng.integers(2, 4)))]
        blocks.append(random_spd(rng, int(rng.integers(3, 6)), 0.9, 1.1).entries)
        k = sum(len(b) for b in blocks)
        entries, at = np.zeros((k, k)), 0
        for b in blocks:
            entries[at : at + len(b), at : at + len(b)] = b
            at += len(b)
        p = rng.permutation(k)
        m = SpdMatrix(entries[np.ix_(p, p)])
        rho, subset, comps, ties = brute_force_lift_weak(m)
        across += len(comps) > 1
        within += ties > len(comps)
        res = weak_conformality(m)
        assert (res.rho_weak, res.witness_partition) == (rho, subset)
        assert weak_conformality_value(m) == rho
        assert set(np.flatnonzero(res.witness_x)) <= set(subset)
        assert m.quad(res.witness_x) == pytest.approx(1.0, abs=1e-12)
        assert m.quad(res.witness_y) == pytest.approx(1.0, abs=1e-12)
        assert res.witness_x @ m.entries @ res.witness_y == pytest.approx(rho, abs=1e-12)
    assert across > 0 and within > 0


def use_batch_chunk(monkeypatch, chunk):
    # The plan is cached by block size alone, so a test that changes
    # BATCH_CHUNK scans with a plan cache of its own, which goes with the
    # test: no plan of another chunk size is read or left behind.
    monkeypatch.setattr(conformality, "BATCH_CHUNK", chunk)
    monkeypatch.setattr(conformality, "_partition_plan", lru_cache(maxsize=None)(conformality._partition_plan.__wrapped__))


def record_chunk_rows(monkeypatch, chunk):
    # Sets BATCH_CHUNK and returns the row counts of the plan chunks that
    # the scans then use.
    use_batch_chunk(monkeypatch, chunk)
    rows, plan = [], conformality._partition_plan

    def recording_plan(k):
        groups = plan(k)
        rows.extend(sum(len(slots) for slots, _ in part) for part in groups)
        return groups

    monkeypatch.setattr(conformality, "_partition_plan", recording_plan)
    return rows


def test_weak_chunked_matches_reference(monkeypatch):
    chunk_rows = record_chunk_rows(monkeypatch, 100)
    rng = np.random.default_rng(77)
    for kind, entries in fuzz_entries(rng, 10):
        assert_matches_reference(SpdMatrix(entries), kind)
    assert max(chunk_rows) == 100


def test_stacked_scores_match_one_partition_calls():
    # Each stacked LAPACK call treats its matrices one at a time, so a
    # stack scores every partition with the bits of a stack of one.
    rng = np.random.default_rng(31)
    k = 8
    for kind, entries in fuzz_entries(rng, k):
        entries = SpdMatrix(entries).entries
        rows = conformality._subset_rows(2 * np.arange((1 << (k - 1)) - 1) + 1, k)
        for s in range(1, k):
            at = rows[rows.sum(axis=1) == s]
            s_idx = np.nonzero(at)[1].reshape(-1, s)
            t_idx = np.nonzero(~at)[1].reshape(-1, k - s)
            stack = _partition_value(entries, s_idx, t_idx)
            for i in range(len(at)):
                one = _partition_value(entries, s_idx[i : i + 1], t_idx[i : i + 1])
                assert stack[0][i] == one[0][0], kind
                for got, want in zip(stack[1:], one[1:]):  # L, u and Z
                    assert np.array_equal(got[i], want[0]), kind


def assert_pruning_sound(m, label):
    k = m.dim
    delta = conformality.TIE_SAFETY * k * np.finfo(float).eps * m.condition
    whole = m.entries, m.inverse(), np.arange(k)[None]  # a stack of one block
    exact = _batched_rho_sq(*whole, np.inf)[0]  # best - 4 * inf prunes no partition
    # best + 4 > 1 >= value^2: a screened block keeps every slot at its
    # screen bound, another every slot whose smaller side has 3 or more
    # indices at its tr(P^8) bound. A slot the scan prunes holds its exact
    # value, its screen bound or its tr(P^8) bound.
    bounds = _batched_rho_sq(*whole, -1.0)[0]
    tr8 = mask_order_rho_sq(m.entries, m.inverse(), np.arange(k), -1.0, screened=False)
    pruned = _batched_rho_sq(*whole, delta)[0]
    # The bounds hold up to rounding of the size k * eps * cond(M) that
    # delta is a multiple of.
    for bound in (bounds, tr8):
        assert (bound >= exact - delta / conformality.TIE_SAFETY).all(), label
    assert np.all((pruned == exact) | (pruned == bounds) | (pruned == tr8)), label
    assert pruned.max() == exact.max(), label
    near_ties = [np.flatnonzero(r >= r.max() - delta) for r in (pruned, exact)]
    assert np.array_equal(*near_ties), label
    return int((pruned != exact).sum())


@pytest.mark.parametrize("chunk", [None, 100])
def test_pruned_scan_keeps_the_near_ties(chunk, monkeypatch):
    chunk_rows = record_chunk_rows(monkeypatch, chunk or conformality.BATCH_CHUNK)
    skipped = 0
    for k in (7, 10, 11):
        rng = np.random.default_rng(500 + k)
        for kind, entries in fuzz_entries(rng, k):
            skipped += assert_pruning_sound(SpdMatrix(entries), f"{kind} k={k}")
    assert skipped > 0  # the bound did skip eigensolves
    assert max(chunk_rows) == (chunk or 1023)  # k = 11 has 1023 partitions


def non_normal_and_scaled_entries(rng, k):
    # Random eigenvectors with cond(M) = 1e4 and 1e8 make P = M_SS (M^-1)_SS
    # - I far from normal; D A D with D^2 from 1e-4 to 1e4 is badly scaled
    # (a D of 1e-4 to 1e4 puts cond(M) past what SpdMatrix accepts).
    for cond in (1e4, 1e8):
        q = random_orthogonal(rng, k)
        yield f"cond {cond:g}", (q * rng.permutation(np.geomspace(1.0, cond, k))) @ q.T
    q = random_orthogonal(rng, k)
    d = rng.permutation(np.geomspace(1e-2, 1e2, k))
    yield "D A D", d[:, None] * ((q * rng.uniform(0.5, 3.0, k)) @ q.T) * d


@pytest.mark.parametrize("k", range(8, 13))
def test_pruning_is_sound_on_non_normal_and_scaled_inputs(k):
    rng = np.random.default_rng(800 + k)
    for kind, entries in non_normal_and_scaled_entries(rng, k):
        assert_pruning_sound(SpdMatrix(entries), f"{kind} k={k}")


def direct_trace_squares(entries, inverse):
    # tr((M_SS W_SS - I)^2) at every mask 2p + 1, the whole index set last,
    # one S at a time in extended precision (where numpy has it on the
    # platform), from the same M and W.
    k = len(entries)
    a, w = entries.astype(np.longdouble), inverse.astype(np.longdouble)
    out = np.empty(1 << (k - 1), dtype=np.longdouble)
    for p, row in enumerate(conformality._subset_rows(2 * np.arange(len(out)) + 1, k)):
        s = np.flatnonzero(row)
        e = a[np.ix_(s, s)] @ w[np.ix_(s, s)] - np.eye(len(s))
        out[p] = np.sum(e * e.T)
    return out


@pytest.mark.parametrize("k", range(2, 14))
def test_trace_table_is_within_its_allowance(k):
    # The screen's table against tr(P_S^2) formed mask by mask, at every
    # mask of every fuzz kind, and its upper bounds against the eigensolved
    # value^2.
    rng = np.random.default_rng(2700 + k)
    for kind, entries in [*fuzz_entries(rng, k), *non_normal_and_scaled_entries(rng, k)]:
        m = SpdMatrix(entries)
        a, w = m.entries.reshape(1, -1), m.inverse().reshape(1, -1)
        masks = conformality._screen_index(k)
        table, allow = conformality._trace_squares(a, w, k, masks)
        assert (np.abs(table[0] - direct_trace_squares(m.entries, m.inverse())) <= allow[0, 0]).all(), kind
        delta = conformality.TIE_SAFETY * k * np.finfo(float).eps * m.condition
        exact = _batched_rho_sq(m.entries, m.inverse(), np.arange(k)[None], np.inf)[0]
        upper = conformality._screen(a, w, k, masks)
        assert (upper >= exact - delta / conformality.TIE_SAFETY).all(), kind


@pytest.mark.parametrize("k", range(10, 14))
def test_trace_allowance_is_the_sum_of_the_terms(k):
    # The allowance's sum|terms|, from products of |M| and |W|, against the
    # sum over every term formed one by one: |M_il W_lj M_jm W_mi| over all
    # 4-tuples, |2 M_il W_li| over all pairs and b ones.
    rng = np.random.default_rng(2800 + k)
    for kind, entries in [*fuzz_entries(rng, k), *non_normal_and_scaled_entries(rng, k)]:
        m = SpdMatrix(entries)
        a, w = np.abs(m.entries), np.abs(m.inverse())
        direct = np.einsum("il,lj,jm,mi->iljm", a, w, a, w).sum() + np.sum(2.0 * a * w.T) + k
        allow = conformality._trace_squares(m.entries.reshape(1, -1), m.inverse().reshape(1, -1), k, conformality._screen_index(k))[1]
        assert abs(allow[0, 0] / ((61 + k) * np.finfo(float).eps * direct) - 1.0) <= 1e-12, kind


def test_pruned_partitions_are_never_factored(monkeypatch):
    # The bounds come before any Cholesky: the factored matrices are the
    # M_SS of the live partitions, those whose slot holds the exact value,
    # and each factored stack is eigensolved. Below SCREEN_MIN_SIZE (k = 9)
    # the s <= 2 groups are live whole; from it on (k = 11) the screen
    # prunes them too, and one more M_SS is factored first, S = {0} | p at
    # the partition p of the largest screen bound.
    for k in (9, 11):
        m = random_spd(np.random.default_rng(11), k)
        delta = conformality.TIE_SAFETY * k * np.finfo(float).eps * m.condition
        whole = m.entries, m.inverse(), np.arange(k)[None]
        exact = _batched_rho_sq(*whole, np.inf)[0]
        factored, solved, cholesky, eigvalsh = [], [], np.linalg.cholesky, np.linalg.eigvalsh

        def recording_cholesky(a):
            factored.append(a.reshape(-1, *a.shape[-2:]).copy())
            return cholesky(a)

        def recording_eigvalsh(a):
            solved.append(len(a.reshape(-1, *a.shape[-2:])))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "cholesky", recording_cholesky)
        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        pruned = _batched_rho_sq(*whole, delta)[0]
        monkeypatch.undo()
        rows = conformality._subset_rows(2 * np.arange(len(exact)) + 1, k)
        screened = k >= conformality.SCREEN_MIN_SIZE
        seed = []
        if screened:
            screen = conformality._screen(m.entries.reshape(1, -1), m.inverse().reshape(1, -1), k, conformality._screen_index(k))
            seed.append(rows[screen.argmax()].copy())
        flip = rows.sum(axis=1) > k // 2
        rows[flip] = ~rows[flip]  # the smaller side S
        small = rows.sum(axis=1) <= 2
        live = pruned == exact if screened else small | (pruned == exact)
        assert [len(a) for a in factored] == solved
        assert live[~small].sum() < (~small).sum()  # the bounds pruned
        assert screened == (live[small].sum() < small.sum())  # the screen pruned
        expected = sorted(m.entries[np.ix_(s, s)].tobytes() for s in map(np.flatnonzero, [*seed, *rows[live]]))
        assert sorted(a.tobytes() for batch in factored for a in batch) == expected


def mask_order_rho_sq(entries, inverse, c, delta, screened=None):
    # The scan with its index bookkeeping done inline on every call, chunk
    # by chunk in mask order, reading M and M^-1 at c's global indices: the
    # reference that the cached partition plan must match bit for bit. A
    # block of SCREEN_MIN_SIZE or more is screened first, unless screened is
    # False: then delta = -1 leaves every s >= 3 slot at its tr(P^8) bound.
    n, k = len(entries), len(c)
    count = (1 << (k - 1)) - 1
    out = np.empty(count)
    best = -np.inf
    if screened is None:
        screened = k >= conformality.SCREEN_MIN_SIZE
    if screened:
        a, a_inv = entries[np.ix_(c, c)].reshape(1, -1), inverse[np.ix_(c, c)].reshape(1, -1)
        out = conformality._screen(a, a_inv, k, conformality._screen_index(k))
        # The seed: S = {0} | p at the largest screen bound, solved alone.
        s_idx = c[np.flatnonzero((2 * int(out.argmax()) + 1) >> np.arange(k) & 1)]
        chol = np.linalg.cholesky(entries[np.ix_(s_idx, s_idx)])
        best = 1.0 - 1.0 / float(np.linalg.eigvalsh(chol.T @ inverse[np.ix_(s_idx, s_idx)] @ chol)[-1])
    for lo in range(0, count, conformality.BATCH_CHUNK):
        members = conformality._subset_rows(2 * np.arange(lo, min(lo + conformality.BATCH_CHUNK, count)) + 1, k)
        size = members.sum(axis=1)
        flip = size > k - size
        members[flip] = ~members[flip]
        size[flip] = k - size[flip]
        for s in range(1, k // 2 + 1):
            rows = np.flatnonzero(size == s)
            if screened:
                rows = rows[out[lo + rows] >= best - 4.0 * delta]
            if len(rows) == 0:
                continue
            idx = c.take(np.nonzero(members[rows])[1].reshape(-1, s))
            flat = idx[:, :, None] * n + idx[:, None, :]
            m_ss, w_ss = entries.take(flat), inverse.take(flat)
            if s > 2:
                # The bound on the group's survivors from P = M_SS (M^-1)_SS - I.
                e = m_ss @ w_ss
                e -= np.eye(s)
                e = e @ e
                e = e @ e
                root = np.abs(np.einsum("nij,nji->n", e, e)) ** 0.125
                bound = 1.0 - 1.0 / (1.0 + root)
                out[lo + rows] = bound
                live = bound >= best - 4.0 * delta
                if not live.any():
                    continue
                rows, m_ss, w_ss = rows[live], m_ss[live], w_ss[live]
            # Cholesky and B on the live rows only.
            chol = np.linalg.cholesky(m_ss)
            b = np.swapaxes(chol, 1, 2) @ w_ss @ chol
            mu = np.linalg.eigvalsh(b)[:, -1]
            out[lo + rows] = 1.0 - 1.0 / mu
            best = max(best, 1.0 - 1.0 / float(mu.max()))
    return out


@pytest.mark.parametrize("k", range(2, 14))
def test_planned_scan_matches_mask_order_scan(k):
    # Every fuzz kind, on the whole index set and on each block (not
    # arange(k) for the permuted and scaled block-diagonal kinds), with no
    # pruning, all pruning and the real tie window.
    rng = np.random.default_rng(2000 + k)
    for kind, entries in fuzz_entries(rng, k):
        m = SpdMatrix(entries)
        delta = conformality.TIE_SAFETY * k * np.finfo(float).eps * m.condition
        inverse = m.inverse()
        for c in (np.arange(k), *m.blocks):
            for d in (np.inf, -1.0, delta):
                got = _batched_rho_sq(m.entries, inverse, c[None], d)[0]
                assert np.array_equal(got, mask_order_rho_sq(m.entries, inverse, c, d)), (kind, c, d)


def record_empty_chunks(monkeypatch):
    # Counts the plan chunks whose screened walk finds no candidate at all.
    empty, candidates = [0], conformality._candidates

    def recording(*args):
        found = list(candidates(*args))
        empty[0] += not found
        return iter(found)

    monkeypatch.setattr(conformality, "_candidates", recording)
    return empty


@pytest.mark.parametrize("k", range(10, 14))
def test_planned_scan_matches_mask_order_scan_in_small_chunks(k, monkeypatch):
    # 100-partition chunks: the screened walk takes its candidates chunk by
    # chunk, whole chunks hold none, and the slots are still those of the
    # mask-order scan, bit for bit.
    use_batch_chunk(monkeypatch, 100)
    empty = record_empty_chunks(monkeypatch)
    rng = np.random.default_rng(2400 + k)
    for kind, entries in fuzz_entries(rng, k):
        m = SpdMatrix(entries)
        delta = conformality.TIE_SAFETY * k * np.finfo(float).eps * m.condition
        inverse = m.inverse()
        for c in (np.arange(k), *m.blocks):
            for d in (np.inf, -1.0, delta):
                got = _batched_rho_sq(m.entries, inverse, c[None], d)[0]
                assert np.array_equal(got, mask_order_rho_sq(m.entries, inverse, c, d)), (kind, c, d)
    assert empty[0] > 0


@pytest.mark.parametrize("chunk", [None, 100])
def test_screened_stack_matches_per_block_ranking(chunk, monkeypatch):
    # Stacks of three dense blocks and one weakly coupled block of b = 10-12,
    # permuted: the stack's maximum and its slots within delta of it are
    # those of ranking each block alone, bit for bit, every slot holds its
    # exact value, its screen bound or its tr(P^8) bound, and the weak
    # block's candidates are cut by the stack's best, not its own.
    if chunk:
        use_batch_chunk(monkeypatch, chunk)
    rng = np.random.default_rng(2500)
    shared = 0
    for b in (10, 11, 12):
        blocks = [random_spd(rng, b).entries for _ in range(3)]
        g = rng.standard_normal((b, b))
        blocks.append(np.diag(rng.uniform(1.0, 2.0, b)) + 0.5e-3 * (g + g.T))
        k = len(blocks) * b
        entries = np.zeros((k, k))
        for j, block in enumerate(blocks):
            entries[j * b : (j + 1) * b, j * b : (j + 1) * b] = block
        p = rng.permutation(k)
        m = SpdMatrix(entries[np.ix_(p, p)])
        (c,) = m.stacks
        inverse = m.inverse()
        delta = conformality.TIE_SAFETY * k * np.finfo(float).eps * m.condition
        stack = _batched_rho_sq(m.entries, inverse, c, delta)
        alone = np.array([_batched_rho_sq(m.entries, inverse, row[None], delta)[0] for row in c])
        exact = _batched_rho_sq(m.entries, inverse, c, np.inf)
        bounds = _batched_rho_sq(m.entries, inverse, c, -1.0)
        tr8 = np.array([mask_order_rho_sq(m.entries, inverse, row, -1.0, screened=False) for row in c])
        top = alone.max()
        assert stack.max() == top == exact.max()
        near = stack >= top - delta
        assert np.array_equal(near, alone >= top - delta)
        assert np.array_equal(stack[near], alone[near])
        assert np.all((stack == exact) | (stack == bounds) | (stack == tr8))
        weak = int(np.argmin(exact.max(axis=1)))
        shared += int((stack[weak] != alone[weak]).sum())
    assert shared > 0


def test_stack_ranking_with_exact_ties_matches_per_block_ranking():
    # Equal-size blocks that are 4^j multiples of one block tie exactly
    # across blocks, plus one weakly coupled block of the same size that the
    # shared running best prunes; the whole matrix is permuted. The stack's
    # maximum and its slots within delta of it are those of ranking each
    # block alone, bit for bit; a pruned slot holds its exact value, its
    # screen bound or its tr(P^8) bound. The tr(P^8) bound starts at smaller
    # sides of 3, so at blocks of 6, and the screen at SCREEN_MIN_SIZE.
    rng = np.random.default_rng(2121)
    shared = 0
    for b in (4, 6, 7, conformality.SCREEN_MIN_SIZE):
        base = np.eye(b) + rng.uniform(0.2, 0.8) * np.ones((b, b))
        blocks = [4.0 ** int(j) * base for j in (-1, 0, 2)] + [random_spd(rng, b, 0.9, 1.1).entries]
        k = len(blocks) * b
        entries = np.zeros((k, k))
        for j, block in enumerate(blocks):
            entries[j * b : (j + 1) * b, j * b : (j + 1) * b] = block
        p = rng.permutation(k)
        m = SpdMatrix(entries[np.ix_(p, p)])
        (c,) = m.stacks
        assert c.shape == (len(blocks), b)
        inverse = m.inverse()
        delta = conformality.TIE_SAFETY * k * np.finfo(float).eps * m.condition
        stack = _batched_rho_sq(m.entries, inverse, c, delta)
        alone = np.array([_batched_rho_sq(m.entries, inverse, row[None], delta)[0] for row in c])
        exact = _batched_rho_sq(m.entries, inverse, c, np.inf)
        bounds = _batched_rho_sq(m.entries, inverse, c, -1.0)
        tr8 = np.array([mask_order_rho_sq(m.entries, inverse, row, -1.0, screened=False) for row in c])
        top = alone.max()
        assert stack.max() == top
        near = stack >= top - delta
        assert np.array_equal(near, alone >= top - delta)
        assert np.array_equal(stack[near], alone[near])
        assert near.any(axis=1).sum() == 3 and (near.sum(axis=1) > 1).any()  # ties across and within blocks
        assert np.all((stack == exact) | (stack == bounds) | (stack == tr8))
        # The weak block's partitions pruned by the stack's best, not its own.
        shared += int((stack != alone)[~near.any(axis=1)].sum())
        rho, subset, _, _ = brute_force_lift_weak(m)
        res = weak_conformality(m)
        assert (res.rho_weak, res.witness_partition) == (rho, subset)
    assert shared > 0


@pytest.mark.parametrize("sizes, chunk", [([12] * 6, None), ([4] * 40, None), ([4] * 40, 100), ([5, 3, 5, 3, 5], 40)])
def test_size_stacks_are_ranked_in_slices(sizes, chunk, monkeypatch):
    # One ranking call per slice of a size stack, never one per block of a
    # multi-block slice, stacks by size, and no call ranks more than
    # BATCH_CHUNK partitions unless it holds a single block. rho is the best
    # of the blocks scored as matrices of their own.
    if chunk:
        use_batch_chunk(monkeypatch, chunk)
    calls, ranked = [], conformality._batched_rho_sq

    def recording(entries, inverse, c, delta):
        calls.append(c.shape)
        return ranked(entries, inverse, c, delta)

    monkeypatch.setattr(conformality, "_batched_rho_sq", recording)
    rng = np.random.default_rng(len(sizes))
    entries = block_diagonal(rng, sizes)
    p = rng.permutation(len(entries))
    m = SpdMatrix(entries[np.ix_(p, p)])
    rho = weak_conformality_value(m)
    batch = conformality.BATCH_CHUNK
    assert all(n * ((1 << (b - 1)) - 1) <= batch or n == 1 for n, b in calls)
    slices = []
    for b in set(sizes):
        step = max(1, batch >> (b - 1))
        slices += [(min(step, sizes.count(b) - lo), b) for lo in range(0, sizes.count(b), step)]
    assert sorted(calls) == sorted(slices)
    assert [b for _, b in calls] == sorted(b for _, b in calls)
    assert rho == max(weak_conformality_value(SpdMatrix(m.entries[np.ix_(c, c)])) for c in m.blocks)


def test_partition_plan_cold_and_warm_agree():
    rng = np.random.default_rng(41)
    for kind, entries in fuzz_entries(rng, 12):
        m = SpdMatrix(entries)
        whole = m.entries, m.inverse(), np.arange(12)[None], np.inf
        conformality._partition_plan.cache_clear()
        cold_sq, cold = _batched_rho_sq(*whole), weak_conformality(m)
        warm_sq, warm = _batched_rho_sq(*whole), weak_conformality(m)
        assert np.array_equal(cold_sq, warm_sq), kind
        assert (cold.rho_weak, cold.witness_partition) == (warm.rho_weak, warm.witness_partition), kind
        assert np.array_equal(cold.witness_x, warm.witness_x), kind


def test_partition_plan_past_the_cap_is_not_kept(monkeypatch):
    # A forced scan of a block past the cap builds its plan and lets it go;
    # a block within the cap keeps its plan. Both score the same bits.
    rng = np.random.default_rng(46)
    big, small = random_spd(rng, 7), random_spd(rng, 5)
    kept = weak_conformality(big)
    monkeypatch.setitem(CAPS, "partitions", 2**4 - 1)  # a block of 5
    conformality._partition_plan.cache_clear()
    forced = weak_conformality(big, force=True)
    assert conformality._partition_plan.cache_info().currsize == 0
    weak_conformality(small)
    assert conformality._partition_plan.cache_info().currsize == 1
    assert (forced.rho_weak, forced.witness_partition) == (kept.rho_weak, kept.witness_partition)
    assert np.array_equal(forced.witness_x, kept.witness_x)


def test_forced_scan_builds_its_plan_one_chunk_at_a_time(monkeypatch):
    # Past the cap the scan reads the plan chunk by chunk: each chunk is
    # factored before the next one is built, and the result is that of the
    # kept plan.
    rng = np.random.default_rng(47)
    m = random_spd(rng, 7)
    kept = weak_conformality(m)
    monkeypatch.setitem(CAPS, "partitions", 2**4 - 1)  # a block of 5
    use_batch_chunk(monkeypatch, 8)
    events, chunks, cholesky = [], conformality._plan_chunks, np.linalg.cholesky

    def recording_chunks(k):
        for groups in chunks(k):
            events.append("chunk")
            yield groups

    def recording_cholesky(a):
        events.append("factor")
        return cholesky(a)

    monkeypatch.setattr(conformality, "_plan_chunks", recording_chunks)
    monkeypatch.setattr(np.linalg, "cholesky", recording_cholesky)
    forced = weak_conformality(m, force=True)
    assert conformality._partition_plan.cache_info().currsize == 0
    assert events.count("chunk") == 8  # 63 partitions in chunks of 8
    assert "chunk chunk" not in " ".join(events)
    assert (forced.rho_weak, forced.witness_partition) == (kept.rho_weak, kept.witness_partition)
    assert np.array_equal(forced.witness_x, kept.witness_x)
    assert np.array_equal(forced.witness_y, kept.witness_y)


def test_partition_plan_size_at_k20():
    # Slots and positions, not flat indices: the plan of the largest block
    # under the default cap stays near 11 MB, and covers each partition once.
    plan = conformality._partition_plan(20)
    assert sum(slots.nbytes + pos.nbytes for chunk in plan for slots, pos in chunk) <= 12e6
    slots = np.concatenate([slots for chunk in plan for slots, _ in chunk])
    assert np.array_equal(np.sort(slots), np.arange((1 << 19) - 1))


def test_weak_invariant_under_diagonal_congruence(rng):
    for _ in range(10):
        m = random_spd(rng, 5)
        d = np.diag(rng.uniform(0.5, 2.0, 5) * rng.choice([-1.0, 1.0], 5))
        congruent = SpdMatrix(d @ m.entries @ d)
        assert weak_conformality(congruent).rho_weak == pytest.approx(
            weak_conformality(m).rho_weak, abs=1e-9
        )


def test_strong_invariant_under_orthogonal_conjugation(rng):
    for _ in range(10):
        m = random_spd(rng, 6)
        u = random_orthogonal(rng, 6)
        assert strong_conformality(SpdMatrix(u.T @ m.entries @ u)) == pytest.approx(
            strong_conformality(m), abs=1e-9
        )


def test_weak_principal_submatrix_monotone(rng):
    for _ in range(5):
        m = random_spd(rng, 5)
        rho = weak_conformality(m).rho_weak
        for subset in ((0, 1), (0, 2, 4), (1, 2, 3, 4)):
            idx = np.array(subset)
            sub = SpdMatrix(m.entries[np.ix_(idx, idx)])
            assert weak_conformality(sub).rho_weak <= rho + 1e-10


def test_sampled_oracle_examples():
    assert weak_conformality_sampled(SpdMatrix(np.eye(3)), 1000, 3) == 0.0
    m = SpdMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    # Dimension 2 has a single support split, so sampling is exact.
    assert weak_conformality_sampled(m, 1000, 7) == pytest.approx(0.5, abs=1e-12)
    gadget = partition_gadget((1, 1))
    sampled = weak_conformality_sampled(gadget.matrix, 10000, 1)
    exact = weak_conformality(gadget.matrix).rho_weak
    assert sampled <= exact + 1e-9
    assert sampled >= 0.95 * exact


def test_sampled_below_exact_and_deterministic(rng):
    for _ in range(8):
        m = random_spd(rng, int(rng.integers(2, 6)))
        exact = weak_conformality(m).rho_weak
        sampled = weak_conformality_sampled(m, 10000, 99)
        assert sampled <= exact + 1e-9
        assert sampled >= 0.95 * exact
        assert sampled == weak_conformality_sampled(m, 10000, 99)


def test_make_pair_endpoint_alpha_one():
    m = make_conformality_pair(0.3, 0.3, 2)
    np.testing.assert_allclose(m.entries, [[1.0, 0.3], [0.3, 1.0]], atol=1e-12)


def test_make_pair_identity():
    m = make_conformality_pair(0.0, 0.0, 5)
    np.testing.assert_allclose(m.entries, np.eye(5), atol=1e-12)


def test_make_pair_hits_both_targets():
    m = make_conformality_pair(0.2, 0.6, 4)
    assert strong_conformality(m) == pytest.approx(0.6, abs=1e-8)
    assert weak_conformality(m).rho_weak == pytest.approx(0.2, abs=1e-8)


def test_make_pair_past_the_cap():
    # The 2 x 2 block is the only block of size >= 2, so k = 30 needs no force.
    m = make_conformality_pair(0.2, 0.6, 30)
    assert m.dim == 30
    assert weak_conformality(m).rho_weak == pytest.approx(0.2, abs=1e-8)


def test_make_pair_domain_errors():
    with pytest.raises(ValueError):
        make_conformality_pair(0.5, 0.3, 3)
    with pytest.raises(ValueError):
        make_conformality_pair(0.2, 1.0, 3)
    with pytest.raises(ValueError):
        make_conformality_pair(0.1, 0.2, 1)


def test_partition_gadget_structure():
    g = partition_gadget((1, 1))
    np.testing.assert_allclose(g.matrix.entries, [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)
    assert g.half_sum == 1.0
    assert g.affirmative_value == pytest.approx(0.5)
    assert weak_conformality(g.matrix).rho_weak == pytest.approx(0.5, abs=1e-9)

    g = partition_gadget((2, 2, 2, 2))
    assert g.affirmative_value == pytest.approx(0.8)
    res = weak_conformality(g.matrix)
    assert res.rho_weak == pytest.approx(0.8, abs=1e-9)
    assert len(res.witness_partition) == 2

    for i, inst in enumerate(((1, 2), (5, 3, 2))):
        g = partition_gadget(inst)
        diag = np.diagonal(g.matrix.entries)
        np.testing.assert_allclose(diag, np.array(inst) + 1.0)
        x = np.sqrt(np.array(inst, dtype=float))
        off = g.matrix.entries - np.diag(diag)
        expect = np.outer(x, x) - np.diag(x * x)
        np.testing.assert_allclose(off, expect, atol=1e-12)


def test_partition_gadget_negative_instance_strictly_below():
    g = partition_gadget((1, 2))
    rho = weak_conformality(g.matrix).rho_weak
    assert rho == pytest.approx(np.sqrt(2.0 / 6.0), abs=1e-9)
    assert rho < g.affirmative_value - 1e-6


def test_partition_gadget_rejects_bad_instances():
    with pytest.raises(ValueError):
        partition_gadget((0, 1))
    with pytest.raises(ValueError):
        partition_gadget((3,))


def test_bounds_identity_collapse():
    rep = verify_conformality_bounds(SpdMatrix(np.eye(3)), np.array([1.0, -2.0, 0.5]))
    assert rep.passed
    v = rep.values
    assert v["rho_weak"] == 0.0
    assert v["sign_lower"] == pytest.approx(v["quadratic_form"])
    assert v["sign_upper"] == pytest.approx(v["quadratic_form"])
    assert v["trace_lower"] == pytest.approx(v["quadratic_form"])


@pytest.mark.parametrize("scale", [1e6, 1e12])
def test_bounds_hold_on_every_diagonal(scale):
    # For a diagonal M, rho = 0 and both sandwiches are equalities: the
    # trace form sum_i x_i^2 M_ii is x^T M x, formed by the same quadratic
    # form routine, so all five values agree bit for bit at any scale. As
    # an np.sum in another order, the trace form missed the absolute slack
    # of 1e-10 on 56 and 69 of these 200 draws.
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(2, 9))
        m = SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, k) * scale)
        rep = verify_conformality_bounds(m, rng.standard_normal(k))
        v = rep.values
        assert rep.passed
        assert v["trace_lower"] == v["sign_lower"] == v["quadratic_form"] == v["sign_upper"] == v["trace_upper"]


def test_bounds_sign_lower_tight_case():
    m = SpdMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    rep = verify_conformality_bounds(m, np.array([1.0, -1.0]))
    assert rep.passed
    v = rep.values
    assert v["quadratic_form"] == pytest.approx(2.0)
    assert v["rho_weak"] == pytest.approx(0.5, abs=1e-9)
    assert v["sign_lower"] == pytest.approx(2.0, abs=1e-8)
    assert v["sign_upper"] == pytest.approx(18.0, abs=1e-7)


def test_bounds_trace_asymptotics_k16():
    # Lower bound within 10% of the quadratic form for the negative-shift
    # family at k = 16 with x = all-ones.
    k, alpha = 16, -0.5
    m = family_matrix(k, alpha)
    rep = verify_conformality_bounds(m, np.ones(k))
    assert rep.passed
    v = rep.values
    assert v["rho_weak"] == pytest.approx(abs(alpha) / (2 + alpha), abs=1e-9)
    assert v["quadratic_form"] == pytest.approx((1 + alpha) * k)
    gap = (v["quadratic_form"] - v["trace_lower"]) / v["quadratic_form"]
    assert 0 <= gap < 0.10


def test_bounds_random(rng):
    for _ in range(10):
        m = random_spd(rng, int(rng.integers(2, 6)))
        x = rng.standard_normal(m.dim)
        assert verify_conformality_bounds(m, x).passed


def test_bounds_one_dimensional_is_vacuous():
    # No disjoint-support pair exists in one dimension, so rho = 0 and both
    # sandwiches collapse to x^T M x itself.
    rep = verify_conformality_bounds(SpdMatrix([[2.0]]), [1.5])
    assert rep.passed
    assert rep.values["rho_weak"] == 0.0
    assert rep.values["quadratic_form"] == rep.values["sign_lower"] == rep.values["trace_upper"] == 4.5


def test_bounds_dimension_mismatch():
    with pytest.raises(ValueError):
        verify_conformality_bounds(SpdMatrix(np.eye(3)), np.ones(2))


def test_inverse_check_examples(rng):
    rep = inverse_conformality_check(SpdMatrix(np.eye(3)))
    assert rep.passed
    assert rep.values["rho_strong"] == 0.0

    rep = inverse_conformality_check(SpdMatrix(np.diag([4.0, 1.0])))
    assert rep.passed
    assert rep.values["rho_strong"] == pytest.approx(0.6)
    assert rep.values["rho_strong_inverse"] == pytest.approx(0.6)

    rep = inverse_conformality_check(random_spd(rng, 5))
    assert rep.passed


def test_inverse_check_keeps_the_blocks(rng):
    # (M^-1)_CC = (M_CC)^-1: the inverse has the blocks of M, so at k = 21
    # each scan covers a block of at most 6 indices and needs no force.
    for _ in range(5):
        entries = block_diagonal(rng, [6, 6, 5, 4])
        p = rng.permutation(21)
        m = SpdMatrix(entries[np.ix_(p, p)])
        assert inverse_conformality_check(m).passed
        blocks = SpdMatrix(m.inverse()).blocks
        assert [c.tolist() for c in blocks] == [c.tolist() for c in m.blocks]
        assert sorted(len(c) for c in blocks) == [4, 5, 6, 6]


def test_weak_identity_ties_resolve_to_singleton():
    # All-ties input: every partition scores exactly zero, so the witness
    # comes from the lexicographic rule.
    m = SpdMatrix(np.eye(8))
    res = weak_conformality(m)
    assert res.witness_partition == (0,)
    assert res.rho_weak == 0.0
    assert reference_weak(m)[:2] == (0.0, (0,))


def rank_one_entries(rng, k):
    # D + u u^T inputs of dimension k, ranked by the closed form.
    half = [int(v) for v in rng.integers(2, 10, k // 2)]
    values = half + [int(v) for v in rng.permutation(half)] + [2] * (k % 2)
    yield "balanced gadget", partition_gadget(values).matrix.entries
    yield "natural gadget", partition_gadget([int(v) for v in rng.integers(1, 50, k)]).matrix.entries
    d, u = rng.uniform(0.5, 2.0, k), rng.standard_normal(k)
    yield "random D + u u^T", np.diag(d) + np.outer(u, u)
    d, u = 10.0 ** rng.uniform(-3, 3, k), rng.standard_normal(k) * 10.0 ** rng.uniform(-2, 2, k)
    yield "scaled D + u u^T", np.diag(d) + np.outer(u, u)
    p = rng.permutation(k)
    yield "permuted gadget", partition_gadget(values).matrix.entries[np.ix_(p, p)]


def mixed_rank_one_entries(rng):
    # A rank-one block next to a dense block, and two equal-size rank-one
    # blocks in one size stack, interleaved.
    gadget = partition_gadget([1, 2, 3, 2, 1, 3]).matrix.entries
    yield "rank-one and dense", np.block([[gadget, np.zeros((6, 5))], [np.zeros((5, 6)), random_spd(rng, 5).entries]])
    d, u = rng.uniform(0.5, 2.0, 5), rng.standard_normal(5)
    pair = np.zeros((10, 10))
    pair[:5, :5] = np.diag(d) + np.outer(u, u)
    pair[5:, 5:] = np.diag(d[::-1]) + np.outer(u[::-1], u[::-1])
    p = rng.permutation(10)
    yield "two rank-one blocks", pair[np.ix_(p, p)]
    equal = np.zeros((8, 8))
    equal[:4, :4] = equal[4:, 4:] = partition_gadget([1, 1, 2, 2]).matrix.entries
    yield "two equal gadgets", equal


def record_rankings(monkeypatch):
    # The blocks that reach each ranking path, by size.
    calls = {"closed": [], "general": []}
    closed, general = conformality._rank_one_rho_sq, conformality._batched_rho_sq

    def recording_closed(w2):
        calls["closed"].append(w2.shape)
        return closed(w2)

    def recording_general(entries, inverse, c, delta):
        calls["general"].append(c.shape)
        return general(entries, inverse, c, delta)

    monkeypatch.setattr(conformality, "_rank_one_rho_sq", recording_closed)
    monkeypatch.setattr(conformality, "_batched_rho_sq", recording_general)
    return calls


def assert_closed_form_matches_general(m, monkeypatch, label):
    calls = record_rankings(monkeypatch)
    got = weak_conformality(m)
    assert calls["closed"], label
    with monkeypatch.context() as general_only:
        general_only.setattr(conformality, "_rank_one_weights", lambda entries, c: None)
        want = weak_conformality(m)
    assert (got.rho_weak, got.witness_partition) == (want.rho_weak, want.witness_partition), label
    assert np.array_equal(got.witness_x, want.witness_x), label
    assert np.array_equal(got.witness_y, want.witness_y), label
    assert weak_conformality_value(m) == want.rho_weak, label


@pytest.mark.parametrize("k", range(4, 17))
def test_rank_one_blocks_match_the_general_ranking(k, monkeypatch):
    rng = np.random.default_rng(2600 + k)
    for kind, entries in rank_one_entries(rng, k):
        assert_closed_form_matches_general(SpdMatrix(entries), monkeypatch, f"{kind} k={k}")


@pytest.mark.parametrize("k", [17, 18, 20])
def test_large_random_rank_one_blocks_match_the_general_ranking(k, monkeypatch):
    rng = np.random.default_rng(2600 + k)
    d, u = rng.uniform(0.5, 2.0, k), rng.standard_normal(k)
    assert_closed_form_matches_general(SpdMatrix(np.diag(d) + np.outer(u, u)), monkeypatch, f"k={k}")


def test_mixed_rank_one_blocks_match_the_general_ranking(monkeypatch):
    rng = np.random.default_rng(2626)
    for kind, entries in mixed_rank_one_entries(rng):
        m = SpdMatrix(entries)
        assert_closed_form_matches_general(m, monkeypatch, kind)
        assert_matches_reference(m, f"{kind} block-diagonal")


def test_rank_one_stacks_take_the_closed_form_whole(monkeypatch):
    # The dense block of 5 takes the general ranking, the gadget block of 6
    # the closed form; equal rank-one blocks are one closed-form stack.
    calls = record_rankings(monkeypatch)
    for _, entries in mixed_rank_one_entries(np.random.default_rng(2626)):
        weak_conformality_value(SpdMatrix(entries))
    assert calls == {"closed": [(1, 6), (2, 5), (2, 4)], "general": [(1, 5)]}


def rejected_entries(rng):
    entries = partition_gadget([3, 1, 4, 1, 5, 9, 2, 6]).matrix.entries.copy()
    entries[2, 5] *= 1.0 + 1e-10
    entries[5, 2] = entries[2, 5]
    yield "perturbed gadget", entries, 8
    yield "3 x 3 gadget", partition_gadget([1, 2, 3]).matrix.entries, 3
    d, u = rng.uniform(0.5, 2.0, 3), rng.standard_normal(3)
    yield "3 x 3 D + u u^T", np.diag(d) + np.outer(u, u), 3
    yield "dense", random_spd(rng, 6).entries, 6
    # Off-diagonal entries of mixed sign whose products admit no u u^T.
    yield "negative rank one", 3.0 * np.eye(4) - 0.5 * np.ones((4, 4)), 4


def test_blocks_that_fail_detection_take_the_general_ranking(monkeypatch):
    rng = np.random.default_rng(2627)
    calls = record_rankings(monkeypatch)
    for kind, entries, b in rejected_entries(rng):
        m = SpdMatrix(entries)
        assert conformality._rank_one_weights(m.entries, m.stacks[-1]) is None, kind
        weak_conformality_value(m)
        assert calls["general"][-1] == (1, b), kind
    assert calls["closed"] == []


def test_rank_one_gadget_factors_only_in_rescore(monkeypatch):
    # A gadget is ranked by the closed form: no inverse of M, no partition
    # plan and no ranking call; every Cholesky is a rescoring one.
    m = partition_gadget([3, 1, 4, 1, 5, 9, 2, 6, 3, 1, 4, 1, 5, 9, 2, 6]).matrix
    expected = weak_conformality(m)
    where, rescoring = [], []
    cholesky, rescore = np.linalg.cholesky, conformality._rescore

    def forbidden(*args, **kwargs):
        raise AssertionError("forbidden call")

    def recording_cholesky(a):
        where.append(bool(rescoring))
        return cholesky(a)

    def recording_rescore(entries, near, *witness):
        rescoring.append(True)
        try:
            return rescore(entries, near, *witness)
        finally:
            rescoring.pop()

    monkeypatch.setattr(np.linalg, "cholesky", recording_cholesky)
    monkeypatch.setattr(conformality, "_rescore", recording_rescore)
    for name in ("_batched_rho_sq", "_partition_plan", "_plan_chunks"):
        monkeypatch.setattr(conformality, name, forbidden)
    monkeypatch.setattr(SpdMatrix, "inverse", forbidden)
    res = weak_conformality(m)
    assert where and all(where)
    assert (res.rho_weak, res.witness_partition) == (expected.rho_weak, expected.witness_partition)
    assert abs(res.rho_weak - 31 / 32) <= np.finfo(float).eps  # X / (X + 1), X = 31


@pytest.mark.parametrize("k", [4, 7, 10])
def test_closed_form_is_within_the_tie_window(k):
    # The closed form differs from the one-by-one score by far less than
    # delta / TIE_SAFETY = k eps cond(M), the unit the tie window is priced in.
    rng = np.random.default_rng(2700 + k)
    for kind, entries in rank_one_entries(rng, k):
        m = SpdMatrix(entries)
        closed = conformality._rank_one_rho_sq(conformality._rank_one_weights(m.entries, m.stacks[0]))[0]
        rows = conformality._subset_rows(2 * np.arange(len(closed)) + 1, k)
        scored = np.empty(len(closed))
        for s in range(1, k):
            at = np.flatnonzero(rows.sum(axis=1) == s)
            s_idx, t_idx = np.nonzero(rows[at])[1].reshape(-1, s), np.nonzero(~rows[at])[1].reshape(-1, k - s)
            scored[at] = _partition_value(m.entries, s_idx, t_idx)[0] ** 2
        unit = k * np.finfo(float).eps * m.condition
        assert np.abs(closed - scored).max() <= unit, f"{kind} k={k}"


ONE_BY_ONE = SpdMatrix([[2.0]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: weak_conformality(ONE_BY_ONE), "weak conformality requires dimension >= 2"),
        (lambda: weak_conformality_sampled(ONE_BY_ONE, 5, 1), "sampled weak conformality requires dimension >= 2"),
        (lambda: weak_conformality_sampled(SpdMatrix([[2.0, 1.0], [1.0, 2.0]]), 0, 1), "trials must be >= 1"),
        (lambda: inverse_conformality_check(ONE_BY_ONE), "conformality requires dimension >= 2"),
    ],
    ids=["weak-one-by-one", "sampled-one-by-one", "sampled-no-trials", "inverse-one-by-one"],
)
def test_refusals_name_their_input(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert type(refused.value) is ValueError and str(refused.value) == message
