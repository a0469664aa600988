import numpy as np
import pytest

from ipl import (
    EnumerationCapError,
    SpdMatrix,
    inverse_conformality_check,
    make_conformality_pair,
    partition_gadget,
    strong_conformality,
    verify_conformality_bounds,
    weak_conformality,
    weak_conformality_sampled,
)

from ipl import conformality
from ipl.conformality import _partition_value, _scan_masks, _witness_pair

from conftest import random_orthogonal, random_spd


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


def test_weak_diagonal_needs_no_cap():
    # The diagonal identity answers without a scan, so the cap does not apply.
    res = weak_conformality(SpdMatrix.identity(25))
    assert res.rho_weak == 0.0
    assert res.witness_partition == (0,)


def test_weak_cap_and_force(monkeypatch):
    monkeypatch.setattr(conformality, "WEAK_CAP", 5)
    m = SpdMatrix(np.eye(6) + 0.1 * np.ones((6, 6)))
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


def test_weak_cap_applies_to_the_largest_block(rng, monkeypatch):
    entries = block_diagonal(rng, [6, 1, 1, 1])
    monkeypatch.setattr(conformality, "WEAK_CAP", 5)
    with pytest.raises(EnumerationCapError, match="block of dimension 6 exceeds the enumeration cap 5"):
        weak_conformality(SpdMatrix(entries))
    monkeypatch.setattr(conformality, "WEAK_CAP", 6)
    assert weak_conformality(SpdMatrix(entries)).rho_weak > 0


def reference_weak(m):
    # The exhaustive one-by-one scan over every partition mask.
    k = m.dim
    score, subset = _scan_masks(m.entries, range((1 << (k - 1)) - 1), k)
    rho, x, y = _witness_pair(m, np.array(subset))
    # One routine scores the partitions and reports the value.
    assert rho == score
    return rho, subset, x, y


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
        assert abs(_partition_value(m.entries, s_idx, t_idx)[0] - full) <= tol, label


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


@pytest.mark.parametrize("k", range(2, 11))
def test_weak_fuzz_matches_reference(k):
    rng = np.random.default_rng(1000 + k)
    for kind, entries in fuzz_entries(rng, k):
        assert_matches_reference(SpdMatrix(entries), kind)


def test_weak_chunked_matches_reference(monkeypatch):
    monkeypatch.setattr(conformality, "BATCH_CHUNK", 100)
    rng = np.random.default_rng(77)
    for kind, entries in fuzz_entries(rng, 10):
        assert_matches_reference(SpdMatrix(entries), kind)


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


def test_weak_identity_ties_resolve_to_singleton():
    # All-ties input: every partition scores exactly zero, so the witness
    # comes from the lexicographic rule.
    m = SpdMatrix(np.eye(8))
    res = weak_conformality(m)
    assert res.witness_partition == (0,)
    assert res.rho_weak == 0.0
    assert reference_weak(m)[:2] == (0.0, (0,))
