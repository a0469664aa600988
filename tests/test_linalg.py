import numpy as np
import pytest

from ipl import NonFiniteError, NotPositiveDefiniteError, NotSymmetricError, SpdMatrix, gen_eig, sym_eig, weak_conformality

from conftest import random_spd


def test_sym_eig_identity():
    vals, vecs = sym_eig(np.eye(3))
    np.testing.assert_allclose(vals, [1, 1, 1])
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(3), atol=1e-10)


def test_sym_eig_diagonal_sorted_ascending():
    vals, _ = sym_eig(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(vals, [1.0, 3.0])


def test_sym_eig_path_laplacian_spectrum():
    a = np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    vals, vecs = sym_eig(a)
    np.testing.assert_allclose(vals, [0.0, 3.0, 3.0], atol=1e-9)
    np.testing.assert_allclose(a @ vecs, vecs * vals, atol=1e-9)


def test_sym_eig_rejects_bad_input():
    with pytest.raises(NotSymmetricError):
        sym_eig(np.ones((2, 3)))
    with pytest.raises(NotSymmetricError):
        sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_sym_eig_random_properties(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 17))
        a = rng.standard_normal((dim, dim))
        a = a + a.T
        vals, vecs = sym_eig(a)
        norm = np.linalg.norm(a)
        assert np.linalg.norm(a @ vecs - vecs * vals) <= 1e-9 * norm
        assert np.linalg.norm(vecs.T @ vecs - np.eye(dim)) <= 1e-10
        assert np.all(np.diff(vals) >= 0)


def test_sym_eig_bit_identical_on_repeat(rng):
    a = rng.standard_normal((7, 7))
    a = a + a.T
    v1, w1 = sym_eig(a)
    v2, w2 = sym_eig(a)
    assert np.array_equal(v1, v2)
    assert np.array_equal(w1, w2)


def test_sign_convention_largest_component_positive(rng):
    for _ in range(10):
        a = rng.standard_normal((5, 5))
        a = a + a.T
        _, vecs = sym_eig(a)
        for col in vecs.T:
            assert col[np.argmax(np.abs(col))] > 0


def test_spd_construction_symmetrizes():
    m = SpdMatrix(np.array([[2.0, 1.0 + 1e-14], [1.0, 2.0]]))
    assert np.array_equal(m.entries, m.entries.T)


def test_spd_rejects_indefinite_and_near_singular():
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(np.diag([1.0, -0.5]))
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(np.diag([1.0, 1e-13]))
    # Just above the threshold is accepted.
    SpdMatrix(np.diag([1.0, 1e-10]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spd_rejects_non_finite(bad):
    with pytest.raises(NonFiniteError, match="non-finite"):
        SpdMatrix(np.array([[1.0, 0.0], [0.0, bad]]))
    with pytest.raises(NonFiniteError, match="row 0, column 1"):
        SpdMatrix(np.array([[1.0, bad], [bad, 1.0]]))


def test_spd_is_diagonal_flag():
    assert SpdMatrix(np.diag([1.0, 2.0, 3.0])).is_diagonal
    assert not SpdMatrix(np.array([[2.0, 1e-300], [1e-300, 2.0]])).is_diagonal


def test_spd_condition_number():
    m = SpdMatrix(np.diag([1.0, 4.0]))
    assert m.condition == pytest.approx(4.0)


def test_spd_sqrt_examples():
    np.testing.assert_allclose(SpdMatrix(np.eye(3)).sqrt().entries, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(
        SpdMatrix(np.diag([4.0, 9.0])).sqrt().entries, np.diag([2.0, 3.0]), atol=1e-12
    )
    m = SpdMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    q = m.sqrt()
    np.testing.assert_allclose(q.entries @ q.entries, m.entries, atol=1e-10)
    np.testing.assert_allclose(q.eigenvalues, [1.0, np.sqrt(3.0)], atol=1e-12)


def test_spd_sqrt_reconstruction_and_idempotence(rng):
    for _ in range(10):
        dim = int(rng.integers(2, 10))
        m = random_spd(rng, dim)
        q = m.sqrt_entries
        rel = np.linalg.norm(q @ q - m.entries) / np.linalg.norm(m.entries)
        assert rel <= 1e-10
        again = SpdMatrix(q @ q).sqrt()
        np.testing.assert_allclose(again.eigenvalues, SpdMatrix(q).eigenvalues, atol=1e-9)


def test_spd_solve_examples():
    np.testing.assert_allclose(SpdMatrix(np.eye(3)).solve(np.array([1.0, 2, 3])), [1, 2, 3])
    np.testing.assert_allclose(
        SpdMatrix(np.diag([2.0, 4.0])).solve(np.array([2.0, 4.0])), [1.0, 1.0]
    )
    x = SpdMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])).solve(np.array([1.0, 0.0]))
    np.testing.assert_allclose(x, [2 / 3, -1 / 3], atol=1e-12)


def test_spd_solve_residual_and_mismatch(rng):
    for _ in range(10):
        dim = int(rng.integers(2, 12))
        m = random_spd(rng, dim)
        b = rng.standard_normal(dim)
        x = m.solve(b)
        assert np.linalg.norm(m.entries @ x - b) <= 1e-10 * np.linalg.norm(b)
    with pytest.raises(ValueError):
        SpdMatrix(np.eye(2)).solve(np.ones(3))


def test_gen_eig_examples(rng):
    a = rng.standard_normal((4, 4))
    a = a @ a.T
    vals, _ = gen_eig(a, SpdMatrix(np.eye(4)))
    np.testing.assert_allclose(vals, sym_eig(a)[0], atol=1e-10)

    vals, _ = gen_eig(np.zeros((3, 3)), random_spd(rng, 3))
    np.testing.assert_allclose(vals, np.zeros(3), atol=1e-12)

    vals, _ = gen_eig(np.diag([2.0, 0.0]), SpdMatrix(np.diag([1.0, 2.0])))
    np.testing.assert_allclose(vals, [0.0, 2.0], atol=1e-12)


def test_gen_eig_b_orthonormal_and_matches_whitened(rng):
    for _ in range(10):
        dim = int(rng.integers(2, 8))
        a = rng.standard_normal((dim, dim))
        a = a @ a.T
        b = random_spd(rng, dim)
        vals, vecs = gen_eig(a, b)
        np.testing.assert_allclose(vecs.T @ b.entries @ vecs, np.eye(dim), atol=1e-9)
        np.testing.assert_allclose(a @ vecs, b.entries @ vecs * vals, atol=1e-8)
        w = b.inv_sqrt_entries
        ref = sym_eig(w @ a @ w)[0]
        np.testing.assert_allclose(vals, ref, atol=1e-9)


def test_gen_eig_rejects_negative_lhs():
    with pytest.raises(ValueError):
        gen_eig(np.diag([1.0, -1.0]), SpdMatrix(np.eye(2)))


def test_gen_eig_accepts_rounding_skew_of_whitened_pencil():
    # At cond(B) near 1e8 the product B^-1/2 A B^-1/2 is asymmetric by about
    # 1e-11 from rounding alone, above the input tolerance of sym_eig.
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    m = SpdMatrix((q * np.geomspace(1e-4, 1e4, 6)) @ q.T)
    e = m.entries
    s, t = np.arange(4), np.array([4, 5])
    a = e[np.ix_(s, t)] @ np.linalg.solve(e[np.ix_(t, t)], e[np.ix_(t, s)])
    vals, _ = gen_eig(0.5 * (a + a.T), SpdMatrix(e[np.ix_(s, s)]))
    res = weak_conformality(m)
    assert res.witness_partition == (0, 1, 2, 3)
    assert np.sqrt(vals[-1]) == pytest.approx(res.rho_weak, rel=1e-9)


def test_diagonal_functions_are_exactly_diagonal(rng):
    # The eigenvectors of a diagonal SpdMatrix are a permutation matrix, so
    # the square roots and the inverse computed in that basis are exact.
    for d in (
        np.array([3.0]),
        rng.integers(1, 1000, 9).astype(float),
        np.exp(rng.uniform(0.0, np.log(1e8), 17)),
        rng.uniform(0.1, 10.0, 39),
    ):
        m = SpdMatrix.from_diagonal(d)
        for got, want in (
            (m.sqrt_entries, np.diag(np.sqrt(d))),
            (m.inv_sqrt_entries, np.diag(1.0 / np.sqrt(d))),
            (m.inverse(), np.diag(1.0 / d)),
        ):
            assert np.array_equal(got, want)
            assert not np.signbit(got).any()


def test_inverse_matches_solve(rng):
    m = random_spd(rng, 6)
    np.testing.assert_allclose(m.inverse() @ m.entries, np.eye(6), atol=1e-9)


def test_quad_on_stacks_matches_per_row_form(rng):
    for m in (random_spd(rng, 7), SpdMatrix.from_diagonal(rng.uniform(0.3, 4.0, 7))):
        x = rng.standard_normal((9, 7))
        x[0] = 0.0
        x[1] = rng.integers(0, 2, 7)
        want = np.array([row @ m.entries @ row for row in x])
        got = m.quad(x)
        assert got.shape == (9,)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        single = m.quad(x[2])
        assert type(single) is float
        assert single == pytest.approx(want[2], rel=1e-13)
