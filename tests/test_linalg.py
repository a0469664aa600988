import numpy as np
import pytest

from ipl import NonFiniteError, NotPositiveDefiniteError, NotSymmetricError, SpdMatrix, gen_eig, sym_eig, weak_conformality
from ipl.complexes import _components
from ipl.linalg import _fix_signs

from conftest import random_spd
from test_conformality import fuzz_entries


def test_sym_eig_identity():
    vals, vecs = sym_eig(np.eye(3))
    np.testing.assert_allclose(vals, [1, 1, 1])
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(3), atol=1e-10)


def test_sym_eig_diagonal_sorted_ascending():
    vals, _ = sym_eig(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(vals, [1.0, 3.0])


def test_spd_repr_names_dimension_and_condition():
    assert repr(SpdMatrix.from_diagonal([1.0, 4.0, 2.0])) == "SpdMatrix(dim=3, condition=4.000e+00)"


def test_root_entries_are_cached_read_only():
    m = SpdMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    for q in (m.sqrt_entries, m.inv_sqrt_entries):
        assert not q.flags.writeable
    assert m.sqrt_entries is m.sqrt_entries and m.inv_sqrt_entries is m.inv_sqrt_entries
    np.testing.assert_allclose(m.sqrt_entries @ m.inv_sqrt_entries, np.eye(2), atol=1e-15)


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


def test_eigensolvers_refuse_nan():
    # A NaN passes the symmetry test (every comparison with it is false), so
    # each eigensolver refuses non-finite input at entry, not with NaN pairs.
    bad = [[1.0, np.nan], [np.nan, 1.0]]
    for call in (lambda: sym_eig(bad), lambda: gen_eig(bad, SpdMatrix.identity(2))):
        with pytest.raises(NonFiniteError) as refused:
            call()
        assert str(refused.value) == "matrix has a non-finite entry: nan at row 0, column 1"


def spectral_outputs(m, b):
    return m.eigenvalues, m.eigenvectors, m.sqrt_entries, m.inv_sqrt_entries, m.inverse(), m.solve(b)


def reference_outputs(entries, b):
    # One full eigh with the sign convention for a connected matrix, the
    # stable sort of the diagonal with axis eigenvectors for a diagonal one.
    k = len(entries)
    if np.count_nonzero(entries - np.diag(np.diagonal(entries))):
        vals, vecs = np.linalg.eigh(entries)
        vecs = _fix_signs(vecs)
        x = vecs @ ((vecs.T @ b).T / vals).T
        x = x + vecs @ ((vecs.T @ (b - entries @ x)).T / vals).T
    else:
        d = np.diagonal(entries).copy()
        order = np.argsort(d, kind="stable")
        vals, vecs = d[order], np.zeros((k, k))
        vecs[order, np.arange(k)] = 1.0
        x = (b.T / d).T

    def spectral(f):
        q = (vecs * f(vals)) @ vecs.T
        return 0.5 * (q + q.T)

    return vals, vecs, spectral(np.sqrt), spectral(lambda w: 1.0 / np.sqrt(w)), spectral(lambda w: 1.0 / w), x


def test_spd_is_diagonal_flag():
    assert SpdMatrix(np.diag([1.0, 2.0, 3.0])).is_diagonal
    assert not SpdMatrix(np.array([[2.0, 1e-300], [1e-300, 2.0]])).is_diagonal
    kinds = set()
    for k in range(2, 12):
        rng = np.random.default_rng(900 + k)
        # At the edge of zero, for the entry count that skips the pattern
        # scan on a diagonal M: -0.0 is zero, the smallest subnormal is not.
        signed = np.diag(np.arange(1.0, k + 1.0))
        signed[~np.eye(k, dtype=bool)] = -0.0
        tiny = signed.copy()
        tiny[0, -1] = tiny[-1, 0] = 5e-324
        for kind, entries in [*fuzz_entries(rng, k), ("signed zeros", signed), ("subnormal", tiny)]:
            m = SpdMatrix(entries)
            pattern = np.argwhere(m.entries != 0).tolist()
            assert [tuple(c.tolist()) for c in m.blocks] == [c for c in _components(k, pattern) if len(c) > 1], kind
            b = rng.standard_normal((k, 3))
            if m.is_diagonal or len(m.blocks[0]) == k:
                # Connected or diagonal: the bits of one full eigh, or of the
                # sorted diagonal with axis eigenvectors.
                for got, want in zip(spectral_outputs(m, b), reference_outputs(m.entries, b)):
                    assert np.array_equal(got, want), kind
                kinds.add("diagonal" if m.is_diagonal else "connected")
                continue
            # Every output is exactly zero off the blocks, and so is the
            # solve of a right-hand side that is zero off them.
            on = np.eye(k, dtype=bool)
            for c in m.blocks:
                on[np.ix_(c, c)] = True
            b = rng.standard_normal((k, k)) * on
            for got in spectral_outputs(m, b)[2:]:
                assert not got[~on].any(), kind
            kinds.add("blocks")
    assert kinds == {"diagonal", "connected", "blocks"}


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


def test_connected_matrix_is_one_plain_eigh(monkeypatch):
    # One block of every index: the eigenpairs are those of one eigh with
    # the sign convention, with no gather, scatter or sort around it.
    rng = np.random.default_rng(46)
    dense = [random_spd(rng, k).entries for k in (2, 4, 12, 20)]

    def forbidden(*args, **kwargs):
        raise AssertionError("forbidden call")

    for name in ("argsort", "eye"):
        monkeypatch.setattr(np, name, forbidden)
    built = [SpdMatrix(entries) for entries in dense]
    monkeypatch.undo()
    for m in built:
        vals, vecs = np.linalg.eigh(m.entries)
        assert np.array_equal(m.eigenvalues, vals)
        assert np.array_equal(m.eigenvectors, _fix_signs(vecs))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SpdMatrix(np.zeros((0, 0))), "SpdMatrix requires dimension >= 1"),
        (lambda: gen_eig(np.eye(2), SpdMatrix.identity(3)), "dimension mismatch: A is 2x2, B is 3x3"),
    ],
    ids=["empty-spd", "gen-eig-dimensions"],
)
def test_refusals_name_their_input(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert type(refused.value) is ValueError and str(refused.value) == message


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def dense_diagonal_reference(entries, b, xs):
    """What a diagonal SpdMatrix gave when it kept dense entries and
    permutation eigenvectors: ``reference_outputs`` of the symmetrized
    entries, those entries themselves, and the quadratic forms
    (x * x) @ np.diagonal(entries) of float copies."""
    a = 0.5 * (entries + entries.T)
    d = np.diagonal(a)
    quads = []
    for x in xs:
        x = np.asarray(x, dtype=float)
        q = (x * x) @ d
        quads.append(float(q) if x.ndim == 1 else q)
    return (a, *reference_outputs(a, b), quads)


def diagonal_outputs(m, b, xs):
    return (m.entries, *spectral_outputs(m, b), [m.quad(x) for x in xs])


def diagonal_cases(rng):
    for k in (1, 2, 3, 7, 16, 40):
        yield f"uniform k={k}", rng.uniform(0.5, 4.0, k)
        yield f"tied k={k}", rng.integers(1, 4, k).astype(float)
        for scale in (1e-300, 1e-150, 1.0, 1e150, 1e300):
            yield f"scale {scale:g} k={k}", scale * rng.uniform(1.0, 10.0, k)


def test_diagonal_routes_keep_the_dense_bits():
    # Every route to a diagonal SpdMatrix stores d alone, yet gives the bits
    # of the dense entries and permutation eigenvectors it replaced: entries,
    # the spectrum, both roots, the inverse, solves and quadratic forms of
    # vectors (whose dot product BLAS sums in another order when an operand
    # is strided, as np.diagonal of dense entries is) and of stacks, float
    # and boolean.
    rng = np.random.default_rng(3801)
    seen = set()
    for kind, d in diagonal_cases(rng):
        k = len(d)
        b = rng.standard_normal((k, 3))
        xs = [rng.standard_normal(k), rng.standard_normal((5, k)), rng.random(k) < 0.5, rng.random((9, k)) < 0.5]
        routes = [("entries", SpdMatrix(np.diag(d)), np.diag(d)), ("from_diagonal", SpdMatrix.from_diagonal(d), np.diag(d))]
        if kind.startswith("uniform"):
            routes.append(("identity", SpdMatrix.identity(k), np.eye(k)))
        for route, m, dense in routes:
            assert m.is_diagonal and m.dim == k
            want = dense_diagonal_reference(dense, b, xs)
            for got, ref in zip(diagonal_outputs(m, b, xs), want):
                if isinstance(ref, list):
                    assert all(same_bits(g, r) for g, r in zip(got, ref)), (kind, route)
                else:
                    assert same_bits(got, ref), (kind, route)
            for view in (m.entries, m.eigenvectors, m.sqrt_entries, m.inv_sqrt_entries):
                assert not view.flags.writeable
            # sqrt() was SpdMatrix(sqrt_entries): the dense square root, rebuilt.
            want = dense_diagonal_reference(want[3], b, xs)
            assert all(same_bits(g, r) for g, r in zip(diagonal_outputs(m.sqrt(), b, xs)[:-1], want[:-1])), (kind, route)
            seen.add(route)
    assert seen == {"entries", "from_diagonal", "identity"}


def test_zero_edge_kinds_keep_their_bits():
    # "signed zeros": -0.0 off the diagonal is zero, so M is diagonal and
    # stored as d; its entries are diag(d), whose zeros are +0.0 (dense
    # storage kept the input's -0.0 there), and every other output keeps the
    # dense bits. "subnormal": the smallest subnormal is not zero, so M
    # keeps its dense entries, -0.0 included, and a 2 x 2 one is one eigh.
    for k in (2, 3, 11):
        rng = np.random.default_rng(3810 + k)
        signed = np.diag(np.arange(1.0, k + 1.0))
        signed[~np.eye(k, dtype=bool)] = -0.0
        tiny = signed.copy()
        tiny[0, -1] = tiny[-1, 0] = 5e-324
        b = rng.standard_normal((k, 3))
        xs = [rng.standard_normal(k), rng.standard_normal((4, k)), rng.random((6, k)) < 0.5]
        m = SpdMatrix(signed)
        assert m.is_diagonal and same_bits(m.entries, np.diag(np.arange(1.0, k + 1.0)))
        for got, ref in zip(diagonal_outputs(m, b, xs)[1:], dense_diagonal_reference(signed, b, xs)[1:]):
            assert all(same_bits(g, r) for g, r in zip(got, ref)) if isinstance(ref, list) else same_bits(got, ref)
        m = SpdMatrix(tiny)
        assert not m.is_diagonal and same_bits(m.entries, tiny)
        if k == 2:
            for got, ref in zip(spectral_outputs(m, b), reference_outputs(m.entries, b)):
                assert same_bits(got, ref)


@pytest.mark.parametrize(
    "diag, error, message",
    [
        ([[1.0, 2.0], [2.0, 5.0]], ValueError, "expected a 1-D diagonal, got shape (2, 2)"),
        (3.0, ValueError, "expected a 1-D diagonal, got shape ()"),
        ([], ValueError, "SpdMatrix requires dimension >= 1"),
        ([1.0, np.nan, np.inf], NonFiniteError, "matrix has a non-finite entry: nan at row 1, column 1"),
        ([1.0, -np.inf], NonFiniteError, "matrix has a non-finite entry: -inf at row 1, column 1"),
        (
            [1.0, 1e-13],
            NotPositiveDefiniteError,
            "matrix is not positive definite: lambda_min = 1.000e-13 <= 2 * 1e-12 * lambda_max = 2.000e-12",
        ),
        (
            [4.0, -0.5, 2.0],
            NotPositiveDefiniteError,
            "matrix is not positive definite: lambda_min = -5.000e-01 <= 3 * 1e-12 * lambda_max = 1.200e-11",
        ),
    ],
    ids=["matrix", "scalar", "empty", "nan", "inf", "near-singular", "indefinite"],
)
def test_from_diagonal_refusals(diag, error, message):
    # A refusal names the shape it got; the NaN and positive-definiteness
    # refusals read as those of the dense diagonal matrix, number for number.
    with pytest.raises(error) as refused:
        SpdMatrix.from_diagonal(diag)
    assert type(refused.value) is error and str(refused.value) == message
    if np.ndim(diag) == 1 and len(diag):
        with pytest.raises(error) as dense:
            SpdMatrix(np.diag(diag))
        assert str(dense.value) == message


def test_times_is_the_gemm_bit_for_bit():
    # A product against a diagonal operand is a scaling with the bits of the
    # GEMM against diag(a), a -0.0 in x included (the GEMM's sum reads +0.0).
    from ipl.linalg import _times

    rng = np.random.default_rng(3820)
    for shape in [(1, 1), (5, 3), (40, 17)]:
        x = rng.standard_normal(shape) * (rng.random(shape) < 0.7)
        x[rng.random(shape) < 0.2] = -0.0
        for right in (False, True):
            a = rng.uniform(0.1, 10.0, shape[1] if right else shape[0])
            want = x @ np.diag(a) if right else np.diag(a) @ x
            assert same_bits(_times(a, x, right), want)
            assert same_bits(_times(a, x.T.copy().T, right), want)
            assert _times(a, x, right).flags.c_contiguous
