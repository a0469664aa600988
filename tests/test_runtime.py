"""Checks that need only numpy and ipl, run by the tier-1 suite and, with no
pytest installed, as ``python tests/test_runtime.py`` (each test in turn,
exit 1 on the first failure).
"""

import numpy as np

from ipl import SpdMatrix, conformality, weak_conformality


def test_partition_plan_cache_dense_k16():
    # The default scan prunes by its bound; delta = inf eigensolves every
    # partition. Both must give the same maximum and the same slots within
    # delta of it, bit for bit. The plan is cached per (block size, chunk
    # size): a cold scan, a warm one and one in 100-row chunks must report
    # the same rho and witness, bit for bit.
    rng = np.random.default_rng(16)
    q = np.linalg.qr(rng.standard_normal((16, 16)))[0]
    m = SpdMatrix((q * rng.uniform(0.5, 3.0, 16)) @ q.T)
    delta = conformality.TIE_SAFETY * 16 * np.finfo(float).eps * m.condition
    whole = m.entries, m.inverse(), np.arange(16)[None]
    pruned, exact = (conformality._batched_rho_sq(*whole, d)[0] for d in (delta, np.inf))
    near = pruned >= pruned.max() - delta
    print("near ties:", int(near.sum()), "pruned:", int((pruned != exact).sum()), "of", len(exact))
    assert pruned.max() == exact.max(), (pruned.max(), exact.max())
    assert np.array_equal(near, exact >= exact.max() - delta)
    assert np.array_equal(pruned[near], exact[near])
    runs = [weak_conformality(m), weak_conformality(m)]
    chunk = conformality.BATCH_CHUNK
    conformality._partition_plan.cache_clear()
    conformality.BATCH_CHUNK = 100
    try:
        runs.append(weak_conformality(m))
        assert conformality._partition_plan.cache_info().currsize == 1
    finally:
        conformality.BATCH_CHUNK = chunk
        conformality._partition_plan.cache_clear()
    runs = [(r.rho_weak, r.witness_partition) for r in runs]
    print(runs)
    assert runs[0] == runs[1] == runs[2], runs


def test_screened_scan_matches_the_full_scan():
    # Dense k = 16 and ill-conditioned k = 18, one block each: the scan
    # screened by tr(P_S^2) and delta = inf, which eigensolves every
    # partition, give the same maximum and the same slots within delta of
    # it, bit for bit.
    rng = np.random.default_rng(27)
    for k, eigenvalues in ((16, rng.uniform(0.5, 3.0, 16)), (18, rng.permutation(np.geomspace(1e-2, 1e2, 18)))):
        q = np.linalg.qr(rng.standard_normal((k, k)))[0]
        m = SpdMatrix((q * eigenvalues) @ q.T)
        delta = conformality.TIE_SAFETY * k * np.finfo(float).eps * m.condition
        whole = m.entries, m.inverse(), np.arange(k)[None]
        screened, exact = (conformality._batched_rho_sq(*whole, d)[0] for d in (delta, np.inf))
        near = screened >= screened.max() - delta
        print(f"k = {k}: near ties:", int(near.sum()), "not eigensolved:", int((screened != exact).sum()), "of", len(exact))
        assert screened.max() == exact.max(), (k, screened.max(), exact.max())
        assert np.array_equal(near, exact >= exact.max() - delta), k
        assert np.array_equal(screened[near], exact[near]), k


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            print(name)
            test()
