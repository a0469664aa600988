"""Checks of the runtime install that need only numpy and ipl.

They cover the package's import (no scipy) and ``--version``, the partition
plan cache and the tr(P_S^2) screen of the weak-conformality scan, and
end-to-end CLI checks: witnesses of split-scan, gadget and block ties, the
pair sweep's caps and orbit rule, scale-free tolerances and the one-line
exit-2 messages. CLI calls run in-process through ``ipl.cli.main``; only
``--version``, the import check and the ``-W error`` run need a fresh
interpreter. Inputs are written to a temporary directory.

The tier-1 suite collects these tests. With no pytest and no install, run
``PYTHONPATH=src python tests/test_runtime.py`` from the repository root:
it runs each test in turn, exits 1 on the first failure, and checks at the
end that neither pytest nor scipy was imported.
"""

import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

from ipl import SpdMatrix, conformality, inverse_conformality_check, weak_conformality
from ipl.cli import main

P3 = '{"vertices": ["v1", "v2", "v3"], "edges": [["v1", "v2"], ["v2", "v3"]]}'


@contextlib.contextmanager
def inputs(**texts):
    """Each text written to ``<name>.json`` in a new temporary directory;
    yields the paths by name."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in texts.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w") as f:
                f.write(text + "\n")
        yield paths


def run_cli(*argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_fresh(*args):
    """A fresh interpreter's run of ``python *args``, which must exit 0."""
    run = subprocess.run([sys.executable, *args], capture_output=True, text=True)
    assert run.returncode == 0, (args, run.returncode, run.stderr)
    return run.stdout


def passes(*argv):
    """The stdout of a CLI call that must exit 0."""
    code, out, err = run_cli(*argv)
    assert code == 0, (argv, code, err)
    return out


def result(*argv):
    return json.loads(passes(*argv))["result"]


def path_json(n, cycle=False):
    v = [f"v{i}" for i in range(n)]
    ends = v[1:] + v[:1] if cycle else v[1:]
    return json.dumps({"vertices": v, "edges": [[a, b] for a, b in zip(v, ends)]})


def gadget_json(instance):
    # A Partition gadget: x x^T + I with x = sqrt(instance).
    x = [math.sqrt(v) for v in instance]
    return json.dumps({"rows": [[a * b + (i == j) for j, b in enumerate(x)] for i, a in enumerate(x)]})


def assert_witness_pair(r, rows_path):
    # The witness pair has unit M-norms and correlation rho_weak.
    with open(rows_path) as f:
        m = np.array(json.load(f)["rows"])
    x, y = np.array(r["witness_x"]), np.array(r["witness_y"])
    gaps = [x @ m @ x - 1, y @ m @ y - 1, x @ m @ y - r["rho_weak"]]
    assert max(map(abs, gaps)) <= 1e-12, gaps


def test_version_in_a_fresh_interpreter():
    print(run_fresh("-m", "ipl", "--version"), end="")


def test_import_loads_no_scipy():
    run_fresh("-c", "import sys, ipl; bad = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); assert not bad, bad")


def test_verify_cheeger_on_the_3_path():
    with inputs(p3=P3) as f:
        passes("verify", "cheeger", "--graph", f["p3"])


def test_verify_radius_on_the_3_path():
    with inputs(p3=P3) as f:
        passes("verify", "radius", "--graph", f["p3"])


def test_conductance_csv_table_on_the_3_path():
    with inputs(p3=P3) as f:
        passes("conductance", "--graph", f["p3"], "--table", "--csv")


def test_conductance_of_the_25_path_is_within_the_cuts_cap():
    with inputs(p25=path_json(25)) as f:
        passes("conductance", "--graph", f["p25"])


def test_14_cycle_split_scan_witness_is_the_first_tied_cut():
    # A 14-cycle takes the split scan. Its 7 exactly tied cuts of
    # phi = 1/7 are final as scored (integral inner products), and the
    # witness is the first minimizer of the table, v0..v6.
    with inputs(c14=path_json(14, cycle=True)) as f:
        r = result("conductance", "--graph", f["c14"])
        rows = list(csv.DictReader(io.StringIO(passes("conductance", "--graph", f["c14"], "--table", "--csv"))))
    print(r)
    first = min(rows, key=lambda row: float(row["phi"]))
    assert sum(float(row["phi"]) == 1 / 7 for row in rows) == 7, first
    assert r["witness_S"] == first["subset"].split(";") == [f"v{i}" for i in range(7)], (r, first)
    assert r["phi"] == float(first["phi"]) == 1 / 7, (r, first)


def test_pair_sweep_past_the_pairs_cap_exits_two():
    # The pair sweep at n = 13 is past the pairs cap: exit 2, one message.
    with inputs(p13=path_json(13)) as f:
        code, _, err = run_cli("verify", "eml", "--batch", "--graph", f["p13"])
    print(err, end="")
    assert code == 2
    message = "error: the pair sweep of 13 vertices: 67108864 pairs exceed the cap of 16777216; pass force=True (CLI: --force)"
    assert message in err.splitlines(), err


def test_diagonal_matrix_scores_zero_without_a_scan():
    with inputs(d3='{"rows": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]}') as f:
        r = result("conformality", f["d3"])
    print(r)
    assert r["rho_weak"] == 0 and r["witness_S"] == [0], r


def test_two_equal_blocks_score_one_half():
    # 0.5 up to rounding, witness {0}.
    with inputs(b4='{"rows": [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]]}') as f:
        r = result("conformality", f["b4"])
    print(r)
    assert abs(r["rho_weak"] - 0.5) <= 1e-15 and r["witness_S"] == [0], r


def test_tied_partition_gadget_k4():
    # Instance [1, 1, 2, 2]: rho_weak = X/(X+1) for the half sum X = 3, and
    # the witness is the lexicographically first balanced set, {0, 2};
    # {0, 3} ties with it, so the stacked near-tie recheck runs. The witness
    # pair is built from that recheck's own scores.
    with inputs(g4=gadget_json((1, 1, 2, 2))) as f:
        r = result("conformality", f["g4"])
        print(r)
        assert_witness_pair(r, f["g4"])
    assert abs(r["rho_weak"] - 3 / 4) <= 1e-12 and r["witness_S"] == [0, 2], r


def test_balanced_partition_gadget_k16():
    # A balanced k = 16 gadget is one D + u u^T block, ranked in closed
    # form: rho_weak = X/(X+1) for the half sum X = 31, and the witness is a
    # balanced set, checked against all of them by brute force. Rounding
    # spreads the 1356 balanced sets holding index 0 over a few ulps of
    # their score, and the witness is the first of those at the top
    # ([0, 1, 2, 6, 7, 8, 14, 15] on x86 OpenBLAS), which need not be the
    # first balanced set.
    v = (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 2, 6, 1, 4, 9, 1)
    with inputs(g16=gadget_json(v)) as f:
        r = result("conformality", f["g16"])
    print(r["rho_weak"], r["witness_S"])
    half = sum(v) // 2
    balanced = [list(s) for n in range(1, 16) for s in itertools.combinations(range(16), n) if 0 in s and sum(v[i] for i in s) == half]
    assert abs(r["rho_weak"] / (half / (half + 1)) - 1) <= 1e-15, r
    assert len(balanced) == 1356 and r["witness_S"] in balanced, r["witness_S"]


def test_blocks_of_two_scales_share_one_tie_window():
    # Blocks of scales 1e6 and 1 share one tie window, set by
    # cond(M) = 5e6. The unscaled block {2, 3} wins (1/2 against 1/4), and
    # its S = {2} lifts over the first block to [0, 1, 2].
    with inputs(s4='{"rows": [[4e6, 1e6, 0, 0], [1e6, 4e6, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]]}') as f:
        r = result("conformality", f["s4"])
        print(r)
        assert_witness_pair(r, f["s4"])
    assert abs(r["rho_weak"] - 0.5) <= 1e-15 and r["witness_S"] == [0, 1, 2], r


def test_interleaved_equal_blocks_pick_the_first_block():
    # Interleaved equal blocks {0, 2} and {1, 3} both score 1/2 exactly.
    # The second block's S = {1} lifts to [0, 1], so the one witness rule
    # picks the first block's [0].
    with inputs(i4='{"rows": [[2, 0, 1, 0], [0, 2, 0, 1], [1, 0, 2, 0], [0, 1, 0, 2]]}') as f:
        r = result("conformality", f["i4"])
        print(r)
        assert_witness_pair(r, f["i4"])
    assert abs(r["rho_weak"] - 0.5) <= 1e-15 and r["witness_S"] == [0], r


def test_diagonal_k70_witness_pair():
    # A 70 x 70 diagonal M = diag(1 + i mod 7) scores 0 without a scan, and
    # its pair is that of S = {0} scored on C = {0, 1}: x = e0 and
    # y = e1 / sqrt(2). Past k = 64 no k-bit mask can stand in for S.
    with inputs(d70=json.dumps({"rows": [[(1 + i % 7) * (i == j) for j in range(70)] for i in range(70)]})) as f:
        r = result("conformality", f["d70"])
    x, y = r["witness_x"], r["witness_y"]
    print(r["rho_weak"], r["witness_S"], x[:3], y[:3])
    assert r["rho_weak"] == 0 and r["witness_S"] == [0], r
    assert len(x) == len(y) == 70 and x[0] == 1 and not any(x[1:]), x
    assert not y[0] and not any(y[2:]) and abs(y[1] ** 2 * 2 - 1) <= 1e-15, y


def test_inverse_of_a_permuted_block_diagonal_matrix_needs_no_force():
    # The inverse keeps the blocks of M ([6, 6, 5, 4], k = 21).
    rng = np.random.default_rng(21)
    a = np.zeros((21, 21))
    at = 0
    for b in (6, 6, 5, 4):
        q = np.linalg.qr(rng.standard_normal((b, b)))[0]
        a[at : at + b, at : at + b] = (q * rng.uniform(0.5, 3.0, b)) @ q.T
        at += b
    p = rng.permutation(21)
    rep = inverse_conformality_check(SpdMatrix(a[np.ix_(p, p)]))
    print(rep.values)
    assert rep.passed, rep.values


def test_ragged_matrix_exits_two_naming_the_file_and_key():
    with inputs(ragged='{"rows": [[1, [2]], [3, 4]]}') as f:
        code, _, err = run_cli("conformality", f["ragged"])
    print(err, end="")
    assert code == 2
    assert f'error: {f["ragged"]}: matrix "rows" must be a list of equal-length lists of numbers' in err.splitlines(), err


def test_directory_as_matrix_file_exits_two_with_one_line():
    with tempfile.TemporaryDirectory() as tmp:
        code, _, err = run_cli("conformality", tmp)
    print(err, end="")
    assert code == 2
    assert err.count("\n") == 1
    assert f"error: {tmp}: cannot read: Is a directory" in err.splitlines(), err


def test_pair_sweep_with_a_diagonal_me_skips_trivial_pairs():
    # A non-integer diagonal M_E (rho_E = 0): pairs with X or Y in {}, V
    # pass by identity (the edge terms at V cancel for a diagonal M_E), so
    # the witness is a pair of nonempty proper subsets and min_margin is
    # positive. Each pair orbit under swapping X and Y and complementing
    # either is scored once, at its first member: X mask <= Y mask, and
    # neither holds the last vertex v3.
    with inputs(p3=P3, mv3='{"rows": [[1, 0, 0], [0, 2, 0], [0, 0, 1]]}', me2='{"rows": [[1.5, 0], [0, 0.7]]}') as f:
        v = result("verify", "eml", "--batch", "--graph", f["p3"], "--mv", f["mv3"], "--me", f["me2"])["values"]
    print(v)
    assert v["min_margin"] > 0 and v["pairs_checked"] == 64, v
    assert all(0 < len(v[k]) < 3 for k in ("worst_x", "worst_y")), v
    assert 2 not in v["worst_x"] + v["worst_y"], v
    assert sum(1 << i for i in v["worst_x"]) <= sum(1 << i for i in v["worst_y"]), v


def test_pair_sweep_with_every_edge_coupled_uses_only_the_swap():
    # With every edge coupled in M_E only the swap applies: X mask <= Y
    # mask (here ({v2, v3, v4}, V)), and all 4^4 pairs still count as
    # checked.
    with inputs(
        g4e='{"vertices": ["v1", "v2", "v3", "v4"], "edges": [["v1", "v2"], ["v1", "v3"], ["v2", "v3"], ["v3", "v4"]]}',
        mv4='{"rows": [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.5]]}',
        me4='{"rows": [[1, -0.4, 0, 0.2], [-0.4, 1, 0.3, 0], [0, 0.3, 1, -0.2], [0.2, 0, -0.2, 1]]}',
    ) as f:
        v = result("verify", "eml", "--batch", "--graph", f["g4e"], "--mv", f["mv4"], "--me", f["me4"])["values"]
    print(v)
    assert v["pairs_checked"] == 256 and v["rho_e"] > 0, v
    assert sum(1 << i for i in v["worst_x"]) <= sum(1 << i for i in v["worst_y"]), v


def test_readme_schedule_range_is_the_default_schedule():
    # Bit for bit.
    with inputs(p3=P3) as f:
        a = result("neumann", "--graph", f["p3"], "--subset", "v1,v2")
        b = result("neumann", "--graph", f["p3"], "--subset", "v1,v2", "--schedule", "1e-1:1e-8")
    assert a == b, (a, b)


def test_tiny_coupling_gives_a_finite_unit_pair_with_no_warning():
    # Tolerances are relative to what they test, so the units of an inner
    # product change no verdict. A 1e-200 coupling gives a finite witness
    # pair of unit M-norm, with no numpy warning.
    with inputs(w3='{"rows": [[1, 1e-200, 0], [1e-200, 1, 0], [0, 0, 1]]}') as f:
        r = json.loads(run_fresh("-W", "error", "-m", "ipl", "conformality", f["w3"]))["result"]
        with open(f["w3"]) as g:
            m = np.array(json.load(g)["rows"])
    print(r)
    x, y = np.array(r["witness_x"]), np.array(r["witness_y"])
    assert np.isfinite(x).all() and np.isfinite(y).all(), r
    assert abs(x @ m @ x - 1) <= 1e-12 and abs(y @ m @ y - 1) <= 1e-12, r


def test_scaled_vertex_inner_product_keeps_one_kernel_vector():
    # The 3-vertex path with M_V = 1e12 I is connected: one kernel vector.
    with inputs(p3=P3, mv12='{"rows": [[1e12, 0, 0], [0, 1e12, 0], [0, 0, 1e12]]}', id2='{"rows": [[1, 0], [0, 1]]}') as f:
        r = result("spectrum", "--graph", f["p3"], "--mv", f["mv12"], "--me", f["id2"])
    print(r["eigenvalues"])
    assert r["zero_multiplicity"] == 1, r["zero_multiplicity"]


def test_tiny_asymmetric_matrix_is_refused_like_one_at_scale_one():
    with inputs(a2='{"rows": [[1e-20, 5e-21], [0, 1e-20]]}') as f:
        code, out, err = run_cli("conformality", f["a2"])
    print(err, end="")
    assert code == 2
    assert out == ""
    assert "error: matrix is asymmetric: max |A - A^T| = 5.000e-21 exceeds 1e-12 * 1.000e-20" in err.splitlines(), err
    assert err.count("\n") == 1


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
    loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("pytest", "scipy"))
    assert not loaded, loaded
