"""The three workloads: what each runs, and why, and the CLI probe of the traced run.

A workload is a list of passes. Each pass is the same list of operation
shapes (slots) on fresh inputs drawn from (seed, workload, pass, index), so
every seed does the same exact work (partitions, cuts, pairs) and no
operation sees an input twice. A pass takes 3-7 s on a shared 2-core x86
machine, so a 32 s run fits four to ten passes. Operations run one at a time
from one process: a closed loop with a single client.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ipl import partition_gadget

import cli_ops
from inputs import (
    Build,
    balanced_instance,
    block_diagonal_entries,
    connected_graph,
    near_diagonal_entries,
    rng,
    spd_entries,
)
from ops import Op, cheeger_op, conductance_op, eml_batch_op, radius_op, weak_op


@dataclass
class Workload:
    name: str
    why: str
    build: Callable[[int, int, Build, Path], list]  # (seed, pass, build, workdir) -> ops


def block_sizes(m: int, largest: int = 5) -> list[int]:
    count = -(-m // largest)
    return [m // count + (1 if i < m % count else 0) for i in range(count)]


# weak-dense: (k, kind) per operation. Sizes 11-13 put 2^(k-1)-1 = 1023..4095
# partitions behind each call; the kinds cover both conditionings, rho ~ 0
# and the Partition gadget (rho near 1, tied witnesses). Every matrix is
# fully dense, so a block split finds nothing to split here. The two k = 13
# slots take each kind in turn across passes.
WEAK_KINDS = ("well", "ill", "near-diagonal", "gadget")
WEAK_PLAN = [(11, kind) for kind in WEAK_KINDS * 3] + [(12, kind) for kind in WEAK_KINDS + WEAK_KINDS[:2]]


def weak_dense(seed: int, index: int, build: Build, workdir: Path) -> list[Op]:
    plan = WEAK_PLAN + [(13, WEAK_KINDS[index % 4]), (13, WEAK_KINDS[(index + 2) % 4])]
    ops = []
    for i, (k, kind) in enumerate(plan):
        r = rng(seed, 1, index, i)
        expected = None
        if kind == "well":
            m = build.spd(spd_entries(r, k, 0.5, 3.0))
        elif kind == "ill":
            m = build.spd(spd_entries(r, k, 1e-2, 1e2))
        elif kind == "near-diagonal":
            m = build.spd(near_diagonal_entries(r, k))
        else:
            gadget = partition_gadget(balanced_instance(r, k))
            m = build.spd(gadget.matrix.entries)
            expected = gadget.affirmative_value
        ops.append(weak_op(f"weak_conformality k={k} {kind}", m, seed, expected))
    return ops


# verify-normalized: (verifier, n, m, edge inner product), at n = 9-10 and
# m = 11-13 so that a pass stays short. The default CLI
# inner products (degree diagonal, identity) plus a few block-diagonal dense
# M_E: every conformality call here is on a matrix whose nonzero pattern
# splits into blocks, against the fully dense matrices of weak-dense.
VERIFY_PLAN = (
    [("cheeger", 9, 11, "identity"), ("radius", 9, 11, "identity")] * 4
    + [("cheeger", 9, 12, "identity"), ("radius", 9, 12, "identity")] * 2
    + [("cheeger", 10, 12, "blocks"), ("radius", 10, 12, "blocks")]
    + [("cheeger", 10, 13, "identity")]
)


def verify_normalized(seed: int, index: int, build: Build, workdir: Path) -> list[Op]:
    ops = []
    for i, (verifier, n, m, edge) in enumerate(VERIFY_PLAN):
        r = rng(seed, 2, index, i)
        g = connected_graph(r, n, m)
        m_v, m_e = build.normalized(g)
        if edge == "blocks":
            m_e = build.spd(block_diagonal_entries(r, block_sizes(m), 0.5, 3.0))
        make = cheeger_op if verifier == "cheeger" else radius_op
        ops.append(make(f"verify_{verifier} n={n} m={m} M_E={edge}", g, m_v, m_e, seed))
    return ops


# cuts-pairs: conductance at n = 16-18, density 0.3, with the normalized pair
# and with dense random M_V/M_E (the n = 18 slot alternates between them
# across passes); the pair sweep at n = 9-10, m = 11, with diagonal and dense
# M_E. Conformality is only the rho_E of the dense sweeps.
CUTS_PLAN = (
    [("conductance", 16, kind) for kind in ("normalized", "dense") * 3]
    + [("conductance", 17, kind) for kind in ("normalized", "dense") * 2]
    + [("conductance", 18, "alternating")]
    + [("eml_batch", n, kind) for n in (9, 10) for kind in ("diagonal", "dense")]
)


def cuts_pairs(seed: int, index: int, build: Build, workdir: Path) -> list[Op]:
    ops = []
    for i, (call, n, kind) in enumerate(CUTS_PLAN):
        r = rng(seed, 3, index, i)
        if call == "conductance":
            g = connected_graph(r, n, round(0.3 * n * (n - 1) / 2))
            if kind == "alternating":
                kind = ("normalized", "dense")[index % 2]
            if kind == "normalized":
                m_v, m_e = build.normalized(g)
            else:
                m_v, m_e = build.spd(spd_entries(r, n, 0.5, 3.0)), build.spd(spd_entries(r, g.m, 0.5, 3.0))
            ops.append(conductance_op(f"conductance n={n} m={g.m} {kind}", g, m_v, m_e))
        else:
            g = connected_graph(r, n, 11)
            m_v = build.normalized(g)[0]
            if kind == "diagonal":
                m_e = build.spd(np.diag(r.uniform(0.5, 2.0, g.m)))
            else:
                m_e = build.spd(spd_entries(r, g.m, 0.5, 3.0))
            ops.append(eml_batch_op(f"verify_eml_batch n={n} m={g.m} M_E={kind}", g, m_v, m_e))
    return ops


def label(argv: list) -> str:
    return "ipl " + " ".join(Path(a).name if a.endswith(".json") else a for a in argv)


def probe(seed: int, build: Build, workdir: Path) -> list[Op]:
    """The CLI command set, issued once by every traced run: it measures the
    cli, jsonio and report layers, and any layer the workload itself never
    reaches."""
    return [cli_ops.cli_op(label(c.argv), c) for c in cli_ops.commands(seed, 0, build, workdir)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "weak-dense",
            "exact weak conformality on dense k=11-13 matrices: the partition scan is nearly all the time and no input has block structure",
            weak_dense,
        ),
        Workload(
            "verify-normalized",
            "Cheeger and radius verifiers at n=9-10, m=11-13 on the CLI default inner products: many conformality scans of block-structured matrices",
            verify_normalized,
        ),
        Workload(
            "cuts-pairs",
            "exact conductance at n=16-18 and the 4^n expander-mixing pair sweep at n=9-10: cut chunks and pair arrays dominate time and memory",
            cuts_pairs,
        ),
    )
}
