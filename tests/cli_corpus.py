"""A recorded corpus of CLI runs: every README synopsis command and flag.

    PYTHONPATH=src python tests/cli_corpus.py record OUT.json
    PYTHONPATH=src python tests/cli_corpus.py fuzz OUT.json
    PYTHONPATH=src python tests/cli_corpus.py compare A.json B.json

``record`` writes the small inputs below to a temporary directory, runs each
case in-process through ``ipl.cli.main`` and stores, per case, the exit code
and stdout and stderr with every input path masked to its basename. The
cases cover each command and flag of the README synopsis (and ``--version``),
a Neumann sweep that exits 1, and five refusals that exit 2. ``compare``
prints every case whose exit code, stdout or stderr differs between two
recordings, or that only one of them holds, and exits 1 if there is any.
Recording the same tree twice must give no difference; recording two
trees shows whether a change moves any byte the CLI prints.

``fuzz`` records the random cases of ``_fuzz_cases`` and
``_fuzz_reexpression_cases`` (which ``test_cli`` runs for seed 39) for every
seed of FUZZ_SEEDS, each with its --csv form where the command has one:
per run its exit code and the last line of its stderr, input paths masked
to the seed's directory. ``compare`` reads that recording as it reads
``record``'s, and so lists every run whose exit code or error line moved.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pathlib
import sys
import tempfile

import numpy as np

from ipl.cli import main as ipl_main
from ipl.laplacian import CLASSICAL_KINDS


def _path(n):
    labels = [f"v{i + 1}" for i in range(n)]
    return {"vertices": labels, "edges": [[labels[i], labels[i + 1]] for i in range(n - 1)]}


def _rows(k, entry):
    return {"rows": [[entry(i, j) for j in range(k)] for i in range(k)]}


_GADGET = [3.0, 1.0, 1.0, 2.0, 2.0, 1.0]
_ME5 = {(0, 1): 0.4, (1, 3): -0.3, (2, 4): 0.2}
# Two equal 2 x 2 blocks on {1, 6} and {3, 4}, one size stack whose values
# tie exactly across its blocks, and a dense 4 x 4 block on the rest.
_DENSE4, _PAIRS = [0, 2, 5, 7], ({1, 6}, {3, 4})


def _chorded_path(n, chords):
    """Vertices u0..u{n-1} joined by the path and the chords, edges sorted."""
    labels = [f"u{i}" for i in range(n)]
    edges = sorted({(i, i + 1) for i in range(n - 1)} | set(chords))
    return {"vertices": labels, "edges": [[labels[a], labels[b]] for a, b in edges]}


# Edge blocks of g15.json, whose conductance scan splits at the first 8
# vertices: an LL edge with the crossing edges at u11, u13 and u8, then an
# LL edge, the crossing edge at u14 and an HH edge.
_BLOCKS15 = ({3, 4, 7, 11}, {1, 10, 14})


def _blocks18(i, j):
    blocked = any({i, j} <= b for b in _BLOCKS15)
    return (2.0 if blocked else 1.5) if i == j else 0.3 * blocked


def _blocks8(i, j):
    if i in _DENSE4 and j in _DENSE4:
        return 2.0 if i == j else 0.5 ** abs(_DENSE4.index(i) - _DENSE4.index(j))
    return (1.0 if i == j else 0.6) if any({i, j} <= p for p in _PAIRS) else 0.0


INPUTS = {
    "p3.json": _path(3),
    "p4.json": _path(4),
    "p8.json": _path(8),
    "c5.json": {
        "vertices": ["a", "b", "c", "d", "e"],
        "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["a", "e"]],
        "orientation": [1, -1, 1, 1, -1],
    },
    "id3.json": _rows(3, lambda i, j: float(i == j)),
    "ipj.json": {"rows": [[2.0, 1.0], [1.0, 2.0]]},
    "mv5.json": _rows(5, lambda i, j: 2.0 if i == j else 0.3 * (abs(i - j) == 1)),
    "me5.json": _rows(5, lambda i, j: 1.5 if i == j else _ME5.get((min(i, j), max(i, j)), 0.0)),
    "dense6.json": _rows(6, lambda i, j: float(i == j) + 0.5 ** abs(i - j)),
    "gadget6.json": _rows(6, lambda i, j: float(i == j) + _GADGET[i] * _GADGET[j]),
    "blocks8.json": _rows(8, _blocks8),
    "asym.json": {"rows": [[2.0, 1.0], [0.0, 2.0]]},
    "w3.json": [1.0, 2.0, 0.5],
    "h4.json": {"vertices": ["1", "2", "3", "4"], "hyperedges": [["1", "2", "3"], ["3", "4"]], "weights": [1.0, 2.0]},
    "pi4.json": [1.0, 2.0, 1.0, 1.0],
    "d4.json": {"values": [3.0, 3.0, 7.0, 4.0]},
    "dt4.json": [1.0, 1.0, 2.0, 1.0],
    "chain3.json": {"rows": [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.25, 0.75, 0.0]]},
    # Doubly stochastic, with the one-way transition v1 -> v3 of 1e-15: its
    # pair weight is too small beside the others for M_E = diag(pair weights).
    "chain4.json": {
        "rows": [
            [0.0, 0.875, 1e-15, 0.125 - 1e-15],
            [0.875, 0.0, 0.125, 0.0],
            [0.0, 0.125, 0.0, 0.875],
            [0.125, 0.0, 0.875 - 1e-15, 1e-15],
        ]
    },
    "id5.json": _rows(5, lambda i, j: float(i == j)),
    # Past the split point (n = 12) of the conductance scan.
    "g15.json": _chorded_path(15, [(0, 7), (2, 11), (4, 13), (6, 14)]),
    "g16.json": _chorded_path(16, [(0, 9), (1, 12), (2, 8), (3, 14), (5, 15), (6, 11)]),
    "dense15.json": _rows(15, lambda i, j: float(i == j) + 0.5 ** abs(i - j)),
    "dense18.json": _rows(18, lambda i, j: float(i == j) + 0.5 ** abs(i - j)),
    "blocks18.json": _rows(18, _blocks18),
    # Cor(X, Y) = (8 - 4) (4e307)^2 for X = {a, b}, Y = {b, c} is no double.
    "huge5.json": _rows(5, lambda i, j: 4e307 * (i == j)),
}

_DENSE = ["--mv", "mv5.json", "--me", "me5.json"]
_C5 = ["--graph", "c5.json"]

CASES = [
    ["--version"],
    ["conformality", "dense6.json"],
    ["conformality", "gadget6.json", "--force"],
    ["conformality", "blocks8.json"],
    ["conformality", "dense6.json", "--sampled", "40", "--seed", "3"],
    ["spectrum", "--graph", "p3.json", "--mv", "id3.json", "--me", "ipj.json", "--orientation", "+,-"],
    ["spectrum", "--graph", "p3.json", "--mv", "id3.json", "--me", "ipj.json", "--orientation", "-,+"],
    ["spectrum", *_C5, *_DENSE],
    ["spectrum", *_C5, *_DENSE, "--dim", "1"],
    ["spectrum", *_C5, *_DENSE, "--coboundary"],
    ["spectrum", *_C5, *_DENSE, "--csv"],
    *(["recover", "--kind", kind, "--graph", "p4.json"] for kind in CLASSICAL_KINDS),
    ["recover", "--kind", "normalized", "--graph", "p4.json", "--weights", "w3.json"],
    ["recover", "--kind", "combinatorial", "--graph", "p4.json", "--csv"],
    ["hypergraph-to-ipl", "--hypergraph", "h4.json"],
    ["hypergraph-to-ipl", "--hypergraph", "h4.json", "--pi", "pi4.json"],
    ["hypergraph-to-ipl", "--hypergraph", "h4.json", "--d", "d4.json"],
    ["hypergraph-to-ipl", "--hypergraph", "h4.json", "--dt", "dt4.json"],
    ["digraph", "--transition", "chain3.json"],
    ["conductance", *_C5],
    ["conductance", *_C5, "--kind", "combinatorial", "--force"],
    ["conductance", *_C5, *_DENSE, "--table"],
    ["conductance", *_C5, *_DENSE, "--table", "--csv"],
    *(
        ["verify", check, *_C5, *inner, *extra]
        for check, extra in (
            ("cheeger", []),
            ("eml", ["--x", "a,b", "--y", "b,c"]),
            ("eml", ["--x", "a,b", "--y", "c,d"]),
            ("eml", ["--batch"]),
            ("radius", []),
        )
        for inner in ([], ["--kind", "combinatorial"], _DENSE, [*_DENSE, "--orientation", "-,+,+,-,+", "--force"])
    ),
    # Split scans: the normalized pair, a dense pair, and a block M_E that
    # couples crossing edges at several high vertices.
    *(
        [*verb, "--graph", g, *inner]
        for verb in (["conductance"], ["verify", "cheeger"])
        for g, inner in (
            ("g16.json", []),
            ("g15.json", ["--mv", "dense15.json", "--me", "dense18.json"]),
            ("g15.json", ["--mv", "dense15.json", "--me", "blocks18.json"]),
        )
    ),
    ["neumann", "--graph", "p4.json", "--subset", "v2,v3"],
    ["neumann", "--graph", "p4.json", "--subset", "v2,v3", "--schedule", "1e-1:1e-6", "--force"],
    ["neumann", "--graph", "p4.json", "--subset", "v2,v3", "--schedule", "0.5,0.1", "--csv"],
    ["neumann", "--graph", "p4.json", "--subset", "v2,v3", "--direct-only"],
    ["neumann", "--graph", "p4.json", "--subset", "v2,v3", "--schedule", "1e-1"],
    ["neumann", "--graph", "p8.json", "--subset", "v1,v2", "--schedule", "1e-1,1e-5,1e-9"],
    ["dirichlet", "--graph", "p4.json", "--subset", "v2,v3"],
    ["dirichlet", "--graph", "p4.json", "--subset", "v1,v3,v4", "--csv"],
    # Refusals, exit 2: an input, a subset, a flag combination, pair weights
    # out of range of a positive definite M_E, and Cor(X, Y) past a double.
    ["conformality", "asym.json"],
    ["dirichlet", "--graph", "p4.json", "--subset", ""],
    ["conductance", "--graph", "p4.json", "--csv"],
    ["digraph", "--transition", "chain4.json"],
    ["verify", "eml", *_C5, "--mv", "huge5.json", "--me", "id5.json", "--x", "a,b", "--y", "b,c"],
]


FUZZ_SCALES = (-300, -154, -100, 0, 100, 154, 300)
# The re-expressions and conformality also take inputs at 10^307.
REEXPRESSION_SCALES = (*FUZZ_SCALES, 307)
# The flags that each command with a --csv form needs beside it.
CSV_FORMS = {"spectrum": [], "recover": [], "conductance": ["--table"], "neumann": [], "dirichlet": []}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _fuzz_graph(rng):
    """A random graph of 2 to 7 vertices and at least one edge, connected or not."""
    n = int(rng.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = rng.random(len(pairs)) < rng.uniform(0.2, 0.9)
    keep[rng.integers(len(pairs))] = True
    labels = [f"v{i}" for i in range(n)]
    return {"vertices": labels, "edges": [[labels[u], labels[v]] for (u, v), k in zip(pairs, keep) if k]}


def _fuzz_inner_product(rng, k, scales=FUZZ_SCALES):
    """A diagonal, dense or block-diagonal SPD matrix of size k, times 10^s
    for a scale s drawn from ``scales``."""
    kind = rng.choice(["diagonal", "dense", "block"])
    if kind == "diagonal":
        m = np.diag(rng.uniform(0.5, 3.0, k))
    else:
        sizes = [k] if kind == "dense" else np.diff([0, *sorted(rng.choice(np.arange(1, k), min(k - 1, 2), replace=False)), k])
        m = np.zeros((k, k))
        lo = 0
        for b in sizes:
            a = rng.standard_normal((b, b))
            m[lo : lo + b, lo : lo + b] = a @ a.T / b + np.eye(b)
            lo += b
    return {"rows": (m * 10.0 ** int(rng.choice(scales))).tolist()}


def _fuzz_cases(rng, tmp_path):
    """argv lists of every graph command of the README synopsis on random
    graphs, inner products and weights at scales from 10^-300 to 10^300."""
    for i in range(16):
        graph = _fuzz_graph(rng)
        n, m = len(graph["vertices"]), len(graph["edges"])
        g = write(tmp_path, f"g{i}.json", graph)
        mv = write(tmp_path, f"mv{i}.json", _fuzz_inner_product(rng, n))
        me = write(tmp_path, f"me{i}.json", _fuzz_inner_product(rng, m))
        w = write(tmp_path, f"w{i}.json", (rng.uniform(0.5, 3.0, m) * 10.0 ** int(rng.choice(FUZZ_SCALES))).tolist())
        ips = ["--graph", g, "--mv", mv, "--me", me]
        x, y, s = (",".join(rng.choice(graph["vertices"], int(rng.integers(1, n + 1)), replace=False)) for _ in range(3))
        yield ["spectrum", *ips]
        yield ["recover", "--kind", str(rng.choice(CLASSICAL_KINDS)), "--graph", g, "--weights", w]
        yield ["conductance", *ips]
        for verb in (["cheeger"], ["eml", "--x", x, "--y", y], ["eml", "--batch"], ["radius"]):
            yield ["verify", *verb, *ips]
        yield ["neumann", "--graph", g, "--subset", s]
        yield ["dirichlet", "--graph", g, "--subset", s]


def _fuzz_reexpression_cases(rng, tmp_path):
    """argv lists of conformality, hypergraph-to-ipl and digraph: SPD
    matrices, hyperedge weights, pi, D-tilde and transition entries each
    times 10^s for scales s drawn from REEXPRESSION_SCALES."""

    def scaled(shape):
        return rng.uniform(0.5, 3.0, shape) * 10.0 ** int(rng.choice(REEXPRESSION_SCALES))

    for i in range(16):
        n = int(rng.integers(2, 8))
        yield ["conformality", write(tmp_path, f"spd{i}.json", _fuzz_inner_product(rng, n, REEXPRESSION_SCALES))]
        labels = [f"v{j}" for j in range(n)]
        hyperedges = sorted({tuple(sorted(rng.choice(labels, int(rng.integers(2, n + 1)), replace=False))) for _ in range(n)})
        hg = {"vertices": labels, "hyperedges": [list(h) for h in hyperedges], "weights": scaled(len(hyperedges)).tolist()}
        argv = ["hypergraph-to-ipl", "--hypergraph", write(tmp_path, f"h{i}.json", hg)]
        for name in ("pi", "dt"):
            if rng.random() < 0.75:
                argv += [f"--{name}", write(tmp_path, f"{name}{i}.json", scaled(n).tolist())]
        yield argv
        # A cycle through every state keeps most chains ergodic; entries of
        # far apart scales round to 0 in their row.
        p = scaled((n, n)) * (rng.random((n, n)) < 0.5)
        p[np.arange(n), (np.arange(n) + 1) % n] = scaled(n)
        yield ["digraph", "--transition", write(tmp_path, f"p{i}.json", {"rows": (p / p.sum(axis=1)[:, None]).tolist()})]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ipl_main(argv)
        except SystemExit as exc:  # argparse: --version, usage errors
            code = exc.code or 0
    return code, out.getvalue(), err.getvalue()


def record() -> dict:
    """Run every case on freshly written inputs; {case: {exit, stdout, stderr}}."""
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp)
        for name, obj in INPUTS.items():
            (base / name).write_text(json.dumps(obj))
        prefix = str(base) + "/"
        runs = {}
        for case in CASES:
            code, out, err = _run([str(base / a) if a in INPUTS else a for a in case])
            runs[" ".join(case)] = {"exit": code, "stdout": out.replace(prefix, ""), "stderr": err.replace(prefix, "")}
    return runs


FUZZ_SEEDS = range(39, 45)


def fuzz(seeds=FUZZ_SEEDS) -> dict:
    """Run the fuzz cases of each seed, each with its --csv form, on freshly
    written inputs; {case: {exit, stderr}}, stderr as its last line."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        prefix = tmp + "/"
        for seed in seeds:
            base = pathlib.Path(tmp, str(seed))
            base.mkdir()
            rng = np.random.default_rng(seed)
            for argv in [*_fuzz_cases(rng, base), *_fuzz_reexpression_cases(rng, base)]:
                forms = [argv]
                if argv[0] in CSV_FORMS:
                    forms.append([*argv, *(f for f in CSV_FORMS[argv[0]] if f not in argv), "--csv"])
                for form in forms:
                    code, _, err = _run(form)
                    last = err.splitlines()[-1] if err else ""
                    runs[" ".join(form).replace(prefix, "")] = {"exit": code, "stderr": last.replace(prefix, "")}
    return runs


def compare(a: dict, b: dict) -> list[str]:
    """One line per case, in sorted order, that only one recording holds or
    whose exit code, stdout or stderr differs, naming what differs."""
    lines = []
    for case in sorted(a.keys() | b.keys()):
        if case not in a or case not in b:
            lines.append(f"{case}: only in {'A' if case in a else 'B'}")
        elif a[case] != b[case]:
            lines.append(f"{case}: " + ", ".join(k for k in a[case] if a[case][k] != b[case][k]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record the CLI corpus or the fuzz outcomes, or compare two recordings.")
    sub = parser.add_subparsers(dest="action", required=True)
    sub.add_parser("record").add_argument("out")
    sub.add_parser("fuzz").add_argument("out")
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.action in ("record", "fuzz"):
        runs = record() if args.action == "record" else fuzz()
        pathlib.Path(args.out).write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
        return 0
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in (args.a, args.b))
    diffs = compare(a, b)
    print("\n".join([*diffs, f"{len(diffs)} of {len(a.keys() | b.keys())} cases differ"]))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
