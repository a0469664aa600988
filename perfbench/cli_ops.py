"""``python -m ipl`` commands on generated JSON files: the traced run's probe.

Each operation is one subprocess, timed from launch to exit. Its check
wants exit code 0 (computed and passed), output that parses and re-renders
to the same bytes, and values and witnesses equal to the in-process library
call on the same inputs. For the traced run each command is replayed in-process as
``ipl.cli.main(argv)`` with output captured, and below that as the jsonio
loads, the library calls and the report rendering it is built from.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ipl import (
    conductance,
    digraph_laplacian,
    dirichlet_eigenvalues,
    hypergraph_to_ipl,
    neumann_eigenvalue,
    recover_classical,
    s_local_conductance,
    stable_json,
    verify_eml,
    weak_conformality,
    weak_conformality_sampled,
)
from ipl.cli import main as cli_main
from ipl.jsonio import hypergraph_from_dict, load_graph, load_hypergraph, load_matrix, load_vector
from ipl.report import csv_table

from inputs import conformality_attrs, connected_graph, cuts, rng, spd_entries
from ops import (
    Op,
    Part,
    cheeger_part,
    conductance_part,
    eml_batch_part,
    radius_part,
    spectrum_part,
    weak_value_part,
)

SRC = Path(__file__).resolve().parent.parent / "src"
LOADERS = {"graph": load_graph, "matrix": load_matrix, "vector": load_vector, "hypergraph": load_hypergraph}
TIMEOUT_S = 120


@dataclass
class Command:
    argv: list
    files: list            # (loader kind, path) pairs the command reads
    lib: Part              # the in-process library call that gives the reference
    compare: Callable      # (parsed output, reference) -> problems
    csv: bool = False
    extra: list = field(default_factory=list)  # further library parts the reference needs


def subprocess_env() -> dict:
    """The environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_python(args: list) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=TIMEOUT_S,
        check=False,
    )


def parse_csv(text: str):
    """The conductance table: a subset column, then floats."""
    lines = text.rstrip("\n").split("\n")
    rows = [line.split(",") for line in lines[1:]]
    return lines[0].split(","), [[row[0], *map(float, row[1:])] for row in rows]


def parse(text: str, csv: bool):
    if csv:
        return parse_csv(text)
    # Reports print the float -0.0 as "-0", which json would read back as the int 0.
    return json.loads(text, parse_int=lambda s: -0.0 if s == "-0" else int(s))


def render(parsed, csv: bool) -> str:
    return csv_table(*parsed) if csv else stable_json(parsed)


def floats_problems(name: str, got, want) -> list:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    bad = ~np.isclose(got, want, rtol=1e-12, atol=1e-12)
    return [f"{name}: {int(bad.sum())} values differ from the library call"] if bad.any() else []


def equal_problems(name: str, got, want) -> list:
    return [] if got == want else [f"{name}: {got!r} != {want!r} from the library call"]


def cli_op(label: str, cmd: Command) -> Op:
    def check(proc) -> list:
        refs = [cmd.lib.fn()] + [p.fn() for p in cmd.extra]
        ref = refs[0] if not cmd.extra else refs
        if proc.returncode != 0:
            return [f"exit code {proc.returncode}, expected 0: {proc.stderr.strip()[-300:]}"]
        try:
            parsed = parse(proc.stdout, cmd.csv)
        except (ValueError, IndexError) as exc:
            return [f"output does not parse: {exc}"]
        problems = [] if render(parsed, cmd.csv) == proc.stdout else ["output does not re-render to the same bytes"]
        return problems + cmd.compare(parsed if cmd.csv else parsed["result"], ref)

    def replay(proc) -> list:
        parsed = parse(proc.stdout, cmd.csv)

        def in_process():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return cli_main(list(cmd.argv))

        loads = [Part(f"jsonio.load_{kind}", lambda f=LOADERS[kind], p=path: f(p)) for kind, path in cmd.files]
        emit = Part(
            "report.csv_table" if cmd.csv else "report.stable_json",
            lambda: render(parsed, cmd.csv),
            {"bytes": len(proc.stdout.encode())},
        )
        return [Part("cli.main", in_process, children=loads + [cmd.lib, *cmd.extra, emit])]

    root = Part("cli.run", lambda: run_python(["-m", "ipl", *cmd.argv]))
    return Op(label, root, check, replay, counted=[cmd.lib, *cmd.extra])


def table_rows(table, labels) -> list:
    return [[";".join(labels[i] for i in r["subset"]), r["e_cut"], r["vol"], r["vol_comp"], r["phi"]] for r in table]


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def commands(seed: int, index: int, build, workdir: Path) -> list:
    """The command set of one pass: all eleven commands on small inputs (n <= 8),
    ``verify eml --batch`` on six vertices, and the 8191-row conductance table
    in JSON and in CSV on fourteen vertices."""
    r = rng(seed, 4, index)
    workdir.mkdir(parents=True, exist_ok=True)

    g8 = connected_graph(r, 8, 10)
    g6 = connected_graph(r, 6, 8)
    g14 = connected_graph(r, 14, 27)
    m7_rows = spd_entries(r, 7, 0.5, 3.0)
    mv8_rows = spd_entries(r, 8, 0.5, 3.0)
    me8_rows = spd_entries(r, g8.m, 0.5, 3.0)
    weights = r.uniform(0.5, 2.0, g8.m)
    orientation = [int(s) for s in r.choice([-1, 1], g8.m)]
    hyper = {
        "vertices": [f"h{i + 1}" for i in range(7)],
        "hyperedges": [["h1", "h2", "h3"], ["h3", "h4"], ["h4", "h5", "h6", "h7"], ["h1", "h7"]],
        "weights": [float(w) for w in r.uniform(0.5, 2.0, 4)],
    }
    transition = r.uniform(0.1, 1.0, (6, 6))
    transition /= transition.sum(axis=1, keepdims=True)
    labels = g8.labels
    order = [int(v) for v in r.permutation(8)]
    x_set, y_set = sorted(order[:2]), sorted(order[2:5])
    # A connected four-vertex ball for the neumann and dirichlet commands.
    ball = [order[0]]
    while len(ball) < 4:
        ball += [w for v in ball for w in g8.neighbors(v) if w not in ball][:1]
    ball.sort()

    f = {
        "g8": write_json(workdir / "g8.json", g8.to_dict()),
        "g6": write_json(workdir / "g6.json", g6.to_dict()),
        "g14": write_json(workdir / "g14.json", g14.to_dict()),
        "m7": write_json(workdir / "m7.json", {"rows": m7_rows.tolist()}),
        "mv8": write_json(workdir / "mv8.json", {"rows": mv8_rows.tolist()}),
        "me8": write_json(workdir / "me8.json", {"rows": me8_rows.tolist()}),
        "w": write_json(workdir / "w.json", [float(w) for w in weights]),
        "h": write_json(workdir / "h.json", hyper),
        "p": write_json(workdir / "p.json", {"rows": transition.tolist()}),
    }
    m7, mv8, me8 = build.spd(m7_rows), build.spd(mv8_rows), build.spd(me8_rows)
    nv8, ne8 = build.normalized(g8)
    nv6, ne6 = build.normalized(g6)
    nv14, ne14 = build.normalized(g14)
    hg, hw = hypergraph_from_dict(hyper)
    ones = np.ones(hg.n)
    h_inc = hg.incidence().astype(float)
    # The CLI's default degree diagonal: the kernel-consistent D with D 1 = Dt H W H^T Dt 1.
    h_d = h_inc @ (hw * (h_inc.T @ ones))
    oriented = g8.with_orientation(orientation)
    subset_arg = ",".join(labels[i] for i in ball)

    def sub(ids):
        return ",".join(labels[i] for i in ids)

    def cmp_conformality(out, ref):
        res, sampled = ref
        return (
            floats_problems("rho", [out["rho_weak"], out["rho_strong"]], [res.rho_weak, res.rho_strong])
            + equal_problems("witness_S", out["witness_S"], list(res.witness_partition))
            + floats_problems("witness_x", out["witness_x"], res.witness_x)
            + floats_problems("sampled", out["sampled"], sampled)
        )

    def cmp_conductance(graph):
        def compare(out, ref):
            phi, witness, table = ref
            if isinstance(out, tuple):  # CSV: (header, rows)
                header, rows = out
                want = table_rows(table, graph.labels)
                if header != ["subset", "e_cut", "vol", "vol_comp", "phi"] or len(rows) != len(want):
                    return [f"table has {len(rows)} rows under {header}, expected {len(want)}"]
                return equal_problems("table subsets", [r[0] for r in rows], [r[0] for r in want]) + floats_problems(
                    "table values", [r[1:] for r in rows], [r[1:] for r in want]
                )
            problems = floats_problems("phi", out["phi"], phi) + equal_problems(
                "witness_S", out["witness_S"], [graph.labels[i] for i in witness]
            )
            if table is not None:
                got = [[";".join(r["subset"]), r["e_cut"], r["vol"], r["vol_comp"], r["phi"]] for r in out["table"]]
                want = table_rows(table, graph.labels)
                if len(got) != len(want):
                    return problems + [f"table has {len(got)} rows, expected {len(want)}"]
                problems += equal_problems("table subsets", [r[0] for r in got], [r[0] for r in want])
                problems += floats_problems("table values", [r[1:] for r in got], [r[1:] for r in want])
            return problems

        return compare

    def cmp_report(*keys, lists=()):
        def compare(out, ref):
            want = ref.to_dict()
            problems = equal_problems("passed", out["passed"], want["passed"])
            problems += floats_problems("values", [out["values"][k] for k in keys], [want["values"][k] for k in keys])
            for k in lists:
                problems += equal_problems(k, out["values"][k], want["values"][k])
            return problems

        return compare

    def cmp_neumann(out, ref):
        res, (phi_s, local) = ref
        return floats_problems(
            "lambda_s", [out["lambda_s"], out["s_local"]["values"]["phi_s"]], [res.lambda_s, phi_s]
        ) + floats_problems("values", out["values"], res.values)

    table_part = Part(
        "isoperimetry.conductance",
        lambda: conductance(g14, nv14, ne14, include_table=True),
        {"cuts": cuts(g14.n)},
    )
    return [
        Command(
            ["conformality", f["m7"], "--sampled", "200", "--seed", str(seed)],
            [("matrix", f["m7"])],
            Part("conformality.weak_conformality", lambda: weak_conformality(m7), conformality_attrs(m7)),
            cmp_conformality,
            extra=[Part("conformality.weak_conformality_sampled", lambda: weak_conformality_sampled(m7, 200, seed))],
        ),
        Command(
            ["spectrum", "--graph", f["g8"], "--mv", f["mv8"], "--me", f["me8"],
             "--orientation=" + ",".join("+" if s > 0 else "-" for s in orientation)],
            [("graph", f["g8"]), ("matrix", f["mv8"]), ("matrix", f["me8"])],
            spectrum_part(oriented, mv8, me8),
            lambda out, ref: floats_problems("eigenvalues", out["eigenvalues"], ref.eigenvalues),
        ),
        Command(
            ["recover", "--kind", "normalized", "--graph", f["g8"], "--weights", f["w"]],
            [("graph", f["g8"]), ("vector", f["w"])],
            Part("laplacian.recover_classical", lambda: recover_classical("normalized", g8, weights)),
            lambda out, ref: floats_problems("eigenvalues", out["spectrum"]["eigenvalues"], ref[2].eigenvalues),
        ),
        Command(
            ["hypergraph-to-ipl", "--hypergraph", f["h"]],
            [("hypergraph", f["h"])],
            Part("laplacian.hypergraph_to_ipl", lambda: hypergraph_to_ipl(hg, h_d, ones, hw, ones)),
            lambda out, ref: equal_problems("passed", out["report"]["passed"], ref[3].passed)
            + floats_problems("pair_weights", out["report"]["values"]["pair_weights"], ref[3].values["pair_weights"]),
        ),
        Command(
            ["digraph", "--transition", f["p"]],
            [("matrix", f["p"])],
            Part("laplacian.digraph_laplacian", lambda: digraph_laplacian(transition)),
            lambda out, ref: floats_problems("pi", out["pi"], ref[2]) + equal_problems("passed", out["report"]["passed"], ref[3].passed),
        ),
        Command(
            ["conductance", "--graph", f["g8"]],
            [("graph", f["g8"])],
            conductance_part(g8, nv8, ne8),
            cmp_conductance(g8),
        ),
        Command(
            ["verify", "cheeger", "--graph", f["g8"]],
            [("graph", f["g8"])],
            cheeger_part(g8, nv8, ne8),
            cmp_report("phi", "lambda_2", "rho_v", "rho_e", "omega", lists=("witness_S",)),
        ),
        Command(
            ["verify", "eml", "--graph", f["g8"], "--x", sub(x_set), "--y", sub(y_set)],
            [("graph", f["g8"])],
            Part(
                "isoperimetry.verify_eml",
                lambda: verify_eml(g8, nv8, ne8, x_set, y_set),
                children=[spectrum_part(g8, nv8, ne8), weak_value_part(ne8)],
            ),
            cmp_report("e_xy", "cor_xy", "lhs", "rhs_spectral", "margin"),
        ),
        Command(
            ["verify", "radius", "--graph", f["g8"], "--mv", f["mv8"], "--me", f["me8"]],
            [("graph", f["g8"]), ("matrix", f["mv8"]), ("matrix", f["me8"])],
            radius_part(g8, mv8, me8),
            cmp_report("lambda_max", "rho_v", "rho_e", "omega", "bound"),
        ),
        Command(
            ["verify", "eml", "--graph", f["g6"], "--batch"],
            [("graph", f["g6"])],
            eml_batch_part(g6, nv6, ne6),
            cmp_report("min_margin", "lambda_2", "lambda_n", lists=("worst_x", "worst_y", "pairs_checked")),
        ),
        Command(
            # --direct-only: the default epsilon sweep does not converge on about 3% of
            # random four-vertex balls (a degenerate lambda_S, or the 1e-6 step tripping
            # the positive-definiteness threshold), which would fail the operation.
            ["neumann", "--graph", f["g8"], "--subset", subset_arg, "--direct-only"],
            [("graph", f["g8"])],
            Part("isoperimetry.neumann_eigenvalue", lambda: neumann_eigenvalue(g8, ball)),
            cmp_neumann,
            extra=[Part("isoperimetry.s_local_conductance", lambda: s_local_conductance(g8, ball))],
        ),
        Command(
            ["dirichlet", "--graph", f["g8"], "--subset", subset_arg],
            [("graph", f["g8"])],
            Part("isoperimetry.dirichlet_eigenvalues", lambda: dirichlet_eigenvalues(g8, ball)),
            lambda out, ref: floats_problems("eigenvalues", out["eigenvalues"], ref),
        ),
        Command(
            ["conductance", "--graph", f["g14"], "--table"],
            [("graph", f["g14"])],
            table_part,
            cmp_conductance(g14),
        ),
        Command(
            ["conductance", "--graph", f["g14"], "--table", "--csv"],
            [("graph", f["g14"])],
            table_part,
            cmp_conductance(g14),
            csv=True,
        ),
    ]
