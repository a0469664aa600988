"""Command-line front end.

One binary with verb/subverb commands, JSON files in, a deterministic JSON
(or CSV) report on stdout. Every handler writes its report through one call
to ``_emit``: the CSV table under ``--csv``, otherwise the JSON config and
result, whose numpy values ``report.to_plain`` converts. Exit codes: 0
computed and passed, 1 computed but a verification failed, 2 input or usage
error, 3 internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from decimal import Decimal

import numpy as np

from . import __version__
from .complexes import Graph
from .conformality import weak_conformality, weak_conformality_sampled
from .errors import CAPS
from .isoperimetry import (
    DEFAULT_EPSILON_SCHEDULE,
    conductance,
    dirichlet_eigenvalues,
    neumann_eigenvalue,
    neumann_limit_experiment,
    s_local_conductance,
    verify_cheeger,
    verify_eml,
    verify_eml_batch,
)
from .jsonio import load_graph, load_hypergraph, load_matrix, load_vector
from .laplacian import (
    IplSetup,
    _classical_inner_products,
    digraph_laplacian,
    hypergraph_to_ipl,
    inner_product_laplacian,
    recover_classical,
    verify_radius_bound,
)
from .linalg import SpdMatrix
from .report import csv_table, stable_json

FORMAT_VERSION = "1"


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse takes a value that starts with - for an option, so
    ``--orientation -,+`` would fail with "expected one argument"; a sign
    list after ``--orientation`` is read as ``--orientation=-,+``. The
    subcommand parsers are of this class too."""

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for arg in sys.argv[1:] if args is None else args:
            if joined[-1:] == ["--orientation"] and re.fullmatch(r"-[-+,\d\s]*", arg):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)


def _parse_orientation(text: str, m: int):
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) != m:
        raise UsageError(f"--orientation needs {m} comma-separated signs, got {len(tokens)}")
    out = []
    for t in tokens:
        if t in ("+", "+1", "1"):
            out.append(1)
        elif t in ("-", "-1"):
            out.append(-1)
        else:
            raise UsageError(f"orientation entries must be + or -, got {t!r}")
    return tuple(out)


def _parse_subset(text: str, g: Graph):
    if text.strip() == "":
        return []
    index = {lab: i for i, lab in enumerate(g.labels)}
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok not in index:
            raise UsageError(f"unknown vertex label {tok!r}")
        out.append(index[tok])
    return out


def _schedule_value(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise UsageError(f"--schedule: {exc}") from None


def _parse_schedule(text: str):
    if ":" in text:
        lo, hi = text.split(":", 1)
        if not (0 < _schedule_value(hi) <= _schedule_value(lo) < 1):
            raise UsageError("schedule endpoints must satisfy 0 < end <= start < 1")
        # Decimal steps are exact and each decade is rounded once, so
        # 1e-1:1e-8 gives exactly DEFAULT_EPSILON_SCHEDULE.
        eps, stop = Decimal(lo), Decimal(hi)
        out = []
        while eps >= stop:
            out.append(float(eps))
            eps /= 10
        return out
    return [_schedule_value(t) for t in text.split(",")]


def _graph_with_inner_products(args) -> tuple[Graph, SpdMatrix, SpdMatrix]:
    g = load_graph(args.graph)
    if getattr(args, "orientation", None) is not None:
        g = g.with_orientation(_parse_orientation(args.orientation, g.m))
    if args.mv is not None or args.me is not None:
        if args.mv is None or args.me is None:
            raise UsageError("--mv and --me must be given together")
        if getattr(args, "kind", None) is not None:
            raise UsageError("--kind takes no --mv or --me")
        m_v, m_e = SpdMatrix(load_matrix(args.mv)), SpdMatrix(load_matrix(args.me))
    else:
        m_v, m_e = _classical_inner_products(args.kind or "normalized", g)
    return g, m_v, m_e


def _emit(args, inputs: dict, flags: dict, result: dict, rows=None) -> None:
    """Write the report: the CSV table ``rows`` = (header, body) under
    --csv, otherwise the JSON config and ``result``."""
    if getattr(args, "csv", False):
        sys.stdout.write(csv_table(*rows))
        return
    config = {
        "command": args.command if not getattr(args, "subverb", None) else f"{args.command} {args.subverb}",
        "inputs": inputs,
        "flags": flags,
        "version": __version__,
        "format_version": FORMAT_VERSION,
    }
    sys.stdout.write(stable_json({"config": config, "result": result}))


def _eigenvalue_rows(vals):
    return ["index", "eigenvalue"], enumerate(vals)


def _trace_rows(res):
    """The epsilon trace of a Neumann sweep, with each step's gap to lambda_S."""
    return ["epsilon", "lambda_2", "gap"], (
        [r["epsilon"], r["lambda_2"], abs(r["lambda_2"] - res.lambda_s)] for r in res.epsilon_trace
    )


def _cmd_conformality(args) -> int:
    if args.sampled is not None and args.seed is None:
        raise UsageError("--sampled requires --seed")
    if args.seed is not None and args.sampled is None:
        raise UsageError("--seed requires --sampled")
    m = SpdMatrix(load_matrix(args.matrix))
    out = weak_conformality(m, force=args.force).to_dict()
    flags = {"force": args.force}
    if args.sampled is not None:
        out["sampled"] = weak_conformality_sampled(m, args.sampled, args.seed)
        flags.update({"sampled": args.sampled, "seed": args.seed})
    _emit(args, {"matrix": args.matrix}, flags, out)
    return 0


def _cmd_spectrum(args) -> int:
    g, m_v, m_e = _graph_with_inner_products(args)
    setup = IplSetup.from_graph(g, m_v, m_e, target_dim=args.dim)
    if args.coboundary:
        setup = setup.with_inverted_inner_products()
    spec = inner_product_laplacian(setup)
    result = spec.to_dict()
    result["verification"] = {"min_eigenvalue": spec.eigenvalues[0], "zero_multiplicity": spec.zero_multiplicity}
    _emit(
        args,
        {"graph": args.graph, "mv": args.mv, "me": args.me},
        {"dim": args.dim, "orientation": args.orientation, "coboundary": args.coboundary},
        result,
        _eigenvalue_rows(spec.eigenvalues),
    )
    return 0


def _cmd_recover(args) -> int:
    g = load_graph(args.graph)
    weights = load_vector(args.weights) if args.weights is not None else None
    m_v, m_e, spec = recover_classical(args.kind, g, weights)
    _emit(
        args,
        {"graph": args.graph, **({"weights": args.weights} if args.weights is not None else {})},
        {"kind": args.kind},
        {"m_v": m_v.entries, "m_e": m_e.entries, "spectrum": spec.to_dict()},
        _eigenvalue_rows(spec.eigenvalues),
    )
    return 0


def _cmd_hypergraph_to_ipl(args) -> int:
    hg, w = load_hypergraph(args.hypergraph)
    pi = load_vector(args.pi) if args.pi is not None else np.ones(hg.n)
    dt = load_vector(args.dt) if args.dt is not None else np.ones(hg.n)
    h = hg.incidence().astype(float)
    if args.d is not None:
        d = load_vector(args.d)
    else:
        # Kernel-consistent default: D pi = Dt H W H^T Dt pi entrywise.
        d = (dt * (h @ (w * (h.T @ (dt * pi))))) / pi
    graph, m_v, m_e, report = hypergraph_to_ipl(hg, d, dt, w, pi)
    inputs = {"hypergraph": args.hypergraph}
    for name in ("pi", "d", "dt"):
        if getattr(args, name) is not None:
            inputs[name] = getattr(args, name)
    result = {"graph": graph.to_dict(), "m_v": m_v.entries, "m_e": m_e.entries, "report": report.to_dict()}
    _emit(args, inputs, {}, result)
    return 0 if report.passed else 1


def _cmd_digraph(args) -> int:
    lap, norm_lap, pi, report = digraph_laplacian(load_matrix(args.transition))
    result = {"l": lap, "normalized_l": norm_lap, "pi": pi, "report": report.to_dict()}
    _emit(args, {"transition": args.transition}, {}, result)
    return 0 if report.passed else 1


def _cmd_conductance(args) -> int:
    g, m_v, m_e = _graph_with_inner_products(args)
    if args.csv and not args.table:
        raise UsageError("--csv for conductance requires --table")
    phi, witness, table = conductance(g, m_v, m_e, force=args.force, include_table=args.table)
    result = {"phi": phi, "witness_S": [g.labels[i] for i in witness]}
    rows = None
    if args.table:
        # Both layouts are generators, so only the one written is built.
        result["table"] = ({**r, "subset": [g.labels[i] for i in r["subset"]]} for r in table)
        rows = ["subset", "e_cut", "vol", "vol_comp", "phi"], (
            [";".join(g.labels[i] for i in r["subset"]), r["e_cut"], r["vol"], r["vol_comp"], r["phi"]] for r in table
        )
    _emit(
        args,
        {"graph": args.graph},
        {"kind": args.kind, "mv": args.mv, "me": args.me, "table": args.table, "force": args.force},
        result,
        rows,
    )
    return 0


def _cmd_verify(args) -> int:
    g, m_v, m_e = _graph_with_inner_products(args)
    flags = {
        "kind": args.kind,
        "mv": args.mv,
        "me": args.me,
        "orientation": args.orientation,
        "force": args.force,
    }
    if args.subverb == "cheeger":
        report = verify_cheeger(g, m_v, m_e, force=args.force)
    elif args.subverb == "radius":
        report = verify_radius_bound(g, m_v, m_e, force=args.force)
    else:
        if args.batch:
            if args.x is not None or args.y is not None:
                raise UsageError("--batch takes no --x or --y")
            report = verify_eml_batch(g, m_v, m_e, force=args.force)
            flags["batch"] = True
        else:
            if args.x is None or args.y is None:
                raise UsageError("verify eml needs --x and --y (or --batch)")
            x = _parse_subset(args.x, g)
            y = _parse_subset(args.y, g)
            report = verify_eml(g, m_v, m_e, x, y, force=args.force)
            flags.update({"x": args.x, "y": args.y})
    _emit(args, {"graph": args.graph}, flags, report.to_dict())
    return 0 if report.passed else 1


def _cmd_neumann(args) -> int:
    if args.direct_only and args.schedule is not None:
        raise UsageError("--direct-only takes no --schedule")
    if args.direct_only and args.csv:
        raise UsageError("--direct-only takes no --csv")
    g = load_graph(args.graph)
    subset = _parse_subset(args.subset, g)
    schedule = _parse_schedule(args.schedule) if args.schedule is not None else list(DEFAULT_EPSILON_SCHEDULE)
    if args.direct_only:
        res = neumann_eigenvalue(g, subset)
    else:
        res = neumann_limit_experiment(g, subset, schedule)
    phi_s, local_report = s_local_conductance(g, subset, force=args.force)
    result = res.to_dict()
    result["subset_labels"] = [g.labels[i] for i in res.subset]
    result["boundary_labels"] = [g.labels[i] for i in res.boundary]
    result["s_local"] = local_report.to_dict()
    _emit(
        args,
        {"graph": args.graph},
        {"subset": args.subset, "schedule": args.schedule, "direct_only": args.direct_only, "force": args.force},
        result,
        _trace_rows(res),
    )
    if args.direct_only:
        return 0 if local_report.passed else 1
    return 0 if (res.converged and local_report.passed) else 1


def _cmd_dirichlet(args) -> int:
    g = load_graph(args.graph)
    subset = _parse_subset(args.subset, g)
    vals = dirichlet_eigenvalues(g, subset)
    result = {"eigenvalues": vals, "subset_labels": [g.labels[i] for i in sorted(set(subset))]}
    _emit(args, {"graph": args.graph}, {"subset": args.subset}, result, _eigenvalue_rows(vals))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ipl",
        description="Inner product Laplacian toolkit: conformality, spectra, and isoperimetric verification.",
    )
    parser.add_argument(
        "--version", action="version", version=f"ipl {__version__} (report format {FORMAT_VERSION})"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conformality", help="strong and weak conformality of an SPD matrix")
    p.add_argument("matrix", metavar="matrix.json", help="SPD matrix file")
    p.add_argument("--force", action="store_true", help=f"scan a block past the cap of {CAPS['partitions']} partitions")
    p.add_argument("--sampled", type=int, help="also report a sampled lower bound with this many trials")
    p.add_argument("--seed", type=int, help="seed for --sampled")
    p.set_defaults(handler=_cmd_conformality)

    p = sub.add_parser("spectrum", help="inner product Laplacian spectrum of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--mv", required=True, help="vertex inner product matrix file")
    p.add_argument("--me", required=True, help="edge inner product matrix file")
    p.add_argument("--dim", type=int, default=0, choices=(0, 1), help="chain dimension (default: 0)")
    p.add_argument("--orientation", help="per-edge signs, e.g. +,-")
    p.add_argument("--coboundary", action="store_true", help="use inverted inner products")
    p.add_argument("--csv", action="store_true", help="emit eigenvalues as CSV")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("recover", help="classical Laplacian as an inner product Laplacian")
    p.add_argument("--kind", required=True, choices=("combinatorial", "normalized", "signless", "normalized-signless"))
    p.add_argument("--graph", required=True)
    p.add_argument("--weights", help="per-edge weight vector file (default: all ones)")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_recover)

    p = sub.add_parser("hypergraph-to-ipl", help="re-express a hypergraph Laplacian on the clique expansion")
    p.add_argument("--hypergraph", required=True)
    p.add_argument("--pi", help="kernel vector file (default: all ones)")
    p.add_argument("--d", help="degree diagonal file (default: kernel-consistent)")
    p.add_argument("--dt", help="scaling diagonal file (default: all ones)")
    p.set_defaults(handler=_cmd_hypergraph_to_ipl)

    p = sub.add_parser("digraph", help="symmetrized digraph Laplacians of an ergodic chain")
    p.add_argument("--transition", required=True, help="row-stochastic matrix file")
    p.set_defaults(handler=_cmd_digraph)

    def add_inner_product_options(p):
        p.add_argument("--kind", choices=("normalized", "combinatorial"), help="classical inner products (default: normalized)")
        p.add_argument("--mv", help="vertex inner product matrix file")
        p.add_argument("--me", help="edge inner product matrix file")
        p.add_argument("--force", action="store_true", help="run past enumeration caps")

    p = sub.add_parser("conductance", help=f"exact inner product conductance over 2^(n-1) - 1 cuts (cap {CAPS['cuts']})")
    p.add_argument("--graph", required=True)
    add_inner_product_options(p)
    p.add_argument("--table", action="store_true", help=f"include every cut in the report (cap {CAPS['rows']} rows)")
    p.add_argument("--csv", action="store_true", help="emit the cut table as CSV (requires --table)")
    p.set_defaults(handler=_cmd_conductance)

    p = sub.add_parser("verify", help="check a theorem on a concrete instance")
    vsub = p.add_subparsers(dest="subverb", required=True)
    for name, extra in (("cheeger", ()), ("eml", ("--x", "--y")), ("radius", ())):
        q = vsub.add_parser(name)
        q.add_argument("--graph", required=True)
        add_inner_product_options(q)
        # The spectrum depends on the orientation when M_E has off-diagonal mass.
        q.add_argument("--orientation", help="per-edge signs, e.g. +,-")
        for flag in extra:
            q.add_argument(flag, help="comma-separated vertex labels")
        if name == "eml":
            q.add_argument("--batch", action="store_true", help="sweep all (X, Y) pairs")
        q.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("neumann", help="Neumann eigenvalue, directly and as an epsilon limit")
    p.add_argument("--graph", required=True)
    p.add_argument("--subset", required=True, help="comma-separated vertex labels")
    p.add_argument("--schedule", help="epsilon schedule, e.g. 1e-1:1e-8 or 0.5,0.1")
    p.add_argument("--direct-only", action="store_true", help="skip the epsilon sweep")
    p.add_argument("--force", action="store_true", help=f"scan the 2^|S| - 2 cuts of S past the cap of {CAPS['cuts']}")
    p.add_argument("--csv", action="store_true", help="emit the epsilon trace as CSV")
    p.set_defaults(handler=_cmd_neumann)

    p = sub.add_parser("dirichlet", help="Dirichlet eigenvalues of an induced subgraph")
    p.add_argument("--graph", required=True)
    p.add_argument("--subset", required=True, help="comma-separated vertex labels")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_dirichlet)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"error: {exc.filename}: file not found", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Anything else is a defect of ipl, not of the input: exit 3, never
        # the "verification failed" code 1 that an uncaught exception gives.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
