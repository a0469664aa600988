import argparse
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ipl.cli
from ipl import (
    EnumerationCapError,
    IplSetup,
    SpdMatrix,
    conductance,
    dirichlet_eigenvalues,
    inner_product_laplacian,
    neumann_eigenvalue,
    neumann_limit_experiment,
    normalized_inner_products,
    recover_classical,
    s_local_conductance,
    stable_json,
    verify_cheeger,
    verify_eml,
    verify_eml_batch,
    weak_conformality,
)
from ipl.cli import build_parser, main
from ipl.errors import CAPS
from ipl.isoperimetry import DEFAULT_EPSILON_SCHEDULE
from ipl.jsonio import graph_from_dict, hypergraph_from_dict, load_graph, load_matrix, matrix_from_dict, matrix_to_dict
from ipl.laplacian import CLASSICAL_KINDS
from ipl.report import csv_table

import cli_corpus
from cli_corpus import CSV_FORMS, _fuzz_cases, _fuzz_reexpression_cases, write
from conftest import cycle_graph, path_graph


@pytest.fixture
def files(tmp_path):
    return {
        "p3": write(tmp_path, "p3.json", {"vertices": ["v1", "v2", "v3"], "edges": [["v1", "v2"], ["v2", "v3"]]}),
        "p4": write(tmp_path, "p4.json", {"vertices": ["v1", "v2", "v3", "v4"], "edges": [["v1", "v2"], ["v2", "v3"], ["v3", "v4"]]}),
        "k2": write(tmp_path, "k2.json", {"vertices": ["v1", "v2"], "edges": [["v1", "v2"]]}),
        "lonely": write(tmp_path, "lonely.json", {"vertices": ["v1", "v2", "v3"], "edges": [["v1", "v2"]]}),
        "edgeless": write(tmp_path, "edgeless.json", {"vertices": ["v1", "v2"], "edges": []}),
        "id3": write(tmp_path, "id3.json", {"rows": np.eye(3).tolist()}),
        "ipj": write(tmp_path, "ipj.json", {"rows": [[2.0, 1.0], [1.0, 2.0]]}),
        "id4": write(tmp_path, "id4.json", {"rows": np.eye(4).tolist()}),
        "tri": write(tmp_path, "tri.json", {"vertices": ["1", "2", "3"], "hyperedges": [["1", "2", "3"]]}),
        "walk": write(tmp_path, "walk.json", {"rows": [[0.0, 1.0], [1.0, 0.0]]}),
    }


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_orientation_flag(files, capsys):
    code, out, _ = run_cli(
        ["spectrum", "--graph", files["p3"], "--mv", files["id3"], "--me", files["ipj"], "--orientation", "+,-"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    np.testing.assert_allclose(report["result"]["eigenvalues"], [0, 1, 9], atol=1e-9)
    assert report["config"]["command"] == "spectrum"


def test_conformality_output_schema(files, capsys):
    code, out, _ = run_cli(["conformality", files["id4"]], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["rho_strong"] == 0
    assert result["rho_weak"] == 0
    assert result["witness_S"] == [0]
    assert len(result["witness_x"]) == 4


def test_conformality_sampled_requires_seed(files, capsys):
    code, _, err = run_cli(["conformality", files["ipj"], "--sampled", "100"], capsys)
    assert code == 2
    assert "seed" in err
    code, out, _ = run_cli(["conformality", files["ipj"], "--sampled", "100", "--seed", "5"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["sampled"] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize(
    "flags, message",
    [(["--sampled", "100"], "--sampled requires --seed"), (["--seed", "5"], "--seed requires --sampled")],
    ids=["sampled-without-seed", "seed-without-sampled"],
)
def test_conformality_sampled_flags_checked_before_the_scan(files, capsys, monkeypatch, flags, message):
    def no_scan(*args, **kwargs):
        raise AssertionError("weak_conformality ran")

    monkeypatch.setattr("ipl.cli.weak_conformality", no_scan)
    code, out, err = run_cli(["conformality", files["ipj"], *flags], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "cheeger", "--graph", "p3", "--orientation", "+"], "--orientation needs 2 comma-separated signs, got 1"),
        (["verify", "cheeger", "--graph", "p3", "--orientation", "+,x"], "orientation entries must be + or -, got 'x'"),
        (["dirichlet", "--graph", "p4", "--subset", "v2,v9"], "unknown vertex label 'v9'"),
        (["neumann", "--graph", "p4", "--subset", "v2,v3", "--schedule", "1e-4:1e-1"], "schedule endpoints must satisfy 0 < end <= start < 1"),
        (["verify", "radius", "--graph", "p3", "--mv", "id3"], "--mv and --me must be given together"),
        (["verify", "eml", "--graph", "p3", "--x", "v1"], "verify eml needs --x and --y (or --batch)"),
        (["verify", "cheeger", "--graph", "p3", "--orientation="], "--orientation needs 2 comma-separated signs, got 1"),
        (["neumann", "--graph", "p4", "--subset", "v2,v3", "--schedule="], "--schedule: could not convert string to float: ''"),
        (["verify", "eml", "--batch", "--graph", "p3", "--x", "v1", "--y", "v2"], "--batch takes no --x or --y"),
        (["neumann", "--graph", "p4", "--subset", "v2,v3", "--direct-only", "--schedule", "1e-1:1e-3"], "--direct-only takes no --schedule"),
        (["neumann", "--graph", "p4", "--subset", "v2,v3", "--direct-only", "--csv"], "--direct-only takes no --csv"),
        (["verify", "cheeger", "--graph", "p3", "--kind", "combinatorial", "--mv", "id3", "--me", "ipj"], "--kind takes no --mv or --me"),
        (["conductance", "--graph", "lonely"], "vertex 'v3' is on no edge, so the normalized vertex inner product (the degrees) is singular"),
        (["recover", "--kind", "normalized", "--graph", "lonely"], "vertex 'v3' is on no edge, so the normalized vertex inner product (the degrees) is singular"),
        (["conductance", "--graph", "edgeless"], "the graph has no edges, so it has no classical edge inner product"),
    ],
    ids=[
        "orientation-count", "orientation-sign", "unknown-label", "schedule-order", "mv-without-me", "eml-without-sets",
        "orientation-empty", "schedule-empty", "batch-with-sets", "direct-only-with-schedule", "direct-only-with-csv",
        "kind-with-matrices", "vertex-on-no-edge", "recover-vertex-on-no-edge", "no-edges",
    ],
)
def test_usage_errors_exit_two_with_one_line(argv, message, files, capsys):
    code, out, err = run_cli([files.get(a, a) for a in argv], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_cheeger_exit_zero(files, capsys):
    code, out, _ = run_cli(["verify", "cheeger", "--graph", files["k2"], "--kind", "normalized"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["passed"] is True
    assert result["values"]["upper_margin"] == 0


def test_verify_cheeger_past_the_weak_cap(tmp_path, capsys):
    # 21 edges exceed the default enumeration cap of 20, but the default
    # normalized M_E is diagonal and needs no partition scan.
    labels = [f"v{i}" for i in range(12)]
    edges = [[labels[i], labels[(i + 1) % 12]] for i in range(12)]
    edges += [[labels[i], labels[i + 2]] for i in range(9)]
    graph = write(tmp_path, "g12.json", {"vertices": labels, "edges": edges})
    code, out, err = run_cli(["verify", "cheeger", "--graph", graph], capsys)
    assert code == 0, err
    assert json.loads(out)["result"]["passed"] is True


def test_verify_eml_pair_and_batch(files, capsys):
    code, out, _ = run_cli(
        ["verify", "eml", "--graph", files["k2"], "--x", "v1", "--y", "v2"], capsys
    )
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True
    code, out, _ = run_cli(["verify", "eml", "--graph", files["p3"], "--batch"], capsys)
    assert code == 0


def test_verify_radius(files, capsys):
    code, out, _ = run_cli(["verify", "radius", "--graph", files["p3"], "--kind", "combinatorial"], capsys)
    assert code == 0
    values = json.loads(out)["result"]["values"]
    assert values["bound"] == pytest.approx(4.0)


def csv_cells(out):
    """Header and rows of a CSV report, every cell but a subset read back as
    a float (17 significant digits round-trip exactly)."""
    header, *lines = out.splitlines()
    names = header.split(",")
    return names, [[c if h == "subset" else float(c) for h, c in zip(names, line.split(","))] for line in lines]


def test_recover_and_csv(files, capsys):
    code, out, _ = run_cli(["recover", "--kind", "normalized", "--graph", files["p3"], "--csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 4
    # Every CSV report carries exactly the values of its library call.
    p3, p4 = load_graph(files["p3"]), load_graph(files["p4"])
    spec = inner_product_laplacian(IplSetup.from_graph(p3, SpdMatrix(np.eye(3)), SpdMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))))
    sweep = neumann_limit_experiment(p4, [1, 2], [1e-1, 1e-2, 1e-3, 1e-4])
    for argv, header, rows in (
        (["recover", "--kind", "normalized", "--graph", files["p3"]], ["index", "eigenvalue"],
         list(enumerate(recover_classical("normalized", p3)[2].eigenvalues))),
        (["spectrum", "--graph", files["p3"], "--mv", files["id3"], "--me", files["ipj"]], ["index", "eigenvalue"],
         list(enumerate(spec.eigenvalues))),
        (["dirichlet", "--graph", files["p4"], "--subset", "v2,v3"], ["index", "eigenvalue"],
         list(enumerate(dirichlet_eigenvalues(p4, [1, 2])))),
        (["neumann", "--graph", files["p4"], "--subset", "v2,v3", "--schedule", "1e-1:1e-4"], ["epsilon", "lambda_2", "gap"],
         [(r["epsilon"], r["lambda_2"], abs(r["lambda_2"] - sweep.lambda_s)) for r in sweep.epsilon_trace]),
    ):
        code, out, err = run_cli(argv + ["--csv"], capsys)
        assert code == 0, err
        assert csv_cells(out) == (header, [list(r) for r in rows]), argv
    assert len(sweep.epsilon_trace) == 4


def test_hypergraph_to_ipl_defaults(files, capsys):
    code, out, _ = run_cli(["hypergraph-to-ipl", "--hypergraph", files["tri"]], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["report"]["passed"] is True
    assert result["graph"]["edges"] == [["1", "2"], ["1", "3"], ["2", "3"]]


TRIANGLE_AND_PAIR = {"vertices": ["a", "b", "c"], "hyperedges": [["a", "b", "c"], ["a", "b"]]}


@pytest.mark.parametrize(
    "hypergraph, vectors, message",
    [
        (TRIANGLE_AND_PAIR, {"pi": [1.0, 0.0, 1.0]}, "pi must be strictly positive"),
        (TRIANGLE_AND_PAIR, {"pi": [1.0, -1.0, 1.0]}, "pi must be strictly positive"),
        ({**TRIANGLE_AND_PAIR, "weights": [-1.0, 1.0]}, {}, "W must be strictly positive"),
        (TRIANGLE_AND_PAIR, {"dt": [1.0, 1.0]}, "D-tilde must be a vector of length 3"),
        ({"vertices": ["a", "a", "b"], "hyperedges": [["a", "b"]]}, {}, "vertex labels must be distinct: 'a' appears twice"),
        ({"vertices": ["a", "b"], "hyperedges": []}, {}, "a hypergraph needs at least one hyperedge"),
        ({"vertices": ["a", "b", "c"], "hyperedges": [["a", "a", "b"]]}, {}, "hyperedge ['a', 'a', 'b'] must name distinct vertices in index order"),
        ({"vertices": ["a", "b", "c"], "hyperedges": [["a", "b"]]}, {}, "the kernel-consistent D is not positive at vertex 'c'"),
    ],
    ids=[
        "pi-zero", "pi-negative", "weight-negative", "dt-length", "repeated-label", "no-hyperedges", "repeated-in-hyperedge",
        "vertex-on-no-hyperedge",
    ],
)
def test_hypergraph_to_ipl_input_errors(hypergraph, vectors, message, tmp_path, capsys):
    # Each input is checked before the default D is derived from it, and the
    # one line names the input at fault: no numpy warning or traceback, and
    # no complaint about a D the user did not give.
    argv = ["hypergraph-to-ipl", "--hypergraph", write(tmp_path, "h.json", hypergraph)]
    for name, values in vectors.items():
        argv += [f"--{name}", write(tmp_path, f"{name}.json", values)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv, capsys)
    assert (code, out, caught) == (2, "", [])
    assert err == f"error: {message}\n"


def test_digraph_command(files, tmp_path, capsys):
    # Both chains have period 2; the second never settles under power iteration.
    periodic = write(tmp_path, "periodic.json", {"rows": [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]]})
    for path, pi in ((files["walk"], [0.5, 0.5]), (periodic, [0.25, 0.5, 0.25])):
        code, out, _ = run_cli(["digraph", "--transition", path], capsys)
        assert code == 0
        np.testing.assert_allclose(json.loads(out)["result"]["pi"], pi, rtol=0, atol=1e-15)


def test_reducible_chain_exit_two(tmp_path, capsys):
    # Two closed 2-cycles: every mixture of their stationary vectors is
    # stationary, so no single pi exists to report.
    two_cycles = write(
        tmp_path,
        "two_cycles.json",
        {"rows": [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]]},
    )
    code, out, err = run_cli(["digraph", "--transition", two_cycles], capsys)
    assert code == 2
    assert out == ""
    assert "closed classes {v1, v2}, {v3, v4}" in err
    assert "Traceback" not in err


def test_internal_error_exit_three(files, monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(ipl.cli, "_cmd_conductance", broken)
    code, out, err = run_cli(["conductance", "--graph", files["p3"]], capsys)
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_conductance_command(files, capsys):
    code, out, _ = run_cli(["conductance", "--graph", files["p3"]], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["phi"] == 1
    assert result["witness_S"] == ["v1"]
    # --table carries the library's table, relabelled, in JSON and in CSV.
    g = load_graph(files["p4"])
    m_v, m_e = SpdMatrix(np.diag([1.5, 0.7, 2.25, 1.1])), SpdMatrix(np.diag([0.3, 1.7, 0.9]))
    mv = write(pathlib.Path(files["p4"]).parent, "mv4.json", {"rows": m_v.entries.tolist()})
    me = write(pathlib.Path(files["p4"]).parent, "me3.json", {"rows": m_e.entries.tolist()})
    phi, _, table = conductance(g, m_v, m_e, include_table=True)
    argv = ["conductance", "--graph", files["p4"], "--mv", mv, "--me", me, "--table"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["phi"] == phi
    assert result["table"] == [{**r, "subset": [g.labels[i] for i in r["subset"]]} for r in table]
    code, out, _ = run_cli(argv + ["--csv"], capsys)
    assert code == 0
    assert csv_cells(out) == (
        ["subset", "e_cut", "vol", "vol_comp", "phi"],
        [[";".join(g.labels[i] for i in r["subset"]), r["e_cut"], r["vol"], r["vol_comp"], r["phi"]] for r in table],
    )
    assert len(table) == 7


def test_conductance_csv_needs_table_before_the_scan(files, capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("conductance ran")

    monkeypatch.setattr("ipl.cli.conductance", no_scan)
    code, out, err = run_cli(["conductance", "--graph", files["p3"], "--csv"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --csv for conductance requires --table\n"


def test_neumann_and_dirichlet(files, capsys):
    code, out, _ = run_cli(
        ["neumann", "--graph", files["p4"], "--subset", "v2,v3", "--schedule", "1e-1:1e-6"], capsys
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["converged"] is True
    assert result["lambda_s"] == pytest.approx(1.0, abs=1e-9)
    assert result["s_local"]["passed"] is True

    code, out, _ = run_cli(["dirichlet", "--graph", files["p4"], "--subset", "v2,v3"], capsys)
    assert code == 0
    np.testing.assert_allclose(json.loads(out)["result"]["eigenvalues"], [0.5, 1.5], atol=1e-9)


def test_schedule_range_is_decimal_exact(files, capsys):
    # Each decade is rounded once from its decimal value, so the README's
    # range reproduces the default schedule bit for bit.
    assert ipl.cli._parse_schedule("1e-1:1e-8") == list(DEFAULT_EPSILON_SCHEDULE)
    runs = [
        run_cli(["neumann", "--graph", files["p4"], "--subset", "v2,v3", *extra], capsys)
        for extra in ([], ["--schedule", "1e-1:1e-8"])
    ]
    assert [code for code, _, _ in runs] == [0, 0]
    assert json.loads(runs[0][1])["result"] == json.loads(runs[1][1])["result"]


def test_neumann_failed_convergence_exits_one(files, capsys):
    code, out, _ = run_cli(
        ["neumann", "--graph", files["p4"], "--subset", "v2,v3", "--schedule", "1e-1"], capsys
    )
    assert code == 1
    assert json.loads(out)["result"]["converged"] is False


def test_neumann_mass_underflow_is_a_failure_not_a_warning(files, capsys):
    # With S = {v1, v2}, every edge of v4 avoids S, so its mass eps^2 deg
    # is 0 at eps = 1e-200: the sweep stops there, as for a kernel failure.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            ["neumann", "--graph", files["p4"], "--subset", "v1,v2", "--schedule", "1e-200"], capsys
        )
    assert (code, err, caught) == (1, "", [])
    result = json.loads(out)["result"]
    assert result["failures"] == ["epsilon=1e-200: a vertex mass underflows to 0"]
    assert result["epsilon_trace"] == [] and result["converged"] is False


def test_neumann_kernel_failure_stops_the_sweep(tmp_path, capsys):
    # On the 8-path with S = {v1, v2}, the largest eigenvalue grows like
    # 1/eps^2: at eps = 1e-9, lambda_2 = 1.5 falls under ZERO_RTOL times it
    # and the kernel counts two. The sweep stops there, keeping the steps
    # before it.
    failure = "epsilon=1e-09: kernel dimension 2 != 1"
    # A sweep that stopped early has not converged, whatever its last
    # recorded step met, so the command exits 1 either way.
    res = neumann_limit_experiment(path_graph(8), [0, 1], (1e-1, 1e-5, 1e-9))
    assert res.failures == [failure]
    assert [r["epsilon"] for r in res.epsilon_trace] == [1e-1, 1e-5]
    assert res.converged is False
    p8 = write(tmp_path, "p8.json", path_graph(8).to_dict())
    code, out, err = run_cli(["neumann", "--graph", p8, "--subset", "v1,v2", "--schedule", "1e-9"], capsys)
    assert (code, err) == (1, "")
    result = json.loads(out)["result"]
    assert result["failures"] == [failure]
    assert result["epsilon_trace"] == [] and result["converged"] is False
    code, out, err = run_cli(["neumann", "--graph", p8, "--subset", "v1,v2", "--schedule", "1e-1,1e-5,1e-9"], capsys)
    assert (code, err) == (1, "")
    result = json.loads(out)["result"]
    assert result["failures"] == [failure] and len(result["epsilon_trace"]) == 2
    assert result["converged"] is False


@pytest.mark.parametrize("schedule", ["abc", "1e-1:abc"])
def test_neumann_schedule_not_a_number_names_the_flag(schedule, files, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            ["neumann", "--graph", files["p4"], "--subset", "v1,v2", "--schedule", schedule], capsys
        )
    assert (code, out, caught) == (2, "", [])
    assert err == "error: --schedule: could not convert string to float: 'abc'\n"


def test_malformed_json_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": [[1,\n')
    code, _, err = run_cli(["conformality", str(bad)], capsys)
    assert code == 2
    assert "line" in err and "column" in err


def test_overflowing_spectrum_exits_two_naming_the_overflow(tmp_path, capsys):
    # Finite entries, positive definite, but lambda_max is past the largest
    # double: the refusal names the overflow, not positive definiteness.
    path = write(tmp_path, "overflow.json", {"rows": [[1e308, 1e308], [1e308, 1.5e308]]})
    code, out, err = run_cli(["conformality", path], capsys)
    assert (code, out) == (2, "")
    assert err == "error: matrix spectrum overflows: max |lambda| = inf; rescale the matrix down\n"


def test_missing_file_exit_two(capsys):
    code, _, err = run_cli(["conformality", "/nonexistent/m.json"], capsys)
    assert code == 2
    assert "not found" in err


@pytest.mark.parametrize("case", ["directory", "empty path", "malformed --me", "not UTF-8 --mv"])
def test_unreadable_input_exit_two_names_the_file(case, files, tmp_path, capsys):
    # Every input file that cannot be read or parsed is an input error with
    # one message naming it, so a command reading several files says which.
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"rows": [[1,\n')
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"rows": [[1.0]], "note": "\xe9"}'.encode("latin-1"))
    # The empty path is named as '', so the message has no bare colon.
    path, argv = {
        "directory": (str(tmp_path), ["conformality", str(tmp_path)]),
        "empty path": ("''", ["conformality", ""]),
        "malformed --me": (str(malformed), ["spectrum", "--graph", files["p3"], "--mv", files["id3"], "--me", str(malformed)]),
        "not UTF-8 --mv": (str(latin1), ["verify", "cheeger", "--graph", files["p3"], "--mv", str(latin1), "--me", files["ipj"]]),
    }[case]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: "), err
    if case == "malformed --me":
        assert "line 2, column 1" in err


def test_empty_inner_product_paths_are_read(files, capsys):
    # An empty --mv/--me, --weights, --pi, --d or --dt is a path like any
    # other: it is read and refused, not taken for an absent flag that
    # silently selects the default.
    for argv in (
        *([*command, "--graph", files["p3"], "--mv", "", "--me", ""] for command in (["conductance"], ["verify", "radius"], ["spectrum"])),
        ["recover", "--kind", "combinatorial", "--graph", files["p3"], "--weights="],
        *(["hypergraph-to-ipl", "--hypergraph", files["tri"], f"--{name}="] for name in ("pi", "d", "dt")),
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert err.count("\n") == 1 and err.startswith("error: '': cannot read: "), argv


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_matrix_exit_two(tmp_path, files, capsys, bad):
    # Every loaded array is refused where its file is read, before any
    # computation runs on it.
    matrix = tmp_path / "nonfinite.json"
    matrix.write_text(f'{{"rows": [[1.0, 0.0], [0.0, {bad}]]}}')
    transition = tmp_path / "transition.json"
    transition.write_text(f'{{"rows": [[0.5, 0.5], [{bad}, 0.5]]}}')
    weights = tmp_path / "weights.json"
    weights.write_text(f"[1.0, {bad}]")
    hypergraph = tmp_path / "hypergraph.json"
    hypergraph.write_text(f'{{"vertices": ["1", "2", "3"], "hyperedges": [["1", "2"], ["2", "3"]], "weights": [1.0, {bad}]}}')
    for path, where, argv in (
        (matrix, "row 1, column 1", ["conformality", str(matrix)]),
        (transition, "row 1, column 0", ["digraph", "--transition", str(transition)]),
        (weights, "index 1", ["recover", "--kind", "combinatorial", "--graph", files["p3"], "--weights", str(weights)]),
        (hypergraph, "index 1", ["hypergraph-to-ipl", "--hypergraph", str(hypergraph)]),
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}: ") and "non-finite" in err
        assert err.rstrip().endswith(f"at {where}")


def test_cap_exceeded_exit_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(CAPS, "partitions", 2**3 - 1)  # a block of 4
    big = SpdMatrix(np.eye(8) + 0.05 * np.ones((8, 8)))
    path = write(tmp_path, "big.json", matrix_to_dict(big.entries))
    code, _, err = run_cli(["conformality", path], capsys)
    assert code == 2
    assert "cap" in err
    code, out, _ = run_cli(["conformality", path, "--force"], capsys)
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--graph", "{p3}", "--mv", "{id3}", "--me", "{ipj}"],
        ["verify", "cheeger", "--graph", "{p3}"],
        ["verify", "eml", "--graph", "{p3}", "--batch"],
        ["verify", "radius", "--graph", "{p3}"],
    ],
    ids=["spectrum", "cheeger", "eml", "radius"],
)
def test_orientation_value_may_start_with_minus(files, capsys, argv):
    # "--orientation -,+" reads as "--orientation=-,+", byte for byte.
    argv = [a.format(**files) for a in argv]
    spaced = run_cli(argv + ["--orientation", "-,+"], capsys)
    joined = run_cli(argv + ["--orientation=-,+"], capsys)
    assert spaced == joined
    assert spaced[0] in (0, 1) and '"orientation":"-,+"' in spaced[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["conformality", "{id4}", "--weak-cap", "4"],
        ["conductance", "--graph", "{p3}", "--weak-cap", "4"],
        ["verify", "cheeger", "--graph", "{p3}", "--weak-cap", "4"],
        ["conductance", "--graph", "{p3}", "--orientation", "+,-"],
        ["conformality", "--matrix", "{id4}"],
    ],
    ids=["conformality-weak-cap", "conductance-weak-cap", "cheeger-weak-cap", "conductance-orientation", "conformality-matrix"],
)
def test_removed_flags_exit_two(files, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([a.format(**files) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    assert "Traceback" not in err


def test_reports_have_no_weak_cap_flag(files, capsys):
    for argv in (
        ["conformality", files["ipj"]],
        ["conductance", "--graph", files["p3"]],
        ["verify", "cheeger", "--graph", files["p3"]],
        ["verify", "eml", "--graph", files["p3"], "--x", "v1", "--y", "v2,v3"],
        ["verify", "eml", "--graph", files["p3"], "--batch"],
        ["verify", "radius", "--graph", files["p3"]],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        assert "weak_cap" not in json.loads(out)["config"]["flags"]


def test_unknown_flag_rejected(files):
    with pytest.raises(SystemExit) as exc:
        main(["conformality", files["id4"], "--bogus"])
    assert exc.value.code == 2


def test_conformality_cli_matches_library(files, capsys):
    gadget = SpdMatrix(np.outer(np.sqrt([1, 2, 3, 4, 5, 6, 7]), np.sqrt([1, 2, 3, 4, 5, 6, 7])) + np.eye(7))
    path = write_matrix(files, gadget)
    code, out, _ = run_cli(["conformality", path], capsys)
    assert code == 0
    assert json.loads(out)["result"] == weak_conformality(gadget).to_dict()


def write_matrix(files, m):
    base = pathlib.Path(files["id4"]).parent
    path = base / "gadget7.json"
    path.write_text(json.dumps(matrix_to_dict(m.entries)))
    return str(path)


def test_cli_byte_determinism_subprocess(files):
    commands = [
        ["spectrum", "--graph", files["p3"], "--mv", files["id3"], "--me", files["ipj"], "--orientation", "+,-"],
        ["conformality", files["ipj"]],
        ["verify", "cheeger", "--graph", files["k2"], "--kind", "normalized"],
    ]
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "ipl", *argv], capture_output=True, check=False
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].returncode == runs[1].returncode


def test_eml_batch_n10_dense_subprocess(tmp_path):
    # The largest sweep the cap allows, with every edge coupled in M_E.
    rng = np.random.default_rng(7)
    g = path_graph(10)
    edges = [[g.labels[a], g.labels[b]] for a, b in g.edges] + [["v1", "v5"], ["v3", "v8"], ["v2", "v10"]]
    graph = write(tmp_path, "g10.json", {"vertices": list(g.labels), "edges": edges})
    m = len(edges)
    q = np.linalg.qr(rng.standard_normal((m, m)))[0]
    m_e = write(tmp_path, "me.json", matrix_to_dict((q * rng.uniform(0.5, 3.0, m)) @ q.T))
    m_v = write(tmp_path, "mv.json", matrix_to_dict(np.diag(rng.uniform(0.5, 2.0, 10))))
    argv = ["verify", "eml", "--graph", graph, "--mv", m_v, "--me", m_e, "--batch"]
    runs = [subprocess.run([sys.executable, "-m", "ipl", *argv], capture_output=True, check=False) for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["result"]["values"]["pairs_checked"] == 4**10


def test_conductance_same_bytes_for_any_blas_thread_count(tmp_path):
    # A dense, non-integer n = 16 input, so the scan splits its vertices and
    # its tile GEMMs are large enough for BLAS to thread them.
    rng = np.random.default_rng(16)
    labels = [f"v{i + 1}" for i in range(16)]
    edges = {(i, i + 1) for i in range(15)}
    while len(edges) < 36:
        a, b = sorted(rng.choice(16, 2, replace=False).tolist())
        edges.add((a, b))
    graph = write(tmp_path, "g16.json", {"vertices": labels, "edges": [[labels[a], labels[b]] for a, b in sorted(edges)]})

    def spd(dim):
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        return matrix_to_dict((q * rng.uniform(0.5, 3.0, dim)) @ q.T)

    m_v, m_e = write(tmp_path, "mv.json", spd(16)), write(tmp_path, "me.json", spd(36))
    argv = [sys.executable, "-m", "ipl", "conductance", "--graph", graph, "--mv", m_v, "--me", m_e]
    runs = [
        subprocess.run(argv, capture_output=True, check=False, env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        for threads in ("1", "2")
    ]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout


def test_cli_corpus_records_the_same_bytes_twice(tmp_path, capsys):
    paths = [str(tmp_path / f"run{i}.json") for i in range(2)]
    assert [cli_corpus.main(["record", p]) for p in paths] == [0, 0]
    assert cli_corpus.main(["compare", *paths]) == 0
    assert capsys.readouterr().out == f"0 of {len(cli_corpus.CASES)} cases differ\n"
    runs = json.loads(pathlib.Path(paths[0]).read_text())
    assert len(runs) == len(cli_corpus.CASES)
    assert {run["exit"] for run in runs.values()} == {0, 1, 2}
    assert not any(str(tmp_path) in run["stdout"] + run["stderr"] for run in runs.values())
    # Every flag of every command is in some case.
    commands = {}
    for case in cli_corpus.CASES[1:]:
        name = tuple(case[:2]) if case[0] == "verify" else (case[0],)
        commands.setdefault(name, set()).update(a for a in case if a.startswith("--"))
    for name, used in commands.items():
        parser = build_parser()
        for word in name:
            (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            parser = sub.choices[word]
        assert {f for a in parser._actions for f in a.option_strings} - {"-h", "--help"} <= used, name
    assert len(commands) == 11


def test_cli_fuzz_recording_masks_paths_and_reads_as_a_corpus():
    # One seed: 16 graphs of nine cases, five of them with a --csv form, and
    # 16 triples of re-expression cases, each run keyed by its argv with the
    # inputs under the seed's directory.
    runs = cli_corpus.fuzz([39])
    assert len(runs) == 16 * (9 + 5) + 16 * 3
    assert all(set(run) == {"exit", "stderr"} and run["exit"] in (0, 1, 2) for run in runs.values())
    assert all(a.startswith("39/") for case in runs for a in case.split() if a.endswith(".json"))
    assert sum(case.endswith("--csv") for case in runs) == 16 * 5
    assert cli_corpus.compare(runs, runs) == []


def test_stable_json_formatting(rng):
    text = stable_json({"b": 1 / 3, "a": [True, None, "x"], "c": 2})
    assert text == '{"a":[true,null,"x"],"b":0.33333333333333331,"c":2}\n'
    with pytest.raises(ValueError):
        stable_json({"bad": float("nan")})
    # An array renders as its tolist() does, for floats, ints and bools.
    assert stable_json(np.array([[0.5, -0.0], [1e300, 2.0]])) == "[[0.5,-0],[1.0000000000000001e+300,2]]\n"
    assert stable_json(np.array([[3, -1]], dtype=np.int64)) == "[[3,-1]]\n"
    assert stable_json(np.array([True, False])) == "[true,false]\n"
    for a in (rng.standard_normal((3, 4)), rng.integers(-9, 9, (2, 3, 2)), rng.random(5) < 0.5, np.zeros((2, 0))):
        assert stable_json({"a": a}) == stable_json({"a": a.tolist()})
    with pytest.raises(ValueError, match=r"^non-finite value nan cannot be serialized$"):
        stable_json({"a": np.array([1.0, np.nan])})
    # Disjoint X and Y: the intersection terms are +0.0, sign bit included.
    g = cycle_graph(5)
    ring = np.eye(5) - 0.2 * (np.roll(np.eye(5), 1, 1) + np.roll(np.eye(5), -1, 1))
    for m_v, m_e in (normalized_inner_products(g), (SpdMatrix.identity(5), SpdMatrix(ring))):
        values = verify_eml(g, m_v, m_e, [0, 1], [2, 3]).values
        for key in ("e_intersection", "pointwise_mass"):
            assert values[key] == 0.0 and math.copysign(1.0, values[key]) == 1.0
            assert f'"{key}":0,' in stable_json(values)


def test_graph_round_trip_via_jsonio():
    g = path_graph(3).with_orientation((1, -1))
    again = graph_from_dict(g.to_dict())
    assert again == g
    m = matrix_from_dict(matrix_to_dict(np.array([[1.0, 0.5], [0.5, 2.0]])))
    np.testing.assert_array_equal(m, [[1.0, 0.5], [0.5, 2.0]])
    hg, w = hypergraph_from_dict(
        {"vertices": ["1", "2", "3"], "hyperedges": [["2", "3"], ["1", "2", "3"]], "weights": [2.0, 1.0]}
    )
    assert hg.hyperedges == ((0, 1, 2), (1, 2))
    np.testing.assert_allclose(w, [1.0, 2.0])


def test_hypergraph_round_trip_via_jsonio():
    hg, _ = hypergraph_from_dict({"vertices": ["a", "b", "c", "d"], "hyperedges": [["c", "d"], ["a", "b", "c"]]})
    d = hg.to_dict()
    assert d == {"vertices": ["a", "b", "c", "d"], "hyperedges": [["a", "b", "c"], ["c", "d"]]}
    again, w = hypergraph_from_dict(json.loads(json.dumps(d)))
    assert again == hg
    np.testing.assert_array_equal(w, [1.0, 1.0])


def test_help_for_every_subcommand(capsys):
    for argv in (
        ["--help"],
        ["conformality", "--help"],
        ["spectrum", "--help"],
        ["recover", "--help"],
        ["hypergraph-to-ipl", "--help"],
        ["digraph", "--help"],
        ["conductance", "--help"],
        ["verify", "cheeger", "--help"],
        ["verify", "eml", "--help"],
        ["verify", "radius", "--help"],
        ["neumann", "--help"],
        ["dirichlet", "--help"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out


def test_jsonio_rejects_malformed_structures(tmp_path):
    from ipl.jsonio import complex_from_dict, vector_from_dict

    with pytest.raises(ValueError):
        matrix_from_dict({"not_rows": []})
    with pytest.raises(ValueError):
        matrix_from_dict({"rows": [[1, 2], [3]]})
    with pytest.raises(ValueError):
        vector_from_dict({"nope": []})
    with pytest.raises(ValueError):
        vector_from_dict([[1, 2]])
    with pytest.raises(ValueError):
        graph_from_dict({"vertices": ["a"]})
    with pytest.raises(ValueError):
        complex_from_dict({"faces": []})
    with pytest.raises(ValueError):
        hypergraph_from_dict({"vertices": ["a"], "hyperedges": [["a"]], "weights": [1, 2]})


def test_graph_json_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "badgraph.json"
    bad.write_text(json.dumps({"vertices": ["a", "b"]}))
    code, _, err = run_cli(["conductance", "--graph", str(bad)], capsys)
    assert code == 2
    assert "edges" in err


def assert_one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_unknown_vertex_label_exit_two(tmp_path, capsys):
    graph = write(tmp_path, "g.json", {"vertices": ["a", "b"], "edges": [["a", "zz"]]})
    hyper = write(tmp_path, "h.json", {"vertices": ["a", "b"], "hyperedges": [["a", "b", "qq"]]})
    for argv, label in (
        (["conductance", "--graph", graph], "'zz'"),
        (["hypergraph-to-ipl", "--hypergraph", hyper], "'qq'"),
    ):
        code, out, err = run_cli(argv, capsys)
        assert_one_error_line(code, out, err)
        assert label in err


@pytest.mark.parametrize(
    "graph, message",
    [
        ({"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]], "orientation": [1]}, "orientation has 1 entries for 2 edges"),
        ({"vertices": ["a", "b"], "edges": [["a", "b"]], "orientation": [1, 1]}, "orientation has 2 entries for 1 edges"),
        ({"vertices": 5, "edges": []}, '"vertices" must be a list'),
        ({"vertices": ["a", "b"], "edges": [5]}, "edge 5 is not a pair"),
        ({"vertices": ["a", "b", "c"], "edges": [["a", "b", "c"]]}, 'edge ["a", "b", "c"] is not a pair'),
        ({"vertices": ["a", "b"], "edges": {"a": "b"}}, 'graph JSON "edges" must be a list of vertex pairs'),
        ({"vertices": ["a", "b"], "edges": [["a", "b"]], "orientation": 1}, 'graph JSON "orientation" must be a list of signs'),
        ({"vertices": ["a", "a", "b"], "edges": [["a", "b"]]}, "vertex labels must be distinct: 'a' appears twice"),
    ],
    ids=[
        "short-orientation", "long-orientation", "vertices-not-list", "edge-not-list", "edge-triple", "edges-not-list",
        "orientation-not-list", "repeated-label",
    ],
)
def test_malformed_graph_exit_two(tmp_path, capsys, graph, message):
    path = write(tmp_path, "g.json", graph)
    code, out, err = run_cli(["conductance", "--graph", path], capsys)
    assert_one_error_line(code, out, err)
    assert message in err


@pytest.mark.parametrize(
    "hypergraph, message",
    [
        ({"vertices": ["a", "b"], "hyperedges": [["a", "b"]], "weights": 5}, '"weights" must be a list'),
        ({"vertices": ["a", "b"], "hyperedges": 5}, '"hyperedges" must be a list'),
        ({"vertices": 5, "hyperedges": [["a", "b"]]}, '"vertices" must be a list'),
        ({"vertices": ["a", "b"], "hyperedges": [["a", "b"], 5]}, "hyperedge 5 is not a list"),
        ({"vertices": ["a", "b"], "edges": [["a", "b"]]}, 'hypergraph JSON must contain "vertices" and "hyperedges"'),
    ],
    ids=["weights-not-list", "hyperedges-not-list", "vertices-not-list", "hyperedge-not-list", "no-hyperedges-key"],
)
def test_malformed_hypergraph_exit_two(tmp_path, capsys, hypergraph, message):
    path = write(tmp_path, "h.json", hypergraph)
    code, out, err = run_cli(["hypergraph-to-ipl", "--hypergraph", path], capsys)
    assert_one_error_line(code, out, err)
    assert message in err


@pytest.mark.parametrize(
    "name, content, argv, key",
    [
        ("m.json", {"rows": [[1, [2]], [3, 4]]}, ["conformality", "{}"], 'matrix "rows"'),
        ("v.json", [1, [2], 3], ["recover", "--kind", "combinatorial", "--graph", "{p3}", "--weights", "{}"], "vector"),
        ("h.json", {"vertices": ["1", "2"], "hyperedges": [["1"], ["2"]], "weights": [1, [2]]}, ["hypergraph-to-ipl", "--hypergraph", "{}"], 'hypergraph "weights"'),
        ("h.json", {"vertices": ["1", "2"], "hyperedges": [["1"], ["2"]], "weights": [1, "x"]}, ["hypergraph-to-ipl", "--hypergraph", "{}"], 'hypergraph "weights"'),
    ],
    ids=["ragged-matrix", "ragged-vector", "ragged-weights", "string-weight"],
)
def test_malformed_numeric_array_names_file_and_key(tmp_path, files, capsys, name, content, argv, key):
    path = write(tmp_path, name, content)
    code, out, err = run_cli([a.format(path, p3=files["p3"]) for a in argv], capsys)
    assert_one_error_line(code, out, err)
    assert err.startswith(f"error: {path}: {key} must be a list")
    assert not any(word in err for word in ("sequence", "inhomogeneous", "convert"))


def test_verify_cheeger_block_me_past_the_weak_cap(tmp_path, capsys):
    # 21 edges exceed the default enumeration cap of 20; the block-diagonal
    # M_E has blocks of at most 5 edges, and the cap applies to the largest.
    labels = [f"v{i}" for i in range(12)]
    edges = [[labels[i], labels[(i + 1) % 12]] for i in range(12)]
    edges += [[labels[i], labels[i + 2]] for i in range(9)]
    graph = write(tmp_path, "g12.json", {"vertices": labels, "edges": edges})
    rng = np.random.default_rng(5)
    m_e = np.zeros((21, 21))
    for lo, hi in ((0, 5), (5, 10), (10, 14), (14, 18), (18, 21)):
        g = rng.standard_normal((hi - lo, hi - lo))
        m_e[lo:hi, lo:hi] = g @ g.T + (hi - lo) * np.eye(hi - lo)
    mv = write(tmp_path, "mv.json", matrix_to_dict(np.eye(12)))
    me = write(tmp_path, "me.json", matrix_to_dict(m_e))
    code, out, err = run_cli(["verify", "cheeger", "--graph", graph, "--mv", mv, "--me", me], capsys)
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["passed"] is True
    assert result["values"]["rho_e"] > 0


def test_inner_product_dimension_mismatch_exit_two(files, capsys):
    # Every command that scans cuts or forms the graph's Laplacian checks
    # the inner products against the graph first, with one message.
    commands = (
        ["spectrum"], ["conductance"], ["verify", "cheeger"], ["verify", "radius"],
        ["verify", "eml", "--x", "v1", "--y", "v2"], ["verify", "eml", "--batch"],
    )
    for command, (mv, me) in itertools.product(commands, (("ipj", "ipj"), ("id3", "id3"))):
        argv = command + ["--graph", files["p3"], "--mv", files[mv], "--me", files[me]]
        code, out, err = run_cli(argv, capsys)
        assert_one_error_line(code, out, err)
        k = len(load_matrix(files[mv]))
        assert err == (
            f"error: inner product dimensions must match vertex and edge counts: M_V is {k}x{k} "
            f"and M_E is {k}x{k}, the graph has 3 vertices and 2 edges\n"
        )


def test_verify_cheeger_orientation_matches_library(files, capsys):
    argv = ["verify", "cheeger", "--graph", files["p3"], "--mv", files["id3"], "--me", files["ipj"]]
    code, out, err = run_cli(argv + ["--orientation", "+,-"], capsys)
    assert code == 0, err
    report = json.loads(out)
    g = load_graph(files["p3"]).with_orientation((1, -1))
    m_v, m_e = SpdMatrix(load_matrix(files["id3"])), SpdMatrix(load_matrix(files["ipj"]))
    assert report["result"] == verify_cheeger(g, m_v, m_e).to_dict()
    assert report["config"]["flags"]["orientation"] == "+,-"


def test_spectrum_coboundary_matches_library(files, capsys):
    argv = ["spectrum", "--graph", files["p3"], "--mv", files["id3"], "--me", files["ipj"], "--coboundary"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    m_v, m_e = SpdMatrix(load_matrix(files["id3"])), SpdMatrix(load_matrix(files["ipj"]))
    spec = inner_product_laplacian(IplSetup.from_graph(load_graph(files["p3"]), m_v, m_e).with_inverted_inner_products())
    result = json.loads(out)["result"]
    assert result.pop("verification") == {
        "min_eigenvalue": float(spec.eigenvalues[0]),
        "zero_multiplicity": spec.zero_multiplicity,
    }
    assert result == spec.to_dict()


def test_neumann_direct_only_matches_library(files, capsys):
    code, out, _ = run_cli(["neumann", "--graph", files["p4"], "--subset", "v2,v3", "--direct-only"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    g = load_graph(files["p4"])
    assert result.pop("s_local") == s_local_conductance(g, [1, 2])[1].to_dict()
    assert result.pop("subset_labels") == ["v2", "v3"]
    assert result.pop("boundary_labels") == ["v1", "v4"]
    assert result == neumann_eigenvalue(g, [1, 2]).to_dict()
    assert result["epsilon_trace"] == []


@pytest.mark.parametrize("extra", [[], ["--direct-only"]], ids=["sweep", "direct-only"])
def test_neumann_solves_the_eigenproblem_once(extra, files, capsys, monkeypatch):
    # The S-local bound reuses the sweep's or the direct result's lambda_S:
    # one neumann_eigenvalue per call, and the report of the library calls.
    calls, solve = [], ipl.isoperimetry.neumann_eigenvalue

    def counting(g, subset):
        calls.append(list(subset))
        return solve(g, subset)

    monkeypatch.setattr(ipl.isoperimetry, "neumann_eigenvalue", counting)
    monkeypatch.setattr(ipl.cli, "neumann_eigenvalue", counting)
    code, out, _ = run_cli(["neumann", "--graph", files["p4"], "--subset", "v2,v3", *extra], capsys)
    assert code == 0 and len(calls) == 1
    monkeypatch.undo()
    assert json.loads(out)["result"]["s_local"] == s_local_conductance(load_graph(files["p4"]), [1, 2])[1].to_dict()


def dense_matrix(k):
    return SpdMatrix(np.eye(k) + 0.1 * np.ones((k, k)))


def graph_file(tmp_path, g):
    return write(tmp_path, "g.json", g.to_dict())


def neumann_argv(tmp_path, g, s):
    return ["neumann", "--graph", graph_file(tmp_path, g), "--subset", ",".join(g.labels[:s]), "--direct-only"]


# Each call site of the enumeration guard, by the start of its message: the
# cap's unit, the largest size it admits at the patched cap, the count at a
# size, the library call and the CLI command.
GUARD_SITES = {
    "weak conformality of a block of dimension {}": (
        "partitions",
        5,
        lambda k: 2 ** (k - 1) - 1,
        lambda k, force: weak_conformality(dense_matrix(k), force=force),
        lambda tmp_path, k: ["conformality", write(tmp_path, "m.json", matrix_to_dict(dense_matrix(k).entries))],
    ),
    "conductance of {} vertices": (
        "cuts",
        5,
        lambda n: 2 ** (n - 1) - 1,
        lambda n, force: conductance(path_graph(n), force=force),
        lambda tmp_path, n: ["conductance", "--graph", graph_file(tmp_path, path_graph(n))],
    ),
    "the conductance table of {} vertices": (
        "rows",
        5,
        lambda n: 2 ** (n - 1) - 1,
        lambda n, force: conductance(path_graph(n), force=force, include_table=True),
        lambda tmp_path, n: ["conductance", "--graph", graph_file(tmp_path, path_graph(n)), "--table"],
    ),
    "the pair sweep of {} vertices": (
        "pairs",
        4,
        lambda n: 4**n,
        lambda n, force: verify_eml_batch(path_graph(n), *normalized_inner_products(path_graph(n)), force=force),
        lambda tmp_path, n: ["verify", "eml", "--batch", "--graph", graph_file(tmp_path, path_graph(n))],
    ),
    "local conductance of |S| = {}": (
        "cuts",
        4,
        lambda s: 2**s - 2,
        lambda s, force: s_local_conductance(cycle_graph(8), range(s), force=force),
        lambda tmp_path, s: neumann_argv(tmp_path, cycle_graph(8), s),
    ),
}


@pytest.mark.parametrize("what", list(GUARD_SITES))
def test_enumeration_guard_at_every_site(what, tmp_path, capsys, monkeypatch):
    unit, size, count, call, argv = GUARD_SITES[what]
    monkeypatch.setitem(CAPS, unit, count(size))
    call(size, False)
    with pytest.raises(EnumerationCapError) as refused:
        call(size + 1, False)
    message = f"{what.format(size + 1)}: {count(size + 1)} {unit} exceed the cap of {count(size)}; "
    assert str(refused.value) == message + "pass force=True (CLI: --force)"
    call(size + 1, True)
    code, out, err = run_cli(argv(tmp_path, size), capsys)
    assert code == 0, err
    code, out, err = run_cli(argv(tmp_path, size + 1), capsys)
    assert_one_error_line(code, out, err)
    assert err == f"error: {refused.value}\n"
    code, out, err = run_cli(argv(tmp_path, size + 1) + ["--force"], capsys)
    assert code == 0, err


TWO_EDGES = {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["c", "d"]]}
P3 = {"vertices": ["v1", "v2", "v3"], "edges": [["v1", "v2"], ["v2", "v3"]]}


@pytest.mark.parametrize(
    "argv, contents, message",
    [
        (["conformality", "{m}"], {"m": {"rows": [[2.0]]}}, "weak conformality requires dimension >= 2"),
        (["conformality", "{m}", "--sampled", "0", "--seed", "1"], {"m": {"rows": [[2.0, 1.0], [1.0, 2.0]]}}, "trials must be >= 1"),
        (["recover", "--kind", "combinatorial", "--graph", "{g}", "--weights", "{w}"], {"g": P3, "w": [1.0]}, "edge weights must be a vector of length 2"),
        (["recover", "--kind", "normalized", "--graph", "{g}", "--weights", "{w}"], {"g": P3, "w": {"values": [1.0, -2.0]}}, "edge weights must be strictly positive"),
        (["digraph", "--transition", "{m}"], {"m": {"rows": [[1 - 1e-20, 1e-20], [1.0, 0.0]]}}, "stationary distribution is not numerically positive; chain is too close to reducible"),
        (["digraph", "--transition", "{m}"], {"m": {"rows": [[0.5, 0.5]]}}, "transition matrix must be square"),
        (["digraph", "--transition", "{m}"], {"m": {"rows": [[1.5, -0.5], [0.5, 0.5]]}}, "transition matrix has negative entries"),
        (["digraph", "--transition", "{m}"], {"m": {"rows": [[1.0]]}}, "support graph has no edges"),
        (["verify", "cheeger", "--graph", "{g}"], {"g": TWO_EDGES}, "the Cheeger bound is stated for connected graphs"),
        (["verify", "eml", "--graph", "{g}", "--x", "a", "--y", "c"], {"g": TWO_EDGES}, "the mixing bound is stated for connected graphs"),
        (["verify", "eml", "--batch", "--graph", "{g}"], {"g": TWO_EDGES}, "the mixing bound is stated for connected graphs"),
        (["dirichlet", "--graph", "{g}", "--subset", ""], {"g": P3}, "the subset needs at least one vertex"),
        (["neumann", "--graph", "{g}", "--subset", "v2,v2"], {"g": P3}, "the subset needs at least two vertices"),
        (["neumann", "--graph", "{g}", "--subset", "v2", "--direct-only"], {"g": P3}, "the subset needs at least two vertices"),
        (["conductance", "--graph", "{g}"], {"g": {"vertices": ["a", "a", "b"], "edges": [["a", "b"]]}}, "vertex labels must be distinct: 'a' appears twice"),
    ],
    ids=[
        "conformality-one-by-one", "sampled-no-trials", "weights-length", "weight-negative", "stationary-not-positive",
        "transition-not-square", "transition-negative", "support-no-edges", "cheeger-disconnected", "eml-disconnected",
        "eml-batch-disconnected", "dirichlet-empty", "neumann-one-vertex", "neumann-direct-one-vertex", "repeated-graph-label",
    ],
)
def test_library_refusals_exit_two_with_one_line(argv, contents, message, tmp_path, capsys):
    paths = {key: write(tmp_path, f"{key}.json", value) for key, value in contents.items()}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli([a.format(**paths) for a in argv], capsys)
    assert (code, out, caught) == (2, "", [])
    assert err == f"error: {message}\n"


def test_stable_json_refuses_an_unknown_type():
    with pytest.raises(TypeError) as refused:
        stable_json({"value": object()})
    assert type(refused.value) is TypeError and str(refused.value) == "cannot serialize object"


def test_hypergraph_to_ipl_records_its_vectors(files, tmp_path, capsys):
    # On the triangle with unit weights, pi = 1 and Dt = 1, the
    # kernel-consistent D is 3 at every vertex: giving all three changes no
    # value, and each file is recorded under config.inputs.
    vectors = {"pi": [1.0, 1.0, 1.0], "d": [3.0, 3.0, 3.0], "dt": [1.0, 1.0, 1.0]}
    argv = ["hypergraph-to-ipl", "--hypergraph", files["tri"]]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    for name, values in vectors.items():
        argv += [f"--{name}", write(tmp_path, f"{name}.json", values)]
    code, given, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    given = json.loads(given)
    assert given["config"]["inputs"] == {
        "hypergraph": files["tri"], **{name: str(tmp_path / f"{name}.json") for name in vectors}
    }
    assert given["result"] == json.loads(out)["result"]


def test_vector_file_in_values_form_reads_as_the_bare_array(files, tmp_path, capsys):
    path = tmp_path / "w.json"
    argv = ["recover", "--kind", "normalized", "--graph", files["p3"], "--weights", str(path)]
    outputs = []
    for content in ([2.0, 0.5], {"values": [2.0, 0.5]}):
        path.write_text(json.dumps(content))
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_verify_eml_with_an_empty_set(files, capsys):
    # --x "" is the empty set: the edge terms and both correlations are 0,
    # so the margin is the conformality term alone.
    code, out, err = run_cli(["verify", "eml", "--graph", files["p3"], "--x", "", "--y", "v1"], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["config"]["flags"]["x"] == ""
    g = path_graph(3)
    expected = verify_eml(g, *normalized_inner_products(g), [], [0]).to_dict()
    assert report["result"] == json.loads(stable_json(expected))
    assert report["result"]["values"]["lhs"] == 0.0


def test_csv_refuses_a_non_finite_value_as_json_does(files, tmp_path, capsys):
    # On the 3-path at M_V = 1e300 I, M_E = 1e308 I the cut {v1, v3} cuts
    # both edges, e = 2e308: the table's e_cut is past the range of a
    # double, so conductance refuses it by the verifiers' one range rule,
    # before either format writes a byte, with one line and no numpy warning.
    mv = write(tmp_path, "mv.json", {"rows": (np.eye(3) * 1e300).tolist()})
    me = write(tmp_path, "me.json", {"rows": (np.eye(2) * 1e308).tolist()})
    argv = ["conductance", "--graph", files["p3"], "--mv", mv, "--me", me, "--table"]
    refusal = "error: e_cut = 2.00e+308 is outside the range of a double; rescale M_V and M_E\n"
    for extra in ([], ["--csv"]):
        assert run_cli([*argv, *extra], capsys) == (2, "", refusal)
    for value in (math.inf, -math.inf, math.nan, np.float64(math.nan)):
        with pytest.raises(ValueError) as refused:
            csv_table(["a", "b"], [[1.0, 2.0], ["x", value]])
        assert str(refused.value) == f"non-finite value {float(value)!r} cannot be serialized"


def test_cli_fuzz_exits_zero_one_or_two(tmp_path, capsys):
    # Every call exits 0, 1 or 2, without an internal error or a traceback,
    # and an exit 2 prints one error line and no report. A command with a
    # --csv form exits with the same code with and without --csv, and no
    # call emits a numpy warning (tier-1 makes every warning an error). The
    # named cases have terms past the range of a double; each verifier runs
    # on inner products divided by a power of 4, so they now answer, or
    # refuse with the one line naming the reported value past that range.
    # They are the pair sweep of the 9-cycle with the chord (v0, v4) at
    # M_V = M_E = 10^153.5 I and 10^153.75 I (passes), the Cheeger check of
    # K2 at M_E = (1e300) (passes), of the 3-path at M_V = 1e300 I,
    # M_E = 1e-300 I (phi = 1e-600) and that 3-path's pair sweep
    # (lambda_2 = 1e-600); the 3-path's conductance (phi = 1) and Cheeger
    # check (passes) at M_V = M_E = 1e308 I, where Vol(G) overflows, and its
    # cut table at M_V = 1e300 I, M_E = 1e308 I, where the cut {v0, v2} has
    # e = 2e308; and both mixing checks of the 5-cycle at M_V = I,
    # M_E = 1e308 I, where lambda_n = 3.62e308 (once numpy's "Eigenvalues
    # did not converge", as the Laplacian's entries overflowed). The spectra
    # of K2 at M_V = 1e-154 I, M_E = (1e300) and of the 3-path at
    # M_V = 1e-300 I, M_E = 1e100 I overflow the Laplacian itself; both
    # refuse it, naming its first non-finite entry (they once printed
    # "non-finite value nan cannot be serialized" and numpy's "Eigenvalues
    # did not converge"). A Neumann sweep stopped after
    # one step exits 1, which no fuzz case of seed 39 does now that the pair
    # sweep decides on the scaled pair.
    def graph(name, n, edges):
        labels = [f"v{i}" for i in range(n)]
        return write(tmp_path, name, {"vertices": labels, "edges": [[labels[u], labels[v]] for u, v in edges]})

    def eye(k, s):
        return write(tmp_path, f"eye{k}e{s}.json", {"rows": (np.eye(k) * 10.0**s).tolist()})

    def refusal(name):
        return 2, f"error: {name} is outside the range of a double; rescale M_V and M_E\n"

    overflow = 2, "error: the Laplacian has a non-finite entry: inf at row 0, column 0\n"
    chord = graph("c9.json", 9, [(i, (i + 1) % 9) for i in range(9)] + [(0, 4)])
    # Not p3.json: the fuzz cases below write their transition matrices as p<i>.json.
    k2, p3 = graph("k2.json", 2, [(0, 1)]), graph("path3.json", 3, [(0, 1), (1, 2)])
    c5, p4 = graph("c5.json", 5, [(i, (i + 1) % 5) for i in range(5)]), graph("path4.json", 4, [(0, 1), (1, 2), (2, 3)])
    named = [
        (["verify", "eml", "--batch", "--graph", chord, "--mv", eye(9, 153.5), "--me", eye(10, 153.5)], (0, "")),
        (["verify", "eml", "--batch", "--graph", chord, "--mv", eye(9, 153.75), "--me", eye(10, 153.75)], (0, "")),
        (["verify", "cheeger", "--graph", k2, "--mv", eye(2, 0), "--me", eye(1, 300)], (0, "")),
        (["verify", "cheeger", "--graph", p3, "--mv", eye(3, 300), "--me", eye(2, -300)], refusal("phi = 1.00e-600")),
        (["verify", "eml", "--batch", "--graph", p3, "--mv", eye(3, 300), "--me", eye(2, -300)], refusal("lambda_2 = 1.00e-600")),
        (["conductance", "--graph", p3, "--mv", eye(3, 308), "--me", eye(2, 308)], (0, "")),
        (["verify", "cheeger", "--graph", p3, "--mv", eye(3, 308), "--me", eye(2, 308)], (0, "")),
        (["conductance", "--graph", p3, "--mv", eye(3, 300), "--me", eye(2, 308), "--table"], refusal("e_cut = 2.00e+308")),
        (["verify", "eml", "--graph", c5, "--mv", eye(5, 0), "--me", eye(5, 308), "--x", "v0", "--y", "v2"], refusal("lambda_n = 3.62e+308")),
        (["verify", "eml", "--batch", "--graph", c5, "--mv", eye(5, 0), "--me", eye(5, 308)], refusal("lambda_n = 3.62e+308")),
        (["neumann", "--graph", p4, "--subset", "v1,v2", "--schedule", "1e-1"], (1, "")),
        (["spectrum", "--graph", k2, "--mv", eye(2, -154), "--me", eye(1, 300)], overflow),
        (["spectrum", "--graph", p3, "--mv", eye(3, -300), "--me", eye(2, 100)], overflow),
    ]

    def run(argv, outcome=None):
        code, out, err = run_cli(argv, capsys)
        assert code in (0, 1, 2), (argv, code, err)
        assert "internal error" not in err and "Traceback" not in err, (argv, err)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, code, err)
        if outcome is not None:
            assert (code, err) == outcome, argv
        return code

    rng = np.random.default_rng(39)
    cases = [*named, *((argv, None) for argv in _fuzz_cases(rng, tmp_path)), *((argv, None) for argv in _fuzz_reexpression_cases(rng, tmp_path))]
    codes = {}
    for argv, outcome in cases:
        code = run(argv, outcome)
        codes.setdefault(argv[0], set()).add(code)
        if argv[0] in CSV_FORMS:
            plain = [*argv, *(f for f in CSV_FORMS[argv[0]] if f not in argv)]
            code = run(plain) if plain != argv else code
            assert run([*plain, "--csv"]) == code, argv
    assert {0, 1, 2} <= set().union(*codes.values()), codes
    assert {"conformality", "hypergraph-to-ipl", "digraph"} <= codes.keys(), codes
