import json
import subprocess
import sys

import numpy as np
import pytest

from ipl import SpdMatrix, conformality, stable_json, weak_conformality
from ipl.cli import main
from ipl.jsonio import graph_from_dict, hypergraph_from_dict, matrix_from_dict, matrix_to_dict

from conftest import path_graph


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "p3": write(tmp_path, "p3.json", {"vertices": ["v1", "v2", "v3"], "edges": [["v1", "v2"], ["v2", "v3"]]}),
        "p4": write(tmp_path, "p4.json", {"vertices": ["v1", "v2", "v3", "v4"], "edges": [["v1", "v2"], ["v2", "v3"], ["v3", "v4"]]}),
        "k2": write(tmp_path, "k2.json", {"vertices": ["v1", "v2"], "edges": [["v1", "v2"]]}),
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


def test_import_loads_no_scipy():
    probe = "import sys, ipl; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


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


def test_recover_and_csv(files, capsys):
    code, out, _ = run_cli(["recover", "--kind", "normalized", "--graph", files["p3"], "--csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 4


def test_hypergraph_to_ipl_defaults(files, capsys):
    code, out, _ = run_cli(["hypergraph-to-ipl", "--hypergraph", files["tri"]], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["report"]["passed"] is True
    assert result["graph"]["edges"] == [["1", "2"], ["1", "3"], ["2", "3"]]


def test_digraph_command(files, tmp_path, capsys):
    # Both chains have period 2; the second never settles under power iteration.
    periodic = write(tmp_path, "periodic.json", {"rows": [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]]})
    for path, pi in ((files["walk"], [0.5, 0.5]), (periodic, [0.25, 0.5, 0.25])):
        code, out, _ = run_cli(["digraph", "--transition", path], capsys)
        assert code == 0
        np.testing.assert_allclose(json.loads(out)["result"]["pi"], pi, rtol=0, atol=1e-15)


def test_conductance_command(files, capsys):
    code, out, _ = run_cli(["conductance", "--graph", files["p3"]], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["phi"] == 1
    assert result["witness_S"] == ["v1"]


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


def test_neumann_failed_convergence_exits_one(files, capsys):
    code, out, _ = run_cli(
        ["neumann", "--graph", files["p4"], "--subset", "v2,v3", "--schedule", "1e-1"], capsys
    )
    assert code == 1
    assert json.loads(out)["result"]["converged"] is False


def test_malformed_json_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": [[1,\n')
    code, _, err = run_cli(["conformality", str(bad)], capsys)
    assert code == 2
    assert "line" in err and "column" in err


def test_missing_file_exit_two(capsys):
    code, _, err = run_cli(["conformality", "/nonexistent/m.json"], capsys)
    assert code == 2
    assert "not found" in err


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
    monkeypatch.setattr(conformality, "WEAK_CAP", 4)
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
    import pathlib

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


def test_stable_json_formatting():
    text = stable_json({"b": 1 / 3, "a": [True, None, "x"], "c": 2})
    assert text == '{"a":[true,null,"x"],"b":0.33333333333333331,"c":2}\n'
    with pytest.raises(ValueError):
        stable_json({"bad": float("nan")})


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
    ],
    ids=["short-orientation", "long-orientation", "vertices-not-list", "edge-not-list", "edge-triple"],
)
def test_malformed_graph_exit_two(tmp_path, capsys, graph, message):
    path = write(tmp_path, "g.json", graph)
    code, out, err = run_cli(["conductance", "--graph", path], capsys)
    assert_one_error_line(code, out, err)
    assert message in err


def test_verify_cheeger_block_me_past_the_weak_cap(tmp_path, capsys):
    # 21 edges exceed the default enumeration cap of 20; the block-diagonal
    # M_E has blocks of at most 5 edges, each scanned on its own.
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
    for command in (["conductance"], ["verify", "cheeger"]):
        argv = command + ["--graph", files["p3"], "--mv", files["ipj"], "--me", files["ipj"]]
        code, out, err = run_cli(argv, capsys)
        assert_one_error_line(code, out, err)
        assert "inner product dimensions" in err

