"""The command-line surface: subcommands, exit codes, JSON mode."""

import json

import pytest

from facetkit import enumerate_complexes
from facetkit.cli import main
from facetkit.lemmas import FAST, REGISTRY, LemmaCheck, run_check


@pytest.fixture
def cyclic7_file(tmp_path):
    path = tmp_path / "c7.cplx"
    assert main(["construct", "cyclic-7", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture
def sphere_file(tmp_path):
    path = tmp_path / "s24.cplx"
    assert main(["construct", "standard-sphere", "2", "-o", str(path)]) == 0
    return str(path)


def test_inspect(cyclic7_file, capsys):
    assert main(["inspect", cyclic7_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["f_vector"] == [7, 21, 28, 7]
    assert data["euler"] == 7
    assert data["classification"] == "weak_pm_with_boundary"
    assert data["complementary"] is True
    assert data["neighbourliness"] == 2


def test_check_exit_codes(cyclic7_file, sphere_file):
    assert main(["check", "complementary", cyclic7_file]) == 0
    assert main(["check", "complementary", sphere_file]) == 1
    assert main(["check", "weak-pm", sphere_file]) == 0
    assert main(["check", "pseudomanifold", cyclic7_file]) == 1
    assert main(["check", "k-neighbourly:2", cyclic7_file]) == 0
    assert main(["check", "k-neighbourly:3", cyclic7_file]) == 1
    assert main(["check", "collapsible", sphere_file]) == 1
    assert main(["check", "nonsense", sphere_file]) == 2


def test_homology_command(sphere_file, capsys):
    assert main(["homology", sphere_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["groups"][2] == {"rank": 1, "torsion": []}


def test_link_command(cyclic7_file, capsys):
    assert main(["link", cyclic7_file, "--simplex", "0", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert sorted(map(tuple, data["facets"])) == [(1, 2, 5), (1, 4, 6), (2, 3, 4), (3, 5, 6)]
    assert main(["link", cyclic7_file, "--simplex", "zero"]) == 2


def test_construct_errors(tmp_path, capsys):
    assert main(["construct", "unknown-thing"]) == 2
    assert main(["construct", "standard-sphere"]) == 2
    assert main(["construct", "cycle", "2"]) == 2  # constructor rejects n < 3


def test_enumerate_command(capsys):
    assert main(["enumerate", "--vertices", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["class_count"] == 5
    # --dim is a filter that does not depend on the labels
    assert main(["enumerate", "--vertices", "4", "--dim", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["class_count"] == sum(k.dim == 1 for k in enumerate_complexes(4).class_complexes())
    assert main(["enumerate", "--vertices", "5", "--dim", "2", "--weak-pm", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["class_count"] == 1
    assert main(["enumerate", "--vertices", "5", "--weak-pm"]) == 2  # needs --dim


def test_search_command(tmp_path, capsys):
    out = tmp_path / "dir"
    assert main(["search-complementary", "--n", "6", "--d", "2", "--json", "-o", str(out)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["class_count"] == 1 and data["complete"] is True
    assert (out / "report.json").exists() and (out / "class_000.cplx").exists()
    assert main(["search-complementary", "--n", "12", "--d", "6"]) == 2


def test_search_incomplete_exit_code(capsys):
    code = main(["search-complementary", "--n", "6", "--d", "2", "--budget", "1", "--json"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["complete"] is False


def test_verify_lemma(capsys):
    assert main(["verify-lemma", "L4.1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert data["f_vector"] == [12, 66, 220, 495, 660, 462, 132]
    assert data["expected"] == {"f_vector": [12, 66, 220, 495, 660, 462, 132]}
    assert main(["verify-lemma", "NOPE"]) == 2
    assert "unknown check 'NOPE'; known ids: CP29, E1" in capsys.readouterr().err
    assert main(["verify-lemma", "CP29"]) == 2  # long tier requires --tier long


def test_verify_lemma_mismatch(monkeypatch, capsys):
    rows = [("f_vector", (1, 2), (3, 4)), ("note", 5, None), ("agrees", 6, 6)]
    monkeypatch.setitem(REGISTRY, "L4.1", LemmaCheck("L4.1", FAST, "a failing check", lambda: rows))
    result = run_check("L4.1")
    assert result.passed is False
    assert result.lines == [
        "f_vector: (1, 2) (expected (3, 4))  <-- MISMATCH",
        "note: 5",
        "agrees: 6 (expected 6)",
    ]
    assert main(["verify-lemma", "L4.1", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is False
    assert data["f_vector"] == [1, 2]
    assert data["expected"] == {"f_vector": [3, 4], "note": None, "agrees": 6}


def test_collapse_command(tmp_path, capsys):
    path = tmp_path / "tri.cplx"
    path.write_text("0 1 2\n")
    assert main(["collapse", str(path)]) == 0
    trace_text = [
        line
        for line in capsys.readouterr().out.splitlines()
        if "->" in line
    ]
    trace_file = tmp_path / "trace.txt"
    trace_file.write_text("\n".join(trace_text) + "\n")
    assert main(["collapse", str(path), "--replay", str(trace_file)]) == 0
    sphere = tmp_path / "s.cplx"
    assert main(["construct", "standard-sphere", "2", "-o", str(sphere)]) == 0
    assert main(["collapse", str(sphere)]) == 1


def test_collapse_replay_partial_trace(tmp_path, capsys):
    path = tmp_path / "tri.cplx"
    path.write_text("0 1 2\n")
    assert main(["collapse", str(path)]) == 0
    steps = [line for line in capsys.readouterr().out.splitlines() if "->" in line]
    trace_file = tmp_path / "partial.txt"
    trace_file.write_text(steps[0] + "\n")
    assert main(["collapse", str(path), "--replay", str(trace_file), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["valid"] is True and data["point"] is False
    assert len(data["residue_facets"]) == 2
    trace_file.write_text("\n".join(steps) + "\n")
    assert main(["collapse", str(path), "--replay", str(trace_file), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["point"] is True


def test_collapse_replay_malformed_trace(tmp_path, capsys):
    path = tmp_path / "tri.cplx"
    path.write_text("0 1 2\n")
    trace_file = tmp_path / "bad.trace"
    trace_file.write_text("# comment\nx -> 0 1\n")
    assert main(["collapse", str(path), "--replay", str(trace_file)]) == 2
    assert "line 2: expected integer labels" in capsys.readouterr().err


def test_malformed_file_is_usage_error(tmp_path):
    path = tmp_path / "bad.cplx"
    path.write_text("0 1\nnot numbers\n")
    assert main(["inspect", str(path)]) == 2
