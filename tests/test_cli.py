import copy
import io
import json

import pytest

from laga import QQ, algebra_view, build_boolean, to_json, to_json_dict, view_to_json_dict
from laga.cli import main


def _graph_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture()
def boolean3_file(tmp_path):
    code = main(["build", "boolean", "3", "-o", str(tmp_path / "b3.json")])
    assert code == 0
    return str(tmp_path / "b3.json")


def test_build_json_and_determinism(capsys):
    assert main(["build", "boolean", "3"]) == 0
    first = capsys.readouterr().out
    data = json.loads(first)
    assert data["levels"] == [1, 3, 3, 1]
    assert main(["build", "boolean", "3"]) == 0
    assert capsys.readouterr().out == first


def test_build_subspace_and_complete(capsys):
    assert main(["build", "subspace", "2", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["levels"] == [1, 7, 7, 1]
    assert main(["build", "complete", "1,2,2"]) == 0
    assert json.loads(capsys.readouterr().out)["levels"] == [1, 2, 2]


def test_build_dot(capsys):
    assert main(["build", "boolean", "2", "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph") and "->" in out


def test_info(boolean3_file, capsys):
    assert main(["info", boolean3_file]) == 0
    out = capsys.readouterr().out
    assert "levels [1, 3, 3, 1]" in out and "uniform True" in out
    assert main(["info", boolean3_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["vertices"] == 8 and data["uniform"] is True


def test_hilbert_both_algebras(boolean3_file, capsys):
    assert main(["hilbert", boolean3_file, "--max", "2,4"]) == 0
    assert capsys.readouterr().out.startswith("m\\n")
    assert main(["hilbert", boolean3_file, "--algebra", "grA", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["algebra"] == "grA"
    assert [1, 1, 3] in data["entries"]


def test_kappa(boolean3_file, capsys):
    assert main(["kappa", boolean3_file, "--level", "2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["k"] for row in rows] == [2, 2, 2]
    assert main(["kappa", boolean3_file, "--level", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"(2,{i}) k=2 out_degree=2" for i in range(3)
    ]


@pytest.mark.parametrize(
    "level, message",
    [
        ("9", "level 9 outside 0..3"),
        ("4", "level 4 outside 0..3"),
        ("-1", "level -1 outside 0..3"),
        ("0", "level 0"),
    ],
)
def test_kappa_outside_the_graph_exits_three(boolean3_file, level, message, capsys):
    assert main(["kappa", boolean3_file, "--level", level]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_uniform(boolean3_file, tmp_path, nonuniform_graph, capsys):
    assert main(["uniform", boolean3_file]) == 0
    assert capsys.readouterr().out.strip() == "uniform"
    bad = _graph_file(tmp_path, "bad.json", to_json(nonuniform_graph))
    assert main(["uniform", bad]) == 0
    assert "not uniform" in capsys.readouterr().out
    for graph, uniform in ((boolean3_file, True), (bad, False)):
        assert main(["uniform", graph, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"uniform": uniform}


def test_dual_check(boolean3_file, tmp_path, nonuniform_graph, capsys):
    assert main(["dual-check", boolean3_file, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"max_m": 3, "defect": []}
    assert main(["dual-check", boolean3_file]) == 0
    assert "= 1 through m = 3" in capsys.readouterr().out
    # a non-uniform graph reports its defect and exits 1, like a mismatch
    bad = _graph_file(tmp_path, "bad.json", to_json(nonuniform_graph))
    assert main(["dual-check", bad, "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"max_m": 3, "defect": [[3, 6, 1]]}
    assert main(["dual-check", bad]) == 1
    assert "not numerically Koszul" in capsys.readouterr().out


def test_scramble_reconstruct_pipeline(boolean3_file, tmp_path, capsys):
    view_file = str(tmp_path / "view.json")
    assert main(["scramble", boolean3_file, "--seed", "7", "-o", view_file]) == 0
    envelope = json.loads((tmp_path / "view.json").read_text())
    assert set(envelope) == {"view", "source"}
    assert main(["reconstruct", view_file, "--family", "boolean", "-n", "3"]) == 0
    out = capsys.readouterr().out
    assert "recovered levels [1, 3, 3, 1]" in out
    assert "CERTIFIED isomorphic" in out


def test_boolean5_pipeline_on_the_default_field(tmp_path, capsys):
    graph_file = str(tmp_path / "b5.json")
    view_file = str(tmp_path / "view.json")
    assert main(["build", "boolean", "5", "-o", graph_file]) == 0
    assert main(["scramble", graph_file, "--seed", "7", "-o", view_file]) == 0
    assert main(["reconstruct", view_file, "--family", "boolean", "-n", "5"]) == 0
    assert "CERTIFIED isomorphic" in capsys.readouterr().out


def test_reconstruct_from_stdin(boolean3_file, tmp_path, capsys, monkeypatch):
    view_file = str(tmp_path / "view.json")
    assert main(["scramble", boolean3_file, "--seed", "2", "-o", view_file]) == 0
    payload = (tmp_path / "view.json").read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert main(["reconstruct", "-", "--family", "nonnesting", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["certified"] is True
    assert report["levels"] == [3, 1]


def test_reconstruct_without_reference_is_uncertified(
    boolean3_file, tmp_path, capsys
):
    view_file = str(tmp_path / "view.json")
    assert main(["scramble", boolean3_file, "--seed", "2", "-o", view_file]) == 0
    envelope = json.loads((tmp_path / "view.json").read_text())
    bare = _graph_file(tmp_path, "bare.json", json.dumps(envelope["view"]))
    assert main(["reconstruct", bare, "--family", "nonnesting"]) == 0
    assert "UNCERTIFIED" in capsys.readouterr().out


def test_compare_agreeing_nonisomorphic_pair(tmp_path, retarget_pair, capsys):
    g1, g2 = retarget_pair
    f1 = _graph_file(tmp_path, "g1.json", to_json(g1))
    f2 = _graph_file(tmp_path, "g2.json", to_json(g2))
    assert main(["compare", f1, f2, "--max", "3,5"]) == 0
    out = capsys.readouterr().out
    assert "invariants agree (this does not imply the graphs are isomorphic)" in out
    assert "NOT isomorphic" in out
    assert main(["compare", f1, f2, "--max", "3,5", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_equal"] is True and report["isomorphic"] is False
    assert all(row["equal"] for row in report["invariants"])


def test_compare_mismatch_exit_code(boolean3_file, tmp_path, capsys):
    other = str(tmp_path / "complete.json")
    assert main(["build", "complete", "1,3,3,1", "-o", other]) == 0
    capsys.readouterr()
    assert main(["compare", boolean3_file, other, "--max", "2,5"]) == 1
    assert "invariants differ" in capsys.readouterr().out


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["build", "dodecahedron", "3"])
    assert exc.value.code == 2


def test_computation_errors_exit_three(boolean3_file, tmp_path, capsys):
    assert main(["info", str(tmp_path / "missing.json")]) == 3
    assert "error:" in capsys.readouterr().err
    view_file = str(tmp_path / "view.json")
    assert main(["scramble", boolean3_file, "--seed", "1", "-o", view_file]) == 0
    assert main(["reconstruct", view_file, "--family", "boolean", "-n", "4"]) == 3
    assert "error:" in capsys.readouterr().err
    # a q that is no prime is rejected before any count divides by q - 1
    subspace_file = str(tmp_path / "subspace.json")
    assert main(["build", "subspace", "2", "3", "-o", subspace_file]) == 0
    assert main(["scramble", subspace_file, "--seed", "1", "-o", view_file]) == 0
    for q in ("1", "-1"):
        argv = ["reconstruct", view_file, "--family", "subspace", "-q", q, "-n", "3"]
        assert main(argv) == 3
        assert "error:" in capsys.readouterr().err


def _edited(data, path, value=None):
    """A copy of data with the entry at path replaced by value, or
    deleted when value is None; the empty path replaces everything."""
    if not path:
        return value
    data = copy.deepcopy(data)
    target = data
    for key in path[:-1]:
        target = target[key]
    if value is None:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return data


@pytest.mark.parametrize(
    "kind, path, value",
    [
        ("view", ("cells", "9"), []),
        ("view", ("cells", "3"), None),
        ("view", ("cells", "2", 0, 2), None),
        ("view", ("cells", "2", 0, 3), None),
        ("view", ("cells",), []),
        ("view", ("field",), "x"),
        ("view", ("level_dims",), 5),
        ("view", ("cells", "2", 0, 3), [1]),
        ("view", (), [1, 2]),
        ("view", ("plain",), "false"),
        ("qview", ("cells", "2", 0, 3), "1/0"),
        ("qview", ("cells", "2", 0, 3), "one"),
        ("view", ("cells", "2", 0, 3), "1/2"),
        ("view", ("cells",), None),
        ("view", ("level_dims",), None),
        ("view", ("cells", "2", 0, 0), 3),
        ("view", ("cells", "2", 1, 1), 0),
        ("view", ("level_dims",), [5, 3, 3, 1]),
        ("view", ("level_dims",), [0, 3, -3, 1]),
        ("graph", ("edges", 0), [[1], [0, 0]]),
        ("graph", ("edges", 0), [[1, "a"], [0, 0]]),
        ("graph", ("levels",), 5),
        ("graph", ("flags",), []),
        ("graph", ("flags",), {"unique_minimal": "no"}),
        ("graph", ("labels",), []),
        ("graph", ("labels",), {"1,0": 5}),
        ("graph", ("labels",), {"x": "a"}),
        ("graph", (), {"levels": [1, 2, 1], "edges": [], "labels": {"9,9": "ghost"}}),
        ("graph", (), [1, 2]),
        ("graph", (), {"levels": [1, -2], "edges": []}),
        ("graph", (), {"levels": [], "edges": [], "flags": {"unique_minimal": True}}),
    ],
    ids=[
        "view-level-out-of-range",
        "view-level-missing",
        "view-ragged-rows",
        "view-ragged-cell",
        "view-cells-list",
        "view-field-not-prime",
        "view-level-dims-not-a-list",
        "view-entry-not-a-scalar",
        "view-not-an-object",
        "view-plain-not-a-bool",
        "view-rational-division-by-zero",
        "view-rational-not-a-number",
        "view-entry-not-integral",
        "view-cells-missing",
        "view-level-dims-missing",
        "view-index-out-of-range",
        "view-cell-repeated-or-out-of-order",
        "view-level-dims-entry-0-nonzero",
        "view-level-dims-negative",
        "graph-short-endpoint",
        "graph-string-index",
        "graph-levels-not-a-list",
        "graph-flags-not-an-object",
        "graph-flag-not-a-bool",
        "graph-labels-not-an-object",
        "graph-label-not-a-string",
        "graph-label-key-not-level-index",
        "graph-label-on-a-missing-vertex",
        "graph-not-an-object",
        "graph-negative-level",
        "graph-minimal-without-levels",
    ],
)
def test_malformed_json_exits_three(kind, path, value, tmp_path, capsys):
    g = build_boolean(3)
    if kind == "graph":
        data = to_json_dict(g)
        verb = ["info"]
    else:
        # "qview": a view over Q, whose entries are strings
        view = algebra_view(g, QQ) if kind == "qview" else algebra_view(g, scramble_seed=1)
        data = view_to_json_dict(view)
        verb = ["reconstruct", "--family", "boolean", "-n", "3"]
    bad = _graph_file(tmp_path, "bad.json", json.dumps(_edited(data, path, value)))
    assert main(verb[:1] + [bad] + verb[1:]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb, data",
    [
        (
            ["reconstruct", "--family", "boolean", "-n", "3"],
            {"field": 3, "level_dims": [0, 1, 100_000], "cells": {"2": []}},
        ),
        (["info"], {"levels": [1, 100_000], "edges": [], "flags": {"positive_outdegree": True}}),
    ],
    ids=["view", "graph"],
)
def test_json_past_budget_exits_three(verb, data, tmp_path, capsys, monkeypatch):
    # the sizes a file claims are counted before anything is built for them
    monkeypatch.setenv("LAGA_BUDGET", "1000")
    big = _graph_file(tmp_path, "big.json", json.dumps(data))
    assert main(verb[:1] + [big] + verb[1:]) == 3
    assert "100001" in capsys.readouterr().err


@pytest.mark.parametrize(
    "params", [["boolean", "-1"], ["subspace", "2", "-1"], ["complete", "1,-2"]]
)
def test_build_rejects_negative_sizes(params, capsys):
    assert main(["build", *params]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "params, usage",
    [
        pytest.param(["subspace", "2"], "build subspace takes Q N", id="subspace-2"),
        pytest.param(["boolean", "4", "5"], "build boolean takes N", id="boolean-4-5"),
        pytest.param(["complete", "1,2", "3"], "takes S0,S1,...", id="complete-1,2-3"),
    ],
)
def test_build_checks_the_parameter_count(params, usage, capsys):
    # `subspace 2` raised IndexError and `boolean 4 5` ignored the 5
    assert main(["build", *params]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and usage in captured.err


@pytest.mark.parametrize("verb", ["hilbert", "compare"])
@pytest.mark.parametrize("bound", ["3", "3,4,5", "3,x"])
def test_max_names_its_expected_form(verb, bound, boolean3_file, capsys):
    graphs = [boolean3_file] * (2 if verb == "compare" else 1)
    assert main([verb, *graphs, "--max", bound]) == 3
    assert f"error: --max takes m,n, got '{bound}'" in capsys.readouterr().err
