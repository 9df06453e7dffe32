import json
import os
import subprocess
import sys

import pytest

import edgeext
from edgeext import exact
from edgeext.cli import run

from conftest import prism, random_extension_instance


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def star_files(tmp_path):
    # subdivided star with 5 leaves; pendants precoloured 1
    graph = {"n": 11, "edges": []}
    eid = 0
    colours = {}
    for i in range(5):
        graph["edges"].append([eid, 0, 1 + i])
        eid += 1
    for i in range(5):
        graph["edges"].append([eid, 1 + i, 6 + i])
        colours[str(eid)] = 1
        eid += 1
    gpath = write(tmp_path, "g.json", graph)
    cpath = write(tmp_path, "c.json", {"palette": 5, "colours": colours})
    return gpath, cpath


def test_extend_exit_codes(star_files, capsys):
    gpath, cpath = star_files
    assert run(["extend", "--graph", gpath, "--colours", cpath,
                "--palette", "6", "--no-timestamp"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "solved"
    assert len(out["colouring"]) == 10

    assert run(["extend", "--graph", gpath, "--colours", cpath,
                "--palette", "5", "--no-timestamp"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "unsolvable"


def test_extend_palette_from_file(star_files, capsys):
    gpath, cpath = star_files
    # the colour file carries palette 5, which is unsolvable here
    assert run(["extend", "--graph", gpath, "--colours", cpath,
                "--no-timestamp"]) == 1
    capsys.readouterr()


def test_extend_methods_agree(star_files, capsys):
    gpath, cpath = star_files
    for method in ("auto", "exact", "kernel", "gallai"):
        code = run(["extend", "--graph", gpath, "--colours", cpath,
                    "--palette", "6", "--method", method, "--no-timestamp"])
        assert code == 0, method
        capsys.readouterr()


@pytest.mark.parametrize("method, palette", [
    ("kernel", "5"), ("gallai", "4"), ("planar", "7"),
], ids=["kernel-at-delta", "gallai-below-delta", "planar-at-delta-plus-2"])
def test_extend_method_refuses_its_palette(star_files, capsys, method,
                                           palette):
    # the star has Delta 5
    gpath, cpath = star_files
    assert run(["extend", "--graph", gpath, "--colours", cpath,
                "--palette", palette, "--method", method,
                "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "traceback" not in json.loads(captured.err)


def test_extend_planar_at_delta_runs_the_distance3_mode(tmp_path, capsys):
    from edgeext.planar import wheel
    g, _ = wheel(25)
    gpath = write(tmp_path, "w.json", g.to_json_obj())
    cpath = write(tmp_path, "c.json", {"palette": g.delta(),
                                       "colours": {"25": 1}})
    assert run(["extend", "--graph", gpath, "--colours", cpath,
                "--method", "planar", "--no-timestamp"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "solved" and out["method"] == "reduction"
    assert out["colouring"]["25"] == 1
    assert max(out["colouring"].values()) <= g.delta()


def test_extend_budget_exit(star_files, capsys):
    gpath, cpath = star_files
    code = run(["extend", "--graph", gpath, "--colours", cpath,
                "--palette", "5", "--method", "exact",
                "--budget", "1", "--no-timestamp"])
    assert code == 3
    capsys.readouterr()


@pytest.mark.parametrize("verb, option, value", [
    ("extend", "--budget", "-1"), ("verify", "--budget", "-1"),
    ("verify", "--jobs", "0"), ("verify", "--jobs", "-3"),
])
def test_negative_budget_and_jobs_exit_2(star_files, capsys, verb, option,
                                         value):
    gpath, cpath = star_files
    target = (["--graph", gpath, "--colours", cpath] if verb == "extend"
              else ["--claim", "matching-extension"])
    with pytest.raises(SystemExit) as stop:
        run([verb, *target, option, value, "--no-timestamp"])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: must be at least" in captured.err


def test_extend_gallai_budget_exit(tmp_path, capsys):
    # K4 with a precoloured matching: its one component needs a 4-node
    # search, so a budget of 1 is spent.
    pairs = [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (1, 2)]
    gpath = write(tmp_path, "k4.json",
                  {"n": 4, "edges": [[i, u, v] for i, (u, v)
                                     in enumerate(pairs)]})
    cpath = write(tmp_path, "c.json",
                  {"palette": 4, "colours": {"0": 1, "3": 2}})
    args = ["extend", "--graph", gpath, "--colours", cpath,
            "--method", "gallai", "--no-timestamp"]
    assert run(args + ["--budget", "1"]) == 3
    assert json.loads(capsys.readouterr().out)["status"] == "budget"
    assert run(args) == 0
    capsys.readouterr()


def test_extend_auto_disconnected_subcubic(tmp_path, capsys):
    # two disjoint triangles, one edge precoloured, palette [4]: auto
    # picks the subcubic extender, which colours each component
    edges = [[i, u, v] for i, (u, v) in enumerate(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])]
    gpath = write(tmp_path, "g.json", {"n": 6, "edges": edges})
    cpath = write(tmp_path, "c.json", {"palette": 4, "colours": {"0": 1}})
    assert run(["extend", "--graph", gpath, "--colours", cpath,
                "--no-timestamp"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "solved" and out["method"] == "gallai"
    colouring = {int(e): c for e, c in out["colouring"].items()}
    assert colouring[0] == 1 and set(colouring) == set(range(6))
    for a, (_, u, v) in enumerate(edges):
        for b, (_, x, y) in enumerate(edges[:a]):
            if {u, v} & {x, y}:
                assert colouring[a] != colouring[b]
    assert all(1 <= c <= 4 for c in colouring.values())


def test_extend_method_subcubic(tmp_path, capsys):
    # a triangle with a pendant edge: subcubic, a precoloured matching
    edges = [[0, 0, 1], [1, 1, 2], [2, 0, 2], [3, 2, 3]]
    gpath = write(tmp_path, "g.json", {"n": 4, "edges": edges})
    cpath = write(tmp_path, "c.json", {"palette": 4, "colours": {"3": 2}})
    assert run(["extend", "--graph", gpath, "--colours", cpath,
                "--method", "subcubic", "--no-timestamp"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "solved" and out["method"] == "gallai"
    assert out["colouring"]["3"] == 2 and len(out["colouring"]) == 4


@pytest.mark.parametrize("n, pairs, colours, palette", [
    # K4 with edge 0 precoloured 1, asked for palette 2
    (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
     {"palette": 4, "colours": {"0": 1}}, ["--palette", "2"]),
    # the path P3 under a colour file that declares palette 1
    (3, [(0, 1), (1, 2)], {"palette": 1, "colours": {}}, []),
])
def test_extend_method_subcubic_needs_palette_4(tmp_path, capsys, n, pairs,
                                                colours, palette):
    # the subcubic extender colours within [4] whatever the palette
    edges = [[i, u, v] for i, (u, v) in enumerate(pairs)]
    gpath = write(tmp_path, "g.json", {"n": n, "edges": edges})
    cpath = write(tmp_path, "c.json", colours)
    assert run(["extend", "--graph", gpath, "--colours", cpath,
                "--method", "subcubic", "--no-timestamp"] + palette) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "palette" in json.loads(captured.err)["error"]


def test_extend_auto_long_tight_cycles(tmp_path, capsys):
    # auto picks the subcubic extender, whose search of each 1,001-edge
    # rim used to die with RecursionError (exit 5)
    g, pre = prism(1001)
    gpath = write(tmp_path, "g.json", g.to_json_obj())
    cpath = write(tmp_path, "c.json", {
        "palette": 4, "colours": {str(eid): c for eid, c in pre.items()}})
    assert run(["extend", "--graph", gpath, "--colours", cpath,
                "--no-timestamp"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "solved" and out["method"] == "gallai"
    assert len(out["colouring"]) == 3003


def test_known_exception_exit(tmp_path, capsys):
    g = {"n": 5, "edges": [[i, i, (i + 1) % 5] for i in range(5)]}
    gpath = write(tmp_path, "c5.json", g)
    cpath = write(tmp_path, "empty.json", {"palette": 2, "colours": {}})
    code = run(["extend", "--graph", gpath, "--colours", cpath,
                "--palette", "2", "--method", "gallai", "--no-timestamp"])
    assert code == 4
    out = json.loads(capsys.readouterr().out)
    assert out["exception"] == "odd-cycle-k0"


def test_input_error_exit(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code = run(["extend", "--graph", missing, "--colours", missing,
                "--no-timestamp"])
    assert code == 2


def test_extend_rejects_ids_sharing_a_json_key(tmp_path, capsys):
    # edges 0 and "0" would print as one entry of the colouring, and the
    # precoloured colour of one of them would be lost
    gpath = write(tmp_path, "g.json",
                  {"n": 3, "edges": [[0, 0, 1], ["0", 1, 2], [2, 2, 0]]})
    cpath = write(tmp_path, "c.json", {"palette": 3, "colours": {"0": 1}})
    assert run(["extend", "--graph", gpath, "--colours", cpath,
                "--no-timestamp"]) == 2
    assert "share one JSON key" in capsys.readouterr().err


def test_avoid_and_solve_list(tmp_path, capsys):
    g = {"n": 3, "edges": [[0, 0, 1], [1, 1, 2]]}
    gpath = write(tmp_path, "g.json", g)
    fpath = write(tmp_path, "f.json", {"palette": 3,
                                       "colours": {"0": 1, "1": 1}})
    assert run(["avoid", "--graph", gpath, "--colours", fpath,
                "--no-timestamp"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["colouring"]["0"] != 1 and out["colouring"]["1"] != 1

    lpath = write(tmp_path, "l.json", {"lists": {"0": [1], "1": [1]}})
    assert run(["solve-list", "--graph", gpath, "--lists", lpath,
                "--no-timestamp"]) == 1
    capsys.readouterr()


def test_chi_rho_distance(tmp_path, capsys):
    g = {"n": 3, "edges": [[0, 0, 1], [1, 1, 2], [2, 0, 2]]}
    gpath = write(tmp_path, "g.json", g)
    assert run(["chi", "--graph", gpath, "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out)["chi"] == 3
    assert run(["rho", "--graph", gpath, "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out)["rho"] == "3"
    assert run(["distance", "--graph", gpath, "--edges", "0", "1",
                "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out)["distance"] == 1


def test_chi_budget_exit(tmp_path, capsys):
    # K5 needs 5 colours; refuting 4 takes more than 3 nodes
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    gpath = write(tmp_path, "k5.json",
                  {"n": 5, "edges": [[i, u, v] for i, (u, v)
                                     in enumerate(pairs)]})
    assert run(["chi", "--graph", gpath, "--budget", "3",
                "--no-timestamp"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "budget"
    assert out["stats"] == {"nodes": 4, "depth": 3}
    assert run(["chi", "--graph", gpath, "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out)["chi"] == 5


def test_vizing_command(tmp_path, capsys):
    g = {"n": 4, "edges": [[0, 0, 1], [1, 1, 2], [2, 2, 3], [3, 3, 0]]}
    gpath = write(tmp_path, "g.json", g)
    assert run(["vizing", "--graph", gpath, "--no-timestamp"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["colours_used"] <= out["bound"]


def test_gen_writes_files(tmp_path, capsys):
    gout = str(tmp_path / "graph.json")
    cout = str(tmp_path / "colours.json")
    assert run(["gen", "--family", "subdivided-star", "--params", "4",
                "--graph-out", gout, "--colours-out", cout,
                "--no-timestamp"]) == 0
    capsys.readouterr()
    # the written pair replays through extend
    assert run(["extend", "--graph", gout, "--colours", cout,
                "--no-timestamp"]) == 1
    capsys.readouterr()
    assert run(["extend", "--graph", gout, "--colours", cout,
                "--palette", "5", "--no-timestamp"]) == 0
    capsys.readouterr()


def test_gen_validates_params(capsys):
    assert run(["gen", "--family", "chain-blocks", "--params", "4",
                "--no-timestamp"]) == 2


def test_verify_command(capsys):
    assert run(["verify", "--claim", "matching-extension", "--max-n", "3",
                "--max-e", "4", "--no-timestamp"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True

    assert run(["verify", "--claim", "matching-extension", "--max-n", "3",
                "--max-e", "4", "--palette-offset", "-1",
                "--no-timestamp"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["counterexample"] is not None

    assert run(["verify", "--claim", "matching-extension", "--max-n", "3",
                "--max-e", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["elapsed_seconds"] >= 0 and "generated_at" in out


@pytest.mark.parametrize("claim, jobs", [
    ("matching-extension", "1"), ("line-degree-extension", "1"),
    ("matching-avoidance", "1"), ("shannon-extension", "1"),
    ("matching-extension", "2"),
])
def test_verify_budget_exit(claim, jobs, capsys):
    assert run(["verify", "--claim", claim, "--max-n", "4", "--max-e", "5",
                "--budget", "1", "--jobs", jobs, "--no-timestamp"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out == {"claim": claim, "status": "budget",
                   "stats": {"nodes": 2, "depth": out["stats"]["depth"]}}


@pytest.mark.parametrize("bound", [["--claim", "line-degree-extension",
                                    "--max-k", "-1"],
                                   ["--claim", "matching-extension",
                                    "--delta-max", "0"],
                                   ["--claim", "matching-extension",
                                    "--palette-offset", "-5"]])
def test_verify_rejects_bounds_that_admit_nothing(bound, capsys):
    assert run(["verify", *bound, "--max-n", "3", "--max-e", "3",
                "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "traceback" not in json.loads(captured.err)


def test_verify_rejects_ignored_palette_offset(capsys):
    assert run(["verify", "--claim", "bipartite-extension", "--max-n", "3",
                "--max-e", "3", "--palette-offset", "-1",
                "--no-timestamp"]) == 2
    assert "palette_offset" in json.loads(capsys.readouterr().err)["error"]


def test_audit_command(tmp_path, capsys):
    from edgeext.planar import wheel
    g, r = wheel(17)
    gpath = write(tmp_path, "w.json", g.to_json_obj())
    rpath = write(tmp_path, "rot.json", r.to_json_obj())
    code = run(["audit", "--graph", gpath, "--rotation", rpath,
                "--variant", "matching", "--no-timestamp"])
    out = json.loads(capsys.readouterr().out)
    assert out["sums"] == {"alpha": "-12", "gamma": "0", "delta": "0"}
    assert code in (0, 1)


def test_audit_reads_a_matching_from_colours(tmp_path, capsys):
    from edgeext.planar import wheel
    g, r = wheel(17)
    gpath = write(tmp_path, "w.json", g.to_json_obj())
    rpath = write(tmp_path, "rot.json", r.to_json_obj())
    argv = ["audit", "--graph", gpath, "--rotation", rpath,
            "--no-timestamp", "--colours"]
    assert run(argv + [write(tmp_path, "c.json", {
        "palette": g.delta() + 1, "colours": {"17": 1, "19": 2}})]) in (0, 1)
    assert "sums" in json.loads(capsys.readouterr().out)
    assert run(argv + [write(tmp_path, "c.json", {"colours": {}})]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "traceback" not in json.loads(captured.err)


def test_output_is_reproducible(star_files, capsys):
    gpath, cpath = star_files
    run(["extend", "--graph", gpath, "--colours", cpath, "--palette", "6",
         "--no-timestamp"])
    first = capsys.readouterr().out
    run(["extend", "--graph", gpath, "--colours", cpath, "--palette", "6",
         "--no-timestamp"])
    assert capsys.readouterr().out == first


def test_timestamp_present_by_default(star_files, capsys):
    gpath, cpath = star_files
    run(["extend", "--graph", gpath, "--colours", cpath, "--palette", "6"])
    out = json.loads(capsys.readouterr().out)
    assert "generated_at" in out


def test_internal_error_exit(star_files, capsys, monkeypatch):
    # A crash is not a verdict: it must not exit 1 ("unsolvable").
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(exact, "extend", boom)
    gpath, cpath = star_files
    assert run(["extend", "--graph", gpath, "--colours", cpath,
                "--palette", "6", "--method", "exact",
                "--no-timestamp"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert "boom" in err["error"]
    assert "RuntimeError" in err["traceback"]


@pytest.mark.parametrize("verb, input_colours, printed", [
    ("extend", {"0": 1}, {0: 1, 1: 3}),     # colour 3 is off the palette
    ("extend", {"0": 1}, {0: 2, 1: 1}),     # the precoloured edge changed
    ("avoid", {"0": 1, "1": 1}, {0: 2, 1: 1}),  # edge 1 takes its forbidden 1
])
def test_a_colouring_the_input_rules_out_is_never_printed(
        tmp_path, capsys, monkeypatch, verb, input_colours, printed):
    # each colouring is proper and complete, but breaks the palette [2] or
    # the input colours: a bug, so exit 5 with nothing printed
    def wrong(*args, **kwargs):
        return exact.SolveOutcome(exact.SOLVED, dict(printed))

    monkeypatch.setattr(exact, verb, wrong)
    gpath = write(tmp_path, "g.json", {"n": 3, "edges": [[0, 0, 1],
                                                         [1, 1, 2]]})
    cpath = write(tmp_path, "c.json", {"palette": 2,
                                       "colours": input_colours})
    method = ["--method", "exact"] if verb == "extend" else []
    assert run([verb, "--graph", gpath, "--colours", cpath,
                "--no-timestamp"] + method) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "refusing to print" in json.loads(captured.err)["error"]


def test_extend_exact_deep_instance(tmp_path, capsys):
    # 1,100 edges: the recursive search used to exit 1 with RecursionError
    g, pre, palette = random_extension_instance(0, 250, 1100)
    gpath = write(tmp_path, "g.json", g.to_json_obj())
    cpath = write(tmp_path, "c.json", {
        "palette": palette.k,
        "colours": {str(eid): c for eid, c in pre.items()}})
    assert run(["extend", "--graph", gpath, "--colours", cpath,
                "--method", "exact", "--no-timestamp"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "solved"
    assert len(out["colouring"]) == 1100


_GOOD_GRAPH = {"n": 3, "edges": [[0, 0, 1], [1, 1, 2]]}
_GOOD_COLOURS = {"palette": 3, "colours": {"0": 1}}


@pytest.mark.parametrize("graph, colours", [
    ({"n": "x", "edges": [[0, 0, 1]]}, _GOOD_COLOURS),
    ({"n": 3, "edges": [[[0], 0, 1], [1, 1, 2]]}, _GOOD_COLOURS),
    ({"n": 3, "edges": 5}, _GOOD_COLOURS),
    (_GOOD_GRAPH, {"palette": 3, "colours": {"0": "a"}}),
    (_GOOD_GRAPH, {"palette": 3, "colours": [1]}),
    (_GOOD_GRAPH, {"palette": 3, "colours": {"0": True}}),
    ({"n": -1, "edges": []}, _GOOD_COLOURS),
    ({"n": 3, "edges": [[0, 0, 1], [1, 1]]}, _GOOD_COLOURS),
    ({"n": 3, "edges": [[0, 0, 1.5]]}, _GOOD_COLOURS),
    (_GOOD_GRAPH, {"colours": {"0": 1}}),
    (_GOOD_GRAPH, {"palette": 3}),
    (_GOOD_GRAPH, {"palette": "3", "colours": {"0": 1}}),
], ids=["n-not-int", "list-edge-id", "edges-not-list", "colour-string",
        "colours-not-object", "colour-bool", "n-negative", "edge-not-triple",
        "endpoint-not-int", "no-palette", "no-colours", "palette-not-int"])
def test_malformed_input_exits_2(tmp_path, capsys, graph, colours):
    gpath = write(tmp_path, "g.json", graph)
    cpath = write(tmp_path, "c.json", colours)
    assert run(["extend", "--graph", gpath, "--colours", cpath,
                "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "traceback" not in json.loads(captured.err)


@pytest.mark.parametrize("verb, option, obj", [
    ("audit", "--rotation", {"rotation": {"x": [0]}}),
    ("audit", "--rotation", {"rotation": [[0]]}),
    ("audit", "--rotation", {"rotation": {"0": 5}}),
    ("audit", "--rotation", {"rotation": {"0": [[1]]}}),
    ("solve-list", "--lists", {"lists": [1, 2]}),
], ids=["rotation-key-not-vertex", "rotation-not-object",
        "rotation-entry-not-list", "rotation-list-edge-id",
        "lists-not-object"])
def test_malformed_rotation_and_lists_exit_2(tmp_path, capsys, verb, option,
                                             obj):
    gpath = write(tmp_path, "g.json", _GOOD_GRAPH)
    path = write(tmp_path, "in.json", obj)
    assert run([verb, "--graph", gpath, option, path, "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "traceback" not in json.loads(captured.err)


@pytest.mark.parametrize("verb, option, obj, source", [
    ("distance", "--edges", None, "--edges"),
    ("solve-list", "--lists", {"lists": {"0": [1], "7": [2]}}, "'lists'"),
    ("extend", "--colours", {"palette": 3, "colours": {"7": 1}},
     "precolouring"),
], ids=["distance-edges", "lists-key", "colours-key"])
def test_unknown_edge_names_its_input(tmp_path, capsys, verb, option, obj,
                                      source):
    # the error names the input that held the unknown key
    gpath = write(tmp_path, "g.json", _GOOD_GRAPH)
    given = ["0", "7"] if obj is None else [write(tmp_path, "in.json", obj)]
    assert run([verb, "--graph", gpath, option, *given,
                "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error.endswith(f"{source} names unknown edge '7'")


def test_solve_list_rejects_bool_colour(tmp_path, capsys):
    gpath = write(tmp_path, "g.json", _GOOD_GRAPH)
    lpath = write(tmp_path, "l.json", {"lists": {"0": [True], "1": [2]}})
    assert run(["solve-list", "--graph", gpath, "--lists", lpath,
                "--no-timestamp"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("verb, inputs, option", [
    ("extend", {"--colours": _GOOD_COLOURS}, "--dot"),
    ("avoid", {"--colours": _GOOD_COLOURS}, "--dot"),
    ("solve-list", {"--lists": {"lists": {"0": [1], "1": [2]}}}, "--dot"),
    ("vizing", {}, "--dot"),
    ("gen", None, "--graph-out"),
    ("gen", None, "--colours-out"),
])
def test_unwritable_output_exits_2(tmp_path, capsys, verb, inputs, option):
    if inputs is None:
        argv = ["gen", "--family", "subdivided-star", "--params", "3"]
    else:
        argv = [verb, "--graph", write(tmp_path, "g.json", _GOOD_GRAPH)]
        for flag, obj in inputs.items():
            argv += [flag, write(tmp_path, "in.json", obj)]
    target = str(tmp_path / "missing" / "out")
    assert run(argv + [option, target, "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert "cannot write" in error["error"] and "traceback" not in error


def test_extend_planar_deep_wheel(tmp_path, capsys):
    # 1,000 peel steps, more than the default recursion limit allows
    from edgeext.planar import wheel
    g, _ = wheel(500)
    gpath = write(tmp_path, "w.json", g.to_json_obj())
    cpath = write(tmp_path, "c.json", {"palette": g.delta() + 1,
                                       "colours": {}})
    assert run(["extend", "--graph", gpath, "--colours", cpath,
                "--method", "planar", "--no-timestamp"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "solved"
    assert out["method"] == "reduction"
    assert len(out["colouring"]) == len(g.edges)


def test_extend_planar_large_wheel_with_matching(tmp_path, capsys):
    # 10,000 edges with a 1,250-edge precoloured matching: the distance
    # check and the peel both stay near linear
    from edgeext.planar import wheel
    g, _ = wheel(5000)
    pre = {str(5000 + 4 * j): 1 + j % 5001 for j in range(1250)}
    gpath = write(tmp_path, "w.json", g.to_json_obj())
    cpath = write(tmp_path, "c.json", {"palette": g.delta() + 1,
                                       "colours": pre})
    assert run(["extend", "--graph", gpath, "--colours", cpath,
                "--method", "planar", "--no-timestamp"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "solved"
    assert out["method"] == "reduction"
    assert len(out["colouring"]) == len(g.edges)
    assert all(out["colouring"][eid] == c for eid, c in pre.items())


def test_module_entry_point_exits_with_the_verdict(tmp_path):
    # ``python -m edgeext.cli`` runs ``main``, the console script's entry
    src = os.path.dirname(os.path.dirname(edgeext.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def cli(graph):
        return subprocess.run(
            [sys.executable, "-m", "edgeext.cli", "chi", "--graph",
             write(tmp_path, "g.json", graph), "--no-timestamp"],
            capture_output=True, text=True, env=env, timeout=60)

    done = cli(_GOOD_GRAPH)
    assert done.returncode == 0
    assert json.loads(done.stdout.splitlines()[-1])["chi"] == 2
    done = cli({"n": 3, "edges": [[0, 0]]})
    assert done.returncode == 2
    assert done.stdout == "" and "traceback" not in json.loads(done.stderr)
