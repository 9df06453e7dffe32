"""The benchmark's own tests.

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import run  # noqa: E402
from clock import Stopwatch  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, WRAPPED, Tracer  # noqa: E402

# A 4-cycle with a parallel edge: 0-1 twice, 1-2, 2-3, 3-0.
EDGES = [("a", 0, 1), ("b", 0, 1), ("c", 1, 2), ("d", 2, 3), ("e", 3, 0)]
GOOD = {"a": 1, "b": 2, "c": 3, "d": 1, "e": 3}


def test_checker_accepts_a_proper_extension():
    assert check.colouring_faults(EDGES, GOOD, 3, {"a": 1}) == []


@pytest.mark.parametrize("change, palette, pre, expect", [
    ({"b": 1}, 3, {}, "share colour"),            # parallel edges clash
    ({"d": 3}, 3, {}, "share colour"),            # clash at vertex 3
    ({"c": 4}, 3, {}, "outside [3]"),
    ({"c": 0}, 3, {}, "outside [3]"),
    ({"d": True}, 3, {}, "outside [3]"),
    ({}, 3, {"a": 2}, "changed"),
    ({"z": 1}, 3, {}, "unknown edge"),
])
def test_checker_rejects_bad_colourings(change, palette, pre, expect):
    colouring = {**GOOD, **change}
    faults = check.colouring_faults(EDGES, colouring, palette, pre)
    assert any(expect in f for f in faults), faults


def test_checker_rejects_an_uncoloured_edge():
    colouring = dict(GOOD)
    del colouring["c"]
    assert check.colouring_faults(EDGES, colouring, 3) == [
        "edge 'c' left uncoloured"]


def test_vizing_bound():
    # Delta 3, mu 2: min(3+2, max(4, 4)) = 4 colours allowed.
    assert check.vizing_bound(EDGES) == 4
    assert check.vizing_faults(EDGES, {**GOOD, "d": 4}) == []
    assert check.vizing_faults(EDGES, {**GOOD, "d": 5})


def star(s, colour=1):
    edges = [(i, 0, 1 + i) for i in range(s)]
    edges += [(s + i, 1 + i, 1 + s + i) for i in range(s)]
    return edges, {s + i: colour for i in range(s)}


def test_refutation_pigeonhole_only_at_the_threshold():
    edges, pre = star(5, colour=3)
    assert "pigeonhole" in check.refutation(edges, pre, 5)
    assert check.refutation(edges, pre, 6) is None


def test_refutation_parity_on_a_chain_of_blocks():
    program = run.import_program()
    spec = program.instances.FamilySpec.chain_blocks(4, 2)
    g, pre, palette = program.instances.generate(spec)
    edges = [tuple(e) for e in g.edges]
    assert "parity" in check.refutation(edges, pre, palette.k)
    assert check.refutation(edges, pre, palette.k + 1) is None


@pytest.mark.parametrize("edges, pre, palette", [
    (EDGES, {"a": 1}, 3),
    # Path x-a-b-c-y at [2]: a, b, c must each see both colours and form
    # an odd run, but a and c can take a colour on their pendant edges.
    ([(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 4)], {}, 2),
])
def test_refutation_none_for_an_extendable_instance(edges, pre, palette):
    assert check.refutation(edges, pre, palette) is None


def namespace_snapshot():
    spaces = {key: dict(vars(module)) for key, module in sys.modules.items()
              if key == "edgeext" or key.startswith("edgeext.")}
    graph_class = sys.modules["edgeext.core"].MultiGraph
    return spaces, dict(vars(graph_class))


def test_tracer_restores_every_wrapped_function():
    program = run.import_program()
    workload = workloads.make("solve-large", "reduced")
    cases = workload.setup(program, 1)
    before = namespace_snapshot()
    original_extend = program.exact.extend
    tracer = Tracer()
    with tracer.installed(program):
        assert program.exact.extend is not original_extend
        assert sys.modules["edgeext"].extend is program.exact.extend
        result = workload.run_round(program, cases, Stopwatch())
    after = namespace_snapshot()
    assert after[1] == before[1]
    for key, space in before[0].items():
        for attr, value in space.items():
            assert after[0][key][attr] is value, (key, attr)
    assert all(o.error is None and o.wrong is None for o in result.outcomes)
    _, _, calls = tracer.summary()
    assert calls["exact.extend"] == 1 and calls["exact.vizing_colour"] == 1
    assert calls["planar.extend_planar"] == 2
    assert tracer.counters["exact.nodes"] > 0


def test_tracer_names_exist_in_the_library():
    program = run.import_program()
    for layer, entries in WRAPPED.items():
        assert layer in LAYERS
        for entry in entries:
            owner = getattr(program, layer)
            for part in entry.split("."):
                owner = getattr(owner, part)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_to_its_end_at_reduced_size(name):
    program = run.import_program()
    workload = workloads.make(name, "reduced")
    inputs = workload.setup(program, 7)
    workload.prepare()
    rounds = [workload.run_round(program, inputs, Stopwatch()),
              workload.post_check(program, inputs)]
    correct, attempted, failed, problems = run.tally(rounds)
    assert (correct, failed, problems) == (True, 0, [])
    assert attempted > 0
    assert rounds[0].instances > 0


def run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, metric", [("0", "setup_s"),
                                           ("1", "exact.nodes")])
def test_cli_prints_one_result_line(trace, metric):
    out = run_cli(ROOT, "--workload", "refute-sharp", "--seed", "3",
                  "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 40
    assert result["metrics"][metric]["value"] > 0


def test_cli_fails_without_the_library_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_cli(str(tmp_path), "--workload", "refute-sharp", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
