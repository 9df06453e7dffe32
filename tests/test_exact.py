import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from edgeext.core import InputError, MultiGraph, edges_cycle, edges_path
from edgeext.colouring import Palette, is_proper
from edgeext.exact import (BUDGET, SOLVED, UNSOLVABLE, avoid,
                           chromatic_index, extend, solve_list, vizing_colour)

import oracles
from conftest import multigraphs, random_extension_instance


def brute_solvable(g, lists):
    ids = list(g.edge_ids)
    for combo in itertools.product(*[sorted(lists[e]) for e in ids]):
        if is_proper(g, dict(zip(ids, combo))):
            return True
    return False


def test_solve_list_trivial():
    g = MultiGraph(2, [(0, 0, 1)])
    out = solve_list(g, {0: {5}})
    assert out.solved and out.colouring == {0: 5}
    out = solve_list(MultiGraph(2, []), {})
    assert out.solved and out.colouring == {}


def test_solve_list_requires_all_lists():
    g = edges_path(3)
    with pytest.raises(InputError):
        solve_list(g, {0: {1}})


def test_solve_list_respects_lists():
    g = edges_path(3)
    out = solve_list(g, {0: {1}, 1: {1}})
    assert out.status == UNSOLVABLE
    out = solve_list(g, {0: {1}, 1: {2}})
    assert out.colouring == {0: 1, 1: 2}


def test_budget_outcome():
    # Kierstead-path-free hard-ish instance: complete graph, tight palette
    n = 6
    edges = [(i, u, v) for i, (u, v) in
             enumerate(itertools.combinations(range(n), 2))]
    g = MultiGraph(n, edges)
    full = frozenset(range(1, 6))
    out = solve_list(g, {e: full for e in g.edge_ids}, budget=3)
    assert out.status == BUDGET
    assert out.colouring is None


@settings(max_examples=60)
@given(multigraphs(max_n=4, max_e=5), st.data())
def test_solve_list_agrees_with_brute_force(g, data):
    lists = {}
    for eid in g.edge_ids:
        size = data.draw(st.integers(min_value=1, max_value=3))
        lists[eid] = frozenset(data.draw(
            st.sets(st.integers(min_value=1, max_value=5),
                    min_size=size, max_size=size)))
    out = solve_list(g, lists)
    assert out.solved == brute_solvable(g, lists)
    if out.solved:
        assert is_proper(g, out.colouring)
        for eid, c in out.colouring.items():
            assert c in lists[eid]


def test_solve_list_deterministic():
    g = edges_cycle(5)
    lists = {e: frozenset({1, 2, 3}) for e in g.edge_ids}
    a = solve_list(g, lists)
    b = solve_list(g, lists)
    assert a.colouring == b.colouring
    assert a.nodes == b.nodes


def test_extend_merges_precolouring():
    g = edges_path(4)
    out = extend(g, {1: 2}, Palette(2))
    assert out.solved
    assert out.colouring[1] == 2
    assert is_proper(g, out.colouring)


def test_extend_detects_unsolvable():
    # star K_{1,3}: three mutually adjacent edges, two colours
    g = MultiGraph(4, [(0, 0, 1), (1, 0, 2), (2, 0, 3)])
    assert extend(g, {0: 1}, Palette(2)).status == UNSOLVABLE
    assert extend(g, {0: 1}, Palette(3)).solved


def test_avoid_allows_improper_forbidden():
    g = edges_path(3)
    out = avoid(g, {0: 1, 1: 1}, Palette(3))
    assert out.solved
    assert out.colouring[0] != 1 and out.colouring[1] != 1
    # with two colours both edges would be pushed onto colour 2
    assert avoid(g, {0: 1, 1: 1}, Palette(2)).status == UNSOLVABLE


def test_avoid_unsolvable_when_palette_tight():
    g = MultiGraph(2, [(0, 0, 1)])
    assert avoid(g, {0: 1}, Palette(1)).status == UNSOLVABLE


def test_chromatic_index_known_values():
    assert chromatic_index(edges_cycle(4)) == 2
    assert chromatic_index(edges_cycle(5)) == 3
    # Petersen graph needs 4
    outer = [(i, i, (i + 1) % 5) for i in range(5)]
    spokes = [(5 + i, i, 5 + i) for i in range(5)]
    inner = [(10 + i, 5 + i, 5 + (i + 2) % 5) for i in range(5)]
    petersen = MultiGraph(10, outer + spokes + inner)
    assert chromatic_index(petersen) == 4
    # fat triangle: sum of multiplicities
    fat = MultiGraph(3, [(i, u, v) for i, (u, v) in enumerate(
        [(0, 1)] * 2 + [(1, 2)] * 2 + [(0, 2)] * 2)])
    assert chromatic_index(fat) == 6


def test_chromatic_index_rejects_empty():
    with pytest.raises(InputError):
        chromatic_index(MultiGraph(3, []))


@given(multigraphs(max_n=5, max_e=7))
def test_chromatic_index_within_classical_bounds(g):
    if not g.edges:
        return
    chi = chromatic_index(g)
    assert g.delta() <= chi <= g.delta() + g.mu()


@given(multigraphs(max_n=6, max_e=10))
def test_vizing_colour_proper_and_bounded(g):
    colouring = vizing_colour(g)
    assert set(colouring) == set(g.edge_ids)
    assert is_proper(g, colouring)
    if g.edges:
        delta = g.delta()
        bound = min(delta + g.mu(), max(3 * delta // 2, delta + 1))
        assert max(colouring.values()) <= bound


def test_vizing_colour_deterministic():
    g = edges_cycle(7)
    assert vizing_colour(g) == vizing_colour(g)


def test_class_pruning_refutes_odd_demand_component():
    # 5-cycle with palette [2]: every vertex is tight for both colours and
    # the whole cycle is one odd component, so the root is refuted without
    # search.
    g = edges_cycle(5)
    out = solve_list(g, {e: frozenset({1, 2}) for e in g.edge_ids})
    assert out.status == UNSOLVABLE
    assert out.nodes == 1


def _outcome_key(out):
    colouring = None if out.colouring is None else list(out.colouring.items())
    return out.status, colouring, out.nodes, out.depth


@settings(max_examples=300)
@given(multigraphs(max_n=6, max_e=10), st.data())
def test_solve_list_matches_recursive_oracle(g, data):
    # The iterative search must walk the recursive one's tree exactly:
    # same verdict, same colouring in the same assignment order, same
    # node count and depth, with or without a budget.
    k = data.draw(st.integers(min_value=1, max_value=5), label="k")
    if data.draw(st.booleans(), label="full palette"):
        full = frozenset(range(1, k + 1))
        lists = {eid: full for eid in g.edge_ids}
    else:
        lists = {eid: frozenset(data.draw(st.sets(
            st.integers(min_value=1, max_value=k + 1), min_size=1)))
            for eid in g.edge_ids}
    budget = data.draw(st.sampled_from([None, 1, 3, 10]), label="budget")
    assert (_outcome_key(solve_list(g, lists, budget=budget))
            == _outcome_key(oracles.solve_list(g, lists, budget=budget)))


def test_solve_list_matches_oracle_on_string_ids_and_parallels():
    # mixed id types order by _id_sort_key; parallel edges share both ends
    edges = [("b", 0, 1), (3, 0, 1), ("a", 1, 2), (1, 2, 0), (0, 2, 3),
             ("c", 0, 1)]
    g = MultiGraph(4, edges)
    for k in range(2, 6):
        full = frozenset(range(1, k + 1))
        lists = {eid: full for eid in g.edge_ids}
        assert (_outcome_key(solve_list(g, lists))
                == _outcome_key(oracles.solve_list(g, lists)))


@pytest.mark.parametrize("m", [1100, 2000])
def test_extend_has_no_recursion_limit(m):
    # The recursive search died with RecursionError near 1,000 edges.
    g, pre, palette = random_extension_instance(0, 250, m)
    start = time.perf_counter()
    out = extend(g, pre, palette)
    elapsed = time.perf_counter() - start
    assert out.solved
    assert is_proper(g, out.colouring)
    assert all(out.colouring[eid] == c for eid, c in pre.items())
    assert out.depth == m - len(pre) - 1
    assert elapsed < 10
