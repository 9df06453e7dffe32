import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from edgeext.core import InputError, MultiGraph, edges_cycle, edges_path
from edgeext.colouring import (Palette, is_proper, merge_colourings,
                               reduce_to_lists)
from edgeext.exact import (BUDGET, SOLVED, UNSOLVABLE, avoid,
                           chromatic_index, extend, solve_list, vizing_colour)
from edgeext.instances import MULTI_STAR, FamilySpec, generate

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


def test_solve_list_keeps_fixed_colours():
    g = edges_path(4)
    out = solve_list(g, {0: {1, 2}, 2: {1, 2}}, fixed={1: 1})
    assert out.colouring == {1: 1, 0: 2, 2: 2}
    assert solve_list(g, {0: {1}, 2: {2}}, fixed={1: 1}).status == UNSOLVABLE
    with pytest.raises(InputError):
        solve_list(edges_cycle(3), {}, fixed={0: 1, 1: 1, 2: 2})


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


def _complete(n):
    return MultiGraph(n, [(i, u, v) for i, (u, v) in
                          enumerate(itertools.combinations(range(n), 2))])


def _first_fit_stalls(g):
    """Whether first-fit in edge order runs out of vizing_colour's
    palette, which is when vizing_colour builds its first fan."""
    delta = g.delta()
    k = min(delta + g.mu(), max(3 * delta // 2, delta + 1))
    at = [0] * g.n
    for _, u, v in g.edges:
        free = ((1 << (k + 1)) - 2) & ~(at[u] | at[v])
        if not free:
            return True
        at[u] |= free & -free
        at[v] |= free & -free
    return False


def test_vizing_colour_matches_set_based_oracle():
    # Same colouring, insertion order included, on complete graphs, on
    # shuffled dense simple graphs with mixed ids and on subcubic
    # multigraphs.  Random multigraphs of higher degree almost never
    # reach a fan: with mu >= 2 the palette has room to spare, except at
    # Delta = 3, where it is Delta + 1 as for simple graphs.
    graphs = [_complete(n) for n in range(5, 12)]
    rng = random.Random(9)
    for _ in range(1000):
        n = rng.randint(4, 12)
        degree = [0] * n
        edges = []
        for _ in range(4 * n):
            u, v = rng.sample(range(n), 2)
            if degree[u] < 3 and degree[v] < 3:
                degree[u] += 1
                degree[v] += 1
                edges.append((len(edges), u, v))
        graphs.append(MultiGraph(n, edges))
    for _ in range(3000):
        n = rng.randint(5, 10)
        p = rng.uniform(0.5, 0.8)
        pairs = [(u, v) if rng.random() < 0.5 else (v, u)
                 for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < p]
        rng.shuffle(pairs)
        labels = list(range(len(pairs)))
        rng.shuffle(labels)
        graphs.append(MultiGraph(n, [
            (label if rng.random() < 0.5 else str(label), u, v)
            for label, (u, v) in zip(labels, pairs)]))
    fans = parallel_fans = 0
    for g in graphs:
        assert (list(vizing_colour(g).items())
                == list(oracles.vizing_colour(g).items())), g
        if _first_fit_stalls(g):
            fans += 1
            parallel_fans += g.mu() > 1
    assert fans >= 100 and parallel_fans >= 10


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
    m = len(g.edges)
    # m - 1 and m sit either side of the first descent's m nodes
    budget = data.draw(st.sampled_from([None, 1, 3, 10, m - 1, m]),
                       label="budget")
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


def test_first_descent_budget_boundaries():
    # The first descent solves C6 from [2] in m nodes, so a budget of m
    # lets it finish and a budget of m - 1 stops the search on its last
    # edge.
    g = edges_cycle(6)
    m = len(g.edges)
    lists = {eid: frozenset({1, 2}) for eid in g.edge_ids}
    spent = solve_list(g, lists, budget=m - 1)
    assert spent.status == BUDGET and spent.nodes == m
    solved = solve_list(g, lists, budget=m)
    assert solved.status == SOLVED and solved.nodes == m
    assert solved.depth == m - 1
    for budget in (m - 1, m):
        assert (_outcome_key(solve_list(g, lists, budget=budget))
                == _outcome_key(oracles.solve_list(g, lists, budget=budget)))


def test_first_descent_dead_end_falls_back_to_search():
    # Three edges at vertex 4: the descent gives edge 0 colour 2, edge 1
    # colour 1 and leaves edge 2 nothing; the search backtracks to
    # colour 3 on edge 0.
    g = MultiGraph(5, [(0, 4, 2), (1, 4, 2), (2, 4, 3)])
    lists = {0: frozenset({2, 3}), 1: frozenset({1, 2}),
             2: frozenset({1, 2})}
    out = solve_list(g, lists)
    assert out.status == SOLVED and out.nodes > len(g.edges)
    assert out.colouring == {0: 3, 1: 1, 2: 2}
    assert _outcome_key(out) == _outcome_key(oracles.solve_list(g, lists))


@pytest.mark.parametrize("n", [6, 7, 8])
def test_first_descent_on_full_palettes(n):
    # Symmetry breaking is on; K6 and K8 take the first descent, K7 needs
    # more than m nodes from [7].
    g = _complete(n)
    full = frozenset(range(1, n + (n % 2)))
    lists = {eid: full for eid in g.edge_ids}
    out = solve_list(g, lists)
    assert out.status == SOLVED
    assert (out.nodes == len(g.edges)) == (n % 2 == 0)
    assert _outcome_key(out) == _outcome_key(oracles.solve_list(g, lists))


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


@st.composite
def proper_precolourings(draw, g, k):
    """Any proper precolouring of some edges of g from [k]."""
    pre = {}
    used = [0] * g.n
    for eid, u, v in g.edges:
        c = draw(st.integers(min_value=0, max_value=k),
                 label=f"colour {eid!r}")
        if c and not (used[u] | used[v]) >> c & 1:
            pre[eid] = c
            used[u] |= 1 << c
            used[v] |= 1 << c
    return pre


def _oracle_extend(g, pre, palette, budget):
    out = oracles.solve_list(*reduce_to_lists(g, pre, palette), budget=budget)
    if out.solved:
        out.colouring = merge_colourings(pre, out.colouring)
    return out


@settings(max_examples=300)
@given(multigraphs(max_n=5, max_e=12, mixed_ids=True), st.data())
def test_extend_matches_recursive_oracle(g, data):
    # extend searches its own arrays, not reduce_to_lists' reduced graph,
    # but must walk the same tree: same verdict, colouring in the same
    # order, node count and depth.  Few vertices make parallel edges, and
    # so tight vertices, common.
    delta, mu = g.delta(), g.mu()
    k = data.draw(st.integers(min_value=max(1, delta - 1),
                              max_value=max(1, delta + mu)), label="k")
    pre = data.draw(proper_precolourings(g, k), label="precolouring")
    budget = data.draw(st.sampled_from([None, 1, 10, 100]), label="budget")
    palette = Palette(k)
    assert (_outcome_key(extend(g, pre, palette, budget))
            == _outcome_key(_oracle_extend(g, pre, palette, budget)))


# Found by random search: on each, refreshing the parity prune's tight
# entries by list sizes taken before the colour was removed, or dropping
# a far end's entry without ever rescanning it, changes the outcome.
_FAR_END_CASES = [
    (3, [(1, 1, 0), ("3", 1, 2), ("2", 0, 2), (0, 2, 0)], {}, 3),
    (9, [("6", 5, 3), (7, 7, 5), (0, 5, 7), (1, 7, 3), ("2", 8, 1),
         (4, 6, 0), ("5", 8, 2), (3, 6, 0)], {}, 3),
    (3, [("9", 2, 0), ("1", 2, 0), (0, 0, 2), ("6", 2, 1), ("3", 2, 1),
         ("2", 1, 0), ("5", 0, 1), ("4", 0, 1), (8, 2, 1), ("7", 2, 0)],
     {"9": 6, "3": 2, 8: 1, "2": 4}, 9),
    (3, [(6, 0, 2), (2, 2, 1), ("0", 1, 2), ("4", 1, 0), (3, 0, 1), (7, 0, 1),
         ("8", 1, 2), (9, 2, 0), ("5", 1, 0), ("1", 0, 2)], {"4": 6, 3: 3}, 8),
    (8, [("6", 3, 2), ("2", 3, 6), (7, 0, 4), (3, 2, 6), ("0", 5, 4),
         (4, 7, 3), ("1", 0, 1), (5, 2, 4)], {"1": 2, 4: 2, "0": 1}, 3),
]


@pytest.mark.parametrize("n, edges, pre, k", _FAR_END_CASES)
def test_extend_matches_recursive_oracle_on_far_end_cases(n, edges, pre, k):
    g = MultiGraph(n, edges)
    assert (_outcome_key(extend(g, pre, Palette(k)))
            == _outcome_key(_oracle_extend(g, pre, Palette(k), None)))


@pytest.mark.parametrize("spec", [
    FamilySpec.subdivided_star(s) for s in range(2, 7)] + [
    FamilySpec(MULTI_STAR, (5, 2)), FamilySpec.chain_blocks(4, 1)],
    ids=str)
def test_extend_matches_recursive_oracle_on_sharp_families(spec):
    # At the threshold palette many vertices stay tight, which exercises
    # the parity prune's refresh; one colour more, the instance solves.
    g, pre, palette = generate(spec)
    rng = random.Random(len(g.edges))
    perm = list(range(g.n))
    rng.shuffle(perm)
    labels = list(range(len(g.edges)))
    rng.shuffle(labels)
    new = {eid: labels[i] if i % 2 else str(labels[i])
           for i, (eid, _, _) in enumerate(g.edges)}
    g = MultiGraph(g.n, [(new[eid], perm[u], perm[v])
                         for eid, u, v in g.edges])
    pre = {new[eid]: c for eid, c in pre.items()}
    for k in (palette.k, palette.k + 1):
        out = extend(g, pre, Palette(k))
        assert out.status == (UNSOLVABLE if k == palette.k else SOLVED)
        assert (_outcome_key(out)
                == _outcome_key(_oracle_extend(g, pre, Palette(k), None)))
