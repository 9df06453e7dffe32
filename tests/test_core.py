import ast
import json
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import edgeext
from edgeext import exact, gallai, kernels, planar
from edgeext.colouring import Palette
from edgeext.core import (INFINITE_DISTANCE, DenseForm, InputError,
                          MultiGraph, degree_stats, edge_distance,
                          edges_cycle, edges_path, is_distance_matching,
                          line_graph)

from conftest import multigraphs
from oracles import IdKeyedMultiGraph


def triangle():
    return MultiGraph(3, [(0, 0, 1), (1, 1, 2), (2, 0, 2)])


def test_loops_rejected():
    with pytest.raises(InputError):
        MultiGraph(2, [(0, 1, 1)])


def test_duplicate_edge_ids_rejected():
    with pytest.raises(InputError):
        MultiGraph(3, [(0, 0, 1), (0, 1, 2)])


def test_vertex_out_of_range_rejected():
    with pytest.raises(InputError):
        MultiGraph(2, [(0, 0, 2)])


def test_degrees_and_delta():
    g = MultiGraph(3, [(0, 0, 1), (1, 0, 1), (2, 1, 2)])
    assert g.degree(0) == 2
    assert g.degree(1) == 3
    assert g.degree(2) == 1
    assert g.delta() == 3
    assert g.mu() == 2


def test_parallel_edges_are_distinct():
    g = MultiGraph(2, [("a", 0, 1), ("b", 0, 1)])
    assert g.adjacent_edges("a") == ("b",)
    assert set(g.edge_ids) == {"a", "b"}


def test_line_graph_degree_counts_parallels_once():
    # A fat triangle: every edge has 3 neighbours at one end sharing a
    # vertex plus 1 parallel edge counted once, never twice.
    g = MultiGraph(3, [(i, u, v) for i, (u, v) in enumerate(
        [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])])
    stats = degree_stats(g)
    assert stats.delta == 4
    assert stats.mu == 2
    assert stats.line_delta == 5
    assert len(g.adjacent_edges(0)) == 5


@given(multigraphs(max_n=5, max_e=12))
def test_dense_line_degree_counts_neighbours(g):
    # small vertex counts make parallel edges common
    want = max((len(g.adjacent_edges(eid)) for eid in g.edge_ids), default=0)
    assert degree_stats(g).line_delta == want


@given(multigraphs(max_n=7, max_e=10, mixed_ids=True), st.data())
def test_dense_components_and_line_order(g, data):
    # line_neighbours lists a live edge's neighbours in ascending order,
    # as the line graph of the live edges lists them (its pair ids sort in
    # edge order); components() agrees with MultiGraph's
    d = g.dense()
    live_ids = [eid for eid in g.edge_ids if data.draw(st.booleans())]
    live = sum(1 << g.index[eid] for eid in live_ids)
    sub = g.restrict_edges(live_ids)
    comps = d.components(live)
    assert [tuple(g.ids[i] for i in range(len(g.ids)) if comp >> i & 1)
            for comp in comps] == [eids for _, eids in sub.components()]
    lg = line_graph(sub)
    for j, (eid, _, _) in enumerate(sub.edges):
        assert [g.ids[i] for i in d.line_neighbours(g.index[eid], live)] == \
            [sub.edges[w][0] for _, w in lg.incident(j)]


def _error(build) -> str:
    with pytest.raises(InputError) as info:
        build()
    return str(info.value)


@given(multigraphs(max_n=6, max_e=12, mixed_ids=True), st.data())
def test_index_form_answers_as_the_id_keyed_graph(g, data):
    # small vertex counts make parallel edges common; ids are ints and
    # strs in an order unlike edge order
    ref = IdKeyedMultiGraph(g.n, g.edges)
    assert g.to_json_obj() == ref.to_json_obj()
    assert g.edge_ids == ref.edge_ids
    assert (g.delta(), g.mu()) == (ref.delta(), ref.mu())
    for v in range(g.n):
        assert g.incident(v) == ref.incident(v)
        assert g.degree(v) == ref.degree(v)
    for eid in g.edge_ids:
        assert g.has_edge(eid)
        assert g.endpoints(eid) == ref.endpoints(eid)
        assert g.adjacent_edges(eid) == ref.adjacent_edges(eid)
    assert g.components() == ref.components()
    assert g.is_connected() == ref.is_connected()
    some = [eid for eid in g.edge_ids if data.draw(st.booleans())]
    assert g.delete_edges(some).to_json_obj() == \
        ref.delete_edges(some).to_json_obj()
    assert g.restrict_edges(some).to_json_obj() == \
        ref.restrict_edges(some).to_json_obj()

    unknown = data.draw(st.sampled_from([99, "99", "x"]))
    assert not g.has_edge(unknown)
    for graph_call in (lambda h: h.endpoints(unknown),
                       lambda h: h.adjacent_edges(unknown),
                       lambda h: h.delete_edges([unknown]),
                       lambda h: h.restrict_edges(some + [unknown])):
        assert _error(lambda: graph_call(g)) == _error(lambda: graph_call(ref))

    # one bad edge, anywhere in the list: a repeated id, a loop or an
    # endpoint out of range
    edges = list(g.edges)
    u = data.draw(st.integers(0, g.n - 1))
    v = (u + 1) % g.n
    bad = data.draw(st.sampled_from(
        [("dup", u, v), ("loop", u, u), ("low", -1, v), ("high", u, g.n)]))
    if bad[0] == "dup":
        if not edges:
            return
        bad = (data.draw(st.sampled_from(g.edge_ids)), u, v)
    edges.insert(data.draw(st.integers(0, len(edges))), bad)
    assert _error(lambda: MultiGraph(g.n, edges)) == \
        _error(lambda: IdKeyedMultiGraph(g.n, edges))


def test_dense_form_holds_no_second_copy_of_the_graph():
    # edges sort by id: 1, 2, "a", "d"
    g = MultiGraph(4, [("a", 0, 1), (1, 0, 1), (2, 1, 2), ("d", 2, 3)])
    d = g.dense()
    assert set(DenseForm.__slots__) == {"at_vertex", "adjacent"}
    assert d.at_vertex == (0b0101, 0b0111, 0b1010, 0b1000)


def test_no_library_module_uses_the_pair_view():
    # the engines read the graph's index arrays; ``incident`` builds its
    # (id, other end) pairs on every call
    for path in sorted(pathlib.Path(edgeext.__file__).parent.glob("*.py")):
        assert ".incident(" not in path.read_text(), path.name


def test_only_core_orders_edges_by_id():
    # a graph's edges are in id order, so the engines break ties by index;
    # outside core, only a caller's own collection of ids gets sorted
    allowed = {"check_rotation", "kernel_brute"}
    for path in sorted(pathlib.Path(edgeext.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.parse(path.read_text()).body:
            uses = any(isinstance(name, ast.Name) and name.id == "_id_sort_key"
                       for name in ast.walk(node))
            assert not uses or getattr(node, "name", None) in allowed, \
                (path.name, node.lineno)


def _answer(run, g):
    try:
        return run(g)
    except InputError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(multigraphs(max_n=7, max_e=10, max_degree=3, mixed_ids=True),
       st.data())
def test_listing_order_changes_no_answer(g, data):
    # the same triples in another order make the same graph, so every
    # engine gives the same answer: ties fall by edge id, not by listing
    shuffled = MultiGraph(g.n, data.draw(st.permutations(g.edges)))
    assert shuffled.to_json_obj() == g.to_json_obj()
    palette = Palette(g.delta() + 1)
    m = {}
    free = [True] * g.n
    for eid, u, v in g.edges:
        if free[u] and free[v] and data.draw(st.booleans()):
            m[eid] = data.draw(st.sampled_from(palette.colours))
            free[u] = free[v] = False
    for run in (lambda h: exact.extend(h, m, palette),
                exact.vizing_colour,
                lambda h: gallai.extend_subcubic(h, m),
                lambda h: gallai.extend_gallai(h, m, 1),
                lambda h: kernels.extend_bipartite(h, None, m, 1),
                lambda h: planar.extend_planar(h, m, planar.VARIANT_MATCHING)):
        assert _answer(run, shuffled) == _answer(run, g)


def test_delete_and_restrict_keep_ids():
    g = MultiGraph(4, [(7, 0, 1), (3, 1, 2), (9, 2, 3)])
    h = g.delete_edges([3])
    assert set(h.edge_ids) == {7, 9}
    assert h.endpoints(9) == (2, 3)
    k = g.restrict_edges([3])
    assert set(k.edge_ids) == {3}
    with pytest.raises(InputError):
        g.delete_edges([42])


def test_components_ignore_isolated_vertices():
    g = MultiGraph(5, [(0, 0, 1), (1, 3, 4)])
    comps = g.components()
    assert len(comps) == 2
    assert g.is_connected() is False
    assert MultiGraph(3, [(0, 0, 1)]).is_connected() is True


def test_json_round_trip():
    g = MultiGraph(3, [(0, 0, 1), (1, 1, 2)])
    text = json.dumps(g.to_json_obj())
    h = MultiGraph.from_json(text)
    assert h.n == g.n and h.edges == g.edges


def test_from_json_rejects_garbage():
    with pytest.raises(InputError):
        MultiGraph.from_json("not json")
    with pytest.raises(InputError):
        MultiGraph.from_json('{"edges": []}')


def test_from_json_rejects_ids_sharing_a_json_key():
    # colourings key edges by str(id): 0 and "0" would share one entry
    obj = {"n": 3, "edges": [[0, 0, 1], ["0", 1, 2], [2, 2, 0]]}
    with pytest.raises(InputError, match="share one JSON key"):
        MultiGraph.from_json_obj(obj)
    obj["edges"][1][0] = "1"
    assert MultiGraph.from_json_obj(obj).ids == (0, 2, "1")


def test_edge_distance_small_cases():
    # path with 3 edges: consecutive edges are adjacent (distance 1),
    # the two pendants are at distance 2.
    g = edges_path(4)
    ids = list(g.edge_ids)
    assert edge_distance(g, ids[0], ids[0]) == 0
    assert edge_distance(g, ids[0], ids[1]) == 1
    assert edge_distance(g, ids[0], ids[2]) == 2


def test_edge_distance_infinite_across_components():
    g = MultiGraph(4, [(0, 0, 1), (1, 2, 3)])
    assert edge_distance(g, 0, 1) == INFINITE_DISTANCE


def test_distance_matching_predicate():
    g = edges_path(5)
    ids = list(g.edge_ids)
    assert is_distance_matching(g, [ids[0], ids[2]], 1)
    assert not is_distance_matching(g, [ids[0], ids[1]], 1)
    assert not is_distance_matching(g, [ids[0], ids[2]], 2)
    assert is_distance_matching(g, [ids[0], ids[3]], 2)
    assert is_distance_matching(g, [], 3)


def _pairwise_distance_matching(g, ids, t):
    # the check before it searched balls: one line-graph search per pair
    id_list = list(ids)
    for i, e in enumerate(id_list):
        for f in id_list[i + 1:]:
            if edge_distance(g, e, f) <= t:
                return False
    return True


def test_distance_matching_agrees_with_pairwise_distances():
    rng = random.Random(3)
    for _ in range(3000):
        n = rng.randint(2, 9)
        ends = [(rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(1, 12))]
        g = MultiGraph(n, [(i if rng.random() < 0.8 else f"e{i}", u, v)
                           for i, (u, v) in enumerate(ends) if u != v])
        ids = list(g.edge_ids)
        chosen = rng.sample(ids, rng.randint(0, min(5, len(ids))))
        if chosen and rng.random() < 0.1:
            chosen.append(chosen[0])
        t = rng.randint(-1, 4)
        assert (is_distance_matching(g, chosen, t)
                == _pairwise_distance_matching(g, chosen, t)), (g.edges,
                                                                chosen, t)


def test_distance_matching_rejects_unknown_ids_up_front():
    g = edges_path(5)
    for ids in ([42], [0, 1, 42], [42, 0]):
        with pytest.raises(InputError):
            is_distance_matching(g, ids, 1)
    assert not is_distance_matching(g, [0, 0], 0)   # a repeat is at 0
    assert is_distance_matching(g, [0, 1, 2, 3], 0)


@given(multigraphs())
def test_edge_distance_matches_line_graph_bfs(g):
    # Oracle: plain BFS over an explicitly built line graph.
    adj = {eid: g.adjacent_edges(eid) for eid in g.edge_ids}
    ids = list(g.edge_ids)
    if not ids:
        return
    start = ids[0]
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for e in frontier:
            for f in adj[e]:
                if f not in dist:
                    dist[f] = dist[e] + 1
                    nxt.append(f)
        frontier = nxt
    for f in ids:
        expect = dist.get(f, INFINITE_DISTANCE)
        assert edge_distance(g, start, f) == expect


@given(multigraphs(max_e=7))
def test_line_graph_shape(g):
    lg = line_graph(g)
    assert lg.n == len(g.edges)
    # simple, and degrees equal neighbour counts in the original
    assert lg.mu() <= 1
    index = {eid: i for i, (eid, _, _) in enumerate(g.edges)}
    for eid, _, _ in g.edges:
        assert lg.degree(index[eid]) == len(g.adjacent_edges(eid))


def test_cycle_construction():
    g = edges_cycle(5)
    assert len(g.edges) == 5
    assert all(g.degree(v) == 2 for v in range(5))
    assert g.mu() == 1
