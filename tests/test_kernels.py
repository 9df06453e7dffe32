import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from edgeext import exact
from edgeext.core import InputError, MultiGraph, edges_cycle, edges_path
from edgeext.colouring import Palette, is_proper
from edgeext.exact import BUDGET, SOLVED, UNSOLVABLE
from edgeext import kernels
from edgeext.kernels import (EXACT_FALLBACK, KERNEL, extend_bipartite,
                             extend_shannon, find_bipartition, galvin_orient,
                             is_kernel, kernel, kernel_brute, konig_colour,
                             list_colour_bipartite, prepare_bipartite,
                             prepare_shannon)

from conftest import (admissible_precolouring, bipartite_multigraphs,
                      multigraphs)


def test_find_bipartition_basic():
    g = edges_path(4)
    side = find_bipartition(g)
    for _, u, v in g.edges:
        assert side[u] != side[v]


def test_find_bipartition_rejects_odd_cycle():
    with pytest.raises(InputError):
        find_bipartition(edges_cycle(5))


@given(bipartite_multigraphs())
def test_konig_uses_delta_colours(g):
    side = find_bipartition(g)
    colouring = konig_colour(g, side)
    assert set(colouring) == set(g.edge_ids)
    assert is_proper(g, colouring)
    if g.edges:
        assert max(colouring.values()) <= g.delta()


def test_konig_flips_chains_through_the_fans_routine(monkeypatch):
    # edge 3 = (0, 4) finds colour 1 at 0 and colour 2 at 4, so no colour
    # is free at both ends: the 2/1 chain from 4, where 1 is missing, is
    # flipped by the routine vizing_colour's fans use
    g = MultiGraph(5, [(0, 1, 2), (1, 0, 3), (2, 1, 4), (3, 0, 4)])
    flips, flip = [], exact._flip_chain

    def recording(ends, incidence, col, at, start, a, b, anchor):
        flips.append((start, a, b, anchor))
        return flip(ends, incidence, col, at, start, a, b, anchor)

    monkeypatch.setattr(exact, "_flip_chain", recording)
    assert kernels._konig(g, range(4), 2) == [2, 1, 1, 2]
    assert flips == [(4, 1, 2, 0)]


@settings(max_examples=200)
@given(bipartite_multigraphs(max_e=12), st.data())
def test_konig_on_an_edge_subset_colours_the_subgraph(g, data):
    # the form the kernel runs use: the uncoloured edges in index order,
    # within their own Delta
    subset = data.draw(st.sets(st.sampled_from(range(len(g.ids))))
                       if g.ids else st.just(set()))
    h = g.restrict_edges(g.ids[i] for i in subset)
    phi = kernels._konig(g, sorted(subset), h.delta())
    want = oracles.konig_colour(h)
    assert phi == [want.get(eid, 0) for eid in g.ids]


def test_galvin_orientation_star():
    # K_{1,3} with centre on the X side; arcs follow descending colour
    # at the shared X-vertex, so out-degrees are 2, 1, 0.
    g = MultiGraph(4, [(0, 0, 1), (1, 0, 2), (2, 0, 3)])
    side = {0: "X", 1: "Y", 2: "Y", 3: "Y"}
    orient = galvin_orient(g, side, {0: 1, 1: 2, 2: 3})
    assert orient.out_degree(0) == 0
    assert orient.out_degree(1) == 1
    assert orient.out_degree(2) == 2
    assert orient.has_arc(2, 0) and not orient.has_arc(0, 2)


def test_galvin_orientation_rejects_improper_base():
    g = MultiGraph(4, [(0, 0, 1), (1, 0, 2), (2, 0, 3)])
    side = {0: "X", 1: "Y", 2: "Y", 3: "Y"}
    with pytest.raises(InputError):
        galvin_orient(g, side, {0: 1, 1: 1, 2: 2})


@given(bipartite_multigraphs(max_side=3, max_e=6))
def test_galvin_orientation_finds_a_bipartition_without_checking_it(g):
    side = find_bipartition(g)
    phi = konig_colour(g, side)
    given_side = galvin_orient(g, side, phi)
    with mock.patch.object(kernels, "check_bipartition",
                           side_effect=AssertionError("checked again")):
        found = galvin_orient(g, None, phi)
    assert (found.side_of, found.base_colouring, found.dense.arcs) == (
        given_side.side_of, given_side.base_colouring, given_side.dense.arcs)


@given(bipartite_multigraphs(max_side=3, max_e=6))
def test_galvin_out_degree_bound(g):
    if not g.edges:
        return
    side = find_bipartition(g)
    orient = galvin_orient(g, side, konig_colour(g, side))
    bound = g.delta() - 1
    for eid in g.edge_ids:
        assert orient.out_degree(eid) <= bound


@settings(max_examples=40)
@given(bipartite_multigraphs(max_side=3, max_e=5))
def test_every_induced_subdigraph_has_kernel(g):
    # brute-force oracle over all active subsets
    if not g.edges:
        return
    side = find_bipartition(g)
    orient = galvin_orient(g, side, konig_colour(g, side))
    ids = list(g.edge_ids)
    for r in range(len(ids) + 1):
        for sub in itertools.combinations(ids, r):
            active = set(sub)
            brute = kernel_brute(orient, active)
            assert brute is not None
            assert is_kernel(orient, active, brute)
            fast = kernel(orient, active)
            assert is_kernel(orient, active, fast)


def test_kernel_is_deterministic():
    g = MultiGraph(4, [(0, 0, 2), (1, 0, 3), (2, 1, 2), (3, 1, 3)])
    side = find_bipartition(g)
    orient = galvin_orient(g, side, konig_colour(g, side))
    active = set(g.edge_ids)
    assert kernel(orient, active) == kernel(orient, active)


@settings(max_examples=60)
@given(bipartite_multigraphs(max_side=3, max_e=6), st.randoms())
def test_list_colour_bipartite_with_degree_lists(g, rnd):
    # degrees stay within the 6-colour pool because e <= 6
    if not g.edges:
        return
    lists = {}
    for eid, u, v in g.edges:
        size = max(g.degree(u), g.degree(v))
        pool = list(range(1, 7))
        rnd.shuffle(pool)
        lists[eid] = frozenset(pool[:size])
    out = list_colour_bipartite(g, None, lists)
    assert out.solved
    assert is_proper(g, out.colouring)
    for eid, c in out.colouring.items():
        assert c in lists[eid]


def test_list_colour_kernel_path_on_full_lists():
    # With |l(e)| >= Delta everywhere the kernel argument never stalls.
    g = MultiGraph(4, [(0, 0, 2), (1, 0, 3), (2, 1, 2), (3, 1, 3)])
    lists = {e: frozenset({1, 2}) for e in g.edge_ids}
    out = list_colour_bipartite(g, None, lists)
    assert out.solved and out.method == KERNEL


def test_a_stall_on_lists_meeting_galvins_bound_raises(monkeypatch):
    # A kernel finder that returns no edge stalls the kernel path.  Where
    # every list holds at least Delta colours, Galvin's theorem rules the
    # stall out, so it is a bug and no search may cover it.
    g = MultiGraph(4, [(0, 0, 2), (1, 0, 3), (2, 1, 2), (3, 1, 3)])
    monkeypatch.setattr(kernels, "_kernel", lambda o, active: 0)
    lists = {e: frozenset({1, 2}) for e in g.edge_ids}
    with pytest.raises(AssertionError, match="Galvin"):
        list_colour_bipartite(g, None, lists)
    with pytest.raises(AssertionError, match="Galvin"):
        extend_bipartite(g, None, {0: 1}, 1)


def test_list_colour_searches_once_from_scratch(monkeypatch):
    # Degree lists on which the kernel path stalls.  The colours it
    # committed leave the stalled edge's list empty, so the fallback is
    # one search of the whole instance, and the budget is all its own.
    g = MultiGraph(6, [(0, 1, 4), (1, 2, 3), (2, 1, 4), (3, 1, 5),
                       (4, 2, 5)])
    lists = {0: {1, 2, 3}, 1: {1, 3}, 2: {1, 2, 3}, 3: {1, 3, 4}, 4: {1, 3}}
    calls = []
    solve_list = exact.solve_list

    def counted(*args, **kwargs):
        out = solve_list(*args, **kwargs)
        calls.append((args, kwargs, out.status))
        return out

    monkeypatch.setattr(exact, "solve_list", counted)
    out = list_colour_bipartite(g, None, lists)
    assert (out.status, out.method, out.nodes, out.depth) == \
        (SOLVED, EXACT_FALLBACK, 5, 4)
    assert calls == [((g, lists, None), {}, SOLVED)]
    assert is_proper(g, out.colouring)
    calls.clear()
    out = list_colour_bipartite(g, None, lists, budget=0)
    assert (out.status, out.method, out.nodes) == (BUDGET, EXACT_FALLBACK, 1)
    assert [status for _, _, status in calls] == [BUDGET]
    assert list_colour_bipartite(g, None, lists, budget=5).solved
    out = list_colour_bipartite(g, None, lists, budget=4)
    assert (out.status, out.nodes) == (BUDGET, 5)


def test_list_colour_names_an_edge_without_a_list():
    g = edges_path(3)
    with pytest.raises(InputError, match="edge 1 has no colour list"):
        list_colour_bipartite(g, None, {0: {1, 2}})


@given(bipartite_multigraphs(max_side=3, max_e=7),
       st.integers(min_value=1, max_value=2), st.randoms())
def test_extend_bipartite_always_solves(g, k, rnd):
    palette = Palette(g.delta() + k)
    pre = {}
    ids = sorted(g.edge_ids)
    rnd.shuffle(ids)
    for eid in ids:
        for c in palette.colours:
            trial = dict(pre)
            trial[eid] = c
            u, v = g.endpoints(eid)
            from edgeext.colouring import precoloured_degree_vertex
            if is_proper(g, trial) and all(
                    precoloured_degree_vertex(g, trial, w) <= k
                    for w in (u, v)):
                pre = trial
                break
    out = extend_bipartite(g, None, pre, k)
    assert out.solved
    assert is_proper(g, out.colouring)
    for eid, c in pre.items():
        assert out.colouring[eid] == c


@given(multigraphs(max_n=5, max_e=8), st.randoms())
def test_extend_shannon_always_solves(g, rnd):
    k = 1
    palette = Palette((3 * g.delta() + k) // 2) if g.edges else Palette(1)
    pre = {}
    for eid in sorted(g.edge_ids):
        if rnd.random() < 0.4:
            continue
        for c in palette.colours:
            trial = dict(pre)
            trial[eid] = c
            u, v = g.endpoints(eid)
            from edgeext.colouring import precoloured_degree_vertex
            if is_proper(g, trial) and all(
                    precoloured_degree_vertex(g, trial, w) <= k
                    for w in (u, v)):
                pre = trial
                break
    out = extend_shannon(g, pre, k)
    assert out.solved
    assert is_proper(g, out.colouring)


def test_extend_bipartite_rejects_overloaded_vertex():
    g = MultiGraph(4, [(0, 0, 1), (1, 0, 2), (2, 0, 3)])
    with pytest.raises(InputError):
        extend_bipartite(g, None, {0: 1, 1: 2}, 1)


def test_extend_bipartite_rejects_a_side_that_splits_no_edge():
    g = MultiGraph(3, [(0, 0, 1), (1, 1, 2)])
    with pytest.raises(InputError):
        extend_bipartite(g, {0: "X", 1: "X", 2: "Y"}, {}, 1)


def test_extend_shannon_edgeless_rejects_unknown_edge():
    g = MultiGraph(2, [])
    with pytest.raises(InputError):
        extend_shannon(g, {5: 1}, 1)
    out = extend_shannon(g, {}, 1)
    assert out.solved and out.colouring == {}


def _outcome_key(out):
    return out.status, out.method, out.nodes, out.depth, out.colouring


@settings(max_examples=300)
@given(bipartite_multigraphs(max_side=3, max_e=8, max_mu=3, mixed_ids=True),
       st.integers(min_value=1, max_value=2), st.data())
def test_extend_bipartite_matches_id_keyed_oracle(g, k, data):
    # random precolouring within the bound: proper, at most k per vertex
    palette = Palette(g.delta() + k)
    pre = {}
    load = [0] * g.n
    for eid, u, v in g.edges:
        if load[u] == k or load[v] == k or not data.draw(st.booleans()):
            continue
        trial = dict(pre)
        trial[eid] = data.draw(st.sampled_from(palette.colours))
        if is_proper(g, trial):
            pre = trial
            load[u] += 1
            load[v] += 1
    side = find_bipartition(g)
    got = extend_bipartite(g, side, pre, k)
    want = oracles.extend_bipartite(g, side, pre, k)
    assert _outcome_key(got) == _outcome_key(want)


@settings(max_examples=200)
@given(bipartite_multigraphs(max_side=3, max_e=7, max_mu=3, mixed_ids=True),
       st.data())
def test_list_colour_and_kernels_match_id_keyed_oracle(g, data):
    side = find_bipartition(g)
    # lists from 1..4 of any size, so that the exact fallback and
    # unsolvable outcomes are both reached
    lists = {eid: data.draw(st.sets(st.integers(min_value=1, max_value=4)))
             for eid in g.edge_ids}
    budget = data.draw(st.sampled_from([None, 1, 5]))
    got = list_colour_bipartite(g, side, lists, budget=budget)
    want = oracles.list_colour_bipartite(g, side, lists, budget=budget)
    assert _outcome_key(got) == _outcome_key(want)

    phi = konig_colour(g, side)
    assert phi == oracles.konig_colour(g, side)
    orient = galvin_orient(g, side, phi)
    reference = oracles.galvin_orient(g, side, phi)
    assert orient.arcs == reference.arcs
    active = data.draw(st.sets(st.sampled_from(g.edge_ids))) \
        if g.edges else set()
    assert kernel(orient, active) == oracles.kernel(reference, active)


@settings(max_examples=200)
@given(bipartite_multigraphs(max_side=3, max_e=7, max_mu=3, mixed_ids=True),
       st.data())
def test_a_list_colour_fallback_is_solve_list_on_the_callers_lists(g, data):
    # lists from 1..4 of any size, so the kernel path often stalls
    lists = {eid: data.draw(st.sets(st.integers(min_value=1, max_value=4)))
             for eid in g.edge_ids}
    budget = data.draw(st.sampled_from([None, 0, 1, 5]))
    got = list_colour_bipartite(g, None, lists, budget)
    if got.method == EXACT_FALLBACK:
        want = exact.solve_list(g, lists, budget)
        assert (got.status, got.colouring, got.nodes, got.depth) == \
            (want.status, want.colouring, want.nodes, want.depth)


@settings(max_examples=300)
@given(multigraphs(max_n=6, max_e=8, max_mu=3, mixed_ids=True),
       st.integers(min_value=1, max_value=2), st.data())
def test_extend_shannon_matches_reduced_graph_oracle(g, k, data):
    # the uncoloured edges are bipartite or not, so both the kernel path
    # and the exact search are reached
    palette = Palette(max(1, (3 * g.delta() + k) // 2))
    pre = {}
    load = [0] * g.n
    for eid, u, v in g.edges:
        if load[u] == k or load[v] == k or not data.draw(st.booleans()):
            continue
        trial = dict(pre)
        trial[eid] = data.draw(st.sampled_from(palette.colours))
        if is_proper(g, trial):
            pre = trial
            load[u] += 1
            load[v] += 1
    got = extend_shannon(g, pre, k)
    want = oracles.extend_shannon(g, pre, k)
    assert _outcome_key(got) == _outcome_key(want)


def test_extend_shannon_returns_a_spent_budget():
    # the uncoloured triangle is not bipartite, so it is searched
    g = edges_cycle(3)
    out = extend_shannon(g, {}, 1, budget=1)
    assert (out.status, out.method, out.colouring) == \
        (BUDGET, EXACT_FALLBACK, None)
    assert extend_shannon(g, {}, 1, budget=3).solved


def _admissible(g, q, k, rnd):
    """Two precolourings of one edge set: a random admissible one (see
    ``admissible_precolouring``) and its image under a permutation of
    [q]."""
    pre = admissible_precolouring(g, q, k, rnd)
    perm = dict(zip(range(1, q + 1), rnd.sample(range(1, q + 1), q)))
    return [pre, {eid: perm[c] for eid, c in pre.items()}]


def _prepared_and_fresh(engine, g, rnd):
    """The prepared run of ``engine`` on g, its public extender on g, and
    each k's palette size."""
    if engine == "bipartite":
        side = rnd.choice([None, find_bipartition(g)])
        return (prepare_bipartite(g, side),
                lambda pre, k, budget: extend_bipartite(g, side, pre, k,
                                                        budget),
                lambda k: g.delta() + k)
    return (prepare_shannon(g),
            lambda pre, k, budget: extend_shannon(g, pre, k, budget),
            lambda k: (3 * g.delta() + k) // 2)


def _draw_graph(engine, data):
    if engine == "bipartite":
        return data.draw(bipartite_multigraphs(max_side=3, max_e=9,
                                               max_mu=3, mixed_ids=True))
    return data.draw(multigraphs(max_n=7, max_e=10, max_mu=3,
                                 mixed_ids=True))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["bipartite", "shannon"]), st.randoms(), st.data())
def test_a_prepared_run_answers_every_sequence_as_fresh_calls(engine, rnd,
                                                             data):
    # one run is fed precolourings of a few edge sets in an order that
    # returns to a set after others, with k mixed: a precolouring
    # admissible at its k stays admissible at any larger k
    g = _draw_graph(engine, data)
    run, fresh, q = _prepared_and_fresh(engine, g, rnd)
    pool = [(pre, k) for k in (1, 2, 1) for pre in _admissible(g, q(k), k,
                                                               rnd)]
    for _ in range(16):
        pre, least = rnd.choice(pool)
        k = rnd.randint(least, 3)
        budget = rnd.choice([None, None, 0, 3])
        assert _outcome_key(run(pre, k, budget)) == \
            _outcome_key(fresh(pre, k, budget))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["bipartite", "shannon"]), st.randoms(), st.data())
def test_prepared_runs_of_two_graphs_share_nothing(engine, rnd, data):
    # runs of two graphs alternate, on precolourings whose edge sets are
    # often the same ids (the empty set always is), and each answers for
    # its own graph alone
    graphs = [_draw_graph(engine, data) for _ in range(2)]
    both = [_prepared_and_fresh(engine, g, rnd) for g in graphs]
    pools = [[({}, 1)] + [(pre, k) for k in (1, 2)
                          for pre in _admissible(g, q(k), k, rnd)]
             for g, (_, _, q) in zip(graphs, both)]
    for step in range(16):
        (run, fresh, _), pool = both[step % 2], pools[step % 2]
        pre, least = rnd.choice(pool)
        k = rnd.randint(least, 2)
        assert _outcome_key(run(pre, k)) == _outcome_key(fresh(pre, k, None))


def _with_pendants(h, k, palette_size, rnd):
    """h, a star of Delta(h) + k edges, and up to k edges from each vertex
    of h to new leaves, precoloured from [q], q the palette size at the
    graph's Delta.  The star keeps the uncoloured edges' Delta the
    graph's own, while an edge of h loses its ends' precoloured colours,
    so its list often falls below that Delta.  Returns the graph, the
    precolouring and q."""
    delta = h.delta() + k
    q = palette_size(delta)
    edges = list(h.edges) + [(f"s{i}", h.n, h.n + 1 + i)
                             for i in range(delta)]
    n, pre = h.n + 1 + delta, {}
    for v in range(h.n):
        for c in rnd.sample(range(1, q + 1), rnd.randint(0, k)):
            pre[f"p{n}"] = c
            edges.append((f"p{n}", v, n))
            n += 1
    return MultiGraph(n, edges), pre, q


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["bipartite", "shannon"]), st.randoms(), st.data())
def test_a_stalled_prepared_run_answers_as_exact_extend(engine, rnd, data):
    # _kernel finds one real kernel per run and then none, so the path
    # stalls with that kernel's colour committed.  On lists below Galvin's
    # bound the run's one search is exact.extend on its own instance; on
    # lists meeting it the stall is a bug, and raises.
    k = rnd.randint(1, 2)
    if engine == "bipartite":
        g, pre, q = _with_pendants(_draw_graph(engine, data), k,
                                   lambda delta: delta + k, rnd)
        run = prepare_bipartite(g)
    else:
        g, pre, q = _with_pendants(_draw_graph(engine, data), k,
                                   lambda delta: (3 * delta + k) // 2, rnd)
        run = prepare_shannon(g)
    budget = rnd.choice([None, None, 0, 3])
    find, found = kernels._kernel, []

    def first_only(o, active):
        found.append(active)
        return find(o, active) if len(found) == 1 else 0

    with mock.patch.object(kernels, "_kernel", first_only):
        try:
            got = run(pre, k, budget)
        except AssertionError as error:
            assert "Galvin" in str(error)
            return
    if got.method == KERNEL:        # one kernel coloured every edge
        assert len(found) == 1
        return
    want = exact.extend(g, pre, Palette(q), budget)
    assert (got.status, got.method, got.colouring, got.nodes, got.depth) == \
        (want.status, EXACT_FALLBACK, want.colouring, want.nodes, want.depth)


def test_a_run_builds_one_orientation_per_edge_set(monkeypatch):
    # precolourings of one set in a row share its orientation and its
    # kernels; a new set builds its own, and a set seen before is built
    # again only once another came between
    built, found = [], []
    orientation, find = kernels._Orientation, kernels._kernel

    def counted_orientation(*args):
        built.append(args[1])
        return orientation(*args)

    def counted_kernel(o, active):
        found.append(active)
        return find(o, active)

    monkeypatch.setattr(kernels, "_Orientation", counted_orientation)
    monkeypatch.setattr(kernels, "_kernel", counted_kernel)
    g = MultiGraph(4, [(0, 0, 2), (1, 0, 3), (2, 1, 2), (3, 1, 3)])
    run = prepare_bipartite(g)
    for pre in ({0: 1}, {0: 2}, {0: 3}, {0: 1}):
        assert run(pre, 1).solved
    assert built == [[1, 2, 3]]
    assert len(found) == len(set(found))
    for pre in ({3: 1}, {0: 1}):
        assert run(pre, 1).solved
    assert built == [[1, 2, 3], [0, 1, 2], [1, 2, 3]]
