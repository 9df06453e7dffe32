import itertools

import pytest
from hypothesis import given, settings, strategies as st

from edgeext.core import (InputError, MultiGraph, degree_stats, edges_cycle,
                          edges_path, line_graph)
from edgeext.colouring import Palette, is_proper, precoloured_degree_vertex
from edgeext.exact import BUDGET, extend as exact_extend
from edgeext.gallai import (BudgetSpent, ExceptionReport, GallaiCertificate,
                            ODD_CYCLE_K0, TRIANGLE_MULTIPLICITY,
                            block_decompose, degree_list_colour,
                            exception_shape, extend_gallai, extend_subcubic,
                            solve_vertex_lists)

import oracles
from conftest import multigraphs, prism


def fat_triangle(m1, m2, m3):
    edges = []
    for count, (u, v) in ((m1, (0, 1)), (m2, (1, 2)), (m3, (0, 2))):
        for _ in range(count):
            edges.append((len(edges), u, v))
    return MultiGraph(3, edges)


# -- block decomposition -------------------------------------------------

def test_blocks_of_a_path_are_edges():
    g = edges_path(4)
    dec = block_decompose(g)
    assert len(dec.blocks) == 3
    assert all(len(eids) == 1 for eids in dec.block_edges)
    assert dec.cut_vertices == {1, 2}


def test_blocks_of_two_triangles_sharing_a_vertex():
    g = MultiGraph(5, [(0, 0, 1), (1, 1, 2), (2, 0, 2),
                       (3, 2, 3), (4, 3, 4), (5, 2, 4)])
    dec = block_decompose(g)
    assert len(dec.blocks) == 2
    assert dec.cut_vertices == {2}


def test_parallel_edges_form_one_block():
    g = MultiGraph(3, [(0, 0, 1), (1, 0, 1), (2, 1, 2)])
    dec = block_decompose(g)
    assert len(dec.blocks) == 2
    assert dec.cut_vertices == {1}


@given(multigraphs(max_n=6, max_e=9))
def test_blocks_partition_edges(g):
    dec = block_decompose(g)
    seen = [eid for eids in dec.block_edges for eid in eids]
    assert sorted(seen, key=str) == sorted(g.edge_ids, key=str)
    assert len(seen) == len(set(seen))


def test_gallai_tree_recognition():
    assert oracles.is_gallai_tree(edges_cycle(5))
    assert not oracles.is_gallai_tree(edges_cycle(4))
    assert oracles.is_gallai_tree(edges_path(4))
    # K4 is complete, hence a (single-block) Gallai tree
    k4 = MultiGraph(4, [(i, u, v) for i, (u, v) in
                        enumerate(itertools.combinations(range(4), 2))])
    assert oracles.is_gallai_tree(k4)


# -- degree-list colouring ----------------------------------------------

def brute_vertex_colourable(g, lists):
    verts = sorted(lists)
    for combo in itertools.product(*[sorted(lists[v]) for v in verts]):
        col = dict(zip(verts, combo))
        if all(col[u] != col[v] for _, u, v in g.edges):
            return True
    return False


@settings(max_examples=60)
@given(multigraphs(max_n=5, max_e=7, max_mu=1), st.data())
def test_solve_vertex_lists_agrees_with_brute_force(g, data):
    lists = {}
    for v in range(g.n):
        size = data.draw(st.integers(min_value=1, max_value=3))
        lists[v] = set(data.draw(st.sets(
            st.integers(min_value=1, max_value=5),
            min_size=size, max_size=size)))
    got = solve_vertex_lists(g, lists)
    assert (got is not None) == brute_vertex_colourable(g, lists)
    if got is not None:
        assert all(got[u] != got[v] for _, u, v in g.edges)
        assert all(got[v] in lists[v] for v in lists)


def test_solve_vertex_lists_keeps_bars_on_backtrack():
    # Undoing a colour must not lift a bar that another coloured neighbour
    # still imposes; this instance used to come back with vertices 0 and 3
    # both coloured 2.
    pairs = [(0, 2), (0, 3), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (3, 5)]
    g = MultiGraph(6, [(i, u, v) for i, (u, v) in enumerate(pairs)])
    lists = {0: {2, 4}, 1: {2, 3}, 2: {3, 4}, 3: {2, 3, 4}, 4: {2, 3, 4},
             5: {3, 4}}
    assert brute_vertex_colourable(g, lists)
    got = solve_vertex_lists(g, lists)
    assert got is not None
    assert all(got[u] != got[v] for _, u, v in g.edges)
    assert all(got[v] in lists[v] for v in lists)


@settings(max_examples=80)
@given(multigraphs(max_n=6, max_e=8, max_mu=1), st.data())
def test_degree_list_colour_on_degree_lists(g, data):
    # lists of size degree + surplus: with surplus 1 a colouring always
    # exists; with surplus 0 a certificate may be returned instead, and it
    # must then name a tight Gallai tree.
    if not g.is_connected():
        return
    surplus = data.draw(st.integers(min_value=0, max_value=1))
    lists = {}
    for v in range(g.n):
        base = data.draw(st.integers(min_value=1, max_value=3))
        lists[v] = set(range(base, base + max(1, g.degree(v) + surplus)))
    result = degree_list_colour(g, lists)
    if isinstance(result, GallaiCertificate):
        assert surplus == 0
        assert result.is_gallai_tree
    else:
        assert all(result[u] != result[v] for _, u, v in g.edges)
        assert all(result[v] in lists[v] for v in lists)
        assert set(result) == set(lists)


def test_degree_list_colour_odd_cycle_tight_is_certificate():
    g = edges_cycle(5)
    lists = {v: {1, 2} for v in range(5)}
    result = degree_list_colour(g, lists)
    assert isinstance(result, GallaiCertificate)


def test_degree_list_colour_even_cycle_tight_succeeds():
    g = edges_cycle(6)
    lists = {v: {1, 2} for v in range(6)}
    result = degree_list_colour(g, lists)
    assert not isinstance(result, GallaiCertificate)


def test_degree_list_colour_repairs_a_tight_diamond(monkeypatch):
    # the diamond is one block, neither complete nor an odd cycle, and
    # every list is tight: the repair colours the non-adjacent 2 and 3
    # alike, which leaves 0 a spare colour, and greedy colouring finishes
    from edgeext import gallai
    g = MultiGraph(4, [(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 1, 2),
                       (4, 1, 3)])
    lists = {0: {1, 2, 3}, 1: {1, 2, 3}, 2: {1, 2}, 3: {1, 2}}
    repaired = []
    repair = gallai._repair

    def recording(*args):
        repaired.append(repair(*args))
        return repaired[-1]

    def unreachable(*args):
        raise AssertionError("the repair should have coloured the diamond")

    monkeypatch.setattr(gallai, "_repair", recording)
    monkeypatch.setattr(gallai, "_search", unreachable)
    assert degree_list_colour(g, lists) == {2: 1, 3: 1, 1: 2, 0: 3}
    assert repaired == [{2: 1, 3: 1, 1: 2, 0: 3}]


def test_degree_list_colour_names_an_isolated_vertex_without_colours():
    g = MultiGraph(3, [(0, 0, 1)])
    with pytest.raises(InputError, match="vertex 2 has an empty colour list"):
        degree_list_colour(g, {0: {1}, 1: {1, 2}, 2: set()})


def test_degree_list_colour_names_a_list_key_that_is_no_vertex():
    g = MultiGraph(3, [(0, 0, 1)])
    for key in (7, -1):
        with pytest.raises(InputError, match=f"list key {key} is not a vertex"):
            degree_list_colour(g, {0: {1, 2}, 1: {2}, 2: {1}, key: {1}})


# -- exceptional shapes --------------------------------------------------

def test_exception_shapes_detected():
    assert exception_shape(edges_cycle(5), 0).kind == ODD_CYCLE_K0
    assert exception_shape(edges_cycle(7), 0).kind == ODD_CYCLE_K0
    assert exception_shape(edges_cycle(4), 0) is None
    assert exception_shape(edges_cycle(5), 1) is None
    rep = exception_shape(fat_triangle(2, 2, 2), 1)
    assert rep.kind == TRIANGLE_MULTIPLICITY
    assert exception_shape(fat_triangle(2, 2, 2), 2) is None
    # the simple triangle at k=0 matches both shapes; either name is fine
    assert exception_shape(fat_triangle(1, 1, 1), 0).kind in (
        ODD_CYCLE_K0, TRIANGLE_MULTIPLICITY)
    assert exception_shape(fat_triangle(3, 2, 2), 1).kind == \
        TRIANGLE_MULTIPLICITY


def test_exception_shapes_really_fail():
    # the reported shapes are unsolvable for every admissible precolouring
    for g, k in [(edges_cycle(5), 0), (fat_triangle(2, 2, 2), 1),
                 (fat_triangle(3, 2, 2), 1)]:
        palette = Palette(g.delta() + k)
        assert not exact_extend(g, {}, palette).solved


def test_extend_gallai_returns_exceptions():
    out = extend_gallai(edges_cycle(5), {}, 0)
    assert isinstance(out, ExceptionReport) and out.kind == ODD_CYCLE_K0
    out = extend_gallai(fat_triangle(2, 2, 2), {}, 1)
    assert isinstance(out, ExceptionReport)
    assert out.kind == TRIANGLE_MULTIPLICITY


def test_extend_gallai_validates_input():
    g = edges_cycle(5)
    with pytest.raises(InputError):
        extend_gallai(g, {0: 1, 1: 1}, 1)        # improper
    with pytest.raises(InputError):
        extend_gallai(g, {0: 1, 1: 2}, 0)        # precoloured degree > k
    with pytest.raises(InputError):
        extend_gallai(MultiGraph(4, [(0, 0, 1), (1, 2, 3)]), {}, 1)


@settings(max_examples=80)
@given(multigraphs(max_n=5, max_e=8), st.randoms())
def test_extend_gallai_matches_exact(g, rnd):
    if not g.edges or not g.is_connected():
        return
    stats = degree_stats(g)
    for k in (0, 1, 2):
        if stats.line_delta > stats.delta + k:
            continue
        palette = Palette(stats.delta + k)
        pre = {}
        for eid in sorted(g.edge_ids):
            if rnd.random() < 0.5:
                continue
            for c in palette.colours:
                trial = dict(pre)
                trial[eid] = c
                u, v = g.endpoints(eid)
                if is_proper(g, trial) and all(
                        precoloured_degree_vertex(g, trial, w) <= k
                        for w in (u, v)):
                    pre = trial
                    break
        out = extend_gallai(g, pre, k)
        if isinstance(out, ExceptionReport):
            assert not exact_extend(g, pre, palette).solved
        else:
            assert out.solved
            assert is_proper(g, out.colouring)
            for eid, c in pre.items():
                assert out.colouring[eid] == c


# -- subcubic ------------------------------------------------------------

@settings(max_examples=80)
@given(multigraphs(max_n=7, max_e=10, max_degree=3), st.randoms())
def test_extend_subcubic_always_solves(g, rnd):
    palette = Palette(4)
    pre = {}
    ids = sorted(g.edge_ids)
    rnd.shuffle(ids)
    chosen = []
    for eid in ids:
        u, v = g.endpoints(eid)
        if any(set(g.endpoints(f)) & {u, v} for f in chosen):
            continue
        chosen.append(eid)
        pre[eid] = rnd.randrange(1, 5)
    out = extend_subcubic(g, pre)
    assert out.solved
    assert is_proper(g, out.colouring)
    assert set(out.colouring) == set(g.edge_ids)


def test_extend_subcubic_rejects_high_degree():
    g = MultiGraph(5, [(i, 0, i + 1) for i in range(4)])
    with pytest.raises(InputError):
        extend_subcubic(g, {})


def test_extend_subcubic_rejects_non_matching():
    g = edges_path(4)
    with pytest.raises(InputError):
        extend_subcubic(g, {0: 1, 1: 2})


def _k4_tight():
    # K4 with two precoloured edges: the reduced line graph is a tight
    # 4-cycle of equal lists, so the component goes to search, which
    # needs one node per vertex.
    pairs = [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (1, 2)]
    g = MultiGraph(4, [(i, u, v) for i, (u, v) in enumerate(pairs)])
    return g, {0: 1, 3: 2}


def test_subcubic_extender_checks_its_own_colouring(monkeypatch):
    # ``verify`` no longer re-checks what the extender returns, so a
    # colouring with a clash must raise inside the extender, whether the
    # greedy pass (a list with slack) or the search (every list tight)
    # made it
    from edgeext import exact, gallai
    from edgeext.instances import verify
    greedy, solve_list = gallai._greedy, exact.solve_list

    def clashing_greedy(nmask, lists, order, colouring):
        done = greedy(nmask, lists, order, colouring)
        for i, j in itertools.permutations(colouring, 2):
            if nmask[i] >> j & 1:
                colouring[j] = colouring[i]
                break
        return done

    def clashing_search(g, lists, budget=None, fixed=None):
        out = solve_list(g, lists, budget, fixed)
        for (e, u, v), (f, x, y) in itertools.combinations(g.edges, 2):
            if {u, v} & {x, y}:
                out.colouring[f] = out.colouring[e]
                break
        return out

    with monkeypatch.context() as patch:
        patch.setattr(gallai, "_greedy", clashing_greedy)
        with pytest.raises(AssertionError, match="improper"):
            extend_subcubic(edges_path(4), {})
        with pytest.raises(AssertionError, match="improper"):
            verify("subcubic-matching-extension", max_n=4, max_e=4, max_mu=2)
    with monkeypatch.context() as patch:
        patch.setattr(exact, "solve_list", clashing_search)
        with pytest.raises(AssertionError, match="improper"):
            extend_subcubic(*_k4_tight())
        with pytest.raises(AssertionError, match="improper"):
            verify("subcubic-matching-extension", max_n=4, max_e=6, max_mu=2)


def test_engines_reach_no_gallai_search_block_test_or_repair(monkeypatch):
    # the engines colour greedily or through exact.solve_list; gallai's
    # own search, block test and repair serve the id-keyed facade only
    from edgeext import gallai
    from edgeext.instances import verify

    def unreachable(*args, **kwargs):
        raise AssertionError("an engine reached a facade-only helper")

    for name in ("_search", "_degree_colour", "_repair", "_blocks"):
        monkeypatch.setattr(gallai, name, unreachable)

    @settings(max_examples=100)
    @given(multigraphs(max_n=7, max_e=10, max_degree=3), st.data())
    def extenders_solve(g, data):
        assert extend_subcubic(g, _precolouring(g, data, Palette(4), 1)
                               ).solved
        k = data.draw(st.integers(min_value=0, max_value=2))
        if g.edges and g.is_connected() and \
                degree_stats(g).line_delta <= g.delta() + k:
            pre = _precolouring(g, data, Palette(g.delta() + k), k)
            out = extend_gallai(g, pre, k)
            assert isinstance(out, ExceptionReport) or out.solved

    extenders_solve()
    assert verify("subcubic-matching-extension", max_n=8, max_e=8,
                  max_mu=3, delta_max=3).ok
    assert verify("line-degree-extension", max_n=6, max_e=6, max_mu=3,
                  max_k=2).ok


def test_extend_subcubic_searches_tight_rims_through_solve_list(monkeypatch):
    # each 1,001-edge rim is a tight odd cycle; the extender hands each to
    # exact.solve_list, whose first descent colours it in one node per edge
    from edgeext import exact
    calls = []
    solve_list = exact.solve_list

    def counted(*args, **kwargs):
        calls.append(args[0])
        return solve_list(*args, **kwargs)

    monkeypatch.setattr(exact, "solve_list", counted)
    out = extend_subcubic(*prism(1001))
    assert out.solved and out.nodes == 2002
    assert [len(sub.edges) for sub in calls] == [1001, 1001]


def test_gallai_extenders_honour_budget():
    g, pre = _k4_tight()
    spent = extend_subcubic(g, pre, budget=3)
    assert spent.status == BUDGET and spent.nodes == 4
    assert spent.colouring is None
    assert extend_gallai(g, pre, 1, budget=1).status == BUDGET
    for out in (extend_subcubic(g, pre, budget=4),
                extend_gallai(g, pre, 1, budget=4),
                extend_subcubic(g, pre)):
        assert out.solved and is_proper(g, out.colouring)
        assert len(out.colouring) == 6


def test_extend_subcubic_colours_a_long_tight_cycle():
    # each 1,001-edge rim is a tight Gallai tree whose search used to
    # recurse once per edge and raise RecursionError
    g, pre = prism(1001)
    out = extend_subcubic(g, pre)
    assert out.solved and is_proper(g, out.colouring)
    assert len(out.colouring) == len(g.edges) == 3003
    assert all(out.colouring[eid] == c for eid, c in pre.items())
    assert set(out.colouring.values()) <= {1, 2, 3, 4}


def test_extend_subcubic_reports_its_search_nodes():
    # each 101-edge rim is a tight odd cycle that only search colours
    g, pre = prism(101)
    out = extend_subcubic(g, pre)
    assert out.solved and out.nodes > 0


# -- agreement with the id-keyed pipeline -----------------------------------

BUDGETS = st.sampled_from([None, 1, 3, 10])


def _outcome(fn, *args, **kwargs):
    """What a call returns or raises, in a form two pipelines can share."""
    try:
        out = fn(*args, **kwargs)
    except InputError:
        return "input-error"
    except BudgetSpent as spent:
        return ("budget-spent", spent.nodes)
    if isinstance(out, ExceptionReport):
        return ("exception", out.kind, out.data)
    if isinstance(out, GallaiCertificate):
        return ("certificate", out.is_gallai_tree)
    if isinstance(out, dict) or out is None:
        return out
    return (out.status, out.method, out.nodes, out.colouring)


def _precolouring(g, data, palette, load):
    """A proper precolouring from the palette with at most ``load`` edges
    at any vertex, drawn edge by edge in a drawn order."""
    pre = {}
    count = [0] * g.n
    for eid in data.draw(st.permutations(g.edge_ids)):
        colour = data.draw(st.integers(min_value=0, max_value=palette.k))
        u, v = g.endpoints(eid)
        if not colour or max(count[u], count[v]) >= load:
            continue
        trial = dict(pre)
        trial[eid] = colour
        if is_proper(g, trial):
            pre = trial
            count[u] += 1
            count[v] += 1
    return pre


@settings(max_examples=150)
@given(multigraphs(max_n=7, max_e=10, max_degree=3, mixed_ids=True),
       st.data(), BUDGETS)
def test_extend_subcubic_matches_oracle(g, data, budget):
    pre = _precolouring(g, data, Palette(4), 1)
    assert _outcome(extend_subcubic, g, pre, budget=budget) == \
        _outcome(oracles.extend_subcubic, g, pre, budget=budget)


@settings(max_examples=150)
@given(multigraphs(max_n=6, max_e=8, mixed_ids=True), st.data(), BUDGETS)
def test_extend_gallai_matches_oracle(g, data, budget):
    k = data.draw(st.integers(min_value=0, max_value=2))
    pre = _precolouring(g, data, Palette(max(1, g.delta() + k)), k)
    assert _outcome(extend_gallai, g, pre, k, budget=budget) == \
        _outcome(oracles.extend_gallai, g, pre, k, budget=budget)


@settings(max_examples=150)
@given(multigraphs(max_n=7, max_e=10), st.data(), BUDGETS)
def test_degree_list_colour_matches_oracle(g, data, budget):
    lists = {}
    for v in range(g.n):
        base = data.draw(st.integers(min_value=1, max_value=3))
        size = g.degree(v) + data.draw(st.integers(min_value=0, max_value=1))
        lists[v] = set(range(base, base + max(1, size)))
    assert _outcome(degree_list_colour, g, lists, budget) == \
        _outcome(oracles.degree_list_colour, g, lists, budget)
    assert _outcome(solve_vertex_lists, g, lists, budget) == \
        _outcome(oracles.solve_vertex_lists, g, lists, budget)


@settings(max_examples=150)
@given(multigraphs(max_n=8, max_e=12))
def test_block_decompose_matches_oracle(g):
    assert block_decompose(g) == oracles.block_decompose(g)


@settings(max_examples=150)
@given(multigraphs(max_n=7, max_e=10, max_mu=2), st.data(), BUDGETS)
def test_solve_vertex_lists_search_matches_recursive_oracle(g, data, budget):
    # lists of any size, so the search backtracks and may fail
    lists = {v: data.draw(st.sets(st.integers(min_value=1, max_value=3),
                                  min_size=1))
             for v in range(g.n)}
    assert _outcome(solve_vertex_lists, g, lists, budget) == \
        _outcome(oracles.solve_vertex_lists, g, lists, budget)
