import gc
import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from edgeext.core import (InputError, MultiGraph, degree_stats, edge_bits,
                          edge_distance, edges_cycle, edges_path)
from edgeext.colouring import (Palette, extension_masks, is_proper,
                               max_precoloured_degree)
from edgeext.exact import BudgetSpent, avoid, chromatic_index, extend
from edgeext import exact, gallai, instances, kernels
from edgeext.instances import (CLAIMS, OFFSET_CLAIMS, FamilySpec,
                               _colourings, _edge_automorphisms,
                               _multigraphs_with_automorphisms,
                               _pattern, _plan, _within, canonical_form,
                               compute_rho, enumerate_edge_sets,
                               enumerate_multigraphs,
                               enumerate_precolourings, generate,
                               random_distance_matching, verify)

from conftest import (admissible_precolouring, bipartite_multigraphs,
                      multigraphs)


# -- families ------------------------------------------------------------

def test_subdivided_star_shape():
    g, pre, palette = generate(FamilySpec.subdivided_star(5))
    assert g.n == 11 and len(g.edges) == 10
    assert g.delta() == 5
    assert palette.k == 5
    assert len(pre) == 5 and set(pre.values()) == {1}
    # the precoloured edges are the pendants
    for eid in pre:
        u, v = g.endpoints(eid)
        assert min(g.degree(u), g.degree(v)) == 1


def test_chain_blocks_shape():
    g, pre, palette = generate(FamilySpec.chain_blocks(6, 2))
    assert g.n == 27
    assert g.delta() == 6 and palette.k == 6
    assert sorted(pre.values()) == [1, 1]
    with pytest.raises(InputError):
        generate(FamilySpec.chain_blocks(5, 2))
    with pytest.raises(InputError):
        generate(FamilySpec.chain_blocks(4, 0))


def test_generate_names_the_parameter_count():
    # a wrong count used to reach the builder and raise a bare TypeError
    for family, params, count in (("subdivided-star", (3, 4), 1),
                                  ("chain-blocks", (4,), 2),
                                  ("shannon-triangle", (1, 1), 3),
                                  ("multi-star", (), 2)):
        with pytest.raises(InputError, match=f"takes {count} parameter"):
            generate(FamilySpec(family, params))
    with pytest.raises(InputError, match="unknown family"):
        generate(FamilySpec("no-such-family", (1,)))


def test_shannon_triangle_shape():
    g, pre, palette = generate(FamilySpec.shannon_triangle(2, 2, 2))
    assert g.n == 3 and len(g.edges) == 6
    assert g.delta() == 4 and g.mu() == 2
    assert pre == {}


def test_multi_star_shape():
    g, pre, palette = generate(FamilySpec.multi_star(3, 2))
    assert g.delta() == 3
    assert palette.k == g.delta() + 2 - 1
    assert sorted(set(pre.values())) == [1, 2]
    assert is_proper(g, pre)


def test_unknown_family_rejected():
    with pytest.raises(InputError):
        generate(FamilySpec("no-such-family", ()))


# -- odd-set density -----------------------------------------------------

def test_rho_small_cases():
    assert compute_rho(edges_cycle(3)) == Fraction(3)
    assert compute_rho(edges_cycle(5)) == Fraction(5, 2)
    assert compute_rho(edges_path(3)) == Fraction(2)
    g, _, _ = generate(FamilySpec.shannon_triangle(2, 2, 2))
    assert compute_rho(g) == Fraction(6)
    with pytest.raises(InputError):
        compute_rho(MultiGraph(2, [(0, 0, 1)]))


@settings(max_examples=40)
@given(multigraphs(max_n=6, max_e=8))
def test_rho_lower_bounds_chromatic_index(g):
    # any proper colouring induces matchings, so chi' >= ceil(rho)
    if g.n < 3 or not g.edges:
        return
    rho = compute_rho(g)
    chi = chromatic_index(g)
    assert chi >= rho


# -- canonical forms -----------------------------------------------------

def permuted(g, perm):
    return MultiGraph(g.n, [(eid, perm[u], perm[v])
                            for eid, u, v in g.edges])


@settings(max_examples=60)
@given(multigraphs(max_n=6, max_e=8), st.randoms())
def test_canonical_form_invariant_under_relabelling(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_form(g) == canonical_form(permuted(g, perm))


# the full search on seven isolated vertices visits 7! leaves (~0.3 s)
@settings(max_examples=60, deadline=None)
@given(multigraphs(max_n=7, max_e=10), st.randoms())
# a 4-cycle beside a triangle: orbits from automorphisms that move the
# path would skip the subtree holding the least leaf
@example(g=MultiGraph(7, [(0, 0, 5), (1, 0, 3), (2, 5, 6), (3, 3, 6),
                          (4, 2, 1), (5, 2, 4), (6, 1, 4)]),
         rnd=random.Random(0))
def test_canonical_form_matches_the_full_search(g, rnd):
    # pruning by automorphisms keeps the least leaf, so every form is the
    # one the search over every leaf gives
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_form(g) == oracles.canonical_form(g)
    h = permuted(g, perm)
    assert canonical_form(h) == oracles.canonical_form(h)


def _is_automorphism(g, gamma):
    def pairs(image):
        return sorted(tuple(sorted((image[u], image[v])))
                      for _, u, v in g.edges)
    return sorted(gamma) == list(range(g.n)) and \
        pairs(gamma) == pairs(range(g.n))


@settings(max_examples=60)
@given(multigraphs(max_n=7, max_e=10))
def test_recorded_generators_are_automorphisms(g):
    generators = []
    canonical_form(g, generators)
    assert all(_is_automorphism(g, gamma) for gamma in generators)


@settings(max_examples=80)
@given(multigraphs(max_n=6, max_e=8))
def test_recorded_generators_generate_the_whole_group(g):
    # canonical augmentation loses a class if the group is too small: the
    # orbits of the group the generators produce, on vertices and on
    # vertex pairs, are those of every automorphism
    generators = []
    canonical_form(g, generators)
    group = [gamma for gamma in itertools.permutations(range(g.n))
             if _is_automorphism(g, gamma)]
    pairs = list(itertools.combinations(range(g.n), 2))
    for points, image in ((range(g.n), instances._vertex_image),
                          (pairs, instances._pair_image)):
        for p in points:
            assert instances._orbit(p, image, generators) == \
                {image(gamma, p) for gamma in group}


@pytest.mark.parametrize("g", [
    MultiGraph(11, [(i, 0, i + 1) for i in range(10)]),     # K_{1,10}
    MultiGraph(13, [(0, 0, 1)]),                  # 11 isolated vertices
], ids=["star", "isolated"])
def test_canonical_form_prunes_symmetric_graphs(g):
    # the full search visits 10! and 11! leaves; orbit pruning keeps it
    # to a few per level
    perm = list(range(g.n))
    random.Random(7).shuffle(perm)
    start = time.monotonic()
    assert canonical_form(g) == canonical_form(permuted(g, perm))
    assert time.monotonic() - start < 5


def test_canonical_form_separates_non_isomorphic():
    path = edges_path(4)       # 3 edges
    star = MultiGraph(4, [(0, 0, 1), (1, 0, 2), (2, 0, 3)])
    assert canonical_form(path) != canonical_form(star)
    single = MultiGraph(2, [(0, 0, 1)])
    double = MultiGraph(2, [(0, 0, 1), (1, 0, 1)])
    assert canonical_form(single) != canonical_form(double)


# -- enumeration ---------------------------------------------------------

def brute_classes(n_max, e_max, mu_max, connected=True):
    seen = set()
    for n in range(2, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mults in itertools.product(range(mu_max + 1),
                                       repeat=len(pairs)):
            e = sum(mults)
            if not 1 <= e <= e_max:
                continue
            edges = []
            for (u, v), m in zip(pairs, mults):
                for _ in range(m):
                    edges.append((len(edges), u, v))
            g = MultiGraph(n, edges)
            if any(g.degree(v) == 0 for v in range(n)):
                continue
            if connected and not g.is_connected():
                continue
            seen.add(canonical_form(g))
    return seen


@pytest.mark.parametrize("n_max,e_max,mu_max", [(4, 4, 1), (3, 5, 3),
                                                (4, 5, 2)])
def test_enumeration_complete_and_duplicate_free(n_max, e_max, mu_max):
    got = [canonical_form(g)
           for g in enumerate_multigraphs(n_max, e_max, mu_max)]
    assert len(got) == len(set(got))
    assert set(got) == brute_classes(n_max, e_max, mu_max)


def test_enumeration_deterministic():
    a = [g.to_json_obj() for g in enumerate_multigraphs(4, 5, 2)]
    b = [g.to_json_obj() for g in enumerate_multigraphs(4, 5, 2)]
    assert a == b


def test_enumeration_respects_delta_max():
    for g in enumerate_multigraphs(6, 6, 2, delta_max=3):
        assert g.delta() <= 3


def test_enumeration_disconnected_mode():
    got = [canonical_form(g)
           for g in enumerate_multigraphs(4, 3, 1, connected_only=False)]
    assert len(got) == len(set(got))
    # contains the two-disjoint-edges graph
    two = MultiGraph(4, [(0, 0, 1), (1, 2, 3)])
    assert canonical_form(two) in got


@pytest.mark.parametrize("bounds, options", [
    ((6, 6, 2), {}),
    ((7, 6, 3), {"delta_max": 3}),
    ((5, 5, 2), {"connected_only": False}),
])
def test_enumeration_stream_matches_the_unpruned_one(bounds, options):
    # the same classes in the same order, and as many at each level, as
    # when every child went through canonical_form; the labelled
    # representative of each class is the one augmentation accepts
    got = list(enumerate_multigraphs(*bounds, **options))
    expected = list(oracles.enumerate_multigraphs(*bounds, **options))
    assert list(map(canonical_form, got)) == \
        list(map(canonical_form, expected))
    assert Counter(len(g.edges) for g in got) == \
        Counter(len(g.edges) for g in expected)


# -- precolouring enumeration -------------------------------------------

def test_edge_sets_distance_filter():
    g = edges_path(4)  # edges 0,1,2 in a path
    all_sets = set(enumerate_edge_sets(g, t=0))
    assert len(all_sets) == 8
    matchings = set(enumerate_edge_sets(g, t=1))
    assert matchings == {(), (0,), (1,), (2,), (0, 2)}
    induced = set(enumerate_edge_sets(g, t=2))
    assert induced == {(), (0,), (1,), (2,)}


@pytest.mark.parametrize("t", [1, 2, 3])
@settings(max_examples=60)
@given(g=multigraphs(max_n=6, max_e=8, max_mu=2))
def test_edge_sets_match_pairwise_oracle(t, g):
    # the masks from one BFS per edge hold the edges the pairwise
    # distances put within t, the edge itself included, and the
    # enumeration keeps the pairwise version's sets and order
    ids = g.ids
    for i, near in enumerate(_within(g, t)):
        assert {ids[j] for j in edge_bits(near)} == \
            {f for f in g.edge_ids if edge_distance(g, ids[i], f) <= t}
    assert list(enumerate_edge_sets(g, t)) == \
        list(oracles.enumerate_edge_sets(g, t))


@settings(max_examples=60)
@given(multigraphs(max_n=5, max_e=6, max_mu=2),
       st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=2))
def test_bounded_precolourings_are_the_filtered_stream(g, t, bound, extra):
    palette = Palette(g.delta() + extra)
    filtered = [pre for pre in enumerate_precolourings(g, palette, t=t)
                if max_precoloured_degree(g, pre) <= bound]
    assert list(enumerate_precolourings(g, palette, t=t,
                                        max_load=bound)) == filtered


@settings(max_examples=60)
@given(multigraphs(max_n=5, max_e=6, max_mu=2),
       st.sampled_from([0, 1, 3]), st.sampled_from([None, 1, 2]),
       st.integers(min_value=1, max_value=2))
def test_precolourings_match_the_set_based_stream(g, t, bound, extra):
    palette = Palette(g.delta() + extra)
    expected = [list(pre.items())
                for subset in enumerate_edge_sets(g, t, bound)
                for pre in oracles._colourings_of(g, subset, palette, True)]
    assert [list(pre.items()) for pre in enumerate_precolourings(
        g, palette, t=t, max_load=bound)] == expected


@settings(max_examples=60)
@given(multigraphs(max_n=5, max_e=6, max_mu=2),
       st.sampled_from([(0, 1), (1, None), (1, 1), (3, None), (0, 0),
                        (0, 2), (0, 3), (1, 2)]))
def test_edge_sets_flag_the_maximal_sets(g, family):
    # the flag is maximality among the sets of the stream, and the stream
    # is the plain one
    t, bound = family
    flagged = list(enumerate_edge_sets(g, t, bound, True))
    assert [subset for subset, _ in flagged] == \
        list(enumerate_edge_sets(g, t, bound))
    sets = {frozenset(subset) for subset, _ in flagged}
    for subset, maximal in flagged:
        assert maximal == all(frozenset(subset) | {eid} not in sets
                              for eid in g.edge_ids if eid not in subset)


def test_partitions_count_the_colourings_of_a_matching():
    for s in range(7):
        matching = MultiGraph(2 * s, [(i, 2 * i, 2 * i + 1)
                                      for i in range(s)])
        # a matching's pattern is given by its size, as _check_case keys it
        assert _pattern(matching, matching.ids) == tuple(range(2 * s))
        for q in range(1, 8):
            assert _colourings(tuple(range(2 * s)), q) == tuple(
                tuple(pre.values()) for pre in oracles._colourings_of(
                    matching, matching.ids, Palette(q), True)), (s, q)


@settings(max_examples=80)
@given(multigraphs(max_n=5, max_e=7, max_mu=3), st.integers(1, 7),
       st.data())
def test_counting_walk_counts_the_colourings_of_a_set(g, q, data):
    # random sets with at most 3 edges at each vertex, matchings or not;
    # _check_case counts a set's instances as its table's length
    sets = list(enumerate_edge_sets(g, 0, 3))
    subset = data.draw(st.sampled_from(sets))
    assert len(_colourings(_pattern(g, subset), q)) == len(list(
        oracles._colourings_of(g, subset, Palette(q), True)))


@settings(max_examples=80)
@given(multigraphs(max_n=5, max_e=7, max_mu=3), st.integers(1, 7),
       st.data())
def test_a_patterns_table_lists_the_colourings_of_its_sets(g, q, data):
    # random sets with at most 3 edges at each vertex, matchings or not
    sets = list(enumerate_edge_sets(g, 0, 3))
    subset = data.draw(st.sampled_from(sets))
    table = _colourings(_pattern(g, subset), q)
    assert table == tuple(tuple(pre.values()) for pre in
                          oracles._colourings_of(g, subset, Palette(q), True))
    # the same set in another graph: vertices relabelled, string edge ids,
    # and one more edge on a new vertex
    relabel = data.draw(st.permutations(range(g.n + 1)))
    h = MultiGraph(g.n + 1, [(f"e{eid}", relabel[u], relabel[v])
                             for eid, u, v in g.edges]
                   + [("new", relabel[0], relabel[g.n])])
    image = tuple(f"e{eid}" for eid in subset)
    assert _pattern(h, image) == _pattern(g, subset)
    assert table == tuple(tuple(pre.values()) for pre in
                          oracles._colourings_of(h, image, Palette(q), True))


def test_precolourings_up_to_colour_permutation():
    g = edges_path(4)
    pal = Palette(3)
    reps = list(enumerate_precolourings(g, pal, t=1))
    # (): 1; singles: one rep each; {0,2}: same-or-different = 2 reps
    assert {():1}  # readability anchor
    count = {0: 0, 1: 0, 2: 0}
    for pre in reps:
        count[len(pre)] += 1
    assert count == {0: 1, 1: 3, 2: 2}
    for pre in reps:
        assert is_proper(g, pre)


def test_random_distance_matching_properties():
    g = edges_cycle(9)
    rng = random.Random(2)
    pal = Palette(4)
    for _ in range(20):
        pre = random_distance_matching(g, 2, pal, rng)
        from edgeext.core import is_distance_matching
        assert is_distance_matching(g, pre.keys(), 2)
        assert all(c in pal for c in pre.values())


def test_random_distance_matching_refuses_a_distance_below_one():
    # at t = 0 two chosen edges may meet, and their random colours clash
    with pytest.raises(InputError, match="t >= 1"):
        random_distance_matching(edges_cycle(6), 0, Palette(3),
                                 random.Random(0))


# -- the verification harness -------------------------------------------

def test_verify_rejects_unknown_claim():
    with pytest.raises(InputError):
        verify("no-such-claim", max_n=3, max_e=3)


def test_verify_passes_on_tiny_bounds():
    rep = verify("matching-extension", max_n=3, max_e=4, max_mu=2)
    assert rep.ok
    assert rep.graphs > 0 and rep.instances > 0
    obj = rep.to_json_obj(timestamp=False)
    assert obj["ok"] is True and obj["counterexample"] is None
    assert "elapsed_seconds" not in obj


def test_verify_finds_planted_counterexample():
    # weakening the palette by one rediscovers the triangle
    rep = verify("matching-extension", max_n=3, max_e=4, max_mu=2,
                 palette_offset=-1)
    assert not rep.ok
    cex = rep.counterexample
    g = MultiGraph.from_json_obj(cex["graph"])
    assert len(g.edges) == 3  # minimal in enumeration order
    # replay: genuinely unsolvable
    from edgeext.colouring import colouring_from_json_obj
    pre, pal = colouring_from_json_obj(g, cex["precolouring"])
    assert not extend(g, pre, pal).solved


def test_verify_counterexample_is_first_in_order():
    a = verify("matching-extension", max_n=3, max_e=4, max_mu=2,
               palette_offset=-1)
    b = verify("matching-extension", max_n=3, max_e=4, max_mu=2,
               palette_offset=-1)
    assert a.counterexample == b.counterexample


def test_verify_parallel_matches_serial():
    # the workers get each graph's automorphisms, so they prune alike and
    # stop at the same first counterexample
    for offset in (0, -1):
        serial = verify("matching-extension", max_n=3, max_e=5, max_mu=2,
                        palette_offset=offset)
        parallel = verify("matching-extension", max_n=3, max_e=5, max_mu=2,
                          palette_offset=offset, jobs=2)
        assert serial.ok == parallel.ok
        assert serial.instances == parallel.instances
        assert serial.instances_checked == parallel.instances_checked
        assert serial.graphs == parallel.graphs
        assert serial.counterexample == parallel.counterexample
    # the degree-k cases go through dominance too
    for claim in ("bipartite-extension", "shannon-extension"):
        serial = verify(claim, max_n=4, max_e=5, max_mu=2, max_k=2)
        parallel = verify(claim, max_n=4, max_e=5, max_mu=2, max_k=2,
                          jobs=2)
        assert (serial.ok, serial.graphs, serial.instances,
                serial.instances_checked, serial.counterexample) == \
            (parallel.ok, parallel.graphs, parallel.instances,
             parallel.instances_checked, parallel.counterexample)


@pytest.mark.parametrize("max_k", [1, 2])
@pytest.mark.parametrize("bounds", [(4, 5, 2), (5, 6, 2)])
@pytest.mark.parametrize("claim, offset", [
    *((claim, 0) for claim in sorted(CLAIMS)),
    *((claim, -1) for claim in OFFSET_CLAIMS)])
def test_verify_matches_the_unpruned_sweep(claim, offset, bounds, max_k):
    # one check per automorphism orbit counts every labelled instance and
    # finds the counterexample that checking each of them finds
    rep = verify(claim, *bounds, max_k=max_k, palette_offset=offset)
    assert (rep.graphs, rep.instances, rep.counterexample) == \
        oracles.verify(claim, *bounds, max_k=max_k, palette_offset=offset)
    assert rep.ok == (rep.counterexample is None)
    assert rep.instances_checked <= rep.instances


def test_a_planted_degree_k_failure_is_found_as_without_dominance(
        monkeypatch):
    # An extender that fails whenever a vertex meets two precoloured
    # edges fails on every superset, image and colour permutation of such
    # an instance too, so the degree-k case with k = 2 is checked again
    # instance by instance and must report the oracle's first
    # counterexample.
    def loaded(g, pre):
        ends = [w for eid in pre for w in g.endpoints(eid)]
        return len(set(ends)) < len(ends)

    def failing(original, graph_at):
        def extend(*args, **kwargs):
            g, pre = graph_at(args)
            if loaded(g, pre):
                return exact.SolveOutcome(exact.UNSOLVABLE)
            return original(*args, **kwargs)
        return extend

    # the sweep runs the extender that ``_plan`` prepares once per graph
    prepare = kernels.prepare_bipartite

    def prepare_failing(g, *args):
        return failing(prepare(g, *args), lambda args: (g, args[0]))

    monkeypatch.setattr(kernels, "prepare_bipartite", prepare_failing)
    monkeypatch.setattr(exact, "extend", failing(
        exact.extend, lambda args: (args[0], args[1])))
    rep = verify("bipartite-extension", max_n=4, max_e=5, max_mu=2,
                 max_k=2)
    assert not rep.ok
    assert (rep.graphs, rep.instances, rep.counterexample) == \
        oracles.verify("bipartite-extension", 4, 5, 2, max_k=2)
    assert rep.counterexample["note"] == "bipartite extender failed"
    # the failing graph's k = 1 case passed and reports its pruned runs
    assert rep.instances_checked == 6


def test_sweep_checks_no_bipartition_it_found(monkeypatch):
    # _plan finds each graph's bipartition once, so the extender runs
    # trust it
    checks = []
    monkeypatch.setattr(kernels, "check_bipartition",
                        lambda g, side_of: checks.append(g))
    rep = verify("bipartite-extension", max_n=4, max_e=5, max_mu=2,
                 max_k=2)
    assert rep.ok and rep.instances_checked > 0
    assert checks == []


# each prepared entry ``_plan`` uses: the (palette, load bound) of the case
# a run serves, from the graph, the entry's arguments and the run's
_ADMISSIBLE = {
    (exact, "prepare_extend"): lambda g, prepared, run: (prepared[0], 1),
    (gallai, "prepare_subcubic"): lambda g, prepared, run: (Palette(4), 1),
    (kernels, "prepare_bipartite"): lambda g, prepared, run: (
        Palette(g.delta() + run[0]), run[0]),
}


@pytest.mark.parametrize("claim, bounds, entry", [
    ("matching-extension", dict(max_n=6, max_e=7, max_mu=2),
     (exact, "prepare_extend")),
    ("subcubic-matching-extension",
     dict(max_n=8, max_e=7, max_mu=3, delta_max=3),
     (gallai, "prepare_subcubic")),
    ("bipartite-extension", dict(max_n=7, max_e=6, max_mu=2, max_k=2),
     (kernels, "prepare_bipartite"))])
def test_sweeps_hand_their_extenders_only_admissible_precolourings(
        monkeypatch, claim, bounds, entry):
    # the prepared runs take the palette and the load as given, so every
    # precolouring the walk gives them must pass the public extenders'
    # validation at its case
    module, name = entry
    prepare = getattr(module, name)
    runs = []

    def validating(g, *prepared):
        run = prepare(g, *prepared)

        def checked(pre, *args):
            palette, k = _ADMISSIBLE[entry](g, prepared, args)
            extension_masks(g, pre, palette, k)
            runs.append(pre)
            return run(pre, *args)
        return checked

    monkeypatch.setattr(module, name, validating)
    rep = verify(claim, **bounds)
    assert rep.ok and len(runs) == rep.instances_checked > 0


@pytest.mark.parametrize("claim, runs", [("matching-extension", 839),
                                         ("distance3-extension", 283)])
def test_exact_backed_sweeps_search_through_solve_list(monkeypatch, claim,
                                                        runs):
    # every exact search enters through ``solve_list``, the prepared runs
    # of the sweeps included
    calls = []
    solve_list = exact.solve_list

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_list(*args, **kwargs)

    monkeypatch.setattr(exact, "solve_list", counted)
    rep = verify(claim, max_n=6, max_e=7, max_mu=2)
    assert rep.ok and len(calls) == rep.instances_checked == runs


def _public_and_prepared(engine, g, k, rnd, budget):
    """One engine's outcome through its public entry and through its
    prepared run, on one admissible instance of g."""
    delta = g.delta()
    if engine == "exact":
        palette = Palette(max(1, delta + g.mu() - rnd.randint(0, 1)))
        pre = admissible_precolouring(g, palette.k, 1, rnd)
        return (exact.extend(g, pre, palette, budget),
                exact.prepare_extend(g, palette)(pre, budget))
    if engine == "subcubic":
        pre = admissible_precolouring(g, 4, 1, rnd)
        return (gallai.extend_subcubic(g, pre, budget),
                gallai.prepare_subcubic(g)(pre, budget))
    if engine == "gallai":
        pre = admissible_precolouring(g, delta + k, k, rnd)
        return (gallai.extend_gallai(g, pre, k, budget),
                gallai.prepare_gallai(g)(pre, k, budget))
    if engine == "bipartite":
        side = rnd.choice([None, kernels.find_bipartition(g)])
        pre = admissible_precolouring(g, delta + k, k, rnd)
        return (kernels.extend_bipartite(g, side, pre, k, budget),
                kernels.prepare_bipartite(g, side)(pre, k, budget))
    pre = admissible_precolouring(g, (3 * delta + k) // 2, k, rnd)
    return (kernels.extend_shannon(g, pre, k, budget),
            kernels.prepare_shannon(g)(pre, k, budget))


def _fields(out):
    if isinstance(out, gallai.ExceptionReport):
        return out
    return out.status, out.colouring, out.nodes, out.depth, out.method


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["exact", "subcubic", "gallai", "bipartite",
                        "shannon"]), st.integers(0, 2), st.randoms(),
       st.one_of(st.none(), st.integers(0, 12)), st.data())
def test_prepared_runs_answer_as_the_public_extenders(engine, k, rnd,
                                                      budget, data):
    if engine == "bipartite":
        g = data.draw(bipartite_multigraphs(max_side=3, max_e=9, max_mu=3))
    else:
        g = data.draw(multigraphs(max_n=7, max_e=10, max_mu=3,
                                  max_degree=3 if engine == "subcubic"
                                  else None))
    if engine == "gallai":
        stats = degree_stats(g)
        assume(g.is_connected() and stats.delta + k >= 1
               and stats.line_delta <= stats.delta + k)
    elif engine in ("bipartite", "shannon"):
        k = max(k, 1)
    public, prepared = _public_and_prepared(engine, g, k, rnd, budget)
    assert _fields(public) == _fields(prepared)


def test_edge_automorphisms_map_ends_onto_themselves():
    # each generator's edge permutation moves every edge onto one between
    # the images of its ends; the rest swap two parallel edges
    for g, automorphisms in _multigraphs_with_automorphisms(5, 6, 3, True,
                                                            None):
        perms = _edge_automorphisms(g, automorphisms)
        ends = sorted(map(sorted, g.ends))
        for i, perm in enumerate(perms):
            assert sorted(perm) == sorted(perm.values()) == sorted(g.ids)
            gamma = automorphisms[i] if i < len(automorphisms) \
                else range(g.n)
            images = [sorted((gamma[u], gamma[v])) for u, v in g.ends]
            assert sorted(images) == ends
            assert [sorted(g.endpoints(perm[eid])) for eid in g.ids] == \
                images
            if i >= len(automorphisms):
                moved = [eid for eid in g.ids if perm[eid] != eid]
                assert len(moved) == 2


def test_verify_checks_one_instance_per_orbit():
    # stars and parallel classes have many automorphisms
    rep = verify("matching-extension", max_n=4, max_e=5, max_mu=2)
    assert rep.ok
    assert rep.instances_checked < rep.instances
    obj = rep.to_json_obj(timestamp=False)
    assert obj["instances_checked"] == rep.instances_checked


# extender runs per claim at (5, 6, 2), max_k=2: one per orbit, on the
# maximal sets only, less the certified ones
_CHECKED = {
    "bipartite-extension": 261,
    "bipartite-matching-extension": 82,
    "distance3-extension": 77,
    "line-degree-extension": 373,
    "matching-avoidance": 287,
    "matching-extension": 155,
    "shannon-extension": 509,
    "shannon-matching-extension": 156,
    "subcubic-matching-extension": 77,
}


@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_verify_extender_runs_are_pinned(claim):
    rep = verify(claim, max_n=5, max_e=6, max_mu=2, max_k=2)
    assert rep.ok
    assert rep.instances_checked == _CHECKED[claim]


# extender runs of the sweeps that fail, with max_k=2 and palette offset
# -1: the pruned runs of the cases that passed, and the runs of the
# failing case's re-check up to its counterexample
_CHECKED_FAILING = {
    ("matching-avoidance", (4, 5, 2)): 2,
    ("matching-avoidance", (5, 6, 2)): 2,
    ("matching-extension", (4, 5, 2)): 4,
    ("matching-extension", (5, 6, 2)): 4,
}


@pytest.mark.parametrize("claim, bounds", sorted(_CHECKED_FAILING))
def test_failing_sweep_extender_runs_are_pinned(claim, bounds):
    rep = verify(claim, *bounds, max_k=2, palette_offset=-1)
    assert not rep.ok
    assert rep.instances_checked == _CHECKED_FAILING[claim, bounds]


@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_every_case_is_first_checked_by_dominance(claim):
    # Each case meets the guard of the pruned pass: its sets are matchings,
    # or its palette leaves a colour for each edge added greedily.  Then
    # the instance-by-instance pass runs only after a failure.
    offsets = (0, -1) if claim in OFFSET_CLAIMS else (0,)
    for g, _ in _multigraphs_with_automorphisms(5, 6, 2, True, None):
        for max_k, offset in itertools.product((1, 2, 3), offsets):
            cases, _, _ = _plan(claim, g, max_k, offset, None)
            for k, size, t in cases:
                assert t >= 1 or k is not None and \
                    size >= 2 * min(k, g.delta()) - 1, (g.edges, k, size)


def test_only_extension_claims_record_certificates(monkeypatch):
    # a colouring that avoids a forbidden assignment is no extension of
    # its restrictions, so avoidance keys none
    keyed = []
    original = instances._first_use

    def first_use(colours):
        keyed.append(colours)
        return original(colours)

    monkeypatch.setattr(instances, "_first_use", first_use)
    avoided = verify("matching-avoidance", max_n=4, max_e=5, max_mu=2)
    assert avoided.ok and not keyed
    extended = verify("matching-extension", max_n=4, max_e=5, max_mu=2)
    assert extended.ok and keyed
    # same cases and palettes: the certificates alone save runs
    assert extended.instances == avoided.instances
    assert extended.instances_checked < avoided.instances_checked


def test_all_claims_run_on_tiny_bounds():
    for claim in sorted(CLAIMS):
        rep = verify(claim, max_n=3, max_e=3, max_mu=2, max_k=1)
        assert rep.ok, claim


def test_verify_leaves_no_cyclic_garbage():
    # A sweep's objects are freed by reference counting as it goes.  Any
    # left in reference cycles would wait for the cyclic collector, and
    # its full passes would fall wherever the allocation count put them.
    enabled = gc.isenabled()
    gc.collect()
    before = len(gc.garbage)
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for claim in sorted(CLAIMS):
            assert verify(claim, max_n=4, max_e=5, max_mu=2, max_k=2).ok
        # the generator on its own, in both modes
        assert sum(1 for _ in enumerate_multigraphs(6, 6, 2)) == 112
        assert sum(1 for _ in enumerate_multigraphs(
            5, 5, 2, connected_only=False)) == 48
        gc.collect()
        left = [type(o).__name__ for o in gc.garbage[before:]]
    finally:
        gc.set_debug(0)
        del gc.garbage[before:]
        if enabled:
            gc.enable()
    assert left == []


def test_verify_rejects_an_offset_the_claim_ignores():
    for claim in sorted(CLAIMS):
        if claim in OFFSET_CLAIMS:
            continue
        with pytest.raises(InputError):
            verify(claim, max_n=3, max_e=3, max_mu=2, palette_offset=-1)
    for claim in OFFSET_CLAIMS:
        verify(claim, max_n=3, max_e=3, max_mu=2, palette_offset=-1)


# (graphs, instances, counterexample note) per claim, bounds (max_n,
# max_e, max_mu) and palette offset, all with max_k=2
_PINNED = {
    ("bipartite-extension", (4, 5, 2), 0): (23, 352, None),
    ("bipartite-extension", (5, 6, 2), 0): (77, 2428, None),
    ("bipartite-matching-extension", (4, 5, 2), 0): (23, 99, None),
    ("bipartite-matching-extension", (5, 6, 2), 0): (77, 487, None),
    ("distance3-extension", (4, 5, 2), 0): (23, 113, None),
    ("distance3-extension", (4, 5, 2), -1): (23, 113, None),
    ("distance3-extension", (5, 6, 2), 0): (77, 474, None),
    ("distance3-extension", (5, 6, 2), -1): (77, 474, None),
    ("line-degree-extension", (4, 5, 2), 0): (23, 338, None),
    ("line-degree-extension", (5, 6, 2), 0): (77, 1923, None),
    ("matching-avoidance", (4, 5, 2), 0): (23, 159, None),
    ("matching-avoidance", (4, 5, 2), -1): (1, 2, "not avoidable"),
    ("matching-avoidance", (5, 6, 2), 0): (77, 936, None),
    ("matching-avoidance", (5, 6, 2), -1): (1, 2, "not avoidable"),
    ("matching-extension", (4, 5, 2), 0): (23, 159, None),
    ("matching-extension", (4, 5, 2), -1): (4, 9, "not extendable"),
    ("matching-extension", (5, 6, 2), 0): (77, 936, None),
    ("matching-extension", (5, 6, 2), -1): (4, 9, "not extendable"),
    ("shannon-extension", (4, 5, 2), 0): (23, 592, None),
    ("shannon-extension", (5, 6, 2), 0): (77, 4937, None),
    ("shannon-matching-extension", (4, 5, 2), 0): (23, 159, None),
    ("shannon-matching-extension", (5, 6, 2), 0): (77, 936, None),
    ("subcubic-matching-extension", (4, 5, 2), 0): (23, 109, None),
    ("subcubic-matching-extension", (5, 6, 2), 0): (77, 438, None),
}


@pytest.mark.parametrize("claim, bounds, offset", sorted(_PINNED))
def test_verify_counts_are_pinned(claim, bounds, offset):
    max_n, max_e, max_mu = bounds
    rep = verify(claim, max_n=max_n, max_e=max_e, max_mu=max_mu, max_k=2,
                 palette_offset=offset)
    note = None if rep.ok else rep.counterexample["note"]
    assert (rep.graphs, rep.instances, note) == _PINNED[claim, bounds, offset]


def test_pinned_counts_cover_every_claim_and_offset():
    assert {claim for claim, _, _ in _PINNED} == set(CLAIMS)
    assert {claim for claim, _, offset in _PINNED if offset} == \
        set(OFFSET_CLAIMS)


def test_avoidance_counterexample_fields():
    rep = verify("matching-avoidance", max_n=3, max_e=3, palette_offset=-1)
    assert list(rep.counterexample) == ["graph", "forbidden", "palette",
                                        "note"]
    cex = rep.counterexample
    g = MultiGraph.from_json_obj(cex["graph"])
    forbidden = {int(e): c for e, c in cex["forbidden"].items()}
    assert not avoid(g, forbidden, Palette(cex["palette"])).solved


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("claim", ["matching-extension", "matching-avoidance",
                                   "line-degree-extension",
                                   "shannon-extension"])
def test_verify_raises_budget_spent(claim, jobs):
    # a spent budget is neither a counterexample nor a disagreement
    with pytest.raises(BudgetSpent) as spent:
        verify(claim, max_n=4, max_e=5, budget=1, jobs=jobs)
    assert spent.value.nodes == 2


@pytest.mark.parametrize("claim, bounds", [
    ("line-degree-extension", {"max_k": -1}),
    ("bipartite-extension", {"max_k": 0}),
    ("shannon-extension", {"max_k": 0}),
    ("matching-extension", {"delta_max": 0}),
    ("matching-extension", {"palette_offset": -5}),
])
def test_verify_rejects_bounds_that_admit_nothing(claim, bounds):
    with pytest.raises(InputError):
        verify(claim, max_n=3, max_e=3, **bounds)
