"""Acceptance criteria, one test each, printing one pass/fail line apiece.

Each criterion is checked at "desk scale": exhaustive where the space is
finite and small, randomized with fixed seeds where it is not.
"""

import collections
import itertools
import random
import time
from fractions import Fraction

from edgeext.core import MultiGraph, edges_cycle
from edgeext.colouring import Palette, is_proper
from edgeext import exact, kernels, gallai, planar, instances


def _check(capsys, num, desc, fn):
    start = time.monotonic()
    try:
        fn()
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:2d}: FAIL - {desc}")
        raise
    elapsed = time.monotonic() - start
    with capsys.disabled():
        print(f"criterion {num:2d}: PASS - {desc} ({elapsed:.1f}s)")


def test_criterion_1_matching_extension_sweep(capsys):
    def body():
        rep = instances.verify("matching-extension",
                               max_n=4, max_e=7, max_mu=2)
        assert rep.ok, rep.counterexample
        assert rep.instances > 0
        assert rep.elapsed <= 300
    _check(capsys, 1, "exhaustive matching extension, palette Delta+mu "
                      "(n<=4, e<=7, mu<=2)", body)


def test_criterion_13_simple_graph_matching_extension_sweep(capsys):
    def body():
        rep = instances.verify("matching-extension",
                               max_n=8, max_e=10, max_mu=1)
        assert rep.ok, rep.counterexample
        assert (rep.graphs, rep.instances) == (1308, 147785)
    _check(capsys, 13, "exhaustive matching extension on simple graphs, "
                       "palette Delta+1 (n<=8, e<=10)", body)


def test_criterion_14_multigraph_matching_extension_sweeps(capsys):
    def body():
        for claim, instance_count in (("matching-extension", 79905),
                                      ("distance3-extension", 19596)):
            rep = instances.verify(claim, max_n=6, max_e=9, max_mu=3)
            assert rep.ok, (claim, rep.counterexample)
            assert (rep.graphs, rep.instances) == (2048, instance_count), \
                claim
    _check(capsys, 14, "exhaustive matching and distance-3 matching "
                       "extension on multigraphs, palettes Delta+mu and "
                       "Delta+mu+1 (n<=6, e<=9, mu<=3)", body)


def test_criterion_15_simple_graph_matching_extension_at_nine_vertices(
        capsys):
    def body():
        rep = instances.verify("matching-extension",
                               max_n=9, max_e=11, max_mu=1)
        assert rep.ok, rep.counterexample
        assert (rep.graphs, rep.instances) == (5428, 1237975)
    _check(capsys, 15, "exhaustive matching extension on simple graphs, "
                       "palette Delta+1 (n<=9, e<=11)", body)


def test_criterion_16_simple_graph_matching_extension_at_ten_vertices(
        capsys):
    def body():
        rep = instances.verify("matching-extension",
                               max_n=10, max_e=12, max_mu=1)
        assert rep.ok, rep.counterexample
        assert (rep.graphs, rep.instances) == (23212, 10666769)
    _check(capsys, 16, "exhaustive matching extension on simple graphs, "
                       "palette Delta+1 (n<=10, e<=12)", body)


def test_criterion_2_subdivided_star_sharpness(capsys):
    def body():
        for s in range(2, 9):
            g, pre, palette = instances.generate(
                instances.FamilySpec.subdivided_star(s))
            assert not exact.extend(g, pre, palette).solved, s
            assert exact.extend(g, pre, Palette(s + 1)).solved, s
    _check(capsys, 2, "subdivided star unsolvable at [s], solved at [s+1] "
                      "for s=2..8", body)


def test_criterion_3_chain_blocks_sharpness(capsys):
    def body():
        for delta in (4, 6):
            g, pre, palette = instances.generate(
                instances.FamilySpec.chain_blocks(delta, 2))
            assert palette.k == delta
            assert not exact.extend(g, pre, palette).solved, delta
            assert exact.extend(g, pre, Palette(delta + 1)).solved, delta
    _check(capsys, 3, "chained blocks unsolvable at [Delta], solved at "
                      "[Delta+1] for Delta=4,6", body)


def test_criterion_4_bipartite_extension_sweep(capsys, monkeypatch):
    # The kernel engine itself raises if its path stalls on lists that
    # meet Galvin's bound, so every run on that sub-family is checked.
    methods = collections.Counter()
    prepare = kernels.prepare_bipartite

    def counting(g, *args):
        run = prepare(g, *args)

        def counted(*run_args, **kwargs):
            out = run(*run_args, **kwargs)
            methods[out.method] += 1
            return out
        return counted

    monkeypatch.setattr(kernels, "prepare_bipartite", counting)

    def body():
        rep = instances.verify("bipartite-extension",
                               max_n=9, max_e=8, max_mu=2, max_k=2)
        assert rep.ok, rep.counterexample
        assert (rep.graphs, rep.instances, rep.instances_checked) == \
            (1229, 453917, 33453)
        assert rep.instances > 100000
        assert methods == {kernels.KERNEL: rep.instances_checked}
        assert methods[kernels.KERNEL] > 10000
    _check(capsys, 4, "bipartite precolouring extension, palette Delta+k "
                      "for k=1,2 (e<=8, mu<=2), every run on the kernel "
                      "path", body)


def test_criterion_5_bipartite_degree_lists(capsys):
    def body():
        rng = random.Random(12345)
        total = 0
        for g in instances.enumerate_multigraphs(9, 8, 2, delta_max=6):
            try:
                side = kernels.find_bipartition(g)
            except Exception:
                continue
            for _ in range(200):
                lists = {}
                for eid, u, v in g.edges:
                    size = max(g.degree(u), g.degree(v))
                    pool = list(range(1, 7))
                    rng.shuffle(pool)
                    lists[eid] = frozenset(pool[:size])
                out = kernels.list_colour_bipartite(g, side, lists)
                assert out.solved, (g.to_json_obj(), lists)
                assert is_proper(g, out.colouring)
                assert all(out.colouring[e] in lists[e]
                           for e in g.edge_ids)
                total += 1
        assert total > 100000
    _check(capsys, 5, "bipartite list colouring with degree-sized lists, "
                      "200 random list assignments per graph (e<=8)", body)


def test_criterion_6_subcubic_sweep(capsys):
    def body():
        rep = instances.verify("subcubic-matching-extension",
                               max_n=11, max_e=10, max_mu=3, delta_max=3)
        assert rep.ok, rep.counterexample
        assert rep.instances > 100000
    _check(capsys, 6, "subcubic matching extension within [4] "
                      "(e<=10, exhaustive)", body)


def test_criterion_7_exception_shapes(capsys):
    def body():
        out = gallai.extend_gallai(edges_cycle(5), {}, 0)
        assert isinstance(out, gallai.ExceptionReport)
        assert out.kind == gallai.ODD_CYCLE_K0
        fat = MultiGraph(3, [(i, u, v) for i, (u, v) in enumerate(
            [(0, 1)] * 2 + [(1, 2)] * 2 + [(0, 2)] * 2)])
        out = gallai.extend_gallai(fat, {}, 1)
        assert isinstance(out, gallai.ExceptionReport)
        assert out.kind == gallai.TRIANGLE_MULTIPLICITY
        # exhaustive: failures occur only alongside the two shapes
        rep = instances.verify("line-degree-extension",
                               max_n=9, max_e=8, max_mu=3, max_k=2)
        assert rep.ok, rep.counterexample
    _check(capsys, 7, "palette Delta+k failures are exactly the odd-cycle "
                      "and fat-triangle shapes (e<=8, mu<=3, k<=2)", body)


def test_criterion_8_shannon_tightness(capsys):
    def body():
        for m in (1, 2, 3):
            g, _, _ = instances.generate(
                instances.FamilySpec.shannon_triangle(m, m, m))
            delta = g.delta()
            assert exact.chromatic_index(g) == 3 * m == (3 * delta) // 2
            assert instances.compute_rho(g) == Fraction(3 * m)
    _check(capsys, 8, "fat triangle needs 3m = floor(3*Delta/2) colours "
                      "and rho agrees, m=1..3", body)


def test_criterion_9_planar_reduction_scale(capsys):
    def body():
        rng = random.Random(99)
        start = time.monotonic()
        for mode, t_dist in ((planar.VARIANT_MATCHING, 1),
                             (planar.VARIANT_DISTANCE3, 3)):
            for trial in range(100):
                k = 17 + trial % 4
                if trial % 2 == 0:
                    g, _ = planar.wheel(k)
                else:
                    g, _ = planar.hub_triangulation(k, 8 + trial % 9,
                                                    trial)
                assert g.delta() == k
                palette = Palette(k + 1 if mode == planar.VARIANT_MATCHING
                                  else k)
                pre = instances.random_distance_matching(
                    g, t_dist, palette, rng)
                out = planar.extend_planar(g, pre, mode)
                assert out.solved
                assert out.method == planar.REDUCTION, (mode, trial)
                assert is_proper(g, out.colouring)
                assert set(out.colouring) == set(g.edge_ids)
        assert time.monotonic() - start <= 120
    _check(capsys, 9, "planar extension via reduction only, 100 instances "
                      "per mode, Delta in 17..20", body)


def test_criterion_10_discharging_identities(capsys):
    def body():
        for seed in range(100):
            g, r = planar.random_plane_graph(12 + seed % 29, seed)
            assert g.n <= 40
            variant = (planar.VARIANT_MATCHING if seed % 2 == 0
                       else planar.VARIANT_DISTANCE3)
            led = planar.audit_discharge(g, r, [], variant)
            assert led.sum_alpha == Fraction(-12)
            assert led.sum_gamma == 0
            assert led.sum_delta == 0
        g, r = planar.icosahedron()
        led = planar.audit_discharge(g, r, [], planar.VARIANT_MATCHING)
        for entry in led.to_json_obj()["vertices"].values():
            assert entry["balance"] == "0"
    _check(capsys, 10, "charge conservation on 100 random plane graphs; "
                       "icosahedron vertex balances all zero", body)


def test_criterion_11_kernel_invariants(capsys):
    def body():
        # exhaustive over small bipartite multigraphs, then structured
        # families up to 12 line-graph vertices
        small = [g for g in instances.enumerate_multigraphs(7, 6, 3)
                 if _bipartition_or_none(g)]
        structured = [
            edges_cycle(12),
            # complete bipartite K_{3,4}: 12 line-graph vertices
            MultiGraph(7, [(i, u, 3 + v) for i, (u, v) in enumerate(
                itertools.product(range(3), range(4)))]),
            # K_{2,4} with one side's edges doubled
            MultiGraph(6, [(i, u, 2 + v) for i, (u, v) in enumerate(
                itertools.product(range(2), range(4)))]
                + [(8 + j, 0, 2 + j) for j in range(4)]),
        ]
        graphs = small + structured
        assert any(len(g.edges) == 12 for g in graphs)
        for g in graphs:
            if not g.edges or len(g.edges) > 12:
                continue
            side = kernels.find_bipartition(g)
            phi = kernels.konig_colour(g, side)
            orient = kernels.galvin_orient(g, side, phi)
            bound = g.delta() - 1
            ids = sorted(g.edge_ids)
            assert all(orient.out_degree(e) <= bound for e in ids)
            brute_all = len(ids) <= 6
            for r in range(len(ids) + 1):
                for sub in itertools.combinations(ids, r):
                    active = set(sub)
                    if brute_all:
                        found = kernels.kernel_brute(orient, active)
                        assert found is not None, (g.to_json_obj(), sub)
                        assert kernels.is_kernel(orient, active, found)
                    chosen = kernels.kernel(orient, active)
                    assert kernels.is_kernel(orient, active, chosen)
    _check(capsys, 11, "every induced sub-digraph of a Galvin orientation "
                       "has a kernel; out-degrees within Delta-1", body)


def _bipartition_or_none(g):
    try:
        return kernels.find_bipartition(g)
    except Exception:
        return None


def test_criterion_12_avoidance_sweep(capsys):
    def body():
        rep = instances.verify("matching-avoidance",
                               max_n=4, max_e=7, max_mu=2)
        assert rep.ok, rep.counterexample
        assert rep.instances > 0
    _check(capsys, 12, "forbidden matchings always avoidable with "
                       "Delta+mu colours (n<=4, e<=7, mu<=2)", body)
