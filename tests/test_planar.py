import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from edgeext import planar
from edgeext.core import InputError, MultiGraph, edges_cycle
from edgeext.colouring import Palette, is_proper
from edgeext.exact import extend as exact_extend
from edgeext.instances import random_distance_matching
from edgeext.planar import (REDUCTION, EXACT_FALLBACK, EVEN_CYCLE,
                            LIGHT_EDGE, RotationSystem,
                            VARIANT_DISTANCE3, VARIANT_MATCHING,
                            audit_discharge, check_rotation,
                            colour_even_cycle_lists, extend_planar,
                            find_reducible, hub_triangulation, icosahedron,
                            random_plane_graph, rotation_from_points,
                            trace_faces, wheel)

import oracles


# -- rotation systems and face tracing ----------------------------------

def test_wheel_embedding_euler():
    for k in (3, 5, 9, 17):
        g, r = wheel(k)
        check_rotation(g, r)
        faces = trace_faces(g, r)
        # V - E + F = 2: (k+1) - 2k + F = 2
        assert len(faces) == k + 1


def test_icosahedron_embedding():
    g, r = icosahedron()
    assert g.n == 12 and len(g.edges) == 30
    assert all(g.degree(v) == 5 for v in range(12))
    faces = trace_faces(g, r)
    assert len(faces) == 20
    assert all(len(w) == 3 for w in faces.faces)


def test_bad_rotation_rejected():
    g, r = wheel(4)
    broken = dict(r.around)
    v = 1
    broken[v] = tuple(reversed(broken[v][:-1]))  # drop one edge
    with pytest.raises(InputError):
        check_rotation(g, RotationSystem(broken))


def test_rotation_from_points_matches_geometry():
    # a triangle embedded with its natural coordinates has 2 faces
    g = MultiGraph(3, [(0, 0, 1), (1, 1, 2), (2, 2, 0)])
    r = rotation_from_points(g, {0: (0, 0), 1: (1, 0), 2: (0, 1)})
    assert len(trace_faces(g, r)) == 2


def test_random_plane_graphs_are_plane_and_reproducible():
    for seed in range(8):
        g, r = random_plane_graph(20, seed)
        trace_faces(g, r)  # raises if inconsistent
        g2, r2 = random_plane_graph(20, seed)
        assert g.edges == g2.edges
        assert r.around == r2.around


def test_hub_triangulation_keeps_hub_degree():
    for seed in (0, 1, 2):
        g, r = hub_triangulation(17, 12, seed)
        assert g.degree(0) == 17
        assert g.delta() == 17
        trace_faces(g, r)


def _relabelled(g, r, seed):
    # mixed int/str ids in shuffled order, so id order differs from edge order
    rng = random.Random(seed)
    labels = list(range(len(g.edges)))
    rng.shuffle(labels)
    new = {eid: x if x % 2 else str(x)
           for (eid, _, _), x in zip(g.edges, labels)}
    return (MultiGraph(g.n, [(new[eid], u, v) for eid, u, v in g.edges]),
            RotationSystem({v: tuple(new[eid] for eid in ring)
                            for v, ring in r.around.items()}))


_PLANE_GRAPHS = {
    **{f"wheel({k})": (lambda k=k: wheel(k)) for k in (3, 5, 17)},
    "icosahedron": icosahedron,
    **{f"hub_triangulation(17, 12, {s})":
       (lambda s=s: hub_triangulation(17, 12, s)) for s in (0, 1, 2)},
    **{f"random_plane_graph(20, {s})":
       (lambda s=s: random_plane_graph(20, s)) for s in range(4)},
    "relabelled random_plane_graph(15, 7)":
        lambda: _relabelled(*random_plane_graph(15, 7), 7),
    "relabelled wheel(9)": lambda: _relabelled(*wheel(9), 9),
}


@pytest.mark.parametrize("name", list(_PLANE_GRAPHS))
def test_trace_faces_matches_min_oracle(name):
    # each face starts at the least unused dart, as the min-based tracer
    # found it: same faces, same walks, same order
    g, r = _PLANE_GRAPHS[name]()
    assert trace_faces(g, r).faces == oracles.trace_faces(g, r).faces


# -- reducible configurations -------------------------------------------

def test_light_edge_found_in_wheel():
    g, r = wheel(17)
    cfg = find_reducible(g, [], VARIANT_MATCHING, g.delta())
    assert cfg is not None
    assert cfg.kind in ("light-edge", "base-case")


def test_even_cycle_list_colouring():
    g = edges_cycle(6)
    cycle = list(g.edge_ids)
    lists = {e: {1, 2} for e in cycle}
    col = colour_even_cycle_lists(g, cycle, lists)
    assert is_proper(g, col)
    assert all(col[e] in lists[e] for e in cycle)
    # distinct lists of size 2 are also enough (even cycles are
    # 2-choosable)
    lists = {0: {1, 2}, 1: {2, 3}, 2: {3, 4}, 3: {4, 5}, 4: {5, 6},
             5: {1, 6}}
    col = colour_even_cycle_lists(g, cycle, lists)
    assert is_proper(g, col)
    assert all(col[e] in lists[e] for e in cycle)


# -- the extender --------------------------------------------------------

def test_extend_planar_wheel_matching_mode():
    rng = random.Random(5)
    g, r = wheel(17)
    palette = Palette(g.delta() + 1)
    for _ in range(10):
        pre = random_distance_matching(g, 1, palette, rng)
        out = extend_planar(g, pre, VARIANT_MATCHING)
        assert out.solved and out.method == REDUCTION
        assert is_proper(g, out.colouring)
        for eid, c in pre.items():
            assert out.colouring[eid] == c


def test_extend_planar_distance3_mode():
    rng = random.Random(6)
    g, r = wheel(20)
    palette = Palette(g.delta())
    for _ in range(10):
        pre = random_distance_matching(g, 3, palette, rng)
        out = extend_planar(g, pre, VARIANT_DISTANCE3)
        assert out.solved and out.method == REDUCTION
        assert is_proper(g, out.colouring)


def test_extend_planar_rejects_non_matching():
    g, _ = wheel(5)
    with pytest.raises(InputError):
        extend_planar(g, {0: 1, 1: 2}, VARIANT_MATCHING)


def test_extend_planar_falls_back_below_threshold():
    # small maximum degree: no reducible structure is guaranteed, but the
    # exact fallback still decides correctly
    g = edges_cycle(6)
    out = extend_planar(g, {0: 1}, VARIANT_MATCHING)
    assert out.solved
    assert is_proper(g, out.colouring)
    ex = exact_extend(g, {0: 1}, Palette(g.delta() + 1))
    assert ex.solved


@pytest.mark.parametrize("budget, status, nodes, depth",
                         [(None, "solved", 11, 9), (1, "budget", 2, 1)])
def test_extend_planar_reports_the_exact_fallbacks_search(budget, status,
                                                          nodes, depth):
    # K5 has no light edge and no auxiliary even cycle, so the exact
    # search settles the whole graph, and its counts are the outcome's
    g = MultiGraph(5, [(i, u, v) for i, (u, v) in
                       enumerate((u, v) for u in range(5)
                                 for v in range(u + 1, 5))])
    ex = exact_extend(g, {}, Palette(5), budget=budget)
    out = extend_planar(g, {}, VARIANT_MATCHING, budget)
    assert (ex.status, ex.nodes, ex.depth) == (status, nodes, depth)
    assert (out.status, out.nodes, out.depth, out.method) == \
        (status, nodes, depth, EXACT_FALLBACK)
    assert out.colouring == ex.colouring


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=200))
def test_extend_planar_agrees_with_exact_on_small_plane_graphs(seed):
    g, r = random_plane_graph(9, seed)
    rng = random.Random(seed)
    palette = Palette(g.delta() + 1)
    pre = random_distance_matching(g, 1, palette, rng)
    out = extend_planar(g, pre, VARIANT_MATCHING)
    ex = exact_extend(g, pre, palette)
    assert out.solved == ex.solved
    if out.solved:
        assert is_proper(g, out.colouring)


def _same_outcome(g, pre, mode, budget=None):
    out = extend_planar(g, pre, mode, budget)
    ref = oracles.extend_planar(g, pre, mode, budget)
    assert (out.status, out.method) == (ref.status, ref.method)
    assert out.colouring == ref.colouring
    return out


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["plane", "hub", "wheel"]),
       st.integers(min_value=0, max_value=10_000),
       st.sampled_from([VARIANT_MATCHING, VARIANT_DISTANCE3]),
       st.sampled_from([None, 1, 10]))
def test_extend_planar_agrees_with_rebuilding_oracle(kind, seed, mode, budget):
    # Small plane graphs have small Delta and reach even cycles and the
    # exact fallback; wheels and hub triangulations peel by light edges.
    # With hub degree k >= 16 up to 12 extra vertices always find a face:
    # before each one, no other vertex has degree above 3 + 11 <= k - 2.
    rng = random.Random(seed)
    if kind == "plane":
        g, _ = random_plane_graph(rng.randint(3, 16), seed)
    elif kind == "hub":
        g, _ = hub_triangulation(rng.randint(16, 20), rng.randint(0, 12), seed)
    else:
        g, _ = wheel(rng.randint(3, 40))
    t = 1 if mode == VARIANT_MATCHING else 3
    palette = Palette(g.delta() + 1 if mode == VARIANT_MATCHING
                      else g.delta())
    pre = random_distance_matching(g, t, palette, rng)
    _same_outcome(g, pre, mode, budget)


def test_extend_planar_peels_even_cycles_incrementally(monkeypatch):
    # Each of these peels an even cycle when no light edge is left, then
    # goes on peeling; find_reducible runs only at those points.
    kinds = []
    original = planar.find_reducible

    def spy(*args):
        cfg = original(*args)
        kinds.append(cfg and cfg.kind)
        return cfg

    monkeypatch.setattr(planar, "find_reducible", spy)
    for seed, pre in ((5, {}), (5, {2: 4, 5: 2}), (6, {5: 1, 6: 3})):
        g, _ = random_plane_graph(5, seed)
        kinds.clear()
        out = _same_outcome(g, pre, VARIANT_MATCHING)
        assert out.solved
        assert EVEN_CYCLE in kinds
        assert LIGHT_EDGE not in kinds


def test_extend_planar_large_wheel_builds_no_graph(monkeypatch):
    # every fourth rim edge, coloured round the palette [5001]
    g, _ = wheel(5000)
    pre = {5000 + 4 * j: 1 + j % 5001 for j in range(1250)}
    built = []
    original = MultiGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(MultiGraph, "__init__", counting_init)
    out = extend_planar(g, pre, VARIANT_MATCHING)
    assert out.solved and out.method == REDUCTION
    assert len(out.colouring) == len(g.edges)
    assert all(out.colouring[eid] == c for eid, c in pre.items())
    assert built == []


# -- the discharging audit ----------------------------------------------

def test_audit_global_identities_random_plane_graphs():
    for seed in range(12):
        g, r = random_plane_graph(18, seed)
        for variant in (VARIANT_MATCHING, VARIANT_DISTANCE3):
            led = audit_discharge(g, r, [], variant)
            assert led.sum_alpha == Fraction(-12)
            assert led.sum_gamma == 0
            assert led.sum_delta == 0


def test_audit_icosahedron_vertex_balance():
    g, r = icosahedron()
    led = audit_discharge(g, r, [], VARIANT_MATCHING)
    obj = led.to_json_obj()
    for v, entry in obj["vertices"].items():
        assert entry["balance"] == "0"
        assert entry["class"] == "U5"
        assert entry["alpha"] == "9"


def test_audit_wheel_balances_nonnegative_at_threshold():
    # hub degree 17 meets the matching-variant threshold; with no
    # precoloured matching every element balance is >= 0 except where a
    # named precondition fails
    g, r = wheel(17)
    led = audit_discharge(g, r, [], VARIANT_MATCHING)
    for violation in led.violations:
        assert violation["preconditions"], violation


def test_audit_literal_rules_flag_changes_rules():
    g, r = wheel(17)
    strict = audit_discharge(g, r, [], VARIANT_MATCHING,
                             literal_rules=True)
    normal = audit_discharge(g, r, [], VARIANT_MATCHING)
    named = {rec["rule"] for rec in strict.to_json_obj()["corner_rules"]}
    assert "delta7" not in named
    # conservation holds under either reading
    assert strict.sum_delta == 0 and normal.sum_delta == 0


def test_distance3_audit_at_a_hub_of_degree_delta():
    # a wheel on 17 rim vertices whose hub 0 (degree 20 = delta) also meets
    # A = 18 with its leaf 19, B = 20 on a marked edge to the rim, and
    # O = 21, joined to the rim and to its leaf 22, each inside a triangle
    # of the wheel
    def at(slot, radius):
        angle = 2 * math.pi * slot / 20
        return radius * math.cos(angle), radius * math.sin(angle)

    slots = [s for s in range(20) if s not in (5, 10, 15)]
    rim = {s: 1 + i for i, s in enumerate(slots)}
    points = {0: (0.0, 0.0), 18: at(5, 0.5), 19: at(5, 0.75),
              20: at(10, 0.5), 21: at(15, 0.5), 22: at(15, 0.75)}
    points.update((v, at(s, 1.0)) for s, v in rim.items())
    pairs = [(0, v) for v in rim.values()]
    pairs += [(v, v % 17 + 1) for v in range(1, 18)]     # the rim cycle
    pairs += [(0, 18), (18, 19), (0, 20), (20, rim[9]), (0, 21),
              (21, rim[14]), (21, 22)]
    g = MultiGraph(23, [(i, u, v) for i, (u, v) in enumerate(pairs)])
    r = rotation_from_points(g, points)
    marked = pairs.index((20, rim[9]))
    led = audit_discharge(g, r, [marked], VARIANT_DISTANCE3)
    assert led.delta == g.delta() == 20
    # the hub sends 3 to A, a T-vertex of degree 2, and 2 to B, of degree
    # 2 and covered by the marked edge; A passes its 3 on to its leaf
    assert {v: x for v, x in led.gamma.items() if x} == {
        0: -5, 19: 3, 20: 2, 21: -3, 22: 3}
    assert [led.classification[v] for v in (18, 20, 21)] == \
        ["T2'", "U2", "T3"]
    # at the hub: delta4 on the face closed by the marked edge, delta5 on
    # the two faces at O, delta6 on every other face
    hub = Counter(rec["rule"] for rec in led.corner_rules
                  if rec["vertex"] == 0)
    assert hub == {"delta4": 1, "delta5": 2, "delta6": 16}
    assert led.sum_gamma == 0 and led.sum_delta == 0


def test_audit_reports_a_light_edge_and_an_even_cycle_together():
    # hubs 0 and 1 each meet rim vertices 2..7, and the rim pairs (2,3),
    # (4,5), (6,7) are joined: the pair edges are light (3 + 3 <= 6 + 2)
    # and the hub-rim edges, degree 3 to degree 6, hold even cycles
    pairs = [(hub, rim) for hub in (0, 1) for rim in range(2, 8)]
    pairs += [(2, 3), (4, 5), (6, 7)]
    g = MultiGraph(8, [(i, u, v) for i, (u, v) in enumerate(pairs)])
    points = {0: (0.0, 1.0), 1: (0.0, -1.0)}
    points.update((rim, (float(rim - 5), 0.0)) for rim in range(2, 8))
    r = rotation_from_points(g, points)
    assert len(trace_faces(g, r)) == len(g.edges) - g.n + 2
    assert find_reducible(g, [], VARIANT_MATCHING, delta=6).kind == LIGHT_EDGE
    led = audit_discharge(g, r, [], VARIANT_MATCHING, delta=6)
    assert "light non-matching edge present (degree-sum lower bound fails)" \
        in led.preconditions_failed
    assert "even cycle in the auxiliary subgraph" in led.preconditions_failed


def test_audit_requires_simple_connected():
    g = MultiGraph(2, [(0, 0, 1), (1, 0, 1)])
    r = RotationSystem({0: (0, 1), 1: (1, 0)})
    with pytest.raises(InputError):
        audit_discharge(g, r, [], VARIANT_MATCHING)
