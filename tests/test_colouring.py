import pytest
from hypothesis import given, strategies as st

from edgeext.core import InputError, MultiGraph, edges_path
from edgeext.colouring import (Palette, check_load, colouring_from_json,
                               colouring_to_json_obj, extension_masks,
                               is_proper,
                               max_precoloured_degree, merge_colourings,
                               precoloured_degree_vertex, reduce_to_lists,
                               validate_precolouring)

from conftest import multigraphs


def test_palette_bounds():
    assert list(Palette(3).colours) == [1, 2, 3]
    assert 3 in Palette(3)
    assert 4 not in Palette(3)
    assert 0 not in Palette(3)
    with pytest.raises(InputError):
        Palette(0)


def test_is_proper_flags_conflicts():
    g = edges_path(3)
    assert is_proper(g, {0: 1, 1: 2})
    assert not is_proper(g, {0: 1, 1: 1})
    # parallel edges conflict too
    h = MultiGraph(2, [(0, 0, 1), (1, 0, 1)])
    assert not is_proper(h, {0: 2, 1: 2})
    assert is_proper(h, {0: 1, 1: 2})
    # partial colourings are judged on the coloured part only
    assert is_proper(g, {0: 1})
    assert is_proper(g, {})


def test_precoloured_degrees():
    g = edges_path(4)  # edges 0-1-2
    assert precoloured_degree_vertex(g, [0, 2], 1) == 1
    assert precoloured_degree_vertex(g, [0, 2], 2) == 1


def test_max_precoloured_degree_edge_cases():
    h = MultiGraph(3, [(0, 0, 1), (1, 0, 1), (2, 1, 2)])
    assert max_precoloured_degree(h, {}) == 0
    # parallel edges both count at each shared endpoint
    assert max_precoloured_degree(h, {0: 1, 1: 2}) == 2
    assert max_precoloured_degree(h, {0: 1, 1: 2, 2: 3}) == 3
    with pytest.raises(InputError):
        max_precoloured_degree(h, {42: 1})


@given(multigraphs(max_mu=3), st.data())
def test_max_precoloured_degree_matches_per_vertex_count(g, data):
    pre = {eid: 1 for eid in g.edge_ids if data.draw(st.booleans())}
    oracle = max((precoloured_degree_vertex(g, pre, v) for v in range(g.n)),
                 default=0)
    assert max_precoloured_degree(g, pre) == oracle


def test_validate_precolouring():
    g = edges_path(3)
    validate_precolouring(g, {0: 1, 1: 2}, Palette(2))
    with pytest.raises(InputError):
        validate_precolouring(g, {0: 3}, Palette(2))
    with pytest.raises(InputError):
        validate_precolouring(g, {0: 1, 1: 1}, Palette(2))
    with pytest.raises(InputError):
        validate_precolouring(g, {42: 1}, Palette(2))


def _two_pass_masks(g, colouring, palette, k):
    # the preamble before it was fused into one loop
    check_load(g, colouring, k)
    return validate_precolouring(g, colouring, palette)


def _outcome(f, *args):
    try:
        return f(*args)
    except InputError as exc:
        return f"InputError: {exc}"


# Each entry is one fault, on edges of its own, so that every fault of a
# combination is present; two colours lie outside the palette, so the
# first one must be reported.
_FAULTS = {
    "unknown": {42: 1, "x": 2},
    "load": {0: 1, 1: 2, 3: 3},        # vertex 1 meets three edges
    "palette": {5: 7, 7: 9},
    "improper": {2: 3, 4: 3},          # both at vertex 3
}


@pytest.mark.parametrize("kinds", [
    ("unknown", "load"), ("unknown", "palette"), ("unknown", "improper"),
    ("load", "palette"), ("load", "improper"), ("palette", "improper"),
    ("improper", "palette"), ("improper", "unknown"),
    ("unknown", "load", "palette"), ("load", "palette", "improper"),
    ("improper", "palette", "unknown"), ("palette", "improper", "load"),
])
def test_extension_masks_reports_faults_in_two_pass_order(kinds):
    g = MultiGraph(9, [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 1, 4), (4, 3, 5),
                       (5, 5, 6), (6, 6, 7), (7, 7, 8)])
    palette, k = Palette(4), 2
    pre = {}
    for kind in kinds:
        pre.update(_FAULTS[kind])
    fused = _outcome(extension_masks, g, pre, palette, k)
    assert isinstance(fused, str)
    assert fused == _outcome(_two_pass_masks, g, pre, palette, k)


@given(multigraphs(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3), st.data())
def test_extension_masks_matches_two_passes(g, k, extra, data):
    palette = Palette(g.delta() + extra)
    ids = list(g.edge_ids) + [99]
    chosen = data.draw(st.lists(st.sampled_from(ids), max_size=6,
                                unique=True))
    pre = {eid: data.draw(st.integers(min_value=0,
                                      max_value=palette.k + 1))
           for eid in chosen}
    assert (_outcome(extension_masks, g, pre, palette, k)
            == _outcome(_two_pass_masks, g, pre, palette, k))


def test_reduce_to_lists_removes_adjacent_colours():
    g = edges_path(4)
    reduced, lists = reduce_to_lists(g, {0: 1}, Palette(3))
    assert set(reduced.edge_ids) == {1, 2}
    assert lists[1] == frozenset({2, 3})
    assert lists[2] == frozenset({1, 2, 3})


def test_merge_colourings_rejects_overlap():
    merged = merge_colourings({0: 1}, {1: 2})
    assert merged == {0: 1, 1: 2}
    with pytest.raises(InputError):
        merge_colourings({0: 1}, {0: 2})


def test_colouring_json_round_trip():
    g = edges_path(3)
    obj = colouring_to_json_obj({0: 2, 1: 1}, Palette(4))
    import json
    back, palette = colouring_from_json(g, json.dumps(obj))
    assert back == {0: 2, 1: 1}
    assert palette.k == 4


def test_colouring_json_string_ids():
    g = MultiGraph(2, [("left", 0, 1)])
    back, _ = colouring_from_json(g, '{"palette": 2, "colours": {"left": 1}}')
    assert back == {"left": 1}
    with pytest.raises(InputError):
        colouring_from_json(g, '{"palette": 2, "colours": {"nope": 1}}')


@given(multigraphs(), st.integers(min_value=1, max_value=4))
def test_reduction_preserves_extensions(g, k):
    # any proper colouring of the reduced lists merges into a proper
    # total colouring extending the precolouring
    palette = Palette(g.delta() + k)
    pre = {}
    for eid, u, v in g.edges:
        for c in palette.colours:
            trial = dict(pre)
            trial[eid] = c
            if is_proper(g, trial):
                pre = trial
                break
        break  # precolour at most one edge; enough for the property
    reduced, lists = reduce_to_lists(g, pre, palette)
    for eid in reduced.edge_ids:
        for c in lists[eid]:
            assert is_proper(g, merge_colourings(pre, {eid: c}))
