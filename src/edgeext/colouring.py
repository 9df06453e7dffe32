"""Palettes, partial edge-colourings and the reduction to list instances.

A partial colouring is a plain mapping from edge id to a colour in
``{1, ..., k}``.  Reducing a properly precoloured graph deletes the
precoloured edges and leaves every surviving edge with the list of palette
colours not seen on adjacent precoloured edges; merging any solution of the
list instance with the precolouring yields a proper colouring of the
original graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import EdgeId, InputError, MultiGraph, _is_int


@dataclass(frozen=True)
class Palette:
    """The colour set {1, ..., k}."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InputError("palette size must be at least 1")

    @property
    def colours(self) -> range:
        return range(1, self.k + 1)

    def __contains__(self, colour) -> bool:
        return isinstance(colour, int) and 1 <= colour <= self.k


def is_proper(g: MultiGraph, colouring: Mapping[EdgeId, int]) -> bool:
    """True iff no two adjacent coloured edges share a colour.

    Parallel edges share both endpoints and therefore count as adjacent.
    """
    at_vertex: dict[tuple[int, int], EdgeId] = {}
    for eid, colour in colouring.items():
        u, v = g.endpoints(eid)
        for w in (u, v):
            key = (w, colour)
            if key in at_vertex:
                return False
            at_vertex[key] = eid
    return True


def precoloured_degree_vertex(g: MultiGraph, precoloured: Iterable[EdgeId],
                              v: int) -> int:
    """Number of precoloured edges incident with vertex v."""
    pre = set(precoloured)
    return sum(1 for i in g.incidence[v] if g.ids[i] in pre)


def max_precoloured_degree(g: MultiGraph,
                           colouring: Mapping[EdgeId, int]) -> int:
    """Most precoloured edges meeting any one vertex (0 when none are)."""
    count: dict[int, int] = {}
    for eid in colouring:
        for v in g.endpoints(eid):
            count[v] = count.get(v, 0) + 1
    return max(count.values(), default=0)


def check_load(g: MultiGraph, colouring: Mapping[EdgeId, int], k: int) -> None:
    """Reject unknown edges and a vertex meeting more than k of them."""
    if max_precoloured_degree(g, colouring) > k:
        raise InputError(f"a vertex meets more than {k} precoloured edges")


def validate_precolouring(g: MultiGraph, colouring: Mapping[EdgeId, int],
                          palette: Palette) -> list[int]:
    """Reject unknown edges, colours outside the palette and an improper
    precolouring; return each vertex's used colours as a bitmask.

    This is ``extension_masks`` with a load bound no vertex can pass."""
    return extension_masks(g, colouring, palette, len(colouring))


def extension_masks(g: MultiGraph, colouring: Mapping[EdgeId, int],
                    palette: Palette, k: int) -> list[int]:
    """The extenders' shared preamble: bound, then validate, in one pass.

    Rejects, in this order, an edge id the graph lacks, a vertex meeting
    more than k precoloured edges (the hypothesis every extension theorem
    here shares), a colour outside the palette and an improper
    precolouring.  Returns each vertex's used colours as a bitmask.  An
    uncoloured edge uv may take exactly the palette colours outside
    ``used[u] | used[v]``.
    """
    used = [0] * g.n
    load = [0] * g.n
    outside = None
    proper = True
    for eid, colour in colouring.items():
        u, v = g.endpoints(eid)
        load[u] += 1
        load[v] += 1
        if colour not in palette:
            outside = outside or (eid, colour)
            continue
        bit = 1 << colour
        if (used[u] | used[v]) & bit:
            proper = False
        used[u] |= bit
        used[v] |= bit
    if max(load, default=0) > k:
        raise InputError(f"a vertex meets more than {k} precoloured edges")
    if outside:
        raise InputError(f"edge {outside[0]!r} has colour {outside[1]!r} "
                         f"outside palette [{palette.k}]")
    if not proper:
        raise InputError("precolouring is not proper")
    return used


def certify(ids: Sequence[EdgeId], ends: Sequence[tuple[int, int]],
            allowed: Sequence[int], used: list[int],
            pairs: Iterable[tuple[int, int]], out: dict) -> None:
    """The engines' closing check: write each (edge index i, colour c) of
    ``pairs`` into ``out[ids[i]]``, raising ``AssertionError`` unless c is
    in the mask ``allowed[i]`` and new at both ends ``ends[i]``; ``used[w]``
    is vertex w's colour mask, updated in place.  No mask holds bit 0, so
    colour 0, an uncoloured edge, always fails."""
    for i, c in pairs:
        bit = 1 << c
        u, v = ends[i]
        if not allowed[i] & bit or (used[u] | used[v]) & bit:
            raise AssertionError(f"improper colouring: edge {ids[i]!r} "
                                 f"may not take colour {c}")
        used[u] |= bit
        used[v] |= bit
        out[ids[i]] = c


def used_colours(g: MultiGraph, colouring: Mapping[EdgeId, int]) -> list[int]:
    """Each vertex's used colours as a bitmask, read straight off the
    edges' ends: ``extension_masks`` for a precolouring already known to
    be proper, with nothing checked."""
    ends, index = g.ends, g.index
    used = [0] * g.n
    for eid, colour in colouring.items():
        u, v = ends[index[eid]]
        bit = 1 << colour
        used[u] |= bit
        used[v] |= bit
    return used


def reduce_to_lists(
    g: MultiGraph,
    colouring: Mapping[EdgeId, int],
    palette: Palette,
) -> tuple[MultiGraph, dict[EdgeId, frozenset[int]]]:
    """Delete precoloured edges; list each survivor's still-usable colours."""
    used = validate_precolouring(g, colouring, palette)
    reduced = g.delete_edges(colouring.keys())
    lists = {}
    for eid, u, v in reduced.edges:
        banned = used[u] | used[v]
        lists[eid] = frozenset(c for c in palette.colours
                               if not banned >> c & 1)
    return reduced, lists


def merge_colourings(base: Mapping[EdgeId, int],
                     extension: Mapping[EdgeId, int]) -> dict[EdgeId, int]:
    merged = dict(base)
    for eid, colour in extension.items():
        if eid in merged and merged[eid] != colour:
            raise InputError(f"conflicting colours for edge {eid!r}")
        merged[eid] = colour
    return merged


# -- precolouring file format -------------------------------------------

def colouring_to_json_obj(colouring: Mapping[EdgeId, int],
                          palette: Palette) -> dict:
    return {"palette": palette.k,
            "colours": {str(eid): c for eid, c in colouring.items()}}


def _resolve_edge_key(g: MultiGraph, key: str,
                      source: str = "precolouring") -> EdgeId:
    """The edge id that ``key``, read from the input ``source``, names."""
    if g.has_edge(key):
        return key
    try:
        as_int = int(key)
    except ValueError:
        as_int = None
    if as_int is not None and g.has_edge(as_int):
        return as_int
    raise InputError(f"{source} names unknown edge {key!r}")


def colouring_from_json_obj(g: MultiGraph, obj: Mapping
                            ) -> tuple[dict[EdgeId, int], Palette]:
    try:
        k = obj["palette"]
        raw = obj["colours"]
    except (KeyError, TypeError):
        raise InputError("precolouring object needs 'palette' and 'colours'") from None
    if not _is_int(k):
        raise InputError(f"palette size {k!r} is not an integer")
    if not isinstance(raw, Mapping):
        raise InputError("'colours' must map edge ids to colours")
    colouring = {}
    for key, value in raw.items():
        eid = _resolve_edge_key(g, key)
        if not _is_int(value):
            raise InputError(
                f"colour {value!r} of edge {key!r} is not an integer")
        colouring[eid] = value
    return colouring, Palette(k)


def colouring_from_json(g: MultiGraph, text: str
                        ) -> tuple[dict[EdgeId, int], Palette]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    return colouring_from_json_obj(g, obj)

