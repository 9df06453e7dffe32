"""Bipartite machinery: König colouring, line-graph orientations, kernels.

A proper Delta-colouring of a bipartite multigraph orients its line graph
so that every induced sub-digraph has a kernel; extracting kernels colour
by colour solves list instances whose lists have size at least Delta.
The same pipeline powers the precolouring extenders for bipartite and
Shannon-bound palettes, with the exact solver as a total fallback.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import EdgeId, InputError, MultiGraph, _id_sort_key
from .colouring import (Palette, is_proper, merge_colourings,
                        reduce_extension)
from . import exact
from .exact import SolveOutcome, SOLVED

KERNEL = "kernel"
EXACT_FALLBACK = "exact-fallback"


def find_bipartition(g: MultiGraph) -> dict[int, str]:
    """Two-colour the vertices as 'X'/'Y', or reject an odd cycle.

    Vertices without edges land on side 'X'.
    """
    side: dict[int, str] = {}
    for v in range(g.n):
        if v in side:
            continue
        side[v] = "X"
        stack = [v]
        while stack:
            w = stack.pop()
            want = "Y" if side[w] == "X" else "X"
            for _, x in g.incident(w):
                if x not in side:
                    side[x] = want
                    stack.append(x)
                elif side[x] != want:
                    raise InputError("graph is not bipartite")
    return side


def check_bipartition(g: MultiGraph, side_of: Mapping[int, str]) -> None:
    for _, u, v in g.edges:
        su, sv = side_of.get(u), side_of.get(v)
        if su not in ("X", "Y") or sv not in ("X", "Y") or su == sv:
            raise InputError("bipartition does not split every edge")


def konig_colour(g: MultiGraph,
                 side_of: Mapping[int, str] | None = None) -> dict[EdgeId, int]:
    """Proper Delta-edge-colouring of a bipartite multigraph.

    Alternating-path augmentation: for an edge uv pick a colour a free at u
    and b free at v; if they differ, flipping the a/b path from v frees a
    at both ends (the path cannot reach u, by parity).
    """
    if side_of is None:
        side_of = find_bipartition(g)
    check_bipartition(g, side_of)
    delta = g.delta()
    colour: dict[EdgeId, int] = {}
    free = [set(range(1, delta + 1)) for _ in range(g.n)]

    def flip_path(start: int, a: int, b: int) -> None:
        # Flip the a/b alternating path from ``start`` (where b is free and
        # a present); afterwards a is free at ``start``.
        path = []
        v, want, prev = start, a, None
        while True:
            eid = next((e for e, _ in g.incident(v)
                        if e != prev and colour.get(e) == want), None)
            if eid is None:
                break
            path.append(eid)
            u1, u2 = g.endpoints(eid)
            v, prev = (u2 if u1 == v else u1), eid
            want = b if want == a else a
        touched = {start, v}
        for eid in path:
            u1, u2 = g.endpoints(eid)
            touched.update((u1, u2))
            colour[eid] = b if colour[eid] == a else a
        for w in touched:
            present = {colour[e] for e, _ in g.incident(w) if e in colour}
            free[w] = set(range(1, delta + 1)) - present

    for eid, u, v in g.edges:
        common = free[u] & free[v]
        if not common:
            a = min(free[u])
            b = min(free[v])
            flip_path(v, a, b)
            common = free[u] & free[v]
        c = min(common)
        colour[eid] = c
        free[u].discard(c)
        free[v].discard(c)

    if not is_proper(g, colour):
        raise AssertionError("alternating-path colouring is improper")
    if colour and max(colour.values()) > delta:
        raise AssertionError("alternating-path colouring exceeded Delta")
    return colour


@dataclass
class GalvinOrientation:
    """Orientation of the line graph induced by a proper base colouring.

    Between edges sharing an X-vertex the arc runs towards the smaller base
    colour; sharing a Y-vertex, towards the larger.  Parallel edges share a
    vertex on both sides and get one arc each way.
    """

    graph: MultiGraph
    side_of: Mapping[int, str]
    base_colouring: dict[EdgeId, int]
    arcs: dict[EdgeId, frozenset[EdgeId]]

    def out_degree(self, eid: EdgeId) -> int:
        return len(self.arcs[eid])

    def has_arc(self, e: EdgeId, f: EdgeId) -> bool:
        return f in self.arcs[e]


def galvin_orient(g: MultiGraph, side_of: Mapping[int, str] | None,
                  phi: Mapping[EdgeId, int]) -> GalvinOrientation:
    if side_of is None:
        side_of = find_bipartition(g)
    check_bipartition(g, side_of)
    delta = g.delta()
    for eid in g.edge_ids:
        c = phi.get(eid)
        if c is None or not 1 <= c <= delta:
            raise InputError(f"base colouring misses edge {eid!r} or "
                             f"leaves the range [1..{delta}]")
    if not is_proper(g, phi):
        raise InputError("base colouring is not proper")

    arcs: dict[EdgeId, set[EdgeId]] = {eid: set() for eid in g.edge_ids}
    for v in range(g.n):
        at_x = side_of[v] == "X"
        entries = g.incident(v)
        for (e, _), (f, _) in itertools.permutations(entries, 2):
            if at_x:
                if phi[e] > phi[f]:
                    arcs[e].add(f)
            else:
                if phi[e] < phi[f]:
                    arcs[e].add(f)
    orient = GalvinOrientation(g, dict(side_of), dict(phi),
                               {e: frozenset(s) for e, s in arcs.items()})
    for eid in g.edge_ids:
        if orient.out_degree(eid) > delta - 1:
            raise AssertionError("orientation out-degree exceeded Delta-1")
    return orient


def is_kernel(orientation: GalvinOrientation, active: set,
              candidate: set) -> bool:
    """Kernel test in the sub-digraph induced by ``active``."""
    g = orientation.graph
    if not candidate <= active:
        return False
    for e in candidate:
        for f in candidate:
            if e != f and f in g.adjacent_edges(e):
                return False
    for e in active - candidate:
        if not any(f in candidate for f in orientation.arcs[e]):
            return False
    return True


def kernel_brute(orientation: GalvinOrientation,
                 active: Iterable[EdgeId]) -> set | None:
    act = set(active)
    ids = sorted(act, key=_id_sort_key)
    for r in range(len(ids), -1, -1):
        for combo in itertools.combinations(ids, r):
            cand = set(combo)
            if is_kernel(orientation, act, cand):
                return cand
    return None


def kernel(orientation: GalvinOrientation, active: Iterable[EdgeId]) -> set:
    """Kernel of the sub-digraph induced by the active edges.

    Deferred-acceptance construction: X-vertices offer their active edges
    in increasing base colour, Y-vertices hold the largest base colour
    offered so far.  The held edges form a matching whose stability is
    exactly the kernel property, so by Galvin's argument a kernel always
    comes out; the result is still verified.
    """
    g = orientation.graph
    phi = orientation.base_colouring
    side_of = orientation.side_of
    act = set(active)
    for eid in act:
        g.endpoints(eid)
    if not act:
        return set()

    x_end = {}
    y_end = {}
    for eid in act:
        u, v = g.endpoints(eid)
        x_end[eid], y_end[eid] = (u, v) if side_of[u] == "X" else (v, u)

    queue_at_x: dict[int, list[EdgeId]] = {}
    for eid in sorted(act, key=lambda e: (phi[e], _id_sort_key(e))):
        queue_at_x.setdefault(x_end[eid], []).append(eid)
    held: dict[int, EdgeId] = {}
    free_x = list(queue_at_x)
    while free_x:
        x = free_x.pop()
        queue = queue_at_x[x]
        while queue:
            e = queue.pop(0)
            y = y_end[e]
            rival = held.get(y)
            if rival is None:
                held[y] = e
                break
            if (phi[e], _id_sort_key(e)) > (phi[rival], _id_sort_key(rival)):
                # rival's X-end resumes proposing from its next edge.
                held[y] = e
                free_x.append(x_end[rival])
                break
        # x exhausted its list: it stays unmatched.

    result = set(held.values())
    if not is_kernel(orientation, act, result):
        raise AssertionError("no kernel found in induced sub-digraph")
    return result


def list_colour_bipartite(g: MultiGraph,
                          side_of: Mapping[int, str] | None,
                          lists: Mapping[EdgeId, Iterable[int]],
                          budget: int | None = None) -> SolveOutcome:
    """List-colour a bipartite multigraph; kernel extraction first.

    Guaranteed to succeed whenever every list has size at least
    max{d(u), d(v)}; the colour-by-colour kernel path alone already covers
    lists of size at least Delta, and an exact search on the residual (then
    on the whole instance) covers everything else.  The outcome's method
    tag records which engine finished the job.
    """
    if side_of is None:
        side_of = find_bipartition(g)
    check_bipartition(g, side_of)
    remaining = {eid: set(lists[eid]) for eid in g.edge_ids}
    if not remaining:
        return SolveOutcome(SOLVED, {}, method=KERNEL)

    phi = konig_colour(g, side_of)
    orientation = galvin_orient(g, side_of, phi)
    colour: dict[EdgeId, int] = {}
    all_colours = sorted(set().union(*remaining.values())) \
        if any(remaining.values()) else []
    for c in all_colours:
        active = {eid for eid in remaining if c in remaining[eid]}
        if not active:
            continue
        chosen = kernel(orientation, active)
        for eid in chosen:
            colour[eid] = c
            del remaining[eid]
        for eid in active - chosen:
            remaining[eid].discard(c)

    if not remaining:
        if not is_proper(g, colour):
            raise AssertionError("kernel colouring is improper")
        return SolveOutcome(SOLVED, colour, method=KERNEL)

    # Some list ran dry before its edge was chosen: solve the residual
    # exactly, honouring the colours already committed.
    residual = g.restrict_edges(remaining.keys())
    residual_lists = {}
    for eid in residual.edge_ids:
        banned = {colour[f] for f in g.adjacent_edges(eid) if f in colour}
        residual_lists[eid] = set(lists[eid]) - banned
    outcome = exact.solve_list(residual, residual_lists, budget=budget)
    if outcome.solved:
        merged = merge_colourings(colour, outcome.colouring)
        if not is_proper(g, merged):
            raise AssertionError("residual merge is improper")
        return SolveOutcome(SOLVED, merged, nodes=outcome.nodes,
                            depth=outcome.depth, method=EXACT_FALLBACK)
    # The committed kernel colours may themselves be the obstruction;
    # retry from scratch.
    outcome = exact.solve_list(g, lists, budget=budget)
    outcome.method = EXACT_FALLBACK
    return outcome


def extend_bipartite(g: MultiGraph,
                     side_of: Mapping[int, str] | None,
                     c: Mapping[EdgeId, int], k: int,
                     budget: int | None = None) -> SolveOutcome:
    """Extend a precolouring of a bipartite multigraph within [Delta+k].

    Requires every vertex to meet at most k precoloured edges; under that
    hypothesis an extension always exists and is returned.
    """
    if side_of is None:
        side_of = find_bipartition(g)
    check_bipartition(g, side_of)
    if k < 1:
        raise InputError("k must be positive")
    reduced, lists = reduce_extension(g, c, Palette(g.delta() + k), k)
    for eid, u, v in reduced.edges:
        need = max(reduced.degree(u), reduced.degree(v))
        if len(lists[eid]) < need:
            raise AssertionError("list inequality failed after reduction")
    outcome = list_colour_bipartite(reduced, side_of, lists, budget=budget)
    if not outcome.solved:
        raise AssertionError("bipartite extension failed despite guarantee")
    outcome.colouring = merge_colourings(c, outcome.colouring)
    return outcome


def extend_shannon(g: MultiGraph, c: Mapping[EdgeId, int], k: int,
                   budget: int | None = None) -> SolveOutcome:
    """Extend a precolouring within [floor(3*Delta/2 + k/2)].

    Requires every vertex to meet at most k precoloured edges; an
    extension always exists under that hypothesis.
    """
    if k < 1:
        raise InputError("k must be positive")
    if not g.edges:
        return SolveOutcome(SOLVED, {}, method=KERNEL)
    palette = Palette((3 * g.delta() + k) // 2)
    reduced, lists = reduce_extension(g, c, palette, k)
    for eid, u, v in reduced.edges:
        du, dv = reduced.degree(u), reduced.degree(v)
        need = max(du, dv) + min(du, dv) // 2
        if len(lists[eid]) < need:
            raise AssertionError("list inequality failed after reduction")
    try:
        side_of = find_bipartition(reduced)
    except InputError:
        side_of = None
    if side_of is not None:
        outcome = list_colour_bipartite(reduced, side_of, lists,
                                        budget=budget)
    else:
        outcome = exact.solve_list(reduced, lists, budget=budget)
        outcome.method = EXACT_FALLBACK
    if not outcome.solved:
        raise AssertionError("extension failed despite palette guarantee")
    outcome.colouring = merge_colourings(c, outcome.colouring)
    return outcome
