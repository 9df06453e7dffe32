"""Reference implementations kept as test oracles.

``solve_list`` is the recursive backtracking list-edge-colourer that
``edgeext.exact.solve_list`` replaced.  It explores the same search tree
(branching edge, colour order, symmetry breaking and parity prune), so
the two must agree on status, colouring (insertion order included),
node count and depth.

``konig_colour`` through ``extend_bipartite`` are the id-keyed bipartite
pipeline (dicts and sets keyed by edge id, a reduced ``MultiGraph`` per
instance) that the dense one in ``edgeext.kernels`` replaced.  Both make
the same choices, so they must agree on status, method, node count and
the colouring as a mapping.

``enumerate_edge_sets`` is the enumerator that compared every pair of
edges with ``edge_distance`` and had no load bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from edgeext import exact
from edgeext.colouring import (Palette, is_proper, merge_colourings,
                               reduce_extension)
from edgeext.core import (EdgeId, InputError, MultiGraph, _id_sort_key,
                          edge_distance)
from edgeext.exact import (BUDGET, SOLVED, UNSOLVABLE, SolveOutcome,
                           _check_solution, _colours_of, _mask_of)
from edgeext.kernels import (EXACT_FALLBACK, KERNEL, check_bipartition,
                             find_bipartition)


class _BudgetExceeded(Exception):
    pass


def solve_list(g: MultiGraph,
               lists: Mapping[EdgeId, Iterable[int]],
               budget: int | None = None) -> SolveOutcome:
    """Decide a list-edge-colouring instance by exhaustive backtracking.

    Deterministic: the most constrained edge (smallest remaining list) is
    branched first, ties by edge id; colours are tried in increasing order.
    When every list is the same full palette {1..k}, interchangeable unused
    colours are skipped (symmetry breaking); list instances are searched
    without it so correctness never depends on the symmetry argument.
    """
    eids = list(g.edge_ids)
    for eid in eids:
        if eid not in lists:
            raise InputError(f"edge {eid!r} has no colour list")
    if not eids:
        return SolveOutcome(SOLVED, {}, nodes=0, depth=0)

    masks = {eid: _mask_of(lists[eid]) for eid in eids}
    all_colours = set()
    for eid in eids:
        all_colours.update(lists[eid])
    max_colour = max(all_colours, default=0)
    full_mask = _mask_of(range(1, max_colour + 1))
    symmetric = all(masks[eid] == full_mask for eid in eids) and max_colour >= 1

    order_rank = {eid: i for i, eid in
                  enumerate(sorted(eids, key=_id_sort_key))}
    ends = {eid: g.endpoints(eid) for eid in eids}
    used = [0] * g.n
    assignment: dict[EdgeId, int] = {}
    stats = {"nodes": 0, "depth": 0}

    def class_prune(uncoloured: list[EdgeId]) -> bool:
        """Parity refutation on single colour classes.

        A vertex whose remaining edges have exactly as many usable colours
        as there are edges must see every one of those colours.  For each
        colour c, the edges that can still take c split into components;
        a component whose vertices all demand c needs a perfect matching
        on itself, which an odd component cannot have.
        """
        union = {}
        count = {}
        for eid in uncoloured:
            u, v = ends[eid]
            avail = masks[eid] & ~used[u] & ~used[v]
            for w in (u, v):
                union[w] = union.get(w, 0) | avail
                count[w] = count.get(w, 0) + 1
        needs = {w: union[w] for w in union
                 if union[w].bit_count() == count[w]}
        if not needs:
            return False
        demanded = 0
        for mask in needs.values():
            demanded |= mask
        for c in _colours_of(demanded):
            bit = 1 << c
            adj: dict[int, list[int]] = {}
            for eid in uncoloured:
                u, v = ends[eid]
                if masks[eid] & bit and not (used[u] | used[v]) & bit:
                    adj.setdefault(u, []).append(v)
                    adj.setdefault(v, []).append(u)
            seen = set()
            for start in adj:
                if start in seen:
                    continue
                comp = [start]
                seen.add(start)
                i = 0
                while i < len(comp):
                    for w in adj[comp[i]]:
                        if w not in seen:
                            seen.add(w)
                            comp.append(w)
                    i += 1
                if len(comp) % 2 == 1 and all(
                        needs.get(w, 0) & bit for w in comp):
                    return True
        return False

    def search(uncoloured: list[EdgeId], depth: int, max_used: int) -> bool:
        if not uncoloured:
            return True
        stats["nodes"] += 1
        stats["depth"] = max(stats["depth"], depth)
        if budget is not None and stats["nodes"] > budget:
            raise _BudgetExceeded
        if class_prune(uncoloured):
            return False
        best = None
        best_key = None
        for eid in uncoloured:
            u, v = ends[eid]
            avail = masks[eid] & ~used[u] & ~used[v]
            if avail == 0:
                return False
            key = (avail.bit_count(), order_rank[eid])
            if best_key is None or key < best_key:
                best, best_key, best_avail = eid, key, avail
        u, v = ends[best]
        rest = [eid for eid in uncoloured if eid != best]
        avail = best_avail
        if symmetric:
            avail &= (1 << (max_used + 2)) - 1
        for c in _colours_of(avail):
            bit = 1 << c
            used[u] |= bit
            used[v] |= bit
            assignment[best] = c
            if search(rest, depth + 1, max(max_used, c)):
                return True
            del assignment[best]
            used[u] &= ~bit
            used[v] &= ~bit
        return False

    try:
        ok = search(eids, 0, 0)
    except _BudgetExceeded:
        return SolveOutcome(BUDGET, None, nodes=stats["nodes"],
                            depth=stats["depth"])
    if not ok:
        return SolveOutcome(UNSOLVABLE, None, nodes=stats["nodes"],
                            depth=stats["depth"])
    result = dict(assignment)
    _check_solution(g, result, masks)
    return SolveOutcome(SOLVED, result, nodes=stats["nodes"],
                        depth=stats["depth"])


# -- bipartite pipeline --------------------------------------------------

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


# -- edge-set enumeration ------------------------------------------------

def enumerate_edge_sets(g: MultiGraph, t: int = 1) -> Iterator[tuple]:
    """All edge sets of pairwise distance > t, in deterministic order.

    t=0 yields every subset; t=1 the matchings; t=2 induced matchings.
    """
    ids = sorted(g.edge_ids, key=_id_sort_key)
    conflict = {eid: set() for eid in ids}
    if t >= 1:
        for a, b in itertools.combinations(ids, 2):
            if edge_distance(g, a, b) <= t:
                conflict[a].add(b)
                conflict[b].add(a)

    def grow(start: int, chosen: tuple, blocked: set):
        yield chosen
        for i in range(start, len(ids)):
            eid = ids[i]
            if eid in blocked:
                continue
            yield from grow(i + 1, chosen + (eid,), blocked | conflict[eid])

    yield from grow(0, (), set())
