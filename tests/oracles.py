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

``block_decompose`` through ``extend_subcubic`` are the id-keyed Gallai
pipeline (a reduced ``MultiGraph``, its ``components()``, a
``restrict_edges`` copy and a ``line_graph`` per component) that the
dense one in ``edgeext.gallai`` replaced.  Both visit line-graph
neighbours in the same order, so they must agree on status, method, node
count and the colouring as a mapping.

``extend_planar`` is the peel-and-replay extender that rebuilt the peeled
``MultiGraph`` and re-ran ``find_reducible`` on every step.  The
incremental one in ``edgeext.planar`` peels the same configurations in
the same order, so the two must agree on status, method and the
colouring as a mapping.

``trace_faces`` is the face tracer that found each face's start by a
``min`` over all unused darts.  The one in ``edgeext.planar`` sorts the
darts once and takes the next unused one, so the two must return the
same faces in the same order.

``vizing_colour`` is the fan colouring that kept each vertex's colours as
a set and rebuilt them from ``g.incident`` after every chain swap.  The
one in ``edgeext.exact`` keeps a colour bitmask per vertex, flips only
the chain's colours at the ends of its edges, and makes the same
choices, so the two must return the same colouring, insertion order
included.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from edgeext import exact
from edgeext.colouring import (Palette, is_proper, merge_colourings,
                               reduce_extension, validate_precolouring)
from edgeext.core import (EdgeId, InputError, MultiGraph, _id_sort_key,
                          degree_stats, edge_distance, is_distance_matching,
                          line_graph)
from edgeext.exact import (BUDGET, SOLVED, UNSOLVABLE, SolveOutcome,
                           _colours_of, _mask_of)
from edgeext.gallai import (BlockDecomposition, BudgetSpent,
                            ExceptionReport, GallaiCertificate,
                            exception_shape)
from edgeext.kernels import (EXACT_FALLBACK, KERNEL, check_bipartition,
                             find_bipartition)
from edgeext.planar import (BASE_CASE, LIGHT_EDGE, REDUCTION,
                            FaceSet, RotationSystem, check_rotation,
                            VARIANT_DISTANCE3, VARIANT_MATCHING,
                            colour_even_cycle_lists, find_reducible)


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


def _check_solution(g, colouring, masks):
    if not is_proper(g, colouring):
        raise AssertionError("solver produced an improper colouring")
    for eid, c in colouring.items():
        if not (masks[eid] >> c) & 1:
            raise AssertionError(f"edge {eid!r} coloured outside its list")


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


# -- Gallai pipeline ----------------------------------------------------

def block_decompose(g: MultiGraph) -> BlockDecomposition:
    """Biconnected blocks (including bridge edges) and cut vertices."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    cut: set[int] = set()
    blocks: list[list] = []
    counter = itertools.count()
    for root in range(g.n):
        if root in disc or not g.incident(root):
            continue
        edge_stack: list[tuple[EdgeId, int, int]] = []
        # Iterative DFS: (vertex, parent edge, iterator over incidences).
        disc[root] = low[root] = next(counter)
        stack = [(root, None, iter(g.incident(root)))]
        root_children = 0
        while stack:
            v, pedge, it = stack[-1]
            advanced = False
            for eid, w in it:
                if eid == pedge:
                    continue
                if w not in disc:
                    edge_stack.append((eid, v, w))
                    disc[w] = low[w] = next(counter)
                    stack.append((w, eid, iter(g.incident(w))))
                    if v == root:
                        root_children += 1
                    advanced = True
                    break
                if disc[w] < disc[v]:
                    edge_stack.append((eid, v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if stack and pedge is not None:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    # Pop everything discovered in v's subtree down to and
                    # including the tree edge u-v: that is one block.
                    block = []
                    while True:
                        entry = edge_stack.pop()
                        block.append(entry)
                        if entry[0] == pedge:
                            break
                    blocks.append(block)
                    if u != root:
                        cut.add(u)
        if root_children > 1:
            cut.add(root)

    out_vertices = []
    out_edges = []
    for block in blocks:
        vs = set()
        es = []
        for eid, a, b in block:
            vs.update((a, b))
            es.append(eid)
        out_vertices.append(frozenset(vs))
        out_edges.append(tuple(es))
    return BlockDecomposition(out_vertices, out_edges, frozenset(cut))


def _block_is_complete(g: MultiGraph, vs: frozenset[int],
                       es: Sequence[EdgeId]) -> bool:
    t = len(vs)
    if len(es) != t * (t - 1) // 2:
        return False
    pairs = set()
    for eid in es:
        u, v = g.endpoints(eid)
        pair = (u, v) if u < v else (v, u)
        if pair in pairs:
            return False
        pairs.add(pair)
    return True


def _block_is_odd_cycle(g: MultiGraph, vs: frozenset[int],
                        es: Sequence[EdgeId]) -> bool:
    t = len(vs)
    if t < 3 or t % 2 == 0 or len(es) != t:
        return False
    sub = g.restrict_edges(es)
    return all(sub.degree(v) == 2 for v in vs)


def solve_vertex_lists(g: MultiGraph,
                       lists: Mapping[int, Iterable[int]],
                       budget: int | None = None) -> dict[int, int] | None:
    """Exact vertex list-colouring by backtracking (smallest list first).

    Each call of the search on a non-empty set of vertices is one node;
    with ``budget``, raises ``BudgetSpent`` once the nodes exceed it.
    """
    verts = [v for v in range(g.n) if g.incident(v) or v in lists]
    masks = {}
    for v in verts:
        if v not in lists:
            raise InputError(f"vertex {v} has no colour list")
        masks[v] = exact._mask_of(lists[v])
    neighbours = {v: sorted({w for _, w in g.incident(v)}) for v in verts}
    assignment: dict[int, int] = {}
    used: dict[int, int] = {v: 0 for v in verts}
    nodes = 0

    def search(todo: list[int]) -> bool:
        nonlocal nodes
        if not todo:
            return True
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetSpent(nodes)
        best = min(todo, key=lambda v: ((masks[v] & ~used[v]).bit_count(), v))
        avail = masks[best] & ~used[best]
        if avail == 0:
            return False
        rest = [v for v in todo if v != best]
        for c in exact._colours_of(avail):
            bit = 1 << c
            assignment[best] = c
            touched = []
            for w in neighbours[best]:
                # a neighbour already barred from c by another coloured
                # vertex must keep the bar when this assignment is undone
                if w not in assignment and not used[w] & bit:
                    used[w] |= bit
                    touched.append(w)
            if search(rest):
                return True
            del assignment[best]
            for w in touched:
                used[w] &= ~bit
        return False

    if search(verts):
        return dict(assignment)
    return None


def _greedy_from_root(g: MultiGraph, lists: Mapping[int, set],
                      root: int, verts: set[int],
                      colouring: dict[int, int]) -> None:
    """Colour ``verts`` greedily in reverse BFS order from ``root``.

    Every non-root vertex still has an uncoloured neighbour (its BFS
    parent) when its turn comes, so its list suffices; the root must have
    strictly more colours than coloured neighbours, which the callers
    guarantee.
    """
    order = [root]
    seen = {root}
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for _, w in g.incident(v):
            if w in verts and w not in seen:
                seen.add(w)
                order.append(w)
    if seen != verts:
        raise AssertionError("greedy region is not connected")
    for v in reversed(order):
        banned = {colouring[w] for _, w in g.incident(v) if w in colouring}
        choice = sorted(set(lists[v]) - banned)
        if not choice:
            raise AssertionError("greedy colouring ran out of colours")
        colouring[v] = choice[0]


def degree_list_colour(g: MultiGraph, lists: Mapping[int, Iterable[int]],
                       budget: int | None = None
                       ) -> dict[int, int] | GallaiCertificate:
    """Colour vertices from lists at least as large as their degrees.

    Returns a proper colouring, or a certificate that the graph is a tight
    Gallai tree (every list exactly the degree), the one situation with no
    constructive guarantee — the caller decides by exact search.
    ``budget`` bounds the search a failed repair falls back to (see
    ``solve_vertex_lists``).
    """
    if not g.is_connected():
        raise InputError("degree-list colouring needs a connected graph")
    verts = {v for v in range(g.n) if g.incident(v)}
    isolated = {v for v in lists if v not in verts}
    iso_colours = {v: min(lists[v]) for v in isolated}
    if not verts:
        # Only isolated vertices: any list choice works.
        return iso_colours
    lsets = {}
    for v in verts:
        if v not in lists:
            raise InputError(f"vertex {v} has no colour list")
        lsets[v] = set(lists[v])
        if len(lsets[v]) < g.degree(v):
            raise InputError(f"list at vertex {v} is smaller than its degree")

    surplus = [v for v in sorted(verts) if len(lsets[v]) > g.degree(v)]
    colouring: dict[int, int] = {}
    if surplus:
        _greedy_from_root(g, lsets, surplus[0], verts, colouring)
        return colouring | iso_colours

    dec = block_decompose(g)
    bad = None
    for vs, es in zip(dec.blocks, dec.block_edges):
        if not _block_is_complete(g, vs, es) and not _block_is_odd_cycle(g, vs, es):
            bad = vs
            break
    if bad is None:
        return GallaiCertificate(is_gallai_tree=True)

    repaired = _repair_colour(g, lsets, verts, bad)
    if repaired is not None:
        return repaired | iso_colours
    # A colouring is still guaranteed to exist here; find it directly.
    solved = solve_vertex_lists(g, lsets, budget)
    if solved is None:
        raise AssertionError(
            "tight non-Gallai-tree instance turned out uncolourable")
    return solved | iso_colours


def _repair_colour(g: MultiGraph, lsets, verts, block) -> dict[int, int] | None:
    """Same-colour two non-adjacent neighbours of a common vertex.

    Inside a block that is neither complete nor an odd cycle, giving two
    non-adjacent vertices a and b a shared colour leaves their common
    neighbour v with a colour surplus, and greedy colouring of the rest of
    the (still connected) graph finishes the job.
    """
    adj = {v: {w for _, w in g.incident(v)} for v in verts}
    for v in sorted(block):
        nbrs = sorted(adj[v] & block)
        for a, b in itertools.combinations(nbrs, 2):
            if b in adj[a]:
                continue
            common = sorted(set(lsets[a]) & set(lsets[b]))
            if not common:
                continue
            rest = verts - {a, b}
            if not _connected_within(g, rest):
                continue
            c = common[0]
            colouring = {a: c, b: c}
            reduced = {w: set(lsets[w]) - ({c} if w in adj[a] | adj[b] else set())
                       for w in rest}
            try:
                _greedy_from_root(g.delete_edges(
                    [eid for eid, x, y in g.edges if a in (x, y) or b in (x, y)]),
                    reduced, v, rest, colouring)
            except AssertionError:
                return None
            return colouring
    return None


def _connected_within(g: MultiGraph, verts: set[int]) -> bool:
    if not verts:
        return True
    start = next(iter(verts))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for _, w in g.incident(v):
            if w in verts and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == verts


def extend_gallai(g: MultiGraph, c: Mapping[EdgeId, int], k: int,
                  budget: int | None = None
                  ) -> SolveOutcome | ExceptionReport:
    """Extend a precolouring within [Delta+k] on a connected multigraph.

    Requires the line graph's maximum degree to stay within Delta+k and
    every vertex to meet at most k precoloured edges.  Either returns a
    Solved outcome or reports one of the two exceptional shapes; any other
    failure would be a bug and raises.  ``budget`` bounds each fallback
    search; one that passes it gives a ``BUDGET`` outcome.
    """
    if k < 0:
        raise InputError("k must be non-negative")
    if not g.is_connected():
        raise InputError("extender needs a connected graph")
    stats = degree_stats(g)
    if stats.line_delta > stats.delta + k:
        raise InputError("line-graph degree exceeds Delta+k")
    reduced, lists = reduce_extension(g, c, Palette(stats.delta + k), k)

    shape = exception_shape(g, k)
    if shape is not None:
        # Both shapes fail for every admissible precolouring; re-verified
        # cheaply for small instances in the test suite.
        return shape

    return _colour_reduced(c, reduced, lists, budget)


def _colour_reduced(c, reduced: MultiGraph, lists, budget) -> SolveOutcome:
    """``c`` merged with a colouring of each component of the reduced graph.

    The callers have ruled out both exceptional shapes, so a component
    that cannot be coloured would be a bug and raises.  ``budget`` bounds
    each search a component falls back to; a search that passes it makes
    the outcome ``BUDGET``.
    """
    colouring = dict(c)
    for _, comp_eids in reduced.components():
        try:
            part = _colour_component(reduced.restrict_edges(comp_eids),
                                     lists, budget)
        except BudgetSpent as spent:
            return SolveOutcome(BUDGET, None, nodes=spent.nodes,
                                method="gallai")
        if part is None:
            raise AssertionError(
                "extension failed on a non-exceptional instance")
        colouring = merge_colourings(colouring, part)
    return SolveOutcome(SOLVED, colouring, method="gallai")


def _colour_component(sub: MultiGraph, lists, budget) -> dict[EdgeId, int] | None:
    lg = line_graph(sub)
    index = {i: eid for i, (eid, _, _) in enumerate(sub.edges)}
    vlists = {i: set(lists[index[i]]) for i in range(lg.n)}
    for i in range(lg.n):
        if not vlists[i]:
            return None
        if len(vlists[i]) < lg.degree(i):
            raise AssertionError("edge list smaller than line-graph degree")
    result = degree_list_colour(lg, vlists, budget) if lg.n else {}
    if isinstance(result, GallaiCertificate):
        solved = solve_vertex_lists(lg, vlists, budget)
        if solved is None:
            return None
        result = solved
    return {index[i]: colour for i, colour in result.items()}


def extend_subcubic(g: MultiGraph, m: Mapping[EdgeId, int],
                    budget: int | None = None) -> SolveOutcome:
    """Extend a precoloured matching of a subcubic multigraph within [4].

    Always succeeds.  A component of maximum degree Delta_c sees the
    palette [4] as [Delta_c + k_c] with k_c = 4 - Delta_c >= 1, and its
    line degree is at most 2*Delta_c - 2 <= 4, so ``extend_gallai``'s
    hypothesis holds.  Neither exceptional shape can occur: the odd cycle
    needs k = 0, and the fat triangle needs k = (least multiplicity) - 1,
    which forces a vertex of degree 4.  So one reduction of the whole
    graph is coloured component by component.
    """
    if g.delta() > 3:
        raise InputError("graph is not subcubic")
    reduced, lists = reduce_extension(g, m, Palette(4), 1)
    return _colour_reduced(m, reduced, lists, budget)


def extend_planar(g: MultiGraph, m: Mapping[EdgeId, int], mode: str,
                  budget: int | None = None) -> SolveOutcome:
    """Extend a precoloured (distance-3) matching by peel-and-replay.

    Palette is [Delta+1] in matching mode and [Delta] in distance-3 mode.
    When no reducible configuration exists the exact solver takes over on
    the current subgraph, which is sound: a subgraph that cannot be
    extended proves the original cannot either.
    """
    if mode not in (VARIANT_MATCHING, VARIANT_DISTANCE3):
        raise InputError(f"unknown mode {mode!r}")
    if not g.edges:
        return SolveOutcome(SOLVED, {}, method=REDUCTION)
    delta0 = g.delta()
    k = delta0 + 1 if mode == VARIANT_MATCHING else delta0
    palette = Palette(k)
    validate_precolouring(g, m, palette)
    t = 1 if mode == VARIANT_MATCHING else 3
    if not is_distance_matching(g, m.keys(), t):
        raise InputError(
            "precoloured edges do not form the required distance matching")

    # Peel configurations off until none applies or only precoloured edges
    # are left, settle that core, then replay the configurations in reverse.
    # At replay time the coloured edges are exactly those of the graph the
    # configuration was peeled from, minus the configuration itself.
    peeled = []
    h = g
    while True:
        active_m = {eid: m[eid] for eid in h.edge_ids if eid in m}
        cfg = find_reducible(h, active_m.keys(), mode, delta0)
        if cfg is None or cfg.kind == BASE_CASE:
            break
        peeled.append(cfg)
        h = h.delete_edges(cfg.edges)
    fallback_used = cfg is None
    if fallback_used:
        # No configuration: exact search settles the subgraph.
        outcome = exact.extend(h, active_m, palette, budget=budget)
        if not outcome.solved:
            return SolveOutcome(outcome.status, None, method=EXACT_FALLBACK)
        colouring = outcome.colouring
    else:
        colouring = active_m

    def free_colours(eid):
        banned = {colouring[f] for f in g.adjacent_edges(eid)
                  if f in colouring}
        return [c for c in palette.colours if c not in banned]

    for cfg in reversed(peeled):
        if cfg.kind == LIGHT_EDGE:
            eid = cfg.edges[0]
            free = free_colours(eid)
            if not free:
                raise AssertionError("light edge had no free colour")
            colouring[eid] = free[0]
        else:
            lists = {eid: set(free_colours(eid)) for eid in cfg.edges}
            colouring.update(colour_even_cycle_lists(g, cfg.edges, lists))
    if not is_proper(g, colouring):
        raise AssertionError("planar extension is improper")
    for eid, c in colouring.items():
        if c not in palette:
            raise AssertionError("planar extension left the palette")
    for eid, c in m.items():
        if colouring.get(eid) != c:
            raise AssertionError("planar extension changed a precoloured edge")
    if len(colouring) != len(g.edges):
        raise AssertionError("planar extension left edges uncoloured")
    method = EXACT_FALLBACK if fallback_used else REDUCTION
    return SolveOutcome(SOLVED, colouring, method=method)


# -- face tracing ----------------------------------------------------------

def trace_faces(g: MultiGraph, r: RotationSystem) -> FaceSet:
    """Trace face boundaries by next-edge traversal in the rotation.

    For connected inputs the Euler identity V - E + F = 2 is enforced.
    """
    check_rotation(g, r)
    position = {}
    for v, eids in r.around.items():
        for i, eid in enumerate(eids):
            position[(v, eid)] = i
    unused = {(v, eid) for v in range(g.n) for eid, _ in g.incident(v)}
    faces = []
    while unused:
        start = min(unused, key=lambda d: (d[0], _id_sort_key(d[1])))
        walk = []
        dart = start
        while True:
            walk.append(dart)
            unused.discard(dart)
            v, eid = dart
            u1, u2 = g.endpoints(eid)
            w = u2 if u1 == v else u1
            ring = r.around[w]
            nxt = ring[(position[(w, eid)] + 1) % len(ring)]
            dart = (w, nxt)
            if dart == start:
                break
            if dart not in unused:
                raise InputError("rotation system is inconsistent")
        faces.append(walk)
    if g.is_connected() and g.edges:
        vcount = len({x for _, u, v in g.edges for x in (u, v)})
        if vcount - len(g.edges) + len(faces) != 2:
            raise InputError("rotation system is not a planar embedding")
    return FaceSet(faces)


def vizing_colour(g: MultiGraph) -> dict[EdgeId, int]:
    """Proper colouring with at most min(Delta+mu, floor(3*Delta/2)) colours.

    Constructive fan/alternating-path recolouring; no exhaustive search.
    Ambiguities resolve to the lowest colour and lowest edge id.
    """
    if not g.edges:
        return {}
    delta = g.delta()
    k = min(delta + g.mu(), max(3 * delta // 2, delta + 1))
    palette = list(range(1, k + 1))
    colour: dict[EdgeId, int] = {}
    at: list[set[int]] = [set() for _ in range(g.n)]

    def missing(v: int) -> list[int]:
        have = at[v]
        return [c for c in palette if c not in have]

    def assign(eid: EdgeId, c: int) -> None:
        old = colour.get(eid)
        u, v = g.endpoints(eid)
        if old is not None:
            at[u].discard(old)
            at[v].discard(old)
        colour[eid] = c
        at[u].add(c)
        at[v].add(c)

    def edge_with_colour(v: int, c: int) -> EdgeId:
        for eid, _ in g.incident(v):
            if colour.get(eid) == c:
                return eid
        raise AssertionError("colour recorded as present but not found")

    def swap_chain(start: int, a: int, b: int, anchor: int) -> bool:
        """Swap the a/b alternating chain from ``start`` unless it meets anchor.

        Precondition: a missing at start.  Returns True when swapped.
        """
        chain = []
        v, want = start, b
        while want in at[v]:
            eid = edge_with_colour(v, want)
            chain.append(eid)
            u1, u2 = g.endpoints(eid)
            v = u2 if u1 == v else u1
            want = a if want == b else b
        if v == anchor:
            return False
        touched = {start, v}
        for eid in chain:
            u1, u2 = g.endpoints(eid)
            touched.update((u1, u2))
            colour[eid] = a if colour[eid] == b else b
        for w in touched:
            at[w] = {colour[eid] for eid, _ in g.incident(w)
                     if eid in colour}
        return True

    def fold(x: int, fan: list[EdgeId], rim: list[int]) -> None:
        # Precondition: some colour is missing at both x and the last rim
        # vertex.  Shifts colours down the fan until the seed edge is done.
        while True:
            z = rim[-1]
            common = [c for c in missing(x) if c not in at[z]]
            new = common[0]
            old = colour.get(fan[-1])
            assign(fan[-1], new)
            if len(fan) == 1:
                return
            idx = next(i for i, y in enumerate(rim[:-1]) if old not in at[y])
            del fan[idx + 1:]
            del rim[idx + 1:]

    def run_fan(seed: EdgeId, x: int, y0: int) -> None:
        fan = [seed]
        rim = [y0]
        in_fan = {seed}
        rim_missing = set(missing(y0))
        miss_x = set(missing(x))
        while True:
            candidates = [(colour[eid], _id_sort_key(eid), eid, other)
                          for eid, other in g.incident(x)
                          if eid in colour and eid not in in_fan
                          and colour[eid] in rim_missing]
            if not candidates:
                raise AssertionError("fan construction stalled below the bound")
            _, _, nxt, z = min(candidates)
            fan.append(nxt)
            in_fan.add(nxt)
            rim.append(z)
            miss_z = set(missing(z))
            if miss_x & miss_z:
                fold(x, fan, rim)
                return
            hit = None
            for i, y in enumerate(rim[:-1]):
                if y != z and (set(missing(y)) & miss_z):
                    hit = i
                    break
            if hit is not None:
                yi = rim[hit]
                a = min(set(missing(yi)) & miss_z)
                b = min(miss_x)
                if swap_chain(yi, a, b, x):
                    del fan[hit + 1:]
                    del rim[hit + 1:]
                    fold(x, fan, rim)
                else:
                    if not swap_chain(z, a, b, x):
                        raise AssertionError(
                            "both alternating chains reached the fan anchor")
                    fold(x, fan, rim)
                return
            rim_missing |= miss_z

    for eid, u, v in g.edges:
        common = [c for c in palette if c not in at[u] and c not in at[v]]
        if common:
            assign(eid, common[0])
            continue
        x, y = (u, v) if g.degree(u) <= g.degree(v) else (v, u)
        run_fan(eid, x, y)

    if not is_proper(g, colour):
        raise AssertionError("fan colouring produced an improper colouring")
    if len(colour) != len(g.edges):
        raise AssertionError("fan colouring left edges uncoloured")
    return colour
