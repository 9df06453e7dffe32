"""Block decompositions, degree-list colouring and the matching extenders
built on them.

A connected graph whose blocks are all complete graphs or odd cycles is
the only obstruction to colouring vertices from lists as large as their
degrees.  Applied to the line graph of the reduced instance, this yields
extenders for palettes [Delta+k] with two well-understood failure shapes:
the bare odd cycle with an empty precolouring, and the fat triangle whose
palette is one colour short of its chromatic index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import EdgeId, InputError, MultiGraph, degree_stats, line_graph
from .colouring import Palette, merge_colourings, reduce_extension
from . import exact
from .exact import BUDGET, SOLVED, SolveOutcome

ODD_CYCLE_K0 = "odd-cycle-k0"
TRIANGLE_MULTIPLICITY = "triangle-multiplicity"


@dataclass
class BlockDecomposition:
    blocks: list[frozenset[int]]
    block_edges: list[tuple[EdgeId, ...]]
    cut_vertices: frozenset[int]


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


def is_gallai_tree(g: MultiGraph) -> bool:
    """True iff every block of the connected graph is complete or an odd cycle."""
    if not g.is_connected():
        raise InputError("Gallai-tree test needs a connected graph")
    dec = block_decompose(g)
    for vs, es in zip(dec.blocks, dec.block_edges):
        if not _block_is_complete(g, vs, es) and not _block_is_odd_cycle(g, vs, es):
            return False
    return True


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


@dataclass
class GallaiCertificate:
    is_gallai_tree: bool


class BudgetSpent(Exception):
    """A bounded ``solve_vertex_lists`` search passed its node budget."""

    def __init__(self, nodes: int):
        super().__init__(f"search passed its budget at {nodes} nodes")
        self.nodes = nodes


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


# -- extenders ----------------------------------------------------------

@dataclass
class ExceptionReport:
    kind: str
    data: dict

    def to_json_obj(self) -> dict:
        return {"exception": self.kind, "data": self.data}


def exception_shape(g: MultiGraph, k: int) -> ExceptionReport | None:
    """Detect the two always-unextendable shapes for palette [Delta+k]."""
    verts = [v for v in range(g.n) if g.incident(v)]
    if k == 0 and g.mu() == 1 and len(verts) >= 3 and len(verts) % 2 == 1 \
            and len(g.edges) == len(verts) \
            and all(g.degree(v) == 2 for v in verts) and g.is_connected():
        return ExceptionReport(ODD_CYCLE_K0, {"cycle_length": len(verts)})
    if len(verts) == 3:
        mults: dict[tuple[int, int], int] = {}
        for _, u, v in g.edges:
            pair = (u, v) if u < v else (v, u)
            mults[pair] = mults.get(pair, 0) + 1
        if len(mults) == 3 and k == min(mults.values()) - 1:
            return ExceptionReport(
                TRIANGLE_MULTIPLICITY,
                {"multiplicities": sorted(mults.values(), reverse=True)})
    return None


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
