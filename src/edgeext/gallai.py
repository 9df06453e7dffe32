"""Block decompositions, degree-list colouring and the matching extenders
built on them.

A connected graph whose blocks are all complete graphs or odd cycles is
the only obstruction to colouring vertices from lists as large as their
degrees.  Applied to the line graph of the uncoloured edges, this yields
extenders for palettes [Delta+k] with two well-understood failure shapes:
the bare odd cycle with an empty precolouring, and the fat triangle whose
palette is one colour short of its chromatic index.

The extenders colour each component of the uncoloured edges' line graph,
read off the dense form, greedily when a list has slack and by
``exact.solve_list`` when every list is tight.  The block test, the
repair and the vertex list search serve only ``block_decompose``,
``degree_list_colour`` and ``solve_vertex_lists``.  All work on vertex
and colour bitmasks, seeing the graph as ``nbrs(v, within)``, v's
neighbours in the vertex mask ``within`` in visiting order (once per
parallel edge), and ``nmask[v]``, the mask of all of them; the public
functions pass the graph's incidence order.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .core import EdgeId, InputError, MultiGraph, degree_stats, edge_bits
from .colouring import Palette, certify, extension_masks, used_colours
from . import exact
from .exact import BUDGET, SOLVED, BudgetSpent, SolveOutcome, _mask_of

ODD_CYCLE_K0 = "odd-cycle-k0"
TRIANGLE_MULTIPLICITY = "triangle-multiplicity"

Neighbours = Callable[[int, int], Sequence[int]]


def _neighbours(g: MultiGraph) -> tuple[Neighbours, list[int], int]:
    """``g`` in incidence order: neighbours, their masks, and the mask of
    the vertices that have edges."""
    lists = [tuple(g.neighbours(v)) for v in range(g.n)]

    def nbrs(v: int, within: int) -> list[int]:
        return [w for w in lists[v] if within >> w & 1]
    return (nbrs, [_mask_of(ws) for ws in lists],
            _mask_of(v for v in range(g.n) if lists[v]))


@dataclass
class BlockDecomposition:
    blocks: list[frozenset[int]]
    block_edges: list[tuple[EdgeId, ...]]
    cut_vertices: frozenset[int]


def _blocks(nbrs: Neighbours, region: int
            ) -> tuple[list[list[tuple[int, int, int]]], set[int]]:
    """Biconnected blocks (including bridge edges) and cut vertices of the
    graph on ``region``.  A block lists its edges as (v, w, j), w being v's
    j-th neighbour, last discovered first."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    cut: set[int] = set()
    blocks = []
    counter = itertools.count()
    for root in edge_bits(region):
        if root in disc:
            continue
        edge_stack: list[tuple[int, int, int]] = []
        disc[root] = low[root] = next(counter)
        # Frames: [vertex, parent, neighbours, tree edge's place on the edge
        # stack].  The first entry back to the parent is the tree edge (edge
        # order at both ends); parallel edges after it are back edges.
        stack = [[root, None, enumerate(nbrs(root, region)), 0]]
        root_children = 0
        while stack:
            frame = stack[-1]
            v = frame[0]
            for j, w in frame[2]:
                if w == frame[1]:
                    frame[1] = None
                elif w not in disc:
                    stack.append([w, v, enumerate(nbrs(w, region)),
                                  len(edge_stack)])
                    edge_stack.append((v, w, j))
                    disc[w] = low[w] = next(counter)
                    root_children += v == root
                    break
                elif disc[w] < disc[v]:
                    edge_stack.append((v, w, j))
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        # v's subtree down to the tree edge u-v is a block
                        blocks.append(edge_stack[frame[3]:][::-1])
                        del edge_stack[frame[3]:]
                        if u != root:
                            cut.add(u)
        if root_children > 1:
            cut.add(root)
    return blocks, cut


def _is_gallai_block(block: Sequence[tuple[int, int, int]]) -> bool:
    """True iff the block is a complete graph or an odd cycle."""
    pairs = [(v, w) if v < w else (w, v) for v, w, _ in block]
    degree = Counter(x for pair in pairs for x in pair)
    t = len(degree)
    if len(pairs) == t * (t - 1) // 2 and len(set(pairs)) == len(pairs):
        return True
    return (t >= 3 and t % 2 == 1 and len(pairs) == t
            and all(d == 2 for d in degree.values()))


def block_decompose(g: MultiGraph) -> BlockDecomposition:
    """Biconnected blocks (including bridge edges) and cut vertices."""
    nbrs, _, region = _neighbours(g)
    blocks, cut = _blocks(nbrs, region)
    return BlockDecomposition(
        [frozenset(x for v, w, _ in block for x in (v, w))
         for block in blocks],
        [tuple(g.ids[g.incidence[v][j]] for v, _, j in block)
         for block in blocks],
        frozenset(cut))


@dataclass
class GallaiCertificate:
    is_gallai_tree: bool


def _search(nmask: Sequence[int], lists: Mapping[int, int], region: int,
            budget: int | None) -> tuple[dict[int, int] | None, int]:
    """``solve_vertex_lists`` on the ``region``'s vertices, and its node
    count: least remaining list first (ties to the least vertex), colours up.

    The search runs on an explicit stack, so its depth is not bounded by
    the interpreter's recursion limit.  Each visit to a non-empty set of
    uncoloured vertices is one node."""
    assignment: dict[int, int] = {}
    used = dict.fromkeys(edge_bits(region), 0)
    nodes = 0
    todo = list(used)
    # One frame per vertex on the current path: [vertex, colours left to
    # try, the vertices still uncoloured below it, the colour bit it holds
    # (0 for none), the neighbours that lost that colour].
    stack: list[list] = []
    while todo:
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetSpent(nodes)
        best = min(todo, key=lambda v: ((lists[v] & ~used[v]).bit_count(), v))
        stack.append([best, lists[best] & ~used[best],
                      [v for v in todo if v != best], 0, None])
        while stack:
            frame = stack[-1]
            v, left, rest, bit, touched = frame
            if bit:
                del assignment[v]
                for w in touched:
                    used[w] &= ~bit
            if not left:
                stack.pop()
                continue
            bit = left & -left
            assignment[v] = bit.bit_length() - 1
            touched = []
            for w in edge_bits(nmask[v] & region):
                # a neighbour already barred from the colour by another
                # coloured vertex must keep the bar when this is undone
                if w not in assignment and not used[w] & bit:
                    used[w] |= bit
                    touched.append(w)
            frame[1] = left ^ bit
            frame[3:] = bit, touched
            todo = rest
            break
        else:
            return None, nodes
    return assignment, nodes


def solve_vertex_lists(g: MultiGraph,
                       lists: Mapping[int, Iterable[int]],
                       budget: int | None = None) -> dict[int, int] | None:
    """Exact vertex list-colouring by backtracking (smallest list first).

    Each call of the search on a non-empty set of vertices is one node;
    with ``budget``, raises ``BudgetSpent`` once the nodes exceed it.
    """
    _, nmask, region = _neighbours(g)
    masks = {}
    for v in range(g.n):
        if v in lists:
            masks[v] = _mask_of(lists[v])
            region |= 1 << v
        elif region >> v & 1:
            raise InputError(f"vertex {v} has no colour list")
    return _search(nmask, masks, region, budget)[0]


def _bfs(nbrs: Neighbours, root: int, region: int) -> list[int] | None:
    """The ``region``'s vertices in BFS order from ``root``; None if they
    are not connected."""
    order = [root]
    seen = 1 << root
    for v in order:
        for w in nbrs(v, region & ~seen):
            if not seen >> w & 1:
                seen |= 1 << w
                order.append(w)
    return order if seen == region else None


def _greedy(nmask: Sequence[int], lists: Mapping[int, int],
            order: Sequence[int], colouring: dict[int, int]) -> bool:
    """Colour ``order``'s vertices last to first, each with its lowest
    colour no coloured neighbour has; False if one runs out.  In reversed
    BFS order each non-root vertex still has an uncoloured neighbour (its
    BFS parent), so a list as large as its degree suffices; the callers
    give the root a list larger than its coloured neighbours."""
    classes: dict[int, int] = {}       # the vertices of each colour
    for v, c in colouring.items():
        classes[c] = classes.get(c, 0) | 1 << v
    for v in reversed(order):
        near = nmask[v]
        avail = lists[v]
        while avail:
            low = avail & -avail
            c = low.bit_length() - 1
            if not near & classes.get(c, 0):
                break
            avail ^= low
        else:
            return False
        colouring[v] = c
        classes[c] = classes.get(c, 0) | 1 << v
    return True


def _repair(nbrs: Neighbours, nmask: Sequence[int], lists: Mapping[int, int],
            region: int, block: int) -> dict[int, int] | None:
    """Same-colour two non-adjacent neighbours a, b of a vertex v of a
    block that is neither complete nor an odd cycle: v keeps a colour
    surplus, and greedy colouring of the rest (still connected) finishes."""
    for v in edge_bits(block):
        for a, b in itertools.combinations(edge_bits(nmask[v] & block), 2):
            common = lists[a] & lists[b]
            if nmask[a] >> b & 1 or not common:
                continue
            order = _bfs(nbrs, v, region & ~(1 << a | 1 << b))
            if order is None:
                continue
            c = (common & -common).bit_length() - 1
            colouring = {a: c, b: c}
            return colouring if _greedy(nmask, lists, order, colouring) \
                else None
    return None


def _degree_colour(nbrs: Neighbours, nmask: Sequence[int],
                   lists: Mapping[int, int], region: int,
                   root: int | None, budget: int | None
                   ) -> dict[int, int] | None:
    """Colour the connected graph on ``region`` from lists at least as
    large as the degrees; ``root`` is the least vertex whose list is
    larger, or None.  None means a tight Gallai tree.  A failed repair
    falls back to a search bounded by ``budget``."""
    colouring: dict[int, int] = {}
    if root is not None:
        order = _bfs(nbrs, root, region)
        if order is None or not _greedy(nmask, lists, order, colouring):
            raise AssertionError("greedy colouring failed")
        return colouring
    bad = next((block for block in _blocks(nbrs, region)[0]
                if not _is_gallai_block(block)), None)
    if bad is None:
        return None
    repaired = _repair(nbrs, nmask, lists, region,
                       _mask_of(x for v, w, _ in bad for x in (v, w)))
    if repaired is not None:
        return repaired
    # A colouring is still guaranteed to exist here; find it directly.
    solved = _search(nmask, lists, region, budget)[0]
    if solved is None:
        raise AssertionError(
            "tight non-Gallai-tree instance turned out uncolourable")
    return solved


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
    nbrs, nmask, region = _neighbours(g)
    # Isolated vertices: any colour of a non-empty list works.
    verts = set(edge_bits(region))
    for v in lists:
        if v not in range(g.n):
            raise InputError(f"list key {v!r} is not a vertex")
        if v not in verts and not lists[v]:
            raise InputError(f"vertex {v} has an empty colour list")
    colouring = {v: min(lists[v]) for v in lists if v not in verts}
    masks = {}
    root = None
    for v in edge_bits(region):
        if v not in lists:
            raise InputError(f"vertex {v} has no colour list")
        masks[v] = _mask_of(lists[v])
        if masks[v].bit_count() < g.degree(v):
            raise InputError(f"list at vertex {v} is smaller than its degree")
        if root is None and masks[v].bit_count() > g.degree(v):
            root = v
    result = _degree_colour(nbrs, nmask, masks, region, root, budget) \
        if region else {}
    if result is None:
        return GallaiCertificate(is_gallai_tree=True)
    return result | colouring


# -- extenders ----------------------------------------------------------

@dataclass
class ExceptionReport:
    kind: str
    data: dict

    def to_json_obj(self) -> dict:
        return {"exception": self.kind, "data": self.data}


def exception_shape(g: MultiGraph, k: int) -> ExceptionReport | None:
    """Detect the two always-unextendable shapes for palette [Delta+k]."""
    verts = [v for v in range(g.n) if g.incidence[v]]
    if k == 0 and degree_stats(g).mu == 1 and len(verts) >= 3 \
            and len(verts) % 2 == 1 and len(g.edges) == len(verts) \
            and all(g.degree(v) == 2 for v in verts) and g.is_connected():
        return ExceptionReport(ODD_CYCLE_K0, {"cycle_length": len(verts)})
    if len(verts) == 3:
        mults = Counter((u, v) if u < v else (v, u) for _, u, v in g.edges)
        if len(mults) == 3 and k == min(mults.values()) - 1:
            return ExceptionReport(
                TRIANGLE_MULTIPLICITY,
                {"multiplicities": sorted(mults.values(), reverse=True)})
    return None


def prepare_gallai(g: MultiGraph
                   ) -> Callable[..., SolveOutcome | ExceptionReport]:
    """``extend_gallai`` on g, prepared once for many precolourings:
    ``run(c, k, budget=None)`` answers as it does, taking ``c`` and k as
    admissible, unchecked.  Each k's exceptional shape is found once."""
    if not g.is_connected():
        raise InputError("extender needs a connected graph")
    delta = g.delta()
    shapes: dict[int, ExceptionReport | None] = {}

    def run(c, k, budget=None):
        if k not in shapes:
            shapes[k] = exception_shape(g, k)
        # Both shapes fail for every admissible precolouring; re-verified
        # cheaply for small instances in the test suite.
        return shapes[k] or _extend(g, c, delta + k, budget)
    return run


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
    run = prepare_gallai(g)
    stats = degree_stats(g)
    if stats.line_delta > stats.delta + k:
        raise InputError("line-graph degree exceeds Delta+k")
    extension_masks(g, c, Palette(stats.delta + k), k)
    return run(c, k, budget)


def _extend(g: MultiGraph, c: Mapping[EdgeId, int], q: int,
            budget: int | None) -> SolveOutcome:
    """``c`` and a colouring of each component of the uncoloured edges'
    line graph from the colours of [q] neither end uses: greedy where a
    list has slack, ``exact.solve_list`` where every list is tight,
    counting the nodes of every search.  The callers ruled out both
    exceptional shapes, so a failure is a bug and raises, as does a
    colouring that fails ``certify``; a search past ``budget`` is
    BUDGET."""
    d = g.dense()
    adjacent = d.adjacent
    ids, ends = g.ids, g.ends
    used = used_colours(g, c)
    live = (1 << len(ids)) - 1
    for eid in c:
        live ^= 1 << g.index[eid]
    full = (1 << (q + 1)) - 2
    lists = [full & ~(used[u] | used[v]) for u, v in ends]
    colouring = dict(c)
    nodes = 0
    for comp in d.components(live):
        root = None
        rest = comp
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            size = lists[i].bit_count()
            degree = (adjacent[i] & comp).bit_count()
            if size > degree:
                if root is None:
                    root = i
            elif size < degree or not size:
                raise AssertionError("edge list empty or smaller than its "
                                     "line-graph degree")
        if root is not None:
            # a list with slack: greedy colouring from that edge succeeds
            part = {}
            order = _bfs(d.line_neighbours, root, comp)
            if order is None or not _greedy(adjacent, lists, order, part):
                raise AssertionError("greedy colouring failed")
        else:
            # every list tight: exact search decides the component
            edges = list(edge_bits(comp))
            outcome = exact.solve_list(
                MultiGraph(g.n, [g.edges[i] for i in edges]),
                {ids[i]: exact._colours_of(lists[i]) for i in edges}, budget)
            nodes += outcome.nodes
            if outcome.status == BUDGET:
                return SolveOutcome(BUDGET, None, nodes=nodes,
                                    method="gallai")
            if not outcome.solved:
                raise AssertionError("non-exceptional instance failed")
            part = {g.index[eid]: colour
                    for eid, colour in outcome.colouring.items()}
        certify(ids, ends, lists, used, part.items(), colouring)
    return SolveOutcome(SOLVED, colouring, nodes=nodes, method="gallai")


def prepare_subcubic(g: MultiGraph) -> Callable[..., SolveOutcome]:
    """``extend_subcubic`` on g, prepared once for many precolourings:
    ``run(m, budget=None)`` answers as it does, taking ``m`` as a proper
    precoloured matching, unchecked."""
    if g.delta() > 3:
        raise InputError("graph is not subcubic")
    return lambda m, budget=None: _extend(g, m, 4, budget)


def extend_subcubic(g: MultiGraph, m: Mapping[EdgeId, int],
                    budget: int | None = None) -> SolveOutcome:
    """Extend a precoloured matching of a subcubic multigraph within [4].

    Always succeeds.  A component of maximum degree Delta_c sees the
    palette [4] as [Delta_c + k_c] with k_c = 4 - Delta_c >= 1, and its
    line degree is at most 2*Delta_c - 2 <= 4, so ``extend_gallai``'s
    hypothesis holds.  Neither exceptional shape can occur: the odd cycle
    needs k = 0, and the fat triangle needs k = (least multiplicity) - 1,
    which forces a vertex of degree 4.  So the whole graph is coloured
    component by component.
    """
    run = prepare_subcubic(g)
    extension_masks(g, m, Palette(4), 1)
    return run(m, budget)
