"""Bipartite machinery: König colouring, line-graph orientations, kernels.

A proper Delta-colouring of a bipartite multigraph orients its line graph
so that every induced sub-digraph has a kernel; extracting kernels colour
by colour solves list instances whose lists have size at least Delta.
The same pipeline powers the precolouring extenders for bipartite and
Shannon-bound palettes; exact search takes over only on shorter lists.

The pipeline runs on the graph's edge indices and, for line-graph
adjacency and edge-id ranks, its dense form (``MultiGraph.dense``):
colour sets and lists are colour bitmasks, arcs and kernels are edge
masks.  ``konig_colour``, ``galvin_orient``, ``kernel`` and ``is_kernel``
translate edge ids to indices and back around the same routines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .core import EdgeId, InputError, MultiGraph, _id_sort_key, edge_bits
from .colouring import (Palette, check_load, extension_masks, is_proper,
                        merge_colourings, used_colours)
from . import exact
from .exact import SolveOutcome, SOLVED, UNSOLVABLE

KERNEL = "kernel"
EXACT_FALLBACK = "exact-fallback"


def _bipartition(n: int,
                 ends: Iterable[tuple[int, int]]) -> list[bool] | None:
    """Whether each vertex lies on the X side of a two-colouring of the
    edges ``ends`` (each component's least vertex on X); None when the
    edges hold an odd cycle."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in ends:
        nbrs[u].append(v)
        nbrs[v].append(u)
    is_x: list[bool | None] = [None] * n
    for root in range(n):
        if is_x[root] is not None:
            continue
        is_x[root] = True
        stack = [root]
        while stack:
            w = stack.pop()
            for x in nbrs[w]:
                if is_x[x] is None:
                    is_x[x] = not is_x[w]
                    stack.append(x)
                elif is_x[x] == is_x[w]:
                    return None
    return is_x


def find_bipartition(g: MultiGraph) -> dict[int, str]:
    """Two-colour the vertices as 'X'/'Y', or reject an odd cycle.

    Vertices without edges land on side 'X'.
    """
    is_x = _bipartition(g.n, g.ends)
    if is_x is None:
        raise InputError("graph is not bipartite")
    return {v: "X" if x else "Y" for v, x in enumerate(is_x)}


def check_bipartition(g: MultiGraph, side_of: Mapping[int, str]) -> None:
    for _, u, v in g.edges:
        su, sv = side_of.get(u), side_of.get(v)
        if su not in ("X", "Y") or sv not in ("X", "Y") or su == sv:
            raise InputError("bipartition does not split every edge")


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _x_sides(g: MultiGraph,
             side_of: Mapping[int, str] | None) -> list[bool]:
    """Whether each vertex lies on side X: of ``side_of`` once it is
    checked, or of a bipartition found when it is None."""
    if side_of is None:
        side_of = find_bipartition(g)
    else:
        check_bipartition(g, side_of)
    return [side_of.get(v) == "X" for v in range(g.n)]


def _edge_mask(g: MultiGraph, ids: Iterable[EdgeId]) -> int:
    mask = 0
    for eid in ids:
        i = g.index.get(eid)
        if i is None:
            raise InputError(f"unknown edge id {eid!r}")
        mask |= 1 << i
    return mask


def _konig(g: MultiGraph, edges: Sequence[int], delta: int) -> list[int]:
    """Proper colouring of ``edges`` within [delta] of a bipartite graph;
    entry i is edge i's colour, 0 for an edge not listed.

    Alternating-path augmentation: for an edge uv take the least colour a
    free at u and b free at v; if no colour is free at both, flipping the
    a/b path from v frees a at both ends (the path cannot reach u, by
    parity).  ``at[w]`` maps each colour present at w to its edge.
    """
    ends = g.ends
    phi = [0] * len(ends)
    at: list[dict[int, int]] = [{} for _ in range(g.n)]
    used = [0] * g.n
    full = (1 << (delta + 1)) - 2
    for i in edges:
        u, v = ends[i]
        common = full & ~(used[u] | used[v])
        if not common:
            a = _lowest(full & ~used[u])
            b = _lowest(full & ~used[v])
            path = []
            w, want = v, a
            while want in at[w]:
                e = at[w][want]
                path.append(e)
                x, y = ends[e]
                w = y if x == w else x
                want = a + b - want
            for e in path:
                for x in ends[e]:
                    del at[x][phi[e]]
            for e in path:
                phi[e] = a + b - phi[e]
                for x in ends[e]:
                    at[x][phi[e]] = e
            # Inner vertices keep both colours; at v and at the path's
            # far end w the one present and the one missing trade places.
            swap = (1 << a) | (1 << b)
            used[v] ^= swap
            used[w] ^= swap
            common = full & ~(used[u] | used[v])
        c = _lowest(common)
        phi[i] = c
        at[u][c] = at[v][c] = i
        used[u] |= 1 << c
        used[v] |= 1 << c
    for i in edges:
        c = phi[i]
        u, v = ends[i]
        if not 1 <= c <= delta or at[u].get(c) != i or at[v].get(c) != i:
            raise AssertionError("alternating-path colouring is improper "
                                 "or exceeded Delta")
    return phi


def konig_colour(g: MultiGraph,
                 side_of: Mapping[int, str] | None = None) -> dict[EdgeId, int]:
    """Proper Delta-edge-colouring of a bipartite multigraph (see
    ``_konig``)."""
    _x_sides(g, side_of)
    return dict(zip(g.ids, _konig(g, range(len(g.ids)), g.delta())))


class _Orientation:
    """A Galvin orientation on some edges of a graph.

    ``arcs[i]`` is edge i's out-neighbours as an edge mask.  Kernels offer
    edges in ``order`` (base colour, then edge id); ``place[i]`` is edge i's
    position in it.
    """

    __slots__ = ("adjacent", "arcs", "x_end", "y_end", "order", "place")

    def __init__(self, g: MultiGraph, edges: Sequence[int],
                 phi: Sequence[int], is_x: Sequence[bool], delta: int):
        m = len(g.ids)
        here: list[list[int]] = [[] for _ in range(g.n)]
        self.x_end = [0] * m
        self.y_end = [0] * m
        for i in edges:
            u, v = g.ends[i]
            here[u].append(i)
            here[v].append(i)
            self.x_end[i], self.y_end[i] = (u, v) if is_x[u] else (v, u)
        arcs = [0] * m
        for w, at in enumerate(here):
            # At an X-vertex arcs run towards smaller base colours, at a
            # Y-vertex towards larger ones.
            at.sort(key=phi.__getitem__, reverse=not is_x[w])
            towards = 0
            for i in at:
                arcs[i] |= towards
                towards |= 1 << i
        for i in edges:
            if arcs[i].bit_count() > delta - 1:
                raise AssertionError("orientation out-degree exceeded Delta-1")
        self.adjacent = g.dense().adjacent
        self.arcs = arcs
        self.order = sorted(edges, key=lambda i: (phi[i], i))
        self.place = [0] * m
        for p, i in enumerate(self.order):
            self.place[i] = p


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
    dense: _Orientation

    @property
    def arcs(self) -> dict[EdgeId, frozenset[EdgeId]]:
        ids = self.graph.ids
        return {ids[i]: frozenset(ids[j] for j in edge_bits(mask))
                for i, mask in enumerate(self.dense.arcs)}

    def out_degree(self, eid: EdgeId) -> int:
        return self.dense.arcs[self.graph.index[eid]].bit_count()

    def has_arc(self, e: EdgeId, f: EdgeId) -> bool:
        index = self.graph.index
        return bool(self.dense.arcs[index[e]] >> index[f] & 1)


def galvin_orient(g: MultiGraph, side_of: Mapping[int, str] | None,
                  phi: Mapping[EdgeId, int]) -> GalvinOrientation:
    if side_of is None:
        side_of = find_bipartition(g)
    is_x = _x_sides(g, side_of)
    delta = g.delta()
    for eid in g.edge_ids:
        c = phi.get(eid)
        if c is None or not 1 <= c <= delta:
            raise InputError(f"base colouring misses edge {eid!r} or "
                             f"leaves the range [1..{delta}]")
    if not is_proper(g, phi):
        raise InputError("base colouring is not proper")
    dense = _Orientation(g, range(len(g.ids)), [phi[eid] for eid in g.ids],
                         is_x, delta)
    return GalvinOrientation(g, dict(side_of), dict(phi), dense)


def _is_kernel(o: _Orientation, active: int, candidate: int) -> bool:
    """Kernel test in the sub-digraph induced by ``active`` (edge masks)."""
    if candidate & ~active:
        return False
    for i in edge_bits(candidate):
        if o.adjacent[i] & candidate:
            return False
    for i in edge_bits(active & ~candidate):
        if not o.arcs[i] & candidate:
            return False
    return True


def is_kernel(orientation: GalvinOrientation, active: set,
              candidate: set) -> bool:
    """Kernel test in the sub-digraph induced by ``active``."""
    if not candidate <= active:
        return False
    g = orientation.graph
    return _is_kernel(orientation.dense, _edge_mask(g, active),
                      _edge_mask(g, candidate))


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


def _kernel(o: _Orientation, active: int) -> int:
    """Kernel of the sub-digraph induced by the active edges (a mask).

    Deferred-acceptance construction: X-vertices offer their active edges
    in increasing base colour, Y-vertices hold the largest base colour
    offered so far.  The held edges form a matching whose stability is
    exactly the kernel property, so by Galvin's argument a kernel always
    comes out; the result is still verified.
    """
    offers: dict[int, list[int]] = {}
    for i in o.order:
        if active >> i & 1:
            offers.setdefault(o.x_end[i], []).append(i)
    held: dict[int, int] = {}
    free_x = list(offers)
    while free_x:
        queue = offers[free_x.pop()]
        while queue:
            e = queue.pop(0)
            y = o.y_end[e]
            rival = held.get(y)
            if rival is None or o.place[e] > o.place[rival]:
                held[y] = e
                if rival is not None:
                    # rival's X-end resumes offering from its next edge
                    free_x.append(o.x_end[rival])
                break
        # an X-vertex whose offers ran out stays unmatched
    chosen = 0
    for e in held.values():
        chosen |= 1 << e
    if not _is_kernel(o, active, chosen):
        raise AssertionError("no kernel found in induced sub-digraph")
    return chosen


def kernel(orientation: GalvinOrientation, active: Iterable[EdgeId]) -> set:
    """Kernel of the sub-digraph induced by the active edges (see
    ``_kernel``)."""
    g = orientation.graph
    mask = _edge_mask(g, active)
    if not mask:
        return set()
    return {g.ids[i] for i in edge_bits(_kernel(orientation.dense, mask))}


class _EdgeSet:
    """What the kernel runs derive from one set of precoloured edges of g
    alone, built once for however many precolourings of that set come:
    the uncoloured edges as indices, how many of them meet each vertex,
    the sides ``is_x`` that split them (None when they hold an odd cycle),
    the Galvin orientation of their König colouring, and each kernel
    found so far, by its active mask: ``_kernel`` depends on the
    orientation and the mask alone, so one found serves every later run.

    ``is_x`` is given as g's own sides, or, when None, found on the
    uncoloured edges alone.  ``key`` is the precoloured set.
    """

    __slots__ = ("g", "key", "edges", "deg", "is_x", "orientation",
                 "kernels")

    def __init__(self, g: MultiGraph, coloured: Iterable[EdgeId],
                 is_x: Sequence[bool] | None = None):
        self.g = g
        self.key = frozenset(coloured)
        self.edges = [i for i, eid in enumerate(g.ids)
                      if eid not in self.key]
        self.deg = [0] * g.n
        for i in self.edges:
            u, v = g.ends[i]
            self.deg[u] += 1
            self.deg[v] += 1
        if is_x is None:
            is_x = _bipartition(g.n, (g.ends[i] for i in self.edges))
        self.is_x = is_x
        self.orientation = None
        if is_x is not None and self.edges:
            delta = max(self.deg)
            self.orientation = _Orientation(
                g, self.edges, _konig(g, self.edges, delta), is_x, delta)
        self.kernels: dict[int, int] = {}

    def lists(self, c: Mapping[EdgeId, int], q: int,
              need: Callable[[int, int], int]) -> tuple[list[int], list[int]]:
        """Each vertex's used colours under the precolouring ``c`` of this
        set, and each uncoloured edge's list mask within [q] (entry i for
        edge i, 0 for a coloured edge).  A list shorter than ``need`` of
        its ends' counts would break the extension theorem's hypothesis,
        and raises."""
        g, deg = self.g, self.deg
        used = used_colours(g, c)
        full = (1 << (q + 1)) - 2
        lists = [0] * len(g.ids)
        for i in self.edges:
            u, v = g.ends[i]
            lists[i] = full & ~(used[u] | used[v])
            if lists[i].bit_count() < need(deg[u], deg[v]):
                raise AssertionError("list inequality failed after reduction")
        return used, lists


def _edge_set(g: MultiGraph, c: Mapping[EdgeId, int], last: _EdgeSet | None,
              is_x: Sequence[bool] | None = None) -> _EdgeSet:
    """The ``_EdgeSet`` of the edges ``c`` colours: ``last`` when it is
    that set's, else a new one."""
    if last is not None and c.keys() == last.key:
        return last
    return _EdgeSet(g, c, is_x)


def _list_colour(s: _EdgeSet, lists: Sequence[int], used: Sequence[int],
                 budget: int | None) -> SolveOutcome:
    """List-colour the uncoloured edges of ``s``, kernel extraction first.

    ``lists[i]`` is edge i's colour mask.  Each kernel comes from the
    set's memo, by its active mask, and is computed and kept only when
    missing.  ``used`` holds the colours other, already coloured edges
    take at each vertex; a kernel colouring that clashes with them, or
    with itself, is a bug and raises.
    """
    g, edges = s.g, s.edges
    ids, ends = g.ids, g.ends
    if not edges:
        return SolveOutcome(SOLVED, {}, method=KERNEL)
    kernels = s.kernels
    live = union = 0
    for i in edges:
        live |= 1 << i
        union |= lists[i]
    colour = [0] * len(ids)
    left = live
    pending = edges
    # one kernel per colour, in increasing order, among the edges still
    # uncoloured whose lists hold it
    for c in range(union.bit_length()):
        if not pending:
            break
        active = 0
        for i in pending:
            if lists[i] >> c & 1:
                active |= 1 << i
        if active:
            chosen = kernels.get(active)
            if chosen is None:
                chosen = kernels[active] = _kernel(s.orientation, active)
            left &= ~chosen
            for i in edge_bits(chosen):
                colour[i] = c
            pending = [i for i in pending if left >> i & 1]

    if not left:
        seen = list(used)
        for i in edges:
            bit = 1 << colour[i]
            u, v = ends[i]
            if (seen[u] | seen[v]) & bit:
                raise AssertionError("kernel colouring is improper")
            seen[u] |= bit
            seen[v] |= bit
        return SolveOutcome(SOLVED, {ids[i]: colour[i] for i in edges},
                            method=KERNEL)
    # Lists of at least the orientation's Delta cannot stall (Galvin).
    if min(lists[i].bit_count() for i in edges) >= max(s.deg):
        raise AssertionError("kernel path stalled on lists meeting Galvin's "
                             "bound")

    # Some list ran dry before its edge was chosen: solve the rest
    # exactly, honouring the colours already committed, and then, as those
    # may themselves be the obstruction, from scratch, on what is left of
    # the budget.  A spent budget stops there.  The outcome counts the
    # nodes of both searches.
    sub = g.restrict_edges(ids[i] for i in edges)
    id_lists = {ids[i]: exact._colours_of(lists[i]) for i in edges}
    committed = {ids[i]: colour[i] for i in edge_bits(live & ~left)}
    outcome = exact.solve_list(sub, id_lists, budget, fixed=committed)
    if outcome.status == UNSOLVABLE:
        spent = outcome.nodes
        outcome = exact.solve_list(
            sub, id_lists, None if budget is None else budget - spent)
        outcome.nodes += spent
    outcome.method = EXACT_FALLBACK
    return outcome


def list_colour_bipartite(g: MultiGraph,
                          side_of: Mapping[int, str] | None,
                          lists: Mapping[EdgeId, Iterable[int]],
                          budget: int | None = None) -> SolveOutcome:
    """List-colour a bipartite multigraph; kernel extraction first.

    Guaranteed to succeed whenever every list has size at least
    max{d(u), d(v)}; the colour-by-colour kernel path alone covers lists
    of size at least Delta, and raises if it stalls there, and an exact
    search on the residual (then on the whole instance) covers everything
    else.  The outcome's method tag records which engine finished the job.
    """
    is_x = _x_sides(g, side_of)
    masks = [exact._mask_of(lists[eid]) for eid in g.ids]
    return _list_colour(_EdgeSet(g, (), is_x), masks, [0] * g.n, budget)


def _extended(c: Mapping[EdgeId, int], outcome: SolveOutcome) -> SolveOutcome:
    """The outcome with ``c`` merged into its colouring; an extension
    theorem guarantees a colouring, so only a spent budget may stop it."""
    if outcome.status == UNSOLVABLE:
        raise AssertionError("extension failed despite its guarantee")
    if outcome.solved:
        outcome.colouring = merge_colourings(c, outcome.colouring)
    return outcome


def prepare_bipartite(g: MultiGraph, side_of: Mapping[int, str] | None = None
                      ) -> Callable[..., SolveOutcome]:
    """``extend_bipartite`` on g, prepared once for many precolourings:
    ``run(c, k, budget=None)`` answers as it does, taking ``c`` as proper
    and meeting each vertex at most k times, unchecked.

    The run keeps the ``_EdgeSet`` of the last precoloured set it saw,
    so the precolourings of one set in a row share one König colouring,
    one orientation and one kernel memo, and a new set replaces it.  The
    list masks, the Galvin bound and the final check stay per run."""
    is_x, delta = _x_sides(g, side_of), g.delta()
    last = None

    def run(c, k, budget=None):
        nonlocal last
        s = last = _edge_set(g, c, last, is_x)
        used, lists = s.lists(c, delta + k, max)
        return _extended(c, _list_colour(s, lists, used, budget))
    return run


def extend_bipartite(g: MultiGraph,
                     side_of: Mapping[int, str] | None,
                     c: Mapping[EdgeId, int], k: int,
                     budget: int | None = None) -> SolveOutcome:
    """Extend a precolouring of a bipartite multigraph within [Delta+k].

    Requires every vertex to meet at most k precoloured edges; under that
    hypothesis an extension always exists and is returned, unless a
    fallback search passes ``budget`` (a ``BUDGET`` outcome).  The
    uncoloured edges are list-coloured in place, with no reduced graph
    built.
    """
    run = prepare_bipartite(g, side_of)
    if k < 1:
        raise InputError("k must be positive")
    extension_masks(g, c, Palette(g.delta() + k), k)
    return run(c, k, budget)


def prepare_shannon(g: MultiGraph) -> Callable[..., SolveOutcome]:
    """``extend_shannon`` on g, prepared as ``prepare_bipartite`` is: the
    run keeps the last precoloured set's ``_EdgeSet``, whose sides are
    found on its uncoloured edges alone.  When those hold an odd cycle,
    the run searches the whole extension exactly instead."""
    delta = g.delta()
    last = None

    def run(c, k, budget=None):
        nonlocal last
        q = (3 * delta + k) // 2
        s = last = _edge_set(g, c, last)
        used, lists = s.lists(
            c, q, lambda du, dv: max(du, dv) + min(du, dv) // 2)
        if s.is_x is None:
            outcome = exact.prepare_extend(g, Palette(q))(c, budget)
            outcome.method = EXACT_FALLBACK
        else:
            outcome = _list_colour(s, lists, used, budget)
        return _extended(c, outcome)
    return run


def extend_shannon(g: MultiGraph, c: Mapping[EdgeId, int], k: int,
                   budget: int | None = None) -> SolveOutcome:
    """Extend a precolouring within [floor(3*Delta/2 + k/2)].

    Requires every vertex to meet at most k precoloured edges; an
    extension always exists under that hypothesis and is returned, unless
    a search passes ``budget`` (a ``BUDGET`` outcome).  Uncoloured edges
    that form a bipartite graph are list-coloured in place; otherwise the
    whole extension is searched exactly.
    """
    if k < 1:
        raise InputError("k must be positive")
    if g.edges:
        extension_masks(g, c, Palette((3 * g.delta() + k) // 2), k)
    else:
        check_load(g, c, k)    # an edge id the graph lacks still raises
    return prepare_shannon(g)(c, k, budget)
