"""Sharpness families, small-graph enumeration, odd-set density, and the
exhaustive verification harness.

The families are the classical tight examples: the subdivided star (whose
pendant matching cannot be extended without one extra colour), the chain
of diamond blocks separating two precoloured edges, the fat triangle, and
the subdivided star with fat pendant edges.  Enumeration streams are
deduplicated by an exact canonical form so exhaustive sweeps are both
complete and reproducible.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .core import (EdgeId, InputError, MultiGraph, degree_stats,
                   edge_bits, edge_distance)
from .colouring import Palette, colouring_to_json_obj
from . import exact, kernels, gallai


# -- families ------------------------------------------------------------

SUBDIVIDED_STAR = "subdivided-star"
CHAIN_BLOCKS = "chain-blocks"
SHANNON_TRIANGLE = "shannon-triangle"
MULTI_STAR = "multi-star"


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple

    @classmethod
    def subdivided_star(cls, s: int) -> "FamilySpec":
        return cls(SUBDIVIDED_STAR, (s,))

    @classmethod
    def chain_blocks(cls, delta: int, blocks: int) -> "FamilySpec":
        return cls(CHAIN_BLOCKS, (delta, blocks))

    @classmethod
    def shannon_triangle(cls, m1: int, m2: int, m3: int) -> "FamilySpec":
        return cls(SHANNON_TRIANGLE, (m1, m2, m3))

    @classmethod
    def multi_star(cls, s: int, k: int) -> "FamilySpec":
        return cls(MULTI_STAR, (s, k))


def _subdivided_star(s: int):
    """Star with s leaves, each leaf edge subdivided; pendants colour 1."""
    if s < 2:
        raise InputError("need at least 2 leaves")
    edges = []
    pre = {}
    for i in range(s):
        edges.append((i, 0, 1 + i))                # centre to midpoint
        edges.append((s + i, 1 + i, 1 + s + i))    # midpoint to leaf
        pre[s + i] = 1
    return MultiGraph(1 + 2 * s, edges), pre, Palette(s)


def _chain_blocks(delta: int, blocks: int):
    """Chain of diamond blocks between two pendant precoloured edges.

    Each block is a bipartite diamond: a connector vertex, an independent
    set of size delta/2, one of size delta-1, another of size delta/2,
    joined completely layer to layer; blocks share connector vertices.
    The two outermost edges are precoloured 1 and the palette is [delta].
    """
    if delta < 4 or delta % 2 != 0:
        raise InputError("delta must be even and at least 4")
    if blocks < 1:
        raise InputError("need at least one block")
    half = delta // 2
    mid = delta - 1
    eid = itertools.count()
    vid = itertools.count()
    edges = []

    def fresh(count):
        return [next(vid) for _ in range(count)]

    def join(layer_a, layer_b):
        for a in layer_a:
            for b in layer_b:
                edges.append((next(eid), a, b))

    end_left = fresh(1)
    connector = fresh(1)
    first_edge = next(eid)
    edges.append((first_edge, end_left[0], connector[0]))
    for _ in range(blocks):
        left = fresh(half)
        centre = fresh(mid)
        right = fresh(half)
        join(connector, left)
        join(left, centre)
        join(centre, right)
        connector = fresh(1)
        join(right, connector)
    end_right = fresh(1)
    last_edge = next(eid)
    edges.append((last_edge, connector[0], end_right[0]))
    g = MultiGraph(next(vid), edges)
    return g, {first_edge: 1, last_edge: 1}, Palette(delta)


def _shannon_triangle(m1: int, m2: int, m3: int):
    if min(m1, m2, m3) < 1:
        raise InputError("multiplicities must be positive")
    edges = []
    eid = 0
    for count, (u, v) in ((m1, (0, 1)), (m2, (1, 2)), (m3, (0, 2))):
        for _ in range(count):
            edges.append((eid, u, v))
            eid += 1
    g = MultiGraph(3, edges)
    return g, {}, Palette(g.delta() + g.mu())


def _multi_star(s: int, k: int):
    """Subdivided star whose pendant edges have multiplicity k.

    Each fat pendant is precoloured 1..k; palette [Delta+k-1].
    """
    if s < 2 or k < 1:
        raise InputError("need s >= 2 leaves and multiplicity k >= 1")
    edges = []
    pre = {}
    eid = 0
    for i in range(s):
        edges.append((eid, 0, 1 + i))
        eid += 1
    for i in range(s):
        for j in range(k):
            edges.append((eid, 1 + i, 1 + s + i))
            pre[eid] = j + 1
            eid += 1
    g = MultiGraph(1 + 2 * s, edges)
    return g, pre, Palette(g.delta() + k - 1)


# Each family's builder and its number of parameters.
FAMILIES = {
    SUBDIVIDED_STAR: (_subdivided_star, 1),
    CHAIN_BLOCKS: (_chain_blocks, 2),
    SHANNON_TRIANGLE: (_shannon_triangle, 3),
    MULTI_STAR: (_multi_star, 2),
}


def generate(spec: FamilySpec) -> tuple[MultiGraph, dict[EdgeId, int], Palette]:
    if spec.family not in FAMILIES:
        raise InputError(f"unknown family {spec.family!r}")
    build, count = FAMILIES[spec.family]
    if len(spec.params) != count:
        raise InputError(f"family {spec.family} takes {count} parameter(s), "
                         f"got {len(spec.params)}")
    return build(*spec.params)


# -- odd-set density -----------------------------------------------------

def compute_rho(g: MultiGraph) -> Fraction:
    """max over odd vertex sets T, |T| >= 3, of 2|E(G[T])| / (|T|-1)."""
    if g.n < 3:
        raise InputError("need at least 3 vertices")
    best = Fraction(0)
    verts = list(range(g.n))
    for size in range(3, g.n + 1, 2):
        for combo in itertools.combinations(verts, size):
            inside = set(combo)
            count = sum(1 for _, u, v in g.edges
                        if u in inside and v in inside)
            best = max(best, Fraction(2 * count, size - 1))
    return best


# -- canonical forms and enumeration -------------------------------------

def canonical_form(g: MultiGraph, generators: list | None = None,
                   _labelling: list | None = None) -> tuple:
    """Exact canonical form: iterated neighbourhood refinement, with
    branching on the first non-singleton class until discrete; the form
    is the least sorted edge list over the leaves.

    A leaf with the first or the best leaf's edge list gives an
    automorphism (nauty-style: no other leaves are compared).  Each node
    keeps the orbits of those fixing its path pointwise, and skips (or
    abandons) a child whose orbit holds a smaller target vertex: its
    subtree is the image of an explored one, with the same edge lists.
    The automorphisms are appended to ``generators``, as vertex images;
    they generate the whole automorphism group.  ``_labelling`` gets the
    best leaf's rank of each vertex, under which g's edges are the form's.
    """
    n = g.n
    nbr: list[dict[int, int]] = [dict() for _ in range(n)]
    for _, u, v in g.edges:
        nbr[u][v] = nbr[u].get(v, 0) + 1
        nbr[v][u] = nbr[v].get(u, 0) + 1
    around_of = [tuple(d.items()) for d in nbr]
    # (colour, multiplicity) as colour * wide + multiplicity sorts the same
    wide = len(g.edges) + 1

    def refine(colours, classes):
        """The stable refinement of ``colours`` (``classes`` values) as
        ranks, once a round splits no class or leaves none to split."""
        while True:
            sig = [(colours[v], tuple(sorted([colours[w] * wide + mult
                                              for w, mult in around_of[v]])))
                   for v in range(n)]
            distinct = sorted(set(sig))
            order = {s: i for i, s in enumerate(distinct)}
            colours = tuple(map(order.__getitem__, sig))
            if len(distinct) == classes or len(distinct) == n:
                return colours
            classes = len(distinct)

    def join(orbit, gamma):
        """Merge the orbits, each labelled by its least vertex, gamma links."""
        for v, w in enumerate(gamma):
            low, high = sorted((orbit[v], orbit[w]))
            if low != high:
                orbit[:] = [low if x == high else x for x in orbit]

    path: list[int] = []                # the vertices individualised
    levels: list[list[int]] = []        # the orbits at each node on it
    found: list[tuple[int, ...]] = []
    first = best = None                 # (edge list, rank of each vertex)
    abandon = None                      # the level whose child is redundant

    def record(gamma):
        nonlocal abandon
        found.append(gamma)
        for j, orbit in enumerate(levels):
            if j and gamma[path[j - 1]] != path[j - 1]:
                break
            join(orbit, gamma)
            if orbit[path[j]] != path[j]:
                abandon = j
                return

    def leaf(rank):
        nonlocal first, best
        form = tuple(sorted([(rank[u], rank[v]) if rank[u] < rank[v]
                             else (rank[v], rank[u]) for _, u, v in g.edges]))
        if first is None:
            first = best = (form, rank)
            return
        for known, known_rank in (first, best):
            if form == known:
                record(tuple(rank.index(r) for r in known_rank))
                return
        if form < best[0]:
            best = (form, rank)

    def search(colours, classes):
        nonlocal abandon
        colours = refine(colours, classes)
        cell = next((c for c in range(n) if colours.count(c) > 1), None)
        if cell is None:
            leaf(colours)
            return
        depth = len(path)
        orbit = list(range(n))
        for gamma in found:
            if all(gamma[v] == v for v in path):
                join(orbit, gamma)
        levels.append(orbit)
        for v in range(n):
            if colours[v] != cell or orbit[v] != v:
                continue
            path.append(v)
            search(colours[:v] + (colours[v] - n,) + colours[v + 1:],
                   max(colours) + 2)
            path.pop()
            if abandon is not None and abandon < depth:
                break
            abandon = None
        levels.pop()

    search((0,) * n, 1)
    del search      # a recursive closure is a reference cycle: break it
    if generators is not None:
        generators.extend(found)
    if _labelling is not None:
        _labelling.extend(best[1])
    return (n, best[0])


def enumerate_multigraphs(n_max: int, e_max: int, mu_max: int = 1,
                          connected_only: bool = True,
                          delta_max: int | None = None
                          ) -> Iterator[MultiGraph]:
    """All multigraphs within the bounds, one per isomorphism class.

    Graphs have no isolated vertices and at least one edge; the stream is
    produced level by level in edge count, each level in canonical-form
    order, and is deterministic.  Each class is generated once, by
    canonical augmentation with an invariant filter (see
    ``_multigraphs_with_automorphisms``), and is represented by the child
    that augmentation accepts.
    """
    for g, _ in _multigraphs_with_automorphisms(n_max, e_max, mu_max,
                                                connected_only, delta_max):
        yield g


def _multigraphs_with_automorphisms(n_max, e_max, mu_max, connected_only,
                                    delta_max):
    """``enumerate_multigraphs``'s stream, each graph with the automorphism
    generators ``canonical_form`` found on it, as vertex images.

    Canonical augmentation (McKay 1998, "Isomorph-free exhaustive
    generation").  An edge of a graph is removable if taking it out, and
    any vertex left isolated, leaves a graph of the family: with
    ``connected_only`` a pendant edge or a non-bridge, else any edge.  Of
    the removable edges, the canonical one has the largest invariant (see
    ``_children``), ties broken by the largest ranked pair under the
    labelling of ``canonical_form``'s best leaf.  A graph h is kept as a
    child of g, h = g plus a new edge, iff the new edge lies in the
    automorphism orbit of h's canonical edge.  Then h minus its canonical
    edge is isomorphic to g, so h is kept only from the one graph of
    g's class the stream holds, and from it only once, as ``_augment``
    adds one edge per orbit of g's automorphisms; and every class is
    reached, from the graph its canonical edge leaves.  Both rest on the
    generators generating the whole group.
    """
    if n_max < 2 or e_max < 1 or mu_max < 1 or (
            delta_max is not None and delta_max < 1):
        raise InputError("bounds must allow at least a single edge")

    seed = MultiGraph(2, [(0, 0, 1)])
    generators: list = []
    level = [(canonical_form(seed, generators), seed, generators)]
    for e in range(1, e_max + 1):
        level.sort(key=lambda entry: entry[0])
        for _, g, automorphisms in level:
            yield g, automorphisms
        if e == e_max:
            break
        level = [child for _, g, automorphisms in level
                 for child in _children(g, automorphisms, n_max, mu_max,
                                        delta_max, connected_only)]


def _orbit(p, image, generators):
    """The orbit of p under the ``generators``; ``image(gamma, p)`` moves p."""
    orbit = {p}
    todo = [p]
    for q in todo:
        for gamma in generators:
            r = image(gamma, q)
            if r not in orbit:
                orbit.add(r)
                todo.append(r)
    return orbit


def _orbit_leaders(points, image, generators):
    """The points, in order, that come first in their orbit under the
    ``generators``."""
    seen = set()
    for p in points:
        if p not in seen:
            yield p
            seen |= _orbit(p, image, generators)


def _pair_image(gamma, pair):
    a, b = gamma[pair[0]], gamma[pair[1]]
    return (a, b) if a < b else (b, a)


def _augment(g: MultiGraph, generators, n_max, mu_max, delta_max,
             connected_only, mults):
    """The vertex pairs (u, v), u < v, that a new edge of g may join, one
    per orbit of g's automorphisms; v = g.n is a new vertex, and (g.n,
    g.n + 1) a new edge on two new ones.  ``mults`` counts g's edges at
    each pair."""
    cap = len(g.edges) + 1 if delta_max is None else delta_max
    # automorphisms keep degrees and multiplicities: they map these to these
    free = [v for v in range(g.n) if g.degree(v) < cap]
    open_pairs = [(u, v) for u in free for v in free
                  if u < v and mults.get((u, v), 0) < mu_max]
    yield from _orbit_leaders(open_pairs, _pair_image, generators)
    if g.n < n_max:
        for u in _orbit_leaders(free, _vertex_image, generators):
            yield u, g.n
    if not connected_only and g.n + 2 <= n_max:
        yield g.n, g.n + 1


def _vertex_image(gamma, v):
    return gamma[v]


def _children(g: MultiGraph, generators, n_max, mu_max, delta_max,
              connected_only):
    """The children of g that canonical augmentation keeps, as (form,
    graph, generators) (see ``_multigraphs_with_automorphisms``).

    Edges are compared by the sorted pair of their ends' degrees, then by
    the sorted pair, over their ends, of (the end's degree, the sorted
    degrees at the far ends of its edges).  Both are read off g's arrays
    and the new pair, and a child with a removable edge that compares
    larger than the new one is dropped before it is built: its canonical
    edge compares at least as large, so no automorphism maps the new edge
    onto it.
    """
    n = g.n
    mults: dict[tuple[int, int], int] = {}
    for u, v in g.ends:
        pair = (u, v) if u < v else (v, u)
        mults[pair] = mults.get(pair, 0) + 1
    far = [g.neighbours(v) for v in range(n)]
    # the bridges of g, each with the vertices on its first end's side;
    # a bridge stays one in a child unless the new edge crosses it
    sides = {}
    if connected_only:
        for (a, b), m in mults.items():
            if m == 1:
                side = _side(far, a, b)
                if not side >> b & 1:
                    sides[a, b] = side
    base = list(map(len, g.incidence)) + [0, 0]
    for u, v in _augment(g, generators, n_max, mu_max, delta_max,
                         connected_only, mults):
        deg = base[:]
        deg[u] += 1
        deg[v] += 1
        du, dv = deg[u], deg[v]
        key = (du, dv) if du < dv else (dv, du)
        ties = []
        for pair in mults:
            if pair == (u, v):
                continue
            a, b = pair
            da, db = deg[a], deg[b]
            other = (da, db) if da < db else (db, da)
            if other < key:
                continue
            side = sides.get(pair)
            if side is not None and da > 1 and db > 1 and (
                    v == n or not (side >> u ^ side >> v) & 1):
                continue                    # still a bridge: not removable
            if other > key:
                break
            ties.append(pair)
        else:
            if ties:
                ties = _top_ties(far, deg, u, v, ties)
                if ties is None:
                    continue
            h = MultiGraph(max(n, v + 1),
                           list(g.edges) + [(len(g.edges), u, v)])
            automorphisms: list = []
            labelling: list = []
            form = canonical_form(h, automorphisms, labelling)
            if ties:
                best = max([(u, v)] + ties, key=lambda p: sorted(
                    (labelling[p[0]], labelling[p[1]])))
                if best != (u, v) and (u, v) not in _orbit(
                        best, _pair_image, automorphisms):
                    continue
            yield form, h, automorphisms


def _top_ties(far, deg, u, v, ties):
    """The pairs of ``ties``, removable and with the new pair (u, v)'s
    degree pair, whose full invariant (see ``_children``) equals the new
    pair's, in the child of degrees ``deg``; None if one is larger."""
    def invariant(a, b):
        ends = []
        for x in (a, b):
            seen = [deg[y] for y in far[x]] if x < len(far) else []
            if x == u:
                seen.append(deg[v])
            elif x == v:
                seen.append(deg[u])
            ends.append((deg[x], sorted(seen)))
        ends.sort()
        return ends

    new = invariant(u, v)
    top = []
    for a, b in ties:
        other = invariant(a, b)
        if other > new:
            return None
        if other == new:
            top.append((a, b))
    return top


def _side(far, a, b):
    """The vertices reached from a, as a mask, without the edge ab (a
    single edge) of the graph whose far ends at each vertex are ``far``."""
    reached = 1 << a
    todo = [a]
    for x in todo:
        for y in far[x]:
            if not reached >> y & 1 and (x, y) != (a, b):
                reached |= 1 << y
                todo.append(y)
    return reached


def _within(g: MultiGraph, t: int) -> list[int]:
    """The edges within line-graph distance t of each edge, itself
    included, as edge masks, by one breadth-first search to depth t from
    each edge."""
    adjacent = g.dense().adjacent
    out = []
    for i in range(len(g.ids)):
        reached = frontier = 1 << i
        for _ in range(t):
            grown = 0
            for j in edge_bits(frontier):
                grown |= adjacent[j]
            frontier = grown & ~reached
            if not frontier:
                break
            reached |= frontier
        out.append(reached)
    return out


def enumerate_edge_sets(g: MultiGraph, t: int = 1,
                        max_load: int | None = None,
                        _with_maximal: bool = False) -> Iterator[tuple]:
    """All edge sets of pairwise distance > t, in deterministic order.

    t=0 yields every subset; t=1 the matchings; t=2 induced matchings.
    With ``max_load``, only sets meeting each vertex at most that many
    times; a set over the bound is pruned with all its supersets, so the
    stream is the unbounded one filtered, in the same order.

    With ``_with_maximal``, each set comes as (set, maximal): maximal is
    True when no edge can join it, every edge being in the set, in
    conflict with one of it, or at a vertex the set already meets
    ``max_load`` times.
    """
    ids, ends = g.ids, g.ends
    adjacency = t >= 1 or max_load == 1
    # each edge's conflicts and the edge itself
    closed = _within(g, max(t, 1) if adjacency else 0)
    at = g.dense().at_vertex            # the edges at each vertex
    load = [0] * g.n
    # no set meets a vertex more than len(ids) times
    cap = len(ids) if max_load is None else max_load
    full = (1 << len(ids)) - 1
    # A vertex the set meets cap times blocks its other edges.  Where the
    # conflicts include line adjacency they block those edges already, and
    # with no cap the vertex is saturated only once the set holds every
    # edge; a zero cap saturates every vertex from the start.
    watch = not adjacency and max_load is not None

    def grow(start: int, chosen: tuple, blocked: int, saturated: int):
        # saturated: the edges at the vertices the set meets cap times
        yield (chosen, (blocked | saturated) == full) if _with_maximal \
            else chosen
        for p in range(start, len(ids)):
            if blocked >> p & 1:
                continue
            u, v = ends[p]
            if load[u] >= cap or load[v] >= cap:
                continue
            load[u] += 1
            load[v] += 1
            grown = saturated
            if watch:
                if load[u] == cap:
                    grown |= at[u]
                if load[v] == cap:
                    grown |= at[v]
            yield from grow(p + 1, chosen + (ids[p],), blocked | closed[p],
                            grown)
            load[u] -= 1
            load[v] -= 1

    yield from grow(0, (), 0, full if cap == 0 else 0)
    del grow                            # the cycle (see canonical_form)


def enumerate_precolourings(g: MultiGraph, palette: Palette, t: int = 1,
                            max_load: int | None = None
                            ) -> Iterator[dict[EdgeId, int]]:
    """All proper precolourings whose support has pairwise distance > t,
    one per colour-permutation orbit (colours appear in first-use order
    along increasing edge id).  With ``max_load``, only those with at
    most that many precoloured edges at each vertex (see
    ``enumerate_edge_sets``).
    """
    for subset in enumerate_edge_sets(g, t, max_load):
        for colours in _colourings(_pattern(g, subset), palette.k):
            yield dict(zip(subset, colours))


def _pattern(g: MultiGraph, subset) -> tuple[int, ...]:
    """The ends of ``subset``'s edges in its order, each vertex renamed 0,
    1, ... in order of first appearance; a matching of s edges has
    ``tuple(range(2 * s))``."""
    names: dict[int, int] = {}
    return tuple([names.setdefault(x, len(names))
                  for eid in subset for x in g.endpoints(eid)])


@functools.lru_cache(maxsize=None)
def _colourings(pattern: tuple[int, ...], q: int
                ) -> tuple[tuple[int, ...], ...]:
    """The proper precolourings from q colours, up to colour permutation,
    of every edge set whose ``_pattern`` is ``pattern``, as colour tuples
    in the set's order.

    Colours come in first-use order, and the tuples in lexicographic
    order.  An edge takes the colours up to one above the largest so far
    that the earlier edges at its ends leave free, so the list depends on
    the pattern alone, and every set of one pattern shares it.
    """
    ends = list(zip(pattern[::2], pattern[1::2]))
    table: list[tuple[int, ...]] = [()]
    for i, (u, v) in enumerate(ends):
        near = [j for j in range(i) if u in ends[j] or v in ends[j]]
        grown = []
        for colours in table:
            taken = {colours[j] for j in near}
            grown += [colours + (c,)
                      for c in range(1, min(q, max(colours, default=0) + 1)
                                     + 1)
                      if c not in taken]
        table = grown
    return tuple(table)


def random_distance_matching(g: MultiGraph, t: int, palette: Palette,
                             rng) -> dict[EdgeId, int]:
    """Random precoloured distance-t matching, t >= 1 (proper by
    construction: no two of its edges meet)."""
    if t < 1:
        raise InputError("a distance-t matching needs t >= 1")
    ids = list(g.ids)
    rng.shuffle(ids)
    chosen = []
    for eid in ids:
        if all(edge_distance(g, eid, f) > t for f in chosen):
            if rng.random() < 0.5 or not chosen:
                chosen.append(eid)
    return {eid: rng.randrange(1, palette.k + 1) for eid in chosen}


# -- verification harness ------------------------------------------------

CLAIMS = {
    "matching-extension": "precoloured matchings extend with Delta+mu colours",
    "matching-avoidance": "forbidden matchings are avoidable with Delta+mu colours",
    "distance3-extension": "distance-3 matchings extend with Delta+mu+1 colours",
    "bipartite-matching-extension": "bipartite matchings extend with Delta+1 colours",
    "shannon-matching-extension": "matchings extend with floor(3*Delta/2+1/2) colours",
    "subcubic-matching-extension": "subcubic matchings extend with 4 colours",
    "line-degree-extension": "palette Delta+k extensions fail only on the two known shapes",
    "bipartite-extension": "bipartite degree-k precolourings extend with Delta+k colours",
    "shannon-extension": "degree-k precolourings extend with floor((3*Delta+k)/2) colours",
}

#: Claims whose palette ``verify`` can shift by ``palette_offset``; the
#: others fix their palette inside the extender they check.
OFFSET_CLAIMS = ("matching-extension", "matching-avoidance",
                 "distance3-extension")


@dataclass
class VerificationReport:
    claim: str
    bounds: dict
    graphs: int = 0
    instances: int = 0
    instances_checked: int = 0
    counterexample: dict | None = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def to_json_obj(self, timestamp: bool = True) -> dict:
        obj = {"claim": self.claim,
               "description": CLAIMS.get(self.claim, ""),
               "bounds": self.bounds,
               "graphs": self.graphs,
               "instances": self.instances,
               "instances_checked": self.instances_checked,
               "ok": self.ok,
               "counterexample": self.counterexample}
        if timestamp:
            obj["elapsed_seconds"] = round(self.elapsed, 3)
        return obj


#: The least k of the claims that check every k up to ``max_k`` (see
#: ``_plan``); a smaller ``max_k`` would check nothing.
_LEAST_K = {"line-degree-extension": 0, "bipartite-extension": 1,
            "shannon-extension": 1}


def _plan(claim: str, g: MultiGraph, max_k: int, palette_offset: int,
          budget):
    """How the claim is checked on g: its cases, its extender and the
    note a counterexample carries.

    A case (k, palette size, t) covers the precolourings of the edge sets
    of pairwise distance > t that meet each vertex at most k times (any
    number for k None).  The extender takes a precolouring, k and the
    palette, and returns an outcome, or None for an instance the claim
    itself excepts.  A claim that does not apply to g has no cases.

    The engine is prepared here, once per graph, by the ``prepare_*``
    entry of its module, and the extender is its run.  The walk builds
    only proper precolourings within the case's load, so the run takes
    them unchecked; each engine checks the colouring it returns.
    """
    stats = degree_stats(g)
    delta = stats.delta
    if claim in OFFSET_CLAIMS:
        t = 3 if claim == "distance3-extension" else 1
        size = delta + stats.mu + (1 if t == 3 else 0) + palette_offset
        if size < 1:
            return [], None, None
        if claim == "matching-avoidance":
            return ([(None, size, t)], lambda pre, k, palette: exact.avoid(
                g, pre, palette, budget=budget), "not avoidable")
        run = exact.prepare_extend(g, Palette(size))
        return ([(None, size, t)], lambda pre, k, palette: run(pre, budget),
                "not extendable")
    if claim == "subcubic-matching-extension":
        if delta > 3:
            return [], None, None
        run = gallai.prepare_subcubic(g)
        return ([(1, 4, 1)], lambda pre, k, palette: run(pre, budget),
                "subcubic extender failed")
    if claim == "line-degree-extension":
        run = gallai.prepare_gallai(g)

        def extend(pre, k, palette):
            out = run(pre, k, budget)
            if not isinstance(out, gallai.ExceptionReport):
                return out
            # both shapes fail for every precolouring the claim admits
            if exact.extend(g, pre, palette).solved:
                raise AssertionError("exception shape was extendable")
            return None
        return ([(k, delta + k, 1) for k in range(max_k + 1)
                 if stats.line_delta <= delta + k],
                extend, "failed without an exception shape")
    # The sets meeting each vertex at most once are the matchings, so a
    # matching claim is its degree-k claim at k = 1 alone.
    ks = [1] if claim.endswith("matching-extension") else range(1, max_k + 1)
    if claim.startswith("bipartite"):
        try:
            run = kernels.prepare_bipartite(g)
        except InputError:
            return [], None, None
        return ([(k, delta + k, 0) for k in ks],
                lambda pre, k, palette: run(pre, k, budget),
                "bipartite extender failed")
    if claim.startswith("shannon"):
        run = kernels.prepare_shannon(g)
        return ([(k, (3 * delta + k) // 2, 0) for k in ks],
                lambda pre, k, palette: run(pre, k, budget),
                "shannon extender failed")
    raise InputError(f"unknown claim {claim!r}")


def _edge_automorphisms(g: MultiGraph, automorphisms) -> list[dict]:
    """Edge permutations, as id-to-id maps, that generate the automorphism
    group of g acting on its edges, from vertex automorphisms that
    generate it on the vertices.

    Each vertex automorphism maps the edges between u and v to those
    between its images, matched by rank in id order; a swap of two
    neighbouring edges of each parallel class adds the permutations that
    fix every vertex.
    """
    parallel: dict[tuple[int, int], list] = {}
    for eid, u, v in g.edges:
        parallel.setdefault((u, v) if u < v else (v, u), []).append(eid)
    perms = []
    for gamma in automorphisms:
        perm = {}
        for (u, v), eids in parallel.items():
            a, b = gamma[u], gamma[v]
            perm.update(zip(eids, parallel[(a, b) if a < b else (b, a)]))
        perms.append(perm)
    for eids in parallel.values():
        for a, b in zip(eids, eids[1:]):
            perm = dict(zip(g.ids, g.ids))
            perm[a], perm[b] = b, a
            perms.append(perm)
    return perms


def _edge_set_image(perm, edge_set):
    return frozenset(map(perm.__getitem__, edge_set))


@functools.lru_cache(maxsize=1 << 16)
def _first_use(colours: tuple) -> tuple:
    """``colours`` renamed 1, 2, ... in order of first use, the form in
    which ``_colourings`` lists one colouring per permutation orbit."""
    names: dict[int, int] = {}
    return tuple([names.setdefault(c, len(names) + 1) for c in colours])


def _check_graph(claim: str, g: MultiGraph, automorphisms, max_k: int,
                 palette_offset: int, budget) -> tuple[int, int, dict | None]:
    """Check one graph against the claim; (instances, instances checked,
    counterexample).

    Each case is one walk over its edge sets in ``enumerate_edge_sets``
    order (see ``_check_case``), resting on three arguments:

    - Orbits.  An automorphism of g, or a permutation of the palette, maps
      an instance to one that extends alike, and the number of
      precolourings of an edge set up to colour permutation is the same
      for every set in its orbit under the vertex ``automorphisms`` (see
      ``_edge_automorphisms``).  So the extender runs only on the first
      set of each orbit, and every later set counts as many instances.
    - Dominance.  Take a precolouring P' of a set S' of the case, and add
      edges to S' one at a time up to a maximal set S of the case, each
      coloured greedily.  When the case's sets are matchings (t >= 1, or
      at most one edge at each vertex), an added edge shares no vertex
      with the set, so any colour will do.  With t = 0 and cap k, an added
      edge meets fewer than k edges of the set at each end, and fewer than
      Delta, being none of them; so it sees at most 2 min(k, Delta) - 2
      colours, and a palette of at least 2 min(k, Delta) - 1 colours, as
      both degree-k claims have (Delta + k and floor((3 Delta + k) / 2)),
      has one more.  The result P is a proper precolouring of S; a
      colouring that extends P extends P', and one that avoids P avoids
      P'.  So such a case passes if every precolouring of every maximal
      set passes, and the extender runs on those alone.  (An instance the
      claim excepts is excepted by g and k alone, so the sets below it are
      excepted too.)
    - Certificates, for the extension claims.  A proper colouring phi the
      extender returns restricts, on every later maximal set L, to a
      precolouring of L that phi extends; renamed by first use, it is a
      precolouring ``_colourings`` lists, and it passes with no run.

    Orbits keep the first failing instance: every set before it passes,
    or is the image of one that passed.  Dominance and certificates show
    only that a case passes, not which instance fails first.  So once any
    check of that pass fails or spends its budget, the case is checked
    again instance by instance, on every orbit's first set with no
    certificate, and the counts and the counterexample are those of
    checking every set.  On a failing graph, ``instances_checked`` counts
    the runs of the cases that passed and those of that re-check up to the
    failure, not the runs of the pass that failed.

    A search that passes ``budget`` raises ``exact.BudgetSpent``.
    """
    cases, extend, note = _plan(claim, g, max_k, palette_offset, budget)
    perms = _edge_automorphisms(g, automorphisms)
    instances = checked = 0
    for k, size, t in cases:
        palette = Palette(size)
        pruned = t >= 1 or \
            k is not None and size >= 2 * min(k, g.delta()) - 1
        counts = _check_case(g, k, t, palette, perms, extend, pruned,
                             pruned and claim != "matching-avoidance")
        instances += counts[0]
        checked += counts[1]
        if counts[2] is not None:
            return instances, checked, _counterexample(claim, g, counts[2],
                                                       palette, note)
    return instances, checked, None


def _check_case(g: MultiGraph, k, t: int, palette: Palette, perms, extend,
                dominance: bool, certify: bool):
    """(instances, instances checked, the first failing precolouring or
    None) of one case (see ``_check_graph``).

    The extender runs on the first set of each orbit, in stream order;
    with ``dominance``, only on the maximal ones, and once an instance
    fails or spends its budget the case is checked again without
    dominance or certificates.  With ``certify``, every colouring found
    is kept, and a set runs only the precolourings that no restriction of
    one covers; a set they cover is skipped.  Each set counts as many
    instances as its table of ``_colourings`` holds, and runs them in its
    order.  A set the extender may run on is counted once per orbit; a set
    dominance skips is counted on its own, with no orbit built.  The
    precolourings a set runs reach the extender in a row, so a prepared
    run may keep what it derives from the set alone until the set changes
    (see ``kernels._EdgeSet``).  A solved outcome passes with no second
    check, as each engine checks its own colouring (see ``_plan``).
    """
    q = palette.k
    # every set is a matching for t >= 1 or a cap of at most 1, and its
    # size gives its pattern
    matchings = t >= 1 or k is not None and k <= 1
    counted = {}            # a set of a visited orbit: its precolourings
    found = []              # the colourings found, as lookups
    instances = checked = 0
    for subset, maximal in enumerate_edge_sets(g, t, k, True):
        # a set the extender may run on is counted once per orbit; any
        # other is counted directly, as maximality is invariant under
        # automorphisms and no set that runs would read its orbit
        runs = maximal or not dominance
        key = frozenset(subset) if runs else None
        count = counted.get(key)
        if count is not None:
            instances += count
            continue
        table = _colourings(tuple(range(2 * len(subset))) if matchings
                            else _pattern(g, subset), q)
        count = len(table)
        instances += count
        if not runs:
            continue
        for image in _orbit(key, _edge_set_image, perms):
            counted[image] = count
        done = set()
        for phi in found:
            if len(done) == count:
                break
            done.add(_first_use(tuple(map(phi, subset))))
        if len(done) == count:
            continue
        for seen, colours in enumerate(table, 1):
            if colours in done:
                continue
            checked += 1
            pre = dict(zip(subset, colours))
            out = extend(pre, k, palette)
            if out is None:
                continue
            if out.solved:
                if certify:
                    found.append(out.colouring.__getitem__)
                continue
            if dominance:
                return _check_case(g, k, t, palette, perms, extend, False,
                                   False)
            if out.status == exact.BUDGET:
                raise exact.BudgetSpent(out.nodes, out.depth)
            return instances - count + seen, checked, pre
    return instances, checked, None


def _counterexample(claim, g, pre, palette, note) -> dict:
    """The counterexample an extender's failure on ``pre`` reports, once an
    unbounded exact replay confirms it."""
    if claim == "matching-avoidance":
        replay = exact.avoid(g, pre, palette)
        found = {"forbidden": {str(e): c for e, c in pre.items()},
                 "palette": palette.k}
    else:
        replay = exact.extend(g, pre, palette)
        found = {"precolouring": colouring_to_json_obj(pre, palette)}
    if replay.solved:
        raise AssertionError(
            "reported failure but exact replay found a colouring")
    return {"graph": g.to_json_obj(), **found, "note": note}


#: In a pool process, the event ``verify`` sets once it has its answer.
_stop = None


def _start_worker(stop):
    global _stop
    _stop = stop


def _worker(args):
    """``_check_graph`` in a pool process, or None once ``verify`` has its
    answer.  An exception comes back as the result, so that ``verify``
    can wind the pool down before raising it."""
    if _stop.is_set():
        return None
    graph_obj, automorphisms, claim, max_k, palette_offset, budget = args
    g = MultiGraph.from_json_obj(graph_obj)
    try:
        return _check_graph(claim, g, automorphisms, max_k, palette_offset,
                            budget)
    except Exception as exc:
        return exc


def verify(claim: str, max_n: int = 4, max_e: int = 7, max_mu: int = 2,
           max_k: int = 1, palette_offset: int = 0, jobs: int = 1,
           budget: int | None = None,
           delta_max: int | None = None) -> VerificationReport:
    """Exhaustively check a claim over all connected multigraphs in bounds.

    Each graph's instances are checked once per orbit of its
    automorphisms, on the maximal sets only where a greedy colouring
    extends every precolouring to one of a maximal set, less the instances
    a colouring already found certifies (see ``_check_graph``); a failure
    re-checks that case instance by instance.  ``instances`` counts every
    labelled instance, ``instances_checked`` the extender runs: on a
    failing graph, those of its cases that passed and of the re-check up
    to the failure.  ``budget`` bounds only the searches that run; an
    instance decided by symmetry, dominance or a certificate runs none.
    The first counterexample in enumeration order (fewest edges first) is
    recorded after an exact-solver replay confirms it.  Bounds that admit
    no instance raise ``InputError``.
    """
    if claim not in CLAIMS:
        raise InputError(f"unknown claim {claim!r}; known: "
                         + ", ".join(sorted(CLAIMS)))
    if palette_offset != 0 and claim not in OFFSET_CLAIMS:
        raise InputError(f"claim {claim!r} ignores palette_offset; it "
                         "applies to " + ", ".join(OFFSET_CLAIMS))
    least = _LEAST_K.get(claim)
    if least is not None and max_k < least:
        raise InputError(f"claim {claim!r} checks k = {least} to max_k; "
                         f"max_k must be at least {least}")
    bounds = {"max_n": max_n, "max_e": max_e, "max_mu": max_mu,
              "max_k": max_k, "palette_offset": palette_offset}
    report = VerificationReport(claim=claim, bounds=bounds)
    start = time.monotonic()
    graphs = _multigraphs_with_automorphisms(max_n, max_e, max_mu, True,
                                             delta_max)

    def tally(result) -> bool:
        """Add one graph's result; True once it holds a counterexample."""
        instances, checked, report.counterexample = result
        report.graphs += 1
        report.instances += instances
        report.instances_checked += checked
        return report.counterexample is not None

    if jobs <= 1:
        for g, automorphisms in graphs:
            if tally(_check_graph(claim, g, automorphisms, max_k,
                                  palette_offset, budget)):
                break
    else:
        import multiprocessing
        stop = multiprocessing.Event()

        def tasks():
            for g, automorphisms in graphs:
                if stop.is_set():
                    return
                yield (g.to_json_obj(), automorphisms, claim, max_k,
                       palette_offset, budget)

        # No terminate() while workers run: one killed as it writes a
        # result leaves the result queue locked, and terminate() then
        # waits on that lock for good.  Once the answer is in, ``stop``
        # ends the task stream and makes the queued tasks no-ops, and the
        # pool winds down by close() and join().
        failure = None
        with multiprocessing.Pool(jobs, _start_worker, (stop,)) as pool:
            for result in pool.imap(_worker, tasks(), chunksize=8):
                if isinstance(result, Exception):
                    failure = result
                if failure is not None or tally(result):
                    stop.set()
                    break
            pool.close()
            pool.join()
        if failure is not None:
            raise failure
    if report.instances == 0:
        raise InputError("bounds admit no instance")
    report.elapsed = time.monotonic() - start
    return report
