"""Loopless multigraph model with stable edge identities.

Edges carry opaque identifiers that survive subgraph operations, so that
individual parallel edges can be precoloured and tracked through
reductions.  All values are immutable after construction.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping

EdgeId = Hashable

#: Distance reported between edges in different components.
INFINITE_DISTANCE = math.inf


class InputError(ValueError):
    """Malformed or contract-violating input (CLI exit code 2)."""


def _is_int(x) -> bool:
    # JSON true/false load as bools, which Python counts as ints.
    return isinstance(x, int) and not isinstance(x, bool)


def _id_sort_key(eid):
    # Mixed int/str ids must still order deterministically; a tuple id (a
    # line graph's) orders element by element.
    if isinstance(eid, int):
        return (0, eid, "")
    if isinstance(eid, tuple):
        return (2, tuple(map(_id_sort_key, eid)), "")
    return (1, 0, str(eid))


class MultiGraph:
    """Immutable loopless multigraph on vertices 0..n-1, in index form.

    ``edges`` holds the (edge_id, u, v) triples in edge-id order
    (``_id_sort_key``), whatever order they were listed in, so index order
    is id order and every engine breaks ties the same way; parallel edges
    are distinct entries with distinct ids.  Edge i is ``edges[i]``, and
    the engines work on these indices: ``ids[i]`` is its id,
    ``index`` maps an id back to i, ``ends[i]`` is its (u, v) and
    ``incidence[v]`` lists the edges at v in increasing order.  The
    id-keyed accessors below are read off these arrays.
    """

    __slots__ = ("n", "edges", "ids", "index", "ends", "incidence",
                 "_dense", "_stats")

    def __init__(self, n: int, edges: Iterable[tuple[EdgeId, int, int]]):
        if n < 0:
            raise InputError("vertex count must be non-negative")
        self.n = n
        edge_list = []
        ids = []
        ends = []
        index = {}
        incidence: list[list[int]] = [[] for _ in range(n)]
        edges = list(edges)
        first = [e[0] for e in edges]
        # int ids order as ``_id_sort_key`` orders them, so triples that
        # come in increasing int ids (a subgraph's, a child's) stay put
        if set(map(type, first)) != {int} or first != sorted(first):
            edges.sort(key=lambda e: _id_sort_key(e[0]))
        for eid, u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge {eid!r}: endpoint out of range")
            if u == v:
                raise InputError(f"edge {eid!r}: loops are not allowed")
            if eid in index:
                raise InputError(f"duplicate edge id {eid!r}")
            i = index[eid] = len(ids)
            edge_list.append((eid, u, v))
            ids.append(eid)
            ends.append((u, v))
            incidence[u].append(i)
            incidence[v].append(i)
        self.edges = tuple(edge_list)
        self.ids = tuple(ids)
        self.index = index
        self.ends = tuple(ends)
        self.incidence = tuple(map(tuple, incidence))
        self._dense = None
        self._stats = None

    def dense(self) -> "DenseForm":
        """The graph's edge masks, built on first use and kept."""
        if self._dense is None:
            self._dense = DenseForm(self)
        return self._dense

    # -- basic accessors -------------------------------------------------

    @property
    def edge_ids(self) -> tuple[EdgeId, ...]:
        return self.ids

    def has_edge(self, eid: EdgeId) -> bool:
        return eid in self.index

    def _index_of(self, eid: EdgeId) -> int:
        try:
            return self.index[eid]
        except KeyError:
            raise InputError(f"unknown edge id {eid!r}") from None

    def endpoints(self, eid: EdgeId) -> tuple[int, int]:
        try:
            return self.ends[self.index[eid]]
        except KeyError:
            raise InputError(f"unknown edge id {eid!r}") from None

    def degree(self, v: int) -> int:
        return len(self.incidence[v])

    def neighbours(self, v: int) -> list[int]:
        """The other end of each edge at v, in edge order."""
        ends = self.ends
        return [sum(ends[i]) - v for i in self.incidence[v]]

    def incident(self, v: int) -> tuple[tuple[EdgeId, int], ...]:
        """Edges at v as (edge_id, other_endpoint) pairs, in edge order."""
        ids = self.ids
        return tuple(zip((ids[i] for i in self.incidence[v]),
                         self.neighbours(v)))

    def delta(self) -> int:
        return max(map(len, self.incidence), default=0)

    def mu(self) -> int:
        counts: dict[tuple[int, int], int] = {}
        for u, v in self.ends:
            key = (u, v) if u < v else (v, u)
            counts[key] = counts.get(key, 0) + 1
        return max(counts.values(), default=0)

    def _adjacent(self, i: int) -> list[int]:
        """Edges sharing an end with edge i (itself excluded): those at
        its first end, then the others at its second, each ascending."""
        u, v = self.ends[i]
        at_u = self.incidence[u]
        seen = set(at_u)
        return [j for j in at_u if j != i] + \
            [j for j in self.incidence[v] if j not in seen]

    def adjacent_edges(self, eid: EdgeId) -> tuple[EdgeId, ...]:
        """Edges sharing at least one endpoint with ``eid`` (itself excluded)."""
        ids = self.ids
        return tuple(ids[j] for j in self._adjacent(self._index_of(eid)))

    # -- derived graphs --------------------------------------------------

    def delete_edges(self, ids: Iterable[EdgeId]) -> "MultiGraph":
        """New graph without the given edges; survivors keep id and order."""
        drop = set(ids)
        for eid in drop:
            if eid not in self.index:
                raise InputError(f"unknown edge id {eid!r}")
        return MultiGraph(self.n, (e for e in self.edges if e[0] not in drop))

    def restrict_edges(self, ids: Iterable[EdgeId]) -> "MultiGraph":
        """New graph with only the given edges, in original order."""
        keep = set(ids)
        for eid in keep:
            if eid not in self.index:
                raise InputError(f"unknown edge id {eid!r}")
        return MultiGraph(self.n, (e for e in self.edges if e[0] in keep))

    def components(self) -> list[tuple[frozenset[int], tuple[EdgeId, ...]]]:
        """Connected components spanned by edges, as (vertices, edge ids).

        Isolated vertices are ignored: they carry no edges to colour.
        """
        seen: set[int] = set()
        out = []
        for v in range(self.n):
            if v in seen or not self.incidence[v]:
                continue
            comp = {v}
            queue = deque([v])
            while queue:
                w = queue.popleft()
                for x in self.neighbours(w):
                    if x not in comp:
                        comp.add(x)
                        queue.append(x)
            seen |= comp
            eids = tuple(eid for eid, u, _ in self.edges if u in comp)
            out.append((frozenset(comp), eids))
        return out

    def is_connected(self) -> bool:
        """True iff all edges lie in one component (isolated vertices ignored)."""
        return len(self.components()) <= 1

    # -- serialization ---------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"n": self.n, "edges": [[eid, u, v] for eid, u, v in self.edges]}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "MultiGraph":
        try:
            n = obj["n"]
            raw = obj["edges"]
        except (KeyError, TypeError):
            raise InputError("graph object needs 'n' and 'edges'") from None
        if not _is_int(n):
            raise InputError(f"vertex count {n!r} is not an integer")
        if not isinstance(raw, (list, tuple)):
            raise InputError("'edges' must be a list of [id, u, v] entries")
        edges = []
        for item in raw:
            if not isinstance(item, (list, tuple)) or len(item) != 3:
                raise InputError(f"bad edge entry {item!r}")
            eid, u, v = item
            if isinstance(eid, bool) or not isinstance(eid, (int, str)):
                raise InputError(f"edge id {eid!r} is neither an integer "
                                 "nor a string")
            if not (_is_int(u) and _is_int(v)):
                raise InputError(f"edge {eid!r}: endpoints must be integers")
            edges.append((eid, u, v))
        g = cls(n, edges)
        if len(set(map(str, g.ids))) < len(g.ids):
            # colourings are keyed by str(id), where 0 and "0" would meet
            raise InputError("two edge ids share one JSON key")
        return g

    @classmethod
    def from_json(cls, text: str) -> "MultiGraph":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from None
        return cls.from_json_obj(obj)

    def to_dot(self, colouring: Mapping[EdgeId, int] | None = None) -> str:
        lines = ["graph G {"]
        for v in range(self.n):
            lines.append(f"  {v};")
        for eid, u, v in self.edges:
            label = f"{eid}"
            if colouring and eid in colouring:
                label += f":{colouring[eid]}"
            lines.append(f'  {u} -- {v} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self):
        return f"MultiGraph(n={self.n}, edges={len(self.edges)})"


class DenseForm:
    """A graph's edges as bitmasks, for engines that work on edge sets.

    Bit i of an edge mask stands for edge i of the graph (see
    ``MultiGraph``), whose arrays hold everything else.  ``at_vertex[v]``
    is the mask of the edges at vertex v and ``adjacent[i]`` that of edge
    i's line-graph neighbours.  Edge index order is edge-id order, so
    ties broken by index fall as they would by id.
    """

    __slots__ = ("at_vertex", "adjacent")

    def __init__(self, g: MultiGraph):
        # an edge lies at most once at a vertex, so the sum is the union
        self.at_vertex = at_vertex = tuple(sum(1 << i for i in edges)
                                           for edges in g.incidence)
        #: line-graph neighbours of each edge, as an edge mask
        self.adjacent = tuple((at_vertex[u] | at_vertex[v]) & ~(1 << i)
                              for i, (u, v) in enumerate(g.ends))

    def line_neighbours(self, i: int, within: int) -> list[int]:
        """Edge i's neighbours among the ``within`` edges, ascending, as
        ``line_graph``'s incidence lists them."""
        mask = self.adjacent[i] & within
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def components(self, live: int) -> list[int]:
        """Connected components of the ``live`` edges, as edge masks, in
        order of their least vertex (as ``MultiGraph.components`` lists
        them)."""
        adjacent = self.adjacent
        out = []
        for at in self.at_vertex:
            comp = frontier = at & live
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= adjacent[low.bit_length() - 1]
                    frontier ^= low
                frontier = reach & live & ~comp
                comp |= frontier
            if comp:
                live &= ~comp
                out.append(comp)
        return out


def edge_bits(mask: int) -> Iterator[int]:
    """The edge indices in a mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class DegreeStats:
    delta: int
    mu: int
    line_delta: int


def degree_stats(g: MultiGraph) -> DegreeStats:
    """Maximum degree, maximum multiplicity and line-graph maximum degree,
    worked out once per graph."""
    if g._stats is None:
        # d(u)+d(v)-2 counts each parallel edge twice; count neighbours
        # exactly.
        line_delta = max((a.bit_count() for a in g.dense().adjacent),
                         default=0)
        g._stats = DegreeStats(delta=g.delta(), mu=g.mu(),
                               line_delta=line_delta)
    return g._stats


def line_graph(g: MultiGraph) -> MultiGraph:
    """Simple graph on g's edges; vertex i is g.edges[i].

    The returned edge ids are (id_a, id_b) pairs, a before b in edge
    order; they sort as pairs (``_id_sort_key``), so the line graph's
    edges and incidence lists are in (a, b) order.
    """
    ids = g.ids
    edges = []
    for i, eid in enumerate(ids):
        for j in g._adjacent(i):
            if i < j:
                edges.append(((eid, ids[j]), i, j))
    return MultiGraph(len(ids), edges)


def edge_distance(g: MultiGraph, e: EdgeId, f: EdgeId):
    """Line-graph distance between two edges; adjacent edges are at 1.

    Returns INFINITE_DISTANCE when the edges lie in different components.
    """
    start = g._index_of(e)
    goal = g._index_of(f)
    if start == goal:
        return 0
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        d = dist[cur]
        for nxt in g._adjacent(cur):
            if nxt not in dist:
                if nxt == goal:
                    return d + 1
                dist[nxt] = d + 1
                queue.append(nxt)
    return INFINITE_DISTANCE


def is_distance_matching(g: MultiGraph, ids: Iterable[EdgeId], t: int) -> bool:
    """True iff all pairs in the set are at edge distance greater than t.

    t=1 is an ordinary matching, t=2 an induced matching; t=0 accepts any
    set without a repeated id.  Unknown ids raise ``InputError``.  An edge
    lies within distance t of e exactly when it touches a vertex within
    t-1 steps of e's ends, so one bounded vertex search per edge does.
    """
    id_list = list(ids)
    ends = [g.endpoints(eid) for eid in id_list]
    if t < 0:
        return True
    if len(set(id_list)) < len(id_list):
        return False                   # a repeated id is at distance 0
    if t == 0:
        return True
    owner: dict[int, int] = {}         # vertex -> the set's edge there
    for j, (u, v) in enumerate(ends):
        for w in (u, v):
            if owner.setdefault(w, j) != j:
                return False
    for j, (u, v) in enumerate(ends):
        seen = {u, v}
        frontier = [u, v]
        for _ in range(t - 1):
            reached = []
            for w in frontier:
                for x in g.neighbours(w):
                    if x not in seen:
                        if owner.get(x, j) != j:
                            return False
                        seen.add(x)
                        reached.append(x)
            if not reached:
                break
            frontier = reached
    return True


def edges_path(n: int) -> MultiGraph:
    """Path on n vertices, edge ids 0..n-2 (test/demo helper)."""
    return MultiGraph(n, [(i, i, i + 1) for i in range(n - 1)])


def edges_cycle(n: int) -> MultiGraph:
    """Cycle on n vertices, edge ids 0..n-1 (test/demo helper)."""
    return MultiGraph(n, [(i, i, (i + 1) % n) for i in range(n)])
