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
    # Mixed int/str ids must still order deterministically.
    return (0, eid, "") if isinstance(eid, int) else (1, 0, str(eid))


class MultiGraph:
    """Immutable loopless multigraph on vertices 0..n-1.

    ``edges`` is an ordered sequence of (edge_id, u, v) triples; parallel
    edges are distinct entries with distinct ids.
    """

    __slots__ = ("n", "edges", "_endpoints", "_incident", "_degrees",
                 "_dense", "_stats")

    def __init__(self, n: int, edges: Iterable[tuple[EdgeId, int, int]]):
        if n < 0:
            raise InputError("vertex count must be non-negative")
        self.n = n
        edge_list = []
        endpoints = {}
        incident: list[list[tuple[EdgeId, int]]] = [[] for _ in range(n)]
        for eid, u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge {eid!r}: endpoint out of range")
            if u == v:
                raise InputError(f"edge {eid!r}: loops are not allowed")
            if eid in endpoints:
                raise InputError(f"duplicate edge id {eid!r}")
            edge_list.append((eid, u, v))
            endpoints[eid] = (u, v)
            incident[u].append((eid, v))
            incident[v].append((eid, u))
        self.edges = tuple(edge_list)
        self._endpoints = endpoints
        self._incident = tuple(tuple(entries) for entries in incident)
        self._degrees = tuple(len(entries) for entries in incident)
        self._dense = None
        self._stats = None

    def dense(self) -> "DenseForm":
        """The graph's index form, built on first use and kept."""
        if self._dense is None:
            self._dense = DenseForm(self)
        return self._dense

    # -- basic accessors -------------------------------------------------

    @property
    def edge_ids(self) -> tuple[EdgeId, ...]:
        return tuple(eid for eid, _, _ in self.edges)

    def has_edge(self, eid: EdgeId) -> bool:
        return eid in self._endpoints

    def endpoints(self, eid: EdgeId) -> tuple[int, int]:
        try:
            return self._endpoints[eid]
        except KeyError:
            raise InputError(f"unknown edge id {eid!r}") from None

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def incident(self, v: int) -> tuple[tuple[EdgeId, int], ...]:
        """Edges at v as (edge_id, other_endpoint) pairs, in edge order."""
        return self._incident[v]

    def delta(self) -> int:
        return max(self._degrees, default=0)

    def mu(self) -> int:
        counts: dict[tuple[int, int], int] = {}
        for _, u, v in self.edges:
            key = (u, v) if u < v else (v, u)
            counts[key] = counts.get(key, 0) + 1
        return max(counts.values(), default=0)

    def adjacent_edges(self, eid: EdgeId) -> tuple[EdgeId, ...]:
        """Edges sharing at least one endpoint with ``eid`` (itself excluded)."""
        u, v = self.endpoints(eid)
        seen = {eid}
        out = []
        for w in (u, v):
            for f, _ in self._incident[w]:
                if f not in seen:
                    seen.add(f)
                    out.append(f)
        return tuple(out)

    # -- derived graphs --------------------------------------------------

    def delete_edges(self, ids: Iterable[EdgeId]) -> "MultiGraph":
        """New graph without the given edges; survivors keep id and order."""
        drop = set(ids)
        for eid in drop:
            if eid not in self._endpoints:
                raise InputError(f"unknown edge id {eid!r}")
        return MultiGraph(self.n, (e for e in self.edges if e[0] not in drop))

    def restrict_edges(self, ids: Iterable[EdgeId]) -> "MultiGraph":
        """New graph with only the given edges, in original order."""
        keep = set(ids)
        for eid in keep:
            if eid not in self._endpoints:
                raise InputError(f"unknown edge id {eid!r}")
        return MultiGraph(self.n, (e for e in self.edges if e[0] in keep))

    def components(self) -> list[tuple[frozenset[int], tuple[EdgeId, ...]]]:
        """Connected components spanned by edges, as (vertices, edge ids).

        Isolated vertices are ignored: they carry no edges to colour.
        """
        seen: set[int] = set()
        out = []
        for v in range(self.n):
            if v in seen or not self._incident[v]:
                continue
            comp = {v}
            queue = deque([v])
            while queue:
                w = queue.popleft()
                for _, x in self._incident[w]:
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
        return cls(n, edges)

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
    """A graph's edges as indices, for hot paths that would otherwise key
    dicts by edge id.

    Edge i is ``g.edges[i]``; bit i of an edge mask stands for edge i.
    ``at_vertex[v]`` is the mask of the edges at vertex v.  ``rank[i]`` is
    edge i's position in edge-id order (``_id_sort_key``), so ties broken
    by rank fall as they would by id.  ``connected`` is
    ``g.is_connected()``.
    """

    __slots__ = ("ids", "index", "ends", "incident", "at_vertex", "adjacent",
                 "rank", "connected")

    def __init__(self, g: MultiGraph):
        self.ids = tuple(eid for eid, _, _ in g.edges)
        self.index = {eid: i for i, eid in enumerate(self.ids)}
        self.ends = tuple((u, v) for _, u, v in g.edges)
        incident: list[list[int]] = [[] for _ in range(g.n)]
        at_vertex = [0] * g.n
        for i, (u, v) in enumerate(self.ends):
            for w in (u, v):
                incident[w].append(i)
                at_vertex[w] |= 1 << i
        self.incident = tuple(tuple(entries) for entries in incident)
        self.at_vertex = tuple(at_vertex)
        #: line-graph neighbours of each edge, as an edge mask
        self.adjacent = tuple((at_vertex[u] | at_vertex[v]) & ~(1 << i)
                              for i, (u, v) in enumerate(self.ends))
        rank = [0] * len(self.ids)
        for r, i in enumerate(sorted(range(len(self.ids)),
                                     key=lambda i: _id_sort_key(self.ids[i]))):
            rank[i] = r
        self.rank = tuple(rank)
        self.connected = len(self.components((1 << len(self.ids)) - 1)) <= 1

    def line_neighbours(self, i: int, within: int) -> list[int]:
        """Edge i's neighbours among the ``within`` edges, in the order
        ``line_graph``'s incidence lists them: earlier edges, then later
        edges at i's first end, then later edges at its second end only,
        each ascending."""
        u, v = self.ends[i]
        later = -2 << i
        at_u = self.at_vertex[u] & within
        out = []
        for mask in (self.adjacent[i] & within & ~later, at_u & later,
                     self.at_vertex[v] & within & later & ~at_u):
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


def line_adjacency(g: MultiGraph) -> dict[EdgeId, tuple[EdgeId, ...]]:
    """Adjacency of the line graph keyed by edge id."""
    return {eid: g.adjacent_edges(eid) for eid in g.edge_ids}


def line_graph(g: MultiGraph) -> MultiGraph:
    """Simple graph on g's edges; vertex i is g.edges[i].

    The returned edge ids are (id_a, id_b) pairs in edge order.
    """
    index = {eid: i for i, (eid, _, _) in enumerate(g.edges)}
    edges = []
    for eid, _, _ in g.edges:
        for f in g.adjacent_edges(eid):
            if index[eid] < index[f]:
                edges.append(((eid, f), index[eid], index[f]))
    return MultiGraph(len(g.edges), edges)


def edge_distance(g: MultiGraph, e: EdgeId, f: EdgeId):
    """Line-graph distance between two edges; adjacent edges are at 1.

    Returns INFINITE_DISTANCE when the edges lie in different components.
    """
    g.endpoints(e)
    g.endpoints(f)
    if e == f:
        return 0
    dist = {e: 0}
    queue = deque([e])
    while queue:
        cur = queue.popleft()
        d = dist[cur]
        for nxt in g.adjacent_edges(cur):
            if nxt not in dist:
                if nxt == f:
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
                for _, x in g.incident(w):
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
