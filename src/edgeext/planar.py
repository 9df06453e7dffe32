"""Plane-graph machinery: rotation systems, face tracing, reducible
configurations, the peel-and-replay extender, and a discharging auditor.

The extender is embedding-free: it repeatedly removes a light edge (small
degree sum) or an even cycle of the auxiliary subgraph, colours what is
left, and replays the removed pieces greedily in reverse order; if no
configuration is found it falls back to exact search, which keeps the
contract total on arbitrary inputs.  The auditor re-derives, in exact
rational arithmetic, the charge bookkeeping that shows the fallback is
unreachable for plane graphs above the degree thresholds (17 for
precoloured matchings, 20 for distance-3 matchings).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import (EdgeId, InputError, MultiGraph, _id_sort_key,
                   is_distance_matching)
from .colouring import Palette, is_proper, validate_precolouring
from . import exact
from .exact import SolveOutcome, SOLVED, _colours_of

VARIANT_MATCHING = "matching"        # palette [Delta+1], threshold 17
VARIANT_DISTANCE3 = "distance-3"     # palette [Delta], threshold 20

REDUCTION = "reduction"
EXACT_FALLBACK = "exact-fallback"

LIGHT_EDGE = "light-edge"
EVEN_CYCLE = "even-cycle"
BASE_CASE = "base-case"


# -- rotation systems and faces -----------------------------------------

@dataclass(frozen=True)
class RotationSystem:
    """Clockwise cyclic order of incident edge ids around each vertex."""

    around: dict[int, tuple[EdgeId, ...]]

    @classmethod
    def from_json_obj(cls, g: MultiGraph, obj: Mapping) -> "RotationSystem":
        try:
            raw = obj["rotation"]
        except (KeyError, TypeError):
            raise InputError("rotation object needs a 'rotation' map") from None
        if not isinstance(raw, Mapping):
            raise InputError("'rotation' must map vertices to edge id lists")
        around = {}
        for key, eids in raw.items():
            try:
                v = int(key)
            except (TypeError, ValueError):
                raise InputError(f"rotation key {key!r} is not a vertex") \
                    from None
            if not isinstance(eids, list):
                raise InputError(f"rotation at vertex {key!r} is not a list")
            resolved = []
            for eid in eids:
                if isinstance(eid, bool) or not isinstance(eid, (int, str)):
                    raise InputError(f"rotation names unknown edge {eid!r}")
                if g.has_edge(eid):
                    resolved.append(eid)
                elif isinstance(eid, str) and eid.isdigit() and g.has_edge(int(eid)):
                    resolved.append(int(eid))
                else:
                    raise InputError(f"rotation names unknown edge {eid!r}")
            around[v] = tuple(resolved)
        return cls(around)

    def to_json_obj(self) -> dict:
        return {"rotation": {str(v): list(eids)
                             for v, eids in sorted(self.around.items())}}


def check_rotation(g: MultiGraph, r: RotationSystem) -> None:
    ids = g.ids
    for v in range(g.n):
        expected = [ids[i] for i in g.incidence[v]]     # in id order
        got = sorted(r.around.get(v, ()), key=_id_sort_key)
        if expected != got:
            raise InputError(
                f"rotation at vertex {v} does not list its incident edges")


@dataclass
class FaceSet:
    """Faces as closed walks of (vertex, departing edge id) darts."""

    faces: list[list[tuple[int, EdgeId]]]

    def __len__(self):
        return len(self.faces)


def trace_faces(g: MultiGraph, r: RotationSystem) -> FaceSet:
    """Trace face boundaries by next-edge traversal in the rotation.

    For connected inputs the Euler identity V - E + F = 2 is enforced.
    """
    check_rotation(g, r)
    ids, ends, index = g.ids, g.ends, g.index
    # A dart (v, i) leaves v along edge i; ring[v] is v's rotation as edge
    # indices, and position[(v, i)] the dart's place in it.
    ring = [[index[eid] for eid in r.around.get(v, ())] for v in range(g.n)]
    position = {(v, i): p for v, around in enumerate(ring)
                for p, i in enumerate(around)}
    darts = [(v, i) for v in range(g.n) for i in g.incidence[v]]
    unused = set(darts)
    faces = []
    # each face starts at the least dart still unused
    for start in darts:
        if start not in unused:
            continue
        walk = []
        dart = start
        while True:
            v, i = dart
            walk.append((v, ids[i]))
            unused.discard(dart)
            a, b = ends[i]
            w = b if a == v else a
            around = ring[w]
            dart = (w, around[(position[(w, i)] + 1) % len(around)])
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


def rotation_from_points(g: MultiGraph,
                         points: Mapping[int, tuple[float, float]]
                         ) -> RotationSystem:
    """Rotation induced by straight-line coordinates (simple graphs only)."""
    around = {}
    for v in range(g.n):
        x0, y0 = points[v]

        def angle(i):
            x1, y1 = points[sum(g.ends[i]) - v]
            return math.atan2(y1 - y0, x1 - x0)

        around[v] = tuple(g.ids[i] for i in sorted(g.incidence[v], key=angle))
    return RotationSystem(around)


# -- reducible configurations -------------------------------------------

@dataclass
class ReducibleConfig:
    kind: str
    edges: tuple[EdgeId, ...] = ()


def _light_threshold(mode: str, delta: int) -> int:
    if mode == VARIANT_MATCHING:
        return delta + 2
    if mode == VARIANT_DISTANCE3:
        return delta + 1
    raise InputError(f"unknown mode {mode!r}")


def find_reducible(g: MultiGraph, m: Iterable[EdgeId], mode: str,
                   delta: int | None = None) -> ReducibleConfig | None:
    """Find a removable configuration: light edge, auxiliary even cycle,
    or the all-precoloured base case; None when nothing applies.

    ``delta`` is the maximum degree of the original instance, which stays
    fixed while the extender peels the graph down.
    """
    m_ids = set(m)
    if delta is None:
        delta = g.delta()
    uncoloured = [eid for eid in g.edge_ids if eid not in m_ids]
    if not uncoloured:
        return ReducibleConfig(BASE_CASE)

    bound = _light_threshold(mode, delta)
    for eid in uncoloured:
        u, v = g.endpoints(eid)
        if g.degree(u) + g.degree(v) <= bound:
            return ReducibleConfig(LIGHT_EDGE, (eid,))

    cycle = _find_even_cycle(g, _auxiliary_edges(g, m_ids, uncoloured,
                                                  mode, delta))
    if cycle is not None:
        return ReducibleConfig(EVEN_CYCLE, tuple(cycle))
    return None


def _auxiliary_edges(g: MultiGraph, m_ids: set, uncoloured: Iterable[EdgeId],
                     mode: str, delta: int) -> list[EdgeId]:
    """The ``uncoloured`` edges of the auxiliary subgraph, in the order
    given: those joining a degree-``delta`` vertex to a low one (degree 3
    in matching mode; in distance-3 mode degree 2 and not at an edge of
    ``m_ids``)."""
    if mode == VARIANT_MATCHING:
        low = {v for v in range(g.n) if g.degree(v) == 3}
    else:
        covered = {x for eid in m_ids for x in g.endpoints(eid)}
        low = {v for v in range(g.n)
               if g.degree(v) == 2 and v not in covered}
    high = {v for v in range(g.n) if g.degree(v) == delta}
    aux = []
    for eid in uncoloured:
        u, v = g.endpoints(eid)
        if (u in low and v in high) or (v in low and u in high):
            aux.append(eid)
    return aux


def _find_even_cycle(g: MultiGraph, eids: Sequence[EdgeId]) -> list | None:
    """First even cycle (as an ordered edge list) in the subgraph, by DFS
    taking ``eids`` in the order given (``find_reducible`` gives them in
    edge order, so the lowest edge id first)."""
    adj: dict[int, list[tuple[EdgeId, int]]] = {}
    for eid in eids:
        u, v = g.endpoints(eid)
        adj.setdefault(u, []).append((eid, v))
        adj.setdefault(v, []).append((eid, u))
    parent: dict[int, tuple[int, EdgeId] | None] = {}
    depth: dict[int, int] = {}
    for root in sorted(adj):
        if root in parent:
            continue
        parent[root], depth[root] = None, 0
        stack = [(root, None)]
        while stack:
            v, pedge = stack.pop()
            for eid, w in adj[v]:
                if eid == pedge:
                    continue
                if w not in parent:
                    parent[w] = (v, eid)
                    depth[w] = depth[v] + 1
                    stack.append((w, eid))
                else:
                    # Back edge: climb both endpoints to their meeting point.
                    path_v, path_w = [], []
                    a, b = v, w
                    while a != b:
                        if depth[a] >= depth[b]:
                            a, pe = parent[a]
                            path_v.append(pe)
                        else:
                            b, pe = parent[b]
                            path_w.append(pe)
                    # Meeting point -> v, jump to w, climb back up.
                    cycle = path_v[::-1] + [eid] + path_w
                    if len(cycle) % 2 == 0 and len(set(cycle)) == len(cycle):
                        return cycle
    return None


def colour_even_cycle_lists(g: MultiGraph, cycle: Sequence[EdgeId],
                            lists: Mapping[EdgeId, Iterable[int]]
                            ) -> dict[EdgeId, int]:
    """Properly colour an even cycle from per-edge lists of size >= 2.

    If all lists coincide, alternate their two smallest colours; otherwise
    fix a colour that a neighbouring list lacks and propagate backwards.
    """
    cyc = list(cycle)
    n = len(cyc)
    if n < 2 or n % 2 == 1:
        raise InputError("even cycle required")
    lsets = {eid: set(lists[eid]) for eid in cyc}
    for eid in cyc:
        if len(lsets[eid]) < 2:
            raise InputError(f"list at edge {eid!r} smaller than 2")
    for i in range(n):
        a, b = cyc[i], cyc[(i + 1) % n]
        if not set(g.endpoints(a)) & set(g.endpoints(b)):
            raise InputError("edge sequence is not a cycle")

    assignment: dict[EdgeId, int] = {}
    if all(lsets[eid] == lsets[cyc[0]] for eid in cyc):
        c1, c2 = sorted(lsets[cyc[0]])[:2]
        for i, eid in enumerate(cyc):
            assignment[eid] = c1 if i % 2 == 0 else c2
    else:
        start = next(i for i in range(n)
                     if lsets[cyc[i]] - lsets[cyc[(i + 1) % n]])
        cyc = cyc[start:] + cyc[:start]
        assignment[cyc[0]] = min(lsets[cyc[0]] - lsets[cyc[1]])
        for j in range(n - 1, 0, -1):
            banned = {assignment[cyc[q % n]]
                      for q in (j + 1, j - 1) if cyc[q % n] in assignment}
            choice = sorted(lsets[cyc[j]] - banned)
            if not choice:
                raise AssertionError("even-cycle colouring ran out of colours")
            assignment[cyc[j]] = choice[0]

    if not is_proper(g, assignment):
        raise AssertionError("even-cycle colouring is improper")
    return assignment


def extend_planar(g: MultiGraph, m: Mapping[EdgeId, int], mode: str,
                  budget: int | None = None) -> SolveOutcome:
    """Extend a precoloured (distance-3) matching by peel-and-replay.

    Palette is [Delta+1] in matching mode and [Delta] in distance-3 mode.
    When no reducible configuration exists the exact solver takes over on
    the current subgraph, which is sound: a subgraph that cannot be
    extended proves the original cannot either.  The outcome then carries
    that search's nodes and depth (0 and 0 when it never runs).
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

    # Peel configurations off, in the order ``find_reducible`` picks them,
    # until none applies or only precoloured edges are left; settle that
    # core, then replay the configurations in reverse.  Edge i is
    # g.edges[i].  Degrees only fall, so a light edge stays light: light
    # edges wait in a heap by index (id order), the others at both ends.
    ids, ends, index = g.ids, g.ends, g.index
    deg = [g.degree(v) for v in range(g.n)]
    bound = _light_threshold(mode, delta0)
    done = bytearray(len(ids))       # 1 once queued as light, or peeled
    waiting = [[i for i in edges if ids[i] not in m] for edges in g.incidence]
    light: list = []                 # queued, unpeeled edge indices

    def recheck(vertices):
        for w in vertices:
            keep = []
            for i in waiting[w]:
                if not done[i]:
                    u, v = ends[i]
                    if deg[u] + deg[v] <= bound:
                        done[i] = 1
                        heapq.heappush(light, i)
                    else:
                        keep.append(i)
            waiting[w] = keep

    recheck(range(g.n))
    uncoloured = len(ids) - len(m)
    peeled: list = []                # light edge indices and even cycles
    colouring = {eid: m[eid] for eid in ids if eid in m}
    method = REDUCTION
    nodes = depth = 0                # the exact fallback's, if it runs
    while uncoloured:
        if light:
            step = heapq.heappop(light)
            cut = (step,)
        else:
            # Nothing queued: the live edges are those never queued.
            h = MultiGraph(g.n, (g.edges[i] for i in range(len(ids))
                                 if not done[i]))
            step = find_reducible(h, m.keys(), mode, delta0)
            if step is None:
                # No configuration: exact search settles the subgraph.
                outcome = exact.extend(h, colouring, palette, budget=budget)
                outcome.method = method = EXACT_FALLBACK
                if not outcome.solved:
                    return outcome
                colouring = outcome.colouring
                nodes, depth = outcome.nodes, outcome.depth
                break
            cut = [index[eid] for eid in step.edges]
        peeled.append(step)
        for i in cut:
            done[i] = 1
            for w in ends[i]:
                deg[w] -= 1
        uncoloured -= len(cut)
        recheck({w for i in cut for w in ends[i]})

    # The colours at each vertex, kept while an edge there is uncoloured.
    used = [0] * g.n
    left = [g.degree(w) for w in range(g.n)]
    free_mask = (1 << (k + 1)) - 2   # bits 1..k

    def place(i, c):
        colouring[ids[i]] = c
        for w in ends[i]:
            left[w] -= 1
            used[w] = used[w] | 1 << c if left[w] else 0

    def free(i):
        u, v = ends[i]
        return free_mask & ~(used[u] | used[v])

    for eid, c in list(colouring.items()):
        place(index[eid], c)
    for step in reversed(peeled):
        if isinstance(step, int):
            bits = free(step)
            if not bits:
                raise AssertionError("light edge had no free colour")
            place(step, (bits & -bits).bit_length() - 1)
        else:
            lists = {eid: set(_colours_of(free(index[eid])))
                     for eid in step.edges}
            for eid, c in colour_even_cycle_lists(g, step.edges,
                                                  lists).items():
                place(index[eid], c)
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
    return SolveOutcome(SOLVED, colouring, nodes, depth, method)


# -- discharging audit ---------------------------------------------------

@dataclass
class ChargeLedger:
    variant: str
    delta: int
    alpha_vertex: dict[int, Fraction]
    alpha_face: list[Fraction]
    beta: dict[int, Fraction]
    gamma: dict[int, Fraction]
    delta_vertex: dict[int, Fraction]
    delta_face: list[Fraction]
    classification: dict[int, str]
    corner_rules: list[dict]
    vertex_balance: dict[int, Fraction]
    face_balance: list[Fraction]
    violations: list[dict]
    preconditions_failed: list[str]

    @property
    def sum_alpha(self) -> Fraction:
        return sum(self.alpha_vertex.values(), Fraction(0)) \
            + sum(self.alpha_face, Fraction(0))

    @property
    def sum_gamma(self) -> Fraction:
        return sum(self.gamma.values(), Fraction(0))

    @property
    def sum_delta(self) -> Fraction:
        return sum(self.delta_vertex.values(), Fraction(0)) \
            + sum(self.delta_face, Fraction(0))

    def to_json_obj(self) -> dict:
        def fr(x):
            return str(x)
        return {
            "variant": self.variant,
            "delta": self.delta,
            "sums": {"alpha": fr(self.sum_alpha), "gamma": fr(self.sum_gamma),
                     "delta": fr(self.sum_delta)},
            "vertices": {
                str(v): {"class": self.classification[v],
                         "alpha": fr(self.alpha_vertex[v]),
                         "beta": fr(self.beta[v]),
                         "gamma": fr(self.gamma[v]),
                         "delta": fr(self.delta_vertex[v]),
                         "balance": fr(self.vertex_balance[v])}
                for v in sorted(self.alpha_vertex)},
            "faces": [{"alpha": fr(a), "delta": fr(d), "balance": fr(b)}
                      for a, d, b in zip(self.alpha_face, self.delta_face,
                                         self.face_balance)],
            "corner_rules": self.corner_rules,
            "violations": self.violations,
            "preconditions_failed": self.preconditions_failed,
        }


def _vertex_classes(g: MultiGraph, m_ids: set, variant: str):
    degree = {v: g.degree(v) for v in range(g.n)}
    v1 = {v for v in range(g.n) if degree[v] == 1}
    t_set = {v for v in range(g.n)
             if any(w in v1 for w in g.neighbours(v))}
    covered = {x for eid in m_ids for x in g.endpoints(eid)}
    v2p = {v for v in range(g.n) if degree[v] == 2 and v not in covered}
    t2 = {v for v in t_set if degree[v] == 2}
    return degree, v1, t_set, t2, v2p


def audit_discharge(g: MultiGraph, r: RotationSystem,
                    m: Iterable[EdgeId], variant: str,
                    delta: int | None = None,
                    literal_rules: bool = False) -> ChargeLedger:
    """Recompute every charge and transfer of the given rule table.

    Works on any connected simple plane graph: global conservation
    (sum of alpha = -12, sums of gamma and delta = 0) holds structurally,
    while the per-element inequalities can fail on graphs that violate the
    structural preconditions of the argument; those failures are reported
    together with the precondition they trace back to.

    ``delta`` defaults to max(Delta(G), threshold) so that the vertex
    classes match the regime the rules were designed for.  With
    ``literal_rules`` the two self-referential fallback transfer rules are
    read literally (and therefore never fire) instead of using the
    intended reading.
    """
    if variant not in (VARIANT_MATCHING, VARIANT_DISTANCE3):
        raise InputError(f"unknown variant {variant!r}")
    if g.mu() > 1:
        raise InputError("discharging audit needs a simple graph")
    if not g.is_connected() or not g.edges:
        raise InputError("discharging audit needs a connected graph")
    m_ids = set(m)
    for eid in m_ids:
        g.endpoints(eid)
    t_req = 1 if variant == VARIANT_MATCHING else 3
    if not is_distance_matching(g, m_ids, t_req):
        raise InputError(
            "marked edges do not form the required distance matching")

    threshold = 17 if variant == VARIANT_MATCHING else 20
    if delta is None:
        delta = max(g.delta(), threshold)

    faces = trace_faces(g, r)
    degree, v1, t_set, t2, v2p = _vertex_classes(g, m_ids, variant)
    verts = [v for v in range(g.n) if degree[v] > 0]
    in_t = t_set
    excluded = v1 if variant == VARIANT_MATCHING else v1 | t2

    def klass(v):
        base = f"T{degree[v]}" if v in in_t else f"U{degree[v]}"
        if v in v2p:
            base += "'"
        return base

    alpha_vertex = {v: Fraction(3 * degree[v] - 6) for v in verts}
    alpha_face = [Fraction(-6)] * len(faces)

    beta = {}
    for v in verts:
        if degree[v] == delta:
            beta[v] = Fraction(-2)
        elif variant == VARIANT_MATCHING and degree[v] == 3:
            beta[v] = Fraction(2)
        elif variant == VARIANT_DISTANCE3 and v in v2p:
            beta[v] = Fraction(2)
        else:
            beta[v] = Fraction(0)

    def gamma_send(a: int, b: int) -> Fraction:
        # Amount vertex a receives from b along edge ab.
        if a in v1:
            return Fraction(3)
        if variant == VARIANT_DISTANCE3 and degree[b] == delta:
            if a in t2:
                return Fraction(3)
            if degree[a] == 2 and a not in t_set and a not in v2p:
                return Fraction(2)
        return Fraction(0)

    gamma = {v: Fraction(0) for v in verts}
    for _, u, v in g.edges:
        net = gamma_send(u, v) - gamma_send(v, u)
        gamma[u] += net
        gamma[v] -= net

    # Reduced face walks with the fused corner at special neighbours.
    delta_vertex = {v: Fraction(0) for v in verts}
    delta_face = [Fraction(0)] * len(faces)
    corner_rules = []

    adjacency = {v: set(g.neighbours(v)) for v in verts}
    m_pairs = {frozenset(g.endpoints(eid)) for eid in m_ids}

    for fi, walk in enumerate(faces.faces):
        seq = [v for v, _ in walk]
        reduced = [v for v in seq if v not in excluded]
        if not reduced:
            continue
        # Collapse duplicates created by removing an excluded vertex
        # between two visits of the same vertex (cyclically).
        merged = []
        for v in reduced:
            if merged and merged[-1] == v:
                continue
            merged.append(v)
        if len(merged) > 1 and merged[0] == merged[-1]:
            merged.pop()
        vminus = set(merged)
        for idx, v in enumerate(merged):
            rule, value = _delta_rule(
                variant, v, vminus, merged, degree, delta, in_t, v1, t2,
                v2p, adjacency, m_pairs, literal_rules)
            if value:
                delta_face[fi] += value
                delta_vertex[v] -= value
            corner_rules.append({"face": fi, "vertex": v, "rule": rule,
                                 "value": str(value)})

    preconditions = _precondition_report(g, m_ids, variant, delta, degree,
                                         v1, t2)

    vertex_balance = {}
    face_balance = []
    violations = []
    for v in verts:
        bal = alpha_vertex[v] + beta[v] + gamma[v] + delta_vertex[v]
        vertex_balance[v] = bal
        if bal < 0:
            violations.append({"element": f"vertex {v}",
                               "balance": str(bal),
                               "preconditions": preconditions})
    for fi in range(len(faces)):
        bal = alpha_face[fi] + delta_face[fi]
        face_balance.append(bal)
        if bal < 0:
            violations.append({"element": f"face {fi}",
                               "balance": str(bal),
                               "preconditions": preconditions})

    ledger = ChargeLedger(
        variant=variant, delta=delta,
        alpha_vertex=alpha_vertex, alpha_face=alpha_face,
        beta=beta, gamma=gamma,
        delta_vertex=delta_vertex, delta_face=delta_face,
        classification={v: klass(v) for v in verts},
        corner_rules=corner_rules,
        vertex_balance=vertex_balance, face_balance=face_balance,
        violations=violations, preconditions_failed=preconditions)
    if ledger.sum_alpha != -12:
        raise AssertionError("alpha charges do not sum to -12")
    if ledger.sum_gamma != 0 or ledger.sum_delta != 0:
        raise AssertionError("transfers do not conserve charge")
    return ledger


def _delta_rule(variant, v, vminus, merged, degree, delta, in_t, v1, t2,
                v2p, adjacency, m_pairs, literal_rules):
    d = degree[v]

    def nbrs_on_face():
        return adjacency[v] & (vminus - {v})

    if variant == VARIANT_MATCHING:
        if d == 3 and v in in_t:
            return "delta1", Fraction(1)
        if d == 3 and v not in in_t:
            return "delta2", Fraction(5, 3)
        if 4 <= d <= delta - 2 and v in in_t:
            return "delta3", Fraction(3) - Fraction(6, d - 1)
        if 4 <= d <= delta - 2 and v not in in_t:
            return "delta4", Fraction(3) - Fraction(6, d)
        if d >= delta - 1 and len(vminus) == 3:
            others = sorted(vminus - {v})
            if len(others) == 2 and all(o in adjacency[v] for o in others) \
                    and all(o not in in_t and 3 <= degree[o] <= 8
                            for o in others) \
                    and frozenset(others) in m_pairs:
                return "delta5", Fraction(3)
            if any(o in adjacency[v] and (
                    (o in in_t and 3 <= degree[o] <= 6)
                    or (o not in in_t and 3 <= degree[o] <= 5))
                    for o in vminus - {v}):
                return "delta6", Fraction(5, 2)
            if not literal_rules:
                return "delta7", Fraction(2)
            return "delta7-literal-skipped", Fraction(0)
        if d >= delta - 1 and len(vminus) >= 4:
            if any(o in adjacency[v] and o in in_t and 3 <= degree[o] <= 6
                   for o in vminus - {v}):
                return "delta8", Fraction(2)
            if not literal_rules:
                return "delta9", Fraction(3, 2)
            return "delta9-literal-skipped", Fraction(0)
        return "none", Fraction(0)

    # distance-3 variant
    if d == 2 and v not in in_t:
        return "delta1", Fraction(1)
    if 3 <= d <= delta - 4 and v in in_t:
        return "delta2", Fraction(3) - Fraction(6, d - 1)
    if 3 <= d <= delta - 4 and v not in in_t:
        return "delta3", Fraction(3) - Fraction(6, d)
    # d >= delta - 3: reduced faces keep no degree-1 or degree-2 T-vertex
    others = sorted(vminus - {v})
    if len(vminus) == 3 and len(others) == 2 \
            and all(o in adjacency[v] for o in others) \
            and frozenset(others) in m_pairs:
        return "delta4", Fraction(4)
    if any(o in adjacency[v] and o in in_t and degree[o] == 3
           for o in vminus - {v}):
        return "delta5", Fraction(3)
    return "delta6", Fraction(5, 2)


def _precondition_report(g, m_ids, variant, delta, degree, v1,
                         t2) -> list[str]:
    """Structural hypotheses of the argument that this input violates."""
    failed = []
    if g.delta() < delta:
        failed.append("maximum degree below the rule threshold")
    uncoloured = [eid for eid in g.edge_ids if eid not in m_ids]
    bound = _light_threshold(variant, delta)
    if any(degree[u] + degree[v] <= bound
           for u, v in map(g.endpoints, uncoloured)):
        failed.append("light non-matching edge present "
                      "(degree-sum lower bound fails)")
    if variant == VARIANT_MATCHING:
        if any(degree[v] == 2 for v in range(g.n)):
            failed.append("degree-2 vertex present")
    if any(v in v1 and not any(g.ids[i] in m_ids for i in g.incidence[v])
           for v in range(g.n)):
        failed.append("degree-1 vertex not covered by the matching")
    special = v1 if variant == VARIANT_MATCHING else v1 | t2
    for v in range(g.n):
        if degree[v] > 1 and sum(1 for w in g.neighbours(v)
                                 if w in special) > 1:
            failed.append("vertex with two special neighbours")
            break
    if _find_even_cycle(g, _auxiliary_edges(g, m_ids, uncoloured, variant,
                                            delta)) is not None:
        failed.append("even cycle in the auxiliary subgraph")
    return failed


# -- generators -----------------------------------------------------------

def wheel(k: int) -> tuple[MultiGraph, RotationSystem]:
    """Wheel with hub degree k: hub 0, rim 1..k; spokes 0..k-1, rim k..2k-1."""
    if k < 3:
        raise InputError("wheel needs at least 3 rim vertices")
    edges = [(i, 0, i + 1) for i in range(k)]
    edges += [(k + i, 1 + i, 1 + (i + 1) % k) for i in range(k)]
    g = MultiGraph(k + 1, edges)
    points = {0: (0.0, 0.0)}
    for i in range(k):
        ang = 2 * math.pi * i / k
        points[1 + i] = (math.cos(ang), math.sin(ang))
    return g, rotation_from_points(g, points)


def icosahedron() -> tuple[MultiGraph, RotationSystem]:
    """The icosahedron with a rotation system from its 3D geometry."""
    phi = (1 + math.sqrt(5)) / 2
    coords = []
    for a, b in itertools.product((1, -1), repeat=2):
        coords.append((0.0, a * 1.0, b * phi))
        coords.append((a * 1.0, b * phi, 0.0))
        coords.append((a * phi, 0.0, b * 1.0))
    edges = []
    eid = 0
    for i in range(12):
        for j in range(i + 1, 12):
            dist = sum((x - y) ** 2 for x, y in zip(coords[i], coords[j]))
            if abs(dist - 4.0) < 1e-9:
                edges.append((eid, i, j))
                eid += 1
    g = MultiGraph(12, edges)

    around = {}
    for v in range(12):
        nx, ny, nz = coords[v]
        norm = math.sqrt(nx * nx + ny * ny + nz * nz)
        n = (nx / norm, ny / norm, nz / norm)
        # Orthonormal basis of the tangent plane at v.
        ref = (1.0, 0.0, 0.0) if abs(n[0]) < 0.9 else (0.0, 1.0, 0.0)
        u = _cross(n, ref)
        u = _scale(u, 1 / _norm(u))
        w = _cross(n, u)

        def angle(i):
            p = coords[sum(g.ends[i]) - v]
            rel = (p[0] - coords[v][0], p[1] - coords[v][1],
                   p[2] - coords[v][2])
            return math.atan2(_dot(rel, w), _dot(rel, u))

        around[v] = tuple(g.ids[i] for i in sorted(g.incidence[v], key=angle))
    return g, RotationSystem(around)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _norm(a):
    return math.sqrt(_dot(a, a))


def _scale(a, s):
    return (a[0] * s, a[1] * s, a[2] * s)


def _rotation(around: dict[int, list[EdgeId]]) -> RotationSystem:
    return RotationSystem({v: tuple(eids) for v, eids in around.items()})


def _join_new_vertex(edges: list, around: dict, w: int,
                     walk: Sequence[tuple[int, EdgeId]]) -> None:
    """Join the new vertex w to the corner v of each dart (v, depart) of a
    face walk, with edge ids numbered on from ``len(edges)``.  Each edge
    vw goes just before the departing edge in v's rotation, which keeps it
    inside the face being subdivided; around w the new edges run in
    reverse face order, which closes the face up."""
    new_ids = []
    for v, depart in walk:
        eid = len(edges)
        new_ids.append(eid)
        edges.append((eid, v, w))
        around[v].insert(around[v].index(depart), eid)
    around[w] = new_ids[:1] + new_ids[:0:-1]


def hub_triangulation(k: int, extra: int, seed: int
                      ) -> tuple[MultiGraph, RotationSystem]:
    """Wheel with hub degree k, with ``extra`` vertices stacked into random
    triangular faces away from the hub (so the hub keeps degree k)."""
    import random
    rng = random.Random(seed)
    g, r = wheel(k)
    edges = list(g.edges)
    around = {v: list(r.around[v]) for v in range(g.n)}
    next_v = g.n
    placed = 0
    while placed < extra:
        cur = MultiGraph(next_v, edges)
        faces = trace_faces(cur, _rotation(around))

        def degree_ok(walk):
            return all(cur.degree(x) <= k - 2 for x, _ in walk)

        tri = [w for w in faces.faces
               if len(w) == 3 and len({x for x, _ in w}) == 3
               and all(x != 0 for x, _ in w) and degree_ok(w)]
        if tri:
            walk = tri[rng.randrange(len(tri))]
        else:
            # No hub-free triangle yet (a fresh wheel): carve one by
            # joining a new vertex to two consecutive corners of a
            # hub-free face, which creates a triangle for later rounds.
            wide = [w for w in faces.faces
                    if all(x != 0 for x, _ in w)
                    and len({x for x, _ in w}) >= 2 and degree_ok(w)]
            if not wide:
                raise InputError("no hub-free face left to grow into")
            whole = wide[rng.randrange(len(wide))]
            i = rng.randrange(len(whole))
            walk = [whole[i], whole[(i + 1) % len(whole)]]
        _join_new_vertex(edges, around, next_v, walk)
        next_v += 1
        placed += 1
    g, r = MultiGraph(next_v, edges), _rotation(around)
    trace_faces(g, r)
    return g, r


def random_plane_graph(n: int, seed: int) -> tuple[MultiGraph, RotationSystem]:
    """Random connected simple plane graph on ~n vertices with rotations.

    Grown from a triangle by stacking a vertex inside a triangular face or
    hanging a pendant vertex; both operations preserve a valid embedding.
    """
    import random
    rng = random.Random(seed)
    if n < 3:
        raise InputError("need at least 3 vertices")
    edges = [(0, 0, 1), (1, 1, 2), (2, 2, 0)]
    around = {0: [0, 2], 1: [1, 0], 2: [2, 1]}
    next_v = 3
    while next_v < n:
        if rng.random() < 0.35:
            # Pendant vertex at a random corner.
            v = rng.randrange(next_v)
            pos = rng.randrange(len(around[v]) + 1) if around[v] else 0
            eid = len(edges)
            edges.append((eid, v, next_v))
            around[v].insert(pos, eid)
            around[next_v] = [eid]
            next_v += 1
        else:
            faces = trace_faces(MultiGraph(next_v, edges), _rotation(around))
            tri = [w for w in faces.faces
                   if len(w) == 3 and len({x for x, _ in w}) == 3]
            if not tri:
                continue
            _join_new_vertex(edges, around, next_v,
                             tri[rng.randrange(len(tri))])
            next_v += 1
    g, r = MultiGraph(next_v, edges), _rotation(around)
    trace_faces(g, r)
    return g, r
