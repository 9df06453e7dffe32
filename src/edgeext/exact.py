"""Exact ground-truth engines.

Backtracking list-edge-colouring with most-constrained-edge-first order,
extension and avoidance deciders built on it, chromatic index by upward
search, and a constructive fan/alternating-path colouring meeting the
classical Delta+mu (and floor(3*Delta/2)) bound without any search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import EdgeId, InputError, MultiGraph, _id_sort_key
from .colouring import Palette, is_proper, validate_precolouring

SOLVED = "solved"
UNSOLVABLE = "unsolvable"
BUDGET = "budget"


@dataclass
class SolveOutcome:
    status: str
    colouring: dict[EdgeId, int] | None = None
    nodes: int = 0
    depth: int = 0
    method: str | None = None

    @property
    def solved(self) -> bool:
        return self.status == SOLVED

    def to_json_obj(self) -> dict:
        obj = {"status": self.status,
               "stats": {"nodes": self.nodes, "depth": self.depth}}
        if self.method is not None:
            obj["method"] = self.method
        if self.colouring is not None:
            obj["colouring"] = {str(eid): c for eid, c in self.colouring.items()}
        return obj


def _mask_of(colours: Iterable[int]) -> int:
    mask = 0
    for c in colours:
        mask |= 1 << c
    return mask


def _colours_of(mask: int) -> list[int]:
    out = []
    c = 0
    while mask:
        if mask & 1:
            out.append(c)
        mask >>= 1
        c += 1
    return out


def solve_list(g: MultiGraph,
               lists: Mapping[EdgeId, Iterable[int]],
               budget: int | None = None,
               fixed: Mapping[EdgeId, int] | None = None) -> SolveOutcome:
    """Decide a list-edge-colouring instance by exhaustive backtracking.

    Deterministic: the most constrained edge (smallest remaining list) is
    branched first, ties by edge id; colours are tried in increasing order.
    When every list is the same full palette {1..k}, interchangeable unused
    colours are skipped (symmetry breaking); list instances are searched
    without it so correctness never depends on the symmetry argument.

    Edges coloured by ``fixed``, a proper partial colouring of g, keep
    their colours and need no list; every other edge also loses the
    colours fixed at its ends, and a solution comes back merged into a
    copy of ``fixed``.  The symmetry test reads the lists after that loss.

    The solution is checked on every run, not just in tests: each colour
    must be in its edge's list and new at both of its ends.
    """
    base = {} if fixed is None else fixed
    used = [0] * g.n
    for eid, c in base.items():
        u, v = g.endpoints(eid)
        bit = 1 << c
        if (used[u] | used[v]) & bit:
            raise InputError("fixed colouring is not proper")
        used[u] |= bit
        used[v] |= bit
    ids, ends, masks = [], [], []
    last = mask = None
    for eid, u, v in sorted(g.edges, key=lambda e: _id_sort_key(e[0])):
        if eid in base:
            continue
        if eid not in lists:
            raise InputError(f"edge {eid!r} has no colour list")
        colours = lists[eid]
        if colours is not last:  # callers often give every edge one list
            last, mask = colours, _mask_of(colours)
        ids.append(eid)
        ends.append((u, v))
        masks.append(mask & ~(used[u] | used[v]))
    if not ids:
        return SolveOutcome(SOLVED, dict(base), nodes=0, depth=0)
    union = 0
    for mask in masks:
        union |= mask
    full = (1 << union.bit_length()) - 2
    symmetric = full > 0 and all(mask == full for mask in masks)
    status, assigned, nodes, depth = _search(g.n, ends, masks, symmetric,
                                             budget)
    if status != SOLVED:
        return SolveOutcome(status, None, nodes=nodes, depth=depth)
    colouring = dict(base)
    for i, c in assigned:
        bit = 1 << c
        u, v = ends[i]
        if not masks[i] & bit:
            raise AssertionError(f"edge {ids[i]!r} coloured outside its list")
        if (used[u] | used[v]) & bit:
            raise AssertionError("solver produced an improper colouring")
        used[u] |= bit
        used[v] |= bit
        colouring[ids[i]] = c
    return SolveOutcome(SOLVED, colouring, nodes=nodes, depth=depth)


def extend(g: MultiGraph, colouring: Mapping[EdgeId, int], palette: Palette,
           budget: int | None = None) -> SolveOutcome:
    """Decide whether the proper precolouring extends within the palette.

    This is ``solve_list`` with the precolouring fixed and the palette as
    every edge's list: each uncoloured edge uv may take the palette
    colours seen at neither u nor v.
    """
    validate_precolouring(g, colouring, palette)
    return solve_list(g, dict.fromkeys(g.edge_ids, palette.colours), budget,
                      colouring)


def _search(n, ends, masks, symmetric, budget):
    """Backtracking over edges 0..m-1 (m >= 1): edge i joins ``ends[i]``
    and may take the colours whose bits are set in ``masks[i]``.

    The search runs on an explicit stack, and each node costs time in the
    edges its assignment touches, not in all edges.  The lowest-numbered
    edge breaks ties.  Uncoloured edges sit in buckets by the size of
    their remaining list.  The parity prune (see ``_parity_refutes``)
    reads one "tight" entry per vertex, refreshed only where an
    assignment can change it and restored from a trail on undo.

    Returns ``(status, assigned, nodes, depth)``; ``assigned`` lists the
    solution's (edge, colour) pairs in assignment order, or is None.
    """
    m = len(ends)
    avail = list(masks)
    # incidence[w]: (edge, other endpoint) for every edge at w
    incidence: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(ends):
        incidence[u].append((i, v))
        incidence[v].append((i, u))
    free = [True] * m
    # cnt[w]: the uncoloured edges at w
    cnt = [len(entries) for entries in incidence]
    buckets: list[set[int]] = [
        set() for _ in range(max(a.bit_count() for a in avail) + 1)]
    for i, a in enumerate(avail):
        buckets[a.bit_count()].add(i)
    # tight[w] is the union of the remaining lists at w, present only when
    # w has uncoloured edges and that union has exactly one colour per edge.
    tight: dict[int, int] = {}

    def settle(w: int, new: int | None, trail: list) -> None:
        old = tight.get(w)
        if new != old:
            trail.append((w, old))
            if new is None:
                del tight[w]
            else:
                tight[w] = new

    for w in range(n):
        union = 0
        for j, _ in incidence[w]:
            union |= avail[j]
        if cnt[w] and union.bit_count() == cnt[w]:
            tight[w] = union

    nodes = max_depth = max_used = 0
    # One frame per edge on the current path: [edge, colours left to try,
    # max_used at its node, colour bit it holds (0 for none), the edges
    # that lost that colour, the tight-trail].  The last two undo it.
    stack: list[list] = []
    while len(stack) < m:
        nodes += 1
        if len(stack) > max_depth:
            max_depth = len(stack)
        if budget is not None and nodes > budget:
            return BUDGET, None, nodes, max_depth
        if not buckets[0] and not (
                tight and _parity_refutes(tight, incidence, free, avail)):
            b = 1
            while not buckets[b]:
                b += 1
            i = min(buckets[b])
            left = avail[i]
            if symmetric:
                left &= (1 << (max_used + 2)) - 1
            stack.append([i, left, max_used, 0, None, None])
        while stack:
            frame = stack[-1]
            i, left, parent_used, bit, changed, trail = frame
            u, v = ends[i]
            if bit:
                # undo the frame's current colour
                for w, old in reversed(trail):
                    if old is None:
                        del tight[w]
                    else:
                        tight[w] = old
                for j in changed:
                    a = avail[j]
                    p = a.bit_count()
                    buckets[p].remove(j)
                    buckets[p + 1].add(j)
                    avail[j] = a | bit
                free[i] = True
                cnt[u] += 1
                cnt[v] += 1
                buckets[avail[i].bit_count()].add(i)
            if not left:
                stack.pop()
                continue
            # colour edge i with the next colour: clear it from the
            # uncoloured edges at both ends, whose unions are then known
            bit = left & -left
            free[i] = False
            cnt[u] -= 1
            cnt[v] -= 1
            buckets[avail[i].bit_count()].remove(i)
            changed = []
            trail = []
            # (size of the list it lost the colour from, far end) for each
            # changed edge whose far end is neither u nor v
            far = []
            for w in (u, v):
                union = 0
                for j, x in incidence[w]:
                    if free[j]:
                        a = avail[j]
                        if a & bit:
                            p = a.bit_count()
                            buckets[p].remove(j)
                            buckets[p - 1].add(j)
                            a ^= bit
                            avail[j] = a
                            changed.append(j)
                            if x != u and x != v:
                                far.append((p - 1, x))
                        union |= a
                c = cnt[w]
                settle(w, union if c and union.bit_count() == c else None,
                       trail)
            # x's union holds the changed list, so x cannot be tight while
            # that list is longer than x's count; rescan x only otherwise
            for size, x in far:
                c = cnt[x]
                new = None
                if size <= c:
                    union = 0
                    for j, _ in incidence[x]:
                        if free[j]:
                            union |= avail[j]
                    if union.bit_count() == c:
                        new = union
                settle(x, new, trail)
            frame[1] = left ^ bit
            frame[3:] = bit, changed, trail
            max_used = max(parent_used, bit.bit_length() - 1)
            break
        else:
            return UNSOLVABLE, None, nodes, max_depth
    return (SOLVED, [(frame[0], frame[3].bit_length() - 1) for frame in stack],
            nodes, max_depth)


def _parity_refutes(tight, incidence, free, avail) -> bool:
    """Parity refutation on single colour classes.

    A tight vertex (its remaining edges have exactly as many usable
    colours as there are edges) must see every one of those colours.  For
    each colour c, the uncoloured edges that can still take c split into
    components; a component whose vertices are all tight needs a perfect
    matching on itself, which an odd component cannot have.  Components
    are grown from tight vertices only and dropped at their first vertex
    that is not tight.
    """
    owner_by_bit: dict[int, dict[int, int]] = {}
    for start, union in tight.items():
        while union:
            bit = union & -union
            union ^= bit
            owner = owner_by_bit.get(bit)
            if owner is None:
                owner = owner_by_bit[bit] = {}
            elif start in owner:
                continue
            owner[start] = start
            comp = [start]
            closed = True
            k = 0
            while closed and k < len(comp):
                x = comp[k]
                k += 1
                for j, y in incidence[x]:
                    if avail[j] & bit and free[j]:
                        seen = owner.get(y)
                        if seen is None and y in tight:
                            owner[y] = start
                            comp.append(y)
                        elif seen != start:
                            # not tight, or in a component already dropped
                            closed = False
                            break
            if closed and len(comp) % 2:
                return True
    return False


def avoid(g: MultiGraph, forbidden: Mapping[EdgeId, int], palette: Palette,
          budget: int | None = None) -> SolveOutcome:
    """Find a proper colouring disagreeing with ``forbidden`` on its domain.

    The forbidden assignment need not be proper.
    """
    for eid, colour in forbidden.items():
        g.endpoints(eid)
        if colour not in palette:
            raise InputError(
                f"forbidden colour {colour!r} outside palette [{palette.k}]")
    full = frozenset(palette.colours)
    lists = {}
    for eid in g.edge_ids:
        if eid in forbidden:
            lists[eid] = full - {forbidden[eid]}
        else:
            lists[eid] = full
    return solve_list(g, lists, budget=budget)


def chromatic_index(g: MultiGraph, budget: int | None = None) -> int:
    """Least K admitting a proper edge-colouring, searching K = Delta, ..."""
    if not g.edges:
        raise InputError("chromatic index of an empty edge set is undefined")
    delta = g.delta()
    upper = delta + g.mu()
    for k in range(delta, upper + 1):
        full = frozenset(range(1, k + 1))
        outcome = solve_list(g, {eid: full for eid in g.edge_ids},
                             budget=budget)
        if outcome.status == BUDGET:
            raise InputError("node budget exceeded while computing chromatic index")
        if outcome.solved:
            return k
    raise AssertionError("chromatic index exceeded the Delta+mu bound")


# -- constructive fan colouring -----------------------------------------

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
