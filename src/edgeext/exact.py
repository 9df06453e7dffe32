"""Exact ground-truth engines.

Backtracking list-edge-colouring with most-constrained-edge-first order,
extension and avoidance deciders built on it, chromatic index by upward
search, and a constructive fan/alternating-path colouring meeting the
classical Delta+mu (and floor(3*Delta/2)) bound without any search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .core import EdgeId, InputError, MultiGraph
from .colouring import Palette, certify, validate_precolouring

SOLVED = "solved"
UNSOLVABLE = "unsolvable"
BUDGET = "budget"


class BudgetSpent(Exception):
    """A bounded search passed its node budget."""

    def __init__(self, nodes: int, depth: int = 0):
        # the arguments rebuild the exception when a worker process
        # pickles it back
        super().__init__(nodes, depth)
        self.nodes = nodes
        self.depth = depth

    def __str__(self) -> str:
        return f"search passed its budget at {self.nodes} nodes"


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

    Every exact search enters here.  It checks the solution on every run,
    not just in tests, by ``certify``: each colour must be in its edge's
    list and new at both of its ends, so no caller need check it again.
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
    for eid, (u, v) in zip(g.ids, g.ends):
        if eid in base:
            continue
        colours = lists.get(eid)
        if colours is None:
            raise InputError(f"edge {eid!r} has no colour list")
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
    certify(ids, ends, masks, used, assigned, colouring)
    return SolveOutcome(SOLVED, colouring, nodes=nodes, depth=depth)


def extend(g: MultiGraph, colouring: Mapping[EdgeId, int], palette: Palette,
           budget: int | None = None) -> SolveOutcome:
    """Decide whether the proper precolouring extends within the palette.

    This is ``solve_list`` with the precolouring fixed and the palette as
    every edge's list: each uncoloured edge uv may take the palette
    colours seen at neither u nor v.
    """
    validate_precolouring(g, colouring, palette)
    return prepare_extend(g, palette)(colouring, budget)


def prepare_extend(g: MultiGraph, palette: Palette
                   ) -> Callable[..., SolveOutcome]:
    """``extend`` on g and the palette, prepared once for many
    precolourings: ``run(colouring, budget=None)`` is ``solve_list`` on
    the palette lists built here, with the colouring fixed.  It takes the
    colours as inside the palette; ``solve_list`` still refuses an
    improper colouring."""
    lists = dict.fromkeys(g.ids, palette.colours)

    def run(colouring, budget=None):
        return solve_list(g, lists, budget, colouring)
    return run


def _search(n, ends, masks, symmetric, budget):
    """Backtracking over edges 0..m-1 (m >= 1): edge i joins ``ends[i]``
    and may take the colours whose bits are set in ``masks[i]``.

    The search runs on an explicit stack, and each node costs time in the
    edges its assignment touches, not in all edges.  The lowest-numbered
    edge breaks ties.  Uncoloured edges sit in buckets by the size of
    their remaining list.  The parity prune (see ``_parity_refutes``)
    reads one "tight" entry per vertex, refreshed only where an
    assignment can change it and restored from a trail on undo.

    The first descent is tried on its own first, by ``_dive``, which
    keeps none of the bookkeeping that only backtracking needs.  When it
    completes, it is the search's own first path (see ``_dive``), which
    visits m nodes at depths 0..m-1, so it is returned as the search would
    return it; it is skipped when a budget below m would stop the search
    on that path.  When it dead-ends, the search starts afresh.

    Returns ``(status, assigned, nodes, depth)``; ``assigned`` lists the
    solution's (edge, colour) pairs in assignment order, or is None.
    """
    m = len(ends)
    # incidence[w]: (edge, other endpoint) for every edge at w
    incidence: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(ends):
        incidence[u].append((i, v))
        incidence[v].append((i, u))
    if budget is None or budget >= m:
        path = _dive(ends, masks, incidence)
        if path is not None:
            return SOLVED, path, m, m - 1
    avail = list(masks)
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


def _dive(ends, masks, incidence):
    """The search's first descent, with no backtracking: the smallest
    non-empty remaining list first, the lowest edge on ties, its lowest
    colour.  Returns the (edge, colour) pairs in assignment order, or None
    at the first edge whose list empties.

    A completed dive is exactly the path ``_search`` takes first:
    - Along it no list is empty, so the search's ``buckets[0]`` stays
      empty and never cuts the path.
    - The parity prune is sound: it fires only where no colouring
      extends, so it cannot fire on a path that ends in one.
    - In symmetric mode colour ``max_used + 1`` is still in every list
      (or every colour is in the window), so the lowest colour of a list
      always lies inside the search's symmetry window.
    """
    avail = list(masks)
    buckets: list[set[int]] = [
        set() for _ in range(max(a.bit_count() for a in avail) + 1)]
    for i, a in enumerate(avail):
        buckets[a.bit_count()].add(i)
    if buckets[0]:
        return None
    path = []
    for _ in range(len(avail)):
        b = 1
        while not buckets[b]:
            b += 1
        i = min(buckets[b])
        buckets[b].remove(i)
        bit = avail[i] & -avail[i]
        avail[i] = 0  # coloured: no longer loses colours
        path.append((i, bit.bit_length() - 1))
        for w in ends[i]:
            for j, _ in incidence[w]:
                a = avail[j]
                if a & bit:
                    p = a.bit_count()
                    if p == 1:
                        return None
                    buckets[p].remove(j)
                    buckets[p - 1].add(j)
                    avail[j] = a ^ bit
    return path


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
    """Least K admitting a proper edge-colouring, searching K = Delta, ...

    Each palette's search may use ``budget`` nodes; one that passes it
    raises ``BudgetSpent``."""
    if not g.edges:
        raise InputError("chromatic index of an empty edge set is undefined")
    delta = g.delta()
    upper = delta + g.mu()
    for k in range(delta, upper + 1):
        full = frozenset(range(1, k + 1))
        outcome = solve_list(g, {eid: full for eid in g.edge_ids},
                             budget=budget)
        if outcome.status == BUDGET:
            raise BudgetSpent(outcome.nodes, outcome.depth)
        if outcome.solved:
            return k
    raise AssertionError("chromatic index exceeded the Delta+mu bound")


# -- constructive fan colouring -----------------------------------------

def vizing_bound(g: MultiGraph) -> int:
    """min(Delta+mu, max(floor(3*Delta/2), Delta+1)), the palette
    ``vizing_colour`` stays within; 0 for a graph with no edges."""
    if not g.edges:
        return 0
    delta = g.delta()
    return min(delta + g.mu(), max(3 * delta // 2, delta + 1))


def _edge_with_colour(incidence, col, v: int, c: int) -> int:
    """The edge at v that ``col`` gives colour c."""
    for i in incidence[v]:
        if col[i] == c:
            return i
    raise AssertionError("colour recorded as present but not found")


def _flip_chain(ends, incidence, col, at, start: int, a: int, b: int,
                anchor: int) -> bool:
    """Swap the a/b alternating chain from ``start``, where a is missing,
    unless it ends at ``anchor``; True when swapped.  Edge colours ``col``
    and each vertex's colour mask ``at`` change in place."""
    chain = []
    v, want = start, b
    while at[v] >> want & 1:
        i = _edge_with_colour(incidence, col, v, want)
        chain.append(i)
        u1, u2 = ends[i]
        v = u2 if u1 == v else u1
        want = a if want == b else b
    if v == anchor:
        return False
    # a chain vertex keeps both colours, an end trades one for the other
    flip = 1 << a | 1 << b
    for i in chain:
        col[i] = a if col[i] == b else b
        for w in ends[i]:
            at[w] ^= flip
    return True


def vizing_colour(g: MultiGraph) -> dict[EdgeId, int]:
    """Proper colouring with at most ``vizing_bound(g)`` colours.

    Constructive fan/alternating-path recolouring; no exhaustive search.
    Ambiguities resolve to the lowest colour and lowest edge id.

    Edges are the graph's indices, and ``at[v]`` is the mask of the
    colours at v.  Every step colours or recolours edges already coloured,
    except that the edge the loop is on is coloured last, so edges are
    first coloured in ``g.edges`` order.  ``certify`` checks the result
    against the palette [vizing_bound(g)].
    """
    if not g.edges:
        return {}
    full = (1 << (vizing_bound(g) + 1)) - 2  # colours 1..k
    ends, inc = g.ends, g.incidence
    col = [0] * len(ends)
    at = [0] * g.n

    def assign(i: int, c: int) -> None:
        u, v = ends[i]
        old = col[i]
        if old:
            at[u] ^= 1 << old
            at[v] ^= 1 << old
        col[i] = c
        at[u] |= 1 << c
        at[v] |= 1 << c

    def fold(x: int, fan: list[int], rim: list[int]) -> None:
        # Precondition: some colour is missing at both x and the last rim
        # vertex.  Shifts colours down the fan until the seed edge is done.
        while True:
            common = full & ~at[x] & ~at[rim[-1]]
            old = col[fan[-1]]
            assign(fan[-1], (common & -common).bit_length() - 1)
            if len(fan) == 1:
                return
            idx = next(i for i, y in enumerate(rim[:-1])
                       if not at[y] >> old & 1)
            del fan[idx + 1:]
            del rim[idx + 1:]

    def run_fan(seed: int, x: int, y0: int) -> None:
        fan = [seed]
        rim = [y0]
        fan_colours = 0  # of the fan's coloured edges, all at x
        rim_missing = full & ~at[y0]
        miss_x = full & ~at[x]
        while True:
            # Colours at x are distinct, so the lowest candidate colour
            # picks the edge that the key (colour, edge id) would.
            candidates = at[x] & rim_missing & ~fan_colours
            if not candidates:
                raise AssertionError("fan construction stalled below the bound")
            low = candidates & -candidates
            nxt = _edge_with_colour(inc, col, x, low.bit_length() - 1)
            u1, u2 = ends[nxt]
            z = u2 if u1 == x else u1
            fan.append(nxt)
            fan_colours |= low
            rim.append(z)
            miss_z = full & ~at[z]
            if miss_x & miss_z:
                fold(x, fan, rim)
                return
            hit = None
            for i, y in enumerate(rim[:-1]):
                if y != z and full & ~at[y] & miss_z:
                    hit = i
                    break
            if hit is not None:
                yi = rim[hit]
                both = full & ~at[yi] & miss_z
                a = (both & -both).bit_length() - 1
                b = (miss_x & -miss_x).bit_length() - 1
                if _flip_chain(ends, inc, col, at, yi, a, b, x):
                    del fan[hit + 1:]
                    del rim[hit + 1:]
                    fold(x, fan, rim)
                else:
                    if not _flip_chain(ends, inc, col, at, z, a, b, x):
                        raise AssertionError(
                            "both alternating chains reached the fan anchor")
                    fold(x, fan, rim)
                return
            rim_missing |= miss_z

    for i, (u, v) in enumerate(ends):
        common = full & ~(at[u] | at[v])
        if common:
            assign(i, (common & -common).bit_length() - 1)
            continue
        x, y = (u, v) if g.degree(u) <= g.degree(v) else (v, u)
        run_fan(i, x, y)

    colour: dict[EdgeId, int] = {}
    certify(g.ids, ends, [full] * len(ends), [0] * g.n, enumerate(col), colour)
    return colour
