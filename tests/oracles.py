"""Reference implementations kept as test oracles.

``solve_list`` is the recursive backtracking list-edge-colourer that
``edgeext.exact.solve_list`` replaced.  It explores the same search tree
(branching edge, colour order, symmetry breaking and parity prune), so
the two must agree on status, colouring (insertion order included),
node count and depth.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from edgeext.core import EdgeId, InputError, MultiGraph, _id_sort_key
from edgeext.exact import (BUDGET, SOLVED, UNSOLVABLE, SolveOutcome,
                           _check_solution, _colours_of, _mask_of)


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
