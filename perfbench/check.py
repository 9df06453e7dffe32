"""Output checks that share no code with edgeext.

Every function here works on plain edge triples ``(edge_id, u, v)`` and
plain colour mappings, so a fault in the library's own validation
(``is_proper``, ``validate_precolouring``) cannot hide a wrong answer.
"""

from __future__ import annotations


def colouring_faults(edges, colouring, palette, precolouring=None):
    """List every way ``colouring`` fails to be a proper extension.

    ``edges`` is a sequence of (edge_id, u, v) triples, ``palette`` the
    number of colours k (colours are 1..k), ``precolouring`` the edges
    whose colour must survive.  An empty list means the colouring is a
    proper edge-colouring of every edge from the palette.
    """
    faults = []
    if not isinstance(colouring, dict):
        return [f"colouring is {type(colouring).__name__}, not a mapping"]
    ids = {eid for eid, _, _ in edges}
    for eid in colouring:
        if eid not in ids:
            faults.append(f"colour given to unknown edge {eid!r}")
    seen = {}
    for eid, u, v in edges:
        if eid not in colouring:
            faults.append(f"edge {eid!r} left uncoloured")
            continue
        c = colouring[eid]
        if type(c) is not int or not 1 <= c <= palette:
            faults.append(f"edge {eid!r} has colour {c!r} outside [{palette}]")
        for w in (u, v):
            other = seen.get((w, c))
            if other is not None:
                faults.append(f"edges {other!r} and {eid!r} share colour "
                              f"{c!r} at vertex {w}")
            seen[(w, c)] = eid
    for eid, c in (precolouring or {}).items():
        if colouring.get(eid) != c:
            faults.append(f"precoloured edge {eid!r} changed from {c!r} "
                          f"to {colouring.get(eid)!r}")
    return faults


def max_degree_and_multiplicity(edges):
    degree = {}
    mult = {}
    for _, u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
        pair = (u, v) if u < v else (v, u)
        mult[pair] = mult.get(pair, 0) + 1
    return max(degree.values(), default=0), max(mult.values(), default=0)


def vizing_bound(edges):
    """min(Delta+mu, max(floor(3*Delta/2), Delta+1)): Vizing and Shannon."""
    delta, mu = max_degree_and_multiplicity(edges)
    return min(delta + mu, max(3 * delta // 2, delta + 1))


def vizing_faults(edges, colouring):
    """Faults of a full colouring that must stay within the Vizing bound."""
    return colouring_faults(edges, colouring, vizing_bound(edges))


def refutation(edges, precolouring, palette):
    """A reason no extension into [palette] exists, or None.

    Two arguments cover the paper's sharpness families:

    * pigeonhole: at some vertex the uncoloured edges can draw, between
      them, on fewer colours than there are such edges (subdivided star
      at [s], multi-star at [Delta+k-1]);
    * parity: a vertex of degree ``palette`` must see every colour.  For a
      colour c, the uncoloured edges that may still take c, restricted to
      such vertices lacking c, must contain a perfect matching of each of
      their components that consists only of such vertices, so an odd one
      rules out an extension (chain of blocks at [Delta]).
    """
    incident = {}
    for eid, u, v in edges:
        incident.setdefault(u, []).append(eid)
        incident.setdefault(v, []).append(eid)
    ends = {eid: (u, v) for eid, u, v in edges}
    present = {w: {precolouring[e] for e in es if e in precolouring}
               for w, es in incident.items()}
    free = {}
    for eid, (u, v) in ends.items():
        if eid not in precolouring:
            free[eid] = (set(range(1, palette + 1))
                         - present[u] - present[v])

    for w, es in sorted(incident.items()):
        open_edges = [e for e in es if e not in precolouring]
        usable = set()
        for e in open_edges:
            usable |= free[e]
        if len(usable) < len(open_edges):
            return (f"pigeonhole at vertex {w}: {len(open_edges)} uncoloured "
                    f"edges, {len(usable)} usable colours")

    for c in range(1, palette + 1):
        demanding = {w for w, es in incident.items()
                     if len(es) == palette and c not in present[w]}
        adjacency = {w: [] for w in demanding}
        for eid, cols in free.items():
            u, v = ends[eid]
            if c in cols and u in demanding and v in demanding:
                adjacency[u].append(v)
                adjacency[v].append(u)
        # A demanding vertex may also take c on an edge to a vertex that
        # does not demand it; such a vertex leaves its component unforced.
        escapes = set()
        for eid, cols in free.items():
            u, v = ends[eid]
            if c in cols and (u in demanding) != (v in demanding):
                escapes.add(u if u in demanding else v)
        seen = set()
        for start in sorted(demanding):
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            for w in comp:
                for x in adjacency[w]:
                    if x not in seen:
                        seen.add(x)
                        comp.append(x)
            if len(comp) % 2 == 1 and not escapes.intersection(comp):
                return (f"parity: colour {c} must match {len(comp)} "
                        f"vertices of degree {palette} among themselves")
    return None
