"""Sweep sizes counted without edgeext.

``instances.verify`` counts graphs with its own canonical form and
instances with its own precolouring enumerator.  This module counts the
same things another way: graphs are grown edge by edge as networkx graphs
and deduplicated with networkx isomorphism tests, and precolourings are
counted as set partitions of edge subsets, by brute force.

    python3 perfbench/counts.py     # print the counts of every sweep

After its timed phase, each sweep run recomputes these counts and
compares them with its ``report.graphs`` and ``report.instances``.
"""

from __future__ import annotations

import itertools
import os
import sys


def connected_multigraphs(max_n, max_e, max_mu, delta_max=None):
    """One networkx graph per isomorphism class, edge attribute 'm' the
    multiplicity; connected, no isolated vertices, 1..max_e edges."""
    import networkx as nx
    from networkx.algorithms.isomorphism import numerical_edge_match

    match = numerical_edge_match("m", 1)
    cap = delta_max if delta_max is not None else max_e

    def signature(h):
        return (h.number_of_nodes(),
                tuple(sorted(d for _, d in h.degree(weight="m"))),
                nx.weisfeiler_lehman_graph_hash(h, edge_attr="m"))

    seed = nx.Graph()
    seed.add_edge(0, 1, m=1)
    level = [seed] if cap >= 1 else []
    out = list(level)
    for _ in range(1, max_e):
        buckets = {}
        nxt = []
        for h in level:
            deg = dict(h.degree(weight="m"))
            n = h.number_of_nodes()
            grown = []
            for u, v in itertools.combinations(range(n), 2):
                m = h.edges[u, v]["m"] if h.has_edge(u, v) else 0
                if m < max_mu and deg[u] < cap and deg[v] < cap:
                    c = h.copy()
                    c.add_edge(u, v, m=m + 1)
                    grown.append(c)
            if n < max_n:
                for u in range(n):
                    if deg[u] < cap:
                        c = h.copy()
                        c.add_edge(u, n, m=1)
                        grown.append(c)
            for c in grown:
                same = buckets.setdefault(signature(c), [])
                if not any(nx.is_isomorphic(c, o, edge_match=match)
                           for o in same):
                    same.append(c)
                    nxt.append(c)
        level = nxt
        out.extend(level)
    return out


def labelled_edges(h):
    return [(u, v) for u, v, data in sorted(h.edges(data=True))
            for _ in range(data["m"])]


def set_partitions(items):
    """Every partition of ``items`` into non-empty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def is_matching(edge_list):
    ends = [w for e in edge_list for w in e]
    return len(ends) == len(set(ends))


def colour_orbits(edge_list, colours):
    """Proper colourings of the edges from [colours], up to permuting
    colours: partitions into at most ``colours`` matchings."""
    return sum(1 for part in set_partitions(edge_list)
               if len(part) <= colours and all(map(is_matching, part)))


def bipartite_extension_instances(edges, max_k):
    """Precolourings of any edge subset, meeting each vertex at most k
    times, palette Delta+k, for k = 1..max_k."""
    degree = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    delta = max(degree.values())
    total = 0
    for k in range(1, max_k + 1):
        for r in range(len(edges) + 1):
            for subset in itertools.combinations(edges, r):
                load = {}
                for u, v in subset:
                    load[u] = load.get(u, 0) + 1
                    load[v] = load.get(v, 0) + 1
                if max(load.values(), default=0) <= k:
                    total += colour_orbits(list(subset), delta + k)
    return total


def subcubic_instances(edges):
    """Precoloured matchings from [4]."""
    total = 0
    for r in range(len(edges) + 1):
        for subset in itertools.combinations(edges, r):
            if is_matching(subset):
                total += colour_orbits(list(subset), 4)
    return total


def sweep_counts(claim, bounds):
    """(graphs, instances) that ``verify(claim, **bounds)`` must report."""
    import networkx as nx
    graphs = connected_multigraphs(bounds["max_n"], bounds["max_e"],
                                   bounds["max_mu"], bounds.get("delta_max"))
    instances = 0
    for h in graphs:
        edges = labelled_edges(h)
        if claim == "bipartite-extension":
            if nx.is_bipartite(h):
                instances += bipartite_extension_instances(
                    edges, bounds["max_k"])
        elif claim == "subcubic-matching-extension":
            instances += subcubic_instances(edges)
        else:
            raise ValueError(f"no independent count for claim {claim!r}")
    return len(graphs), instances


def main():
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import SWEEPS
    for name, sizes in SWEEPS.items():
        for size, (claim, bounds) in sizes.items():
            graphs, instances = sweep_counts(claim, bounds)
            print(f"{name} ({size}): verify({claim!r}, {bounds}) must report "
                  f"{graphs} graphs and {instances} instances", flush=True)


if __name__ == "__main__":
    main()
