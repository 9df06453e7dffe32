"""Shared hypothesis strategies for multigraph-based property tests."""

from hypothesis import strategies as st

from edgeext.core import MultiGraph


@st.composite
def multigraphs(draw, max_n=6, max_e=9, min_e=0, max_mu=None, max_degree=None,
                mixed_ids=False):
    """Loopless multigraphs, possibly disconnected; ``mixed_ids`` as in
    ``bipartite_multigraphs``."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    e = draw(st.integers(min_value=min_e, max_value=max_e))
    edges = []
    degrees = [0] * n
    mults = {}
    for i in range(e):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v:
            continue
        pair = (min(u, v), max(u, v))
        if max_mu is not None and mults.get(pair, 0) >= max_mu:
            continue
        if max_degree is not None and (degrees[u] >= max_degree
                                       or degrees[v] >= max_degree):
            continue
        mults[pair] = mults.get(pair, 0) + 1
        degrees[u] += 1
        degrees[v] += 1
        edges.append((len(edges), u, v))
    return MultiGraph(n, _mixed(draw, edges) if mixed_ids else edges)


def _mixed(draw, edges):
    labels = draw(st.permutations(range(len(edges))))
    return [(label if draw(st.booleans()) else str(label), u, v)
            for label, (_, u, v) in zip(labels, edges)]


@st.composite
def bipartite_multigraphs(draw, max_side=4, max_e=9, min_e=0, max_mu=None,
                          mixed_ids=False):
    """Bipartite multigraphs, X-side first.  With ``mixed_ids`` the edge
    ids are a shuffled 0..e-1, each kept as an int or turned into a str,
    so that edge order and edge-id order differ."""
    nx = draw(st.integers(min_value=1, max_value=max_side))
    ny = draw(st.integers(min_value=1, max_value=max_side))
    e = draw(st.integers(min_value=min_e, max_value=max_e))
    edges = []
    mults = {}
    for i in range(e):
        u = draw(st.integers(min_value=0, max_value=nx - 1))
        v = nx + draw(st.integers(min_value=0, max_value=ny - 1))
        if max_mu is not None and mults.get((u, v), 0) >= max_mu:
            continue
        mults[(u, v)] = mults.get((u, v), 0) + 1
        edges.append((len(edges), u, v))
    return MultiGraph(nx + ny, _mixed(draw, edges) if mixed_ids else edges)


def random_extension_instance(seed, n, m, precoloured=20):
    """Seeded random multigraph (multiplicity <= 2) with a precoloured
    matching of ``precoloured`` edges and the palette Delta+mu."""
    import random

    from edgeext.colouring import Palette

    rng = random.Random(seed)
    mults = {}
    edges = []
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        pair = (min(u, v), max(u, v))
        if mults.get(pair, 0) >= 2:
            continue
        mults[pair] = mults.get(pair, 0) + 1
        edges.append((len(edges), u, v))
    g = MultiGraph(n, edges)
    palette = Palette(g.delta() + g.mu())
    pre = {}
    covered = set()
    for eid, u, v in rng.sample(edges, m):
        if len(pre) == precoloured:
            break
        if u in covered or v in covered:
            continue
        covered.update((u, v))
        pre[eid] = rng.randint(1, palette.k)
    return g, pre, palette


def admissible_precolouring(g, q, k, rnd):
    """A random proper precolouring from [q], at most k edges a vertex."""
    pre = {}
    load = [0] * g.n
    used = [set() for _ in range(g.n)]
    for eid, u, v in g.edges:
        free = [c for c in range(1, q + 1) if c not in used[u] | used[v]]
        if free and max(load[u], load[v]) < k and rnd.random() < 0.5:
            pre[eid] = c = rnd.choice(free)
            for w in (u, v):
                load[w] += 1
                used[w].add(c)
    return pre


def prism(n):
    """The prism C_n x K_2: rim edges first, then rung i joining the two
    rims' vertex i, precoloured 1 + i % 3.  From the palette [4] each rim
    edge keeps two colours, as many as its uncoloured neighbours, so for
    odd n each rim is a tight odd cycle and only search colours it."""
    edges = []
    for i in range(n):
        edges.append((len(edges), i, (i + 1) % n))
        edges.append((len(edges), n + i, n + (i + 1) % n))
    pre = {}
    for i in range(n):
        pre[len(edges)] = 1 + i % 3
        edges.append((len(edges), i, n + i))
    return MultiGraph(2 * n, edges), pre
