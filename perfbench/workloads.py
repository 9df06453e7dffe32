"""The four workloads: what each builds, runs, times and checks.

A workload builds its inputs once (``setup``), then repeats whole rounds
of the same operations (``run_round``) until the run's time is up, and
finally re-checks what the timed phase could not (``post_check``).  The
library is reached only through the modules in a ``Program``, so the
traced run sees every call the workload makes.

Each mix is shaped so that the 50th and 90th percentiles of its
per-instance times fall inside one size class, not on the boundary
between two: a percentile on a boundary jumps between the two classes'
times from run to run.  README.md gives the shape and the reference
times behind it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import check

# Sweep bounds: a full round takes 1-2 s on one core.  ``reduced`` is for
# the benchmark's own tests.
SWEEPS = {
    "sweep-bipartite": {
        "full": ("bipartite-extension",
                 {"max_n": 7, "max_e": 6, "max_mu": 2, "max_k": 2}),
        "reduced": ("bipartite-extension",
                    {"max_n": 5, "max_e": 4, "max_mu": 2, "max_k": 2}),
    },
    "sweep-subcubic": {
        "full": ("subcubic-matching-extension",
                 {"max_n": 8, "max_e": 7, "max_mu": 3, "delta_max": 3}),
        "reduced": ("subcubic-matching-extension",
                    {"max_n": 6, "max_e": 5, "max_mu": 3, "delta_max": 3}),
    },
}

SWEEP_SAMPLE = {"full": 100, "reduced": 10}


@dataclass
class Program:
    """The edgeext modules a workload calls, from one import."""

    core: object
    colouring: object
    exact: object
    kernels: object
    gallai: object
    planar: object
    instances: object


@dataclass
class Outcome:
    """One operation: when it ran, how many instances it decided, and what
    went wrong, if anything.  ``seconds`` is its time to a verdict at the
    reference speed, set once the phase is over (see clock.py)."""

    start: float
    end: float
    instances: int
    error: str | None = None      # raised, or gave no verdict
    wrong: str | None = None      # gave a verdict the checks reject
    seconds: float = 0.0

    @property
    def timed(self) -> bool:
        return self.error is None and self.end > self.start


@dataclass
class RoundResult:
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def instances(self) -> int:
        return sum(o.instances for o in self.outcomes)


# -- sweeps ----------------------------------------------------------------

class Sweep:
    """One ``instances.verify`` call per round; instances decided per second
    of that call.  After the timed phase, a seeded sample of the sweep's
    instances is solved again through the public extender and checked, and
    the graph and instance counts are compared with counts made without
    edgeext (``counts.py``)."""

    def __init__(self, name: str, size: str = "full"):
        self.name = name
        self.claim, self.bounds = SWEEPS[name][size]
        self.sample_size = SWEEP_SAMPLE[size]
        self.expected = None

    def setup(self, p: Program, seed: int):
        rng = random.Random(seed)
        b = self.bounds
        graphs = list(p.instances.enumerate_multigraphs(
            b["max_n"], b["max_e"], b["max_mu"],
            delta_max=b.get("delta_max")))
        sample = []
        if self.claim == "bipartite-extension":
            pool = []
            for g in graphs:
                try:
                    pool.append((g, p.kernels.find_bipartition(g)))
                except p.core.InputError:
                    pass
            while len(sample) < self.sample_size:
                g, side = rng.choice(pool)
                k = rng.randint(1, b["max_k"])
                palette = p.colouring.Palette(g.delta() + k)
                options = [pre for pre in p.instances.enumerate_precolourings(
                           g, palette, t=0) if _max_load(g, pre) <= k]
                sample.append((g, side, rng.choice(options), k))
        else:
            palette = p.colouring.Palette(4)
            while len(sample) < self.sample_size:
                g = rng.choice(graphs)
                options = list(p.instances.enumerate_precolourings(
                    g, palette, t=1))
                sample.append((g, None, rng.choice(options), None))
        return sample

    def prepare(self):
        """Counts made apart from edgeext, before the timed phase."""
        from counts import sweep_counts
        self.expected = sweep_counts(self.claim, self.bounds)

    def run_round(self, p: Program, inputs, watch) -> RoundResult:
        graphs, instances = self.expected
        try:
            start, end, report = watch.call(
                lambda: p.instances.verify(self.claim, jobs=1, **self.bounds))
        except Exception as exc:  # recorded as a failed operation
            return RoundResult([Outcome(0, 0, instances, error=repr(exc))])
        wrong = []
        if not report.ok:
            wrong.append(f"counterexample {report.counterexample}")
        if (report.graphs, report.instances) != (graphs, instances):
            wrong.append(f"verify counted {report.graphs} graphs and "
                         f"{report.instances} instances, expected {graphs} "
                         f"and {instances}")
        return RoundResult([Outcome(start, end, report.instances,
                                    wrong="; ".join(wrong) or None)])

    def post_check(self, p: Program, inputs) -> RoundResult:
        """The seeded sample, solved again through the public extender."""
        result = RoundResult()
        for g, side, pre, k in inputs:
            edges = [tuple(e) for e in g.edges]
            try:
                if self.claim == "bipartite-extension":
                    out = p.kernels.extend_bipartite(g, side, pre, k)
                    palette = check.max_degree_and_multiplicity(edges)[0] + k
                else:
                    out = p.gallai.extend_subcubic(g, pre)
                    palette = 4
            except Exception as exc:  # recorded as a failed operation
                result.outcomes.append(Outcome(0, 0, 1, error=repr(exc)))
                continue
            faults = (["not solved"] if not out.solved else
                      check.colouring_faults(edges, out.colouring, palette, pre))
            result.outcomes.append(Outcome(0, 0, 1,
                                           wrong="; ".join(faults) or None))
        return result


def _max_load(g, pre):
    load = {}
    for eid in pre:
        for w in g.endpoints(eid):
            load[w] = load.get(w, 0) + 1
    return max(load.values(), default=0)


# -- single instances ------------------------------------------------------

@dataclass
class Case:
    """One instance of a mix: a call and how to check its answer."""

    label: str
    call: object                  # () -> result
    check: object                 # result -> list of faults


class Mix:
    """Rounds over a fixed list of cases, each timed on its own."""

    name = ""

    def __init__(self, size: str = "full"):
        self.size = size

    def setup(self, p: Program, seed: int) -> list[Case]:
        raise NotImplementedError

    def run_round(self, p: Program, cases: list[Case], watch) -> RoundResult:
        result = RoundResult()
        for case in cases:
            try:
                start, end, answer = watch.call(case.call)
            except Exception as exc:  # recorded as a failed operation
                result.outcomes.append(Outcome(
                    0, 0, 1, error=f"{case.label}: {exc!r}"))
                continue
            faults = case.check(answer)
            result.outcomes.append(Outcome(
                start, end, 1,
                wrong=f"{case.label}: " + "; ".join(faults) if faults else None))
        return result

    def prepare(self):
        pass

    def post_check(self, p: Program, cases) -> RoundResult:
        return RoundResult()


def random_multigraph(p: Program, rng, n: int, degree: int, mu: int = 2):
    """Random multigraph, multiplicity at most ``mu``, in which two hub
    vertices have degree ``degree`` + 4 and every other vertex ``degree``
    (a few one or two short): random pairings of vertex stubs, re-paired
    where they make a loop or too many parallel edges.

    Fixing the degrees fixes Delta and so the palette, which keeps the
    cost of one instance close to that of any other of its size.  The
    hubs leave every other vertex four colours of slack under a Delta+mu
    palette; without them, exact search on some seeds backtracks for
    minutes."""
    stubs = [v for v in range(n) for _ in range(degree + 4 * (v < 2))]
    mult = {}
    edges = []
    for _ in range(20):
        rng.shuffle(stubs)
        left = []
        for i in range(0, len(stubs) - 1, 2):
            u, v = stubs[i], stubs[i + 1]
            pair = (min(u, v), max(u, v))
            if u == v or mult.get(pair, 0) >= mu:
                left += (u, v)
                continue
            mult[pair] = mult.get(pair, 0) + 1
            edges.append((len(edges), u, v))
        stubs = left
        if not stubs:
            break
    return p.core.MultiGraph(n, edges)


def random_precoloured_matching(rng, edges, palette, limit, t=1):
    """Random proper precolouring of up to ``limit`` edges pairwise more
    than t apart, taken greedily in a random order."""
    incident = {}
    for eid, u, v in edges:
        incident.setdefault(u, []).append(v)
        incident.setdefault(v, []).append(u)

    def near(vertices, radius):
        # Vertices within ``radius`` steps of the given ones.
        seen = set(vertices)
        frontier = list(vertices)
        for _ in range(radius):
            frontier = [x for w in frontier for x in incident[w]
                        if x not in seen]
            seen.update(frontier)
        return seen

    order = list(edges)
    rng.shuffle(order)
    blocked = set()
    chosen = {}
    for eid, u, v in order:
        if len(chosen) >= limit:
            break
        if u in blocked or v in blocked:
            continue
        chosen[eid] = rng.randrange(1, palette + 1)
        # Edges at distance <= t touch a vertex within t-1 steps of u or v.
        blocked |= near((u, v), t - 1)
    return chosen


def _extension_check(edges, palette, pre):
    def faults(out):
        if not out.solved:
            return [f"status {out.status}, expected solved"]
        return check.colouring_faults(edges, out.colouring, palette, pre)
    return faults


class SolveLarge(Mix):
    """Seeded single instances that must all come back solved.

    Classes, fastest first (times on one 2.x GHz core):
      fast  12: vizing_colour at ~1,500 edges, extend_planar on wheels
                with hub degree 17 and 24 and on hub triangulations with
                Delta 18 (1-17 ms)
      p50   24: exact.extend at ~240 edges (23-40 ms)
      mid    4: extend_planar on wheel(80) and on a hub triangulation
                with Delta 20 and 219 edges (30-70 ms)
      p90   10: exact.extend at ~520 edges (110-190 ms)
    Every precolouring has a fixed number of edges, and every random
    multigraph a fixed degree sequence, so seeds differ in structure only.
    """

    name = "solve-large"

    SIZES = {
        # (count, kind, params); params are (n, degree) for vizing and
        # extend, the generator's arguments otherwise
        "full": [(4, "vizing", (150, 20)),
                 (1, "wheel", (17,)), (1, "wheel", (24,)),
                 (2, "hub", (18, 20)),
                 (24, "extend", (60, 8)),
                 (1, "wheel", (80,)),
                 (1, "hub", (20, 60)),
                 (10, "extend", (130, 8))],
        "reduced": [(1, "vizing", (60, 10)), (1, "wheel", (17,)),
                    (1, "extend", (30, 4))],
    }

    def setup(self, p: Program, seed: int) -> list[Case]:
        rng = random.Random(seed)
        cases = []
        for count, kind, params in self.SIZES[self.size]:
            for _ in range(count):
                if kind == "vizing":
                    cases.append(self._vizing(p, rng, *params))
                elif kind == "extend":
                    cases.append(self._extend(p, rng, *params))
                else:
                    if kind == "wheel":
                        g, _ = p.planar.wheel(*params)
                    else:
                        g, _ = p.planar.hub_triangulation(
                            *params, rng.randrange(1 << 30))
                    for mode in (p.planar.VARIANT_MATCHING,
                                 p.planar.VARIANT_DISTANCE3):
                        cases.append(self._planar(p, rng, g, mode,
                                                  f"{kind}{params}"))
        return cases

    def _vizing(self, p, rng, n, degree):
        g = random_multigraph(p, rng, n, degree)
        edges = [tuple(e) for e in g.edges]
        return Case(f"vizing_colour n={n} degree={degree}",
                    lambda: p.exact.vizing_colour(g),
                    lambda col: check.vizing_faults(edges, col))

    def _extend(self, p, rng, n, degree):
        g = random_multigraph(p, rng, n, degree)
        edges = [tuple(e) for e in g.edges]
        delta, mu = check.max_degree_and_multiplicity(edges)
        palette = delta + mu
        pre = random_precoloured_matching(rng, edges, palette, n // 4)
        pal = p.colouring.Palette(palette)
        return Case(f"extend n={n} degree={degree} palette={palette}",
                    lambda: p.exact.extend(g, pre, pal),
                    _extension_check(edges, palette, pre))

    def _planar(self, p, rng, g, mode, label):
        edges = [tuple(e) for e in g.edges]
        delta, _ = check.max_degree_and_multiplicity(edges)
        if mode == p.planar.VARIANT_MATCHING:
            palette, t = delta + 1, 1
        else:
            palette, t = delta, 3
        # Few precoloured edges: extend_planar checks the distance of
        # every pair, which would otherwise dominate the call.
        pre = random_precoloured_matching(rng, edges, palette, 3, t=t)
        return Case(f"extend_planar {label} {mode}",
                    lambda: p.planar.extend_planar(g, pre, mode),
                    _extension_check(edges, palette, pre))


class RefuteSharp(Mix):
    """The sharpness families through ``exact.extend``: unsolvable at the
    threshold palette, solved with one colour more.  One instance is both
    calls; its time to a verdict is their sum.

    The seed relabels vertices and edge ids, which leaves the search's
    node counts unchanged.  Permuting colours would not: it moves a
    star's refutation by up to a tenth of its nodes.

    Classes, fastest first:
      fast    6: chains (4,1), (4,2), (6,1); stars and multi-stars with
                 s<=5 (0.5-2 ms)
      p50    28: stars and multi-stars with s=6 (~3.3 ms), then chains
                 (4,4), (8,1), (6,2) (4-6 ms)
      p90     4: stars and multi-stars with s=7 (~18 ms)
      top     2: subdivided stars s=8 (~130 ms) and s=9 (~1 s)
    """

    name = "refute-sharp"

    SIZES = {
        # (count, family, params)
        "full": [(1, "chain-blocks", (4, 1)), (1, "chain-blocks", (4, 2)),
                 (1, "chain-blocks", (6, 1)),
                 (1, "subdivided-star", (5,)), (1, "multi-star", (5, 2)),
                 (1, "multi-star", (4, 2)),
                 (7, "subdivided-star", (6,)), (7, "multi-star", (6, 2)),
                 (6, "multi-star", (6, 3)),
                 (3, "chain-blocks", (4, 4)), (3, "chain-blocks", (8, 1)),
                 (2, "chain-blocks", (6, 2)),
                 (2, "subdivided-star", (7,)), (2, "multi-star", (7, 2)),
                 (1, "subdivided-star", (8,)), (1, "subdivided-star", (9,))],
        "reduced": [(1, "chain-blocks", (4, 1)), (1, "subdivided-star", (4,)),
                    (1, "multi-star", (4, 2))],
    }

    def setup(self, p: Program, seed: int) -> list[Case]:
        rng = random.Random(seed)
        cases = []
        for count, family, params in self.SIZES[self.size]:
            spec = p.instances.FamilySpec(family, params)
            for _ in range(count):
                g, pre, palette = p.instances.generate(spec)
                cases.append(self._case(p, rng, g, pre, palette.k,
                                        f"{family}{params}"))
        return cases

    def _case(self, p, rng, g, pre, threshold, label):
        g, pre = self._relabel(p, rng, g, pre)
        edges = [tuple(e) for e in g.edges]
        below = p.colouring.Palette(threshold)
        above = p.colouring.Palette(threshold + 1)
        expected = self._threshold(label, edges, pre)

        def call():
            return (p.exact.extend(g, pre, below),
                    p.exact.extend(g, pre, above))

        def faults(answers):
            refuted, solved = answers
            out = []
            if threshold != expected:
                out.append(f"palette [{threshold}], the family's threshold "
                           f"is [{expected}]")
            if refuted.status != p.exact.UNSOLVABLE:
                out.append(f"status {refuted.status} at [{threshold}], "
                           f"expected unsolvable")
            elif check.refutation(edges, pre, threshold) is None:
                out.append(f"unsolvable at [{threshold}] without a "
                           f"sharpness argument")
            if not solved.solved:
                out.append(f"status {solved.status} at [{threshold + 1}]")
            else:
                out += check.colouring_faults(edges, solved.colouring,
                                              threshold + 1, pre)
            return out

        return Case(label, call, faults)

    @staticmethod
    def _threshold(label, edges, pre):
        """The paper's threshold palette, from the instance itself."""
        delta, mu = check.max_degree_and_multiplicity(edges)
        if label.startswith("subdivided-star"):
            return delta                      # [s], s the centre degree
        if label.startswith("multi-star"):
            return delta + mu - 1             # [Delta+k-1], k = mu
        return delta                          # chain of blocks: [Delta]

    @staticmethod
    def _relabel(p, rng, g, pre):
        vertices = list(range(g.n))
        rng.shuffle(vertices)
        ids = list(range(len(g.edges)))
        rng.shuffle(ids)
        new_id = {eid: ids[i] for i, (eid, _, _) in enumerate(g.edges)}
        edges = [(new_id[eid], vertices[u], vertices[v])
                 for eid, u, v in g.edges]
        rng.shuffle(edges)
        return (p.core.MultiGraph(g.n, edges),
                {new_id[eid]: c for eid, c in pre.items()})


def make(name: str, size: str = "full"):
    if name in SWEEPS:
        return Sweep(name, size)
    for cls in (SolveLarge, RefuteSharp):
        if cls.name == name:
            return cls(size)
    raise KeyError(name)


WORKLOADS = tuple(SWEEPS) + (SolveLarge.name, RefuteSharp.name)
