"""Spans around edgeext's public functions, for the traced run only.

``Tracer.installed`` replaces each function in ``WRAPPED`` with a wrapper
in every ``edgeext`` namespace that binds it (``from ... import`` makes
copies of the name), and each wrapped ``MultiGraph`` method on the class.
Leaving the block puts every original back.  A wrapper records one span
per call -- name, start, end, parent -- in flat in-memory arrays; a
wrapped generator records one span per resumption.  Counters come from
return values.  Nothing is written until ``write``.

Wrapping costs time on every call, so untraced runs never install it and
end-to-end figures come only from untraced runs.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

LAYERS = ("core", "colouring", "exact", "kernels", "gallai", "planar",
          "instances")

# Public functions and MultiGraph methods wrapped, by layer.  None of them
# calls itself through its wrapper, so a name's spans never nest and their
# sum is the time spent in that function.
WRAPPED = {
    "core": ("MultiGraph.__init__", "MultiGraph.components",
             "MultiGraph.delete_edges", "MultiGraph.restrict_edges",
             "line_graph", "degree_stats", "edge_distance",
             "is_distance_matching"),
    "colouring": ("is_proper", "validate_precolouring", "reduce_to_lists",
                  "merge_colourings", "precoloured_degree_vertex"),
    "exact": ("solve_list", "extend", "vizing_colour"),
    "kernels": ("find_bipartition", "konig_colour", "galvin_orient",
                "kernel", "list_colour_bipartite", "extend_bipartite"),
    "gallai": ("block_decompose", "degree_list_colour", "solve_vertex_lists",
               "exception_shape", "extend_gallai", "extend_subcubic"),
    "planar": ("find_reducible", "colour_even_cycle_lists", "extend_planar"),
    "instances": ("verify", "canonical_form", "enumerate_multigraphs",
                  "enumerate_edge_sets", "enumerate_precolourings"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _function_wrapper(self, original, nid, observe):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _generator_wrapper(self, original, nid, name):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns
        counters = self.counters
        yields = name + ".yields"

        def resume(inner):
            while True:
                idx = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(idx)
                starts.append(clock())
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    ends[idx] = clock()
                    stack.pop()
                counters[yields] += 1
                yield item

        def wrapper(*args, **kwargs):
            return resume(original(*args, **kwargs))

        wrapper.__wrapped__ = original
        return wrapper

    def _observer(self, name, program):
        """Counter updates read from a wrapped function's return value."""
        c = self.counters
        if name == "exact.solve_list":
            def observe(out):
                c["exact.nodes"] += out.nodes
            return observe
        if name == "kernels.list_colour_bipartite":
            fallback = program.kernels.EXACT_FALLBACK

            def observe(out):
                c["kernels.exact_fallbacks"] += out.method == fallback
            return observe
        if name == "planar.find_reducible":
            even = program.planar.EVEN_CYCLE

            def observe(cfg):
                c["planar.even_cycle_reductions"] += (
                    cfg is not None and cfg.kind == even)
            return observe
        if name == "planar.extend_planar":
            fallback = program.planar.EXACT_FALLBACK

            def observe(out):
                c["planar.exact_fallbacks"] += out.method == fallback
            return observe
        return None

    # -- installing --------------------------------------------------------

    @contextmanager
    def installed(self, program):
        """Wrap every function in WRAPPED for the duration of the block."""
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if key == "edgeext" or key.startswith("edgeext.")]
        try:
            for layer, entries in WRAPPED.items():
                module = getattr(program, layer)
                for entry in entries:
                    self._install(program, module, layer, entry, namespaces)
            yield self
        finally:
            self.uninstall()

    def _install(self, program, module, layer, entry, namespaces):
        name = f"{layer}.{entry}"
        nid = self._name_id(name)
        if "." in entry:
            cls_name, attr = entry.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            self._patch(owner, attr, original,
                        self._function_wrapper(original, nid, None))
            return
        original = getattr(module, entry)
        if inspect.isgeneratorfunction(original):
            wrapper = self._generator_wrapper(original, nid, name)
        else:
            wrapper = self._function_wrapper(
                original, nid, self._observer(name, program))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patch(ns, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def summary(self):
        """Self time per layer, inclusive time and calls per name (seconds
        and counts over everything recorded)."""
        n = len(self.span_start)
        child = array("q", bytes(8 * n))
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_ns = Counter()
        total_ns = Counter()
        calls = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = ends[i] - starts[i]
            self_ns[name.split(".", 1)[0]] += dur - child[i]
            total_ns[name] += dur
            calls[name] += 1
        return ({k: v / 1e9 for k, v in self_ns.items()},
                {k: v / 1e9 for k, v in total_ns.items()}, calls)

    def write(self, path):
        """Spans, gzipped, as tab-separated name, start_ns, end_ns and the
        index of the parent span (-1 for none)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]}\t{self.span_end[i]}\t"
                         f"{self.span_parent[i]}\n")
