"""Spans and counts at orbdim's layer boundaries, recorded from outside the program.

The tracer replaces each layer's public entry point with a wrapper in every
orbdim namespace that holds it: `cases` imports `screen_problematic_modules`
by name while `cli` reaches it as `orbifold.screen_problematic_modules`, so
both names are rebound.  Each call records a span (layer, start, end, parent)
and, for some layers, a count taken from the result.  The program's source is
not changed; uninstall() restores every rebound name.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_right
from itertools import accumulate
from math import prod

# layer name -> (home module, public entry point)
LAYERS = {
    "cases.verify_all": ("cases", "verify_all"),
    "cases.verify_case": ("cases", "verify_case"),
    "cases.fixed_dims": ("cases", "fixed_dims_profile"),
    "cli.regenerate_tables": ("cli", "regenerate_tables"),
    "orbifold.screen": ("orbifold", "screen_problematic_modules"),
    "orbifold.safe_rho_cap": ("orbifold", "safe_rho_cap"),
    "orbifold.alcove": ("orbifold", "alcove_representative"),
    "kacaut.admits": ("kacaut", "admits_fixed_subalgebra"),
    "kacaut.enumerate_classes": ("kacaut", "enumerate_classes"),
    "kacaut.inner": ("kacaut", "inner_from_coweight"),
    "liealg.weight_system": ("liealg", "weight_system"),
    "liealg.root_system": ("liealg", "build_root_system"),
    "liealg.dominant_weights": ("liealg", "dominant_weights_of_level"),
    "qseries.etaq_expand": ("qseries", "etaq_expand"),
    "modcurve.divisor": ("modcurve", "divisor"),
}

# layers whose lru cache statistics are read through the public cache_info()
CACHED = ("kacaut.enumerate_classes", "liealg.root_system")


def _count(layer, result):
    """The per-call count a layer contributes, taken from its result."""
    if layer == "orbifold.screen":
        return len(result)
    if layer == "kacaut.admits":
        return int(bool(result[0]))
    if layer == "kacaut.enumerate_classes":
        return len(result)
    if layer == "liealg.weight_system":
        return sum(result.values())
    if layer == "qseries.etaq_expand":
        return len(result.terms)
    return 0


class Tracer:
    """Installs wrappers on one fresh import of the program and keeps its spans."""

    def __init__(self, program):
        self.program = program
        self.spans = []          # [layer, start, end, parent index, count, note]
        self._stack = []
        self._rebound = []       # (namespace, attribute, original)
        self.originals = {}
        self._cache_start = {}
        self.missing = []

    def install(self):
        namespaces = [m for n, m in sys.modules.items()
                      if n == "orbdim" or n.startswith("orbdim.")]
        for layer, (home, name) in LAYERS.items():
            original = getattr(self.program.mods[home], name, None)
            if original is None:
                self.missing.append(layer)
                continue
            self.originals[layer] = original
            wrapper = self._wrap(layer, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._rebound.append((ns, attr, original))
        self._cache_start = {layer: self._cache_info(layer) for layer in CACHED}
        return self

    def uninstall(self):
        for ns, attr, original in reversed(self._rebound):
            setattr(ns, attr, original)
        self._rebound.clear()
        self.cache_delta = {}
        for layer in CACHED:
            now, start = self._cache_info(layer), self._cache_start[layer]
            self.cache_delta[layer] = (now[0] - start[0], now[1] - start[1])

    def _cache_info(self, layer):
        info = getattr(self.originals.get(layer), "cache_info", None)
        if info is None:
            return (0, 0)
        stats = info()
        return (stats.hits, stats.misses)

    def _wrap(self, layer, original):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            note = args[0].id if layer == "cases.verify_case" and args else None
            if layer == "orbifold.screen" and args:
                note = tuple(args[0].components)
            span = [layer, clock(), 0.0, stack[-1] if stack else -1, 0, note]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            span[4] = _count(layer, result)
            return result

        return traced

    def leave_out(self, ends, durations):
        """Stop the spans' clock while a probe ran (probes end at `ends`).

        A probe never runs between a span's clock reading and its use, so
        every span time falls outside the probes and moves back by the probe
        time before it.
        """
        before = [0.0, *accumulate(durations)]
        for span in self.spans:
            span[1] -= before[bisect_right(ends, span[1])]
            span[2] -= before[bisect_right(ends, span[2])]

    # -- aggregation ---------------------------------------------------------

    def layer_totals(self):
        """Per layer: calls, busy (outermost spans only), self time and counts."""
        children = [0.0] * len(self.spans)
        for layer, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0}
                  for layer in LAYERS}
        for index, (layer, start, end, parent, count, _) in enumerate(self.spans):
            row = totals[layer]
            row["calls"] += 1
            row["self_s"] += (end - start) - children[index]
            row["count"] += count
            if not self._has_ancestor(parent, layer):
                row["busy_s"] += end - start
        return totals

    def _has_ancestor(self, parent, layer):
        while parent >= 0:
            if self.spans[parent][0] == layer:
                return True
            parent = self.spans[parent][3]
        return False

    def calls_under(self, layer, root):
        """Calls of `layer` made inside `root` spans, per `root` span."""
        roots = {i for i, s in enumerate(self.spans) if s[0] == root}
        if not roots:
            return 0.0
        inside = 0
        for span in self.spans:
            if span[0] != layer:
                continue
            parent = span[3]
            while parent >= 0 and parent not in roots:
                parent = self.spans[parent][3]
            inside += parent >= 0
        return inside / len(roots)

    def case_seconds(self, case_id):
        return sum(s[2] - s[1] for s in self.spans
                   if s[0] == "cases.verify_case" and s[5] == case_id)

    def screen_space(self):
        """Sum over screening calls of the product of per-factor weight counts."""
        liealg = self.program.mods["liealg"]
        sizes = {}
        total = 0
        for span in self.spans:
            if span[0] != "orbifold.screen" or span[5] is None:
                continue
            factors = span[5]
            if factors not in sizes:
                sizes[factors] = prod(
                    len(liealg.dominant_weights_of_level(liealg.build_root_system(kind), level))
                    for kind, level in factors)
            total += sizes[factors]
        return total
