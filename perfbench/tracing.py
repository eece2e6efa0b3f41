"""Layer tracing for the benchmark's traced mode.

The tracer wraps the public functions of each farmap layer module (and a
few StarUnfolding methods plus the ConeSurface.diameter property) from
outside the package: every module attribute that refers to a wrapped
function is swapped for the wrapper, so calls through `from .x import f`
bindings are traced too, and `uninstall` puts the originals back.

Spans (name, start, end, parent) are kept in memory. Functions that run
hundreds of thousands of times per run (the star-path and triple tests)
only increment a counter, since a span each would dominate the run.
"""

import contextlib
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict

LAYERS = ("surface", "geodesics", "star_unfold", "farthest", "dynamics",
          "cutlocus", "curves", "cli")

# StarUnfolding methods traced as star_unfold spans
UNFOLDING_METHODS = ("fold_back", "dev_point", "fold_segment")

# counted, never spanned: each call is microseconds
COUNT_ONLY = {"farthest.triple_conditions", "star_unfold.is_star_path"}

# count-only name -> (direct parent span, counter of the calls under it)
COUNT_UNDER = {"farthest.triple_conditions":
               ("farthest.good_triples", "farthest.good_triples.tested")}


def _good_triples_hook(tracer, args, result):
    tracer.counts["farthest.good_triples.found"] += len(result)


def _iterate_hook(tracer, args, result):
    tracer.counts["dynamics.iterate.steps"] += len(result.step_sizes)


def _trace_curves_hook(tracer, args, result):
    tracer.counts["curves.curves.count"] += len(result)


RESULT_HOOKS = {
    "farthest.good_triples": _good_triples_hook,
    "dynamics.iterate": _iterate_hook,
    "curves.trace_curves": _trace_curves_hook,
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans = self.spans
        stack = self._stack
        hook = RESULT_HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts
        spans = self.spans
        stack = self._stack
        key = name + ".calls"
        # a triple test made directly by the triple search is one of the
        # triples it tested: the denominator of farthest.good_ratio
        under, under_key = COUNT_UNDER.get(name, (None, None))

        def counted(*args, **kwargs):
            counts[key] += 1
            if under is not None and stack and spans[stack[-1]][0] == under:
                counts[under_key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name, fn):
        if name in COUNT_ONLY:
            return self._count_wrapper(name, fn)
        return self._span_wrapper(name, fn)

    # -- installation -------------------------------------------------------

    def install(self):
        import farmap
        modules = [importlib.import_module(f"farmap.{m.name}")
                   for m in pkgutil.iter_modules(farmap.__path__)]
        modules.append(farmap)
        replace = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"farmap.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    replace[id(obj)] = (obj, self._wrap(f"{layer}.{attr}",
                                                        obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    self._patch(mod, attr, replace[id(obj)][1])

        from farmap.star_unfold import StarUnfolding
        from farmap.surface import ConeSurface
        for meth in UNFOLDING_METHODS + ("is_star_path",):
            orig = vars(StarUnfolding)[meth]
            self._patch(StarUnfolding, meth,
                        self._wrap(f"star_unfold.{meth}", orig))
        fget = ConeSurface.diameter.fget
        timed = self._span_wrapper("surface.diameter", fget)

        def diameter(surface):
            # only the first access computes; later ones read the cache
            if surface._diameter is None:
                return timed(surface)
            return surface._diameter

        self._patch(ConeSurface, "diameter", property(diameter))

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- reduction ----------------------------------------------------------

    def totals(self):
        """Per span name: calls, inclusive ms and self ms (inclusive minus
        the time covered by direct child spans)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for i, (name, t0, t1, _) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["ms"] += 1e3 * (t1 - t0)
            agg["self_ms"] += 1e3 * (t1 - t0 - child[i])
        return out

    def calls_under(self, name, parent_name):
        """Calls of `name` whose direct parent span is `parent_name`."""
        spans = self.spans
        return sum(1 for n, _, _, p in spans
                   if n == name and p >= 0 and spans[p][0] == parent_name)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)},
                      fh)


def per_layer_metrics(tracer):
    """The benchmark's per-layer metrics from one traced run."""
    t = tracer.totals()
    c = tracer.counts

    def span(name, field):
        return t[name][field] if name in t else 0

    tested = c["farthest.good_triples.tested"]
    found = c["farthest.good_triples.found"]
    values = {
        "surface.build.ms": (span("surface.build_from_vertices", "ms")
                             + span("surface.build_from_gluing", "ms")),
        "surface.diameter.ms": span("surface.diameter", "ms"),
        "star_unfold.is_star_path.calls": c["star_unfold.is_star_path.calls"],
        "farthest.triple_conditions.calls":
            c["farthest.triple_conditions.calls"],
        "farthest.good_triples.found": found,
        "farthest.good_ratio": found / tested if tested else 0.0,
        "dynamics.iterate.steps": c["dynamics.iterate.steps"],
        "curves.evaluate_f.calls": tracer.calls_under(
            "farthest.evaluate_f", "curves.trace_curves"),
        "curves.curves.count": c["curves.curves.count"],
    }
    for name, fields in PER_LAYER_SPANS.items():
        for field in fields:
            values[f"{name}.{field}"] = span(name, field)
    return values


# span name -> reported fields
PER_LAYER_SPANS = {
    "geodesics.paths_to_cone_points": ("calls", "ms"),
    "geodesics.distance": ("calls", "ms"),
    "geodesics.minimizers": ("calls", "ms"),
    "geodesics.trace_ray": ("calls",),
    "star_unfold.unfold": ("calls", "self_ms"),
    "star_unfold.fold_back": ("calls", "self_ms"),
    "farthest.evaluate_f": ("calls", "self_ms"),
    "farthest.good_triples": ("ms",),
    "dynamics.iterate": ("self_ms",),
    "dynamics.certify_limit": ("ms",),
    "dynamics.periodicity_scan": ("ms",),
    "cli.cmd_orbit": ("self_ms",),
    "cutlocus.cut_locus": ("ms",),
    "cutlocus.build_regions": ("self_ms",),
    "cutlocus.region_isometries": ("ms",),
    "curves.probe_equations": ("ms",),
    "curves.trace_curves": ("self_ms",),
}
