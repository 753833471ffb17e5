"""Span tracing for the benchmark's traced runs.

The tracer wraps tautrel from outside.  A span marks a layer
boundary: a call of a public function of one layer module from code
outside that module (another module, the package namespace, the
benchmark).  Every module attribute that names such a function is
replaced by a wrapper, so ``solver.apply_r`` and ``operators.apply_r``
are both traced and the span remembers the module the function was
looked up from (its *site*).  Calls inside the defining module make
no span, except for the stages listed in ``INTRA_SPANS``; the public
methods listed in ``METHODS`` are wrapped on their class and always
make a span.

Spans (name, parent, start, end) are kept in flat arrays in memory.
Self time is a span's duration minus the durations of its direct
children; the code is single-threaded, so children never overlap.
Exact counts come from the ``cache_info()`` of the lru-cached
functions (taken relative to the moment of installation) and from
small hooks that measure arguments and results.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from sys import _getframe
from collections import Counter
from time import perf_counter

LAYERS = ("graphs", "sums", "gwi", "operators", "strata", "relations", "solver", "cli")

# layers whose self time is also charged to the layer that called them
UTILITIES = ("graphs", "sums")

# pipeline stages that make a span also when called from their own module
INTRA_SPANS = {
    "relations.psi_free_expansion",
    "solver.invariance_system",
    "solver.solve_nullspace",
    "solver.filter_trivial",
    "cli.cmd_find",
    "cli.cmd_check",
}

# span name of a function reached through another module's name
SITE_NAMES = {("relations", "enumerate_classes"): "strata.table_enumerate"}

# (module, class, method) -> span name
METHODS = {
    ("sums", "FormalSum", "__init__"): "sums.FormalSum",
    ("sums", "SymbolicSum", "__init__"): "sums.SymbolicSum",
    ("sums", "SymbolicSum", "specialize"): "sums.specialize",
    ("relations", "RelationRegistry", "relations"): "relations.relations",
    ("relations", "RelationRegistry", "normal_coords"): "relations.normal_coords",
    ("solver", "LinearSystem", "rank"): "solver.rank",
}

# lru-cached functions whose cache statistics are reported
CACHES = {
    "graphs.canonicalize": ("graphs", "canonicalize"),
    "graphs.sort_key": ("graphs", "sort_key"),
    "strata.stable_graphs": ("strata", "stable_graphs"),
    "relations.psi_free_expansion": ("relations", "psi_free_expansion"),
}

# (span name, site) pairs whose call counts are reported separately
SITE_COUNTS = {
    ("graphs.canonicalize", "strata"): "strata.canonicalize_calls",
    ("graphs.is_valid", "operators"): "operators.candidates",
}


def _sized(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


def _count_apply_r(c, args, kwargs, out):
    c["operators.apply_r.terms_in"] += len(args[0])
    c["operators.apply_r.terms_out"] += len(out)


def _count_normal_coords(c, args, kwargs, out):
    c["relations.normal_coords.terms_in"] += _sized(
        args[1] if len(args) > 1 else kwargs["terms"]
    )
    c["relations.normal_coords.coords_out"] += len(out)


def _count_enumerate(c, args, kwargs, out):
    c["strata.enumerate_classes.classes_out"] += len(out)


def _count_symmetrize(c, args, kwargs, out):
    c["graphs.symmetrize.terms_out"] += len(out)


def _count_parse_sum(c, args, kwargs, out):
    text = args[0] if args else kwargs["text"]
    c["gwi.parse_sum.bytes"] += len(text.encode())


def _count_format_sum(c, args, kwargs, out):
    c["gwi.format_sum.bytes"] += len(out.encode())


MEASURES = {
    "operators.apply_r": _count_apply_r,
    "relations.normal_coords": _count_normal_coords,
    "strata.enumerate_classes": _count_enumerate,
    "graphs.symmetrize": _count_symmetrize,
    "gwi.parse_sum": _count_parse_sum,
    "gwi.format_sum": _count_format_sum,
}


class Tracer:
    """Records spans of the wrapped functions of one process."""

    def __init__(self):
        self.labels: list[tuple[str, str]] = []  # id -> (span name, site)
        self._ids: dict[tuple[str, str], int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.caches: dict[str, tuple] = {}  # name -> (function, info at install)

    def _label(self, name: str, site: str) -> int:
        key = (name, site)
        if key not in self._ids:
            self._ids[key] = len(self.labels)
            self.labels.append(key)
        return self._ids[key]

    def wrap(self, fn, name: str, site: str, home: str | None = None):
        """A traced version of fn.  With ``home`` (a module name),
        calls made from that module's own code are passed through
        without a span."""
        nid = self._label(name, site)
        measure = MEASURES.get(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts = self._stack, self.counts

        def traced(*args, **kwargs):
            if home is not None and _getframe(1).f_globals.get("__name__") == home:
                return fn(*args, **kwargs)
            i = len(end)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if measure is not None:
                measure(counts, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module at every
        name the package's modules and the package itself bind them."""
        modules = {m: importlib.import_module("tautrel." + m) for m in LAYERS}
        targets = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    targets[id(obj)] = (layer, attr)
        for key, (layer, attr) in CACHES.items():
            fn = getattr(modules[layer], attr)
            self.caches[key] = (fn, fn.cache_info())
        namespaces = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if name == "tautrel" or name.startswith("tautrel.")
        }
        for site, ns in namespaces.items():
            for attr, obj in list(vars(ns).items()):
                hit = targets.get(id(obj))
                if hit is None:
                    continue
                layer, fname = hit
                name = SITE_NAMES.get((site, fname), "%s.%s" % (layer, fname))
                home = modules[layer].__name__
                if site != layer or name in INTRA_SPANS:
                    home = None
                setattr(ns, attr, self.wrap(obj, name, site, home))
        for (layer, cls_name, meth), name in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            setattr(cls, meth, self.wrap(cls.__dict__[meth], name, layer))

    def root(self, fn, *args, **kwargs):
        """Call fn inside a top-level span named 'bench.workload'."""
        return self.wrap(fn, "bench.workload", "bench")(*args, **kwargs)

    def snapshot(self) -> dict:
        """Raw per-layer sums for this process: self time and calls
        per span name, charged time per layer, wall time of the cli
        spans, cache statistics, site counts and the hook counters."""
        selfs = self_times(self.parent, self.start, self.end)
        out: Counter = Counter(self.counts)
        layers = [self.labels[nid][0].partition(".")[0] for nid in self.name_id]
        for layer, t in charged_times(layers, self.parent, selfs).items():
            out["layer.%s.charged_s" % layer] = t
        calls: Counter = Counter()
        for i, nid in enumerate(self.name_id):
            name, site = self.labels[nid]
            out[name + ".self_s"] += selfs[i]
            calls[name] += 1
            site_key = SITE_COUNTS.get((name, site))
            if site_key:
                out[site_key] += 1
            if name.startswith("cli.cmd_"):
                out["cli.%s.wall_s" % name[8:]] += self.end[i] - self.start[i]
        for name, n in calls.items():
            out[name + ".calls"] = n
        for key, (fn, before) in self.caches.items():
            info = fn.cache_info()
            out[key + ".hits"] = info.hits - before.hits
            out[key + ".misses"] = info.misses - before.misses
        out["trace.spans"] = len(self.end)
        return dict(out)

    def tree(self) -> dict:
        return span_tree(
            [self.labels[nid][0] for nid in self.name_id],
            self.parent,
            self.start,
            self.end,
        )


def self_times(parent, start, end) -> list[float]:
    """Duration of each span minus the durations of its direct
    children.  ``parent[i]`` is the index of span i's parent, or -1;
    a parent always precedes its children."""
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def charged_times(layers, parent, selfs) -> dict:
    """Self time per layer, where a span of a layer in ``UTILITIES``
    is charged to the nearest enclosing span of another layer (or to
    its own layer at the top).  ``layers[i]`` is span i's layer."""
    charge = []
    out: Counter = Counter()
    for i, layer in enumerate(layers):
        p = parent[i]
        if layer in UTILITIES and p >= 0:
            layer = charge[p]
        charge.append(layer)
        out[layer] += selfs[i]
    return dict(out)


def span_tree(names, parent, start, end) -> dict:
    """Aggregate spans by call path; direct recursion folds into one
    node.  Each node has calls, self_s, total_s and children (sorted
    by total time)."""
    selfs = self_times(parent, start, end)
    root = {"name": "(root)", "calls": 0, "self_s": 0.0, "children": {}}
    node_of = []
    for i, name in enumerate(names):
        up = node_of[parent[i]] if parent[i] >= 0 else root
        if up is not root and up["name"] == name:
            node = up
        else:
            node = up["children"].setdefault(
                name, {"name": name, "calls": 0, "self_s": 0.0, "children": {}}
            )
        node["calls"] += 1
        node["self_s"] += selfs[i]
        node_of.append(node)

    def finish(node):
        kids = [finish(c) for c in node["children"].values()]
        kids.sort(key=lambda c: -c["total_s"])
        node["children"] = kids
        node["total_s"] = node["self_s"] + sum(c["total_s"] for c in kids)
        return node

    return finish(root)
