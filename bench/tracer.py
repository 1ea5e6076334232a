"""Span recorder that wraps tropcong's layers from outside the library.

`install(tracer)` replaces every public function of each layer module, the
public methods of the classes those modules define, and the `lru_cache`
objects themselves with wrappers that record a span (name, start, end,
parent).  Every binding of a wrapped object is replaced, including names
imported into other modules (`variety.feasible`, `resolve.relative_interior_point`)
and the package namespace.  One private helper is wrapped on purpose:
`_lp._pivot`, the kernel-internal pivot step, so that pivots can be counted.

Counts, inclusive times (outermost activation only) and per-layer self time
(span time minus the time covered by child spans) are aggregated as calls
return, so they are exact however many spans are kept.  The span log itself
is held in memory, capped at MAX_SPANS, and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# module name inside the package -> layer name used in metric names
# (metric names must start with a letter, hence "lp" and "linalg")
LAYERS = {
    "trop_core": "trop_core", "_linalg": "linalg", "_lp": "lp",
    "polyhedra": "polyhedra", "toric_geom": "toric_geom",
    "congruence": "congruence", "variety": "variety", "resolve": "resolve",
    "jsonio": "jsonio", "cli": "cli",
}
PRIVATE_WRAPPED = {("_lp", "_pivot")}  # kernel-internal: counts pivots
PROPERTIES_WRAPPED = {("trop_core", "ToricContext", "faces")}
DUNDERS_WRAPPED = {("trop_core", "ToricContext", "__init__")}

MAX_SPANS = 200_000

# functions whose candidate-cell tests and output cells feed variety.cells.*
VARIETY_BUILDERS = frozenset(
    "variety." + n for n in ("pair_variety", "variety_of_basis", "hypersurface",
                             "intersect_supports", "slice_at_height"))


class _Frame:
    __slots__ = ("sid", "name", "layer", "start", "child")

    def __init__(self, sid, name, layer, start):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.spans: list[list] = []  # [name_ix, start, end, parent_sid]
        self.dropped = 0
        self.stack: list[_Frame] = []
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS.values()}
        self.counts: dict[str, int] = {}
        self._depth: dict[str, int] = {}

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def parent_name(self):
        return self.stack[-2].name if len(self.stack) > 1 else None

    def wrap(self, name: str, layer: str, fn, hook=None):
        """Return a wrapper of fn that records a span called `name`."""
        tracer = self
        clock = time.perf_counter
        stack = self.stack
        spans = self.spans
        ix = self._name_ix.setdefault(name, len(self.names))
        if ix == len(self.names):
            self.names.append(name)
        self.calls.setdefault(name, 0)
        self.incl.setdefault(name, 0.0)
        self._depth.setdefault(name, 0)
        depth = self._depth
        cached = hasattr(fn, "cache_info")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1].sid if stack else -1
            if len(spans) < MAX_SPANS:
                sid = len(spans)
                spans.append([ix, 0.0, 0.0, parent])
            else:
                sid = -1
                tracer.dropped += 1
            misses = fn.cache_info().misses if cached else 0
            depth[name] += 1
            start = clock()
            frame = _Frame(sid, name, layer, start)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.self_s[layer] += dur - frame.child
                if stack:
                    stack[-1].child += dur
                depth[name] -= 1
                if depth[name] == 0:
                    tracer.incl[name] += dur
                tracer.calls[name] += 1
                if cached and fn.cache_info().misses > misses:
                    tracer.count(name + ".misses")
                if sid >= 0:
                    spans[sid][1] = start
                    spans[sid][2] = end

        return traced

    def dump(self) -> dict:
        """A snapshot of the aggregates and the span log, as plain data."""
        return {"calls": dict(self.calls), "incl": dict(self.incl),
                "self_s": dict(self.self_s), "counts": dict(self.counts),
                "names": list(self.names), "spans": [list(s) for s in self.spans],
                "dropped": self.dropped}


# ---------------------------------------------------------------------------
# hooks: counters that need arguments or results

def _feasible_hook(tr, args, kwargs, result):
    p = args[0]
    if p.is_homogeneous() and not p.has_strict():
        tr.count("polyhedra.feasible.closed_cone")
    if result is None:
        tr.count("polyhedra.feasible.empty")
    if tr.parent_name() in VARIETY_BUILDERS:
        tr.count("variety.cells.candidates")


def _solve_lp_hook(tr, args, kwargs, result):
    if result[0] == "infeasible":
        tr.count("lp.solve_lp.infeasible")


def _pieces_hook(tr, args, kwargs, result):
    tr.count("variety.split_generators_by_forms.pieces", len(result))


def _variety_out_hook(tr, args, kwargs, result):
    if isinstance(result, list):
        kept = len(result)
    else:
        kept = sum(len(s.cells) for s in result.strata)
    tr.count("variety.cells.kept", kept)


def _build_hook(tr, args, kwargs, result):
    if tr.parent_name() == "variety.support_of":
        tr.count("variety.support_of.builds")
    _variety_out_hook(tr, args, kwargs, result)


def _resolve_hook(tr, args, kwargs, result):
    tr.count("resolve.refinement_samples", getattr(result, "refinement_samples", 0))


HOOKS = {
    "polyhedra.feasible": _feasible_hook,
    "lp.solve_lp": _solve_lp_hook,
    "variety.split_generators_by_forms": _pieces_hook,
    "variety.pair_variety": _variety_out_hook,
    "variety.hypersurface": _variety_out_hook,
    "variety.intersect_supports": _variety_out_hook,
    "variety.slice_at_height": _variety_out_hook,
    "variety.variety_of_basis": _build_hook,
    "resolve.resolve_boundary_prime": _resolve_hook,
}


# ---------------------------------------------------------------------------
# installation

def _own(obj, modname: str) -> bool:
    target = getattr(obj, "__wrapped__", obj)
    return getattr(target, "__module__", None) == modname


def _wrap_class(tr: Tracer, modkey: str, layer: str, cls):
    for attr, raw in list(vars(cls).items()):
        key = (modkey, cls.__name__, attr)
        name = "%s.%s.%s" % (layer, cls.__name__, attr)
        if isinstance(raw, property):
            if key in PROPERTIES_WRAPPED:
                setattr(cls, attr, property(tr.wrap(name, layer, raw.fget)))
            continue
        if attr.startswith("_") and key not in DUNDERS_WRAPPED:
            continue
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(tr.wrap(name, layer, raw.__func__)))
        elif isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tr.wrap(name, layer, raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, tr.wrap(name, layer, raw))


def install(tr: Tracer) -> None:
    """Wrap every layer of the already importable tropcong package in place."""
    package = importlib.import_module("tropcong")
    modules = {key: importlib.import_module("tropcong." + key) for key in LAYERS}
    replaced = {}  # id(original) -> (original, wrapper)
    for key, mod in modules.items():
        layer = LAYERS[key]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") and (key, attr) not in PRIVATE_WRAPPED:
                continue
            if not _own(obj, mod.__name__):
                continue
            if inspect.isclass(obj):
                _wrap_class(tr, key, layer, obj)
            elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                name = "%s.%s" % (layer, attr)
                replaced[id(obj)] = (obj, tr.wrap(name, layer, obj, HOOKS.get(name)))
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
