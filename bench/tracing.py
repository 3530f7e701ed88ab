"""Outside-in tracing of the program's layers.

The program is not edited: ``Tracer.install`` replaces public functions in
every module namespace that binds them (``from .core import reduce_word``
makes ``aut.reduce_word`` a second binding) and a few hot methods on their
classes, with wrappers that record a span per call.  Spans live in compact
arrays in memory and are written out by ``Tracer.write`` at exit.  The self
time of a span is its duration minus the time covered by its child spans,
accumulated as each span closes.
"""

from __future__ import annotations

import array
import importlib
import inspect
import json
import time

LAYERS = ("core", "aut", "syllables", "exactmat", "linalg", "whorbit",
          "peak", "apps", "cli")

# Methods that carry the layer's work; other methods (dunders, tiny
# accessors) are left alone to keep the overhead down.
METHODS = {
    "aut": {"Automorphism": ("compose", "invert", "apply_to_word",
                             "apply_inverse_to_word", "apply_to_class",
                             "apply_to_tuple")},
    "linalg": {"LabeledGraph": ("bfs_tree", "component"),
               "BlockMatrix": ("mul", "inv", "act")},
}


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack = []      # open spans: [index, start, child time]
        self.calls = {}      # name id -> calls
        self.self_time = {}  # name id -> seconds
        self.counts = {}     # named counters from result hooks
        self.cyclic_seen = set()
        self._patched = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name):
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls[nid] = 0
            self.self_time[nid] = 0.0
        return nid

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name, fn, hook=None):
        """Wrap ``fn`` so each call records a span named ``name``; ``hook``
        sees the arguments and result to update counters."""
        nid = self.name_id(name)
        clock = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            frame = [idx, clock(), 0.0]
            self.span_start.append(frame[1])
            self.span_end.append(0.0)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end[idx] = end
                dur = end - frame[1]
                self.calls[nid] += 1
                self.self_time[nid] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def new_query(self):
        self.cyclic_seen = set()

    # -- installing and removing the wrappers ------------------------------

    def install(self):
        modules = {m: importlib.import_module("raagaut." + m)
                   for m in LAYERS}
        wrapped = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if not home.startswith("raagaut."):
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue
                if obj not in wrapped:
                    short = home.split(".", 1)[1]
                    name = "%s.%s" % (short, obj.__name__)
                    wrapped[obj] = self.span(name, obj, HOOKS.get(name))
                self._patch(mod, attr, wrapped[obj])
        for short, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[short], cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    name = "%s.%s.%s" % (short, cls_name, meth)
                    self._patch(cls, meth,
                                self.span(name, fn, HOOKS.get(name)))

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)
                              if not isinstance(owner, type)
                              else owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched = []

    # -- results -----------------------------------------------------------

    def totals(self, names):
        ids = [self.ids[n] for n in names if n in self.ids]
        return (sum(self.calls[i] for i in ids),
                sum(self.self_time[i] for i in ids))

    def layer_self(self, layer):
        return sum(t for nid, t in self.self_time.items()
                   if self.names[nid].split(".", 1)[0] == layer)

    def write(self, path):
        """Span arrays after a one-line JSON header naming the spans."""
        header = {"names": self.names, "spans": len(self.span_start),
                  "arrays": ["name:int32", "parent:int32", "start:float64",
                             "end:float64"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)


# -- result hooks: counters measured where the work happens -------------------

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _canonical_hook(tr, args, kwargs, result):
    word = tuple(_arg(args, kwargs, 1, "word"))
    tr.count("canonical_letters", len(word))
    key = min((word[i:] + word[:i] for i in range(len(word))), default=())
    if key in tr.cyclic_seen:
        tr.count("canonical_repeats")
    tr.cyclic_seen.add(key)


def _reduce_hook(tr, args, kwargs, result):
    tr.count("reduce_letters", len(_arg(args, kwargs, 1, "word")))


def _graph_hook(prefix):
    def hook(tr, args, kwargs, result):
        tr.count(prefix + "_vertices", result.n_vertices())
        tr.count(prefix + "_edges", len(result.edges))
    return hook


def _factors_hook(tr, args, kwargs, result):
    tr.count("factors_out", len(result.factors))


HOOKS = {
    "core.canonical_class": _canonical_hook,
    "core.reduce_word": _reduce_hook,
    "linalg.schreier_g1_in_gd": _graph_hook("schreier"),
    "apps.build_delta": _graph_hook("delta"),
    "peak.peak_reduce": _factors_hook,
}
