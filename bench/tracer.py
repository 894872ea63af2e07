"""Span tracer installed from outside the package by wrapping module attributes.

Only the traced run installs it.  Each wrapped public call records a span
``(id, parent, unit, name, start, end)``; spans stay in memory and are written
out when the worker ends.  A span's self time is its duration minus the time
covered by its child spans.  Phases opened with ``opaque=True`` (import, law
derivation) record one span and suppress the layer spans inside them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# layer name -> public functions recorded under it
LAYERS = {
    "mul": ("multiply",),
    "pow": ("power",),
    "inv": ("inverse",),
    "apply": ("apply",),
    "spectral": ("spectral_report", "is_automorphism"),
    "bfs": ("bfs_ball",),
    "band": ("karidi_band", "distortion_profile"),
    "closure": ("subgroup_closure",),
    "series": ("growth_series",),
    "fit": ("entropy_estimate",),
}

MODULES = (
    "nilentropy",
    "nilentropy.nilgroup",
    "nilentropy.autom",
    "nilentropy.growth",
    "nilentropy.constructions",
)


class PhaseTimer:
    """Untraced stand-in: times phases, records no layer spans."""

    def __init__(self):
        self.phases = {}

    @contextmanager
    def phase(self, name, opaque=False):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + time.perf_counter() - start

    def set_unit(self, unit):
        pass


class Tracer(PhaseTimer):
    def __init__(self):
        super().__init__()
        self.spans = []
        self.stack = []  # [span id, name, start, time covered by children]
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self.bfs_elements = 0
        self.bfs_probes = 0
        self._bfs_seen = {}
        self._opaque = 0
        self._unit = None
        self._inverse = None

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name):
        self.stack.append([len(self.spans), name, time.perf_counter(), 0.0])
        self.spans.append(None)

    def _exit(self):
        end = time.perf_counter()
        sid, name, start, child = self.stack.pop()
        dur = end - start
        parent = self.stack[-1][0] if self.stack else -1
        if self.stack:
            self.stack[-1][3] += dur
        self.spans[sid] = (sid, parent, self._unit, name, start, end)
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - child

    @contextmanager
    def phase(self, name, opaque=False):
        self._enter(name)
        if opaque:
            self._opaque += 1
        try:
            yield
        finally:
            if opaque:
                self._opaque -= 1
            self._exit()
            self.phases[name] = self.total(name)

    def set_unit(self, unit):
        self._unit = unit

    # -- installation -----------------------------------------------------

    def _wrap(self, layer, fn):
        def traced(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if layer == "bfs":
                self._count_bfs(args, kwargs, result)
            return result

        return traced

    def install(self):
        import importlib

        modules = [importlib.import_module(m) for m in MODULES]
        originals = {}
        for layer, names in LAYERS.items():
            for name in names:
                fn = getattr(modules[0], name)
                originals[name] = fn
                wrapped = self._wrap(layer, fn)
                for mod in modules:
                    if getattr(mod, name, None) is fn:
                        setattr(mod, name, wrapped)
        self._inverse = originals["inverse"]

    def _count_bfs(self, args, kwargs, ball):
        """Elements added and right-multiplier probes, from the sphere sizes.

        A repeated call on a ball already grown that far adds nothing.
        """
        spec, radius = args[0], args[1]
        genset = kwargs.get("genset", args[2] if len(args) > 2 else None)
        gens = spec.generating_set if genset is None else tuple(map(tuple, genset))
        key = (id(spec), gens)
        done = self._bfs_seen.get(key, 0)
        if radius <= done:
            return
        self._bfs_seen[key] = radius
        ident = spec.identity()
        directions = set()
        for g in gens:
            directions.update((g, self._inverse(g, spec)))
        directions.discard(ident)
        spheres = [0] * (radius + 1)
        for d in ball.values():
            spheres[d] += 1
        self.bfs_elements += sum(spheres[done + 1:])
        self.bfs_probes += len(directions) * sum(spheres[done:radius])

    # -- results ----------------------------------------------------------

    def total(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,parent,unit,name,start_s,end_s\n")
            for sid, parent, unit, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{'' if unit is None else unit},{name},{start:.9f},{end:.9f}\n")
