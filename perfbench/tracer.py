"""Outside-in span tracer for the coarse_embed layers.

The tracer changes no library source.  ``install`` replaces each target
function by a wrapper at every place it is bound: the module that defines
it, every other loaded ``coarse_embed`` module that imported it by name,
and the class dict for methods.  Spaces store their metric as an attribute
when they are built, so install before building any window.

A span wrapper keeps the open spans on a stack; a span's self time is its
duration minus the time of the spans opened inside it.  Counters only
count calls: they wrap the hot metric functions, where timing every call
would cost more than the call.  Everything stays in memory, aggregated per
phase ("setup" or "solve") and target, until ``snapshot`` reads it.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

SPAN, COUNT = "span", "count"

# (module, attribute path, kind).  The per-layer metrics are sums over
# these records; see GLOSSARY.md for which metric reads which record.
TARGETS = [
    ("spaces", "grid_space", SPAN),
    ("spaces", "tree_ball", SPAN),
    ("spaces", "FiniteMetricSpace.__init__", SPAN),
    ("spaces", "l1_dist", COUNT),
    ("spaces", "tree_dist", COUNT),
    ("lamplighter", "label_dist", COUNT),
    ("lamplighter", "lamplighter_ball", SPAN),
    ("lamplighter", "lamp_parts_window", SPAN),
    ("lamplighter", "bfs_ball", SPAN),
    ("lattice", "membership", SPAN),
    ("lattice", "pullback_grid_cover", SPAN),
    ("lattice", "zk_cover", SPAN),
    ("covers", "cover_stats", SPAN),
    ("covers", "certified_lebesgue", SPAN),
    ("covers", "lebesgue_condition", SPAN),
    ("covers", "mesh", SPAN),
    ("covers", "multiplicity", SPAN),
    ("covers", "extend_by_cosets", SPAN),
    ("kernels", "pou_kernel", SPAN),
    ("kernels", "boundary_distance", COUNT),
    ("kernels", "Kernel.row", SPAN),
    ("kernels", "Kernel.support_radius", SPAN),
    ("kernels", "Kernel.pair_quotient", SPAN),
    ("kernels", "Kernel.norm_error", SPAN),
    ("kernels", "kernel_stats", SPAN),
    ("embeddings", "KernelField.__init__", SPAN),
    ("embeddings", "build_embedding", SPAN),
    ("embeddings", "CompressionEmbedding.distance", SPAN),
    ("embeddings", "compression_report", SPAN),
    ("wreath", "wreath_cover", SPAN),
    ("wreath", "block_cover", SPAN),
]

PACKAGE = "coarse_embed"


class Tracer:
    """Per-phase records: name -> [calls, total seconds, self seconds].

    Two records count something other than calls.
    ``lattice.pullback_points`` adds up the window points handed to
    ``pullback_grid_cover``: each is decoded exactly once, which is what
    the membership self-check compares against.  ``covers.mesh_inexact``
    counts ``mesh`` results that are bounds rather than exact values.
    """

    def __init__(self):
        self.phases = {}
        self.records = None
        self.set_phase("setup")
        self._stack = []

    def set_phase(self, phase):
        self.records = self.phases.setdefault(phase, {})

    def _record(self, name):
        rec = self.records.get(name)
        if rec is None:
            rec = self.records[name] = [0, 0.0, 0.0]
        return rec

    def _span(self, name, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = self._record(name)
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner

        return wrapper

    def _count(self, name, fn):
        def wrapper(*args):
            self._record(name)[0] += 1
            return fn(*args)

        return wrapper

    def install(self):
        """Wrap every target at every binding site, for the process's life."""
        for module_name, path, kind in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            owner_path, _, attr = path.rpartition(".")
            owner = getattr(module, owner_path) if owner_path else module
            original = vars(owner)[attr]
            name = f"{module_name}.{path}"
            wrapped = (self._span if kind == SPAN else self._count)(name, original)
            if path == "pullback_grid_cover":
                wrapped = self._sized(wrapped)
            elif path == "mesh":
                wrapped = self._flag_inexact(wrapped)
            if owner_path:
                setattr(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != PACKAGE or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def _sized(self, fn):
        def wrapper(window, *args, **kwargs):
            self._record("lattice.pullback_points")[0] += len(window)
            return fn(window, *args, **kwargs)

        return wrapper

    def _flag_inexact(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if not out[1]:
                self._record("covers.mesh_inexact")[0] += 1
            return out

        return wrapper

    def snapshot(self):
        """Per-phase copies of the records."""
        return {phase: {name: list(rec) for name, rec in recs.items()}
                for phase, recs in self.phases.items()}
