"""Traced run: spans around the package's layer functions, wrapped from outside.

Each wrapped function records a span (name, start, end, parent) in memory.
A wrapper replaces the original in every ``hardyheat`` module that holds the
name, because ``duhamel`` and ``verifier`` import functions such as
``kernel_t`` and ``get_radial_engine`` by name.  Methods are wrapped on their
class.  Nothing in the package itself is changed on disk.

A span's self time is its duration less the durations of its direct child
spans (children nest inside their parent on the one thread that runs).
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from functools import wraps


class Tracer:
    def __init__(self):
        self.spans: list = []            # [name, start, end, parent index]
        self.counts: dict = defaultdict(float)
        self._stack: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str, count=None, span: bool = True):
        sig = inspect.signature(fn)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not span:
                out = fn(*args, **kwargs)
            else:
                idx = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append([name, time.perf_counter(), None, parent])
                self._stack.append(idx)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._stack.pop()
                    self.spans[idx][2] = time.perf_counter()
            self.counts[name + ".calls"] += 1
            if count is not None:
                count(self.counts, sig.bind(*args, **kwargs).arguments, out)
            return out

        return wrapper

    def wrap_function(self, module, attr: str, name: str, count=None,
                      span: bool = True) -> None:
        """Replace module.attr in every hardyheat module that holds it."""
        orig = getattr(module, attr)
        wrapper = self._wrap(orig, name, count, span)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "hardyheat"
                                   or modname.startswith("hardyheat.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)

    def wrap_method(self, cls, attr: str, name: str, count=None) -> None:
        setattr(cls, attr, self._wrap(getattr(cls, attr), name, count))

    # -- results ------------------------------------------------------------

    def times(self):
        """(inclusive, self) seconds summed per span name."""
        incl = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            incl[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
        return incl, own

    def write(self, path) -> None:
        """Write the spans, one JSON object per line."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _count_points(counts, args, out):
    counts["kernel_t.points"] += getattr(out, "size", 1)


def _count_paths(counts, args, out):
    counts["mc.paths"] += args["cfg"].n_paths
    counts["mc.ess"] += out.ess


def install(tracer: Tracer) -> None:
    """Wrap the layer functions named in the benchmark's per-layer metrics."""
    from hardyheat import duhamel, forms, mc_oracle, stable_kernel, verifier

    t = tracer
    t.wrap_function(stable_kernel, "kernel_t", "kernel_t", _count_points)
    t.wrap_function(stable_kernel, "angular_average", "angular_average")
    t.wrap_function(stable_kernel, "weighted_mass", "weighted_mass")
    t.wrap_function(duhamel, "get_radial_engine", "radial.request")
    t.wrap_method(duhamel.RadialWeightedEngine, "__init__", "radial.build")
    t.wrap_method(duhamel.RadialWeightedEngine, "solve", "radial.solve")
    t.wrap_method(duhamel.PlanarKernelEngine, "__init__", "planar.build")
    t.wrap_method(duhamel.PlanarKernelEngine, "first_term", "planar.first_term")
    t.wrap_method(duhamel.PlanarKernelEngine, "apply_duhamel", "planar.sweep")
    t.wrap_method(duhamel.PlanarKernelEngine, "fixed_point", "planar.fixed_point")
    t.wrap_method(duhamel.PlanarKernelEngine, "value_at", "planar.grid_read")
    t.wrap_function(duhamel, "duhamel_residual", "residual")
    t.wrap_function(verifier, "check_supermedian", "check_supermedian")
    t.wrap_function(verifier, "check_invariance", "check_invariance")
    t.wrap_function(mc_oracle, "feynman_kac", "mc", _count_paths)
    t.wrap_function(mc_oracle, "fk_invariance_defect", "mc", _count_paths)
    t.wrap_function(mc_oracle, "stable_increments", "mc.increments", span=False)
    t.wrap_function(forms, "energy", "energy")
    t.wrap_function(forms, "weighted_l2", "weighted_l2")
    t.wrap_function(forms, "bar_energy", "bar_energy")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures, keyed by the names in BENCHMARK.json."""
    incl, own = tracer.times()
    c = tracer.counts
    mc_s = incl["mc"]
    paths = c["mc.paths"]
    return {
        "stable_kernel.kernel_t.calls": c["kernel_t.calls"],
        "stable_kernel.kernel_t.points": c["kernel_t.points"],
        "stable_kernel.kernel_t.self_s": own["kernel_t"],
        "stable_kernel.angular_average.self_s": own["angular_average"],
        "stable_kernel.weighted_mass.calls": c["weighted_mass.calls"],
        "stable_kernel.weighted_mass.self_s": own["weighted_mass"],
        "duhamel.radial.requests": c["radial.request.calls"],
        "duhamel.radial.builds": c["radial.build.calls"],
        "duhamel.radial.build_s": incl["radial.build"],
        "duhamel.radial.solve_s": incl["radial.solve"],
        "duhamel.planar.builds": c["planar.build.calls"],
        "duhamel.planar.first_term_s": incl["planar.first_term"],
        "duhamel.planar.sweeps": c["planar.sweep.calls"],
        "duhamel.planar.sweep_s": incl["planar.sweep"],
        "duhamel.planar.fixed_point_s": incl["planar.fixed_point"],
        "duhamel.planar.grid_reads": c["planar.grid_read.calls"],
        "duhamel.planar.grid_read_s": incl["planar.grid_read"],
        "duhamel.residual_s": incl["residual"],
        "verifier.check_supermedian_s": incl["check_supermedian"],
        "verifier.check_invariance_s": incl["check_invariance"],
        "mc_oracle.paths": paths,
        "mc_oracle.increments": c["mc.increments.calls"],
        "mc_oracle.self_s": own["mc"],
        "mc_oracle.paths_per_s": paths / mc_s if mc_s > 0.0 else 0.0,
        "mc_oracle.ess_per_path": c["mc.ess"] / paths if paths > 0.0 else 0.0,
        "forms.energy.calls": c["energy.calls"],
        "forms.energy_s": incl["energy"],
        "forms.weighted_l2_s": incl["weighted_l2"],
        "forms.bar_energy_s": incl["bar_energy"],
    }
