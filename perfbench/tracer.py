"""Spans and counters around the calls into each ckdvlab layer.

The traced run installs wrappers from here, at every name under which a
ckdvlab module looks up another module's public function (for example
``ckdvlab.boussinesq.apply_b2`` as well as ``ckdvlab.grid.apply_b2``), and
restores the originals afterwards.  Each wrapped call records one span
``(name, start, end, parent, self_s, work)``.  The hottest leaves, the
``numpy.fft`` transforms and ``RealField.__post_init__``, are aggregated into
counters and summed time instead of one span per call.

A span's self time is its duration minus the time covered by its child spans
and by the leaf calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
import types
from pathlib import Path

import numpy as np

# module name -> layer it reports under; svgfig writes figures for report
LAYER_OF_MODULE = {
    "grid": "grid", "airy": "airy", "soliton": "soliton", "ckdv": "ckdv",
    "boussinesq": "boussinesq", "residual": "residual", "report": "report",
    "svgfig": "report", "cli": "cli",
}

# complex transforms cost 5 n log2 n flops; real ones half of that
FFT_FLOP_FACTOR = {"fft": 1.0, "ifft": 1.0, "rfft": 0.5, "irfft": 0.5}

# functions whose argument size is the number of points they evaluate
POINT_ARGS = {
    "airy.airy_ai_only": (0, "z"),
    "airy.airy_eval": (0, "z"),
    "soliton.soliton_amplitude": (1, "tau"),
    "soliton.physical_wave": (0, "r"),
}

ENERGY_FUNCS = ("residual.energy", "residual.gronwall_growth_check")

# (name, unit) of every per-layer metric, in report order
METRICS = [
    ("grid.field_builds", "count"),
    ("grid.field_build_s", "s"),
    ("grid.fft_calls", "count"),
    ("grid.fft_points", "count"),
    ("grid.fft_s", "s"),
    ("grid.fft_flops_computed", "flop"),
    ("grid.fft_bytes_computed", "B"),
    ("grid.b2_calls", "count"),
    ("grid.deriv_calls", "count"),
    ("boussinesq.steps", "count"),
    ("boussinesq.rhs_calls", "count"),
    ("boussinesq.rhs_self_s", "s"),
    ("boussinesq.resolvent_calls", "count"),
    ("boussinesq.resolvent_self_s", "s"),
    ("boussinesq.b2_per_rhs", "ratio"),
    ("boussinesq.evolve_self_s", "s"),
    ("boussinesq.step_ms", "ms"),
    ("ckdv.steps", "count"),
    ("ckdv.evolve_self_s", "s"),
    ("ckdv.step_ms", "ms"),
    ("residual.calls", "count"),
    ("residual.self_s", "s"),
    ("residual.energy_calls", "count"),
    ("residual.energy_self_s", "s"),
    ("airy.points", "count"),
    ("airy.self_s", "s"),
    ("airy.ns_per_point", "ns"),
    ("soliton.points", "count"),
    ("soliton.self_s", "s"),
    ("report.files", "count"),
    ("report.bytes", "B"),
    ("report.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def _point_count(name, args, kwargs) -> int:
    index, keyword = POINT_ARGS[name]
    value = args[index] if len(args) > index else kwargs.get(keyword)
    return int(np.size(value))


class Tracer:
    """In-memory spans and leaf counters for one traced pass."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []  # [span index, time covered by children]
        self._patches: list = []  # (namespace, attribute, original)
        self.fft = {"calls": 0, "points": 0, "seconds": 0.0, "flops": 0.0, "bytes": 0}
        self.fields = {"calls": 0, "seconds": 0.0}

    # ------------------------------------------------------------ install

    def install(self):
        import ckdvlab
        from ckdvlab.grid import RealField

        modules = {name: importlib.import_module(f"ckdvlab.{name}") for name in LAYER_OF_MODULE}
        namespaces = [ckdvlab, *modules.values()]
        for mod_name, mod in modules.items():
            public = [(attr, obj) for attr, obj in vars(mod).items()
                      if not attr.startswith("_") and isinstance(obj, types.FunctionType)
                      and obj.__module__ == mod.__name__]
            for attr, fn in public:
                wrapper = self._span_wrapper(f"{LAYER_OF_MODULE[mod_name]}.{attr}", fn)
                for ns in namespaces:
                    for ns_attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, ns_attr, wrapper)
        for kind in FFT_FLOP_FACTOR:
            self._patch(np.fft, kind, self._fft_wrapper(kind, getattr(np.fft, kind)))
        self._patch(RealField, "__post_init__",
                    self._field_wrapper(RealField.__post_init__))

    def uninstall(self):
        while self._patches:
            ns, attr, original = self._patches.pop()
            setattr(ns, attr, original)

    def _patch(self, ns, attr, replacement):
        self._patches.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, replacement)

    # ----------------------------------------------------------- wrappers

    def _leaf_done(self, seconds: float):
        if self._stack:
            self._stack[-1][1] += seconds

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts_points = name in POINT_ARGS
        writes_file = name.startswith("report.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            work = _point_count(name, args, kwargs) if counts_points else 0
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)  # reserve the index children point at
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                if writes_file and isinstance(result, os.PathLike):
                    work = os.path.getsize(result)
                spans[frame[0]] = (name, start, end, parent, end - start - frame[1], work)

        return wrapper

    def _fft_wrapper(self, kind: str, fn):
        factor, counter, clock = FFT_FLOP_FACTOR[kind], self.fft, time.perf_counter

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            start = clock()
            out = fn(a, *args, **kwargs)
            seconds = clock() - start
            self._leaf_done(seconds)
            axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
            if kind == "rfft":
                n = kwargs.get("n", args[0] if args else None) or np.shape(a)[axis]
            else:
                n = out.shape[axis]
            batches = out.size // out.shape[axis]
            counter["calls"] += 1
            counter["points"] += n * batches
            counter["seconds"] += seconds
            counter["flops"] += factor * 5.0 * n * math.log2(max(n, 1)) * batches
            counter["bytes"] += np.asarray(a).nbytes + out.nbytes
            return out

        return wrapper

    def _field_wrapper(self, fn):
        counter, clock = self.fields, time.perf_counter

        @functools.wraps(fn)
        def wrapper(field):
            start = clock()
            try:
                fn(field)
            finally:
                seconds = clock() - start
                self._leaf_done(seconds)
                counter["calls"] += 1
                counter["seconds"] += seconds

        return wrapper

    # ------------------------------------------------------------ results

    def write_spans(self, path: Path):
        """Write the spans as CSV; times are seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        lines = ["index,name,start_s,end_s,parent,self_s,work"]
        lines.extend(f"{i},{name},{start - t0!r},{end - t0!r},{parent},{self_s!r},{work}"
                     for i, (name, start, end, parent, self_s, work) in enumerate(self.spans))
        path.write_text("\n".join(lines) + "\n")

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced pass; a layer never called reads 0."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        work: dict[str, int] = {}
        layer_self: dict[str, float] = {}
        b2_under_rhs = files = 0
        for name, start, end, parent, own, units in self.spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + own
            work[name] = work.get(name, 0) + units
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + own
            if layer == "report" and units > 0:
                files += 1
            if name == "grid.apply_b2" and parent >= 0 and self.spans[parent][0] in (
                    "boussinesq.spatial_rhs", "boussinesq.resolvent_solve"):
                b2_under_rhs += 1

        def c(name):
            return calls.get(name, 0)

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        rhs_calls = c("boussinesq.spatial_rhs")
        b_steps = rhs_calls / 4
        k_steps = c("ckdv.ckdv_linear_propagator") / 2
        airy_points = work.get("airy.airy_ai_only", 0) + work.get("airy.airy_eval", 0)
        energy_self = sum(self_s.get(n, 0.0) for n in ENERGY_FUNCS)
        values = {
            "grid.field_builds": self.fields["calls"],
            "grid.field_build_s": self.fields["seconds"],
            "grid.fft_calls": self.fft["calls"],
            "grid.fft_points": self.fft["points"],
            "grid.fft_s": self.fft["seconds"],
            "grid.fft_flops_computed": self.fft["flops"],
            "grid.fft_bytes_computed": self.fft["bytes"],
            "grid.b2_calls": c("grid.apply_b2"),
            "grid.deriv_calls": c("grid.spectral_derivative") + c("grid.spectral_antiderivative"),
            "boussinesq.steps": b_steps,
            "boussinesq.rhs_calls": rhs_calls,
            "boussinesq.rhs_self_s": self_s.get("boussinesq.spatial_rhs", 0.0),
            "boussinesq.resolvent_calls": c("boussinesq.resolvent_solve"),
            "boussinesq.resolvent_self_s": self_s.get("boussinesq.resolvent_solve", 0.0),
            "boussinesq.b2_per_rhs": per(b2_under_rhs, rhs_calls),
            "boussinesq.evolve_self_s": self_s.get("boussinesq.boussinesq_evolve", 0.0),
            "boussinesq.step_ms": per(total.get("boussinesq.boussinesq_evolve", 0.0), b_steps, 1e3),
            "ckdv.steps": k_steps,
            "ckdv.evolve_self_s": self_s.get("ckdv.ckdv_evolve", 0.0),
            "ckdv.step_ms": per(total.get("ckdv.ckdv_evolve", 0.0), k_steps, 1e3),
            "residual.calls": c("residual.residual_field") + c("residual.antiderivative_residual"),
            "residual.self_s": layer_self.get("residual", 0.0) - energy_self,
            "residual.energy_calls": c("residual.energy"),
            "residual.energy_self_s": energy_self,
            "airy.points": airy_points,
            "airy.self_s": layer_self.get("airy", 0.0),
            "airy.ns_per_point": per(layer_self.get("airy", 0.0), airy_points, 1e9),
            "soliton.points": (work.get("soliton.soliton_amplitude", 0)
                               + work.get("soliton.physical_wave", 0)),
            "soliton.self_s": layer_self.get("soliton", 0.0),
            "report.files": files,
            "report.bytes": sum(n for name, n in work.items() if name.startswith("report.")),
            "report.self_s": layer_self.get("report", 0.0),
            "cli.self_s": layer_self.get("cli", 0.0),
            "trace.overhead_s": overhead_s,
        }
        return values
