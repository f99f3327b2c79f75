"""Span recorder for the traced run.

Every public function of a layer is replaced, under every module name that
binds it, by a wrapper that records a span (name, start, end, parent, run id)
and exact work counts.  Spans stay in memory until ``dump``.  Each span also
records the tracemalloc peak reached while it was open.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc

import numpy as np


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._peaks: list[int] = []

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` so each call records a span; ``count(args, kwargs,
        result)`` returns a dict of exact counts for a successful call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None}
            self._enter(span)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                self._leave(span, ok)
            if count is not None:
                span["counts"] = count(args, kwargs, out)
            return out

        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` to count calls only, without a span of its own, so its
        time stays in the caller's self time."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] = self.counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _enter(self, span: dict) -> None:
        if self._peaks:
            self._peaks[-1] = max(self._peaks[-1],
                                  tracemalloc.get_traced_memory()[1])
        self._peaks.append(0)
        tracemalloc.reset_peak()
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()

    def _leave(self, span: dict, ok: bool) -> None:
        span["end"] = time.perf_counter()
        span["ok"] = ok
        self._stack.pop()
        peak = max(self._peaks.pop(), tracemalloc.get_traced_memory()[1])
        span["peak_bytes"] = peak
        if self._peaks:
            self._peaks[-1] = max(self._peaks[-1], peak)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def _size(_args, _kwargs, out):
    return {"elems": int(np.size(out))}


def _transform_bytes(args, _kwargs, _out):
    # Computed, not measured: each of the four axis passes reads and writes
    # the whole N^4 complex array once.
    return {"bytes": 2 * 4 * int(args[0].values.nbytes)}


def _pairs(args, _kwargs, _out):
    return {"pairs": int(args[1])}


def _file_bytes(index):
    def count(args, _kwargs, _out):
        return {"bytes": os.path.getsize(args[index])}
    return count


def _payload_bytes(args, _kwargs, _out):
    return {"bytes": len(args[1])}


def _scan_points(_args, _kwargs, out):
    ok = sum(1 for p in out if p.report is not None)
    return {"points_ok": ok, "points_failed": len(out) - ok}


def install(rec: Recorder) -> None:
    """Wrap the layer functions under every biphoton module name bound to them."""
    # cli is imported so that its own bindings (e.g. parse_config) are rebound.
    from biphoton import (cli, coincidence, config, dispersion,  # noqa: F401
                          entanglement, fields, phasematch, writers)

    functions = [
        (dispersion.delta_kz, "dispersion.delta_kz", _size),
        (phasematch.phi_of_mismatch, "phasematch.phi_of_mismatch", _size),
        (phasematch.pump_envelope, "phasematch.pump_envelope", None),
        (phasematch.momentum_amplitude, "phasematch.momentum_amplitude", None),
        (fields.build_amplitude, "fields.build_amplitude", None),
        (fields.propagate, "fields.propagate", None),
        (fields.to_position, "fields.to_position", _transform_bytes),
        (fields.pdf, "fields.pdf", None),
        (fields.momentum_pdf, "fields.pdf", None),
        (fields.position_pdf, "fields.pdf", None),
        (fields.averaged_joint_x, "fields.reduce", None),
        (fields.conditional_position, "fields.reduce", None),
        (fields.singles, "fields.reduce", None),
        (fields.conditional_position_direct,
         "fields.conditional_position_direct", None),
        (entanglement.build_discrete_joints,
         "entanglement.build_discrete_joints", None),
        (entanglement.ef_min, "entanglement.ef_min", None),
        (entanglement.scan, "entanglement.scan", _scan_points),
        (coincidence.synth_frames, "coincidence.synth_frames", None),
        (coincidence.save_frames, "coincidence.save_frames", _file_bytes(1)),
        (coincidence.load_frames, "coincidence.load_frames", _file_bytes(0)),
        (coincidence.coincidence_map, "coincidence.coincidence_map", None),
        (writers.write_grd, "writers.write", None),
        (writers.write_csv, "writers.write", None),
        (writers.write_pgm, "writers.write", None),
        (writers._atomic_write, "writers.write", _payload_bytes),
        (config.parse_config, "config.parse_config", None),
    ]
    modules = [m for name, m in sys.modules.items()
               if name == "biphoton" or name.startswith("biphoton.")]

    def rebind(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    for fn, name, count in functions:
        rebind(fn, rec.span(name, fn, count))
    rebind(fields._centered_ift_axis,
           rec.counter("fields.fft_axis_passes", fields._centered_ift_axis))

    methods = [
        (coincidence.AliasTable, "__init__", "coincidence.alias_build", None),
        (coincidence.AliasTable, "sample", "coincidence.alias_sample", _pairs),
    ]
    for meth in ("momentum_amplitude", "position_amplitude",
                 "momentum_distribution", "position_distribution"):
        methods.append((fields.Pipeline, meth, f"fields.Pipeline.{meth}", None))
    for cls, meth, name, count in methods:
        setattr(cls, meth, rec.span(name, getattr(cls, meth), count))


def summarize(spans: list[dict]) -> dict:
    """Per span name: calls, total time, self time, peak bytes, summed counts.

    Self time is a span's duration minus the durations of its direct
    children (calls are nested: the program is single-threaded).
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: dict[str, dict] = {}
    for i, span in enumerate(spans):
        agg = out.setdefault(span["name"], {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0, "peak_bytes": 0,
                                            "failed": 0})
        dur = span["end"] - span["start"]
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += dur - child_time[i]
        agg["peak_bytes"] = max(agg["peak_bytes"], span["peak_bytes"])
        agg["failed"] += 0 if span["ok"] else 1
        for key, value in span.get("counts", {}).items():
            agg[key] = agg.get(key, 0) + value
    return out
