"""Span recorder and counters attached to varifold_lab from outside the library.

Spans come from rebinding public functions, in every loaded varifold_lab
module that holds them, to timing wrappers; the oracle and the blow-up battery
are counted by passing wrapped objects through the library's own `oracle` and
`battery=` parameters.  Spans and counters stay in memory until the run ends.
`Tracer.detach` restores every rebinding and fails if a wrapper is left behind.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import os
import sys
import threading
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

_WRAPPED = "__perfbench_traced__"


class Span:
    __slots__ = ("idx", "name", "start", "end", "parent", "op", "child", "exc")

    def __init__(self, idx, name, parent, op):
        self.idx = idx
        self.name = name
        self.parent = parent
        self.op = op
        self.child = 0.0
        self.exc = None
        self.start = self.end = 0.0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _n_pieces(v) -> int:
    return len(v.segments) + len(v.rays)


def _n_ends(v) -> int:
    return 2 * len(v.segments) + len(v.rays)


# --- counters recorded at the layer boundaries --------------------------------

def _count_mass(tr, span, args, kwargs, out):
    tr.counters["core.mass.pieces_scanned"] += _n_pieces(_arg(args, kwargs, 0, "v"))


def _count_pieces_out(tr, span, args, kwargs, out):
    tr.counters[span.name + ".pieces_out"] += _n_pieces(out)


def _count_cluster(tr, span, args, kwargs, out):
    tr.counters["core.cluster_points.reps"] += len(out)
    if span.parent is not None and span.parent.name == "variation.vertex_residuals":
        tr.counters["variation.vertex_residuals.vertices"] += len(out)


def _count_incident(tr, span, args, kwargs, out):
    tr.counters["core.incident_rays.ends_scanned"] += _n_ends(_arg(args, kwargs, 0, "v"))
    tr.counters["core.incident_rays.hits"] += len(out)


def _count_residual_ends(tr, span, args, kwargs, out):
    tr.counters["variation.vertex_residuals.ends"] += _n_ends(_arg(args, kwargs, 0, "v"))


def _count_atoms_list(tr, span, args, kwargs, out):
    tr.counters[span.name + ".atoms"] += len(out)


def _count_atoms_measure(tr, span, args, kwargs, out):
    tr.counters[span.name + ".atoms"] += out.n_atoms


def _count_bytes(tr, span, args, kwargs, out):
    tr.counters["io.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# (module, attribute, span name, counter hook).  A target missing from the
# library is skipped and reported as trace.missing_targets.
TARGETS = (
    ("core", "mass", "core.mass", _count_mass),
    ("core", "restrict", "core.restrict", _count_pieces_out),
    ("core", "dilate", "core.dilate", _count_pieces_out),
    ("core", "cluster_points", "core.cluster_points", _count_cluster),
    ("core", "incident_rays", "core.incident_rays", _count_incident),
    ("core", "split_at_point", "core.split_at_point", None),
    ("core", "density", "core.density", None),
    ("core", "conic_to_discrete", "core.conic_to_discrete", None),
    ("variation", "vertex_residuals", "variation.vertex_residuals", _count_residual_ends),
    ("variation", "is_stationary", "variation.is_stationary", None),
    ("variation", "boundary_variation", "variation.boundary_variation", _count_atoms_list),
    ("projection", "weighted_projection", "projection.weighted_projection", _count_pieces_out),
    ("surgery", "find_good_radius", "surgery.find_good_radius", None),
    ("surgery", "cut_and_paste", "surgery.cut_and_paste", None),
    ("tomography", "reconstruct_conic", "tomography.reconstruct", None),
    ("tomography", "locate_marginal_atoms", "tomography.locate", _count_atoms_measure),
    ("tomography", "reconstruct_plane_measure", "tomography.plane_solve", _count_atoms_measure),
    ("tomography", "lift_to_sphere", "tomography.lift", None),
    ("blowup", "tangent_estimate", "blowup.tangent_estimate", None),
    ("blowup", "weak_star_distance", "blowup.weak_star_distance", None),
    ("io", "load_varifold", "io.load_varifold", None),
    ("io", "load_subspace", "io.load_subspace", None),
    ("io", "save_varifold", "io.save_varifold", _count_bytes),
    ("io", "write_csv", "io.write_csv", _count_bytes),
    ("cli", "run", "cli.run", None),
)


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "varifold_lab" or name.startswith("varifold_lab."))]


class Tracer:
    """Spans (name, start, end, parent, operation id) and named counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.op = -1
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._paused = False
        self._bindings: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def paused(self):
        """Run output checks without recording them."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, name, fn, hook=None):
        tr = self

        def traced(*args, **kwargs):
            if tr._paused:
                return fn(*args, **kwargs)
            stack = tr._stack()
            span = Span(next(tr._ids), name, stack[-1] if stack else None, tr.op)
            tr.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.exc = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.end - span.start
            if hook is not None:
                hook(tr, span, args, kwargs, out)
            return out

        if isinstance(fn, types.FunctionType):
            functools.update_wrapper(traced, fn)
        setattr(traced, _WRAPPED, True)
        return traced

    # --- rebinding ---------------------------------------------------------

    def attach(self) -> None:
        """Rebind every target in every loaded varifold_lab module."""
        loaded = {m.__name__: m for m in _library_modules()}
        for mod_name, attr, name, hook in TARGETS:
            module = loaded.get("varifold_lab." + mod_name)
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                if module is not None or mod_name != "cli":
                    self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self.wrap(name, original, hook)
            for mod in loaded.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._bindings.append((mod, key, original))

    def detach(self) -> None:
        """Restore every rebinding; raise if any wrapper is still bound."""
        for mod, key, original in reversed(self._bindings):
            setattr(mod, key, original)
        self._bindings.clear()
        left = [f"{m.__name__}.{k}" for m in _library_modules()
                for k, v in vars(m).items() if getattr(v, _WRAPPED, False)]
        if left:
            raise RuntimeError(f"traced wrappers still bound: {left}")

    # --- pass-through objects ----------------------------------------------

    def counting_oracle(self, oracle):
        """An oracle that records one span and the band counters per call."""
        pairs: set[bytes] = set()
        counters = self.counters

        def count(tr, span, args, kwargs, out):
            v, xi = np.asarray(args[0], dtype=float), np.asarray(args[1], dtype=float)
            counters["tomography.oracle.band_rows"] += len(out)
            counters["tomography.oracle.hits"] += int(np.count_nonzero(out > 0.0))
            key = v.tobytes() + xi.tobytes()
            if key not in pairs:
                pairs.add(key)
                counters["tomography.oracle.distinct_pairs"] += 1

        return self.wrap("tomography.oracle", oracle, count)

    def counting_battery(self, battery):
        """The same battery functions, counting evaluations and sample points."""
        from varifold_lab.blowup import BatteryFunction, TestBattery

        counters = self.counters

        def counted(f):
            def value(points, s):
                if not self._paused:
                    counters["blowup.battery.evals"] += 1
                    counters["blowup.battery.points"] += points.shape[0]
                return f.value(points, s)

            return BatteryFunction(f.label, value)

        return TestBattery(battery.ambient_dim, battery.radius,
                           tuple(counted(f) for f in battery.functions))

    # --- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, raised exceptions;
        plus the raw counters.  Mergeable across processes with `merge`."""
        spans: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                                      "self_s": 0.0, "raised": {}})
        counters = Counter(self.counters)
        for s in self.spans:
            agg = spans[s.name]
            agg["calls"] += 1
            agg["total_s"] += s.end - s.start
            agg["self_s"] += (s.end - s.start) - s.child
            if s.exc is not None:
                agg["raised"][s.exc] = agg["raised"].get(s.exc, 0) + 1
            if s.parent is not None and s.parent.name == "surgery.find_good_radius" \
                    and s.name == "variation.boundary_variation":
                counters["surgery.radius_attempts"] += 1
        return {"spans": dict(spans), "counters": dict(counters),
                "n_spans": len(self.spans), "missing": list(self.missing)}

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start, end, parent index, operation id."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end,
                                     s.parent.idx if s.parent is not None else -1,
                                     s.op, s.exc], separators=(",", ":")) + "\n")


def merge(summaries) -> dict:
    """Sum summaries from several processes (the cold CLI runs)."""
    out = {"spans": defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": {}}),
           "counters": Counter(), "n_spans": 0, "missing": set()}
    for s in summaries:
        for name, agg in s["spans"].items():
            dst = out["spans"][name]
            for k in ("calls", "total_s", "self_s"):
                dst[k] += agg[k]
            for exc, n in agg["raised"].items():
                dst["raised"][exc] = dst["raised"].get(exc, 0) + n
        out["counters"].update(s["counters"])
        out["n_spans"] += s["n_spans"]
        out["missing"].update(s["missing"])
    return {"spans": dict(out["spans"]), "counters": dict(out["counters"]),
            "n_spans": out["n_spans"], "missing": sorted(out["missing"])}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


# Per-layer metrics reported by every traced run, in this order, with units.
LAYER_METRICS = (
    ("tomography.oracle.calls", "count"), ("tomography.oracle.band_rows", "count"),
    ("tomography.oracle.rows_per_call", "count"), ("tomography.oracle.hit_frac", "ratio"),
    ("tomography.oracle.distinct_pairs", "count"), ("tomography.oracle.self_s", "s"),
    ("tomography.locate.calls", "count"), ("tomography.locate.atoms", "count"),
    ("tomography.locate.self_s", "s"),
    ("tomography.plane_solve.calls", "count"), ("tomography.plane_solve.atoms", "count"),
    ("tomography.plane_solve.self_s", "s"),
    ("tomography.lift.self_s", "s"), ("tomography.reconstruct.self_s", "s"),
    ("tomography.ambiguous", "count"), ("tomography.coverage_gap", "count"),
    ("tomography.oracle_setup_s", "s"),
    ("variation.vertex_residuals.calls", "count"), ("variation.vertex_residuals.ends", "count"),
    ("variation.vertex_residuals.vertices", "count"), ("variation.vertex_residuals.self_s", "s"),
    ("core.cluster_points.reps", "count"), ("core.cluster_points.self_s", "s"),
    ("core.incident_rays.calls", "count"), ("core.incident_rays.ends_scanned", "count"),
    ("core.incident_rays.hit_frac", "ratio"), ("core.incident_rays.self_s", "s"),
    ("projection.weighted_projection.calls", "count"),
    ("projection.weighted_projection.pieces_out", "count"),
    ("projection.weighted_projection.self_s", "s"),
    ("core.mass.calls", "count"), ("core.mass.pieces_scanned", "count"), ("core.mass.self_s", "s"),
    ("core.restrict.calls", "count"), ("core.restrict.pieces_out", "count"),
    ("core.restrict.self_s", "s"),
    ("core.dilate.calls", "count"), ("core.dilate.pieces_out", "count"), ("core.dilate.self_s", "s"),
    ("variation.boundary_variation.calls", "count"), ("variation.boundary_variation.atoms", "count"),
    ("variation.boundary_variation.self_s", "s"),
    ("surgery.radius_attempts", "count"), ("surgery.radius_clean_frac", "ratio"),
    ("surgery.find_good_radius.self_s", "s"),
    ("blowup.weak_star_distance.calls", "count"), ("blowup.weak_star_distance.self_s", "s"),
    ("blowup.battery.evals", "count"), ("blowup.battery.points", "count"),
    ("blowup.tangent_estimate.self_s", "s"), ("core.split_at_point.self_s", "s"),
    ("cli.import_s", "s"), ("cli.run.self_s", "s"),
    ("io.load_varifold.self_s", "s"), ("io.save_varifold.self_s", "s"),
    ("io.write_csv.self_s", "s"), ("io.bytes_written", "count"),
)


def layer_metrics(summary: dict, extra: dict | None = None) -> dict:
    """Named per-layer values from a summary; `extra` holds values measured
    by the benchmark itself (set-up time, diagnostics)."""
    spans, c = summary["spans"], Counter(summary["counters"])
    extra = extra or {}

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def raised(name, exc):
        return spans.get(name, {}).get("raised", {}).get(exc, 0)

    derived = {
        "tomography.oracle.rows_per_call": _ratio(c["tomography.oracle.band_rows"],
                                                  calls("tomography.oracle")),
        "tomography.oracle.hit_frac": _ratio(c["tomography.oracle.hits"],
                                             c["tomography.oracle.band_rows"]),
        "tomography.ambiguous": raised("tomography.reconstruct", "AmbiguousReconstruction"),
        "tomography.coverage_gap": raised("tomography.reconstruct", "CoverageGap"),
        "core.incident_rays.hit_frac": _ratio(c["core.incident_rays.hits"],
                                              c["core.incident_rays.ends_scanned"]),
        "surgery.radius_clean_frac": _ratio(
            calls("surgery.find_good_radius")
            - raised("surgery.find_good_radius", "DegenerateGeometryError"),
            c["surgery.radius_attempts"]),
    }
    out = {}
    for name, unit in LAYER_METRICS:
        span_name, _, field = name.rpartition(".")
        if name in extra:
            value = extra[name]
        elif name in derived:
            value = derived[name]
        elif field in ("calls", "self_s") and span_name in spans:
            value = spans[span_name][field]
        else:
            value = c.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out
