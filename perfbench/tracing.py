"""Spans around calls into the convexsums modules, recorded from outside.

`Tracer.install()` rebinds each traced function in the module that defines
it and in every convexsums module (or module-level dict, such as
`experiments.EXPERIMENTS`) that holds a reference to it, so calls made
through `from .x import name` bindings are traced too.  `uninstall()` puts
the originals back.  Spans are kept in memory; `layer_bases` turns the spans
of one op into additive per-layer quantities and `layer_metrics` turns their
sums into the reported per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute path) for every traced function; span name is
# "<module>.<last path component>"
TARGETS = (
    ("rational", "enumerate_fractions"),
    ("convexseq", "construct_dirichlet_like"),
    ("convexseq", "construct_small_alpha"),
    ("convexseq", "validate"),
    ("convexseq", "intersect_count"),
    ("convexseq", "shear"),
    ("interp", "build_c1"),
    ("interp", "upgrade_c2"),
    ("interp", "ConvexInterpolant.eval_many"),
    ("expsum", "sup_norm_Lp"),
    ("expsum", "dyadic_level_report"),
    ("expsum", "eval_point"),
    ("experiments", "experiment_A"),
    ("experiments", "experiment_B"),
    ("experiments", "experiment_C"),
    ("experiments", "intersection_scan"),
    ("experiments", "regress"),
    ("cli", "main"),
)
MODULES = ("rational", "interp", "convexseq", "expsum", "experiments", "cli")
GRID_SPANS = ("expsum.sup_norm_Lp", "expsum.dyadic_level_report")
CONSTRUCT_SPANS = ("convexseq.construct_dirichlet_like", "convexseq.construct_small_alpha")

# per-layer metric name -> (unit, better); the order is the output order
LAYER_METRICS = {
    "expsum.sup_norm_Lp.self_s": ("s", "lower"),
    "expsum.sup_norm_Lp.calls": ("count", "lower"),
    "expsum.dyadic_level_report.self_s": ("s", "lower"),
    "expsum.eval_point.self_s": ("s", "lower"),
    "expsum.eval_point.calls": ("count", "lower"),
    "expsum.nodes": ("count", "lower"),
    "expsum.nodes_per_s": ("1/s", "higher"),
    "expsum.grid_coverage": ("ratio", "higher"),
    "expsum.support_K": ("count", "lower"),
    "expsum.minflt": ("count", "lower"),
    "expsum.sys_s": ("s", "lower"),
    "expsum.cpu_over_wall": ("ratio", "higher"),
    "rational.enumerate_fractions.self_s": ("s", "lower"),
    "rational.enumerate_fractions.calls": ("count", "lower"),
    "rational.enumerate_fractions.out": ("count", "lower"),
    "convexseq.construct.self_s": ("s", "lower"),
    "convexseq.construct.calls": ("count", "lower"),
    "convexseq.construct.terms": ("count", "lower"),
    "convexseq.knot_yield": ("ratio", "higher"),
    "convexseq.validate.self_s": ("s", "lower"),
    "convexseq.intersect_count.self_s": ("s", "lower"),
    "convexseq.shear.self_s": ("s", "lower"),
    "interp.build_c1.self_s": ("s", "lower"),
    "interp.upgrade_c2.self_s": ("s", "lower"),
    "interp.eval_many.self_s": ("s", "lower"),
    "interp.eval_many.points": ("count", "lower"),
    "interp.pieces": ("count", "lower"),
    "experiments.self_s": ("s", "lower"),
    "experiments.intersection_scan.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.envelope_bytes": ("bytes", "lower"),
    "trace_overhead_s": ("s", "lower"),
}


def _attrs(name: str, args: tuple, result) -> dict:
    """Work counts recorded at the span boundary."""
    if name == "rational.enumerate_fractions":
        return {"out": len(result)}
    if name in CONSTRUCT_SPANS:
        a = {"terms": result.N}
        if "fractions" in result.meta:  # mediant construction: one knot per gap
            a["gaps"] = result.meta["fractions"] - 1
            a["gap_hits"] = len(result.hits or [])
        return a
    if name == "interp.eval_many":
        return {"points": int(np.size(args[1]))}
    if name == "interp.upgrade_c2":
        return {"pieces": len(result.pieces)}
    if name in GRID_SPANS:
        spec, grid = args[0], args[1]
        return {
            "nodes": grid.Mx * grid.Mt,
            "nominal": 16 * spec.N**3,
            "K": int(np.count_nonzero(spec.b)),
        }
    return {}


@dataclass
class Span:
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    rusage: tuple | None = None  # (cpu_s, sys_s, minflt) deltas, expsum grid spans


def _rusage() -> tuple[float, float, int]:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime, r.ru_stime, r.ru_minflt


class Tracer:
    """Records spans while installed; `op` names the op the spans belong to.

    Traced functions are entered only from the benchmark's own thread (the
    expsum thread pool runs private helpers), so one span stack suffices.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        with_rusage = name in GRID_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, tracer.op, stack[-1] if stack else None, 0.0)
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            r0 = _rusage() if with_rusage else None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if r0 is not None:
                    r1 = _rusage()
                    span.rusage = tuple(b - a for a, b in zip(r0, r1))
                stack.pop()
            span.attrs = _attrs(name, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            return
        mods = [importlib.import_module(f"convexsums.{m}") for m in MODULES]
        for mod_name, path in TARGETS:
            owner = importlib.import_module(f"convexsums.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            wrapped = self._wrap(f"{mod_name}.{attr}", orig)
            self._set(owner, attr, wrapped)
            if outer:
                continue  # methods are reached through the class only
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is orig:
                                self._saved.append((val, k, v))
                                val[k] = wrapped

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._saved):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._saved.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "op": s.op, "parent": s.parent,
                    "start": s.start, "end": s.end, "attrs": s.attrs,
                    "rusage": s.rusage,
                }) + "\n")


def layer_bases(spans: list[Span], first: int) -> dict[str, float]:
    """Additive quantities for the spans of one traced op.

    `spans` is `Tracer.spans[first:]`; parent ids are absolute indices.
    Ratios are formed only after these bases are summed over ops.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent - first] += s.end - s.start
    base: dict[str, float] = {}

    def add(key: str, v: float) -> None:
        base[key] = base.get(key, 0.0) + v

    for s, child_s in zip(spans, child):
        dur = s.end - s.start
        key = "convexseq.construct" if s.name in CONSTRUCT_SPANS else s.name
        add(f"{key}.self_s", dur - child_s)
        add(f"{key}.calls", 1)
        if s.name.startswith("experiments."):
            add("experiments.self_s", dur - child_s)
        # grid spans share their counts: both routines sweep one grid each
        prefix = "expsum" if s.rusage is not None else key
        for k, v in s.attrs.items():
            add(f"{prefix}.{k}", v)
        if s.rusage is not None:
            cpu, sys_s, minflt = s.rusage
            add("expsum.wall", dur)
            add("expsum.cpu", cpu)
            add("expsum.sys_s", sys_s)
            add("expsum.minflt", minflt)
    return base


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(base: dict[str, float], overhead_s: float) -> dict[str, float]:
    """Reported per-layer metrics from summed bases (0 for unused layers)."""
    g = base.get
    out = {
        "expsum.nodes_per_s": _ratio(g("expsum.nodes", 0), g("expsum.wall", 0)),
        "expsum.grid_coverage": _ratio(g("expsum.nodes", 0), g("expsum.nominal", 0)),
        "expsum.support_K": g("expsum.K", 0),
        "expsum.cpu_over_wall": _ratio(g("expsum.cpu", 0), g("expsum.wall", 0)),
        "convexseq.knot_yield": _ratio(
            g("convexseq.construct.gap_hits", 0), g("convexseq.construct.gaps", 0)
        ),
        "interp.pieces": g("interp.upgrade_c2.pieces", 0),
        "trace_overhead_s": overhead_s,
    }
    for name in LAYER_METRICS:
        if name not in out:
            out[name] = g(name, 0)
    return {name: float(out[name]) for name in LAYER_METRICS}
