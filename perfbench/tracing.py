"""Span wrappers installed from outside cubelap, for the traced run.

Each public function of interest is replaced, for the duration of a traced
repetition, by a wrapper that records a span: target, parent span, start
and end. Wrappers are installed on the names as bound in every
calling module (``cubelap.evolve.forward_transform`` as well as
``cubelap.grid.forward_transform``), because ``from .grid import ...`` copies
the binding. Spans stay in memory; ``layer_metrics`` turns them into
per-layer counts and self times when the repetition ends. A span's self time
is its duration minus the time covered by its child spans.

Targets that no longer exist are reported as absent, never as zero.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PKG = "cubelap"


def _transform_bytes(args, kwargs, result):
    return {"grid.transform.bytes": args[0].values.nbytes + result.values.nbytes}


def _oracle_substeps(args, kwargs, result):
    substeps = kwargs["substeps"] if "substeps" in kwargs else args[2]
    return {"evolve.oracle.substeps": substeps}


def _picard_counts(args, kwargs, result):
    frames = result.field.frames
    m, n = frames.shape[0] - 1, frames.shape[1]
    its = result.trace.iterations
    ratios = result.trace.reported_ratios()
    worst = float(ratios.max()) / result.certificate.constant if ratios.size else 0.0
    return {
        "evolve.windows": 1,
        "evolve.picard.iterations": its,
        "evolve.mode_updates": its * m * n,
        "max:evolve.ratio_over_C": worst,
    }


def _dump_bytes(args, kwargs, result):
    field = kwargs["field"] if "field" in kwargs else args[1]
    return {"storage.dump.bytes": field.frames.nbytes}


def _field_bytes(obj):
    return {"grid.field.constructions": 1, "grid.field.bytes_copied": obj.values.nbytes}


def _spacetime_bytes(obj):
    return {
        "grid.field.constructions": 1,
        "grid.field.bytes_copied": obj.frames.nbytes + obj.time_grid.nbytes,
    }


# (module, attribute, hook, modules whose binding is left alone)
#
# ``cubelap.model`` keeps its own ``l2_norm`` unwrapped: its only caller there
# is the growth check of ``apply_nonlinearity``, whose cost belongs to the
# nonlinearity's self time.
SPAN_TARGETS = [
    ("grid", "forward_transform", _transform_bytes, ()),
    ("grid", "inverse_transform", _transform_bytes, ()),
    ("grid", "l2_norm", None, ("model",)),
    ("grid", "h6_norm", None, ()),
    ("grid", "spacetime_sobolev_norm", None, ()),
    ("model", "apply_nonlinearity", None, ()),
    ("model", "gaussian_kernel", None, ()),
    ("model", "sech_kernel", None, ()),
    ("model", "bandlimited_kernel", None, ()),
    ("model", "tabulated_kernel", None, ()),
    ("model", "tabulated_kernel_from_csv", None, ()),
    ("model", "source_zero", None, ()),
    ("model", "source_gaussian", None, ()),
    ("model", "source_bandlimited", None, ()),
    ("model", "linear_plus_source", None, ()),
    ("model", "saturating", None, ()),
    ("model", "logistic_clip", None, ()),
    ("model", "kernel_strength", None, ()),
    ("model", "validate_kernel", None, ()),
    ("model", "check_lipschitz_sampling", None, ()),
    ("model", "nontriviality_overlap", None, ()),
    ("model", "ProblemSpec.__post_init__", None, ()),
    ("certify", "contraction_constant", None, ()),
    ("certify", "max_window", None, ()),
    ("certify", "Certificate.for_window", None, ()),
    ("certify", "window_schedule", None, ()),
    ("certify", "certificate_report", None, ()),
    ("evolve", "picard_solve", _picard_counts, ()),
    ("evolve", "duhamel_map", None, ()),
    ("evolve", "time_derivative", None, ()),
    ("evolve", "etd_reference_solve", _oracle_substeps, ()),
    ("evolve", "global_march", None, ()),
    ("runner", "parse_config", None, ()),
    ("runner", "build_problem", None, ()),
    ("runner", "run", None, ()),
    ("storage", "dump_spacetime_field", _dump_bytes, ()),
    ("storage", "load_spacetime_field", None, ()),
]

# Constructors counted without a span: their copy cost stays in the caller.
COUNT_TARGETS = [
    ("grid", "Field.__post_init__", _field_bytes),
    ("grid", "SpacetimeField.__post_init__", _spacetime_bytes),
]

_NORMS = ["grid.l2_norm", "grid.h6_norm", "grid.spacetime_sobolev_norm"]
_TRANSFORMS = ["grid.forward_transform", "grid.inverse_transform"]
_CATALOG = [
    f"model.{n}"
    for n in (
        "gaussian_kernel", "sech_kernel", "bandlimited_kernel", "tabulated_kernel",
        "tabulated_kernel_from_csv", "source_zero", "source_gaussian",
        "source_bandlimited", "linear_plus_source", "saturating", "logistic_clip",
    )
]
_CHECKS = [
    "model.kernel_strength", "model.validate_kernel", "model.check_lipschitz_sampling",
    "model.nontriviality_overlap", "model.ProblemSpec.__post_init__",
]
_CERTIFY = [
    "certify.contraction_constant", "certify.max_window", "certify.Certificate.for_window",
    "certify.window_schedule", "certify.certificate_report",
]
_FIELDS = ["grid.Field.__post_init__", "grid.SpacetimeField.__post_init__"]

# metric -> (kind, targets it needs, counter key)
# kind: "calls" and "self_s" aggregate spans of the targets; "count" and "max"
# read a counter filled by a hook of the targets.
LAYER_METRICS = {
    "grid.transform.calls": ("calls", _TRANSFORMS, None),
    "grid.transform.self_s": ("self_s", _TRANSFORMS, None),
    "grid.transform.bytes": ("count", _TRANSFORMS, "grid.transform.bytes"),
    "grid.norm.calls": ("calls", _NORMS, None),
    "grid.norm.self_s": ("self_s", _NORMS, None),
    "grid.field.constructions": ("count", _FIELDS, "grid.field.constructions"),
    "grid.field.bytes_copied": ("count", _FIELDS, "grid.field.bytes_copied"),
    "model.nonlinearity.calls": ("calls", ["model.apply_nonlinearity"], None),
    "model.nonlinearity.self_s": ("self_s", ["model.apply_nonlinearity"], None),
    "model.catalog.self_s": ("self_s", _CATALOG, None),
    "model.checks.self_s": ("self_s", _CHECKS, None),
    "certify.certificate.calls": ("calls", ["certify.contraction_constant"], None),
    "certify.max_window.calls": ("calls", ["certify.max_window"], None),
    "certify.self_s": ("self_s", _CERTIFY, None),
    "evolve.windows": ("count", ["evolve.picard_solve"], "evolve.windows"),
    "evolve.picard.iterations": ("count", ["evolve.picard_solve"], "evolve.picard.iterations"),
    "evolve.mode_updates": ("count", ["evolve.picard_solve"], "evolve.mode_updates"),
    "evolve.picard.self_s": ("self_s", ["evolve.picard_solve"], None),
    "evolve.duhamel.calls": ("calls", ["evolve.duhamel_map"], None),
    "evolve.duhamel.self_s": ("self_s", ["evolve.duhamel_map"], None),
    "evolve.time_derivative.self_s": ("self_s", ["evolve.time_derivative"], None),
    "evolve.oracle.substeps": ("count", ["evolve.etd_reference_solve"], "evolve.oracle.substeps"),
    "evolve.oracle.self_s": ("self_s", ["evolve.etd_reference_solve"], None),
    "evolve.march.self_s": ("self_s", ["evolve.global_march"], None),
    "evolve.ratio_over_C": ("max", ["evolve.picard_solve"], "evolve.ratio_over_C"),
    "runner.parse.self_s": ("self_s", ["runner.parse_config"], None),
    "runner.build.self_s": ("self_s", ["runner.build_problem"], None),
    "runner.run.self_s": ("self_s", ["runner.run"], None),
    "storage.dump.calls": ("calls", ["storage.dump_spacetime_field"], None),
    "storage.dump.self_s": ("self_s", ["storage.dump_spacetime_field"], None),
    "storage.dump.bytes": ("count", ["storage.dump_spacetime_field"], "storage.dump.bytes"),
    "storage.load.calls": ("calls", ["storage.load_spacetime_field"], None),
    "storage.load.self_s": ("self_s", ["storage.load_spacetime_field"], None),
}


def _resolve(modname: str, attr: str):
    """Return (owner, name, raw attribute) or None if the target is gone."""
    owner = sys.modules.get(f"{PKG}.{modname}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    raw = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return None if raw is None else (owner, name, raw)


class Tracer:
    """In-memory span recorder for one traced repetition."""

    def __init__(self):
        # [target, parent index, start, end]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(int)
        # calls of the constructors that are counted without a span
        self.counted: dict[str, int] = defaultdict(int)
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _span(self, target: str, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([target, stack[-1] if stack else -1, time.perf_counter(), None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][3] = time.perf_counter()
                stack.pop()
            if hook is not None:
                self._add(hook(args, kwargs, result))
            return result

        return wrapper

    def _counter(self, target: str, fn, hook):
        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            fn(obj, *args, **kwargs)
            self.counted[target] += 1
            self._add(hook(obj))

        return wrapper

    def _add(self, increments: dict):
        for key, val in increments.items():
            if key.startswith("max:"):
                key = key[4:]
                self.counters[key] = max(self.counters.get(key, val), val)
            else:
                self.counters[key] += val

    def install(self):
        """Wrap every target; record the ones that cannot be found."""
        modules = [m for n, m in sys.modules.items() if n == PKG or n.startswith(PKG + ".")]
        for modname, attr, hook, skip in SPAN_TARGETS:
            self._install_one(modname, attr, modules, skip, lambda fn, t, h=hook: self._span(t, fn, h))
        for modname, attr, hook in COUNT_TARGETS:
            self._install_one(modname, attr, modules, (), lambda fn, t, h=hook: self._counter(t, fn, h))

    def _install_one(self, modname, attr, modules, skip, make):
        target = f"{modname}.{attr}"
        found = _resolve(modname, attr)
        if found is None:
            self.missing[target] = f"{PKG}.{target} does not exist"
            return
        owner, name, raw = found
        if isinstance(owner, type):
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = make(fn, target)
            setattr(owner, name, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            self._restore.append((owner, name, raw))
            return
        wrapped = make(raw, target)
        skipped = {f"{PKG}.{s}" for s in skip}
        for mod in modules:
            if mod.__name__ in skipped:
                continue
            for key, val in list(vars(mod).items()):
                if val is raw:
                    setattr(mod, key, wrapped)
                    self._restore.append((mod, key, raw))

    def uninstall(self):
        for owner, name, raw in reversed(self._restore):
            setattr(owner, name, raw)
        self._restore.clear()

    def layer_metrics(self) -> tuple[dict, dict]:
        """Per-layer values and, for metrics that cannot be measured, why."""
        child = defaultdict(float)
        calls = defaultdict(int, self.counted)
        self_s = defaultdict(float)
        for _target, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (target, _parent, start, end) in enumerate(self.spans):
            calls[target] += 1
            self_s[target] += (end - start) - child[idx]
        values, absent = {}, {}
        for metric, (kind, targets, key) in LAYER_METRICS.items():
            gone = [self.missing[t] for t in targets if t in self.missing]
            if gone:
                absent[metric] = "; ".join(gone)
            elif not any(calls[t] for t in targets):
                absent[metric] = "this workload calls none of " + ", ".join(targets)
            elif kind == "calls":
                values[metric] = sum(calls[t] for t in targets)
            elif kind == "self_s":
                values[metric] = sum(self_s[t] for t in targets)
            else:
                values[metric] = self.counters.get(key, 0)
        return values, absent
