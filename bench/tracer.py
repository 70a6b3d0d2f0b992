"""Span tracer that wraps the library's public functions from outside.

The library binds names with ``from .x import y``, so a function has one
binding in the module that defines it and one more in every module that
imports it (and in the package namespace).  Patching only the defining
module would miss most calls, so :meth:`Tracer.install` replaces the
function at every ``nestrad`` module binding that holds it, and the two
``SequenceSpec`` methods on the class.  :meth:`Tracer.restore` puts every
original back.

A span is ``(name, parent, start, end, request, size)``: ``parent`` is the
index of the enclosing span or -1, ``request`` the index of the benchmark
operation that caused it, and ``size`` a work count read from the call's
arguments or result (fold levels, terms returned, chosen depth, exit code).
Spans stay in memory until :func:`layer_metrics` folds them into per-layer
figures.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter
from typing import Callable

# (span name, defining module, attribute, work count from (args, result))
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("nested.fold", "nestrad.nested", "sqrt_nested_scaled", lambda a, r: len(a[0])),
    ("nested.nested_eval", "nestrad.nested", "nested_eval", None),
    ("seqspec.terms", "nestrad.seqspec", "SequenceSpec.terms_lograw", lambda a, r: len(r)),
    ("seqspec.tail_bounds", "nestrad.seqspec", "SequenceSpec.tail_bounds", None),
    ("seqspec.parse", "nestrad.seqspec", "parse_spec", None),
    ("seqspec.make_family", "nestrad.seqspec", "make_family", None),
    ("kappa.enclosure", "nestrad.kappa", "kappa_enclosure", None),
    ("kappa.limit", "nestrad.kappa", "kappa_limit", lambda a, r: r.enclosure.depth),
    ("ufunc.u_spec", "nestrad.ufunc", "u_spec", None),
    ("ufunc.u_eval", "nestrad.ufunc", "u_eval", None),
    ("ufunc.u_inverse", "nestrad.ufunc", "u_inverse", None),
    ("ufunc.u_table", "nestrad.ufunc", "u_table", None),
    ("caps.sup_enclosure", "nestrad.caps", "sup_enclosure", None),
    # cf_limit walks its bound once per level past the first
    ("contfn.cf_limit", "nestrad.contfn", "cf_limit", lambda a, r: r.enclosure.depth - 1),
    ("cli.run", "nestrad.cli", "run", lambda a, r: r),
)

# Counts that must repeat exactly for one seed.
COUNT_METRICS = (
    "nested.fold_calls",
    "nested.fold_levels",
    "nested.nested_eval_calls",
    "seqspec.terms_generated",
    "seqspec.tail_bounds_calls",
    "seqspec.parse_calls",
    "kappa.enclosure_calls",
    "kappa.limit_calls",
    "kappa.enclosures_per_limit",
    "kappa.depth_mean",
    "ufunc.u_eval_calls",
    "ufunc.u_evals_per_inverse",
    "caps.calls",
    "caps.enclosures_per_call",
    "contfn.cf_calls",
    "contfn.bound_iterations",
    "cli.run_calls",
    "cli.exit_0",
    "cli.exit_2",
    "cli.exit_3",
    "cli.exit_other",
)

LAYERS = ("nested", "seqspec", "kappa", "ufunc", "caps", "contfn", "cli")


class Tracer:
    """Records spans around the library's public functions while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, size: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                work = size(args, result) if size is not None and result is not None else None
                spans[index] = (name, parent, start, end, self.request, work)

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "nestrad" or n.startswith("nestrad.")]
        for name, module_name, attribute, size in TARGETS:
            owner = sys.modules[module_name]
            if "." in attribute:
                class_name, method = attribute.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                self._patch(cls, method, self._wrap(name, original, size), original)
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(name, original, size)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapper, original)

    def _patch(self, owner: object, attribute: str, wrapper: Callable, original: object) -> None:
        setattr(owner, attribute, wrapper)
        self._patched.append((owner, attribute, original))

    def restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def take(self) -> list:
        """Hand over the recorded spans and start a fresh record."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def layer_metrics(spans: list, pass_seconds: float, speed: float = 1.0) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass.

    ``pass_seconds`` is the wall time spent inside the benchmark's calls and
    ``speed`` the pass's calibration factor, applied to every time.  Also
    returns ``share.<layer>`` (self time over ``pass_seconds``) and
    ``share.bench`` (time inside calls but outside every top-level span).
    """
    count = len(spans)
    child = [0.0] * count
    for name, parent, start, end, _request, _size in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    work: dict[str, float] = {}
    under = {"kappa.limit": [False] * count, "ufunc.u_inverse": [False] * count, "caps.sup_enclosure": [False] * count}
    nested_in = {key: 0 for key in ("limit_enclosures", "inverse_u_evals", "caps_enclosures")}
    exits = {"cli.exit_0": 0, "cli.exit_2": 0, "cli.exit_3": 0, "cli.exit_other": 0}
    top_level = 0.0
    for i, (name, parent, start, end, _request, size) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + ((end - start) - child[i]) * speed
        if size is not None:
            work[name] = work.get(name, 0) + size
        if parent < 0:
            top_level += end - start
        for outer, flags in under.items():
            flags[i] = parent >= 0 and (flags[parent] or spans[parent][0] == outer)
        if name == "kappa.enclosure":
            nested_in["limit_enclosures"] += under["kappa.limit"][i]
            nested_in["caps_enclosures"] += under["caps.sup_enclosure"][i]
        elif name == "ufunc.u_eval":
            nested_in["inverse_u_evals"] += under["ufunc.u_inverse"][i]
        elif name == "cli.run":
            key = f"cli.exit_{size}" if f"cli.exit_{size}" in exits else "cli.exit_other"
            exits[key] += 1

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator * scale / denominator if denominator else 0.0

    fold_levels = work.get("nested.fold", 0)
    terms = work.get("seqspec.terms", 0)
    limits = calls.get("kappa.limit", 0)
    inverses = calls.get("ufunc.u_inverse", 0)
    sups = calls.get("caps.sup_enclosure", 0)
    runs = calls.get("cli.run", 0)
    metrics = {
        "nested.fold_calls": calls.get("nested.fold", 0),
        "nested.fold_levels": fold_levels,
        "nested.fold_self_s": self_s.get("nested.fold", 0.0),
        "nested.fold_ns_per_level": per(self_s.get("nested.fold", 0.0), fold_levels, 1e9),
        "nested.nested_eval_calls": calls.get("nested.nested_eval", 0),
        "nested.nested_eval_self_s": self_s.get("nested.nested_eval", 0.0),
        "seqspec.terms_generated": terms,
        "seqspec.terms_self_s": self_s.get("seqspec.terms", 0.0),
        "seqspec.terms_ns_per_term": per(self_s.get("seqspec.terms", 0.0), terms, 1e9),
        "seqspec.tail_bounds_calls": calls.get("seqspec.tail_bounds", 0),
        "seqspec.tail_bounds_self_s": self_s.get("seqspec.tail_bounds", 0.0),
        "seqspec.parse_calls": calls.get("seqspec.parse", 0),
        "seqspec.parse_self_s": self_s.get("seqspec.parse", 0.0),
        "kappa.enclosure_calls": calls.get("kappa.enclosure", 0),
        "kappa.enclosure_self_s": self_s.get("kappa.enclosure", 0.0),
        "kappa.limit_calls": limits,
        "kappa.limit_self_s": self_s.get("kappa.limit", 0.0),
        "kappa.enclosures_per_limit": per(nested_in["limit_enclosures"], limits),
        "kappa.depth_mean": per(work.get("kappa.limit", 0), limits),
        "ufunc.u_eval_calls": calls.get("ufunc.u_eval", 0),
        "ufunc.u_evals_per_inverse": per(nested_in["inverse_u_evals"], inverses),
        "ufunc.self_s": sum(v for k, v in self_s.items() if k.startswith("ufunc.")),
        "caps.calls": sups,
        "caps.enclosures_per_call": per(nested_in["caps_enclosures"], sups),
        "caps.self_s": self_s.get("caps.sup_enclosure", 0.0),
        "contfn.cf_calls": calls.get("contfn.cf_limit", 0),
        "contfn.bound_iterations": work.get("contfn.cf_limit", 0),
        "contfn.self_s": self_s.get("contfn.cf_limit", 0.0),
        "cli.run_calls": runs,
        "cli.self_s": self_s.get("cli.run", 0.0),
        "cli.self_ms_per_run": per(self_s.get("cli.run", 0.0), runs, 1e3),
        **exits,
    }
    for layer in LAYERS:
        layer_self = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        metrics[f"share.{layer}"] = per(layer_self, pass_seconds * speed)
    metrics["share.bench"] = per(pass_seconds - top_level, pass_seconds)
    return metrics


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over traced passes."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
