"""Per-module span tracing, applied from outside the library.

The tracer replaces selected public functions with timing wrappers in
every ``permboot`` module that binds them (for example both
``permboot.stepfn.affine_combine`` and ``permboot.verify.affine_combine``),
so calls between modules are caught without touching the library.
Spans are kept in memory for the whole run; a layer's self time is its
span durations minus the time covered by their direct child spans.

One span stack is used, so tracing is only valid while a single thread
calls into the library.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

# (metric prefix, [(module or class path, attribute)], emit a call count)
SPAN_LAYERS = [
    ("resampling.draw_matrix", [
        ("permboot.resampling", "permutation_matrix"),
        ("permboot.resampling", "bootstrap_matrix"),
        ("permboot.resampling", "all_permutations"),
    ], True),
    ("resampling.group_fns", [("permboot.resampling", "resampled_group_fns")], False),
    ("verify.simulate", [("permboot.verify:Law", "sample")], False),
    ("verify.self", [
        ("permboot.verify", "conditional_cov_experiment"),
        ("permboot.verify", "linearization_residual_experiment"),
    ], False),
    ("limits.assemble", [("permboot.limits", "assemble_kernel_matrix")], False),
    ("limits.quad", [("permboot.limits", "quad")], True),
] + [
    (f"functionals.{name}", [("permboot.functionals", name)], True)
    for name in (
        "nelson_aalen", "kaplan_meier", "na_derivative", "km_derivative",
        "wilcoxon_curve", "wilcoxon_derivative", "rmst",
    )
] + [
    (f"stepfn.{name}", [("permboot.stepfn", name)], False)
    for name in ("affine_combine", "integral_curve", "ls_integral")
] + [
    ("empirical.build", [
        ("permboot.empirical", "ecdf"),
        ("permboot.empirical", "at_risk_process"),
        ("permboot.empirical", "uncensored_subdist"),
    ], False),
    ("empirical.csv", [
        ("permboot.empirical", "read_csv"),
        ("permboot.empirical", "write_csv"),
    ], False),
    ("jsonio.write", [
        ("permboot.jsonio", "canonical_json"),
        ("permboot.jsonio", "write_atomic"),
    ], False),
]

CLI_SUBCOMMANDS = ("simulate", "analyze", "kernel", "verify", "dump-fn")

# canonical_json recurses through its own module global; only calls from
# other modules open a span, so one serialization is one span.
_SKIP_OWN_MODULE = {("permboot.jsonio", "canonical_json")}

ROOT = "bench.self"


def span_metric_names():
    """Every time and count metric the tracer emits, with its unit."""
    out = {}
    for prefix, _targets, calls in SPAN_LAYERS:
        out[f"{prefix}_s"] = "s"
        if calls:
            out[f"{prefix}_calls"] = "count"
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}_s"] = "s"
    out[f"{ROOT}_s"] = "s"
    out["resampling.draws"] = "count"
    out["stepfn.objects"] = "count"
    out["jsonio.bytes"] = "count"
    return out


def _resolve(path):
    mod_name, _, cls_name = path.partition(":")
    obj = sys.modules[mod_name]
    return getattr(obj, cls_name) if cls_name else obj


def _permboot_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "permboot" or name.startswith("permboot."))
    ]


class Tracer:
    """Install with ``install()``, time a unit of work inside ``unit()``,
    remove with ``uninstall()``; ``summary()`` gives per-unit means."""

    def __init__(self):
        self._names = []
        self._start = []
        self._end = []
        self._parent = []
        self._stack = [-1]
        self._counts = {"resampling.draws": 0, "stepfn.objects": 0, "jsonio.bytes": 0}
        self._unit_counts = []
        self._patches = []
        self.units = 0

    # -- spans ----------------------------------------------------------

    def _open(self, name):
        i = len(self._names)
        self._names.append(name)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(perf_counter())
        return i

    def _close(self, i):
        self._end[i] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    def _wrap_cli(self, fn):
        @functools.wraps(fn)
        def traced(argv=None):
            i = self._open(f"cli.{argv[0]}")
            try:
                return fn(argv)
            finally:
                self._close(i)

        return traced

    def _counter(self, fn, key, size=None):
        counts = self._counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1 if size is None else size(*args, **kwargs)
            return fn(*args, **kwargs)

        return counted

    # -- patching -------------------------------------------------------

    def _patch_everywhere(self, mod_name, attr, make):
        orig = getattr(sys.modules[mod_name], attr)
        wrapper = make(orig)
        for mod in _permboot_modules():
            if (mod.__name__, attr) in _SKIP_OWN_MODULE:
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def _patch_attr(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        for prefix, targets, _calls in SPAN_LAYERS:
            for path, attr in targets:
                owner = _resolve(path)
                if isinstance(owner, type):
                    self._patch_attr(owner, attr, self._wrap(getattr(owner, attr), prefix))
                else:
                    self._patch_everywhere(
                        path, attr, lambda fn, p=prefix: self._wrap(fn, p)
                    )
        self._patch_everywhere("permboot.cli", "main", self._wrap_cli)
        # write_atomic(path, text): bytes written are the UTF-8 text length
        self._patch_everywhere(
            "permboot.jsonio", "write_atomic",
            lambda fn: self._counter(fn, "jsonio.bytes", lambda _p, text: len(text.encode())),
        )
        stepfn = sys.modules["permboot.stepfn"].StepFn
        draw = sys.modules["permboot.resampling"].ResampleDraw
        self._patch_attr(stepfn, "__post_init__",
                         self._counter(stepfn.__post_init__, "stepfn.objects"))
        self._patch_attr(draw, "__post_init__",
                         self._counter(draw.__post_init__, "resampling.draws"))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def unit(self, fn):
        """Run fn() as one traced unit under the root span."""
        before = dict(self._counts)
        first = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(first)
            self.units += 1
            made = {k: v - before[k] for k, v in self._counts.items()}
            for name in self._names[first:]:
                made[name] = made.get(name, 0) + 1
            self._unit_counts.append(made)

    # -- reduction ------------------------------------------------------

    def counts_repeat(self) -> bool:
        """True when every traced unit made exactly the same calls and counts."""
        return all(c == self._unit_counts[0] for c in self._unit_counts)

    def summary(self) -> dict:
        """Self time per metric as a mean per unit; call counts and
        counters as made by the first unit (see ``counts_repeat``)."""
        dur = np.array(self._end) - np.array(self._start)
        parent = np.array(self._parent, dtype=np.intp)
        covered = np.zeros_like(dur)
        inner = parent >= 0
        np.add.at(covered, parent[inner], dur[inner])
        totals = {}
        for name, st in zip(self._names, (dur - covered).tolist()):
            totals[name] = totals.get(name, 0.0) + st
        first = self._unit_counts[0] if self._unit_counts else {}
        out = {}
        for metric in span_metric_names():
            if metric.endswith("_s"):
                out[metric] = totals.get(metric[:-2], 0.0) / max(self.units, 1)
            elif metric.endswith("_calls"):
                out[metric] = first.get(metric[:-6], 0)
            else:
                out[metric] = first.get(metric, 0)
        return out
