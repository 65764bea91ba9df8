"""Spans around the public functions of each `apfree` layer, recorded from
outside the program.

`Tracer.install()` replaces each listed function in every `apfree` module
namespace that binds it by name (so `dsets.verify_group_set` and
`verify.verify_group_set` are both wrapped), and `uninstall()` restores the
originals.  Spans stay in memory; `layer_metrics()` reduces them to the
per-layer metrics.  Calls made inside sweep worker processes are not seen;
their results come back through `run_sweep`'s return value.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter

# (module, attribute, span name); the span name is the layer metric prefix
SPANS = [
    ("groups", "best_slice", "groups.best_slice"),
    ("groups", "slice_preimage_set", "groups.slice_preimage_set"),
    ("groups", "search_shift", "groups.search_shift"),
    ("groups", "fiber_reduce", "groups.fiber_reduce"),
    ("integers", "build_integer_set", "integers.build_integer_set"),
    ("integers", "build_integer_set_direct", "integers.build_integer_set_direct"),
    ("integers", "separation_ok", "integers.separation_ok"),
    ("baselines", "behrend_set", "baselines.behrend_set"),
    ("baselines", "halfbox_set", "baselines.halfbox_set"),
    ("verify", "verify_integer_set", "verify.integer"),
    ("verify", "verify_group_set", "verify.group"),
    ("gridscan", "run_sweep", "gridscan.sweep"),
    ("storage", "write_set", "storage.write_set"),
    ("storage", "read_set", "storage.read_set"),
    ("cli", "main", "cli.main"),
    ("cli", "_all_counterexamples", "cli.all_counterexamples"),
]
# hot per-element calls: counted only, no span, to keep the overhead low
COUNTS = [
    ("integers", "crt_encode", "integers.crt_encode.calls"),
    ("gridscan", "weight_table", "gridscan.weight_table.calls"),
]
METHOD_COUNTS = [
    ("blocks", "BuildingBlock", "weight", "blocks.weight.calls"),
    ("blocks", "BuildingBlock", "piece_of", "blocks.piece_of.calls"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "args", "result", "child_s")

    def __init__(self, name, start, parent, args):
        self.name, self.start, self.parent, self.args = name, start, parent, args
        self.end, self.result, self.child_s = start, None, 0.0

    @property
    def busy(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), parent, args)
            self.spans.append(span)
            self._stack.append(span)
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.busy
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "apfree" or n.startswith("apfree.")]
        for mod, attr, name in SPANS + COUNTS:
            original = getattr(sys.modules[f"apfree.{mod}"], attr, None)
            if original is None:  # a layer function that no longer exists reads as zero
                continue
            make = self._span_wrapper if (mod, attr, name) in SPANS else self._count_wrapper
            wrapped = make(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, value))
                        setattr(m, key, wrapped)
        for mod, cls_name, attr, name in METHOD_COUNTS:
            cls = getattr(sys.modules[f"apfree.{mod}"], cls_name)
            original = cls.__dict__.get(attr)
            if original is None:
                continue
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._count_wrapper(name, original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, busy and self seconds, counts and ratios.

        busy_s sums only outermost spans of a name, so recursion is not
        counted twice; self_s is busy time minus the time of child spans."""
        calls, busy, self_s = Counter(), Counter(), Counter()
        for s in self.spans:
            name = s.name
            if name == "gridscan.sweep":
                name = f"gridscan.sweep.{s.args[0]}"
            if name == "verify.integer" and s.parent is not None \
                    and s.parent.name == "baselines.behrend_set":
                name = "baselines.inner_verify"
            calls[name] += 1
            self_s[name] += s.busy - s.child_s
            if not _has_ancestor(s, s.name):
                busy[name] += s.busy
        m: dict[str, float] = {f"{name}.calls": calls[name] for name in (
            "groups.best_slice", "integers.separation_ok", "baselines.inner_verify", "cli.main")}
        for name in ("groups.best_slice", "groups.slice_preimage_set", "groups.fiber_reduce",
                     "integers.separation_ok", "baselines.halfbox_set", "baselines.inner_verify",
                     "storage.write_set", "storage.read_set"):
            m[f"{name}.busy_s"] = busy[name]
        for name in ("groups.search_shift", "integers.build_integer_set",
                     "integers.build_integer_set_direct", "baselines.behrend_set", "cli.main"):
            m[f"{name}.self_s"] = self_s[name]
        sets_built = calls["groups.slice_preimage_set"]
        enumerations = calls["groups.best_slice"] + sets_built
        m["groups.enumerations_per_set"] = enumerations / sets_built if sets_built else 0.0
        m["groups.in_block_tuples"] = sum(s.result.provenance.get("in_block_total", 0)
                                          for s in self.spans
                                          if s.name == "groups.slice_preimage_set" and s.result)
        for name in ("blocks.weight.calls", "blocks.piece_of.calls",
                     "integers.crt_encode.calls", "gridscan.weight_table.calls"):
            m[name] = self.counts[name]
        for mode in ("integer", "group"):
            spans = [s for s in self.spans if s.name == f"verify.{mode}" and s.result is not None]
            pairs = sum(s.result.checked for s in spans)
            secs = sum(s.busy for s in spans)
            m[f"verify.{mode}.busy_s"] = secs
            m[f"verify.{mode}.pairs"] = pairs
            m[f"verify.{mode}.pairs_per_s"] = pairs / secs if secs else 0.0
        m["verify.counterexamples"] = sum(len(s.result) for s in self.spans
                                          if s.name == "cli.all_counterexamples")
        sweep_s = 0.0
        for kind in ("block", "midpoint", "x1z1", "facts"):
            m[f"gridscan.sweep.{kind}.busy_s"] = busy[f"gridscan.sweep.{kind}"]
            sweep_s += busy[f"gridscan.sweep.{kind}"]
        candidates = sum(s.result[0].get("candidates", 0) for s in self.spans
                         if s.name == "gridscan.sweep" and s.result is not None)
        m["gridscan.candidates"] = candidates
        m["gridscan.candidates_per_s"] = candidates / sweep_s if sweep_s else 0.0
        m["storage.bytes_written"] = sum(p.stat().st_size for s in self.spans
                                         if s.name == "storage.write_set" and s.result
                                         for p in s.result.values())
        return m

    def completeness_errors(self) -> list[str]:
        """Exact counts the program's structure implies: each search_shift
        runs best_slice once per trial plus once for the histogram, and each
        certificate checks every unordered pair once."""
        errors = []
        children = Counter(id(s.parent) for s in self.spans if s.name == "groups.best_slice")
        for s in self.spans:
            if s.name == "groups.search_shift":
                want = s.args[3] + 1  # search_shift(moduli, epsilon, delta, trials, seed)
                if children[id(s)] != want:
                    errors.append(f"search_shift ran best_slice {children[id(s)]} times, want {want}")
            elif s.name in ("verify.integer", "verify.group") and s.result is not None:
                size = s.result.parameters["size"]
                if s.result.checked != math.comb(size, 2):
                    errors.append(f"{s.name} checked {s.result.checked} pairs of {size} elements")
        return errors


def _has_ancestor(span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False
