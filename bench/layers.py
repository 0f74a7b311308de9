"""The program's layers as the benchmark calls them, with optional spans.

Each layer is one module of ``src/szk``; the benchmark reaches it only
through the public functions listed in ``LAYERS``.  ``Layers(None)`` hands
out the functions themselves, so an untraced run pays nothing.
``Layers(tracer)`` wraps each one so that every call records a span.
Spans are only taken here, around the benchmark's own calls: work a layer
does by calling another layer internally is counted in the caller.
"""

from __future__ import annotations

import importlib
import statistics
import time
from types import SimpleNamespace
from typing import Dict, List, Optional

LAYERS = {
    "dsl": ("parse_group", "parse_formula", "render_group", "render_formula"),
    "normalize": ("normalize", "invariants", "is_equivalent", "derived_sets"),
    "rank": ("dp_rank", "classify", "vc_density", "seed_witnesses"),
    "ppeval": ("eval_formula", "index_class", "profile_stats", "profile_json"),
    "oracle": ("breadth_search", "verify_inp", "candidate_pool"),
    "shatter": ("subgroup_members", "coset_family", "shatter_function"),
    "cli": ("main",),
}

# Spans that are not layer calls: one timed op, the output checks after it,
# and calls made only in the traced run (candidate_pool, the warm cli.main).
OP, CHECK, EXTRA = "op", "check", "extra"


class Tracer:
    """In-memory spans: (name, start, end, parent index, op id, failed)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op_id: Optional[int] = None

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id, False])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int, failed: bool = False) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = failed
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.end(idx, failed=True)
                raise
            self.end(idx)
            return out
        traced.__name__ = fn.__name__
        return traced

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def _root(self, idx: int) -> str:
        while self.spans[idx][3] >= 0:
            idx = self.spans[idx][3]
        return self.spans[idx][0]

    def summary(self) -> Dict[str, dict]:
        """calls, busy_s (self time), p50_us and failed per span name.

        A layer function is summarised over the calls made by the timed op
        and the extra calls; the output checks re-parse and re-render, and
        would blur that.  A function only the checks call (verify_inp) is
        summarised over the checks.
        """
        selfs = self.self_times()
        groups: Dict[str, Dict[bool, list]] = {}
        for idx, (s, st) in enumerate(zip(self.spans, selfs)):
            in_check = self._root(idx) == CHECK and s[0] != CHECK
            groups.setdefault(s[0], {False: [], True: []})[in_check].append((st, s[5]))
        out = {}
        for name, g in groups.items():
            rows = g[False] or g[True]
            times = [t for t, _f in rows]
            out[name] = {"calls": len(rows), "busy_s": sum(times),
                         "p50_us": statistics.median(times) * 1e6,
                         "failed": sum(f for _t, f in rows)}
        return out

    def per_op_self(self) -> Dict[int, float]:
        """Median over traced rounds of each item's op self time (benchmark
        glue and untraced helpers)."""
        per_item: Dict[int, List[float]] = {}
        for s, st in zip(self.spans, self.self_times()):
            if s[0] == OP:
                per_item.setdefault(s[4], []).append(st)
        return {i: statistics.median(ts) for i, ts in per_item.items()}

    def dump(self) -> dict:
        t0 = self.spans[0][1] if self.spans else 0.0
        return {"fields": ["name", "start_us", "end_us", "parent", "op", "failed"],
                "spans": [[s[0], round((s[1] - t0) * 1e6, 1), round((s[2] - t0) * 1e6, 1),
                           s[3], s[4], s[5]] for s in self.spans]}


def layer_names() -> List[str]:
    return ["%s.%s" % (mod, fn) for mod, fns in LAYERS.items() for fn in fns
            if mod != "cli"]


class Layers:
    """``layers.dsl.parse_group`` etc., traced when a tracer is given."""

    def __init__(self, tracer: Optional[Tracer]):
        for mod, fns in LAYERS.items():
            module = importlib.import_module("szk." + mod)
            ns = {}
            for fn in fns:
                f = getattr(module, fn)
                ns[fn] = f if tracer is None else tracer.wrap("%s.%s" % (mod, fn), f)
            setattr(self, mod, SimpleNamespace(**ns))
