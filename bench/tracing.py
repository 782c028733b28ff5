"""Spans and call counts recorded from outside the program.

A span is recorded by replacing a name in the module namespace where it is
called (for example `codiscover.training.head_forward`, which is the
`head_forward` that `caption_batch_loss` calls). Spans live in memory and are
written out once, when the run ends. The counting pass is separate from the
timed and traced runs: it counts Python calls with `sys.setprofile` and reads
no clock.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory span recorder.

    Each span is a tuple (span_id, trace_id, parent_id, name, start, end).
    Spans opened while a span is open become its children. `trace_id` groups
    the spans of one training step, one evaluation pass or one CLI pipeline.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[tuple] = []  # open (span_id, name, start)
        self._next_id = 0
        self._patches: list[tuple] = []
        self.trace_id = 0

    def begin(self, name: str) -> None:
        self._next_id += 1
        self._stack.append((self._next_id, name, time.perf_counter()))

    def end(self) -> None:
        end = time.perf_counter()
        span_id, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else 0
        self.spans.append((span_id, self.trace_id, parent, name, start, end))

    def top(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Replace `module.attr` with a wrapper that records span `name`.

        `before` and `after` run outside the span, before and after the call.
        An absent name is skipped, so its metrics read 0.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                end()
                if after is not None:
                    after()

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children.

        One thread runs every span, so the children of a span never overlap.
        """
        child_total: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent:
                child_total[parent] += end - start
        return {sid: (end - start) - child_total[sid]
                for sid, _, _, _, start, end in self.spans}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, tid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "trace": tid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


def per_trace_sums(tracer: Tracer, names, self_time: bool = False) -> dict[str, dict[int, float]]:
    """name -> trace id -> summed duration (or self time) of that name's spans."""
    wanted = set(names)
    selfs = tracer.self_times() if self_time else None
    out: dict[str, dict[int, float]] = {name: defaultdict(float) for name in wanted}
    for sid, tid, _, name, start, end in tracer.spans:
        if name in wanted:
            out[name][tid] += selfs[sid] if self_time else end - start
    return out


def median_over(traces: dict[int, float], trace_ids) -> float:
    """Median over `trace_ids` of a per-trace sum; a trace without spans counts 0."""
    values = [traces.get(tid, 0.0) for tid in trace_ids]
    return statistics.median(values) if values else 0.0


def count_calls(fn, targets: dict[str, tuple]) -> tuple[int, Counter]:
    """Run `fn()` under `sys.setprofile`, counting Python function calls.

    Args:
        targets: metric name -> (callee module, callee attribute, caller module
            name). A call counts toward a target when the callee's code object
            is the attribute's and the calling frame belongs to the caller
            module. An absent attribute counts 0.

    Returns:
        (every Python call made inside `fn`, per-target counts).
    """
    by_code: dict = {}
    for metric, (module, attr, caller) in targets.items():
        func = getattr(module, attr, None)
        code = getattr(func, "__code__", None)
        if code is not None:
            by_code.setdefault(code, []).append((caller, metric))
    counts: Counter = Counter({metric: 0 for metric in targets})
    total = 0

    def profile(frame, event, _arg):
        nonlocal total
        if event != "call":
            return
        total += 1
        hits = by_code.get(frame.f_code)
        if hits:
            caller = frame.f_back.f_globals.get("__name__") if frame.f_back else None
            for module_name, metric in hits:
                if module_name == caller:
                    counts[metric] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    # The call into `fn` itself is not the program's work.
    return total - 1, counts
