"""Operation recording and in-memory tracing for the benchmark.

Every call the benchmark makes into royaltycap goes through ``Recorder.op``:
it times the call, counts it as attempted, and counts it as failed when it
raises.  Output checks then mark an operation failed through
``Recorder.fail``; each operation counts at most once.  A failure is
*wrong* when a call reported success but returned an incorrect result; an
exception or a non-zero CLI exit code is a failure that is not wrong.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


class Tracer:
    """Spans kept in memory: name, start, end, parent span id, run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "run_id": self.run_id, "start": time.perf_counter(), "end": None}
        if attrs:
            rec["attrs"] = attrs
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict:
        """Self time summed per layer (the span name up to its first dot): a
        span's duration minus the time its child spans cover.  Children of
        one span run one after another, so their durations add up."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict = {}
        for s, c in zip(self.spans, child):
            layer = s["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - c
        return out

    def write(self, path):
        path.write_text(json.dumps({"run_id": self.run_id, "spans": self.spans}) + "\n",
                        encoding="utf-8")


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    spans: list = []

    def span(self, name: str, **attrs):
        return nullcontext()


@dataclass
class Op:
    name: str
    value: object = None
    seconds: float = 0.0
    failed: bool = False


@dataclass
class Recorder:
    tracer: object
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    failures: list = field(default_factory=list)

    def op(self, name: str, fn, **attrs) -> Op:
        """Run ``fn()`` as one timed operation inside a span named ``name``."""
        op = Op(name)
        self.attempted += 1
        with self.tracer.span(name, **attrs):
            t0 = time.perf_counter()
            try:
                op.value = fn()
            except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
                op.seconds = time.perf_counter() - t0
                self.fail(op, f"{name} {attrs}: {type(exc).__name__}: {exc}")
                return op
            op.seconds = time.perf_counter() - t0
        return op

    def fail(self, op: Op, reason: str, wrong: bool = False):
        if op.failed:
            return
        op.failed = True
        self.failed += 1
        self.wrong += int(wrong)
        self.failures.append({"op": op.name, "reason": reason, "wrong": wrong})

    def check(self, op: Op, ok: bool, reason: str):
        """An output check on a call that reported success: a miss is wrong."""
        if not ok:
            self.fail(op, reason, wrong=True)
