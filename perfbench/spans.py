"""In-memory spans, self-time arithmetic, and the ``ray.timeline()``
summary used by the traced run."""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager


class Tracer:
    """Records spans (name, start, end, parent) in memory.

    ``with tracer.span("join") as counts:`` times the block; ``counts`` is
    a dict the block may fill with counters recorded on the span."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


class NullTracer:
    """Same interface as :class:`Tracer`; records nothing."""

    @contextmanager
    def span(self, name: str):
        yield {}


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """span id -> its duration minus the part of it its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered(children.get(s["id"], []), s["start"], s["end"])
            for s in spans}


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    out: dict[str, float] = {}
    st = self_times(spans)
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + st[s["id"]]
    return out


def count_by_name(spans: list[dict], key: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for s in spans:
        if key in s["counts"]:
            out[s["name"]] = out.get(s["name"], 0) + s["counts"][key]
    return out


def trace_summary(spans: list[dict], untraced_s: list, traced_s: list) -> dict:
    """Per traced pass: the job span, the self time of every layer span
    (all but ``job`` and ``batch``), what the layers leave unattributed,
    and the tracing overhead (median traced minus median untraced job)."""
    n = len(traced_s)
    job_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "job") / n
    layer_s = sum(v for k, v in self_time_by_name(spans).items()
                  if k not in ("job", "batch")) / n
    return {"trace.job_s": job_s, "trace.layer_self_s": layer_s,
            "trace.unattributed_s": job_s - layer_s,
            "trace.overhead_s": statistics.median(traced_s) - statistics.median(untraced_s)}


def summarize_timeline(events: list[dict], t0: float, t1: float, cpus: int) -> dict:
    """Executor metrics from ``ray.timeline()`` events of Ray Data tasks
    that ran between wall-clock times ``t0`` and ``t1`` (seconds).

    A Ray Data task is a ``task::`` event whose name is a
    ``ray.data`` function; its ``task:execute`` and
    ``task:deserialize_arguments`` events are the ones on the same worker
    inside its interval."""
    lo, hi = t0 * 1e6, t1 * 1e6
    tasks, phases = {}, {}
    for e in events:
        if e.get("ph") != "X" or not (lo <= e["ts"] <= hi):
            continue
        cat = e.get("cat", "")
        if cat.startswith("task::") and "ray.data" in e.get("name", ""):
            tasks.setdefault(e["tid"], []).append((e["ts"], e["ts"] + e["dur"]))
        elif cat in ("task:execute", "task:deserialize_arguments"):
            phases.setdefault(e["tid"], []).append((cat, e["ts"], e["dur"]))
    busy = deser = 0.0
    n_tasks = 0
    for tid, spans in tasks.items():
        n_tasks += len(spans)
        for cat, ts, dur in phases.get(tid, []):
            if any(s <= ts <= e for s, e in spans):
                if cat == "task:execute":
                    busy += dur / 1e6
                else:
                    deser += dur / 1e6
    capacity = (t1 - t0) * cpus
    return {"exec.eff_concurrency": busy / capacity if capacity > 0 else 0.0,
            "exec.task_busy_s": busy,
            "exec.idle_cpu_s": max(capacity - busy, 0.0),
            "exec.deserialize_s": deser,
            "exec.tasks": n_tasks}
