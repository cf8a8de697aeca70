"""Layer tracing for the benchmark, installed from outside the library.

`install` replaces public functions of the gcodelab modules (and a few
methods) with timing wrappers; `uninstall` puts the originals back, so an
untraced run never sees a wrapper.  Coarse calls become spans (name, start,
end, parent); hot leaf calls are aggregated per (name, enclosing span), so a
sweep's ~200k eliminations cost a dict update each rather than a span each.

Self time is a call's duration minus the time its traced children cover.
Every op runs with --threads 1, so children of one call never overlap and
that covered time is the sum of their durations.

Names bound at import (cli._VERIFY_DRIVERS, the gcodelab re-exports) cannot
be intercepted; the enclosing span covers them.
"""

from __future__ import annotations

import functools
import time

SPAN = "span"
LEAF = "leaf"
_SPAN_FIELDS = ("id", "name", "parent", "start", "end")


class Tracer:
    """In-memory span and leaf-aggregate store for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        # (leaf name, enclosing span id) -> {"calls", "total_s", "self_s", counters...}
        self.leaves: dict[tuple[str, int | None], dict] = {}
        self._stack: list[list] = []  # [name, kind, span id, start, child_s]

    def enter(self, name: str, kind: str) -> list:
        enclosing = self._stack[-1][2] if self._stack else None
        if kind == SPAN:
            span_id = len(self.spans)
            self.spans.append({"id": span_id, "name": name, "parent": enclosing})
        else:
            span_id = enclosing
        frame = [name, kind, span_id, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, counts: dict | None = None) -> None:
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError(f"trace frames out of order at {frame[0]}")
        self._stack.pop()
        name, kind, span_id, start, child_s = frame
        end = self.clock()
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        if kind == SPAN:
            rec = self.spans[span_id]
            rec.update(
                start=start, end=end, calls=1, total_s=duration, self_s=duration - child_s
            )
        else:
            rec = self.leaves.setdefault(
                (name, span_id), {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            rec["calls"] += 1
            rec["total_s"] += duration
            rec["self_s"] += duration - child_s
        for key, val in (counts or {}).items():
            rec[key] = rec.get(key, 0) + val

    # --- summaries ---

    def totals(self, name: str) -> dict:
        """calls, total_s, self_s and counters summed over every call named
        `name`, whether recorded as spans or as leaf aggregates."""
        recs = [s for s in self.spans if s["name"] == name]
        recs += [v for (leaf, _), v in self.leaves.items() if leaf == name]
        out = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        for rec in recs:
            for key, val in rec.items():
                if key not in _SPAN_FIELDS:
                    out[key] = out.get(key, 0) + val
        return out

    def leaf_calls_within(self, leaf: str, span: str) -> int:
        """Calls of a leaf made while a span of the given name was innermost."""
        return sum(
            v["calls"]
            for (name, sid), v in self.leaves.items()
            if name == leaf and sid is not None and self.spans[sid]["name"] == span
        )


def _wrap(tracer: Tracer, fn, name: str, kind: str, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name, kind)
        counts = None
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                counts = count(args, result)
            return result
        finally:
            tracer.exit(frame, counts)

    return wrapper


def install(tracer: Tracer, targets) -> list[tuple]:
    """Wrap each (owner, attribute, name, kind, count) target; returns the
    undo list for `uninstall`.  Methods are wrapped on the class itself, so
    references bound by `from ... import Class` see the wrapper too."""
    undo = []
    try:
        for owner, attr, name, kind, count in targets:
            original = vars(owner)[attr]
            setattr(owner, attr, _wrap(tracer, original, name, kind, count))
            undo.append((owner, attr, original))
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()
