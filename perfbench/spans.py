"""In-memory span tracer and the attribute patcher the traced run uses.

A span is one timed call into a layer: name, start, end, parent span and
the id of the engine event (or scheduled live event) that caused it.  Self
time is a span's duration minus the time its child spans cover.  The
tracer keeps per-name totals for every span and the raw records of the
first ``cap`` spans; both are written out when the run ends.

Spans are opened only around *synchronous* calls.  On the live swarm's
event loop a synchronous call runs to completion without yielding, so a
single stack stays properly nested; awaited calls are counted and timed
as latencies (:meth:`Tracer.sample`), never pushed on the stack.
"""

from __future__ import annotations

import contextvars
import csv
import functools
import gc
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Id of the event whose handler is running (0: none, e.g. a live
#: connection handler answering a remote request).  A context variable, so
#: each asyncio task carries the id of the event it is serving.
EVENT: contextvars.ContextVar[int] = contextvars.ContextVar("event", default=0)


class Tracer:
    """Span stack with per-name aggregation and a bounded raw record."""

    def __init__(self, cap: int = 100_000) -> None:
        self.cap = cap
        self._index: Dict[str, int] = {}
        self.names: List[str] = []
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.total_s: List[float] = []
        #: named counters (bytes moved, innovative offers, ...).
        self.counts: Dict[str, float] = {}
        #: named latency samples in milliseconds.
        self.samples: Dict[str, List[float]] = {}
        # Parallel stacks of the open spans (plain lists of ints and
        # floats, so tracing adds no GC-tracked object per span).
        self._open_idx: List[int] = []
        self._open_span: List[int] = []
        self._open_start: List[float] = []
        self._open_child: List[float] = []
        self._gc_idx = self.index("python.gc")
        self._gc_start = 0.0
        self._next_span = 1
        self._next_event = 1
        self.dropped = 0
        self._span_id = array("q")
        self._event_id = array("q")
        self._parent = array("q")
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")

    def index(self, name: str) -> int:
        """Stable small integer for *name* (allocated on first use)."""
        idx = self._index.get(name)
        if idx is None:
            idx = len(self.names)
            self._index[name] = idx
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return idx

    def reset(self) -> None:
        """Drop everything recorded so far (called when a window opens)."""
        if self._open_idx:
            raise RuntimeError("cannot reset the tracer inside an open span")
        for idx in range(len(self.names)):
            self.calls[idx] = 0
            self.self_s[idx] = 0.0
            self.total_s[idx] = 0.0
        self.counts.clear()
        self.samples.clear()
        self.dropped = 0
        for column in (
            self._span_id, self._event_id, self._parent,
            self._name, self._start, self._end,
        ):
            del column[:]

    def new_event(self) -> None:
        """Give the running handler (task or engine event) a fresh id."""
        EVENT.set(self._next_event)
        self._next_event += 1

    def enter(self, idx: int) -> None:
        self._open_idx.append(idx)
        self._open_span.append(self._next_span)
        self._next_span += 1
        self._open_child.append(0.0)
        self._open_start.append(perf_counter())

    def leave(self) -> None:
        end = perf_counter()
        idx = self._open_idx.pop()
        span = self._open_span.pop()
        start = self._open_start.pop()
        duration = end - start
        self.self_s[idx] += duration - self._open_child.pop()
        self.total_s[idx] += duration
        self.calls[idx] += 1
        parent = 0
        if self._open_idx:
            self._open_child[-1] += duration
            parent = self._open_span[-1]
        if len(self._start) < self.cap:
            self._span_id.append(span)
            self._event_id.append(EVENT.get())
            self._parent.append(parent)
            self._name.append(idx)
            self._start.append(start)
            self._end.append(end)
        else:
            self.dropped += 1

    def on_gc(self, phase: str, info: Dict[str, int]) -> None:
        """``gc.callbacks`` hook: collections become ``python.gc`` time.

        A pause lands inside whatever span is open; it is counted as that
        span's child time, so layer self times exclude the collector.
        """
        if phase == "start":
            self._gc_start = perf_counter()
            return
        duration = perf_counter() - self._gc_start
        idx = self._gc_idx
        self.calls[idx] += 1
        self.self_s[idx] += duration
        self.total_s[idx] += duration
        self.count(f"python.gc.gen{info['generation']}_s", duration)
        if self._open_child:
            self._open_child[-1] += duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def sample(self, name: str, value_ms: float) -> None:
        self.samples.setdefault(name, []).append(value_ms)

    def snapshot(self) -> "Snapshot":
        """Freeze the aggregates (the tracer may keep recording)."""
        return Snapshot(
            spans={
                name: (self.calls[idx], self.self_s[idx], self.total_s[idx])
                for name, idx in self._index.items()
            },
            counts=dict(self.counts),
            samples={name: list(values) for name, values in self.samples.items()},
            kept=len(self._start),
            dropped=self.dropped,
        )

    def write_spans(self, path: Path, limit: int) -> None:
        """Write the first *limit* retained raw spans as CSV."""
        origin = self._start[0] if len(self._start) else 0.0
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["span", "event", "parent", "name", "start_s", "end_s"])
            for row in range(min(limit, len(self._start))):
                writer.writerow([
                    self._span_id[row],
                    self._event_id[row],
                    self._parent[row],
                    self.names[self._name[row]],
                    f"{self._start[row] - origin:.9f}",
                    f"{self._end[row] - origin:.9f}",
                ])


@dataclass(frozen=True)
class Snapshot:
    """Per-name span totals and counters frozen at the end of a window."""

    #: name -> (calls, self_s, total_s)
    spans: Dict[str, Tuple[int, float, float]]
    counts: Dict[str, float]
    #: name -> latency samples in milliseconds
    samples: Dict[str, List[float]]
    #: raw spans retained / dropped beyond the cap
    kept: int
    dropped: int

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def count(self, name: str) -> float:
        return self.counts.get(name, 0)


def timed(
    tracer: Tracer,
    name: str,
    fn: Callable[..., Any],
    after: Optional[Callable[[Any, Tuple[Any, ...]], None]] = None,
) -> Callable[..., Any]:
    """Wrap synchronous *fn* in a span; *after(result, args)* runs outside it."""
    idx = tracer.index(name)
    enter = tracer.enter
    leave = tracer.leave

    if after is None:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            enter(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
    else:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            enter(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            after(result, args)
            return result

    return functools.wraps(fn)(wrapper)


class Patcher:
    """Replace attributes for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []
        self._undo: List[Callable[[], None]] = []

    def watch_gc(self, tracer: Tracer) -> None:
        """Time every garbage collection into *tracer* until exit."""
        gc.callbacks.append(tracer.on_gc)
        self._undo.append(lambda: gc.callbacks.remove(tracer.on_gc))

    def set(self, owner: Any, attr: str, value: Any) -> None:
        # Read from __dict__ so classmethods/staticmethods restore intact.
        holder = owner.__dict__ if isinstance(owner, type) else vars(owner)
        self._saved.append((owner, attr, holder[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        self.set(owner, attr, make(getattr(owner, attr)))

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc: object) -> None:
        while self._undo:
            self._undo.pop()()
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
