"""Flight recorder: the traces of the requests worth explaining.

A serving tier cannot afford to export every request's span tree — but
the requests anyone ever asks about are the *slowest* ones and the ones
that *failed*.  :class:`FlightRecorder` is the bounded in-memory ring
the broker feeds one :class:`RequestRecord` per finished request:

* the **N slowest** requests are retained (a min-heap on duration, so a
  new record only displaces a faster one);
* **all errored** requests are retained up to their own bound (a FIFO
  ring — the newest failures win);
* each record carries the request's full span list (already bounded by
  the per-request collector's ``max_spans``) and its ``trace_id``.

Memory is bounded by construction: ``max_slow + max_errors`` records of
at most ``max_spans`` spans each, regardless of traffic.

``snapshot()`` is the ``trace`` serve op's payload; :func:`to_chrome`
renders one record as a Perfetto-loadable Chrome ``trace_event``
document (``repro serve-trace --perfetto``), with the span tree
reconstructed the same way the viewer does — timestamp containment per
thread track.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass, field

from .tracer import Span


def span_dict(span: Span) -> dict:
    """One recorded span as JSON-ready data (argument values stringified
    when not JSON-safe, matching the Chrome exporter)."""
    return {
        "name": span.name,
        "cat": span.cat,
        "ts_us": round(span.ts_us, 3),
        "dur_us": round(span.dur_us, 3),
        "tid": span.tid,
        "args": {
            k: v if isinstance(v, (str, int, float, bool)) or v is None else str(v)
            for k, v in span.args.items()
        },
    }


@dataclass(slots=True)
class RequestRecord:
    """Everything the flight recorder keeps about one finished request."""

    trace_id: str
    op: str
    ok: bool
    duration_ms: float
    error_code: str | None = None
    #: Flat span list (dicts from :func:`span_dict`); the tree is implied
    #: by timestamp containment per tid, like a Chrome trace.
    spans: list[dict] = field(default_factory=list)
    #: Spans the per-request collector dropped at its memory bound.
    dropped_spans: int = 0

    def span_names(self) -> list[str]:
        return [s["name"] for s in self.spans]

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "op": self.op,
            "ok": self.ok,
            "duration_ms": round(self.duration_ms, 4),
            "error_code": self.error_code,
            "spans": list(self.spans),
            "span_tree": span_tree(self.spans),
            "dropped_spans": self.dropped_spans,
        }


def span_tree(spans: list[dict]) -> list[dict]:
    """Nest a flat span list by timestamp containment per tid.

    Returns the roots; each node is ``{name, ts_us, dur_us, args,
    children}``.  This is exactly the reconstruction Perfetto performs on
    complete (``ph: "X"``) events, so what the ``trace`` op shows as a
    tree is what the viewer will draw.
    """
    roots: list[dict] = []
    stacks: dict[int, list[dict]] = {}
    ordered = sorted(spans, key=lambda s: (s["tid"], s["ts_us"], -s["dur_us"]))
    for s in ordered:
        node = {
            "name": s["name"],
            "ts_us": s["ts_us"],
            "dur_us": s["dur_us"],
            "args": s.get("args", {}),
            "children": [],
        }
        stack = stacks.setdefault(s["tid"], [])
        end = s["ts_us"] + s["dur_us"]
        while stack and end > stack[-1]["ts_us"] + stack[-1]["dur_us"]:
            stack.pop()
        if stack:
            stack[-1]["children"].append(node)
        else:
            roots.append(node)
        stack.append(node)
    return roots


def to_chrome(record: RequestRecord, process_name: str = "repro-serve") -> dict:
    """One request's spans as a Chrome ``trace_event`` JSON document."""
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "ts": 0,
            "args": {"name": f"{process_name} {record.trace_id}"},
        }
    ]
    for tid in sorted({s["tid"] for s in record.spans}):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "ts": 0,
                "args": {"name": "main" if tid == 0 else f"worker-{tid}"},
            }
        )
    for s in sorted(record.spans, key=lambda s: (s["ts_us"], -s["dur_us"])):
        events.append(
            {
                "name": s["name"],
                "cat": s.get("cat", "repro"),
                "ph": "X",
                "ts": s["ts_us"],
                "dur": s["dur_us"],
                "pid": 1,
                "tid": s["tid"],
                "args": s.get("args", {}),
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs.flight",
            "trace_id": record.trace_id,
            "op": record.op,
            "ok": record.ok,
            "duration_ms": round(record.duration_ms, 4),
        },
    }


class FlightRecorder:
    """Bounded retention of the N slowest + all (recent) errored requests."""

    def __init__(self, *, max_slow: int = 32, max_errors: int = 64):
        if max_slow < 0 or max_errors < 0:
            raise ValueError("retention bounds must be >= 0")
        self.max_slow = max_slow
        self.max_errors = max_errors
        #: Min-heap of (duration_ms, seq, record): the root is the
        #: fastest retained record, displaced first.
        self._slow: list[tuple[float, int, RequestRecord]] = []
        self._errors: list[RequestRecord] = []
        self._seq = itertools.count()
        self._recorded = 0
        self._lock = threading.Lock()

    def record(self, record: RequestRecord) -> None:
        with self._lock:
            self._recorded += 1
            if not record.ok and self.max_errors:
                self._errors.append(record)
                if len(self._errors) > self.max_errors:
                    del self._errors[0]
            if self.max_slow:
                item = (record.duration_ms, next(self._seq), record)
                if len(self._slow) < self.max_slow:
                    heapq.heappush(self._slow, item)
                elif record.duration_ms > self._slow[0][0]:
                    heapq.heapreplace(self._slow, item)

    # -- reading -----------------------------------------------------------

    @property
    def recorded(self) -> int:
        """Total requests ever offered to the recorder."""
        with self._lock:
            return self._recorded

    def slowest(self) -> list[RequestRecord]:
        """Retained slow records, slowest first."""
        with self._lock:
            return [
                r for _, _, r in sorted(self._slow, key=lambda t: (-t[0], t[1]))
            ]

    def errors(self) -> list[RequestRecord]:
        """Retained errored records, newest first."""
        with self._lock:
            return list(reversed(self._errors))

    def get(self, trace_id: str) -> RequestRecord | None:
        """The retained record with this ``trace_id``, if any (errored
        records win over their slow-ring duplicates)."""
        with self._lock:
            for r in reversed(self._errors):
                if r.trace_id == trace_id:
                    return r
            for _, _, r in self._slow:
                if r.trace_id == trace_id:
                    return r
        return None

    def clear(self) -> None:
        with self._lock:
            self._slow.clear()
            self._errors.clear()
            self._recorded = 0

    def snapshot(self) -> dict:
        """The ``trace`` serve op payload."""
        return {
            "recorded": self.recorded,
            "retention": {
                "max_slow": self.max_slow,
                "max_errors": self.max_errors,
            },
            "slowest": [r.as_dict() for r in self.slowest()],
            "errors": [r.as_dict() for r in self.errors()],
        }
