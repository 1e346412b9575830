"""Span tracing: timed, nested regions of a run, exportable as JSONL.

A span is one timed region — ``run.fabric``, ``replay.window``,
``stage.feed`` — with a dotted name, free-form attributes, a wall-clock
duration from :func:`time.perf_counter`, and its position in the call
tree (``id``/``parent``/``depth``).  Nesting is tracked per thread with
a plain stack, so spans telescope correctly even when sweep jobs run on
worker threads.

The JSONL trace format (one JSON object per line):

* ``{"record": "meta", ...}`` — first line: format version, export
  timestamp, process id.
* ``{"record": "span", "id": 3, "parent": 1, "depth": 2,
  "name": "stage.feed", "start_s": ..., "dur_s": ...,
  "attrs": {...}}`` — one per finished span, in completion order.
* ``{"record": "metrics", "metrics": {...}}`` — final line: the metrics
  registry snapshot taken at export time.

``start_s`` is relative to the tracer's epoch (its construction), so
subtracting two spans' ``start_s`` is meaningful within one trace and
meaningless across traces — diffs therefore compare durations, never
absolute starts.

The module also carries the trace *consumers* (:func:`read_trace`,
:func:`summarize_trace`, :func:`diff_traces`, :func:`check_trace`) used
by the ``repro telemetry`` CLI and the CI smoke job, so producer and
consumer stay in one file and cannot drift apart.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "Span",
    "Tracer",
    "read_trace",
    "validate_nesting",
    "summarize_trace",
    "diff_traces",
    "check_trace",
]

TRACE_FORMAT_VERSION = 1


class Span:
    """One finished (or in-flight) timed region."""

    __slots__ = ("id", "parent", "depth", "name", "attrs", "start_s", "dur_s")

    def __init__(
        self,
        span_id: int,
        parent: Optional[int],
        depth: int,
        name: str,
        attrs: Dict[str, Any],
        start_s: float,
    ) -> None:
        self.id = span_id
        self.parent = parent
        self.depth = depth
        self.name = name
        self.attrs = attrs
        self.start_s = start_s
        self.dur_s: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "record": "span",
            "id": self.id,
            "parent": self.parent,
            "depth": self.depth,
            "name": self.name,
            "start_s": self.start_s,
            "dur_s": self.dur_s,
            "attrs": self.attrs,
        }


class _SpanHandle:
    """Context manager returned by :meth:`Tracer.span`.

    Attributes can be added while the span is open (``handle.set(k=v)``)
    — used for values only known at the end of the region, like the
    packet count of a window.
    """

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    @property
    def span(self) -> Span:
        return self._span

    def set(self, **attrs: Any) -> None:
        self._span.attrs.update(attrs)

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._finish(self._span)


class _NullHandle:
    """The disabled-path stand-in: a reusable, do-nothing span handle."""

    __slots__ = ()
    span = None

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_HANDLE = _NullHandle()


class Tracer:
    """Collects spans with per-thread nesting; thread-safe appends."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self._spans: List[Span] = []  # guarded by: self._lock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0  # guarded by: self._lock

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        """Open a span; close it by exiting the returned context."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            span_id,
            parent.id if parent is not None else None,
            len(stack),
            name,
            dict(attrs),
            time.perf_counter() - self.epoch,
        )
        stack.append(span)
        return _SpanHandle(self, span)

    def _finish(self, span: Span) -> None:
        span.dur_s = (time.perf_counter() - self.epoch) - span.start_s
        stack = self._stack()
        # Pop through any abandoned children (an exception may have
        # unwound past their __exit__ on another code path).
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        with self._lock:
            self._spans.append(span)

    @property
    def spans(self) -> List[Span]:
        """Finished spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def export_jsonl(self, path, metrics_snapshot: Optional[dict] = None) -> int:
        """Write the trace file described in the module docstring.

        Returns the number of span records written.
        """
        spans = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    {
                        "record": "meta",
                        "format": TRACE_FORMAT_VERSION,
                        "exported_at": time.time(),
                        "pid": os.getpid(),
                        "spans": len(spans),
                    }
                )
                + "\n"
            )
            for span in spans:
                # default=str: span attrs are caller-provided and may
                # carry non-JSON values (paths, numpy scalars); a trace
                # export must never crash the run it observed.
                fh.write(json.dumps(span.to_dict(), default=str) + "\n")
            if metrics_snapshot is not None:
                fh.write(
                    json.dumps({"record": "metrics", "metrics": metrics_snapshot})
                    + "\n"
                )
        return len(spans)


# ---------------------------------------------------------------------------
# Trace consumers (CLI + CI smoke job).
# ---------------------------------------------------------------------------


def read_trace(path) -> dict:
    """Parse a JSONL trace into ``{"meta": ..., "spans": [...], "metrics": ...}``.

    Raises ``ValueError`` on an unparseable line or a missing/foreign
    header, so the CI smoke job's "the JSONL parses" assertion is just a
    call to this function.
    """
    meta: Optional[dict] = None
    spans: List[dict] = []
    metrics: Optional[dict] = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            kind = record.get("record")
            if kind == "meta":
                meta = record
            elif kind == "span":
                spans.append(record)
            elif kind == "metrics":
                metrics = record.get("metrics")
            else:
                raise ValueError(
                    f"{path}:{lineno}: unknown record type {kind!r}"
                )
    if meta is None:
        raise ValueError(f"{path}: missing meta record (not a repro trace?)")
    return {"meta": meta, "spans": spans, "metrics": metrics}


def _span_index(spans: List[dict]) -> Dict[int, dict]:
    return {s["id"]: s for s in spans}


def validate_nesting(spans: List[dict]) -> List[str]:
    """Structural checks on a trace's span tree; returns problem strings.

    A clean trace yields an empty list.  Checked invariants:
    every parent id resolves; ``depth == parent.depth + 1``; every child
    interval lies within its parent's interval (small float slack).
    """
    problems: List[str] = []
    index = _span_index(spans)
    slack = 1e-6
    for span in spans:
        if span.get("dur_s") is None:
            problems.append(f"span {span['id']} ({span['name']}) never finished")
            continue
        parent_id = span.get("parent")
        if parent_id is None:
            if span["depth"] != 0:
                problems.append(
                    f"span {span['id']} ({span['name']}) has no parent "
                    f"but depth {span['depth']}"
                )
            continue
        parent = index.get(parent_id)
        if parent is None:
            problems.append(
                f"span {span['id']} ({span['name']}) parent {parent_id} missing"
            )
            continue
        if span["depth"] != parent["depth"] + 1:
            problems.append(
                f"span {span['id']} ({span['name']}) depth {span['depth']} "
                f"!= parent depth {parent['depth']} + 1"
            )
        if span["start_s"] < parent["start_s"] - slack:
            problems.append(
                f"span {span['id']} ({span['name']}) starts before its parent"
            )
        if parent.get("dur_s") is not None:
            parent_end = parent["start_s"] + parent["dur_s"]
            child_end = span["start_s"] + span["dur_s"]
            if child_end > parent_end + slack:
                problems.append(
                    f"span {span['id']} ({span['name']}) ends after its parent"
                )
    return problems


def summarize_trace(trace: dict) -> dict:
    """Aggregate a parsed trace per span name.

    Returns ``{"total_spans": n, "by_name": {name: {count, total_s,
    mean_s, max_s}}, "roots": [...], "metrics": ...}`` — the shape the
    ``repro telemetry summarize`` renderer walks.
    """
    by_name: Dict[str, dict] = {}
    roots: List[dict] = []
    for span in trace["spans"]:
        entry = by_name.setdefault(
            span["name"], {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        entry["count"] += 1
        dur = span.get("dur_s") or 0.0
        entry["total_s"] += dur
        if dur > entry["max_s"]:
            entry["max_s"] = dur
        if span.get("parent") is None:
            roots.append(span)
    for entry in by_name.values():
        entry["mean_s"] = entry["total_s"] / entry["count"]
    return {
        "total_spans": len(trace["spans"]),
        "by_name": dict(sorted(by_name.items())),
        "roots": roots,
        "metrics": trace.get("metrics"),
    }


def diff_traces(a: dict, b: dict) -> List[dict]:
    """Per-name duration deltas between two parsed traces.

    Returns rows sorted by absolute delta, largest first:
    ``{"name", "a_total_s", "b_total_s", "delta_s", "ratio"}`` (ratio is
    ``b/a``, ``None`` when a's total is ~zero).  Names present in only
    one trace appear with the other side's total as 0.
    """
    sa = summarize_trace(a)["by_name"]
    sb = summarize_trace(b)["by_name"]
    rows: List[dict] = []
    for name in sorted(set(sa) | set(sb)):
        a_total = sa.get(name, {}).get("total_s", 0.0)
        b_total = sb.get(name, {}).get("total_s", 0.0)
        rows.append(
            {
                "name": name,
                "a_total_s": a_total,
                "b_total_s": b_total,
                "delta_s": b_total - a_total,
                "ratio": (b_total / a_total) if a_total > 1e-12 else None,
            }
        )
    rows.sort(key=lambda row: abs(row["delta_s"]), reverse=True)
    return rows


def check_trace(
    trace: dict,
    coverage: float = 0.95,
    covered_names: Optional[Sequence[str]] = None,
) -> List[str]:
    """The CI gate: nesting is valid and children telescope to parents.

    For every span that has children, the children's summed durations
    must not exceed the parent (physically impossible for same-thread
    nesting) and — for the spans named in ``covered_names`` (default:
    the replay spans, which are designed to be fully covered by child
    spans) — must reach at least ``coverage`` of it.  Returns a list of
    problem strings; empty means the trace passes.
    """
    if not covered_names:
        covered_names = ("replay.stream", "replay.fabric")
    problems = validate_nesting(trace["spans"])
    children: Dict[int, float] = {}
    for span in trace["spans"]:
        parent = span.get("parent")
        if parent is not None and span.get("dur_s") is not None:
            children[parent] = children.get(parent, 0.0) + span["dur_s"]
    for span in trace["spans"]:
        dur = span.get("dur_s")
        if dur is None or span["id"] not in children:
            continue
        child_sum = children[span["id"]]
        if child_sum > dur * 1.001 + 1e-6:
            problems.append(
                f"span {span['id']} ({span['name']}): children sum "
                f"{child_sum:.6f}s exceeds parent {dur:.6f}s"
            )
        if span["name"] in covered_names and dur > 1e-4:
            if child_sum < dur * coverage:
                problems.append(
                    f"span {span['id']} ({span['name']}): children cover "
                    f"{child_sum / dur:.1%} < {coverage:.0%} of the span"
                )
    return problems
