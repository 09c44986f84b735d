"""The span tracer: nested wall-clock spans with structured attributes.

Every stage of the min-cut pipeline calls :func:`span` around its work::

    with trace.span("pack.boruvka", n=graph.n, m=graph.m):
        ...

When tracing is **disabled** (the default) ``span()`` returns a shared
no-op singleton -- no record is allocated, no clock is read, no lock is
taken; the only cost at a call site is one function call plus the keyword
dict, a few hundred nanoseconds (``scripts/check_trace_overhead.py``
asserts the end-to-end overhead stays under 2%).  When **enabled** --
via the ``REPRO_TRACE`` environment variable, :func:`set_enabled`, the
:func:`tracing` context manager, or ``SolverConfig(trace=True)`` -- each
span records its wall-clock interval (``time.perf_counter``), its
structured attributes, its parent span (per-thread stacks make nesting
thread-correct), and its thread id into a process-wide bounded buffer.

Tracing never touches the numeric pipeline: it reads clocks and appends
records, so results with tracing on are bit-identical to results with
tracing off (asserted by the test suite).

Exporters:

* :func:`export_ndjson` -- one JSON object per line per span (stream-
  friendly; ``jq``-able);
* :func:`export_chrome` -- Chrome Trace Event Format, loadable in
  ``chrome://tracing`` / Perfetto for a flame-graph view of a run.

The module is dependency-free (stdlib only) and importable from every
layer of the pipeline without cycles.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, IO, Iterable

__all__ = [
    "Span",
    "enabled",
    "set_enabled",
    "tracing",
    "span",
    "current_span",
    "last_error_span",
    "records",
    "mark",
    "records_since",
    "subtree",
    "dropped",
    "clear",
    "export_ndjson",
    "export_chrome",
]

_DISABLING = ("", "0", "off", "false", "no")

#: lazily initialised from ``REPRO_TRACE`` on first query (None = unread).
_enabled: bool | None = None

#: bounded buffer of finished spans (appended on exit, oldest first).
_buffer: list["Span"] = []
_dropped = 0
_MAX_SPANS = 200_000
_lock = threading.Lock()
_ids = itertools.count(1)
_local = threading.local()


def parse_trace_flag(raw: str) -> bool:
    """Interpret a ``REPRO_TRACE`` value (shared with ``SolverConfig``)."""
    return raw.strip().lower() not in _DISABLING


def enabled() -> bool:
    """Whether spans are being recorded (default: ``REPRO_TRACE``, else off)."""
    global _enabled
    if _enabled is None:
        _enabled = parse_trace_flag(os.environ.get("REPRO_TRACE", ""))
    return _enabled


def set_enabled(flag: bool) -> None:
    global _enabled
    _enabled = bool(flag)


class tracing:
    """Context manager pinning the tracer on (or off) inside a block.

    Re-entrant and exception-safe; restores the previous state on exit.
    ``SolverConfig(trace=...)`` routes through this.
    """

    def __init__(self, flag: bool = True):
        self._flag = bool(flag)
        self._previous: bool | None = None

    def __enter__(self) -> "tracing":
        self._previous = enabled()
        set_enabled(self._flag)
        return self

    def __exit__(self, *_exc) -> bool:
        set_enabled(self._previous)
        return False


class _NullSpan:
    """The shared disabled-mode span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def set(self, **_attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Span:
    """One recorded wall-clock interval with structured attributes.

    ``start``/``end`` are ``time.perf_counter()`` readings; ``attrs`` is
    the keyword dict given at creation (plus anything added via
    :meth:`set`).  Reserved attribute keys the profiler interprets:
    ``bytes`` (peak working-set bytes of the stage) and ``acct`` /
    ``acct_prefix`` (the :class:`~repro.accounting.RoundAccountant`
    label(s) this stage's paper-round charges land under).
    """

    __slots__ = (
        "name", "attrs", "span_id", "parent_id", "thread_id", "start", "end",
    )

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.span_id = next(_ids)
        self.parent_id: int | None = None
        self.thread_id = 0
        self.start = 0.0
        self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def set(self, **attrs) -> "Span":
        """Attach attributes discovered mid-span (chunk sizes, bytes...)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        if stack:
            self.parent_id = stack[-1].span_id
        self.thread_id = threading.get_ident()
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        self.end = time.perf_counter()
        stack = getattr(_local, "stack", None)
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None and getattr(_local, "error_exc", None) is not exc:
            # Innermost span wins: the same exception unwinding through
            # enclosing spans must not overwrite the blame.
            _local.error_span = self.name
            _local.error_exc = exc
        global _dropped
        with _lock:
            if len(_buffer) < _MAX_SPANS:
                _buffer.append(self)
            else:
                _dropped += 1
        return False

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread_id": self.thread_id,
            "start": self.start,
            "end": self.end,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.seconds * 1e3:.3f} ms)"


def span(name: str, **attrs) -> "Span | _NullSpan":
    """Start a (not-yet-entered) span; the disabled path returns a no-op.

    Use as a context manager; the record lands in the buffer on exit.
    """
    if not enabled():
        return NULL_SPAN
    return Span(name, attrs)


def null_span(*_args, **_attrs) -> _NullSpan:
    """A span factory that is always off (prebound hot-loop alternative)."""
    return NULL_SPAN


def current_span() -> "Span | None":
    """The innermost open span of the calling thread (None outside spans)."""
    stack = getattr(_local, "stack", None)
    return stack[-1] if stack else None


def last_error_span(exc: BaseException | None = None) -> str | None:
    """Name of the last span on this thread that exited with an exception.

    Pass the exception a guarded attempt caught to get the innermost span
    that *this* exception unwound through, or None when it left no span
    (it was raised outside one, or before one opened): without it, the
    name may belong to an earlier, unrelated failure.
    """
    if exc is not None and getattr(_local, "error_exc", None) is not exc:
        return None
    return getattr(_local, "error_span", None)


# ----------------------------------------------------------------------
# Buffer access
# ----------------------------------------------------------------------
def records() -> list[Span]:
    """A snapshot copy of every finished span (oldest first)."""
    with _lock:
        return list(_buffer)


def mark() -> int:
    """Current buffer position -- pair with :func:`records_since`."""
    with _lock:
        return len(_buffer)


def records_since(position: int) -> list[Span]:
    """Spans appended after a :func:`mark` (cheap slice copy)."""
    with _lock:
        return _buffer[position:]


def subtree(root: Span, spans: "Iterable[Span] | None" = None) -> list[Span]:
    """``root`` plus every recorded descendant, in buffer order.

    Children finish (and are appended) before their parent, so one
    reverse scan sees every parent before its children.
    """
    pool = records() if spans is None else list(spans)
    keep: set[int] = {root.span_id}
    picked: list[Span] = []
    for record in reversed(pool):
        if record.span_id in keep or record.parent_id in keep:
            keep.add(record.span_id)
            picked.append(record)
    picked.reverse()
    return picked


def dropped() -> int:
    """Spans discarded because the bounded buffer was full."""
    with _lock:
        return _dropped


def clear() -> None:
    """Empty the buffer (tests / CLI runs start from a clean slate)."""
    global _dropped
    with _lock:
        _buffer.clear()
        _dropped = 0


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _open(path_or_file: "str | IO[str]", mode: str = "w"):
    if hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, mode), True


def export_ndjson(
    path_or_file: "str | IO[str]", spans: "Iterable[Span] | None" = None
) -> int:
    """Write one JSON object per span per line; returns the span count."""
    pool = records() if spans is None else list(spans)
    handle, owned = _open(path_or_file)
    try:
        for record in pool:
            handle.write(json.dumps(record.as_dict(), default=str) + "\n")
    finally:
        if owned:
            handle.close()
    return len(pool)


def export_chrome(
    path_or_file: "str | IO[str]", spans: "Iterable[Span] | None" = None
) -> int:
    """Write Chrome Trace Event Format (complete "X" events).

    The output loads directly in ``chrome://tracing`` and Perfetto:
    timestamps are microseconds relative to the earliest span, one
    track per thread, span attributes in ``args``.
    """
    pool = records() if spans is None else list(spans)
    epoch = min((record.start for record in pool), default=0.0)
    pid = os.getpid()
    events = [
        {
            "name": record.name,
            "ph": "X",
            "ts": (record.start - epoch) * 1e6,
            "dur": record.seconds * 1e6,
            "pid": pid,
            "tid": record.thread_id % 2 ** 31,
            "args": {key: _jsonable(value) for key, value in record.attrs.items()},
        }
        for record in pool
    ]
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    handle, owned = _open(path_or_file)
    try:
        json.dump(payload, handle)
    finally:
        if owned:
            handle.close()
    return len(pool)


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
