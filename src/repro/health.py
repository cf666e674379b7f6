"""Structured execution-health reporting for sweeps.

Long sweeps route every cell through a chain of execution strategies —
compiled C step loop, numpy kernels, pure-Python fallbacks, worker
pools that may degrade to serial — and silently falling down that chain
makes a sweep's performance (and failure modes) impossible to reason
about after the fact.  This module is the narrow waist those layers
report through: each fallback, retry, quarantine, or engine selection
is recorded as a :class:`DegradationEvent`, and a sweep's final report
(:func:`summary`) states which engine actually ran each batch of cells
and what, if anything, went wrong along the way.

Events are process-local, cheap to record, and bounded (the newest
``_MAX_EVENTS`` are kept; older ones are dropped but still counted).
Severities:

* ``"info"`` — normal engine selection (which kernel ran a batch);
* ``"degraded"`` — a fallback fired (compiled kernel unavailable,
  worker pool replaced by serial execution, a retry succeeded);
* ``"error"`` — work was lost or quarantined (a cell failed every
  retry, a cache table could not be written).

Two consumers beyond the end-of-sweep summary:

* ``REPRO_HEALTH_JSON=1`` additionally prints one JSON object per
  event to stderr as it is recorded (machine-readable monitoring; the
  coalesced human summary stays the default);
* in-process listeners (:func:`add_listener`) receive every event as
  it is recorded — the benchmark's tracer (``perfbench/tracing.py``)
  uses this to tag each timing span with the engine that ran in it.
  Listeners are called outside the module lock and
  must never raise (exceptions are swallowed); re-recording events
  from inside a listener would deadlock nothing but is still a bad
  idea.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "DegradationEvent",
    "record",
    "emit",
    "engine_used",
    "events",
    "clear",
    "summary",
    "add_listener",
    "remove_listener",
    "json_event",
]

#: Newest events kept in memory; older ones are dropped but counted.
_MAX_EVENTS = 10_000

SEVERITIES = ("info", "degraded", "error")


@dataclass(frozen=True)
class DegradationEvent:
    """One structured record of what actually ran (or failed to)."""

    component: str  # e.g. "bimode-kernel", "parallel-pool", "result-cache"
    expected: str  # what should have run, best case
    actual: str  # what did run
    reason: str = ""
    severity: str = "info"
    context: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    @property
    def degraded(self) -> bool:
        return self.severity != "info"

    @property
    def ctx(self) -> Dict[str, object]:
        return dict(self.context)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        arrow = (
            self.actual
            if self.actual == self.expected
            else f"{self.expected} -> {self.actual}"
        )
        tail = f" ({self.reason})" if self.reason else ""
        return f"[{self.severity}] {self.component}: {arrow}{tail}"


_lock = threading.Lock()
_events: List[DegradationEvent] = []
_dropped = 0
_listeners: List[Callable[[DegradationEvent], None]] = []


def json_event(event: DegradationEvent) -> str:
    """One event as a single-line JSON object (stable key order)."""
    return json.dumps(
        {
            "severity": event.severity,
            "component": event.component,
            "expected": event.expected,
            "actual": event.actual,
            "reason": event.reason,
            "context": event.ctx,
        },
        sort_keys=True,
        default=str,
    )


def _json_mode() -> bool:
    return os.environ.get("REPRO_HEALTH_JSON", "").strip() not in ("", "0")


def add_listener(listener: Callable[[DegradationEvent], None]) -> None:
    """Call ``listener`` with every subsequently recorded event."""
    with _lock:
        _listeners.append(listener)


def remove_listener(listener: Callable[[DegradationEvent], None]) -> None:
    """Stop notifying ``listener`` (no-op if never added)."""
    with _lock:
        try:
            _listeners.remove(listener)
        except ValueError:
            pass


def record(event: DegradationEvent) -> DegradationEvent:
    """Append one event to the process-local log (bounded)."""
    global _dropped
    with _lock:
        _events.append(event)
        if len(_events) > _MAX_EVENTS:
            del _events[0]
            _dropped += 1
        listeners = list(_listeners)
    if _json_mode():
        try:
            print(json_event(event), file=sys.stderr, flush=True)
        except (OSError, ValueError):  # pragma: no cover - stderr gone
            pass
    for listener in listeners:
        try:
            listener(event)
        except Exception:  # pragma: no cover - listeners must not break sweeps
            pass
    return event


def emit(
    component: str,
    expected: str,
    actual: str,
    reason: str = "",
    severity: str = "degraded",
    **context,
) -> DegradationEvent:
    """Build and record an event in one call."""
    return record(
        DegradationEvent(
            component=component,
            expected=expected,
            actual=actual,
            reason=reason,
            severity=severity,
            context=tuple(sorted(context.items())),
        )
    )


def engine_used(
    component: str,
    engine: str,
    expected: Optional[str] = None,
    cells: int = 1,
    reason: str = "",
) -> DegradationEvent:
    """Record which execution engine ran a batch of cells.

    Severity is ``"info"`` when the engine is the expected one (or no
    expectation applies) and ``"degraded"`` when the dispatch chain fell
    back — e.g. the compiled kernel was expected but numpy ran.
    """
    expected = engine if expected is None else expected
    severity = "info" if engine == expected else "degraded"
    return emit(
        component, expected, engine, reason=reason, severity=severity, cells=cells
    )


def events(
    component: Optional[str] = None, severity: Optional[str] = None
) -> List[DegradationEvent]:
    """Recorded events, optionally filtered, oldest first."""
    with _lock:
        snapshot = list(_events)
    if component is not None:
        snapshot = [e for e in snapshot if e.component == component]
    if severity is not None:
        snapshot = [e for e in snapshot if e.severity == severity]
    return snapshot


def clear() -> None:
    """Drop all recorded events (tests, or between sweeps)."""
    global _dropped
    with _lock:
        _events.clear()
        _dropped = 0


def summary(degraded_only: bool = False) -> str:
    """Aggregated human-readable report, one line per distinct event.

    Identical events are coalesced with an occurrence count and a total
    cell count, so a sweep that ran ten thousand cells through one
    engine reports one line, not ten thousand.
    """
    with _lock:
        snapshot = list(_events)
        dropped = _dropped
    groups: Dict[Tuple[str, str, str, str, str], List[int]] = {}
    order: List[Tuple[str, str, str, str, str]] = []
    for event in snapshot:
        if degraded_only and not event.degraded:
            continue
        key = (
            event.severity,
            event.component,
            event.expected,
            event.actual,
            event.reason,
        )
        if key not in groups:
            groups[key] = [0, 0]
            order.append(key)
        groups[key][0] += 1
        groups[key][1] += int(event.ctx.get("cells", 0) or 0)
    lines = []
    for key in order:
        severity, component, expected, actual, reason = key
        count, cells = groups[key]
        arrow = actual if actual == expected else f"{expected} -> {actual}"
        bits = [f"[{severity}] {component}: {arrow}"]
        if reason:
            bits.append(f"({reason})")
        bits.append(f"x{count}")
        if cells:
            bits.append(f"[{cells} cells]")
        lines.append(" ".join(bits))
    if dropped:
        lines.append(f"(+{dropped} older events dropped)")
    return "\n".join(lines)
