"""Spans around the layers' public functions, installed from outside.

Tracing inside the program is not there yet, so the traced run wraps
each layer's public function in the namespace its caller looks it up
in (``runner`` binds ``family_rates`` when imported; ``sim.parallel``
imports ``family_detailed`` and ``plan_families`` from ``sim.fused`` at
call time; ``analysis.summary`` binds the analysis reductions).  Each
span records its name, start, end, parent and work counts; the engine
a kernel span ran on is read from the ``repro.health`` events recorded
while it was the innermost open span.

A layer's self time is its span's duration minus its child spans'.
What each layer's numbers should move:

* ``traces.*`` (set-up spans of ``load_benchmark``/``TraceStore.
  materialize``) — ``setup_s`` everywhere, most on ``rates``;
* ``fused.*`` (``plan_families``) — negligible today; ``lanes_per_family``
  is the useful width that a dispatch rewrite must not shrink;
* ``kernels.rates.<kind>.<engine>`` (``family_rates``) — ``branches_per_s``:
  gshare/bimode rows on ``rates``, comparator rows on ``dealiasing``,
  numpy rows on ``no-cc``;
* ``batch_bimode.matrix_prepass*`` (``bimode_matrix_rates``) — ``wall_s``
  on ``no-cc``, absent when C runs;
* ``kernels.detailed.<kind>.<engine>`` (``family_detailed``) and
  ``analysis.*`` (the reductions of ``analysis.summary``) — ``wall_s``
  on ``section4`` only;
* ``runner.cache_*``, ``journal.*``, ``sweep.assemble_s`` (sweep self
  time) — under 2% today, kept so a write-path cost shows here first;
* ``health.degraded_events`` — a family pushed off its fast engine.

``tracing.overhead_s`` is the median traced minus the median untraced
sweep time of the same process; the untraced sweeps run with no
wrapper installed.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (phase, kind, engine) kernel rows resolved at the parent commit on
#: this benchmark's workloads.  Each is printed on every workload (zero
#: where it does not run); a row not listed here is reported under
#: ``kernels.<phase>.other``.
KERNEL_ROWS: Tuple[Tuple[str, str, str], ...] = (
    ("rates", "gshare", "c"),
    ("rates", "bimode", "c"),
    ("rates", "agree", "c"),
    ("rates", "gskew", "c"),
    ("rates", "yags", "c"),
    ("rates", "tournament", "c"),
    ("rates", "trimode", "c"),
    ("rates", "biasfilter", "c"),
    ("rates", "perceptron", "c"),
    ("rates", "gshare", "numpy"),
    ("detailed", "gshare", "batch"),
    ("detailed", "bimode", "c"),
)


def _kernel_names() -> List[Tuple[str, str]]:
    rows = [f"kernels.{phase}.{kind}.{engine}" for phase, kind, engine in KERNEL_ROWS]
    rows += ["kernels.rates.other", "kernels.detailed.other"]
    out = []
    for row in rows:
        out += [(f"{row}.s", "s"), (f"{row}.cells", "count"), (f"{row}.branches_per_s", "updates/s")]
    return out


#: Every per-layer metric, in print order, with its unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    [
        ("traces.materialize_s", "s"),
        ("traces.branches", "count"),
        ("fused.plan_s", "s"),
        ("fused.families", "count"),
        ("fused.lanes_per_family", "lanes"),
    ]
    + _kernel_names()
    + [
        ("batch_bimode.matrix_prepass_s", "s"),
        ("batch_bimode.matrix_prepass.cells", "count"),
        ("analysis.summarize_s", "s"),
        ("analysis.substreams_s", "s"),
        ("analysis.class_changes_s", "s"),
        ("analysis.aliasing_s", "s"),
        ("analysis.sharing_s", "s"),
        ("runner.cache_flush_s", "s"),
        ("runner.cache_puts", "count"),
        ("journal.record_s", "s"),
        ("journal.records", "count"),
        ("sweep.assemble_s", "s"),
        ("health.degraded_events", "count"),
        ("tracing.overhead_s", "s"),
    ]
)


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)
    events: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


# attrs extractors: (args, kwargs, result) -> dict of counts
def _branches_loaded(args, kwargs, result):
    return {"branches": len(result)}


def _planned(args, kwargs, result):
    return {"families": len(result), "lanes": sum(len(f) for f in result)}


def _family_work(args, kwargs, result):
    family, trace = args[0], args[1]
    return {"kind": family.kind, "cells": len(family), "branches": len(family) * len(trace)}


def _prepass_work(args, kwargs, result):
    cells = args[0]
    return {"cells": len(cells), "branches": sum(len(trace) for _, trace in cells)}


def _put_count(args, kwargs, result):
    return {"puts": len(args[2])}  # (self, tkey, rates)


def _record_count(args, kwargs, result):
    return {"records": result}  # cells appended


def _targets():
    """(owner, attribute, span name, attrs extractor) of every wrapper."""
    import repro.analysis.summary as summary
    import repro.sim.fused as fused
    import repro.sim.runner as runner
    import repro.workloads.suite as suite
    from repro.sim.journal import SweepJournal
    from repro.traces.store import TraceStore

    return [
        (suite, "load_benchmark", "traces.load", _branches_loaded),
        (TraceStore, "materialize", "traces.materialize", None),
        (runner, "plan_families", "fused.plan", _planned),
        (fused, "plan_families", "fused.plan", _planned),
        (runner, "family_rates", "kernels.rates", _family_work),
        (runner, "bimode_matrix_rates", "batch_bimode.matrix_prepass", _prepass_work),
        (fused, "family_detailed", "kernels.detailed", _family_work),
        (summary, "summarize_detailed", "analysis.summarize", None),
        (summary, "analyze_substreams", "analysis.substreams", None),
        (summary, "count_class_changes", "analysis.class_changes", None),
        (summary, "aliasing_stats", "analysis.aliasing", None),
        (summary, "sharing_decomposition", "analysis.sharing", None),
        (runner.ResultCache, "flush", "runner.cache_flush", None),
        (runner.ResultCache, "put_many", "runner.cache_put", _put_count),
        (SweepJournal, "record_many", "journal.record", _record_count),
    ]


class Tracer:
    """In-memory span recorder.

    The wrappers are in place only inside :meth:`installed`, so code run
    outside it calls the program's own, unwrapped functions.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        from repro import health

        for owner, attr, name, extract in _targets():
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, extract))
            self._undo.append((owner, attr, original))
        health.add_listener(self._on_event)

    def close(self) -> None:
        from repro import health

        health.remove_listener(self._on_event)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.close()

    def _on_event(self, event) -> None:
        if self._stack:
            self.spans[self._stack[-1]].events.append(event)

    def _wrap(self, original: Callable, name: str, extract) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
                if extract is not None:
                    span.attrs.update(extract(args, kwargs, result))
            return result

        return wrapper

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()

    def reset(self) -> None:
        self.spans = []
        self._stack = []


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def kernel_engine(span: Span) -> str:
    """Engine a kernel span ran on, from the health events it recorded.

    A family-level ``detailed-kernel`` event only says "batch"; a
    kernel's own event, when there is one, names the engine.
    """
    engines = {e.actual for e in span.events if e.component != "detailed-kernel"}
    engines = engines or {e.actual for e in span.events}
    return "-".join(sorted(engines)) if engines else "unreported"


def layer_metrics(setup_spans: List[Span], sweep_spans: List[Span]) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced sweep but the tracing overhead.

    ``setup_spans`` cover trace loading before the first sweep;
    ``sweep_spans`` one traced sweep call whose root span is ``sweep``.
    """
    values: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for span in setup_spans:
        if span.name == "traces.load" and span.parent is None:
            values["traces.materialize_s"] += span.duration
            values["traces.branches"] += span.attrs.get("branches", 0)

    known = {f"{phase}.{kind}.{engine}" for phase, kind, engine in KERNEL_ROWS}
    kernel_branches: Dict[str, float] = {}
    lanes = 0
    for span, own in zip(sweep_spans, self_times(sweep_spans)):
        name = span.name
        if name == "sweep":
            values["sweep.assemble_s"] += own
        elif name == "fused.plan":
            values["fused.plan_s"] += own
            values["fused.families"] += span.attrs["families"]
            lanes += span.attrs["lanes"]
        elif name in ("kernels.rates", "kernels.detailed"):
            phase = name.split(".")[1]
            row = f"{phase}.{span.attrs['kind']}.{kernel_engine(span)}"
            row = f"kernels.{row if row in known else phase + '.other'}"
            values[f"{row}.s"] += own
            values[f"{row}.cells"] += span.attrs["cells"]
            kernel_branches[row] = kernel_branches.get(row, 0) + span.attrs["branches"]
        elif name == "batch_bimode.matrix_prepass":
            values["batch_bimode.matrix_prepass_s"] += own
            values["batch_bimode.matrix_prepass.cells"] += span.attrs["cells"]
        elif name.startswith("analysis."):
            values[f"{name}_s"] += own
        elif name in ("runner.cache_flush", "runner.cache_put"):  # the write path
            values["runner.cache_flush_s"] += own
            values["runner.cache_puts"] += span.attrs.get("puts", 0)
        elif name == "journal.record":
            values["journal.record_s"] += own
            values["journal.records"] += span.attrs["records"]
        values["health.degraded_events"] += sum(e.severity != "info" for e in span.events)
    for row, branches in kernel_branches.items():
        seconds = values[f"{row}.s"]
        values[f"{row}.branches_per_s"] = branches / seconds if seconds > 0 else 0.0
    if values["fused.families"]:
        values["fused.lanes_per_family"] = lanes / values["fused.families"]
    return values
