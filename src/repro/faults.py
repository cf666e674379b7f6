"""Deterministic fault injection for robustness testing.

The fault-tolerant sweep machinery (supervised workers, retries, the
sweep journal, degradation events) is only trustworthy if its failure
paths are exercised end-to-end — including inside real worker
processes.  This module provides a small, deterministic injector that
production code calls at named *fault points* and tests arm through a
single environment variable, so the same directives reach both the
parent process and every pool worker (which inherit the environment).

Directive grammar (``$REPRO_FAULTS``, semicolon-separated)::

    site:action[:key=value,...]

    REPRO_FAULTS="worker:exit:bench=gcc,nth=1"
    REPRO_FAULTS="evaluate:raise:bench=go,where=worker"
    REPRO_FAULTS="worker:sleep:seconds=0.5,nth=1;evaluate:raise:nth=3"

Sites are the names production code passes to :func:`fault_point`
(``worker`` at worker-task entry, ``evaluate`` where rate cells are
actually simulated, ``detailed`` before each Section-4 analysis cell,
and ``materialize`` in the trace store's lock-winning generation path).
Actions:

* ``raise``  — raise :class:`FaultInjected`;
* ``exit``   — hard-kill the current process (``os._exit``).  Only ever
  fires inside a pool worker, never in the parent, regardless of
  ``where`` — killing the orchestrator is not a scenario we test;
* ``sleep``  — block for ``seconds`` (drives task-timeout paths);
* ``sigint`` — send ``SIGINT`` to the current process (drives the
  journal's signal-safe flush path).

Options: ``nth=N`` fires only on the Nth matching hit counted in this
process (workers count independently — a reseeded worker starts at
zero, which is exactly how "kill the worker on its first task" stays
deterministic across retries); ``bench=NAME`` restricts to matching
``bench`` context; ``where=worker|parent|any`` (default ``any``)
restricts by process role.

Independent of injection, setting ``$REPRO_FAULT_TRACE`` to a directory
makes every fault point append one line to a per-PID log file.  Tests
use this as cross-process call-count instrumentation, e.g. to assert a
benchmark whose worker succeeded is *not* recomputed after another
worker crashes.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = [
    "FaultInjected",
    "FaultRule",
    "parse_faults",
    "fault_point",
    "in_worker",
    "inject",
    "traced",
    "trace_counts",
    "corrupt_cache_file",
    "deny_compiler",
]

ENV_VAR = "REPRO_FAULTS"
TRACE_VAR = "REPRO_FAULT_TRACE"

_ACTIONS = ("raise", "exit", "sleep", "sigint")


class FaultInjected(RuntimeError):
    """The error raised by an armed ``raise`` directive."""


@dataclass(frozen=True)
class FaultRule:
    """One parsed fault directive."""

    site: str
    action: str
    nth: Optional[int] = None
    bench: Optional[str] = None
    where: str = "any"
    seconds: float = 0.0

    def matches(self, site: str, ctx: Dict[str, object]) -> bool:
        if site != self.site:
            return False
        if self.bench is not None and ctx.get("bench") != self.bench:
            return False
        if self.where == "worker" and not in_worker():
            return False
        if self.where == "parent" and in_worker():
            return False
        return True


def parse_faults(spec: str) -> List[FaultRule]:
    """Parse a ``$REPRO_FAULTS`` directive string (raises on junk)."""
    rules: List[FaultRule] = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) < 2 or len(parts) > 3:
            raise ValueError(f"fault directive must be site:action[:opts], got {chunk!r}")
        site, action = parts[0].strip(), parts[1].strip().lower()
        if not site:
            raise ValueError(f"fault directive has an empty site: {chunk!r}")
        if action not in _ACTIONS:
            raise ValueError(
                f"fault action must be one of {_ACTIONS}, got {action!r}"
            )
        nth: Optional[int] = None
        bench: Optional[str] = None
        where = "any"
        seconds = 0.0
        if len(parts) == 3 and parts[2].strip():
            for item in parts[2].split(","):
                if "=" not in item:
                    raise ValueError(f"fault option must be key=value, got {item!r}")
                key, value = (s.strip() for s in item.split("=", 1))
                if key == "nth":
                    nth = int(value)
                    if nth < 1:
                        raise ValueError(f"nth must be >= 1, got {nth}")
                elif key == "bench":
                    bench = value
                elif key == "where":
                    if value not in ("any", "worker", "parent"):
                        raise ValueError(f"where must be any/worker/parent, got {value!r}")
                    where = value
                elif key == "seconds":
                    seconds = float(value)
                else:
                    raise ValueError(f"unknown fault option {key!r} in {chunk!r}")
        rules.append(
            FaultRule(
                site=site, action=action, nth=nth, bench=bench, where=where,
                seconds=seconds,
            )
        )
    return rules


def in_worker() -> bool:
    """Whether this process is a multiprocessing child (a pool worker)."""
    return multiprocessing.parent_process() is not None


# Compiled rules are cached on the exact spec string; hit counters are
# per (process, spec) so a fresh worker — or a re-armed spec — counts
# from zero.
_compiled_for: Optional[str] = None
_compiled: List[FaultRule] = []
_hits: Dict[int, int] = {}


def _rules() -> List[FaultRule]:
    global _compiled_for, _compiled, _hits
    spec = os.environ.get(ENV_VAR, "")
    if spec != _compiled_for:
        _compiled = parse_faults(spec) if spec.strip() else []
        _compiled_for = spec
        _hits = {}
    return _compiled


def _trace(site: str, ctx: Dict[str, object]) -> None:
    root = os.environ.get(TRACE_VAR, "").strip()
    if not root:
        return
    try:
        path = Path(root)
        path.mkdir(parents=True, exist_ok=True)
        extras = " ".join(f"{k}={v}" for k, v in sorted(ctx.items()))
        line = f"{site} {extras}".rstrip() + "\n"
        # O_APPEND single-write: concurrent workers never interleave lines.
        fd = os.open(path / f"{os.getpid()}.log", os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)
    except OSError:  # pragma: no cover - tracing must never break the sweep
        pass


def _fire(rule: FaultRule) -> None:
    if rule.action == "raise":
        raise FaultInjected(
            f"injected fault at {rule.site}"
            + (f" (bench={rule.bench})" if rule.bench else "")
        )
    if rule.action == "exit":
        if in_worker():  # never hard-kill the orchestrating process
            os._exit(87)
        return
    if rule.action == "sleep":
        time.sleep(rule.seconds)
        return
    if rule.action == "sigint":
        os.kill(os.getpid(), signal.SIGINT)


def fault_point(site: str, **ctx) -> None:
    """Declare an injectable point in production code.

    Free when ``$REPRO_FAULTS`` and ``$REPRO_FAULT_TRACE`` are unset
    (one env read each).  With a trace directory set, logs the hit;
    with matching armed directives, triggers their actions.
    """
    _trace(site, ctx)
    rules = _rules()
    if not rules:
        return
    for index, rule in enumerate(rules):
        if not rule.matches(site, ctx):
            continue
        _hits[index] = _hits.get(index, 0) + 1
        if rule.nth is not None and _hits[index] != rule.nth:
            continue
        _fire(rule)


@contextmanager
def inject(spec: str):
    """Arm fault directives for the duration of the block (parent side).

    Worker processes created inside the block inherit the directives
    through the environment.  Hit counters restart on entry.
    """
    parse_faults(spec)  # fail fast on junk before arming anything
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = spec
    _rules()  # recompile now so counters reset even if spec == previous
    global _hits
    _hits = {}
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous
        _rules()


@contextmanager
def traced(root: os.PathLike):
    """Log every fault-point hit under ``root`` for the block."""
    previous = os.environ.get(TRACE_VAR)
    os.environ[TRACE_VAR] = str(root)
    try:
        yield Path(root)
    finally:
        if previous is None:
            os.environ.pop(TRACE_VAR, None)
        else:
            os.environ[TRACE_VAR] = previous


def trace_counts(
    root: os.PathLike, site: Optional[str] = None
) -> Dict[Tuple[str, str], int]:
    """Aggregate trace logs across all processes.

    Returns ``{(site, bench): hits}`` (bench ``""`` when the fault point
    carried none), summed over every per-PID log file under ``root``.
    """
    counts: Dict[Tuple[str, str], int] = {}
    root = Path(root)
    if not root.is_dir():
        return counts
    for log in sorted(root.glob("*.log")):
        for line in log.read_text().splitlines():
            fields = line.split()
            if not fields:
                continue
            hit_site = fields[0]
            if site is not None and hit_site != site:
                continue
            bench = ""
            for extra in fields[1:]:
                if extra.startswith("bench="):
                    bench = extra[len("bench="):]
            key = (hit_site, bench)
            counts[key] = counts.get(key, 0) + 1
    return counts


def corrupt_cache_file(cache, tkey: str, payload: str = "{corrupt! not json") -> Path:
    """Overwrite one result-cache table with garbage (crash simulation)."""
    path = cache._path(tkey)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(payload)
    cache._loaded.pop(tkey, None)  # force a reload from the corrupt file
    return path


@contextmanager
def deny_compiler():
    """Pretend no C compiler exists for the duration of the block."""
    from repro._cbuild import NO_CC_ENV

    previous = os.environ.get(NO_CC_ENV)
    os.environ[NO_CC_ENV] = "1"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(NO_CC_ENV, None)
        else:
            os.environ[NO_CC_ENV] = previous
