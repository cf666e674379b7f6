"""Append-only sweep journal: crash-safe resume for long sweeps.

The result cache (:class:`repro.sim.runner.ResultCache`) writes a
trace key's table once per computed batch, and keeps a table whose
write failed dirty until a later flush — so a SIGINT can lose every
rate computed since the last write, and a paper-scale Figure-3/Figure-4
sweep holds hours of work in that window.  The journal closes the gap:
every completed ``(trace key, spec) -> rate`` cell is appended to a
JSONL file *as it completes*, with one ``O_APPEND`` write (plus fsync)
per batch, so lines are never interleaved or half-visible.  A crashed
or killed sweep can then be rerun with resume enabled and only the
cells missing from the journal are re-simulated; rates round-trip
through JSON exactly (``repr`` floats), so the resumed table is
bit-identical to an uninterrupted run.

A torn final line (the one write a hard kill can truncate) is detected
and skipped on load, as is any line whose rate is not a float in
[0, 1] — the journal trusts nothing it reads.

:class:`PayloadJournal` is the same machinery keyed to JSON-object
values instead of rates: the detailed (Section-4) parallel pipeline
journals each cell's compact analysis summary so interrupted breakdown
sweeps resume without re-running any attribution simulation.

:meth:`SweepJournal.guard` additionally installs SIGINT/SIGTERM
handlers for the duration of a sweep that flush the result cache's
dirty tables (writes that failed once) before the signal is
re-delivered, so even the cache loses nothing on a polite kill.
"""

from __future__ import annotations

import json
import logging
import os
import re
import signal
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

__all__ = ["SweepJournal", "PayloadJournal"]

logger = logging.getLogger(__name__)


class SweepJournal:
    """Append-only JSONL record of completed sweep cells."""

    #: JSON field holding each cell's value; subclasses override together
    #: with :meth:`_coerce` to journal a different value shape.
    VALUE_KEY = "rate"

    def __init__(self, path: os.PathLike):
        self.path = Path(path)
        self._completed: Optional[Dict[Tuple[str, str], object]] = None
        self.corrupt_lines = 0
        self.resumed_cells = 0

    @staticmethod
    def _coerce(value):
        """Validated journal-ready form of ``value`` (raises ValueError)."""
        if (
            not isinstance(value, (int, float))
            or isinstance(value, bool)
            or not 0.0 <= value <= 1.0
        ):
            raise ValueError(f"rate must be a float in [0, 1], got {value!r}")
        return float(value)

    @classmethod
    def for_name(cls, name: str, root: Optional[os.PathLike] = None) -> "SweepJournal":
        """Journal under the shared cache directory, keyed by sweep name."""
        if root is None:
            from repro.workloads.suite import default_cache_dir

            root = default_cache_dir() / "journal"
        safe = re.sub(r"[^A-Za-z0-9._-]+", "_", name.strip()) or "sweep"
        return cls(Path(root) / f"{safe}.jsonl")

    # -- reading ------------------------------------------------------------

    def _load(self) -> Dict[Tuple[str, str], object]:
        if self._completed is not None:
            return self._completed
        table: Dict[Tuple[str, str], object] = {}
        raw = ""
        if self.path.exists():
            try:
                raw = self.path.read_text()
            except OSError as exc:
                logger.warning("sweep journal %s unreadable (%s); starting empty", self.path, exc)
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                tkey = entry["tkey"]
                spec = entry["spec"]
                if not (isinstance(tkey, str) and isinstance(spec, str)):
                    raise ValueError(f"invalid journal cell {entry!r}")
                value = self._coerce(entry[self.VALUE_KEY])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                self.corrupt_lines += 1
                continue
            table[(tkey, spec)] = value
        if self.corrupt_lines:
            logger.warning(
                "sweep journal %s: ignored %d corrupt line(s)",
                self.path,
                self.corrupt_lines,
            )
        self._completed = table
        self.resumed_cells = len(table)
        return table

    def lookup(self, tkey: str, spec: str):
        """The journalled value of one cell, or ``None``."""
        return self._load().get((tkey, spec))

    def completed(self, tkey: str) -> Dict[str, object]:
        """Every journalled ``spec -> value`` for one trace key."""
        return {
            spec: value for (key, spec), value in self._load().items() if key == tkey
        }

    def __len__(self) -> int:
        return len(self._load())

    # -- writing ------------------------------------------------------------

    def record_many(self, tkey: str, values: Mapping[str, object]) -> int:
        """Append the cells not already journalled; returns how many."""
        table = self._load()
        fresh = {
            spec: self._coerce(value)
            for spec, value in values.items()
            if (tkey, spec) not in table
        }
        if not fresh:
            return 0
        payload = "".join(
            json.dumps(
                {"tkey": tkey, "spec": spec, self.VALUE_KEY: value}, sort_keys=True
            )
            + "\n"
            for spec, value in sorted(fresh.items())
        ).encode()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, payload)
            os.fsync(fd)
        finally:
            os.close(fd)
        for spec, value in fresh.items():
            table[(tkey, spec)] = value
        return len(fresh)

    def record(self, tkey: str, spec: str, value) -> int:
        return self.record_many(tkey, {spec: value})

    def compact(self) -> int:
        """Atomically rewrite the file to one line per completed cell.

        ``O_APPEND`` journals only ever grow: duplicate cells appended
        by concurrent writers or across restarts, torn lines from hard
        kills, and corrupt lines all stay on disk forever.  Compaction
        rewrites the journal as exactly one well-formed line per
        completed cell (sorted, so equal journals are byte-equal),
        via a sibling temp file and ``os.replace`` — a crash mid-compact
        leaves the original journal untouched.  Returns the number of
        raw lines dropped (duplicates + corrupt + torn).
        """
        table = self._load()
        if not self.path.exists():
            return 0
        try:
            raw_lines = sum(
                1 for line in self.path.read_text().splitlines() if line.strip()
            )
        except OSError:
            raw_lines = 0
        payload = "".join(
            json.dumps(
                {"tkey": tkey, "spec": spec, self.VALUE_KEY: value}, sort_keys=True
            )
            + "\n"
            for (tkey, spec), value in sorted(table.items())
        ).encode()
        tmp = self.path.with_name(f".tmp-{self.path.name}-{os.getpid()}")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, payload)
            os.fsync(fd)
        finally:
            os.close(fd)
        try:
            os.replace(tmp, self.path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise
        self.corrupt_lines = 0
        return max(0, raw_lines - len(table))

    def discard(self) -> None:
        """Delete the journal file and forget everything loaded."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        self._completed = None
        self.corrupt_lines = 0
        self.resumed_cells = 0

    # -- signal safety ------------------------------------------------------

    @contextmanager
    def guard(self, cache=None):
        """SIGINT/SIGTERM-safe region around a sweep.

        On either signal the result cache's dirty tables are flushed
        first, then the interruption proceeds normally
        (``KeyboardInterrupt`` for SIGINT, ``SystemExit(128 + signum)``
        for SIGTERM).  Outside
        the main thread — where Python forbids installing handlers —
        this degrades to a no-op wrapper; the journal itself is already
        durable line-by-line.
        """
        previous = {}

        def _flush() -> None:
            if cache is not None:
                try:
                    cache.flush()
                except Exception:  # pragma: no cover - last-ditch flush
                    logger.exception("cache flush on signal failed")

        def _handler(signum, frame):
            _flush()
            if signum == signal.SIGINT:
                raise KeyboardInterrupt
            raise SystemExit(128 + signum)

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, _handler)
            except (ValueError, OSError):  # not the main thread / unsupported
                pass
        try:
            yield self
        finally:
            for signum, old in previous.items():
                try:
                    signal.signal(signum, old)
                except (ValueError, OSError):  # pragma: no cover
                    pass


class PayloadJournal(SweepJournal):
    """Sweep journal whose cell values are JSON objects, not rates.

    Used by the parallel detailed pipeline to persist each cell's
    Section-4 summary dict.  Values must round-trip through JSON
    unchanged (plain dicts/lists/strs/numbers), which `json.dumps`
    guarantees for the payloads :func:`repro.analysis.summary.
    summarize_detailed` produces — so a resumed cell compares equal to
    a recomputed one.
    """

    VALUE_KEY = "payload"

    @staticmethod
    def _coerce(value):
        if not isinstance(value, dict):
            raise ValueError(f"payload must be a JSON object, got {value!r}")
        return value
