"""Multi-run orchestration with a persistent result cache.

The figure benchmarks evaluate hundreds of (predictor spec, benchmark)
pairs; a pair's misprediction rate is deterministic, so results are
memoized on disk as JSON keyed by ``(spec, trace key)``.  The cache
lives beside the trace cache (``repro.workloads.suite.default_cache_dir``)
and survives across processes, which makes re-running a figure bench
after the first time nearly free.

Spec grids are grouped into fused families by the sweep planner
(:mod:`repro.sim.fused`) and each family runs through its kernel
registry entry (:mod:`repro.sim.kernels`) — one pass over the shared
trace for every lane — with the scalar engine for anything unfusable
(health-reported).  Every engine produces bit-identical rates
(asserted by the equivalence suites and the differential oracle in
:mod:`repro.verify`), so cache entries are interchangeable between
them.

:func:`evaluate_matrix` is the rate form of the one matrix sweep loop
in :mod:`repro.sim.parallel`: it hands that loop :func:`evaluate_specs`
as the per-trace computation, the cache and journal as the hit lookup,
and the cache and journal writes as the merge.  The same loop runs in
the parent and over the worker pool, with one failure policy: a cell
whose computation raises is quarantined on the result's ``failures``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from functools import partial
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
)

from repro import health
from repro.faults import fault_point
from repro.sim.fused import family_rates, plan_families
from repro.traces.record import BranchTrace
from repro.workloads.suite import default_cache_dir

if TYPE_CHECKING:
    from repro.sim.parallel import SweepResult, TaskPolicy

__all__ = [
    "trace_key",
    "ResultCache",
    "evaluate",
    "evaluate_specs",
    "evaluate_matrix",
]

logger = logging.getLogger(__name__)

#: Nothing calls this; it stays bound only because the benchmark's
#: tracer (``perfbench/tracing.py``) wraps it by name.
bimode_matrix_rates = None


def trace_key(trace: BranchTrace) -> str:
    """Stable identity of a trace for cache keying.

    Generated workload traces carry their ``profile_seed`` in metadata,
    which (with name and length) pins down their content.  Traces
    without one — hand-built arrays, recorded captures — fall back to a
    short content hash so two different anonymous traces of equal
    length can never collide on a cache cell.  A
    :class:`~repro.sim.parallel.TraceRecipe` carries the same identity
    without the arrays and is accepted directly.
    """
    tkey = getattr(trace, "tkey", None)
    if tkey is not None:
        return tkey
    seed = trace.metadata.get("profile_seed")
    if seed is None:
        digest = hashlib.sha1()
        digest.update(trace.pcs.tobytes())
        digest.update(trace.outcomes.tobytes())
        suffix = f"h{digest.hexdigest()[:12]}"
    else:
        suffix = f"s{seed}"
    return f"{trace.name or 'anon'}-n{len(trace)}-{suffix}"


class ResultCache:
    """Disk-backed ``(spec, trace) -> misprediction rate`` memo.

    One JSON file per trace key keeps files small and avoids rewrite
    contention across benchmarks.  Writes are atomic (temp file +
    ``os.replace``), so a reader — or a concurrent sweep worker's
    merge — can never observe a half-written table.  Batch producers
    should use :meth:`put_many`: ``put`` alone rewrites the trace's
    file on every cell, which is O(cells²) bytes over a sweep.
    """

    def __init__(self, root: Optional[Path] = None):
        self.root = (Path(root) if root is not None else default_cache_dir()) / "results"
        self._loaded: Dict[str, Dict[str, float]] = {}
        self._dirty: Set[str] = set()

    def _path(self, tkey: str) -> Path:
        return self.root / f"{tkey}.json"

    def _table(self, tkey: str) -> Dict[str, float]:
        if tkey not in self._loaded:
            self._loaded[tkey] = self._load_table(tkey)
        return self._loaded[tkey]

    def _load_table(self, tkey: str) -> Dict[str, float]:
        """Load one per-trace table, distrusting everything on disk.

        A file that is not valid JSON (a crash mid-write of a foreign
        tool, bit rot) is quarantined to ``<name>.json.corrupt-<pid>``
        — preserved for inspection, out of the cache's way — rather
        than silently treated as empty.  Loaded cells are validated:
        anything that is not a float in [0, 1] is dropped with a
        warning, so a poisoned cache cannot leak NaNs or garbage into
        a sweep table.
        """
        path = self._path(tkey)
        if not path.exists():
            return {}
        try:
            loaded = json.loads(path.read_text())
            if not isinstance(loaded, dict):
                raise ValueError(f"expected a JSON object, got {type(loaded).__name__}")
        except OSError as exc:
            logger.warning("result cache %s unreadable (%s); treating as empty", path, exc)
            return {}
        except (json.JSONDecodeError, ValueError) as exc:
            quarantine = path.with_name(f"{path.name}.corrupt-{os.getpid()}")
            try:
                os.replace(path, quarantine)
                where = quarantine.name
            except OSError:
                where = "<unmovable>"
            logger.warning(
                "quarantined corrupt result cache %s -> %s (%s)", path, where, exc
            )
            health.emit(
                "result-cache",
                "load",
                "quarantined",
                reason=f"{path.name}: {exc}",
                severity="degraded",
            )
            return {}
        table: Dict[str, float] = {}
        for spec, rate in loaded.items():
            if (
                isinstance(spec, str)
                and isinstance(rate, (int, float))
                and not isinstance(rate, bool)
                and 0.0 <= rate <= 1.0
            ):
                table[spec] = float(rate)
            else:
                logger.warning(
                    "dropping invalid cache cell %r=%r in %s", spec, rate, path.name
                )
        return table

    def get(self, spec: str, tkey: str) -> Optional[float]:
        return self._table(tkey).get(spec)

    def put(self, spec: str, tkey: str, rate: float) -> None:
        self.put_many(tkey, {spec: rate})

    def put_many(self, tkey: str, rates: Mapping[str, float]) -> None:
        """Record many cells of one trace, with a single file write."""
        if not rates:
            return
        self._table(tkey).update(rates)
        self._dirty.add(tkey)
        self.flush()

    def flush(self) -> List[str]:
        """Write every dirty per-trace table atomically.

        Exception-safe per trace key: one unwritable file does not drop
        the remaining dirty tables.  Keys that failed stay dirty (a
        later flush retries them) and are returned, warned about, and
        reported as degradation events.
        """
        failed: List[str] = []
        for tkey in sorted(self._dirty):
            path = self._path(tkey)
            tmp = None
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
                tmp.write_text(
                    json.dumps(self._loaded[tkey], indent=0, sort_keys=True)
                )
                os.replace(tmp, path)
            except OSError as exc:
                if tmp is not None:
                    try:
                        tmp.unlink()
                    except OSError:
                        pass
                failed.append(tkey)
                logger.warning("could not flush result cache %s (%s)", path, exc)
                health.emit(
                    "result-cache",
                    "flush",
                    "kept-dirty",
                    reason=f"{tkey}: {exc}",
                    severity="error",
                )
        self._dirty = set(failed)
        return failed


def evaluate_specs(
    specs: Sequence[str],
    trace: BranchTrace,
    cache: Optional[ResultCache] = None,
) -> Dict[str, float]:
    """Misprediction rate of every spec on one trace, batched.

    Uncached specs are grouped into fused families by the sweep
    planner (:mod:`repro.sim.fused`), each advancing as one family over
    the trace; unfusable schemes fall back to the scalar engine with a
    health degradation recorded.  Results are memoized through
    ``cache`` with one write per trace.
    """
    tkey = trace_key(trace)
    rates: Dict[str, float] = {}
    missing: List[str] = []
    for spec in specs:
        if spec in rates or spec in missing:
            continue
        hit = cache.get(spec, tkey) if cache is not None else None
        if hit is not None:
            rates[spec] = hit
        else:
            missing.append(spec)

    computed: Dict[str, float] = {}
    if missing:
        # Injectable (and countable) point: fires only when this call
        # actually simulates cells, so fault-injection tests can assert
        # exactly which benchmarks were recomputed, in which process.
        fault_point("evaluate", bench=trace.name or "anon", cells=len(missing))
        for family in plan_families(missing):
            computed.update(family_rates(family, trace))

    if cache is not None and computed:
        cache.put_many(tkey, computed)
    rates.update(computed)
    return {spec: rates[spec] for spec in specs}


def evaluate(
    spec: str,
    trace: BranchTrace,
    cache: Optional[ResultCache] = None,
) -> float:
    """Misprediction rate of the predictor ``spec`` on ``trace``.

    Builds the predictor from its spec string, simulates (through its
    batch kernel when the registry has one), and memoizes through
    ``cache`` when given.
    """
    return evaluate_specs([spec], trace, cache=cache)[spec]


def evaluate_matrix(
    specs: Iterable[str],
    traces: Mapping[str, BranchTrace],
    cache: Optional[ResultCache] = None,
    progress=None,
    jobs: Optional[int] = None,
    journal=None,
    policy: Optional[TaskPolicy] = None,
) -> SweepResult:
    """Rates for every (spec, benchmark) pair: ``result[spec][bench]``.

    Runs the one sweep loop of :mod:`repro.sim.parallel`, in the parent
    or over its supervised worker pool: ``jobs`` (default: the
    ``$REPRO_JOBS`` knob, in-parent when unset) and ``policy`` (a
    :class:`~repro.sim.parallel.TaskPolicy`, default from the
    environment) select it, and the rates are identical either way.
    ``traces`` values may be :class:`~repro.sim.parallel.TraceRecipe`
    instead of loaded traces.  Cells already in ``cache`` or in
    ``journal`` (a :class:`repro.sim.journal.SweepJournal`) are never
    re-simulated, and journalled ones refill the cache.  Computed cells
    go to both as each trace's batch finishes, which makes the sweep
    resumable.  ``progress`` (optional) is called with ``(spec, bench,
    rate)`` once per returned cell, for CLI feedback on long sweeps.

    Returns a :class:`~repro.sim.parallel.SweepResult`: a cell whose
    computation raised is left out of the matrix and listed on its
    ``failures``, under every ``jobs`` value.
    """
    from repro.sim.parallel import _guarded, _sweep_matrix

    def lookup(tkey: str, wanted: List[str]) -> Dict[str, float]:
        hits = {}
        if cache is not None:
            hits = {spec: cache.get(spec, tkey) for spec in wanted}
            hits = {spec: rate for spec, rate in hits.items() if rate is not None}
        done = journal.completed(tkey) if journal is not None else {}
        refill = {s: done[s] for s in wanted if s not in hits and s in done}
        if cache is not None:
            cache.put_many(tkey, refill)
        return {**hits, **refill}

    def merge(tkey: str, rates: Dict[str, float]) -> None:
        if cache is not None:
            cache.put_many(tkey, rates)
        if journal is not None:
            journal.record_many(tkey, rates)

    with _guarded(journal, cache):
        return _sweep_matrix(
            list(specs),
            traces,
            partial(evaluate_specs, cache=None),
            lookup,
            merge,
            progress,
            jobs,
            policy,
        )
