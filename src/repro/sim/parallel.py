"""Process-parallel sweep execution with supervised, fault-tolerant workers.

Design-space sweeps (specs x benchmarks) are embarrassingly parallel
across traces, so :func:`evaluate_matrix_parallel` ships one work item
per (trace, spec family) — the fused planner's grouping, after
deduplicating identical (spec, trace) cells across benchmarks — to a
``ProcessPoolExecutor``.  Work items carry a
:class:`TraceRecipe` — ``(name, length, seed)`` plus an optional trace
store root — rather than the trace arrays themselves: workers map the
published trace out of the zero-copy store
(:class:`repro.traces.store.TraceStore`, shared OS page cache across
the pool) and materialize it on first use, instead of paying
multi-megabyte pickles or a regeneration per task.  Cold-store
materialization itself fans out into the pool as first-class
supervised tasks (:func:`materialize_parallel`, or recipe-valued
``traces`` in :func:`evaluate_matrix_parallel`).

Every task is individually supervised (:class:`TaskPolicy`):

* a configurable per-task timeout (``$REPRO_TASK_TIMEOUT`` seconds) —
  an expired task's pool is abandoned and reseeded so stragglers cannot
  wedge the sweep;
* bounded retries with exponential backoff (``$REPRO_TASK_RETRIES``,
  ``$REPRO_TASK_BACKOFF``), including a reseeded pool after a
  ``BrokenProcessPool`` (a worker killed mid-task);
* completed results are always salvaged — one crashed worker never
  discards, or recomputes, a benchmark whose worker already finished;
* a task that exhausts its retries gets one final in-parent serial
  attempt, and if that also fails it is quarantined into a structured
  :class:`FailedCell` (exception type, message, traceback, attempt
  count) attached to the returned :class:`SweepResult` instead of
  poisoning the matrix.

Workers never touch the result cache.  The parent filters out cached
(and journalled — see :class:`repro.sim.journal.SweepJournal`) cells
before dispatch, merges each worker's rates *as it completes* — into
the matrix, the cache, and the journal — and the final matrix is
assembled in input order, deterministic regardless of completion order.
Inside a worker the cells route exactly as in the serial path, so
parallel and serial sweeps produce byte-identical tables.

Degradations (pool unavailable -> serial, worker retries, quarantined
cells) are reported through :mod:`repro.health`.

Detailed (Section-4) analysis sweeps are a first-class workload here
too: :func:`detailed_matrix` ships one supervised task per ``(trace,
spec family)`` — cells of one scheme share a detailed family pass
(:func:`repro.sim.fused.family_detailed`) — workers reduce each lane's
substream grouping to a compact summary dict in-process (kilobytes
over the pipe, never the per-branch arrays), and completed cells
persist to a :class:`repro.sim.journal.PayloadJournal` for crash-safe
resume with bit-identical aggregates.

Parallelism is controlled by the ``$REPRO_JOBS`` environment knob (or an
explicit ``jobs`` argument).  ``REPRO_JOBS=1``, unset ``REPRO_JOBS``, an
unpicklable platform, or traces that carry no recipe all fall back to
the serial path, which computes bit-identical rates.
"""

from __future__ import annotations

import os
import time
import traceback as _tb
from collections import deque
from contextlib import contextmanager
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import health
from repro.faults import fault_point
from repro.traces.record import BranchTrace

__all__ = [
    "TraceRecipe",
    "TaskPolicy",
    "FailedCell",
    "SweepResult",
    "recipe_of",
    "parallel_jobs",
    "effective_jobs",
    "materialize_parallel",
    "evaluate_matrix_parallel",
    "detailed_matrix",
]


@dataclass(frozen=True)
class TraceRecipe:
    """Everything a worker needs to materialize a benchmark trace.

    ``store_root`` (optional) pins the trace store the worker should
    materialize into/load from; ``None`` defers to the environment's
    default cache root, which pool workers inherit.
    """

    name: str
    length: int
    seed: int
    store_root: Optional[str] = None

    @property
    def tkey(self) -> str:
        """The same cache key :func:`repro.sim.runner.trace_key` derives
        from the materialized trace, computed without the arrays."""
        return f"{self.name}-n{self.length}-s{self.seed}"


def recipe_of(trace: BranchTrace) -> Optional[TraceRecipe]:
    """The trace's regeneration recipe, or ``None`` if it has none.

    Only generated workload traces (a registered profile name plus a
    ``profile_seed`` in metadata) can be rebuilt from a recipe; anything
    else must be evaluated in-process.
    """
    seed = trace.metadata.get("profile_seed")
    if seed is None or not trace.name:
        return None
    from repro.workloads.profiles import ALL_PROFILES

    if trace.name not in ALL_PROFILES:
        return None
    return TraceRecipe(name=trace.name, length=len(trace), seed=int(seed))


def parallel_jobs(default: int = 1) -> int:
    """Worker count from the ``$REPRO_JOBS`` knob.

    ``REPRO_JOBS=0`` (or ``auto``) means one worker per CPU; unset falls
    back to ``default`` (serial unless a caller opts in).
    """
    env = os.environ.get("REPRO_JOBS", "").strip()
    if not env:
        return max(1, default)
    if env.lower() == "auto":
        return os.cpu_count() or 1
    try:
        jobs = int(env)
    except ValueError:
        raise ValueError(f"REPRO_JOBS must be an integer or 'auto', got {env!r}")
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def effective_jobs(jobs: Optional[int]) -> int:
    """Resolve an explicit ``jobs`` argument against the env knob.

    ``None`` defers to ``$REPRO_JOBS``; ``0`` or negative means one
    worker per CPU, mirroring the knob's convention.
    """
    if jobs is None:
        return parallel_jobs()
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


# -- supervision policy and fault reports -------------------------------------------


@dataclass(frozen=True)
class TaskPolicy:
    """Per-task supervision knobs for the worker pool.

    ``timeout`` is wall-clock seconds a task may run before its pool is
    abandoned and the task retried (``None`` disables); ``retries`` is
    how many *additional* pool attempts a failing task gets before the
    final in-parent serial attempt; ``backoff`` is the base of the
    exponential sleep between retries.
    """

    timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.1

    @classmethod
    def from_env(cls) -> "TaskPolicy":
        """Policy from ``$REPRO_TASK_TIMEOUT`` / ``_RETRIES`` / ``_BACKOFF``."""

        def _number(name: str, default: float) -> float:
            raw = os.environ.get(name, "").strip()
            if not raw:
                return default
            try:
                return float(raw)
            except ValueError:
                raise ValueError(f"{name} must be a number, got {raw!r}")

        timeout = _number("REPRO_TASK_TIMEOUT", 0.0)
        retries = int(_number("REPRO_TASK_RETRIES", 2))
        backoff = _number("REPRO_TASK_BACKOFF", 0.1)
        return cls(
            timeout=timeout if timeout > 0 else None,
            retries=max(0, retries),
            backoff=max(0.0, backoff),
        )


@dataclass(frozen=True)
class FailedCell:
    """A quarantined (benchmark, specs) task that exhausted every retry."""

    bench: str
    specs: Tuple[str, ...]
    error_type: str
    message: str
    traceback: str
    attempts: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.bench} [{len(self.specs)} specs]: {self.error_type}: "
            f"{self.message} (after {self.attempts} attempts)"
        )


class SweepResult(Dict[str, Dict[str, float]]):
    """An ``evaluate_matrix`` result dict plus fault metadata.

    Equality, iteration, and indexing behave exactly like the plain
    ``{spec: {bench: rate}}`` dict, so existing callers are unaffected;
    ``failures`` lists the quarantined cells (empty on a clean sweep).
    """

    def __init__(self, data=None, failures: Optional[Sequence[FailedCell]] = None):
        super().__init__(data or {})
        self.failures: List[FailedCell] = list(failures or [])

    @property
    def quarantined_benches(self) -> List[str]:
        return sorted({cell.bench for cell in self.failures})


class _Task:
    """One supervised work item: evaluate a benchmark, run a detailed
    (Section-4) analysis cell, or materialize a trace into the store
    (``kind``)."""

    __slots__ = (
        "bench",
        "recipe",
        "missing",
        "kind",
        "opts",
        "attempts",
        "last_error",
        "last_tb",
    )

    def __init__(
        self,
        bench: str,
        recipe: TraceRecipe,
        missing: List[str],
        kind: str = "evaluate",
        opts: Optional[dict] = None,
    ):
        self.bench = bench
        self.recipe = recipe
        self.missing = list(missing)
        self.kind = kind
        self.opts = opts
        self.attempts = 0
        self.last_error: Optional[BaseException] = None
        self.last_tb = ""


def _recipe_store(recipe: TraceRecipe):
    if recipe.store_root is None:
        return None
    from pathlib import Path

    from repro.traces.store import TraceStore

    return TraceStore(Path(recipe.store_root))


def _load_recipe(recipe: TraceRecipe) -> BranchTrace:
    from repro.workloads.suite import load_benchmark

    return load_benchmark(
        recipe.name,
        length=recipe.length,
        seed=recipe.seed,
        store=_recipe_store(recipe),
    )


def _worker_evaluate(
    recipe: TraceRecipe, specs: Tuple[str, ...]
) -> Tuple[str, Dict[str, float]]:
    """Map (or materialize) one trace and evaluate every spec on it."""
    from repro.sim.runner import evaluate_specs

    fault_point("worker", bench=recipe.name)
    trace = _load_recipe(recipe)
    return recipe.name, evaluate_specs(tuple(specs), trace, cache=None)


def _detailed_cells(
    specs: Sequence[str], trace: BranchTrace, opts: dict
) -> Dict[str, dict]:
    """Run and summarize the detailed simulation of each spec on one trace.

    Cells evaluate family-wise through the detailed passes
    (:func:`repro.sim.fused.family_detailed`), which share the trace's
    PC codes.  Compiled gshare and bi-mode lanes group their accesses
    into (counter, pc) substreams as they run and hand back only int32
    stream ids and per-stream ``{key, total, taken, miss}`` records —
    the misprediction count comes from those records — while the other
    schemes hand back a detailed simulation for the analysis to group.
    Either is reduced at once to its compact Section-4 summary dict
    (:func:`repro.analysis.summary.summarize_detailed`), kilobytes
    instead of tens of megabytes, which is what makes detailed cells
    shippable across the process pool and journallable as JSON; the
    summaries are bit-identical to the scalar ``run_detailed`` path's.
    """
    from repro.analysis.bias import pc_code_stream
    from repro.analysis.summary import summarize_detailed
    from repro.sim.fused import family_detailed, plan_families

    pc_codes = pc_code_stream(trace.pcs)  # per-trace, shared by every cell
    out: Dict[str, dict] = {}
    for family in plan_families(list(specs)):
        rows = family_detailed(family, trace, pc_codes=pc_codes)
        for spec in family.specs:
            fault_point("detailed", bench=trace.name or "anon", spec=spec)
            out[spec] = summarize_detailed(
                rows[spec],
                threshold=opts["threshold"],
                include_bias_table=opts["include_bias_table"],
                pc_codes=pc_codes,
            )
    return out


def _worker_detailed(
    recipe: TraceRecipe, specs: Tuple[str, ...], opts: dict
) -> Tuple[str, Dict[str, dict]]:
    """Map (or materialize) one trace and run detailed cells on it."""
    fault_point("worker", bench=recipe.name)
    trace = _load_recipe(recipe)
    return recipe.name, _detailed_cells(specs, trace, opts)


def _worker_materialize(recipe: TraceRecipe) -> Tuple[str, None]:
    """Materialize one cold trace into the store (worker side).

    Returns no rates — the value of the task is the published trace.
    The store's single-flight lock makes overlapping materializers (a
    retried task, or an evaluate task racing ahead) generate at most
    once between them.
    """
    fault_point("worker", bench=recipe.name)
    _load_recipe(recipe)
    return recipe.name, None


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on wedged or dying workers."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except TypeError:  # pragma: no cover - cancel_futures needs 3.9+
        pool.shutdown(wait=False)
    # Best effort: reclaim workers stuck in a timed-out task so they do
    # not linger until interpreter exit.  Internal attribute, so guarded.
    try:
        for proc in list(getattr(pool, "_processes", {}).values()):
            proc.terminate()
    except Exception:  # pragma: no cover - cleanup must never raise
        pass


def _run_supervised(
    tasks: Sequence[_Task],
    jobs: int,
    policy: TaskPolicy,
    on_done=None,
) -> Tuple[Dict[str, Dict[str, float]], List[_Task], List[_Task]]:
    """Drive every task through the pool under per-task supervision.

    Returns ``(done, exhausted, leftover)``: completed rates by
    benchmark, tasks that failed every pool attempt (candidates for the
    caller's serial salvage), and tasks never attempted because the pool
    itself could not be (re)created (the caller runs those through the
    ordinary serial path, no attempts charged).
    """
    done: Dict[str, Dict[str, float]] = {}
    exhausted: List[_Task] = []
    queue = deque(tasks)
    inflight: Dict[object, Tuple[_Task, float]] = {}
    pool: Optional[ProcessPoolExecutor] = None
    max_workers = max(1, min(jobs, len(tasks)))

    def _note_failure(task: _Task, exc: BaseException, kind: str) -> None:
        task.attempts += 1
        task.last_error = exc
        task.last_tb = "".join(
            _tb.format_exception(type(exc), exc, exc.__traceback__)
        )
        health.emit(
            "parallel-pool",
            "worker-ok",
            kind,
            reason=f"{task.bench}: {type(exc).__name__}: {exc}",
            severity="degraded",
            attempt=task.attempts,
        )
        if task.attempts > policy.retries:
            exhausted.append(task)
        else:
            if policy.backoff:
                time.sleep(policy.backoff * (2 ** max(0, task.attempts - 1)))
            queue.append(task)

    try:
        while queue or inflight:
            if pool is None:
                try:
                    pool = ProcessPoolExecutor(max_workers=max_workers)
                except (OSError, ValueError, RuntimeError) as exc:
                    # Pool unavailable (restricted platform, spawn
                    # failure): hand everything still outstanding back
                    # for serial execution.
                    health.emit(
                        "parallel-pool",
                        "pool",
                        "serial",
                        reason=f"{type(exc).__name__}: {exc}",
                        severity="degraded",
                        cells=len(queue) + len(inflight),
                    )
                    leftover = [task for task, _ in inflight.values()]
                    leftover.extend(queue)
                    return done, exhausted, leftover
            try:
                while queue:
                    task = queue.popleft()
                    if task.kind == "materialize":
                        future = pool.submit(_worker_materialize, task.recipe)
                    elif task.kind == "detailed":
                        future = pool.submit(
                            _worker_detailed,
                            task.recipe,
                            tuple(task.missing),
                            task.opts,
                        )
                    else:
                        future = pool.submit(
                            _worker_evaluate, task.recipe, tuple(task.missing)
                        )
                    inflight[future] = (task, time.monotonic())
            except (BrokenProcessPool, RuntimeError) as exc:
                queue.appendleft(task)
                for fut, (pending_task, _) in list(inflight.items()):
                    _note_failure(pending_task, exc, "pool-broken")
                inflight.clear()
                _abandon_pool(pool)
                pool = None
                continue

            tick = 0.05 if policy.timeout is not None else None
            ready, _ = wait(
                list(inflight), timeout=tick, return_when=FIRST_COMPLETED
            )
            broken: Optional[BaseException] = None
            for future in ready:
                task, _started = inflight.pop(future)
                try:
                    _, rates = future.result()
                except BrokenProcessPool as exc:
                    broken = exc
                    _note_failure(task, exc, "pool-broken")
                except Exception as exc:
                    _note_failure(task, exc, "worker-raised")
                else:
                    if rates is not None:
                        done[task.bench] = rates
                    if on_done is not None:
                        on_done(task, rates)
            if broken is not None:
                # The pool is poisoned: every other in-flight task is
                # charged one attempt (we cannot attribute the crash)
                # and retried on a fresh pool.
                for future, (task, _) in list(inflight.items()):
                    _note_failure(task, broken, "pool-broken")
                inflight.clear()
                _abandon_pool(pool)
                pool = None
                continue
            if policy.timeout is not None and inflight:
                now = time.monotonic()
                expired = [
                    future
                    for future, (_, started) in inflight.items()
                    if now - started > policy.timeout
                ]
                if expired:
                    for future in expired:
                        task, _ = inflight.pop(future)
                        future.cancel()
                        _note_failure(
                            task,
                            TimeoutError(
                                f"task exceeded REPRO_TASK_TIMEOUT={policy.timeout}s"
                            ),
                            "task-timeout",
                        )
                    # Innocent in-flight neighbours go back untouched:
                    # their pool is being abandoned, not their work.
                    for future, (task, _) in list(inflight.items()):
                        future.cancel()
                        queue.append(task)
                    inflight.clear()
                    _abandon_pool(pool)
                    pool = None
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
    return done, exhausted, []


def _quarantine(task: _Task, exc: BaseException) -> FailedCell:
    cell = FailedCell(
        bench=task.bench,
        specs=tuple(task.missing),
        error_type=type(exc).__name__,
        message=str(exc),
        traceback="".join(_tb.format_exception(type(exc), exc, exc.__traceback__)),
        attempts=task.attempts,
    )
    health.emit(
        "sweep",
        "computed",
        "quarantined",
        reason=f"{cell.bench}: {cell.error_type}: {cell.message}",
        severity="error",
        cells=len(cell.specs),
        attempts=cell.attempts,
    )
    return cell


def materialize_parallel(
    names: Sequence[str],
    length=None,
    seed: int = 0,
    cache_dir=None,
    jobs: Optional[int] = None,
    policy: Optional[TaskPolicy] = None,
) -> None:
    """Materialize cold traces into the store over the worker pool.

    ``length`` is one length for every benchmark, a ``{name: length}``
    mapping, or ``None`` for each profile's default.  Each benchmark
    becomes one supervised materialize task (retries, pool reseeding,
    timeout — the full :class:`TaskPolicy` treatment).  Tasks that
    exhaust every retry are retried once serially in the parent; the
    store's single-flight lock guarantees that overlapping attempts
    generate each trace at most once between them.
    """
    from repro.workloads.profiles import get_profile
    from repro.workloads.suite import trace_store

    jobs = effective_jobs(jobs)
    if policy is None:
        policy = TaskPolicy.from_env()
    store_root = str(trace_store(cache_dir).root) if cache_dir is not None else None

    def _length(name: str) -> int:
        if isinstance(length, Mapping):
            return int(length[name])
        if length is not None:
            return int(length)
        return get_profile(name).default_length

    tasks = [
        _Task(
            name,
            TraceRecipe(
                name=name,
                length=_length(name),
                seed=seed,
                store_root=store_root,
            ),
            [],
            kind="materialize",
        )
        for name in names
    ]
    if not tasks:
        return
    if jobs <= 1:
        for task in tasks:
            _load_recipe(task.recipe)
        return
    _, exhausted, leftover = _run_supervised(tasks, jobs, policy)
    for task in exhausted + leftover:
        # Serial fallback in the parent; failures surface to the caller.
        _load_recipe(task.recipe)


def _is_recipe(value) -> bool:
    return isinstance(value, TraceRecipe)


def _resolve_trace(value) -> BranchTrace:
    """A real trace for serial evaluation (maps recipes via the store)."""
    return _load_recipe(value) if _is_recipe(value) else value


def evaluate_matrix_parallel(
    specs: Sequence[str],
    traces: Mapping[str, BranchTrace],
    cache=None,
    progress=None,
    jobs: Optional[int] = None,
    journal=None,
    policy: Optional[TaskPolicy] = None,
) -> SweepResult:
    """Parallel :func:`repro.sim.runner.evaluate_matrix`.

    Identical ``(spec, trace)`` cells are simulated exactly once: the
    matrix is planned per unique trace key — benchmarks sharing a trace
    (and repeated specs in the grid) collapse onto one set of cells,
    and every completed cell fans back out to each requesting benchmark
    key.  A trace's missing cells then ship as one supervised task per
    spec *family* (the fused planner's grouping, see
    :mod:`repro.sim.fused`) rather than per cell, while cache and
    journal entries stay per-cell — so resume, salvage, and quarantine
    granularity are unchanged.  Cells already recorded in ``cache`` or
    ``journal`` are never recomputed; each completed task is merged
    (matrix + cache + journal) as soon as it finishes, so a crash or
    interrupt loses at most the in-flight tasks.  Tasks that exhaust
    every retry and the final serial attempt are quarantined on
    ``SweepResult.failures`` — their cells are omitted from the matrix
    rather than poisoning it.

    ``traces`` values may be :class:`TraceRecipe` instead of loaded
    arrays: the sweep then fans cold-store materialization out into the
    pool as first-class supervised tasks ahead of the evaluate tasks,
    and workers map the published trace instead of regenerating it.
    """
    from repro.sim.fused import plan_families
    from repro.sim.runner import evaluate_specs, trace_key

    specs = list(specs)
    jobs = effective_jobs(jobs)
    if policy is None:
        policy = TaskPolicy.from_env()

    # Plan per unique trace key: which cells are not already
    # cached/journalled?  ``local`` holds trace keys (not benchmarks)
    # for the in-parent serial path.
    per_bench: Dict[str, Dict[str, float]] = {bench: {} for bench in traces}
    tasks: List[_Task] = []
    materialize: List[_Task] = []
    local: List[str] = []
    tkeys = {
        bench: value.tkey if _is_recipe(value) else trace_key(value)
        for bench, value in traces.items()
    }
    tkey_benches: Dict[str, List[str]] = {}
    tkey_value: Dict[str, object] = {}
    for bench, value in traces.items():
        tkey_benches.setdefault(tkeys[bench], []).append(bench)
        tkey_value.setdefault(tkeys[bench], value)

    for tkey, benches in tkey_benches.items():
        value = tkey_value[tkey]
        known: Dict[str, float] = {}
        missing: List[str] = []
        for spec in dict.fromkeys(specs):
            hit = cache.get(spec, tkey) if cache is not None else None
            if hit is None and journal is not None:
                hit = journal.lookup(tkey, spec)
                if hit is not None and cache is not None:
                    cache.put_many(tkey, {spec: hit})
            if hit is not None:
                known[spec] = hit
            else:
                missing.append(spec)
        for bench in benches:
            per_bench[bench].update(known)
        if not missing:
            continue
        rep = benches[0]
        recipe = value if _is_recipe(value) else recipe_of(value)
        if jobs > 1 and recipe is not None:
            if _is_recipe(value):
                store = _recipe_store(recipe)
                if store is None:
                    from repro.workloads.suite import trace_store

                    store = trace_store()
                if not store.has(recipe.name, recipe.length, recipe.seed):
                    materialize.append(_Task(rep, recipe, [], kind="materialize"))
            for family in plan_families(missing):
                tasks.append(_Task(rep, recipe, list(family.specs)))
        else:
            local.append(tkey)

    failures: List[FailedCell] = []

    def _merge(tkey: str, rates: Dict[str, float]) -> None:
        for bench in tkey_benches[tkey]:
            per_bench[bench].update(rates)
        if cache is not None:
            cache.put_many(tkey, rates)
        if journal is not None:
            journal.record_many(tkey, rates)

    def _on_done(task: _Task, rates) -> None:
        if rates is not None:
            _merge(tkeys[task.bench], rates)

    guard = journal.guard(cache) if journal is not None else _null()
    with guard:
        if tasks or materialize:
            # Materialize tasks go first so cold generation fans out
            # across the pool; an evaluate task reaching a still-cold
            # trace simply joins the store's single-flight wait.
            _, exhausted, leftover = _run_supervised(
                materialize + tasks,
                jobs,
                policy,
                on_done=_on_done,
            )
            local.extend(
                tkeys[task.bench] for task in leftover if task.kind == "evaluate"
            )
            # Final in-parent serial attempt, then quarantine.  A failed
            # materialize task is never quarantined: its bench's
            # evaluate task materializes on demand, so the sweep only
            # lost a head start.
            for task in exhausted:
                if task.kind == "materialize":
                    health.emit(
                        "trace-store",
                        "pool-materialize",
                        "deferred-to-evaluate",
                        reason=f"{task.bench}: {type(task.last_error).__name__}: "
                        f"{task.last_error}",
                        severity="degraded",
                    )
                    continue
                try:
                    rates = evaluate_specs(
                        task.missing, _resolve_trace(traces[task.bench]), cache=None
                    )
                except Exception as exc:
                    task.attempts += 1
                    failures.append(_quarantine(task, exc))
                else:
                    health.emit(
                        "parallel-pool",
                        "pool",
                        "serial-salvage",
                        reason=f"{task.bench} recovered after {task.attempts} failed attempts",
                        severity="degraded",
                        cells=len(task.missing),
                    )
                    _merge(tkeys[task.bench], rates)

        for tkey in dict.fromkeys(local):
            rep = tkey_benches[tkey][0]
            missing = [s for s in dict.fromkeys(specs) if s not in per_bench[rep]]
            if not missing:
                continue
            try:
                rates = evaluate_specs(
                    missing, _resolve_trace(tkey_value[tkey]), cache=None
                )
            except Exception as exc:
                value = tkey_value[tkey]
                task = _Task(
                    rep, value if _is_recipe(value) else recipe_of(value), missing
                )
                task.attempts = 1
                failures.append(_quarantine(task, exc))
            else:
                _merge(tkey, rates)

    if progress is not None:
        for bench in traces:
            for spec in specs:
                if spec in per_bench[bench]:
                    progress(spec, bench, per_bench[bench][spec])

    return SweepResult(
        {
            spec: {
                bench: per_bench[bench][spec]
                for bench in traces
                if spec in per_bench[bench]
            }
            for spec in specs
        },
        failures=failures,
    )


def detailed_matrix(
    specs: Sequence[str],
    traces: Mapping[str, BranchTrace],
    cache=None,
    progress=None,
    jobs: Optional[int] = None,
    journal=None,
    policy: Optional[TaskPolicy] = None,
    threshold: Optional[float] = None,
    include_bias_table: bool = False,
) -> SweepResult:
    """Parallel Section-4 analysis sweep: ``{spec: {bench: summary}}``.

    The detailed counterpart of :func:`evaluate_matrix_parallel`:
    every ``(spec, benchmark)`` cell runs a detailed (attribution)
    simulation and is reduced *in the worker* to the compact summary
    dict of :func:`repro.analysis.summary.summarize_detailed`.  The
    sweep ships one supervised task per ``(trace, spec family)`` — the
    fused planner's grouping, so cells of one scheme share a single
    detailed family pass (:func:`repro.sim.fused.family_detailed`)
    while staying much finer-grained than whole benchmarks; tasks get
    the full :class:`TaskPolicy` treatment — retries, pool reseeding
    after a killed worker, timeouts, serial salvage, and quarantine
    into ``SweepResult.failures``.

    ``journal`` must be a :class:`repro.sim.journal.PayloadJournal`
    (cell values are summary dicts): journalled cells are never
    recomputed, and because summaries round-trip through JSON exactly,
    a resumed sweep's aggregates are bit-identical to an uninterrupted
    run.  When a rate ``cache`` is passed, each computed summary's
    ``misprediction_rate`` is fed into it as a byproduct, so later rate
    sweeps over the same cells hit for free.

    ``traces`` values may be :class:`TraceRecipe`; cold traces then
    materialize across the pool first, exactly as in
    :func:`evaluate_matrix_parallel`.
    """
    from repro.analysis.bias import BIAS_THRESHOLD
    from repro.sim.runner import trace_key

    if threshold is None:
        threshold = BIAS_THRESHOLD
    opts = {
        "threshold": float(threshold),
        "include_bias_table": bool(include_bias_table),
    }
    specs = list(specs)
    jobs = effective_jobs(jobs)
    if policy is None:
        policy = TaskPolicy.from_env()

    per_bench: Dict[str, Dict[str, dict]] = {}
    tasks: List[_Task] = []
    materialize: List[_Task] = []
    local: List[str] = []
    tkeys = {
        bench: value.tkey if _is_recipe(value) else trace_key(value)
        for bench, value in traces.items()
    }
    for bench, value in traces.items():
        tkey = tkeys[bench]
        known: Dict[str, dict] = {}
        missing: List[str] = []
        for spec in specs:
            hit = journal.lookup(tkey, spec) if journal is not None else None
            if hit is not None:
                known[spec] = hit
            else:
                missing.append(spec)
        per_bench[bench] = known
        if not missing:
            continue
        recipe = value if _is_recipe(value) else recipe_of(value)
        if jobs > 1 and recipe is not None:
            if _is_recipe(value):
                store = _recipe_store(recipe)
                if store is None:
                    from repro.workloads.suite import trace_store

                    store = trace_store()
                if not store.has(recipe.name, recipe.length, recipe.seed):
                    materialize.append(_Task(bench, recipe, [], kind="materialize"))
            # One task per (trace, family): specs of one scheme share a
            # detailed family pass (and the trace's PC codes), while the
            # journal keeps its per-cell resume granularity.
            from repro.sim.fused import plan_families

            for family in plan_families(missing):
                tasks.append(
                    _Task(
                        bench,
                        recipe,
                        list(family.specs),
                        kind="detailed",
                        opts=opts,
                    )
                )
        else:
            local.append(bench)

    failures: List[FailedCell] = []

    def _merge(bench: str, summaries: Dict[str, dict]) -> None:
        per_bench[bench].update(summaries)
        if journal is not None:
            journal.record_many(tkeys[bench], summaries)
        if cache is not None:
            cache.put_many(
                tkeys[bench],
                {
                    spec: summary["misprediction_rate"]
                    for spec, summary in summaries.items()
                },
            )

    def _on_done(task: _Task, summaries) -> None:
        if summaries is not None:
            _merge(task.bench, summaries)

    guard = journal.guard(cache) if journal is not None else _null()
    with guard:
        if tasks or materialize:
            _, exhausted, leftover = _run_supervised(
                materialize + tasks,
                jobs,
                policy,
                on_done=_on_done,
            )
            local.extend(
                task.bench for task in leftover if task.kind == "detailed"
            )
            for task in exhausted:
                if task.kind == "materialize":
                    health.emit(
                        "trace-store",
                        "pool-materialize",
                        "deferred-to-evaluate",
                        reason=f"{task.bench}: {type(task.last_error).__name__}: "
                        f"{task.last_error}",
                        severity="degraded",
                    )
                    continue
                try:
                    summaries = _detailed_cells(
                        task.missing, _resolve_trace(traces[task.bench]), opts
                    )
                except Exception as exc:
                    task.attempts += 1
                    failures.append(_quarantine(task, exc))
                else:
                    health.emit(
                        "parallel-pool",
                        "pool",
                        "serial-salvage",
                        reason=f"{task.bench} recovered after {task.attempts} failed attempts",
                        severity="degraded",
                        cells=len(task.missing),
                    )
                    _merge(task.bench, summaries)

        for bench in dict.fromkeys(local):
            missing = [s for s in specs if s not in per_bench[bench]]
            if not missing:
                continue
            try:
                summaries = _detailed_cells(
                    missing, _resolve_trace(traces[bench]), opts
                )
            except Exception as exc:
                value = traces[bench]
                task = _Task(
                    bench,
                    value if _is_recipe(value) else recipe_of(value),
                    missing,
                    kind="detailed",
                    opts=opts,
                )
                task.attempts = 1
                failures.append(_quarantine(task, exc))
            else:
                _merge(bench, summaries)

    if progress is not None:
        for bench in traces:
            for spec in specs:
                if spec in per_bench[bench]:
                    progress(spec, bench, per_bench[bench][spec])

    return SweepResult(
        {
            spec: {
                bench: per_bench[bench][spec]
                for bench in traces
                if spec in per_bench[bench]
            }
            for spec in specs
        },
        failures=failures,
    )


@contextmanager
def _null():
    yield None
