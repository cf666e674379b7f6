"""The sweep driver: one plan/supervise/merge loop for every matrix.

Every figure of the paper is a (spec x benchmark) matrix: the rates of
Figures 2-4 (:func:`repro.sim.runner.evaluate_matrix`) and the Section-4
summaries of Figures 5-8 and Table 4 (:func:`detailed_matrix`).  Both
run through one private driver, ``_sweep_matrix``, and differ only in
what they hand it: how a batch of cells is computed on one trace, how
already-known cells are looked up, and what a finished batch writes.

The driver plans per unique trace key — benchmarks sharing a trace,
and repeated specs, collapse onto one set of cells — and takes cached
or journalled cells (see :class:`repro.sim.journal.SweepJournal`) as
they are.  With ``jobs`` of 1 (``$REPRO_JOBS`` unset) every missing
cell of a trace is computed in the parent in one batch.  Otherwise each
trace's missing cells ship to a ``ProcessPoolExecutor`` as one work
item per spec *family* (the fused planner's grouping, see
:mod:`repro.sim.fused`).  Work items carry a :class:`TraceRecipe` —
``(name, length, seed)`` plus an optional trace store root — rather
than the trace arrays: workers map the published trace out of the
zero-copy store (:class:`repro.traces.store.TraceStore`, shared OS
page cache across the pool) instead of paying multi-megabyte pickles
or a regeneration per task.  Cold recipe traces materialize across the
pool first, as supervised tasks of their own (also
:func:`materialize_parallel`).  Traces without a recipe are computed in
the parent.

Every pool task is individually supervised (:class:`TaskPolicy`):

* a configurable per-task timeout (``$REPRO_TASK_TIMEOUT`` seconds) —
  an expired task's pool is abandoned and reseeded so stragglers cannot
  wedge the sweep;
* bounded retries with exponential backoff (``$REPRO_TASK_RETRIES``,
  ``$REPRO_TASK_BACKOFF``), including a reseeded pool after a
  ``BrokenProcessPool`` (a worker killed mid-task);
* completed results are always salvaged — one crashed worker never
  discards, or recomputes, a benchmark whose worker already finished;
* a task that exhausts its retries gets one final in-parent attempt.

One failure policy holds for every ``jobs`` value: a task that still
raises is quarantined into a structured :class:`FailedCell` (exception
type, message, traceback, attempt count) on the returned
:class:`SweepResult`, and its cells are left out of the matrix rather
than poisoning it.  Callers that average over benchmarks must check
``failures``.

Workers never touch the result cache or the journal.  The parent merges
each finished batch *as it lands* — into the matrix, the cache and the
journal, one write per trace key and batch — so a crash or interrupt
loses at most the work in flight, and the final matrix is assembled in
input order, whatever the completion order.  Inside a worker the cells
route exactly as in the parent, so pooled and in-parent sweeps produce
byte-identical tables.  Degradations (pool unavailable -> in-parent,
worker retries, quarantined cells) are reported through
:mod:`repro.health`.

Section-4 cells are reduced where they run to the compact summary dict
of :func:`repro.analysis.summary.summarize_detailed` (kilobytes over
the pipe, never the per-branch arrays) and persist to a
:class:`repro.sim.journal.PayloadJournal` for crash-safe resume with
bit-identical aggregates.
"""

from __future__ import annotations

import os
import time
import traceback as _tb
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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

    def __str__(self) -> str:
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

    def complete(self) -> "SweepResult":
        """This result, or a ``RuntimeError`` naming the failed cells:
        for callers that average over the benchmarks, which a partial
        suite would silently skew."""
        if self.failures:
            raise RuntimeError(
                "sweep cells failed: " + "; ".join(str(cell) for cell in self.failures)
            )
        return self


class _Task:
    """One supervised work item: compute ``specs`` on a benchmark's
    trace, or — with no ``compute`` — materialize the trace into the
    store."""

    __slots__ = (
        "bench",
        "recipe",
        "specs",
        "compute",
        "attempts",
        "last_error",
        "last_tb",
    )

    def __init__(
        self,
        bench: str,
        recipe: Optional[TraceRecipe],
        specs: Sequence[str],
        compute: Optional[Callable] = None,
    ):
        self.bench = bench
        self.recipe = recipe
        self.specs = list(specs)
        self.compute = compute
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


def _worker(recipe: TraceRecipe, specs: Tuple[str, ...], compute: Optional[Callable]):
    """A task, worker side: map (or materialize) the recipe's trace and
    return ``compute(specs, trace)``.

    A materialize task (no ``compute``) returns ``None``: its value is
    the published trace.  The store's single-flight lock makes
    overlapping materializers (a retried task, or a compute task racing
    ahead) generate at most once between them.
    """
    fault_point("worker", bench=recipe.name)
    trace = _load_recipe(recipe)
    return None if compute is None else compute(specs, trace)


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
) -> Tuple[List[_Task], List[_Task]]:
    """Drive every task through the pool under per-task supervision.

    ``on_done(task, values)`` receives each compute task's result as it
    completes.  Returns ``(exhausted, leftover)``: tasks that failed
    every pool attempt (candidates for the caller's in-parent salvage),
    and tasks never attempted because the pool itself could not be
    (re)created (the caller runs those in the parent, no attempts
    charged).
    """
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
                    return exhausted, leftover
            try:
                while queue:
                    task = queue.popleft()
                    future = pool.submit(
                        _worker, task.recipe, tuple(task.specs), task.compute
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
                    values = future.result()
                except BrokenProcessPool as exc:
                    broken = exc
                    _note_failure(task, exc, "pool-broken")
                except Exception as exc:
                    _note_failure(task, exc, "worker-raised")
                else:
                    if on_done is not None and task.compute is not None:
                        on_done(task, values)
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
    return exhausted, []


def _quarantine(task: _Task, exc: BaseException) -> FailedCell:
    cell = FailedCell(
        bench=task.bench,
        specs=tuple(task.specs),
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
        )
        for name in names
    ]
    if not tasks:
        return
    if jobs <= 1:
        for task in tasks:
            _load_recipe(task.recipe)
        return
    exhausted, leftover = _run_supervised(tasks, jobs, policy)
    for task in exhausted + leftover:
        # Serial fallback in the parent; failures surface to the caller.
        _load_recipe(task.recipe)


def _is_recipe(value) -> bool:
    return isinstance(value, TraceRecipe)


def _resolve_trace(value) -> BranchTrace:
    """A real trace for in-parent evaluation (maps recipes via the store)."""
    return _load_recipe(value) if _is_recipe(value) else value


def _guarded(journal, cache):
    """The signal guard of a journalled sweep (see
    :meth:`repro.sim.journal.SweepJournal.guard`), a no-op without one."""
    return journal.guard(cache) if journal is not None else nullcontext()


def _sweep_matrix(
    specs: Sequence[str],
    traces: Mapping[str, object],
    compute: Callable[[Sequence[str], BranchTrace], Dict[str, object]],
    lookup: Callable[[str, List[str]], Dict[str, object]],
    merge: Callable[[str, Dict[str, object]], None],
    progress=None,
    jobs: Optional[int] = None,
    policy: Optional[TaskPolicy] = None,
) -> SweepResult:
    """The one matrix sweep loop: ``result[spec][bench]``.

    The matrix is planned per unique trace key: benchmarks sharing a
    trace, and repeated specs, collapse onto one set of cells, and each
    cell that lands fans out to every benchmark of its key.
    ``lookup(tkey, specs)`` returns the cells already known (cache or
    journal hits).  The rest are computed by ``compute(specs, trace)``:
    in the parent when ``jobs`` is 1 or the trace has no recipe,
    otherwise as one supervised pool task per (trace, spec family) of
    the fused planner, after cold recipe traces have been materialized
    across the pool.  A computed batch goes through ``merge(tkey,
    values)``, the sweep's durable writes, as soon as it lands, so a
    crash or interrupt loses at most the work in flight.
    ``progress(spec, bench, value)`` fires once per returned cell.

    A task that raises in the parent, or in the pool on every retry and
    then once more in the parent, is quarantined on
    ``SweepResult.failures``, and its cells are left out of the matrix.
    A spec its constructor refuses is never planned: each trace key
    quarantines that one cell with the constructor's error, and the
    other specs of the key still run.
    """
    from repro.sim.fused import plan_families
    from repro.sim.kernels import spec_refusal
    from repro.sim.runner import trace_key
    from repro.workloads.suite import trace_store

    specs = list(dict.fromkeys(specs))
    jobs = effective_jobs(jobs)
    if policy is None:
        policy = TaskPolicy.from_env()
    tkey_of = {bench: trace_key(value) for bench, value in traces.items()}
    benches_of: Dict[str, List[str]] = {}
    for bench, tkey in tkey_of.items():
        benches_of.setdefault(tkey, []).append(bench)
    per_bench: Dict[str, Dict[str, object]] = {bench: {} for bench in traces}
    failures: List[FailedCell] = []
    refused = {spec: exc for spec in specs if (exc := spec_refusal(spec)) is not None}
    wanted = [spec for spec in specs if spec not in refused]

    def land(tkey: str, values: Dict[str, object]) -> None:
        for bench in benches_of[tkey]:
            per_bench[bench].update(values)
            if progress is not None:
                for spec, value in values.items():
                    progress(spec, bench, value)

    def on_done(task: _Task, values: Dict[str, object]) -> None:
        merge(tkey_of[task.bench], values)
        land(tkey_of[task.bench], values)

    def in_parent(task: _Task) -> bool:
        try:
            values = compute(task.specs, _resolve_trace(traces[task.bench]))
        except Exception as exc:
            task.attempts += 1
            failures.append(_quarantine(task, exc))
            return False
        on_done(task, values)
        return True

    materialize: List[_Task] = []
    pooled: List[_Task] = []
    local: List[_Task] = []
    for tkey, benches in benches_of.items():
        rep = benches[0]
        for spec, exc in refused.items():
            task = _Task(rep, None, [spec])
            task.attempts = 1
            failures.append(_quarantine(task, exc))
        known = lookup(tkey, wanted)
        land(tkey, known)
        missing = [spec for spec in wanted if spec not in known]
        if not missing:
            continue
        value = traces[rep]
        recipe = value if _is_recipe(value) else recipe_of(value)
        if jobs <= 1 or recipe is None:
            local.append(_Task(rep, recipe, missing, compute))
            continue
        if _is_recipe(value):
            store = _recipe_store(recipe) or trace_store()
            if not store.has(recipe.name, recipe.length, recipe.seed):
                materialize.append(_Task(rep, recipe, []))
        pooled.extend(
            _Task(rep, recipe, family.specs, compute)
            for family in plan_families(missing)
        )

    if pooled:
        # Materialize tasks go first so cold generation fans out across
        # the pool; a compute task reaching a still-cold trace simply
        # joins the store's single-flight wait.
        exhausted, leftover = _run_supervised(
            materialize + pooled, jobs, policy, on_done=on_done
        )
        for task in exhausted:
            if task.compute is None:
                # Never quarantined: the trace's compute task
                # materializes on demand, so the sweep only lost a head
                # start.
                health.emit(
                    "trace-store",
                    "pool-materialize",
                    "deferred-to-evaluate",
                    reason=f"{task.bench}: {type(task.last_error).__name__}: "
                    f"{task.last_error}",
                    severity="degraded",
                )
            elif in_parent(task):
                health.emit(
                    "parallel-pool",
                    "pool",
                    "serial-salvage",
                    reason=f"{task.bench} recovered after {task.attempts} failed attempts",
                    severity="degraded",
                    cells=len(task.specs),
                )
        local = [task for task in leftover if task.compute is not None] + local
    for task in local:
        in_parent(task)

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
    """Section-4 analysis sweep: ``{spec: {bench: summary}}``.

    The detailed counterpart of :func:`repro.sim.runner.evaluate_matrix`,
    run by the same sweep loop: every ``(spec, benchmark)`` cell runs a
    detailed (attribution) simulation and is reduced where it runs — in
    the parent or in a pool worker — to the compact summary dict of
    :func:`repro.analysis.summary.summarize_detailed`.  Cells of one
    scheme share a single detailed family pass
    (:func:`repro.sim.fused.family_detailed`).

    ``journal`` must be a :class:`repro.sim.journal.PayloadJournal`
    (cell values are summary dicts): journalled cells are never
    recomputed, and because summaries round-trip through JSON exactly,
    a resumed sweep's aggregates are bit-identical to an uninterrupted
    run.  When a rate ``cache`` is passed, each computed summary's
    ``misprediction_rate`` is fed into it as a byproduct, so later rate
    sweeps over the same cells hit for free.
    """
    from repro.analysis.bias import BIAS_THRESHOLD

    opts = {
        "threshold": float(BIAS_THRESHOLD if threshold is None else threshold),
        "include_bias_table": bool(include_bias_table),
    }

    def lookup(tkey: str, wanted: List[str]) -> Dict[str, dict]:
        done = journal.completed(tkey) if journal is not None else {}
        return {spec: done[spec] for spec in wanted if spec in done}

    def merge(tkey: str, summaries: Dict[str, dict]) -> None:
        if journal is not None:
            journal.record_many(tkey, summaries)
        if cache is not None:
            rates = {s: cell["misprediction_rate"] for s, cell in summaries.items()}
            cache.put_many(tkey, rates)

    with _guarded(journal, cache):
        return _sweep_matrix(
            specs,
            traces,
            partial(_detailed_cells, opts=opts),
            lookup,
            merge,
            progress,
            jobs,
            policy,
        )
