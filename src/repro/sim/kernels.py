"""Scheme-agnostic kernel registry: spec -> fastest bit-exact engine.

Every registered scheme is one :class:`KernelEntry` in :data:`PORTED`,
and kernel dispatch is a lookup:

``kernel_for_spec(spec)`` builds the spec's predictor with
:func:`repro.core.registry.make_predictor` — the one reading of a spec,
its defaults and its range checks — and :func:`lane_of` reads a *kernel
kind* plus a lane description off that predictor.  Kinds are:

* one kind per registered scheme — gshare, bi-mode, bimodal, the
  two-level family (gag/gas/gap/gselect/pag/pas/pap), agree, gskew,
  tournament, tri-mode, YAGS, perceptron, the bias filter (over its
  gshare/bimodal sub-predictors) and the three static schemes —
  executed by the lane kernels of :mod:`repro.sim.batch`,
  :mod:`repro.sim.batch_bimode` and :mod:`repro.sim.lanes`;
* ``"scalar"`` — any spec the constructor refuses (its run raises
  the constructor's error) or whose valid configuration no kernel
  runs (a knob past a C integer width, a bias-filter sub-predictor
  or tournament pairing without a kernel lane, a custom btfnt
  classifier), run per-cell through the scalar engine.
  :data:`SCALAR_ONLY` is empty: every registered scheme has a batch
  kernel, and the meta-test asserting the set stays empty keeps it
  that way.

``family_rates(kind, specs, lanes, trace)`` and ``family_detailed``
evaluate one family and report every dispatch decision through
:mod:`repro.health` (component ``"<kind>-kernel"``).
``engine.run_detailed`` shares this dispatch: it reads the lane off
the live predictor with :func:`lane_of` and calls
:func:`family_detailed`.

Dispatch
--------
The engine is a function of the scheme's tier and of whether this
process has a compiler (``REPRO_NO_CC=1`` vetoes it), for rates and
Section-4 attribution alike; no environment variable pins it.

* ``"lane"`` — gshare: compiled loops, or without a compiler its
  closed-form counter-major numpy rates and, for Section-4
  attribution, the scalar ``simulate_detailed`` reference;
* ``"cloop"`` — compiled loop, or the scalar ``step()`` reference
  without a compiler: bi-mode, bimodal, the two-level family and the
  comparators agree, gskew, tournament, tri-mode, YAGS, perceptron and
  the bias filter;
* ``"vectorized"`` — the statics' one vectorized form, whatever the
  process;
* ``"scalar"`` — the :data:`SCALAR_ONLY` allowlist, empty, and the
  ``"scalar"`` family kind: each cell's ``step()`` reference.

:func:`default_engine` is the one place the engine is chosen; the
dispatch and ``repro-bimode kernels`` read it.  Running anything but
the compiled loop is a health-reported degradation.  Without a
compiler every family runs its scalar reference except the forms the
``no-cc`` benchmark workload measures: gshare's numpy rates and
bi-mode's hand-tuned ``simulate()``.  No caller pins an engine: the
differential layer and the tests replay the dispatch as a process runs
it and under :func:`repro.faults.deny_compiler`.

Every entry has one per-lane kernel, ``detailed(lane, trace,
hist_cache) -> (predictions, counter_ids)``, which takes no engine:
every one but the statics' is a compiled loop and raises without a
compiler.  Rates count the misses of its predictions unless a faster
hook applies.  A ``family`` hook is what the compiled engine uses for
rates: gshare and bi-mode advance every lane of a family in one fused
C loop, and the seven compiled comparators run each lane's C loop over
the raw trace with no per-branch buffer, counting misses in-loop.
Gshare's ``rates`` hook, the numpy engine's rate path, counts a lane's
misses in closed form from its counter runs, whose start states a scan
of packed 4-state counter maps resolves.  A ``substreams`` hook — a
compiled per-lane loop that groups accesses into Section-4 substreams
as it runs (gshare, bi-mode) — is what detailed sweeps use in place of
per-access attribution.

The verification suite (``tests/test_kernels.py``) is generated from
this mapping, so a scheme that registers in ``core/registry.py``
without declaring a tier here — or without oracle and golden coverage —
fails CI by construction.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.interfaces import (
    BranchPredictor,
    DetailedSimulation,
    SimulationResult,
    SubstreamGrouping,
)
from repro.sim import _cstep
from repro.sim import batch as _gshare
from repro.sim import batch_bimode as _bimode
from repro.sim import lanes as _lanes
from repro.traces.record import BranchTrace

__all__ = [
    "SCALAR_ONLY",
    "BIASFILTER_SUBS",
    "KernelEntry",
    "default_engine",
    "kernel_for_spec",
    "spec_refusal",
    "lane_of",
    "registered_schemes",
    "family_order",
    "family_rates",
    "family_detailed",
]

#: Schemes deliberately left on the scalar engine: empty since the
#: second wave (perceptron + bias filter compiled loops, static
#: one-shot lanes).  A meta-test asserts it stays empty, so a future
#: scheme cannot quietly register without a batch kernel.
SCALAR_ONLY = frozenset()

#: Sub-predictor schemes the bias-filter kernel executes in-lane; a
#: ``biasfilter:...,sub=<other>`` spec runs scalar with an explicit
#: kernel veto (:func:`_scalar_reason`).
BIASFILTER_SUBS = _lanes.BIASFILTER_SUBS


@dataclass(frozen=True)
class KernelEntry:
    """One registered scheme: how to read its lanes and run them."""

    scheme: str
    #: "lane" (c, numpy rates) | "cloop" (c, scalar fallback) |
    #: "vectorized" (one form on every engine); :func:`default_engine`
    tier: str
    #: ``predictor -> lane``, or a veto string naming why the kernel
    #: cannot run that (valid) configuration; the constructor already
    #: checked the rest.
    lane_of: Callable[[BranchPredictor], object]
    #: The one per-lane kernel: ``(lane, trace, hist_cache) ->
    #: (predictions, counter_ids)``, bit-identical to the predictor's
    #: step-driven ``simulate_detailed`` loop.  It serves Section-4
    #: attribution, and rates wherever no faster hook below applies;
    #: compiled only, except the statics' vectorized one-shot.
    detailed: Callable[..., Tuple[np.ndarray, np.ndarray]]
    #: Optional direct rate computation ``(lane, trace, hist_cache) ->
    #: float`` for schemes whose misprediction count reduces without
    #: materializing predictions (gshare's scan of packed counter maps);
    #: the numpy engine's rate path, which every ``lane``-tier entry has.
    rates: Optional[Callable[..., float]] = None
    #: Optional compiled ``(lanes, trace) -> rates`` computing every
    #: lane's rate without a per-branch stream (a fused family loop, or
    #: one in-loop-counting loop per lane); the compiled engine's rate
    #: path when present.
    family: Optional[Callable[[Sequence[object], BranchTrace], List[float]]] = None
    #: Optional compiled Section-4 loop ``(lane, trace, pc_codes) ->
    #: SubstreamGrouping`` grouping accesses into substreams as it runs;
    #: the compiled engine's sweep path when present.
    substreams: Optional[Callable[..., SubstreamGrouping]] = None


_TWOLEVEL = {
    scheme: KernelEntry(
        scheme=scheme,
        tier="cloop",
        lane_of=_lanes.twolevel_lane_of,
        detailed=_lanes.twolevel_detailed,
    )
    for scheme in ("gag", "gas", "gap", "gselect", "pag", "pas", "pap")
}

#: Every registered scheme's kernels, in planner/display order.
PORTED: Dict[str, KernelEntry] = {
    "gshare": KernelEntry(
        "gshare",
        "lane",
        _gshare.gshare_lane_of,
        _gshare.gshare_detailed,
        rates=_gshare.gshare_rate,
        family=_gshare.gshare_family_rates,
        substreams=_gshare.gshare_substreams,
    ),
    "bimode": KernelEntry(
        "bimode",
        "cloop",
        _bimode.bimode_lane_of,
        _bimode.bimode_detailed,
        family=_bimode.bimode_family_rates,
        substreams=_bimode.bimode_substreams,
    ),
    "bimodal": KernelEntry(
        "bimodal", "cloop", _lanes.bimodal_lane_of, _lanes.bimodal_detailed
    ),
    **_TWOLEVEL,
    "agree": KernelEntry(
        "agree",
        "cloop",
        _lanes.agree_lane_of,
        _lanes.agree_detailed,
        family=_lanes.agree_family_rates,
    ),
    "gskew": KernelEntry(
        "gskew",
        "cloop",
        _lanes.gskew_lane_of,
        _lanes.gskew_detailed,
        family=_lanes.gskew_family_rates,
    ),
    "tournament": KernelEntry(
        "tournament",
        "cloop",
        _lanes.tournament_lane_of,
        _lanes.tournament_detailed,
        family=_lanes.tournament_family_rates,
    ),
    "trimode": KernelEntry(
        "trimode",
        "cloop",
        _lanes.trimode_lane_of,
        _lanes.trimode_detailed,
        family=_lanes.trimode_family_rates,
    ),
    "yags": KernelEntry(
        "yags",
        "cloop",
        _lanes.yags_lane_of,
        _lanes.yags_detailed,
        family=_lanes.yags_family_rates,
    ),
    # -- second wave: the former SCALAR_ONLY tier -------------------------------
    "perceptron": KernelEntry(
        "perceptron",
        "cloop",
        _lanes.perceptron_lane_of,
        _lanes.perceptron_detailed,
        family=_lanes.perceptron_family_rates,
    ),
    "biasfilter": KernelEntry(
        "biasfilter",
        "cloop",
        _lanes.biasfilter_lane_of,
        _lanes.biasfilter_detailed,
        family=_lanes.biasfilter_family_rates,
    ),
    **{
        scheme: KernelEntry(
            scheme=scheme,
            tier="vectorized",
            lane_of=_lanes.static_lane_of,
            detailed=_lanes.static_detailed,
        )
        for scheme in ("always-taken", "always-not-taken", "btfnt")
    },
}


def family_order() -> Tuple[str, ...]:
    """Every family kind, in planner order (scalar last)."""
    return (*PORTED, "scalar")


def _read_lane(predictor: BranchPredictor) -> Tuple[str, Optional[object], Optional[str]]:
    """``(kind, lane, veto)`` of a built predictor: ``("scalar", None,
    reason)`` when its scheme is ported but the kernel cannot run this
    configuration, ``("scalar", None, None)`` when the scheme is not
    ported at all."""
    entry = PORTED.get(predictor.scheme)
    if entry is None:
        return "scalar", None, None
    lane = entry.lane_of(predictor)
    if isinstance(lane, str):
        return "scalar", None, lane
    return entry.scheme, lane, None


def lane_of(predictor: BranchPredictor) -> Tuple[str, Optional[object]]:
    """``(kind, lane)`` of a built predictor; ``("scalar", None)`` when
    no lane kernel runs its configuration."""
    return _read_lane(predictor)[:2]


@lru_cache(maxsize=None)
def _resolve(spec: str):
    """``((kind, lane), refusal, veto)`` of a spec: the lane read off the
    predictor ``make_predictor`` builds, or ``("scalar", None)`` and the
    constructor's ``ValueError`` when it refuses the spec.  ``veto`` is
    the reason a ported scheme's kernel cannot run the configuration
    (:func:`_scalar_reason`), else ``None``."""
    from repro.core.registry import make_predictor

    try:
        predictor = make_predictor(spec)
    except ValueError as exc:
        return ("scalar", None), exc.with_traceback(None), None
    kind, lane, veto = _read_lane(predictor)
    return (kind, lane), None, veto


def kernel_for_spec(spec: str) -> Tuple[str, Optional[object]]:
    """Resolve a spec to ``(kind, lane)``; ``("scalar", None)`` when no
    lane kernel covers it.

    The spec is read once, by :func:`repro.core.registry.make_predictor`,
    and the lane off the predictor it builds.  A spec the constructor
    refuses falls to scalar, whose run raises the constructor's error.
    Resolution is structural only: the engine that runs a family is
    picked later, by :func:`family_rates` / :func:`family_detailed`.
    Memoized: the answer is a pure function of the string, and lanes
    are frozen.
    """
    return _resolve(spec)[0]


def spec_refusal(spec: str) -> Optional[ValueError]:
    """The constructor's error for a spec it refuses, else ``None``
    (memoized with :func:`kernel_for_spec`)."""
    return _resolve(spec)[1]


def registered_schemes() -> Dict[str, str]:
    """Scheme name -> declared kernel tier, for every scheme this
    registry covers.

    The completeness meta-test asserts this spans
    :func:`repro.core.registry.available_schemes`; a newly registered
    scheme missing here fails that test by name.
    """
    tiers = {scheme: entry.tier for scheme, entry in PORTED.items()}
    for scheme in sorted(SCALAR_ONLY):
        tiers[scheme] = "scalar"
    return tiers


# -- family evaluation --------------------------------------------------------------


def default_engine(tier: str) -> str:
    """The engine a family of ``tier`` runs on in this process: the
    ``vectorized`` and ``scalar`` tiers' one form; otherwise ``c`` when
    a compiler is available, else the ``lane`` tier's numpy rates (its
    Section-4 attribution runs the scalar reference) or the ``cloop``
    tier's scalar ``step()`` reference."""
    if tier in ("vectorized", "scalar"):
        return tier
    if _cstep.available():
        return "c"
    return "numpy" if tier == "lane" else "scalar"


def _scalar_reason(cells: Sequence[Union[str, BranchPredictor]]) -> str:
    """Why the scalar family runs scalar: the schemes the registry has
    never heard of ("unfusable"), the ported schemes whose kernel
    vetoes a configuration (a C integer width, a bias-filter
    sub-predictor without a lane, and on a built predictor only an
    unpaired tournament or a custom BTFNT classifier) and the specs
    their constructor refuses.  Each veto is health-reported by name
    under ``<scheme>-kernel``, read off the spec's predictor
    (:func:`_resolve`) or the built one (:func:`_read_lane`)."""
    from repro import health

    groups: Dict[str, set] = {}
    for cell in cells:
        if isinstance(cell, str):
            scheme, veto = cell.split(":", 1)[0], _resolve(cell)[2]
        else:
            scheme, veto = cell.scheme, _read_lane(cell)[2]
        if scheme not in PORTED:
            label = "unfusable scheme(s)"
        elif veto is not None:
            health.engine_used(f"{scheme}-kernel", "scalar", expected="c", reason=veto)
            label = "kernel veto"
        else:
            label = "refused spec(s)"
        groups.setdefault(label, set()).add(scheme)
    return "; ".join(f"{label}: {', '.join(sorted(s))}" for label, s in groups.items())


def _dispatch(
    kind: str,
    cells: Sequence[object],
    lanes: Sequence[object],
    attribution: bool = False,
) -> Tuple[Optional[KernelEntry], str, str]:
    """Resolve one family's engine by :func:`default_engine`; return
    ``(entry, engine, reason)``, where ``reason`` says why the engine is
    not the compiled loop.  The ``lane`` tier's numpy form rates only,
    so its Section-4 ``attribution`` runs the scalar reference there.

    The scalar family has no entry, and its reason is
    :func:`_scalar_reason`.  Any other family is health-reported under
    ``"<kind>-kernel"``: the expected engine is the compiled loop, so
    running anything slower surfaces as a degradation with the
    compiler's absence (or the scheme's missing numpy form) as the
    reason; the statics' one vectorized form is what they expect.
    """
    from repro import health

    if len(cells) != len(lanes):
        raise ValueError("specs and lanes must be parallel")
    if kind == "scalar":
        return None, "scalar", _scalar_reason(cells)
    entry = PORTED[kind]
    engine = default_engine(entry.tier)
    reason = ""
    if engine == "numpy" and attribution:
        engine = "scalar"
        reason = f"no numpy attribution kernel for {entry.scheme} (compiled loop only)"
    elif engine == "scalar":
        reason = f"no numpy kernel for {entry.scheme} (compiled loop only)"
    elif engine == "numpy":
        reason = _cstep.unavailable_reason() or ""
    health.engine_used(
        f"{kind}-kernel",
        engine,
        expected="vectorized" if engine == "vectorized" else "c",
        cells=len(cells),
        reason=reason,
    )
    return entry, engine, reason


def _power_on(cell: Union[str, BranchPredictor]) -> BranchPredictor:
    """A power-on predictor for one cell: built from its spec (a spec
    the constructor refuses raises its error here), or a reset copy of a
    caller's predictor, whose own state is left as it was."""
    from repro.core.registry import make_predictor

    if isinstance(cell, str):
        return make_predictor(cell)
    twin = copy.deepcopy(cell)
    twin.reset()
    return twin


def family_detailed(
    kind: str,
    cells: Sequence[Union[str, BranchPredictor]],
    lanes: Sequence[object],
    trace: BranchTrace,
    pc_codes: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> list:
    """Section-4 attribution of every lane of one family.

    Each cell is a spec string or, from
    :func:`repro.sim.engine.run_detailed`, a built predictor; the row
    carries the spec or the predictor's display name.  Returns one
    :class:`~repro.core.interfaces.DetailedSimulation` per
    lane, bit-for-bit what the scalar ``simulate_detailed`` loop would
    emit from power-on state.  Given the trace's ``pc_codes``
    (:func:`repro.analysis.bias.pc_code_stream`), a lane whose entry has
    a ``substreams`` loop and runs compiled returns the
    :class:`~repro.core.interfaces.SubstreamGrouping` that loop emits
    instead (no per-access array but the int32 stream ids); the
    Section-4 analysis reads either.
    The engine follows the dispatch of :func:`family_rates`, except
    that the ``lane`` tier's numpy form rates only, so without a
    compiler gshare's attribution runs scalar; the engine that ran is
    health-reported under ``"<kind>-kernel"``, and whether the lanes
    ran batched or on the scalar loop under ``"detailed-kernel"``.
    The scalar engine runs each cell's ``simulate_detailed`` on a
    power-on predictor, so a caller's predictor is never mutated.
    Each lane runs its own pass and the family returns every lane's row
    at once; in a sweep a gshare or bi-mode row holds 4 bytes per
    branch (its stream ids) plus one record per substream, not
    per-access predictions and counter ids.
    """
    from repro import health

    entry, engine, reason = _dispatch(kind, cells, lanes, attribution=True)
    scalar = engine == "scalar"
    health.engine_used(
        "detailed-kernel",
        "scalar" if scalar else "batch",
        expected="batch",
        cells=len(cells),
        reason=reason,
    )
    out: list = []
    for cell, lane in zip(cells, lanes):
        if scalar:
            out.append(_power_on(cell).simulate_detailed(trace))
        elif engine == "c" and pc_codes is not None and entry.substreams is not None:
            out.append(entry.substreams(lane, trace, pc_codes))
        else:
            preds, cids = entry.detailed(lane, trace, None)
            out.append(
                DetailedSimulation(
                    result=SimulationResult(
                        predictor_name=cell if isinstance(cell, str) else cell.name,
                        trace_name=trace.name,
                        predictions=preds,
                        outcomes=trace.outcomes,
                    ),
                    counter_ids=cids,
                    num_counters=_lanes.detailed_num_counters(lane),
                    pcs=trace.pcs,
                )
            )
    return out


def family_rates(
    kind: str,
    specs: Sequence[str],
    lanes: Sequence[object],
    trace: BranchTrace,
) -> List[float]:
    """Misprediction rate of every lane of one family.

    Under the compiled engine an entry with a ``family`` hook rates the
    family through it: gshare and bi-mode in one fused pass, the
    compiled comparators one in-loop-counting pass per lane, none of
    them writing a per-branch stream.  The numpy engine rates each lane
    through its direct ``rates`` hook (gshare's closed form); otherwise
    each lane counts the misses of its ``detailed`` predictions, and the
    scalar engine runs each spec's ``step()`` reference.  The scalar
    family's degradation is reported under ``"sweep-planner"``.
    """
    from repro import health

    entry, engine, reason = _dispatch(kind, specs, lanes)
    if entry is None:
        health.emit(
            "sweep-planner",
            "fused",
            "scalar",
            reason=reason,
            severity="degraded",
            cells=len(specs),
        )
    if engine == "scalar":
        return [_power_on(spec).simulate(trace).misprediction_rate for spec in specs]
    n = len(trace)
    if n == 0:
        return [0.0 for _ in specs]
    if engine == "c" and entry.family is not None:
        return entry.family(list(lanes), trace)
    outcomes = trace.outcomes
    hist_cache: Dict[int, np.ndarray] = {}
    if engine == "numpy":
        return [entry.rates(lane, trace, hist_cache) for lane in lanes]
    out: List[float] = []
    for lane in lanes:
        preds = entry.detailed(lane, trace, hist_cache)[0]
        out.append(int(np.count_nonzero(preds != outcomes)) / n)
    return out
