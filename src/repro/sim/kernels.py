"""Scheme-agnostic kernel registry: spec -> fastest bit-exact engine.

Every registered scheme is one :class:`KernelEntry` in :data:`PORTED`,
and kernel dispatch is a lookup:

``kernel_for_spec(spec)`` resolves any predictor spec to a *kernel
kind* plus a parsed lane description.  Kinds are:

* one kind per registered scheme — gshare, bi-mode, bimodal, the
  two-level family (gag/gas/gap/gselect/pag/pas/pap), agree, gskew,
  tournament, tri-mode, YAGS, perceptron, the bias filter (over its
  gshare/bimodal sub-predictors) and the three static schemes —
  executed by the lane kernels of :mod:`repro.sim.batch`,
  :mod:`repro.sim.batch_bimode` and :mod:`repro.sim.lanes`;
* ``"scalar"`` — any spec whose knobs the lane parser rejects
  (out-of-range geometry, unknown options, a bias-filter
  sub-predictor without a kernel lane), run per-cell through the
  scalar engine.  :data:`SCALAR_ONLY` is empty: every registered
  scheme has a batch kernel, and the meta-test asserting the set stays
  empty keeps it that way.

``family_rates(kind, specs, lanes, trace)`` and ``family_detailed``
evaluate one family and report every dispatch decision through
:mod:`repro.health` (component ``"<kind>-kernel"``).
``engine.run_detailed`` shares this dispatch: it resolves a live
predictor's spec and calls :func:`family_detailed`.

Dispatch
--------
The engine is a function of the scheme's tier and of whether this
process has a compiler (``REPRO_NO_CC=1`` vetoes it), for rates and
Section-4 attribution alike; no environment variable pins it.

* ``"lane"`` — compiled loop, or its numpy form without a compiler
  (counter-major scans): gshare, bimodal and the two-level family; the
  statics' one vectorized form ignores the engine;
* ``"cloop"`` — compiled per-access loop, or the scalar ``step()``
  reference without a compiler: bi-mode and the comparators agree,
  gskew, tournament, tri-mode, YAGS, perceptron and the bias filter;
* ``"scalar"`` — the :data:`SCALAR_ONLY` allowlist, empty.

Running anything but the compiled loop is a health-reported
degradation.  The ``no-cc`` benchmark workload runs gshare's numpy lane
and bi-mode's scalar engine; no workload rates a comparator without a
compiler, so each comparator keeps only its C loop.  In-process callers
may ask for one engine by ``mode=`` (``"c"``, ``"numpy"`` or
``"scalar"``): the differential layer replays the engines that way, and
the tests reach the scalar reference through it.

Every entry has one per-lane kernel, ``detailed(lane, trace, engine,
hist_cache) -> (predictions, counter_ids)``; rates count the misses of
its predictions unless a faster hook applies.  A ``family`` hook is
what the compiled engine uses for rates: gshare and bi-mode advance
every lane of a family in one fused C loop, and the seven compiled
comparators run each lane's C loop over the raw trace with no
per-branch buffer, counting misses in-loop.  Gshare's ``rates`` hook
counts a numpy lane's misses in closed form from its counter runs.  A
``substreams`` hook — a compiled per-lane loop that groups accesses
into Section-4 substreams as it runs (gshare, bi-mode) — is what
detailed sweeps use in place of per-access attribution.

The verification suite (``tests/test_kernels.py``) is generated from
this mapping, so a scheme that registers in ``core/registry.py``
without declaring a tier here — or without oracle and golden coverage —
fails CI by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.interfaces import DetailedSimulation, SimulationResult, SubstreamGrouping
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
    "spec_for_predictor",
    "registered_schemes",
    "family_order",
    "family_rates",
    "family_detailed",
    "planner_vetoes",
]

#: Schemes deliberately left on the scalar engine: empty since the
#: second wave (perceptron + bias filter compiled loops, static
#: one-shot lanes).  A meta-test asserts it stays empty, so a future
#: scheme cannot quietly register without a batch kernel.
SCALAR_ONLY = frozenset()

#: Sub-predictor schemes the bias-filter kernel executes in-lane; a
#: ``biasfilter:...,sub=<other>`` spec runs scalar with an explicit
#: planner veto (:func:`planner_vetoes`).
BIASFILTER_SUBS = _lanes.BIASFILTER_SUBS


@dataclass(frozen=True)
class KernelEntry:
    """One registered scheme: how to parse its specs and run its lanes."""

    scheme: str
    tier: str  # "lane" (c, numpy fallback) | "cloop" (c, scalar fallback)
    lane_for_spec: Callable[[str], Optional[object]]
    #: The one per-lane kernel: ``(lane, trace, engine, hist_cache) ->
    #: (predictions, counter_ids)``, bit-identical to the predictor's
    #: step-driven ``simulate_detailed`` loop.  It serves Section-4
    #: attribution, and rates wherever no faster hook below applies.
    detailed: Callable[..., Tuple[np.ndarray, np.ndarray]]
    #: Optional direct rate computation ``(lane, trace, hist_cache) ->
    #: float`` for schemes whose misprediction count reduces without
    #: materializing predictions (gshare's closed-form run counts); the
    #: numpy engine's rate path when present.
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
        tier="lane",
        lane_for_spec=_lanes.twolevel_lane_for_spec,
        detailed=_lanes.twolevel_detailed,
    )
    for scheme in ("gag", "gas", "gap", "gselect", "pag", "pas", "pap")
}

#: Every registered scheme's kernels, in planner/display order.
PORTED: Dict[str, KernelEntry] = {
    "gshare": KernelEntry(
        "gshare",
        "lane",
        _gshare.lane_for_spec,
        _gshare.gshare_detailed,
        rates=_gshare.gshare_rate,
        family=_gshare.gshare_family_rates,
        substreams=_gshare.gshare_substreams,
    ),
    "bimode": KernelEntry(
        "bimode",
        "cloop",
        _bimode.bimode_lane_for_spec,
        _bimode.bimode_detailed,
        family=_bimode.bimode_family_rates,
        substreams=_bimode.bimode_substreams,
    ),
    "bimodal": KernelEntry(
        "bimodal", "lane", _lanes.bimodal_lane_for_spec, _lanes.bimodal_detailed
    ),
    **_TWOLEVEL,
    "agree": KernelEntry(
        "agree",
        "cloop",
        _lanes.agree_lane_for_spec,
        _lanes.agree_detailed,
        family=_lanes.agree_family_rates,
    ),
    "gskew": KernelEntry(
        "gskew",
        "cloop",
        _lanes.gskew_lane_for_spec,
        _lanes.gskew_detailed,
        family=_lanes.gskew_family_rates,
    ),
    "tournament": KernelEntry(
        "tournament",
        "cloop",
        _lanes.tournament_lane_for_spec,
        _lanes.tournament_detailed,
        family=_lanes.tournament_family_rates,
    ),
    "trimode": KernelEntry(
        "trimode",
        "cloop",
        _lanes.trimode_lane_for_spec,
        _lanes.trimode_detailed,
        family=_lanes.trimode_family_rates,
    ),
    "yags": KernelEntry(
        "yags",
        "cloop",
        _lanes.yags_lane_for_spec,
        _lanes.yags_detailed,
        family=_lanes.yags_family_rates,
    ),
    # -- second wave: the former SCALAR_ONLY tier -------------------------------
    "perceptron": KernelEntry(
        "perceptron",
        "cloop",
        _lanes.perceptron_lane_for_spec,
        _lanes.perceptron_detailed,
        family=_lanes.perceptron_family_rates,
    ),
    "biasfilter": KernelEntry(
        "biasfilter",
        "cloop",
        _lanes.biasfilter_lane_for_spec,
        _lanes.biasfilter_detailed,
        family=_lanes.biasfilter_family_rates,
    ),
    **{
        scheme: KernelEntry(
            scheme=scheme,
            tier="lane",
            lane_for_spec=_lanes.static_lane_for_spec,
            detailed=_lanes.static_detailed,
        )
        for scheme in ("always-taken", "always-not-taken", "btfnt")
    },
}


def family_order() -> Tuple[str, ...]:
    """Every family kind, in planner order (scalar last)."""
    return (*PORTED, "scalar")


def kernel_for_spec(spec: str) -> Tuple[str, Optional[object]]:
    """Resolve a spec to ``(kind, lane)``; ``("scalar", None)`` when no
    lane kernel covers it.

    Resolution is structural only: the engine that runs a family is
    picked later, by :func:`family_rates` / :func:`family_detailed`.
    A spec whose knobs a lane parser rejects (out-of-range geometry,
    unknown options) falls to scalar so the scalar constructor can
    raise its original, descriptive error.
    """
    scheme = spec.split(":", 1)[0].strip()
    entry = PORTED.get(scheme)
    if entry is not None:
        lane = entry.lane_for_spec(spec)
        if lane is not None:
            return scheme, lane
    return "scalar", None


def spec_for_predictor(predictor: object) -> Optional[str]:
    """Reconstruct the canonical spec of a live predictor instance, or
    ``None`` when its configuration has no spec form.

    ``engine.run_detailed`` receives a *predictor object*, not a spec,
    and predictor ``name``
    strings are display labels, not parseable specs (the bias filter
    brackets its sub-predictor; agree renames its knobs).  Rebuilding
    the spec from the instance's attributes and round-tripping it
    through the lane parsers reuses their geometry validation, so a
    hand-constructed predictor outside a lane's supported range safely
    resolves to the scalar family.
    """
    from repro.core.bimode import BiModePredictor
    from repro.predictors.agree import AgreePredictor
    from repro.predictors.bimodal import BimodalPredictor
    from repro.predictors.filtered import BiasFilterPredictor
    from repro.predictors.gshare import GSharePredictor
    from repro.predictors.gskew import GSkewPredictor
    from repro.predictors.perceptron import PerceptronPredictor
    from repro.predictors.static_ import (
        AlwaysNotTakenPredictor,
        AlwaysTakenPredictor,
        BTFNTPredictor,
    )
    from repro.predictors.tournament import TournamentPredictor
    from repro.predictors.trimode import TriModePredictor
    from repro.predictors.twolevel import TwoLevelPredictor
    from repro.predictors.yags import YagsPredictor

    p = predictor
    if isinstance(p, GSharePredictor):
        return f"gshare:index={p.index_bits},hist={p.history_bits}"
    if isinstance(p, BiModePredictor):
        spec = (
            f"bimode:dir={p.direction_index_bits},hist={p.history_bits},"
            f"choice={p.choice_index_bits}"
        )
        if p.full_update:
            spec += ",full_update=1"
        if p.choice_uses_history:
            spec += ",choice_hist=1"
        return spec
    if isinstance(p, BimodalPredictor):
        return f"bimodal:index={p.index_bits},bits={p.table.bits}"
    if isinstance(p, TwoLevelPredictor):
        scheme = type(p).scheme
        knobs = [f"hist={p.history_bits}"]
        if scheme in ("gas", "pas"):
            knobs.append(f"select={p.pht_select_bits}")
        elif scheme in ("gselect", "gap", "pap"):
            knobs.append(f"addr={p.pht_select_bits}")
        if p.per_address:
            knobs.append(f"bht={p.bht.index_bits}")
        return f"{scheme}:" + ",".join(knobs)
    if isinstance(p, AgreePredictor):
        return (
            f"agree:index={p.index_bits},hist={p.history_bits},"
            f"bias={p.bias_index_bits}"
        )
    if isinstance(p, GSkewPredictor):
        return (
            f"gskew:bank={p.bank_index_bits},hist={p.history_bits},"
            f"update={p.update_policy}"
        )
    if isinstance(p, TournamentPredictor):
        a, b = p.component_a, p.component_b
        # the lane models the registry pairing: bimodal + same-geometry
        # gshare at one shared index width
        if (
            isinstance(a, BimodalPredictor)
            and isinstance(b, GSharePredictor)
            and a.table.bits == 2
            and a.index_bits == b.index_bits == b.history_bits
        ):
            return f"tournament:index={a.index_bits},meta={p.meta_index_bits}"
        return None
    if isinstance(p, TriModePredictor):
        return (
            f"trimode:dir={p.direction_index_bits},hist={p.history_bits},"
            f"choice={p.choice_index_bits}"
        )
    if isinstance(p, YagsPredictor):
        return (
            f"yags:choice={p.choice_index_bits},cache={p.cache_index_bits},"
            f"hist={p.history_bits},tag={p.tag_bits}"
        )
    if isinstance(p, PerceptronPredictor):
        return (
            f"perceptron:index={p.index_bits},hist={p.history_bits},"
            f"w={p.weight_bits}"
        )
    if isinstance(p, BiasFilterPredictor):
        sub = p.sub_predictor
        head = f"biasfilter:table={p.filter_index_bits},run={p.run_bits}"
        if isinstance(sub, GSharePredictor):
            return (
                f"{head},sub=gshare,sub_index={sub.index_bits},"
                f"sub_hist={sub.history_bits}"
            )
        if isinstance(sub, BimodalPredictor) and sub.table.bits == 2:
            return f"{head},sub=bimodal,sub_index={sub.index_bits}"
        return None
    if isinstance(p, (AlwaysTakenPredictor, AlwaysNotTakenPredictor)):
        return type(p).scheme
    if isinstance(p, BTFNTPredictor):
        from repro.predictors.static_ import _default_backward_classifier

        # the lane hard-codes the workload convention; a custom
        # backward-classifier has no spec form
        if p._backward is _default_backward_classifier:
            return "btfnt"
        return None
    return None


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


#: The engines an in-process caller may ask for; ``auto`` is the default
#: dispatch.
_MODES = ("auto", "c", "numpy", "scalar")


def default_engine(tier: str) -> str:
    """The engine the default dispatch runs a ``tier`` on in this
    process: ``c`` when a compiler is available, else the ``lane`` tier's
    numpy form or the ``cloop`` tier's scalar ``step()`` reference."""
    if _cstep.available():
        return "c"
    return "numpy" if tier == "lane" else "scalar"


def _dispatch(
    kind: str, specs: Sequence[str], lanes: Sequence[object], mode: str
) -> Tuple[KernelEntry, str, str]:
    """Resolve one family's engine, health-report it under
    ``"<kind>-kernel"``, and return ``(entry, engine, fallback_reason)``.

    Under ``auto`` the expected engine is the compiled loop, so running
    anything slower surfaces as a degradation with the compiler's
    absence (or the scheme's missing numpy form) as the reason.  An
    explicit ``"numpy"`` picks what a vetoed compiler picks under
    ``auto``; ``"c"`` and ``"scalar"`` run that engine.
    """
    from repro import health

    if len(specs) != len(lanes):
        raise ValueError("specs and lanes must be parallel")
    if mode not in _MODES:
        raise ValueError(f"kernel mode must be one of {_MODES}, got {mode!r}")
    entry = PORTED[kind]
    expected = "c" if mode == "auto" else mode
    if mode == "auto":
        engine = default_engine(entry.tier)
    elif mode == "numpy" and entry.tier != "lane":
        engine = "scalar"
    else:
        engine = mode
    reason = ""
    if engine == "scalar" and mode != "scalar":
        reason = f"no numpy kernel for {entry.scheme} (compiled loop only)"
    elif engine == "numpy" and mode == "auto":
        reason = _cstep.unavailable_reason() or ""
    health.engine_used(
        f"{kind}-kernel", engine, expected=expected, cells=len(specs), reason=reason
    )
    return entry, engine, reason


def family_detailed(
    kind: str,
    specs: Sequence[str],
    lanes: Sequence[object],
    trace: BranchTrace,
    mode: str = "auto",
    pc_codes: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> list:
    """Section-4 attribution of every lane of one family.

    Returns one :class:`~repro.core.interfaces.DetailedSimulation` per
    lane, bit-for-bit what the scalar ``simulate_detailed`` loop would
    emit from power-on state.  Given the trace's ``pc_codes``
    (:func:`repro.analysis.bias.pc_code_stream`), a lane whose entry has
    a ``substreams`` loop and runs compiled returns the
    :class:`~repro.core.interfaces.SubstreamGrouping` that loop emits
    instead (no per-access array but the int32 stream ids); the
    Section-4 analysis reads either.
    The engine follows the dispatch of :func:`family_rates`; it is
    health-reported under ``"<kind>-kernel"``, and whether the lanes
    ran batched or on the scalar loop under ``"detailed-kernel"``.
    Each lane runs its own pass and the family returns every lane's row
    at once; in a sweep a gshare or bi-mode row holds 4 bytes per
    branch (its stream ids) plus one record per substream, not
    per-access predictions and counter ids.
    """
    from repro import health
    from repro.core.registry import make_predictor

    entry, engine, reason = _dispatch(kind, specs, lanes, mode)
    health.engine_used(
        "detailed-kernel",
        "scalar" if engine == "scalar" else "batch",
        expected="scalar" if mode == "scalar" else "batch",
        cells=len(specs),
        reason=reason,
    )
    out: list = []
    for spec, lane in zip(specs, lanes):
        if engine == "c" and pc_codes is not None and entry.substreams is not None:
            out.append(entry.substreams(lane, trace, pc_codes))
            continue
        if engine == "scalar":
            detailed = make_predictor(spec).simulate_detailed(trace)
        else:
            preds, cids = entry.detailed(lane, trace, engine, None)
            detailed = DetailedSimulation(
                result=SimulationResult(
                    predictor_name=spec,
                    trace_name=trace.name,
                    predictions=preds,
                    outcomes=trace.outcomes,
                ),
                counter_ids=cids,
                num_counters=_lanes.detailed_num_counters(lane),
                pcs=trace.pcs,
            )
        out.append(detailed)
    return out


def family_rates(
    kind: str,
    specs: Sequence[str],
    lanes: Sequence[object],
    trace: BranchTrace,
    mode: str = "auto",
) -> List[float]:
    """Misprediction rate of every lane of one family.

    Under the compiled engine an entry with a ``family`` hook rates the
    family through it: gshare and bi-mode in one fused pass, the
    compiled comparators one in-loop-counting pass per lane, none of
    them writing a per-branch stream.  Otherwise each lane goes through
    its direct ``rates`` hook, or counts the misses of its ``detailed``
    predictions; the scalar engine runs each spec's ``step()``
    reference.
    """
    from repro.core.registry import make_predictor
    from repro.sim.engine import run

    entry, engine, _ = _dispatch(kind, specs, lanes, mode)
    n = len(trace)
    if n == 0:
        return [0.0 for _ in specs]
    if engine == "c" and entry.family is not None:
        return entry.family(list(lanes), trace)
    outcomes = trace.outcomes
    hist_cache: Dict[int, np.ndarray] = {}
    out: List[float] = []
    for spec, lane in zip(specs, lanes):
        if engine == "scalar":
            preds = run(make_predictor(spec), trace).predictions
        elif entry.rates is not None:
            out.append(entry.rates(lane, trace, hist_cache))
            continue
        else:
            preds = entry.detailed(lane, trace, engine, hist_cache)[0]
        out.append(int(np.count_nonzero(preds != outcomes)) / n)
    return out


def planner_vetoes(specs: Sequence[str]) -> None:
    """Health-report the explicit kernel vetoes among scalar-routed
    ``specs``.

    The generic "unfusable scheme(s)" degradation names schemes the
    registry has never heard of; a bias filter over an unsupported
    sub-predictor is different — the scheme *is* ported, but the
    requested ``sub=`` has no kernel lane — so the veto is reported by
    name under ``biasfilter-kernel``.
    """
    from repro import health
    from repro.core.registry import parse_spec

    for spec in specs:
        if spec.split(":", 1)[0].strip() != "biasfilter":
            continue
        try:
            _, kwargs = parse_spec(spec)
        except ValueError:
            continue
        sub = kwargs.get("sub", "gshare")
        if sub not in BIASFILTER_SUBS:
            health.engine_used(
                "biasfilter-kernel",
                "scalar",
                expected="c",
                cells=1,
                reason=(
                    f"sub-predictor {sub!r} has no kernel lane "
                    f"(supported: {', '.join(BIASFILTER_SUBS)})"
                ),
            )
