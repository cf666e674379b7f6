"""Golden regression fixtures: canonical traces, frozen rates.

``tests/golden/rates.json`` pins the exact misprediction rate of a
representative spec per predictor scheme on small canonical traces
(rebuilt deterministically from their recorded recipes).  Rates are
exact rational numbers (miss count / length) computed by deterministic
code, so comparison is **equality**, not approximation: any drift —
however small — is a semantic change to a predictor and must be either
fixed or consciously re-frozen.

``tests/golden/detailed.json`` does the same for the Section-4
pipeline: the *entire* substream-breakdown summary (per-class
breakdown, bias areas, aliasing/sharing structure, class-change
counts) of one representative spec per newly ported scheme, frozen
JSON-exactly on two canonical traces.  A batch attribution kernel that
predicts correctly but charges the wrong counter drifts here even
though every rate in ``rates.json`` stays put.

On mismatch the failure message lists every drifted cell as
``spec | trace: expected ... got ...`` so the blast radius is readable
at a glance.

Regenerate (after an *intentional* semantic change) with::

    PYTHONPATH=src:. python tests/test_golden.py --regen

and eyeball the JSON diff before committing it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from repro.core.registry import make_predictor, parse_spec
from repro.sim.engine import run, run_detailed

from tests.conftest import PORTED_GRID, make_toy_trace

GOLDEN_PATH = Path(__file__).parent / "golden" / "rates.json"
DETAILED_GOLDEN_PATH = Path(__file__).parent / "golden" / "detailed.json"

#: At least one spec per registered scheme under regression pinning,
#: plus the kernel registry's ported grid (2-3 sizes per ported
#: scheme), so every lane kernel answers to a frozen exact rational.
GOLDEN_SPECS = list(
    dict.fromkeys(
        [
            "bimode:dir=7,hist=5,choice=6",
            "bimode:dir=6,hist=6,choice=5,full_update=1,choice_hist=1",
            "gshare:index=8,hist=6",
            "gshare:index=6,hist=3",
            "bimodal:index=7",
            "gag:hist=7",
            "pag:hist=5,bht=5",
            "gselect:hist=4,addr=4",
            "perceptron:index=5,hist=8",
            "agree:index=8,hist=6,bias=8",
            "gskew:bank=6,hist=6",
            "yags:choice=7,cache=5,hist=5,tag=5",
            "tournament:index=7,meta=7",
            "trimode:dir=6,hist=4,choice=5",
            "biasfilter:table=6,run=2,sub_index=7,sub_hist=5",
            "always-taken",
            "always-not-taken",
            "btfnt",
            *PORTED_GRID,
        ]
    )
)

#: One representative spec per newly ported scheme whose full
#: Section-4 summary (exact per-class substream breakdown) is frozen
#: in ``detailed.json``.  The fused gshare/bi-mode attribution kernels
#: predate this wave and answer to their own detailed suites.
DETAILED_SPECS = [
    "bimodal:index=7",
    "pag:hist=5,bht=5",
    "agree:index=8,hist=6,bias=8",
    "gskew:bank=6,hist=6",
    "tournament:index=7,meta=7",
    "trimode:dir=6,hist=4,choice=5",
    "yags:choice=7,cache=5,hist=5,tag=5",
    "perceptron:index=5,hist=8",
    "biasfilter:table=6,run=2,sub_index=7,sub_hist=5",
    "btfnt",
]

#: Canonical trace recipes — regenerated bit-identically by
#: :func:`tests.conftest.make_toy_trace` from these parameters.
GOLDEN_TRACES = {
    "toy-mixed": {"length": 2000, "seed": 7, "num_branches": 24},
    "toy-aliasing": {"length": 1500, "seed": 13, "num_branches": 96},
    "toy-small": {"length": 600, "seed": 3, "num_branches": 8},
}

#: The detailed fixtures freeze two trace shapes (mixed and aliasing
#: pressure); ``toy-small`` adds nothing to the attribution story.
DETAILED_TRACE_NAMES = ("toy-mixed", "toy-aliasing")


def _build_traces():
    return {name: make_toy_trace(**recipe) for name, recipe in GOLDEN_TRACES.items()}


def _compute_rates() -> dict:
    traces = _build_traces()
    return {
        spec: {
            name: str(
                Fraction(
                    run(make_predictor(spec), trace).num_mispredictions, len(trace)
                )
            )
            for name, trace in traces.items()
        }
        for spec in GOLDEN_SPECS
    }


def _compute_detailed(simulate=run_detailed) -> dict:
    """Full Section-4 summaries, JSON-normalised for exact comparison;
    ``simulate(predictor, trace)`` runs each cell."""
    from repro.analysis.summary import summarize_detailed

    traces = _build_traces()
    return {
        spec: {
            name: json.loads(
                json.dumps(
                    summarize_detailed(simulate(make_predictor(spec), traces[name])),
                    sort_keys=True,
                )
            )
            for name in DETAILED_TRACE_NAMES
        }
        for spec in DETAILED_SPECS
    }


def test_golden_covers_every_registered_scheme():
    from repro.core.registry import available_schemes

    covered = {parse_spec(spec)[0] for spec in GOLDEN_SPECS}
    assert covered == set(available_schemes())


def test_fixture_recipes_match_checked_in_file():
    data = json.loads(GOLDEN_PATH.read_text())
    assert data["traces"] == GOLDEN_TRACES, (
        "golden trace recipes changed; regenerate with "
        "`PYTHONPATH=src:. python tests/test_golden.py --regen`"
    )
    assert sorted(data["rates"]) == sorted(GOLDEN_SPECS), (
        "golden spec list changed; regenerate the fixtures"
    )


def test_rates_match_golden_fixtures():
    expected = json.loads(GOLDEN_PATH.read_text())["rates"]
    got = _compute_rates()
    drifted = []
    for spec in GOLDEN_SPECS:
        for name in GOLDEN_TRACES:
            want = expected.get(spec, {}).get(name)
            have = got[spec][name]
            if want != have:
                drifted.append(f"  {spec} | {name}: expected {want}  got {have}")
    assert not drifted, (
        "misprediction rates drifted from tests/golden/rates.json "
        "(intentional? regenerate with "
        "`PYTHONPATH=src:. python tests/test_golden.py --regen`):\n"
        + "\n".join(drifted)
    )


def test_batch_kernels_reproduce_golden_fixtures():
    """The registry's batched path must land on the *same rationals*
    as the scalar engine that froze them: for every golden cell, the
    planner-dispatched rate equals the fixture's exact miss/length."""
    from repro.sim.fused import family_rates, plan_families

    expected = json.loads(GOLDEN_PATH.read_text())["rates"]
    drifted = []
    for name, trace in _build_traces().items():
        got = {}
        for family in plan_families(GOLDEN_SPECS):
            got.update(family_rates(family, trace))
        for spec in GOLDEN_SPECS:
            frac = Fraction(expected[spec][name])
            miss = frac * len(trace)
            assert miss.denominator == 1, (spec, name)
            if got[spec] != int(miss) / len(trace):
                drifted.append(
                    f"  {spec} | {name}: expected {frac}  got {got[spec]}"
                )
    assert not drifted, (
        "batched kernel rates diverge from the golden fixtures:\n"
        + "\n".join(drifted)
    )


def test_detailed_fixtures_cover_six_newly_ported_schemes():
    """ISSUE acceptance: >= 6 newly ported schemes carry frozen
    substream-breakdown summaries on two traces."""
    schemes = {parse_spec(spec)[0] for spec in DETAILED_SPECS}
    assert len(schemes - {"gshare", "bimode"}) >= 6
    assert len(DETAILED_TRACE_NAMES) == 2


def test_detailed_fixture_recipes_match_checked_in_file():
    data = json.loads(DETAILED_GOLDEN_PATH.read_text())
    assert data["traces"] == {
        name: GOLDEN_TRACES[name] for name in DETAILED_TRACE_NAMES
    }, (
        "detailed golden trace recipes changed; regenerate with "
        "`PYTHONPATH=src:. python tests/test_golden.py --regen`"
    )
    assert sorted(data["summaries"]) == sorted(DETAILED_SPECS), (
        "detailed golden spec list changed; regenerate the fixtures"
    )


def _detailed_drift(got: dict) -> list:
    expected = json.loads(DETAILED_GOLDEN_PATH.read_text())["summaries"]
    drifted = []
    for spec in DETAILED_SPECS:
        for name in DETAILED_TRACE_NAMES:
            want = expected.get(spec, {}).get(name)
            have = got[spec][name]
            if want != have:
                drifted.append(f"  {spec} | {name}: expected {want}  got {have}")
    return drifted


def test_detailed_summaries_match_golden_fixtures():
    """The frozen cells are *whole summaries* — per-class breakdown,
    bias areas, aliasing/sharing, class-change counts — compared
    JSON-exactly, so a single misattributed access drifts here."""
    drifted = _detailed_drift(_compute_detailed())
    assert not drifted, (
        "Section-4 summaries drifted from tests/golden/detailed.json "
        "(intentional? regenerate with "
        "`PYTHONPATH=src:. python tests/test_golden.py --regen`):\n"
        + "\n".join(drifted)
    )


def test_scalar_loop_reproduces_golden_summaries():
    """The scalar ``simulate_detailed`` loop lands on the summaries the
    registry froze, whichever engine the registry ran."""
    drifted = _detailed_drift(
        _compute_detailed(lambda predictor, trace: predictor.simulate_detailed(trace))
    )
    assert not drifted, "scalar Section-4 summaries diverge:\n" + "\n".join(drifted)


def test_family_detailed_reproduces_golden_summaries():
    """The fused family path (what ``detailed_matrix`` workers run)
    must land on the same frozen summaries as the per-predictor
    ``run_detailed`` loop that froze them."""
    from repro.analysis.summary import summarize_detailed
    from repro.sim.fused import family_detailed, plan_families

    expected = json.loads(DETAILED_GOLDEN_PATH.read_text())["summaries"]
    traces = _build_traces()
    drifted = []
    for name in DETAILED_TRACE_NAMES:
        trace = traces[name]
        for family in plan_families(DETAILED_SPECS):
            for spec, detailed in family_detailed(family, trace).items():
                got = json.loads(
                    json.dumps(summarize_detailed(detailed), sort_keys=True)
                )
                if got != expected[spec][name]:
                    drifted.append(f"  {spec} | {name}")
    assert not drifted, (
        "fused family summaries diverge from the golden fixtures:\n"
        + "\n".join(drifted)
    )


def _regen() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = {"traces": GOLDEN_TRACES, "rates": _compute_rates()}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(GOLDEN_SPECS)} specs x {len(GOLDEN_TRACES)} traces)")
    detailed = {
        "traces": {name: GOLDEN_TRACES[name] for name in DETAILED_TRACE_NAMES},
        "summaries": _compute_detailed(),
    }
    DETAILED_GOLDEN_PATH.write_text(
        json.dumps(detailed, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"wrote {DETAILED_GOLDEN_PATH} "
        f"({len(DETAILED_SPECS)} specs x {len(DETAILED_TRACE_NAMES)} traces)"
    )


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        sys.exit("usage: PYTHONPATH=src:. python tests/test_golden.py --regen")
