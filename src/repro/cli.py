"""Command-line interface.

``repro-bimode`` (or ``python -m repro``) regenerates the paper's
experiments from the terminal::

    repro-bimode list                      # available predictors & benchmarks
    repro-bimode kernels                   # kernel tiers & engine dispatch
    repro-bimode stats                     # Table 2
    repro-bimode run gshare:index=12 gcc   # one (predictor, benchmark) cell
    repro-bimode figure2 --suite cint95    # Figures 2-4 sweeps
    repro-bimode bias bimode:dir=7 gcc     # Figures 5-6 bias breakdowns
    repro-bimode breakdown gcc             # Figures 7-8 class breakdowns
    repro-bimode table4 gcc                # Table 4 interference counts
    repro-bimode compare gcc gshare:index=12 bimode:dir=11
    repro-bimode aliasing gshare:index=10,hist=10 gcc
    repro-bimode journal compact           # rewrite journals in place

Each command prints ASCII tables/charts and optionally writes CSV via
``--csv``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Tuple

from repro.analysis.report import ascii_chart, ascii_table, format_rate, write_csv
from repro.analysis.sweep import paper_sweep
from repro.core.hardware import PAPER_SIZE_POINTS_KB
from repro.core.registry import available_schemes, make_predictor
from repro.sim.runner import ResultCache, evaluate
from repro.traces.stats import compute_stats
from repro.workloads.suite import load_benchmark, load_suite, suite_names

__all__ = ["main", "build_parser"]


def _detailed(args, specs, trace, include_bias_table=False):
    """Section-4 summaries of ``specs`` on one trace for the detailed
    commands (``bias``/``breakdown``/``table4``/``aliasing``).

    Routes through :func:`repro.sim.parallel.detailed_matrix`, so
    ``--jobs`` (or ``$REPRO_JOBS``) fans multi-cell commands out across
    the supervised worker pool; a quarantined cell aborts the command.
    """
    from repro.sim.parallel import detailed_matrix

    result = detailed_matrix(
        specs,
        {trace.name: trace},
        jobs=args.jobs,
        include_bias_table=include_bias_table,
    )
    if result.failures:
        raise SystemExit(
            "detailed analysis failed: "
            + "; ".join(str(cell) for cell in result.failures)
        )
    return {spec: result[spec][trace.name] for spec in specs}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bimode",
        description="Reproduction of 'The Bi-Mode Branch Predictor' (MICRO-30, 1997)",
    )
    parser.add_argument(
        "--length", type=int, default=None, help="override trace length (branches)"
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--csv", default=None, help="also write results to this CSV")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for sweeps (default: $REPRO_JOBS, serial if unset; "
        "0 means one per CPU)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list predictor schemes and benchmarks")

    sub.add_parser(
        "kernels",
        help="kernel registry: per-scheme tier, the engine this process "
        "picks and the form each family runs in",
    )

    stats = sub.add_parser("stats", help="Table 2: branch counts per benchmark")
    stats.add_argument("--suite", choices=("cint95", "ibs", "all"), default="all")

    runp = sub.add_parser("run", help="simulate one predictor on one benchmark")
    runp.add_argument("spec", help="predictor spec, e.g. bimode:dir=10,hist=10")
    runp.add_argument("benchmark", help="benchmark name, e.g. gcc")

    fig2 = sub.add_parser("figure2", help="misprediction vs size sweep (Figs 2-4)")
    fig2.add_argument("--suite", choices=("cint95", "ibs"), default="cint95")
    fig2.add_argument("--benchmark", default=None, help="single-benchmark curves")
    fig2.add_argument(
        "--sizes",
        type=float,
        nargs="*",
        default=list(PAPER_SIZE_POINTS_KB),
        help="size points in KB",
    )
    fig2.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted sweep from its journal instead of "
        "starting fresh (cells already completed are not re-simulated)",
    )

    bias = sub.add_parser("bias", help="per-counter bias breakdown (Figs 5-6)")
    bias.add_argument("spec", help="predictor spec (must support detailed simulation)")
    bias.add_argument("benchmark")

    brk = sub.add_parser("breakdown", help="misprediction by bias class (Figs 7-8)")
    brk.add_argument("benchmark")
    brk.add_argument(
        "--sizes", type=int, nargs="*", default=[8, 10, 15],
        help="log2 second-level counter counts",
    )

    t4 = sub.add_parser("table4", help="bias-class interference counts (Table 4)")
    t4.add_argument("benchmark")
    t4.add_argument("--index-bits", type=int, default=12)

    cmp_ = sub.add_parser("compare", help="compare several predictor specs on one benchmark")
    cmp_.add_argument("benchmark")
    cmp_.add_argument("specs", nargs="+", help="predictor specs to compare")

    al = sub.add_parser("aliasing", help="harmless vs destructive aliasing statistics")
    al.add_argument("spec", help="predictor spec (must support detailed simulation)")
    al.add_argument("benchmark")

    journal_p = sub.add_parser("journal", help="sweep-journal maintenance")
    journal_sub = journal_p.add_subparsers(dest="journal_command", required=True)
    compact_p = journal_sub.add_parser(
        "compact",
        help="atomically rewrite journals to one line per completed cell",
    )
    compact_p.add_argument(
        "names", nargs="*",
        help="journal names (files under <cache>/journal); default: all",
    )
    compact_p.add_argument(
        "--root", default=None, help="journal directory (default: <cache>/journal)"
    )
    return parser


def _cmd_list(args) -> int:
    print("predictor schemes:")
    for scheme in available_schemes():
        print(f"  {scheme}")
    print("\nbenchmarks:")
    for suite in ("cint95", "ibs"):
        print(f"  {suite}: {', '.join(suite_names(suite))}")
    return 0


def _cmd_kernels(args) -> int:
    """The kernel registry, resolved against this process: every
    scheme's tier (without a compiler, the ``lane`` scheme, gshare, rates
    in numpy and attributes on its scalar ``step()`` reference, and
    ``cloop`` schemes run that reference for both; the ``vectorized``
    statics have one form), the engine
    :func:`repro.sim.kernels.default_engine` picks for it, and the form
    a family's rates and Section-4 attribution actually run in."""
    from repro.sim import _cstep, kernels, lanes

    compiled = _cstep.available()

    def forms(entry, engine: str) -> Tuple[str, str]:
        if engine == "vectorized":
            return ("vectorized (any engine)",) * 2
        if engine != "c":
            rates = "numpy per lane" if engine == "numpy" else "step() per lane"
            return rates, "step() per lane"
        # sim/lanes.py holds the per-lane loops; gshare's and bi-mode's
        # family hooks advance every lane in one pass
        fused = entry.family is not None and entry.family.__module__ != lanes.__name__
        detailed = "grouping C loop per lane" if entry.substreams else "C loop per lane"
        return ("fused C loop" if fused else "C loop per lane"), detailed

    rows = []
    for scheme, tier in sorted(kernels.registered_schemes().items()):
        engine = kernels.default_engine(tier)
        rows.append([scheme, tier, engine, *forms(kernels.PORTED[scheme], engine)])
    print(
        ascii_table(
            ["scheme", "tier", "engine", "family rates", "detailed"],
            rows,
            title="kernel registry",
        )
    )
    if compiled:
        print("\nC compiler: found (compiled lane driver available)")
    else:
        print(f"\nC compiler: not found ({_cstep.unavailable_reason()})")
    print(
        "bias-filter sub-predictors with kernel lanes: "
        + ", ".join(kernels.BIASFILTER_SUBS)
        + " (any other sub= runs scalar, health-reported)"
    )
    return 0


def _cmd_stats(args) -> int:
    rows = []
    for name in suite_names(args.suite):
        trace = load_benchmark(name, length=args.length, seed=args.seed)
        stats = compute_stats(trace)
        rows.append(
            [
                name,
                stats.static_branches,
                stats.dynamic_branches,
                f"{100 * stats.taken_rate:.1f}%",
                f"{100 * stats.strongly_biased_fraction:.1f}%",
            ]
        )
    headers = ["benchmark", "static", "dynamic", "taken", "strongly-biased dyn."]
    print(ascii_table(headers, rows, title="Table 2 (measured, scaled traces)"))
    if args.csv:
        write_csv(args.csv, headers, rows)
    return 0


def _cmd_run(args) -> int:
    trace = load_benchmark(args.benchmark, length=args.length, seed=args.seed)
    predictor = make_predictor(args.spec)
    rate = evaluate(args.spec, trace)
    print(f"predictor : {predictor.name}")
    print(f"size      : {predictor.size_bytes():.0f} bytes of counters")
    print(f"benchmark : {trace.name} ({len(trace)} branches)")
    print(f"mispredict: {format_rate(rate)}")
    return 0


def _cmd_figure2(args) -> int:
    import hashlib
    import json as _json

    from repro import health
    from repro.sim.journal import SweepJournal

    if args.benchmark:
        traces = {
            args.benchmark: load_benchmark(
                args.benchmark, length=args.length, seed=args.seed
            )
        }
        title = args.benchmark
    else:
        traces = load_suite(suite_names(args.suite), length=args.length, seed=args.seed)
        title = f"{args.suite.upper()}-AVERAGE"
    cache = ResultCache()

    # One journal per distinct sweep shape: same suite/sizes/length/seed
    # resumes the same file, anything else gets its own.
    shape = _json.dumps(
        [sorted(traces), sorted(args.sizes), args.length, args.seed], sort_keys=True
    )
    journal = SweepJournal.for_name(
        f"figure2-{title}-{hashlib.sha1(shape.encode()).hexdigest()[:10]}"
    )
    if not args.resume:
        journal.discard()
    elif len(journal):
        print(f"[resuming: {len(journal)} completed cells from {journal.path}]")

    series = paper_sweep(
        traces, kb_points=args.sizes, cache=cache, jobs=args.jobs, journal=journal
    )

    headers = ["scheme"] + [f"{kb:g}KB" for kb in args.sizes]
    rows = []
    chart = {}
    for label, sweep in series.items():
        rows.append([label] + [format_rate(p.average) for p in sweep.points])
        chart[label] = [(p.size_kb, p.average) for p in sweep.points]
    print(ascii_table(headers, rows, title=f"Misprediction rates — {title}"))
    print()
    print(ascii_chart(chart, title=f"Figure 2 style chart — {title}"))
    report = health.summary(degraded_only=True)
    if report:
        print()
        print("execution health (degradations only):")
        print(report)
    if args.csv:
        csv_rows = [
            [label, p.size_kb, p.spec, p.average]
            for label, sweep in series.items()
            for p in sweep.points
        ]
        write_csv(args.csv, ["scheme", "size_kb", "spec", "avg_rate"], csv_rows)
    return 0


def _cmd_bias(args) -> int:
    trace = load_benchmark(args.benchmark, length=args.length, seed=args.seed)
    summary = _detailed(args, [args.spec], trace, include_bias_table=True)[args.spec]
    areas = summary["bias_areas"]
    print(f"predictor: {make_predictor(args.spec).name}  benchmark: {trace.name}")
    print(
        f"counters accessed: {len(summary['bias_table'])} / {summary['num_counters']}"
    )
    print(
        ascii_table(
            ["area", "mean share"],
            [
                ["dominant", f"{100 * areas['dominant']:.1f}%"],
                ["non-dominant", f"{100 * areas['non_dominant']:.1f}%"],
                ["WB", f"{100 * areas['wb']:.1f}%"],
            ],
            title="Figure 5/6 style bias areas (mean over counters)",
        )
    )
    if args.csv:
        write_csv(
            args.csv,
            ["dominant", "non_dominant", "wb"],
            summary["bias_table"],
        )
    return 0


def _cmd_breakdown(args) -> int:
    trace = load_benchmark(args.benchmark, length=args.length, seed=args.seed)
    cells = [
        (bits, label, spec)
        for bits in args.sizes
        for label, spec in (
            (f"gshare({max(2, bits - 6)})", f"gshare:index={bits},hist={max(2, bits - 6)}"),
            (f"gshare({bits})", f"gshare:index={bits},hist={bits}"),
            ("bi-mode", f"bimode:dir={bits - 1},hist={bits - 1},choice={bits - 2 if bits >= 2 else 0}"),
        )
    ]
    summaries = _detailed(args, [spec for _, _, spec in cells], trace)
    rows = []
    for bits, label, spec in cells:
        breakdown = summaries[spec]["breakdown"]
        rows.append(
            [
                f"2^{bits}",
                label,
                f"{100 * breakdown['snt']:.2f}%",
                f"{100 * breakdown['st']:.2f}%",
                f"{100 * breakdown['wb']:.2f}%",
                f"{100 * breakdown['overall']:.2f}%",
            ]
        )
    headers = ["counters", "scheme", "SNT", "ST", "WB", "overall"]
    print(
        ascii_table(
            headers, rows, title=f"Figure 7/8 style breakdown — {trace.name}"
        )
    )
    if args.csv:
        write_csv(args.csv, headers, rows)
    return 0


def _cmd_table4(args) -> int:
    trace = load_benchmark(args.benchmark, length=args.length, seed=args.seed)
    bits = args.index_bits
    schemes = [
        ("history-indexed", f"gshare:index={bits},hist={bits}"),
        ("bi-mode", f"bimode:dir={bits - 1},hist={bits - 1},choice={bits - 1}"),
    ]
    summaries = _detailed(args, [spec for _, spec in schemes], trace)
    rows = []
    for label, spec in schemes:
        changes = summaries[spec]["class_changes"]
        rows.append(
            [label, changes["dominant"], changes["non_dominant"], changes["wb"]]
        )
    headers = ["scheme", "dominant", "non-dominant", "WB"]
    print(ascii_table(headers, rows, title=f"Table 4 style counts — {trace.name}"))
    if args.csv:
        write_csv(args.csv, headers, rows)
    return 0


def _cmd_compare(args) -> int:
    trace = load_benchmark(args.benchmark, length=args.length, seed=args.seed)
    rows = []
    for spec in args.specs:
        predictor = make_predictor(spec)
        rows.append(
            [
                predictor.name,
                f"{predictor.size_bytes() / 1024:.3g}KB",
                format_rate(evaluate(spec, trace)),
            ]
        )
    headers = ["predictor", "size", "misprediction"]
    print(ascii_table(headers, rows, title=f"{trace.name} ({len(trace)} branches)"))
    if args.csv:
        write_csv(args.csv, headers, rows)
    return 0


def _cmd_aliasing(args) -> int:
    trace = load_benchmark(args.benchmark, length=args.length, seed=args.seed)
    summary = _detailed(args, [args.spec], trace)[args.spec]
    stats = summary["aliasing"]
    decomposition = summary["sharing"]
    print(f"predictor: {make_predictor(args.spec).name}  benchmark: {trace.name}")
    rows = [
        ["counters used", stats["counters_used"]],
        ["aliased counters", stats["aliased_counters"]],
        ["destructive counters", stats["destructive_counters"]],
        ["aliased accesses", f"{100 * stats['aliased_access_fraction']:.1f}%"],
        ["destructive accesses", f"{100 * stats['destructive_access_fraction']:.1f}%"],
        ["harmless accesses", f"{100 * stats['harmless_access_fraction']:.1f}%"],
        ["capacity share", f"{100 * decomposition['capacity_share']:.1f}%"],
        ["conflict share", f"{100 * decomposition['conflict_share']:.1f}%"],
    ]
    print(ascii_table(["metric", "value"], rows))
    return 0


def _journal_for(path):
    """The journal of ``path`` as the class whose value key its lines
    carry: figure sweeps write rate journals and the Section-4 benches
    payload journals into the same directory."""
    import json

    from repro.sim.journal import PayloadJournal, SweepJournal

    try:
        lines = path.read_text().splitlines()
    except OSError:
        lines = []
    for line in lines:
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(entry, dict):
            for cls in (SweepJournal, PayloadJournal):
                if cls.VALUE_KEY in entry:
                    return cls(path)
    return SweepJournal(path)


def _cmd_journal(args) -> int:
    from pathlib import Path

    from repro.workloads.suite import default_cache_dir

    root = Path(args.root) if args.root else default_cache_dir() / "journal"
    if args.names:
        paths = [root / f"{name}.jsonl" if not name.endswith(".jsonl") else Path(name)
                 for name in args.names]
    else:
        paths = sorted(root.glob("*.jsonl")) if root.is_dir() else []
    if not paths:
        print(f"no journals under {root}")
        return 0
    for path in paths:
        if not path.exists():
            print(f"{path.name}: missing")
            continue
        journal = _journal_for(path)
        before = path.stat().st_size
        removed = journal.compact()
        after = path.stat().st_size
        print(
            f"{path.name}: {len(journal)} cells, dropped {removed} line(s), "
            f"{before} -> {after} bytes"
        )
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "kernels": _cmd_kernels,
    "stats": _cmd_stats,
    "run": _cmd_run,
    "figure2": _cmd_figure2,
    "bias": _cmd_bias,
    "breakdown": _cmd_breakdown,
    "table4": _cmd_table4,
    "compare": _cmd_compare,
    "aliasing": _cmd_aliasing,
    "journal": _cmd_journal,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
