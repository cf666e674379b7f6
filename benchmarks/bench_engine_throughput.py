"""Engine throughput microbenchmarks (pytest-benchmark timing proper).

Not a paper artifact: measures the simulator's branches/second for one
cell of the main predictors, the batched multi-lane gshare kernel (a
13-lane family that fits in cache, and the whole 116-lane Figure-2/3/4
family whose tables do not, also without a compiler), and the sweep
matrix driver, which together bound how long the figure benches take.
These use multiple rounds (real statistics) since each round is cheap.
"""

from __future__ import annotations

import pytest

from benchmarks.common import load_bench_trace
from repro import faults
from repro.analysis.sweep import gshare_spec
from repro.core.hardware import PAPER_SIZE_POINTS_KB, HardwareBudget
from repro.core.registry import make_predictor
from repro.sim import kernels
from repro.sim.engine import run
from repro.sim.runner import evaluate, evaluate_matrix
from repro.workloads.profiles import get_profile
from repro.workloads.suite import load_benchmark

TRACE_NAME = "xlisp"
SPECS = [
    "bimodal:index=12",
    "gshare:index=12,hist=12",
    "bimode:dir=11,hist=11,choice=11",
    "pas:hist=6,select=4,bht=10",
]

#: The gshare.best candidate family at one paper size (index_bits=12):
#: the workload the batch kernel exists to accelerate.
BATCH_SPECS = [gshare_spec(12, h) for h in range(13)]
BATCH_LANES = [kernels.kernel_for_spec(spec)[1] for spec in BATCH_SPECS]

#: Every gshare spec of a ``paper_sweep`` (Figs 2-4): the full history
#: search at each of the eight paper sizes, 1PHT points included (the
#: ``hist=index`` lanes).  116 lanes whose tables total 4.4 MB.
PAPER_FAMILY = [
    gshare_spec(bits, h)
    for bits in (HardwareBudget(kb).index_bits for kb in PAPER_SIZE_POINTS_KB)
    for h in range(bits + 1)
]

#: The largest-footprint CINT95 trace, at full bench length.
PAPER_FAMILY_TRACE = "gcc"

#: Trace scale of the no-compiler family twin: the scale the ``no-cc``
#: benchmark workload rates the paper grid at.
NO_CC_SCALE = 0.1


def mean_seconds(benchmark):
    """The timed mean, or ``None`` when timing is off
    (``--benchmark-disable``): the derived throughput print and floor
    are then skipped, and only the correctness asserts run."""
    return None if benchmark.stats is None else benchmark.stats["mean"]


def batched_rates(trace):
    """The family through the kernel registry: one fused C pass, or the
    per-lane counter-major scan without a compiler."""
    return kernels.family_rates("gshare", BATCH_SPECS, BATCH_LANES, trace)


@pytest.fixture(scope="module")
def trace():
    full = load_bench_trace(TRACE_NAME)
    return full[:100_000]


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.benchmark(group="throughput")
def test_simulation_throughput(benchmark, spec, trace):
    """One uncached cell through the sweeps' dispatch path."""
    rate = benchmark.pedantic(evaluate, args=(spec, trace), rounds=3, iterations=1)
    assert 0.0 <= rate <= 1.0
    mean = mean_seconds(benchmark)
    if mean is None:
        return
    branches_per_second = len(trace) / mean
    print(f"\n{spec}: {branches_per_second / 1e6:.2f} M branches/s")
    # sanity floor: the harness is unusable below ~100 K branches/s
    assert branches_per_second > 100_000


@pytest.mark.benchmark(group="throughput-batched")
def test_batched_kernel_throughput(benchmark, trace):
    """Lane-branches/second of the multi-lane kernel (13 lanes = one
    full history-length search at 12 index bits)."""
    rates = benchmark.pedantic(batched_rates, args=(trace,), rounds=3, iterations=1)
    assert all(0.0 <= r <= 1.0 for r in rates)
    mean = mean_seconds(benchmark)
    if mean is None:
        return
    lane_branches_per_second = len(BATCH_LANES) * len(trace) / mean
    print(f"\nbatched x{len(BATCH_LANES)}: {lane_branches_per_second / 1e6:.2f} M lane-branches/s")
    # the whole point of the kernel: clearly faster than the scalar
    # gshare step loop on the same work
    assert lane_branches_per_second > 1_000_000


@pytest.mark.benchmark(group="throughput-batched")
def test_paper_family_throughput(benchmark):
    """Lane-branches/second of the whole Figure-2/3/4 gshare family on
    a full-length trace: the family a paper sweep rates per trace, and
    an arena larger than a typical per-core L2, which the 13-lane case
    above cannot show."""
    assert len(PAPER_FAMILY) == 116
    trace = load_bench_trace(PAPER_FAMILY_TRACE)
    lanes = [kernels.kernel_for_spec(spec)[1] for spec in PAPER_FAMILY]
    rates = benchmark.pedantic(
        kernels.family_rates,
        args=("gshare", PAPER_FAMILY, lanes, trace),
        rounds=3,
        iterations=1,
    )
    assert all(0.0 <= r <= 1.0 for r in rates)
    mean = mean_seconds(benchmark)
    if mean is None:
        return
    lane_branches_per_second = len(lanes) * len(trace) / mean
    print(
        f"\npaper family x{len(lanes)} on {PAPER_FAMILY_TRACE} ({len(trace)} branches): "
        f"{lane_branches_per_second / 1e6:.2f} M lane-branches/s"
    )
    assert lane_branches_per_second > 1_000_000


@pytest.mark.benchmark(group="throughput-batched")
def test_paper_family_throughput_without_compiler(benchmark):
    """The same 116-lane family with the compiler vetoed: each lane's
    counter-major scan of packed counter maps, on a scale-0.1 trace,
    bit-identical to the default dispatch (the fused C loop when a
    compiler exists)."""
    name = PAPER_FAMILY_TRACE
    length = max(20_000, int(get_profile(name).default_length * NO_CC_SCALE))
    trace = load_benchmark(name, length=length)
    lanes = [kernels.kernel_for_spec(spec)[1] for spec in PAPER_FAMILY]
    want = kernels.family_rates("gshare", PAPER_FAMILY, lanes, trace)
    with faults.deny_compiler():
        rates = benchmark.pedantic(
            kernels.family_rates,
            args=("gshare", PAPER_FAMILY, lanes, trace),
            rounds=3,
            iterations=1,
        )
    assert rates == want
    mean = mean_seconds(benchmark)
    if mean is None:
        return
    lane_branches_per_second = len(lanes) * len(trace) / mean
    print(
        f"\npaper family x{len(lanes)} without a compiler on {name} "
        f"({len(trace)} branches): {lane_branches_per_second / 1e6:.2f} M lane-branches/s"
    )


@pytest.mark.benchmark(group="throughput-batched")
def test_batched_kernel_speedup_vs_scalar(benchmark, trace):
    """Wall-clock of the scalar engine over the same 13-configuration
    family, for a direct speedup readout against the batched group."""
    def scalar_family():
        return [run(make_predictor(s), trace).misprediction_rate for s in BATCH_SPECS]

    scalar_rates = benchmark.pedantic(scalar_family, rounds=1, iterations=1)
    assert scalar_rates == batched_rates(trace)


@pytest.mark.benchmark(group="throughput-sweep")
def test_sweep_matrix_throughput(benchmark, trace):
    """Cells/second of the (uncached) sweep matrix driver on a
    mixed gshare + bi-mode spec set — the figure benches' inner loop."""
    specs = BATCH_SPECS + ["bimode:dir=11,hist=11,choice=11"]
    traces = {TRACE_NAME: trace}
    matrix = benchmark.pedantic(
        evaluate_matrix, args=(specs, traces), rounds=1, iterations=1
    )
    assert all(0.0 <= matrix[s][TRACE_NAME] <= 1.0 for s in specs)
    mean = mean_seconds(benchmark)
    if mean is None:
        return
    cells = len(specs) * len(traces)
    cells_per_second = cells / mean
    print(f"\nsweep matrix: {cells_per_second:.1f} cells/s ({cells} cells)")
