"""Self-test of the benchmark at reduced trace length.

Checks that every declared metric is printed by name and unit, that a
perturbed output digest fails the gate, that the end-to-end times are
divided by the host's slowdown, and that the traced run's span wrappers
are in place only while installed.  Not part of the
repository's test suite (``testpaths`` is ``tests``); run it
explicitly::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402

SCALE = 0.02
SEED = 3


def bench(capfd, monkeypatch, tmp_path: Path, workload: str, trace: int, reference: dict):
    """``run.main`` at ``SCALE`` with ``reference`` as the recorded digests."""
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", path)
    code = run.main(
        [
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", "0",
            "--trace", str(trace),
            "--scale", str(SCALE),
        ]
    )
    stdout = capfd.readouterr().out
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return code, stdout, result


def assert_printed(stdout: str, result: dict, declared) -> None:
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(declared)
    for name, unit in declared:
        assert re.search(rf"^  {re.escape(name)} .* {re.escape(unit)} ", stdout, re.M), name


def test_declarations_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("workload", run.NAMES)
def test_end_to_end_metrics_printed(capfd, monkeypatch, tmp_path, workload):
    code, stdout, result = bench(capfd, monkeypatch, tmp_path, workload, 0, {})
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert_printed(stdout, result, run.END_TO_END)
    assert re.search(r"^  failed_share .* 0 +fraction ", stdout, re.M)
    assert ("paper_gap_pp" in stdout) == (workload == "rates")


@pytest.mark.parametrize("workload", run.NAMES)
def test_per_layer_metrics_printed(capfd, monkeypatch, tmp_path, workload):
    code, stdout, result = bench(capfd, monkeypatch, tmp_path, workload, 1, {})
    assert code == 0 and result["correct"]
    assert_printed(stdout, result, tracing.PER_LAYER)


def test_perturbed_digest_fails_gate(capfd, monkeypatch, tmp_path):
    _, stdout, _ = bench(capfd, monkeypatch, tmp_path, "dealiasing", 0, {})
    digest = re.search(r"output digest ([0-9a-f]{16})", stdout).group(1)

    recorded = {"dealiasing": {str(SEED): digest}}
    code, stdout, result = bench(capfd, monkeypatch, tmp_path, "dealiasing", 0, recorded)
    assert code == 0 and result["correct"]
    assert "matches the recorded digest" in stdout

    perturbed = {"dealiasing": {str(SEED): f"{int(digest, 16) ^ 1:016x}"}}
    code, stdout, result = bench(capfd, monkeypatch, tmp_path, "dealiasing", 0, perturbed)
    assert code == 1 and not result["correct"]
    assert result["failed"] > 0 and "differ from the recorded digest" in stdout


def test_wrappers_only_while_installed():
    import repro.analysis.summary as summary
    import repro.sim.runner as runner

    originals = (runner.family_rates, summary.analyze_substreams)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert runner.family_rates is not originals[0]
        assert summary.analyze_substreams is not originals[1]
    assert (runner.family_rates, summary.analyze_substreams) == originals


def test_times_divided_by_host_slowdown():
    ref = run.REFERENCE_S
    result = {
        "walls": [2.0, 3.0],
        "calibrations": [ref, 2 * ref, 2 * ref],  # host twice as slow from sweep 1 on
        "branches": 6,
        "setup_s": 1.0,
        "peak_rss_mb": 100.0,
    }
    probe = {"setup_s": 4.0, "calibrations": [2 * ref]}
    metrics = run.end_to_end(result, [result, probe])
    assert metrics["wall_s"][2] == pytest.approx([2.0 / 1.5, 3.0 / 2.0])
    assert metrics["branches_per_s"][2] == pytest.approx([6 / (2.0 / 1.5), 6 / 1.5])
    assert metrics["setup_s"][2] == pytest.approx([1.0, 2.0])
