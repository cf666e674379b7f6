"""Seed-stability analysis for synthetic-workload results.

Every conclusion in this reproduction rests on *synthetic* traces, so a
natural question is how much a result moves when the workload is
regenerated with a different seed.  This module runs a predictor spec
over several seeds of the same benchmark profile and summarizes the
spread, so benches and users can report "bi-mode beats gshare by
2.1 +/- 0.2 points across seeds" instead of a single draw.

The generator is deterministic in ``(profile, length, seed)``; seeds
vary both the program structure (behaviour assignment, schedule) and
the outcome randomness, so the spread measured here covers the whole
synthesis pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.sim.runner import evaluate
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import get_profile

__all__ = ["SeedSpread", "seed_spread", "compare_across_seeds"]


@dataclass(frozen=True)
class SeedSpread:
    """Misprediction rates of one spec across workload seeds."""

    spec: str
    benchmark: str
    rates: tuple

    @property
    def mean(self) -> float:
        return sum(self.rates) / len(self.rates)

    @property
    def std(self) -> float:
        """Sample standard deviation (0 for a single seed)."""
        n = len(self.rates)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((r - mu) ** 2 for r in self.rates) / (n - 1))

    @property
    def min(self) -> float:
        return min(self.rates)

    @property
    def max(self) -> float:
        return max(self.rates)

    def __str__(self) -> str:
        return (
            f"{self.spec} on {self.benchmark}: "
            f"{100 * self.mean:.2f}% +/- {100 * self.std:.2f} "
            f"(n={len(self.rates)})"
        )


def seed_spread(
    spec: str,
    benchmark: str,
    seeds: Sequence[int] = (0, 1, 2),
    length: Optional[int] = None,
) -> SeedSpread:
    """Rates of ``spec`` on ``benchmark`` regenerated with each seed."""
    if not seeds:
        raise ValueError("need at least one seed")
    profile = get_profile(benchmark)
    rates: List[float] = []
    for seed in seeds:
        trace = generate_trace(profile, length=length, seed=seed)
        rates.append(evaluate(spec, trace))
    return SeedSpread(spec=spec, benchmark=benchmark, rates=tuple(rates))


def compare_across_seeds(
    spec_a: str,
    spec_b: str,
    benchmark: str,
    seeds: Sequence[int] = (0, 1, 2),
    length: Optional[int] = None,
) -> Dict[str, float]:
    """Paired comparison of two specs over the same seeds.

    Returns the per-seed paired differences (a - b) summarized as
    ``{"mean_diff", "std_diff", "wins_b"}`` — ``wins_b`` counts seeds
    where ``spec_b`` had the lower rate.  Pairing on seeds removes the
    (large) workload-to-workload variance from the comparison.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    profile = get_profile(benchmark)
    diffs: List[float] = []
    wins_b = 0
    for seed in seeds:
        trace = generate_trace(profile, length=length, seed=seed)
        rate_a = evaluate(spec_a, trace)
        rate_b = evaluate(spec_b, trace)
        diffs.append(rate_a - rate_b)
        wins_b += rate_b < rate_a
    mean = sum(diffs) / len(diffs)
    if len(diffs) > 1:
        std = math.sqrt(sum((d - mean) ** 2 for d in diffs) / (len(diffs) - 1))
    else:
        std = 0.0
    return {"mean_diff": mean, "std_diff": std, "wins_b": float(wins_b)}
