"""Trial runner: medians of 30 seeded trials, like the paper's §4.3.

"The given measurements are in ms and are the median of 30 successful
tests to avoid a mean skewed by a single high or low value."
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from ..world import WorldSpec, run_world
from ..world.scenarios import SCENARIO_SPECS
from .calibration import PAPER_RESULTS_MS

#: The paper's trial count.
DEFAULT_TRIALS = 30


@dataclass
class Measurement:
    """Median outcome of one scenario, with the paper's reference value."""

    name: str
    median_ms: float
    min_ms: float
    max_ms: float
    trials: int
    paper_ms: float | None

    @property
    def ratio_to_paper(self) -> float | None:
        if self.paper_ms in (None, 0):
            return None
        return self.median_ms / self.paper_ms


def run_trials(
    spec: WorldSpec, trials: int = DEFAULT_TRIALS, **run_kwargs
) -> list[float]:
    """Run ``trials`` independent seeded worlds of ``spec`` (``run_kwargs``
    go to :func:`~repro.world.run_world`); returns latencies in ms.

    ``World.build`` never mutates a spec, so one spec serves every seed.
    """
    latencies: list[float] = []
    for seed in range(trials):
        outcome = run_world(spec, seed=seed, **run_kwargs)
        if outcome.latency_ms is None:
            raise RuntimeError(
                f"scenario {spec.name} produced no answer at seed {seed}"
            )
        latencies.append(outcome.latency_ms)
    return latencies


def measure(name: str, trials: int = DEFAULT_TRIALS, **params) -> Measurement:
    """Measure one registered scenario by name; ``params`` size its spec."""
    latencies = run_trials(SCENARIO_SPECS[name](**params), trials=trials)
    return Measurement(
        name=name,
        median_ms=statistics.median(latencies),
        min_ms=min(latencies),
        max_ms=max(latencies),
        trials=trials,
        paper_ms=PAPER_RESULTS_MS.get(name),
    )


def measure_all(trials: int = DEFAULT_TRIALS) -> list[Measurement]:
    """Measure every paper scenario (Figs. 7-9)."""
    return [measure(name, trials=trials) for name in PAPER_RESULTS_MS]


__all__ = ["Measurement", "run_trials", "measure", "measure_all", "DEFAULT_TRIALS"]
