"""Tests for the scenario catalog: determinism and paper shapes.

These run a reduced trial count (the full 30-trial medians live in
``benchmarks/``); they pin down that every scenario completes, that equal
seeds give identical virtual latencies, and that the coarse orderings the
paper reports always hold.
"""

import copy
import random
import statistics

import pytest

from repro.bench import PAPER_RESULTS_MS, measure, run_trials
from repro.world import run_world
from repro.world.scenarios import (
    SCENARIO_SPECS,
    native_slp_spec,
    native_upnp_spec,
    slp_to_upnp_client_side_spec,
    slp_to_upnp_service_side_spec,
    upnp_to_slp_client_side_spec,
    upnp_to_slp_service_side_spec,
)

from ..small_scale import small_spec


def _signature(outcome):
    return {
        "events_fired": outcome.world.scheduler.events_fired,
        "latency_us": outcome.latency_us,
        "results": outcome.results,
        "extras": outcome.extras,
    }


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(SCENARIO_SPECS))
    def test_same_seed_same_latency(self, name):
        """One spec object serves every trial of a scenario: building it
        twice gives identical runs, and ``World.build`` leaves it as it
        was."""
        spec = small_spec(name)
        pristine = copy.deepcopy(spec)
        first = run_world(spec, seed=3)
        second = run_world(spec, seed=3)
        assert spec == pristine
        assert _signature(first) == _signature(second)

    def test_different_seeds_vary(self):
        spec = native_upnp_spec()
        latencies = {run_world(spec, seed=s).latency_us for s in range(6)}
        assert len(latencies) > 1  # responder jitter varies by seed

    def test_earlier_runs_in_the_process_change_nothing(self):
        """Determinism belongs to a run: worlds run earlier in the same
        process must not move a later run's schedule or results.  Session
        ids reach the wire (translated USNs, export paths), so a counter
        shared across runs would shift payload sizes and with them the
        serialization delays of both targets."""
        targets = ("upnp_to_slp_service_side", "media_city")
        fresh = {name: _signature(run_world(small_spec(name))) for name in targets}
        prefix = [
            "metro_backbone", "churn_backbone", "district_sweep",
            "sharded_backbone", "federated_campus", "gateway_chain",
        ]
        random.Random(12).shuffle(prefix)
        for name in prefix:
            run_world(small_spec(name))
        for name in targets:
            assert _signature(run_world(small_spec(name))) == fresh[name], name


class TestCompleteness:
    @pytest.mark.parametrize("name", sorted(SCENARIO_SPECS))
    def test_scenario_yields_exactly_one_answer(self, name):
        outcome = run_world(small_spec(name), seed=0)
        if name.startswith("serving_"):
            # The serving scenarios measure an open-loop query workload,
            # not a single named probe: success is answered queries.
            assert outcome.extras["query_responses"] > 0
            assert outcome.extras["query_hit_rate"] > 0
            return
        assert outcome.latency_us is not None
        if name == "media_city":
            # A UPnP search legitimately draws several responders: the
            # matching native device plus the INDISS gateway's translated
            # answer (exported LOCATION).
            assert outcome.results >= 1
        else:
            assert outcome.results == 1


class TestPaperShapes:
    """Coarse orderings that must hold at any reasonable calibration."""

    @pytest.fixture(scope="class")
    def medians(self):
        def med(spec):
            return statistics.median(run_trials(spec, trials=7))

        return {
            "native_slp": med(native_slp_spec()),
            "native_upnp": med(native_upnp_spec()),
            "fig8a": med(slp_to_upnp_service_side_spec()),
            "fig8b": med(upnp_to_slp_service_side_spec()),
            "fig9a": med(slp_to_upnp_client_side_spec()),
            "fig9b": med(upnp_to_slp_client_side_spec()),
        }

    def test_total_order_of_scenarios(self, medians):
        # 9b < native slp < native upnp <= 8b < 8a < 9a
        assert medians["fig9b"] < medians["native_slp"]
        assert medians["native_slp"] < medians["native_upnp"]
        assert medians["native_upnp"] <= medians["fig8b"] * 1.05
        assert medians["fig8b"] < medians["fig8a"]
        assert medians["fig8a"] < medians["fig9a"]

    def test_translation_overhead_is_bounded(self, medians):
        """INDISS's own cost stays small: the translated path never costs
        more than ~2.5 native cycles (paper's worst ratio is 2: 80/40)."""
        assert medians["fig9a"] < 2.5 * medians["native_upnp"]

    def test_cold_cache_slower_than_warm(self):
        warm = statistics.median(run_trials(upnp_to_slp_client_side_spec(), trials=5))
        cold = statistics.median(
            run_trials(upnp_to_slp_client_side_spec(warm_cache=False), trials=5)
        )
        assert warm < cold


class TestHarness:
    def test_measure_populates_paper_reference(self):
        measurement = measure("native_slp", trials=3)
        assert measurement.paper_ms == PAPER_RESULTS_MS["native_slp"]
        assert measurement.trials == 3
        assert measurement.min_ms <= measurement.median_ms <= measurement.max_ms

    def test_run_trials_length(self):
        assert len(run_trials(native_slp_spec(), trials=4)) == 4
