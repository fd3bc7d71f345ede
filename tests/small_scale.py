"""Reduced sizes for the scenarios whose defaults are sized for the perf
benchmarks, not the test suite.

The behavioural tests build specs through :func:`small_spec`, so tier-1
stays fast while the benchmarks keep the full-scale defaults.
"""

from repro.world import WorldSpec
from repro.world.scenarios import SCENARIO_SPECS

SMALL_SCALE_OVERRIDES: dict[str, dict] = {
    "federated_campus": {"nodes": 120},
    "partitioned_campus": {"segments": 4, "nodes": 80},
    "sharded_backbone": {"nodes": 120},
    "metro_backbone": {
        "districts": 2,
        "leaves_per_district": 3,
        "nodes": 300,
        "chatter_per_leaf": 2,
        "run_us": 2_500_000,
    },
    "media_city": {
        "districts": 2,
        "leaves_per_district": 3,
        "nodes": 250,
        "devices_per_leaf": 3,
        "cp_per_leaf": 2,
        "run_us": 2_000_000,
    },
    "churn_backbone": {
        "members": 3,
        "nodes": 80,
        "service_types": 2,
        "churn_cycles": 2,
    },
    "district_sweep": {
        "districts": 3,
        "probe_wait_us": 2_500_000,
        "run_us": 4_000_000,
    },
    "district_grid": {
        "districts": 3,
        "leaves_per_district": 2,
        "run_us": 2_000_000,
    },
    "serving_backbone": {
        "members": 3,
        "nodes": 60,
        "service_types": 3,
        "queries_per_client": 12,
        "run_us": 2_500_000,
    },
    "serving_grid": {
        "districts": 2,
        "leaves_per_district": 1,
        "queries_per_client": 6,
        "run_us": 2_000_000,
    },
}


def small_spec(name: str, **params) -> WorldSpec:
    """The registered scenario ``name`` at test scale; ``params`` override
    individual sizes."""
    return SCENARIO_SPECS[name](**{**SMALL_SCALE_OVERRIDES.get(name, {}), **params})
