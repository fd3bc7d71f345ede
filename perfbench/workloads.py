"""The benchmark's workloads: one ``WorldSpec`` each, run to completion.

Load exists in virtual time only; on the host each run is a batch job.
Only ``grid_mp`` uses more than one process: ``run_world_mp`` forks one
worker per district, two here.  Why each workload exists is recorded in
BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import re


def metro_slp():
    """5,000 nodes, 5 districts x 8 leaves, 44 gateways in per-district
    gossip fleets, 400 SLP chatter UAs every 200 ms.  The run length is
    cut from the scenario default (5 s) to 2.5 s of virtual time so one
    benchmark run holds several fresh-interpreter repeats."""
    from repro.world.scenarios import metro_backbone_spec

    return metro_backbone_spec(nodes=5000, run_us=2_500_000)


def media_upnp():
    """3,000 nodes, 144 advertising UPnP devices, 90 control points every
    500 ms, GENA over TCP, SLP islands and Jini corners (scenario defaults)."""
    from repro.world.scenarios import media_city_spec

    return media_city_spec(nodes=3000)


def serving_query():
    """The serving bench's headline: 20 clients, 12,000 open-loop Poisson
    queries at a 5 ms mean interval, one type in four cold."""
    from repro.world.scenarios import serving_backbone_spec

    return serving_backbone_spec(
        members=4,
        nodes=200,
        service_types=4,
        cold_types=1,
        clients_per_leaf=5,
        queries_per_client=600,
        mean_interval_us=5_000,
        run_us=4_500_000,
    )


def grid_mp():
    """``serving_grid`` at two districts x 8 leaves with 10,000 filler
    nodes: 160 intra-district clients at 20 ms and a cross-district query
    ring, about 19,000 queries in 3 s.  Each intra-district client
    alternates between its own district's type and the neighbour's; the
    unbridged districts never see each other's devices, so the second half
    is answered with a local miss, and ``fail_share`` counts thousands of
    operations rather than the handful still in flight at the end."""
    from repro.world.scenarios import serving_grid_spec
    from repro.world.spec import QueryLoad

    spec = serving_grid_spec(
        districts=2,
        leaves_per_district=8,
        nodes=10_000,
        clients_per_leaf=10,
        queries_per_client=120,
        mean_interval_us=20_000,
        run_us=3_000_000,
    )
    leaf = re.compile(r"g(\d+)l\d+$")
    workload = []
    for step in spec.workload:
        district = (
            leaf.match(step.segments[0]) if isinstance(step, QueryLoad) else None
        )
        if district is not None:
            neighbour = (int(district.group(1)) + 1) % 2
            step = dataclasses.replace(
                step, types=step.types + (f"service:grid{neighbour}",)
            )
        workload.append(step)
    return dataclasses.replace(spec, workload=tuple(workload))


#: name -> (spec factory, operations are serving queries, run_world_mp)
WORKLOADS = {
    "metro_slp": (metro_slp, False, False),
    "media_upnp": (media_upnp, False, False),
    "serving_query": (serving_query, True, False),
    "grid_mp": (grid_mp, True, True),
}
