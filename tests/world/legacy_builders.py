"""FROZEN copy of the pre-redesign imperative scenario builders.

This is the golden oracle for the World API parity tests: the exact
imperative scenario module the repo shipped before scenarios became
spec-built (commit db3487a), with imports rewritten to absolute form.  Do
not refactor or \"fix\" this file -- its value is that it does not change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core import Indiss, IndissConfig
from repro.net import Network, NetworkError
from repro.sdp.slp import (
    ServiceAgent,
    ServiceType,
    SlpConfig,
    SlpRegistration,
    UserAgent,
)
from repro.sdp.upnp import CLOCK_DEVICE_TYPE, UpnpControlPoint, make_clock_device
from repro.bench.calibration import CostModel, PAPER_TESTBED


@dataclass
class ScenarioOutcome:
    """What one trial produced."""

    latency_us: Optional[int]
    results: int
    world: Network
    #: Scenario-specific measurements beyond the headline latency (the
    #: federation family reports translation counts, cache behaviour and
    #: gossip statistics here).
    extras: dict = field(default_factory=dict)

    @property
    def latency_ms(self) -> Optional[float]:
        return None if self.latency_us is None else self.latency_us / 1000.0


def _slp_config(costs: CostModel) -> SlpConfig:
    return SlpConfig(timings=costs.slp, wait_us=400_000, retries=0)


def _slp_clock_registration(host: str) -> SlpRegistration:
    return SlpRegistration(
        url=f"service:clock:soap://{host}:4005/service/timer/control",
        service_type=ServiceType.parse("service:clock:soap"),
        attributes={"friendlyName": "CyberGarage Clock Device", "modelName": "Clock"},
    )


def _indiss_config(costs: CostModel, deployment: str, answer_from_cache: bool = False,
                   seed: int = 0) -> IndissConfig:
    return IndissConfig(
        units=("slp", "upnp"),
        deployment=deployment,
        answer_from_cache=answer_from_cache,
        timings=costs.indiss,
        upnp_responder_delay_us=costs.indiss_upnp_responder_delay_us,
        upnp_wait_us=300_000,
        slp_wait_us=15_000,
        seed=seed,
    )


def _run_slp_search(net: Network, ua: UserAgent, horizon_us: int = 2_000_000) -> ScenarioOutcome:
    done: list = []
    ua.find_services("service:clock", on_complete=done.append)
    net.run(duration_us=horizon_us)
    search = done[0] if done else None
    if search is None or search.first_latency_us is None:
        return ScenarioOutcome(None, 0, net)
    return ScenarioOutcome(search.first_latency_us, len(search.results), net)


def _run_upnp_search(
    net: Network, cp: UpnpControlPoint, horizon_us: int = 2_000_000
) -> ScenarioOutcome:
    done: list = []
    cp.search(CLOCK_DEVICE_TYPE, wait_us=300_000, on_complete=done.append)
    net.run(duration_us=horizon_us)
    search = done[0] if done else None
    if search is None or search.first_latency_us is None:
        return ScenarioOutcome(None, 0, net)
    return ScenarioOutcome(search.first_latency_us, len(search.responses), net)


# -- Figure 7: native baselines -------------------------------------------------


def native_slp(seed: int = 0, costs: CostModel = PAPER_TESTBED) -> ScenarioOutcome:
    """SLP client -> SLP service, no INDISS (paper: 0.7 ms)."""
    net = Network(latency=costs.latency_model(seed))
    client_node, service_node = net.add_node("client"), net.add_node("service")
    ua = UserAgent(client_node, config=_slp_config(costs))
    sa = ServiceAgent(service_node, config=_slp_config(costs))
    sa.register(_slp_clock_registration(service_node.address))
    return _run_slp_search(net, ua)


def native_upnp(seed: int = 0, costs: CostModel = PAPER_TESTBED) -> ScenarioOutcome:
    """UPnP control point -> UPnP device, no INDISS (paper: 40 ms)."""
    net = Network(latency=costs.latency_model(seed))
    client_node, service_node = net.add_node("client"), net.add_node("service")
    cp = UpnpControlPoint(client_node, timings=costs.upnp)
    make_clock_device(service_node, timings=costs.upnp, seed=seed)
    return _run_upnp_search(net, cp)


# -- Figure 8: INDISS on the service side --------------------------------------


def slp_to_upnp_service_side(
    seed: int = 0, costs: CostModel = PAPER_TESTBED
) -> ScenarioOutcome:
    """SLP client -> [SLP-UPnP] -> UPnP service (paper: 65 ms)."""
    net = Network(latency=costs.latency_model(seed))
    client_node, service_node = net.add_node("client"), net.add_node("service")
    ua = UserAgent(client_node, config=_slp_config(costs))
    make_clock_device(service_node, timings=costs.upnp, seed=seed)
    Indiss(service_node, _indiss_config(costs, "service", seed=seed))
    return _run_slp_search(net, ua)


def upnp_to_slp_service_side(
    seed: int = 0, costs: CostModel = PAPER_TESTBED
) -> ScenarioOutcome:
    """UPnP client -> [UPnP-SLP] -> SLP service (paper: 40 ms)."""
    net = Network(latency=costs.latency_model(seed))
    client_node, service_node = net.add_node("client"), net.add_node("service")
    cp = UpnpControlPoint(client_node, timings=costs.upnp)
    sa = ServiceAgent(service_node, config=_slp_config(costs))
    sa.register(_slp_clock_registration(service_node.address))
    Indiss(service_node, _indiss_config(costs, "service", seed=seed))
    return _run_upnp_search(net, cp)


# -- Figure 9: INDISS on the client side ----------------------------------------


def slp_to_upnp_client_side(
    seed: int = 0, costs: CostModel = PAPER_TESTBED
) -> ScenarioOutcome:
    """[SLP-UPnP] client -> UPnP service across the LAN (paper: 80 ms)."""
    net = Network(latency=costs.latency_model(seed))
    client_node, service_node = net.add_node("client"), net.add_node("service")
    ua = UserAgent(client_node, config=_slp_config(costs))
    make_clock_device(service_node, timings=costs.upnp, seed=seed)
    Indiss(client_node, _indiss_config(costs, "client", seed=seed))
    return _run_slp_search(net, ua)


def upnp_to_slp_client_side(
    seed: int = 0,
    costs: CostModel = PAPER_TESTBED,
    warm_cache: bool = True,
) -> ScenarioOutcome:
    """[UPnP-SLP] client -> SLP service (paper: 0.12 ms, best case).

    The paper's figure is only reachable when INDISS already knows the SLP
    service (see DESIGN.md); ``warm_cache=True`` reproduces that by letting
    a first search populate the cache, then measuring the second, past the
    duplicate-suppression window.  ``warm_cache=False`` measures the
    cold-path variant (a network SLP round trip inside the SSDP answer).
    """
    net = Network(latency=costs.latency_model(seed))
    client_node, service_node = net.add_node("client"), net.add_node("service")
    cp = UpnpControlPoint(client_node, timings=costs.upnp)
    sa = ServiceAgent(service_node, config=_slp_config(costs))
    sa.register(_slp_clock_registration(service_node.address))
    indiss = Indiss(
        client_node,
        _indiss_config(costs, "client", answer_from_cache=warm_cache, seed=seed),
    )
    if warm_cache:
        priming: list = []
        cp.search(CLOCK_DEVICE_TYPE, wait_us=300_000, on_complete=priming.append)
        net.run(duration_us=2_500_000)  # past the dedup window, cache warm
        assert len(indiss.cache) >= 1, "priming search failed to warm the cache"
    return _run_upnp_search(net, cp)


# -- Gateway placement (paper §4.2's dedicated-node configuration) ---------------


def slp_to_upnp_gateway(seed: int = 0, costs: CostModel = PAPER_TESTBED) -> ScenarioOutcome:
    """SLP client -> gateway INDISS -> UPnP service (our ablation)."""
    net = Network(latency=costs.latency_model(seed))
    client_node = net.add_node("client")
    service_node = net.add_node("service")
    gateway_node = net.add_node("gateway")
    ua = UserAgent(client_node, config=_slp_config(costs))
    make_clock_device(service_node, timings=costs.upnp, seed=seed)
    Indiss(gateway_node, _indiss_config(costs, "gateway", seed=seed))
    return _run_slp_search(net, ua)


def slp_to_jini_gateway(seed: int = 0, costs: CostModel = PAPER_TESTBED) -> ScenarioOutcome:
    """SLP client -> gateway INDISS -> Jini registrar (our ablation).

    Jini is repository-based: the gateway first hears the registrar's
    announcement, then serves the SLP request with a unicast TCP lookup.
    """
    from repro.core import Indiss, IndissConfig
    from repro.sdp.jini import JiniTimings, LookupService, ServiceItem

    net = Network(latency=costs.latency_model(seed))
    client_node = net.add_node("client")
    registrar_node = net.add_node("registrar")
    gateway_node = net.add_node("gateway")
    ua = UserAgent(client_node, config=_slp_config(costs))
    registrar = LookupService(registrar_node, timings=JiniTimings())
    registrar.registry["sid-clock"] = ServiceItem(
        service_id="sid-clock",
        class_names=("org.amigo.Clock",),
        attributes={"friendlyName": "Jini Clock"},
        endpoint_url=f"jini://{registrar_node.address}:4161/clock",
    )
    config = IndissConfig(
        units=("slp", "jini"),
        deployment="gateway",
        timings=costs.indiss,
        slp_wait_us=15_000,
        seed=seed,
    )
    Indiss(gateway_node, config)
    net.run(duration_us=1_500_000)  # hear at least one announcement
    return _run_slp_search(net, ua)


# -- Multi-segment internetworks (gateway placement at network boundaries) -------
#
# The paper's §4.2 placement analysis becomes interesting at scale when
# INDISS instances sit on boundaries *between* networks.  These scenarios
# exercise the segment/bridge/router layer: multicast stays confined to a
# LAN segment, and discovery crosses segments only through bridged INDISS
# gateways running the gateway-forward dispatch policy.


def _gateway_chain_config(costs: CostModel, seed: int = 0) -> IndissConfig:
    """Config for a bridged gateway: forward dispatch plus waits sized for
    multi-hop convergence.  Deep chains converge because the SLP unit
    bounds its recursive AttrRqst stall (``attr_wait_us``), so each hop
    adds tens of milliseconds rather than a full convergence window."""
    return IndissConfig(
        units=("slp", "upnp"),
        deployment="gateway",
        dispatch="gateway-forward",
        timings=costs.indiss,
        upnp_responder_delay_us=costs.indiss_upnp_responder_delay_us,
        upnp_wait_us=300_000,
        slp_wait_us=350_000,
        seed=seed,
    )


def _populate_background_nodes(net: Network, total_nodes: int) -> None:
    """Fill segments round-robin with idle hosts up to ``total_nodes``.

    A segment whose subnet is exhausted is skipped (deterministically), so
    thousand-node runs overflow onto the segments that still have room
    instead of dying on the first full /24.
    """
    segments = list(net.segments.values())
    existing = len(net.nodes)
    for i in range(max(0, total_nodes - existing)):
        segment = segments[i % len(segments)]
        if not segment.has_free_address():
            open_segments = [s for s in segments if s.has_free_address()]
            if not open_segments:
                raise NetworkError(
                    f"all subnets exhausted after {len(net.nodes)} nodes; "
                    f"use wider (two-octet) segment subnets for this scale"
                )
            segment = open_segments[i % len(open_segments)]
        net.add_node(f"bg-{segment.name}-{i}", segment=segment)


def multi_segment_home(
    seed: int = 0,
    costs: CostModel = PAPER_TESTBED,
    nodes: int = 50,
    capture: bool = False,
) -> ScenarioOutcome:
    """Two-segment home: SLP client upstairs, UPnP service in the den.

    One INDISS gateway host is bridged across both LANs; background hosts
    pad the segments to ``nodes`` total.
    """
    net = Network(latency=costs.latency_model(seed), capture=capture)
    den = net.add_segment("den", latency=costs.latency_model(seed + 1000))
    net.link(net.default_segment, den)
    client_node = net.add_node("client")
    service_node = net.add_node("service", segment=den)
    gateway_node = net.add_node("gateway")
    net.bridge(gateway_node, den)
    ua = UserAgent(client_node, config=_slp_config(costs))
    make_clock_device(service_node, timings=costs.upnp, seed=seed)
    Indiss(gateway_node, _gateway_chain_config(costs, seed=seed))
    _populate_background_nodes(net, nodes)
    return _run_slp_search(net, ua)


def gateway_chain(
    seed: int = 0,
    costs: CostModel = PAPER_TESTBED,
    segments: int = 3,
    capture: bool = False,
) -> ScenarioOutcome:
    """SLP client on the first segment, UPnP service on the last, and a
    bridged INDISS gateway on every boundary in between.

    With three segments the request crosses *two* gateways: the client's
    SrvRqst never leaves segment A; gateway A-B re-issues it natively, the
    M-SEARCH hops B, gateway B-C re-issues again, and the replies unwind
    back down the chain.
    """
    if segments < 2:
        raise ValueError("gateway_chain needs at least two segments")
    net = Network(latency=costs.latency_model(seed), capture=capture)
    chain = [net.default_segment]
    for i in range(1, segments):
        chain.append(net.add_segment(f"seg{i}", latency=costs.latency_model(seed + i)))
        net.link(chain[i - 1], chain[i])
    client_node = net.add_node("client", segment=chain[0])
    service_node = net.add_node("service", segment=chain[-1])
    for i in range(segments - 1):
        gateway_node = net.add_node(f"gateway{i}", segment=chain[i])
        net.bridge(gateway_node, chain[i + 1])
        Indiss(gateway_node, _gateway_chain_config(costs, seed=seed + i))
    ua = UserAgent(client_node, config=_slp_config(costs))
    make_clock_device(service_node, timings=costs.upnp, seed=seed)
    return _run_slp_search(net, ua, horizon_us=3_000_000)


def campus_fanout(
    seed: int = 0,
    costs: CostModel = PAPER_TESTBED,
    segments: int = 6,
    nodes: int = 120,
    capture: bool = False,
) -> ScenarioOutcome:
    """A campus backbone with leaf LANs, one bridged gateway per leaf.

    The SLP client sits on the first leaf, the UPnP service on the last;
    every other leaf contributes gateways and background hosts, so one
    discovery fans out across the whole backbone and converges through
    exactly two gateway translations (client leaf -> backbone -> service
    leaf).
    """
    if segments < 3:
        raise ValueError("campus_fanout needs a backbone plus at least two leaves")
    net = Network(latency=costs.latency_model(seed), capture=capture)
    backbone = net.default_segment
    leaves = []
    for i in range(segments - 1):
        leaf = net.add_segment(f"leaf{i}", latency=costs.latency_model(seed + 1 + i))
        net.link(backbone, leaf)
        leaves.append(leaf)
        gateway_node = net.add_node(f"gateway{i}", segment=leaf)
        net.bridge(gateway_node, backbone)
        Indiss(gateway_node, _gateway_chain_config(costs, seed=seed + i))
    client_node = net.add_node("client", segment=leaves[0])
    service_node = net.add_node("service", segment=leaves[-1])
    ua = UserAgent(client_node, config=_slp_config(costs))
    make_clock_device(service_node, timings=costs.upnp, seed=seed)
    _populate_background_nodes(net, nodes)
    return _run_slp_search(net, ua, horizon_us=3_000_000)


# -- Federated gateway fleets (gossip + shard ring + election) -------------------
#
# PR 1 left every backbone gateway re-discovering every service on its own
# (`campus_fanout` shows each leaf gateway translating each backbone
# request).  The federation family runs the same topologies with the
# gateways joined into a `GatewayFleet`: the `shard-ring` dispatch policy
# partitions service types across the fleet, `CacheGossiper` replicates
# discovered records, and the utilization elector picks the single
# responder per backbone request.  These scenarios scale to 500-2000 nodes
# thanks to the per-segment multicast membership indexes.


def _federated_gateway_config(costs: CostModel, seed: int = 0) -> IndissConfig:
    """A fleet member: shard-ring dispatch, waits sized like a chain
    gateway.  ``answer_from_cache`` stays off so edge requests re-validate
    through the fleet; the warm-edge measurement phase flips it on."""
    return IndissConfig(
        units=("slp", "upnp"),
        deployment="gateway",
        dispatch="shard-ring",
        timings=costs.indiss,
        upnp_responder_delay_us=costs.indiss_upnp_responder_delay_us,
        upnp_wait_us=300_000,
        slp_wait_us=350_000,
        seed=seed,
    )


def _build_campus_fleet(
    seed: int,
    costs: CostModel,
    segments: int,
    nodes: int,
    gossip_period_us: Optional[int],
    federated: bool,
    capture: bool,
    wide_subnets: bool = False,
):
    """Backbone + leaves, one gateway per leaf; optionally federated.

    Returns (net, leaves, instances, fleet) — fleet is None for the
    unfederated (PR 1 style) baseline at the same scale.  ``wide_subnets``
    puts each leaf on a /16 so thousand-node fills do not exhaust the
    per-segment address space.
    """
    from repro.federation import GatewayFleet

    if segments < 3:
        raise ValueError("the campus needs a backbone plus at least two leaves")
    net = Network(latency=costs.latency_model(seed), capture=capture)
    backbone = net.default_segment
    leaves = []
    instances = []
    for i in range(segments - 1):
        leaf = net.add_segment(
            f"leaf{i}",
            subnet=f"10.{i + 1}" if wide_subnets else None,
            latency=costs.latency_model(seed + 1 + i),
        )
        net.link(backbone, leaf)
        leaves.append(leaf)
        gateway_node = net.add_node(f"gateway{i}", segment=leaf)
        net.bridge(gateway_node, backbone)
        if federated:
            config = _federated_gateway_config(costs, seed=seed + i)
        else:
            config = _gateway_chain_config(costs, seed=seed + i)
        instances.append(Indiss(gateway_node, config))
    fleet = None
    if federated:
        fleet = GatewayFleet(net, backbone)
        for instance in instances:
            fleet.join(instance, gossip_period_us=gossip_period_us)
    _populate_background_nodes(net, nodes)
    return net, leaves, instances, fleet


def _hotpath_stats(net: Network, instances) -> dict:
    """Core hot-path counters the perf benchmarks read.

    Written defensively with ``getattr`` so the same benchmark script can
    measure a pre-optimization core (no wheel compactions, no route cache,
    no parse memo) and report zeros instead of crashing — that is what the
    committed baseline was produced with.

    ``parse_dedup_rate`` is decode-level across *every* memo-aware
    receiver (native endpoints and units alike, from the network's
    per-protocol :class:`~repro.net.ParseCounter` registry): the fraction
    of (receiver, frame) observations served from a shared or seeded
    decode instead of running a codec.  Per-protocol rates ride along as
    ``parse_dedup_rate_<proto>`` so the win is attributable per SDP.  The
    unit-level stream counters (``streams_parsed``/``streams_shared``)
    keep their PR-3 meaning.
    """
    sched = net.scheduler
    units = [u for inst in instances for u in inst.units.values()]
    parsed = sum(u.streams_parsed for u in units)
    shared = sum(getattr(u, "streams_shared", 0) for u in units)
    hits = getattr(net, "route_cache_hits", 0)
    misses = getattr(net, "route_cache_misses", 0)
    row = {
        "events_fired": sched.events_fired,
        "sched_compactions": getattr(sched, "compactions", 0),
        "route_cache_hits": hits,
        "route_cache_misses": misses,
        "route_cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "streams_parsed": parsed,
        "streams_shared": shared,
        "parse_dedup_rate": shared / (parsed + shared) if parsed + shared else 0.0,
    }
    counters = getattr(net, "parse_stats", None) or {}
    if counters:
        decoded_total = sum(c.decoded for c in counters.values())
        shared_total = sum(c.shared for c in counters.values())
        row["parse_decoded"] = decoded_total
        row["parse_shared"] = shared_total
        row["parse_seeded"] = sum(c.seeded for c in counters.values())
        if decoded_total + shared_total:
            row["parse_dedup_rate"] = shared_total / (decoded_total + shared_total)
        for proto, counter in sorted(counters.items()):
            row[f"parse_dedup_rate_{proto}"] = round(counter.dedup_rate, 4)
    return row


def _start_chatter(
    net: Network,
    leaves,
    type_names,
    costs: CostModel,
    per_leaf: int,
    period_us: int,
    start_delay_us: int = 200_000,
) -> list[dict]:
    """Background native SLP clients spread across the leaf segments.

    Each client periodically re-searches one of ``type_names`` (round-robin
    assignment, staggered start) — the steady query load that makes the
    thousand-node scenarios exercise the scheduler, routing, and receive
    paths instead of idling.  Returns one accounting dict per client.
    """
    chatter: list[dict] = []
    total = max(1, len(leaves) * per_leaf)
    idx = 0
    for leaf in leaves:
        for j in range(per_leaf):
            node = net.add_node(f"chat-{leaf.name}-{j}", segment=leaf)
            ua = UserAgent(node, config=_slp_config(costs))
            target = type_names[idx % len(type_names)]
            stats = {"target": target, "issued": 0, "completed": 0, "found": 0}

            def kick(ua=ua, target=target, stats=stats) -> None:
                stats["issued"] += 1

                def done(search, stats=stats) -> None:
                    stats["completed"] += 1
                    if search.results:
                        stats["found"] += 1

                ua.find_services(f"service:{target}", on_complete=done)

            node.every(
                period_us,
                kick,
                initial_delay_us=start_delay_us + (idx * period_us) // total,
            )
            chatter.append(stats)
            idx += 1
    return chatter


def _chatter_extras(chatter: list[dict]) -> dict:
    issued = sum(c["issued"] for c in chatter)
    completed = sum(c["completed"] for c in chatter)
    found = sum(c["found"] for c in chatter)
    return {
        "chatter_clients": len(chatter),
        "chatter_searches_issued": issued,
        "chatter_searches_completed": completed,
        "chatter_found_rate": found / completed if completed else 0.0,
    }


def _fleet_extras(instances, fleet) -> dict:
    extras = {
        "fleet_size": len(instances),
        "translations_total": sum(i.stats.translated for i in instances),
        "cache_hits": sum(i.cache.hits for i in instances),
        "cache_misses": sum(i.cache.misses for i in instances),
        "cache_sizes": {i.node.address: len(i.cache) for i in instances},
    }
    if fleet is not None:
        extras["federation"] = fleet.aggregate_stats()
        extras["gossip"] = fleet.aggregate_gossip_stats()
        extras["election_flaps"] = fleet.elector.flaps
        extras["session_retries"] = sum(i.stats.retries for i in instances)
        extras["session_gave_up"] = sum(i.stats.gave_up for i in instances)
    return extras


def federated_campus(
    seed: int = 0,
    costs: CostModel = PAPER_TESTBED,
    segments: int = 6,
    nodes: int = 500,
    gossip_period_us: int = 200_000,
    warmup_us: int = 1_500_000,
    federated: bool = True,
    capture: bool = False,
) -> ScenarioOutcome:
    """The campus backbone with the leaf gateways running as one fleet.

    The UPnP clock device announces itself at boot; its leaf gateway caches
    the advertisement and gossip replicates it fleet-wide during the warmup
    window.  Three queries are then measured:

    1. a **cold-edge query** (the headline latency): the client's leaf
       gateway translates once, the ring owner performs the only backbone
       translation, and the elected responder answers from the gossiped
       cache — duplicate translations collapse to <= 1 owner + elected
       responder (``extras["query_translations"]``);
    2. a **repeat query** inside the dedup window, answered from the edge
       gateway's cache with zero new translations
       (``extras["repeat_*"]``);
    3. a **warm-edge query** with ``answer_from_cache`` enabled: the edge
       gateway answers purely from the gossip-replicated record — the
       Fig. 9b best case for a service it never discovered itself
       (``extras["warm_edge_*"]``).

    ``federated=False`` builds the identical topology with plain
    ``gateway-forward`` gateways — the PR 1 baseline the benchmarks
    compare against.
    """
    net, leaves, instances, fleet = _build_campus_fleet(
        seed, costs, segments, nodes, gossip_period_us, federated, capture,
        wide_subnets=nodes > 200 * segments,
    )
    client_node = net.add_node("client", segment=leaves[0])
    service_node = net.add_node("service", segment=leaves[-1])
    ua = UserAgent(client_node, config=_slp_config(costs))
    make_clock_device(service_node, timings=costs.upnp, seed=seed, advertise=True)

    net.run(duration_us=warmup_us)
    warm_members = sum(1 for i in instances if len(i.cache) > 0)
    translated_before = sum(i.stats.translated for i in instances)

    outcome = _run_slp_search(net, ua, horizon_us=1_500_000)
    extras = _fleet_extras(instances, fleet)
    extras["warm_members_after_gossip"] = warm_members
    extras["query_translations"] = (
        sum(i.stats.translated for i in instances) - translated_before
    )

    # Repeat query inside the dedup window: the edge gateway must answer
    # from its cache without any fleet re-discovery.
    edge = instances[0]
    cache_answers_before = edge.stats.answered_from_cache
    translated_before = sum(i.stats.translated for i in instances)
    repeat: list = []
    ua.find_services("service:clock", on_complete=repeat.append)
    net.run(duration_us=1_000_000)
    repeat_search = repeat[0] if repeat else None
    extras["repeat_results"] = len(repeat_search.results) if repeat_search else 0
    extras["repeat_latency_us"] = (
        repeat_search.first_latency_us if repeat_search else None
    )
    extras["repeat_cache_answers"] = (
        edge.stats.answered_from_cache - cache_answers_before
    )
    extras["repeat_translations"] = (
        sum(i.stats.translated for i in instances) - translated_before
    )

    # Warm-edge phase: past the dedup window, with cache answering enabled,
    # the gossiped record alone serves the query.
    for instance in instances:
        instance.config.answer_from_cache = True
    net.run(duration_us=2_500_000)
    translated_before = sum(i.stats.translated for i in instances)
    warm: list = []
    ua.find_services("service:clock", on_complete=warm.append)
    net.run(duration_us=1_000_000)
    warm_search = warm[0] if warm else None
    extras["warm_edge_results"] = len(warm_search.results) if warm_search else 0
    extras["warm_edge_latency_us"] = (
        warm_search.first_latency_us if warm_search else None
    )
    extras["warm_edge_translations"] = (
        sum(i.stats.translated for i in instances) - translated_before
    )

    outcome.extras = extras
    return outcome


def _make_typed_device(node, type_name: str, costs: CostModel, seed: int,
                       advertise: bool, notify_period_us: int | None = None,
                       udn_suffix: str = ""):
    """A one-service UPnP device of a synthetic ``type_name`` type."""
    from repro.sdp.upnp import DeviceDescription, ServiceDescription, UpnpDevice

    description = DeviceDescription(
        device_type=f"urn:schemas-upnp-org:device:{type_name}:1",
        friendly_name=f"Sensor {type_name}",
        udn=f"uuid:{type_name}-device{udn_suffix}",
        manufacturer="INDISS bench",
        model_name=type_name,
        services=[
            ServiceDescription(
                service_type=f"urn:schemas-upnp-org:service:{type_name}:1",
                service_id=f"urn:upnp-org:serviceId:{type_name}:1",
                scpd_url=f"/service/{type_name}/scpd.xml",
                control_url=f"/service/{type_name}/control",
                event_sub_url=f"/service/{type_name}/event",
            )
        ],
    )
    kwargs = {}
    if notify_period_us is not None:
        kwargs["notify_period_us"] = notify_period_us
    return UpnpDevice(
        node, description, timings=costs.upnp, seed=seed, advertise=advertise,
        **kwargs,
    )


def sharded_backbone(
    seed: int = 0,
    costs: CostModel = PAPER_TESTBED,
    members: int = 6,
    nodes: int = 800,
    service_types: int = 4,
    gossip_period_us: int = 200_000,
    warmup_us: int = 1_500_000,
    chatter_per_leaf: int = 0,
    chatter_period_us: int = 400_000,
    capture: bool = False,
) -> ScenarioOutcome:
    """Many service types sharded across a fleet on one backbone.

    ``members`` leaf gateways federate over the backbone; ``service_types``
    UPnP devices of distinct types live behind them.  Even-indexed types
    announce at boot (gossip warms the fleet; the elected responder answers
    their queries from cache with zero translations), odd-indexed types
    stay silent and are placed in their ring owner's leaf (their queries
    cost exactly one owner translation).  SLP clients on the backbone then
    search every type at once; ``extras["per_type"]`` records who owned and
    answered each, and ``extras["query_translations"]`` must stay at or
    below one per cold type.

    ``chatter_per_leaf`` adds that many background SLP clients per leaf,
    each re-searching a gossip-warmed type every ``chatter_period_us`` — the
    sustained edge load the core-hot-path benchmarks measure events/sec
    under.  Chatter only ever asks for warm (even-indexed) types, so the
    cold-type accounting above stays exact.
    """
    if members < 2:
        raise ValueError("sharded_backbone needs at least two fleet members")
    if service_types < 1:
        raise ValueError("sharded_backbone needs at least one service type")
    net, leaves, instances, fleet = _build_campus_fleet(
        seed, costs, members + 1, 0, gossip_period_us, True, capture,
        wide_subnets=nodes > 200 * (members + 1),
    )
    leaf_of = {instance.node.address: leaf for instance, leaf in zip(instances, leaves)}

    def make_typed_device(node, type_name: str, advertise: bool):
        return _make_typed_device(node, type_name, costs, seed, advertise)

    type_names = [f"sensor{i}" for i in range(service_types)]
    placements: dict[str, str] = {}
    for i, type_name in enumerate(type_names):
        warm = i % 2 == 0
        if warm:
            leaf = leaves[i % members]
        else:
            # Cold types must live where their ring owner can reach them.
            leaf = leaf_of[fleet.ring.owner(type_name)]
        device_node = net.add_node(f"device-{type_name}", segment=leaf)
        make_typed_device(device_node, type_name, advertise=warm)
        placements[type_name] = leaf.name
    clients = [
        UserAgent(net.add_node(f"client-{name}"), config=_slp_config(costs))
        for name in type_names
    ]
    chatter: list[dict] = []
    if chatter_per_leaf > 0:
        warm_types = type_names[0::2] or type_names
        chatter = _start_chatter(
            net, leaves, warm_types, costs, chatter_per_leaf, chatter_period_us
        )
    _populate_background_nodes(net, nodes)

    net.run(duration_us=warmup_us)
    translated_before = sum(i.stats.translated for i in instances)
    searches: dict[str, list] = {name: [] for name in type_names}
    for client, name in zip(clients, type_names):
        client.find_services(f"service:{name}", on_complete=searches[name].append)
    net.run(duration_us=2_500_000)

    per_type = {}
    for i, name in enumerate(type_names):
        search = searches[name][0] if searches[name] else None
        per_type[name] = {
            "warm": i % 2 == 0,
            "owner": fleet.ring.owner(name),
            "placed_on": placements[name],
            "results": len(search.results) if search else 0,
            "latency_us": search.first_latency_us if search else None,
        }
    extras = _fleet_extras(instances, fleet)
    extras["per_type"] = per_type
    extras["query_translations"] = (
        sum(i.stats.translated for i in instances) - translated_before
    )
    extras["owner_spread"] = fleet.ring.spread(type_names)
    extras["hotpaths"] = _hotpath_stats(net, instances)
    if chatter:
        extras.update(_chatter_extras(chatter))

    first = searches[type_names[0]][0] if searches[type_names[0]] else None
    if first is None or first.first_latency_us is None:
        outcome = ScenarioOutcome(None, 0, net)
    else:
        outcome = ScenarioOutcome(first.first_latency_us, len(first.results), net)
    outcome.extras = extras
    return outcome


# -- Metro-scale internetwork (the core hot-path stress workload) ----------------


def metro_backbone(
    seed: int = 0,
    costs: CostModel = PAPER_TESTBED,
    districts: int = 5,
    leaves_per_district: int = 8,
    nodes: int = 5000,
    types_per_district: int = 4,
    chatter_per_leaf: int = 10,
    chatter_period_us: int = 200_000,
    gossip_period_us: int = 250_000,
    warmup_us: int = 1_200_000,
    run_us: int = 5_000_000,
    capture: bool = False,
) -> ScenarioOutcome:
    """A city-scale internetwork: chained district backbones, each with its
    own federated gateway fleet, under sustained edge query load.

    Topology: ``districts`` backbone segments linked in a chain; each
    district hangs ``leaves_per_district`` leaf LANs off its backbone with
    one fleet gateway per leaf (bridged leaf+backbone, ``shard-ring``
    dispatch, per-district :class:`~repro.federation.GatewayFleet`), and a
    plain ``gateway-forward`` INDISS instance bridges each pair of adjacent
    backbones.  Every segment sits on a /16 so the topology holds thousands
    of hosts.

    Load: ``types_per_district`` advertising UPnP devices per district plus
    ``chatter_per_leaf`` native SLP clients per leaf re-searching their
    district's types every ``chatter_period_us``.  At the default 5000
    nodes this fires hundreds of thousands of scheduler events — the
    workload the compacting wheel scheduler, route-plan cache, and
    parse-once receive path are measured against (``extras["hotpaths"]``).

    Headline latency is an intra-district probe issued after warmup; a
    cross-district probe (district 0 asking for a type two districts over,
    crossing two inter-district gateways within the default hop budget) is
    reported in the extras.
    """
    if districts < 2:
        raise ValueError("metro_backbone needs at least two districts")
    if leaves_per_district < 1 or types_per_district < 1:
        raise ValueError("metro_backbone needs at least one leaf and one type")
    # Leaf subnets are 10.1 .. 10.199; backbones take 10.200 .. 10.255.
    if districts * leaves_per_district > 199:
        raise ValueError(
            "metro_backbone supports at most 199 leaves total "
            f"(got {districts * leaves_per_district}): leaf /16 subnets "
            "10.1-10.199 must not collide with backbone subnets 10.200+"
        )
    if districts > 56:
        raise ValueError("metro_backbone supports at most 56 districts")
    net = Network(
        latency=costs.latency_model(seed), subnet="10.200", capture=capture
    )
    backbones = [net.default_segment]
    for d in range(1, districts):
        backbone = net.add_segment(
            f"metro{d}", subnet=f"10.{200 + d}",
            latency=costs.latency_model(seed + 10 + d),
        )
        net.link(backbones[d - 1], backbone)
        backbones.append(backbone)

    instances = []
    fleets = []
    district_leaves: list[list] = []
    district_types: list[list[str]] = []
    from repro.federation import GatewayFleet

    for d, backbone in enumerate(backbones):
        leaves = []
        for l in range(leaves_per_district):
            leaf = net.add_segment(
                f"d{d}l{l}", subnet=f"10.{d * leaves_per_district + l + 1}",
                latency=costs.latency_model(seed + 100 * d + l),
            )
            net.link(backbone, leaf)
            leaves.append(leaf)
            gateway_node = net.add_node(f"gw-d{d}l{l}", segment=leaf)
            net.bridge(gateway_node, backbone)
            instance = Indiss(
                gateway_node, _federated_gateway_config(costs, seed=seed + 100 * d + l)
            )
            instances.append(instance)
        district_leaves.append(leaves)
        fleet = GatewayFleet(net, backbone)
        for instance in instances[-leaves_per_district:]:
            fleet.join(instance, gossip_period_us=gossip_period_us)
        fleets.append(fleet)
        type_names = [f"m{d}t{t}" for t in range(types_per_district)]
        district_types.append(type_names)
        for t, type_name in enumerate(type_names):
            device_node = net.add_node(
                f"dev-{type_name}", segment=leaves[t % leaves_per_district]
            )
            _make_typed_device(device_node, type_name, costs, seed, advertise=True)

    for d in range(districts - 1):
        inter_node = net.add_node(f"inter-{d}{d + 1}", segment=backbones[d])
        net.bridge(inter_node, backbones[d + 1])
        instances.append(
            Indiss(inter_node, _gateway_chain_config(costs, seed=seed + 900 + d))
        )

    chatter: list[dict] = []
    for d in range(districts):
        chatter.extend(
            _start_chatter(
                net, district_leaves[d], district_types[d], costs,
                chatter_per_leaf, chatter_period_us,
            )
        )
    _populate_background_nodes(net, nodes)

    net.run(duration_us=warmup_us)

    # Intra-district probe (headline) + cross-district probe (extras).
    probe_node = net.add_node("probe-local", segment=district_leaves[0][0])
    probe_ua = UserAgent(probe_node, config=_slp_config(costs))
    local_done: list = []
    probe_ua.find_services(
        f"service:{district_types[0][0]}", on_complete=local_done.append
    )
    far_district = min(2, districts - 1)
    far_node = net.add_node("probe-far", segment=district_leaves[0][1 % leaves_per_district])
    far_ua = UserAgent(far_node, config=_slp_config(costs))
    far_done: list = []
    far_ua.find_services(
        f"service:{district_types[far_district][0]}",
        on_complete=far_done.append,
        wait_us=1_500_000,
    )

    net.run(duration_us=run_us)

    local = local_done[0] if local_done else None
    if local is None or local.first_latency_us is None:
        outcome = ScenarioOutcome(None, 0, net)
    else:
        outcome = ScenarioOutcome(local.first_latency_us, len(local.results), net)
    far = far_done[0] if far_done else None
    outcome.extras = {
        "districts": districts,
        "gateways": len(instances),
        "total_nodes": len(net.nodes),
        "cross_district_results": len(far.results) if far else 0,
        "cross_district_latency_us": far.first_latency_us if far else None,
        "hotpaths": _hotpath_stats(net, instances),
        **_chatter_extras(chatter),
    }
    return outcome


# -- Media city (the UPnP-dominated parse-once stress workload) -------------------


def media_city(
    seed: int = 0,
    costs: CostModel = PAPER_TESTBED,
    districts: int = 3,
    leaves_per_district: int = 6,
    nodes: int = 3000,
    types_per_district: int = 4,
    devices_per_leaf: int = 8,
    cp_per_leaf: int = 5,
    cp_period_us: int = 500_000,
    notify_period_us: int = 1_200_000,
    slp_island_leaves: int = 2,
    slp_chatter_per_island: int = 5,
    slp_chatter_period_us: int = 400_000,
    jini_registrars_per_district: int = 1,
    jini_listeners_per_district: int = 3,
    gossip_period_us: int = 250_000,
    warmup_us: int = 800_000,
    run_us: int = 4_000_000,
    capture: bool = False,
    parse_once: bool = True,
) -> ScenarioOutcome:
    """A UPnP-dominated 3000+ node internetwork: the parse-once workload.

    Topology mirrors :func:`metro_backbone` (chained district backbones,
    /16 leaf LANs, one shard-ring fleet gateway per leaf, gateway-forward
    bridges between districts) but the traffic mix is dominated by native
    UPnP **device fleets**: ``devices_per_leaf`` root devices per leaf
    multicasting periodic ``NOTIFY ssdp:alive`` bursts, plus
    ``cp_per_leaf`` control points re-issuing M-SEARCHes every
    ``cp_period_us`` and GENA-style eventing chatter (one subscriber per
    district receiving periodic state-variable pushes).  Mixed in are SLP
    islands (a service agent plus chatter user agents on the first
    ``slp_island_leaves`` leaves of each district) and a Jini corner per
    district (announcing registrars plus passive discovery listeners), so
    all three protocol families exercise their shared-decode paths at
    once.  Gateways run all three units.

    Every SSDP alive/byebye/search frame here fans out to a dozen
    co-segment receivers (sibling devices, control points, the gateway
    monitor); with parse-once each frame is decoded at most once —
    usually zero times, since senders seed their frames — which is what
    ``extras["hotpaths"]["parse_dedup_rate"]`` measures.
    ``parse_once=False`` runs the identical workload with the null frame
    memo (every receiver decodes), the A/B baseline the benchmarks price
    the machinery against.

    Headline latency is a control-point search on district 0 issued after
    warmup.
    """
    if districts < 1 or leaves_per_district < 1:
        raise ValueError("media_city needs at least one district and leaf")
    if districts * leaves_per_district > 199:
        raise ValueError("media_city supports at most 199 leaves total")
    if districts > 56:
        # Backbone subnets are 10.{200+d}; octets must stay <= 255.
        raise ValueError("media_city supports at most 56 districts")
    from repro.federation import GatewayFleet

    net = Network(
        latency=costs.latency_model(seed), subnet="10.200", capture=capture,
        parse_once=parse_once,
    )
    backbones = [net.default_segment]
    for d in range(1, districts):
        backbone = net.add_segment(
            f"city{d}", subnet=f"10.{200 + d}",
            latency=costs.latency_model(seed + 10 + d),
        )
        net.link(backbones[d - 1], backbone)
        backbones.append(backbone)

    def gateway_config(member_seed: int) -> IndissConfig:
        return IndissConfig(
            units=("slp", "upnp", "jini"),
            deployment="gateway",
            dispatch="shard-ring",
            timings=costs.indiss,
            upnp_responder_delay_us=costs.indiss_upnp_responder_delay_us,
            upnp_wait_us=300_000,
            slp_wait_us=350_000,
            seed=member_seed,
        )

    instances = []
    devices = []
    cp_stats: list[dict] = []
    gena_subscribers = []
    district_leaves: list[list] = []
    district_types: list[list[str]] = []
    slp_chatter: list[dict] = []
    #: Global control-point index: the kick stagger below divides one
    #: period across the whole fleet, so it must keep counting across
    #: districts (a per-district reset would synchronize district
    #: cohorts into cross-district bursts).
    cp_index = 0

    for d, backbone in enumerate(backbones):
        leaves = []
        for l in range(leaves_per_district):
            leaf = net.add_segment(
                f"c{d}l{l}", subnet=f"10.{d * leaves_per_district + l + 1}",
                latency=costs.latency_model(seed + 100 * d + l),
            )
            net.link(backbone, leaf)
            leaves.append(leaf)
            gateway_node = net.add_node(f"gw-c{d}l{l}", segment=leaf)
            net.bridge(gateway_node, backbone)
            instances.append(Indiss(gateway_node, gateway_config(seed + 100 * d + l)))
        district_leaves.append(leaves)
        fleet = GatewayFleet(net, backbone)
        for instance in instances[-leaves_per_district:]:
            fleet.join(instance, gossip_period_us=gossip_period_us)

        type_names = [f"media{d}t{t}" for t in range(types_per_district)]
        district_types.append(type_names)

        # Device fleets: every leaf hosts several advertising root devices
        # cycling through the district's types.
        for l, leaf in enumerate(leaves):
            for i in range(devices_per_leaf):
                type_name = type_names[(l * devices_per_leaf + i) % len(type_names)]
                device_node = net.add_node(f"dev-c{d}l{l}n{i}", segment=leaf)
                devices.append(
                    _make_typed_device(
                        device_node, type_name, costs, seed + i,
                        advertise=True, notify_period_us=notify_period_us,
                        udn_suffix=f"-c{d}l{l}n{i}",
                    )
                )

        # Control-point chatter: periodic M-SEARCH for the district's types.
        from repro.sdp.upnp import UpnpControlPoint as _Cp

        for l, leaf in enumerate(leaves):
            for j in range(cp_per_leaf):
                cp_node = net.add_node(f"cp-c{d}l{l}n{j}", segment=leaf)
                cp = _Cp(cp_node, timings=costs.upnp)
                target = type_names[cp_index % len(type_names)]
                st = f"urn:schemas-upnp-org:device:{target}:1"
                stats = {"issued": 0, "completed": 0, "found": 0}

                def kick(cp=cp, st=st, stats=stats) -> None:
                    stats["issued"] += 1

                    def done(search, stats=stats) -> None:
                        stats["completed"] += 1
                        if search.responses:
                            stats["found"] += 1

                    cp.search(st, wait_us=200_000, on_complete=done)

                cp_node.every(
                    cp_period_us, kick,
                    initial_delay_us=100_000
                    + (cp_index * cp_period_us) // max(1, districts * leaves_per_district * cp_per_leaf),
                )
                cp_stats.append(stats)
                cp_index += 1

        # GENA-style chatter: one subscriber per district receives periodic
        # state-variable pushes from the district's first device.
        if devices_per_leaf > 0:
            from repro.sdp.upnp.gena import EventSubscriber

            publisher = devices[-leaves_per_district * devices_per_leaf]
            sub_node = net.add_node(f"gena-c{d}", segment=leaves[0])
            subscriber = EventSubscriber(sub_node, callback_port=5004)
            gena_subscribers.append(subscriber)
            service = publisher.description.services[0]
            sub_url = (
                f"http://{publisher.node.address}:{publisher.http_port}"
                f"{service.event_sub_url}"
            )
            sub_node.schedule(50_000, lambda u=sub_url, s=subscriber: s.subscribe(u))
            publisher.node.every(
                notify_period_us,
                lambda p=publisher, d=d: p.notify_state_change({"Status": f"tick{d}"}),
                initial_delay_us=300_000,
            )

        # SLP islands: a registered service agent plus chatter UAs on the
        # first few leaves.
        island = leaves[:slp_island_leaves]
        if island and slp_chatter_per_island > 0:
            sa_node = net.add_node(f"slp-sa-c{d}", segment=island[0])
            sa = ServiceAgent(sa_node, config=_slp_config(costs))
            sa.register(
                SlpRegistration(
                    url=f"service:media{d}slp://{sa_node.address}:4005/ctl",
                    service_type=ServiceType.parse(f"service:media{d}slp"),
                )
            )
            slp_chatter.extend(
                _start_chatter(
                    net, island, [f"media{d}slp"], costs,
                    slp_chatter_per_island, slp_chatter_period_us,
                )
            )

        # Jini corner: announcing registrars plus passive listeners sharing
        # (or never paying) the announcement decode.
        if jini_registrars_per_district > 0:
            from repro.sdp.jini import JiniTimings, LookupService, LookupDiscovery

            jini_leaf = leaves[-1]
            for r in range(jini_registrars_per_district):
                reg_node = net.add_node(f"jini-reg-c{d}n{r}", segment=jini_leaf)
                LookupService(
                    reg_node, timings=JiniTimings(),
                    announce_period_us=1_000_000,
                    service_id_seed=5000 + 100 * d + r,
                )
            for r in range(jini_listeners_per_district):
                listener_node = net.add_node(f"jini-ld-c{d}n{r}", segment=jini_leaf)
                LookupDiscovery(listener_node)

    for d in range(districts - 1):
        inter_node = net.add_node(f"inter-{d}{d + 1}", segment=backbones[d])
        net.bridge(inter_node, backbones[d + 1])
        instances.append(
            Indiss(inter_node, _gateway_chain_config(costs, seed=seed + 900 + d))
        )

    _populate_background_nodes(net, nodes)

    net.run(duration_us=warmup_us)

    # Headline probe: a native control-point search on district 0.
    from repro.sdp.upnp import UpnpControlPoint

    probe_node = net.add_node("probe-cp", segment=district_leaves[0][0])
    probe_cp = UpnpControlPoint(probe_node, timings=costs.upnp)
    probe_done: list = []
    probe_cp.search(
        f"urn:schemas-upnp-org:device:{district_types[0][0]}:1",
        wait_us=300_000,
        on_complete=probe_done.append,
    )

    net.run(duration_us=run_us)

    probe = probe_done[0] if probe_done else None
    if probe is None or probe.first_latency_us is None:
        outcome = ScenarioOutcome(None, 0, net)
    else:
        outcome = ScenarioOutcome(probe.first_latency_us, len(probe.responses), net)

    monitor_attribution: dict[str, dict[str, int]] = {}
    for instance in instances:
        for sdp_id, row in instance.monitor.parse_attribution().items():
            agg = monitor_attribution.setdefault(sdp_id, {"frames": 0, "seeded": 0})
            agg["frames"] += row["frames"]
            agg["seeded"] += row["seeded"]

    cp_completed = sum(c["completed"] for c in cp_stats)
    cp_found = sum(c["found"] for c in cp_stats)
    outcome.extras = {
        "districts": districts,
        "gateways": len(instances),
        "total_nodes": len(net.nodes),
        "devices": len(devices),
        "parse_once": parse_once,
        "cp_clients": len(cp_stats),
        "cp_searches_completed": cp_completed,
        "cp_found_rate": cp_found / cp_completed if cp_completed else 0.0,
        "gena_events": sum(s.events_received for s in gena_subscribers),
        "monitor_attribution": monitor_attribution,
        "hotpaths": _hotpath_stats(net, instances),
        **_chatter_extras(slp_chatter),
    }
    return outcome


#: Reduced parameters for scenarios whose defaults are sized for the perf
#: benchmarks, not the test suite; the behavioural tests apply these so
#: tier-1 stays fast while the benchmarks keep the full-scale defaults.
SMALL_SCALE_OVERRIDES: dict[str, dict] = {
    "federated_campus": {"nodes": 120},
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
}


#: Scenario registry used by the harness and benchmarks.
SCENARIOS: dict[str, Callable[..., ScenarioOutcome]] = {
    "fig7_native_slp": native_slp,
    "fig7_native_upnp": native_upnp,
    "fig8_slp_to_upnp_service_side": slp_to_upnp_service_side,
    "fig8_upnp_to_slp_service_side": upnp_to_slp_service_side,
    "fig9_slp_to_upnp_client_side": slp_to_upnp_client_side,
    "fig9_upnp_to_slp_client_side": upnp_to_slp_client_side,
    "gateway_slp_to_upnp": slp_to_upnp_gateway,
    "gateway_slp_to_jini": slp_to_jini_gateway,
    "multi_segment_home": multi_segment_home,
    "gateway_chain": gateway_chain,
    "campus_fanout": campus_fanout,
    "federated_campus": federated_campus,
    "sharded_backbone": sharded_backbone,
    "metro_backbone": metro_backbone,
    "media_city": media_city,
}


__all__ = [
    "ScenarioOutcome",
    "SCENARIOS",
    "native_slp",
    "native_upnp",
    "slp_to_upnp_service_side",
    "upnp_to_slp_service_side",
    "slp_to_upnp_client_side",
    "upnp_to_slp_client_side",
    "slp_to_upnp_gateway",
    "slp_to_jini_gateway",
    "multi_segment_home",
    "gateway_chain",
    "campus_fanout",
    "federated_campus",
    "sharded_backbone",
    "metro_backbone",
    "media_city",
]
