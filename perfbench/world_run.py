"""One world run of one benchmark workload, in this (fresh) interpreter.

    python3 perfbench/world_run.py --workload NAME --seed N [--trace | --plain | --serial]

Prints one JSON object on the last line of standard output:

* ``host``: host-time measurements (``wall_s``, ``setup_s``, ``run_s``,
  ``peak_rss_mb``);
* ``ops``: the client operation summary (:func:`probes.op_summary`);
* ``events``, ``wire_bytes``, ``digest``: the simulated outcome, which
  must not depend on how the run was instrumented; ``parity`` digests the
  part of it that must also not depend on the engine (events, load-group
  rows, segment traffic, operation samples);
* ``problems``: failed in-run checks (``CacheIndex.check()``, event totals);
* ``layers`` (``--trace`` only): per-layer self time and work counts.

``host["reference_s"]`` holds the times of a fixed pure-Python loop
(:func:`reference_s`) run just before the world is built and just after
it has run, in as many processes at once as the world runs in;
``run.py`` scales the host times by them.

``grid_mp`` runs through ``run_world_mp``: the world is built in this
process, forked workers run it, and each worker sends its probes' state
back beside its result before the merge (:func:`_install_worker_probe`).
``--serial`` runs the same spec on the single wheel instead; it is the
reference the multiprocess outcome must equal.

``--plain`` installs no probe at all and reports only ``events``: it is
the reference that shows the probes leave the event count unchanged.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import heapq
import json
import multiprocessing
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _jsonable(value):
    """Canonical, address-free form of an outcome value for the digest."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return type(value).__name__


def _digest(state: dict) -> str:
    blob = json.dumps(_jsonable(state), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


# -- the machine reference -----------------------------------------------------

REFERENCE_ROUNDS = 160_000
REFERENCE_TIMEOUT_S = 60


def _loop_s() -> float:
    """Wall seconds of the reference loop in this process.  The collector
    is off while it runs: after a world run the heap still holds the
    world, and a full collection of it landing inside the loop would time
    the world's garbage, not the host."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        heap: list = []
        table: dict = {}
        total = 0
        for i in range(REFERENCE_ROUNDS):
            key = (i * 2654435761) & 0xFFFF
            table[key] = (i, str(key))
            heapq.heappush(heap, (key, i))
            if len(heap) > 256:
                total += heapq.heappop(heap)[1]
            total += len(table[key][1])
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    if total <= 0:
        raise RuntimeError("the reference loop computed nothing")
    return elapsed


def _helper_loop(barrier, times) -> None:
    barrier.wait(REFERENCE_TIMEOUT_S)
    times.put(_loop_s())


def reference_s(processes: int) -> float:
    """Wall seconds of a fixed pure-Python loop: dict stores, tuples,
    strings and a heap, as the simulator uses them, but none of its code,
    so a change to the simulator cannot move it.  Timed right before and
    after a world run, it measures how fast the shared host runs Python
    at that moment.

    The loop runs in ``processes`` forked helpers at once, as many as the
    world runs in, and the slowest counts: a multiprocess world waits for
    its slowest worker at every barrier, so one slow vCPU slows all of
    it.  This process only waits, so the loop leaves its heap, collector
    state and peak memory as they were.  Forking is safe here for the
    reason it is in ``run_world_mp``: no thread is running.
    """
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(processes)
    times = ctx.Queue()
    helpers = [
        ctx.Process(target=_helper_loop, args=(barrier, times))
        for _ in range(processes)
    ]
    for helper in helpers:
        helper.start()
    try:
        return max(times.get(timeout=REFERENCE_TIMEOUT_S) for _ in helpers)
    finally:
        for helper in helpers:
            helper.join(REFERENCE_TIMEOUT_S)
            if helper.is_alive():
                helper.kill()
                helper.join()


# -- what one process measured -------------------------------------------------


def _world_counts(world) -> dict:
    """Work counters of the layers, read from the world after its run."""
    net = world.net
    gossipers = [
        member.gossiper
        for fleet in world.fleets.values()
        for member in fleet.members.values()
        if member.gossiper is not None
    ]
    segments = net.segments.values()
    return {
        "unrouted": net.unrouted,
        "parse_shared": sum(c.shared for c in net.parse_stats.values()),
        "parse_decoded": sum(c.decoded for c in net.parse_stats.values()),
        "cache_hits": sum(i.cache.hits for i in world.instances),
        "cache_misses": sum(i.cache.misses for i in world.instances),
        "gossip_rounds": sum(g.stats.rounds for g in gossipers),
        "gossip_applied": sum(g.stats.records_applied for g in gossipers),
        "gossip_ignored": sum(g.stats.records_ignored for g in gossipers),
        "gossip_bytes": sum(
            s.traffic.port(gossipers[0].port).bytes for s in segments
        ) if gossipers else 0,
        "serving_queries": sum(f.stats.queries for f in world.serving_frontends),
        "serving_fallbacks": sum(f.stats.fallbacks for f in world.serving_frontends),
    }


def _counters(world) -> dict:
    """The world's additive outcome counters."""
    return {
        "events": world.net.scheduler.events_fired,
        "segments": {
            name: [seg.traffic.total_messages, seg.traffic.total_bytes]
            for name, seg in sorted(world.net.segments.items())
        },
        "sessions": [dataclasses.asdict(i.stats) for i in world.instances],
        "world": _world_counts(world),
    }


def _tree_add(a, b, sign: int = 1):
    """``a + sign * b`` over equally shaped dicts and lists of numbers."""
    if isinstance(a, dict):
        return {k: _tree_add(a.get(k, 0), b.get(k, 0), sign)
                for k in a.keys() | b.keys()}
    if isinstance(a, list):
        return [_tree_add(x, y, sign) for x, y in zip(a, b)]
    return a + sign * b


def _process_part(world, sampler, tracer, clock, serving: bool, base=None) -> dict:
    """What one process saw.  ``base`` is the counters a forked worker
    inherited from the build, which only the parent reports."""
    sampler.finish(world, serving)
    problems = []
    for frontend in world.serving_frontends:
        problems += [f"{frontend.node.name}: {p}" for p in frontend.index.check()]
    counters = _counters(world)
    part = {
        "counters": counters if base is None else _tree_add(counters, base, -1),
        "ops": sampler.state(),
        "problems": problems,
        "run_ns": clock.run_ns,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        part["trace"] = tracer.state()
    return part


def _merge_traces(traces: list) -> dict:
    merged = {key: {phase: {} for phase in ("setup", "run")}
              for key in ("self_ns", "calls")}
    merged["counts"] = {}
    for trace in traces:
        for key in ("self_ns", "calls"):
            merged[key] = _tree_add(merged[key], trace[key])
        merged["counts"] = _tree_add(merged["counts"], trace["counts"])
    merged["gc"] = {}
    for phase in ("setup", "run"):
        rows = [trace["gc"][phase] for trace in traces]
        row = {key: sum(r[key] for r in rows) for key in rows[0]}
        row["max_ns"] = max(r["max_ns"] for r in rows)
        merged["gc"][phase] = row
    # Every process holds the whole world, so its census is not additive.
    merged["live_objects_after_setup"] = max(
        trace["live_objects_after_setup"] for trace in traces
    )
    return merged


def _merge_parts(parts: list, base=None) -> dict:
    merged = base or {}
    for part in parts:
        merged = _tree_add(part["counters"], merged) if merged else part["counters"]
    merged["segments"] = dict(sorted(merged["segments"].items()))
    merged.update(
        ops=[p["ops"] for p in parts],
        problems=[x for p in parts for x in p["problems"]],
        run_ns=sum(p["run_ns"] for p in parts),
    )
    return merged


# -- the per-layer report ------------------------------------------------------


def _layer_report(merged: dict, trace: dict, engine: dict) -> dict:
    """Per-layer metrics.  ``merged["run_ns"]`` is the traced run phase
    (summed over the processes that ran it); the layers' self times, the
    GC pauses and ``trace.unattributed_s`` add up to it."""
    from probes import RUN_LAYERS

    run_self = trace["self_ns"]["run"]
    run_calls = trace["calls"]["run"]
    world = merged["world"]
    codec = trace["counts"]
    out: dict = {}
    reported = 0
    for layer in RUN_LAYERS:
        ns = run_self.get(layer, 0)
        reported += ns
        out[f"{layer}.calls"] = run_calls.get(layer, 0)
        out[f"{layer}.self_s"] = ns / 1e9
    gc_run = trace["gc"]["run"]
    # Everything else in the run phase: callbacks of unmapped modules and
    # the run timer's own wrapper.
    unattributed = merged["run_ns"] - reported - gc_run["pause_ns"]
    events = merged["events"]
    out["net.simclock.events"] = events
    out["net.simclock.ns_per_event"] = run_self.get("net.simclock", 0) / max(1, events)
    segments = merged["segments"].values()
    out["net.delivery.frames"] = sum(s[0] for s in segments)
    out["net.delivery.bytes"] = sum(s[1] for s in segments)
    out["net.delivery.drops"] = world["unrouted"]
    out["net.tcp.connections"] = codec.get("net.tcp.connect", 0)

    def calls(prefix: str, verbs: tuple) -> int:
        return sum(
            n for key, n in codec.items()
            if key.startswith(prefix) and key.rsplit(".", 1)[1].startswith(verbs)
        )

    out["sdp.slp.decodes"] = calls("sdp.slp.wire.", ("decode",))
    out["sdp.slp.encodes"] = calls("sdp.slp.wire.", ("encode",))
    out["sdp.upnp.decodes"] = calls("sdp.upnp.", ("parse",))
    shared, decoded = world["parse_shared"], world["parse_decoded"]
    out["parse.dedup_ratio"] = shared / (shared + decoded) if shared + decoded else 0.0

    sessions = merged["sessions"]
    opened = sum(s["opened"] for s in sessions)
    dups = sum(s["duplicates_suppressed"] for s in sessions)
    out["core.sessions_opened"] = opened
    out["core.timed_out"] = sum(s["timed_out"] for s in sessions)
    out["core.gave_up"] = sum(s["gave_up"] for s in sessions)
    out["core.retries"] = sum(s["retries"] for s in sessions)
    out["core.dup_suppressed_ratio"] = dups / (dups + opened) if dups + opened else 0.0
    hits, misses = world["cache_hits"], world["cache_misses"]
    out["core.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    applied, ignored = world["gossip_applied"], world["gossip_ignored"]
    out["federation.gossip_rounds"] = world["gossip_rounds"]
    out["federation.gossip_bytes"] = world["gossip_bytes"]
    out["federation.records_applied_ratio"] = (
        applied / (applied + ignored) if applied + ignored else 0.0
    )

    out["serving.queries"] = world["serving_queries"]
    out["serving.index_ops"] = sum(
        n for key, n in codec.items() if key.startswith("serving.index.")
    )
    out["serving.fallbacks"] = world["serving_fallbacks"]

    setup_self = trace["self_ns"]["setup"]
    out["world.build.self_s"] = setup_self.get("world.build", 0) / 1e9
    out["world.fill.self_s"] = setup_self.get("world.fill", 0) / 1e9
    out["mem.live_objects_after_setup"] = trace["live_objects_after_setup"]
    out["gc.collections"] = gc_run["collections"]
    out["gc.pause_s"] = gc_run["pause_ns"] / 1e9
    out["gc.max_pause_ms"] = gc_run["max_ns"] / 1e6
    out["gc.gen2_pause_s"] = gc_run["gen2_pause_ns"] / 1e9
    out["gc.setup_pause_s"] = trace["gc"]["setup"]["pause_ns"] / 1e9
    out["trace.run_phase_s"] = merged["run_ns"] / 1e9
    out["trace.unattributed_s"] = unattributed / 1e9
    for name in ENGINE_METRICS:
        out[f"engine.{name}"] = engine.get(name, 0)
    return out


#: ``engine.*`` per-layer metrics; nonzero on the multiprocess workload only
#: (``serial_run_s`` is filled in by ``run.py`` from the ``--serial`` run).
ENGINE_METRICS = (
    "fork_s", "window_compute_s", "barrier_wait_s", "merge_s", "windows",
    "cross_frames", "serial_run_s",
)


# -- the multiprocess run ------------------------------------------------------


class _WorkerLink:
    """The worker end of a barrier pipe, timed and counted.

    ``run_world_mp``'s worker calls ``send``/``recv`` once each per window;
    the time in them is the worker's barrier wait.  When the worker sends
    its result, ``on_done`` adds this process's probe state to it.
    """

    def __init__(self, conn, on_done) -> None:
        self.conn = conn
        self.on_done = on_done
        self.exchange_ns = 0
        self.cross_frames = 0

    def send(self, message) -> None:
        start = time.perf_counter_ns()
        if message[0] == "window":
            self.cross_frames += len(message[2])
        elif message[0] == "done":
            message[1]["perfbench"] = self.on_done(self)
        self.conn.send(message)
        if message[0] == "window":
            self.exchange_ns += time.perf_counter_ns() - start

    def recv(self):
        start = time.perf_counter_ns()
        try:
            return self.conn.recv()
        finally:
            self.exchange_ns += time.perf_counter_ns() - start

    def close(self) -> None:
        self.conn.close()


def _install_worker_probe(patches, sampler, tracer, clock, serving, parts) -> None:
    """Wrap ``_worker_main`` so each forked worker reports its probes with
    its result, and ``_summarise`` so the parent collects those reports."""
    from repro.world import engine

    worker_main = engine._worker_main
    summarise = engine._summarise

    def probed_worker_main(world, pid, conn):
        entered_at = time.perf_counter_ns()
        if tracer is not None:
            tracer.reset()
        base = _counters(world)

        def on_done(link: _WorkerLink) -> dict:
            done_at = time.perf_counter_ns()
            part = _process_part(world, sampler, tracer, clock, serving, base)
            part.update(
                base=base,
                entered_at=entered_at,
                done_at=done_at,
                exchange_ns=link.exchange_ns,
                cross_frames=link.cross_frames,
            )
            return part

        link = _WorkerLink(conn, on_done)
        if tracer is not None:
            # Barrier time is the engine layer's, not the scheduler loop's.
            link.send = tracer.wrap(link.send, "engine")
            link.recv = tracer.wrap(link.recv, "engine")
        worker_main(world, pid, link)

    def collecting_summarise(pmap, payloads, backend, wall_s):
        parts.extend(p.pop("perfbench") for p in payloads)
        return summarise(pmap, payloads, backend, wall_s)

    patches.set(engine, "_worker_main", probed_worker_main)
    patches.set(engine, "_summarise", collecting_summarise)


# -- one run -------------------------------------------------------------------


def run(workload: str, seed: int, mode: str) -> dict:
    """``mode``: ``probed`` (the default), ``trace``, ``plain`` or ``serial``."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from probes import LayerTracer, OpSampler, Patches, RunClock, op_summary
    from workloads import WORKLOADS

    from repro.world import World
    from repro.world.engine import run_world_mp
    from repro.world.partition import spec_partition_map

    factory, serving, multiprocess = WORKLOADS[workload]
    multiprocess = multiprocess and mode != "serial"
    spec = factory()
    if mode == "plain":
        if multiprocess:
            return {"events": run_world_mp(spec, seed=seed)["events_fired"]}
        world = World.build(spec, seed=seed)
        world.run_workload()
        return {"events": world.net.scheduler.events_fired}

    # run_world_mp forks one worker per district.
    processes = spec_partition_map(spec)[0].count if multiprocess else 1
    reference_before = reference_s(processes)
    patches = Patches()
    clock = RunClock()
    sampler = OpSampler()
    tracer = LayerTracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install(patches, clock)
    sampler.install(patches, serving)
    clock.install(patches)
    parts: list = []
    if multiprocess:
        _install_worker_probe(patches, sampler, tracer, clock, serving, parts)
    try:
        start = time.perf_counter_ns()
        if multiprocess:
            summary = run_world_mp(spec, seed=seed)
            ran = time.perf_counter_ns()
        else:
            world = World.build(spec, seed=seed)
            world.run_workload()
            ran = time.perf_counter_ns()
            outcome = world.outcome()
        end = time.perf_counter_ns()
    finally:
        patches.undo()
        if tracer is not None:
            tracer.uninstall()

    if multiprocess:
        merged = _merge_parts(parts, parts[0]["base"])
        outcome_state = {key: summary[key] for key in
                         ("latency_us", "results", "extras", "load_groups")}
        if merged["events"] != summary["events_fired"]:
            merged["problems"].append(
                f"workers report {merged['events']} events, the merge "
                f"{summary['events_fired']}"
            )
        # Cross-process stamps: perf_counter is CLOCK_MONOTONIC, one clock
        # for the whole machine.
        entered = max(p["entered_at"] for p in parts)
        done = max(p["done_at"] for p in parts)
        worker_setup = max(
            p["done_at"] - p["entered_at"] - p["run_ns"] for p in parts
        )
        setup_ns = (entered - start) + worker_setup
        merge_ns = ran - done
        host = {
            "wall_s": (end - start) / 1e9,
            "setup_s": setup_ns / 1e9,
            "run_s": (ran - start - setup_ns - merge_ns) / 1e9,
            "peak_rss_mb": sum(p["peak_rss_mb"] for p in parts)
            + resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        engine = {
            "fork_s": (entered - clock.built_at) / 1e9,
            "window_compute_s": max(
                p["run_ns"] - p["exchange_ns"] for p in parts
            ) / 1e9,
            "barrier_wait_s": max(p["exchange_ns"] for p in parts) / 1e9,
            "merge_s": merge_ns / 1e9,
            "windows": summary["windows"],
            "cross_frames": sum(p["cross_frames"] for p in parts),
        }
    else:
        part = _process_part(world, sampler, tracer, clock, serving)
        merged = _merge_parts([part])
        outcome_state = {
            "latency_us": outcome.latency_us,
            "results": outcome.results,
            "extras": outcome.extras,
            "load_groups": world.load_groups,
        }
        host = {
            "wall_s": (end - start) / 1e9,
            "setup_s": (ran - start - clock.run_ns) / 1e9,
            "run_s": clock.run_ns / 1e9,
            "peak_rss_mb": part["peak_rss_mb"],
        }
        engine = {}

    op_state = merged["ops"]
    ops = op_summary(op_state)
    samples = {
        "events": merged["events"],
        "load_groups": outcome_state["load_groups"],
        "segments": merged["segments"],
        "ops": [ops[k] for k in
                ("issued", "completed", "succeeded", "cache_answers", "answers")],
        "latencies_us": sorted(x for s in op_state for x in s["latencies_us"]),
        "staleness_us": sorted(x for s in op_state for x in s["staleness_us"]),
    }
    result = {
        "workload": workload,
        "seed": seed,
        "events": merged["events"],
        "wire_bytes": sum(s[1] for s in merged["segments"].values()),
        "digest": _digest({**samples, **outcome_state, "sessions": merged["sessions"]}),
        "parity": _digest(samples),
        "ops": ops,
        "problems": merged["problems"],
        "host": host,
    }
    host["reference_s"] = [reference_before, reference_s(processes)]
    if tracer is not None:
        trace_states = [p["trace"] for p in parts] if multiprocess else [part["trace"]]
        if multiprocess:
            # The parent built the world; its tracer holds the build spans.
            trace_states.append(tracer.state())
        result["layers"] = _layer_report(merged, _merge_traces(trace_states), engine)
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    for name in ("trace", "plain", "serial"):
        mode.add_argument(f"--{name}", dest="mode", action="store_const", const=name)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.mode or "probed")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
