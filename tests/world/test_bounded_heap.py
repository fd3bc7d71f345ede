"""What a run retains is bounded by the world, not by the run length.

A world run twice as long must leave the same transport and session state
behind once its load has stopped: no per-operation history (sessions,
throwaway reply sockets, TCP connections) may pile up.  Per-search
objects must also be freed by reference counting alone, without leaving
cycles for the garbage collector.
"""

import gc
import types

import pytest

from repro.core.sessions import RECENT_SESSIONS
from repro.world import World

from tests.small_scale import small_spec

#: Nodes whose load keeps the world busy: SLP chatter, UPnP control
#: points and the probes.
LOAD_PREFIXES = ("chat-", "cp-", "probe")

#: Virtual time after the load stops for every search, translation
#: session and HTTP exchange in flight to finish.
DRAIN_US = 2_000_000


def _retained(name: str, run_us: int) -> dict:
    world = World.build(small_spec(name, run_us=run_us), seed=1)
    world.run_workload()
    for node in world.net.nodes:
        if node.name.startswith(LOAD_PREFIXES):
            world.net.detach_node(node)
    world.net.run(DRAIN_US)
    managers = [instance.session_manager for instance in world.instances]
    return {
        "udp_ports": {
            node.name: node.udp.bound_ports()
            for node in world.net.nodes
            if node.udp_stack is not None
        },
        "tcp_connections": {
            node.name: len(node.tcp._connections) for node in world.net.nodes
        },
        "open_sessions": [len(m.open_sessions) for m in managers],
        "ring": [len(instance.sessions) for instance in world.instances],
        "opened": sum(m.stats.opened for m in managers),
    }


@pytest.mark.parametrize(
    "name, run_us", [("metro_backbone", 2_500_000), ("media_city", 2_000_000)]
)
def test_retained_state_does_not_grow_with_run_length(name, run_us):
    short = _retained(name, run_us)
    long = _retained(name, 2 * run_us)
    assert long["opened"] > short["opened"] > RECENT_SESSIONS
    assert long["udp_ports"] == short["udp_ports"]
    assert long["tcp_connections"] == short["tcp_connections"]
    assert long["open_sessions"] == short["open_sessions"]
    for retained in (short, long):
        assert max(retained["ring"]) == RECENT_SESSIONS


def _cyclic_garbage(world, package: str) -> list:
    """Run the world's workload with the collector off, then name every
    object defined in ``package`` (instances by their class, functions by
    their own module) that only the collector could free."""
    gc.collect()
    was_enabled = gc.isenabled()
    debug = gc.get_debug()
    gc.disable()
    try:
        world.run_workload()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = set()
        for obj in gc.garbage:
            if isinstance(obj, types.FunctionType):
                module, name = obj.__module__ or "", obj.__qualname__
            else:
                module, name = type(obj).__module__, type(obj).__qualname__
            if module.startswith(package):
                leaked.add(f"{module}.{name}")
    finally:
        gc.garbage.clear()
        gc.set_debug(debug)
        if was_enabled:
            gc.enable()
    return sorted(leaked)


def test_searches_leave_no_cyclic_garbage_in_the_sdp_stacks():
    world = World.build(small_spec("metro_backbone"), seed=1)
    leaked = _cyclic_garbage(world, "repro.sdp")
    assert world.collect("chatter")["chatter_searches_completed"] > 0
    assert leaked == []


def test_query_clients_leave_no_cyclic_garbage():
    world = World.build(small_spec("serving_backbone"), seed=1)
    leaked = _cyclic_garbage(world, "repro.world")
    rows = [row for group in world.load_groups.values() for row in group]
    assert rows and all(row["sent"] == row["responses"] > 0 for row in rows)
    assert leaked == []
