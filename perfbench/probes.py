"""Outside-in instrumentation for one world run.

Nothing here edits the simulator.  Every probe is a wrapper installed on
a class attribute or module function of ``repro`` *before* the world is
built, and removed by :meth:`Patches.undo`:

* :class:`OpSampler` takes exact virtual-time samples of every client
  discovery operation (always on; it only touches per-operation paths);
* :class:`LayerTracer` charges host time to layers (traced runs only):
  scheduler callbacks and socket/TCP handlers are wrapped where they are
  registered and attributed to the layer of their defining module; the
  public codec, cache, index and gossip functions are wrapped directly;
  ``gc.callbacks`` supplies the GC row.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import pkgutil
import sys
import time
from typing import Callable, Optional

#: Module prefix -> layer, first match wins.  A layer is a module (tree).
LAYER_PREFIXES = (
    ("repro.net.simclock", "net.simclock"),
    ("repro.net.tcp", "net.tcp"),
    ("repro.net.parallel", "engine"),
    ("repro.net", "net.delivery"),
    ("repro.sdp.slp", "sdp.slp"),
    ("repro.sdp.upnp", "sdp.upnp"),
    ("repro.sdp.jini", "sdp.jini"),
    ("repro.units", "units"),
    ("repro.core", "core"),
    ("repro.federation", "federation"),
    ("repro.serving", "serving"),
    ("repro.world", "world.load"),
)

#: Layers whose run-phase ``.calls``/``.self_s`` are reported.
RUN_LAYERS = (
    "net.simclock", "net.delivery", "net.tcp", "sdp.slp", "sdp.upnp",
    "sdp.jini", "units", "core", "federation", "serving", "world.load", "engine",
)

#: Codec modules whose public functions are wrapped and counted.
CODEC_MODULES = (
    "repro.sdp.slp.wire",
    "repro.sdp.upnp.ssdp",
    "repro.sdp.upnp.http",
    "repro.sdp.upnp.gena",
    "repro.sdp.jini.discovery",
    "repro.serving.wire",
)

#: The client completion handler ``World._start_query_client`` registers.
QUERY_CLIENT_HANDLER = "_start_query_client.<locals>.on_response"


def _import_all(package: str) -> None:
    """Import every submodule, so by-name imports can be rebound."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def layer_of_module(module: Optional[str]) -> str:
    if module:
        for prefix, layer in LAYER_PREFIXES:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "unattributed"


def callable_module(fn) -> Optional[str]:
    """The defining module of a callback (function, bound method, partial)."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    return getattr(fn, "__module__", None)


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def percentile(ordered: list, q: float) -> float:
    """Linear-interpolated percentile of a non-empty ascending list."""
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# -- end-to-end operation samples ---------------------------------------------


class OpSampler:
    """Exact samples of each client operation, taken at the client.

    An operation is one SLP ``find_services``, one UPnP ``search`` (chatter
    and probes alike) or one serving query.  It *succeeds* when its answers
    name at least one service; it fails when it never completes, completes
    empty, or gets no reply.  ``latencies_us`` holds the first-response
    latency of every operation that got a response, empty ones included,
    in completion order.  Cache accounting: ``cache_answers`` of
    ``answers`` were served from a cache, with one staleness stamp each in
    ``staleness_us``.
    """

    def __init__(self) -> None:
        self.issued = 0
        self.completed = 0
        self.succeeded = 0
        self.latencies_us: list[int] = []
        self.cache_answers = 0
        self.answers = 0
        self.staleness_us: list[int] = []
        self._sent: dict[tuple[int, int], int] = {}
        self._last_request: Optional[dict] = None
        self._last_decoded = None

    # -- SLP / UPnP searches ------------------------------------------------

    def _search_done(self, on_complete, found: Callable) -> Callable:
        def done(search):
            self.completed += 1
            latency = search.first_latency_us
            if latency is not None:
                self.latencies_us.append(latency)
            if latency is not None and found(search):
                self.succeeded += 1
            if on_complete is not None:
                on_complete(search)

        return done

    def install(self, patches: Patches, serving: bool) -> None:
        from repro.core.indiss import Indiss
        from repro.net.udp import UdpSocket
        from repro.sdp.slp.agent import UserAgent
        from repro.sdp.upnp.control_point import UpnpControlPoint
        from repro.serving import wire
        from repro.serving.index import staleness_us

        sampler = self
        find_services = UserAgent.find_services
        search = UpnpControlPoint.search

        def wrapped_find(agent, *args, on_complete=None, **kwargs):
            sampler.issued += 1
            done = sampler._search_done(on_complete, lambda s: bool(s.results))
            return find_services(agent, *args, on_complete=done, **kwargs)

        def wrapped_search(cp, *args, on_complete=None, **kwargs):
            sampler.issued += 1
            done = sampler._search_done(on_complete, lambda s: bool(s.responses))
            return search(cp, *args, on_complete=done, **kwargs)

        patches.set(UserAgent, "find_services", wrapped_find)
        patches.set(UpnpControlPoint, "search", wrapped_search)

        if not serving:
            answer = Indiss._answer_from_cache

            def wrapped_answer(indiss, session, record):
                # ServiceCache has no public per-key read; the entry holds
                # the expiry that the staleness stamp is computed from.
                entry = indiss.cache._entries.get((record.service_type, record.url))
                if entry is not None:
                    sampler.staleness_us.append(staleness_us(entry, indiss.node.now_us))
                return answer(indiss, session, record)

            patches.set(Indiss, "_answer_from_cache", wrapped_answer)
            return

        # Serving queries: pair each client's request rid with its reply.
        request = wire.request
        decode = wire.decode
        on_datagram = UdpSocket.on_datagram

        def wrapped_request(kind, rid, **fields):
            message = request(kind, rid, **fields)
            sampler._last_request = message
            return message

        def wrapped_decode(payload):
            decoded = decode(payload)
            sampler._last_decoded = decoded
            return decoded

        def client_socket(sock, handler):
            send = sock.sendto
            node = sock.node

            def sendto(payload, destination, decode_hint=None):
                message = sampler._last_request
                if message is not None:
                    sampler._last_request = None
                    sampler.issued += 1
                    sampler._sent[(id(sock), message["rid"])] = node.now_us
                return send(payload, destination, decode_hint)

            def on_response(datagram):
                sampler._last_decoded = None
                handler(datagram)
                reply = sampler._last_decoded
                if not reply or reply.get("kind") != "resp":
                    return
                sent_at = sampler._sent.pop((id(sock), reply.get("rid")), None)
                if sent_at is None:
                    return
                sampler.completed += 1
                sampler.answers += 1
                sampler.latencies_us.append(node.now_us - sent_at)
                if reply.get("status") == "ok":
                    sampler.cache_answers += 1
                    sampler.staleness_us.append(int(reply.get("staleness_us", 0)))
                    if reply.get("records"):
                        sampler.succeeded += 1

            sock.sendto = sendto
            # A traced run attributes the wrapped handler to the client's
            # own layer, not to this module.
            on_response.__module__ = callable_module(handler)
            return on_response

        def wrapped_on_datagram(sock, handler):
            if getattr(handler, "__qualname__", "").endswith(QUERY_CLIENT_HANDLER):
                handler = client_socket(sock, handler)
            return on_datagram(sock, handler)

        patches.set(wire, "request", wrapped_request)
        patches.set(wire, "decode", wrapped_decode)
        patches.set(UdpSocket, "on_datagram", wrapped_on_datagram)

    def finish(self, world, serving: bool) -> None:
        """Fold in the INDISS answer split (non-serving worlds)."""
        if serving:
            return
        cache = sum(i.stats.answered_from_cache for i in world.instances)
        live = sum(i.stats.translated for i in world.instances)
        self.cache_answers = cache
        self.answers = cache + live

    def state(self) -> dict:
        """This process's samples; :func:`op_summary` merges processes."""
        return {
            "issued": self.issued,
            "completed": self.completed,
            "succeeded": self.succeeded,
            "cache_answers": self.cache_answers,
            "answers": self.answers,
            "latencies_us": self.latencies_us,
            "staleness_us": self.staleness_us,
        }


def op_summary(states: list) -> dict:
    """Operation totals and exact percentiles over every process's samples."""
    keys = ("issued", "completed", "succeeded", "cache_answers", "answers")
    total = {key: sum(s[key] for s in states) for key in keys}
    ordered = sorted(x for s in states for x in s["latencies_us"])
    staleness = [x for s in states for x in s["staleness_us"]]
    issued = total["issued"]
    return {
        **total,
        "op_p50_us": percentile(ordered, 0.50) if ordered else None,
        "op_p99_us": percentile(ordered, 0.99) if ordered else None,
        "fail_share": (issued - total["succeeded"]) / issued if issued else None,
        "hit_rate": (
            total["cache_answers"] / total["answers"] if total["answers"] else None
        ),
        "staleness_mean_us": sum(staleness) / len(staleness) if staleness else None,
    }


# -- run-phase timer ----------------------------------------------------------


class RunClock:
    """Host nanoseconds spent inside ``Network.run`` (the run phase), and
    the perf-counter stamp at which ``World.build`` last returned.

    ``on_enter``/``on_exit`` hooks let the tracer switch phases and take the
    after-setup object census at the first entry.
    """

    def __init__(self) -> None:
        self.built_at = 0
        self.run_ns = 0
        self.on_enter: Optional[Callable[[], None]] = None
        self.on_exit: Optional[Callable[[], None]] = None

    def install(self, patches: Patches) -> None:
        from repro.net.network import Network
        from repro.world.build import World

        clock = self
        run = Network.run
        build = World.__dict__["build"].__func__

        def timed_run(net, duration_us=None):
            if clock.on_enter is not None:
                clock.on_enter()
            start = time.perf_counter_ns()
            try:
                return run(net, duration_us)
            finally:
                clock.run_ns += time.perf_counter_ns() - start
                if clock.on_exit is not None:
                    clock.on_exit()

        def timed_build(cls, *args, **kwargs):
            try:
                return build(cls, *args, **kwargs)
            finally:
                clock.built_at = time.perf_counter_ns()

        patches.set(Network, "run", timed_run)
        patches.set(World, "build", classmethod(timed_build))


# -- per-layer host time --------------------------------------------------------


class LayerTracer:
    """Self time and call counts per layer, split into setup and run phase.

    A span is one call through a wrapper.  Its self time is its duration
    minus its child spans and minus any GC pause that started inside it;
    GC pauses are charged to the ``gc`` row instead.  The run phase is
    every ``Network.run`` call; its own loop time (time in no other span)
    is ``net.simclock`` self time, because ``Network.run`` is the root span.
    """

    def __init__(self) -> None:
        self.reset()
        self._stack: list[list[int]] = []
        self._gc_start = 0
        self._layer_cache: dict = {}

    def reset(self) -> None:
        """Forget every measurement (a forked worker starts from zero)."""
        self.phase = "setup"
        self.self_ns = {"setup": {}, "run": {}}
        self.calls = {"setup": {}, "run": {}}
        self.counts: dict[str, int] = {}
        self.gc = {
            "setup": {"collections": 0, "pause_ns": 0, "gen2_pause_ns": 0, "max_ns": 0},
            "run": {"collections": 0, "pause_ns": 0, "gen2_pause_ns": 0, "max_ns": 0},
        }
        self.live_objects_after_setup: Optional[int] = None

    def state(self) -> dict:
        return {
            "self_ns": self.self_ns,
            "calls": self.calls,
            "counts": self.counts,
            "gc": self.gc,
            "live_objects_after_setup": self.live_objects_after_setup or 0,
        }

    # -- spans ----------------------------------------------------------------

    def wrap(self, fn: Callable, layer: str, count: Optional[str] = None) -> Callable:
        """A span wrapper charging ``fn``'s self time to ``layer``."""
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def span(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                phase = tracer.phase
                selfs = tracer.self_ns[phase]
                selfs[layer] = selfs.get(layer, 0) + elapsed - frame[0]
                calls = tracer.calls[phase]
                calls[layer] = calls.get(layer, 0) + 1
                if count is not None:
                    counts = tracer.counts
                    counts[count] = counts.get(count, 0) + 1
                if stack:
                    stack[-1][0] += elapsed

        span.__pb_span__ = True
        span.__wrapped__ = fn
        return span

    def wrap_callback(self, fn):
        """Wrap a registered callback, attributed by its defining module."""
        if fn is None or getattr(fn, "__pb_span__", False):
            return fn
        module = callable_module(fn)
        layer = self._layer_cache.get(module)
        if layer is None:
            layer = self._layer_cache[module] = layer_of_module(module)
        return self.wrap(fn, layer)

    def _gc_callback(self, phase: str, info: dict) -> None:
        now = time.perf_counter_ns()
        if phase == "start":
            self._gc_start = now
            return
        pause = now - self._gc_start
        row = self.gc[self.phase]
        row["collections"] += 1
        row["pause_ns"] += pause
        if info.get("generation") == 2:
            row["gen2_pause_ns"] += pause
        if pause > row["max_ns"]:
            row["max_ns"] = pause
        if self._stack:
            self._stack[-1][0] += pause

    # -- installation -----------------------------------------------------------

    def install(self, patches: Patches, run_clock: RunClock) -> None:
        """Install every span wrapper.  Call before :meth:`OpSampler.install`
        and :meth:`RunClock.install`, so their wrappers sit outside the spans."""
        _import_all("repro")
        from repro.core.cache import ServiceCache
        from repro.federation.gossip import CacheGossiper
        from repro.net.network import Network
        from repro.net.simclock import PeriodicTask, Scheduler, Timer
        from repro.net.tcp import TcpConnection, TcpStack
        from repro.net.udp import UdpSocket
        from repro.serving.index import CacheIndex
        from repro.world.build import World

        tracer = self
        cb = self.wrap_callback

        def wrap_args(owner, name: str) -> None:
            original = owner.__dict__[name]

            def registered(obj, *args, **kwargs):
                args = tuple(cb(a) if callable(a) else a for a in args)
                kwargs = {k: cb(v) if callable(v) else v for k, v in kwargs.items()}
                return original(obj, *args, **kwargs)

            patches.set(owner, name, registered)

        for owner, name in (
            (Scheduler, "schedule"), (Scheduler, "post"),
            (Timer, "__init__"), (PeriodicTask, "__init__"),
            (UdpSocket, "on_datagram"),
            (TcpConnection, "on_data"), (TcpConnection, "on_close"),
            (TcpStack, "listen"), (TcpStack, "connect"),
        ):
            wrap_args(owner, name)

        for owner, layer, prefix in (
            (ServiceCache, "core", "core.cache"),
            (CacheIndex, "serving", "serving.index"),
            (CacheGossiper, "federation", "federation.gossip"),
        ):
            for name, value in list(vars(owner).items()):
                if name.startswith("_") or not inspect.isfunction(value):
                    continue
                patches.set(owner, name, self.wrap(value, layer, f"{prefix}.{name}"))
        # Control also passes into the network on every send.
        for owner, name, layer, count in (
            (TcpStack, "connect", "net.tcp", "net.tcp.connect"),
            (TcpConnection, "send", "net.tcp", None),
            (Network, "send_datagram", "net.delivery", None),
        ):
            patches.set(owner, name, self.wrap(owner.__dict__[name], layer, count))

        self._wrap_codecs(patches)

        # The run phase: Network.run is the root span.
        run = Network.__dict__["run"]
        patches.set(Network, "run", self.wrap(run, "net.simclock"))
        patches.set(World, "_fill", self.wrap(World.__dict__["_fill"], "world.fill"))
        build = World.__dict__["build"].__func__
        patches.set(World, "build", classmethod(self.wrap(build, "world.build")))

        def enter() -> None:
            if tracer.live_objects_after_setup is None:
                tracer.live_objects_after_setup = len(gc.get_objects())
            tracer.phase = "run"

        def leave() -> None:
            tracer.phase = "setup"

        run_clock.on_enter = enter
        run_clock.on_exit = leave
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def _wrap_codecs(self, patches: Patches) -> None:
        """Wrap each codec module's public functions, and rebind every
        ``repro`` module global that imported them by name."""
        replacements: dict[int, Callable] = {}
        for module_name in CODEC_MODULES:
            module = sys.modules[module_name]
            layer = layer_of_module(module_name)
            short = module_name.rsplit(".", 1)[1]
            for name, value in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or not callable(value)
                    or isinstance(value, type)
                    or getattr(value, "__module__", None) != module_name
                ):
                    continue
                replacements[id(value)] = self.wrap(
                    value, layer, f"{layer}.{short}.{name}"
                )
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None and wrapped.__wrapped__ is value:
                    patches.set(module, name, wrapped)
