"""Transport base machinery: proxies, per-endpoint stats, loopback.

A transport delivers *calls*: ``call(source, target, op, resolve,
args, kwargs)`` where *source* names the calling endpoint (a client,
or the reconfiguration driver acting for one), *target* names the node,
*op* is the RPC method name, and *resolve* is a zero-argument callable
returning the live server object (so delivery — not proxy creation —
observes node liveness, exactly like a real connection attempt).

Clients never hold server objects directly; they hold
:class:`RpcProxy` handles obtained from the transport. Every attribute
access on a proxy names an RPC and forwards through ``Transport.call``
when invoked; the only local state a proxy exposes is its own endpoint
metadata (:attr:`RpcProxy.source` / :attr:`RpcProxy.target`). Reaching
through a proxy to a server attribute is a hard error — it cannot work
across a process boundary, and allowing it under loopback hid exactly
that dependency.

Transports also own their notion of *time* (:mod:`repro.net.clock`):
the default :class:`~repro.net.clock.LogicalClock` ticks once per
backoff so simulated fault schedules stay deterministic, while the
socket transport plugs in a
:class:`~repro.net.clock.MonotonicClock` so deadlines and retry
backoff use real wall time.

Concurrency: a transport is shared by every client thread of a
deployment, so counter updates are read-modify-write races unless
locked. :class:`EndpointStats` owns a lock for its counters (all bumps
go through ``note_*`` methods; TL010 enforces this). The endpoint map
itself takes no lock: entries are only ever added, through one
``dict.setdefault``, and snapshots copy it with one ``dict.copy`` —
each a single C-level operation under the GIL. A plain loopback RPC
therefore takes exactly one lock (``note_delivery``). Readers of a
single counter attribute (e.g. the failure detector's ``stats.rpcs``)
take a plain int read, which is atomic under the GIL.

In-flight gauges (per endpoint and transport-wide) are kept only by
the transports whose readers need them: :class:`LatencyTransport`
(perf_gate's ``append_pipelined`` overlap witness) and
:class:`~repro.net.faulty.FaultyTransport` (the chaos suites). On
plain loopback a delivery is a synchronous function call, so the gauge
would only ever echo the number of client threads; there ``inflight``
and ``max_inflight`` read 0.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional

from repro.net.clock import Clock, LogicalClock


def resolve_method(resolve: Callable[[], object], target: str, op: str):
    """Resolve the live server object and the *callable* named by *op*.

    Shared by the in-process transports (loopback, faulty). A
    non-callable attribute is a protocol violation, not metadata: over
    a real wire there is no object to reach into, so delivery refuses
    to simulate it.
    """
    attr = getattr(resolve(), op)
    if not callable(attr):
        raise TypeError(
            f"rpc '{op}' to {target} names a non-callable server "
            f"attribute; attribute reach-through across the transport "
            f"is not supported (hold local metadata on the client, or "
            f"add a real RPC)"
        )
    return attr


class EndpointStats:
    """Per-node RPC counters, kept by the transport.

    ``rpcs`` counts delivered calls (the server actually executed);
    ``retries`` counts client-side retry decisions against this node;
    ``timeouts`` counts :class:`~repro.errors.RpcTimeout` raised to
    callers; ``duplicates`` counts extra at-least-once deliveries;
    ``drops`` counts lost requests/responses; ``reordered`` counts
    deliveries deferred past their issue order. ``batch_rpcs`` /
    ``batch_offsets`` count delivered *batched* reads (``read_many``)
    and the offsets they carried — the observable proof that the
    batched read path is collapsing round trips. ``inflight`` /
    ``max_inflight`` gauge calls currently being delivered and the
    high-water mark — the observable proof that the pipelined write
    path overlaps chain hops instead of serializing them.
    """

    __slots__ = (
        "rpcs", "retries", "timeouts", "duplicates", "drops", "reordered",
        "batch_rpcs", "batch_offsets", "inflight", "max_inflight", "_lock",
    )

    def __init__(self) -> None:
        self.rpcs = 0
        self.retries = 0
        self.timeouts = 0
        self.duplicates = 0
        self.drops = 0
        self.reordered = 0
        self.batch_rpcs = 0
        self.batch_offsets = 0
        self.inflight = 0
        self.max_inflight = 0
        self._lock = threading.Lock()

    def note_delivery(self, op: str, args: tuple) -> None:
        """Record one delivered call (the server executed it)."""
        with self._lock:
            self.rpcs += 1
            if op == "read_many" and args:
                self.batch_rpcs += 1
                try:
                    self.batch_offsets += len(args[0])
                except TypeError:  # pragma: no cover - malformed batch arg
                    pass

    def note_begin(self) -> None:
        """A delivery started executing (pairs with :meth:`note_end`)."""
        with self._lock:
            self.inflight += 1
            if self.inflight > self.max_inflight:
                self.max_inflight = self.inflight

    def note_end(self) -> None:
        with self._lock:
            self.inflight -= 1

    def note_retry(self) -> None:
        with self._lock:
            self.retries += 1

    def note_timeout(self) -> None:
        with self._lock:
            self.timeouts += 1

    def note_drop(self) -> None:
        with self._lock:
            self.drops += 1

    def note_duplicate(self) -> None:
        with self._lock:
            self.duplicates += 1

    def note_reordered(self) -> None:
        with self._lock:
            self.reordered += 1

    def to_dict(self) -> Dict[str, int]:
        """Consistent snapshot (taken under the counter lock)."""
        with self._lock:
            return {
                "rpcs": self.rpcs,
                "retries": self.retries,
                "timeouts": self.timeouts,
                "duplicates": self.duplicates,
                "drops": self.drops,
                "reordered": self.reordered,
                "batch_rpcs": self.batch_rpcs,
                "batch_offsets": self.batch_offsets,
                "inflight": self.inflight,
                "max_inflight": self.max_inflight,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<EndpointStats {self.to_dict()}>"


class RpcProxy:
    """A client's handle on one remote node.

    Every public attribute access names an RPC: the returned callable
    forwards through ``Transport.call`` when invoked, without touching
    the server object first (delivery — not attribute lookup — is what
    observes liveness, exactly like a real connection). The proxy's
    own local metadata is explicit: :attr:`source` and :attr:`target`
    name the endpoints. There is no attribute reach-through — asking a
    proxy for server state is answered with an error at call time, not
    a loopback-only shortcut.

    The forwarding callable for an op is built once, on first access,
    and cached in the instance dict, so later accesses are a plain
    attribute hit and never reach ``__getattr__`` again.
    """

    def __init__(
        self,
        transport: "Transport",
        source: str,
        target: str,
        resolve: Callable[[], object],
    ) -> None:
        self._transport = transport
        self._source = source
        self._target = target
        self._resolve = resolve

    @property
    def source(self) -> str:
        """Local metadata: the calling endpoint's name."""
        return self._source

    @property
    def target(self) -> str:
        """Local metadata: the node this proxy addresses."""
        return self._target

    def __getattr__(self, op: str):
        if op.startswith("_"):
            # Private/dunder lookups (copy, pickle, introspection) are
            # never RPCs; refusing them here keeps tooling honest.
            raise AttributeError(op)
        transport = self._transport
        source, target, resolve = self._source, self._target, self._resolve

        def rpc(*args, **kwargs):
            return transport.call(source, target, op, resolve, args, kwargs)

        rpc.__name__ = op
        self.__dict__[op] = rpc
        return rpc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RpcProxy {self._source}->{self._target}>"


class Transport:
    """Base class: endpoint stats plus the delivery interface.

    Each transport owns a :class:`~repro.net.clock.Clock`. In-process
    transports default to a :class:`~repro.net.clock.LogicalClock`
    (deterministic ticks), the socket transport plugs in a
    :class:`~repro.net.clock.MonotonicClock` (wall deadlines, real
    sleeps). Client retry code only ever calls :meth:`backoff`, so it
    is agnostic to which one is installed.
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        # Add-only endpoint map, read and grown without a lock (see the
        # module docstring); each EndpointStats guards its own counters.
        self._stats: Dict[str, EndpointStats] = {}
        # Guards the transport-wide in-flight gauge.
        self._gauge_lock = threading.Lock()
        self._inflight = 0
        self._max_inflight = 0
        self.clock: Clock = clock if clock is not None else LogicalClock()

    # -- delivery (subclass responsibility) ---------------------------------

    def call(
        self,
        source: str,
        target: str,
        op: str,
        resolve: Callable[[], object],
        args: tuple,
        kwargs: dict,
    ):
        raise NotImplementedError

    def backoff(self, source: str, attempt: int) -> None:
        """Client-side retry backoff hook.

        Delegates to the transport clock: logical clocks tick once
        (deterministic), wall clocks sleep the standard exponential
        schedule. Subclasses may layer extra work on top (the faulty
        transport flushes deferred deliveries here).
        """
        self.clock.backoff(attempt)

    # -- proxies ------------------------------------------------------------

    def proxy(
        self, source: str, target: str, resolve: Callable[[], object]
    ) -> RpcProxy:
        """A *source*-side handle on node *target*."""
        return RpcProxy(self, source, target, resolve)

    # -- observability ------------------------------------------------------

    def _note_begin(self) -> None:
        """A delivery started executing somewhere on this transport.

        Unlike the per-endpoint gauge (which shows concurrency against
        one node), the transport-wide gauge shows concurrency across
        the whole deployment — a pipelined chain write with one
        in-flight hop per replica reads 1 per endpoint but
        ``len(chain)`` here. Only the gauging transports call this pair.
        """
        with self._gauge_lock:
            self._inflight += 1
            if self._inflight > self._max_inflight:
                self._max_inflight = self._inflight

    def _note_end(self) -> None:
        with self._gauge_lock:
            self._inflight -= 1

    def inflight_stats(self) -> Dict[str, int]:
        """Transport-wide concurrent-delivery gauge and high-water mark."""
        with self._gauge_lock:
            return {
                "inflight": self._inflight,
                "max_inflight": self._max_inflight,
            }

    def stats_for(self, target: str) -> EndpointStats:
        stats = self._stats.get(target)
        if stats is None:
            # Two threads may race to create the entry; setdefault keeps
            # exactly one, and both callers get that one.
            stats = self._stats.setdefault(target, EndpointStats())
        return stats

    def record_retry(self, target: str) -> None:
        """Clients report each retry decision so operators can see them."""
        self.stats_for(target).note_retry()

    def endpoint_stats(self) -> Dict[str, Dict[str, int]]:
        """Snapshot of per-endpoint counters (fresh dicts, safe to mutate)."""
        targets = sorted(self._stats.copy().items())
        return {target: stats.to_dict() for target, stats in targets}


class LoopbackTransport(Transport):
    """Direct in-process delivery: no faults, no copies, no delay.

    This is the default transport and preserves the pre-``repro.net``
    semantics exactly: every RPC is one Python method call on the live
    server object. Its only bookkeeping is the delivery count — one
    lock acquisition per RPC; it keeps no in-flight gauge.
    """

    def call(
        self,
        source: str,
        target: str,
        op: str,
        resolve: Callable[[], object],
        args: tuple,
        kwargs: dict,
    ):
        self.stats_for(target).note_delivery(op, args)
        return resolve_method(resolve, target, op)(*args, **kwargs)


class LatencyTransport(LoopbackTransport):
    """Loopback delivery plus a fixed real-time delay per call.

    A benchmarking aid: loopback RPCs are plain function calls, so
    overlapping chain hops cannot be told apart from serializing them.
    This transport makes every delivery cost *delay_s* of wall time
    (slept on the caller's thread, never under a lock), so the
    pipelined write path's overlap shows up as real throughput —
    ``perf_gate.py``'s ``append_pipelined`` scenario runs on it. Uses a
    :class:`~repro.net.clock.MonotonicClock` (the sanctioned wall-time
    source), keeping deterministic logical time for everything else.
    Keeps the in-flight gauges (per endpoint and transport-wide): they
    are the scenario's witness that hops overlapped.
    """

    def __init__(self, delay_s: float = 0.0002) -> None:
        super().__init__()
        from repro.net.clock import MonotonicClock

        self.clock = MonotonicClock()
        self.delay_s = delay_s

    def call(
        self,
        source: str,
        target: str,
        op: str,
        resolve: Callable[[], object],
        args: tuple,
        kwargs: dict,
    ):
        # The simulated wire time is part of the delivery, so it sits
        # inside the in-flight gauge window: two calls sleeping their
        # delay concurrently are two overlapped deliveries.
        stats = self.stats_for(target)
        stats.note_delivery(op, args)
        stats.note_begin()
        self._note_begin()
        try:
            self.clock.sleep(self.delay_s)
            return resolve_method(resolve, target, op)(*args, **kwargs)
        finally:
            self._note_end()
            stats.note_end()
