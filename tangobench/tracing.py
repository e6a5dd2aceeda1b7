"""Outside-in tracing for the benchmark's traced runs.

Nothing here edits the program. A :class:`Tracer` replaces public
methods with timing wrappers on *instances* (``setattr`` on the object,
so the class and every other instance stay untouched), and the two
transport subclasses time each RPC at the transport boundary. Every
wrapper records one span: its layer, the method, the span that caused
it (the enclosing wrapped call on the same thread), the benchmark
operation it belongs to, and its start and duration. Spans are kept in
memory in a flat integer array and written out when the run ends.

Self time is a span's duration minus the durations of its direct child
spans, so the self times of all spans on a thread add up to the time
spent inside root spans. Whatever the benchmark loop spends outside
any root span is reported as unattributed. Time a thread spends blocked
inside a layer (on a lock, or waiting for another thread's group commit)
counts as that layer's self time.

Layers (the names used by the per-layer metrics):

- ``tango``: ``TangoRuntime`` methods and the ``TangoMap`` mutators and
  accessors;
- ``objects``: the ``apply`` upcall of each hosted ``TangoMap``;
- ``streams``: ``StreamClient`` methods;
- ``corfu.client``: ``CorfuClient`` methods (its chain replicator and
  retry loops are private to it, so their time is its self time);
- ``corfu.sequencer`` / ``corfu.storage``: the node objects returned by
  ``cluster.sequencer()`` and ``cluster.storage(name)``;
- ``store``: ``SegmentStore.append_frame`` of each segmented unit;
- ``net``: the transport's ``call``;
- ``gc``: the cyclic garbage collector, timed through ``gc.callbacks``
  and subtracted from the span it interrupted.
"""

from __future__ import annotations

import array
import gc
import inspect
import json
import os
import threading
import time
from typing import Callable, Dict, List, Tuple

from repro.net.socket import SocketTransport
from repro.net.transport import LoopbackTransport
from repro.store import FRAME

#: A span record is three int64s: start and duration in ns, and
#: ``key | depth << 12 | op << 20`` (depth 0 is a root span). Spans of
#: one thread are stored in the order they end, so each span's parent
#: is the next span in that thread's record that starts before it at
#: depth - 1.
SPAN_FIELDS = ("start_ns", "dur_ns", "key | depth << 12 | op << 20")


class _Thread:
    """One load thread's open spans, totals and span records."""

    __slots__ = ("stack", "agg", "counts", "spans", "op")

    def __init__(self) -> None:
        # Per open span: nanoseconds its finished child spans took.
        self.stack: List[int] = []
        # key id -> [calls, total_ns, self_ns].
        self.agg: Dict[int, list] = {}
        self.counts: Dict[str, int] = {}
        self.spans = array.array("q")
        self.op = 0


class Tracer:
    """Span recorder shared by every wrapper of one traced run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._keys: List[Tuple[str, str]] = []
        self._key_ids: Dict[Tuple[str, str], int] = {}
        # threading.get_ident() -> _Thread; written under _lock, read
        # without it (a dict lookup is atomic under the GIL).
        self._threads: Dict[int, _Thread] = {}
        #: Wrappers record only between :meth:`start` and :meth:`stop`;
        #: set-up and warm-up run dark.
        self.enabled = False
        #: Nanoseconds the cyclic garbage collector ran while enabled.
        #: A collection runs inside whichever span allocated last, and a
        #: deterministic workload trips it at the same call every time,
        #: so its time is taken out of the spans and reported on its own.
        self.gc_ns = 0
        self._gc_started = 0

    def start(self) -> None:
        gc.callbacks.append(self._on_gc)
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_started

    # -- span recording --------------------------------------------------------

    def key(self, layer: str, name: str) -> int:
        with self._lock:
            kid = self._key_ids.get((layer, name))
            if kid is None:
                kid = len(self._keys)
                self._keys.append((layer, name))
                self._key_ids[(layer, name)] = kid
            return kid

    def _thread(self) -> _Thread:
        ident = threading.get_ident()
        st = self._threads.get(ident)
        if st is None:
            with self._lock:
                st = self._threads[ident] = _Thread()
        return st

    def set_op(self, op: int) -> None:
        """Name the benchmark operation the calling thread runs next."""
        self._thread().op = op

    def call(self, kid: int, fn: Callable, args: tuple, kwargs: dict):
        """Run ``fn(*args, **kwargs)`` inside one span of key *kid*."""
        if not self.enabled:
            return fn(*args, **kwargs)
        st = self._threads.get(threading.get_ident()) or self._thread()
        stack = st.stack
        stack.append(0)
        gc0 = self.gc_ns
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter_ns() - start - (self.gc_ns - gc0)
            child = stack.pop()
            if stack:
                stack[-1] += dur
            row = st.agg.get(kid)
            if row is None:
                row = st.agg[kid] = [0, 0, 0]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child
            st.spans.extend((start, dur, kid | len(stack) << 12 | st.op << 20))

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            counts = self._thread().counts
            counts[name] = counts.get(name, 0) + n

    # -- wrapping ----------------------------------------------------------------

    def wrap(self, obj: object, layer: str, names=None) -> None:
        """Wrap public methods of *obj* (an instance) in spans of *layer*.

        *names* defaults to every public method defined on the class.
        Properties are never touched.
        """
        cls = type(obj)
        if names is None:
            names = [
                n
                for n, member in inspect.getmembers(cls)
                if not n.startswith("_") and inspect.isfunction(member)
            ]
        for name in names:
            fn = getattr(obj, name)
            kid = self.key(layer, f"{cls.__name__}.{name}")
            setattr(obj, name, self._wrapper(kid, fn))

    def _wrapper(self, kid: int, fn: Callable) -> Callable:
        call = self.call

        def traced(*args, **kwargs):
            return call(kid, fn, args, kwargs)

        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def wrap_corfu_client(self, client) -> None:
        """Wrap a ``CorfuClient``, counting offsets each read asks for."""
        self.wrap(client, "corfu.client")
        read, read_many = client.read, client.read_many
        count = self.count

        def counted_read(offset):
            count("entries_read")
            return read(offset)

        def counted_read_many(offsets):
            offsets = list(offsets)
            count("entries_read", len(offsets))
            return read_many(offsets)

        client.read = counted_read
        client.read_many = counted_read_many

    def wrap_segment_store(self, store) -> None:
        """Wrap ``SegmentStore.append_frame``, counting frame bytes."""
        append_frame = store.append_frame
        count = self.count
        kid = self.key("store", "SegmentStore.append_frame")

        def traced(op, epoch, address, data):
            count("store_bytes", FRAME.size + len(data))
            return self.call(kid, append_frame, (op, epoch, address, data), {})

        store.append_frame = traced

    # -- reporting -----------------------------------------------------------------

    def _all_threads(self) -> List[_Thread]:
        with self._lock:
            return list(self._threads.values())

    def totals(self) -> Dict[Tuple[str, str], list]:
        """(layer, name) -> [calls, total_ns, self_ns] over all threads."""
        merged: Dict[int, list] = {}
        for st in self._all_threads():
            for kid, (calls, total, own) in list(st.agg.items()):
                row = merged.setdefault(kid, [0, 0, 0])
                row[0] += calls
                row[1] += total
                row[2] += own
        return {self._keys[kid]: row for kid, row in merged.items()}

    def counters(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for st in self._all_threads():
            for name, n in list(st.counts.items()):
                merged[name] = merged.get(name, 0) + n
        return merged

    def span_count(self) -> int:
        return sum(len(st.spans) for st in self._all_threads()) // len(SPAN_FIELDS)

    def write(self, directory: str, stem: str) -> str:
        """Write each thread's spans and the key table under *directory*."""
        os.makedirs(directory, exist_ok=True)
        base = os.path.join(directory, stem)
        threads = self._all_threads()
        with open(base + ".spans.bin", "wb") as fh:
            for st in threads:
                st.spans.tofile(fh)
        with open(base + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "format": "int64 native-endian records, thread after thread",
                    "fields": list(SPAN_FIELDS),
                    "spans_per_thread": [len(st.spans) // 3 for st in threads],
                    "keys": [list(k) for k in self._keys],
                },
                fh,
                indent=1,
            )
        return base + ".spans.bin"


def _node_kind(target: str) -> str:
    return "sequencer" if target.startswith("seq") else "storage"


class _RpcCounting:
    """Shared by both traced transports: one ``net`` span per RPC."""

    tracer: Tracer

    def _traced_call(self, parent_call, source, target, op, resolve, args, kwargs):
        kind = _node_kind(target)
        tracer = self.tracer
        tracer.count(f"rpc.{kind}.{op}")
        if op == "read_many" and args:
            tracer.count("storage_read_offsets", len(args[0]))
        elif op == "read":
            tracer.count("storage_read_offsets")
        elif op == "increment":
            tracer.count("granted_offsets", kwargs.get("count", 1))
        elif op == "reserve_group":
            tracer.count("granted_offsets")
        kid = self._kids.get((kind, op))
        if kid is None:
            kid = self._kids[(kind, op)] = tracer.key(
                "net", f"{type(self).__name__}.{kind}.{op}"
            )
        return tracer.call(
            kid, parent_call, (self, source, target, op, resolve, args, kwargs), {}
        )


class TracingLoopbackTransport(_RpcCounting, LoopbackTransport):
    """Loopback delivery with one ``net`` span per RPC."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer
        self._kids: Dict[Tuple[str, str], int] = {}

    def call(self, source, target, op, resolve, args, kwargs):
        return self._traced_call(
            LoopbackTransport.call, source, target, op, resolve, args, kwargs
        )


class TracingSocketTransport(_RpcCounting, SocketTransport):
    """TCP delivery with one ``net`` span per RPC (client-side round trip)."""

    def __init__(self, tracer: Tracer, **kwargs) -> None:
        super().__init__(**kwargs)
        self.tracer = tracer
        self._kids: Dict[Tuple[str, str], int] = {}

    def call(self, source, target, op, resolve, args, kwargs):
        return self._traced_call(
            SocketTransport.call, source, target, op, resolve, args, kwargs
        )


def instrument_runtime(tracer: Tracer, runtime, maps) -> None:
    """Wrap a runtime's whole client stack and the maps it hosts."""
    tracer.wrap(runtime, "tango")
    for tmap in maps:
        tracer.wrap(
            tmap,
            "tango",
            names=("put", "remove", "clear", "get", "contains", "size", "keys",
                   "items"),
        )
        tracer.wrap(tmap, "objects", names=["apply"])
    streams = runtime.streams
    tracer.wrap(streams, "streams")
    tracer.wrap_corfu_client(streams.corfu)


def instrument_nodes(tracer: Tracer, cluster) -> None:
    """Wrap the in-process sequencer and storage node objects."""
    projection = cluster.projection
    for name in projection.sequencer_shards:
        tracer.wrap(cluster.sequencer(name), "corfu.sequencer")
    for name in projection.all_nodes():
        unit = cluster.storage(name)
        tracer.wrap(unit, "corfu.storage")
        store = getattr(unit, "store", None)
        if store is not None:
            tracer.wrap_segment_store(store)


def layer_metrics(
    tracer: Tracer,
    ops: int,
    traced_wall_ns: int,
    overhead_ratio: float,
    appends: int,
    user_bytes: int,
    client_retries: int,
    aborts: int,
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced phase, by name -> (value, unit)."""
    totals = tracer.totals()
    counts = tracer.counters()
    per_op = 1.0 / ops

    def layer_sum(layer: str, field: int, method=None) -> int:
        return sum(
            row[field]
            for (lay, name), row in totals.items()
            if lay == layer and (method is None or name.endswith("." + method))
        )

    def us(ns: float) -> float:
        return ns / 1000.0

    def rpcs(kind: str, ops_=None) -> int:
        prefix = f"rpc.{kind}."
        return sum(
            n
            for key, n in counts.items()
            if key.startswith(prefix)
            and (ops_ is None or key[len(prefix):] in ops_)
        )

    end_tx_calls = layer_sum("tango", 0, "end_tx")
    seq_rpcs = rpcs("sequencer")
    grants = rpcs("sequencer", ("increment", "reserve_group"))
    granted = counts.get("granted_offsets", 0)
    write_rpcs = rpcs("storage", ("write",))
    read_rpcs = rpcs("storage", ("read", "read_many"))
    all_rpcs = rpcs("sequencer") + rpcs("storage")
    net_calls = layer_sum("net", 0)
    attributed = sum(row[2] for row in totals.values())
    return {
        "tango.self_us_per_op": (us(layer_sum("tango", 2)) * per_op, "us"),
        "tango.end_tx_self_us": (
            us(layer_sum("tango", 2, "end_tx")) / end_tx_calls
            if end_tx_calls else 0.0,
            "us",
        ),
        "tango.aborts_per_op": (aborts * per_op, "count"),
        "objects.applies_per_op": (layer_sum("objects", 0) * per_op, "count"),
        "objects.apply_us_per_op": (us(layer_sum("objects", 2)) * per_op, "us"),
        "streams.self_us_per_op": (us(layer_sum("streams", 2)) * per_op, "us"),
        "streams.entries_read_per_op": (
            counts.get("entries_read", 0) * per_op, "count"
        ),
        "corfu.client.self_us_per_op": (
            us(layer_sum("corfu.client", 2)) * per_op, "us"
        ),
        "corfu.client.appends_per_op": (appends * per_op, "count"),
        "corfu.client.retries_per_op": (
            (client_retries + max(0, granted - appends)) * per_op, "count"
        ),
        "corfu.sequencer.rpcs_per_op": (seq_rpcs * per_op, "count"),
        "corfu.sequencer.busy_us_per_op": (
            us(layer_sum("corfu.sequencer", 1)) * per_op, "us"
        ),
        "corfu.sequencer.offsets_per_grant": (
            granted / grants if grants else 0.0, "count"
        ),
        "corfu.storage.write_rpcs_per_op": (write_rpcs * per_op, "count"),
        "corfu.storage.read_rpcs_per_op": (read_rpcs * per_op, "count"),
        "corfu.storage.offsets_per_read_rpc": (
            counts.get("storage_read_offsets", 0) / read_rpcs
            if read_rpcs else 0.0,
            "count",
        ),
        "corfu.storage.busy_us_per_op": (
            us(layer_sum("corfu.storage", 1)) * per_op, "us"
        ),
        "store.append_us_per_op": (us(layer_sum("store", 1)) * per_op, "us"),
        "store.bytes_per_user_byte": (
            counts.get("store_bytes", 0) / user_bytes if user_bytes else 0.0,
            "B/B",
        ),
        "net.rpcs_per_op": (all_rpcs * per_op, "count"),
        "net.dispatch_us_per_rpc": (
            us(layer_sum("net", 2)) / net_calls if net_calls else 0.0, "us"
        ),
        "net.rpc_rtt_us": (
            us(layer_sum("net", 1)) / net_calls if net_calls else 0.0, "us"
        ),
        "gc.us_per_op": (us(tracer.gc_ns) * per_op, "us"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "trace.unattributed_us_per_op": (
            us(max(0, traced_wall_ns - attributed - tracer.gc_ns)) * per_op, "us"
        ),
    }
