"""Tests for the inline (uncontended) append path.

A synchronous ``CorfuClient.append`` that finds the append pipeline idle
runs on its caller's thread as the pipeline leader, with no
``AppendFuture`` and no ``threading.Event``. Callers that arrive while a
leader is active queue as futures; the leader commits them through one
``append_batch`` grant before it releases leadership, so no follower
has to wait out the follower timeout slice.

CI runs this file under ``REPRO_LOCKCHECK=1`` as well.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.corfu import CorfuCluster
from repro.corfu import client as client_mod
from repro.net import LoopbackTransport


class _GatedTransport(LoopbackTransport):
    """Loopback delivery that parks the first sequencer ``increment``
    until the test opens the gate (after followers have queued)."""

    def __init__(self) -> None:
        super().__init__()
        self.entered = threading.Event()
        self.gate = threading.Event()
        self._armed = True

    def call(self, source, target, op, resolve, args, kwargs):
        if op == "increment" and self._armed:
            self._armed = False
            self.entered.set()
            assert self.gate.wait(timeout=30), "test never opened the gate"
        return super().call(source, target, op, resolve, args, kwargs)


def _wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def _queued(client) -> int:
    pipeline = client._pipeline
    with pipeline._lock:
        return len(pipeline._queue)


class TestInlineAppend:
    def test_lone_append_allocates_no_future_or_event(self, monkeypatch):
        client = CorfuCluster(num_sets=3, replication_factor=2).client()
        client.append(b"warm", (1,))  # proxies and projection are warm
        created = {"futures": 0, "events": 0}
        real_future, real_event = client_mod.AppendFuture, threading.Event

        class CountingFuture(real_future):
            def __init__(self, *args, **kwargs):
                created["futures"] += 1
                super().__init__(*args, **kwargs)

        def counting_event(*args, **kwargs):
            created["events"] += 1
            return real_event(*args, **kwargs)

        monkeypatch.setattr(client_mod, "AppendFuture", CountingFuture)
        monkeypatch.setattr(threading, "Event", counting_event)
        offsets = [client.append(b"lone-%d" % i, (1,)) for i in range(20)]
        monkeypatch.undo()

        assert created == {"futures": 0, "events": 0}
        assert offsets == list(range(1, 21))
        for i, offset in enumerate(offsets):
            assert client.read(offset).payload == b"lone-%d" % i
        assert client.appends == 21

    def test_inline_append_validates_before_leading(self):
        cluster = CorfuCluster(num_sets=1, replication_factor=2)
        client = cluster.client()
        with pytest.raises(ValueError):
            client.append(b"x" * (cluster.entry_size + 1), (1,))
        # Leadership was never taken (or was released): the next lone
        # append runs inline at offset 0.
        assert client._pipeline.try_lead()
        client._pipeline.drain()
        assert client.append(b"ok", (1,)) == 0

    def test_contended_appends_queue_and_coalesce(self, monkeypatch):
        """While a leader's inline append is in flight, concurrent
        append() calls queue; the leader commits them all through one
        append_batch grant, and no follower waits out a wait slice."""
        # A follower woken only by its wait slice would stall this long;
        # the joins below would then time out.
        monkeypatch.setattr(client_mod, "_FOLLOWER_WAIT_SLICE", 60.0)
        transport = _GatedTransport()
        cluster = CorfuCluster(num_sets=1, replication_factor=2, transport=transport)
        client = cluster.client()
        batches = []
        real_batch = client.append_batch

        def spy_batch(payloads, stream_ids=()):
            batches.append(list(payloads))
            return real_batch(payloads, stream_ids)

        client.append_batch = spy_batch
        results = {}

        def appender(name: bytes) -> None:
            results[name] = client.append(name, (1,))

        leader = threading.Thread(target=appender, args=(b"leader",))
        leader.start()
        assert transport.entered.wait(timeout=10)
        followers = [
            threading.Thread(target=appender, args=(b"f%d" % i,))
            for i in range(6)
        ]
        for t in followers:
            t.start()
        _wait_until(lambda: _queued(client) == len(followers))
        started = time.monotonic()
        transport.gate.set()
        for t in [leader, *followers]:
            t.join(timeout=20)
            assert not t.is_alive(), "a follower waited out its slice"
        assert time.monotonic() - started < 20

        assert results[b"leader"] == 0
        assert len(batches) == 1  # one grant for every queued follower
        assert sorted(batches[0]) == sorted(b"f%d" % i for i in range(6))
        assert sorted(results.values()) == list(range(7))
        for payload, offset in results.items():
            assert client.read(offset).payload == payload
        # One increment for the leader, one for the coalesced batch.
        seq = cluster.projection.sequencer
        assert client.net_stats()[seq]["rpcs"] == 2

    def test_pipeline_is_idle_after_contention(self):
        transport = _GatedTransport()
        cluster = CorfuCluster(num_sets=1, replication_factor=2, transport=transport)
        client = cluster.client()
        leader = threading.Thread(target=client.append, args=(b"a", (1,)))
        leader.start()
        assert transport.entered.wait(timeout=10)
        fut = client.append_async(b"b", (1,))
        transport.gate.set()
        leader.join(timeout=20)
        assert fut.done()  # drained by the inline leader, not by result()
        assert fut.result() == 1
        assert client._pipeline.try_lead()  # leadership was released
        client._pipeline.drain()

    def test_failed_inline_append_releases_leadership(self, monkeypatch):
        client = CorfuCluster(num_sets=1, replication_factor=2).client()

        def boom(payload, stream_ids=()):
            raise RuntimeError("injected")

        monkeypatch.setattr(client, "_append_sync", boom)
        with pytest.raises(RuntimeError):
            client.append(b"x", (1,))
        monkeypatch.undo()
        assert client.append(b"y", (1,)) == 0
