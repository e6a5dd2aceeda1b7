"""Transport counters stay exact under real thread concurrency.

A plain loopback RPC takes a single lock (the endpoint's counter lock)
and the endpoint map is grown without one. These tests hammer both from
many threads, with a tiny GIL switch interval to force interleavings,
and check that no increment is lost and no endpoint entry is duplicated.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.net import LatencyTransport, LoopbackTransport

THREADS = 8
CALLS = 5_000


class _Node:
    def ping(self, value):
        return value

    def read_many(self, addresses):
        return {a: ("ok", b"") for a in addresses}


@pytest.fixture
def fast_switching():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def _hammer(fn) -> None:
    start = threading.Barrier(THREADS)

    def worker(tid: int) -> None:
        start.wait()
        fn(tid)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive(), "worker did not finish"


def test_loopback_rpc_count_is_exact(fast_switching):
    net = LoopbackTransport()
    node = _Node()

    def calls(tid: int) -> None:
        proxy = net.proxy(f"client-{tid}", "node-a", lambda: node)
        for i in range(CALLS):
            assert proxy.ping(i) == i

    _hammer(calls)
    stats = net.endpoint_stats()
    assert list(stats) == ["node-a"]
    assert stats["node-a"]["rpcs"] == THREADS * CALLS
    # The failure detector reads one counter attribute directly.
    assert net.stats_for("node-a").rpcs == THREADS * CALLS
    # Plain loopback keeps no in-flight gauge.
    assert stats["node-a"]["inflight"] == stats["node-a"]["max_inflight"] == 0
    assert net.inflight_stats() == {"inflight": 0, "max_inflight": 0}


def test_read_many_batch_counters_are_exact(fast_switching):
    net = LoopbackTransport()
    node = _Node()
    per_thread = 1_000

    def calls(tid: int) -> None:
        proxy = net.proxy(f"client-{tid}", "node-a", lambda: node)
        for i in range(per_thread):
            proxy.read_many([i, i + 1, i + 2])

    _hammer(calls)
    stats = net.endpoint_stats()["node-a"]
    assert stats["rpcs"] == THREADS * per_thread
    assert stats["batch_rpcs"] == THREADS * per_thread
    assert stats["batch_offsets"] == 3 * THREADS * per_thread


def test_racing_first_contact_creates_one_entry_per_node(fast_switching):
    net = LoopbackTransport()
    node = _Node()
    names = [f"node-{i}" for i in range(256)]

    def calls(tid: int) -> None:
        for name in names:
            net.proxy(f"client-{tid}", name, lambda: node).ping(tid)

    _hammer(calls)
    stats = net.endpoint_stats()
    assert sorted(stats) == sorted(names)
    assert all(s["rpcs"] == THREADS for s in stats.values())


def test_latency_transport_keeps_its_gauges():
    net = LatencyTransport(delay_s=0.005)
    node = _Node()
    _hammer(
        lambda tid: net.proxy(f"client-{tid}", "node-a", lambda: node).ping(tid)
    )
    stats = net.endpoint_stats()["node-a"]
    assert stats["rpcs"] == THREADS
    assert stats["inflight"] == 0
    assert stats["max_inflight"] >= 2
    assert net.inflight_stats()["max_inflight"] >= 2


def test_proxy_builds_each_rpc_callable_once():
    net = LoopbackTransport()
    proxy = net.proxy("client-1", "node-a", _Node)
    assert proxy.ping is proxy.ping
    assert proxy.ping(3) == 3
    assert proxy.read_many is not proxy.ping
