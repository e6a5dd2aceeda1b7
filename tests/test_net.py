"""The transport layer: loopback semantics, fault injection, retries.

``repro.net`` mediates every client↔node call. The loopback transport
must preserve direct-call semantics exactly; the faulty transport must
inject drops, duplicates, reordering and partitions deterministically;
and the client's retry machinery must keep the log exactly-once under
all of them (burned sequencer offsets become filled holes, duplicated
chain writes bounce off the write-once check, lost responses are
retried against the same offset).
"""

import pytest

import repro.corfu.client as client_mod
from repro.corfu import CorfuCluster
from repro.errors import (
    CorfuError,
    RetriesExhaustedError,
    RpcTimeout,
    UnwrittenError,
)
from repro.net import FaultyTransport, LoopbackTransport
from repro.objects import TangoMap
from repro.tango.runtime import TangoRuntime


class _Echo:
    """A minimal RPC server for transport-level tests."""

    def __init__(self):
        self.calls = []
        self.label = "echo"

    def ping(self, value, scale=1):
        self.calls.append(value)
        return value * scale


# ---------------------------------------------------------------------------
# loopback: direct-call semantics plus counters
# ---------------------------------------------------------------------------


class TestLoopbackTransport:
    def test_proxy_forwards_calls_and_counts(self):
        net = LoopbackTransport()
        server = _Echo()
        proxy = net.proxy("client-1", "node-a", lambda: server)
        assert proxy.ping(3, scale=2) == 6
        assert server.calls == [3]
        assert net.endpoint_stats()["node-a"]["rpcs"] == 1

    def test_attribute_reach_through_is_a_hard_error(self):
        # A real wire has no server object to reach into: accessing a
        # name yields an RPC callable, and *invoking* it against a
        # non-callable server attribute fails loudly at delivery time.
        net = LoopbackTransport()
        proxy = net.proxy("client-1", "node-a", lambda: _Echo())
        rpc = proxy.label  # attribute access only names the RPC
        assert callable(rpc)
        assert net.endpoint_stats() == {}  # nothing delivered yet
        with pytest.raises(TypeError, match="non-callable"):
            rpc()

    def test_proxy_exposes_endpoint_metadata_locally(self):
        net = LoopbackTransport()
        proxy = net.proxy("client-1", "node-a", lambda: _Echo())
        assert proxy.source == "client-1"
        assert proxy.target == "node-a"
        assert net.endpoint_stats() == {}  # metadata reads are local
        with pytest.raises(AttributeError):
            proxy._resolve_anything  # private names are never RPCs

    def test_resolve_happens_at_delivery_time(self):
        # Swapping the live server object (crash/recover) must be
        # visible through an existing proxy, like a real reconnect.
        net = LoopbackTransport()
        box = {"server": _Echo()}
        proxy = net.proxy("client-1", "node-a", lambda: box["server"])
        proxy.ping(1)
        replacement = _Echo()
        box["server"] = replacement
        proxy.ping(2)
        assert replacement.calls == [2]

    def test_stats_snapshot_is_fresh_and_sorted(self):
        net = LoopbackTransport()
        for node in ("node-b", "node-a"):
            net.record_retry(node)
        snap = net.endpoint_stats()
        assert list(snap) == ["node-a", "node-b"]
        snap["node-a"]["retries"] = 99
        assert net.endpoint_stats()["node-a"]["retries"] == 1

    def test_backoff_is_a_no_op(self):
        LoopbackTransport().backoff("client-1", attempt=3)


# ---------------------------------------------------------------------------
# fault injection mechanics
# ---------------------------------------------------------------------------


class TestFaultyTransportMechanics:
    def _proxy(self, net, server):
        return net.proxy("client-1", "node-a", lambda: server)

    def test_no_faults_behaves_like_loopback(self):
        net = FaultyTransport(seed=0)
        server = _Echo()
        assert self._proxy(net, server).ping(7) == 7
        assert server.calls == [7]

    def test_request_drop_never_reaches_the_server(self):
        net = FaultyTransport(seed=0, drop_request=1.0)
        server = _Echo()
        with pytest.raises(RpcTimeout):
            self._proxy(net, server).ping(1)
        assert server.calls == []
        stats = net.endpoint_stats()["node-a"]
        assert stats["drops"] == stats["timeouts"] == 1
        assert stats["rpcs"] == 0

    def test_response_drop_executes_but_times_out(self):
        net = FaultyTransport(seed=0, drop_response=1.0)
        server = _Echo()
        with pytest.raises(RpcTimeout):
            self._proxy(net, server).ping(1)
        assert server.calls == [1]  # the ambiguity: it DID execute
        assert net.endpoint_stats()["node-a"]["rpcs"] == 1

    def test_duplicate_executes_twice_returns_once(self):
        net = FaultyTransport(seed=0, duplicate=1.0)
        server = _Echo()
        assert self._proxy(net, server).ping(5) == 5
        assert server.calls == [5, 5]
        stats = net.endpoint_stats()["node-a"]
        assert stats["duplicates"] == 1 and stats["rpcs"] == 2

    def test_duplicate_swallows_the_second_outcome(self):
        # The retransmission bouncing off an idempotence check
        # (WrittenError and friends) must not surface to the caller.
        class OnceOnly:
            def __init__(self):
                self.armed = True

            def op(self):
                if self.armed:
                    self.armed = False
                    return "ok"
                raise CorfuError("already done")

        net = FaultyTransport(seed=0, duplicate=1.0)
        server = OnceOnly()
        proxy = net.proxy("c", "n", lambda: server)
        assert proxy.op() == "ok"
        assert not server.armed

    def test_reorder_defers_delivery_until_backoff(self):
        net = FaultyTransport(seed=0, reorder=1.0, max_delay=1)
        server = _Echo()
        proxy = self._proxy(net, server)
        with pytest.raises(RpcTimeout):
            proxy.ping(9)
        assert server.calls == []  # in flight, not delivered
        net.set_rates(reorder=0.0)
        net.backoff("client-1", attempt=0)  # logical time advances
        assert server.calls == [9]
        assert net.endpoint_stats()["node-a"]["reordered"] == 1

    def test_deliver_delayed_flushes_everything(self):
        net = FaultyTransport(seed=0, reorder=1.0, max_delay=1000)
        server = _Echo()
        proxy = self._proxy(net, server)
        for i in range(3):
            with pytest.raises(RpcTimeout):
                proxy.ping(i)
        assert net.deliver_delayed() == 3
        assert sorted(server.calls) == [0, 1, 2]

    def test_partition_and_heal(self):
        net = FaultyTransport(seed=0)
        server = _Echo()
        proxy = self._proxy(net, server)
        net.partition("client-1", "node-a")
        assert net.partitioned("node-a", "client-1")  # symmetric
        with pytest.raises(RpcTimeout):
            proxy.ping(1)
        assert server.calls == []
        net.heal("client-1", "node-a")
        assert proxy.ping(2) == 2
        with pytest.raises(ValueError):
            net.heal("client-1")  # one endpoint only is ambiguous

    def test_calm_silences_every_fault(self):
        net = FaultyTransport(
            seed=0, drop_request=1.0, duplicate=1.0, reorder=1.0
        )
        net.partition("a", "b")
        net.calm()
        assert net.partitions == ()
        server = _Echo()
        assert self._proxy(net, server).ping(4) == 4
        assert server.calls == [4]

    def test_set_rates_rejects_unknown_knobs(self):
        with pytest.raises(ValueError):
            FaultyTransport(seed=0).set_rates(jitter=0.5)

    def test_simulated_latency_accrues_without_sleeping(self):
        net = FaultyTransport(seed=0, latency_ms=5.0)
        proxy = self._proxy(net, _Echo())
        for _ in range(10):
            proxy.ping(0)
        assert 0 < net.simulated_latency_ms <= 50.0

    def test_same_seed_same_fault_schedule(self):
        def run(seed):
            net = FaultyTransport(
                seed=seed, drop_request=0.3, drop_response=0.2, duplicate=0.2
            )
            server = _Echo()
            proxy = net.proxy("c", "n", lambda: server)
            outcomes = []
            for i in range(40):
                try:
                    proxy.ping(i)
                    outcomes.append("ok")
                except RpcTimeout:
                    outcomes.append("timeout")
            return outcomes, server.calls, net.endpoint_stats()

        assert run(7) == run(7)
        assert run(7) != run(8)


# ---------------------------------------------------------------------------
# end-to-end: the client's retry machinery over a faulty network
# ---------------------------------------------------------------------------


def _harvest(cluster, client):
    """Read the whole log, filling any leftover holes; return
    (non-junk payloads in offset order, junk offsets)."""
    tail = client.check()
    payloads, junk = [], []
    for offset in range(tail):
        try:
            entry = client.read(offset)
        except UnwrittenError:
            client.fill(offset)
            entry = client.read(offset)
        if entry.is_junk:
            junk.append(offset)
        else:
            payloads.append(entry.payload)
    return payloads, junk


#: (RetriesExhaustedError.op, what the client is partitioned from, call)
#: for every client operation that retries; a partition from the
#: storage nodes lets an append's grant through but not its chain write.
_RETRYING_OPS = [
    ("append", "sequencer", lambda c: c.append(b"x")),
    ("append_batch", "sequencer", lambda c: c.append_batch([b"x", b"y"])),
    ("append.chain_write", "storage", lambda c: c.append(b"x")),
    ("read", "storage", lambda c: c.read(0)),
    ("read_many", "storage", lambda c: c.read_many([0])),
    ("is_written", "storage", lambda c: c.is_written(0)),
    ("check", "sequencer", lambda c: c.check()),
    ("query_streams", "sequencer", lambda c: c.query_streams((1,))),
    ("fill", "storage", lambda c: c.fill(0)),
    ("trim", "storage", lambda c: c.trim(0)),
    ("trim_prefix", "storage", lambda c: c.trim_prefix(1)),
]


class TestClientOverFaultyNetwork:
    def test_response_drops_never_duplicate_or_lose_entries(self):
        # Lost responses force retries of both increments (burning
        # offsets) and chain writes (retried at the SAME offset with
        # maybe_mine); each payload must land exactly once.
        net = FaultyTransport(seed=3, drop_request=0.1, drop_response=0.2)
        cluster = CorfuCluster(num_sets=2, replication_factor=2, transport=net)
        client = cluster.client()
        expected = [b"payload-%d" % i for i in range(40)]
        offsets = [client.append(p) for p in expected]
        assert len(set(offsets)) == len(offsets)
        net.calm()
        payloads, _junk = _harvest(cluster, cluster.client())
        assert payloads == expected  # exactly once, in append order

    def test_duplicated_increments_become_filled_holes(self):
        # At-least-once delivery of `increment` burns offsets: the
        # second execution's offset is never written and must be
        # absorbed by hole-filling as a junk entry — the acceptance
        # criterion for the fault model.
        net = FaultyTransport(seed=7, duplicate=0.4)
        cluster = CorfuCluster(num_sets=2, replication_factor=2, transport=net)
        client = cluster.client()
        expected = [b"p%d" % i for i in range(30)]
        offsets = [client.append(p) for p in expected]
        net.calm()
        tail = client.check()
        assert tail > len(expected)  # offsets were burned
        burned = sorted(set(range(tail)) - set(offsets))
        assert burned
        reader = cluster.client()
        payloads, junk = _harvest(cluster, reader)
        assert junk == burned  # every burned offset is now a junk fill
        assert payloads == expected
        assert reader.fills == len(burned)

    def test_partition_from_storage_drives_ejection(self):
        net = FaultyTransport(seed=1)
        cluster = CorfuCluster(num_sets=2, replication_factor=2, transport=net)
        client = cluster.client()
        client.append(b"before")
        victim = sorted(cluster.projection.all_nodes())[0]
        epoch0 = cluster.projection.epoch
        net.partition(client.name, victim)
        for i in range(6):
            client.append(b"during-%d" % i)
        assert cluster.projection.epoch > epoch0
        assert victim not in cluster.projection.all_nodes()
        net.calm()
        payloads, _ = _harvest(cluster, cluster.client())
        assert payloads == [b"before"] + [b"during-%d" % i for i in range(6)]

    def test_partition_from_sequencer_drives_failover(self):
        net = FaultyTransport(seed=1)
        cluster = CorfuCluster(num_sets=2, replication_factor=2, transport=net)
        client = cluster.client()
        client.append(b"one", stream_ids=(4,))
        old_seq = cluster.projection.sequencer
        net.partition(client.name, old_seq)
        client.append(b"two", stream_ids=(4,))
        assert cluster.projection.sequencer != old_seq
        # The replacement recovered tail and backpointers by scanning.
        tail, ptrs = client.query_streams((4,))
        assert tail == 2
        assert set(ptrs[4]) == {0, 1}

    @pytest.mark.parametrize(
        "op, cut_off, call",
        _RETRYING_OPS,
        ids=[case[0] for case in _RETRYING_OPS],
    )
    def test_retries_exhausted_surfaces_as_typed_error(
        self, monkeypatch, op, cut_off, call
    ):
        # With the failure detector disabled, a persistent partition
        # exhausts the retry budget instead of reconfiguring — every
        # bounded-retry path must raise RetriesExhaustedError naming
        # its operation, never the old sentinel values.
        monkeypatch.setattr(client_mod, "_TIMEOUT_FAILOVER", 10**9)
        net = FaultyTransport(seed=0)
        cluster = CorfuCluster(num_sets=1, replication_factor=2, transport=net)
        client = cluster.client()
        client.append(b"ok")
        if cut_off == "sequencer":
            net.partition(client.name, cluster.projection.sequencer)
        else:
            for node in cluster.projection.all_nodes():
                net.partition(client.name, node)
        with pytest.raises(RetriesExhaustedError) as excinfo:
            call(client)
        assert excinfo.value.op == op
        assert excinfo.value.attempts == client_mod._MAX_RETRIES
        assert isinstance(excinfo.value, CorfuError)

    def test_net_counters_reach_runtime_status(self):
        net = FaultyTransport(seed=2, drop_response=0.3)
        cluster = CorfuCluster(num_sets=2, replication_factor=2, transport=net)
        rt = TangoRuntime(cluster, client_id=1)
        m = TangoMap(rt, oid=1)
        for i in range(15):
            m.put(f"k{i}", i)
        status = rt.status()
        stats = status["net"]
        assert stats  # per-endpoint dicts present
        assert any(s["timeouts"] > 0 for s in stats.values())
        assert any(s["retries"] > 0 for s in stats.values())
        assert sum(s["rpcs"] for s in stats.values()) > 15

    def test_loopback_leaves_existing_counters_unchanged(self, cluster):
        # The default transport must not perturb the counters the
        # performance model reads (an append is still exactly one
        # sequencer increment plus one chain write per replica).
        client = cluster.client()
        client.append(b"x")
        seq = cluster.sequencer(cluster.projection.sequencer)
        assert seq.increments == 1
        stats = client.net_stats()
        assert stats[cluster.projection.sequencer]["rpcs"] == 1
        assert all(s["timeouts"] == 0 for s in stats.values())
        assert all(s["retries"] == 0 for s in stats.values())
