"""The four Tango workloads of the benchmark.

Every workload is a closed loop: a load thread sends its next request
only after the previous one completed. All load comes from the one
benchmark process. Inputs (which object, which key, which operation)
are generated from ``--seed`` before set-up and timing; each put writes
a unique 100-byte value whose first twelve characters are the put's
sequence number, so every answer can be traced to the put that wrote
it. The in-process workloads use ``CorfuCluster(num_sets=3,
replication_factor=2)`` with one sequencer shard and the loopback
transport, which adds no delay: their latency is processor time.

``ingest``
    One load thread and one runtime put into 8 ``TangoMap`` objects (8
    streams); the map and the key are uniform, keys over 100k. Storage
    is the segmented durable store (``open_durable_cluster``) with
    fsync off, because fsync on this class of sandbox measured p50
    about 0.1 ms and p99 0.8-1.9 ms, which would bury the code path
    under device noise. Segments are the default 1 MiB and roll several
    times per run. This is the mutator path: ``update_helper``, stream
    append, sequencer ``increment``, two chain writes, one segment
    frame per replica. It loads ``corfu.client``, ``corfu.sequencer``,
    ``corfu.storage`` and ``store``; nothing is read back, so the
    read and playback path is bypassed. Check: after the run the
    segment directories are reopened in a fresh deployment and every
    key of every map is compared with the model.

``read_follow``
    One load thread drives 4 runtimes, each hosting the same
    ``TangoMap``, preloaded with 10k keys. Keys are zipf(0.99) over
    10k. Runtime 0 puts (10% of operations); runtimes 1-3 take turns
    doing linearizable gets (90%). Storage is in memory. Each get does
    a sequencer ``query``, a backpointer walk, a read of the few new
    entries and playback ``apply``, so ``streams``, ``objects``, the
    sequencer ``query`` and storage reads carry the load; appends are
    a tenth of the operations and ``store`` is absent. Check: every
    get returns exactly the model's value (one thread, so
    linearizability reduces to point checks), and every view equals
    the model at the end.

``tx_zipf``
    One load thread drives 4 runtimes hosting one ``TangoMap``
    preloaded with 10k keys, taking turns. Each operation is one
    transaction: ``begin_tx``, 3 gets and 3 puts on 6 distinct
    zipf(0.99) keys, ``end_tx``. Aborted transactions are not retried.
    The paper's Figure 9 shape: ``end_tx`` dominates (commit record
    encode, playback of the other runtimes' commits with version
    checks, one append and a few stream reads per transaction). The
    abort rate is deterministic for a seed, so it exposes any change
    to conflict detection. Check: every committed transaction read
    exactly the model's values, and every view equals the model.

``wire_mix``
    Real processes over loopback TCP: a sequencer and one chain of 2
    in-memory storage processes (``Supervisor(cluster_specs(1, 2))``
    with ``RemoteCluster(replication_factor=2)``, the same replication
    factor as in process). Two application threads share one runtime
    and one ``TangoMap``: 50% put, 50% get, keys uniform over 10k. The
    only workload that runs ``net.wire``, ``net.socket`` and
    ``net.server``; two threads on one runtime exercise the group
    commit pipeline and the play lock. Set-up time includes process
    launch. Check: every get returns a value some put wrote to that
    key, and a fresh runtime's view equals the writers' view.

Compaction and garbage collection are deliberately not measured: a
full checkpoint must fit in one 4 KB entry, and a map of about 1,250
keys already overflows it, so a realistic checkpoint, ``gc()`` and
``compact()`` cycle cannot run on these key spaces. The key spaces are
not shrunk to hide that.
"""

from __future__ import annotations

import array
import itertools
import os
import random
import shutil
import threading
import time
from typing import Dict, List, Optional

from repro.corfu import CorfuCluster
from repro.corfu.durable import open_durable_cluster
from repro.errors import NoActiveTransaction
from repro.net.transport import LoopbackTransport
from repro.objects import TangoMap
from repro.proc import RemoteCluster, Supervisor, cluster_specs
from repro.streams import StreamClient
from repro.tango import TangoRuntime

VALUE_BYTES = 100
SEQ_DIGITS = 12

# Operation kinds recorded per sample.
PUT, GET, COMMIT, ABORT = 0, 1, 2, 3
KIND_NAMES = {PUT: "put", GET: "get", COMMIT: "tx_commit", ABORT: "tx_abort"}


def key_names(n: int) -> List[str]:
    return [f"k{j:06d}" for j in range(n)]


class Values:
    """Unique 100-byte put values: the sequence number, then seeded filler."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"values-{seed}")
        alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
        self.fill = "".join(
            rng.choice(alphabet) for _ in range(VALUE_BYTES - SEQ_DIGITS)
        )

    def __call__(self, seq: int) -> str:
        return "%012d" % seq + self.fill

    def seq_of(self, value: str) -> int:
        """The put sequence number a value carries, or -1 if it is foreign."""
        if (
            not isinstance(value, str)
            or len(value) != VALUE_BYTES
            or value[SEQ_DIGITS:] != self.fill
        ):
            return -1
        return int(value[:SEQ_DIGITS])


def zipf_ranks(rng: random.Random, n: int, theta: float, count: int) -> array.array:
    """*count* draws of zipf(*theta*) ranks over ``range(n)``, hot ranks
    scattered over the key space by a seeded permutation."""
    cum = list(itertools.accumulate(1.0 / (r + 1) ** theta for r in range(n)))
    perm = list(range(n))
    rng.shuffle(perm)
    return array.array(
        "I", (perm[r] for r in rng.choices(range(n), cum_weights=cum, k=count))
    )


def rss_bytes() -> int:
    """Resident set size of this process (Linux ``/proc``)."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class Deployment:
    """One stood-up system plus the model the answer checks compare with."""

    def __init__(self) -> None:
        self.cluster = None
        self.runtimes: List[TangoRuntime] = []
        self.maps: List[TangoMap] = []
        self.model: Dict = {}
        self.uncertain: set = set()
        self.errors: List[str] = []
        self.puts = 0
        self.commits = 0
        self.aborts = 0
        self.supervisor: Optional[Supervisor] = None
        self.workdir: Optional[str] = None
        # Guards the counters and error list when several threads load.
        self.lock = threading.Lock()

    def error(self, message: str) -> None:
        with self.lock:
            self.errors.append(message)

    def clients(self):
        return [rt.streams.corfu for rt in self.runtimes]

    def views(self):
        """(runtime, the maps it hosts) pairs."""
        if len(self.runtimes) == 1:
            return [(self.runtimes[0], self.maps)]
        return [(rt, [m]) for rt, m in zip(self.runtimes, self.maps)]


class Workload:
    """Shared shape: seeded inputs, set-up, one step per operation, check."""

    name = ""
    threads = 1
    #: Upper bound on the rate a run can reach, for sizing the inputs.
    max_rate = 0
    #: Operations per second of ``--seconds`` in each traced-run phase.
    trace_rate = 0
    #: Operations run untimed after set-up (part of the input stream).
    warmup = 200

    def __init__(self, seed: int, seconds: float, fixed_ops: int = 0) -> None:
        self.seed = seed
        self.values = Values(seed)
        self.capacity = fixed_ops or int(self.max_rate * seconds) + 1
        self.ops_per_thread = self.warmup + self.capacity
        self.generate(random.Random(f"{self.name}-{seed}"))

    def generate(self, rng: random.Random) -> None:
        raise NotImplementedError

    def setup(self, transport, workdir: str) -> Deployment:
        raise NotImplementedError

    def step(self, dep: Deployment, thread: int, i: int):
        """Run operation *i* of *thread*; return (start_ns, end_ns, kind)."""
        raise NotImplementedError

    def check(self, dep: Deployment) -> None:
        """Final answer checks; mismatches go to ``dep.errors``."""

    def close(self, dep: Deployment) -> None:
        """Release everything *dep* holds (idempotent)."""


def _in_memory_cluster(transport) -> CorfuCluster:
    return CorfuCluster(
        num_sets=3, replication_factor=2, seq_shards=1, transport=transport
    )


def _runtime(cluster, index: int) -> TangoRuntime:
    return TangoRuntime(
        StreamClient(cluster.client()), client_id=index + 1, name=f"bench-{index}"
    )


# -- ingest -----------------------------------------------------------------------


class Ingest(Workload):
    name = "ingest"
    max_rate = 40_000
    trace_rate = 3_000
    maps = 8
    key_space = 100_000

    def generate(self, rng: random.Random) -> None:
        n = self.ops_per_thread
        self.map_of = array.array("B", (rng.randrange(self.maps) for _ in range(n)))
        self.key_of = array.array(
            "I", (rng.randrange(self.key_space) for _ in range(n))
        )
        self.keys = key_names(self.key_space)

    def _open(self, workdir: str, transport):
        kwargs = dict(num_sets=3, replication_factor=2, seq_shards=1, sync=False)
        if transport is not None:
            kwargs["transport"] = transport
        return open_durable_cluster(workdir, **kwargs)

    def setup(self, transport, workdir: str) -> Deployment:
        dep = Deployment()
        dep.workdir = workdir
        dep.cluster = self._open(workdir, transport)
        rt = _runtime(dep.cluster, 0)
        dep.runtimes = [rt]
        dep.maps = [TangoMap(rt, oid=m + 1) for m in range(self.maps)]
        return dep

    def step(self, dep: Deployment, thread: int, i: int):
        m, k = self.map_of[i], self.key_of[i]
        value = self.values(i)
        tmap = dep.maps[m]
        key = self.keys[k]
        dep.puts += 1
        t0 = time.perf_counter_ns()
        try:
            tmap.put(key, value)
        except Exception:
            dep.uncertain.add((m, k))
            raise
        t1 = time.perf_counter_ns()
        dep.model[(m, k)] = i
        return t0, t1, PUT

    def _close_units(self, cluster) -> None:
        for name in cluster.projection.all_nodes():
            cluster.storage(name).close()

    def check(self, dep: Deployment) -> None:
        self._close_units(dep.cluster)
        dep.cluster = None
        fresh = self._open(dep.workdir, None)
        try:
            rt = _runtime(fresh, 9)
            # Host every map before reading any, so one merged playback
            # pass rebuilds all eight views.
            views = [TangoMap(rt, oid=m + 1) for m in range(self.maps)]
            wants: List[Dict[str, str]] = [{} for _ in range(self.maps)]
            for (m, k), seq in dep.model.items():
                wants[m][self.keys[k]] = self.values(seq)
            for m, want in enumerate(wants):
                got = dict(views[m].items())
                for key in want.keys() | got.keys():
                    k = int(key[1:]) if key[1:].isdigit() else -1
                    if (m, k) in dep.uncertain:
                        continue
                    if got.get(key) != want.get(key):
                        dep.error(
                            f"map {m} key {key}: reopened store has "
                            f"{str(got.get(key))[:16]!r}, model "
                            f"{str(want.get(key))[:16]!r}"
                        )
        finally:
            self._close_units(fresh)

    def close(self, dep: Deployment) -> None:
        if dep.cluster is not None:
            self._close_units(dep.cluster)
            dep.cluster = None
        if dep.workdir is not None:
            shutil.rmtree(dep.workdir, ignore_errors=True)


# -- read_follow ------------------------------------------------------------------


class _Preloaded(Workload):
    """4 runtimes hosting one ``TangoMap`` preloaded with 10k keys."""

    key_space = 10_000
    runtimes = 4
    theta = 0.99

    def setup(self, transport, workdir: str) -> Deployment:
        dep = Deployment()
        dep.cluster = _in_memory_cluster(transport)
        dep.runtimes = [_runtime(dep.cluster, r) for r in range(self.runtimes)]
        dep.maps = [TangoMap(rt, oid=1) for rt in dep.runtimes]
        writer = dep.maps[0]
        # A fixed batch size keeps the preloaded log layout identical
        # from run to run (the adaptive size depends on timing).
        # The model maps each key to the value a get must return.
        dep.model = {self.keys[k]: self.values(k) for k in range(self.key_space)}
        with dep.runtimes[0].batch(size=4):
            for key, value in dep.model.items():
                writer.put(key, value)
        for tmap in dep.maps:
            tmap.size()  # each view plays the preload before timing
        return dep

    def check(self, dep: Deployment) -> None:
        for r, tmap in enumerate(dep.maps):
            got = dict(tmap.items())
            for key in (got.keys() | dep.model.keys()) - dep.uncertain:
                if got.get(key) != dep.model.get(key):
                    dep.error(
                        f"runtime {r} key {key}: view has "
                        f"{str(got.get(key))[:16]!r}, model "
                        f"{str(dep.model.get(key))[:16]!r}"
                    )


class ReadFollow(_Preloaded):
    name = "read_follow"
    max_rate = 60_000
    trace_rate = 6_000
    put_share = 0.1

    def generate(self, rng: random.Random) -> None:
        n = self.ops_per_thread
        self.keys = key_names(self.key_space)
        self.key_of = zipf_ranks(rng, self.key_space, self.theta, n)
        # 0 = runtime 0 puts; 1..3 = that reader runtime gets.
        who = array.array("B", bytes(n))
        readers = itertools.cycle(range(1, self.runtimes))
        for i in range(n):
            if rng.random() >= self.put_share:
                who[i] = next(readers)
        self.who = who

    def step(self, dep: Deployment, thread: int, i: int):
        key = self.keys[self.key_of[i]]
        who = self.who[i]
        if who == 0:
            value = self.values(self.key_space + i)
            dep.puts += 1
            t0 = time.perf_counter_ns()
            try:
                dep.maps[0].put(key, value)
            except Exception:
                dep.uncertain.add(key)
                raise
            t1 = time.perf_counter_ns()
            dep.model[key] = value
            return t0, t1, PUT
        tmap = dep.maps[who]
        t0 = time.perf_counter_ns()
        got = tmap.get(key)
        t1 = time.perf_counter_ns()
        want = dep.model[key]
        if got != want and key not in dep.uncertain:
            dep.error(
                f"op {i}: runtime {who} get {key} returned "
                f"{str(got)[:16]!r}, model {want[:16]!r}"
            )
        return t0, t1, GET


# -- tx_zipf ----------------------------------------------------------------------


class TxZipf(_Preloaded):
    name = "tx_zipf"
    max_rate = 5_000
    trace_rate = 450
    warmup = 40
    reads = 3
    writes = 3

    def generate(self, rng: random.Random) -> None:
        n = self.ops_per_thread
        width = self.reads + self.writes
        self.keys = key_names(self.key_space)
        # Draw in bulk, then take the first `width` distinct keys per tx.
        pool = iter(zipf_ranks(rng, self.key_space, self.theta, n * width * 2))
        tx_keys = array.array("I")
        for _ in range(n):
            chosen: List[int] = []
            while len(chosen) < width:
                k = next(pool, None)
                if k is None:  # pragma: no cover - pool is 2x oversized
                    pool = iter(zipf_ranks(rng, self.key_space, self.theta, n))
                    continue
                if k not in chosen:
                    chosen.append(k)
            tx_keys.extend(chosen)
        self.tx_keys = tx_keys

    def step(self, dep: Deployment, thread: int, i: int):
        width = self.reads + self.writes
        keys = [self.keys[k] for k in self.tx_keys[i * width : (i + 1) * width]]
        reads, writes = keys[: self.reads], keys[self.reads :]
        base = self.key_space + i * self.writes
        values = [self.values(base + j) for j in range(self.writes)]
        r = i % self.runtimes
        rt, tmap = dep.runtimes[r], dep.maps[r]
        dep.puts += self.writes
        t0 = time.perf_counter_ns()
        try:
            rt.begin_tx()
            got = [tmap.get(key) for key in reads]
            for key, value in zip(writes, values):
                tmap.put(key, value)
            committed = rt.end_tx()
        except Exception:
            try:
                rt.abort_tx()
            except NoActiveTransaction:
                pass
            dep.uncertain.update(writes)
            raise
        t1 = time.perf_counter_ns()
        if not committed:
            dep.aborts += 1
            return t0, t1, ABORT
        dep.commits += 1
        model = dep.model
        for key, value in zip(reads, got):
            if value != model[key] and key not in dep.uncertain:
                dep.error(
                    f"op {i}: committed tx on runtime {r} read {key} = "
                    f"{str(value)[:16]!r}, model {model[key][:16]!r}"
                )
        model.update(zip(writes, values))
        return t0, t1, COMMIT


# -- wire_mix ---------------------------------------------------------------------


class WireMix(Workload):
    name = "wire_mix"
    threads = 2
    max_rate = 4_000  # per thread
    trace_rate = 400  # per thread
    warmup = 50
    key_space = 10_000
    timeout_s = 5.0

    def generate(self, rng: random.Random) -> None:
        n = self.ops_per_thread
        self.keys = key_names(self.key_space)
        self.is_put = [
            array.array("B", (rng.random() < 0.5 for _ in range(n)))
            for _ in range(self.threads)
        ]
        self.key_of = [
            array.array("I", (rng.randrange(self.key_space) for _ in range(n)))
            for _ in range(self.threads)
        ]

    def make_supervisor(self) -> Supervisor:
        return Supervisor(cluster_specs(1, 2))

    def setup(self, transport, workdir: str) -> Deployment:
        dep = Deployment()
        dep.supervisor = self.make_supervisor()
        try:
            dep.supervisor.start()
            addresses = dep.supervisor.addresses()
            if transport is not None:
                transport.timeout = self.timeout_s
                for name, (host, port) in addresses.items():
                    transport.set_address(name, host, port)
            dep.cluster = RemoteCluster(
                addresses,
                num_sets=1,
                replication_factor=2,
                transport=transport,
                timeout=self.timeout_s,
            )
            rt = _runtime(dep.cluster, 0)
            dep.runtimes = [rt]
            dep.maps = [TangoMap(rt, oid=1)]
        except BaseException:
            self.close(dep)
            raise
        return dep

    def step(self, dep: Deployment, thread: int, i: int):
        k = self.key_of[thread][i]
        key = self.keys[k]
        tmap = dep.maps[0]
        if self.is_put[thread][i]:
            value = self.values(i * self.threads + thread)
            with dep.lock:
                dep.puts += 1
            t0 = time.perf_counter_ns()
            tmap.put(key, value)
            return t0, time.perf_counter_ns(), PUT
        t0 = time.perf_counter_ns()
        got = tmap.get(key)
        t1 = time.perf_counter_ns()
        if got is not None and not self.written_by_put(k, got):
            dep.error(f"thread {thread} op {i}: get {key} = {str(got)[:16]!r}")
        return t0, t1, GET

    def written_by_put(self, k: int, value) -> bool:
        """True if some put of the inputs wrote exactly *value* to key *k*."""
        seq = self.values.seq_of(value)
        if seq < 0:
            return False
        thread, i = seq % self.threads, seq // self.threads
        return (
            i < self.ops_per_thread
            and self.is_put[thread][i] == 1
            and self.key_of[thread][i] == k
        )

    def check(self, dep: Deployment) -> None:
        writers_view = dict(dep.maps[0].items())
        fresh_rt = _runtime(dep.cluster, 9)
        fresh_view = dict(TangoMap(fresh_rt, oid=1).items())
        if fresh_view != writers_view:
            diff = sorted(
                key
                for key in fresh_view.keys() | writers_view.keys()
                if fresh_view.get(key) != writers_view.get(key)
            )
            dep.error(
                f"fresh runtime disagrees with the writers on {len(diff)} "
                f"keys, e.g. {diff[:3]}"
            )
        for key, value in writers_view.items():
            k = int(key[1:]) if key[1:].isdigit() else -1
            if not self.written_by_put(k, value):
                dep.error(f"view holds {key} = {str(value)[:16]!r}, never put")

    def close(self, dep: Deployment) -> None:
        if dep.cluster is not None:
            dep.cluster.close()
            dep.cluster = None
        if dep.supervisor is not None:
            dep.supervisor.stop()
            dep.supervisor = None


WORKLOADS = {w.name: w for w in (Ingest, ReadFollow, TxZipf, WireMix)}


def default_transport(workload: Workload):
    """The untraced transport: plain loopback, or the cluster's own TCP one."""
    return None if isinstance(workload, WireMix) else LoopbackTransport()
