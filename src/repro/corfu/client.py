"""The CORFU client library.

Paper section 2.2: "The CORFU interface is simple, consisting of four
basic calls": ``append``, ``check``, ``read``, and ``trim``, plus the
``fill`` primitive for patching holes. Section 5 adds stream support:
appends may carry a set of stream ids, in which case the client obtains
backpointers from the sequencer and prepends stream headers to the
payload before running chain replication.

Every node interaction goes through the cluster's transport
(:mod:`repro.net`), and the client owns all retry logic. One helper,
:meth:`CorfuClient._retry`, implements the protocol's reaction table
for every operation:

- a stale epoch (:class:`~repro.errors.SealedError`) refreshes the
  projection from the cluster and retries;
- a dead node (:class:`~repro.errors.NodeDownError`) triggers
  reconfiguration (ejecting the node or replacing the sequencer) and
  retries against the new projection;
- an RPC timeout (:class:`~repro.errors.RpcTimeout`) backs off,
  re-checks the projection (a reconfiguration may have raced the lost
  message), and retries; enough consecutive timeouts against one node
  and the client treats it as dead and reconfigures around it.

Each operation hands ``_retry`` one attempt body and keeps only its
own rules there: losing an append race
(:class:`~repro.errors.WrittenError` at the chain head) fetches a fresh
offset, a fill treats ``WrittenError`` as success, and a chain write
retried after a failed attempt targets the *same* offset with the same
bytes, so the chain treats the client's own earlier (invisible) success
as success. A lost sequencer ``increment`` response burns an offset,
which the hole-filling machinery absorbs.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Type, TypeVar, Union

from repro.corfu import reconfig
from repro.corfu.cluster import CorfuCluster
from repro.corfu.entry import (
    NO_BACKPOINTER,
    LogEntry,
    encode_vector_marker,
    make_header,
    max_payload_bytes,
)
from repro.corfu.layout import Projection
from repro.corfu.replication import ChainReplicator
from repro.errors import (
    NodeDownError,
    RetriesExhaustedError,
    RpcTimeout,
    SealedError,
    StaleGrantError,
    TooManyStreamsError,
    TrimmedError,
    UnwrittenError,
    WrittenError,
)

#: Per-offset outcome of a batched read: the decoded entry, or the
#: error *instance* (not raised) describing why the offset has none.
ReadOutcome = Union[LogEntry, UnwrittenError, TrimmedError]

_T = TypeVar("_T")

#: Retry budget per bounded-retry path. Sized for the chaos suite's
#: worst fault mix (10% request drops + 10% response drops + 10%
#: reordering): a 3-hop chain write fails ~70% of attempts there, so a
#: budget of 64 leaves ~1e-10 odds of a healthy-but-lossy deployment
#: exhausting it — Hypothesis searching the seeded fault schedule
#: cannot find a losing run, while a genuinely dead node still
#: surfaces through the failure detector long before the budget.
_MAX_RETRIES = 64

#: Consecutive timeouts against one node before the client stops
#: treating them as transient and drives reconfiguration around it
#: (the failure-detector threshold).
_TIMEOUT_FAILOVER = 4

#: Second failure-detector signal: a node that stays *silent* (no
#: deliveries at all) while the rest of the cluster completes this many
#: RPCs is partitioned or dead, however rarely we manage to probe it.
#: Catches a cut-off chain tail behind a lossy chain head, where each
#: shared-budget retry burns on the lossy-but-live hops and the streak
#: above accrues too slowly.
_SILENT_PROGRESS_FAILOVER = 12

#: Most appends one pipeline leader commits per round before re-checking
#: the queue. Bounds both the sequencer grant width and the payload the
#: leader buffers; the chain-level in-flight window
#: (:data:`repro.corfu.replication.DEFAULT_PIPELINE_WINDOW`) throttles
#: below this.
_PIPELINE_CHUNK = 32

#: How long a pipeline follower waits on its completion event before
#: re-checking whether leadership freed up (guards against the leader
#: exiting between the follower's enqueue and the leader's last queue
#: check — the follower then takes over rather than sleeping forever).
_FOLLOWER_WAIT_SLICE = 0.005


class AppendFuture:
    """Completion handle for one :meth:`CorfuClient.append_async`.

    The append is durable once :meth:`done` is true and :meth:`result`
    returns the assigned log offset. There is no background thread:
    appends are committed by whichever waiter thread becomes the
    pipeline *leader* (see ``_AppendPipeline``), so a lone
    ``append_async(...).result()`` runs the synchronous append path on
    the caller's thread; only the handle and its event are extra.
    """

    __slots__ = ("payload", "stream_ids", "_client", "_done", "_offset", "_exc")

    def __init__(
        self, client: "CorfuClient", payload: bytes, stream_ids: Tuple[int, ...]
    ) -> None:
        self._client = client
        self.payload = payload
        self.stream_ids = stream_ids
        self._done = threading.Event()
        self._offset: Optional[int] = None
        self._exc: Optional[BaseException] = None

    def done(self) -> bool:
        """True once the append completed (successfully or not)."""
        return self._done.is_set()

    def _resolve(self, offset: int) -> None:
        self._offset = offset
        self._done.set()

    def _fail(self, exc: BaseException) -> None:
        self._exc = exc
        self._done.set()

    def result(self, timeout: Optional[float] = None) -> int:
        """Block until the append lands; return its log offset.

        The calling thread participates in committing queued appends
        (it may be elected pipeline leader). Re-raises the append's
        failure, or :class:`~repro.errors.RpcTimeout` if *timeout*
        elapses first — the append may still complete later (a late
        ack, like any timed-out RPC).
        """
        self._client._pipeline.drive(self, timeout)
        if not self._done.is_set():
            raise RpcTimeout("append-pipeline", "result")
        if self._exc is not None:
            raise self._exc
        return self._offset  # type: ignore[return-value]


class _AppendPipeline:
    """Work-stealing group commit behind :meth:`CorfuClient.append_async`.

    Queued futures are drained by a *leader*: the first waiter to find
    the queue non-empty and no leader active. The leader pops a chunk,
    groups consecutive futures with identical stream sets into one
    sequencer grant + pipelined chain write (``append_batch`` →
    ``ChainReplicator.write_pipelined``), resolves their futures, and
    loops until the queue is empty; it gives up leadership in the same
    critical section that finds the queue empty, so an append queued
    behind a leader is always either drained by it or finds leadership
    free. Followers wait on their own completion events with a short
    timeout as a backstop. No background thread.

    A synchronous :meth:`CorfuClient.append` that finds the pipeline
    idle (:meth:`try_lead`) runs its append inline on its own thread
    while holding leadership — no future, no event — and then drains
    whatever queued behind it before releasing (:meth:`drain`).

    Lock discipline: ``_lock`` guards only the queue and the leader
    flag; it is never held across an RPC (TL012) and takes no other
    lock (a leaf in the documented hierarchy). Leadership is a flag,
    not a lock, so holding it across the inline append's RPCs adds no
    lock-order edge.
    """

    def __init__(self, client: "CorfuClient") -> None:
        self._client = client
        # Guards _queue and _leading.
        self._lock = threading.Lock()
        self._queue: Deque[AppendFuture] = deque()
        self._leading = False

    def submit(self, fut: AppendFuture) -> None:
        with self._lock:
            self._queue.append(fut)

    def try_lead(self) -> bool:
        """Take leadership if the pipeline is idle (no leader, empty queue).

        On True the caller leads and must call :meth:`drain` when done.
        """
        with self._lock:
            if self._leading or self._queue:
                return False
            self._leading = True
            return True

    def drive(self, fut: AppendFuture, timeout: Optional[float] = None) -> None:
        """Wait for *fut*, leading the pipeline whenever it is leaderless."""
        remaining = timeout
        while not fut.done():
            lead = False
            with self._lock:
                if not self._leading and self._queue:
                    self._leading = True
                    lead = True
            if lead:
                self.drain()
                continue
            if fut.done():
                return
            wait = (
                _FOLLOWER_WAIT_SLICE
                if remaining is None
                else min(_FOLLOWER_WAIT_SLICE, remaining)
            )
            fut._done.wait(wait)
            if remaining is not None:
                remaining -= wait
                if remaining <= 0 and not fut.done():
                    return

    def drain(self) -> None:
        """As leader: commit queued appends until empty, then release."""
        try:
            while True:
                with self._lock:
                    if not self._queue:
                        self._leading = False
                        return
                    chunk = [
                        self._queue.popleft()
                        for _ in range(min(len(self._queue), _PIPELINE_CHUNK))
                    ]
                self._commit(chunk)
        except BaseException:
            # Only a non-Exception (KeyboardInterrupt...) escapes
            # _commit; release leadership so waiters can take over.
            with self._lock:
                self._leading = False
            raise

    def _commit(self, chunk: List[AppendFuture]) -> None:
        client = self._client
        i = 0
        while i < len(chunk):
            j = i
            while j < len(chunk) and chunk[j].stream_ids == chunk[i].stream_ids:
                j += 1
            run = chunk[i:j]
            try:
                if len(run) == 1:
                    run[0]._resolve(
                        client._append_sync(run[0].payload, run[0].stream_ids)
                    )
                else:
                    offsets = client.append_batch(
                        [f.payload for f in run], run[0].stream_ids
                    )
                    for fut, offset in zip(run, offsets):
                        fut._resolve(offset)
            except BaseException as exc:  # tangolint: disable=TL006
                # Not swallowed: the leader commits on behalf of other
                # threads, so the failure is captured into each waiter's
                # future and re-raised from result(). The protocol's
                # retry discipline already ran inside _append_sync /
                # append_batch below this frame.
                for fut in run:
                    if not fut.done():
                        fut._fail(exc)
                if not isinstance(exc, Exception):
                    # KeyboardInterrupt and friends: the waiters have
                    # their answer; unwind the leader thread too.
                    raise
            i = j


class CorfuClient:
    """One client's handle on the shared log."""

    def __init__(self, cluster: CorfuCluster, name: Optional[str] = None) -> None:
        self._cluster = cluster
        self._net = cluster.transport
        self.name = name if name is not None else cluster.next_client_name()
        self._projection: Projection = cluster.projection
        self._proxies: Dict[Tuple[str, str], object] = {}
        self._chain = ChainReplicator(self._storage_rpc)
        # node name -> (consecutive-timeout streak, delivered-RPC count
        # at the last timeout, cluster-wide delivered count when the
        # node went silent) for failure detection: only a *silent* node
        # builds a streak, and cluster-wide progress during its silence
        # is the second down-signal.
        self._timeout_streaks: Dict[str, Tuple[int, int, int]] = {}
        # Counters for tests / the performance model. A client is shared
        # across application threads, so the read-modify-write bumps go
        # through one lock; readers may still access the plain ints.
        self._counter_lock = threading.Lock()
        self.appends = 0
        self.reads = 0
        self.fills = 0
        #: Batched-read observability: ``read_many`` rounds completed
        #: and entries served through them.
        self.batched_reads = 0
        self.batched_read_offsets = 0
        # Trim observers (e.g. the stream layer's entry cache), called
        # as cb(offset, is_prefix) after a trim commits cluster-side.
        self._trim_watchers: List[Callable[[int, bool], None]] = []
        # Async append path: queued futures committed by an elected
        # leader thread (see _AppendPipeline). append() rides on it.
        self._pipeline = _AppendPipeline(self)

    # -- transport plumbing --------------------------------------------------

    def _storage_rpc(self, node: str):
        """This client's transport handle on storage node *node*."""
        key = ("storage", node)
        proxy = self._proxies.get(key)
        if proxy is None:
            cluster = self._cluster
            proxy = self._net.proxy(
                self.name, node, lambda n=node: cluster.storage(n)
            )
            self._proxies[key] = proxy
        return proxy

    def _sequencer_rpc(self, node: str):
        """This client's transport handle on sequencer *node*."""
        key = ("sequencer", node)
        proxy = self._proxies.get(key)
        if proxy is None:
            cluster = self._cluster
            proxy = self._net.proxy(
                self.name, node, lambda n=node: cluster.sequencer(n)
            )
            self._proxies[key] = proxy
        return proxy

    def net_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-endpoint transport counters (rpcs/retries/timeouts/...).

        Each endpoint dict also carries the batched-read counters
        ``batch_rpcs`` (delivered ``read_many`` calls) and
        ``batch_offsets`` (offsets those calls served), so the RPC
        savings of the batched read path are visible per node.
        """
        return self._net.endpoint_stats()

    # -- trim observers ------------------------------------------------------

    def subscribe_trim(self, callback: Callable[[int, bool], None]) -> None:
        """Register ``callback(offset, is_prefix)`` to run after trims.

        The stream layer uses this to evict cached entries for reclaimed
        offsets, so GC actually frees client memory. Callbacks run on
        the trimming thread after the cluster-side trim succeeds.
        """
        self._trim_watchers.append(callback)

    def _notify_trim(self, offset: int, is_prefix: bool) -> None:
        for callback in self._trim_watchers:
            callback(offset, is_prefix)

    # -- projection management ----------------------------------------------

    @property
    def projection(self) -> Projection:
        return self._projection

    @property
    def max_payload(self) -> int:
        """Payload capacity of one log entry under this deployment."""
        return max_payload_bytes(
            self._cluster.entry_size, self._cluster.max_streams, self._cluster.k
        )

    @property
    def max_streams(self) -> int:
        """Maximum streams per entry (caps a transaction's write set)."""
        return self._cluster.max_streams

    def refresh_projection(self) -> None:
        """Fetch the latest projection from the auxiliary."""
        self._projection = self._cluster.projection

    def _retry(
        self,
        op: str,
        attempt: Callable[[Projection, int], _T],
        retry_on: Tuple[Type[Exception], ...] = (),
        appended: int = 0,
    ) -> _T:
        """Run ``attempt(projection, n)`` until it succeeds or the budget runs out.

        The one place the client reacts to the protocol's transient
        errors (paper §2.2, §5): a sealed epoch refetches the
        projection, a dead node drives reconfiguration around it, and a
        timeout backs off and feeds the failure detector. Each attempt
        receives the projection current at its start and its attempt
        number; errors in *retry_on* just consume an attempt. Success
        clears the failure-detector streaks and adds *appended* to the
        append counter; after ``_MAX_RETRIES`` failed attempts,
        :class:`RetriesExhaustedError` names *op*.
        """
        for n in range(_MAX_RETRIES):
            try:
                result = attempt(self._projection, n)
            except retry_on:
                continue
            except SealedError:
                self.refresh_projection()
            except NodeDownError as exc:
                self._handle_node_down(exc)
            except RpcTimeout as exc:
                self._handle_timeout(exc, n)
            else:
                self._note_success(appended)
                return result
        raise RetriesExhaustedError(op, _MAX_RETRIES)

    def _handle_node_down(self, exc: NodeDownError) -> None:
        """React to a dead node by driving reconfiguration, then refresh."""
        # Another client may have reconfigured already; check the latest
        # projection before driving a redundant epoch change.
        self.refresh_projection()
        proj = self._projection
        if exc.node == proj.sequencer and not proj.seq_shards:
            reconfig.replace_sequencer(self._cluster, source=self.name)
        elif exc.node in proj.sequencer_shards:
            # Per-shard failover: only the dead shard is replaced; the
            # surviving shards keep their soft state and keep issuing.
            reconfig.replace_sequencer_shard(
                self._cluster,
                proj.sequencer_shards.index(exc.node),
                source=self.name,
            )
        elif exc.node in proj.all_nodes():
            reconfig.eject_storage_node(self._cluster, exc.node, source=self.name)
        self.refresh_projection()

    def _handle_timeout(self, exc: RpcTimeout, attempt: int) -> None:
        """Epoch-safe timeout reaction: backoff, refresh, maybe fail over.

        A timeout is ambiguous — the node may be slow, partitioned from
        us, or dead, and a reconfiguration may have completed while our
        message was in flight. So: record the retry, let the transport
        advance (delayed traffic gets delivered during backoff), refetch
        the projection, and once the per-node streak crosses the
        failure-detector threshold, treat the node as down and
        reconfigure around it.
        """
        self._net.record_retry(exc.node)
        self._net.backoff(self.name, attempt)
        self.refresh_projection()
        # A node that executed *anything* since our last timeout against
        # it is alive — we are losing responses, not talking to a corpse
        # — so the streak restarts. Only a silent node (partitioned or
        # dead: no deliveries at all) accumulates toward failover;
        # ejecting a node that is demonstrably executing calls would let
        # a lossy network shrink healthy chains one retry at a time.
        delivered = self._net.stats_for(exc.node).rpcs
        cluster_delivered = sum(
            s["rpcs"] for s in self._net.endpoint_stats().values()
        )
        with self._counter_lock:
            streak, seen, progress_base = self._timeout_streaks.get(
                exc.node, (0, -1, cluster_delivered)
            )
            if delivered != seen:
                streak = 0
                progress_base = cluster_delivered
            streak += 1
            self._timeout_streaks[exc.node] = (streak, delivered, progress_base)
            # Down-signals: (a) enough consecutive silent timeouts, or
            # (b) the node stayed silent across substantial cluster-wide
            # progress — a partitioned chain tail behind lossy live hops
            # gets probed too rarely for (a) alone to ever trip.
            failover = streak >= _TIMEOUT_FAILOVER or (
                streak > 1
                and cluster_delivered - progress_base
                >= _SILENT_PROGRESS_FAILOVER
            )
            if failover:
                del self._timeout_streaks[exc.node]
        # Reconfiguration drives RPCs of its own; never under the lock.
        if failover:
            self._handle_node_down(NodeDownError(exc.node))

    def _note_success(self, appended: int = 0) -> None:
        """An RPC round completed: clear the failure-detector streaks.

        *appended* counts entries the round appended, folded into the
        same critical section.
        """
        with self._counter_lock:
            self._timeout_streaks.clear()
            self.appends += appended

    # -- append path ---------------------------------------------------------

    def append(self, payload: bytes, stream_ids: Sequence[int] = ()) -> int:
        """Append *payload* to the log (and to *stream_ids*); return its offset.

        This is the multiappend of section 4.1 when more than one stream
        id is given: the entry occupies a single position in the global
        order but belongs to every listed stream.

        Uncontended, the append runs inline on the calling thread: one
        sequencer grant and one chain write, with no future or event.
        If another thread is leading the pipeline (or appends are
        queued), the call joins the group-commit path instead
        (``append_async(...).result()``), so concurrent callers are
        coalesced into shared sequencer grants and pipelined chain
        writes.
        """
        self._validate_append(payload, stream_ids)
        stream_ids = tuple(stream_ids)
        pipeline = self._pipeline
        if not pipeline.try_lead():
            fut = AppendFuture(self, payload, stream_ids)
            pipeline.submit(fut)
            return fut.result()
        try:
            return self._append_sync(payload, stream_ids)
        finally:
            # Appends that queued behind this one are committed before
            # leadership is released.
            pipeline.drain()

    def append_async(
        self, payload: bytes, stream_ids: Sequence[int] = ()
    ) -> AppendFuture:
        """Queue *payload* for append; return a completion handle.

        Validation (stream count, payload capacity) happens here,
        synchronously. The append itself is committed by the pipeline
        leader — whichever thread next waits on a handle — so callers
        may queue a flight of appends and then collect the offsets,
        overlapping sequencer grants and chain hops across the flight.
        """
        self._validate_append(payload, stream_ids)
        fut = AppendFuture(self, payload, tuple(stream_ids))
        self._pipeline.submit(fut)
        return fut

    def _validate_append(self, payload: bytes, stream_ids: Sequence[int]) -> None:
        if len(stream_ids) > self._cluster.max_streams:
            raise TooManyStreamsError(len(stream_ids), self._cluster.max_streams)
        limit = max_payload_bytes(
            self._cluster.entry_size, self._cluster.max_streams, self._cluster.k
        )
        if len(payload) > limit:
            raise ValueError(
                f"payload of {len(payload)} bytes exceeds the "
                f"{limit}-byte capacity of a {self._cluster.entry_size}-byte entry"
            )

    def _append_sync(self, payload: bytes, stream_ids: Sequence[int] = ()) -> int:
        """The classic synchronous append.

        Internal callers (the pipeline leader, batch fallbacks) use
        this directly — routing them through :meth:`append` would
        re-enter the pipeline a leader is already driving.

        Every attempt takes a fresh offset, which is always safe: a
        lost race (``WrittenError``) or a vector grant outrun by a
        racing single-shard append (``StaleGrantError``) leaves the
        reserved offsets burned, and so does an ``increment`` whose
        response was lost; ``fill`` patches such holes.
        """
        return self._retry(
            "append",
            lambda proj, _n: self._append_once(proj, payload, stream_ids),
            retry_on=(WrittenError, StaleGrantError),
            appended=1,
        )

    def _append_once(
        self, proj: Projection, payload: bytes, stream_ids: Sequence[int]
    ) -> int:
        shards = proj.sequencer_shards
        groups = sorted({sid % len(shards) for sid in stream_ids})
        if len(groups) > 1:
            return self._append_vector(proj, payload, stream_ids, groups)
        # Single-group appends — the common case — touch exactly one
        # shard's lock; a streamless append goes to shard 0.
        seq = self._sequencer_rpc(shards[groups[0] if groups else 0])
        offset, backpointers = seq.increment(stream_ids, epoch=proj.epoch)
        headers = tuple(
            make_header(sid, backpointers[sid], offset, self._cluster.k)
            for sid in stream_ids
        )
        entry = LogEntry(headers=headers, payload=payload)
        raw = entry.encode(offset, self._cluster.k, self._cluster.max_streams)
        self._complete_write(offset, raw)
        return offset

    def _append_vector(
        self,
        proj: Projection,
        payload: bytes,
        stream_ids: Sequence[int],
        groups: Sequence[int],
    ) -> int:
        """Cross-shard multiappend via a two-phase vector grant.

        Phase 1 reserves one stripe offset per touched shard in
        ascending (canonical) shard order with a ratcheting floor, so
        the last reservation is the vector's maximum — the offset the
        entry is written at. Phase 2 commits that offset to each
        touched shard (same order), which records it as every touched
        stream's newest offset or rejects with
        :class:`~repro.errors.StaleGrantError` if a racing append got
        there first. The burned lower reservations get marker entries
        naming the final offset so per-stripe recovery still finds the
        cross-shard entry; then the data entry is written once.

        No client-side lock is held across any of these RPCs, and the
        shard locks are only ever taken one at a time server-side, so
        the lock hierarchy gains no edges (TL011/TL012).
        """
        shards = proj.sequencer_shards
        per_group: Dict[int, List[int]] = {}
        for sid in stream_ids:
            per_group.setdefault(sid % len(shards), []).append(sid)
        reservations: List[Tuple[int, int]] = []  # (group, reserved offset)
        floor = 0
        for g in groups:
            r = self._sequencer_rpc(shards[g]).reserve_group(
                floor, epoch=proj.epoch
            )
            reservations.append((g, r))
            floor = r + 1
        offset = reservations[-1][1]
        backpointers: Dict[int, Tuple[int, ...]] = {}
        for g in groups:
            backpointers.update(
                self._sequencer_rpc(shards[g]).commit_group(
                    per_group[g], offset, epoch=proj.epoch
                )
            )
        # Markers before the data entry: once the entry is visible, its
        # cross-shard membership must already be recoverable by a
        # per-stripe backward scan.
        for g, reserved in reservations[:-1]:
            marker = LogEntry(
                headers=(),
                payload=encode_vector_marker(offset, per_group[g]),
            )
            raw = marker.encode(
                reserved, self._cluster.k, self._cluster.max_streams
            )
            try:
                self._complete_write(reserved, raw)
            except WrittenError:
                # A hole-filler junked the reservation first. The live
                # shard already recorded the grant; only a later crash
                # of that shard loses this one advisory backpointer,
                # which K-redundancy absorbs.
                pass
        headers = tuple(
            make_header(sid, backpointers[sid], offset, self._cluster.k)
            for sid in stream_ids
        )
        entry = LogEntry(headers=headers, payload=payload)
        raw = entry.encode(offset, self._cluster.k, self._cluster.max_streams)
        self._complete_write(offset, raw)
        return offset

    # -- batched append path -------------------------------------------------

    def append_batch(
        self, payloads: Sequence[bytes], stream_ids: Sequence[int] = ()
    ) -> List[int]:
        """Append several payloads with a single sequencer grant.

        Reserves ``len(payloads)`` consecutive offsets in one
        ``increment(count=n)`` RPC (section 5's counter, batched the way
        group commit batches log I/O), then drives one chain write per
        entry. Every payload joins every stream in *stream_ids*, and
        each entry's backpointers chain through its batch predecessors,
        so the resulting stream linked list is identical to sequential
        appends. Returns the offsets in payload order.

        A lost ``increment`` response burns the whole reservation — n
        holes, which the hole-filling machinery absorbs, exactly like a
        burned single grant. If a hole-filler races one of our chain
        writes and wins, that payload transparently retries through the
        single-append path at a fresh offset.
        """
        if not payloads:
            return []
        if len(stream_ids) > self._cluster.max_streams:
            raise TooManyStreamsError(len(stream_ids), self._cluster.max_streams)
        limit = self.max_payload
        for payload in payloads:
            if len(payload) > limit:
                raise ValueError(
                    f"payload of {len(payload)} bytes exceeds the "
                    f"{limit}-byte capacity of a "
                    f"{self._cluster.entry_size}-byte entry"
                )
        num_shards = len(self._projection.sequencer_shards)
        if len({sid % num_shards for sid in stream_ids}) > 1:
            # A batch spanning shard groups would need one vector grant
            # per entry anyway; take the per-entry path.
            return [self._append_sync(p, stream_ids) for p in payloads]
        first, backpointers, stride = self._retry(
            "append_batch",
            lambda proj, _n: self._grant_once(proj, stream_ids, len(payloads)),
        )
        return self._write_batch(
            first, payloads, stream_ids, backpointers, stride=stride
        )

    def _grant_once(
        self, proj: Projection, stream_ids: Sequence[int], count: int
    ) -> Tuple[int, Dict[int, Tuple[int, ...]], int]:
        """Reserve *count* offsets on the one shard owning *stream_ids*.

        Returns ``(first offset, backpointers, stride)``. A timed-out
        reservation may have executed (lost response): those offsets
        are burned and become holes for fill() to patch, so a fresh
        reservation is always safe.
        """
        shards = proj.sequencer_shards
        group = stream_ids[0] % len(shards) if stream_ids else 0
        first, backpointers = self._sequencer_rpc(shards[group]).increment(
            stream_ids, epoch=proj.epoch, count=count
        )
        return first, backpointers, len(shards)

    def _write_batch(
        self,
        first: int,
        payloads: Sequence[bytes],
        stream_ids: Sequence[int],
        backpointers: Dict[int, Tuple[int, ...]],
        stride: int = 1,
    ) -> List[int]:
        """Chain-write a reserved batch; entry i backpoints into the batch.

        *stride* is the reservation spacing: 1 for the classic dense
        sequencer, the shard count for a striped shard (whose grant
        covers offsets ``first, first + stride, ...``).

        The chain writes are *pipelined*: entries are grouped by
        replica chain and streamed down each chain with overlapping
        hops (:meth:`ChainReplicator.write_pipelined`). Per-address
        outcomes drive recovery exactly as the sequential path did —
        a head ``WrittenError`` (hole-filler raced the reservation)
        sends that payload to a fresh offset, and any node-level error
        re-drives the same offset with ``maybe_mine`` so a partially
        streamed entry is completed, never duplicated.
        """
        k = self._cluster.k
        prior = {
            sid: [p for p in backpointers[sid] if p != NO_BACKPOINTER]
            for sid in stream_ids
        }
        entries: List[Tuple[int, bytes]] = []  # (offset, raw), payload order
        for i, payload in enumerate(payloads):
            offset = first + i * stride
            headers = tuple(
                make_header(
                    sid,
                    tuple(range(offset - stride, first - 1, -stride))
                    + tuple(prior[sid]),
                    offset,
                    k,
                )
                for sid in stream_ids
            )
            entry = LogEntry(headers=headers, payload=payload)
            entries.append((offset, entry.encode(offset, k, self._cluster.max_streams)))
        offsets: List[int] = [offset for offset, _ in entries]
        proj = self._projection
        num_sets = len(proj.replica_sets)
        groups: Dict[int, List[int]] = {}  # replica-set index -> entry indices
        for idx, (offset, _) in enumerate(entries):
            groups.setdefault(offset % num_sets, []).append(idx)
        retry: List[Tuple[int, BaseException]] = []  # (entry index, first outcome)
        for set_index in sorted(groups):
            idxs = groups[set_index]
            rset = proj.replica_sets[set_index]
            writes: List[Tuple[int, bytes]] = []
            by_address: Dict[int, int] = {}
            for idx in idxs:
                offset, raw = entries[idx]
                _, address = proj.map_offset(offset)
                by_address[address] = idx
                writes.append((address, raw))
            outcomes = self._chain.write_pipelined(rset, writes, proj.epoch)
            for address, outcome in sorted(outcomes.items()):
                if outcome is None:
                    continue
                if isinstance(outcome, AssertionError):
                    raise outcome  # chain divergence: a bug, not a retry
                retry.append((by_address[address], outcome))
        for idx, outcome in sorted(retry):
            offset, raw = entries[idx]
            if isinstance(outcome, WrittenError):
                # A hole-filler patched our reserved offset before the
                # write landed; the payload takes a fresh offset via the
                # ordinary append retry loop. Stream membership is
                # preserved (the junk-filled offset is skipped by
                # walkers), only the position moves.
                offsets[idx] = self._append_sync(payloads[idx], stream_ids)
            else:
                # Sealed / node down / timeout with the entry possibly
                # part-way down the chain: finish the same offset;
                # maybe_mine from the first retry attempt keeps the
                # earlier partial delivery from counting twice.
                self._complete_write(offset, raw, maybe_mine_from_start=True)
        with self._counter_lock:
            self.appends += sum(
                1 for idx in range(len(entries)) if offsets[idx] == entries[idx][0]
            )
        return offsets

    def _complete_write(
        self, offset: int, raw: bytes, maybe_mine_from_start: bool = False
    ) -> None:
        """Drive the chain write for an offset this client owns.

        Once the head write may have landed (any failed attempt), the
        offset must not be abandoned on a timeout — the invisible
        earlier success would otherwise surface as a duplicate entry
        when the client appends the payload again elsewhere. Retries
        therefore target the *same* offset with the same bytes and tell
        the chain that a head ``WrittenError`` over identical bytes is
        our own write (``maybe_mine``). A genuine race loss (different
        bytes at the head) propagates ``WrittenError`` to ``append``,
        which takes a fresh offset.

        *maybe_mine_from_start* is set by callers whose first delivery
        attempt already happened elsewhere (the pipelined batch path),
        so even attempt zero here is a retry of an ambiguous write.
        """

        def write(proj: Projection, n: int) -> None:
            # A reconfiguration mid-write leaves the offset ours: the
            # retry finishes the chain under the new projection.
            rset, address = proj.map_offset(offset)
            self._chain.write(
                rset, address, raw, proj.epoch,
                maybe_mine=maybe_mine_from_start or n > 0,
            )

        self._retry("append.chain_write", write)

    # -- read path ------------------------------------------------------------

    def read(self, offset: int) -> LogEntry:
        """Read and decode the entry at *offset*.

        Raises :class:`UnwrittenError` for holes and
        :class:`TrimmedError` for reclaimed offsets.
        """
        raw = self._retry("read", lambda proj, _n: self._read_once(proj, offset))
        with self._counter_lock:
            self.reads += 1
        return LogEntry.decode(raw, offset, self._cluster.k)

    def _read_once(self, proj: Projection, offset: int) -> bytes:
        rset, address = proj.map_offset(offset)
        return self._chain.read(rset, address, proj.epoch)

    def read_many(self, offsets: Sequence[int]) -> Dict[int, ReadOutcome]:
        """Batched read: one storage round trip per replica node.

        Offsets are grouped by :meth:`Projection.map_offset`, so each
        chain's tail receives exactly the addresses it owns in a single
        ``read_many`` RPC. Returns ``{offset: outcome}`` where the
        outcome is the decoded :class:`LogEntry`, or an
        :class:`UnwrittenError` / :class:`TrimmedError` *instance* for
        holes and reclaimed offsets — per-offset conditions are data and
        never fail the batch.

        The full retry discipline of the single read applies (sealed
        epoch → refresh, dead node → reconfigure, timeout → backoff /
        failure-detect), and results already collected are retained
        across retries: a reconfiguration halfway through the groups
        re-reads only what is still missing.
        """
        results: Dict[int, ReadOutcome] = {}
        wanted = sorted(set(offsets))
        if wanted:
            self._retry(
                "read_many",
                lambda proj, _n: self._read_many_once(proj, wanted, results),
            )
        return results

    def _read_many_once(
        self, proj: Projection, wanted: List[int], results: Dict[int, ReadOutcome]
    ) -> None:
        """Read the offsets of *wanted* not yet in *results* into it."""
        # Group the missing offsets by replica set under this attempt's
        # projection: a reconfiguration changes the mapping.
        groups: Dict[int, List[int]] = {}
        n = len(proj.replica_sets)
        for offset in wanted:
            if offset not in results:
                groups.setdefault(offset % n, []).append(offset)
        for set_index in sorted(groups):
            batch = groups[set_index]
            rset = proj.replica_sets[set_index]
            addresses = [offset // n for offset in batch]
            raw_map = self._chain.read_many(rset, addresses, proj.epoch)
            served = 0
            for offset, address in zip(batch, addresses):
                status, data = raw_map[address]
                if status == "ok":
                    results[offset] = LogEntry.decode(data, offset, self._cluster.k)
                    served += 1
                elif status == "trimmed":
                    results[offset] = TrimmedError(offset)
                else:
                    results[offset] = UnwrittenError(offset)
            with self._counter_lock:
                self.reads += served
                self.batched_reads += 1
                self.batched_read_offsets += len(batch)

    def is_written(self, offset: int) -> bool:
        """True if *offset* is owned by some append (even one in flight)."""
        return self._retry(
            "is_written", lambda proj, _n: self._is_written_once(proj, offset)
        )

    def _is_written_once(self, proj: Projection, offset: int) -> bool:
        rset, address = proj.map_offset(offset)
        return self._chain.is_written(rset, address, proj.epoch)

    # -- check ---------------------------------------------------------------

    def check(self, fast: bool = True) -> int:
        """Return the current tail of the log.

        The fast check is one round-trip to the sequencer
        (sub-millisecond in the paper); the slow check queries every
        storage node for its local tail and inverts the mapping function
        (tens of milliseconds), and works with no sequencer at all.
        """
        if fast:
            tail, _ = self._retry("check", lambda proj, _n: self._query_once(proj, ()))
            return tail
        return reconfig.slow_check_tail(
            self._cluster, self._projection, source=self.name
        )

    def query_streams(
        self, stream_ids: Sequence[int]
    ) -> Tuple[int, Dict[int, Tuple[int, ...]]]:
        """Sequencer query: tail + last-K offsets for each stream.

        Only the shards owning the requested streams are queried (one
        RPC each), so a sync touching one stream costs one round trip
        regardless of shard count; the returned tail is the max over
        the queried shards. With no stream ids, every shard is queried
        (a full tail check).
        """
        return self._retry(
            "query_streams", lambda proj, _n: self._query_once(proj, stream_ids)
        )

    def _query_once(
        self, proj: Projection, stream_ids: Sequence[int]
    ) -> Tuple[int, Dict[int, Tuple[int, ...]]]:
        """One query round: the fast :meth:`check` and :meth:`query_streams`."""
        shards = proj.sequencer_shards
        per_shard: Dict[str, List[int]] = {}
        for sid in stream_ids:
            per_shard.setdefault(shards[sid % len(shards)], []).append(sid)
        if not per_shard:
            per_shard = {name: [] for name in shards}
        tail = 0
        merged: Dict[int, Tuple[int, ...]] = {}
        for name, sids in per_shard.items():
            shard_tail, tails = self._sequencer_rpc(name).query(
                sids, epoch=proj.epoch
            )
            tail = max(tail, shard_tail)
            merged.update(tails)
        return tail, merged

    # -- hole filling and reclamation -----------------------------------------

    def fill(self, offset: int) -> None:
        """Patch the hole at *offset* with a junk value.

        Used after a timeout when a crashed client reserved an offset but
        never wrote it (section 3.2, "Failure Handling"). If the original
        writer races us and wins, that is success too: the hole is gone.
        A duplicated or timed-out fill is likewise absorbed — junk bytes
        are identical no matter who writes them.
        """
        junk = LogEntry.junk().encode(offset, self._cluster.k, self._cluster.max_streams)
        self._retry("fill", lambda proj, _n: self._fill_once(proj, offset, junk))

    def _fill_once(self, proj: Projection, offset: int, junk: bytes) -> None:
        rset, address = proj.map_offset(offset)
        try:
            self._chain.write(rset, address, junk, proj.epoch)
        except WrittenError:
            return  # no longer a hole — either filled or completed
        with self._counter_lock:
            self.fills += 1

    def trim(self, offset: int) -> None:
        """Mark one offset as reclaimable.

        Trim is idempotent on every replica, so the standard retry path
        (sealed epoch → refresh; dead node → reconfigure; timeout →
        backoff and retry) applies without any at-most-once caveats. A
        trim racing a reconfiguration must not leak ``SealedError`` to
        the application — the GC driving it has no projection to refresh.
        """
        self._retry("trim", lambda proj, _n: self._trim_once(proj, offset))
        self._notify_trim(offset, False)

    def _trim_once(self, proj: Projection, offset: int) -> None:
        rset, address = proj.map_offset(offset)
        self._chain.trim(rset, address, proj.epoch)

    def trim_prefix(self, offset: int) -> None:
        """Reclaim every offset strictly below *offset* (sequential trim).

        Idempotent per replica set; a retry after a partial pass simply
        re-trims already-trimmed prefixes.
        """
        self._retry(
            "trim_prefix", lambda proj, _n: self._trim_prefix_once(proj, offset)
        )
        self._notify_trim(offset, True)

    def _trim_prefix_once(self, proj: Projection, offset: int) -> None:
        n = len(proj.replica_sets)
        for set_index, rset in enumerate(proj.replica_sets):
            if offset > set_index:
                local_count = (offset - set_index + n - 1) // n
            else:
                local_count = 0
            self._chain.trim_prefix(rset, local_count, proj.epoch)

    # -- storage-admin plane ---------------------------------------------------

    def store_status(self) -> Dict[str, Dict[str, object]]:
        """Per-node storage accounting over the wire (read-only RPC).

        Best effort by design: an unreachable or sealed node reports an
        ``{"error": ...}`` entry instead of failing the whole survey —
        operators want the view of whatever is up.
        """
        proj = self._projection
        nodes: Dict[str, Dict[str, object]] = {}
        for rset in proj.replica_sets:
            for node in rset:
                if node in nodes:
                    continue
                try:
                    nodes[node] = self._storage_rpc(node).store_status()
                except (SealedError, NodeDownError, RpcTimeout) as exc:
                    nodes[node] = {"error": type(exc).__name__}
        return nodes

    def compact(self) -> Dict[str, Dict[str, object]]:
        """Trigger one compaction sweep on every reachable storage node.

        Idempotent: a sweep that finds no garbage-heavy segments is a
        no-op, so re-running after a partial failure only re-sweeps.
        Down nodes report ``{"error": ...}`` entries like
        :meth:`store_status`.
        """
        proj = self._projection
        nodes: Dict[str, Dict[str, object]] = {}
        for rset in proj.replica_sets:
            for node in rset:
                if node in nodes:
                    continue
                try:
                    nodes[node] = self._storage_rpc(node).compact()
                except (SealedError, NodeDownError, RpcTimeout) as exc:
                    nodes[node] = {"error": type(exc).__name__}
        return nodes
