"""The Tango runtime.

One :class:`TangoRuntime` instance corresponds to one *client* in the
paper: an application server hosting local views of some subset of the
system's objects. Runtimes never communicate with each other directly;
all interaction flows through the shared log (section 3).

Core mechanics implemented here:

- **state machine replication** (section 3.1): mutators funnel opaque
  update records through ``update_helper``; accessors call
  ``query_helper``, which places a marker at the current tail of the
  object's stream and plays the view forward to it, giving
  linearizability.
- **merged playback**: the runtime plays all hosted streams in global
  offset order, so when a multi-object commit record is encountered at
  position X, every involved hosted stream has already been played to X
  — the "consistent snapshot of all the objects touched by the
  transaction as of X" of section 4.1.
- **transactions** (sections 3.2, 4.1): optimistic concurrency control
  with speculative updates, commit records carrying versioned read
  sets, deterministic commit/abort decisions at every consumer, and
  decision records for consumers that host a write-set object but not
  the whole read set.
- **checkpoints and forget** (section 3.1): object-provided snapshots
  stored in the log, and GC driven by per-object forget offsets.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    NestedTransactionError,
    NoActiveTransaction,
    ObjectExistsError,
    RemoteReadError,
    ReproError,
    TangoError,
    TransactionAborted,
    UnknownObjectError,
)
from repro.streams.stream import PLAYBACK_PREFETCH, StreamClient
from repro.tango.records import (
    NO_TX,
    NO_VERSION,
    CheckpointRecord,
    CommitRecord,
    DecisionRecord,
    DeltaCheckpointRecord,
    Record,
    UpdateRecord,
    decode_records,
    encode_records,
)
from repro.tango.transaction import PendingTx, TxContext
from repro.tango.versioning import VersionTable
from repro.util.ident import default_source

#: How many no-progress sync+play rounds end_tx tolerates while waiting
#: for another transaction's decision record before giving up. In the
#: in-process deployment a missing decision means its generator crashed
#: mid-protocol; the application resolves via publish_decision.
_MAX_DECISION_WAIT_ROUNDS = 3

#: Longest delta-checkpoint chain (deltas since the last full
#: checkpoint) the runtime will emit before forcing a full one. Loading
#: a chain costs one random read per link, so this bounds reload cost.
MAX_DELTA_CHAIN = 8


def _involved_oids(record: CommitRecord) -> Tuple[int, ...]:
    """Streams a transaction's decision record goes to: read set, then
    write set, each oid once, in first-seen order."""
    oids = list(record.read_oids())
    oids.extend(oid for oid in record.write_oids if oid not in oids)
    return tuple(oids)


class _GroupCommitPolicy:
    """Adaptive group-commit sizing shared by a runtime's batch scopes.

    Section 6 fixes the batch at 4 records per entry; this policy
    starts there and adapts to what each flush observes:

    - *payload pressure* — a flush that had to split into per-record
      entries (the coalesced payload outgrew one entry) halves the
      batch, so the next scope coalesces what actually fits;
    - *in-flight pressure* — retries/timeouts observed at the transport
      during the flush halve it, shedding latency when the write path
      is struggling;
    - a full batch that flushed as a single entry using at most half
      the payload capacity over a quiet network doubles it (capped),
      amortizing more records per sequencer grant and chain write.

    One policy per runtime, shared by every scope (that is what makes
    it adaptive across scopes); its lock is a leaf taken only for the
    size read-modify-write, never across an RPC (TL012).
    """

    START = 4
    FLOOR = 1
    CEIL = 64

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._size = self.START

    @property
    def size(self) -> int:
        with self._lock:
            return self._size

    def observe(
        self, batched: int, split: bool, pressure: int,
        payload_bytes: int, capacity: int,
    ) -> int:
        """Record one flush's observations; return the adapted size."""
        with self._lock:
            if split or pressure > 0:
                self._size = max(self.FLOOR, self._size // 2)
            elif batched >= self._size and payload_bytes * 2 <= capacity:
                self._size = min(self.CEIL, self._size * 2)
            return self._size


class TangoRuntime:
    """Per-client runtime multiplexing Tango objects over one shared log.

    Args:
        streams: the stream client for this client's log connection.
            Passing a :class:`~repro.corfu.cluster.CorfuCluster` is also
            accepted as a convenience (a fresh client + stream client is
            created).
        client_id: unique 31-bit client identifier used to mint
            transaction ids; drawn from the process identity source
            when omitted (seedable via
            :func:`repro.util.ident.seed_identities` so replay tests
            can pin transaction ids).
        name: diagnostic label.
        memory_budget: byte budget for client-side caches
            (memory-bounded mode). When set, the stream client's entry
            cache evicts LRU entries past the budget, and a prefix trim
            of the log evicts version-table entries below the trim
            horizon (replaced by a conservative per-object floor, so
            conflict checks can only get stricter, never wrong).
    """

    def __init__(
        self,
        streams,
        client_id: Optional[int] = None,
        name: str = "client",
        memory_budget: Optional[int] = None,
    ) -> None:
        if not isinstance(streams, StreamClient):
            # Convenience: accept a CorfuCluster directly.
            streams = StreamClient(streams.client())
        self._streams: StreamClient = streams
        self.name = name
        if client_id is None:
            client_id = default_source().client_id()
        self._client_id = client_id & 0x7FFFFFFF
        self._tx_seq = itertools.count(1)
        self._tls = threading.local()

        self._objects: Dict[int, object] = {}  # oid -> TangoObject
        self._versions = VersionTable()
        # Serializes playback and registration across application
        # threads. Transaction contexts and batch scopes are
        # thread-local (the paper's model: many application threads per
        # client, one runtime); the lock makes the shared view/version
        # state safe under them. Reentrant because end_tx plays the log
        # while already holding it.
        self._play_lock = threading.RLock()
        # Consuming-side transaction state.
        self._pending: Dict[int, PendingTx] = {}
        self._decided: Dict[int, bool] = {}
        self._awaiting: Dict[int, PendingTx] = {}
        self._blocked_streams: Set[int] = set()
        self._deferred: List[Tuple[int, object, Tuple[int, ...]]] = []
        # (commit offset, involved oids) for every commit this client
        # has decided: publish_decision needs only the decision's
        # streams, so the record itself (read set, inline updates,
        # payload bytes) is not retained.
        self._pending_records: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
        # Highest log offset processed by merged playback.
        self._watermark = NO_VERSION
        # Optional dynamic decision-record scheme (section 4.1).
        self._hosting_registry = None
        # Adaptive group-commit sizing, shared across batch scopes.
        self._batch_policy = _GroupCommitPolicy()
        # True while a speculative batch scope is open (guarded by
        # _play_lock): speculation assumes no concurrent playback, so
        # overlapping speculative scopes are refused.
        self._speculating = False

        # Delta-checkpoint state: the version keys modified since each
        # object's last checkpoint (what a delta has to carry), objects
        # that saw an unkeyed update since then (forces a full
        # checkpoint — a delta cannot express "anything may have
        # changed"), and per-object (last checkpoint offset, chain
        # depth) so deltas know their base.
        self._dirty_keys: Dict[int, Set[bytes]] = {}
        self._dirty_full: Set[int] = set()
        self._checkpoint_chains: Dict[int, Tuple[int, int]] = {}
        self.max_delta_chain = MAX_DELTA_CHAIN

        # Memory-bounded mode.
        if memory_budget is not None and memory_budget <= 0:
            raise ValueError("memory_budget must be a positive byte count")
        self._memory_budget = memory_budget
        if memory_budget is not None:
            self._streams.set_cache_budget(memory_budget)
        self._streams.corfu.subscribe_trim(self._on_prefix_trim)

        # Statistics (read by tests and the benchmark harness).
        self.stats = {
            "commits": 0,
            "aborts": 0,
            "applied_updates": 0,
            "decisions_published": 0,
            "read_only_commits": 0,
            "full_checkpoints": 0,
            "delta_checkpoints": 0,
            "evicted_versions": 0,
            "speculative_commits": 0,
            "speculative_rollbacks": 0,
        }
        # Observability hooks: event name -> callbacks (see subscribe).
        self._subscribers: Dict[str, List] = {}

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    _EVENTS = ("apply", "commit", "abort", "decision", "checkpoint")

    def subscribe(self, event: str, callback) -> None:
        """Register an observability callback.

        Events and their callback payloads (a single dict argument):

        - ``apply``   — ``{oid, offset, key}``: an update reached a view;
        - ``commit`` / ``abort`` — ``{tx_id, offset}``: a transaction this
          client *decided* (its own or a consumed one);
        - ``decision`` — ``{tx_id, committed}``: a decision record this
          client published;
        - ``checkpoint`` — ``{oid, offset, covers, delta}`` (*delta* is
          True for an incremental checkpoint record).

        Callbacks run synchronously on the playback path; keep them
        cheap (metrics counters, trace buffers). Exceptions propagate —
        a broken metrics hook should fail loudly in development, and
        production hooks should guard themselves.
        """
        if event not in self._EVENTS:
            raise ValueError(
                f"unknown event {event!r}; expected one of {self._EVENTS}"
            )
        self._subscribers.setdefault(event, []).append(callback)

    def _emit(self, event: str, payload: dict) -> None:
        for callback in self._subscribers.get(event, ()):
            callback(payload)

    # ------------------------------------------------------------------
    # object registration
    # ------------------------------------------------------------------

    def register_object(self, obj, from_checkpoint: bool = True) -> None:
        """Host a local view of *obj*, catching it up with the log.

        If the object's stream contains a checkpoint record, the newest
        one is loaded and playback resumes above its cover point —
        mandatory when the log below has been trimmed. A stream
        registered after the runtime has already played other streams is
        caught up to the current watermark before joining merged
        playback.
        """
        oid = obj.oid
        with self._play_lock:
            if oid in self._objects:
                raise ObjectExistsError(f"object {oid} already registered")
            if self._awaiting:
                raise TangoError(
                    "cannot register a new object while transactions are "
                    "awaiting decision records; retry after playback drains"
                )
            self._objects[oid] = obj
            self._streams.open_stream(oid)
            self._streams.sync(oid)
            if from_checkpoint:
                self._maybe_load_checkpoint(oid, obj)
            if self._watermark != NO_VERSION:
                self._catch_up(oid, self._watermark)

    def deregister_object(self, oid: int) -> None:
        """Drop the local view of *oid* (the log is unaffected).

        The stream iterator rewinds so that a future registration
        replays the stream from the start (or its newest checkpoint)
        into the fresh view.
        """
        with self._play_lock:
            self._objects.pop(oid, None)
            self._versions.drop_object(oid)
            self._dirty_keys.pop(oid, None)
            self._dirty_full.discard(oid)
            self._checkpoint_chains.pop(oid, None)
            if self._streams.is_open(oid):
                self._streams.reset(oid)

    def is_hosted(self, oid: int) -> bool:
        with self._play_lock:
            return oid in self._objects

    def get_object(self, oid: int):
        """The hosted view of *oid*, or None."""
        with self._play_lock:
            return self._objects.get(oid)

    def hosted_oids(self) -> Tuple[int, ...]:
        with self._play_lock:
            return tuple(self._objects)

    def _maybe_load_checkpoint(self, oid: int, obj) -> None:
        """Find and load the newest checkpoint record in *oid*'s stream.

        Scans newest-first, prefetching the candidate offsets in small
        batched reads (the checkpoint is usually within the last few
        entries, so a full-stream batch would over-read). A delta
        checkpoint is loaded by walking its ``base_offset`` chain back
        to a full checkpoint; a chain that cannot be reconstructed
        (trimmed base, hole) is skipped and the scan continues with
        older candidates.
        """
        offsets = list(reversed(self._streams.known_offsets(oid)))
        for i, offset in enumerate(offsets):
            if i % PLAYBACK_PREFETCH == 0:
                self._streams._prefetch(offsets[i : i + PLAYBACK_PREFETCH])
            entry = self._streams.fetch(offset)
            if entry.is_junk:
                continue
            for record in decode_records(entry.payload):
                if (
                    isinstance(record, (CheckpointRecord, DeltaCheckpointRecord))
                    and record.oid == oid
                ):
                    if self._load_checkpoint_chain(oid, obj, offset, record):
                        return

    def _load_checkpoint_chain(self, oid: int, obj, offset: int, newest) -> bool:
        """Install *newest* (plus its delta chain, if any) into *obj*.

        Returns False when the chain cannot be reconstructed — the base
        was trimmed, lost to a hole, or the chain is malformed — in
        which case the caller falls back to older candidates.
        """
        chain = [newest]
        cursor = newest
        prev_offset = offset
        while isinstance(cursor, DeltaCheckpointRecord):
            # Bases sit strictly earlier in the log; anything else is a
            # malformed (or cyclic) chain.
            if cursor.base_offset >= prev_offset:
                return False
            try:
                entry = self._streams.fetch(cursor.base_offset)
            except ReproError:
                return False
            if entry.is_junk:
                return False
            base = None
            for record in decode_records(entry.payload):
                if (
                    isinstance(record, (CheckpointRecord, DeltaCheckpointRecord))
                    and record.oid == oid
                ):
                    base = record
                    break
            if base is None:
                return False
            chain.append(base)
            prev_offset = cursor.base_offset
            cursor = base
        full = chain[-1]
        obj.load_checkpoint(full.state)
        self._versions.load_checkpoint(
            oid,
            full.object_version,
            full.key_versions,
            full.unkeyed_version,
            full.version_floor,
            full.evicted_filter,
        )
        for delta in reversed(chain[:-1]):
            obj.load_checkpoint_delta(delta.state)
            self._versions.load_checkpoint(
                oid,
                delta.object_version,
                delta.key_versions,
                delta.unkeyed_version,
                delta.version_floor,
                delta.evicted_filter,
            )
        self._streams.seek(oid, newest.covers_offset)
        depth = newest.depth if isinstance(newest, DeltaCheckpointRecord) else 0
        self._checkpoint_chains[oid] = (offset, depth)
        return True

    # ------------------------------------------------------------------
    # the paper's helper API (Figure 3)
    # ------------------------------------------------------------------

    def update_helper(
        self, oid: int, payload: bytes, key: Optional[bytes] = None
    ) -> Optional[int]:
        """Append an opaque update record for *oid* (the mutator path).

        Outside a transaction the record is appended to the object's
        stream immediately and the log offset is returned. Inside a
        transaction the update is buffered in the context and ``None``
        is returned; it reaches the log at ``EndTX``. Inside a
        :meth:`batch` scope the record is coalesced with its neighbours
        into shared log entries (section 6 batches 4 records per 4KB
        entry) and ``None`` is returned until the batch flushes.

        Writing to an object with no local view is allowed — this is a
        remote write (section 4.1, case A).
        """
        ctx = self._current_tx()
        if ctx is not None:
            ctx.record_update(oid, payload, key)
            return None
        record = UpdateRecord(oid, payload, key, tx_id=NO_TX)
        batch = getattr(self._tls, "batch", None)
        if batch is not None:
            batch.add(record)
            return None
        return self._streams.append(encode_records([record]), (oid,))

    def batch(self, size: Optional[int] = None, speculative: bool = False):
        """Group-commit scope: coalesce updates into shared log entries.

        Section 6: "We use 4KB entries in the CORFU log, with a batch
        size of 4 at each client." Each flushed entry is multiappended
        to the union of its records' streams, so every object's stream
        still sees every one of its updates, in order. Accessors called
        inside the scope flush first, preserving read-your-writes.

        With *size* (a fixed record count) the scope flushes every
        *size* records, as before. The default (``size=None``) adapts:
        the threshold starts at the paper's 4 and grows or shrinks with
        observed payload pressure and in-flight latency (see
        :class:`_GroupCommitPolicy`), shared across this runtime's
        scopes.

        With ``speculative=True`` (opt-in), updates to hosted objects
        are applied to the local view *immediately* — accessors inside
        the scope read the speculative state without flushing or log
        I/O — and every flush reconciles against the log: if no foreign
        entry interleaved with the speculated objects, the speculation
        is committed in place (versions bumped at the real offsets);
        otherwise the touched objects are rolled back to their
        pre-speculation checkpoints and replayed from the log in order.
        Objects must implement ``get_checkpoint``/``load_checkpoint``;
        views that store apply offsets should not opt in unless a
        rollback re-applying them with real offsets is acceptable. If
        the scope body raises, speculative applies are rolled back
        along with the discarded records (see API.md). Speculation
        assumes a single playback driver: concurrent speculative
        scopes are refused, and transactions cannot open inside one.

        ::

            with runtime.batch():          # adaptive group commit
                for item in items:
                    tango_list.append(item)
        """
        return _BatchScope(self, size, speculative)

    def _flush_batch(self) -> None:
        batch = getattr(self._tls, "batch", None)
        if batch is not None:
            batch.flush()

    def query_helper(
        self, oid: int, key: Optional[bytes] = None, upto: Optional[int] = None
    ) -> None:
        """Synchronize the view of *oid* (the accessor path).

        Outside a transaction: places a marker at the stream's current
        tail and plays all hosted streams forward to it (linearizable
        read). With *upto*, playback stops at that log offset instead,
        which instantiates a historical view (section 3.1, "History").

        Inside a transaction: performs no log I/O; records the read (and
        its current version) in the transaction's read set. Reading an
        object with no local view raises
        :class:`~repro.errors.RemoteReadError` (section 4.1, case D).
        """
        ctx = self._current_tx()
        if ctx is not None:
            with self._play_lock:
                if oid not in self._objects:
                    raise RemoteReadError(oid)
                ctx.record_read(oid, key, self._versions.get(oid, key))
            return
        batch = getattr(self._tls, "batch", None)
        if batch is not None and batch.speculative:
            # Speculative scope: accessors read the locally applied
            # (speculative) view without flushing or syncing — that is
            # the point of speculation. Conflicts with foreign log
            # entries are detected (and rolled back) at flush time.
            with self._play_lock:
                if oid not in self._objects:
                    raise UnknownObjectError(f"object {oid} has no local view")
            return
        # Read-your-writes inside a batch scope: flush buffered updates
        # before placing the read marker.
        self._flush_batch()
        with self._play_lock:
            if oid not in self._objects:
                raise UnknownObjectError(f"object {oid} has no local view")
            markers = self._streams.sync_many(self.hosted_oids())
            marker = markers.get(oid, NO_VERSION)
            if upto is not None:
                marker = min(marker, upto) if marker != NO_VERSION else upto
            if marker == NO_VERSION:
                return
            self._play_until(marker)

    # ------------------------------------------------------------------
    # transactions (generating side)
    # ------------------------------------------------------------------

    def _current_tx(self) -> Optional[TxContext]:
        return getattr(self._tls, "tx", None)

    def begin_tx(self) -> None:
        """Open a transaction context in thread-local storage."""
        if self._current_tx() is not None:
            raise NestedTransactionError("transaction already open")
        batch = getattr(self._tls, "batch", None)
        if batch is not None and batch.speculative:
            # A transaction's end_tx plays the log forward, which would
            # interleave foreign entries under live speculative state.
            raise TangoError(
                "cannot open a transaction inside a speculative batch scope"
            )
        tx_id = (self._client_id << 32) | (next(self._tx_seq) & 0xFFFFFFFF)
        self._tls.tx = TxContext(tx_id)

    def abort_tx(self) -> None:
        """Discard the open transaction without touching the log."""
        if self._current_tx() is None:
            raise NoActiveTransaction("no transaction open")
        self._tls.tx = None

    def end_tx(self, allow_stale: bool = False) -> bool:
        """Close the transaction; returns True on commit, False on abort.

        Fast paths (section 3.2): a read-only transaction appends
        nothing — it plays the log to the current tail and validates
        locally (or, with ``allow_stale``, validates against the stale
        snapshot without touching the log). A write-only transaction
        appends its commit record and commits immediately, without
        playing the log forward.
        """
        ctx = self._current_tx()
        if ctx is None:
            raise NoActiveTransaction("no transaction open")
        self._tls.tx = None
        if ctx.is_read_only:
            return self._end_read_only(ctx, allow_stale)
        if ctx.is_write_only:
            with self._play_lock:
                self._append_commit(ctx)
                self.stats["commits"] += 1
            return True
        return self._end_read_write(ctx)

    def _end_read_only(self, ctx: TxContext, allow_stale: bool) -> bool:
        if not ctx.read_set:
            return True  # empty transaction
        with self._play_lock:
            if not allow_stale:
                markers = self._streams.sync_many(self.hosted_oids())
                live = [m for m in markers.values() if m != NO_VERSION]
                if live:
                    self._play_until(max(live))
            ok = not any(
                self._versions.is_stale(e.oid, e.key, e.version)
                for e in ctx.read_set
            )
            self.stats["commits" if ok else "aborts"] += 1
            if ok:
                self.stats["read_only_commits"] += 1
        return ok

    def _end_read_write(self, ctx: TxContext) -> bool:
        with self._play_lock:
            return self._end_read_write_locked(ctx)

    def _end_read_write_locked(self, ctx: TxContext) -> bool:
        commit_offset, record = self._append_commit(ctx)
        # Play forward to the commit point; processing the commit record
        # (we host the whole read set, by construction) decides it.
        self._streams.sync_many(self.hosted_oids())
        self._play_until(commit_offset)
        outcome = self._decided.get(ctx.tx_id)
        # Our commit record may sit behind an earlier transaction that is
        # parked awaiting its decision record (its commit shares one of
        # our streams). The decision is coming from that transaction's
        # generator; keep playing forward until it lands.
        stuck_rounds = 0
        while outcome is None and stuck_rounds < _MAX_DECISION_WAIT_ROUNDS:
            watermark = self._watermark
            markers = self._streams.sync_many(self.hosted_oids())
            live = [m for m in markers.values() if m != NO_VERSION]
            if live:
                self._play_until(max(live))
            outcome = self._decided.get(ctx.tx_id)
            if self._watermark == watermark and not self._deferred:
                stuck_rounds += 1
        if outcome is None:
            raise TangoError(
                f"transaction {ctx.tx_id} undecided after playback to its "
                f"commit record; a preceding commit record is awaiting a "
                f"decision that never arrived (crashed generator?) — "
                f"resolve it with publish_decision/force_abort"
            )
        if record.decision_expected:
            self._append_decision(ctx.tx_id, outcome, record)
        self.stats["commits" if outcome else "aborts"] += 1
        return outcome

    def use_hosting_registry(self, registry) -> None:
        """Enable dynamic decision-record insertion (section 4.1).

        With a :class:`~repro.tango.hosting.HostingRegistry` attached,
        EndTX consults the registered hosting sets instead of relying
        solely on static ``needs_decision_record`` marks: a decision
        record is appended exactly when some other client hosts a
        write-set object without the whole read set. Static marks still
        force decisions (the union is taken), so the dynamic scheme can
        only add precision, never lose safety.
        """
        self._hosting_registry = registry

    def _append_commit(self, ctx: TxContext) -> Tuple[int, CommitRecord]:
        """Flush buffered updates and append the commit record.

        Small transactions inline their updates in the commit record
        (one append). Larger ones first flush speculative update
        entries to the written objects' streams, then append a commit
        record referencing them by tx id.
        """
        decision_expected = any(
            getattr(self._objects.get(e.oid), "needs_decision_record", False)
            for e in ctx.read_set
        )
        registry = getattr(self, "_hosting_registry", None)
        if registry is not None and not decision_expected:
            decision_expected = registry.needs_decision(
                [e.oid for e in ctx.read_set], ctx.write_oids, self.name
            )
        streams = ctx.involved_oids()
        inline = CommitRecord(
            ctx.tx_id,
            tuple(ctx.read_set),
            tuple(ctx.write_oids),
            tuple(ctx.updates),
            decision_expected=decision_expected,
        )
        payload = encode_records([inline])
        if len(payload) <= self._streams.corfu.max_payload:
            offset = self._streams.append(payload, streams)
            return offset, inline
        # Oversized: speculative flush, one entry per update.
        for update in ctx.updates:
            self._streams.append(encode_records([update]), (update.oid,))
        record = CommitRecord(
            ctx.tx_id,
            tuple(ctx.read_set),
            tuple(ctx.write_oids),
            (),
            decision_expected=decision_expected,
        )
        offset = self._streams.append(encode_records([record]), streams)
        return offset, record

    def _append_decision(
        self, tx_id: int, outcome: bool, record: CommitRecord
    ) -> None:
        self._append_decision_to(tx_id, outcome, _involved_oids(record))

    def _append_decision_to(
        self, tx_id: int, outcome: bool, oids: Tuple[int, ...]
    ) -> None:
        """Append the decision record on every stream the commit involved."""
        decision = DecisionRecord(tx_id, outcome)
        self._streams.append(encode_records([decision]), oids)
        self.stats["decisions_published"] += 1
        if self._subscribers:
            self._emit("decision", {"tx_id": tx_id, "committed": outcome})

    def transaction(self, retries: int = 0, allow_stale: bool = False):
        """Context manager sugar around BeginTX/EndTX.

        Raises :class:`~repro.errors.TransactionAborted` when validation
        fails after exhausting *retries*. Note that retrying re-executes
        the ``with`` body only when used through :meth:`run_transaction`;
        the bare context manager performs a single attempt.
        """
        return _TxScope(self, allow_stale)

    def run_transaction(self, fn, retries: int = 16, allow_stale: bool = False):
        """Run ``fn()`` inside a transaction, retrying on aborts.

        Returns ``fn``'s result from the committing attempt.

        Transactional reads observe the local view without playing the
        log forward, so application preconditions can fail spuriously on
        a stale view (e.g. a znode that "does not exist" only because
        the view lags). If the body raises and the reads it made turn
        out to be stale, the exception is treated as an abort and the
        attempt is retried against the refreshed view; an exception over
        fresh reads is a genuine application error and propagates.
        """
        for _ in range(retries + 1):
            self.begin_tx()
            try:
                result = fn()
            except (KeyboardInterrupt, SystemExit):
                self.abort_tx()
                raise
            except BaseException:
                ctx = self._current_tx()
                self._tls.tx = None
                if ctx is not None and self._reads_went_stale(ctx):
                    continue
                raise
            if self.end_tx(allow_stale=allow_stale):
                return result
        raise TransactionAborted(f"still conflicting after {retries + 1} attempts")

    def _reads_went_stale(self, ctx: TxContext) -> bool:
        """Play the log forward; report whether *ctx*'s reads were stale."""
        if not ctx.read_set:
            return False
        with self._play_lock:
            markers = self._streams.sync_many(self.hosted_oids())
            live = [m for m in markers.values() if m != NO_VERSION]
            if live:
                self._play_until(max(live))
            return any(
                self._versions.is_stale(e.oid, e.key, e.version)
                for e in ctx.read_set
            )

    # ------------------------------------------------------------------
    # orphan handling (section 3.2 / 4.1, "Failure Handling")
    # ------------------------------------------------------------------

    def force_abort(self, tx_id: int, oids: Sequence[int]) -> int:
        """Terminate an orphaned transaction with a dummy aborting commit.

        "A Tango client that crashes in the middle of a transaction can
        leave behind orphaned data in the log without a corresponding
        commit record; other clients can complete the transaction by
        inserting a dummy commit record designed to abort."
        """
        record = CommitRecord(
            tx_id, (), tuple(oids), (), forced_abort=True
        )
        return self._streams.append(encode_records([record]), tuple(oids))

    def publish_decision(self, tx_id: int) -> bool:
        """Append a decision record for a transaction this client decided.

        Any client that hosts the read set (and therefore decided the
        commit record locally) may do this when the generating client
        crashed between its commit and decision records. Returns False
        if this client has not decided the transaction.
        """
        with self._play_lock:
            outcome = self._decided.get(tx_id)
            if outcome is None:
                return False
            pending = self._pending_records.get(tx_id)
            if pending is None:
                return False
            _offset, oids = pending
            self._append_decision_to(tx_id, outcome, oids)
        return True

    # ------------------------------------------------------------------
    # checkpoint / forget (section 3.1)
    # ------------------------------------------------------------------

    def checkpoint(self, oid: int, mode: str = "auto") -> int:
        """Store a snapshot of *oid*'s view in the log; returns its offset.

        *mode* selects between full and incremental snapshots:

        - ``"full"``  — a :class:`CheckpointRecord` carrying the whole
          view, always valid;
        - ``"delta"`` — a :class:`DeltaCheckpointRecord` carrying only
          the sub-state behind the version keys modified since the last
          checkpoint, chained to it via ``base_offset``. Requires the
          object to implement the delta upcalls, a base checkpoint this
          session, and no unkeyed update since it (raises
          :class:`~repro.errors.TangoError` otherwise);
        - ``"auto"``  — delta when all of the above hold and the chain
          is shorter than :data:`MAX_DELTA_CHAIN`, else full.
        """
        if mode not in ("auto", "full", "delta"):
            raise ValueError(f"unknown checkpoint mode {mode!r}")
        with self._play_lock:
            obj = self._objects.get(oid)
            if obj is None:
                raise UnknownObjectError(f"object {oid} has no local view")
            return self._checkpoint_locked(oid, obj, mode)

    @staticmethod
    def _supports_delta(obj) -> bool:
        """True when *obj* overrides both delta-checkpoint upcalls."""
        from repro.tango.object import TangoObject

        get_fn = getattr(type(obj), "get_checkpoint_delta", None)
        load_fn = getattr(type(obj), "load_checkpoint_delta", None)
        return (
            get_fn is not None
            and load_fn is not None
            and get_fn is not TangoObject.get_checkpoint_delta
            and load_fn is not TangoObject.load_checkpoint_delta
        )

    def _checkpoint_locked(self, oid: int, obj, mode: str = "auto") -> int:
        chain = self._checkpoint_chains.get(oid)
        use_delta = False
        if mode == "delta":
            if not self._supports_delta(obj):
                raise TangoError(
                    f"object {oid} does not implement delta checkpoints"
                )
            if chain is None:
                raise TangoError(
                    f"object {oid} has no base checkpoint to delta against; "
                    f"take a full checkpoint first"
                )
            if oid in self._dirty_full:
                raise TangoError(
                    f"object {oid} saw an unkeyed update since its last "
                    f"checkpoint; a delta cannot express it — take a full "
                    f"checkpoint"
                )
            use_delta = True
        elif mode == "auto":
            use_delta = (
                self._supports_delta(obj)
                and chain is not None
                and chain[1] < self.max_delta_chain
                and oid not in self._dirty_full
            )
        covers = self._streams.position(oid)
        floor, evicted = self._versions.eviction_snapshot(oid)
        if use_delta:
            assert chain is not None
            keys = sorted(self._dirty_keys.get(oid, ()))
            record: Record = DeltaCheckpointRecord(
                oid,
                chain[0],
                covers,
                self._versions.get(oid),
                tuple((k, self._versions.get(oid, k)) for k in keys),
                obj.get_checkpoint_delta(frozenset(keys)),
                unkeyed_version=self._versions.snapshot_unkeyed(oid),
                version_floor=floor,
                evicted_filter=evicted,
                depth=chain[1] + 1,
            )
        else:
            record = CheckpointRecord(
                oid,
                covers,
                self._versions.get(oid),
                self._versions.snapshot_keys(oid),
                obj.get_checkpoint(),
                unkeyed_version=self._versions.snapshot_unkeyed(oid),
                version_floor=floor,
                evicted_filter=evicted,
            )
        offset = self._streams.append(encode_records([record]), (oid,))
        depth = chain[1] + 1 if use_delta else 0
        self._checkpoint_chains[oid] = (offset, depth)
        self._dirty_keys.pop(oid, None)
        if not use_delta:
            self._dirty_full.discard(oid)
        self.stats["delta_checkpoints" if use_delta else "full_checkpoints"] += 1
        if self._subscribers:
            self._emit(
                "checkpoint",
                {
                    "oid": oid,
                    "offset": offset,
                    "covers": covers,
                    "delta": use_delta,
                },
            )
        return offset

    def temporary_view(self, cls, oid: int, **kwargs):
        """Materialize a view of *oid* for the duration of a scope.

        The paper's section 4.1 (case D) rejects transactional remote
        reads, listing as one alternative "recreating the view locally
        at the beginning of the transaction, which can be too
        expensive". This context manager is that alternative, made
        explicit: the object is registered (catching up from its
        stream, through checkpoints where available), participates in
        transactions as a fully hosted view — conflict detection
        included — and is deregistered on exit.

        ::

            with runtime.temporary_view(TangoMap, remote_oid) as prices:
                def tx():
                    if prices.get("widget") < 100:
                        orders.append("widget")
                runtime.run_transaction(tx)

        The cost is what the paper warns about: a full stream replay
        (or checkpoint load) at entry. Use it for occasional
        cross-partition reads, not hot paths.
        """
        return _TemporaryView(self, cls, oid, kwargs)

    def checkpoint_and_forget(self, oid: int, directory) -> int:
        """Checkpoint *oid* and register its cover as the forget offset.

        Plays the object to the current tail first, so the checkpoint
        covers every entry of the stream below its own position; history
        below the cover becomes reclaimable by ``directory.gc()``. To
        unpin the log fully, call this for every object and for the
        directory itself *last* (its checkpoint must cover the forget
        records just appended). Returns the checkpoint's log offset.

        Always takes a *full* checkpoint: a delta's base chain lives
        below the new checkpoint in the log, exactly where a later GC
        pass is entitled to trim.
        """
        self.query_helper(oid)
        covers = self._streams.position(oid)
        offset = self.checkpoint(oid, mode="full")
        directory.forget(oid, covers)
        return offset

    # ------------------------------------------------------------------
    # memory-bounded mode
    # ------------------------------------------------------------------

    def _on_prefix_trim(self, offset: int, is_prefix: bool) -> None:
        """Trim subscriber: release client memory the log just reclaimed.

        Registered with :meth:`CorfuClient.subscribe_trim`; active only
        in memory-bounded mode. Once the prefix below *offset* is
        trimmed, exact version-table entries below it are replaced by
        the conservative eviction floor, and decided-transaction
        bookkeeping for commit records below the horizon is dropped
        (their entries can never be replayed again — they read as
        junk).
        """
        if not is_prefix or self._memory_budget is None:
            return
        with self._play_lock:
            self.stats["evicted_versions"] += self._versions.evict_below(offset)
            doomed = [
                tx_id
                for tx_id, (off, _oids) in self._pending_records.items()
                if off < offset
            ]
            for tx_id in doomed:
                del self._pending_records[tx_id]
                self._decided.pop(tx_id, None)

    # ------------------------------------------------------------------
    # merged playback
    # ------------------------------------------------------------------

    def _play_until(self, upto: int) -> None:
        """Apply every pending entry with offset <= *upto*, in log order.

        Streams currently blocked behind an awaited decision record do
        not participate; their entries are deferred and drained when the
        decision arrives.
        """
        while True:
            best: Optional[int] = None
            for sid in self._objects:
                offset = self._streams.peek_offset(sid)
                if offset is None or offset > upto:
                    continue
                if best is None or offset < best:
                    best = offset
            if best is None:
                break
            delivering = []
            for sid in self._objects:
                if self._streams.peek_offset(sid) == best:
                    self._streams.readnext(sid)
                    delivering.append(sid)
            entry = self._streams.fetch(best)
            self._process_entry(best, entry, tuple(delivering))
            if best > self._watermark:
                self._watermark = best

    def _flush_speculative(
        self, batch: "_UpdateBatch"
    ) -> List[Tuple[int, Tuple[UpdateRecord, ...]]]:
        """Flush a speculative batch and reconcile it with the log.

        The batch's records were already applied to the hosted views
        (optimistically, with provisional offsets). After the durable
        append, the log decides whether the speculation was right:

        - if no foreign entry interleaved with a speculated object's
          stream below our last flushed offset, the speculation IS the
          replay — commit it in place by advancing the iterators past
          our own entries (without re-applying them) and bumping
          versions at the real offsets;
        - otherwise roll the speculated objects back to their
          pre-speculation checkpoints, rewind their iterators, and
          replay the log in order — our entries included, exactly once.

        Foreign entries touching only non-speculated objects are played
        normally either way (their order relative to the speculation is
        independent). Runs under the play lock, like end_tx.
        """
        with self._play_lock:
            flushed = batch._flush_records()
            if not flushed:
                return flushed
            spec_oids = set(batch._snapshots)
            our = {offset for offset, _ in flushed}
            last = max(our)
            self._streams.sync_many(self.hosted_oids())
            conflict = False
            while True:
                best: Optional[int] = None
                for sid in self._objects:
                    offset = self._streams.peek_offset(sid)
                    if offset is None or offset > last:
                        continue
                    if best is None or offset < best:
                        best = offset
                if best is None:
                    break
                delivering = [
                    sid for sid in self._objects
                    if self._streams.peek_offset(sid) == best
                ]
                if best in our:
                    # Our own entry: the speculative apply already
                    # mutated the views; just consume it.
                    for sid in delivering:
                        self._streams.readnext(sid)
                    if best > self._watermark:
                        self._watermark = best
                    continue
                entry = self._streams.fetch(best)
                if not entry.is_junk and any(
                    sid in spec_oids for sid in delivering
                ):
                    # A foreign entry interleaved below our flushed
                    # offsets on a speculated stream: the speculation
                    # applied out of log order. Stop (iterators still
                    # point at this entry) and roll back.
                    conflict = True
                    break
                for sid in delivering:
                    self._streams.readnext(sid)
                self._process_entry(best, entry, tuple(delivering))
                if best > self._watermark:
                    self._watermark = best
            if conflict:
                for oid, (snap, pos) in sorted(batch._snapshots.items()):
                    obj = self._objects.get(oid)
                    if obj is not None:
                        obj.load_checkpoint(snap)
                        self._streams.seek(oid, pos)
                batch._snapshots.clear()
                self.stats["speculative_rollbacks"] += 1
                self._play_until(last)
                return flushed
            # Speculation committed: the local state already equals the
            # replay; record versions and bookkeeping at real offsets.
            for offset, records in flushed:
                for record in records:
                    if record.oid not in self._objects:
                        continue
                    self._versions.bump(record.oid, offset, record.key)
                    if record.key is None:
                        self._dirty_full.add(record.oid)
                    else:
                        self._dirty_keys.setdefault(
                            record.oid, set()
                        ).add(record.key)
                    self.stats["applied_updates"] += 1
                    if self._subscribers:
                        self._emit(
                            "apply",
                            {
                                "oid": record.oid,
                                "offset": offset,
                                "key": record.key,
                            },
                        )
            batch._snapshots.clear()
            self.stats["speculative_commits"] += 1
            return flushed

    def _process_entry(
        self, offset: int, entry, scope: Tuple[int, ...]
    ) -> None:
        """Dispatch one log entry's records for the objects in *scope*."""
        if entry.is_junk:
            return
        records = decode_records(entry.payload)
        # Decision records for awaited transactions bypass stream
        # blocking — they are the unblocking events.
        for record in records:
            if isinstance(record, DecisionRecord) and record.tx_id in self._awaiting:
                self._resolve_awaited(record)
        if any(sid in self._blocked_streams for sid in scope):
            self._deferred.append((offset, entry, scope))
            return
        for record in records:
            self._dispatch(offset, record, scope)

    def _dispatch(self, offset: int, record: Record, scope: Tuple[int, ...]) -> None:
        if isinstance(record, UpdateRecord):
            if record.is_speculative:
                pending = self._pending.setdefault(
                    record.tx_id, PendingTx(record.tx_id)
                )
                pending.speculative.append((offset, record))
            elif record.oid in scope:
                self._apply_update(offset, record)
        elif isinstance(record, CommitRecord):
            self._process_commit(offset, record, scope)
        elif isinstance(record, DecisionRecord):
            # Handled by the bypass when awaited; otherwise this client
            # already decided locally (or never saw the commit) — ignore.
            pass
        elif isinstance(record, (CheckpointRecord, DeltaCheckpointRecord)):
            # Checkpoints are consumed only by the registration path.
            pass
        else:  # pragma: no cover - future-proofing
            raise TangoError(f"unknown record type {type(record).__name__}")

    def _apply_update(
        self, offset: int, record: UpdateRecord, version_offset: Optional[int] = None
    ) -> None:
        """Apply one update to its view.

        *offset* is where the update's data lives (what indexed views
        store); *version_offset* is where it became visible (what OCC
        compares against) — they differ only for speculative updates,
        whose data precedes their commit record in the log.
        """
        obj = self._objects.get(record.oid)
        if obj is None:
            return
        obj.apply(record.payload, offset)
        self._versions.bump(
            record.oid,
            offset if version_offset is None else version_offset,
            record.key,
        )
        if record.key is None:
            self._dirty_full.add(record.oid)
        else:
            self._dirty_keys.setdefault(record.oid, set()).add(record.key)
        self.stats["applied_updates"] += 1
        if self._subscribers:
            self._emit(
                "apply",
                {"oid": record.oid, "offset": offset, "key": record.key},
            )

    def _process_commit(
        self, offset: int, record: CommitRecord, scope: Tuple[int, ...]
    ) -> None:
        tx_id = record.tx_id
        if tx_id in self._decided:
            # Re-encounter during late-stream catch-up: apply only the
            # newly scoped objects' updates.
            self._finalize_tx(offset, record, self._decided[tx_id], scope)
            return
        if record.forced_abort:
            outcome = False
        elif all(e.oid in self._objects for e in record.read_set):
            outcome = not any(
                self._versions.is_stale(e.oid, e.key, e.version)
                for e in record.read_set
            )
        elif record.decision_expected:
            self._park_for_decision(offset, record, scope)
            return
        else:
            # Last-resort path (paper section 4.1, "Failure Handling"):
            # "any client in the system can reconstruct local views of
            # each object in the read set synced up to the commit offset
            # and then check for conflicts." We reconstruct version
            # tables, which is all a conflict check needs.
            outcome = self._decide_by_reconstruction(offset, record, depth=0)
        self._decided[tx_id] = outcome
        self._pending_records[tx_id] = (offset, _involved_oids(record))
        if self._subscribers:
            self._emit(
                "commit" if outcome else "abort",
                {"tx_id": tx_id, "offset": offset},
            )
        self._finalize_tx(offset, record, outcome, scope)

    def _park_for_decision(
        self, offset: int, record: CommitRecord, scope: Tuple[int, ...]
    ) -> None:
        """Hold the involved streams until the decision record arrives."""
        pending = self._pending.setdefault(record.tx_id, PendingTx(record.tx_id))
        pending.commit_offset = offset
        pending.commit_record = record
        self._awaiting[record.tx_id] = pending
        involved = set(e.oid for e in record.read_set) | set(record.write_oids)
        self._blocked_streams.update(involved & set(self._objects))

    def _resolve_awaited(self, decision: DecisionRecord) -> None:
        pending = self._awaiting.pop(decision.tx_id, None)
        if pending is None:
            return
        record = pending.commit_record
        offset = pending.commit_offset
        self._decided[decision.tx_id] = decision.committed
        involved = set(e.oid for e in record.read_set) | set(record.write_oids)
        self._blocked_streams -= involved
        self._finalize_tx(
            offset, record, decision.committed, tuple(self._objects)
        )
        self._drain_deferred()

    def _drain_deferred(self) -> None:
        """Re-run deferred entries now that streams were unblocked."""
        deferred, self._deferred = self._deferred, []
        for offset, entry, scope in deferred:
            self._process_entry(offset, entry, scope)

    def _finalize_tx(
        self,
        commit_offset: int,
        record: CommitRecord,
        outcome: bool,
        scope: Tuple[int, ...],
    ) -> None:
        """Apply (or discard) a decided transaction's buffered updates.

        All of a transaction's writes become visible at the commit
        record's position — its updates carry ``commit_offset`` as their
        version, on every client.
        """
        pending = self._pending.pop(record.tx_id, None)
        if not outcome:
            return
        scoped = set(scope)
        if pending is not None:
            for spec_offset, update in pending.speculative:
                if update.oid in scoped:
                    self._apply_update(
                        spec_offset, update, version_offset=commit_offset
                    )
        for update in record.inline_updates:
            if update.oid in scoped:
                self._apply_update(commit_offset, update)

    # ------------------------------------------------------------------
    # decision by reconstruction (section 4.1, last-resort fallback)
    # ------------------------------------------------------------------

    _MAX_RECONSTRUCTION_DEPTH = 4

    def _decide_by_reconstruction(
        self, commit_offset: int, record: CommitRecord, depth: int
    ) -> bool:
        """Decide a commit record by rebuilding read-set version state.

        For every object in the read set, replay its stream up to (but
        excluding) the commit record and track versions; then run the
        ordinary staleness check. Deterministic on every client, since
        it reads only the shared history.
        """
        if depth > self._MAX_RECONSTRUCTION_DEPTH:
            raise TangoError(
                f"reconstruction for tx {record.tx_id} exceeded depth "
                f"{self._MAX_RECONSTRUCTION_DEPTH}: deeply nested "
                f"undecidable commit records; mark read-set objects "
                f"with needs_decision_record"
            )
        if record.forced_abort:
            return False
        tables: Dict[int, VersionTable] = {}
        for entry in record.read_set:
            if entry.oid not in tables:
                tables[entry.oid] = self._reconstruct_versions(
                    entry.oid, commit_offset, depth
                )
        return not any(
            tables[e.oid].is_stale(e.oid, e.key, e.version)
            for e in record.read_set
        )

    def _reconstruct_versions(
        self, oid: int, upto: int, depth: int
    ) -> VersionTable:
        """Version table of *oid* as of log offset *upto* (exclusive)."""
        self._streams.open_stream(oid)
        self._streams.sync(oid)
        table = VersionTable()
        pending: Dict[int, List[Tuple[int, UpdateRecord]]] = {}
        for offset in self._streams.known_offsets(oid):
            if offset >= upto:
                break
            entry = self._streams.fetch(offset)
            if entry.is_junk:
                continue
            for record in decode_records(entry.payload):
                if isinstance(record, UpdateRecord):
                    if record.oid != oid:
                        continue
                    if record.is_speculative:
                        pending.setdefault(record.tx_id, []).append(
                            (offset, record)
                        )
                    else:
                        table.bump(oid, offset, record.key)
                elif isinstance(record, CommitRecord):
                    outcome = self._decided.get(record.tx_id)
                    if outcome is None:
                        outcome = self._reconstructed_outcome(
                            oid, offset, record, table, depth
                        )
                        self._decided[record.tx_id] = outcome
                        self._pending_records[record.tx_id] = (
                            offset, _involved_oids(record)
                        )
                    if not outcome:
                        pending.pop(record.tx_id, None)
                        continue
                    for _spec, update in pending.pop(record.tx_id, []):
                        table.bump(oid, offset, update.key)
                    for update in record.inline_updates:
                        if update.oid == oid:
                            table.bump(oid, offset, update.key)
                elif isinstance(
                    record, (CheckpointRecord, DeltaCheckpointRecord)
                ):
                    # A full checkpoint installs its version state; a
                    # delta overlays only its changed keys — its base
                    # appeared earlier in the same stream, so the replay
                    # already folded the base state in.
                    if record.oid == oid:
                        table.load_checkpoint(
                            oid,
                            record.object_version,
                            record.key_versions,
                            record.unkeyed_version,
                            record.version_floor,
                            record.evicted_filter,
                        )
        return table

    def _reconstructed_outcome(
        self,
        oid: int,
        offset: int,
        record: CommitRecord,
        table: VersionTable,
        depth: int,
    ) -> bool:
        """Outcome of a nested commit record met during reconstruction."""
        if record.forced_abort:
            return False
        if all(e.oid == oid for e in record.read_set):
            return not any(
                table.is_stale(e.oid, e.key, e.version) for e in record.read_set
            )
        if record.decision_expected:
            for _off, entry in self._streams.lookahead(oid, offset):
                if entry.is_junk:
                    continue
                for rec in decode_records(entry.payload):
                    if (
                        isinstance(rec, DecisionRecord)
                        and rec.tx_id == record.tx_id
                    ):
                        return rec.committed
        return self._decide_by_reconstruction(offset, record, depth + 1)

    # ------------------------------------------------------------------
    # late-stream catch-up
    # ------------------------------------------------------------------

    def _catch_up(self, oid: int, upto: int) -> None:
        """Replay *oid*'s stream alone up to the global watermark.

        Commit decisions encountered here are resolved from (in order):
        the local decision cache, a read set confined to this object
        (versions are reconstructed historically during the replay), or
        a decision record found further down the stream.
        """
        while True:
            item = self._streams.readnext(oid, upto=upto)
            if item is None:
                break
            offset, entry = item
            if entry.is_junk:
                continue
            for record in decode_records(entry.payload):
                if isinstance(record, UpdateRecord):
                    if record.is_speculative:
                        pending = self._pending.setdefault(
                            record.tx_id, PendingTx(record.tx_id)
                        )
                        pending.speculative.append((offset, record))
                    elif record.oid == oid:
                        self._apply_update(offset, record)
                elif isinstance(record, CommitRecord):
                    self._catch_up_commit(oid, offset, record)

    def _catch_up_commit(self, oid: int, offset: int, record: CommitRecord) -> None:
        tx_id = record.tx_id
        if tx_id in self._decided:
            self._finalize_tx(offset, record, self._decided[tx_id], (oid,))
            return
        if record.forced_abort:
            outcome = False
        elif all(e.oid == oid for e in record.read_set):
            outcome = not any(
                self._versions.is_stale(e.oid, e.key, e.version)
                for e in record.read_set
            )
        else:
            outcome = self._hunt_decision(oid, offset, tx_id)
            if outcome is None:
                outcome = self._decide_by_reconstruction(offset, record, depth=0)
        self._decided[tx_id] = outcome
        self._pending_records[tx_id] = (offset, _involved_oids(record))
        self._finalize_tx(offset, record, outcome, (oid,))

    def _hunt_decision(self, oid: int, offset: int, tx_id: int) -> Optional[bool]:
        """Scan forward in the stream for the transaction's decision record."""
        for _off, entry in self._streams.lookahead(oid, offset):
            if entry.is_junk:
                continue
            for record in decode_records(entry.payload):
                if isinstance(record, DecisionRecord) and record.tx_id == tx_id:
                    return record.committed
        return None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def version_of(self, oid: int, key: Optional[bytes] = None) -> int:
        """Current version (last-modifying offset) of an object or key."""
        return self._versions.get(oid, key)

    def status(self) -> dict:
        """Operational snapshot of this client's runtime.

        Intended for dashboards and debugging: hosted objects, playback
        progress, parked transactions (a growing ``awaiting_decisions``
        means some generator is slow or dead — see
        :meth:`publish_decision`), and the cumulative statistics.
        """
        with self._play_lock:
            return {
                "name": self.name,
                "hosted_oids": sorted(self._objects),
                "watermark": self._watermark,
                "pending_txes": len(self._pending),
                "awaiting_decisions": sorted(self._awaiting),
                "blocked_streams": sorted(self._blocked_streams),
                "deferred_entries": len(self._deferred),
                "decided_txes": len(self._decided),
                "open_transaction": self._current_tx() is not None,
                "stats": dict(self.stats),
                # Per-endpoint transport counters (rpcs, retries,
                # timeouts, duplicates, drops, reordered) for the
                # cluster connection.
                "net": self._streams.corfu.net_stats(),
                # Client- and cluster-side storage accounting; built
                # from in-process state only (no RPCs — status() must
                # stay safe to call from anywhere, including transport
                # fault hooks).
                "store": self._store_status_locked(),
            }

    def _store_status_locked(self) -> dict:
        store: dict = {
            "memory_budget": self._memory_budget,
            "versions": self._versions.resident_stats(),
            "stream_cache": {
                "entries": self._streams.cache_size,
                "resident_bytes": self._streams.resident_bytes(),
            },
            "checkpoint_chains": {
                oid: depth
                for oid, (_off, depth) in sorted(
                    self._checkpoint_chains.items()
                )
            },
        }
        # Segment/compaction accounting lives on the storage units; the
        # in-process cluster aggregates it without issuing RPCs.
        aggregate = getattr(
            getattr(self._streams.corfu, "_cluster", None), "store_status", None
        )
        if callable(aggregate):
            try:
                store["cluster"] = aggregate()
            except ReproError:
                pass  # a sealed/degraded cluster still gets client stats
        return store

    def store_status(self) -> dict:
        """Cluster-wide storage survey over the admin RPC plane.

        Unlike :meth:`status` (in-process state only), this issues one
        ``store_status`` RPC per storage node, reporting segment
        counts, garbage ratios, and compaction counters as the nodes
        themselves see them. Unreachable nodes appear as
        ``{"error": ...}`` entries.
        """
        return self._streams.corfu.store_status()

    @property
    def streams(self) -> StreamClient:
        return self._streams

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TangoRuntime {self.name} objects={len(self._objects)} "
            f"watermark={self._watermark}>"
        )


class _TemporaryView:
    """Context manager behind :meth:`TangoRuntime.temporary_view`."""

    def __init__(self, runtime: TangoRuntime, cls, oid: int, kwargs) -> None:
        self._runtime = runtime
        self._cls = cls
        self._oid = oid
        self._kwargs = kwargs
        self._obj = None
        self._was_hosted = False

    def __enter__(self):
        existing = self._runtime.get_object(self._oid)
        if existing is not None:
            # Already hosted: hand it out and leave it alone on exit.
            self._was_hosted = True
            self._obj = existing
            return existing
        self._obj = self._cls(self._runtime, self._oid, **self._kwargs)
        return self._obj

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._was_hosted:
            self._runtime.deregister_object(self._oid)
        return False


class _UpdateBatch:
    """Accumulates update records and flushes them as shared entries."""

    def __init__(
        self,
        runtime: TangoRuntime,
        size: Optional[int],
        speculative: bool = False,
    ) -> None:
        self._runtime = runtime
        # size=None means adaptive: the threshold tracks the runtime's
        # shared group-commit policy, re-read after every flush.
        self._policy = runtime._batch_policy if size is None else None
        self._size = runtime._batch_policy.size if size is None else size
        self.speculative = speculative
        self._records: List[UpdateRecord] = []
        # oid -> (pre-speculation checkpoint, stream position), taken
        # lazily at each hosted object's first speculative apply.
        self._snapshots: Dict[int, Tuple[bytes, int]] = {}
        self._spec_seq = 0

    def add(self, record: UpdateRecord) -> None:
        if self.speculative:
            self._speculative_apply(record)
        self._records.append(record)
        if len(self._records) >= self._size:
            self.flush()

    def _speculative_apply(self, record: UpdateRecord) -> None:
        runtime = self._runtime
        with runtime._play_lock:
            obj = runtime._objects.get(record.oid)
            if obj is None:
                return  # remote write: buffered only, applied by hosts
            if record.oid not in self._snapshots:
                try:
                    snap = obj.get_checkpoint()
                except NotImplementedError:
                    raise TangoError(
                        f"object {record.oid} does not implement "
                        f"checkpoints; speculative batch scopes need "
                        f"them for rollback"
                    ) from None
                self._snapshots[record.oid] = (
                    snap, runtime._streams.position(record.oid)
                )
            self._spec_seq += 1
            # Provisional apply offset: past everything delivered so
            # far, monotonically increasing within the scope. Replaced
            # by the real offsets at reconcile time (via rollback +
            # replay) if the log disagrees with the speculation.
            obj.apply(record.payload, runtime._watermark + self._spec_seq)

    def flush(self) -> List[Tuple[int, Tuple[UpdateRecord, ...]]]:
        """Flush buffered records; returns ``[(offset, records), ...]``.

        Exception-safe: records leave the buffer only once their append
        has returned, so if an append raises mid-flush (retries
        exhausted, a reconfiguration that cannot complete), everything
        not yet durable is still buffered and a later flush retries it.
        The chunk whose append raised is ambiguous — like any append
        that times out, it may surface in the log anyway — so a retried
        flush delivers at-least-once for that chunk and exactly-once
        for everything behind it (the old code silently dropped both).
        """
        if not self._records:
            return []
        if self.speculative:
            flushed = self._runtime._flush_speculative(self)
        else:
            flushed = self._flush_records()
        self._spec_seq = 0
        return flushed

    def _flush_records(self) -> List[Tuple[int, Tuple[UpdateRecord, ...]]]:
        flushed: List[Tuple[int, Tuple[UpdateRecord, ...]]] = []
        streams_client = self._runtime._streams
        corfu = streams_client.corfu
        limit = corfu.max_payload
        pressure_before = self._net_pressure(corfu)
        batched = len(self._records)
        split = False
        payload_bytes = 0
        while self._records:
            records = self._records
            streams: List[int] = []
            for record in records:
                if record.oid not in streams:
                    streams.append(record.oid)
            payload = encode_records(records)
            if len(payload) <= limit and len(streams) <= corfu.max_streams:
                payload_bytes = len(payload)
                offset = streams_client.append(payload, tuple(streams))
                self._records = []
                flushed.append((offset, tuple(records)))
                break
            # Oversized batch: one entry per record, but runs of records
            # for the same object still share a single sequencer grant
            # (append_batch), so the flush costs one increment RPC per
            # run instead of one per record. The buffer is trimmed only
            # after each run's append returns (exception safety).
            split = True
            j = 1
            while j < len(records) and records[j].oid == records[0].oid:
                j += 1
            run = records[:j]
            if len(run) > 1:
                offsets = streams_client.append_batch(
                    [encode_records([r]) for r in run], (run[0].oid,)
                )
                self._records = records[j:]
                flushed.extend(
                    (off, (r,)) for off, r in zip(offsets, run)
                )
            else:
                offset = streams_client.append(
                    encode_records([run[0]]), (run[0].oid,)
                )
                self._records = records[1:]
                flushed.append((offset, (run[0],)))
        if self._policy is not None:
            pressure = self._net_pressure(corfu) - pressure_before
            self._size = self._policy.observe(
                batched, split, pressure, payload_bytes, limit
            )
        return flushed

    @staticmethod
    def _net_pressure(corfu) -> int:
        """Retries + timeouts across endpoints (the in-flight signal)."""
        total = 0
        for stats in corfu.net_stats().values():
            total += stats["retries"] + stats["timeouts"]
        return total

    def abandon(self) -> None:
        """Discard buffered records; undo speculative local applies.

        The scope body raised (or its exit flush failed): buffered
        records never reach the log, and any hosted view mutated
        speculatively is restored to its pre-speculation checkpoint so
        the local state rejoins the log's history. Records already
        flushed are durable and stay — they were acknowledged.
        """
        self._records = []
        if not self._snapshots:
            return
        runtime = self._runtime
        with runtime._play_lock:
            for oid, (snap, pos) in sorted(self._snapshots.items()):
                obj = runtime._objects.get(oid)
                if obj is not None:
                    obj.load_checkpoint(snap)
                    runtime._streams.seek(oid, pos)
        self._snapshots = {}
        self._spec_seq = 0


class _BatchScope:
    """Context manager installing an update batch in thread-local state.

    Error semantics (documented in API.md): if the scope body raises,
    buffered (unflushed) updates are DISCARDED — none of them reaches
    the log, and no partial entry is appended. Updates flushed earlier
    in the scope (threshold reached, or an accessor's read-your-writes
    flush) are already durable and stay. Speculative local applies of
    discarded records are rolled back.
    """

    def __init__(
        self,
        runtime: TangoRuntime,
        size: Optional[int],
        speculative: bool = False,
    ) -> None:
        self._runtime = runtime
        self._size = size
        self._speculative = speculative

    def __enter__(self) -> "_BatchScope":
        if getattr(self._runtime._tls, "batch", None) is not None:
            raise TangoError("batch scope already open on this thread")
        if self._speculative:
            with self._runtime._play_lock:
                if self._runtime._speculating:
                    raise TangoError(
                        "another speculative batch scope is active"
                    )
                self._runtime._speculating = True
        self._runtime._tls.batch = _UpdateBatch(
            self._runtime, self._size, self._speculative
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        batch = self._runtime._tls.batch
        try:
            if exc_type is None:
                try:
                    batch.flush()
                except BaseException:
                    # The exit flush failed and there is no scope left
                    # to retry in: roll back speculative applies so the
                    # local view rejoins the log, and surface the error
                    # (records already flushed are durable; the rest
                    # are discarded, loudly).
                    batch.abandon()
                    raise
            else:
                batch.abandon()
        finally:
            self._runtime._tls.batch = None
            if self._speculative:
                with self._runtime._play_lock:
                    self._runtime._speculating = False
        return False


class _TxScope:
    """Context manager for a single transaction attempt."""

    def __init__(self, runtime: TangoRuntime, allow_stale: bool) -> None:
        self._runtime = runtime
        self._allow_stale = allow_stale
        self.committed: Optional[bool] = None

    def __enter__(self) -> "_TxScope":
        self._runtime.begin_tx()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._runtime.abort_tx()
            return False
        self.committed = self._runtime.end_tx(allow_stale=self._allow_stale)
        if not self.committed:
            raise TransactionAborted("read set validation failed")
        return False
