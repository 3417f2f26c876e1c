"""Asyncio streaming service: producers push streams, subscribers match.

:class:`SpexService` binds the wire protocol of
:mod:`repro.service.protocol` to TCP and drives one
:class:`~repro.core.multiquery.ServePump` — the same push-mode state
machine :meth:`MultiQueryEngine.serve
<repro.core.multiquery.MultiQueryEngine.serve>` runs on — so a network
subscriber's match stream is bit-identical to an offline pass by
construction.

Robustness properties, each enforced structurally rather than by luck:

* **Per-connection fault domains.**  Every connection runs in its own
  task; a client that sends garbage, crawls, or vanishes affects only
  its own state.  Producer input is *document-atomic*: one pass of the
  connection's :class:`~repro.service.protocol.DocumentAssembler` per
  ``events`` frame decodes, checks and buffers each event, and a
  document reaches the engine only once its ``</$>`` has passed that
  check, so a producer dying mid-document can never poison the strict
  engine pump (the partial document is dropped, counted, and the stream
  position never moves).  A refused document, or a run of events
  outside any ``<$>``, costs one ``SVC008`` error.
* **End-to-end backpressure.**  Matches flow, each encoded once, through
  a bounded per-subscriber output queue, which the subscriber's writer
  empties with one write per wake-up; under the default ``block`` overflow
  policy a full queue suspends the engine task, which stops draining
  the bounded input document queue, which suspends producer read loops,
  which stops reading their sockets — the TCP receive window closes and
  the pressure reaches the true source.  ``shed_oldest`` trades loss
  (marked ``degraded``, surfaced as ``SHED001`` notices) for liveness;
  ``disconnect`` cuts the slow subscriber (``SVC006``).
* **Admission at the wire.**  ``subscribe`` runs the d·σ cost
  certifier's admission classification (``ADMIT000``–``ADMIT004``) and
  a per-tenant subscription budget (``SVC009``); rejected queries never
  touch the stream.
* **Clocked timeouts.**  Handshake, idle and write deadlines are
  *decided* against the injectable :class:`~repro.core.clock.Clock`
  (the housekeeping task merely ticks on real time), so fault-injection
  tests drive them with a :class:`~repro.core.clock.FakeClock` and zero
  real waiting.
* **Graceful drain.**  ``SIGTERM``/``SIGINT`` (via
  :meth:`SpexService.request_drain`) stop accepting connections, let
  producers finish in-flight documents within a grace window, pump the
  remaining input, take a document-boundary checkpoint (resumable via
  :mod:`repro.core.checkpoint`), flush every subscriber queue, and say
  ``bye`` (``SVC007``).
* **Durable sessions.**  With a write-ahead log configured
  (:attr:`ServiceConfig.wal_path`), subscribers may open *durable
  sessions*, whose state one :class:`~repro.service.wal.SessionStore`
  owns: every match carries a monotone per-subscription sequence number
  and is logged before delivery, the engine is checkpointed in the
  background at document boundaries
  without stopping ingestion, and ``resume=True`` reconstructs the
  whole serving pass — pump, subscriptions, admission verdicts and
  quarantine latches — *as a service*, directly into a listening
  server.  A reconnecting client presents its session token and
  observed sequence floors (``resume`` frame); the server replays the
  retained log tail above the floor and suppresses regenerated
  duplicates below it, so every subscriber observes every match exactly
  once, bit-identical to an offline :meth:`MultiQueryEngine.serve
  <repro.core.multiquery.MultiQueryEngine.serve>` pass, across any
  number of crashes.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from collections.abc import Coroutine
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.checkpoint import Checkpoint
from ..core.clock import Clock, as_clock
from ..core.multiquery import MultiQueryEngine, ServePump
from ..core.output_tx import Match
from ..core.serving import AdmissionPolicy, ServingPolicy
from ..errors import CheckpointError, ReproError
from ..limits import ResourceLimits
from ..xmlstream.offsets import StreamCursor
from .protocol import (
    MAX_FRAME_BYTES,
    OVERFLOW_BLOCK,
    OVERFLOW_POLICIES,
    OVERFLOW_SHED_OLDEST,
    ROLE_PRODUCER,
    ROLE_SUBSCRIBER,
    ROLES,
    SVC_DRAINING,
    SVC_HANDSHAKE_TIMEOUT,
    SVC_IDLE_TIMEOUT,
    SVC_OVERFLOW,
    SVC_PROTOCOL,
    SVC_TENANT_BUDGET,
    SVC_WRITE_TIMEOUT,
    DocumentAssembler,
    ProtocolError,
    bye_frame,
    decode_frame,
    encode_frame,
    encode_match,
    error_frame,
    heartbeat_frame,
    ingested_frame,
    integer_field,
    match_from_obj,
    notice_frame,
    pong_frame,
    rejected_frame,
    resumed_frame,
    subscribed_frame,
    welcome_frame,
)

if TYPE_CHECKING:
    from .wal import Session, SessionStore

#: Sentinels for the engine input queue and subscriber output queues.
_DRAIN = object()
_CLOSE = object()


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a :class:`SpexService` enforces.

    Attributes:
        host / port: bind address (port 0 picks an ephemeral port;
            read the actual one from :attr:`SpexService.address`).
        serving: the :class:`~repro.core.serving.ServingPolicy` the
            shared pass runs under (bulkheads, breakers, deadlines,
            shedding — all of it applies to wire subscribers too).
        admission: d·σ admission policy applied to every ``subscribe``
            (``None`` admits everything as ``ADMIT000``).
        limits: :class:`~repro.limits.ResourceLimits`; the stream
            limits are checked once per event and keep every lane.
        clock: injectable time source for every timeout decision.
        handshake_timeout: seconds a connection may sit without a
            ``hello`` (``SVC003``).
        idle_timeout: seconds a producer (or a subscriber with no
            subscriptions) may sit silent (``SVC004``); ``None``
            disables.
        write_timeout: seconds one subscriber write may stay blocked
            before the connection is cut as a slow consumer
            (``SVC005``).
        heartbeat_interval: seconds between ``heartbeat`` frames to
            subscribers; ``None`` disables.
        subscriber_queue: default bound of a subscriber's output queue.
        overflow: default overflow policy (one of
            :data:`~repro.service.protocol.OVERFLOW_POLICIES`).
        input_queue_documents: bound of the producer→engine document
            queue — the backpressure coupling point.
        drain_grace: seconds producers get to finish in-flight
            documents during drain before being aborted.
        checkpoint_path: where drain (and the background cadence) write
            the document-boundary checkpoint (``None`` skips it).
        checkpoint_every_documents: background-checkpoint cadence — a
            snapshot is taken (in memory, synchronously — bounded by
            the paper's d·σ state bound) and written in a worker thread
            every N committed documents, *without* stopping ingestion;
            ``None`` keeps the drain-only behaviour.  A document commits
            through the write-ahead log, so the cadence needs both
            ``wal_path`` and ``checkpoint_path``.
        checkpoint_keep: checkpoint generations to retain (rotation);
            :meth:`Checkpoint.load <repro.core.checkpoint.Checkpoint.load>`
            falls back to the newest verifying one.
        wal_path: the write-ahead match log (:mod:`repro.service.wal`);
            required for durable sessions, ``None`` disables them.
        wal_fsync_documents: fsync batching cadence of the log (1 syncs
            every document marker).
        wal_max_bytes: compaction threshold — once the log exceeds it
            (checked at the checkpoint cadence), it is atomically
            rewritten from the retained unacked tail.
        session_retention_documents: a disconnected durable session
            older than this many committed documents is expired at the
            next checkpoint cadence (``SVC011`` on a later resume).
        resume: reconstruct state from ``checkpoint_path`` + ``wal_path``
            at :meth:`SpexService.start` — the service-native resume
            path (no offline engine round-trip).
        max_frame_bytes: per-line wire ceiling (``SVC001`` beyond).
        max_subscriptions_per_tenant: tenant budget (``SVC009``);
            ``None`` is unlimited.
        tick: housekeeping cadence in *real* seconds (deadline decisions
            themselves read :attr:`clock`).
    """

    host: str = "127.0.0.1"
    port: int = 0
    serving: ServingPolicy = field(default_factory=ServingPolicy)
    admission: AdmissionPolicy | None = None
    limits: ResourceLimits | None = None
    clock: Clock | None = None
    handshake_timeout: float = 5.0
    idle_timeout: float | None = 60.0
    write_timeout: float = 10.0
    heartbeat_interval: float | None = 5.0
    subscriber_queue: int = 256
    overflow: str = OVERFLOW_BLOCK
    input_queue_documents: int = 8
    drain_grace: float = 5.0
    checkpoint_path: str | None = None
    checkpoint_every_documents: int | None = None
    checkpoint_keep: int = 1
    wal_path: str | None = None
    wal_fsync_documents: int = 1
    wal_max_bytes: int = 4_194_304
    session_retention_documents: int = 1024
    resume: bool = False
    max_frame_bytes: int = MAX_FRAME_BYTES
    max_subscriptions_per_tenant: int | None = None
    tick: float = 0.02

    def __post_init__(self) -> None:
        if self.overflow not in OVERFLOW_POLICIES:
            raise ValueError(
                f"overflow must be one of {OVERFLOW_POLICIES}, "
                f"got {self.overflow!r}"
            )
        for name in (
            "handshake_timeout",
            "write_timeout",
            "drain_grace",
            "tick",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("idle_timeout", "heartbeat_interval"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when set")
        for name in (
            "subscriber_queue",
            "input_queue_documents",
            "checkpoint_keep",
            "wal_fsync_documents",
            "session_retention_documents",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if (
            self.checkpoint_every_documents is not None
            and self.checkpoint_every_documents < 1
        ):
            raise ValueError(
                "checkpoint_every_documents must be at least 1 when set"
            )
        if self.checkpoint_every_documents is not None and (
            self.wal_path is None or self.checkpoint_path is None
        ):
            raise ValueError(
                "checkpoint_every_documents needs both wal_path and "
                "checkpoint_path"
            )
        if self.wal_max_bytes < 1:
            raise ValueError("wal_max_bytes must be positive")


@dataclass
class ServiceStats:
    """Operational counters, separate from the engine's ServingReport."""

    connections: int = 0
    producers: int = 0
    subscribers: int = 0
    documents_ingested: int = 0
    documents_rejected: int = 0
    partial_documents: int = 0
    frames_shed: int = 0
    forced_disconnects: int = 0
    heartbeats_sent: int = 0
    checkpoints_written: int = 0
    sessions_opened: int = 0
    sessions_resumed: int = 0
    sessions_expired: int = 0
    matches_logged: int = 0
    matches_replayed: int = 0
    documents_rebuilt: int = 0
    wal_compactions: int = 0


class _Connection:
    """Per-socket state; every field is touched only from the event loop."""

    def __init__(
        self,
        conn_id: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        clock: Clock,
    ) -> None:
        self.id = conn_id
        self.reader = reader
        self.writer = writer
        self.role: str | None = None
        self.tenant = "default"
        self.opened_at = clock.monotonic()
        self.last_activity = self.opened_at
        self.closed = False
        self.drain_requested = False
        # producer state: ingest, holding the in-flight document
        self.assembler = DocumentAssembler()
        # subscriber state
        self.overflow = OVERFLOW_BLOCK
        #: matches wait here as ``(client query id, encoded line)``,
        #: control frames as dicts, encoded by the writer
        self.queue: asyncio.Queue | None = None
        self.queries: dict[str, str] = {}  # client query_id -> engine id
        self.notified: dict[str, str] = {}  # engine id -> last notice code
        self.shed_frames = 0
        self.writing_since: float | None = None
        self.writer_task: asyncio.Task | None = None
        # durable-session state
        self.session: Session | None = None
        #: replay in progress: live matches divert to ``resume_buffer``
        #: so the WAL tail stays strictly before them in the queue.
        self.resuming = False
        self.resume_buffer: list[tuple[str, bytes]] = []

    def send_now(self, frame: dict) -> None:
        """Queue one line on the transport (never blocks, line-atomic)."""
        if not self.closed and not self.writer.is_closing():
            self.writer.write(encode_frame(frame))

    def close_queue(self) -> None:
        """Drop what is queued and hand the writer its close sentinel
        (which also frees an engine task blocked on a put to the queue)."""
        if self.queue is not None:
            while not self.queue.empty():
                self.queue.get_nowait()
            self.queue.put_nowait(_CLOSE)

    def abort(self) -> None:
        """Hard-cut the transport (breaks a stuck write immediately)."""
        self.closed = True
        transport = self.writer.transport
        if transport is not None:
            transport.abort()


class SpexService:
    """One engine, one listener, many producer/subscriber connections."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.clock = as_clock(self.config.clock)
        self.stats = ServiceStats()
        self.engine = MultiQueryEngine(
            {},
            limits=self.config.limits,
            admission=self.config.admission,
        )
        self.pump: ServePump | None = None
        self.address: tuple[str, int] | None = None
        self.checkpoint: Checkpoint | None = None
        #: every durable session's state; ``None`` without a WAL
        self.durable: SessionStore | None = None
        self.resumed = False
        self._server: asyncio.Server | None = None
        self._input: asyncio.Queue | None = None
        self._connections: set[_Connection] = set()
        self._routes: dict[str, tuple[_Connection, str]] = {}
        self._tenant_counts: Counter[str] = Counter()
        self._next_id = 0
        self._draining = False
        self._drain_task: asyncio.Task | None = None
        self._engine_task: asyncio.Task | None = None
        self._housekeeper: asyncio.Task | None = None
        self._engine_done: asyncio.Event | None = None
        self._done: asyncio.Event | None = None
        self._last_heartbeat = 0.0
        #: complete documents committed (1-based count; WAL marker unit).
        self._committed_documents = 0
        #: documents accepted onto the input queue (>= committed).
        self._accepted_documents = 0
        self._checkpoint_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> tuple[str, int]:
        """Bind, start the engine pump, and begin accepting connections.

        With :attr:`ServiceConfig.resume` the pump, subscriptions,
        admission verdicts, quarantine latches and WAL replay tail are
        reconstructed from ``checkpoint_path`` + ``wal_path`` *before*
        the listener binds — the service-native resume path.
        """
        config = self.config
        if config.wal_path is not None:
            from .wal import SessionStore

            self.durable = SessionStore(
                config.wal_path,
                config.wal_fsync_documents,
                resume=config.resume,
                retention=config.session_retention_documents,
            )
        snapshot = self._load_resume_checkpoint() if config.resume else None
        if snapshot is not None:
            self.engine = MultiQueryEngine.from_checkpoint(
                snapshot,
                limits=config.limits,
                admission=config.admission,
            )
            self.pump = self.engine.resume_pump(
                snapshot, policy=config.serving, clock=self.clock
            )
            self.checkpoint = snapshot
            self.resumed = True
        else:
            self.pump = self.engine.start_pump(
                policy=config.serving, clock=self.clock, cursor=StreamCursor()
            )
        if config.resume and self.durable is not None:
            self._install_recovery(self.durable)
        self._input = asyncio.Queue(maxsize=config.input_queue_documents)
        self._engine_done = asyncio.Event()
        self._done = asyncio.Event()
        self._last_heartbeat = self.clock.monotonic()
        self._server = await asyncio.start_server(
            self._on_connection,
            config.host,
            config.port,
            limit=config.max_frame_bytes + 2,
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        self._engine_task = asyncio.create_task(self._engine_loop())
        self._housekeeper = asyncio.create_task(self._housekeeping_loop())
        return self.address

    async def serve_until_done(self) -> None:
        """Block until a drain completes (install signal handlers first)."""
        assert self._done is not None, "start() first"
        await self._done.wait()

    def request_drain(self) -> None:
        """Begin graceful shutdown; idempotent, safe from signal handlers."""
        if self._draining:
            return
        self._draining = True
        self._drain_task = asyncio.get_running_loop().create_task(self._drain())

    async def stop(self) -> None:
        """Drain and wait for completion."""
        assert self._done is not None, "start() first"
        self.request_drain()
        await self._done.wait()

    @property
    def committed_documents(self) -> int:
        """Fully ingested documents this run has committed (1-based)."""
        return self._committed_documents

    @property
    def session_count(self) -> int:
        """Live durable sessions (attached or awaiting a resume)."""
        return len(self.durable.sessions) if self.durable is not None else 0

    @property
    def degraded(self) -> bool:
        """Whether any query's delivery was degraded this pass."""
        serving = self.engine.serving
        if serving is None:
            return False
        return serving.departed_degraded > 0 or any(
            outcome.degraded for outcome in serving.outcomes.values()
        )

    # ------------------------------------------------------------------
    # service-native resume

    def _load_resume_checkpoint(self) -> Checkpoint | None:
        """The newest verifying checkpoint generation, or ``None``.

        A missing file is a fresh start (first boot under a supervisor
        that always passes ``--resume``); a corrupt file falls back
        through the rotated generations inside :meth:`Checkpoint.load
        <repro.core.checkpoint.Checkpoint.load>` and only a fully
        unreadable set comes back ``None`` — the WAL still rebuilds the
        stream from document one in that case.
        """
        path = self.config.checkpoint_path
        if path is None:
            return None
        try:
            return Checkpoint.load(path)
        except CheckpointError:
            return None

    def _install_recovery(self, durable: SessionStore) -> None:
        """Resume the recovered sessions on the restored pump; ``welcome``
        tells producers to re-send from the engine's position."""
        assert self.pump is not None
        engine_documents = self.pump.serving.documents_seen
        self._committed_documents = durable.resume(
            engine_documents, self.engine.queries
        )
        self._accepted_documents = engine_documents
        self._tenant_counts.update(durable.tenants())
        # Checkpointed queries no durable session claims belonged to
        # non-durable subscribers of the dead process: close them out
        # (their subscribers are gone and cannot resume).
        for engine_id in list(self.engine.queries):
            if not durable.owns(engine_id):
                self._retire_query(
                    engine_id, None, reason="non-durable subscriber lost in crash"
                )

    def _attach_deferred(self, durable: SessionStore) -> None:
        """Re-attach recovered subscriptions whose join point the pump's
        position, climbing back through the replayed documents, reached."""
        assert self.pump is not None
        for engine_id, query, tenant in durable.due(self.pump.serving.documents_seen):
            try:
                self.engine.add_query(engine_id, query)
                attached = self.pump.attach(engine_id)
            except ReproError:
                attached = False
            if not attached:
                # Deterministic admission re-rejects only what it
                # rejected before; a recovered subscription was admitted.
                self._retire_query(
                    engine_id, tenant, reason="recovered subscription refused"
                )

    # ------------------------------------------------------------------
    # engine task: the single consumer of the document queue

    async def _engine_loop(self) -> None:
        assert self._input is not None and self.pump is not None
        try:
            while True:
                item = await self._input.get()
                if item is _DRAIN:
                    break
                producer, document = item
                if self.durable is not None:
                    self._attach_deferred(self.durable)
                for engine_id, match in self.pump._pull(document):
                    blocked = self._deliver(engine_id, match)
                    if blocked is not None:
                        await blocked
                await self._commit_document(producer)
                self._notify_detachments()
                # cooperative yield: one giant document must not starve
                # accept/handshake processing forever
                await asyncio.sleep(0)
        finally:
            assert self._engine_done is not None
            self._engine_done.set()

    async def _commit_document(self, producer: "_Connection | None") -> None:
        """Document-boundary commit: marker, fsync cadence, checkpoint.

        Ordering is the durability invariant: the WAL marker (and its
        covering fsync, when the batching cadence fires) always precedes
        the background checkpoint save, so the checkpoint can trail the
        log but never lead it.  The producer's ``ingested`` ack goes out
        last — an acked document is one the log already holds.
        """
        assert self.pump is not None
        # The pump's own position is the commit count: during a rebuild
        # replay it climbs back toward the already-committed count (which
        # therefore must not advance), and past it they move together.
        count = self.pump.serving.documents_seen
        self._committed_documents = max(self._committed_documents, count)
        durable = self.durable
        if durable is None:
            return
        if count <= durable.rebuild_until:
            self.stats.documents_rebuilt += 1
        else:
            durable.wal.append_document(count, self.pump.cursor.events_read)
            self._maybe_background_checkpoint(durable, count)
        if producer is not None and not producer.closed:
            producer.send_now(ingested_frame(count, durable.wal.durable_documents))

    def _maybe_background_checkpoint(self, durable: SessionStore, count: int) -> None:
        """Live checkpoint at the cadence, without stopping ingestion.

        The snapshot itself is taken synchronously (it is an in-memory
        dict capture, bounded by d·σ); only the fsync-heavy file write
        moves to a worker thread.  One save in flight at a time — if the
        previous write is still running, this boundary is skipped and
        the next cadence hit retries.
        """
        config = self.config
        if (
            config.checkpoint_every_documents is None
            or config.checkpoint_path is None
            or count % config.checkpoint_every_documents != 0
        ):
            return
        if self._checkpoint_task is not None and not self._checkpoint_task.done():
            return
        assert self.pump is not None
        durable.wal.sync()  # the WAL must never trail the checkpoint
        for tenant, engine_ids in durable.expire(count):
            self.stats.sessions_expired += 1
            for engine_id in engine_ids:
                self._retire_query(
                    engine_id, tenant, reason="durable session expired"
                )
        if durable.wal.size_bytes > config.wal_max_bytes:
            durable.wal.compact(durable.sessions, self.pump.cursor.events_read)
            self.stats.wal_compactions += 1
        try:
            snapshot = self.engine.checkpoint()
        except ReproError:  # pragma: no cover - no cursor-tracked pass
            return
        self.checkpoint = snapshot
        self._checkpoint_task = asyncio.get_running_loop().create_task(
            self._save_checkpoint(snapshot)
        )

    async def _save_checkpoint(self, snapshot: Checkpoint) -> None:
        try:
            await asyncio.to_thread(
                snapshot.save,
                self.config.checkpoint_path,
                self.config.checkpoint_keep,
            )
            self.stats.checkpoints_written += 1
        except (ReproError, OSError):  # pragma: no cover - disk trouble
            pass

    def _deliver(self, engine_id: str, match: Match) -> Coroutine | None:
        """Queue one match, encoded once, for its subscriber.

        Returns the put to await only when a ``block`` queue is full.
        """
        assert self.pump is not None
        documents_seen = self.pump.serving.documents_seen
        seq: int | None = None
        if self.durable is not None:
            seq, deliver = self.durable.stamp(engine_id, documents_seen, match)
            if seq is not None:
                self.stats.matches_logged += 1
            if not deliver:
                return None
        route = self._routes.get(engine_id)
        if route is None:
            return None
        conn, client_id = route
        line = (client_id, encode_match(client_id, match, documents_seen - 1, seq))
        if conn.resuming:
            # WAL-tail replay in progress: live matches park here and
            # follow the replayed tail in order.
            conn.resume_buffer.append(line)
            return None
        queue = conn.queue
        assert queue is not None
        try:
            queue.put_nowait(line)
            return None
        except asyncio.QueueFull:
            pass
        if conn.overflow == OVERFLOW_BLOCK:
            return queue.put(line)
        if conn.overflow == OVERFLOW_SHED_OLDEST:
            while queue.full():
                dropped = queue.get_nowait()
                if dropped is _CLOSE or (
                    isinstance(dropped, dict) and dropped.get("type") == "bye"
                ):
                    # never shed the connection's own shutdown frames
                    queue.put_nowait(dropped)
                    return None
                conn.shed_frames += 1
                self.stats.frames_shed += 1
                if isinstance(dropped, tuple):  # a match: mark its query
                    victim = conn.queries.get(dropped[0])
                    if victim is not None:
                        self.pump.serving.outcome(victim).degraded = True
            queue.put_nowait(line)
            return None
        # OVERFLOW_DISCONNECT
        self._force_close_subscriber(
            conn,
            SVC_OVERFLOW,
            f"output queue of {queue.maxsize} frame(s) overflowed",
        )
        return None

    def _notify_detachments(self) -> None:
        """Surface quarantine/deadline/shed outcomes as wire notices."""
        assert self.pump is not None
        serving = self.pump.serving
        for engine_id, route in list(self._routes.items()):
            outcome = serving.outcomes.get(engine_id)
            if outcome is None:
                continue
            conn, client_id = route
            if outcome.status in ("quarantined", "deadline", "shed"):
                code = outcome.code or outcome.status.upper()
                if conn.notified.get(engine_id) != code:
                    conn.notified[engine_id] = code
                    self._enqueue_control(
                        conn,
                        notice_frame(code, outcome.reason or "", client_id),
                    )
            elif outcome.status == "ok" and engine_id in conn.notified:
                conn.notified.pop(engine_id, None)
                self._enqueue_control(
                    conn,
                    notice_frame("READMITTED", "query rejoined the pass", client_id),
                )

    def _enqueue_control(self, conn: _Connection, frame: dict) -> None:
        """Best-effort control frame: dropped (not blocking) when full."""
        if conn.closed or conn.queue is None:
            return
        try:
            conn.queue.put_nowait(frame)
        except asyncio.QueueFull:
            self.stats.frames_shed += 1

    # ------------------------------------------------------------------
    # connection handling

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(self._next_id, reader, writer, self.clock)
        self._next_id += 1
        self._connections.add(conn)
        self.stats.connections += 1
        try:
            if self._draining:
                conn.send_now(bye_frame(SVC_DRAINING, "server is draining"))
                return
            await self._handshake_and_run(conn)
        except ProtocolError as exc:
            conn.send_now(error_frame(exc.code, str(exc)))
            conn.send_now(bye_frame(exc.code, "protocol violation; closing"))
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            ValueError,  # StreamReader raises it for over-limit lines
        ):
            pass
        finally:
            self._cleanup_connection(conn)

    async def _handshake_and_run(self, conn: _Connection) -> None:
        line = await conn.reader.readline()
        if not line:
            return
        frame = decode_frame(line, self.config.max_frame_bytes)
        if frame.get("type") != "hello":
            raise ProtocolError(
                f"expected 'hello', got {frame.get('type')!r}"
            )
        role = frame.get("role")
        if role not in ROLES:
            raise ProtocolError(f"unknown role {role!r} (expected one of {ROLES})")
        conn.role = role
        conn.tenant = str(frame.get("tenant", "default"))
        conn.last_activity = self.clock.monotonic()
        if role == ROLE_PRODUCER:
            self.stats.producers += 1
            if self.durable is not None:
                # Replay contract: the producer re-sends everything after
                # the service's accepted position — during a resume that
                # is the checkpoint cut, so the rebuild replay regrows
                # the engine to the committed count deterministically.
                conn.send_now(
                    welcome_frame(
                        role,
                        documents=self._committed_documents,
                        replay_from=self._accepted_documents + 1,
                    )
                )
            else:
                conn.send_now(welcome_frame(role))
            await self._producer_loop(conn)
            return
        self.stats.subscribers += 1
        overflow = frame.get("overflow", self.config.overflow)
        if overflow not in OVERFLOW_POLICIES:
            raise ProtocolError(f"unknown overflow policy {overflow!r}")
        conn.overflow = overflow
        queue_size = integer_field(
            frame.get("queue_size", self.config.subscriber_queue), "queue_size"
        )
        if queue_size < 1:
            raise ProtocolError("queue_size must be at least 1")
        token = frame.get("session")
        session: Session | None = None
        if token is not None or frame.get("durable", False):
            if self.durable is None:
                raise ProtocolError(
                    "durable sessions need a write-ahead log "
                    "(server started without --wal-file)"
                )
            # A refused token raises before the writer task exists, so
            # the error and bye go straight onto the transport — a
            # client-chosen queue size (even 1) cannot shed the refusal.
            if token is not None:
                session = self.durable.find(str(token))
            else:
                session = self.durable.open_session(
                    conn.tenant, self._committed_documents
                )
                self.stats.sessions_opened += 1
        conn.queue = asyncio.Queue(maxsize=queue_size)
        conn.writer_task = asyncio.create_task(self._writer_loop(conn))
        if session is not None and self.durable is not None:
            # Routes go in at once so live matches flow (through the
            # floor filter); a ``resume`` frame then replays the tail.
            conn.session = session
            conn.tenant = session.tenant
            for qid, engine_id in self.durable.attach(session, conn).items():
                conn.queries[qid] = engine_id
                self._routes[engine_id] = (conn, qid)
            self._enqueue_control(conn, welcome_frame(role, session=session.token))
        else:
            self._enqueue_control(conn, welcome_frame(role))
        await self._subscriber_loop(conn)

    # -------------------------------- producers

    async def _producer_loop(self, conn: _Connection) -> None:
        assert self._input is not None
        while True:
            if conn.drain_requested:
                # Drain contract: everything the producer already sent
                # (buffered on the socket or in the reader) still counts
                # as committed — consume until a read would block, then
                # say goodbye.  Cancelling readline is safe: partial
                # lines stay in the StreamReader buffer.
                try:
                    line = await asyncio.wait_for(
                        conn.reader.readline(), self.config.tick
                    )
                except TimeoutError:
                    if conn.assembler.in_document:
                        continue  # mid-document: the grace window governs
                    conn.send_now(bye_frame(SVC_DRAINING, "drained; thank you"))
                    return
            else:
                line = await conn.reader.readline()
            if not line:
                return
            conn.last_activity = self.clock.monotonic()
            frame = decode_frame(line, self.config.max_frame_bytes)
            kind = frame["type"]
            if kind == "ping":
                conn.send_now(pong_frame())
                continue
            if kind != "events":
                conn.send_now(
                    error_frame(
                        SVC_PROTOCOL,
                        f"producers send 'events' frames, got {kind!r}",
                    )
                )
                continue
            await self._ingest(conn, frame)

    async def _ingest(self, conn: _Connection, frame: dict) -> None:
        """Document-atomic ingestion of one ``events`` frame: only
        complete, well-formed documents reach the engine queue, in one
        pass of the connection's assembler; each refusal is one error."""
        assert self._input is not None
        try:
            done = conn.assembler.feed(frame)
        except ProtocolError as exc:
            conn.send_now(error_frame(exc.code, str(exc)))
            return
        for item in done:
            if isinstance(item, dict):
                self.stats.documents_rejected += 1
                conn.send_now(item)
                continue
            # bounded queue: this await is the backpressure point
            await self._input.put((conn, item))
            self._accepted_documents += 1
            self.stats.documents_ingested += 1

    # -------------------------------- subscribers

    async def _subscriber_loop(self, conn: _Connection) -> None:
        while True:
            line = await conn.reader.readline()
            if not line or conn.closed:
                return
            conn.last_activity = self.clock.monotonic()
            frame = decode_frame(line, self.config.max_frame_bytes)
            kind = frame["type"]
            if kind == "ping":
                self._enqueue_control(conn, pong_frame())
            elif kind == "subscribe":
                await self._subscribe(conn, frame)
            elif kind == "unsubscribe":
                await self._unsubscribe(conn, frame)
            elif kind == "resume":
                await self._resume_session(conn, frame)
            elif kind == "ack":
                self._handle_ack(conn, frame)
            else:
                self._enqueue_control(
                    conn,
                    error_frame(
                        SVC_PROTOCOL,
                        f"subscribers send 'subscribe'/'unsubscribe', "
                        f"got {kind!r}",
                    ),
                )

    async def _resume_session(self, conn: _Connection, frame: dict) -> None:
        """Replay the retained WAL tail above the client's floors.

        Ordering contract: every replayed match precedes every live
        match on the wire.  Routes are already installed (adoption), so
        live matches produced *during* this replay divert to
        ``conn.resume_buffer`` and are flushed right after the tail,
        before the ``resumed`` frame clears the diversion.
        """
        session = conn.session
        if session is None or self.durable is None:
            self._enqueue_control(
                conn,
                error_frame(SVC_PROTOCOL, "resume needs a durable session"),
            )
            return
        acked = frame.get("acked")
        claims = {
            str(qid): integer_field(seq, "acked floor")
            for qid, seq in (acked.items() if isinstance(acked, dict) else ())
        }
        tail = self.durable.replay(session, claims, self._committed_documents)
        conn.resuming = True
        try:
            for qid, seq, document, match_obj in tail:
                replayed = encode_match(qid, match_from_obj(match_obj), document, seq)
                await conn.queue.put((qid, replayed))  # type: ignore[union-attr]
                self.stats.matches_replayed += 1
            # Drain-and-recheck: a blocking put below may let the engine
            # task append more live matches to the buffer, so loop until
            # a check finds it empty — then clear ``resuming`` with no
            # await in between, or a match delivered during the final
            # put would land in an orphaned buffer and be lost forever
            # (a cumulative ack would even prune it from the WAL).
            while conn.resume_buffer:
                await conn.queue.put(  # type: ignore[union-attr]
                    conn.resume_buffer.pop(0)
                )
            conn.resuming = False
            await conn.queue.put(  # type: ignore[union-attr]
                resumed_frame(
                    self.durable.counters(session), self._committed_documents
                )
            )
        finally:
            conn.resuming = False
        self.stats.sessions_resumed += 1

    def _handle_ack(self, conn: _Connection, frame: dict) -> None:
        """Lift a floor: the log tail at or below it can be pruned."""
        if conn.session is None or self.durable is None:
            return
        try:
            seq = int(frame.get("seq", 0))
        except (TypeError, ValueError):
            return
        self.durable.ack(conn.session, str(frame.get("query_id", "")), seq)

    async def _subscribe(self, conn: _Connection, frame: dict) -> None:
        assert self.pump is not None and conn.queue is not None
        client_id = str(frame.get("query_id", ""))
        query = frame.get("query")
        if not client_id or not isinstance(query, str):
            self._enqueue_control(
                conn,
                error_frame(
                    SVC_PROTOCOL, "subscribe needs 'query_id' and 'query'"
                ),
            )
            return
        if client_id in conn.queries:
            self._enqueue_control(
                conn,
                error_frame(
                    SVC_PROTOCOL, f"query_id {client_id!r} already subscribed"
                ),
            )
            return
        if self._draining:
            await conn.queue.put(
                rejected_frame(client_id, SVC_DRAINING, "server is draining")
            )
            return
        budget = self.config.max_subscriptions_per_tenant
        if budget is not None and self._tenant_counts[conn.tenant] >= budget:
            await conn.queue.put(
                rejected_frame(
                    client_id,
                    SVC_TENANT_BUDGET,
                    f"tenant {conn.tenant!r} at its budget of {budget} "
                    f"subscription(s)",
                )
            )
            return
        session = conn.session
        if session is not None:
            # Session-scoped id: stable across reconnects, so the WAL
            # tail and sequence counter survive the connection.
            engine_id = session.engine_id(client_id)
        else:
            engine_id = f"c{conn.id}.{client_id}"
        try:
            self.engine.add_query(engine_id, query)
        except ReproError as exc:
            await conn.queue.put(
                rejected_frame(client_id, SVC_PROTOCOL, f"query rejected: {exc}")
            )
            return
        decision = self.engine.admissions.get(engine_id)
        if not self.pump.attach(engine_id):
            assert decision is not None  # attach only fails on rejection
            self.engine.remove_query(engine_id)
            await conn.queue.put(
                rejected_frame(client_id, decision.code, decision.reason)
            )
            return
        conn.queries[client_id] = engine_id
        self._routes[engine_id] = (conn, client_id)
        self._tenant_counts[conn.tenant] += 1
        if session is not None and self.durable is not None:
            # attach() joins at the next <$>, i.e. document
            # ``documents_seen + 1`` whether called at a boundary or
            # mid-document — record the position so a rebuild replay
            # re-attaches at exactly the same join point.
            self.durable.subscribe(
                session, client_id, query, self.pump.serving.documents_seen
            )
        status = "degraded" if decision is not None and decision.degraded else "admit"
        await conn.queue.put(
            subscribed_frame(
                client_id,
                status,
                decision.code if decision is not None else "ADMIT000",
                decision.reason if decision is not None else None,
            )
        )

    async def _unsubscribe(self, conn: _Connection, frame: dict) -> None:
        assert self.pump is not None and conn.queue is not None
        client_id = str(frame.get("query_id", ""))
        engine_id = conn.queries.pop(client_id, None)
        if engine_id is None:
            self._enqueue_control(
                conn,
                error_frame(SVC_PROTOCOL, f"not subscribed: {client_id!r}"),
            )
            return
        document = self.pump.serving.documents_seen - 1
        for seq, match in self._retire_query(engine_id, conn.tenant, conn):
            await conn.queue.put(
                (client_id, encode_match(client_id, match, document, seq))
            )
        await conn.queue.put(
            notice_frame("CLOSED", "unsubscribed", client_id)
        )

    def _retire_query(
        self,
        engine_id: str,
        tenant: str | None,
        conn: _Connection | None = None,
        code: str | None = None,
        reason: str | None = None,
        degraded: bool = False,
    ) -> list[tuple[int | None, Match]]:
        """The one way a subscription ends, whoever ends it: its route
        and notice memory (on ``conn``) go, the pump closes it, the
        engine unregisters it — folding its outcome into the report's
        totals — the tenant gets the budget slot back (``None``: a
        crash orphan, never counted), and the session store ends its
        durable state.  Returns its undelivered matches, with their
        sequence numbers."""
        assert self.pump is not None
        self._routes.pop(engine_id, None)
        if conn is not None:
            conn.notified.pop(engine_id, None)
        flushed = self.pump.close(
            engine_id, code=code, reason=reason, degraded=degraded
        )
        try:
            self.engine.remove_query(engine_id)
        except ReproError:  # pragma: no cover - already unregistered
            pass
        if tenant is not None:
            self._tenant_counts[tenant] -= 1
            if self._tenant_counts[tenant] <= 0:
                del self._tenant_counts[tenant]
        if self.durable is None:
            return [(None, match) for match in flushed]
        return self.durable.end(
            engine_id, flushed, self.pump.serving.documents_seen
        )

    def _detach_session_conn(self, conn: _Connection) -> None:
        """Unbind a durable session from a dying connection.

        The session — queries, tenant budget, sequence counters, WAL
        tail — stays alive: matches keep accruing durably and a later
        ``resume`` with the token replays them.  Nothing is degraded;
        by the exactly-once contract the client loses no matches.
        """
        assert conn.session is not None and self.durable is not None
        for engine_id in conn.queries.values():
            route = self._routes.get(engine_id)
            if route is not None and route[0] is conn:
                self._routes.pop(engine_id, None)
        conn.queries.clear()
        conn.notified.clear()
        conn.resume_buffer = []
        self.durable.detach(conn.session, self._committed_documents)
        conn.session = None

    def _force_close_subscriber(
        self, conn: _Connection, code: str, reason: str
    ) -> None:
        """Cut a slow/overflowed subscriber; its queries close degraded.

        A durable session's queries are *not* closed — the connection is
        the faulty part, the session survives for a resume.
        """
        if conn.closed:
            return
        conn.closed = True
        self.stats.forced_disconnects += 1
        assert self.pump is not None
        if conn.session is not None:
            self._detach_session_conn(conn)
        else:
            for engine_id in conn.queries.values():
                self._retire_query(
                    engine_id, conn.tenant, conn, code, reason, degraded=True
                )
            conn.queries.clear()
        # the bye goes straight onto the transport (the queue may hold a
        # single slot, and the writer may be wedged in a slow drain); the
        # cleared queue always has room for the close sentinel
        if not conn.writer.is_closing():
            conn.writer.write(encode_frame(bye_frame(code, reason)))
        conn.close_queue()

    async def _writer_loop(self, conn: _Connection) -> None:
        """Single writer per subscriber: ordered, clocked, abortable.

        Each wake-up takes everything queued and writes it with one
        ``write`` and one ``drain``; at the close sentinel it writes what
        came before it and stops.  A ``SHED001`` notice leads the first
        write after frames were shed.
        """
        queue = conn.queue
        assert queue is not None
        try:
            while True:
                items = [await queue.get()]
                while not queue.empty():
                    items.append(queue.get_nowait())
                lines = []
                for item in items:
                    if item is _CLOSE:
                        break
                    lines.append(
                        item[1] if isinstance(item, tuple) else encode_frame(item)
                    )
                if lines:
                    if conn.shed_frames:
                        notice = notice_frame(
                            "SHED001",
                            f"{conn.shed_frames} frame(s) shed "
                            f"(slow consumer, overflow=shed_oldest)",
                        )
                        lines.insert(0, encode_frame(notice))
                        conn.shed_frames = 0
                    conn.writing_since = self.clock.monotonic()
                    conn.writer.write(b"".join(lines))
                    await conn.writer.drain()
                    conn.writing_since = None
                if item is _CLOSE:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            conn.writing_since = None
            # Closing the transport here is what unblocks the reader
            # loop (EOF) after a force-close or drain bye — and on a
            # write error it ends the connection's fault domain cleanly.
            if not conn.writer.is_closing():
                conn.writer.close()

    # ------------------------------------------------------------------
    # housekeeping: clock-decided timeouts and heartbeats

    async def _housekeeping_loop(self) -> None:
        config = self.config
        while True:
            await asyncio.sleep(config.tick)
            now = self.clock.monotonic()
            for conn in list(self._connections):
                if conn.closed:
                    continue
                if (
                    conn.role is None
                    and now - conn.opened_at > config.handshake_timeout
                ):
                    conn.send_now(
                        bye_frame(
                            SVC_HANDSHAKE_TIMEOUT,
                            f"no hello within {config.handshake_timeout}s",
                        )
                    )
                    conn.closed = True
                    conn.writer.close()
                    continue
                if (
                    config.idle_timeout is not None
                    and now - conn.last_activity > config.idle_timeout
                    and (conn.role == ROLE_PRODUCER or not conn.queries)
                    and conn.role is not None
                ):
                    conn.send_now(
                        bye_frame(
                            SVC_IDLE_TIMEOUT,
                            f"idle for more than {config.idle_timeout}s",
                        )
                    )
                    conn.closed = True
                    conn.writer.close()
                    continue
                if (
                    conn.writing_since is not None
                    and now - conn.writing_since > config.write_timeout
                ):
                    self._force_close_subscriber(
                        conn,
                        SVC_WRITE_TIMEOUT,
                        f"write blocked for more than {config.write_timeout}s",
                    )
                    conn.abort()
            if (
                config.heartbeat_interval is not None
                and now - self._last_heartbeat >= config.heartbeat_interval
            ):
                self._last_heartbeat = now
                documents = (
                    self.pump.serving.documents_seen
                    if self.pump is not None
                    else 0
                )
                for conn in self._connections:
                    if conn.role == ROLE_SUBSCRIBER and not conn.closed:
                        self._enqueue_control(conn, heartbeat_frame(documents))
                        self.stats.heartbeats_sent += 1

    # ------------------------------------------------------------------
    # drain

    async def _drain(self) -> None:
        assert (
            self._server is not None
            and self._input is not None
            and self._engine_done is not None
            and self._done is not None
        )
        config = self.config
        self._server.close()
        await self._server.wait_closed()
        # Producers between documents are released immediately; producers
        # mid-document get the grace window to finish their document.
        producers = [
            conn
            for conn in self._connections
            if conn.role == ROLE_PRODUCER and not conn.closed
        ]
        for conn in producers:
            conn.drain_requested = True
        deadline = self.clock.monotonic() + config.drain_grace
        while any(conn in self._connections for conn in producers):
            if self.clock.monotonic() > deadline:
                for conn in producers:
                    if conn in self._connections:
                        conn.abort()
                break
            await asyncio.sleep(config.tick)
        await self._input.put(_DRAIN)
        await self._engine_done.wait()
        if self._checkpoint_task is not None:
            # let an in-flight background save finish before the final
            # one (two concurrent rotations on one path would race)
            await asyncio.wait([self._checkpoint_task])
        if self.durable is not None:
            self.durable.wal.sync()  # checkpoint never leads the log
        # Document-boundary checkpoint: the pump only ever stops between
        # documents here (only whole documents enter the queue), so the
        # cut is exact and resumable.
        if self.pump is not None and self.pump.at_document_boundary:
            try:
                self.checkpoint = self.engine.checkpoint()
                if config.checkpoint_path is not None:
                    self.checkpoint.save(
                        config.checkpoint_path, keep=config.checkpoint_keep
                    )
                    self.stats.checkpoints_written += 1
            except ReproError:
                self.checkpoint = None
        # Flush and close every subscriber: committed matches first,
        # then bye — a drained subscriber misses nothing it was owed.
        flushers = []
        for conn in list(self._connections):
            if conn.role == ROLE_SUBSCRIBER and not conn.closed:
                goodbye = [
                    bye_frame(SVC_DRAINING, "server drained cleanly"),
                    _CLOSE,
                ]
                for frame in goodbye:
                    try:
                        await asyncio.wait_for(
                            conn.queue.put(frame), config.drain_grace
                        )
                    except TimeoutError:
                        # writer wedged on a dead client: cut it
                        conn.abort()
                        break
                if conn.writer_task is not None:
                    flushers.append(conn.writer_task)
        if flushers:
            await asyncio.wait(flushers, timeout=config.drain_grace)
        if self._housekeeper is not None:
            self._housekeeper.cancel()
        for conn in list(self._connections):
            if not conn.closed:
                conn.closed = True
                conn.writer.close()
        if self.durable is not None:
            self.durable.wal.close()
        self._done.set()

    # ------------------------------------------------------------------

    def _cleanup_connection(self, conn: _Connection) -> None:
        if conn.role == ROLE_PRODUCER and conn.assembler.in_document:
            # died mid-document: the document never reached the engine
            self.stats.partial_documents += 1
        if conn.role == ROLE_SUBSCRIBER and conn.session is not None:
            # a durable session outlives its connection: queries keep
            # running, matches keep accruing in the WAL
            self._detach_session_conn(conn)
        elif conn.role == ROLE_SUBSCRIBER and conn.queries:
            # a departed subscriber is a clean close, not a failure
            for engine_id in conn.queries.values():
                self._retire_query(
                    engine_id, conn.tenant, conn, reason="subscriber disconnected"
                )
            conn.queries.clear()
        # its routes are gone, so later matches already skip the queue
        conn.close_queue()
        if conn.writer_task is not None and not conn.writer_task.done() and conn.closed:
            # a wedged writer (dead peer) must not outlive the conn
            conn.writer_task.cancel()
        conn.closed = True
        self._connections.discard(conn)
        if not conn.writer.is_closing():
            conn.writer.close()
