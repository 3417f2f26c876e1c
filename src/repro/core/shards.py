"""Crash-isolated sharded serving: per-process fault domains.

The bulkhead layer (:mod:`repro.core.serving`) isolates *query-level*
failures — a raising query is detached while its neighbours keep
streaming.  It cannot isolate *process-level* failures: a segfault-class
event (OOM kill, interpreter abort, pathological native code) takes
every subscription in the process down at once.  This module promotes
the same fault-domain discipline one level up:

* :func:`partition_queries` splits a subscription set across ``N``
  shards by a stable hash of the query id;
* each shard runs a :class:`~repro.core.multiquery.MultiQueryEngine`
  in its **own worker process**, fed over a plain pipe whose OS buffer is
  the backpressure window, one pickled **chunk** per message: the events
  up to and including the next ``</$>`` (at most
  :attr:`ShardConfig.batch_events` of them inside a longer document), cut
  and pickled once in the coordinator as the workers take them and the
  same bytes sent to every shard.  The worker pulls each chunk through
  the pump's one loop, as :meth:`~repro.core.multiquery.MultiQueryEngine.serve`
  does, and sends at most one heartbeat per chunk and one commit per
  document back over a per-shard result pipe;
* the :class:`ShardCoordinator` detects worker death (exit) and worker
  stall (missed heartbeats, via :class:`HeartbeatMonitor` on an
  injectable :class:`~repro.core.clock.Clock`), kills and restarts the
  shard from its last committed :class:`~repro.core.checkpoint.Checkpoint`
  under the shared :class:`~repro.core.clock.ExponentialBackoff`
  discipline — surviving shards keep streaming the whole time;
* after :attr:`ShardConfig.max_trips` crash-restarts from the same
  position, the coordinator runs solo **isolation probes** to convict
  the poison-pill queries, latches their circuit breakers *inside the
  shard's checkpoint* (:func:`quarantine_in_checkpoint`), and restarts
  the shard without them — so quarantine survives checkpoint/resume
  exactly as PR 4's in-process latch does.

Exactly-once match delivery across crashes uses a **checkpoint
barrier**: the worker holds each document's matches and sends them in
one ``("commit", checkpoint, matches)`` message after its ``</$>``, so a
match reaches the coordinator only with the checkpoint covering it
(matches after the last ``</$>`` ride in the final ``done``).  A crash
loses only what was never committed; the restart resumes at the chunk
that starts at the checkpoint's position and regenerates exactly that
tail — so the merged output for non-quarantined queries is
bit-identical to a single-process pass.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import pickle
import select
import zlib
from dataclasses import asdict, dataclass
from itertools import chain
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

from ..errors import CheckpointError, EngineError
from ..limits import ResourceLimits
from ..rpeq.ast import Rpeq
from ..rpeq.unparse import unparse
from ..xmlstream.events import EndDocument, Event
from ..xmlstream.offsets import StreamCursor
from ..xmlstream.parser import ParserLimits, iter_events
from .checkpoint import Checkpoint
from .clock import SYSTEM_CLOCK, Clock, ExponentialBackoff, as_clock
from .engine import RobustnessCounters
from .multiquery import MultiQueryEngine, ServePump
from .output_tx import Match
from .serving import AdmissionPolicy, QueryOutcome, ServingPolicy, ServingReport

if TYPE_CHECKING:  # the pipes' module loads with the first pipe
    from multiprocessing.connection import Connection

#: Per-shard outcome codes carried by the merged report's shard log.
SHARD_CRASH = "SHARD_CRASH"  #: worker process died (non-zero exit / signal)
SHARD_STALL = "SHARD_STALL"  #: worker missed heartbeats and was killed
SHARD_RESTORED = "SHARD_RESTORED"  #: worker restarted from its checkpoint
SHARD_POISON = "SHARD_POISON"  #: probes convicted queries as poison pills
SHARD_LOST = "SHARD_LOST"  #: shard quarantined whole (no culprit isolable)

#: Outcome code stamped on queries a lost shard takes down with it.
QUERY_SHARD_LOST = "SHARD_LOST"


@dataclass(frozen=True)
class ShardConfig:
    """Knobs of the sharded serving layer.

    Attributes:
        shards: number of worker processes.
        heartbeat_interval: seconds between worker heartbeats.
        heartbeat_timeout: coordinator-side silence budget before a
            worker is declared stalled and killed (a worker beats between
            chunks, so one chunk must take less); ``None`` disables
            stall detection (death detection still works).
        max_trips: crash-restarts tolerated *from the same checkpoint
            position* before the coordinator stops retrying and runs
            poison-isolation probes.
        batch_events: most events per input chunk: a chunk ends at each
            ``</$>``, and a document longer than this is split into
            chunks of this many events.
        backoff_initial/backoff_factor/backoff_max/jitter/seed: restart
            backoff schedule, shared with
            :class:`~repro.core.clock.ExponentialBackoff`.
        probe_timeout: wall-clock budget per isolation probe; a probe
            that neither exits nor finishes inside it is convicted.
        checkpoint_dir: when set, each worker persists its rolling
            checkpoint as ``shard-<index>.json`` in this directory
            (exercising the concurrent-writer-safe atomic save).
        start_method: multiprocessing start method; ``None`` picks
            ``fork`` where available (hooks need no pickling round-trip)
            and the platform default elsewhere.
    """

    shards: int = 2
    heartbeat_interval: float = 0.05
    heartbeat_timeout: float | None = 5.0
    max_trips: int = 3
    batch_events: int = 256
    backoff_initial: float = 0.02
    backoff_factor: float = 2.0
    backoff_max: float = 1.0
    jitter: float = 0.1
    seed: int = 0
    probe_timeout: float = 30.0
    checkpoint_dir: str | None = None
    start_method: str | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be positive, got {self.shards}")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.heartbeat_timeout is not None and (
            self.heartbeat_timeout <= self.heartbeat_interval
        ):
            raise ValueError(
                "heartbeat_timeout must exceed heartbeat_interval"
            )
        if self.max_trips < 1:
            raise ValueError("max_trips must be positive")
        if self.batch_events < 1:
            raise ValueError("batch_events must be positive")


@dataclass(frozen=True)
class ShardEvent:
    """One entry of the coordinator's shard fault log."""

    shard: int
    incarnation: int
    code: str
    detail: str


# ----------------------------------------------------------------------
# partitioning


def partition_queries(
    queries: Mapping[str, str | Rpeq], shards: int
) -> list[list[str]]:
    """Split a subscription set into ``shards`` disjoint id lists.

    Each id goes to shard ``crc32(id) % shards`` — stable across
    processes and Python invocations (unlike the interpreter's salted
    ``hash``), so a restarted coordinator rebuilds the same layout.
    """
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    layout: list[list[str]] = [[] for _ in range(shards)]
    for query_id in queries:
        layout[zlib.crc32(query_id.encode("utf-8")) % shards].append(query_id)
    return layout


# ----------------------------------------------------------------------
# heartbeats


class HeartbeatMonitor:
    """Coordinator-side stall detector over an injectable clock.

    Workers beat by sending messages; the coordinator calls
    :meth:`beat` whenever *any* message arrives from a shard (every
    message proves liveness) and :meth:`stalled` before trusting a
    silent worker.  Tests drive it with a
    :class:`~repro.core.clock.FakeClock`.
    """

    def __init__(self, timeout: float | None, clock: Clock | None = None) -> None:
        self.timeout = timeout
        self.clock = as_clock(clock)
        self._last: dict[int, float] = {}

    def beat(self, shard: int) -> None:
        self._last[shard] = self.clock.monotonic()

    def disarm(self, shard: int) -> None:
        self._last.pop(shard, None)

    def stalled(self, shard: int) -> bool:
        return self.timeout is not None and self.silence(shard) > self.timeout

    def silence(self, shard: int) -> float:
        """Seconds since the shard's last sign of life (0 if unknown)."""
        last = self._last.get(shard)
        if last is None:
            return 0.0
        return self.clock.monotonic() - last


# ----------------------------------------------------------------------
# checkpoint surgery (poison latch across the process boundary)


def quarantine_in_checkpoint(
    checkpoint: Checkpoint,
    query_ids: Iterable[str],
    max_trips: int,
) -> Checkpoint:
    """Return a copy of a serving checkpoint with queries latched out.

    The convicted queries' circuit breakers are rewritten to the
    exhausted state (``trips = max_trips``, open), their runner
    snapshots dropped, and their outcomes stamped ``quarantined`` /
    ``POISON`` — so a worker resuming from the edited checkpoint treats
    them exactly like queries that burned through ``max_trips`` inside
    the process: never revived, never re-admitted, latch preserved by
    every further checkpoint/resume cycle.  The queries stay in the
    ``"subscriptions"`` list, at their rank.
    """
    payload = copy.deepcopy(checkpoint.require("multiquery"))
    serving = payload.get("serving")
    if serving is None:
        raise CheckpointError(
            "cannot quarantine queries in a non-serving checkpoint "
            "(no breaker state to latch)"
        )
    newly_latched = 0
    subscribed = {query_id for query_id, _text, _lane in payload["subscriptions"]}
    for query_id in query_ids:
        if query_id not in subscribed:
            raise CheckpointError(
                f"cannot quarantine {query_id!r}: not in the checkpoint's "
                f"subscription set"
            )
        payload["runners"].pop(query_id, None)
        previous = serving["breakers"].get(query_id, {})
        trips = max(int(previous.get("trips", 0)), max_trips)
        serving["breakers"][query_id] = {
            "state": "open",
            "trips": trips,
            "cooldown": 1,
            "probe_successes": 0,
        }
        outcome = serving["outcomes"].get(query_id)
        if outcome is None:
            outcome = QueryOutcome(query_id).to_obj()
            serving["outcomes"][query_id] = outcome
        if outcome["status"] != "quarantined":
            newly_latched += 1
        outcome["status"] = "quarantined"
        outcome["code"] = "POISON"
        outcome["reason"] = (
            "convicted by shard isolation probe (crashed its worker "
            "process)"
        )
        outcome["degraded"] = True
        outcome["trips"] = trips
    serving["report"]["quarantines"] += newly_latched
    return Checkpoint(
        kind=checkpoint.kind, payload=payload, version=checkpoint.version
    )


# ----------------------------------------------------------------------
# worker side

#: Optional chaos/fault hook run in the *worker* before each event:
#: ``hook(shard, incarnation, event_index, live_query_ids)``.  It may
#: raise, sleep, or kill its own process — the coordinator's job is to
#: survive whatever it does.  Probes call it with ``incarnation = -1``.
FaultHook = Callable[[int, int, int, frozenset], None]


@dataclass(frozen=True)
class _WorkerSpec:
    """Everything a worker process needs, in picklable form."""

    shard: int
    incarnation: int
    queries: dict[str, str]
    collect_events: bool
    limits: ResourceLimits | None
    admission: AdmissionPolicy | None
    policy: ServingPolicy
    heartbeat_interval: float
    checkpoint_path: str | None
    checkpoint: Checkpoint | None
    quarantined: tuple[str, ...]
    hook: FaultHook | None

    def engine(self) -> MultiQueryEngine:
        return MultiQueryEngine(
            self.queries,
            collect_events=self.collect_events,
            limits=self.limits,
            preflight=False,
            admission=self.admission,
        )


class _Uplink:
    """The worker's result pipe: liveness messages at most one per
    interval, and the matches decided since the last commit."""

    def __init__(self, out: Connection, clock: Clock, interval: float) -> None:
        self.send = out.send
        self._clock = clock
        self._interval = interval
        self._last = clock.monotonic()
        #: ``(query_id, match)`` pairs not yet covered by a checkpoint
        self.held: list[tuple[str, Match]] = []

    def beat(self, idle: bool = False) -> None:
        """Send a heartbeat when one is due, and whenever the worker idles."""
        now = self._clock.monotonic()
        if idle or now - self._last >= self._interval:
            self.send(("hb",))
            self._last = now


def _hooked(
    hook: FaultHook, spec: _WorkerSpec, pump: ServePump, events: Iterable[Event]
) -> Iterator[Event]:
    """``events``, with the fault hook run before each is handed over."""
    index = pump.cursor.events_read
    for event in events:
        hook(spec.shard, spec.incarnation, index, frozenset(pump.live_queries))
        index += 1
        yield event


def _drive(
    spec: _WorkerSpec,
    engine: MultiQueryEngine,
    pump: ServePump,
    events: Iterable[Event],
    uplink: _Uplink | None = None,
) -> None:
    """Pull ``events`` (a chunk) through ``pump``'s one loop, as a shard
    worker does: each call of the loop returns at an event that decided
    something or ends a document.  With an ``uplink`` the pairs are held
    and each ``</$>`` sends them with the document-boundary checkpoint in
    one message; after the chunk a heartbeat goes out when one is due
    (one clock read).  The fault hook, when set, runs before each event.
    A probe has no uplink: it reports by surviving."""
    if spec.hook is not None:
        events = _hooked(spec.hook, spec, pump, events)
    events = iter(events)
    cursor = pump.cursor
    # a stream-deadline expiry ends the pull early: the pass is over
    while not pump.finished and (out := pump._advance(events)) is not None:
        if uplink is not None:
            uplink.held += out
            if not cursor.in_document and not pump.finished:
                checkpoint = engine.checkpoint()
                if spec.checkpoint_path is not None:
                    checkpoint.save(spec.checkpoint_path)
                # the object, not to_dict(): the checksum guards bytes at
                # rest, and these never leave a pipe
                uplink.send(("commit", checkpoint, uplink.held))
                uplink.held = []
    if uplink is not None:
        uplink.beat()


def _worker_main(spec: _WorkerSpec, chunks: Connection, results: Connection) -> None:
    """Entry point of one shard worker process: it reads pickled chunks
    until an empty message, the end of the stream."""
    try:
        uplink = _Uplink(results, SYSTEM_CLOCK, spec.heartbeat_interval)
        engine = spec.engine()
        if spec.checkpoint is not None:
            # the coordinator feeds from the cut on
            pump = engine.resume_pump(spec.checkpoint, spec.policy)
        else:
            pump = engine.start_pump(
                spec.policy, cursor=StreamCursor(), quarantined=spec.quarantined
            )
        waiting = select.poll()
        waiting.register(chunks.fileno(), select.POLLIN)
        while not pump.finished:
            if not waiting.poll(spec.heartbeat_interval * 1000):
                uplink.beat(idle=True)
                continue
            message = chunks.recv_bytes()
            if not message:  # the end of the stream
                break
            _drive(spec, engine, pump, pickle.loads(message), uplink)
        uplink.send(
            ("done", pump.serving.to_obj(), asdict(engine.robustness), uplink.held)
        )
    except BaseException as exc:
        try:
            results.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        raise


def _probe_main(spec: _WorkerSpec, chunks: list[bytes]) -> None:
    """Solo isolation probe: one query, the whole stream, no IPC."""
    engine = spec.engine()
    events = chain.from_iterable(map(pickle.loads, chunks))
    _drive(spec, engine, engine.start_pump(spec.policy), events)


# ----------------------------------------------------------------------
# coordinator side


@dataclass
class ShardedResult:
    """Merged outcome of one sharded serving pass.

    Attributes:
        matches: committed matches per query, in document order — for
            non-quarantined queries, bit-identical to a single-process
            :meth:`~repro.core.multiquery.MultiQueryEngine.serve` pass.
        report: the merged :class:`~repro.core.serving.ServingReport`
            (per-query outcomes union; counters summed across shards).
        robustness: summed per-worker + coordinator recovery counters.
        shard_queries: the partition layout that ran.
        shard_status: per-shard terminal status (``"ok"`` or
            ``"quarantined"``).
        shard_log: every crash / stall / restore / poison event, in
            order of detection.
        checkpoints: last committed checkpoint per shard (if any).
        quarantined: query ids convicted as poison pills or lost with
            their shard.
        events_total: events in the materialized stream.
    """

    matches: dict[str, list[Match]]
    report: ServingReport
    robustness: RobustnessCounters
    shard_queries: list[list[str]]
    shard_status: list[str]
    shard_log: list[ShardEvent]
    checkpoints: dict[int, Checkpoint]
    quarantined: set[str]
    events_total: int

    @property
    def restarts(self) -> int:
        return sum(1 for entry in self.shard_log if entry.code == SHARD_RESTORED)

    @property
    def healthy(self) -> bool:
        return not self.quarantined and all(
            status == "ok" for status in self.shard_status
        )

    def summary(self) -> str:
        """One log-friendly line, mirroring ``ServingReport.summary``."""
        crashes = sum(
            1 for e in self.shard_log if e.code in (SHARD_CRASH, SHARD_STALL)
        )
        return (
            f"{len(self.shard_queries)} shard(s), "
            f"{sum(len(ids) for ids in self.shard_queries)} quer(y/ies): "
            f"{crashes} worker failure(s), {self.restarts} restart(s), "
            f"{len(self.quarantined)} poison quarantine(s); "
            + self.report.summary()
        )


class _Chunks:
    """The stream as the shards receive it, cut as the workers take it:
    the events through each ``</$>``, at most ``batch_events`` to a chunk,
    each pickled once — the same bytes go to every shard, restart and probe."""

    def __init__(self, events: Iterable[Event], batch_events: int) -> None:
        #: the source not yet cut (``None`` once it is exhausted)
        self._source: Iterator[Event] | None = iter(events)
        self._batch = batch_events
        self.data: list[bytes] = []
        #: stream position of each chunk's first event -> chunk index
        self._starts: dict[int, int] = {}
        self.events = 0

    def get(self, index: int) -> bytes | None:
        """Chunk ``index``, cut from the source if need be; ``None`` past
        the stream's end."""
        while index >= len(self.data) and self._source is not None:
            chunk: list[Event] = []
            for event in self._source:
                chunk.append(event)
                if event.__class__ is EndDocument or len(chunk) == self._batch:
                    break
            else:
                self._source = None
            if chunk:
                self._starts[self.events] = len(self.data)
                self.data.append(pickle.dumps(chunk, pickle.HIGHEST_PROTOCOL))
                self.events += len(chunk)
        return self.data[index] if index < len(self.data) else None

    def everything(self) -> list[bytes]:
        """Every chunk, the rest of the source cut now."""
        while self.get(len(self.data)) is not None:
            pass
        return self.data

    def starting_at(self, position: int) -> int:
        """The chunk a restart from a checkpoint at ``position`` resumes at
        (the next to cut where the cut ends); commits happen only at
        ``</$>``, which always ends a chunk."""
        index = len(self.data) if position == self.events else self._starts.get(position)
        if index is None:
            raise CheckpointError(
                f"no chunk starts at stream position {position}: a shard "
                f"checkpoint must be cut at a document boundary"
            )
        return index


class _ShardState:
    """Coordinator-side bookkeeping for one shard, for one pass."""

    def __init__(self, index: int, query_ids: list[str], config: ShardConfig) -> None:
        self.index = index
        self.query_ids = query_ids
        self.backoff = ExponentialBackoff(
            initial=config.backoff_initial,
            factor=config.backoff_factor,
            maximum=config.backoff_max,
            jitter=config.jitter,
            seed=config.seed + index,
        )
        self.incarnation = -1
        self.process = None
        #: the coordinator's ends of the worker's input and result pipes
        self.chunks: Connection | None = None
        self.results: Connection | None = None
        #: the next chunk to send (``None`` once the end is sent); unsent bytes
        self.next_chunk: int | None = 0
        self.unsent = memoryview(b"")
        self.committed: Checkpoint | None = None
        self.finished = not query_ids
        self.status = "ok"
        self.serving_obj: dict | None = None
        self.robustness_obj: dict | None = None
        self.quarantined: set[str] = set()
        #: consecutive crash count per restart position
        self.crashes: dict[int, int] = {}
        self.last_error: str | None = None

    @property
    def committed_pos(self) -> int:
        return self.committed.position if self.committed is not None else 0

    def live_queries(self) -> list[str]:
        return [qid for qid in self.query_ids if qid not in self.quarantined]


class ShardCoordinator:
    """Partition, fan out, supervise, merge.

    Args:
        queries: the full subscription set (mapping or iterable, same
            forms as :class:`~repro.core.multiquery.MultiQueryEngine`).
        config: shard topology and restart policy.
        policy: per-worker :class:`~repro.core.serving.ServingPolicy`;
            must have a finite ``breaker.max_trips`` (the poison latch
            is expressed as an exhausted breaker).
        collect_events / limits / admission / parser_limits: forwarded
            to the worker engines (admission is classified per worker;
            pre-flight runs once, here).
        clock: coordinator-side time source (heartbeat monitor, restart
            backoff).  Defaults to the system clock; unit tests drive
            :class:`HeartbeatMonitor` directly with a fake.
        fault_hook: optional chaos hook run in every worker before each
            event (see :data:`FaultHook`) — the lever the chaos soaks
            use to kill, stall, or crash workers deterministically.
    """

    def __init__(
        self,
        queries: Mapping[str, str | Rpeq] | Iterable[str],
        config: ShardConfig | None = None,
        policy: ServingPolicy | None = None,
        collect_events: bool = False,
        limits: ResourceLimits | None = None,
        admission: AdmissionPolicy | None = None,
        parser_limits: ParserLimits | None = None,
        preflight: bool = True,
        clock: Clock | None = None,
        fault_hook: FaultHook | None = None,
    ) -> None:
        self.config = config if config is not None else ShardConfig()
        self.policy = policy if policy is not None else ServingPolicy()
        if self.policy.breaker.max_trips is None:
            raise EngineError(
                "sharded serving requires a finite breaker max_trips: the "
                "poison-pill latch is expressed as an exhausted breaker"
            )
        # Pre-flight once in the coordinator (workers skip it); also
        # normalizes the query forms and surfaces admission rejections
        # early without burning a process.
        self._engine = MultiQueryEngine(
            queries,
            collect_events=collect_events,
            limits=limits,
            preflight=preflight,
            admission=admission,
        )
        self.queries: dict[str, Rpeq] = self._engine.queries
        self.collect_events = collect_events
        self.limits = limits
        self.admission = admission
        self.parser_limits = parser_limits
        self.clock = as_clock(clock)
        self.fault_hook = fault_hook
        self.monitor = HeartbeatMonitor(self.config.heartbeat_timeout, self.clock)
        method = self.config.start_method
        if method is None and "fork" in multiprocessing.get_all_start_methods():
            method = "fork"
        self._mp = multiprocessing.get_context(method)

    # ------------------------------------------------------------------
    # main loop

    def run(self, source: str | Iterable[Event]) -> ShardedResult:
        """Serve the stream across all shards; block until merged.

        The workers start first; the stream is cut into pickled chunks as
        they take it and kept (restarts replay suffixes of it),
        partitioned serving runs to completion with crash/stall
        supervision, and the per-shard outcomes merge into one
        :class:`ShardedResult`.  A source that fails raises its error
        here, once every worker is gone.  The shard log, the recovery
        counters and the restart backoffs belong to this pass alone.
        """
        config = self.config
        stream = _Chunks(
            iter_events(source, limits=self.parser_limits), config.batch_events
        )
        self._log: list[ShardEvent] = []
        self.robustness = RobustnessCounters()
        layout = partition_queries(self.queries, config.shards)
        states = [
            _ShardState(index, query_ids, config)
            for index, query_ids in enumerate(layout)
        ]
        matches: dict[str, list[Match]] = {qid: [] for qid in self.queries}
        for state in states:
            if not state.finished:
                self._start_worker(state, stream)
        try:
            while any(not state.finished for state in states):
                progress = False
                for state in states:
                    if not state.finished:
                        progress |= self._pump(state, stream, matches)
                if not progress:
                    self.clock.sleep(0.002)
            stream.everything()  # a lost shard stops reading: count the rest
        finally:
            for state in states:
                self._retire_worker(state, kill=True)
        return self._merge(states, matches, stream.events)

    # ------------------------------------------------------------------
    # per-shard pump

    def _pump(self, state: _ShardState, stream: _Chunks, matches: dict) -> bool:
        progress = self._drain(state, matches)
        if state.finished:
            return progress
        self._feed(state, stream)  # the pipe holds more than a sleep's worth
        process = state.process
        if process is not None and not process.is_alive():
            self._handle_failure(state, stream, matches, stalled=False)
            return True
        if self.monitor.stalled(state.index):
            silence = self.monitor.silence(state.index)
            if process is not None:
                process.kill()
            self._handle_failure(
                state, stream, matches, stalled=True, silence=silence
            )
            return True
        return progress

    def _feed(self, state: _ShardState, stream: _Chunks) -> None:
        """Write the next chunks into the worker's pipe until it is full
        or the end is sent; never block (the worker may be waiting for
        the coordinator to read its results)."""
        while state.chunks is not None:
            if not state.unsent:
                if state.next_chunk is None:
                    break  # the end is sent
                data = stream.get(state.next_chunk)
                state.next_chunk = None if data is None else state.next_chunk + 1
                data = data or b""  # an empty message ends the stream
                # the framing Connection.recv_bytes reads: length, then bytes
                state.unsent = memoryview(len(data).to_bytes(4, "big") + data)
            try:
                written = os.write(state.chunks.fileno(), state.unsent)
            except (BlockingIOError, BrokenPipeError):  # full, or a dead worker's
                break
            state.unsent = state.unsent[written:]

    def _drain(self, state: _ShardState, matches: dict) -> bool:
        """Process the worker's sent messages; commit each commit's matches.
        A dead worker's are all in its pipe, the last one torn if a
        SIGKILL hit its ``send`` (the uncommitted tail is replayed)."""
        progress = False
        results = state.results
        while True:
            try:
                if results is None or not results.poll():
                    break
                message = results.recv()
            except (EOFError, OSError):  # the end of a dead worker's pipe, or torn
                break
            progress = True
            self.monitor.beat(state.index)
            kind = message[0]
            if kind == "commit":
                state.committed = message[1]
                for query_id, match in message[2]:
                    matches[query_id].append(match)
            elif kind == "done":
                for query_id, match in message[3]:
                    matches[query_id].append(match)
                state.serving_obj = message[1]
                state.robustness_obj = message[2]
                state.finished = True
                self._retire_worker(state)
                break
            elif kind == "error":
                state.last_error = message[1]
        return progress

    # ------------------------------------------------------------------
    # failure handling

    def _handle_failure(
        self,
        state: _ShardState,
        stream: _Chunks,
        matches: dict,
        stalled: bool,
        silence: float = 0.0,
    ) -> None:
        process = state.process
        if process is not None:
            process.join()
        # The worker may have finished cleanly and exited before this
        # liveness poll: the post-mortem drain finds its "done".
        self._drain(state, matches)
        self._retire_worker(state)
        if state.finished:
            return
        exitcode = process.exitcode if process is not None else None
        if stalled:
            detail = (
                f"no heartbeat for {silence:.2f}s "
                f"(timeout {self.config.heartbeat_timeout}s); killed"
            )
            code = SHARD_STALL
        else:
            detail = f"worker exited with code {exitcode}"
            if state.last_error:
                detail += f" after: {state.last_error}"
            code = SHARD_CRASH
        state.last_error = None
        self._log.append(ShardEvent(state.index, state.incarnation, code, detail))
        self.robustness.stalls_detected += 1 if stalled else 0
        key = state.committed_pos
        state.crashes[key] = state.crashes.get(key, 0) + 1
        failures = state.crashes[key]
        if failures >= self.config.max_trips:
            convicted = self._isolate_poison(state, stream)
            if not convicted:
                self._lose_shard(state, matches)
                return
            state.quarantined |= convicted
            self._log.append(
                ShardEvent(
                    state.index,
                    state.incarnation,
                    SHARD_POISON,
                    f"quarantined {sorted(convicted)} after {failures} "
                    f"crash(es) at position {key}",
                )
            )
            self.robustness.quarantines += len(convicted)
            state.crashes[key] = 0
            failures = 1
        self.clock.sleep(state.backoff.delay(failures))
        self.robustness.retries += 1
        self._start_worker(state, stream)
        self._log.append(
            ShardEvent(
                state.index,
                state.incarnation,
                SHARD_RESTORED,
                f"restarted from position {state.committed_pos}"
                + (
                    f" (checkpoint, {len(state.quarantined)} latched)"
                    if state.committed is not None
                    else " (stream head)"
                ),
            )
        )

    def _isolate_poison(self, state: _ShardState, stream: _Chunks) -> set[str]:
        """Convict the queries that kill a solo probe process."""
        convicted: set[str] = set()
        for query_id in sorted(state.live_queries()):
            spec = self._spec(
                state,
                incarnation=-1,
                queries={query_id: unparse(self.queries[query_id])},
                checkpoint=None,
                quarantined=(),
            )
            probe = self._mp.Process(
                target=_probe_main, args=(spec, stream.everything()), daemon=True
            )
            probe.start()
            probe.join(self.config.probe_timeout)
            if probe.is_alive():
                probe.kill()
                probe.join()
                convicted.add(query_id)
            elif probe.exitcode != 0:
                convicted.add(query_id)
        return convicted

    def _lose_shard(self, state: _ShardState, matches: dict) -> None:
        """Terminal: no culprit isolable — quarantine the whole shard."""
        lost = set(state.live_queries())
        state.quarantined |= lost
        state.status = "quarantined"
        state.finished = True
        self._log.append(
            ShardEvent(
                state.index,
                state.incarnation,
                SHARD_LOST,
                f"no poison culprit isolable; shard quarantined with "
                f"{sorted(lost)}",
            )
        )
        self.robustness.quarantines += len(lost)

    # ------------------------------------------------------------------
    # worker lifecycle

    def _spec(
        self,
        state: _ShardState,
        incarnation: int,
        queries: dict[str, str],
        checkpoint: Checkpoint | None,
        quarantined: tuple[str, ...],
    ) -> _WorkerSpec:
        path = None
        if self.config.checkpoint_dir is not None:
            os.makedirs(self.config.checkpoint_dir, exist_ok=True)
            path = os.path.join(
                self.config.checkpoint_dir, f"shard-{state.index}.json"
            )
        return _WorkerSpec(
            shard=state.index,
            incarnation=incarnation,
            queries=queries,
            collect_events=self.collect_events,
            limits=self.limits,
            admission=self.admission,
            policy=self.policy,
            heartbeat_interval=self.config.heartbeat_interval,
            checkpoint_path=path,
            checkpoint=checkpoint,
            quarantined=quarantined,
            hook=self.fault_hook,
        )

    def _start_worker(self, state: _ShardState, stream: _Chunks) -> None:
        state.incarnation += 1
        chunks, state.chunks = self._mp.Pipe(duplex=False)
        state.results, results = self._mp.Pipe(duplex=False)
        os.set_blocking(state.chunks.fileno(), False)
        state.unsent = memoryview(b"")
        checkpoint = state.committed
        if checkpoint is not None and state.quarantined:
            checkpoint = quarantine_in_checkpoint(
                checkpoint,
                sorted(state.quarantined),
                self.policy.breaker.max_trips,
            )
        state.next_chunk = (
            stream.starting_at(checkpoint.position) if checkpoint is not None else 0
        )
        spec = self._spec(
            state,
            incarnation=state.incarnation,
            queries={
                qid: unparse(self.queries[qid]) for qid in state.query_ids
            },
            checkpoint=checkpoint,
            quarantined=(
                tuple(sorted(state.quarantined)) if checkpoint is None else ()
            ),
        )
        state.process = self._mp.Process(
            target=_worker_main, args=(spec, chunks, results), daemon=True
        )
        state.process.start()
        # the worker's ends live in the worker only: its exit closes them
        chunks.close()
        results.close()
        self.monitor.beat(state.index)
        if state.incarnation > 0 and state.committed is not None:
            self.robustness.restores += 1

    def _retire_worker(self, state: _ShardState, kill: bool = False) -> None:
        process = state.process
        if process is not None:
            if kill:
                process.kill()  # a no-op once it has exited
            process.join()
        for pipe in filter(None, (state.chunks, state.results)):
            pipe.close()
        state.chunks = state.results = None
        self.monitor.disarm(state.index)
        state.process = None

    # ------------------------------------------------------------------
    # merging

    def _merge(
        self,
        states: list[_ShardState],
        matches: dict[str, list[Match]],
        events_total: int,
    ) -> ShardedResult:
        reports = []
        counters = asdict(self.robustness)
        for state in states:
            if state.serving_obj is not None:
                reports.append(ServingReport.from_obj(state.serving_obj))
            if state.robustness_obj is not None:
                for name, value in state.robustness_obj.items():
                    if name == "restores":
                        # the coordinator already counted every restore
                        # attempt, including ones that crashed again
                        continue
                    counters[name] = counters.get(name, 0) + value
        report = ServingReport.merged(reports)
        quarantined: set[str] = set()
        for state in states:
            quarantined |= state.quarantined
            if state.status != "quarantined":
                continue
            # The shard died without a final report: synthesize terminal
            # outcomes for the queries it took down.
            for query_id in state.query_ids:
                if query_id in report.outcomes:
                    continue
                outcome = report.outcome(query_id)
                outcome.status = "quarantined"
                outcome.code = QUERY_SHARD_LOST
                outcome.reason = (
                    f"shard {state.index} lost (crash loop, no culprit "
                    f"isolable); delivered matches are a committed prefix"
                )
                outcome.degraded = True
                outcome.matches = len(matches[query_id])
                report.quarantines += 1
        return ShardedResult(
            matches=matches,
            report=report,
            robustness=RobustnessCounters(**counters),
            shard_queries=[state.query_ids for state in states],
            shard_status=[state.status for state in states],
            shard_log=list(self._log),
            checkpoints={
                state.index: state.committed
                for state in states
                if state.committed is not None
            },
            quarantined=quarantined,
            events_total=events_total,
        )


def serve_sharded(
    queries: Mapping[str, str | Rpeq] | Iterable[str],
    source: str | Iterable[Event],
    config: ShardConfig | None = None,
    **kwargs: Any,
) -> ShardedResult:
    """One-shot convenience: build a :class:`ShardCoordinator`, run it."""
    return ShardCoordinator(queries, config=config, **kwargs).run(source)
