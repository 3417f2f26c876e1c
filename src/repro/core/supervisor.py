"""Supervised execution of streaming runs against unreliable sources.

The engine's contract assumes the source iterator either yields events or
ends; real feeds also *break* (connection resets) and *stall* (silent
peers).  :class:`Supervisor` wraps an engine + a reconnectable source
factory and turns those failure modes into a single behavior: checkpoint
at the failure boundary, back off, reconnect, resume — so a flaky source
costs retries, never correctness.

The correctness argument, in two parts:

* **Failure boundary.**  When the source iterator raises, the exception
  propagates through the engine's event loop at the moment the *next*
  event was requested — i.e. every event delivered so far is fully
  processed and its matches have been consumed downstream.  The cursor
  therefore points exactly between the last processed event and the
  failure, and a checkpoint taken right there resumes with zero
  duplicated and zero dropped matches.
* **Cadence boundary.**  Periodic checkpoints ride the same boundary: the
  cadence hook is a generator wrapped around the source whose
  post-``yield`` code runs only when the engine pulls the next event,
  which (because the whole pipeline is pull-driven) happens only after
  the supervisor's consumer has drained the previous event's matches.

Stalls are unified with transient errors by a watchdog: a reader thread
moves source events into a queue, and the supervisor-side iterator raises
:class:`StallError` when no event arrives within ``heartbeat_timeout`` —
turning "silent peer" into an exception the retry loop already handles.

Typical use::

    from repro import SpexEngine, Supervisor, SupervisorConfig

    engine = SpexEngine("_*.trade[price].symbol")
    supervisor = Supervisor(
        engine,
        source_factory=reconnect,          # () -> fresh event iterable
        config=SupervisorConfig(
            max_retries=5,
            heartbeat_timeout=30.0,
            checkpoint_every_events=10_000,
            checkpoint_dir="/var/lib/spex",
        ),
    )
    for match in supervisor.run():
        publish(match)
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from queue import Empty, Full, Queue

from ..errors import CheckpointError, ReproError
from ..xmlstream.events import Event
from ..xmlstream.offsets import StreamCursor
from ..xmlstream.parser import iter_events
from .checkpoint import Checkpoint
from .clock import SYSTEM_CLOCK, Clock, ExponentialBackoff, _CallableClock

#: File name the supervisor writes inside ``checkpoint_dir``.  A single
#: rolling file — each save atomically replaces the previous one, so the
#: directory always holds exactly one good checkpoint.
CHECKPOINT_FILENAME = "checkpoint.json"

#: How long a watchdog's reader waits on a full queue before it looks
#: again whether its consumer is gone.
_POLL_SECONDS = 0.05


class StallError(ReproError):
    """The source produced no event within ``heartbeat_timeout`` seconds.

    Raised *into the engine loop* by the watchdog wrapper, at the same
    between-events boundary a source ``IOError`` would surface at — so
    the supervisor handles hangs and crashes with the same machinery.
    """


@dataclass
class SupervisorConfig:
    """Retry, watchdog and checkpoint-cadence policy.

    Attributes:
        max_retries: consecutive failed reconnects tolerated before the
            last error propagates.  The counter resets whenever a
            connection makes progress (delivers at least one new event),
            so a long stream with occasional blips never exhausts it.
        backoff_initial: delay before the first retry, in seconds.
        backoff_factor: multiplier applied per consecutive failure.
        backoff_max: ceiling on the delay.
        jitter: +/- fraction of the delay randomized away (seeded), to
            de-synchronize reconnect herds.
        heartbeat_timeout: seconds of source silence before the watchdog
            raises :class:`StallError`; ``None`` disables the watchdog
            (and its reader thread).
        on_stall: ``"reconnect"`` treats a stall like a transient error
            (checkpoint, back off, reconnect); ``"checkpoint_exit"``
            writes a checkpoint and re-raises, handing the decision to
            the operator with a resumable file on disk.
        checkpoint_every_events: cadence floor in events (``None`` = off).
        checkpoint_every_seconds: cadence floor in seconds (``None`` = off).
        checkpoint_dir: directory for the rolling checkpoint file; when
            ``None``, cadence/failure checkpoints stay in memory only.
        retry_on: exception types treated as transient.  Anything else —
            malformed XML, resource-limit hits, engine bugs — propagates
            immediately: retrying cannot fix a poisoned stream.
        seed: seeds the jitter randomness (reproducible schedules).
    """

    max_retries: int = 5
    backoff_initial: float = 0.1
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter: float = 0.1
    heartbeat_timeout: float | None = None
    on_stall: str = "reconnect"
    checkpoint_every_events: int | None = None
    checkpoint_every_seconds: float | None = None
    checkpoint_dir: str | None = None
    retry_on: tuple[type[BaseException], ...] = (OSError,)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.on_stall not in ("reconnect", "checkpoint_exit"):
            raise ValueError(
                f"on_stall must be 'reconnect' or 'checkpoint_exit', "
                f"got {self.on_stall!r}"
            )


@dataclass
class SupervisorReport:
    """What one supervised run went through (readable mid-run).

    Attributes:
        connects: connections opened (first attempt included).
        retries: reconnects after a failure.
        stalls: heartbeat-timeout firings.
        checkpoints_written: checkpoints taken (cadence + failure + final).
        last_checkpoint_path: most recent on-disk checkpoint, if any.
        completed: the source was drained to its natural end.
    """

    connects: int = 0
    retries: int = 0
    stalls: int = 0
    checkpoints_written: int = 0
    last_checkpoint_path: str | None = None
    completed: bool = False


def _watchdog(events: Iterable[Event], timeout: float) -> Iterator[Event]:
    """Yield ``events``, raising :class:`StallError` on source silence.

    A daemon reader thread drains the source into a bounded queue; the
    consumer side waits at most ``timeout`` per event.  The buffer means
    slow *engine* processing never trips the watchdog — only a source
    that stops producing does.  Once the consumer is done (a stall, the
    end, an error) the reader stops at its next event, so an abandoned
    connection never holds a thread blocked on a full queue.
    """
    queue: Queue = Queue(maxsize=64)
    done = threading.Event()

    def put(item: tuple) -> bool:
        while not done.is_set():
            try:
                queue.put(item, timeout=_POLL_SECONDS)
                return True
            except Full:
                continue
        return False

    def reader() -> None:
        try:
            for event in events:
                if not put(("event", event)):
                    return
            put(("end", None))
        except BaseException as exc:  # propagate everything to the consumer
            put(("raise", exc))

    threading.Thread(target=reader, daemon=True, name="spex-source-reader").start()
    try:
        while True:
            try:
                kind, value = queue.get(timeout=timeout)
            except Empty:
                raise StallError(
                    f"source produced no event for {timeout}s"
                ) from None
            if kind == "event":
                yield value
            elif kind == "end":
                return
            else:
                raise value
    finally:
        done.set()


class Supervisor:
    """Run an engine against a flaky source until the stream completes.

    Works with any engine exposing the checkpoint protocol —
    ``run(source, cursor=...)``, ``checkpoint()``, ``resume(checkpoint,
    source)`` and a ``robustness`` counter set — i.e. both
    :class:`~repro.core.engine.SpexEngine` and
    :class:`~repro.core.multiquery.MultiQueryEngine`; matches are
    forwarded in whatever shape the engine yields them.

    Args:
        engine: the engine to supervise.
        source_factory: zero-argument callable returning a *fresh*
            connection each call — XML text, a file path, or an event
            iterable.  Every connection must replay the same stream from
            the start (resume seeks past the already-processed prefix).
        config: policy knobs; defaults retry up to 5 times with
            exponential backoff and take no periodic checkpoints.
        sleep: injectable backoff sleeper (tests pass a recorder);
            overrides the clock's sleeper when given.
        clock: a :class:`~repro.core.clock.Clock` (pass a
            :class:`~repro.core.clock.FakeClock` in tests) or, for
            backward compatibility, a bare monotonic callable.
    """

    def __init__(
        self,
        engine,
        source_factory: Callable[[], object],
        config: SupervisorConfig | None = None,
        sleep: Callable[[float], None] | None = None,
        clock: Clock | Callable[[], float] | None = None,
    ) -> None:
        self.engine = engine
        self.source_factory = source_factory
        self.config = config if config is not None else SupervisorConfig()
        self.report = SupervisorReport()
        if isinstance(clock, Clock):
            self.clock: Clock = (
                clock
                if sleep is None
                else _CallableClock(monotonic=clock.monotonic, sleep=sleep)
            )
        elif clock is None and sleep is None:
            self.clock = SYSTEM_CLOCK
        else:
            self.clock = _CallableClock(monotonic=clock, sleep=sleep)
        self._backoff = ExponentialBackoff(
            initial=self.config.backoff_initial,
            factor=self.config.backoff_factor,
            maximum=self.config.backoff_max,
            jitter=self.config.jitter,
            seed=self.config.seed,
        )
        #: events this connection has passed to the engine, the resume
        #: skip included: the absolute stream position
        self._position = 0
        self._checkpointed_position = -1
        self._last_checkpoint_time = self.clock.monotonic()

    # ------------------------------------------------------------------
    # main loop

    def run(self, checkpoint: Checkpoint | None = None) -> Iterator[object]:
        """Supervised evaluation; yields matches as the engine does.

        Args:
            checkpoint: start from this checkpoint instead of the stream
                head (e.g. one loaded from a previous process's
                ``checkpoint_dir``).

        Raises:
            StallError: a stall fired under ``on_stall="checkpoint_exit"``
                (a checkpoint is on disk when ``checkpoint_dir`` is set),
                or stalls/errors exhausted ``max_retries``.
            OSError: the source kept failing past ``max_retries``.
        """
        config = self.config
        failures = 0
        retryable = tuple(config.retry_on) + (StallError,)
        if checkpoint is not None:
            self._checkpointed_position = checkpoint.position
        while True:
            started_at = (
                checkpoint.position if checkpoint is not None else 0
            )
            try:
                yield from self._attempt(checkpoint)
            except retryable as exc:
                stalled = isinstance(exc, StallError)
                if stalled:
                    self.report.stalls += 1
                    self.engine.robustness.stalls_detected += 1
                # Engine state is intact at the failure boundary — bank it.
                banked = self._take_checkpoint()
                if banked is not None:
                    checkpoint = banked
                if stalled and config.on_stall == "checkpoint_exit":
                    raise
                progressed = self._position > started_at
                failures = 1 if progressed else failures + 1
                if failures > config.max_retries:
                    raise
                self.report.retries += 1
                self.engine.robustness.retries += 1
                self.clock.sleep(self._backoff_delay(failures))
                continue
            # Natural end of stream: bank a final checkpoint so a restart
            # is a no-op, and report success.
            self._take_checkpoint()
            self.report.completed = True
            return

    def _attempt(self, checkpoint: Checkpoint | None) -> Iterator[object]:
        """One connection's worth of evaluation."""
        self._position = 0
        source = self.source_factory()
        self.report.connects += 1
        events: Iterable[Event] = iter_events(source)
        if self.config.heartbeat_timeout is not None:
            events = _watchdog(events, self.config.heartbeat_timeout)
        events = self._with_cadence(events)
        if checkpoint is None:
            yield from self.engine.run(events, cursor=StreamCursor())
        else:
            yield from self.engine.resume(checkpoint, events)

    # ------------------------------------------------------------------
    # checkpoint cadence

    def _with_cadence(self, events: Iterable[Event]) -> Iterator[Event]:
        """Source wrapper firing the cadence check between events.

        The code after ``yield`` runs when the engine requests the next
        event — by then the previous event is fully processed and its
        matches consumed, the exact boundary where checkpointing is safe.
        Every connection replays the stream from its start, and a resume
        skips the checkpointed prefix through here too, so the count of
        events passed is the stream position.
        """
        for event in events:
            self._position += 1
            yield event
            self._maybe_checkpoint()

    def _maybe_checkpoint(self) -> None:
        config = self.config
        if (
            config.checkpoint_every_events is None
            and config.checkpoint_every_seconds is None
        ):
            return
        position = self._position
        if position <= self._checkpointed_position:
            return  # no progress since the last checkpoint (e.g. resume skip)
        due = (
            config.checkpoint_every_events is not None
            and position - max(self._checkpointed_position, 0)
            >= config.checkpoint_every_events
        ) or (
            config.checkpoint_every_seconds is not None
            and self.clock.monotonic() - self._last_checkpoint_time
            >= config.checkpoint_every_seconds
        )
        if due:
            self._take_checkpoint()

    def _take_checkpoint(self) -> Checkpoint | None:
        """Snapshot the engine now; persist it when a dir is configured."""
        try:
            checkpoint = self.engine.checkpoint()
        except CheckpointError:
            return None  # nothing ran yet; keep whatever we had
        self._checkpointed_position = checkpoint.position
        self._last_checkpoint_time = self.clock.monotonic()
        self.report.checkpoints_written += 1
        if self.config.checkpoint_dir is not None:
            os.makedirs(self.config.checkpoint_dir, exist_ok=True)
            path = os.path.join(self.config.checkpoint_dir, CHECKPOINT_FILENAME)
            checkpoint.save(path)
            self.report.last_checkpoint_path = path
        return checkpoint

    # ------------------------------------------------------------------
    # backoff

    def _backoff_delay(self, failures: int) -> float:
        """Exponential backoff with seeded jitter (failures >= 1)."""
        return self._backoff.delay(failures)


def supervise(
    engine,
    source_factory: Callable[[], object],
    checkpoint: Checkpoint | None = None,
    **config_kwargs,
) -> Iterator[object]:
    """One-shot convenience: build a :class:`Supervisor` and run it."""
    supervisor = Supervisor(
        engine, source_factory, SupervisorConfig(**config_kwargs)
    )
    return supervisor.run(checkpoint)
