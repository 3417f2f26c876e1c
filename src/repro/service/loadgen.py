"""Load harness for the streaming service: SLO numbers and chaos fuel.

:func:`run_load` spins up N concurrent subscriber connections and one
bursty producer against a service (an in-process one by default), pushes
a seeded multi-document stream through, and reports client-side p50/p99
match latency plus sustained event throughput — the numbers the
``service`` bench workload records as a gated series.

Latency is measured entirely client-side: the producer stamps
``time.monotonic()`` as it writes each document and every ``match``
frame carries the engine's global document index, so
``receive_time - send_time[document]`` needs no server clock echo and
includes every queue the match crossed (socket in, engine, subscriber
queue, socket out).

Chaos modes (all seeded, all reproducible):

* ``slow_subscribers`` — clients that sleep between frame reads,
  exercising the overflow policy and, under ``block``, the end-to-end
  backpressure chain;
* ``disconnect_subscribers`` — clients that cut the TCP connection
  mid-stream without unsubscribing;
* ``abusive_producer`` — a second producer connection speaking
  guaranteed-malformed documents and protocol junk, all of which the
  server must reject *without* shifting the document indices the honest
  producer's stream establishes (document-atomic ingestion is exactly
  what makes this hold);
* ``crash_reconnect_subscribers`` — durable-session clients that cut
  their TCP connection at a seeded point mid-stream, reconnect with
  their session token, and ``resume`` from their observed sequence
  floors.  Each reports its *recovery time* (reconnect start → terminal
  ``resumed`` frame), the informational series the ``service`` bench
  workload records; requires a server started with a write-ahead log.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Sequence

from ..workloads.generators import random_tree, sdi_subscriptions
from ..xmlstream.events import (
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
)
from .client import ProducerClient, SubscriberClient
from .server import ServiceConfig, SpexService

#: Label vocabulary shared by the document generator and the
#: subscription family, so a seeded load actually produces matches.
LOAD_LABELS = ("country", "province", "city", "name", "population", "religions")


@dataclass(frozen=True)
class LoadConfig:
    """One load scenario (all randomness derives from ``seed``)."""

    subscribers: int = 32
    queries_per_subscriber: int = 1
    documents: int = 40
    doc_elements: int = 24
    burst: int = 4
    inter_burst_pause: float = 0.0
    seed: int = 7
    tenant: str = "load"
    overflow: str | None = None
    queue_size: int | None = None
    slow_subscribers: int = 0
    slow_delay: float = 0.002
    disconnect_subscribers: int = 0
    disconnect_after_matches: int = 3
    abusive_producer: bool = False
    abusive_documents: int = 5
    crash_reconnect_subscribers: int = 0
    crash_after_matches: int = 4

    def __post_init__(self) -> None:
        if self.subscribers < 1 or self.documents < 1:
            raise ValueError("subscribers and documents must be positive")
        misbehaving = (
            self.slow_subscribers
            + self.disconnect_subscribers
            + self.crash_reconnect_subscribers
        )
        if misbehaving > self.subscribers:
            raise ValueError("more misbehaving subscribers than subscribers")
        if self.crash_after_matches < 1:
            raise ValueError("crash_after_matches must be positive")


@dataclass
class SubscriberResult:
    """What one subscriber connection observed."""

    index: int
    queries: dict[str, str] = field(default_factory=dict)
    #: delivered matches in arrival order: (query_id, document, position, label)
    matches: list[tuple[str, int, int, str]] = field(default_factory=list)
    #: client-side seconds from document send to match receipt
    latencies: list[float] = field(default_factory=list)
    heartbeats: int = 0
    notices: list[dict] = field(default_factory=list)
    rejected: list[dict] = field(default_factory=list)
    disconnected: bool = False
    bye_code: str | None = None
    #: durable-session crash/reconnect cycles this subscriber performed
    reconnects: int = 0
    #: seconds from reconnect start to the terminal ``resumed`` frame
    recovery_times: list[float] = field(default_factory=list)
    #: match sequence numbers in arrival order (durable sessions only)
    seqs: list[int] = field(default_factory=list)


@dataclass
class LoadReport:
    """Aggregate outcome of one :func:`run_load` run."""

    subscribers: list[SubscriberResult]
    documents_sent: int
    events_sent: int
    duration: float
    #: documents the service took in: its own count when it ran
    #: in-process, else the producer's last ``ingested`` ack (0 from an
    #: external service without a write-ahead log, which sends none)
    documents_ingested: int = 0
    abusive_rejections: int = 0
    #: the in-process service drained *and* ingested every document sent
    drained_cleanly: bool = False

    @property
    def latencies(self) -> list[float]:
        out: list[float] = []
        for sub in self.subscribers:
            out.extend(sub.latencies)
        return out

    @property
    def total_matches(self) -> int:
        return sum(len(sub.matches) for sub in self.subscribers)

    @property
    def p50_latency(self) -> float:
        return percentile(self.latencies, 50.0)

    @property
    def p99_latency(self) -> float:
        return percentile(self.latencies, 99.0)

    @property
    def events_per_second(self) -> float:
        return self.events_sent / self.duration if self.duration > 0 else 0.0

    @property
    def recovery_times(self) -> list[float]:
        out: list[float] = []
        for sub in self.subscribers:
            out.extend(sub.recovery_times)
        return out

    @property
    def reconnects(self) -> int:
        return sum(sub.reconnects for sub in self.subscribers)

    @property
    def max_recovery(self) -> float:
        times = self.recovery_times
        return max(times) if times else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not q >= 0.0 or not q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math import
    return ordered[int(rank) - 1]


def load_subscriptions(config: LoadConfig) -> list[list[tuple[str, str]]]:
    """Per-subscriber ``(query_id, query)`` lists, deterministic in seed."""
    total = config.subscribers * config.queries_per_subscriber
    corpus = list(sdi_subscriptions(total, seed=config.seed).items())
    per = config.queries_per_subscriber
    return [corpus[i * per : (i + 1) * per] for i in range(config.subscribers)]


def load_documents(config: LoadConfig) -> list[list[Event]]:
    """The seeded multi-document stream the producer pushes."""
    return [
        list(
            random_tree(
                seed=config.seed * 1_000_003 + index,
                elements=config.doc_elements,
                labels=LOAD_LABELS,
            )
        )
        for index in range(config.documents)
    ]


def _malformed_documents(seed: int, count: int) -> list[list[Event]]:
    """Documents that can never pass well-formedness (abusive producer).

    Built from templates that are malformed *by construction* — unlike
    :meth:`FaultInjector.corrupt`, which sometimes leaves a valid
    stream, these must all be rejected so the honest stream's document
    indices stay untouched.
    """
    import random

    rng = random.Random(seed)
    out: list[list[Event]] = []
    for _ in range(count):
        a, b = rng.choice(LOAD_LABELS), rng.choice(LOAD_LABELS)
        template = rng.randrange(3)
        if template == 0:  # mismatched end tag
            doc = [
                StartDocument(),
                StartElement(a),
                EndElement(a + "x"),
                EndDocument(),
            ]
        elif template == 1:  # unclosed element at </$>
            doc = [StartDocument(), StartElement(a), StartElement(b), EndDocument()]
        else:  # stray end tag
            doc = [StartDocument(), EndElement(b), EndDocument()]
        out.append(doc)
    return out


async def _subscriber_task(
    host: str,
    port: int,
    index: int,
    subscriptions: list[tuple[str, str]],
    config: LoadConfig,
    send_times: dict[int, float],
    ready: asyncio.Barrier,
) -> SubscriberResult:
    result = SubscriberResult(index=index, queries=dict(subscriptions))
    # disconnectors are taken from the tail so slow/disconnect don't overlap
    disconnect = index >= config.subscribers - config.disconnect_subscribers
    client = await SubscriberClient.connect(
        host,
        port,
        tenant=config.tenant,
        overflow=config.overflow,
        queue_size=config.queue_size,
    )
    for query_id, query in subscriptions:
        verdict = await client.subscribe(query_id, query)
        if verdict.get("type") == "rejected":
            result.rejected.append(verdict)
    await ready.wait()
    try:
        outcome = await _consume_frames(
            client,
            result,
            send_times,
            {},
            stop_after=config.disconnect_after_matches if disconnect else None,
            delay=config.slow_delay if index < config.slow_subscribers else 0.0,
        )
        result.disconnected = outcome == "stop"
    except (ConnectionError, asyncio.IncompleteReadError):
        result.disconnected = True
    finally:
        await client.close()
    return result


async def _consume_frames(
    client: SubscriberClient,
    result: SubscriberResult,
    send_times: dict[int, float],
    floors: dict[str, int],
    stop_after: int | None = None,
    delay: float = 0.0,
) -> str:
    """Drive one frame loop, sleeping ``delay`` seconds after each frame
    (a slow consumer); returns ``"stop"`` once ``stop_after`` matches
    arrived, else ``"bye"`` or ``"eof"``."""
    async for frame in client.frames():
        kind = frame.get("type")
        if kind == "match":
            document = int(frame["document"])
            match = frame["match"]
            query_id = str(frame["query_id"])
            result.matches.append(
                (
                    query_id,
                    document,
                    int(match["position"]),
                    str(match["label"]),
                )
            )
            seq = frame.get("seq")
            if seq is not None:
                result.seqs.append(int(seq))
                floors[query_id] = max(floors.get(query_id, 0), int(seq))
            sent = send_times.get(document)
            if sent is not None:
                result.latencies.append(time.monotonic() - sent)
            if stop_after is not None and len(result.matches) >= stop_after:
                return "stop"
        elif kind == "heartbeat":
            result.heartbeats += 1
        elif kind == "notice":
            result.notices.append(frame)
        elif kind == "bye":
            result.bye_code = frame.get("code")
            return "bye"
        if delay:
            await asyncio.sleep(delay)
    return "eof"


async def _crash_reconnect_task(
    host: str,
    port: int,
    index: int,
    subscriptions: list[tuple[str, str]],
    config: LoadConfig,
    send_times: dict[int, float],
    ready: asyncio.Barrier,
    settled: asyncio.Event,
) -> SubscriberResult:
    """A durable-session subscriber that crashes and resumes, seeded.

    The connection is cut (no unsubscribe, no goodbye) after a seeded
    number of matches; the client then reconnects with its session
    token, sends ``resume`` with its observed floors, and keeps
    consuming.  ``recovery_times`` records reconnect→``resumed``
    wall-clock — the recovery-time series the bench reports.
    ``settled`` is set once the crash/resume cycle is over (or was
    never going to happen) so the harness knows it may drain.
    """
    import random

    result = SubscriberResult(index=index, queries=dict(subscriptions))
    rng = random.Random(config.seed * 7919 + index)
    crash_after = 1 + rng.randrange(config.crash_after_matches)
    client = await SubscriberClient.connect(
        host,
        port,
        tenant=config.tenant,
        overflow=config.overflow,
        queue_size=config.queue_size,
        durable=True,
    )
    token = client.session
    floors: dict[str, int] = {}
    for query_id, query in subscriptions:
        verdict = await client.subscribe(query_id, query)
        if verdict.get("type") == "rejected":
            result.rejected.append(verdict)
    await ready.wait()
    try:
        outcome = await _consume_frames(
            client, result, send_times, floors, stop_after=crash_after
        )
        if outcome == "stop" and token is not None:
            await client.close()
            await asyncio.sleep(rng.uniform(0.005, 0.02))
            restarted = time.monotonic()
            # The server may not have seen our abrupt close yet, in
            # which case the session still looks attached and the
            # resume hello is refused — retry as a real client would.
            for attempt in range(25):
                try:
                    client = await SubscriberClient.connect(
                        host,
                        port,
                        tenant=config.tenant,
                        overflow=config.overflow,
                        queue_size=config.queue_size,
                        session=token,
                    )
                    break
                except ConnectionError:
                    await asyncio.sleep(0.01 * (attempt + 1))
            else:
                result.disconnected = True
                return result
            await client.resume(floors)
            result.recovery_times.append(time.monotonic() - restarted)
            result.reconnects += 1
            settled.set()  # before the tail consume: it ends at drain
            await _consume_frames(client, result, send_times, floors)
    except (ConnectionError, asyncio.IncompleteReadError):
        result.disconnected = True
    finally:
        settled.set()
        await client.close()
    return result


async def _producer_task(
    host: str,
    port: int,
    config: LoadConfig,
    documents: list[list[Event]],
    send_times: dict[int, float],
    ready: asyncio.Barrier,
    settle: float,
) -> tuple[int, int]:
    """Send every document; returns ``(events sent, documents acked)``.

    A service with a write-ahead log acks each committed document with an
    ``ingested`` frame (and says so by putting its committed count in the
    producer's welcome).  The connection stays open, reading every ack,
    until the last document is covered or ``settle`` seconds pass:
    closing a socket with unread frames in its receive buffer resets the
    connection under the documents still in flight.  A service that does
    not ack reports 0.
    """
    await ready.wait()
    producer = await ProducerClient.connect(host, port, tenant=config.tenant)
    base = producer.conn.welcome.get("documents")
    events_sent = acked = 0
    try:
        for index, document in enumerate(documents):
            send_times[index] = time.monotonic()
            await producer.send_events(document)
            events_sent += len(document)
            if config.inter_burst_pause and (index + 1) % config.burst == 0:
                await asyncio.sleep(config.inter_burst_pause)
        deadline = time.monotonic() + settle
        while base is not None and acked < len(documents):
            try:
                frame = await asyncio.wait_for(
                    producer.conn.recv(), max(0.0, deadline - time.monotonic())
                )
            except (asyncio.TimeoutError, ConnectionError):
                break  # reported: documents_ingested falls short
            if frame is None:
                break
            if frame.get("type") == "ingested":
                acked = int(frame["documents"]) - int(base)
    finally:
        await producer.close()
    return events_sent, acked


async def _abusive_producer_task(
    host: str, port: int, config: LoadConfig, ready: asyncio.Barrier
) -> int:
    """Feed garbage; count the server's SVC008 rejections."""
    await ready.wait()
    producer = await ProducerClient.connect(host, port, tenant="abuse")
    rejections = 0
    try:
        # protocol junk first: an unknown frame type must only earn an error
        await producer.send_raw({"type": "mystery", "payload": "?"})
        for document in _malformed_documents(
            config.seed + 1, config.abusive_documents
        ):
            await producer.send_events(document)
        # count error frames without blocking forever
        while True:
            try:
                frame = await asyncio.wait_for(producer.conn.recv(), 0.25)
            except (TimeoutError, ConnectionError):
                break
            if frame is None:
                break
            if frame.get("type") == "error":
                rejections += 1
    finally:
        await producer.close()
    return rejections


async def run_load_async(
    config: LoadConfig,
    service_config: ServiceConfig | None = None,
    host: str | None = None,
    port: int | None = None,
    settle: float = 10.0,
) -> tuple[LoadReport, SpexService | None]:
    """Run one load scenario; returns the report and the in-process
    service (``None`` when ``host``/``port`` pointed at an external one).

    With no explicit ``host``/``port`` an in-process
    :class:`~repro.service.server.SpexService` is started, drained after
    the producer finishes (flushing all committed matches), and returned
    for white-box assertions (serving report, stats, checkpoint).
    """
    service: SpexService | None = None
    if host is None or port is None:
        service = SpexService(service_config)
        bound_host, bound_port = await service.start()
    else:
        bound_host, bound_port = host, port
    documents = load_documents(config)
    subscriptions = load_subscriptions(config)
    send_times: dict[int, float] = {}
    parties = 1 + config.subscribers + (1 if config.abusive_producer else 0)
    ready = asyncio.Barrier(parties)
    started = time.monotonic()
    crash_lo = config.slow_subscribers
    crash_hi = crash_lo + config.crash_reconnect_subscribers
    crash_settled: list[asyncio.Event] = []
    tasks: list[asyncio.Task] = []
    for index in range(config.subscribers):
        if crash_lo <= index < crash_hi:
            settled = asyncio.Event()
            crash_settled.append(settled)
            coro = _crash_reconnect_task(
                bound_host,
                bound_port,
                index,
                subscriptions[index],
                config,
                send_times,
                ready,
                settled,
            )
        else:
            coro = _subscriber_task(
                bound_host,
                bound_port,
                index,
                subscriptions[index],
                config,
                send_times,
                ready,
            )
        tasks.append(asyncio.create_task(coro))
    producer = asyncio.create_task(
        _producer_task(
            bound_host, bound_port, config, documents, send_times, ready, settle
        )
    )
    abusive = (
        asyncio.create_task(
            _abusive_producer_task(bound_host, bound_port, config, ready)
        )
        if config.abusive_producer
        else None
    )
    events_sent, documents_ingested = await producer
    abusive_rejections = await abusive if abusive is not None else 0
    if crash_settled:
        # hold the drain until every chaos client is through its
        # crash/resume cycle — the listener must still be up for the
        # reconnects (a sparse query that never crashes falls through
        # on the timeout instead of stalling the run)
        try:
            await asyncio.wait_for(
                asyncio.gather(*(event.wait() for event in crash_settled)),
                timeout=settle,
            )
        except asyncio.TimeoutError:
            pass
    drained = False
    if service is not None:
        # graceful drain flushes every committed match, then byes the
        # subscribers — which is what ends their frame loops
        await service.stop()
        results = await asyncio.gather(*tasks)
        documents_ingested = service.stats.documents_ingested
        drained = documents_ingested >= len(documents)
    else:
        # external server: nobody drains for us, so bound the wait and
        # cancel stragglers (their partial results are lost, which an
        # external-mode caller accepts by construction)
        done, pending = await asyncio.wait(tasks, timeout=settle)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        results = [task.result() for task in tasks if task in done]
    duration = time.monotonic() - started
    report = LoadReport(
        subscribers=list(results),
        documents_sent=len(documents),
        events_sent=events_sent,
        duration=duration,
        documents_ingested=documents_ingested,
        abusive_rejections=abusive_rejections,
        drained_cleanly=drained,
    )
    return report, service


def run_load(
    config: LoadConfig | None = None,
    service_config: ServiceConfig | None = None,
    host: str | None = None,
    port: int | None = None,
) -> tuple[LoadReport, SpexService | None]:
    """Synchronous front door for benches and tests."""
    return asyncio.run(
        run_load_async(
            config if config is not None else LoadConfig(),
            service_config,
            host,
            port,
        )
    )
