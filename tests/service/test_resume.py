"""Durable sessions: connection resume, service-native resume, latches.

The differential contract under test: whatever crashes — the client's
connection or the whole server process — the session token survives,
the reconnecting subscriber replays the retained WAL tail above its
floor, the producer re-sends from the engine's resume position, and the
total observed stream is bit-identical to one uninterrupted offline
pass with strictly contiguous sequence numbers.
"""

import asyncio
import json

import pytest

from repro.core.multiquery import MultiQueryEngine
from repro.service.client import ProducerClient, SubscriberClient
from repro.service.loadgen import (
    LoadConfig,
    load_documents,
    load_subscriptions,
    run_load_async,
)
from repro.service.protocol import (
    SVC_SESSION_EXPIRED,
    SVC_SESSION_UNKNOWN,
    SVC_TENANT_BUDGET,
    resume_frame,
)
from repro.service.server import ServiceConfig, SpexService

QUERY = "_*.name"


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 60))


def durable_config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(
        tick=0.005,
        heartbeat_interval=None,
        drain_grace=2.0,
        wal_path=str(tmp_path / "svc.wal"),
        checkpoint_path=str(tmp_path / "svc.ckpt"),
        checkpoint_every_documents=3,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def documents_for(seed, count=8, elements=16):
    return load_documents(
        LoadConfig(documents=count, doc_elements=elements, seed=seed)
    )


def offline_reference(documents):
    """One uninterrupted offline pass — the ground truth stream."""
    engine = MultiQueryEngine({"q1": QUERY})
    flat = [event for document in documents for event in document]
    return [(match.position, match.label) for _qid, match in engine.serve(iter(flat))]


async def consume(client, stream, floors, stop_after=None):
    """Append ``(seq, position, label)`` per match; track the ack floor."""
    async for frame in client.frames():
        if frame.get("type") == "match":
            stream.append(
                (frame["seq"], frame["match"]["position"], frame["match"]["label"])
            )
            qid = frame["query_id"]
            floors[qid] = max(floors.get(qid, 0), frame["seq"])
            if stop_after is not None and len(stream) >= stop_after:
                return "enough"
        elif frame.get("type") == "bye":
            return "bye"
    return "eof"


async def crash(service):
    """Abandon the service the way SIGKILL would: no drain, no flush.

    The WAL handle is left dangling with whatever was fsynced — exactly
    the state a new process finds on disk.
    """
    service._server.close()
    service._engine_task.cancel()
    service._housekeeper.cancel()
    if service._checkpoint_task is not None:
        try:
            await service._checkpoint_task
        except (Exception, asyncio.CancelledError):
            pass
    await asyncio.sleep(0.05)


async def wait_for(predicate, timeout=10.0):
    async with asyncio.timeout(timeout):
        while not predicate():
            await asyncio.sleep(0.01)


def assert_stream_is_offline_pass(stream, offline):
    seqs = [seq for seq, _, _ in stream]
    assert seqs == list(range(1, len(seqs) + 1)), f"seq gaps/dups: {seqs}"
    assert [(p, label) for _, p, label in stream] == offline


class TestConnectionResume:
    def test_connection_crash_then_resume_is_exactly_once(self, tmp_path):
        """Client dies mid-stream; reconnect+resume fills the gap exactly."""

        async def scenario():
            documents = documents_for(seed=5)
            offline = offline_reference(documents)
            assert len(offline) >= 6, "need a non-trivial stream"
            service = SpexService(durable_config(tmp_path))
            host, port = await service.start()
            sub = await SubscriberClient.connect(host, port, durable=True)
            token = sub.session
            assert token is not None
            verdict = await sub.subscribe("q1", QUERY)
            assert verdict["type"] == "subscribed"
            producer = await ProducerClient.connect(host, port)
            stream, floors = [], {}
            for document in documents[:4]:
                await producer.send_events(document)
            assert await consume(sub, stream, floors, stop_after=2) == "enough"
            await sub.close()  # abrupt: no unsubscribe, no goodbye
            # the detached session keeps accruing WAL tail while away
            for document in documents[4:]:
                await producer.send_events(document)
            await wait_for(lambda: service.committed_documents == len(documents))
            await producer.close()
            sub2 = await SubscriberClient.connect(host, port, session=token)
            assert sub2.session == token
            resumed = await sub2.resume(floors)
            assert resumed["type"] == "resumed"
            finisher = asyncio.create_task(consume(sub2, stream, floors))
            await service.stop()
            assert await finisher == "bye"
            await sub2.close()
            assert_stream_is_offline_pass(stream, offline)
            assert service.stats.sessions_resumed == 1
            assert service.stats.matches_replayed > 0
            assert not service.degraded

        run(scenario())

    def test_ack_shrinks_the_replay_tail(self, tmp_path):
        """An acked floor is never re-delivered on resume."""

        async def scenario():
            documents = documents_for(seed=9, count=5)
            offline = offline_reference(documents)
            service = SpexService(durable_config(tmp_path))
            host, port = await service.start()
            sub = await SubscriberClient.connect(host, port, durable=True)
            token = sub.session
            await sub.subscribe("q1", QUERY)
            producer = await ProducerClient.connect(host, port)
            for document in documents:
                await producer.send_events(document)
            stream, floors = [], {}
            assert await consume(sub, stream, floors, stop_after=3) == "enough"
            await sub.ack("q1", floors["q1"])
            await wait_for(lambda: service.committed_documents == len(documents))
            await sub.close()
            await producer.close()
            sub2 = await SubscriberClient.connect(host, port, session=token)
            await sub2.resume(floors)
            finisher = asyncio.create_task(consume(sub2, stream, floors))
            await service.stop()
            await finisher
            await sub2.close()
            assert_stream_is_offline_pass(stream, offline)

        run(scenario())


    def test_live_matches_during_replay_are_never_lost(self, tmp_path):
        """Live matches that arrive while the WAL tail replays divert to
        the resume buffer; with a one-slot queue every put blocks, so a
        match can land in the buffer *during* the flush — the drain loop
        must re-check emptiness after each put or it is lost forever."""

        async def scenario():
            documents = documents_for(seed=11, count=10)
            offline = offline_reference(documents)
            service = SpexService(durable_config(tmp_path))
            host, port = await service.start()
            sub = await SubscriberClient.connect(host, port, durable=True)
            token = sub.session
            await sub.subscribe("q1", QUERY)
            producer = await ProducerClient.connect(host, port)
            for document in documents[:5]:
                await producer.send_events(document)
            await wait_for(lambda: service.committed_documents == 5)
            await sub.close()  # abrupt: the tail accrues unacked
            sub2 = await SubscriberClient.connect(
                host, port, session=token, queue_size=1
            )
            # the resume frame goes out *before* the feeder starts, so
            # every second-half match lands during the replay window and
            # exercises the diversion buffer + drain loop
            await sub2.conn.send(resume_frame({}))

            async def feed():
                for document in documents[5:]:
                    await producer.send_events(document)

            feeder = asyncio.create_task(feed())
            stream, floors = [], {}
            while True:
                frame = await sub2.conn.recv()
                assert frame is not None, "connection died awaiting 'resumed'"
                if frame.get("type") == "resumed":
                    break
                if frame.get("type") == "match":
                    stream.append(
                        (
                            frame["seq"],
                            frame["match"]["position"],
                            frame["match"]["label"],
                        )
                    )
                    qid = frame["query_id"]
                    floors[qid] = max(floors.get(qid, 0), frame["seq"])
            finisher = asyncio.create_task(consume(sub2, stream, floors))
            await feeder
            await wait_for(lambda: service.committed_documents == len(documents))
            await producer.close()
            await service.stop()
            assert await finisher == "bye"
            await sub2.close()
            # replayed tail first, then every live match: the offline
            # pass exactly, no gap where a buffered frame vanished
            assert_stream_is_offline_pass(stream, offline)

        run(scenario())

    def test_ack_past_the_counter_cannot_blackhole(self, tmp_path):
        """An ack beyond the highest assigned sequence is clamped; it
        must not raise the floor above all future matches and silently
        suppress the rest of the subscription."""

        async def scenario():
            documents = documents_for(seed=7, count=6)
            offline = offline_reference(documents)
            service = SpexService(durable_config(tmp_path))
            host, port = await service.start()
            sub = await SubscriberClient.connect(host, port, durable=True)
            await sub.subscribe("q1", QUERY)
            producer = await ProducerClient.connect(host, port)
            stream, floors = [], {}
            for document in documents[:3]:
                await producer.send_events(document)
            first = len(offline_reference(documents[:3]))
            assert first > 0
            assert await consume(sub, stream, floors, stop_after=first) == "enough"
            await sub.ack("q1", floors["q1"] + 1000)  # buggy client
            for document in documents[3:]:
                await producer.send_events(document)
            await wait_for(lambda: service.committed_documents == len(documents))
            await producer.close()
            finisher = asyncio.create_task(consume(sub, stream, floors))
            await service.stop()
            assert await finisher == "bye"
            await sub.close()
            assert_stream_is_offline_pass(stream, offline)

        run(scenario())

    def test_resume_with_inflated_floors_cannot_blackhole(self, tmp_path):
        """The acked map in a resume frame is clamped the same way."""

        async def scenario():
            documents = documents_for(seed=3, count=6)
            offline = offline_reference(documents)
            service = SpexService(durable_config(tmp_path))
            host, port = await service.start()
            sub = await SubscriberClient.connect(host, port, durable=True)
            token = sub.session
            await sub.subscribe("q1", QUERY)
            producer = await ProducerClient.connect(host, port)
            stream, floors = [], {}
            for document in documents[:3]:
                await producer.send_events(document)
            first = len(offline_reference(documents[:3]))
            assert await consume(sub, stream, floors, stop_after=first) == "enough"
            await sub.close()
            sub2 = await SubscriberClient.connect(host, port, session=token)
            await sub2.resume({"q1": floors["q1"] + 1000})  # inflated claim
            for document in documents[3:]:
                await producer.send_events(document)
            await wait_for(lambda: service.committed_documents == len(documents))
            await producer.close()
            finisher = asyncio.create_task(consume(sub2, stream, floors))
            await service.stop()
            assert await finisher == "bye"
            await sub2.close()
            assert_stream_is_offline_pass(stream, offline)

        run(scenario())


class TestServiceNativeResume:
    @pytest.mark.parametrize("crash_after", [2, 5, 7])
    def test_service_crash_then_native_resume_matches_offline(
        self, tmp_path, crash_after
    ):
        """SIGKILL-equivalent at a document boundary; generation two is
        rebuilt checkpoint+WAL → listening server, never the offline path."""

        async def scenario():
            documents = documents_for(seed=11, count=8, elements=20)
            offline = offline_reference(documents)
            service = SpexService(durable_config(tmp_path))
            host, port = await service.start()
            sub = await SubscriberClient.connect(host, port, durable=True)
            token = sub.session
            await sub.subscribe("q1", QUERY)
            producer = await ProducerClient.connect(host, port)
            stream, floors = [], {}
            for document in documents[:crash_after]:
                await producer.send_events(document)
            assert await consume(sub, stream, floors, stop_after=2) == "enough"
            await wait_for(lambda: service.committed_documents == crash_after)
            await crash(service)
            await sub.close()
            await producer.close()

            service2 = SpexService(durable_config(tmp_path, resume=True))
            host2, port2 = await service2.start()
            assert service2.resumed or service2.committed_documents >= 0
            assert service2.session_count == 1
            sub2 = await SubscriberClient.connect(host2, port2, session=token)
            assert sub2.session == token
            resumed = await sub2.resume(floors)
            assert resumed["documents"] == crash_after
            producer2 = await ProducerClient.connect(host2, port2)
            replay_from = producer2.conn.welcome["replay_from"]
            assert 1 <= replay_from <= crash_after + 1
            for document in documents[replay_from - 1 :]:
                await producer2.send_events(document)
            await wait_for(
                lambda: service2.committed_documents == len(documents)
            )
            await producer2.close()
            finisher = asyncio.create_task(consume(sub2, stream, floors))
            await service2.stop()
            assert await finisher == "bye"
            await sub2.close()
            assert_stream_is_offline_pass(stream, offline)
            assert service2.stats.sessions_resumed == 1

        run(scenario())

    def test_two_queries_keep_their_registration_order_across_a_crash(
        self, tmp_path
    ):
        """Regression: one durable subscriber, two queries deciding on
        the same events, subscribed in an order that is not the order of
        their engine ids.  The checkpoint *file* used to hand generation
        two the subscriptions in key order, so its live deliveries came
        out ``a`` before ``z`` where generation one (and the offline
        pass) emit ``z`` before ``a``."""
        crash_after = 3  # a checkpoint boundary: nothing is rebuilt silently

        async def frames_of(client, wire, floors):
            async for frame in client.frames():
                if frame.get("type") == "match":
                    qid = frame["query_id"]
                    wire.append((frame["document"], qid, frame["match"]["position"]))
                    floors[qid] = max(floors.get(qid, 0), frame["seq"])
                elif frame.get("type") == "bye":
                    return

        async def scenario():
            documents = documents_for(seed=11, count=7, elements=20)
            offline, document = [], -1
            pump = MultiQueryEngine({"z": QUERY, "a": QUERY}).start_pump()
            for event in (e for d in documents for e in d):
                document += type(event).__name__ == "StartDocument"
                offline += [(document, q, m.position) for q, m in pump.feed(event)]
            tail = [entry for entry in offline if entry[0] >= crash_after]
            assert [q for _, q, _ in tail[:2]] == ["z", "a"]

            service = SpexService(durable_config(tmp_path))
            host, port = await service.start()
            sub = await SubscriberClient.connect(host, port, durable=True)
            token = sub.session
            for qid in ("z", "a"):
                assert (await sub.subscribe(qid, QUERY))["type"] == "subscribed"
            producer = await ProducerClient.connect(host, port)
            for document in documents[:crash_after]:
                await producer.send_events(document)
            await wait_for(lambda: service.committed_documents == crash_after)
            await wait_for(lambda: service.stats.checkpoints_written == 1)
            await crash(service)
            wire, floors = [], {}
            await sub.close()
            await producer.close()

            service2 = SpexService(durable_config(tmp_path, resume=True))
            host2, port2 = await service2.start()
            assert service2.resumed
            sub2 = await SubscriberClient.connect(host2, port2, session=token)
            await sub2.resume(floors)
            producer2 = await ProducerClient.connect(host2, port2)
            assert producer2.conn.welcome["replay_from"] == crash_after + 1
            for document in documents[crash_after:]:
                await producer2.send_events(document)
            await wait_for(lambda: service2.committed_documents == len(documents))
            await producer2.close()
            finisher = asyncio.create_task(frames_of(sub2, wire, floors))
            await service2.stop()
            await finisher
            await sub2.close()
            # the WAL tail replays query by query; what generation two
            # delivers live must interleave exactly as the offline pass
            assert [entry for entry in wire if entry[0] >= crash_after] == tail

        run(scenario())

    def test_resume_without_checkpoint_rebuilds_from_wal_alone(self, tmp_path):
        """No checkpoint ever written: the WAL alone replays the pass."""

        async def scenario():
            documents = documents_for(seed=3, count=6)
            offline = offline_reference(documents)
            config = durable_config(
                tmp_path, checkpoint_every_documents=10_000
            )
            service = SpexService(config)
            host, port = await service.start()
            sub = await SubscriberClient.connect(host, port, durable=True)
            token = sub.session
            await sub.subscribe("q1", QUERY)
            producer = await ProducerClient.connect(host, port)
            stream, floors = [], {}
            for document in documents[:4]:
                await producer.send_events(document)
            assert await consume(sub, stream, floors, stop_after=1) == "enough"
            await wait_for(lambda: service.committed_documents == 4)
            await crash(service)
            await sub.close()
            await producer.close()

            service2 = SpexService(
                durable_config(
                    tmp_path, checkpoint_every_documents=10_000, resume=True
                )
            )
            host2, port2 = await service2.start()
            assert not service2.resumed, "no checkpoint existed to resume"
            assert service2.committed_documents == 4
            sub2 = await SubscriberClient.connect(host2, port2, session=token)
            await sub2.resume(floors)
            producer2 = await ProducerClient.connect(host2, port2)
            assert producer2.conn.welcome["replay_from"] == 1
            for document in documents:
                await producer2.send_events(document)
            await wait_for(
                lambda: service2.committed_documents == len(documents)
            )
            await producer2.close()
            finisher = asyncio.create_task(consume(sub2, stream, floors))
            await service2.stop()
            await finisher
            await sub2.close()
            assert_stream_is_offline_pass(stream, offline)
            assert service2.stats.documents_rebuilt == 4

        run(scenario())


class TestResumedLatches:
    def test_tenant_budget_survives_the_crash(self, tmp_path):
        """Recovered sessions still count against their tenant's budget —
        no free subscriptions via crashing the server."""

        async def scenario():
            service = SpexService(
                durable_config(tmp_path, max_subscriptions_per_tenant=1)
            )
            host, port = await service.start()
            sub = await SubscriberClient.connect(
                host, port, tenant="acme", durable=True
            )
            verdict = await sub.subscribe("q1", QUERY)
            assert verdict["type"] == "subscribed"
            producer = await ProducerClient.connect(host, port)
            await producer.send_events(documents_for(seed=1, count=1)[0])
            await wait_for(lambda: service.committed_documents == 1)
            await crash(service)
            await sub.close()
            await producer.close()

            service2 = SpexService(
                durable_config(
                    tmp_path, max_subscriptions_per_tenant=1, resume=True
                )
            )
            host2, port2 = await service2.start()
            fresh = await SubscriberClient.connect(host2, port2, tenant="acme")
            verdict = await fresh.subscribe("q2", QUERY)
            assert verdict["type"] == "rejected"
            assert verdict["code"] == SVC_TENANT_BUDGET
            await fresh.close()
            await service2.stop()

        run(scenario())

    def test_unknown_session_token_is_refused(self, tmp_path):
        async def scenario():
            service = SpexService(durable_config(tmp_path))
            host, port = await service.start()
            with pytest.raises(ConnectionError, match=SVC_SESSION_UNKNOWN):
                await SubscriberClient.connect(
                    host, port, session="sess-999999"
                )
            await service.stop()

        run(scenario())

    def test_refusal_is_flushed_with_a_one_slot_queue(self, tmp_path):
        """The SVC010 error + bye must reach the client even when its
        chosen queue_size is 1 — the refusal bypasses the queue."""

        async def scenario():
            service = SpexService(durable_config(tmp_path))
            host, port = await service.start()
            with pytest.raises(ConnectionError, match=SVC_SESSION_UNKNOWN):
                await SubscriberClient.connect(
                    host, port, session="sess-nobody", queue_size=1
                )
            await service.stop()

        run(scenario())

    def test_expired_session_token_is_distinguished(self, tmp_path):
        """A token aged out by retention gets SVC011, not SVC010."""

        async def scenario():
            service = SpexService(
                durable_config(
                    tmp_path,
                    session_retention_documents=1,
                    checkpoint_every_documents=2,
                )
            )
            host, port = await service.start()
            sub = await SubscriberClient.connect(host, port, durable=True)
            token = sub.session
            await sub.subscribe("q1", QUERY)
            await sub.close()  # disconnect: retention clock starts
            producer = await ProducerClient.connect(host, port)
            for document in documents_for(seed=2, count=6):
                await producer.send_events(document)
            await wait_for(lambda: service.stats.sessions_expired == 1)
            await producer.close()
            with pytest.raises(ConnectionError, match=SVC_SESSION_EXPIRED):
                await SubscriberClient.connect(host, port, session=token)
            # nothing of the session outlives it but the tombstone that
            # tells SVC011 from SVC010: the token can never resume, so
            # its sequence counter, tenant slot and outcome are dropped
            assert service.stats.matches_logged > 0  # it had a counter
            assert service.durable.seqs == {}
            assert not service._tenant_counts
            assert service.engine.serving.outcomes == {}
            assert service.engine.serving.departed == 1
            await service.stop()

        run(scenario())

    def test_expired_sessions_leave_no_counter_behind(self, tmp_path):
        """Regression: the log kept a second counter table, which every
        compaction rewrote into its base record and every resume read
        back, so counters of expired sessions outlived them for good."""
        expired = 3

        async def scenario():
            config = durable_config(
                tmp_path,
                session_retention_documents=1,
                checkpoint_every_documents=2,
                wal_max_bytes=1,  # compact at every checkpoint cadence
            )
            service = SpexService(config)
            host, port = await service.start()
            for _ in range(expired):
                sub = await SubscriberClient.connect(host, port, durable=True)
                await sub.subscribe("q1", QUERY)
                await sub.close()  # disconnect: retention clock starts
            producer = await ProducerClient.connect(host, port)
            for document in documents_for(seed=2, count=8):
                await producer.send_events(document)
            await wait_for(lambda: service.stats.sessions_expired == expired)
            await wait_for(lambda: service.committed_documents == 8)
            await producer.close()
            assert service.stats.matches_logged >= expired  # they had counters
            assert service.stats.wal_compactions > 0
            assert service.durable.seqs == {}
            await service.stop()
            with open(config.wal_path, "rb") as handle:
                base = json.loads(handle.readline())
            assert base["t"] == "base"
            assert base["seqs"] == {}

            resumed = SpexService(durable_config(tmp_path, resume=True))
            await resumed.start()
            assert resumed.session_count == 0
            assert resumed.durable.seqs == {}
            await resumed.stop()

        run(scenario())


class TestLoadgenCrashReconnect:
    def test_crash_reconnect_mode_is_lossless(self, tmp_path):
        """The seeded chaos client crashes, resumes, and still observes
        the complete stream with a measured recovery time."""

        async def scenario():
            config = LoadConfig(
                documents=10,
                doc_elements=16,
                subscribers=3,
                queries_per_subscriber=1,
                crash_reconnect_subscribers=2,
                crash_after_matches=2,
                seed=1,
            )
            # offline expectation per subscriber query, over the same corpus
            documents = load_documents(config)
            subscriptions = load_subscriptions(config)
            queries = {
                f"{index}:{qid}": query
                for index, subs in enumerate(subscriptions)
                for qid, query in subs
            }
            flat = [event for document in documents for event in document]
            expected: dict[str, int] = {}
            for owner, _match in MultiQueryEngine(queries).serve(iter(flat)):
                expected[owner] = expected.get(owner, 0) + 1
            report, service = await run_load_async(
                config, durable_config(tmp_path)
            )
            assert service is not None
            assert report.drained_cleanly
            assert report.reconnects == 2  # both chaos clients crash (seed 1)
            assert len(report.recovery_times) == report.reconnects
            assert report.max_recovery > 0.0
            assert service.stats.sessions_resumed == report.reconnects
            for result in report.subscribers:
                for qid in result.queries:
                    want = expected.get(f"{result.index}:{qid}", 0)
                    got = sum(1 for m in result.matches if m[0] == qid)
                    assert got == want, (result.index, qid, got, want)
                if result.reconnects:
                    # exactly-once across the crash: contiguous from 1
                    assert result.seqs == list(range(1, len(result.seqs) + 1))

        run(scenario())
