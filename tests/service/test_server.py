"""Integration tests for the asyncio service (no real sleeping where a
FakeClock can decide the deadline instead)."""

import asyncio
import json
import os
import subprocess
import sys
from collections import defaultdict

import pytest

from repro.core.clock import FakeClock
from repro.core.multiquery import MultiQueryEngine
from repro.core.output_tx import Match
from repro.core.serving import AdmissionPolicy, classify_admission
from repro.rpeq.parser import parse
from repro.service.client import ProducerClient, SubscriberClient
from repro.service.protocol import (
    SVC_BAD_DOCUMENT,
    SVC_DRAINING,
    SVC_HANDSHAKE_TIMEOUT,
    SVC_IDLE_TIMEOUT,
    SVC_OVERFLOW,
    SVC_PROTOCOL,
    SVC_TENANT_BUDGET,
    bye_frame,
    encode_frame,
    encode_match,
    notice_frame,
)
from repro.service.server import _CLOSE, ServiceConfig, SpexService, _Connection
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    Text,
)


def run(coro):
    """Drive one async test with a global stall guard."""
    return asyncio.run(asyncio.wait_for(coro, 30))


def fast_config(**overrides) -> ServiceConfig:
    defaults = dict(tick=0.005, heartbeat_interval=None, drain_grace=2.0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def flat_doc(*labels) -> list:
    """``<$><r><x/><y/>...</r></$>`` — one flat document."""
    events = [StartDocument(), StartElement("r")]
    for label in labels:
        events.append(StartElement(label))
        events.append(EndElement(label))
    events.append(EndElement("r"))
    events.append(EndDocument())
    return events


def offline_matches(queries: dict, documents: list) -> dict:
    """Ground truth: the same documents through an offline pump."""
    engine = MultiQueryEngine(queries)
    pump = engine.start_pump()
    out = defaultdict(list)
    for document in documents:
        for event in document:
            for query_id, match in pump.feed(event):
                out[query_id].append(
                    (pump.serving.documents_seen - 1, match.position, match.label)
                )
    return dict(out)


async def collect_frames(client: SubscriberClient) -> list:
    return [frame async for frame in client.frames()]


def match_tuples(frames: list, query_id: str) -> list:
    return [
        (f["document"], f["match"]["position"], f["match"]["label"])
        for f in frames
        if f.get("type") == "match" and f.get("query_id") == query_id
    ]


class TestPubSub:
    def test_single_subscriber_matches_offline_pass(self):
        async def scenario():
            service = SpexService(fast_config())
            host, port = await service.start()
            sub = await SubscriberClient.connect(host, port)
            verdict = await sub.subscribe("q", "_*.a")
            assert verdict["type"] == "subscribed"
            assert verdict["status"] == "admit"
            assert verdict["code"] == "ADMIT000"
            documents = [flat_doc("a", "b", "a"), flat_doc("b"), flat_doc("a")]
            producer = await ProducerClient.connect(host, port)
            for document in documents:
                await producer.send_events(document)
            await producer.close()
            frames_task = asyncio.create_task(collect_frames(sub))
            await service.stop()
            frames = await frames_task
            await sub.close()
            expected = offline_matches({"q": "_*.a"}, documents)["q"]
            assert match_tuples(frames, "q") == expected
            assert frames[-1]["type"] == "bye"
            assert frames[-1]["code"] == SVC_DRAINING
            assert not service.degraded
            return service

        service = run(scenario())
        assert service.stats.documents_ingested == 3
        assert service.engine.serving.documents_seen == 3

    def test_two_subscribers_are_independent(self):
        async def scenario():
            service = SpexService(fast_config())
            host, port = await service.start()
            sub_a = await SubscriberClient.connect(host, port)
            sub_b = await SubscriberClient.connect(host, port)
            await sub_a.subscribe("q", "_*.a")
            await sub_b.subscribe("q", "_*.b")  # same client id, own namespace
            documents = [flat_doc("a", "b"), flat_doc("b", "b")]
            producer = await ProducerClient.connect(host, port)
            for document in documents:
                await producer.send_events(document)
            await producer.close()
            tasks = [
                asyncio.create_task(collect_frames(sub_a)),
                asyncio.create_task(collect_frames(sub_b)),
            ]
            await service.stop()
            frames_a, frames_b = await asyncio.gather(*tasks)
            await sub_a.close()
            await sub_b.close()
            expected = offline_matches(
                {"qa": "_*.a", "qb": "_*.b"}, documents
            )
            assert match_tuples(frames_a, "q") == expected["qa"]
            assert match_tuples(frames_b, "q") == expected["qb"]

        run(scenario())

    def test_mid_stream_subscribe_joins_at_document_boundary(self):
        async def scenario():
            service = SpexService(fast_config())
            host, port = await service.start()
            early = await SubscriberClient.connect(host, port)
            await early.subscribe("q", "_*.a")
            producer = await ProducerClient.connect(host, port)
            await producer.send_events(flat_doc("a"))
            # wait until the engine actually consumed document 0
            while service.engine.serving.documents_seen < 1:
                await asyncio.sleep(0.01)
            late = await SubscriberClient.connect(host, port)
            await late.subscribe("q", "_*.a")
            await producer.send_events(flat_doc("a", "a"))
            await producer.close()
            tasks = [
                asyncio.create_task(collect_frames(early)),
                asyncio.create_task(collect_frames(late)),
            ]
            await service.stop()
            frames_early, frames_late = await asyncio.gather(*tasks)
            await early.close()
            await late.close()
            assert [d for d, _, _ in match_tuples(frames_early, "q")] == [0, 1, 1]
            # the late join never sees a half-document: only document 1
            assert [d for d, _, _ in match_tuples(frames_late, "q")] == [1, 1]

        run(scenario())

    def test_unsubscribe_is_clean_not_degraded(self):
        async def scenario():
            service = SpexService(fast_config())
            host, port = await service.start()
            sub = await SubscriberClient.connect(host, port)
            await sub.subscribe("q", "_*.a")
            producer = await ProducerClient.connect(host, port)
            await producer.send_events(flat_doc("a"))
            while service.engine.serving.documents_seen < 1:
                await asyncio.sleep(0.01)
            await sub.unsubscribe("q")
            frames_task = asyncio.create_task(collect_frames(sub))
            await producer.close()
            await service.stop()
            frames = await frames_task
            await sub.close()
            closed = [f for f in frames if f.get("type") == "notice"]
            assert any(f["code"] == "CLOSED" for f in closed)
            assert not service.degraded
            return service

        service = run(scenario())
        # the departed query's outcome is folded into the totals
        serving = service.engine.serving
        assert serving.outcomes == {}
        assert (serving.departed, serving.departed_degraded) == (1, 0)
        assert serving.departed_matches == 1


class TestAdmission:
    def test_wire_verdicts_mirror_classify_admission(self):
        policy = AdmissionPolicy(reject_sigma=2, depth_bound=3)
        queries = {"plain": "a", "deep": "_*.a[b.c]"}

        async def scenario():
            service = SpexService(fast_config(admission=policy))
            host, port = await service.start()
            sub = await SubscriberClient.connect(host, port)
            verdicts = {}
            for query_id, query in queries.items():
                verdicts[query_id] = await sub.subscribe(query_id, query)
            await sub.close()
            await service.stop()
            return verdicts

        verdicts = run(scenario())
        for query_id, query in queries.items():
            decision = classify_admission(parse(query), policy)
            frame = verdicts[query_id]
            if not decision.admitted:
                assert frame["type"] == "rejected"
            else:
                assert frame["type"] == "subscribed"
                assert frame["status"] == (
                    "degraded" if decision.degraded else "admit"
                )
            assert frame["code"] == decision.code

    def test_unparsable_query_rejected_not_fatal(self):
        async def scenario():
            service = SpexService(fast_config())
            host, port = await service.start()
            sub = await SubscriberClient.connect(host, port)
            bad = await sub.subscribe("bad", "](((")
            good = await sub.subscribe("good", "_*.a")
            await sub.close()
            await service.stop()
            return bad, good

        bad, good = run(scenario())
        assert bad["type"] == "rejected"
        assert bad["code"] == SVC_PROTOCOL
        assert good["type"] == "subscribed"

    def test_tenant_budget(self):
        async def scenario():
            service = SpexService(
                fast_config(max_subscriptions_per_tenant=1)
            )
            host, port = await service.start()
            sub = await SubscriberClient.connect(host, port, tenant="acme")
            first = await sub.subscribe("q1", "_*.a")
            second = await sub.subscribe("q2", "_*.b")
            other = await SubscriberClient.connect(host, port, tenant="zen")
            third = await other.subscribe("q1", "_*.a")
            await sub.close()
            await other.close()
            await service.stop()
            return first, second, third

        first, second, third = run(scenario())
        assert first["type"] == "subscribed"
        assert second["type"] == "rejected"
        assert second["code"] == SVC_TENANT_BUDGET
        assert third["type"] == "subscribed"  # budgets are per tenant

    def test_tenant_slot_frees_on_unsubscribe(self):
        async def scenario():
            service = SpexService(
                fast_config(max_subscriptions_per_tenant=1)
            )
            host, port = await service.start()
            sub = await SubscriberClient.connect(host, port, tenant="acme")
            assert (await sub.subscribe("q1", "_*.a"))["type"] == "subscribed"
            await sub.unsubscribe("q1")
            # drain the CLOSED notice before the next verdict
            retry = await sub.subscribe("q2", "_*.b")
            await sub.close()
            await service.stop()
            return retry

        assert run(scenario())["type"] == "subscribed"


class TestProducerFaultDomain:
    def test_malformed_document_rejected_stream_continues(self):
        async def scenario():
            service = SpexService(fast_config())
            host, port = await service.start()
            sub = await SubscriberClient.connect(host, port)
            await sub.subscribe("q", "_*.a")
            producer = await ProducerClient.connect(host, port)
            bad = [
                StartDocument(),
                StartElement("a"),
                EndElement("b"),  # mismatched
                EndDocument(),
            ]
            await producer.send_events(bad)
            error = await producer.conn.recv()
            assert error["type"] == "error"
            assert error["code"] == SVC_BAD_DOCUMENT
            await producer.send_events(flat_doc("a"))
            frames_task = asyncio.create_task(collect_frames(sub))
            await producer.close()
            await service.stop()
            frames = await frames_task
            await sub.close()
            # the malformed document never moved the stream position
            assert [d for d, _, _ in match_tuples(frames, "q")] == [0]
            return service

        service = run(scenario())
        assert service.stats.documents_rejected == 1
        assert service.stats.documents_ingested == 1

    def test_partial_document_from_dead_producer_is_invisible(self):
        async def scenario():
            service = SpexService(fast_config())
            host, port = await service.start()
            sub = await SubscriberClient.connect(host, port)
            await sub.subscribe("q", "_*.a")
            dying = await ProducerClient.connect(host, port)
            await dying.send_events(
                [StartDocument(), StartElement("a")]  # never finished
            )
            await dying.close()
            healthy = await ProducerClient.connect(host, port)
            await healthy.send_events(flat_doc("a"))
            frames_task = asyncio.create_task(collect_frames(sub))
            await healthy.close()
            await service.stop()
            frames = await frames_task
            await sub.close()
            assert [d for d, _, _ in match_tuples(frames, "q")] == [0]
            return service

        service = run(scenario())
        assert service.stats.partial_documents == 1
        assert service.engine.serving.documents_seen == 1
        assert not service.degraded

    def test_a_run_of_stray_events_is_one_refusal(self):
        strays = [Text("x")] * 1000 + [StartElement("a"), EndElement("a")]

        async def scenario():
            service = SpexService(fast_config())
            host, port = await service.start()
            producer = await ProducerClient.connect(host, port)
            await producer.send_events(strays)
            await producer.conn.send({"type": "ping"})
            answers = []
            while (frame := await producer.conn.recv())["type"] != "pong":
                answers.append(frame)
            await producer.send_events(flat_doc("a"))
            await producer.close()
            await service.stop()
            return service, answers

        service, answers = run(scenario())
        assert [(f["type"], f["code"]) for f in answers] == [
            ("error", SVC_BAD_DOCUMENT)
        ]
        assert answers[0]["reason"].startswith("1002 event(s) outside a <$>")
        assert answers[0]["reason"].endswith("the first: x")
        assert service.stats.documents_rejected == 1
        assert service.stats.documents_ingested == 1


class TestOverflow:
    def test_disconnect_policy_cuts_slow_subscriber(self):
        async def scenario():
            service = SpexService(fast_config())
            host, port = await service.start()
            slow = await SubscriberClient.connect(
                host, port, overflow="disconnect", queue_size=1
            )
            await slow.subscribe("q", "_*.a")
            witness = await SubscriberClient.connect(host, port)
            await witness.subscribe("q", "_*.a")
            producer = await ProducerClient.connect(host, port)
            # enough matches to overrun a 1-frame queue and the socket
            # buffer while the slow client refuses to read
            big = flat_doc(*["a"] * 4000)
            await producer.send_events(big)
            slow_task = asyncio.create_task(collect_frames(slow))
            witness_task = asyncio.create_task(collect_frames(witness))
            await producer.close()
            await service.stop()
            slow_frames = await slow_task
            witness_frames = await witness_task
            await slow.close()
            await witness.close()
            return service, slow_frames, witness_frames

        service, slow_frames, witness_frames = run(scenario())
        byes = [f for f in slow_frames if f.get("type") == "bye"]
        assert byes and byes[-1]["code"] == SVC_OVERFLOW
        # the witness on the default block policy missed nothing
        assert len(match_tuples(witness_frames, "q")) == 4000
        assert service.stats.forced_disconnects == 1
        assert service.degraded  # forced disconnects are degraded delivery

    def test_shed_oldest_trades_loss_for_liveness(self):
        async def scenario():
            service = SpexService(fast_config())
            host, port = await service.start()
            lossy = await SubscriberClient.connect(
                host, port, overflow="shed_oldest", queue_size=4
            )
            await lossy.subscribe("q", "_*.a")
            producer = await ProducerClient.connect(host, port)
            await producer.send_events(flat_doc(*["a"] * 4000))
            lossy_task = asyncio.create_task(collect_frames(lossy))
            await producer.close()
            await service.stop()
            frames = await lossy_task
            await lossy.close()
            return service, frames

        service, frames = run(scenario())
        assert service.stats.frames_shed > 0
        notices = [f for f in frames if f.get("type") == "notice"]
        assert any(f["code"] == "SHED001" for f in notices)
        assert len(match_tuples(frames, "q")) < 4000
        assert service.degraded


async def refusal_of(reader, writer, frame: dict) -> list:
    """Send one raw frame; the frames the server sends until it closes."""
    writer.write(encode_frame(frame))
    await writer.drain()
    frames = []
    while line := await reader.readline():
        frames.append(json.loads(line))
    writer.close()
    return frames


class TestMalformedFields:
    """A malformed field earns ``SVC002`` + ``bye``, never a silent close
    or an exception escaping the connection task."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("overflow", "yolo"),
            ("queue_size", "x"),
            ("queue_size", None),
            ("queue_size", 2.5),
            ("queue_size", True),
        ],
    )
    def test_bad_hello_field_is_refused(self, field, value):
        async def scenario():
            service = SpexService(fast_config())
            host, port = await service.start()
            reader, writer = await asyncio.open_connection(host, port)
            hello = {"type": "hello", "role": "subscriber", field: value}
            frames = await refusal_of(reader, writer, hello)
            await service.stop()
            return frames

        frames = run(scenario())
        assert [f["type"] for f in frames] == ["error", "bye"]
        assert all(f["code"] == SVC_PROTOCOL for f in frames)

    def test_non_integer_resume_floor_is_refused(self, tmp_path):
        async def scenario():
            service = SpexService(fast_config(wal_path=str(tmp_path / "w.wal")))
            host, port = await service.start()
            sub = await SubscriberClient.connect(host, port, durable=True)
            await sub.subscribe("q", "_*.a")
            frames = await refusal_of(
                sub.conn.reader,
                sub.conn.writer,
                {"type": "resume", "acked": {"q": "x"}},
            )
            await service.stop()
            return frames

        frames = run(scenario())
        assert [f["type"] for f in frames] == ["error", "bye"]
        assert all(f["code"] == SVC_PROTOCOL for f in frames)


class TestClockedTimeouts:
    def test_handshake_timeout_decided_on_fake_clock(self):
        clock = FakeClock()

        async def scenario():
            service = SpexService(
                fast_config(clock=clock, handshake_timeout=5.0)
            )
            host, port = await service.start()
            reader, writer = await asyncio.open_connection(host, port)
            await asyncio.sleep(0.05)  # housekeeping ticks; fake time frozen
            assert reader.at_eof() is False
            clock.advance(6.0)
            line = await reader.readline()
            writer.close()
            await service.stop()
            return line

        import json

        frame = json.loads(run(scenario()))
        assert frame["type"] == "bye"
        assert frame["code"] == SVC_HANDSHAKE_TIMEOUT

    def test_idle_producer_timed_out_on_fake_clock(self):
        clock = FakeClock()

        async def scenario():
            service = SpexService(
                fast_config(clock=clock, idle_timeout=30.0)
            )
            host, port = await service.start()
            producer = await ProducerClient.connect(host, port)
            await asyncio.sleep(0.05)
            clock.advance(31.0)
            frame = await producer.conn.recv()
            await producer.close()
            await service.stop()
            return frame

        frame = run(scenario())
        assert frame["type"] == "bye"
        assert frame["code"] == SVC_IDLE_TIMEOUT

    def test_heartbeats_on_fake_clock(self):
        clock = FakeClock()

        async def scenario():
            service = SpexService(
                fast_config(clock=clock, heartbeat_interval=10.0)
            )
            host, port = await service.start()
            sub = await SubscriberClient.connect(host, port)
            await sub.subscribe("q", "_*.a")
            clock.advance(11.0)
            await asyncio.sleep(0.05)
            frames_task = asyncio.create_task(collect_frames(sub))
            await service.stop()
            frames = await frames_task
            await sub.close()
            return frames

        frames = run(scenario())
        assert any(f.get("type") == "heartbeat" for f in frames)


class TestDrainCheckpoint:
    def test_drain_checkpoints_and_resume_completes_the_stream(self, tmp_path):
        path = tmp_path / "service.ckpt"
        documents = [flat_doc("a", "b"), flat_doc("a"), flat_doc("b", "a")]

        async def scenario():
            service = SpexService(
                fast_config(checkpoint_path=str(path))
            )
            host, port = await service.start()
            sub = await SubscriberClient.connect(host, port)
            await sub.subscribe("q", "_*.a")
            producer = await ProducerClient.connect(host, port)
            for document in documents[:2]:
                await producer.send_events(document)
            frames_task = asyncio.create_task(collect_frames(sub))
            await producer.close()
            await service.stop()
            frames = await frames_task
            await sub.close()
            return service, frames

        service, frames = run(scenario())
        assert path.exists()
        assert service.stats.checkpoints_written == 1
        from repro.core.checkpoint import Checkpoint

        checkpoint = Checkpoint.load(str(path))
        ((engine_id, _query, _lane),) = checkpoint.payload["subscriptions"]
        # resume against the full stream: the continuation must deliver
        # exactly the matches of the documents after the cut
        resumed_engine = MultiQueryEngine.from_checkpoint(checkpoint)
        stream = [event for document in documents for event in document]
        resumed = [
            (match.position, match.label)
            for _qid, match in resumed_engine.resume(checkpoint, stream)
        ]
        offline = offline_matches({"q": "_*.a"}, documents)["q"]
        delivered = match_tuples(frames, "q")
        assert [(p, l) for _d, p, l in delivered] + resumed == [
            (p, l) for _d, p, l in offline
        ]
        assert engine_id.endswith(".q")


class TestExitStatus:
    def test_clean_run_not_degraded(self):
        async def scenario():
            service = SpexService(fast_config())
            host, port = await service.start()
            sub = await SubscriberClient.connect(host, port)
            await sub.subscribe("q", "_*.a")
            frames_task = asyncio.create_task(collect_frames(sub))
            await service.stop()
            await frames_task
            await sub.close()
            return service

        assert run(scenario()).degraded is False

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(overflow="yolo")
        with pytest.raises(ValueError):
            ServiceConfig(tick=0)
        with pytest.raises(ValueError):
            ServiceConfig(subscriber_queue=0)
        with pytest.raises(ValueError):
            ServiceConfig(idle_timeout=-1)
        # the cadence runs at a WAL commit: without a log it never would
        for paths in ({}, {"wal_path": "w"}, {"checkpoint_path": "c"}):
            with pytest.raises(ValueError, match="checkpoint_every_documents"):
                ServiceConfig(checkpoint_every_documents=1, **paths)
        ServiceConfig(checkpoint_every_documents=1, wal_path="w", checkpoint_path="c")


class RecordingWriter:
    """A ``StreamWriter`` stand-in that records each ``write``."""

    def __init__(self):
        self.writes: list[bytes] = []
        self.closed = False
        self.transport = None

    def write(self, data: bytes) -> None:
        self.writes.append(data)

    async def drain(self) -> None:
        await asyncio.sleep(0)

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True


class TestWriter:
    def test_one_write_per_wake_up_in_queue_order(self):
        def line(position):
            return ("q", encode_match("q", Match(position, "a"), 0))

        async def scenario():
            service = SpexService(fast_config())
            conn = _Connection(0, None, RecordingWriter(), service.clock)
            conn.queue = asyncio.Queue()
            first = [line(1), notice_frame("N", "x", "q"), line(2)]
            second = [line(3), bye_frame(SVC_DRAINING, "done"), _CLOSE]
            for item in first:
                conn.queue.put_nowait(item)
            writer = asyncio.create_task(service._writer_loop(conn))
            while not conn.writer.writes:
                await asyncio.sleep(0)
            for item in second:
                conn.queue.put_nowait(item)
            await writer
            return conn.writer, first + second[:-1]

        writer, queued = run(scenario())
        assert len(writer.writes) == 2
        expected = [
            item[1] if isinstance(item, tuple) else encode_frame(item)
            for item in queued
        ]
        assert b"".join(writer.writes) == b"".join(expected)
        assert writer.writes[0] == b"".join(expected[:3])
        assert json.loads(writer.writes[-1].splitlines()[-1])["type"] == "bye"
        assert writer.closed

    def test_shed_oldest_with_one_slot_still_notices_and_says_bye(self):
        async def scenario():
            service = SpexService(fast_config())
            host, port = await service.start()
            lossy = await SubscriberClient.connect(
                host, port, overflow="shed_oldest", queue_size=1
            )
            await lossy.subscribe("q", "_*.a")
            producer = await ProducerClient.connect(host, port)
            await producer.send_events(flat_doc(*["a"] * 4000))
            lossy_task = asyncio.create_task(collect_frames(lossy))
            await producer.close()
            await service.stop()
            frames = await lossy_task
            await lossy.close()
            return service, frames

        service, frames = run(scenario())
        assert service.stats.frames_shed > 0
        assert any(f.get("code") == "SHED001" for f in frames)
        assert frames[-1]["type"] == "bye"
        assert frames[-1]["code"] == SVC_DRAINING
        assert len(match_tuples(frames, "q")) < 4000
        assert service.degraded


class TestImports:
    def test_serving_imports_only_what_it_serves(self):
        probe = (
            "import sys, repro.service.server; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.service')))"
        )
        loaded = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for module in ("wal", "loadgen", "supervisor"):
            assert f"repro.service.{module}'" not in loaded
        assert "repro.service.server'" in loaded
