"""Unit tests for the sharded-serving building blocks.

Covers partitioning (hash stability), the heartbeat monitor on a fake
clock, checkpoint quarantine surgery, the extracted
:class:`~repro.core.clock.ExponentialBackoff`, per-shard fault
seeding, breaker latching, the mergeable
:class:`~repro.core.serving.ServingReport` codec, and a coordinator's
per-pass fault log, and what a worker sends back.  End-to-end crash /
stall / poison behaviour (real worker processes) lives in
``tests/integration/test_shards.py``.
"""

import os
import pickle
import zlib
from types import SimpleNamespace

import pytest

from repro import (
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    CheckpointError,
    FakeClock,
    HeartbeatMonitor,
    MultiQueryEngine,
    ServingReport,
    ShardConfig,
    ShardCoordinator,
    StreamCursor,
    partition_queries,
)
from repro.core.serving import QueryOutcome, ServingPolicy
from repro.core.shards import (
    SHARD_CRASH,
    SHARD_RESTORED,
    _Chunks,
    _drive,
    _Uplink,
    _WorkerSpec,
    quarantine_in_checkpoint,
)
from repro.core.clock import ExponentialBackoff
from repro.xmlstream import iter_events
from repro.xmlstream.faults import FaultInjector

DOC = "<a><b><c/></b><b/><c/></a>"


# ----------------------------------------------------------------------
# partitioning


class TestPartitionQueries:
    QUERIES = {f"q{i}": "_*.a" for i in range(20)}

    def test_hash_is_disjoint_and_covering(self):
        layout = partition_queries(self.QUERIES, 4)
        flat = [qid for ids in layout for qid in ids]
        assert sorted(flat) == sorted(self.QUERIES)
        assert len(flat) == len(set(flat))

    def test_hash_is_crc32_stable(self):
        # The layout must be a pure function of the id — never the
        # interpreter's salted hash() — so restarted coordinators
        # rebuild the identical topology.
        layout = partition_queries(self.QUERIES, 3)
        for shard, ids in enumerate(layout):
            for qid in ids:
                assert zlib.crc32(qid.encode("utf-8")) % 3 == shard

    def test_single_shard_gets_everything(self):
        layout = partition_queries(self.QUERIES, 1)
        assert len(layout) == 1
        assert sorted(layout[0]) == sorted(self.QUERIES)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            partition_queries(self.QUERIES, 0)


# ----------------------------------------------------------------------
# heartbeats


class TestHeartbeatMonitor:
    def test_fresh_shard_is_not_stalled(self):
        monitor = HeartbeatMonitor(1.0, FakeClock())
        assert not monitor.stalled(0)

    def test_stall_after_silence(self):
        clock = FakeClock()
        monitor = HeartbeatMonitor(1.0, clock)
        monitor.beat(0)
        clock.advance(0.9)
        assert not monitor.stalled(0)
        clock.advance(0.2)
        assert monitor.stalled(0)

    def test_beat_resets_the_budget(self):
        clock = FakeClock()
        monitor = HeartbeatMonitor(1.0, clock)
        monitor.beat(0)
        clock.advance(0.9)
        monitor.beat(0)
        clock.advance(0.9)
        assert not monitor.stalled(0)

    def test_shards_are_independent(self):
        clock = FakeClock()
        monitor = HeartbeatMonitor(1.0, clock)
        monitor.beat(0)
        monitor.beat(1)
        clock.advance(1.5)
        monitor.beat(1)
        assert monitor.stalled(0)
        assert not monitor.stalled(1)

    def test_disarm_silences_the_watchdog(self):
        clock = FakeClock()
        monitor = HeartbeatMonitor(1.0, clock)
        monitor.beat(0)
        clock.advance(5.0)
        monitor.disarm(0)
        assert not monitor.stalled(0)

    def test_none_timeout_disables_detection(self):
        clock = FakeClock()
        monitor = HeartbeatMonitor(None, clock)
        monitor.beat(0)
        clock.advance(1e9)
        assert not monitor.stalled(0)

    def test_silence_reports_elapsed(self):
        clock = FakeClock()
        monitor = HeartbeatMonitor(1.0, clock)
        assert monitor.silence(0) == 0.0
        monitor.beat(0)
        clock.advance(2.5)
        assert monitor.silence(0) == pytest.approx(2.5)


# ----------------------------------------------------------------------
# checkpoint quarantine surgery


def serving_checkpoint(queries=None):
    engine = MultiQueryEngine(queries or {"q1": "_*.b", "q2": "_*.c"})
    for _ in engine.serve(DOC, cursor=StreamCursor()):
        pass
    return engine, engine.checkpoint()


class TestQuarantineInCheckpoint:
    def test_latches_breaker_and_drops_network(self):
        _engine, checkpoint = serving_checkpoint()
        edited = quarantine_in_checkpoint(checkpoint, ["q1"], max_trips=3)
        payload = edited.require("multiquery")
        assert "q1" not in payload["runners"]
        breaker = payload["serving"]["breakers"]["q1"]
        assert breaker["state"] == "open"
        assert breaker["trips"] == 3
        outcome = payload["serving"]["outcomes"]["q1"]
        assert outcome["status"] == "quarantined"
        assert outcome["code"] == "POISON"
        assert outcome["degraded"] is True

    def test_original_checkpoint_is_untouched(self):
        _engine, checkpoint = serving_checkpoint()
        before = checkpoint.to_dict()
        quarantine_in_checkpoint(checkpoint, ["q1"], max_trips=3)
        assert checkpoint.to_dict() == before

    def test_bumps_quarantine_counter_once(self):
        _engine, checkpoint = serving_checkpoint()
        payload = checkpoint.require("multiquery")
        base = payload["serving"]["report"]["quarantines"]
        edited = quarantine_in_checkpoint(checkpoint, ["q1"], max_trips=3)
        twice = quarantine_in_checkpoint(edited, ["q1"], max_trips=3)
        report = twice.require("multiquery")["serving"]["report"]
        # Re-latching an already-quarantined query is idempotent.
        assert report["quarantines"] == base + 1

    def test_unknown_query_raises(self):
        _engine, checkpoint = serving_checkpoint()
        with pytest.raises(CheckpointError, match="not in the checkpoint"):
            quarantine_in_checkpoint(checkpoint, ["ghost"], max_trips=3)

    def test_non_serving_checkpoint_raises(self):
        engine = MultiQueryEngine({"q1": "_*.b"})
        cursor = StreamCursor()
        for _ in engine.run(DOC, cursor=cursor):
            pass
        checkpoint = engine.checkpoint()
        with pytest.raises(CheckpointError, match="non-serving"):
            quarantine_in_checkpoint(checkpoint, ["q1"], max_trips=3)

    def test_resume_keeps_latched_query_out(self):
        from repro.xmlstream import iter_events

        _engine, checkpoint = serving_checkpoint()
        edited = quarantine_in_checkpoint(checkpoint, ["q1"], max_trips=3)
        events = list(iter_events(DOC))
        fresh = MultiQueryEngine({"q1": "_*.b", "q2": "_*.c"})
        # Source = the consumed prefix plus one more document; resume
        # skips the prefix, replays the second document, and the
        # latched q1 must never produce again while q2 streams on.
        replay = list(fresh.resume(edited, iter(events + events)))
        assert {qid for qid, _ in replay} == {"q2"}
        outcome = fresh.serving.outcomes["q1"]
        assert outcome.status == "quarantined"
        assert outcome.code == "POISON"


# ----------------------------------------------------------------------
# backoff


class TestExponentialBackoff:
    def test_deterministic_per_seed(self):
        a = ExponentialBackoff(seed=7)
        b = ExponentialBackoff(seed=7)
        assert [a.delay(i) for i in range(1, 6)] == [
            b.delay(i) for i in range(1, 6)
        ]

    def test_seeds_diverge(self):
        a = ExponentialBackoff(seed=1)
        b = ExponentialBackoff(seed=2)
        assert [a.delay(i) for i in range(1, 6)] != [
            b.delay(i) for i in range(1, 6)
        ]

    def test_growth_and_cap(self):
        backoff = ExponentialBackoff(
            initial=1.0, factor=2.0, maximum=8.0, jitter=0.0
        )
        assert [backoff.delay(i) for i in range(1, 6)] == [
            1.0,
            2.0,
            4.0,
            8.0,
            8.0,
        ]

    def test_jitter_stays_in_band(self):
        backoff = ExponentialBackoff(
            initial=1.0, factor=1.0, maximum=10.0, jitter=0.1, seed=3
        )
        for _ in range(100):
            assert 0.9 <= backoff.delay(1) <= 1.1


# ----------------------------------------------------------------------
# per-shard fault seeding


class TestFaultInjectorForShard:
    def test_derived_streams_differ(self):
        base = FaultInjector(seed=42)
        a, b = base.for_shard(0), base.for_shard(1)
        assert a.seed != b.seed
        assert [a.rng.random() for _ in range(5)] != [
            b.rng.random() for _ in range(5)
        ]

    def test_derivation_is_reproducible(self):
        assert (
            FaultInjector(seed=42).for_shard(3).seed
            == FaultInjector(seed=42).for_shard(3).seed
        )

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(seed=1).for_shard(-1)


# ----------------------------------------------------------------------
# breaker latch


class TestBreakerLatch:
    def test_latch_exhausts_the_breaker(self):
        breaker = CircuitBreaker(BreakerPolicy(max_trips=3))
        breaker.latch()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 3
        assert not breaker.admits()

    def test_latch_never_lowers_trips(self):
        breaker = CircuitBreaker(BreakerPolicy(max_trips=2))
        breaker.trips = 5
        breaker.latch()
        assert breaker.trips == 5

    def test_latch_requires_finite_max_trips(self):
        breaker = CircuitBreaker(BreakerPolicy(max_trips=None))
        with pytest.raises(ValueError):
            breaker.latch()


# ----------------------------------------------------------------------
# report codec / merge


class TestServingReportCodec:
    def make(self):
        report = ServingReport()
        report.documents_seen = 2
        report.breaker_trips = 1
        outcome = report.outcome("q1")
        outcome.status = "quarantined"
        outcome.code = "POISON"
        outcome.degraded = True
        outcome.matches = 4
        return report

    def test_round_trip(self):
        report = self.make()
        again = ServingReport.from_obj(report.to_obj())
        assert again.to_obj() == report.to_obj()
        assert again.outcomes["q1"].code == "POISON"

    def test_merged_sums_counters(self):
        left, right = self.make(), ServingReport()
        right.documents_seen = 5
        right.quarantines = 2
        right.outcome("q2").matches = 7
        merged = ServingReport.merged([left, right])
        # documents_seen is per-stream, not additive across shards.
        assert merged.documents_seen == 5
        assert merged.breaker_trips == 1
        assert merged.quarantines == 2
        assert set(merged.outcomes) == {"q1", "q2"}

    def test_outcome_round_trip(self):
        outcome = QueryOutcome("q")
        outcome.status = "degraded"
        outcome.code = "DEADLINE_DOC"
        outcome.matches = 3
        again = QueryOutcome.from_obj("q", outcome.to_obj())
        assert again.to_obj() == outcome.to_obj()


# ----------------------------------------------------------------------
# config validation


class TestShardConfig:
    def test_defaults_are_valid(self):
        config = ShardConfig()
        assert config.shards == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"heartbeat_interval": 0.0},
            {"heartbeat_interval": 2.0, "heartbeat_timeout": 1.0},
            {"max_trips": 0},
            {"batch_events": 0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ShardConfig(**kwargs)

    def test_none_timeout_is_allowed(self):
        assert ShardConfig(heartbeat_timeout=None).heartbeat_timeout is None


# ----------------------------------------------------------------------
# a reused coordinator


def _exit_at_twenty(shard, incarnation, index, live):
    if incarnation == 0 and index == 20:
        os._exit(7)


class TestReusedCoordinator:
    """The shard log, the recovery counters and the restart backoffs
    belong to one ``run()``: a second pass reports its own faults only."""

    def test_second_run_reports_only_its_own_faults(self):
        coordinator = ShardCoordinator(
            {"x": "_*.a[b].c", "y": "_*.a.c"},
            ShardConfig(shards=2),
            fault_hook=_exit_at_twenty,
        )
        stream = "<doc><a><b/><c/></a><a><c/><b/></a></doc>"
        results = [
            coordinator.run(iter(list(iter_events(stream)) * 4)) for _ in range(2)
        ]
        for result in results:
            assert [entry.code for entry in result.shard_log] == [
                SHARD_CRASH,
                SHARD_RESTORED,
            ]
            assert result.restarts == 1
            assert result.robustness.retries == 1
        assert results[0].matches == results[1].matches


# ----------------------------------------------------------------------
# the worker's uplink


class TestWorkerUplink:
    """What a worker sends back: one commit per ``</$>`` with that
    document's matches, and no message per match."""

    QUERIES = {"x": "_*.a[b].c", "y": "_*.a.c", "z": "_*.b"}
    DOCUMENT = "<doc><a><b/><c/></a><a><c/><b/></a></doc>"

    def test_one_commit_per_document_carries_its_matches(self):
        events = list(iter_events(self.DOCUMENT)) * 3
        reference = MultiQueryEngine(self.QUERIES).start_pump()
        per_event = [reference.feed(event) for event in events]
        sent: list[tuple] = []
        calls = []
        # a clock that never moves: no heartbeat is ever due
        uplink = _Uplink(SimpleNamespace(send=sent.append), FakeClock(), 0.05)

        def hook(shard, incarnation, index, live):
            committed = sum(len(message[2]) for message in sent)
            calls.append((index, pump.cursor.events_read, committed + len(uplink.held)))

        spec = _WorkerSpec(
            shard=0,
            incarnation=0,
            queries=dict(self.QUERIES),
            collect_events=False,
            limits=None,
            admission=None,
            policy=ServingPolicy(),
            heartbeat_interval=0.05,
            checkpoint_path=None,
            checkpoint=None,
            quarantined=(),
            hook=hook,
        )
        engine = spec.engine()
        pump = engine.start_pump(spec.policy, cursor=StreamCursor())
        _drive(spec, engine, pump, iter(events), uplink)

        assert [message[0] for message in sent] == ["commit"] * 3
        assert [message[1].position for message in sent] == [16, 32, 48]
        assert [pair for message in sent for pair in message[2]] == [
            pair for out in per_event for pair in out
        ]
        assert uplink.held == []
        # the hook runs once per event, before the event is counted and
        # after every earlier event's matches are held
        assert calls == [
            (index, index, sum(len(out) for out in per_event[:index]))
            for index in range(len(events))
        ]


class TestBeatAndCommitGranularity:
    """Per chunk a worker reads the clock at most once; per document it
    sends one commit, however the documents are cut."""

    def test_one_commit_per_document_and_one_clock_read_per_chunk(self):
        class CountingClock(FakeClock):
            reads = 0

            def monotonic(self):
                self.reads += 1
                self.advance(0.01)  # a heartbeat is due every 5th chunk
                return super().monotonic()

        document = list(iter_events("<doc><a><b/><c/></a><a><c/><b/></a></doc>"))
        documents = 5
        chunks = _Chunks(iter(document * documents), batch_events=7)
        sent: list[tuple] = []
        clock = CountingClock()
        uplink = _Uplink(SimpleNamespace(send=sent.append), clock, 0.05)
        spec = _WorkerSpec(
            0, 0, {"x": "_*.a[b].c", "y": "_*.b"}, False, None, None,
            ServingPolicy(), 0.05, None, None, (), None,
        )  # fmt: skip
        engine = spec.engine()
        pump = engine.start_pump(spec.policy, cursor=StreamCursor())
        clock.reads = 0
        for data in chunks.everything():
            _drive(spec, engine, pump, pickle.loads(data), uplink)
        kinds = [message[0] for message in sent]
        assert kinds.count("commit") == documents
        assert 0 < kinds.count("hb") < len(chunks.data)
        assert clock.reads <= len(chunks.data) == 3 * documents


class TestChunks:
    """The coordinator's cut of the stream: a chunk ends at every
    ``</$>`` and after ``batch_events`` events inside a document."""

    def test_cut_and_restart_lookup(self):
        document = list(iter_events("<doc><a><b/><c/></a><a><c/><b/></a></doc>"))
        chunks = _Chunks(iter(document * 2), batch_events=7)
        assert chunks.get(1) is not None and len(chunks.data) == 2  # cut as taken
        decoded = [pickle.loads(data) for data in chunks.everything()]
        assert [len(chunk) for chunk in decoded] == [7, 7, 2, 7, 7, 2]
        assert [event for chunk in decoded for event in chunk] == document * 2
        assert chunks.events == 32
        assert chunks.starting_at(0) == 0 and chunks.starting_at(16) == 3
        # a checkpoint at the stream's end resumes past the last chunk
        assert chunks.starting_at(chunks.events) == len(chunks.data) == 6
        with pytest.raises(CheckpointError, match="no chunk starts at stream position 5"):
            chunks.starting_at(5)
