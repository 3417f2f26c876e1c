"""Sharded-serving acceptance: crash isolation across real processes.

The load-bearing guarantee of :mod:`repro.core.shards`: for every query
that is not quarantined, the merged multi-process output is
**bit-identical** to a single-process
:meth:`~repro.core.multiquery.MultiQueryEngine.serve` pass — through
worker SIGKILLs, stalls, restarts, and poison-pill isolation of the
queries that caused them.  The chaos soaks here are the CI
``shard-chaos`` gate (``SOAK_TRIALS`` scales them up).

Workers are forked, so the deterministic fault hooks can close over
test state; they run *inside* the worker and kill or stall its process
for real.
"""

import json
import os
import random
import signal
import time
from itertools import chain

import pytest

from repro import FakeClock, MultiQueryEngine, ShardConfig, ShardCoordinator
from repro.core.serving import BreakerPolicy, ServingPolicy
from repro.core.shards import (
    SHARD_CRASH,
    SHARD_LOST,
    SHARD_POISON,
    SHARD_RESTORED,
    SHARD_STALL,
    quarantine_in_checkpoint,
    serve_sharded,
)
from repro.core.checkpoint import Checkpoint
from repro.workloads import mondial, sdi_subscriptions
from repro.xmlstream import iter_events

from ..conftest import make_random_events

TRIALS = int(os.environ.get("SOAK_TRIALS", "4"))

#: Fast restart schedule for tests (no real-time backoff waits).
FAST = {
    "backoff_initial": 0.01,
    "backoff_max": 0.05,
    "heartbeat_interval": 0.02,
}


def multi_doc_stream(*seeds, countries=6):
    """Several small MONDIAL documents — document boundaries are where
    workers checkpoint, so crashes land both before and after one."""
    return list(
        chain.from_iterable(
            mondial(seed=seed, countries=countries) for seed in seeds
        )
    )


def single_process(queries, events, policy=None):
    engine = MultiQueryEngine(queries)
    return sorted(
        (qid, match.position)
        for qid, match in engine.serve(iter(events), policy=policy)
    )


def merged_positions(result, exclude=()):
    return sorted(
        (qid, match.position)
        for qid, found in result.matches.items()
        if qid not in exclude
        for match in found
    )


class TestShardedDifferential:
    """No faults: sharding is invisible in the merged output."""

    def test_matches_single_process(self):
        queries = sdi_subscriptions(24, seed=5)
        events = multi_doc_stream(1, 2)
        result = serve_sharded(
            queries,
            iter(events),
            config=ShardConfig(shards=3, **FAST),
        )
        assert result.healthy
        assert merged_positions(result) == single_process(queries, events)

    def test_random_workload_soak(self):
        rng = random.Random(0x5A4D)
        for trial in range(TRIALS):
            events = []
            for _ in range(3):
                events.extend(
                    make_random_events(rng, max_children=3, max_depth=4)
                )
            queries = {
                "q0": "_*.b",
                "q1": "a.b",
                "q2": "_*.a[b].c",
                "q3": "_*[c].b",
                "q4": "_*.a._*.d",
                "q5": "_*.c[a]",
            }
            result = serve_sharded(
                queries,
                iter(events),
                config=ShardConfig(shards=2, seed=trial, **FAST),
            )
            assert result.healthy, f"trial {trial}: {result.summary()}"
            assert merged_positions(result) == single_process(
                queries, events
            ), f"trial {trial} diverged"

    def test_more_shards_than_queries(self):
        queries = {"q0": "_*.b"}
        events = multi_doc_stream(3)
        result = serve_sharded(
            queries, iter(events), config=ShardConfig(shards=4, **FAST)
        )
        assert result.healthy
        assert merged_positions(result) == single_process(queries, events)


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


class TestCrashRecovery:
    """SIGKILL a worker mid-stream; the restart loses nothing."""

    def test_transient_kill_is_invisible(self):
        queries = sdi_subscriptions(16, seed=5)
        events = multi_doc_stream(1, 2, 3)

        def hook(shard, incarnation, index, live):
            if shard == 0 and incarnation == 0 and index == len(events) // 2:
                _kill_self()

        coordinator = ShardCoordinator(
            queries,
            config=ShardConfig(shards=2, **FAST),
            fault_hook=hook,
        )
        result = coordinator.run(iter(events))
        codes = [entry.code for entry in result.shard_log]
        assert codes == [SHARD_CRASH, SHARD_RESTORED]
        assert not result.quarantined
        assert result.restarts == 1
        assert result.robustness.retries == 1
        assert merged_positions(result) == single_process(queries, events)

    def test_sigkill_chaos_soak(self):
        # Seeded chaos: every trial kills a random worker incarnation at
        # a random event, sometimes repeatedly (but below max_trips per
        # position) — the merged output must never change.
        queries = sdi_subscriptions(12, seed=9)
        events = multi_doc_stream(4, 5)
        expected = single_process(queries, events)
        for trial in range(TRIALS):
            rng = random.Random(0xC0DE + trial)
            shard = rng.randrange(2)
            cut = rng.randrange(1, len(events))
            kills = rng.choice([1, 2])

            def hook(s, incarnation, index, live):
                if s == shard and incarnation < kills and index == cut:
                    _kill_self()

            result = serve_sharded(
                queries,
                iter(events),
                config=ShardConfig(shards=2, max_trips=3, **FAST),
                fault_hook=hook,
            )
            assert not result.quarantined, f"trial {trial}"
            assert result.restarts == kills, f"trial {trial}"
            assert merged_positions(result) == expected, (
                f"trial {trial}: shard {shard} killed {kills}x at "
                f"event {cut} diverged"
            )

    def test_crash_after_checkpoint_resumes_from_it(self):
        queries = sdi_subscriptions(8, seed=5)
        events = multi_doc_stream(1, 2)
        boundary = next(
            index
            for index, event in enumerate(events)
            if type(event).__name__ == "EndDocument"
        )

        # Kill past the boundary, and pause first: the queue's feeder
        # thread needs a beat to flush the checkpoint message into the
        # pipe before the SIGKILL takes the whole process (data already
        # in the pipe survives worker death).
        cut = min(boundary + 100, len(events) - 1)

        def hook(shard, incarnation, index, live):
            if shard == 0 and incarnation == 0 and index == cut:
                time.sleep(0.5)
                _kill_self()

        result = serve_sharded(
            queries,
            iter(events),
            config=ShardConfig(shards=2, **FAST),
            fault_hook=hook,
        )
        restored = [e for e in result.shard_log if e.code == SHARD_RESTORED]
        assert restored and "checkpoint" in restored[0].detail
        assert result.robustness.restores == 1
        assert merged_positions(result) == single_process(queries, events)


class TestStallDetection:
    def test_stalled_worker_is_killed_and_restored(self):
        queries = sdi_subscriptions(8, seed=5)
        events = multi_doc_stream(1)

        def hook(shard, incarnation, index, live):
            if shard == 0 and incarnation == 0 and index == 10:
                time.sleep(60)

        result = serve_sharded(
            queries,
            iter(events),
            config=ShardConfig(shards=2, heartbeat_timeout=0.5, **FAST),
            fault_hook=hook,
        )
        codes = [entry.code for entry in result.shard_log]
        assert codes == [SHARD_STALL, SHARD_RESTORED]
        assert result.robustness.stalls_detected == 1
        assert merged_positions(result) == single_process(queries, events)


class TestPoisonPills:
    """A query that keeps crashing its worker ends quarantined; its
    neighbours — same shard included — complete bit-identically."""

    POISON = "p0"

    def poison_hook(self, events_len):
        def hook(shard, incarnation, index, live):
            # Crashes whenever the poison query is live at the cut —
            # every incarnation, and the solo isolation probe too.  The
            # pause lets the queue feeder flush the last document
            # checkpoint before the kill, so both crashes key to the
            # same committed position (deterministic conviction count).
            if self.POISON in live and index == events_len // 2:
                time.sleep(0.3)
                _kill_self()

        return hook

    def run_poisoned(self, queries, events, **config):
        return serve_sharded(
            queries,
            iter(events),
            config=ShardConfig(shards=2, max_trips=2, **FAST, **config),
            fault_hook=self.poison_hook(len(events)),
            policy=ServingPolicy(breaker=BreakerPolicy(max_trips=2)),
        )

    def test_deterministic_crasher_is_convicted(self):
        queries = dict(sdi_subscriptions(12, seed=9), **{self.POISON: "_*.a"})
        events = multi_doc_stream(4, 5)
        result = self.run_poisoned(queries, events)
        assert result.quarantined == {self.POISON}
        codes = [entry.code for entry in result.shard_log]
        assert codes.count(SHARD_CRASH) == 2
        assert SHARD_POISON in codes
        assert codes[-1] == SHARD_RESTORED
        outcome = result.report.outcomes[self.POISON]
        assert outcome.status == "quarantined"
        assert outcome.code == "POISON"
        assert outcome.degraded is True
        # Every survivor (poison's shard-mates included) is exact.
        healthy = {qid: q for qid, q in queries.items() if qid != self.POISON}
        assert merged_positions(result, exclude={self.POISON}) == (
            single_process(healthy, events)
        )

    def test_whole_shard_lost_when_no_culprit_isolable(self):
        # The crash only reproduces with >1 query in the process, so
        # every solo probe survives and nobody can be convicted: the
        # shard is quarantined whole, spine intact on the other shard.
        # Ids chosen so crc32 % 2 co-locates qa+qb and isolates qd.
        queries = {"qa": "_*.country", "qb": "_*.name", "qd": "_*.city"}
        events = multi_doc_stream(1)
        doomed = ["qa", "qb"]

        def hook(shard, incarnation, index, live):
            if len(live) > 1 and index == 5:
                _kill_self()

        result = serve_sharded(
            queries,
            iter(events),
            config=ShardConfig(shards=2, max_trips=2, probe_timeout=10, **FAST),
            fault_hook=hook,
        )
        assert result.quarantined == set(doomed)
        assert SHARD_LOST in [entry.code for entry in result.shard_log]
        assert "quarantined" in result.shard_status
        for qid in doomed:
            outcome = result.report.outcomes[qid]
            assert outcome.status == "quarantined"
            assert outcome.code == SHARD_LOST
        survivors = set(queries) - set(doomed)
        assert merged_positions(result, exclude=set(doomed)) == (
            single_process({qid: queries[qid] for qid in survivors}, events)
        )


class TestLatchAcrossProcessBoundary:
    """Satellite: breaker/quarantine latches survive process hops."""

    def test_persisted_shard_checkpoint_carries_the_latch(self, tmp_path):
        poison = "p0"
        queries = dict(sdi_subscriptions(12, seed=9), **{poison: "_*.a"})
        events = multi_doc_stream(4, 5)

        def hook(shard, incarnation, index, live):
            if poison in live and index == len(events) // 2:
                time.sleep(0.3)
                _kill_self()

        result = serve_sharded(
            queries,
            iter(events),
            config=ShardConfig(
                shards=2,
                max_trips=2,
                checkpoint_dir=str(tmp_path),
                **FAST,
            ),
            fault_hook=hook,
            policy=ServingPolicy(breaker=BreakerPolicy(max_trips=2)),
        )
        assert result.quarantined == {poison}
        # The poisoned shard persisted its rolling checkpoint; the latch
        # must be inside the on-disk state, not coordinator memory.
        shard = next(
            index
            for index, ids in enumerate(result.shard_queries)
            if poison in ids
        )
        path = tmp_path / f"shard-{shard}.json"
        on_disk = Checkpoint.load(path)
        serving = on_disk.require("multiquery")["serving"]
        breaker = serving["breakers"][poison]
        assert breaker["state"] == "open"
        assert breaker["trips"] >= 2
        assert poison not in on_disk.require("multiquery")["runners"]

        # A brand-new in-process engine resuming that file keeps the
        # quarantine: the poison query never runs or re-admits again.
        shard_queries = {
            qid: queries[qid] for qid in result.shard_queries[shard]
        }
        fresh = MultiQueryEngine(shard_queries)
        replay = list(
            fresh.resume(
                on_disk,
                iter(events + events[: on_disk.position]),
                policy=ServingPolicy(breaker=BreakerPolicy(max_trips=2)),
            )
        )
        assert poison not in {qid for qid, _ in replay}
        outcome = fresh.serving.outcomes[poison]
        assert outcome.status == "quarantined"
        assert outcome.code == "POISON"

    def test_quarantine_in_checkpoint_round_trips_json(self):
        engine = MultiQueryEngine({"q1": "_*.b", "q2": "_*.c"})
        doc = "<a><b><c/></b><b/><c/></a>"
        from repro import StreamCursor

        for _ in engine.serve(doc, cursor=StreamCursor()):
            pass
        edited = quarantine_in_checkpoint(
            engine.checkpoint(), ["q1"], max_trips=3
        )
        # Full JSON round trip — the shape that actually crosses the
        # process boundary (checkpoint file / IPC dict).
        again = Checkpoint.from_dict(json.loads(json.dumps(edited.to_dict())))
        events = list(iter_events(doc))
        fresh = MultiQueryEngine({"q1": "_*.b", "q2": "_*.c"})
        replay = list(fresh.resume(again, iter(events + events)))
        assert {qid for qid, _ in replay} == {"q2"}
        assert fresh.serving.outcomes["q1"].status == "quarantined"


class TestShardedReporting:
    def test_result_surface(self):
        queries = sdi_subscriptions(8, seed=5)
        events = multi_doc_stream(1)
        result = serve_sharded(
            queries, iter(events), config=ShardConfig(shards=2, **FAST)
        )
        assert result.events_total == len(events)
        assert len(result.shard_queries) == 2
        assert result.shard_status == ["ok", "ok"]
        assert set(result.checkpoints) <= {0, 1}
        for checkpoint in result.checkpoints.values():
            assert checkpoint.position == len(events)
        summary = result.summary()
        assert "2 shard(s)" in summary
        assert "0 poison quarantine(s)" in summary
        report = result.report
        assert set(report.outcomes) == set(queries)
        assert report.documents_seen == 1

    def test_rejects_unbounded_breaker(self):
        from repro.errors import EngineError

        with pytest.raises(EngineError, match="finite breaker max_trips"):
            ShardCoordinator(
                {"q": "_*.a"},
                policy=ServingPolicy(breaker=BreakerPolicy(max_trips=None)),
            )

    def test_fake_clock_never_blocks_on_backoff(self):
        # The coordinator's restart sleeps go through the injected
        # clock; with a FakeClock a crash-restart trial finishes
        # without any real backoff waiting.
        queries = sdi_subscriptions(8, seed=5)
        events = multi_doc_stream(1)

        def hook(shard, incarnation, index, live):
            if shard == 0 and incarnation == 0 and index == 7:
                _kill_self()

        clock = FakeClock()
        coordinator = ShardCoordinator(
            queries,
            config=ShardConfig(shards=2, heartbeat_timeout=None, **FAST),
            clock=clock,
            fault_hook=hook,
        )
        result = coordinator.run(iter(events))
        assert result.restarts == 1
        assert any(delay > 0 for delay in clock.sleeps)
        assert merged_positions(result) == single_process(queries, events)
