"""Unit tests for the supervised runner.

The acceptance property: against a source that raises transient errors
or stalls mid-stream, a supervised run yields exactly the matches of an
uninterrupted run — failures cost retries (visible in the report and the
engine's robustness counters), never duplicated or dropped matches.
"""

import os
import time

import pytest

from repro import (
    Checkpoint,
    SpexEngine,
    StallError,
    Supervisor,
    SupervisorConfig,
    supervise,
)
from repro.core.multiquery import MultiQueryEngine
from repro.xmlstream import FlakySource, iter_events

DOC = "<a><a><c/></a><b/><c/><d><b><c/></b></d><a><b/><c><b/></c></a></a>"
QUERY = "_*.a[b].c"

EVENTS = list(iter_events(DOC))
BASELINE = [m.position for m in SpexEngine(QUERY).run(DOC)]


def fast_config(**kwargs):
    """Config with no real sleeping, for quick deterministic tests."""
    kwargs.setdefault("backoff_initial", 0.0)
    kwargs.setdefault("jitter", 0.0)
    return SupervisorConfig(**kwargs)


# ----------------------------------------------------------------------
# FlakySource itself


class TestFlakySource:
    def test_clean_replay(self):
        source = FlakySource(EVENTS)
        assert list(source.connect()) == EVENTS
        assert list(source.connect()) == EVENTS
        assert source.connects == 2

    def test_error_script(self):
        source = FlakySource(EVENTS, script=[("error", 3)])
        connection = source.connect()
        delivered = []
        with pytest.raises(IOError, match="transient"):
            for event in connection:
                delivered.append(event)
        assert delivered == EVENTS[:3]
        # next connection is clean (script exhausted)
        assert list(source.connect()) == EVENTS

    def test_callable_is_connect(self):
        source = FlakySource(EVENTS)
        assert list(source()) == EVENTS
        assert source.connects == 1

    def test_unknown_mode_rejected(self):
        source = FlakySource(EVENTS, script=[("explode", 1)])
        with pytest.raises(ValueError, match="explode"):
            list(source.connect())


# ----------------------------------------------------------------------
# transient errors


class TestTransientErrors:
    def test_single_failure_recovers_losslessly(self):
        source = FlakySource(EVENTS, script=[("error", 7)])
        engine = SpexEngine(QUERY)
        supervisor = Supervisor(engine, source, fast_config())
        assert [m.position for m in supervisor.run()] == BASELINE
        assert supervisor.report.completed
        assert supervisor.report.retries == 1
        assert engine.robustness.retries == 1
        assert engine.robustness.restores == 1

    def test_repeated_failures_recover_losslessly(self):
        script = [("error", 3), ("error", 8), ("error", 15)]
        source = FlakySource(EVENTS, script=script)
        engine = SpexEngine(QUERY)
        supervisor = Supervisor(engine, source, fast_config(max_retries=5))
        assert [m.position for m in supervisor.run()] == BASELINE
        assert source.connects == len(script) + 1
        assert supervisor.report.retries == len(script)

    def test_failure_at_first_event(self):
        source = FlakySource(EVENTS, script=[("error", 0)])
        engine = SpexEngine(QUERY)
        supervisor = Supervisor(engine, source, fast_config())
        assert [m.position for m in supervisor.run()] == BASELINE

    def test_max_retries_exhaustion_propagates(self):
        source = FlakySource(EVENTS, script=[("error", 3)] * 10)
        engine = SpexEngine(QUERY)
        supervisor = Supervisor(engine, source, fast_config(max_retries=2))
        with pytest.raises(IOError):
            list(supervisor.run())

    def test_failure_counter_resets_on_progress(self):
        # Five failures in a row, but each connection advances past the
        # previous failure point — so max_retries=1 still completes.
        script = [("error", k) for k in (3, 6, 9, 12, 15)]
        source = FlakySource(EVENTS, script=script)
        engine = SpexEngine(QUERY)
        supervisor = Supervisor(engine, source, fast_config(max_retries=1))
        assert [m.position for m in supervisor.run()] == BASELINE

    def test_non_transient_errors_propagate_immediately(self):
        bad = "<a><b></a></b>"  # malformed: retrying cannot help
        engine = SpexEngine(QUERY)
        supervisor = Supervisor(engine, lambda: bad, fast_config())
        from repro import StreamError

        with pytest.raises(StreamError):
            list(supervisor.run())
        assert supervisor.report.retries == 0


# ----------------------------------------------------------------------
# stalls


class TestStalls:
    def test_stall_reconnect(self):
        source = FlakySource(EVENTS, script=[("stall", 5)], stall_seconds=5.0)
        engine = SpexEngine(QUERY)
        supervisor = Supervisor(
            engine, source, fast_config(heartbeat_timeout=0.2)
        )
        started = time.monotonic()
        assert [m.position for m in supervisor.run()] == BASELINE
        assert time.monotonic() - started < 5.0  # did not wait out the stall
        assert supervisor.report.stalls == 1
        assert engine.robustness.stalls_detected == 1

    def test_stall_checkpoint_exit(self, tmp_path):
        source = FlakySource(EVENTS, script=[("stall", 5)], stall_seconds=5.0)
        engine = SpexEngine(QUERY)
        supervisor = Supervisor(
            engine,
            source,
            fast_config(
                heartbeat_timeout=0.2,
                on_stall="checkpoint_exit",
                checkpoint_dir=str(tmp_path),
            ),
        )
        delivered = []
        with pytest.raises(StallError):
            for match in supervisor.run():
                delivered.append(match.position)
        path = supervisor.report.last_checkpoint_path
        assert path is not None and os.path.exists(path)
        # a later process resumes from the file and completes losslessly
        checkpoint = Checkpoint.load(path)
        fresh = SpexEngine.from_checkpoint(checkpoint)
        resumed = Supervisor(fresh, FlakySource(EVENTS), fast_config())
        delivered += [m.position for m in resumed.run(checkpoint)]
        assert delivered == BASELINE

    def test_invalid_on_stall_rejected(self):
        with pytest.raises(ValueError, match="on_stall"):
            SupervisorConfig(on_stall="panic")

    def test_no_watchdog_without_heartbeat(self):
        # stall_seconds=0 means the "stall" is instantaneous; without a
        # heartbeat no watchdog thread is involved and the run completes.
        source = FlakySource(EVENTS, script=[("stall", 5)], stall_seconds=0.0)
        engine = SpexEngine(QUERY)
        supervisor = Supervisor(engine, source, fast_config())
        assert [m.position for m in supervisor.run()] == BASELINE
        assert supervisor.report.stalls == 0


# ----------------------------------------------------------------------
# checkpoint cadence


class TestCadence:
    def test_event_cadence(self, tmp_path):
        engine = SpexEngine(QUERY)
        supervisor = Supervisor(
            engine,
            FlakySource(EVENTS),
            fast_config(
                checkpoint_every_events=4, checkpoint_dir=str(tmp_path)
            ),
        )
        assert [m.position for m in supervisor.run()] == BASELINE
        # one per cadence interval plus the final completion checkpoint
        assert supervisor.report.checkpoints_written >= len(EVENTS) // 4
        assert os.path.exists(supervisor.report.last_checkpoint_path)
        # the rolling file is the latest checkpoint: end of stream
        assert Checkpoint.load(
            supervisor.report.last_checkpoint_path
        ).position == len(EVENTS)

    def test_time_cadence(self):
        clock = {"now": 0.0}
        engine = SpexEngine(QUERY)
        supervisor = Supervisor(
            engine,
            FlakySource(EVENTS),
            fast_config(checkpoint_every_seconds=10.0),
            clock=lambda: clock["now"],
        )
        run = supervisor.run()
        # advance the clock mid-stream; the next event boundary checkpoints
        for index, _match in enumerate(run):
            clock["now"] += 7.0
        assert supervisor.report.checkpoints_written >= 2

    def test_no_cadence_no_mid_stream_checkpoints(self):
        engine = SpexEngine(QUERY)
        supervisor = Supervisor(engine, FlakySource(EVENTS), fast_config())
        list(supervisor.run())
        # only the final completion checkpoint
        assert supervisor.report.checkpoints_written == 1


# ----------------------------------------------------------------------
# backoff


class TestBackoff:
    def collect_delays(self, config, failures=4):
        source = FlakySource(EVENTS, script=[("error", 0)] * failures)
        engine = SpexEngine(QUERY)
        slept = []
        supervisor = Supervisor(
            engine, source, config, sleep=slept.append
        )
        list(supervisor.run())
        return slept

    def test_exponential_growth(self):
        delays = self.collect_delays(
            SupervisorConfig(
                max_retries=10,
                backoff_initial=0.1,
                backoff_factor=2.0,
                backoff_max=30.0,
                jitter=0.0,
            )
        )
        assert delays == [0.1, 0.2, 0.4, 0.8]

    def test_backoff_ceiling(self):
        delays = self.collect_delays(
            SupervisorConfig(
                max_retries=10,
                backoff_initial=10.0,
                backoff_factor=10.0,
                backoff_max=15.0,
                jitter=0.0,
            )
        )
        assert delays == [10.0, 15.0, 15.0, 15.0]

    def test_jitter_is_seeded_and_bounded(self):
        config = dict(
            max_retries=10,
            backoff_initial=1.0,
            backoff_factor=1.0,
            backoff_max=30.0,
            jitter=0.25,
        )
        first = self.collect_delays(SupervisorConfig(seed=42, **config))
        second = self.collect_delays(SupervisorConfig(seed=42, **config))
        assert first == second  # reproducible
        assert all(0.75 <= delay <= 1.25 for delay in first)
        assert len(set(first)) > 1  # actually jittered


# ----------------------------------------------------------------------
# engines × supervisor


class TestAcrossEngines:
    def test_multiquery_supervised(self):
        queries = {"plain": "_*.a", "qualified": QUERY}
        baseline = [
            (query_id, match.position)
            for query_id, match in MultiQueryEngine(queries).run(DOC)
        ]
        source = FlakySource(EVENTS, script=[("error", 6), ("error", 14)])
        engine = MultiQueryEngine(queries)
        supervisor = Supervisor(engine, source, fast_config(max_retries=4))
        got = [
            (query_id, match.position) for query_id, match in supervisor.run()
        ]
        assert got == baseline
        assert engine.robustness.retries == 2

    def test_supervise_convenience(self):
        source = FlakySource(EVENTS, script=[("error", 7)])
        engine = SpexEngine(QUERY)
        matches = supervise(
            engine, source, max_retries=3, backoff_initial=0.0, jitter=0.0
        )
        assert [m.position for m in matches] == BASELINE


class TestWatchdogReaders:
    def test_a_stalled_connection_leaves_no_reader_behind(self):
        """Each stall abandons a connection; its reader thread must stop
        rather than block forever on the full queue the consumer left."""
        import threading

        doc = "<r>" + "<a><b/></a>" * 200 + "</r>"
        events = list(iter_events(doc))
        before = set(threading.enumerate())
        # each of the first six connections hangs once, a little further in
        script = [("stall", 100 * (k + 1)) for k in range(6)]
        source = FlakySource(events, script=script, stall_seconds=0.3)
        supervisor = Supervisor(
            SpexEngine("_*.a"), source, fast_config(heartbeat_timeout=0.1)
        )
        assert len(list(supervisor.run())) == 200
        assert supervisor.report.stalls >= 6
        readers = [
            thread
            for thread in set(threading.enumerate()) - before
            if thread.name == "spex-source-reader"
        ]
        for thread in readers:
            thread.join(timeout=1.0)
        assert [thread for thread in readers if thread.is_alive()] == []
