"""The stream limits through every lane and every door.

``max_depth``, ``max_events_per_document`` and
``max_seconds_per_document`` are properties of the stream: one check per
event against the pass's cursor, before any query sees the event
(:func:`repro.limits.stream_guard`).  So a limit-armed pass keeps every
query on its planned lane, and every door must refuse at the same event,
with the same outcomes, records and matches, as the literal network
(``optimize=NO_OPTIMIZATIONS``).  Time runs on a :class:`FakeClock` that
ticks once per event, so the wall-clock budget trips on a known event.
"""

from __future__ import annotations

import json
import random
from unittest import mock

import pytest

from repro import Checkpoint, ResourceLimits, SpexEngine, StreamCursor
from repro.core import clock as clock_module
from repro.core.clock import FakeClock
from repro.core.multiquery import MultiQueryEngine
from repro.core.optimize import ALL_OPTIMIZATIONS, NO_OPTIMIZATIONS
from repro.errors import ResourceLimitError
from repro.xmlstream.recovery import ErrorReport

from ..conftest import make_random_events

#: one or two queries per lane
QUERIES = {
    "dfa": "_*.b",
    "path": "a._*.d",
    "hybrid": "_*.a[c]",
    "gated": "_*.a[b].c",
    "network": "_*[b].c",
}
LANES = {
    "dfa": "dfa",
    "path": "dfa",
    "hybrid": "hybrid",
    "gated": "gated",
    "network": "network",
}

#: each trips on some documents of :func:`stream` and passes others
LIMITS = {
    "max_depth": ResourceLimits(max_depth=5),
    "max_events_per_document": ResourceLimits(max_events_per_document=60),
    "max_seconds_per_document": ResourceLimits(max_seconds_per_document=50.0),
}

TRIALS = 8


def stream(trial):
    """Five documents, shallow and deep by turns."""
    rng = random.Random(0x11A1 + trial)
    events = []
    for number in range(5):
        events += make_random_events(rng, max_children=3, max_depth=3 + number % 2 * 2)
    return events


def ticking(clock, events, counts=None, serving=None):
    """``events``, the clock one second later before each; with
    ``counts``, the quarantines so far recorded before each draw and once
    after the last — a pull door has processed event ``i`` when it draws
    event ``i + 1``."""
    for event in events:
        if counts is not None:
            counts.append(serving().quarantines if serving() else 0)
        clock.advance(1.0)
        yield event
    if counts is not None:
        counts.append(serving().quarantines if serving() else 0)


def tripped(counts):
    return [index for index in range(len(counts) - 1) if counts[index + 1] > counts[index]]


def outcomes(serving):
    return {
        query_id: (o.status, o.code, o.degraded, o.trips, o.readmissions, o.matches)
        for query_id, o in serving.outcomes.items()
    }


def pull(run, source, drawn):
    """``(event index, query id, position)`` per match, and the index of
    the event a :class:`ResourceLimitError` was raised on."""
    matches = []
    try:
        for query_id, match in run(source):
            matches.append((drawn[0], query_id, match.position))
    except ResourceLimitError as exc:
        return matches, (drawn[0], exc.limit)
    return matches, None


def numbered(events, drawn):
    for drawn[0], event in enumerate(events):
        yield event


# ----------------------------------------------------------------------
# the doors; each returns what it observed, comparable across knobs


def door_run(flags, limits, events, clock):
    engine = MultiQueryEngine(QUERIES, limits=limits, optimize=flags)
    drawn = [-1]
    with mock.patch.object(clock_module, "SYSTEM_CLOCK", clock):
        return pull(engine.run, numbered(ticking(clock, events), drawn), drawn)


def door_run_skip(flags, limits, events, clock):
    engine = MultiQueryEngine(QUERIES, limits=limits, optimize=flags)
    report = ErrorReport()
    drawn = [-1]
    with mock.patch.object(clock_module, "SYSTEM_CLOCK", clock):
        matches, refused = pull(
            lambda source: engine.run(source, on_error="skip", report=report),
            numbered(ticking(clock, events), drawn),
            drawn,
        )
    records = [(r.document, r.message, r.action) for r in report.records]
    return matches, refused, records, report.limit_hits


def door_serve(flags, limits, events, clock):
    engine = MultiQueryEngine(QUERIES, limits=limits, optimize=flags)
    drawn, counts = [-1], []
    source = numbered(ticking(clock, events, counts, lambda: engine.serving), drawn)
    matches, refused = pull(lambda s: engine.serve(s, clock=clock), source, drawn)
    return matches, refused, outcomes(engine.serving), tripped(counts)


def feed(pump, clock, events, start=0):
    matches, trips = [], []
    for index, event in enumerate(events, start=start):
        before = pump.serving.quarantines
        clock.advance(1.0)
        matches += [(index, q, m.position) for q, m in pump.feed(event)]
        if pump.serving.quarantines > before:
            trips.append(index)
    return matches, trips


def door_pump(flags, limits, events, clock):
    pump = MultiQueryEngine(QUERIES, limits=limits, optimize=flags).start_pump(
        clock=clock
    )
    matches, trips = feed(pump, clock, events)
    return matches, outcomes(pump.serving), trips


def door_resume_pump(flags, limits, events, clock, cut):
    engine = MultiQueryEngine(QUERIES, limits=limits, optimize=flags)
    pump = engine.start_pump(clock=clock, cursor=StreamCursor())
    head, head_trips = feed(pump, clock, events[:cut])
    checkpoint = Checkpoint.from_dict(json.loads(json.dumps(engine.checkpoint().to_dict())))
    fresh = MultiQueryEngine.from_checkpoint(checkpoint, limits=limits)
    resumed = fresh.resume_pump(checkpoint, clock=clock)
    tail, tail_trips = feed(resumed, clock, events[cut:], start=cut)
    return head + tail, outcomes(resumed.serving), head_trips + tail_trips


def door_spex(flags, limits, events, clock):
    observed = {}
    for query_id, query in QUERIES.items():
        engine = SpexEngine(query, collect_events=False, limits=limits, optimize=flags)
        drawn = [-1]

        def run(source, engine=engine, query_id=query_id):
            for match in engine.run(source, require_end=False):
                yield query_id, match

        with mock.patch.object(clock_module, "SYSTEM_CLOCK", clock):
            observed[query_id] = pull(run, numbered(ticking(clock, events), drawn), drawn)
    return observed


DOORS = {
    "run": door_run,
    "run-skip": door_run_skip,
    "serve": door_serve,
    "pump": door_pump,
    "spex": door_spex,
}


def refusals(door, observed):
    """How often ``observed`` shows the limit at work."""
    if door == "run":
        return observed[1] is not None
    if door == "run-skip":
        return observed[3]
    if door in ("serve", "pump"):
        return len(observed[-1])
    return sum(refused is not None for _, refused in observed.values())


@pytest.mark.parametrize("door", sorted(DOORS))
@pytest.mark.parametrize("limit", sorted(LIMITS))
def test_every_door_refuses_where_the_network_does(limit, door):
    limits = LIMITS[limit]
    seen = 0
    for trial in range(TRIALS):
        events = stream(trial)
        fast = DOORS[door](ALL_OPTIMIZATIONS, limits, events, FakeClock())
        literal = DOORS[door](NO_OPTIMIZATIONS, limits, events, FakeClock())
        assert fast == literal, (limit, door, trial)
        seen += refusals(door, fast)
    if (limit, door) != ("max_seconds_per_document", "run-skip"):
        # (skip/repair buffer a document before evaluating it: its events
        # are all drawn, and the clock moved, before its <$> arms the budget)
        assert seen, "the limit never tripped: the door was not exercised"


@pytest.mark.parametrize("limit", sorted(LIMITS))
def test_resume_pump_at_a_cut_refuses_where_the_network_does(limit):
    limits = LIMITS[limit]
    seen = 0
    for trial in range(TRIALS):
        events = stream(trial)
        for cut in (1, len(events) // 3, len(events) // 2 + 1):
            fast = door_resume_pump(ALL_OPTIMIZATIONS, limits, events, FakeClock(), cut)
            literal = door_resume_pump(NO_OPTIMIZATIONS, limits, events, FakeClock(), cut)
            assert fast == literal, (limit, trial, cut)
            seen += len(fast[-1])
    assert seen


@pytest.mark.parametrize("limit", sorted(LIMITS))
def test_an_armed_pass_keeps_the_unarmed_lanes(limit):
    armed = MultiQueryEngine(QUERIES, limits=LIMITS[limit])
    list(armed.serve(stream(0), clock=FakeClock()))
    unarmed = MultiQueryEngine(QUERIES)
    unarmed.evaluate(stream(0))
    assert armed.lane_executions == unarmed.lane_executions == LANES
    assert armed.lane_demotions == {}


def test_a_depth_armed_pass_keeps_the_unarmed_lanes():
    """What ``spex serve --max-depth 64`` runs: the planner's lanes."""
    engine = MultiQueryEngine(QUERIES, limits=ResourceLimits(max_depth=64))
    engine.evaluate(stream(1))
    assert engine.lane_executions == LANES
    assert engine.stats.fastlane_demotions == 0
