"""Pull and push are one loop: the same answers under live-set churn.

``run`` and ``serve`` pull a source through the pump's transition;
``start_pump().feed`` pushes one event at a time through the very same
loop.  Here the two are held to each other, ``(event index, query,
position, label)`` for every match, over generated streams and mixed
``dfa``/``hybrid``/``gated``/``network`` query sets, in the three ways the
live set changes while a pass runs:

* the consumer closes and removes a query while the pulled pass is
  suspended at one of its matches;
* a quarantined query comes back at ``<$>`` through its breaker;
* an armed stream guard trips and quarantines every live query.

A probe source checks that the pulled loop never reads ahead: when it
asks for event ``n``, the cursor has counted exactly ``n`` events and the
consumer has every match of events before ``n``.  On malformed streams,
every door refuses the event a bare :class:`StreamCursor` refuses, with
its message and its state.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ResourceLimits, StreamCursor
from repro.core.multiquery import MultiQueryEngine
from repro.core.serving import ServingPolicy
from repro.errors import ResourceLimitError, StreamError
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    Text,
)

from ..conftest import LABELS, event_streams

#: four queries per execution lane (``lane_executions`` pins them)
LANES = {
    "dfa": ("_*.a", "a.b", "_*.b.c", "_*.c"),
    "hybrid": ("_*.a[b]", "_*.b[c]", "_*.a[_*.c]", "_*.c[d]"),
    "gated": ("_*.a[b].c", "_*.a[_*.b].c", "_*.b[a].d", "a[b].c"),
    "network": ("_*._[c]", "_*[b].c", "a.following::b", "_*.a[following::c]"),
}
ANY_LANE = [query for pool in LANES.values() for query in pool]

#: what ``run`` drives its pump with
INERT = ServingPolicy(quarantine=False)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def query_sets(draw):
    """One query of every lane, then up to three more of any."""
    chosen = [draw(st.sampled_from(pool)) for pool in LANES.values()]
    chosen += draw(st.lists(st.sampled_from(ANY_LANE), max_size=3))
    return {f"q{index}": query for index, query in enumerate(chosen)}


@st.composite
def streams(draw):
    """One to three documents, so that ``<$>`` can re-admit."""
    documents = draw(st.lists(event_streams(max_depth=5), min_size=1, max_size=3))
    return [event for document in documents for event in document]


class Record:
    """The matches one pass delivered, and what the consumer did."""

    def __init__(self, engine, on_match=None):
        self.engine = engine
        self.on_match = on_match
        self.matches = []
        self.flushed = []

    def take(self, index, query_id, match):
        self.matches.append((index, query_id, match.position, match.label))
        if self.on_match is not None:
            self.on_match(self)


def pull(engine, door, events, on_match=None, **options):
    """Drive a pulled door; returns the record and, per event drawn,
    ``(events counted by the cursor, matches consumed)`` at its ``next()``."""
    record = Record(engine, on_match)
    cursor = StreamCursor()
    probe = []
    drawn = [-1]

    def source():
        for drawn[0], event in enumerate(events):
            probe.append((cursor.events_read, len(record.matches)))
            yield event

    for query_id, match in door(source(), cursor=cursor, **options):
        record.take(drawn[0], query_id, match)
    return record, probe


def push(engine, policy, events, on_match=None):
    """Push every event through ``start_pump().feed``."""
    record = Record(engine, on_match)
    pump = engine.start_pump(policy)
    record.lanes = set(engine.lane_executions.values())
    for index, event in enumerate(events):
        for query_id, match in pump.feed(event):
            record.take(index, query_id, match)
    return record


def assert_never_read_ahead(probe, pushed):
    """At the ``next()`` for event ``n`` the cursor counts ``n`` and the
    consumer holds every match the push pass gave events before ``n``."""
    for index, (counted, consumed) in enumerate(probe):
        assert counted == index
        assert consumed == sum(1 for row in pushed.matches if row[0] < index)


def close_and_remove(victim, at):
    """The consumer's churn: at its ``at``-th match, close ``victim`` and
    remove it from the engine (the pulled pass is suspended right there)."""

    def on_match(record):
        engine = record.engine
        if len(record.matches) == at and victim in engine.queries:
            flushed = engine._pump.close(victim)
            engine.remove_query(victim)
            record.flushed += [(at, m.position, m.label) for m in flushed]

    return on_match


@SETTINGS
@given(query_sets(), streams(), st.data())
def test_close_and_remove_while_a_match_is_out(queries, events, data):
    victim = data.draw(st.sampled_from(sorted(queries)))
    at = data.draw(st.integers(min_value=1, max_value=8))
    for door, policy in (("run", INERT), ("serve", ServingPolicy())):
        pulled_engine = MultiQueryEngine(queries)
        pulled, probe = pull(
            pulled_engine,
            getattr(pulled_engine, door),
            events,
            close_and_remove(victim, at),
        )
        pushed = push(MultiQueryEngine(queries), policy, events, close_and_remove(victim, at))
        assert pulled.matches == pushed.matches, door
        assert pulled.flushed == pushed.flushed, door
        assert_never_read_ahead(probe, pushed)
        assert pushed.lanes == set(LANES)
        if door == "serve":
            assert pulled_engine.serving.to_obj() == pushed.engine.serving.to_obj()


class _Poisoned:
    """A runner that raises at the ``trip``-th event it is fed."""

    def __init__(self, runner, trip):
        self._runner = runner
        self._left = trip

    def __getattr__(self, name):
        return getattr(self._runner, name)

    def process_event(self, event):
        self._left -= 1
        if self._left == 0:
            raise RuntimeError("poisoned")
        return self._runner.process_event(event)


class PoisonedEngine(MultiQueryEngine):
    """Its ``poison`` query's runner — every one it compiles, so each
    re-admission too — raises at the ``trip``-th event fed to it."""

    trip = 1

    def _compile_one(self, query_id, cursor, *args, **kwargs):
        runner = super()._compile_one(query_id, cursor, *args, **kwargs)
        return _Poisoned(runner, self.trip) if query_id == "poison" else runner


def poisoned(queries, poison, trip):
    engine = PoisonedEngine({**queries, "poison": poison})
    engine.trip = trip
    return engine


@SETTINGS
@given(
    query_sets(),
    streams(),
    st.sampled_from(LANES["network"] + LANES["gated"]),
    st.integers(min_value=1, max_value=12),
)
def test_a_quarantined_query_rejoins_at_start_document(queries, events, poison, trip):
    pulled_engine = poisoned(queries, poison, trip)
    pulled, probe = pull(pulled_engine, pulled_engine.serve, events)
    pushed = push(poisoned(queries, poison, trip), ServingPolicy(), events)
    assert pulled.matches == pushed.matches
    assert pulled_engine.serving.to_obj() == pushed.engine.serving.to_obj()
    assert_never_read_ahead(probe, pushed)


def test_the_poisoned_query_really_rejoins():
    """The differential above is not vacuous: a poisoned network query is
    quarantined in the first document and probed again at the next
    ``<$>``, beside healthy queries on every lane."""
    events = []
    for _ in range(3):
        events += [StartDocument(), StartElement("a"), StartElement("b"),
                   EndElement("b"), StartElement("c"), EndElement("c"),
                   EndElement("a"), EndDocument()]  # fmt: skip
    queries = {lane: pool[0] for lane, pool in LANES.items()}
    engine = poisoned(queries, "_*._[c]", 3)
    pulled, _ = pull(engine, engine.serve, events)
    pushed = push(poisoned(queries, "_*._[c]", 3), ServingPolicy(), events)
    assert pulled.matches == pushed.matches
    report = engine.serving
    assert report.quarantines >= 2 and report.probes >= 1
    assert engine.lane_executions == {**{lane: lane for lane in LANES}, "poison": "network"}
    assert {q for _, q, _, _ in pulled.matches} >= {"dfa", "hybrid", "gated"}


@SETTINGS
@given(
    query_sets(),
    streams(),
    st.one_of(
        st.builds(ResourceLimits, max_depth=st.integers(min_value=1, max_value=4)),
        st.builds(
            ResourceLimits,
            max_events_per_document=st.integers(min_value=1, max_value=12),
        ),
    ),
)
def test_an_armed_guard_trips_alike(queries, events, limits):
    pulled_engine = MultiQueryEngine(queries, limits=limits)
    pulled, probe = pull(pulled_engine, pulled_engine.serve, events)
    pushed = push(MultiQueryEngine(queries, limits=limits), ServingPolicy(), events)
    assert pulled.matches == pushed.matches
    assert pulled_engine.serving.to_obj() == pushed.engine.serving.to_obj()
    assert_never_read_ahead(probe, pushed)

    # bulkheads off: both raise at the same event, with the same matches
    outcomes = []
    for drive in (
        lambda engine: pull(engine, engine.run, events)[0],
        lambda engine: push(engine, INERT, events),
    ):
        engine = MultiQueryEngine(queries, limits=limits)
        try:
            outcomes.append(drive(engine).matches)
        except ResourceLimitError as exc:
            outcomes.append((engine._pump.cursor.events_read, str(exc), exc.limit))
    assert outcomes[0] == outcomes[1]


@st.composite
def malformed_streams(draw):
    """A well-formed stream with one event dropped, duplicated, moved or
    inserted (which may still leave it well-formed)."""
    events = draw(streams())
    index = draw(st.integers(min_value=0, max_value=len(events) - 1))
    kind = draw(st.sampled_from(["drop", "duplicate", "move", "insert"]))
    if kind == "drop":
        del events[index]
    elif kind == "duplicate":
        events.insert(index, events[index])
    elif kind == "move":
        event = events.pop(index)
        events.insert(draw(st.integers(min_value=0, max_value=len(events))), event)
    else:
        label = draw(st.sampled_from(LABELS))
        events.insert(
            index,
            draw(st.sampled_from([StartElement(label), EndElement(label),
                                  StartDocument(), EndDocument(), Text("t")])),
        )  # fmt: skip
    return events


def bare_refusal(events):
    """``(index, message, cursor state)`` of a bare cursor advanced once
    per event; two ``None`` and the final state if it refuses nothing."""
    cursor = StreamCursor()
    for index, event in enumerate(events):
        try:
            cursor.advance(event)
        except StreamError as exc:
            return index, str(exc), cursor.state()
    return None, None, cursor.state()


@SETTINGS
@given(query_sets(), malformed_streams())
def test_every_door_refuses_where_a_bare_cursor_does(queries, events):
    want = bare_refusal(events)
    for door in ("run", "serve", "push"):
        engine = MultiQueryEngine(queries)
        cursor = StreamCursor()
        drawn = [-1]

        def source():
            for drawn[0], event in enumerate(events):
                yield event

        try:
            if door == "push":
                pump = engine.start_pump(cursor=cursor)
                for drawn[0], event in enumerate(events):
                    pump.feed(event)
            else:
                for _ in getattr(engine, door)(source(), cursor=cursor):
                    pass
        except StreamError as exc:
            got = drawn[0], str(exc), cursor.state()
        else:
            got = None, None, cursor.state()
        assert got == want, door
