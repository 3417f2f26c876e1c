"""Retained state is a function of the live subscription set.

The seed of the model-based harness ROADMAP item 1 asks for, on the one
invariant two accidental findings (the fast-lane slot leak, the
``ServingReport.outcomes`` leak) showed nobody was checking: whatever
the history of subscribes, departures (between documents or at any
event inside one, as the service closes a subscriber), documents and
crash/resume cuts, a serving pass holds what a **fresh** engine
registered with the same live queries in the same order holds — and
answers the next document the same way.  Half the passes are
limit-armed (``max_depth``): they keep the same lanes and the same
state, and no checkpoint holds stream position anywhere but in its
cursor.  Rules to add as the harness
grows: fault schedules, shard and server kills, knob flips, the DOM
oracle.
"""

from __future__ import annotations

import json
import os
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro import Checkpoint, ResourceLimits, StreamCursor
from repro.core.fastlane import _DROPPED, _PENDING
from repro.core.multiquery import MultiQueryEngine
from repro.workloads.generators import random_tree
from repro.xmlstream.events import StartElement
from repro.xmlstream.parser import parse_string

#: two queries per lane (dfa, hybrid, gated, network).  No ``following::``:
#: a network that outlives ``</$>`` lets it reach into the next document
#: (pinned by ``test_lane_differential``), which a fresh engine cannot.
QUERIES = (
    "_*.b",
    "a._*.d",
    "_*.a[c]",
    "_*.c[d.e]",
    "_*.b[a].d",
    "_*.a[b].c",
    "_*[b].c",
    "_*.c[preceding::a]",
)
DOCUMENTS = [list(random_tree(seed, elements=25)) for seed in range(4)]
ELEMENTS = [sum(isinstance(e, StartElement) for e in doc) for doc in DOCUMENTS]


def retained(engine, pump):
    """What the pass holds per subscription, in comparable form."""
    core = engine._fastlane_core
    payload = engine.checkpoint().payload
    assert_position_in_the_cursor_only(payload)
    return {
        "slots": len(core._slots) if core is not None else 0,
        "outcomes": sorted(pump.serving.outcomes),
        "plans": sorted(pump.serving.plans),
        "breakers": sorted(pump._breakers),
        "subscriptions": payload["subscriptions"],
        "runners": list(payload["runners"]),
        "lanes": engine.lane_executions,
    }


def assert_position_in_the_cursor_only(payload):
    """The open path, the element count and the document's event count
    are the cursor's: no runner snapshot repeats them."""
    assert {"open_labels", "open_starts", "elements_seen"} <= set(payload["cursor"])
    for snapshot in payload["runners"].values():
        assert not {"path", "ecount", "starts"} & set(snapshot.get("fastlane", {}))
        network = snapshot.get("network", snapshot)
        assert not {"depth", "doc_events"} & set(network or {})


def states(engine):
    """Interned DFA states (a core without slots holds the empty one)."""
    core = engine._fastlane_core
    return core.states_interned if core is not None and core._slots else 0


def slot_indices(engine):
    core = engine._fastlane_core
    return frozenset(core._slots) if core is not None else frozenset()


def frame_entries(core):
    """Every ``(slot, candidate)`` the core's per-element frames hold:
    the candidates opened at each open element and the obligations."""
    for frame in core._opened:
        yield from frame
    for frame in core._obligs:
        for slot, cand, _ in frame:
            yield slot, cand


def assert_fresh_frames(engine):
    """At ``<$>``: one root frame each, referring to live slots only."""
    core = engine._fastlane_core
    if core is None:
        return
    assert len(core._opened) == len(core._obligs) == 1
    live = set(core._slots.values())
    assert all(slot in live and slot.active for slot, _ in frame_entries(core))


class ServingPass(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        #: live query id -> query, in registration order
        self.live: dict[str, str] = {}
        #: live query id -> start tags it has been fed since it joined
        self.fed: dict[str, int] = {}
        self.minted = 0

    @initialize(armed=st.booleans())
    def open_the_pass(self, armed):
        #: a depth ceiling no document reaches: it must change nothing
        self.limits = ResourceLimits(max_depth=64) if armed else None
        self.engine = MultiQueryEngine({}, limits=self.limits)
        self.pump = self.engine.start_pump(cursor=StreamCursor())
        self.indices = slot_indices(self.engine)

    @rule(query=st.sampled_from(QUERIES))
    def subscribe(self, query):
        query_id = f"c{self.minted}.q"  # the service mints one per connection
        self.minted += 1
        self.engine.add_query(query_id, query)
        assert self.pump.attach(query_id)
        self.live[query_id] = query
        self.fed[query_id] = 0

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def close_and_remove(self, data):
        query_id = data.draw(st.sampled_from(sorted(self.live)))
        self.pump.close(query_id)
        self.engine.remove_query(query_id)
        del self.live[query_id], self.fed[query_id]

    def depart_inside(self, query_id, fresh, fresh_pump):
        """Close + remove at a cut inside a document, on both passes: the
        departed slot's candidates and obligations stay in the frames of
        the open elements until they close, but inert."""
        flushed = self.pump.close(query_id)
        self.engine.remove_query(query_id)
        assert [(m.position - self.fed[query_id], m.label) for m in flushed] == [
            (m.position, m.label) for m in fresh_pump.close(query_id)
        ]
        fresh.remove_query(query_id)
        del self.live[query_id], self.fed[query_id]
        core = self.engine._fastlane_core
        if core is not None:
            assert all(
                cand.state == _DROPPED
                for slot, cand in frame_entries(core)
                if slot.query_id == query_id
            )

    @rule(
        number=st.sampled_from(range(len(DOCUMENTS))),
        cut=st.none() | st.integers(1, 50),
        leave=st.none() | st.integers(1, 50),
        data=st.data(),
    )
    def feed_a_document(self, number, cut, leave, data):
        """One document, optionally through a crash after ``cut`` events
        and a departure at event ``leave``."""
        document = DOCUMENTS[number]
        fresh = MultiQueryEngine(dict(self.live), limits=self.limits)
        fresh_pump = fresh.start_pump(cursor=StreamCursor())
        leaving = data.draw(st.sampled_from(sorted(self.live))) if self.live else None
        assert self.pump.feed(document[0]) == fresh_pump.feed(document[0]) == []
        # the <$> boundary: everyone attached has joined, everyone who
        # left is gone from the shared DFA and from every frame
        assert retained(self.engine, self.pump) == retained(fresh, fresh_pump)
        assert_fresh_frames(self.engine)
        regrown = slot_indices(self.engine) != self.indices
        if regrown:
            # the slot set changed, so the lazy DFA started over
            assert states(self.engine) == states(fresh)
        got, expected = [], []
        for index, event in enumerate(document[1:], start=1):
            if index == leave and leaving is not None:
                self.depart_inside(leaving, fresh, fresh_pump)
            if index == cut:
                self.resume_from_a_file()
                regrown = False  # the new process explored the tail only
            got += [
                (query_id, match.position - self.fed[query_id], match.label)
                for query_id, match in self.pump.feed(event)
            ]
            expected += [
                (query_id, match.position, match.label)
                for query_id, match in fresh_pump.feed(event)
            ]
        assert got == expected
        if regrown:
            assert states(self.engine) == states(fresh)
        self.indices = slot_indices(self.engine)
        for query_id in self.fed:
            self.fed[query_id] += ELEMENTS[number]

    def resume_from_a_file(self):
        """The crash: only the checkpoint *file* survives it."""
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "checkpoint.json")
            self.engine.checkpoint().save(path)
            loaded = Checkpoint.load(path)
        self.engine = MultiQueryEngine.from_checkpoint(loaded, limits=self.limits)
        self.pump = self.engine.resume_pump(loaded)
        assert list(self.engine.queries) == list(self.live)


ServingPass.TestCase.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None
)
TestServingPass = ServingPass.TestCase


def test_a_thousand_connections_leave_nothing_behind():
    """1,000 subscribe → one document → close → remove cycles through one
    pump: the report, the shared DFA and the checkpoint are those of an
    engine that only ever had the one permanent subscription (the parent
    kept an outcome per departed id: 554 → 147,454 checkpoint bytes)."""
    keep = {"keep": "_*.a[b].c"}
    engine = MultiQueryEngine(keep)
    pump = engine.start_pump(cursor=StreamCursor())
    delivered = 0
    for cycle in range(1000):
        query_id = f"c{cycle}.sub"
        # (cycle + 1: the last to leave holds a slot, so the memo of the
        # final comparison starts over at its <$> like the fresh one)
        engine.add_query(query_id, QUERIES[(cycle + 1) % len(QUERIES)])
        assert pump.attach(query_id)
        for event in DOCUMENTS[cycle % len(DOCUMENTS)]:
            delivered += sum(q == query_id for q, _ in pump.feed(event))
        delivered += len(pump.close(query_id))
        engine.remove_query(query_id)
    assert sorted(pump.serving.outcomes) == pump.live_queries == ["keep"]
    serving = pump.serving
    assert (serving.departed, serving.departed_degraded) == (1000, 0)
    assert serving.departed_matches == delivered > 0

    fresh = MultiQueryEngine(keep)
    fresh_pump = fresh.start_pump(cursor=StreamCursor())
    for event in DOCUMENTS[0]:  # the <$> drops the last departed slot
        pump.feed(event)
        fresh_pump.feed(event)
    assert len(engine._fastlane_core._slots) == len(fresh._fastlane_core._slots) == 1
    assert states(engine) == states(fresh)

    def size(checkpoint):
        return len(json.dumps(checkpoint.to_dict()))

    assert abs(size(engine.checkpoint()) - size(fresh.checkpoint())) < 200


def test_closing_a_hybrid_subscriber_with_live_obligations():
    """The service closes a subscriber at any event: here a hybrid one
    whose candidate is open and whose obligation is live.  What it left
    in the frames is inert, ``<$>`` clears it, and the rest answer the
    next document as a fresh engine does."""
    queries = {"keep": "_*.a[b].c", "h": "_*.a[c]", "h2": "_*.c[d.e]"}
    engine = MultiQueryEngine(queries)
    pump = engine.start_pump(cursor=StreamCursor())
    document = list(parse_string("<r><a><x/><c><d><e/></d></c></a></r>"))
    got = []
    for event in document[:3]:  # <$> <r> <a>
        got += pump.feed(event)
    core = engine._fastlane_core
    slot = core._by_query["h"]
    assert [(s, c.pos) for s, c in core._opened[-1]] == [(slot, 2)]
    assert [(s, c.state) for s, c, _ in core._obligs[-1]] == [(slot, _PENDING)]
    assert pump.close("h") == []
    engine.remove_query("h")
    assert all(c.state == _DROPPED for s, c in frame_entries(core) if s is slot)
    for event in document[3:]:
        got += pump.feed(event)
    # the a had a c to come: staying, "h" would have answered it
    assert [(q, m.position) for q, m in got] == [("h2", 4)]

    del queries["h"]
    fresh_pump = MultiQueryEngine(queries).start_pump(cursor=StreamCursor())
    offset = sum(isinstance(e, StartElement) for e in document)
    for index, event in enumerate(DOCUMENTS[0]):
        assert [(q, m.position - offset, m.label) for q, m in pump.feed(event)] == [
            (q, m.position, m.label) for q, m in fresh_pump.feed(event)
        ]
        if index == 0:  # <$>
            assert_fresh_frames(engine)
            assert slot not in core._slots.values()
