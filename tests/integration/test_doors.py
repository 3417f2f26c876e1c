"""Every door of the one per-event loop delivers the one reference.

``doors.py`` holds the corpus, the generator, the cut helper, the
reference and the door table.  Here they are swept:

* the reference is :class:`~repro.baselines.DomEvaluator`'s answer
  document by document, in document order, each match once — but for
  the ``following::`` matches that reach into the next document, which
  are the DOM answer over the documents read as one;
* every door reproduces its view of the reference under all eight knob
  combinations, the resume doors through a file at a quarter, half or
  three quarters of the stream by turns (the shard and service doors
  take no knobs and run once);
* on seeded structural faults every strict door refuses the event the
  reference (and a bare cursor) refuses, with its message, having
  delivered the same — ``filter_stream`` gives no verdict for a
  truncated last document, as the others hold it back as a prefix;
* under each stream limit every door trips where the literal network
  does through the same door, on the lanes it runs unarmed;
* every recovering door, under ``skip`` and ``repair``, on clean,
  faulted, cut and dying streams and under the stream limits, delivers
  the recovery reference's matches, verdicts and report, reading one
  event at a time;
* pulled and pushed passes agree while the consumer changes the live set
  at a match and a poisoned query is quarantined and rejoins, and a
  convicted query holds what a resumed pass gives it;
* a retained-state machine churns one serving pass — subscribe, close,
  depart mid-document, crash and resume from a file, flip the knobs, arm
  a stream limit, feed a corrupted document, convict — and holds it to
  fresh engines: its answers to the literal network's, its retained
  state to a same-flag engine's.
"""

from __future__ import annotations

import json
import random
from collections import defaultdict
from unittest import mock

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro import ResourceLimits, StreamCursor
from repro.analysis.planner import lane_counts
from repro.baselines import DomEvaluator
from repro.core import clock as clock_module
from repro.core.clock import FakeClock
from repro.core.fastlane import _DROPPED, _PENDING
from repro.core.multiquery import MultiQueryEngine
from repro.core.optimize import (
    ALL_OPTIMIZATIONS,
    NO_OPTIMIZATIONS,
    all_knob_combinations,
)
from repro.core.serving import BreakerPolicy, ServingPolicy
from repro.errors import StreamError
from repro.rpeq.parser import parse
from repro.xmlstream import FaultInjector
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    events_from_tags,
)
from repro.xmlstream.parser import iter_documents, parse_string

from ..conftest import make_random_events
from .doors import (
    CORPUS,
    CROSSING,
    DOORS,
    LANES,
    RECOVERING,
    STRICT,
    STRUCTURAL_FAULTS,
    TRIALS,
    UNKNOBBED,
    Dying,
    Reference,
    corrupted,
    pushed,
    recovered,
    stream,
    through_a_file,
)

EVENTS = stream(0xC0FFEE)


@pytest.fixture(scope="module")
def reference():
    return Reference(EVENTS)


def test_the_reference_is_the_dom_answer(reference):
    assert reference.refused is None and len(reference.per_document) == 3
    forest = [
        StartDocument(),
        *(e for e in EVENTS if e.__class__ not in (StartDocument, EndDocument)),
        EndDocument(),
    ]
    crossing = DomEvaluator(parse(CORPUS[CROSSING]))
    across = [(n.position, n.label) for n in crossing.evaluate(forest)]
    for query_id in CORPUS:
        got = [(p, label) for _, q, p, label in reference.rows if q == query_id]
        want = [hit for answer in reference.per_document for hit in answer[query_id]]
        assert got == (across if query_id == CROSSING else want), query_id
    # the one difference, ROADMAP item 8, is there to see
    within = [hit for answer in reference.per_document for hit in answer[CROSSING]]
    assert set(within) < set(across)
    # every query but one has matches to lose, and cross-query order
    # within an event is pinned only where an event decides several
    assert {q for _, q, _, _ in reference.rows} == set(CORPUS) - {"dfa-never"}
    deciding = defaultdict(set)
    for index, query_id, _, _ in reference.rows:
        deciding[index].add(query_id)
    assert sum(len(queries) > 1 for queries in deciding.values()) > 10


class Ticking(FakeClock):
    """One second later at every reading: the stream guard reads the
    clock once per event, so the wall-clock budget trips on a known one."""

    def monotonic(self):
        self.advance(1.0)
        return super().monotonic()


def ticking():
    return mock.patch.object(clock_module, "SYSTEM_CLOCK", Ticking())


#: each trips on some documents of the limit sweep's streams, not all
LIMITS = {
    "max_depth": ResourceLimits(max_depth=5),
    "max_events_per_document": ResourceLimits(max_events_per_document=60),
    "max_seconds_per_document": ResourceLimits(max_seconds_per_document=50.0),
}


@pytest.mark.parametrize("limit", [None, *LIMITS])
def test_the_corpus_runs_every_lane(limit):
    """The planner's lanes execute, armed or not: the stream limits are
    one check per event, which demotes nothing.  (The breakers never
    latch here: a convicted query leaves the lanes.)"""
    engine = MultiQueryEngine(CORPUS, limits=LIMITS.get(limit))
    policy = ServingPolicy(breaker=BreakerPolicy(max_trips=None))
    with ticking():
        list(engine.serve(iter(EVENTS), policy))
    assert engine.lane_executions == LANES
    assert {q for q, reason in engine.lane_demotions.items() if reason} == {
        q for q in CORPUS if q.startswith("axis")
    }
    planned, stats = lane_counts(engine.plans), engine.stats
    assert stats.fastlane_dfa_queries == planned["dfa"]
    assert (
        stats.fastlane_hybrid_queries
        + stats.fastlane_gated_queries
        + stats.fastlane_demotions
    ) == planned["hybrid"]
    assert stats.fastlane_demotions == len(engine.lane_demotions)
    if limit is None:
        for fed, parked in engine.gate_counts.values():
            assert fed + parked == len(EVENTS) and parked > 0


# ----------------------------------------------------------------------
# the sweeps over the door table

SWEEP = [
    (door, flags)
    for door in DOORS
    for flags in ([ALL_OPTIMIZATIONS] if door in UNKNOBBED else all_knob_combinations())
]


@pytest.mark.parametrize(
    "door, flags", SWEEP, ids=[f"{door}-{flags.describe()}" for door, flags in SWEEP]
)
def test_every_door_delivers_the_reference(door, flags, reference):
    """A resume door cuts at a quarter, half or three quarters of the
    stream, by turns over the knob combinations."""
    run, view = DOORS[door]
    cut = len(EVENTS) * (1 + all_knob_combinations().index(flags) % 3) // 4
    cut = cut if door.startswith("resume") else None
    assert run(EVENTS, flags, None, cut) == view(reference)


def bare_refusal(events):
    """What a bare :class:`StreamCursor` refuses, as a door reports it."""
    cursor = StreamCursor()
    for index, event in enumerate(events):
        try:
            cursor.advance(event)
        except StreamError as exc:
            return index, "StreamError", str(exc)
    return None


@pytest.mark.parametrize("kind", STRUCTURAL_FAULTS)
def test_every_strict_door_refuses_where_the_network_does(kind):
    refused = 0
    for trial in range(TRIALS):
        events, fault = corrupted(kind, trial)
        reference = Reference(events)
        assert reference.refused == bare_refusal(events), fault
        refused += reference.refused is not None
        valid = len(events) if reference.refused is None else reference.refused[0]
        cut = random.Random(trial).randrange(valid + 1)
        for door in STRICT:
            run, view = DOORS[door]
            observed = run(events, ALL_OPTIMIZATIONS, None, cut)
            assert observed == view(reference), (door, trial, fault)
    # the fault kinds are structural: most trials must actually refuse
    assert refused > TRIALS // 2, refused


def trips(observed):
    """How often a door's output shows the limit at work."""
    _, refused, *extras = observed
    for extra in extras:
        if isinstance(extra, tuple):  # a recovery report: its limit hits
            return extra[-1]
        if isinstance(extra, dict):  # serving outcomes
            return sum(outcome[3] for outcome in extra.values())
    return refused is not None


#: door -> the door whose literal pass it must reproduce under a limit: the
#: pulled serving pass the pushed one, the single-query engines the
#: bulkheads-off pass; the others their own
AGAINST = {"serve": "pump", "spex": "run"}


@pytest.mark.parametrize(
    "door", ["run", "run-skip", "serve", "pump", "resume_pump", "spex"]
)
@pytest.mark.parametrize("limit", LIMITS)
def test_every_door_trips_where_the_network_does(limit, door):
    seen = 0
    for trial in range(-(-TRIALS // 4)):
        events = stream(0x11A1 + trial, depths=(3, 5, 3, 5, 3), max_children=3)
        # (only resume_pump cuts: a resumed document's budget restarts there)
        cut = random.Random(trial).randrange(len(events))
        cut = cut if door == "resume_pump" else None
        observed = []
        against = AGAINST.get(door, door)
        for name, flags in ((door, ALL_OPTIMIZATIONS), (against, NO_OPTIMIZATIONS)):
            with ticking():
                observed.append(DOORS[name][0](events, flags, LIMITS[limit], cut))
        assert observed[0] == observed[1], trial
        seen += trips(observed[0])
    assert seen, "the limit never tripped: the door was not exercised"


def test_the_stream_guard_runs_before_the_runners():
    """The event that trips a stream limit reaches no runner, so no door
    delivers a match at it.  It is the inner ``c``, which the dfa queries
    ``a.b.c`` and ``_*.c`` select; unarmed it delivers the outer ``c``
    of ``a[b.c].(b|c)``, whose qualifier it decides after that candidate
    closed (the other lanes deliver at end tags) — on the gated lane,
    and with the lanes off on its network."""
    events = list(parse_string("<a><c/><b><c/></b></a>"))
    limits = ResourceLimits(max_depth=3)
    trip = DOORS["run"][0](events, NO_OPTIMIZATIONS, limits)[1][0]
    assert events[trip] == StartElement("c") and trip == 5
    unarmed = [row for row in Reference(events).rows if row[0] == trip]
    assert unarmed == [(trip, "gated-inner", 2, "c")]
    for door in ("run", "serve", "pump", "resume_pump", "spex"):
        for flags in (ALL_OPTIMIZATIONS, NO_OPTIMIZATIONS):
            rows, refused, *extras = DOORS[door][0](events, flags, limits)
            assert trips((rows, refused, *extras)), (door, flags)
            assert all(row[0] != trip for row in rows), (door, flags, rows)


# ----------------------------------------------------------------------
# recovery: one pass, held to standalone ``recovering``

#: what a recovering pass survives: nothing, each structural fault, a
#: stream cut inside its last document and a source that dies there
RECOVERY_FAULTS = (None, *STRUCTURAL_FAULTS, "cut", "source dies")
#: each trips on some documents of the recovery sweep's streams
RECOVERY_LIMITS = {
    "max_depth": ResourceLimits(max_depth=4),
    "max_events_per_document": ResourceLimits(max_events_per_document=24),
}


def faulty(kind, trial):
    """Three documents, ``kind`` befalling one of them."""
    if kind in STRUCTURAL_FAULTS:
        return corrupted(kind, trial)[0]
    events = stream(0x5EED + trial, depths=(4, 4, 4), max_children=3)
    if kind is None:
        return events
    last = max(i for i, e in enumerate(events) if e.__class__ is StartDocument)
    cut = random.Random(trial).randrange(last + 1, len(events))
    return events[:cut] if kind == "cut" else Dying(events, cut)


@pytest.mark.parametrize("policy", ["skip", "repair"])
@pytest.mark.parametrize("kind", RECOVERY_FAULTS, ids=str)
def test_every_recovering_door_delivers_the_recovered_reference(kind, policy):
    """Matches, verdicts, records and counters, each at the event the
    reference delivers it — under repair, where strict delivers it over
    the repaired stream — never reading ahead; the knobs rotate by trial
    (a third of ``TRIALS``, rounded up)."""
    combinations = all_knob_combinations()
    for trial in range(-(-TRIALS // 3)):
        events = faulty(kind, trial)
        flags = combinations[trial % len(combinations)]
        documents, report = recovered(events, policy)
        for door, (run, view) in RECOVERING.items():
            observed = run(events, policy, flags)
            assert observed == (view(documents), report), (door, trial, flags)


@pytest.mark.parametrize("policy", ["skip", "repair"])
@pytest.mark.parametrize("limit", RECOVERY_LIMITS)
def test_a_document_over_a_limit_delivers_nothing(limit, policy):
    """With bulkheads off, a document that trips a limit is a ``"limit"``
    record at its ``</$>`` — or a ``"skipped"`` one, where a fault
    further on quarantines it whole."""
    tripped = 0
    for trial in range(-(-TRIALS // 4)):
        events = faulty(RECOVERY_FAULTS[trial % len(RECOVERY_FAULTS)], trial)
        limits = RECOVERY_LIMITS[limit]
        documents, report = recovered(events, policy, limits)
        for door in ("run", "spex", "filter_documents", "filter_stream"):
            run, view = RECOVERING[door]
            observed = run(events, policy, ALL_OPTIMIZATIONS, limits)
            assert observed == (view(documents), report), (door, trial)
        tripped += report[-1]
    assert tripped, "the limit never tripped"


def two_documents():
    """``<$><a/><b/></$><$><c/></$>``: six events, then four."""
    return [
        event
        for labels in (("a", "b"), ("c",))
        for event in (
            StartDocument(),
            *(e for label in labels for e in (StartElement(label), EndElement(label))),
            EndDocument(),
        )
    ]


@pytest.mark.parametrize("policy", ["skip", "repair"])
@pytest.mark.parametrize(
    "limits",
    [
        ResourceLimits(max_events_per_document=5),
        # one tick an event: the first document's </$> comes 5 s after its <$>
        ResourceLimits(max_seconds_per_document=4.5),
    ],
    ids=["events", "seconds"],
)
def test_a_limit_tripped_at_end_document_spares_the_next_one(limits, policy):
    """Regression: a limit tripped at a ``</$>`` sent the pass on to read
    the next document by the cursor alone — its matches lost, the
    ``"limit"`` record filed under its index, one document counted for
    two.  (The sweeps above never trip at ``</$>``: their documents have
    an even number of events, and their event limit is even.)"""
    events = two_documents()
    for door in ("run", "spex", "filter_documents", "filter_stream"):
        run, view = RECOVERING[door]
        with ticking():
            documents, report = recovered(events, policy, limits)
        assert documents == [([(9, "dfa-closure", 1, "c")], 9, True)]
        assert [r[::2] for r in report[0]] == [(0, "limit")] and report[1] == 2
        with ticking():
            observed = run(events, policy, ALL_OPTIMIZATIONS, limits)
        assert observed == (view(documents), report), door


@pytest.mark.parametrize("policy", ["skip", "repair"])
@pytest.mark.parametrize("limit", [None, 3, 4], ids=["none", "3-events", "4-events"])
def test_a_start_document_inside_a_document_opens_the_next_one(limit, policy):
    """A ``<$>`` inside a document: skip drops that document and repair
    closes it, and the ``<$>`` opens the next — also where the first
    document tripped a limit and its rest is only checked (3: before the
    ``<$>``, 4: at repair's first closer; ``serve`` has bulkheads, so
    it runs without)."""
    limits = ResourceLimits(max_events_per_document=limit) if limit else None
    tags = ["<$>", "<a>", "<b>", "</b>", "<$>", "<c>", "</c>", "</$>"]
    events = list(events_from_tags(tags))
    for door in [d for d in RECOVERING if limits is None or d != "serve"]:
        run, view = RECOVERING[door]
        documents, report = recovered(events, policy, limits)
        assert report[1] == 2, door
        observed = run(events, policy, ALL_OPTIMIZATIONS, limits)
        assert observed == (view(documents), report), door


def test_repair_delivers_each_match_where_strict_does():
    """Under repair with no limit armed, a recovering door delivers each
    match at the event where a strict pass over the repaired stream
    delivers it, not at its document's ``</$>``.  Here repair drops an
    orphan end tag, so the repaired stream is the source without it."""
    tags = ["<$>", "<a>", "<b>", "<c>", "</c>", "</b>", "</x>", "<c>", "</c>", "</a>", "</$>"]
    events = list(events_from_tags(tags))
    orphan = tags.index("</x>")
    strict = Reference(events[:orphan] + events[orphan + 1 :])
    want = [(i + (i >= orphan), q, p, label) for i, q, p, label in strict.rows]
    assert want[0][0] < orphan and want[-1][0] > orphan
    for door in ("run", "serve"):
        assert RECOVERING[door][0](events, "repair")[0] == want, door
    hits = {q: [(i, p, label) for i, query, p, label in want if query == q] for q in CORPUS}
    assert RECOVERING["spex"][0](events, "repair")[0] == hits


# ----------------------------------------------------------------------
# pull and push under churn


class _Poisoned:
    """A runner that raises at the ``trip``-th event it is fed."""

    def __init__(self, runner, trip):
        self._runner, self._left = runner, trip

    def __getattr__(self, name):
        return getattr(self._runner, name)

    def process_event(self, event):
        self._left -= 1
        if self._left == 0:
            raise RuntimeError("poisoned")
        return self._runner.process_event(event)


class Poisoned(MultiQueryEngine):
    """Its ``poison`` query's runners — every one it compiles, so every
    re-admission's too — raise at the ``trip``-th event each is fed."""

    def __init__(self, poison, trip):
        super().__init__({**CORPUS, "poison": poison} if poison else CORPUS)
        self.trip = trip

    def _compile_one(self, query_id, cursor, *args, **kwargs):
        runner = super()._compile_one(query_id, cursor, *args, **kwargs)
        return _Poisoned(runner, self.trip) if query_id == "poison" else runner


@pytest.mark.parametrize("seed", range(8))
def test_pull_and_push_agree_while_the_live_set_changes(seed):
    """At its ``at``-th match the consumer closes and removes a query,
    the pulled pass suspended right there; in the serving pass a
    poisoned network query is quarantined and rejoins at every ``<$>``."""
    rng = random.Random(seed)
    events = stream(0xC0FFEE + seed)  # the first document trips the poison
    victim, at = rng.choice(sorted(CORPUS)), rng.randint(1, 8)
    poison = CORPUS[rng.choice(["network", "axis-preceding"])]
    trip = rng.randint(1, 12)
    for door, policy, poisoned in (
        ("run", ServingPolicy(quarantine=False), None),
        ("serve", ServingPolicy(), poison),
    ):
        passes = []
        for push in (False, True):
            engine = Poisoned(poisoned, trip)
            drawn, cursor = [-1], StreamCursor()

            def source():
                for drawn[0], event in enumerate(events):
                    assert push or cursor.events_read == drawn[0], "read ahead"
                    yield event

            if push:
                pump = engine.start_pump(policy)
                pairs = (pair for event in source() for pair in pump.feed(event))
            else:
                pairs = getattr(engine, door)(source(), cursor=cursor)
            rows, flushed = [], []
            for query_id, match in pairs:
                rows.append((drawn[0], query_id, match.position, match.label))
                if len(rows) == at and victim in engine.queries:
                    flushed += [m.position for m in engine._pump.close(victim)]
                    engine.remove_query(victim)
            serving = engine.serving if door == "serve" else None
            passes.append((rows, flushed, serving and serving.to_obj()))
        assert passes[0] == passes[1], door
    assert serving.quarantines >= 1 and serving.probes >= 1  # it rejoined


def test_a_readmitted_query_keeps_its_registration_rank():
    """Regression: ``serve`` emitted same-event matches in live-set
    insertion order, so a shed (or quarantined) query moved behind
    every other query once it was re-admitted; ``run`` never did."""
    queries = {"q1": "_*.a[c]", "q2": "_*.a"}
    documents = ["<r><a>" + "<x/>" * 6 + "<c/></a></r>"] + ["<r><a><c/></a></r>"] * 2
    policy = ServingPolicy(shed_buffered_events=20, priorities={"q1": 0, "q2": 5})
    engine = MultiQueryEngine(queries, collect_events=True)
    served = engine.serve(iter_documents(documents), policy)
    served = [(q, m.position) for q, m in served]
    assert engine.serving.load_sheds == 1  # q1, while buffering doc 1
    # q1 rejoins at document 2 on a fresh network (its positions
    # restart) and is emitted before q2 again, as run() emits it
    assert served == [("q2", 2), ("q1", 2), ("q2", 11), ("q1", 5), ("q2", 14)]
    assert [q for q, _ in engine.run(iter_documents(documents))] == ["q1", "q2"] * 3


def test_a_convicted_query_holds_what_a_resumed_pass_gives_it():
    """A gated query that fails every document it runs latches its
    breaker at the third trip.  The live pass then holds what a pass
    resumed from its checkpoint holds: no lane for it and, from the next
    ``<$>``, no slot in the shared DFA (a live pass used to keep both)."""
    engine = Poisoned(CORPUS["gated-inner"], trip=2)
    pump = engine.start_pump(cursor=StreamCursor())
    documents = [stream(seed, depths=(4,)) for seed in range(6)]
    for document in documents[:5]:  # trips at 1, 3 and 5: cooldown 1
        for event in document:
            pump.feed(event)
    assert pump._breakers["poison"].latched
    checkpoint = through_a_file(engine.checkpoint())
    fresh = MultiQueryEngine.from_checkpoint(checkpoint)
    resumed = fresh.resume_pump(checkpoint)
    for event in documents[5]:
        assert pump.feed(event) == resumed.feed(event)
    assert "poison" not in engine.lane_executions
    assert engine.lane_executions == fresh.lane_executions

    def slots(core):
        return sorted(slot.query_id for slot in core._slots.values())

    assert slots(engine._fastlane_core) == slots(fresh._fastlane_core)
    assert "poison" not in slots(engine._fastlane_core)


# ----------------------------------------------------------------------
# the retained-state machine

#: the corpus but for the query that never matches and the one that
#: reaches into the next document, which a fresh engine cannot see
QUERIES = tuple(text for q, text in CORPUS.items() if q not in (CROSSING, "dfa-never"))
DOCUMENTS = [make_random_events(random.Random(seed), 3, 5) for seed in range(4)]
ELEMENTS = [sum(e.__class__ is StartElement for e in doc) for doc in DOCUMENTS]
#: what ``restart`` may arm: each trips on some of the documents, the
#: last on every one, so three documents in a row convict
MACHINE_LIMITS = (
    None,
    ResourceLimits(max_depth=4),
    ResourceLimits(max_events_per_document=30),
    ResourceLimits(max_depth=2),
)


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
    """One long serving pass under churn, held at every document to
    fresh engines registered with its live queries in the same order.

    Covered: subscribe; close and remove, between documents or at any
    event inside one; a crash at any event, resumed from the file; a
    flip to any of the eight knob combinations; one armed stream limit
    (or none); a corrupted document; a query's third trip, which
    convicts it for the rest of the pass.  Still out: killing a shard,
    killing the server and its ``--resume``, the d·σ̂ buffering bound,
    each match's earliest event, the service's registry and ack floors.
    """

    def __init__(self):
        super().__init__()
        #: live query id -> query, in registration order
        self.live: dict[str, str] = {}
        #: live query id -> start tags it has been fed since its runner
        #: was compiled (positions count from there)
        self.fed: dict[str, int] = {}
        self.minted = 0

    @initialize()
    def open_the_pass(self):
        self.restart(ALL_OPTIMIZATIONS, None)

    @precondition(lambda self: self.live)
    @rule(
        flags=st.sampled_from(all_knob_combinations()),
        limits=st.sampled_from(MACHINE_LIMITS),
    )
    def restart(self, flags, limits):
        """A new process that flips the knobs and arms one stream limit
        (or none), its subscribers back in their order."""
        self.flags, self.limits = flags, limits
        self.engine = MultiQueryEngine(dict(self.live), optimize=flags, limits=limits)
        self.pump = self.engine.start_pump(cursor=StreamCursor())
        self.fed = dict.fromkeys(self.live, 0)
        self.indices = slot_indices(self.engine)

    def fresh(self, flags):
        """A fresh engine and pump with the live set, under ``flags``,
        the queries this pass convicted (their third trip latched their
        breakers) latched from the start."""
        engine = MultiQueryEngine(dict(self.live), optimize=flags, limits=self.limits)
        convicted = [q for q in self.live if self.pump._breakers[q].latched]
        return engine, engine.start_pump(cursor=StreamCursor(), quarantined=convicted)

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

    def depart_inside(self, query_id, twins):
        """Close + remove at a cut inside a document, on every pass: the
        departed slot's candidates and obligations stay in the frames of
        the open elements until they close, but inert."""
        flushed = self.pump.close(query_id)
        self.engine.remove_query(query_id)
        expected = [twin_pump.close(query_id) for _, twin_pump in twins][-1]
        for twin, _ in twins:
            twin.remove_query(query_id)
        assert [(m.position - self.fed[query_id], m.label) for m in flushed] == [
            (m.position, m.label) for m in expected
        ]
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
        cut=st.none() | st.integers(1, 60),
        leave=st.none() | st.integers(1, 60),
        data=st.data(),
    )
    def feed_a_document(self, number, cut, leave, data):
        """One document, optionally through a crash after ``cut`` events
        and a departure at event ``leave``."""
        document = DOCUMENTS[number]
        twin, twin_pump = self.fresh(self.flags)  # retained state
        literal = self.fresh(NO_OPTIMIZATIONS)  # answers
        leaving = data.draw(st.sampled_from(sorted(self.live))) if self.live else None
        for pump in (self.pump, twin_pump, literal[1]):
            assert pump.feed(document[0]) == []
        # the <$> boundary: everyone attached has joined, everyone who
        # left is gone from the shared DFA and from every frame
        assert retained(self.engine, self.pump) == retained(twin, twin_pump)
        assert_fresh_frames(self.engine)
        regrown = slot_indices(self.engine) != self.indices
        if regrown:
            # the slot set changed, so the lazy DFA started over
            assert states(self.engine) == states(twin)
        got, expected = [], []
        for index, event in enumerate(document[1:], start=1):
            if index == leave and leaving is not None:
                self.depart_inside(leaving, [(twin, twin_pump), literal])
            if index == cut:
                self.resume(through_a_file(self.engine.checkpoint()))
                regrown = False  # the new process explored the tail only
            got += [
                (q, m.position - self.fed[q], m.label) for q, m in self.pump.feed(event)
            ]
            twin_pump.feed(event)
            expected += [(q, m.position, m.label) for q, m in literal[1].feed(event)]
        assert got == expected
        if regrown:
            assert states(self.engine) == states(twin)
        self.indices = slot_indices(self.engine)
        status = {q: self.pump.serving.outcome(q).status for q in self.live}
        assert status == {q: literal[1].serving.outcome(q).status for q in self.live}
        for query_id in self.fed:
            # a quarantined query rejoins at the next <$> on a new runner
            # (a convicted one never does)
            tripped = status[query_id] == "quarantined"
            self.fed[query_id] = 0 if tripped else self.fed[query_id] + ELEMENTS[number]

    @precondition(lambda self: self.live)
    @rule(
        number=st.sampled_from(range(len(DOCUMENTS))),
        kind=st.sampled_from(STRUCTURAL_FAULTS),
        seed=st.integers(0, 2**16),
    )
    def feed_a_corrupted_document(self, number, kind, seed):
        """A producer's bad document: the pass refuses it where the
        literal network does, having delivered the same, and goes on from
        the boundary before it, as the service, which refuses it whole."""
        boundary = through_a_file(self.engine.checkpoint())
        document, _ = FaultInjector(seed=seed).corrupt(DOCUMENTS[number], kind)
        rows, refused = pushed(self.pump, document)
        expected = pushed(self.fresh(NO_OPTIMIZATIONS)[1], document)
        rows = [(i, q, p - self.fed[q], label) for i, q, p, label in rows]
        assert rows == expected[0]
        # (the message may say the pass had documents before this one)
        assert (refused or ())[:2] == (expected[1] or ())[:2]
        self.resume(boundary)
        self.indices = slot_indices(self.engine)

    def resume(self, checkpoint):
        """Only the checkpoint file survived: a new process from it."""
        self.engine = MultiQueryEngine.from_checkpoint(checkpoint, limits=self.limits)
        self.pump = self.engine.resume_pump(checkpoint)
        assert list(self.engine.queries) == list(self.live)
        assert self.engine.optimize == self.flags


ServingPass.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
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
