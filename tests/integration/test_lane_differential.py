"""End-to-end lane differential: the CI ``lane-differential`` gate.

The planner (PR 8) *chose* execution lanes; PR 10 made them real.  The
acceptance property is strict: for a corpus spanning every lane
(``dfa``, ``hybrid``, ``gated``, ``network``) and **every** combination
of the three optimization knobs, the multi-query engine must emit the
exact match stream of the unoptimized pure-network pass — same
positions, same labels, same cross-query interleaving — through every
door of the one per-event driver (:data:`DOORS`): ``run``, ``serve``,
both under ``on_error="skip"``, the push-mode pump, and a
checkpoint/resume cut at three points; ``filter_documents`` must say
"has a match" for exactly the queries that have one.

The planner invariant rides along: under default flags every query the
planner put on the ``dfa`` lane must actually have *executed* on the
shared lazy DFA (:attr:`~repro.core.multiquery.MultiQueryEngine.stats`
counters), so a silent demotion can never masquerade as coverage.

The gated lane — a residual network fed on demand behind a DFA head —
gets the strictest form (:class:`TestHeadedDifferential`): the stream of
``(event index, query, position, label)`` must equal the pure network's
under all eight flag combinations, so deferring a start tag can never
move a match to a later event — and every ``optimize`` entry only a
format-2 checkpoint spelled (:data:`SPELLINGS`) must be refused by name
at each of those doors, now that formats ≤ 2 are not decoded.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro import Checkpoint, StreamCursor
from repro.analysis.planner import lane_counts
from repro.core.multiquery import MultiQueryEngine
from repro.core.optimize import (
    ALL_OPTIMIZATIONS,
    NO_OPTIMIZATIONS,
    OptimizationFlags,
    all_knob_combinations,
    as_flags,
)
from repro.core.serving import ServingPolicy
from repro.xmlstream.events import EndDocument, StartElement
from repro.xmlstream.parser import iter_documents

from ..conftest import indexed_matches, make_random_events

#: Queries chosen so the default plan covers every execution lane.
CORPUS = {
    "dfa-plain": "a.c",
    "dfa-closure": "_*.c",
    "dfa-union": "a._.c|a.b",
    "hybrid-trailing": "_*.a[c]",
    "hybrid-path-cond": "_*.b[c.a]",
    "gated-inner": "a[b.c].(b|c)",
    "gated-stacked": "_*[b]._*.c",
    "network-axis": "a.following::b",
    "network-preceding": "_*.c[preceding::a]",
}


def _stream(seed: int = 0xC0FFEE, documents: int = 3) -> list:

    rng = random.Random(seed)
    events = []
    for _ in range(documents):
        events.extend(make_random_events(rng, max_children=4, max_depth=5))
    return events


EVENTS = _stream()


#: per event index, the start tags of the documents completed before
#: it: what a per-document position (``on_error="skip"`` compiles a
#: fresh live set per document) lacks to be a stream position.  Skip
#: mode delivers a document at its ``</$>``, which belongs to it.
ELEMENTS_BEFORE = []
_seen = _completed = 0
for _event in EVENTS:
    ELEMENTS_BEFORE.append(_completed)
    _seen += isinstance(_event, StartElement)
    if isinstance(_event, EndDocument):
        _completed = _seen

CUTS = (len(EVENTS) // 4, len(EVENTS) // 2, (3 * len(EVENTS)) // 4)


def _fingerprints(pairs):
    return [(query_id, m.position, m.label, m.events) for query_id, m in pairs]


def _skipping(door):
    """``door(source, on_error="skip")`` in stream positions."""

    def go(engine):
        return [
            (query_id, position + ELEMENTS_BEFORE[index], label, None)
            for index, query_id, position, label in indexed_matches(
                lambda source: door(engine)(source, on_error="skip"), EVENTS
            )
        ]

    return go


def _pumped(engine):
    pump = engine.start_pump()
    return _fingerprints(pair for event in EVENTS for pair in pump.feed(event))


def _interrupted(cut):
    def go(engine):
        cursor = StreamCursor()
        prefix = list(itertools.islice(iter(EVENTS), cut))
        collected = _fingerprints(engine.run(iter(prefix), cursor=cursor))
        data = engine.checkpoint().to_dict()
        restored = Checkpoint.from_dict(data)  # full serialization trip
        fresh = MultiQueryEngine.from_checkpoint(restored)
        collected += _fingerprints(fresh.resume(restored, iter(EVENTS)))
        assert fresh.lane_executions == engine.lane_executions
        return collected

    return go


#: Every way to push EVENTS through the one per-event driver; each must
#: reproduce its reference *sequence*, cross-query order within an event
#: included.  The ``-skip`` doors evaluate document by document, so
#: their reference is the per-document one (:func:`reference_by_document`).
DOORS = {
    "run": lambda engine: _fingerprints(engine.run(iter(EVENTS))),
    "run-skip": _skipping(lambda engine: engine.run),
    "serve": lambda engine: _fingerprints(engine.serve(iter(EVENTS))),
    "serve-skip": _skipping(lambda engine: engine.serve),
    "pump": _pumped,
    **{f"resume@{cut}": _interrupted(cut) for cut in CUTS},
}


def _documents():
    document = []
    for event in EVENTS:
        document.append(event)
        if isinstance(event, EndDocument):
            yield document
            document = []


@pytest.fixture(scope="module")
def reference():
    engine = MultiQueryEngine(CORPUS, optimize=NO_OPTIMIZATIONS)
    return _fingerprints(engine.run(iter(EVENTS)))


@pytest.fixture(scope="module")
def reference_by_document():
    """The pure-network pass over each document on its own, in stream
    positions: the strict reference, minus what only a pass that keeps
    its networks across ``</$>`` can see."""
    engine = MultiQueryEngine(CORPUS, optimize=NO_OPTIMIZATIONS)
    out, before = [], 0
    for document in _documents():
        out += [
            (query_id, m.position + before, m.label, m.events)
            for query_id, m in engine.run(iter(document))
        ]
        before += sum(isinstance(event, StartElement) for event in document)
    return out


class TestRunDifferential:
    def test_corpus_covers_every_lane(self):
        engine = MultiQueryEngine(CORPUS)
        assert all(count > 0 for count in lane_counts(engine.plans).values())

    def test_the_stream_has_events_with_several_matches(self, reference):
        """Cross-query order within an event is only pinned if some
        event decides matches of more than one query."""
        indexed = indexed_matches(
            MultiQueryEngine(CORPUS, optimize=NO_OPTIMIZATIONS).run, EVENTS
        )
        crowded = [
            index
            for index, group in itertools.groupby(indexed, key=lambda m: m[0])
            if len({query_id for _, query_id, _, _ in group}) > 1
        ]
        assert len(crowded) > 10

    def test_the_two_references_differ_only_across_documents(
        self, reference, reference_by_document
    ):
        """``following::`` reaches into the next document when the
        networks outlive ``</$>``; nothing else may tell the two apart."""
        crossing = {"network-axis"}
        assert [m for m in reference if m[0] not in crossing] == [
            m for m in reference_by_document if m[0] not in crossing
        ]
        assert set(reference_by_document) < set(reference)

    @pytest.mark.parametrize("door", DOORS)
    @pytest.mark.parametrize(
        "flags", all_knob_combinations(), ids=OptimizationFlags.describe
    )
    def test_every_knob_combination_is_bit_identical(
        self, flags, door, reference, reference_by_document
    ):
        engine = MultiQueryEngine(CORPUS, optimize=flags)
        expected = reference_by_document if door.endswith("-skip") else reference
        assert DOORS[door](engine) == expected

    @pytest.mark.parametrize(
        "flags", all_knob_combinations(), ids=OptimizationFlags.describe
    )
    def test_filter_verdict_is_has_a_match(self, flags, reference):
        engine = MultiQueryEngine(CORPUS, optimize=flags)
        matched = {query_id for query_id, *_ in reference}
        assert engine.filter_documents(iter(EVENTS)) == {
            query_id: query_id in matched for query_id in CORPUS
        }
        # ... and per document, against the same door one document at a time
        literal = MultiQueryEngine(CORPUS, optimize=NO_OPTIMIZATIONS)
        for verdicts, document in zip(
            engine.filter_stream(iter(EVENTS)), _documents(), strict=True
        ):
            hits = {query_id for query_id, _ in literal.run(iter(document))}
            assert verdicts == {query_id: query_id in hits for query_id in CORPUS}


class TestServeDifferential:
    def test_serving_pass_is_bit_identical(self, reference):
        engine = MultiQueryEngine(CORPUS)
        got = _fingerprints(engine.serve(iter(EVENTS)))
        assert got == reference
        assert engine.serving is not None
        assert engine.serving.quarantines == 0
        assert engine.serving.breaker_trips == 0

    def test_serving_with_lanes_off_is_bit_identical(self, reference):
        engine = MultiQueryEngine(CORPUS, optimize=NO_OPTIMIZATIONS)
        assert _fingerprints(engine.serve(iter(EVENTS))) == reference

    def test_readmitted_query_keeps_its_registration_rank(self):
        """Regression: ``serve`` emitted same-event matches in live-set
        insertion order, so a shed (or quarantined) query moved behind
        every other query once it was re-admitted; ``run`` never did."""
        queries = {"q1": "_*.a[c]", "q2": "_*.a"}
        documents = [
            "<r><a>" + "<x/>" * 6 + "<c/></a></r>",
            "<r><a><c/></a></r>",
            "<r><a><c/></a></r>",
        ]
        policy = ServingPolicy(
            shed_buffered_events=20, priorities={"q1": 0, "q2": 5}
        )
        engine = MultiQueryEngine(queries, collect_events=True)
        served = [
            (query_id, match.position)
            for query_id, match in engine.serve(iter_documents(documents), policy)
        ]
        assert engine.serving.load_sheds == 1  # q1, while buffering doc 1
        # q1 rejoins at document 2 on a fresh network (its positions
        # restart) and is emitted before q2 again, as run() emits it
        assert served == [("q2", 2), ("q1", 2), ("q2", 11), ("q1", 5), ("q2", 14)]
        ran = [query_id for query_id, _ in engine.run(iter_documents(documents))]
        assert ran == ["q1", "q2"] * 3


class TestCheckpointResumeDifferential:
    """A cut through live fast-lane state must not lose or duplicate."""

    CUTS = CUTS

    def _interrupted(self, optimize, cut):
        return _interrupted(cut)(MultiQueryEngine(CORPUS, optimize=optimize))

    @pytest.mark.parametrize("cut", CUTS)
    def test_resume_through_fast_lanes(self, cut, reference):
        assert self._interrupted(ALL_OPTIMIZATIONS, cut) == reference

    @pytest.mark.parametrize("cut", CUTS)
    def test_resume_without_lanes_still_agrees(self, cut, reference):
        assert self._interrupted(NO_OPTIMIZATIONS, cut) == reference

    @pytest.mark.parametrize(
        "flags", all_knob_combinations(), ids=OptimizationFlags.describe
    )
    def test_random_cuts_through_a_file(self, flags, tmp_path):
        """Format 3 end to end: five seeded cuts per knob combination,
        each through ``save``/``load``, held to the event."""
        expected = indexed_matches(
            MultiQueryEngine(CORPUS, optimize=NO_OPTIMIZATIONS).run, EVENTS
        )
        rng = random.Random(all_knob_combinations().index(flags))
        for cut in rng.sample(range(1, len(EVENTS)), 5):
            engine = MultiQueryEngine(CORPUS, optimize=flags)
            cursor = StreamCursor()
            got = indexed_matches(
                lambda src: engine.run(src, cursor=cursor), EVENTS[:cut]
            )
            engine.checkpoint().save(tmp_path / "cut.json")
            loaded = Checkpoint.load(tmp_path / "cut.json")
            fresh = MultiQueryEngine.from_checkpoint(loaded)
            got += indexed_matches(lambda src: fresh.resume(loaded, src), EVENTS)
            assert got == expected, cut
            assert fresh.lane_executions == engine.lane_executions

    def test_restored_engine_reuses_the_checkpointed_lanes(self):
        engine = MultiQueryEngine(CORPUS)
        cursor = StreamCursor()
        prefix = list(itertools.islice(iter(EVENTS), len(EVENTS) // 2))
        list(engine.run(iter(prefix), cursor=cursor))
        checkpoint = engine.checkpoint()
        fresh = MultiQueryEngine.from_checkpoint(checkpoint)
        list(fresh.resume(checkpoint, iter(EVENTS)))
        assert fresh.lane_executions == engine.lane_executions


class TestPlannerInvariant:
    """Every planned dfa-lane query actually executed on the DFA."""

    def test_dfa_plans_execute_on_the_dfa(self):
        engine = MultiQueryEngine(CORPUS)
        engine.evaluate(iter(EVENTS))
        for query_id, plan in engine.plans.items():
            if plan.lane == "dfa":
                assert engine.lane_executions[query_id] == "dfa", query_id
        # the axis queries plan hybrid but demote at compile time — the
        # PLAN005 path; a demotion must always carry its reason
        for query_id, reason in engine.lane_demotions.items():
            assert engine.lane_executions[query_id] == "network"
            assert reason

    def test_stats_counters_match_the_plans(self):
        engine = MultiQueryEngine(CORPUS)
        engine.evaluate(iter(EVENTS))
        planned = lane_counts(engine.plans)
        stats = engine.stats
        assert stats.fastlane_dfa_queries == planned["dfa"]
        assert (
            stats.fastlane_hybrid_queries
            + stats.fastlane_gated_queries
            + stats.fastlane_demotions
        ) == planned["hybrid"]
        assert stats.fastlane_demotions == len(engine.lane_demotions)
        assert stats.fastlane_states > 0


# ----------------------------------------------------------------------
# headed vs. pure network, event-indexed

#: Queries that run gated under default flags: qualifier mid-path,
#: stacked and nested qualifiers, a closure inside the condition, an
#: ε-accepting residual tail, and a residual that starts with a union.
GATED = {
    "mid-path": "_*.a[b].c",
    "stacked": "a.b[c][a]._",
    "nested": "_*.a[c[b]].c",
    "closure-cond": "_*.a[_*.c]._*.b",
    "nullable-tail": "_*.a[b].c?",
    "union-residual": "a.(b[c]|c)._",
    "never": "_*.a[e].c",
}


@pytest.fixture(scope="module")
def headed_reference():
    return indexed_matches(MultiQueryEngine(GATED, optimize=NO_OPTIMIZATIONS).run, EVENTS)


FOLDED = ("star_fusion", "routing", "formula_memo", "message_pool", "fused_network")


def _format_2_matrix():
    """The 16-point knob matrix this class ran while ``optimize`` had
    seven keys, spelled the way checkpoint format 2 spelled the entry:
    one key off or one key on, named by the keys that are on."""
    names = FOLDED[:4] + ("dfa_lane", "hybrid_gate") + FOLDED[4:]
    points = [{name: name != off for name in names} for off in names]
    points += [{name: name == on for name in names} for on in names]
    return {"+".join(n for n in names if point[n]): point for point in points}


#: By name: the eight flag combinations, and the twelve format-2 points
#: that are not among them.  Format 3 writes the three-key dict only and
#: reads nothing else, so each of the twelve is an unknown-flag error.
SPELLINGS = {
    **_format_2_matrix(),
    **{flags.describe(): flags for flags in all_knob_combinations()},
}


def _decoded(spelling):
    """The flags a spelling means, or ``None`` once it has been refused
    the documented way: a ``ValueError`` naming the keys that are not
    knobs."""
    if isinstance(spelling, OptimizationFlags):
        return spelling
    with pytest.raises(ValueError, match="unknown optimization flag") as refusal:
        as_flags(spelling)
    assert all(knob in str(refusal.value) for knob in FOLDED)
    return None


class TestHeadedDifferential:
    def test_the_corpus_runs_gated(self):
        engine = MultiQueryEngine(GATED)
        engine.evaluate(iter(EVENTS))
        assert set(engine.lane_executions.values()) == {"gated"}
        assert engine.lane_demotions == {}
        for fed, parked in engine.gate_counts.values():
            assert fed + parked == len(EVENTS)
            assert parked > 0

    def test_the_reference_has_matches_to_lose(self, headed_reference):
        matched = {query_id for _, query_id, _, _ in headed_reference}
        assert matched == set(GATED) - {"never"}

    def test_the_spellings(self):
        decoded = {name: _decoded(spelling) for name, spelling in SPELLINGS.items()}
        assert len(decoded) == 20
        assert sum(flags is None for flags in decoded.values()) == 12
        assert {f for f in decoded.values() if f} == set(all_knob_combinations())

    @pytest.mark.parametrize("spelling", SPELLINGS.values(), ids=SPELLINGS)
    def test_run(self, spelling, headed_reference):
        flags = _decoded(spelling)
        if flags is not None:
            engine = MultiQueryEngine(GATED, optimize=flags)
            assert indexed_matches(engine.run, EVENTS) == headed_reference

    @pytest.mark.parametrize("spelling", SPELLINGS.values(), ids=SPELLINGS)
    def test_serve(self, spelling, headed_reference):
        flags = _decoded(spelling)
        if flags is not None:
            engine = MultiQueryEngine(GATED, optimize=flags)
            assert indexed_matches(engine.serve, EVENTS) == headed_reference
            assert engine.serving.quarantines == 0

    @pytest.mark.parametrize("spelling", SPELLINGS.values(), ids=SPELLINGS)
    def test_pump(self, spelling, headed_reference):
        flags = _decoded(spelling)
        if flags is not None:
            pump = MultiQueryEngine(GATED, optimize=flags).start_pump()
            got = [
                (index, query_id, m.position, m.label)
                for index, event in enumerate(EVENTS)
                for query_id, m in pump.feed(event)
            ]
            assert got == headed_reference

    @pytest.mark.parametrize("cut", CUTS)
    @pytest.mark.parametrize("spelling", SPELLINGS.values(), ids=SPELLINGS)
    def test_checkpoint_resume(self, spelling, cut, headed_reference):
        """The resuming side has only the checkpoint to go by — and a
        checkpoint whose ``optimize`` entry is spelled the format-2 way
        is refused by it, through ``from_checkpoint`` and ``resume``."""
        engine = MultiQueryEngine(GATED, optimize=_decoded(spelling) or True)
        cursor = StreamCursor()
        got = indexed_matches(lambda src: engine.run(src, cursor=cursor), EVENTS[:cut])
        checkpoint = engine.checkpoint()
        if _decoded(spelling) is None:
            checkpoint.payload["optimize"] = spelling
            restored = Checkpoint.from_dict(checkpoint.to_dict())
            with pytest.raises(ValueError, match="unknown optimization flag"):
                MultiQueryEngine.from_checkpoint(restored)
            with pytest.raises(ValueError, match="unknown optimization flag"):
                engine.resume(restored, EVENTS)
            return
        restored = Checkpoint.from_dict(checkpoint.to_dict())
        fresh = MultiQueryEngine.from_checkpoint(restored)
        got += indexed_matches(lambda src: fresh.resume(restored, src), EVENTS)
        assert got == headed_reference
        assert fresh.lane_executions == engine.lane_executions
