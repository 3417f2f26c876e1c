"""End-to-end lane differential: the CI ``lane-differential`` gate.

The planner (PR 8) *chose* execution lanes; this PR makes them real.
The acceptance property is strict: for a corpus spanning every lane
(``dfa``, ``hybrid``, ``gated``, ``network``) and **every** combination
of optimization knobs, the multi-query engine must emit the exact match
stream of the unoptimized pure-network pass — same positions, same
labels, same cross-query interleaving — through every entry point:
:meth:`~repro.core.multiquery.MultiQueryEngine.run`,
:meth:`~repro.core.multiquery.MultiQueryEngine.serve`, and a
checkpoint/resume cut mid-stream.

The planner invariant rides along: under default flags every query the
planner put on the ``dfa`` lane must actually have *executed* on the
shared lazy DFA (:attr:`~repro.core.multiquery.MultiQueryEngine.stats`
counters), so a silent demotion can never masquerade as coverage.

The gated lane — a residual network fed on demand behind a DFA head —
gets the strictest form (:class:`TestHeadedDifferential`): the stream of
``(event index, query, position, label)`` must equal the pure network's
under every knob combination, through ``run()``, ``serve()``, the
push-mode pump and a checkpoint/resume cut, so deferring a start tag can
never move a match to a later event.
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
    all_knob_combinations,
)

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


def _fingerprints(pairs):
    return [(query_id, m.position, m.label, m.events) for query_id, m in pairs]


@pytest.fixture(scope="module")
def reference():
    engine = MultiQueryEngine(CORPUS, optimize=NO_OPTIMIZATIONS)
    return _fingerprints(engine.run(iter(EVENTS)))


class TestRunDifferential:
    def test_corpus_covers_every_lane(self):
        engine = MultiQueryEngine(CORPUS)
        assert all(count > 0 for count in lane_counts(engine.plans).values())

    @pytest.mark.parametrize(
        "flags", all_knob_combinations(), ids=lambda f: f.describe() or "none"
    )
    def test_every_knob_combination_is_bit_identical(self, flags, reference):
        engine = MultiQueryEngine(CORPUS, optimize=flags)
        assert _fingerprints(engine.run(iter(EVENTS))) == reference


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


class TestCheckpointResumeDifferential:
    """A cut through live fast-lane state must not lose or duplicate."""

    CUTS = (len(EVENTS) // 4, len(EVENTS) // 2, (3 * len(EVENTS)) // 4)

    def _interrupted(self, optimize, cut):
        engine = MultiQueryEngine(CORPUS, optimize=optimize)
        cursor = StreamCursor()
        prefix = list(itertools.islice(iter(EVENTS), cut))
        collected = _fingerprints(engine.run(iter(prefix), cursor=cursor))
        data = engine.checkpoint().to_dict()
        restored = Checkpoint.from_dict(data)  # full serialization trip
        fresh = MultiQueryEngine.from_checkpoint(restored)
        collected += _fingerprints(fresh.resume(restored, iter(EVENTS)))
        return collected

    @pytest.mark.parametrize("cut", CUTS)
    def test_resume_through_fast_lanes(self, cut, reference):
        assert self._interrupted(ALL_OPTIMIZATIONS, cut) == reference

    @pytest.mark.parametrize("cut", CUTS)
    def test_resume_without_lanes_still_agrees(self, cut, reference):
        assert self._interrupted(NO_OPTIMIZATIONS, cut) == reference

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

    @pytest.mark.parametrize(
        "flags", all_knob_combinations(), ids=lambda f: f.describe() or "none"
    )
    def test_run(self, flags, headed_reference):
        engine = MultiQueryEngine(GATED, optimize=flags)
        assert indexed_matches(engine.run, EVENTS) == headed_reference

    @pytest.mark.parametrize(
        "flags", all_knob_combinations(), ids=lambda f: f.describe() or "none"
    )
    def test_serve(self, flags, headed_reference):
        engine = MultiQueryEngine(GATED, optimize=flags)
        assert indexed_matches(engine.serve, EVENTS) == headed_reference
        assert engine.serving.quarantines == 0

    @pytest.mark.parametrize(
        "flags", all_knob_combinations(), ids=lambda f: f.describe() or "none"
    )
    def test_pump(self, flags, headed_reference):
        pump = MultiQueryEngine(GATED, optimize=flags).start_pump()
        got = [
            (index, query_id, m.position, m.label)
            for index, event in enumerate(EVENTS)
            for query_id, m in pump.feed(event)
        ]
        assert got == headed_reference

    @pytest.mark.parametrize("cut", TestCheckpointResumeDifferential.CUTS)
    @pytest.mark.parametrize(
        "flags", all_knob_combinations(), ids=lambda f: f.describe() or "none"
    )
    def test_checkpoint_resume(self, flags, cut, headed_reference):
        engine = MultiQueryEngine(GATED, optimize=flags)
        cursor = StreamCursor()
        got = indexed_matches(lambda src: engine.run(src, cursor=cursor), EVENTS[:cut])
        restored = Checkpoint.from_dict(engine.checkpoint().to_dict())
        fresh = MultiQueryEngine.from_checkpoint(restored)
        got += indexed_matches(lambda src: fresh.resume(restored, src), EVENTS)
        assert got == headed_reference
        assert fresh.lane_executions == engine.lane_executions
