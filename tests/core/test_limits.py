"""Resource guards: depth, σ, buffers, per-document budgets."""

import json
from unittest import mock

import pytest

from repro import Checkpoint, ResourceLimitError, ResourceLimits, SpexEngine, StreamCursor
from repro.core import clock as clock_module
from repro.core.clock import FakeClock
from repro.core.multiquery import MultiQueryEngine
from repro.core.serving import AdmissionPolicy
from repro.limits import stream_guard
from repro.xmlstream import ErrorReport, events_from_tags
from repro.xmlstream.parser import iter_events


class TestResourceLimitsConfig:
    def test_defaults_are_unbounded(self):
        assert stream_guard(ResourceLimits(), StreamCursor(), FakeClock()) is None

    def test_any_bound_arms_the_guards(self):
        for bound in ("max_depth", "max_events_per_document", "max_seconds_per_document"):
            limits = ResourceLimits(**{bound: 5})
            assert stream_guard(limits, StreamCursor(), FakeClock()) is not None

    def test_nonpositive_bounds_rejected(self):
        with pytest.raises(ValueError, match="max_depth"):
            ResourceLimits(max_depth=0)
        with pytest.raises(ValueError, match="max_seconds_per_document"):
            ResourceLimits(max_seconds_per_document=0.0)

    def test_unknown_overflow_policy_rejected(self):
        with pytest.raises(ValueError, match="on_buffer_overflow"):
            ResourceLimits(on_buffer_overflow="panic")


class TestDepthGuard:
    def test_depth_bomb_rejected(self):
        depth = 500
        doc = "<a>" * depth + "</a>" * depth
        engine = SpexEngine("_*.z", limits=ResourceLimits(max_depth=100))
        with pytest.raises(ResourceLimitError) as info:
            engine.count(doc)
        assert info.value.limit == "max_depth"

    def test_compliant_stream_unaffected(self):
        engine = SpexEngine("_*.b", limits=ResourceLimits(max_depth=100))
        assert engine.count("<a><b/></a>") == 1

    def test_endless_descent_terminates(self):
        # The paper's infinite-stream stability claim, adversarial
        # version: a stream that only ever opens elements must be cut
        # off by the guard, not buffer forever.
        def descent():
            yield from events_from_tags(["<$>"] + ["<a>"] * 10_000)

        engine = SpexEngine("_*.a[b]", limits=ResourceLimits(max_depth=64))
        with pytest.raises(ResourceLimitError):
            list(engine.run(descent()))


class TestEventBudget:
    def test_oversized_document_rejected(self):
        doc = "<r>" + "<a/>" * 100 + "</r>"
        engine = SpexEngine(
            "_*.a", limits=ResourceLimits(max_events_per_document=50)
        )
        with pytest.raises(ResourceLimitError) as info:
            engine.count(doc)
        assert info.value.limit == "max_events_per_document"

    def test_budget_resets_per_document(self):
        doc = ["<$>", "<a>", "</a>", "</$>"]
        stream = events_from_tags(doc * 20)
        engine = SpexEngine(
            "_*.a",
            collect_events=False,
            limits=ResourceLimits(max_events_per_document=10),
        )
        # 20 documents of 4 events each: fine under skip/repair
        # document-wise evaluation, every document within budget.
        assert len(list(engine.run(stream, on_error="skip"))) == 20


class TestFormulaSizeGuard:
    def test_sigma_blowup_rejected(self):
        # Nested same-label closure scopes with a qualifier grow the
        # condition formulas with depth (the paper's σ).
        depth = 80
        doc = "<a>" * depth + "<b/>" + "</a>" * depth
        engine = SpexEngine(
            "_*.a[_*.b]",
            collect_events=False,
            limits=ResourceLimits(max_formula_size=10),
        )
        with pytest.raises(ResourceLimitError) as info:
            engine.count(doc)
        assert info.value.limit == "max_formula_size"


class TestBufferGuards:
    # One pending candidate per <a>, undecided until its [b] resolves.
    WIDE = "<r>" + "<a><x/><x/><x/><x/><b/></a>" * 10 + "</r>"

    def test_buffered_events_raise(self):
        engine = SpexEngine(
            "_*.a[b]", limits=ResourceLimits(max_buffered_events=3)
        )
        with pytest.raises(ResourceLimitError) as info:
            engine.evaluate(self.WIDE)
        assert info.value.limit == "max_buffered_events"

    def test_drop_oldest_degrades_instead(self):
        engine = SpexEngine(
            "_*.a[b]",
            limits=ResourceLimits(
                max_buffered_events=3, on_buffer_overflow="drop_oldest"
            ),
        )
        matches = engine.evaluate(self.WIDE)
        stats = engine.stats
        assert stats.output.peak_buffered_events <= 3
        assert stats.output.candidates_evicted > 0
        assert stats.limit_hits == stats.output.candidates_evicted
        # Every candidate's span exceeds the ceiling, so all are lost.
        assert matches == []

    def test_drop_oldest_keeps_small_matches(self):
        # Spans of 3 events fit a ceiling of 8: matches survive.
        doc = "<r>" + "<a><b/></a>" * 50 + "</r>"
        engine = SpexEngine(
            "_*.a[b]",
            limits=ResourceLimits(
                max_buffered_events=8, on_buffer_overflow="drop_oldest"
            ),
        )
        matches = engine.evaluate(doc)
        assert len(matches) == 50
        assert engine.stats.output.peak_buffered_events <= 8

    def test_pending_candidates_raise(self):
        # _*._ nests a candidate per open element.
        deep = "<a>" * 30 + "</a>" * 30
        engine = SpexEngine(
            "_*._", limits=ResourceLimits(max_pending_candidates=5)
        )
        with pytest.raises(ResourceLimitError) as info:
            engine.evaluate(deep)
        assert info.value.limit == "max_pending_candidates"

    def test_pending_candidates_drop_oldest(self):
        deep = "<a>" * 30 + "</a>" * 30
        engine = SpexEngine(
            "_*._",
            limits=ResourceLimits(
                max_pending_candidates=5, on_buffer_overflow="drop_oldest"
            ),
        )
        matches = engine.evaluate(deep)
        assert engine.stats.output.peak_pending_candidates <= 5
        # The innermost (youngest) candidates survive.
        assert 0 < len(matches) <= 5


class TestLimitsUnderRecovery:
    def test_limit_hit_skips_document_not_pipeline(self):
        good = ["<$>", "<a>", "</a>", "</$>"]
        bomb = ["<$>"] + ["<x>"] * 50 + ["</x>"] * 50 + ["</$>"]
        stream = events_from_tags(good + bomb + good)
        report = ErrorReport()
        engine = SpexEngine(
            "_*.a",
            collect_events=False,
            limits=ResourceLimits(max_depth=10),
        )
        matches = list(engine.run(stream, on_error="skip", report=report))
        assert len(matches) == 2
        assert report.documents_skipped == 1
        assert report.limit_hits == 1
        assert any(r.action == "limit" for r in report.records)
        stats = engine.stats
        assert stats.documents_skipped == 1
        assert stats.limit_hits == 1

    def test_multiquery_survives_depth_bomb(self):
        good = ["<$>", "<a>", "<b>", "</b>", "</a>", "</$>"]
        bomb = ["<$>"] + ["<x>"] * 50
        stream = events_from_tags(good + bomb)
        report = ErrorReport()
        engine = MultiQueryEngine(
            {"q1": "_*.a", "q2": "_*.b"}, limits=ResourceLimits(max_depth=5)
        )
        results = engine.evaluate(stream, on_error="repair", report=report)
        assert len(results["q1"]) == 1
        assert len(results["q2"]) == 1
        assert report.limit_hits == 1


class TestResumedDocumentBudget:
    """A document cut mid-way keeps a wall-clock budget after a resume.

    Time spent before a crash is gone, so the budget starts afresh at the
    resumed document's first event; a stall after that must trip it at
    the very next event, at every door a cut comes back in by."""

    DOC = "<r><a><b/></a><a><c/></a><a><b/><c/></a></r>"
    QUERIES = {"dfa": "_*.b", "hybrid": "_*.a[c]", "gated": "_*.a[b].c", "network": "_*[b].c"}
    LIMITS = ResourceLimits(max_seconds_per_document=5.0)
    CUT = 6  # <$> <r> <a> <b> </b> </a>: the cut is inside the document

    def events(self):
        return list(iter_events(self.DOC))

    def stalling(self, clock, drawn):
        """The stream, with a stall past the budget right before the
        second event after the cut."""
        for drawn[0], event in enumerate(self.events()):
            if drawn[0] == self.CUT + 1:
                clock.advance(10.0)
            yield event

    def test_resume(self):
        engine = MultiQueryEngine(self.QUERIES, limits=self.LIMITS)
        list(engine.run(iter(self.events()[: self.CUT]), cursor=StreamCursor()))
        checkpoint = Checkpoint.from_dict(json.loads(json.dumps(engine.checkpoint().to_dict())))
        fresh = MultiQueryEngine.from_checkpoint(checkpoint, limits=self.LIMITS)
        clock, drawn = FakeClock(), [-1]
        with pytest.raises(ResourceLimitError) as info:
            list(fresh.resume(checkpoint, self.stalling(clock, drawn), clock=clock))
        assert info.value.limit == "max_seconds_per_document"
        assert drawn[0] == self.CUT + 1

    def test_resume_pump(self):
        clock = FakeClock()
        engine = MultiQueryEngine(self.QUERIES, limits=self.LIMITS)
        pump = engine.start_pump(clock=clock, cursor=StreamCursor())
        events = self.events()
        for event in events[: self.CUT]:
            pump.feed(event)
        checkpoint = Checkpoint.from_dict(json.loads(json.dumps(engine.checkpoint().to_dict())))
        fresh = MultiQueryEngine.from_checkpoint(checkpoint, limits=self.LIMITS)
        resumed = fresh.resume_pump(checkpoint, clock=clock)
        resumed.feed(events[self.CUT])
        assert resumed.live_queries == sorted(self.QUERIES)
        clock.advance(10.0)
        resumed.feed(events[self.CUT + 1])
        assert resumed.live_queries == []
        assert {
            query_id: (outcome.status, outcome.code)
            for query_id, outcome in resumed.serving.outcomes.items()
        } == dict.fromkeys(self.QUERIES, ("quarantined", "LIMIT"))

    def test_spex_engine_resume(self):
        engine = SpexEngine("_*.a[b].c", collect_events=False, limits=self.LIMITS)
        head = iter(self.events()[: self.CUT])
        list(engine.run(head, cursor=StreamCursor()))
        checkpoint = engine.checkpoint()
        clock, drawn = FakeClock(), [-1]
        with mock.patch.object(clock_module, "SYSTEM_CLOCK", clock):
            with pytest.raises(ResourceLimitError) as info:
                list(engine.resume(checkpoint, self.stalling(clock, drawn)))
        assert info.value.limit == "max_seconds_per_document"
        assert drawn[0] == self.CUT + 1


class TestPendingCeilingDemotion:
    """The one limit that still costs a lane is named where lanes are
    reported: ``max_pending_candidates`` is an output transducer's
    ceiling, so a dfa or hybrid query under one runs on the network, and
    so does a gated one under ``drop_oldest``."""

    QUERIES = {"dfa": "_*.a", "hybrid": "_*.a[b]", "gated": "_*.a[b].c", "network": "_*[b].c"}

    def lanes(self, engine):
        engine.evaluate("<r><a><b/><c/></a></r>")
        return engine.lane_executions

    def test_engine_ceiling(self):
        engine = MultiQueryEngine(
            self.QUERIES, limits=ResourceLimits(max_pending_candidates=5)
        )
        assert self.lanes(engine) == {
            "dfa": "network",
            "hybrid": "network",
            "gated": "gated",
            "network": "network",
        }
        assert sorted(engine.lane_demotions) == ["dfa", "hybrid"]
        for reason in engine.lane_demotions.values():
            assert "max_pending_candidates=5" in reason
        assert engine.stats.fastlane_demotions == 2

    def test_drop_oldest_demotes_the_gated_lane_too(self):
        limits = ResourceLimits(max_pending_candidates=5, on_buffer_overflow="drop_oldest")
        engine = MultiQueryEngine(self.QUERIES, limits=limits)
        assert set(self.lanes(engine).values()) == {"network"}
        assert "drop_oldest" in engine.lane_demotions["gated"]
        assert engine.stats.fastlane_demotions == 3

    def test_degraded_admission(self):
        """A degraded admission runs under tightened buffer ceilings,
        its own ``max_pending_candidates`` among them."""
        admission = AdmissionPolicy(degrade_sigma=1, depth_bound=16)
        engine = MultiQueryEngine(
            {"clean": "_*.a", "degraded": "_*.a[_*.b]"}, admission=admission
        )
        assert engine.admissions["degraded"].degraded
        assert self.lanes(engine) == {"clean": "dfa", "degraded": "network"}
        assert "max_pending_candidates=1024" in engine.lane_demotions["degraded"]
        assert engine.stats.fastlane_demotions == 1

    def test_other_ceilings_keep_the_lanes(self):
        limits = ResourceLimits(
            max_depth=64,
            max_events_per_document=10_000,
            max_buffered_events=8,
            max_formula_size=8,
            on_buffer_overflow="drop_oldest",
        )
        engine = MultiQueryEngine(self.QUERIES, limits=limits)
        assert self.lanes(engine) == {
            "dfa": "dfa",
            "hybrid": "hybrid",
            "gated": "gated",
            "network": "network",
        }
        assert engine.lane_demotions == {}


class TestStatsSummary:
    def test_summary_includes_robustness_counters(self):
        engine = SpexEngine("_*.a", collect_events=False)
        list(engine.run(events_from_tags(["<$>", "<a>", "</a>", "</$>"])))
        summary = engine.stats.summary()
        assert "documents skipped" in summary
        assert "events repaired" in summary
        assert "limit hits" in summary
