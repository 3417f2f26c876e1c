"""Unit and differential tests for the shared lazy-DFA fast lane.

The fast lane (:mod:`repro.core.fastlane`) must be *invisible in the
answers*: any query the planner routes onto the ``dfa``/``hybrid``/
``gated`` lanes has to produce the exact match sequence of the
transducer-network evaluation it replaces.  These tests pin that down at
three levels: the split/gate helpers (pure AST surgery), the core's
bounded determinization memo (saturation falls back to transient states,
never to wrong answers), and end-to-end differentials through
:class:`~repro.core.multiquery.MultiQueryEngine` driven by the seeded
query generator.  The gated lane — a residual network behind a DFA head,
fed on demand — is held to the strictest form: the same matches *at the
same stream events* as the pure network, not just the same final answers.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import Checkpoint
from repro.core.fastlane import (
    _PENDING,
    KIND_DFA,
    FastLaneAdapter,
    FastLaneCore,
    FastLaneUnsupported,
    GatedNetworkAdapter,
    build_lane_runner,
    gate_expr,
    native_hybrid_split,
)
from repro.core.multiquery import MultiQueryEngine
from repro.core.optimize import ALL_OPTIMIZATIONS, OptimizationFlags
from repro.rpeq.ast import Concat, Label, Qualifier, Rpeq
from repro.rpeq.generate import GeneratorConfig, random_rpeq
from repro.rpeq.nfa import compile_nfa
from repro.rpeq.parser import parse
from repro.rpeq.unparse import unparse
from repro.workloads import random_tree, treebank
from repro.xmlstream.events import EndDocument, EndElement, StartDocument, StartElement
from repro.xmlstream.offsets import StreamCursor
from repro.xmlstream.parser import parse_string

from ..conftest import (
    LABELS,
    PAPER_DOC,
    event_streams,
    indexed_matches,
    make_random_events,
    rpeq_queries,
)


def advance(pump, event):
    """Drive a pass by hand, one event at a time: the pump's own loop
    over that one event (there is no other way to step the core)."""
    return [(query_id, match.position, match.label) for query_id, match in pump.feed(event)]


# ----------------------------------------------------------------------
# AST surgery: hybrid split and the gate over-approximation


class TestNativeHybridSplit:
    def test_trailing_qualifier_splits(self):
        split = native_hybrid_split(parse("a.b[c]"))
        assert split is not None
        spine, condition = split
        assert unparse(spine) == "a.b"
        assert unparse(condition) == "c"

    def test_closure_spine_splits(self):
        split = native_hybrid_split(parse("_*.a[b.c]"))
        assert split is not None
        spine, condition = split
        assert unparse(spine) == "_*.a"
        assert unparse(condition) == "b.c"

    def test_inner_qualifier_does_not_split(self):
        assert native_hybrid_split(parse("a[b].c")) is None

    def test_stacked_qualifiers_do_not_split(self):
        assert native_hybrid_split(parse("a.b[c][d]")) is None

    def test_axis_condition_does_not_split(self):
        assert native_hybrid_split(parse("a.b[following::c]")) is None


def _has_qualifier(expr: Rpeq) -> bool:
    if isinstance(expr, Qualifier):
        return True
    return any(
        _has_qualifier(getattr(expr, field.name))
        for field in dataclasses.fields(expr)
        if isinstance(getattr(expr, field.name), Rpeq)
    )


class TestGateExpr:
    def test_over_approximation_is_qualifier_free(self):
        for text in ("a[b].c", "_*[b]._*.c", "a[b.c].(b|c)", "a[b[c]].d"):
            over = gate_expr(parse(text))
            assert not _has_qualifier(over), text
            # and it actually compiles onto the qualifier-free NFA path
            compile_nfa(over, allow_qualifiers=False)

    def test_axes_are_unsupported(self):
        with pytest.raises(FastLaneUnsupported):
            gate_expr(parse("a[following::b].c"))


# ----------------------------------------------------------------------
# lane routing through the engine


def _fingerprints(engine, events):
    return [
        (query_id, match.position, match.label, match.events)
        for query_id, match in engine.run(iter(events))
    ]


class TestLaneRouting:
    def test_each_query_class_lands_on_its_lane(self):
        engine = MultiQueryEngine(
            {
                "plain": "a.c",
                "closure": "_*.b",
                "trailing": "_*.a[c]",
                "inner": "a[b].c",
            }
        )
        engine.evaluate(PAPER_DOC)
        assert engine.lane_executions == {
            "plain": "dfa",
            "closure": "dfa",
            "trailing": "hybrid",
            "inner": "gated",
        }
        assert engine.lane_demotions == {}

    def test_knobs_off_runs_everything_on_the_network(self):
        engine = MultiQueryEngine(
            {"plain": "a.c", "trailing": "_*.a[c]"}, optimize=False
        )
        engine.evaluate(PAPER_DOC)
        assert set(engine.lane_executions.values()) == {"network"}

    def test_collecting_fragments_stays_on_the_network(self):
        """Fragment reconstruction is network-only; routing must notice."""
        engine = MultiQueryEngine({"q": "a.c"}, collect_events=True)
        results = engine.evaluate(PAPER_DOC)
        assert engine.lane_executions == {"q": "network"}
        assert [m.position for m in results["q"]] == [5]

    def test_stats_report_lane_counts(self):
        engine = MultiQueryEngine(
            {"d": "a.c", "h": "_*.a[c]", "g": "a[b].c", "n": "a.following::b"}
        )
        engine.evaluate(PAPER_DOC)
        stats = engine.stats
        assert stats.fastlane_dfa_queries == 1
        assert stats.fastlane_hybrid_queries == 1
        assert stats.fastlane_gated_queries == 1
        assert stats.fastlane_states > 0
        assert "fast-lane" in stats.summary()


# ----------------------------------------------------------------------
# bounded determinization memo


class TestMemoBound:
    def test_oversized_automaton_is_rejected_at_registration(self):
        core = FastLaneCore(StreamCursor(), max_states=2)
        nfa = compile_nfa(parse("_*.a.b.c"), allow_qualifiers=False)
        with pytest.raises(FastLaneUnsupported, match="determinization budget"):
            core.register("q", KIND_DFA, nfa)

    def test_build_lane_runner_demotes_with_a_reason(self):
        engine = MultiQueryEngine({"q": "_*.a.b.c"})
        plan = engine.plans["q"]
        assert plan.lane == "dfa"
        runner, lane, reason = build_lane_runner(
            FastLaneCore(StreamCursor(), max_states=2),
            "q",
            engine.queries["q"],
            plan,
            ALL_OPTIMIZATIONS,
            lambda: None,
        )
        assert runner is None
        assert lane == "network"
        assert reason is not None and "determinization budget" in reason

    def test_saturated_memo_still_answers_exactly(self, rng):
        """Past the cap the core runs on transient states — never OOM,
        never a different answer."""
        queries = {
            "q1": "_*.a",
            "q2": "_*.b.c",
            "q3": "(a|b)._*.c",
            "q4": "_*.d.(a|b)",
        }
        events = []
        for _ in range(10):
            events.extend(make_random_events(rng, max_children=5, max_depth=6))
        reference = {
            query_id: [(m.position, m.label) for m in matches]
            for query_id, matches in MultiQueryEngine(
                queries, optimize=False
            ).evaluate(iter(events)).items()
        }

        engine = MultiQueryEngine(queries)
        pump = engine.start_pump()
        core = engine._fastlane_core
        assert set(engine.lane_executions.values()) == {"dfa"}
        assert not core.states_interned, "nothing interned before the first <$>"
        core.max_states = 14
        got = {query_id: [] for query_id in queries}
        for event in events:
            for query_id, position, label in advance(pump, event):
                got[query_id].append((position, label))
        assert got == reference
        assert core.saturated_steps > 0
        assert core.states_interned <= core.max_states


# ----------------------------------------------------------------------
# a pass driven by hand, one push per event


class TestDirectDrive:
    """A pass driven by hand, one event per push, sees each event once,
    however often the same event *object* comes by: events are shared,
    one per label, so identity says nothing about "seen"."""

    @staticmethod
    def drive(query, events, gated=False):
        engine = MultiQueryEngine({"q": query})
        pump = engine.start_pump()
        assert isinstance(pump._live["q"], GatedNetworkAdapter if gated else FastLaneAdapter)
        return [(position, label) for event in events for _, position, label in advance(pump, event)]

    def test_a_reused_event_object_is_a_new_event(self):
        a, close = StartElement("a"), EndElement("a")
        events = [StartDocument(), a, a, a, close, close, close, EndDocument()]
        assert self.drive("_*.a", events) == [(1, "a"), (2, "a"), (3, "a")]

    def test_the_parser_hands_out_reused_objects(self):
        events = list(parse_string("<a><a><a/></a></a>"))
        assert self.drive("_*.a", events) == [(1, "a"), (2, "a"), (3, "a")]

    def test_gated_runner_on_reused_objects(self):
        events = list(parse_string("<a><a><c/><b/></a><b/><c/></a>"))
        assert sorted(self.drive("_*.a[b].c", events, gated=True)) == [(3, "c"), (6, "c")]

    def test_two_adapters_share_one_advance_per_event(self):
        engine = MultiQueryEngine({"q1": "_*.a", "q2": "_*.a.a"})
        pump = engine.start_pump()
        events = list(parse_string("<a><a><a/></a></a>"))
        got = {"q1": [], "q2": []}
        for event in events:
            for query_id, position, _ in advance(pump, event):
                got[query_id].append(position)
        assert got == {"q1": [1, 2, 3], "q2": [2, 3]}
        assert len(engine._fastlane_core._slots) == 2
        assert engine._fastlane_core.cursor.events_read == len(events)


# ----------------------------------------------------------------------
# differential: lanes vs. the transducer network


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rpeq_queries(allow_qualifiers=False), event_streams())
def test_dfa_lane_matches_network(query, events):
    """Qualifier-free queries all plan onto the dfa lane; the lazy DFA
    must reproduce the network's matches bit for bit."""
    reference = _fingerprints(MultiQueryEngine({"q": query}, optimize=False), events)
    engine = MultiQueryEngine({"q": query})
    assert _fingerprints(engine, events) == reference
    assert engine.lane_executions["q"] == "dfa"


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rpeq_queries(), event_streams())
def test_all_lanes_match_network(query, events):
    """Unrestricted queries spread over all four lanes."""
    reference = _fingerprints(MultiQueryEngine({"q": query}, optimize=False), events)
    engine = MultiQueryEngine({"q": query})
    assert _fingerprints(engine, events) == reference
    assert engine.lane_executions["q"] in {"dfa", "hybrid", "gated", "network"}


# ----------------------------------------------------------------------
# the gated lane: DFA head, residual network fed on demand

#: the pure full network — every lane knob off, the rest as in production
PURE_NETWORK = OptimizationFlags(dfa_lane=False, hybrid_gate=False)


def assert_headed_equals_pure(query, events):
    """The headed runner against the pure network, event for event; the
    number of parked elements is checked against the depth on the way."""
    engine = MultiQueryEngine({"q": query})
    assert indexed_matches(engine.run, events) == indexed_matches(
        MultiQueryEngine({"q": query}, optimize=PURE_NETWORK).run, events
    )
    assert engine.lane_executions == {"q": "gated"}
    fed, parked = engine.gate_counts["q"]
    assert fed + parked == len(events)

    pump = MultiQueryEngine({"q": query}).start_pump()
    runner = pump._live["q"]
    assert isinstance(runner, GatedNetworkAdapter)
    for event in events:
        advance(pump, event)
        assert 0 <= runner.parked <= len(pump.cursor.open_labels)
    return engine


class TestHeadedRunner:
    def test_nested_prefix_match_inside_a_not_needed_subtree(self):
        """``a/x/a/c``: the outer ``a`` fires and parks, ``x`` is not
        needed, the inner ``a`` fires while parked; ``c`` flushes all
        three, arming the source for both ``a``s, in document order."""
        events = list(parse_string("<a><x><a><c/><b/></a></x><b/><c/></a>"))
        engine = assert_headed_equals_pure("_*.a[b].c", events)
        assert [m.position for m in engine.evaluate(iter(events))["q"]] == [4, 7]

    def test_subtrees_without_a_needed_element_are_never_fed(self):
        events = list(
            parse_string("<r><a><x><y/><y/></x><b/><c/></a><a><x/></a><d><a/></d></r>")
        )
        engine = assert_headed_equals_pure("r.a[b].c", events)
        # fed: <$> r a b c and their end tags; the x subtrees, the
        # second a (fired, but nothing below it is needed) and d are not
        assert engine.gate_counts["q"] == (10, 14)
        assert engine.stats.fastlane_gate_fed_events == 10
        assert engine.stats.fastlane_gate_parked_events == 14
        assert "10 fed, 14 parked" in engine.stats.summary()

    def test_epsilon_accepting_residual_tail(self):
        """``c?`` accepts ε, so the qualified ``a`` itself is an answer:
        the residual's accept is live on it and it must be fed."""
        events = list(parse_string("<r><a><b/></a><a><c/></a><a><c/><b/></a></r>"))
        engine = assert_headed_equals_pure("_*.a[b].c?", events)
        assert [m.label for m in engine.evaluate(iter(events))["q"]] == ["a", "a", "c"]

    def test_closure_inside_the_condition(self):
        events = list(
            parse_string("<r><a><x><x><b/></x></x><c/></a><a><x/><c/></a></r>")
        )
        engine = assert_headed_equals_pure("_*.a[_*.b].c", events)
        assert [m.position for m in engine.evaluate(iter(events))["q"]] == [6]

    def test_stacked_and_nested_qualifiers(self):
        events = list(
            parse_string("<r><a><b><c/></b><d/><e/></a><a><b/><d/><e/></a></r>")
        )
        assert_headed_equals_pure("r.a[b[c]][d].e", events)

    def test_residual_that_does_not_start_with_a_qualifier(self):
        events = list(parse_string("<a><b><c/></b><e/><d><e/></d><b/></a>"))
        assert_headed_equals_pure("a.(b[c]|d)._?", events)

    def test_following_in_the_residual_demotes_to_the_network(self):
        """Axis steps are not path-regular: no gate automaton, so the
        hybrid plan falls back to the full network — ``PLAN005``."""
        engine = MultiQueryEngine({"q": "a[following::b].c"})
        assert engine.plans["q"].lane == "hybrid"
        reference = MultiQueryEngine({"q": "a[following::b].c"}, optimize=False)
        assert _fingerprints(engine, list(parse_string(PAPER_DOC))) == _fingerprints(
            reference, list(parse_string(PAPER_DOC))
        )
        assert engine.lane_executions == {"q": "network"}
        assert "axis steps" in engine.lane_demotions["q"]
        assert engine.stats.fastlane_demotions == 1
        assert engine.gate_counts == {}

    def test_prefix_accepting_the_root_activates_at_start_document(self):
        """The planner never routes an ε-accepting prefix here (it wants
        a required concrete step), but the runner must not depend on
        that: ``$`` is then a context node of the residual."""
        engine = MultiQueryEngine({"q": "_*[b].c"})
        assert engine.plans["q"].lane == "network"
        engine.plans["q"] = dataclasses.replace(engine.plans["q"], lane="hybrid")
        events = list(parse_string("<c/>")) + list(
            parse_string("<b><c/><a><b/><c/></a></b>")
        )
        got = indexed_matches(engine.run, events)
        assert engine.lane_executions == {"q": "gated"}
        assert got == indexed_matches(
            MultiQueryEngine({"q": "_*[b].c"}, optimize=PURE_NETWORK).run, events
        )
        assert got

    def test_saturated_memo_keeps_the_fire_and_needed_flags(self, rng):
        """Past the memo bound the flags ride on transient states."""
        query = parse("_*.a[b]._*.c")
        events = []
        for _ in range(6):
            events.extend(make_random_events(rng, max_children=4, max_depth=6))
        others = ("_*.a", "_*.b.c", "(a|b)._*.c", "_*.d.(a|b)")
        engine = MultiQueryEngine(
            {**{f"other{index}": text for index, text in enumerate(others)}, "q": query}
        )
        pump = engine.start_pump()
        core = engine._fastlane_core
        assert engine.lane_executions["q"] == "gated"
        core.max_states = 24
        got = [
            (index, position, label)
            for index, event in enumerate(events)
            for query_id, position, label in advance(pump, event)
            if query_id == "q"
        ]
        assert core.saturated_steps > 0
        assert got == [
            row[:1] + row[2:]
            for row in indexed_matches(
                MultiQueryEngine({"q": query}, optimize=PURE_NETWORK).run, events
            )
        ]

    def test_one_split_shared_with_the_planner(self):
        """A plan whose prefix is not the executed split's is refused."""
        engine = MultiQueryEngine({"q": "a.b[c].d"})
        engine.plans["q"] = dataclasses.replace(engine.plans["q"], prefix="a")
        with pytest.raises(AssertionError):
            engine.evaluate(PAPER_DOC)


@st.composite
def gated_queries(draw, labels=LABELS):
    """``P.l[F].R`` with everything but ``l`` from :func:`random_rpeq`:
    a pure prefix ending in a concrete label (so the planner says
    hybrid), a qualifier on it, and a non-empty rest (so the qualifier is
    not final and the query cannot run natively)."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pure = GeneratorConfig(labels=labels, allow_qualifiers=False, max_depth=2)
    mixed = GeneratorConfig(labels=labels, max_depth=3)
    step = Qualifier(Label(rng.choice(labels)), random_rpeq(rng, mixed))
    query = Concat(step, random_rpeq(rng, mixed))
    if rng.random() < 0.8:
        query = Concat(random_rpeq(rng, pure), query)
    return query


@st.composite
def multi_document_streams(draw):
    documents = draw(st.lists(event_streams(max_depth=5), min_size=1, max_size=3))
    return [event for document in documents for event in document]


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(gated_queries(), multi_document_streams())
def test_headed_runner_matches_pure_network_event_for_event(query, events):
    assert_headed_equals_pure(query, events)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    gated_queries(labels=("a", "b", "c", "d", "e")),
    st.integers(min_value=0, max_value=10_000),
)
def test_headed_runner_on_random_tree_documents(query, seed):
    events = list(random_tree(seed, elements=120, max_depth=7))
    events += list(random_tree(seed + 1, elements=60, max_depth=4))
    assert_headed_equals_pure(query, events)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    gated_queries(labels=("S", "NP", "VP", "PP", "NN")),
    st.integers(min_value=0, max_value=10_000),
)
def test_headed_runner_on_treebank_documents(query, seed):
    """Recursive documents: prefix matches nest inside prefix matches."""
    assert_headed_equals_pure(query, list(treebank(seed, sentences=6, max_depth=8)))


# ----------------------------------------------------------------------
# the native hybrid lane: obligations kept per open element


def assert_hybrid_equals_pure(queries, events):
    """Every query on the native ``spine[condition]`` lane, held to the
    event against the pure network; returns the indexed matches."""
    if isinstance(queries, str):
        queries = {"q": queries}
    engine = MultiQueryEngine(queries)
    got = indexed_matches(engine.run, events)
    assert got == indexed_matches(
        MultiQueryEngine(queries, optimize=PURE_NETWORK).run, events
    )
    assert engine.lane_executions == dict.fromkeys(queries, "hybrid")
    return got


class TestObligationFrames:
    """A pending candidate's condition lives in the frames of the open
    elements below it — stepped from the parent's frame at each start
    tag, forgotten at the end tag — so a condition that dies in one child
    is alive again at the next, and a nested candidate of the same query
    never witnesses for its ancestor.  Events are numbered from ``<$>``."""

    def test_sibling_witness_after_a_dead_branch(self):
        events = list(parse_string("<a><x/><b/></a>"))
        # <x> kills the condition of a; <b> steps it afresh from a's frame
        assert assert_hybrid_equals_pure("_*.a[b]", events) == [(6, "q", 1, "a")]

    def test_nested_candidate_does_not_witness_for_its_ancestor(self):
        events = list(parse_string("<a><x><a><b/></a></x></a>"))
        # the inner a only, behind the outer one until that drops at </a>
        assert assert_hybrid_equals_pure("_*.a[b]", events) == [(8, "q", 3, "a")]

    def test_ancestor_witness_after_its_nested_candidate_dropped(self):
        events = list(parse_string("<r><a><a><x/></a><b/></a></r>"))
        assert assert_hybrid_equals_pure("_*.a[b]", events) == [(9, "q", 2, "a")]

    def test_closure_condition(self):
        events = list(
            parse_string("<r><a><x><y><b/></y></x></a><a><x/></a><a><a><b/></a></a></r>")
        )
        got = assert_hybrid_equals_pure("_*.a[_*.b]", events)
        assert [(position, label) for _, _, position, label in got] == [
            (2, "a"),
            (8, "a"),
            (9, "a"),
        ]

    def test_epsilon_accepting_condition(self):
        """``b?`` accepts ε: every ``a`` is determined at its own start
        tag and no obligation is ever held."""
        events = list(parse_string("<r><a><b/></a><a><c/></a><a/></r>"))
        got = assert_hybrid_equals_pure("_*.a[b?]", events)
        assert [position for _, _, position, _ in got] == [2, 4, 6]

    def test_root_candidate_closes_at_end_document(self):
        """The planner never routes an ε-accepting spine here, but the
        core must not depend on that: ``$`` is then a candidate in the
        root frame, determined by a child ``b`` and closed at ``</$>``."""
        query = parse("_*[b]")
        engine = MultiQueryEngine({"q": query})
        assert engine.plans["q"].lane == "network"
        engine.plans["q"] = dataclasses.replace(engine.plans["q"], lane="hybrid")
        pump = engine.start_pump()
        assert (engine.lane_executions, engine.lane_demotions) == ({"q": "hybrid"}, {})
        core = engine._fastlane_core
        events = list(parse_string("<b><a><b/></a></b>")) + list(parse_string("<c/>"))
        got = [
            (index, *match)
            for index, event in enumerate(events)
            for match in advance(pump, event)
        ]
        assert got == [(7, "q", 0, "$"), (7, "q", 2, "a")]
        assert got == indexed_matches(
            MultiQueryEngine({"q": query}, optimize=PURE_NETWORK).run, events
        )
        assert len(core._opened) == len(core._obligs) == 1


@st.composite
def hybrid_query_sets(draw, labels=LABELS):
    """2–6 ``spine[condition]`` queries, so several slots share the frames
    of every open element: a pure spine ending in a concrete label (the
    planner then says hybrid), half of them under ``_*``, and a pure
    condition — ε-accepting ones included."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    config = GeneratorConfig(labels=labels, allow_qualifiers=False, max_depth=2)
    queries = {}
    for index in range(draw(st.integers(min_value=2, max_value=6))):
        spine = Concat(random_rpeq(rng, config), Label(rng.choice(labels)))
        if rng.random() < 0.5:
            spine = Concat(parse("_*"), spine)
        queries[f"q{index}"] = Qualifier(spine, random_rpeq(rng, config))
    return queries


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(hybrid_query_sets(), multi_document_streams())
def test_hybrid_query_sets_match_pure_network_event_for_event(queries, events):
    assert_hybrid_equals_pure(queries, events)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    hybrid_query_sets(labels=("a", "b", "c", "d", "e")),
    st.integers(min_value=0, max_value=10_000),
)
def test_hybrid_query_sets_on_random_tree_documents(queries, seed):
    events = list(random_tree(seed, elements=120, max_depth=7))
    events += list(random_tree(seed + 1, elements=60, max_depth=4))
    assert_hybrid_equals_pure(queries, events)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    hybrid_query_sets(labels=("S", "NP", "VP", "PP", "NN")),
    st.integers(min_value=0, max_value=10_000),
)
def test_hybrid_query_sets_on_treebank_documents(queries, seed):
    """Recursive documents: candidates of one query nest, each with its
    own obligations in the same frames."""
    assert_hybrid_equals_pure(queries, list(treebank(seed, sentences=6, max_depth=8)))


class TestCheckpointCutsWithLiveObligations:
    """Obligations are never serialized: a resumed pass rebuilds them by
    replaying the open path below each pending candidate.  Cut after
    every event of one recursive document, through a file."""

    QUERIES = {
        "clause": "_*.S[VP.S]",
        "pp-below": "_*.S[_*.PP]",
        "vp-pp": "_*.VP[PP]",
        "np-pp": "_*.NP[PP.NP]",
    }

    @staticmethod
    def pending(core):
        """``(query, position, dead here)`` per open pending candidate:
        *dead here* when no obligation of it reaches the innermost open
        element — the cut sits in a dead branch of its subtree."""
        here = {id(cand) for _, cand, _ in core._obligs[-1]}
        return [
            (slot.query_id, cand.pos, id(cand) not in here)
            for slot in core._slots.values()
            for cand in slot.queue
            if cand.state == _PENDING and not cand.done
        ]

    def test_a_cut_after_every_event_resumes_bit_identically(self, tmp_path):
        events = list(treebank(11, sentences=3, max_depth=8))
        engine = MultiQueryEngine(self.QUERIES)
        pump = engine.start_pump(cursor=StreamCursor())
        full, cuts = [], []
        path = str(tmp_path / "cut.json")
        for index, event in enumerate(events):
            full += [(index, q, m.position, m.label) for q, m in pump.feed(event)]
            engine.checkpoint().save(path)
            cuts.append((Checkpoint.load(path), self.pending(engine._fastlane_core)))
        assert set(engine.lane_executions.values()) == {"hybrid"}

        matched = {(q, position) for _, q, position, _ in full}
        nested = [
            cut
            for cut, (_, pending) in enumerate(cuts)
            if len({q for q, _, _ in pending}) < len(pending)
        ]
        revived = [
            cut
            for cut, (_, pending) in enumerate(cuts)
            if any(dead and (q, pos) in matched for q, pos, dead in pending)
        ]
        assert nested and revived, "the document must exercise both shapes"

        for cut, (checkpoint, _) in enumerate(cuts):
            resumed = MultiQueryEngine.from_checkpoint(checkpoint).resume_pump(checkpoint)
            tail = [
                (index, q, m.position, m.label)
                for index, event in enumerate(events[cut + 1 :], start=cut + 1)
                for q, m in resumed.feed(event)
            ]
            assert tail == [row for row in full if row[0] > cut], cut


def test_multi_document_streams_reset_cleanly(rng):
    """The shared core's per-document reset, across lane kinds at once."""
    queries = {"d": "_*.c", "h": "_*.a[c]", "g": "_*[b].c", "n": "a.following::b"}
    events = []
    for _ in range(4):
        events.extend(make_random_events(rng))
    reference = _fingerprints(MultiQueryEngine(queries, optimize=False), events)
    engine = MultiQueryEngine(queries)
    assert _fingerprints(engine, events) == reference


# ----------------------------------------------------------------------
# subscription churn: a departed subscriber leaves the shared DFA


class TestSubscriptionChurn:
    """``ServePump.close`` retires the slot; the next ``<$>`` drops it.

    The TCP service mints a fresh engine id per connection, so a slot
    that outlived its subscriber stayed in every product state: the memo
    saturated after a few hundred connections and each later document
    ran the subset construction uncached.
    """

    #: one query per lane the shared core backs
    CHURN = (
        ("_*.b", "dfa"),
        ("_*.a[c]", "hybrid"),
        ("_*.b[a].d", "gated"),
        ("a._*.d", "dfa"),
        ("_*.c[d.e]", "hybrid"),
    )

    def test_slots_do_not_outlive_their_subscribers(self):
        documents = [list(random_tree(seed, elements=40)) for seed in range(5)]
        engine = MultiQueryEngine({"keep": "_*.a[b].c"})
        pump = engine.start_pump(cursor=StreamCursor())
        kept: list[tuple[int, int, str]] = []
        stream: list = []

        def feed(events):
            out = []
            for event in events:
                for q, m in pump.feed(event):
                    out.append((q, m.position, m.label))
                    if q == "keep":
                        kept.append((len(stream), m.position, m.label))
                stream.append(event)
            return out

        for cycle in range(2000):
            query_id = f"c{cycle}.sub"
            query, lane = self.CHURN[cycle % len(self.CHURN)]
            engine.add_query(query_id, query)
            assert pump.attach(query_id)
            feed(documents[cycle % len(documents)])
            core = engine._fastlane_core
            assert engine.lane_executions == {"keep": "gated", query_id: lane}
            # this cycle's subscriber and the permanent one: the previous
            # subscriber's slot went at this document's <$>
            assert len(core._slots) == 2
            pump.close(query_id)
            engine.remove_query(query_id)
            assert len(core._slots) <= len(pump.live_queries) + 1
            assert set(engine.lane_executions) == {"keep"}
        assert core.saturated_steps == 0
        assert core.states_interned < 64

        # a cut taken 2,000 compactions in resumes as if there were none
        engine.add_query("last", "_*.b[a].d")
        pump.attach("last")
        head, tail = documents[0][:20], documents[0][20:]
        feed(head)
        restored = Checkpoint.from_dict(engine.checkpoint().to_dict())
        resumed = MultiQueryEngine.from_checkpoint(restored).resume_pump(restored)
        uninterrupted = feed(tail)
        assert {q for q, _, _ in uninterrupted} == {"keep", "last"}
        assert uninterrupted == [
            (q, m.position, m.label) for e in tail for q, m in resumed.feed(e)
        ]

        fresh = MultiQueryEngine({"keep": "_*.a[b].c"}).start_pump()
        assert kept == [
            (index, m.position, m.label)
            for index, event in enumerate(stream)
            for _, m in fresh.feed(event)
        ]

    def test_a_reused_id_runs_its_new_query(self):
        document = list(random_tree(3, elements=40))
        engine = MultiQueryEngine({"keep": "_*.a"})
        pump = engine.start_pump()
        labels = []
        for query in ("_*.b", "_*.c"):
            engine.add_query("q", query)
            pump.attach("q")
            labels.append(
                {m.label for e in document for q, m in pump.feed(e) if q == "q"}
            )
            pump.close("q")
            engine.remove_query("q")
        assert labels == [{"b"}, {"c"}]
