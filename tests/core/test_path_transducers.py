"""Unit tests for input, child and closure transducers.

The child/closure tests replay the paper's Examples III.1 and III.2
message by message against hand-wired transducer pairs and check the
activations they emit — the observable behaviour the transition tables of
Figs. 2-5 specify.
"""

import pytest

from repro.conditions.formula import TRUE, Var, disj
from repro.core.messages import Activation, Doc
from repro.core.path_transducers import (
    ChildTransducer,
    ClosureTransducer,
    DemandInputTransducer,
    InputTransducer,
)
from repro.errors import EngineError
from repro.rpeq.ast import WILDCARD, Label
from repro.xmlstream.events import events_from_tags

from ..conftest import PAPER_STREAM_TAGS


def feed_chain(transducers, tags):
    """Run a tag stream through IN -> transducers; return per-event output."""
    source = InputTransducer()
    batches = []
    for event in events_from_tags(tags):
        messages = source.feed([Doc(event)])
        for transducer in transducers:
            messages = transducer.feed(messages)
        batches.append(messages)
    return batches


def activations_per_event(batches):
    return [
        [m.formula for m in batch if isinstance(m, Activation)] for batch in batches
    ]


class TestInputTransducer:
    def test_activation_on_start_document(self):
        source = InputTransducer()
        out = source.feed([Doc(next(events_from_tags(["<$>"])))])
        assert out[0] == Activation(TRUE)

    def test_other_events_forwarded_plain(self):
        source = InputTransducer()
        source.feed([Doc(next(events_from_tags(["<$>"])))])
        out = source.feed([Doc(next(events_from_tags(["<a>"])))])
        assert len(out) == 1 and isinstance(out[0], Doc)

    def test_rejects_incoming_activation(self):
        with pytest.raises(EngineError):
            InputTransducer().feed([Activation(TRUE)])


class TestDemandInputTransducer:
    def test_start_document_alone_does_not_activate(self):
        source = DemandInputTransducer()
        batch = [Doc(next(events_from_tags(["<$>"])))]
        assert source.feed(batch) is batch

    def test_armed_source_activates_the_next_start_tag_only(self):
        source = DemandInputTransducer()
        source.arm()
        first = Doc(next(events_from_tags(["<a>"])))
        assert source.feed([first]) == [Activation(TRUE), first]
        second = Doc(next(events_from_tags(["<a>"])))
        assert source.feed([second]) == [second]
        assert source.stats.activations_emitted == 1

    def test_generic_dispatch_agrees_with_the_fast_path(self):
        source = DemandInputTransducer()
        source.arm()
        message = Doc(next(events_from_tags(["<a>"])))
        assert source.on_start(message, message.event) == [Activation(TRUE), message]
        assert source.on_start(message, message.event) is None

    def test_still_a_source(self):
        with pytest.raises(EngineError):
            DemandInputTransducer().feed([Activation(TRUE)])


class TestChildTransducer:
    def test_example_III_1(self):
        """a.c over the Fig. 1 stream: only the second <c> matches."""
        t1, t2 = ChildTransducer(Label("a")), ChildTransducer(Label("c"))
        batches = feed_chain([t1, t2], PAPER_STREAM_TAGS)
        acts = activations_per_event(batches)
        # Event index 8 is the second <c> (position 5 in the document).
        assert [bool(a) for a in acts] == [
            False, False, False, False, False, False,
            False, False, True, False, False, False,
        ]

    def test_match_only_direct_children(self):
        t = ChildTransducer(Label("c"))
        batches = feed_chain([t], ["<$>", "<c>", "<c>", "</c>", "</c>", "</$>"])
        acts = activations_per_event(batches)
        # Only the depth-1 <c> is a child of the activated root.
        assert [bool(a) for a in acts] == [False, True, False, False, False, False]

    def test_wildcard_matches_any_label(self):
        t = ChildTransducer(Label(WILDCARD))
        batches = feed_chain([t], ["<$>", "<x>", "</x>", "<y>", "</y>", "</$>"])
        acts = activations_per_event(batches)
        assert [bool(a) for a in acts] == [False, True, False, True, False, False]

    def test_multiple_scopes_from_nested_activations(self):
        """_._  : the inner transducer matches in two nested scopes."""
        outer = ChildTransducer(Label(WILDCARD))
        inner = ChildTransducer(Label(WILDCARD))
        tags = ["<$>", "<a>", "<b>", "<c>", "</c>", "</b>", "</a>", "</$>"]
        batches = feed_chain([outer, inner], tags)
        acts = activations_per_event(batches)
        # inner matches <b> (child of a, depth 2) and <c>? <c> is depth 3:
        # outer activates children of $ (depth1=a); inner matches depth-2.
        assert [bool(a) for a in acts] == [
            False, False, True, False, False, False, False, False,
        ]

    def test_stack_bounded_by_depth(self):
        t = ChildTransducer(Label("a"))
        feed_chain([t], ["<$>", "<a>", "<a>", "</a>", "</a>", "</$>"])
        assert t.stats.max_stack == 3  # $, a, a

    def test_end_tag_with_empty_stack_raises(self):
        t = ChildTransducer(Label("a"))
        with pytest.raises(EngineError):
            t.feed([Doc(next(events_from_tags(["</a>"])))])


class TestClosureTransducer:
    def test_example_III_2(self):
        """a+.c+ over the Fig. 1 stream: both <c> elements match."""
        t1 = ClosureTransducer(Label("a"))
        t2 = ClosureTransducer(Label("c"))
        batches = feed_chain([t1, t2], PAPER_STREAM_TAGS)
        acts = activations_per_event(batches)
        # Events 3 and 8 are the two <c> start tags.
        assert [bool(a) for a in acts] == [
            False, False, False, True, False, False,
            False, False, True, False, False, False,
        ]

    def test_matches_nested_chain(self):
        t = ClosureTransducer(Label("a"))
        tags = ["<$>", "<a>", "<a>", "<a>", "</a>", "</a>", "</a>", "</$>"]
        batches = feed_chain([t], tags)
        acts = activations_per_event(batches)
        assert [bool(a) for a in acts] == [
            False, True, True, True, False, False, False, False,
        ]

    def test_chain_broken_by_other_label(self):
        t = ClosureTransducer(Label("a"))
        # <a><b><a/></b></a>: the inner <a> is NOT reachable by an a-chain.
        tags = ["<$>", "<a>", "<b>", "<a>", "</a>", "</b>", "</a>", "</$>"]
        batches = feed_chain([t], tags)
        acts = activations_per_event(batches)
        assert [bool(a) for a in acts] == [
            False, True, False, False, False, False, False, False,
        ]

    def test_wildcard_closure_selects_all_descendants(self):
        t = ClosureTransducer(Label(WILDCARD))
        tags = ["<$>", "<a>", "<b>", "</b>", "</a>", "<c>", "</c>", "</$>"]
        batches = feed_chain([t], tags)
        acts = activations_per_event(batches)
        assert [bool(a) for a in acts] == [
            False, True, True, False, False, True, False, False,
        ]

    def test_nested_scope_disjunction(self):
        """Fig. 3 transition 12: nested activations merge by disjunction."""
        t = ClosureTransducer(Label("a"))
        v1, v2 = Var(1, "q"), Var(2, "q")
        stream = list(events_from_tags(["<$>", "<a>", "<a>", "</a>", "</a>", "</$>"]))
        t.feed([Doc(stream[0])])
        out1 = t.feed([Activation(v1), Doc(stream[1])])
        # Outer <a> activated with v1 and in no scope yet: no match.
        assert not [m for m in out1 if isinstance(m, Activation)]
        out2 = t.feed([Activation(v2), Doc(stream[2])])
        # Inner <a>: matched under v1, and freshly activated with v2 ->
        # its own children would be in scope under v1 v v2.
        assert [m.formula for m in out2 if isinstance(m, Activation)] == [v1]
        assert t.stack[-1] == disj(v1, v2)
