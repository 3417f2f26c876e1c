"""Unit tests for network construction and execution."""

import pytest

from repro.conditions.store import ConditionStore
from repro.core.flow_transducers import JoinTransducer, SplitTransducer
from repro.core.network import Network
from repro.core.output_tx import OutputTransducer
from repro.core.path_transducers import ChildTransducer, InputTransducer
from repro.errors import EngineError
from repro.rpeq.ast import Label
from repro.xmlstream.events import events_from_tags


def paper_events():
    return events_from_tags(
        ["<$>", "<a>", "<a>", "<c>", "</c>", "</a>", "<b>", "</b>",
         "<c>", "</c>", "</a>", "</$>"]
    )


def build_simple(query_labels):
    """IN -> CH(l1) -> ... -> OU network."""
    store = ConditionStore()
    source = InputTransducer()
    sink = OutputTransducer(store)
    network = Network(source, sink)
    tape = source
    for label in query_labels:
        tape = network.add(ChildTransducer(Label(label)), tape)
    network.add(sink, tape)
    network.finalize()
    return network


class TestConstruction:
    def test_degree_counts_all_nodes(self):
        assert build_simple(["a", "c"]).degree == 4

    def test_join_requires_two_predecessors(self):
        source = InputTransducer()
        network = Network(source)
        with pytest.raises(EngineError):
            network.add(JoinTransducer(), source)

    def test_non_join_requires_one_predecessor(self):
        source = InputTransducer()
        network = Network(source)
        split = network.add(SplitTransducer(), source)
        with pytest.raises(EngineError):
            network.add(ChildTransducer(Label("a")), split, source)

    def test_predecessor_must_exist(self):
        network = Network(InputTransducer())
        with pytest.raises(EngineError):
            network.add(ChildTransducer(Label("a")), ChildTransducer(Label("x")))

    def test_add_after_finalize_rejected(self):
        network = build_simple(["a"])
        with pytest.raises(EngineError):
            network.add(ChildTransducer(Label("z")), network.source)

    def test_process_before_finalize_rejected(self):
        network = Network(InputTransducer())
        with pytest.raises(EngineError):
            network.process_event(next(paper_events()))

    def test_duplicate_names_disambiguated(self):
        store = ConditionStore()
        source = InputTransducer()
        sink = OutputTransducer(store)
        network = Network(source, sink)
        t1 = network.add(ChildTransducer(Label("a")), source)
        t2 = network.add(ChildTransducer(Label("a")), t1)
        network.add(sink, t2)
        network.finalize()
        assert t1.name != t2.name

    def test_describe_lists_wiring(self):
        text = build_simple(["a", "c"]).describe()
        assert "IN <- (source)" in text
        assert "CH(a) <- IN" in text


class TestExecution:
    def test_example_III_1_end_to_end(self):
        network = build_simple(["a", "c"])
        matches = [m for e in paper_events() for m in network.process_event(e)]
        assert [m.position for m in matches] == [5]

    def test_run_convenience(self):
        network = build_simple(["a", "c"])
        assert [m.position for m in network.run(paper_events())] == [5]

    def test_sinkless_network_returns_nothing(self):
        network = Network(InputTransducer())
        network.finalize()
        assert [network.process_event(e) for e in paper_events()] == [[]] * 12


class TestHookOverridingSubclass:
    """A subclass that overrides a hook without bringing entry points of
    its own must not be bypassed by the ones it inherits: every generated
    pass drives it through the hooks."""

    class VetoingChild(ChildTransducer):
        """``CH`` that sees every end tag and never matches label c."""

        def __init__(self, test):
            super().__init__(test)
            self.closed = []

        def on_start(self, message, event):
            if getattr(event, "label", None) == "c":
                self.stack.append(self.take_pending())
                return None
            return super().on_start(message, event)

        def on_end(self, message, event):
            self.closed.append(getattr(event, "label", "$"))
            return super().on_end(message, event)

    def build(self, child_class):
        store = ConditionStore()
        source = InputTransducer()
        sink = OutputTransducer(store)
        network = Network(source, sink)
        assert network.flags.production_network
        first = network.add(ChildTransducer(Label("a")), source)
        second = network.add(child_class(Label("_")), first)
        network.add(sink, second)
        network.finalize()
        return network, second

    def test_entry_points_are_reset(self):
        assert callable(ChildTransducer.start) and ChildTransducer.end is not None
        veto = self.VetoingChild
        assert veto.start is veto.end is veto.text is None

    def test_hooks_run_in_every_pass(self):
        network, plain = self.build(ChildTransducer)
        assert [m.label for m in network.run(paper_events())] == ["a", "b", "c"]
        network, veto = self.build(self.VetoingChild)
        assert [m.label for m in network.run(paper_events())] == ["a", "b"]
        assert veto.closed == ["c", "a", "b", "c", "a", "$"]
        assert veto.stack == [] and plain.stack == []


class TestStats:
    def test_stats_rollup(self):
        network = build_simple(["a", "c"])
        list(network.run(paper_events()))
        stats = network.stats()
        assert stats.degree == 4
        assert stats.events == 12
        assert stats.max_stack == 4  # $, a, a, c  in the first CH
        assert "CH(a)" in stats.per_transducer

    def test_stack_bound_is_depth_plus_one(self):
        network = build_simple(["a"])
        list(network.run(paper_events()))
        # document depth 3, +1 for the envelope
        assert network.stats().max_stack <= 4
