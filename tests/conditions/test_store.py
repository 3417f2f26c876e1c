"""Unit tests for the condition store (determination protocol)."""

import json

import pytest

from repro.conditions.formula import TRUE, Var, conj, disj
from repro.conditions.store import ConditionStore, VariableAllocator
from repro.core.axis_transducers import FollowingTransducer
from repro.core.messages import Activation, Doc
from repro.core.output_tx import OutputTransducer
from repro.errors import EngineError
from repro.rpeq.ast import Label
from repro.xmlstream.events import events_from_tags


@pytest.fixture
def store():
    return ConditionStore()


def var(store, uid, qualifier="q0"):
    v = Var(uid, qualifier)
    store.register(v)
    return v


class TestPaperProtocol:
    """The simple {c,true} / {c,false}-on-close protocol of Figs. 6-7."""

    def test_unknown_until_evidence(self, store):
        c = var(store, 1)
        assert store.value(c) is None

    def test_contribute_true_determines(self, store):
        c = var(store, 1)
        assert store.contribute(c, TRUE) == [c]
        assert store.value(c) is True

    def test_close_without_evidence_is_false(self, store):
        c = var(store, 1)
        assert store.close(c) == [c]
        assert store.value(c) is False

    def test_first_determination_wins(self, store):
        # VC sends {c,false} at scope end even when VD already proved the
        # variable; the earlier determination must win (Sec. III.10).
        c = var(store, 1)
        store.contribute(c, TRUE)
        assert store.close(c) == []
        assert store.value(c) is True

    def test_late_evidence_ignored(self, store):
        c = var(store, 1)
        store.close(c)
        assert store.contribute(c, TRUE) == []
        assert store.value(c) is False


class TestNestedQualifiers:
    """Conditional contributions {c, residue} for nested qualifiers."""

    def test_contribution_pending_on_inner_variable(self, store):
        outer, inner = var(store, 1, "q0"), var(store, 2, "q1")
        store.contribute(outer, inner)
        assert store.value(outer) is None

    def test_inner_true_cascades(self, store):
        outer, inner = var(store, 1, "q0"), var(store, 2, "q1")
        store.contribute(outer, inner)
        determined = store.contribute(inner, TRUE)
        assert set(determined) == {inner, outer}
        assert store.value(outer) is True

    def test_inner_false_then_close_cascades_false(self, store):
        outer, inner = var(store, 1, "q0"), var(store, 2, "q1")
        store.contribute(outer, inner)
        store.close(inner)  # inner becomes false
        determined = store.close(outer)
        assert outer in determined
        assert store.value(outer) is False

    def test_closing_outer_first_waits_for_inner(self, store):
        outer, inner = var(store, 1, "q0"), var(store, 2, "q1")
        store.contribute(outer, inner)
        assert store.close(outer) == []  # still hinges on inner
        determined = store.contribute(inner, TRUE)
        assert set(determined) == {inner, outer}

    def test_disjunctive_evidence(self, store):
        outer = var(store, 1, "q0")
        i1, i2 = var(store, 2, "q1"), var(store, 3, "q1")
        store.contribute(outer, i1)
        store.contribute(outer, i2)
        store.close(i1)  # first witness dead
        assert store.value(outer) is None
        store.contribute(i2, TRUE)  # second witness proves it
        assert store.value(outer) is True

    def test_deep_cascade(self, store):
        a, b, c = var(store, 1, "q0"), var(store, 2, "q1"), var(store, 3, "q2")
        store.contribute(a, b)
        store.contribute(b, c)
        determined = store.contribute(c, TRUE)
        assert set(determined) == {a, b, c}

    def test_conjunctive_residue(self, store):
        outer = var(store, 1, "q0")
        i1, i2 = var(store, 2, "q1"), var(store, 3, "q2")
        store.contribute(outer, conj(i1, i2))
        store.contribute(i1, TRUE)
        assert store.value(outer) is None
        store.contribute(i2, TRUE)
        assert store.value(outer) is True


class TestEvaluate:
    def test_formula_over_live_variables(self, store):
        c1, c2 = var(store, 1), var(store, 2)
        formula = disj(c1, c2)
        assert store.evaluate(formula) is None
        store.contribute(c2, TRUE)
        assert store.evaluate(formula) is True


class TestAccounting:
    def test_totals(self, store):
        c1, c2 = var(store, 1), var(store, 2)
        store.contribute(c1, TRUE)
        store.close(c2)
        assert store.total_variables == 2
        assert store.total_contributions == 1

    def test_live_tracking(self, store):
        c1 = var(store, 1)
        c2 = var(store, 2)
        assert store.live_variables == 2
        store.close(c1)
        assert store.live_variables == 1
        assert store.peak_live_variables == 2


class TestRelease:
    def test_not_released_while_undetermined(self, store):
        c = var(store, 1)
        assert not store.maybe_release(c)

    def test_not_released_until_closed(self, store):
        c = var(store, 1)
        store.contribute(c, TRUE)
        assert not store.maybe_release(c)

    def test_released_when_closed_and_determined(self, store):
        c = var(store, 1)
        store.contribute(c, TRUE)
        store.close(c)
        assert store.maybe_release(c)
        with pytest.raises(EngineError):
            store.value(c)

    def test_not_released_while_referenced(self, store):
        outer, inner = var(store, 1, "q0"), var(store, 2, "q1")
        store.contribute(outer, inner)
        store.contribute(inner, TRUE)  # determines both (cascade)
        store.close(inner)
        # inner became closed+determined and nothing references it now.
        assert store.maybe_release(inner)

    def test_release_of_unknown_is_noop(self, store):
        assert store.maybe_release(Var(99, "qx"))


def recorder(store):
    """Every batch the store broadcasts, from a sink-like listener."""
    batches = []
    store.subscribe(batches.append, watched_only=True)
    return batches


def docs(*tags):
    return [Doc(event) for event in events_from_tags(tags)]


class TestUnobservedVariables:
    """A variable nothing observes costs a slot; its contract is unchanged."""

    def test_close_is_false_until_end_of_event_releases(self, store):
        batches = recorder(store)
        c = var(store, 1)
        assert store.close(c) == [c]
        assert store.value(c) is False
        assert store.is_closed(c)
        assert store.contribute(c, TRUE) == []  # late evidence: no-op
        assert store.close(c) == []
        assert store.live_variables == 0
        store.defer_release(c)
        assert store.value(c) is False
        store.end_of_event()
        with pytest.raises(EngineError):
            store.value(c)
        # nothing watched it, so nothing was told
        assert batches == []

    def test_sink_watcher_retains_and_gets_one_broadcast(self, store):
        sink = OutputTransducer(store, collect_events=False)
        batches = recorder(store)
        c = var(store, 1)
        d = docs("<$>", "<a>", "</a>", "</$>")
        sink.feed([d[0]])
        sink.feed([Activation(c), d[1]])  # a candidate for <a> watching c
        assert store.close(c) == [c]
        assert batches == [[c]]
        assert sink.output_stats.candidates_dropped == 1
        store.defer_release(c)
        store.end_of_event()
        assert batches == [[c]]
        with pytest.raises(EngineError):
            store.value(c)

    def test_following_formula_retains_and_gets_one_broadcast(self, store):
        following = FollowingTransducer(Label("b"), store)
        batches = recorder(store)
        c = var(store, 1)
        d = docs("<$>", "<a>", "</a>", "</$>")
        following.feed([d[0]])
        following.feed([Activation(c), d[1]])
        following.feed([d[2]])  # </a>: c joins the *after* formula
        assert following._retains(c)
        assert store.close(c) == [c]
        assert batches == [[c]]
        store.defer_release(c)
        store.end_of_event()
        assert batches == [[c]]
        with pytest.raises(EngineError):
            store.value(c)

    def test_dependent_gets_one_broadcast(self, store):
        batches = recorder(store)
        outer, inner = var(store, 1, "q0"), var(store, 2, "q1")
        store.contribute(outer, inner)
        assert store.close(inner) == [inner]
        assert batches == [[inner]]
        assert store.close(outer) == [outer]
        assert batches == [[inner], [outer]]

    def test_snapshot_round_trip(self, store):
        open_, closed, proven, outer = (var(store, uid) for uid in (1, 2, 3, 4))
        store.close(closed)
        store.defer_release(closed)
        store.contribute(proven, TRUE)
        store.contribute(outer, var(store, 5, "q1"))
        first = store.snapshot()
        states = {entry[0][1]: entry[1:] for entry in first["states"]}
        assert states[open_.uid] == [[], False, None]
        assert states[closed.uid] == [[], True, False]
        assert states[5] == [[], False, None]  # observed by a dependent
        restored = ConditionStore()
        restored.restore(json.loads(json.dumps(first)))
        assert json.dumps(restored.snapshot()) == json.dumps(first)
        assert restored.close(open_) == [open_]


class TestErrors:
    def test_double_register(self, store):
        c = var(store, 1)
        with pytest.raises(EngineError):
            store.register(c)

    def test_unknown_variable_access(self, store):
        with pytest.raises(EngineError):
            store.value(Var(42, "q9"))

    def test_unknown_contribute_is_noop(self, store):
        # Late duplicates of messages for released variables (possible
        # when join dedup is ablated away) must be harmless.
        assert store.contribute(Var(42, "q9"), TRUE) == []

    def test_unknown_close_is_noop(self, store):
        assert store.close(Var(42, "q9")) == []


class TestVariableAllocator:
    def test_sequential_uids(self):
        allocator = VariableAllocator()
        a, b = allocator.fresh("q0"), allocator.fresh("q1")
        assert (a.uid, b.uid) == (1, 2)

    def test_independent_allocators(self):
        assert VariableAllocator().fresh("q").uid == VariableAllocator().fresh("q").uid
