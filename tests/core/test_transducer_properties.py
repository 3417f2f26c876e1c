"""Property tests for individual transducers.

Each transducer is run standalone (IN -> T) on random streams and its
emitted activations are compared against a reference oracle computed on
the materialized tree:

* ``CH(l)`` activates exactly the ``l``-children of the root;
* ``CL(l)`` activates exactly the nodes reachable from the root by
  non-empty ``l``-chains;
* ``DS(l*)`` activates the root plus exactly ``CL(l)``'s nodes;
* all of them emit the activation immediately before the matched start
  tag, and their stacks empty out at ``</$>``.

The second half holds the two statements of every transition equal: the
production entry points (``start`` / ``end`` / ``text``, driven the way a
generated pass drives them) against the ``on_*`` hooks under
``Transducer.feed``, on every legal batch shape, after every event.
"""

import inspect

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core
from repro.conditions.formula import TRUE, Var, conj, disj
from repro.conditions.store import ConditionStore, VariableAllocator
from repro.core.axis_transducers import FollowingTransducer, PrecedingTransducer
from repro.core.flow_transducers import (
    JoinTransducer,
    SplitTransducer,
    UnionTransducer,
)
from repro.core.messages import Activation, Close, Contribute, Doc
from repro.core.output_tx import OutputTransducer
from repro.core.path_transducers import (
    ChildTransducer,
    ClosureTransducer,
    DemandInputTransducer,
    InputTransducer,
    StarTransducer,
)
from repro.core.qualifier_transducers import (
    VariableCreator,
    VariableDeterminant,
    VariableFilter,
)
from repro.core.transducer import FORWARDS, POPS, Transducer
from repro.errors import EngineError
from repro.rpeq.ast import WILDCARD, Label
from repro.xmlstream.events import (
    EndElement,
    StartDocument,
    StartElement,
    Text,
)
from repro.xmlstream.tree import build_document

from ..conftest import LABELS, event_streams

SETTINGS = dict(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_tests = st.sampled_from([Label(name) for name in (*LABELS, WILDCARD)])


def activated_positions(transducer, events):
    """Positions whose start tag is immediately preceded by an activation."""
    source = InputTransducer()
    positions = []
    counter = 0
    for event in events:
        batch = transducer.feed(source.feed([Doc(event)]))
        if isinstance(event, StartElement):
            counter += 1
            pending = any(isinstance(m, Activation) for m in batch[:-1])
            if pending:
                positions.append(counter)
    return positions, transducer


def child_oracle(test, events):
    document = build_document(events)
    return [
        child.position
        for child in document.root.children
        if test.matches(child.label)
    ]


def chain_oracle(test, events):
    document = build_document(events)
    result = []

    def descend(node):
        for child in node.children:
            if test.matches(child.label):
                result.append(child.position)
                descend(child)

    descend(document.root)
    return sorted(result)


class TestChildTransducer:
    @settings(**SETTINGS)
    @given(_tests, event_streams())
    def test_matches_root_children(self, test, events):
        positions, _ = activated_positions(ChildTransducer(test), events)
        assert positions == child_oracle(test, events)

    @settings(**SETTINGS)
    @given(_tests, event_streams())
    def test_stack_empty_at_end(self, test, events):
        _, transducer = activated_positions(ChildTransducer(test), events)
        assert transducer.stack == []
        assert transducer.pending is None


class TestClosureTransducer:
    @settings(**SETTINGS)
    @given(_tests, event_streams())
    def test_matches_label_chains(self, test, events):
        positions, _ = activated_positions(ClosureTransducer(test), events)
        assert sorted(positions) == chain_oracle(test, events)

    @settings(**SETTINGS)
    @given(_tests, event_streams())
    def test_stack_empty_at_end(self, test, events):
        _, transducer = activated_positions(ClosureTransducer(test), events)
        assert transducer.stack == []


class TestStarTransducer:
    @settings(**SETTINGS)
    @given(_tests, event_streams())
    def test_equals_closure_plus_context(self, test, events):
        positions, _ = activated_positions(StarTransducer(test), events)
        # The context here is the document root, which has no start tag
        # counted by activated_positions — elements only.
        assert sorted(positions) == chain_oracle(test, events)

    @settings(**SETTINGS)
    @given(_tests, event_streams())
    def test_emits_activation_for_context_itself(self, test, events):
        """The epsilon component: the root activation passes through."""
        source = InputTransducer()
        transducer = StarTransducer(test)
        first = events[0]  # <$>
        batch = transducer.feed(source.feed([Doc(first)]))
        assert any(isinstance(m, Activation) for m in batch)


# ----------------------------------------------------------------------
# entry points == hooks

#: condition variables the generated messages mention: two instances of
#: the qualifier under test, one of a nested and one of a foreign one
POOL = [Var(1001, "q0"), Var(1002, "q0"), Var(1003, "q1"), Var(1004, "q9")]
FORMULAS = [
    TRUE,
    POOL[0],
    conj(POOL[0], POOL[2]),
    disj(POOL[0], POOL[1]),
    conj(POOL[1], POOL[3]),
    disj(conj(POOL[0], POOL[2]), POOL[3]),
]


def _store():
    store = ConditionStore()
    for var in POOL:
        store.register(var)
    return store


#: one factory per class with entry points (and per constructor variant
#: that changes a transition); each call builds an independent instance
FACTORIES = {
    "IN": InputTransducer,
    "IN-demand": DemandInputTransducer,
    "CH(a)": lambda: ChildTransducer(Label("a")),
    "CH(_)": lambda: ChildTransducer(Label(WILDCARD)),
    "CL(a)": lambda: ClosureTransducer(Label("a")),
    "CL(_)": lambda: ClosureTransducer(Label(WILDCARD)),
    "DS(a)": lambda: StarTransducer(Label("a")),
    "DS(_)": lambda: StarTransducer(Label(WILDCARD)),
    "VC": lambda: VariableCreator("q0", VariableAllocator(), _store()),
    "VC-deferred": lambda: VariableCreator(
        "q0", VariableAllocator(), _store(), close_at_document_end=True
    ),
    "VF+": lambda: VariableFilter(frozenset({"q0", "q1"})),
    "VF-": lambda: VariableFilter(frozenset({"q0", "q1"}), positive=False),
    "VD": lambda: VariableDeterminant("q0"),
    "SP": SplitTransducer,
    "UN": UnionTransducer,
    "FO": lambda: FollowingTransducer(Label("a"), _store()),
    "PR": lambda: PrecedingTransducer(
        Label("a"), "q7", VariableAllocator(), _store()
    ),
    "OU": lambda: OutputTransducer(_store(), collect_events=True),
    "OU-positions": lambda: OutputTransducer(_store(), collect_events=False),
}

ENTRY = {StartElement: "start", EndElement: "end", Text: "text"}


def drive(node, event, batch):
    """What the generated pass of ``event``'s class does with ``node``.

    Returns the output batch and the messages the pass did not count (a
    ``FORWARDS`` / ``POPS`` visit is no call at all).
    """
    how = getattr(node, ENTRY.get(event.__class__, "feed"))
    if how is None:
        how = node.feed
    if how is FORWARDS or how is POPS:
        if how is POPS:
            node.stack.pop()
        return batch, len(batch)
    return how(batch), 0


def legal_batch(rng, event, node):
    """A batch of a shape some network can put in front of ``node``."""
    message = Doc(event)
    if isinstance(node, InputTransducer):
        return [message]  # the source only ever sees the document message
    activation = lambda: Activation(rng.choice(FORMULAS))  # noqa: E731
    contribute = lambda: Contribute(  # noqa: E731
        rng.choice(POOL), rng.choice(FORMULAS[:3])
    )
    if event.__class__ is StartDocument:
        return [Activation(TRUE), message]
    if event.__class__ is StartElement:
        head = rng.choice(
            [
                [],
                [],
                [activation()],
                [activation(), activation()],
                [contribute(), activation()],
                [activation(), contribute()],
                [contribute()],
            ]
        )
    elif event.__class__ is EndElement:
        head = rng.choice([[], [], [Close(POOL[0])], [Close(POOL[1]), Close(POOL[2])]])
    else:
        head = []
    return [*head, message]


def with_text(rng, events):
    out = []
    for event in events:
        out.append(event)
        if event.__class__ is StartElement and rng.random() < 0.3:
            out.append(Text("t"))
    return out


def test_every_class_with_entry_points_has_a_factory():
    covered = {type(factory()) for factory in FACTORIES.values()}
    for _, cls in inspect.getmembers(repro.core, inspect.isclass):
        if issubclass(cls, Transducer) and (cls.start or cls.end or cls.text):
            assert cls in covered, cls
            # ... and its reference is the hook-driven dispatch, not an
            # inlined feed of its own (SP's is the identity it declares)
            assert cls.feed is Transducer.feed or cls is SplitTransducer, cls


class TestEntryPointsEqualHooks:
    @pytest.mark.parametrize("kind", sorted(FACTORIES))
    @settings(**SETTINGS)
    @given(events=event_streams(), rng=st.randoms(use_true_random=False))
    def test_twins_agree_after_every_event(self, kind, events, rng):
        fast, slow = FACTORIES[kind](), FACTORIES[kind]()
        uncounted = 0
        for event in with_text(rng, events):
            batch = legal_batch(rng, event, fast)
            if kind == "IN-demand" and rng.random() < 0.4:
                fast.arm()
                slow.arm()
            got, skipped = drive(fast, event, list(batch))
            uncounted += skipped
            assert got == slow.feed(list(batch)), (kind, event, batch)
            mine, reference = fast.snapshot(), slow.snapshot()
            # all four counters; the visits a pass skips are the only
            # difference, and only in ``messages``
            mine["stats"][0] += uncounted
            assert mine == reference, (kind, event, batch)
            if kind.startswith("OU"):
                assert fast.output_stats == slow.output_stats
        assert fast.stack == [] and fast.pending is None


class TestJoinShapes:
    @settings(**SETTINGS)
    @given(rng=st.randoms(use_true_random=False), dedup=st.booleans())
    def test_shared_document_message_path_equals_general_path(self, rng, dedup):
        """Production branches carry one pooled Doc object and take the
        identity path; equal-but-distinct Doc objects take the general
        one.  Same merge either way."""
        event = StartElement("a")
        shared = [Activation(f) for f in FORMULAS[:2]] + [Close(POOL[0])]
        left = rng.sample(shared, rng.randint(0, 3)) + [Activation(POOL[1])][: rng.randint(0, 1)]
        right = rng.sample(shared, rng.randint(0, 3)) + [Contribute(POOL[0], TRUE)][: rng.randint(0, 1)]
        doc = Doc(event)
        fast = JoinTransducer(dedup=dedup).feed2([*left, doc], [*right, doc])
        general = JoinTransducer(dedup=dedup).feed2(
            [*left, Doc(event)], [*right, Doc(event)]
        )
        assert fast == general
        assert [id(m) for m in fast[:-1]] == [id(m) for m in general[:-1]]

    def test_mismatched_documents_still_raise(self):
        join = JoinTransducer()
        activation = Activation(TRUE)
        with pytest.raises(EngineError, match="disagree"):
            join.feed2(
                [activation, Doc(StartElement("a"))], [Doc(StartElement("b"))]
            )
        with pytest.raises(EngineError, match="disagree"):
            join.feed2([Doc(StartElement("a"))], [Doc(EndElement("a"))])
        with pytest.raises(EngineError, match="disagree"):
            join.feed2([activation, Doc(StartElement("a"))], [activation])
