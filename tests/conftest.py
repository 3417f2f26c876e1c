"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.analysis.rewrite import rewrite_query
from repro.rpeq import GeneratorConfig, random_rpeq
from repro.rpeq.ast import Rpeq
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
)

LABELS = ("a", "b", "c", "d")


def simplify(query: str | Rpeq) -> Rpeq:
    """The rewriter's fixpoint of ``query``, certificates off: the tests
    that call this *are* the check that the rules preserve answers."""
    return rewrite_query(query, certify=False)[0].rewritten


#: The document of the paper's Fig. 1, used by many unit tests.
PAPER_DOC = "<a><a><c/></a><b/><c/></a>"

#: Tag-notation stream of the same document (paper Sec. II.1).
PAPER_STREAM_TAGS = [
    "<$>", "<a>", "<a>", "<c>", "</c>", "</a>",
    "<b>", "</b>", "<c>", "</c>", "</a>", "</$>",
]


def make_random_events(
    rng: random.Random,
    max_children: int = 4,
    max_depth: int = 5,
    labels: tuple[str, ...] = LABELS,
) -> list[Event]:
    """A random, well-formed event list (seeded, reproducible)."""
    events: list[Event] = [StartDocument()]

    def grow(depth: int) -> None:
        for _ in range(rng.randint(0, max_children)):
            label = rng.choice(labels)
            events.append(StartElement(label))
            if depth < max_depth:
                grow(depth + 1)
            events.append(EndElement(label))

    grow(1)
    events.append(EndDocument())
    return events


def indexed_matches(run, events) -> list[tuple[int, str, int, str]]:
    """``(event index, query id, position, label)`` per match of a
    pull-mode pass ``run(source)`` — *when* each match is emitted, not
    just what: a match is yielded before the next event is drawn, so the
    last drawn index is the event that emitted it."""
    at = [0]

    def numbered():
        for at[0], event in enumerate(events):
            yield event

    return [
        (at[0], query_id, match.position, match.label)
        for query_id, match in run(numbered())
    ]


@st.composite
def event_streams(draw, max_depth: int = 4, labels: tuple[str, ...] = LABELS) -> list[Event]:
    """Hypothesis strategy: a well-formed event list (shrinks nicely)."""

    def subtree(depth: int):
        children = draw(
            st.lists(st.sampled_from(labels), min_size=0, max_size=3)
        )
        events: list[Event] = []
        for label in children:
            events.append(StartElement(label))
            if depth < max_depth and draw(st.booleans()):
                events.extend(subtree(depth + 1))
            events.append(EndElement(label))
        return events

    return [StartDocument(), *subtree(1), EndDocument()]


@st.composite
def rpeq_queries(draw, **config_overrides) -> Rpeq:
    """Hypothesis strategy: a random rpeq AST via the seeded generator.

    Delegates to :func:`repro.rpeq.random_rpeq` driven by a drawn seed,
    which keeps shrinking meaningful (smaller seed -> same distribution)
    while reusing the library's own generator.
    """
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    config = GeneratorConfig(labels=LABELS, **config_overrides)
    return random_rpeq(random.Random(seed), config)


@pytest.fixture
def rng() -> random.Random:
    """A seeded RNG, fresh per test."""
    return random.Random(20020512)
