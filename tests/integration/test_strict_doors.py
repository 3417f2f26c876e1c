"""Every strict door refuses a malformed stream at the same event.

There is one envelope state machine (``StreamCursor``) and every strict
entry point is a caller of it, so for any seeded structural fault in a
multi-document stream each door must raise ``StreamError`` on the *same*
event, having delivered the *same* matches (at the same events) before
it — or, where the corruption happened to leave the stream well-formed,
complete with the same matches.

The trial budget scales with ``SOAK_TRIALS`` (CI's soak job raises it).
"""

import itertools
import json
import os
import random

import pytest

from repro import SpexEngine, StreamError
from repro.core.checkpoint import Checkpoint
from repro.core.multiquery import MultiQueryEngine
from repro.xmlstream import FaultInjector, StreamCursor, checked, recovering
from repro.xmlstream.events import EndDocument

from ..conftest import make_random_events

TRIALS = int(os.environ.get("SOAK_TRIALS", "30"))

STRUCTURAL_FAULTS = (
    "truncate",
    "drop_tag",
    "duplicate_tag",
    "swap_tags",
    "interleave_garbage",
)

#: one query per execution lane, plus one that can never match, so that
#: ``filter_documents`` keeps a live query all the way to the fault
QUERIES = {
    "dfa": "_*.a",
    "path": "a.b",
    "hybrid": "_*.a[b].c",
    "gated": "_*.a[_*.b].c",
    "network": "_*._[c]",
    "never": "zz.zz",
}


def engine():
    return MultiQueryEngine(QUERIES)


def drive(door, stream):
    """Run one door over ``stream``: ``(matches, refused index)``.

    ``matches`` are ``(event index, query id, position)`` in delivery
    order — a door yields a match before it draws the next event, so the
    last drawn index is the event that decided it; the refused index is
    that of the event ``StreamError`` was raised on, ``None`` if none.
    """
    drawn = [-1]

    def source():
        for drawn[0], event in enumerate(stream):
            yield event

    matches = []
    try:
        for query_id, position in door(source()):
            matches.append((drawn[0], query_id, position))
    except StreamError:
        return matches, drawn[0]
    return matches, None


def door_checked(source):
    """``checked`` is single-document: one call per ``<$>…</$>``, the
    way the service applies it to each document a producer sends."""

    def one_document(first):
        yield first
        if not isinstance(first, EndDocument):
            for event in source:
                yield event
                if isinstance(event, EndDocument):
                    return

    for first in source:
        for _event in checked(one_document(first), require_end=False):
            pass
    return iter(())


def door_recovering(source):
    for _event in recovering(source, "strict", require_end=False):
        pass
    return iter(())


def door_run(source):
    for query_id, match in engine().run(source):
        yield query_id, match.position


def door_serve(source):
    for query_id, match in engine().serve(source):
        yield query_id, match.position


def door_pump(source):
    pump = engine().start_pump()
    for event in source:
        for query_id, match in pump.feed(event):
            yield query_id, match.position


def door_filter(source):
    engine().filter_documents(source)
    return iter(())


def recorded(source, cut, head):
    """The first ``cut`` events of ``source``, kept in ``head`` for the
    replay a resume needs."""
    for event in itertools.islice(source, cut):
        head.append(event)
        yield event


def door_resume(cut):
    def door(source):
        first = engine()
        head = []
        run = first.run(recorded(source, cut, head), cursor=StreamCursor())
        for query_id, match in run:
            yield query_id, match.position
        restored = Checkpoint.from_dict(json.loads(json.dumps(first.checkpoint().to_dict())))
        fresh = MultiQueryEngine.from_checkpoint(restored)
        replay = itertools.chain(head, source)
        for query_id, match in fresh.resume(restored, replay):
            yield query_id, match.position

    return door


def spex_door(query_id, cut=None):
    def door(source):
        first = SpexEngine(QUERIES[query_id], collect_events=False)
        if cut is None:
            for match in first.run(source, require_end=False):
                yield query_id, match.position
            return
        head = []
        run = first.run(
            recorded(source, cut, head), require_end=False, cursor=StreamCursor()
        )
        for match in run:
            yield query_id, match.position
        restored = Checkpoint.from_dict(json.loads(json.dumps(first.checkpoint().to_dict())))
        fresh = SpexEngine.from_checkpoint(restored)
        for match in fresh.resume(restored, itertools.chain(head, source)):
            yield query_id, match.position

    return door


def corrupted_stream(kind, trial):
    rng = random.Random(70_000 + trial)
    documents = [
        make_random_events(rng, max_children=3, max_depth=4) for _ in range(3)
    ]
    victim = rng.randrange(len(documents))
    return FaultInjector(seed=trial).corrupt_document(documents, victim, kind)


@pytest.mark.parametrize("kind", STRUCTURAL_FAULTS)
def test_every_strict_door_refuses_at_the_same_event(kind):
    refused = 0
    for trial in range(TRIALS):
        stream, fault = corrupted_stream(kind, trial)
        context = (kind, trial, fault)
        matches, index = drive(door_run, stream)
        refused += index is not None
        valid = len(stream) if index is None else index
        cut = random.Random(trial).randrange(valid + 1)

        for door in (door_serve, door_pump, door_resume(cut)):
            assert drive(door, stream) == (matches, index), (door, context)
        for door in (door_checked, door_recovering, door_filter):
            assert drive(door, stream) == ([], index), (door, context)
        for query_id in QUERIES:
            own = [match for match in matches if match[1] == query_id]
            for door in (spex_door(query_id), spex_door(query_id, cut)):
                assert drive(door, stream) == (own, index), (query_id, context)
    # the fault kinds are structural: most trials must actually refuse
    assert refused > TRIALS // 2, (kind, refused)
