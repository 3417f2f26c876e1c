"""Differential checkpoint/resume soak over realistic workloads.

The acceptance property of the checkpoint layer (the tentpole claim):
for any query and any interrupt point, *checkpoint → fresh engine →
restore → continue* yields byte-identical match sequences to an
uninterrupted run — which itself equals the DOM oracle.  No duplicated
matches, no dropped matches, regardless of where the cut lands (mid
element, mid qualifier window, mid candidate buffering).

The kill/restore trial budget scales with ``SOAK_TRIALS`` (default keeps
the suite fast; CI's interruption-soak job raises it).
"""

import itertools
import os
import random

import pytest

from repro import Checkpoint, SpexEngine, StreamCursor, Supervisor, SupervisorConfig
from repro.baselines import DomEvaluator
from repro.core.multiquery import MultiQueryEngine
from repro.rpeq.parser import parse
from repro.workloads import mondial, xmark
from repro.xmlstream import FlakySource, iter_events

TRIALS = int(os.environ.get("SOAK_TRIALS", "12"))

#: (workload events, queries) — queries chosen to exercise plain paths,
#: closures, qualifiers (buffering across the cut) and nesting on the
#: labels each generator actually emits.
XMARK_EVENTS = list(xmark(seed=7, scale=10))
MONDIAL_EVENTS = list(mondial(seed=7, countries=15))

WORKLOADS = {
    "xmark": (
        XMARK_EVENTS,
        [
            "_*.item",
            "_*.item[bidder].name",
            "_*.item[_*.date]",
            "_*.description.text",
        ],
    ),
    "mondial": (
        MONDIAL_EVENTS,
        [
            "_*.country.name",
            "_*.country[province].name",
            "_*.province[_*.city].name",
            "_*.city[population]",
        ],
    ),
}


def uninterrupted(query, events):
    """Match fingerprints of a plain strict run (the ground truth)."""
    return [
        (match.position, match.label, match.events)
        for match in SpexEngine(query).run(iter(events))
    ]


def interrupted(query, events, cut):
    """Run to ``cut`` events, checkpoint via disk, resume in a fresh engine."""
    engine = SpexEngine(query)
    cursor = StreamCursor()
    prefix = list(itertools.islice(iter(events), cut))
    collected = [
        (match.position, match.label, match.events)
        for match in engine.run(iter(prefix), cursor=cursor)
    ]
    data = engine.checkpoint().to_dict()
    restored = Checkpoint.from_dict(data)  # full serialization round trip
    fresh = SpexEngine.from_checkpoint(restored)
    collected += [
        (match.position, match.label, match.events)
        for match in fresh.resume(restored, iter(events))
    ]
    return collected


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_oracle_agreement(workload):
    """Sanity: the uninterrupted streaming run equals the DOM oracle."""
    events, queries = WORKLOADS[workload]
    for query in queries:
        oracle = [
            node.position
            for node in DomEvaluator(parse(query)).evaluate(iter(events))
        ]
        got = [fingerprint[0] for fingerprint in uninterrupted(query, events)]
        assert got == oracle, query


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_random_interrupt_points_are_lossless(workload):
    """Seeded (query, cut) soak: interrupt anywhere, lose nothing."""
    events, queries = WORKLOADS[workload]
    rng = random.Random(2024)
    baselines = {query: uninterrupted(query, events) for query in queries}
    for trial in range(TRIALS):
        query = queries[trial % len(queries)]
        cut = rng.randrange(0, len(events) + 1)
        assert interrupted(query, events, cut) == baselines[query], (
            f"trial {trial}: query {query!r} interrupted at {cut}"
        )


def test_every_cut_point_small_stream():
    """Exhaustive cut sweep on a small prefix (no sampling blind spots)."""
    events = XMARK_EVENTS[:60]
    query = "_*.item[bidder].name"
    baseline = uninterrupted(query, events)
    for cut in range(len(events) + 1):
        assert interrupted(query, events, cut) == baseline, f"cut {cut}"


def test_repeated_kill_restore_chain():
    """Checkpoint → kill → restore repeatedly along one stream.

    Models a process dying many times over one long stream: each leg
    resumes from the previous leg's checkpoint; the concatenation of all
    legs' matches must equal the uninterrupted run.
    """
    events, queries = WORKLOADS["mondial"]
    rng = random.Random(7)
    for query in queries:
        baseline = uninterrupted(query, events)
        cuts = sorted(rng.sample(range(1, len(events)), 5))
        collected = []
        engine = SpexEngine(query)
        cursor = StreamCursor()
        prefix = list(itertools.islice(iter(events), cuts[0]))
        collected += [
            (m.position, m.label, m.events)
            for m in engine.run(iter(prefix), cursor=cursor)
        ]
        checkpoint = engine.checkpoint()
        for next_cut in cuts[1:]:
            engine = SpexEngine.from_checkpoint(checkpoint)
            leg = list(itertools.islice(iter(events), next_cut))
            collected += [
                (m.position, m.label, m.events)
                for m in engine.resume(checkpoint, iter(leg))
            ]
            checkpoint = engine.checkpoint()
        engine = SpexEngine.from_checkpoint(checkpoint)
        collected += [
            (m.position, m.label, m.events)
            for m in engine.resume(checkpoint, iter(events))
        ]
        assert collected == baseline, query


def test_multiquery_interrupts_are_lossless():
    events, queries = WORKLOADS["xmark"]
    subscription = {f"q{i}": query for i, query in enumerate(queries)}
    baseline = [
        (query_id, match.position)
        for query_id, match in MultiQueryEngine(subscription).run(iter(events))
    ]
    rng = random.Random(99)
    for _trial in range(max(3, TRIALS // 4)):
        cut = rng.randrange(0, len(events) + 1)
        engine = MultiQueryEngine(subscription)
        cursor = StreamCursor()
        prefix = list(itertools.islice(iter(events), cut))
        got = [
            (query_id, match.position)
            for query_id, match in engine.run(iter(prefix), cursor=cursor)
        ]
        restored = Checkpoint.from_dict(engine.checkpoint().to_dict())
        fresh = MultiQueryEngine.from_checkpoint(restored)
        got += [
            (query_id, match.position)
            for query_id, match in fresh.resume(restored, iter(events))
        ]
        assert got == baseline, f"cut {cut}"


def test_supervised_flaky_run_matches_oracle():
    """End-to-end: supervisor + seeded transient faults + stalls ≡ oracle."""
    events, queries = WORKLOADS["mondial"]
    rng = random.Random(31337)
    for query in queries:
        baseline = uninterrupted(query, events)
        script = [
            ("error", rng.randrange(0, len(events)))
            for _ in range(3)
        ] + [("stall", rng.randrange(0, len(events)))]
        rng.shuffle(script)
        source = FlakySource(events, script=script, stall_seconds=5.0)
        engine = SpexEngine(query)
        supervisor = Supervisor(
            engine,
            source,
            SupervisorConfig(
                max_retries=8,
                backoff_initial=0.0,
                jitter=0.0,
                heartbeat_timeout=0.2,
            ),
        )
        got = [
            (match.position, match.label, match.events)
            for match in supervisor.run()
        ]
        assert got == baseline, query
        assert supervisor.report.completed
