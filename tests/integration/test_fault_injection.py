"""Fault-injection soak: corrupted streams × recovery policies.

The acceptance property of the resilience layer: for every seeded
corruption and every policy, the engine either raises the documented
``StreamError``/``ResourceLimitError`` (strict) or completes the run
with matches on the surviving documents identical to the DOM oracle
(skip/repair) — no hangs, no silent wrong answers, and peak buffered
events never exceed the configured ceiling.

The trial budget scales with the ``SOAK_TRIALS`` environment variable
(default keeps the suite fast; CI's soak job raises it to 200).
"""

import os
import random

import pytest

from repro import ResourceLimits, SpexEngine, StreamError
from repro.baselines import DomEvaluator
from repro.core.multiquery import MultiQueryEngine
from repro.errors import ResourceLimitError
from repro.rpeq.parser import parse
from repro.xmlstream import (
    ErrorReport,
    FAULT_KINDS,
    FaultInjector,
    events_from_tags,
    is_well_formed,
    recovering,
    split_documents,
)

from ..conftest import make_random_events
from .doors import as_file

TRIALS = int(os.environ.get("SOAK_TRIALS", "30"))

#: Queries covering the paper's classes: plain paths, closures,
#: qualifiers (future conditions force buffering), nested closures.
QUERIES = [
    "_*.a",
    "a.b",
    "_*.a[b].c",
    "_*.a[_*.b]",
    "a*.c",
    "_*._[c]",
]


def oracle_positions(expr, doc_events):
    """DOM-oracle result positions for one well-formed document."""
    return [n.position for n in DomEvaluator(expr).evaluate(iter(doc_events))]


def make_documents(rng, count=3):
    return [
        make_random_events(rng, max_children=3, max_depth=4) for _ in range(count)
    ]


def corrupted_stream(trial):
    """One seeded corruption scenario: (stream, fault, documents, victim)."""
    rng = random.Random(10_000 + trial)
    documents = make_documents(rng)
    victim = rng.randrange(len(documents))
    kind = FAULT_KINDS[trial % len(FAULT_KINDS)]
    injector = FaultInjector(seed=trial)
    stream, fault = injector.corrupt_document(documents, victim, kind)
    return stream, fault, documents, victim


def stream_is_valid(events):
    """Multi-document well-formedness (strict recovery accepts it)."""
    try:
        for _ in recovering(iter(events), "strict"):
            pass
    except StreamError:
        return False
    return True


class TestStrictPolicy:
    def test_raises_or_agrees_with_oracle(self):
        for trial in range(TRIALS):
            rng = random.Random(20_000 + trial)
            [document] = make_documents(rng, count=1)
            kind = FAULT_KINDS[trial % len(FAULT_KINDS)]
            corrupted, fault = FaultInjector(seed=trial).corrupt(document, kind)
            expr = parse(QUERIES[trial % len(QUERIES)])
            engine = SpexEngine(expr, collect_events=False)
            if is_well_formed(iter(corrupted)):
                # The corruption happened to preserve well-formedness
                # (e.g. a dropped text event): results must stay exact.
                got = engine.positions(iter(corrupted))
                assert got == oracle_positions(expr, corrupted), (trial, fault)
            else:
                with pytest.raises(StreamError):
                    list(engine.run(as_file(corrupted)))


class TestSkipPolicy:
    def test_surviving_documents_match_oracle(self):
        for trial in range(TRIALS):
            stream, fault, documents, victim = corrupted_stream(trial)
            expr = parse(QUERIES[trial % len(QUERIES)])

            # The recovery layer defines which documents survive; the
            # engine must produce exactly the oracle's answers on them.
            survivors = [
                list(doc)
                for doc in split_documents(recovering(as_file(stream), "skip"))
            ]
            expected = [
                p for doc in survivors for p in oracle_positions(expr, doc)
            ]

            report = ErrorReport()
            engine = SpexEngine(expr, collect_events=False)
            got = [
                m.position
                for m in engine.run(as_file(stream), on_error="skip", report=report)
            ]
            assert got == expected, (trial, fault)

            # Documents before the victim are untouched: they must all
            # survive, verbatim, at the front.
            assert survivors[:victim] == documents[:victim], (trial, fault)

    def test_clean_streams_are_never_degraded(self):
        for trial in range(min(TRIALS, 10)):
            rng = random.Random(30_000 + trial)
            documents = make_documents(rng)
            stream = [event for doc in documents for event in doc]
            expr = parse(QUERIES[trial % len(QUERIES)])
            report = ErrorReport()
            engine = SpexEngine(expr, collect_events=False)
            got = [
                m.position
                for m in engine.run(iter(stream), on_error="skip", report=report)
            ]
            expected = [
                p for doc in documents for p in oracle_positions(expr, doc)
            ]
            assert got == expected
            assert report.ok


class TestRepairPolicy:
    def test_repaired_documents_match_oracle(self):
        for trial in range(TRIALS):
            stream, fault, _documents, _victim = corrupted_stream(trial)
            expr = parse(QUERIES[trial % len(QUERIES)])

            repaired_docs = [
                list(doc)
                for doc in split_documents(recovering(as_file(stream), "repair"))
            ]
            # Repair must never emit an invalid document.
            for doc in repaired_docs:
                assert is_well_formed(iter(doc)), (trial, fault)
            expected = [
                p
                for doc in repaired_docs
                for p in oracle_positions(expr, doc)
            ]

            report = ErrorReport()
            engine = SpexEngine(expr, collect_events=False)
            got = [
                m.position
                for m in engine.run(as_file(stream), on_error="repair", report=report)
            ]
            assert got == expected, (trial, fault)


class TestBufferCeiling:
    LIMIT = 16

    def test_peak_buffered_never_exceeds_limit(self):
        limits = ResourceLimits(
            max_buffered_events=self.LIMIT, on_buffer_overflow="drop_oldest"
        )
        for trial in range(TRIALS):
            stream, fault, _documents, _victim = corrupted_stream(trial)
            expr = parse(QUERIES[trial % len(QUERIES)])
            engine = SpexEngine(expr, limits=limits)
            list(engine.run(as_file(stream), on_error="repair"))
            peak = engine.stats.output.peak_buffered_events
            assert peak <= self.LIMIT, (trial, fault, peak)

    def test_strict_limit_raises_not_hangs(self):
        limits = ResourceLimits(max_buffered_events=4)
        doc = events_from_tags(
            ["<$>"] + ["<a>"] * 1 + ["<x>", "</x>"] * 50 + ["<b>", "</b>", "</a>", "</$>"]
        )
        engine = SpexEngine("_*.a[b]", limits=limits)
        with pytest.raises(ResourceLimitError):
            list(engine.run(doc))


class TestMultiQuerySoak:
    def test_filter_documents_survives_corruption(self):
        queries = {q: q for q in QUERIES[:4]}
        for trial in range(min(TRIALS, 15)):
            stream, fault, _documents, _victim = corrupted_stream(trial)
            survivors = [
                list(doc)
                for doc in split_documents(recovering(as_file(stream), "skip"))
            ]
            expected = {
                qid: any(
                    bool(oracle_positions(parse(q), doc)) for doc in survivors
                )
                for qid, q in queries.items()
            }
            engine = MultiQueryEngine(queries)
            report = ErrorReport()
            verdicts = engine.filter_documents(
                as_file(stream), on_error="skip", report=report
            )
            assert verdicts == expected, (trial, fault)
