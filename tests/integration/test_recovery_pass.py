"""The pass of a recovery policy: one pass, inside the d·σ bound.

``on_error="skip"`` and ``"repair"`` run through the pump's one loop on
runners compiled once; ``test_doors.py`` holds every recovering door to
standalone ``recovering``.  Here:

* which runners end a clean ``</$>`` as they were compiled, so that the
  pass leaves them alone at the next ``<$>`` — and which it restores;
* a recovering pass holds a document's matches, not its events: over one
  long document its traced peak stays within twice a strict pass's
  (buffering the document whole peaked at 37× strict's under skip and
  19× under repair, on 160,002 events);
* it reads an endless stream one document at a time;
* ``filter_stream`` reads the rest of a document whose verdicts are all
  in by the cursor alone, as its strict pass did before it ran on the
  one loop, and starts the next document afresh;
* every policy reads the raw stream under the pump's one cursor, and a
  ``<$>`` that repair meets inside a document closes that document.
"""

from __future__ import annotations

import tracemalloc
from itertools import islice

import pytest

from repro import StreamCursor
from repro.core import multiquery
from repro.core.multiquery import MultiQueryEngine
from repro.core.optimize import NO_OPTIMIZATIONS, all_knob_combinations
from repro.workloads import random_tree
from repro.xmlstream import EndDocument, ErrorReport
from repro.xmlstream.parser import iter_documents, parse_string

from .doors import CORPUS, CROSSING, STRUCTURAL_FAULTS, corrupted, stream

#: snapshot keys that count what a runner did — instrumentation, event
#: and variable counters — and feed no answer
COUNTERS = {
    "stats",
    "events",
    "output_stats",
    "fed_events",
    "parked_events",
    "allocator",
    "gidx",
    "log_start",
    "peak_live_variables",
    "total_variables",
    "total_contributions",
}
ELEMENT_COUNT = ("nodes", "OU", "extra", "element_count")
#: what, besides counters, a runner may hold at a clean ``</$>`` that its
#: compile did not give it, per lane: the core-driven lanes nothing; a
#: gated runner its sink's element count, which ``skip_to`` sets before
#: every start tag it feeds; a plain network its sink's element count,
#: which numbers positions from its compile, and the ``following::``
#: state that looks into the next document — so only the plain networks
#: are restored at the next ``<$>``
ENDS_AS_COMPILED = {
    "dfa": set(),
    "hybrid": set(),
    "gated": {("network", *ELEMENT_COUNT)},
    "network": {ELEMENT_COUNT, ("nodes", "FO(b)", "extra")},
}


def differences(compiled, after, path=()):
    """The paths where two snapshots differ, counters aside."""
    if isinstance(compiled, dict) and isinstance(after, dict):
        return {
            difference
            for key in compiled.keys() | after.keys()
            if key not in COUNTERS
            for difference in differences(compiled.get(key), after.get(key), (*path, key))
        }
    return set() if compiled == after else {path}


@pytest.mark.parametrize("flags", all_knob_combinations(), ids=lambda f: f.describe())
def test_which_runners_end_a_clean_document_as_compiled(flags):
    engine = MultiQueryEngine(CORPUS, optimize=flags, preflight=False)
    pump = engine.start_pump(cursor=StreamCursor())
    compiled = {q: runner.snapshot() for q, runner in pump._live.items()}
    seen = {q: set() for q in CORPUS}
    for event in stream(0xC0FFEE):
        pump.feed(event)
        if event.__class__ is EndDocument:
            for q, runner in pump._live.items():
                found = differences(compiled[q], runner.snapshot())
                assert found <= ENDS_AS_COMPILED[engine.lane_executions[q]], q
                seen[q] |= found
    for q, lane in engine.lane_executions.items():
        if lane == "network":
            # positions: every plain network needs its restore
            assert ELEMENT_COUNT in seen[q], q
    if engine.lane_executions[CROSSING] == "network":
        assert ("nodes", "FO(b)", "extra") in seen[CROSSING]


#: queries that never match: what a pass holds is its own state only
NEVER = {"never": "_*.zz", "never-qualified": "_*.a[zz].c"}


def traced_peak(policy):
    """Traced peak of one pass over a 40,002-event document."""
    engine = MultiQueryEngine(NEVER)
    tracemalloc.start()
    try:
        matches = list(engine.run(random_tree(7, elements=20_000), on_error=policy))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matches == []
    return peak


@pytest.mark.parametrize("policy", ["skip", "repair"])
def test_recovery_stays_inside_the_bound(policy):
    assert traced_peak(policy) <= 2 * traced_peak("strict")


@pytest.mark.parametrize("policy", ["skip", "repair"])
def test_an_endless_stream_delivers_document_by_document(policy):
    document = list(parse_string("<a><b/><c/></a>"))

    def endless():
        while True:
            yield from document

    engine = MultiQueryEngine({"b": "_*.b"})
    pairs = engine.run(endless(), on_error=policy)
    assert [(q, m.position) for q, m in islice(pairs, 3)] == [("b", 2)] * 3


class Counting:
    """A runner that counts the events it is fed."""

    def __init__(self, runner, fed):
        self._runner, self._fed = runner, fed

    def __getattr__(self, name):
        return getattr(self._runner, name)

    def process_event(self, event):
        self._fed.append(event)
        return self._runner.process_event(event)


@pytest.mark.parametrize("policy", ["strict", "skip", "repair"])
def test_a_decided_document_is_read_on_by_the_cursor_alone(policy):
    documents = ["<r><a/><b/>" + "<x/>" * 50 + "</r>", "<r><x/><b/></r>"]
    engine = MultiQueryEngine({"a": "_*.a", "b": "_*.b"}, optimize=NO_OPTIMIZATIONS)
    fed = []
    compile_one = engine._compile_one
    engine._compile_one = lambda *args, **kwargs: Counting(compile_one(*args, **kwargs), fed)
    verdicts = list(engine.filter_stream(iter_documents(documents), on_error=policy))
    assert verdicts == [{"a": True, "b": True}, {"a": False, "b": True}]
    # the two networks see the first document up to its <b/>, not its 50 <x/>
    assert len(fed) < 2 * (2 + 2 * 4) + 2 * 8


@pytest.mark.parametrize("policy", ["skip", "repair"])
@pytest.mark.parametrize("kind", STRUCTURAL_FAULTS)
def test_a_recovering_pass_checks_with_one_cursor(kind, policy, monkeypatch):
    events = corrupted(kind, 3)[0]
    engine = MultiQueryEngine(CORPUS, preflight=False)
    created = []
    init = StreamCursor.__init__

    def counting(self):
        created.append(self)
        init(self)

    monkeypatch.setattr(StreamCursor, "__init__", counting)
    list(engine.run(events, on_error=policy))
    assert created == [engine._pump.cursor]
    assert not hasattr(multiquery, "recovering")


def test_repair_does_not_merge_a_cut_file_into_the_next():
    report = ErrorReport()
    engine = MultiQueryEngine({"q": "_*.a.b"})
    source = iter_documents(["<r><a>", "<b/>"], report=report)
    assert list(engine.run(source, on_error="repair", report=report)) == []
    assert report.documents_seen == 2
    assert [r.action for r in report.records] == ["parse_error", "repaired"]
