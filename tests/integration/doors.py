"""The doors of the one per-event loop, and what each must deliver.

Not a test module (pytest does not collect it): ``test_doors.py`` drives
what is here, which is one of each thing a differential suite needs:

* a corpus, :data:`CORPUS`, that runs every execution lane;
* a stream generator, ``make_random_events`` of ``tests/conftest.py``,
  its documents concatenated (:func:`stream`, :func:`corrupted`);
* a cut helper, :func:`interrupted`: run to a cut, checkpoint, save and
  load the file (:func:`through_a_file`), resume;
* a reference, :class:`Reference`: the ``(event index, query, position,
  label)`` stream of the literal network (``optimize=NO_OPTIMIZATIONS``),
  itself held to :class:`~repro.baselines.DomEvaluator` document by
  document (:attr:`Reference.per_document`);
* a door table, :data:`DOORS`: every way into
  :class:`~repro.core.multiquery.ServePump`'s loop, each with the view
  of the reference it must reproduce;
* for recovery, a second reference, :func:`recovered` (standalone
  ``recovering``, split at each ``</$>``, each document run alone by a
  fresh literal network), and the recovering doors, :data:`RECOVERING`,
  whose ``run`` and ``serve`` door, :func:`recovering_pass`, also sits in
  :data:`DOORS` (``run-skip``, ``run-repair``, ``serve-skip``).

A door is ``door(events, flags, limits, cut)`` and returns
``(output, refusal, *extras)``: ``refusal`` is ``(event index, error
name, message)`` of the error that ended the pass, or ``None``; the
extras (serving outcomes, recovery records) are what a door has beyond
the reference, which the limit sweep compares between knob settings.
"""

from __future__ import annotations

import asyncio
import os
import random
import tempfile
from collections import defaultdict
from functools import cached_property

from repro import Checkpoint, SpexEngine, StreamCursor
from repro.baselines import DomEvaluator
from repro.core.multiquery import MultiQueryEngine
from repro.core.optimize import ALL_OPTIMIZATIONS, NO_OPTIMIZATIONS
from repro.core.shards import ShardConfig, serve_sharded
from repro.errors import ResourceLimitError, StreamError
from repro.rpeq.parser import parse
from repro.service.client import ProducerClient, SubscriberClient
from repro.service.server import ServiceConfig, SpexService
from repro.xmlstream import FaultInjector, checked, recovering
from repro.xmlstream.events import EndDocument, StartDocument, StartElement
from repro.xmlstream.recovery import ErrorReport

from ..conftest import make_random_events

#: Every lane, named by its prefix (``axis`` queries run on the network:
#: the gate automaton covers core rpeq only), and a query that never
#: matches, so that ``filter_documents`` reads on to the end or a fault.
CORPUS = {
    "dfa-plain": "a.b.c",
    "dfa-closure": "_*.c",
    "dfa-union": "a._.c|a.b",
    "dfa-never": "zz.zz",
    "hybrid-trailing": "_*.a[c]",
    "hybrid-path-cond": "_*.b[c.a]",
    "gated-inner": "a[b.c].(b|c)",
    "network": "_*._[c]",
    "axis-following": "a.following::b",
    "axis-preceding": "_*.c[preceding::a]",
}
#: the lane each query executes on under default flags
LANES = {q: "network" if q.startswith("axis") else q.split("-")[0] for q in CORPUS}
#: the query whose matches reach into the next document: a pass keeps its
#: networks across ``</$>``, and what follows an ``a`` is the rest of the
#: stream (ROADMAP item 8)
CROSSING = "axis-following"

#: trials of the fault sweep (the limit sweep runs a quarter, rounded
#: up); CI's soak job raises it
TRIALS = int(os.environ.get("SOAK_TRIALS", "30"))
STRUCTURAL_FAULTS = (
    "truncate", "drop_tag", "duplicate_tag", "swap_tags", "interleave_garbage"
)


def stream(seed, depths=(5, 5, 5), max_children=4):
    """Generated documents, one per entry of ``depths``, back to back."""
    rng = random.Random(seed)
    return [e for depth in depths for e in make_random_events(rng, max_children, depth)]


def corrupted(kind, trial):
    """Three documents, one of them corrupted by a ``kind`` fault."""
    rng = random.Random(70_000 + trial)
    documents = [make_random_events(rng, max_children=3, max_depth=4) for _ in range(3)]
    victim = rng.randrange(len(documents))
    return FaultInjector(seed=trial).corrupt_document(documents, victim, kind)


def through_a_file(checkpoint):
    """The crash: only the checkpoint *file* survives it."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "checkpoint.json")
        checkpoint.save(path)
        return Checkpoint.load(path)


def refusal(index, exc):
    return index, type(exc).__name__, str(exc)


def pulled(run, events, counted=None):
    """What ``run(source)`` yields, each item with the index of the event
    drawn last (a door yields an event's output before it draws the
    next), and its refusal.  Given ``counted``, how many events the pass
    has taken in, it also checks that the loop never reads ahead: event
    ``n`` is drawn when ``n`` are counted."""
    items, drawn = [], [-1]

    def source():
        for drawn[0], event in enumerate(events):
            assert counted is None or counted() == drawn[0], "read ahead"
            yield event

    try:
        for item in run(source()):
            items.append((drawn[0], item))
    except (StreamError, ResourceLimitError) as exc:
        return items, refusal(drawn[0], exc)
    return items, None


def matches(items):
    return [(index, q, m.position, m.label) for index, (q, m) in items]


def pushed(pump, events, start=0):
    """``start_pump().feed`` over ``events``: ``(rows, refusal)``."""
    rows = []
    for index, event in enumerate(events, start):
        try:
            out = pump.feed(event)
        except (StreamError, ResourceLimitError) as exc:
            return rows, refusal(index, exc)
        rows += [(index, q, m.position, m.label) for q, m in out]
    return rows, None


def outcomes(serving):
    return {
        q: (o.status, o.code, o.degraded, o.trips, o.readmissions, o.matches)
        for q, o in serving.outcomes.items()
    }


def interrupted(engine, events, cut, pairs=iter):
    """``engine.run`` over ``events``; with a ``cut``, a crash after that
    many events, and a fresh engine from the file resumed over the
    whole of ``events`` (it skips what the cut had read)."""
    cursor = StreamCursor()
    items, refused = pulled(
        lambda s: pairs(engine.run(s, cursor=cursor)),
        events[:cut],
        lambda: cursor.events_read,
    )
    if cut is not None and refused is None:
        checkpoint = through_a_file(engine.checkpoint())
        fresh = type(engine).from_checkpoint(checkpoint, limits=engine.limits)
        tail, refused = pulled(lambda s: pairs(fresh.resume(checkpoint, s)), events)
        items += tail
        if isinstance(engine, MultiQueryEngine):
            assert fresh.lane_executions == engine.lane_executions
    return matches(items), refused


# ----------------------------------------------------------------------
# the reference


class Reference:
    """The literal network's pass over ``events``."""

    def __init__(self, events):
        self.events = events
        self.rows, self.refused = door_run(events, NO_OPTIMIZATIONS)

    @cached_property
    def documents(self):
        """``(first, last)`` event index of each document completed before
        the refusal, and the start tags before it."""
        end = len(self.events) if self.refused is None else self.refused[0]
        spans, seen = [], 0
        for index, event in enumerate(self.events[:end]):
            if event.__class__ is StartDocument:
                first, before_it = index, seen
            seen += event.__class__ is StartElement
            if event.__class__ is EndDocument:
                spans.append((first, index, before_it))
        return spans

    @cached_property
    def per_document(self):
        """Per completed document, ``{query: [(position, label)]}`` as
        :class:`DomEvaluator` selects it, in stream positions."""
        doms = {q: DomEvaluator(parse(text)) for q, text in CORPUS.items()}
        answers = []
        for first, last, before in self.documents:
            document = self.events[first : last + 1]
            answers.append({
                q: [(n.position + before, n.label) for n in dom.evaluate(document)]
                for q, dom in doms.items()
            })  # fmt: skip
        return answers

    @cached_property
    def within(self):
        """The ``(query, position)`` pairs a pass that starts afresh at
        every ``<$>`` selects."""
        return {
            (q, p)
            for answer in self.per_document
            for q, hits in answer.items()
            for p, _ in hits
        }


# views: what a door must reproduce of the reference


def indexed(ref):
    return ref.rows, ref.refused


def ordered(ref):
    return [row[1:] for row in ref.rows], ref.refused


def per_query(ref):
    hits = {q: [] for q in CORPUS}
    for _, q, p, label in ref.rows:
        hits[q].append((p, label))
    return hits, ref.refused


def served(ref):
    """A clean serving pass: the rows, and every query ``ok``."""
    counts = {q: sum(row[1] == q for row in ref.rows) for q in CORPUS}
    ok = {q: ("ok", None, False, 0, 0, n) for q, n in counts.items()}
    return ref.rows, ref.refused, ok


def within_documents(ref):
    """``on_error="skip"``/``"repair"`` starts every document afresh: per
    document that selects some, the rows a pass over it alone selects
    (positions restart at its ``<$>``), delivered together at its
    ``</$>``; nothing refused, nothing recorded."""
    delivered = [[] for _ in ref.documents]
    for index, q, p, label in ref.rows:
        if (q, p) in ref.within:
            for number, (first, last, before) in enumerate(ref.documents):
                if first <= index <= last:
                    delivered[number].append((q, p - before, label))
    clean = ([], len(ref.documents), 0, 0, 0, 0)
    return [rows for rows in delivered if rows], None, clean


def verdict(ref):
    if ref.refused:
        return None, ref.refused
    return {q: any(row[1] == q for row in ref.rows) for q in CORPUS}, None


def verdicts(ref):
    answers = ref.per_document
    return [{q: bool(hits) for q, hits in a.items()} for a in answers], ref.refused


def refused_only(ref):
    return [], ref.refused, ref.refused and ref.refused[0]


# ----------------------------------------------------------------------
# the doors


def engine(flags, limits):
    """The doors' engine.  Pre-flight analysis is off: it vets queries
    before a pass and changes nothing in one, and it is most of what a
    short stream costs."""
    return MultiQueryEngine(CORPUS, optimize=flags, limits=limits, preflight=False)


def door_run(events, flags=ALL_OPTIMIZATIONS, limits=None, cut=None):
    return interrupted(engine(flags, limits), events, None)


def door_resume(events, flags=ALL_OPTIMIZATIONS, limits=None, cut=None):
    cut = len(events) // 2 if cut is None else cut
    return interrupted(engine(flags, limits), events, cut)


def door_serve(events, flags=ALL_OPTIMIZATIONS, limits=None, cut=None):
    served_by = engine(flags, limits)
    cursor = StreamCursor()
    items, refused = pulled(
        lambda s: served_by.serve(s, cursor=cursor), events, lambda: cursor.events_read
    )
    return matches(items), refused, outcomes(served_by.serving)


def door_pump(events, flags=ALL_OPTIMIZATIONS, limits=None, cut=None):
    pump = engine(flags, limits).start_pump()
    return (*pushed(pump, events), outcomes(pump.serving))


def door_resume_pump(events, flags=ALL_OPTIMIZATIONS, limits=None, cut=None):
    cut = len(events) // 2 if cut is None else cut
    first = engine(flags, limits)
    pump = first.start_pump(cursor=StreamCursor())
    head, refused = pushed(pump, events[:cut])
    if refused is None:
        checkpoint = through_a_file(first.checkpoint())
        fresh = MultiQueryEngine.from_checkpoint(checkpoint, limits=limits)
        pump = fresh.resume_pump(checkpoint)
        tail, refused = pushed(pump, events[cut:], start=cut)
        head += tail
        assert fresh.lane_executions == first.lane_executions
    return head, refused, outcomes(pump.serving)


def door_filter_documents(events, flags=ALL_OPTIMIZATIONS, limits=None, cut=None):
    filtering = engine(flags, limits)
    items, refused = pulled(lambda s: [filtering.filter_documents(s)], events)
    return (items[0][1] if items else None), refused


def door_filter_stream(events, flags=ALL_OPTIMIZATIONS, limits=None, cut=None):
    items, refused = pulled(engine(flags, limits).filter_stream, events)
    return [item for _, item in items], refused


def door_spex(events, flags=ALL_OPTIMIZATIONS, limits=None, cut=None):
    """One ``SpexEngine`` per query, merged in event order — registration
    order within an event.  Given a ``cut``, one of them resumes there:
    the ``cut % len(CORPUS)``-th, so that varying cuts rotate the crash
    through the lanes."""
    rows, refusals = [], set()
    for number, (q, text) in enumerate(CORPUS.items()):
        spex = SpexEngine(
            text, collect_events=False, optimize=flags, limits=limits, preflight=False
        )
        own_cut = cut if cut is not None and cut % len(CORPUS) == number else None
        own, refused = interrupted(
            spex, events, own_cut, lambda it, q=q: ((q, m) for m in it)
        )
        rows += own
        refusals.add(refused)
    rows.sort(key=lambda row: row[0])
    return rows, refusals.pop() if len(refusals) == 1 else refusals


def door_validators(events, flags=None, limits=None, cut=None):
    """The checks without an engine: ``recovering`` in strict mode, and
    ``checked`` once per ``<$>``, as the service applies it (between
    documents its message is its own, so only its event is compared)."""

    def per_document(source):
        def one_document(first):
            yield first
            for event in source if first.__class__ is not EndDocument else ():
                yield event
                if event.__class__ is EndDocument:
                    return

        for first in source:
            yield from checked(one_document(first), require_end=False)

    _, refused = pulled(lambda s: recovering(s, "strict", require_end=False), events)
    _, by_document = pulled(per_document, events)
    return [], refused, by_document and by_document[0]


def door_sharded(events, flags=None, limits=None, cut=None):
    result = serve_sharded(CORPUS, iter(events), ShardConfig(shards=2))
    assert result.healthy, result.summary()
    return {q: [(m.position, m.label) for m in result.matches[q]] for q in CORPUS}, None


def door_service(events, flags=None, limits=None, cut=None):
    """The TCP service in process: one producer, one subscriber that
    holds every query, drained once the producer is done."""

    async def scenario():
        config = ServiceConfig(tick=0.005, heartbeat_interval=None, drain_grace=2.0)
        service = SpexService(config)
        host, port = await service.start()
        subscriber = await SubscriberClient.connect(host, port)
        for q, text in CORPUS.items():
            assert (await subscriber.subscribe(q, text))["status"] == "admit"
        producer = await ProducerClient.connect(host, port)
        await producer.send_events(events)
        await producer.close()
        frames = asyncio.create_task(collect(subscriber))
        await service.stop()
        assert not service.degraded
        try:
            return await frames
        finally:
            await subscriber.close()

    async def collect(subscriber):
        return [frame async for frame in subscriber.frames()]

    frames = asyncio.run(asyncio.wait_for(scenario(), 30))
    assert frames[-1]["type"] == "bye"
    rows = [
        (f["query_id"], f["match"]["position"], f["match"]["label"])
        for f in frames
        if f["type"] == "match"
    ]
    return rows, None


def taken_in(recovering_engine, report):
    """How many events of the source a recovering pass has taken in: its
    pump's cursor counts them (refused and discarded ones too) and the
    events the repair rule added."""
    return recovering_engine._pump.cursor.events_read - report.events_repaired


def summary(report):
    """An :class:`ErrorReport`'s records and counters."""
    return (
        [(r.document, r.message, r.action) for r in report.records],
        report.documents_seen,
        report.documents_skipped,
        report.events_repaired,
        report.events_dropped,
        report.limit_hits,
    )


def recovering_pass(method):
    """``run``/``serve`` under a policy: the pairs of each event that
    delivered some (one surviving document's, all at once).  The one
    door of both tables: :data:`RECOVERING` calls it, and :data:`DOORS`
    through :func:`under`."""

    def door(events, policy, flags=ALL_OPTIMIZATIONS, limits=None):
        report = ErrorReport()
        passing = engine(flags, limits)
        items, refused = pulled(
            lambda s: getattr(passing, method)(s, on_error=policy, report=report),
            events,
            lambda: taken_in(passing, report),
        )
        assert refused is None
        delivered = defaultdict(list)
        for index, (q, m) in items:
            delivered[index].append((q, m.position, m.label))
        return list(delivered.values()), summary(report)

    return door


def under(policy, door):
    """A recovering door as a row of :data:`DOORS`: what it delivers at
    each ``</$>``, no refusal, and its report."""

    def row(events, flags=ALL_OPTIMIZATIONS, limits=None, cut=None):
        delivered, report = door(events, policy, flags, limits)
        return delivered, None, report

    return row


#: name -> (door, view of the reference it must reproduce)
DOORS = {
    "run": (door_run, indexed),
    "run-skip": (under("skip", recovering_pass("run")), within_documents),
    "run-repair": (under("repair", recovering_pass("run")), within_documents),
    "serve": (door_serve, served),
    "serve-skip": (under("skip", recovering_pass("serve")), within_documents),
    "pump": (door_pump, served),
    "filter_documents": (door_filter_documents, verdict),
    "filter_stream": (door_filter_stream, verdicts),
    "resume": (door_resume, indexed),
    "resume_pump": (door_resume_pump, served),
    "spex": (door_spex, indexed),
    "validators": (door_validators, refused_only),
    "sharded": (door_sharded, per_query),
    "service": (door_service, ordered),
}
#: the doors that take no knobs: they run once, on the default engine
UNKNOBBED = ("validators", "sharded", "service")
#: the doors that refuse a malformed stream (the others recover from it,
#: and ``resume_pump`` is the machine's, which feeds it faults itself)
STRICT = (
    "run", "serve", "pump", "filter_documents", "filter_stream", "resume", "spex",
    "validators",
)  # fmt: skip


# ----------------------------------------------------------------------
# the recovering doors and their reference


def split(events):
    """A stream's documents, each a list, as its ``</$>`` arrives; what
    the stream ends inside of is left out."""
    document = []
    for event in events:
        document.append(event)
        if event.__class__ is EndDocument:
            yield document
            document = []


def recovered(events, policy, require_end, limits=None):
    """What a recovering pass must deliver: the documents of standalone
    ``recovering``, each run alone by a fresh strict literal network as
    soon as it completes.  Returns the rows ``(query, position, label)``
    of each surviving document and the report's :func:`summary`; a
    document that trips a limit files a ``"limit"`` record instead."""
    report = ErrorReport()
    documents = []
    for document in split(recovering(iter(events), policy, report, require_end)):
        alone = engine(NO_OPTIMIZATIONS, limits)
        try:
            documents.append([(q, m.position, m.label) for q, m in alone.run(document)])
        except ResourceLimitError as exc:
            report.add(report.documents_seen - 1, str(exc), "limit")
    return documents, summary(report)


class Dying:
    """A source that raises :class:`StreamError` after ``at`` events, as
    the parser does on a truncated file."""

    def __init__(self, events, at):
        self.events, self.at = events, at

    def __iter__(self):
        yield from self.events[: self.at]
        raise StreamError("connection reset")


def recovering_spex(events, policy, flags=ALL_OPTIMIZATIONS, limits=None):
    """One ``SpexEngine`` per query, each with its own report."""
    hits, reports = {}, []
    for q, text in CORPUS.items():
        report = ErrorReport()
        spex = SpexEngine(
            text, collect_events=False, optimize=flags, limits=limits, preflight=False
        )
        items, refused = pulled(
            lambda s: spex.run(s, on_error=policy, report=report),
            events,
            lambda: taken_in(spex._engine, report),
        )
        assert refused is None
        hits[q] = [(m.position, m.label) for _, m in items]
        reports.append(summary(report))
    assert all(report == reports[0] for report in reports), reports
    return hits, reports[0]


def recovering_filter(method):
    """``filter_documents``/``filter_stream`` under a policy."""

    def door(events, policy, flags=ALL_OPTIMIZATIONS, limits=None):
        report = ErrorReport()
        filtering = engine(flags, limits)

        def run(source):
            verdicts = getattr(filtering, method)(source, on_error=policy, report=report)
            return [verdicts] if isinstance(verdicts, dict) else verdicts

        items, refused = pulled(run, events, lambda: taken_in(filtering, report))
        assert refused is None
        verdicts = [verdict for _, verdict in items]
        return (verdicts[0] if method == "filter_documents" else verdicts), summary(report)

    return door


def hit_lists(documents):
    return [rows for rows in documents if rows]


def hits_per_query(documents):
    rows = [row for document in documents for row in document]
    return {q: [(p, label) for query, p, label in rows if query == q] for q in CORPUS}


def any_hit(documents):
    return {q: any(row[0] == q for rows in documents for row in rows) for q in CORPUS}


def hits_per_document(documents):
    return [{q: any(row[0] == q for row in rows) for q in CORPUS} for rows in documents]


#: name -> (door under a policy, its ``require_end``, view of the
#: recovered reference it must reproduce)
RECOVERING = {
    "run": (recovering_pass("run"), True, hit_lists),
    "serve": (recovering_pass("serve"), False, hit_lists),
    "spex": (recovering_spex, False, hits_per_query),
    "filter_documents": (recovering_filter("filter_documents"), True, any_hit),
    "filter_stream": (recovering_filter("filter_stream"), False, hits_per_document),
}
