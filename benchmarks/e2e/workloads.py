"""The six workloads: what each feeds the system, and seeded input generation.

Every workload starts from what a user hands the system — XML bytes on
disk, or documents pushed as producer frames over TCP — and ends at
delivered matches.  Inputs are generated from ``--seed`` before anything
is timed; the program under test only ever sees the generated files.

Each subscription pins the lane it must *execute* on
(``MultiQueryEngine.lane_executions``).  A mismatch means the workload no
longer measures what its ``why`` says, which is a benchmark error, not a
failed operation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterator

from repro.workloads import random_tree, treebank, xmark
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
)
from repro.xmlstream.serializer import write_events

#: Root label of every generated multi-document-stream document, and the
#: query that matches it exactly once per document, at its end tag — the
#: last match a document produces.  ``random_tree`` draws labels from
#: ``a``..``e`` only, so nothing inside a document can match it.
SENTINEL = "doc"

#: Reduction applied to every input for the untimed oracle check.
ORACLE_DIVISOR = 16

#: Fixed rates of the traced pass's rate ladder, in documents/s; the
#: first is ``service-paced``'s own rate.
RATE_LADDER = (25, 40, 60, 90, 135)

#: Latency limit of the service: a rung of the rate ladder whose p90
#: delivery exceeds it is not sustainable.
LATENCY_LIMIT_MS = 250.0

#: On the open-loop workload a match delivered later than this is a
#: failed operation.  Wider than the latency limit on purpose: the
#: reference box stalls for 170-180 ms now and then, with or without a
#: WAL, and a failed operation has to mean the service lost time, not
#: the hypervisor.
DELIVERY_DEADLINE_MS = 1000.0

#: An open-loop frame sent later than this after it was due is a failed
#: operation: the generator, not the service, fell behind.
LATE_FRAME_LIMIT_S = 1.0


@dataclass(frozen=True)
class Subscription:
    id: str
    query: str
    #: lane the engine executes the query on when fragments are not
    #: collected (``dfa``, ``hybrid``, ``gated`` = network behind the DFA
    #: prefix gate, ``network``); collecting forces every query onto
    #: ``network``
    lane: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``filter``: one document through ``MultiQueryEngine.run``;
    #: ``sharded``: a document stream through ``ShardCoordinator.run``;
    #: ``service``: the same stream through ``spex serve --listen``
    kind: str
    #: input generator: ``xmark`` / ``treebank`` (one document of ``size``
    #: items / sentences) or ``docs`` (``size`` documents of 400 elements)
    source: str
    size: int
    subscriptions: tuple[Subscription, ...]
    collect_events: bool = False
    #: service only — ``None`` is the closed loop; a number is the open
    #: loop's fixed rate in documents/s, served with a WAL and a durable
    #: subscriber
    rate: float | None = None

    @property
    def queries(self) -> dict[str, str]:
        return {sub.id: sub.query for sub in self.subscriptions}

    @property
    def executed_lanes(self) -> dict[str, str]:
        return {
            sub.id: "network" if self.collect_events else sub.lane
            for sub in self.subscriptions
        }


def _subs(lane: str, prefix: str, queries: list[str]) -> list[Subscription]:
    return [
        Subscription(f"{prefix}{index}", query, lane)
        for index, query in enumerate(queries, 1)
    ]


_FASTLANE = tuple(
    _subs("dfa", "d", [
        "_*.item.name",
        "site.regions._.item.location",
        "_*.person.emailaddress",
        "_*.open_auction.bidder.increase",
        "_*.mailbox.mail.from",
        "site.people.person.watches.watch",
        "_*.closed_auction.price",
        "site.regions.europe.item.payment",
    ])
    + _subs("dfa", "dn", [  # never match
        "_*.item.price",
        "site.people.item",
        "_*.bidder.name",
        "_*.regions.person",
        "_*.auction.date",
        "site.open_auctions.closed_auction",
        "_*.mail.subject",
        "_*.watch.watch",
    ])
    + _subs("hybrid", "h", [
        "_*.item[mailbox]",
        "_*.person[watches]",
        "_*.open_auction[bidder]",
        "site.regions._.item[payment]",
        "_*.mailbox.mail[from]",
        "_*.item[description]",
        "_*.open_auction[bidder.increase]",
        "_*.person[watches.watch]",
    ])
    + _subs("hybrid", "hn", [  # never match
        "_*.item[price]",
        "_*.person[bidder]",
        "_*.closed_auction[bidder]",
        "_*.mail[subject]",
        "site.people.person[mailbox]",
        "_*.open_auction[watches]",
        "_*.bidder[name]",
        "_*.item[itemref]",
    ])
)

_NETWORK = (
    Subscription("midpath", "_*.item[mailbox].name", "gated"),
    Subscription("nested", "_*.item[mailbox[mail[from]]].name", "gated"),
    Subscription("anybidder", "_*[bidder].current", "network"),
    Subscription("anymailbox", "_*[mailbox].location", "network"),
    Subscription("never", "_*.item[price].name", "gated"),
    # one context node (the single ``regions`` element): a following::
    # step per person would make the oracle quadratic
    Subscription("following", "site.regions.following::person.name", "network"),
    Subscription("auction", "_*.open_auction[bidder].itemref", "gated"),
    Subscription("watcher", "_*.person[watches].name", "gated"),
)

_DEEP = (
    Subscription("nouns", "_*.NP.NN", "dfa"),
    Subscription("chains", "_*.S._*.S._*.NP", "dfa"),
    Subscription("clause", "_*.S[VP].NP", "gated"),
    Subscription("verb", "_*.VP[PP].VB", "gated"),
    Subscription("late", "_*.S[_*.PP[NP]]._*.NN", "gated"),
    Subscription("never-any", "_*[NN].NP", "network"),
    Subscription("never-pp", "_*.PP[JJ].NP", "gated"),
    Subscription("complement", "_*.VP[S]", "hybrid"),
)

_DOCS = (
    Subscription(SENTINEL, SENTINEL, "dfa"),
    Subscription("ab", "_*.a.b", "dfa"),
    Subscription("cde", "_*.c.d.e", "dfa"),
    Subscription("deep-c", "doc.a._*.c", "dfa"),
    Subscription("a-with-b", "_*.a[b]", "hybrid"),
    Subscription("b-with-cd", "_*.b[c.d]", "hybrid"),
    Subscription("e-with-d", "_*.e[d]", "hybrid"),
    Subscription("a-with-b-c", "_*.a[b].c", "gated"),
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "filter-fastlane",
            "xmlstream.parser and core.fastlane do the work, the transducer "
            "network none: a parser or DFA change shows here and nowhere else",
            "filter", "xmark", 16000, _FASTLANE,
        ),
        Workload(
            "filter-network",
            "gated and network lanes only, the slowest production path; "
            "the parser is under 3% of wall, so only network changes show",
            "filter", "xmark", 800, _NETWORK,
        ),
        Workload(
            "filter-deep",
            "deep recursive document with fragments collected: long buffering "
            "and serialization, where speed bought with memory shows as a cost",
            "filter", "treebank", 800, _DEEP, collect_events=True,
        ),
        Workload(
            "serve-sharded",
            "light subscriptions over many small documents through 2 shard "
            "workers, so core.shards fan-out, IPC and merge dominate",
            "sharded", "docs", 130, _DOCS,
        ),
        Workload(
            "service-saturate",
            "TCP service, closed loop with 4 documents in flight and no WAL: "
            "per-event ingest and per-match delivery with the loop always busy",
            "service", "docs", 180, _DOCS,
        ),
        Workload(
            "service-paced",
            "TCP service with WAL, durable subscriber and acks, open loop at "
            "25 documents/s: delivery latency at a rate a subscriber would see",
            "service", "docs", 100, _DOCS, rate=float(RATE_LADDER[0]),
        ),
    )
}

#: Documents the closed loop keeps in flight.
WINDOW = 4


# ----------------------------------------------------------------------
# input generation


def document(seed: int) -> Iterator[Event]:
    """One stream document: a 400-element random tree under a ``doc`` root."""
    yield StartDocument()
    yield StartElement(SENTINEL)
    for event in random_tree(seed, elements=400):
        if not isinstance(event, (StartDocument, EndDocument)):
            yield event
    yield EndElement(SENTINEL)
    yield EndDocument()


@dataclass(frozen=True)
class Inputs:
    """Generated files of one workload, with their exact sizes."""

    paths: list[str]
    events: int
    bytes: int

    @property
    def documents(self) -> int:
        return len(self.paths)


def _write(path: str, events: Iterator[Event]) -> int:
    count = 0

    def counted() -> Iterator[Event]:
        nonlocal count
        for event in events:
            count += 1
            yield event

    with open(path, "w", encoding="utf-8") as out:
        write_events(counted(), out)
    return count


def generate(
    workload: Workload, seed: int, directory: str, divisor: int = 1
) -> Inputs:
    """Write the workload's input files into ``directory``.

    Deterministic in ``(workload, seed, divisor)``.  ``divisor`` shrinks
    the input (items, sentences or documents) for the oracle check and
    the layer ladder.  A ``manifest.json`` beside the files carries the
    sizes, so a worker process loads them without re-reading the input.
    """
    os.makedirs(directory, exist_ok=True)
    size = max(1, workload.size // divisor)
    if workload.source == "docs":
        streams = [
            (f"doc-{index:04d}.xml", document(seed * 1_000_003 + index))
            for index in range(size)
        ]
    elif workload.source == "xmark":
        streams = [("xmark.xml", xmark(seed, scale=size))]
    elif workload.source == "treebank":
        streams = [("treebank.xml", treebank(seed, sentences=size, max_depth=30))]
    else:
        raise ValueError(f"unknown source {workload.source!r}")
    paths, events, size_bytes = [], 0, 0
    for name, stream in streams:
        path = os.path.join(directory, name)
        events += _write(path, stream)
        size_bytes += os.path.getsize(path)
        paths.append(path)
    inputs = Inputs(paths, events, size_bytes)
    with open(os.path.join(directory, "manifest.json"), "w") as out:
        json.dump({"paths": paths, "events": events, "bytes": size_bytes}, out)
    return inputs


def load_inputs(directory: str) -> Inputs:
    with open(os.path.join(directory, "manifest.json")) as handle:
        return Inputs(**json.load(handle))
