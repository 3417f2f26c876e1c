"""Selective dissemination of information (SDI) with many subscriptions.

The paper's motivating scenario (Sec. I): a stream of structured messages
must be filtered against the complex requirements of many subscribers
before dissemination.  Here, a feed of order documents is matched against
a set of subscription queries; each incoming document is routed to the
subscribers whose query it satisfies — using the XFilter-style boolean
matching mode, which short-circuits a subscription as soon as it matches.

Run with::

    python examples/sdi_filtering.py
"""

import random

from repro.core.multiquery import MultiQueryEngine
from repro.xmlstream import serialize
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    Text,
)

SUBSCRIPTIONS = {
    "all-orders": "_*.order",
    "rush-orders": "_*.order[rush]",
    "eu-books": "_*.order[region]._*.book.title",
    "bulk-anything": "_*.order[bulk].item",
}


def make_order(rng: random.Random):
    """One synthetic order document as an event list."""
    events = [StartDocument(), StartElement("order")]
    if rng.random() < 0.3:
        events += [StartElement("rush"), EndElement("rush")]
    if rng.random() < 0.5:
        events += [StartElement("region"), Text("EU"), EndElement("region")]
    if rng.random() < 0.2:
        events += [StartElement("bulk"), EndElement("bulk")]
    for _ in range(rng.randint(1, 4)):
        events.append(StartElement("item"))
        if rng.random() < 0.5:
            events += [
                StartElement("book"),
                StartElement("title"),
                Text("Data on the Web"),
                EndElement("title"),
                EndElement("book"),
            ]
        events.append(EndElement("item"))
    events += [EndElement("order"), EndDocument()]
    return events


def main() -> None:
    rng = random.Random(2002)
    engine = MultiQueryEngine(SUBSCRIPTIONS)
    print(f"{len(engine)} subscriptions registered:")
    for name, query in SUBSCRIPTIONS.items():
        print(f"  {name:14s} {query}")
    print()

    delivered: dict[str, int] = {name: 0 for name in SUBSCRIPTIONS}
    for doc_id in range(12):
        document = make_order(rng)
        matched = engine.filter_documents(iter(document))
        recipients = [name for name, hit in matched.items() if hit]
        for name in recipients:
            delivered[name] += 1
        print(f"document {doc_id:2d} -> {', '.join(recipients) or '(no subscriber)'}")
        if doc_id == 0:
            print(f"             {serialize(document)}")
    print()
    print("delivery totals:")
    for name, count in delivered.items():
        print(f"  {name:14s} {count}/12 documents")

    # --- full dissemination: fragments routed to subscriber callbacks --
    # (one stream pass, progressive delivery; a failing callback is the
    # subscriber's problem, not the stream's)
    print()
    print("dispatching fragments to subscriber callbacks:")
    inbox: dict[str, list[str]] = {"rush": [], "books": []}
    queries = {"rush": "_*.order[rush]", "books": "_*.book.title"}
    callbacks = {
        "rush": lambda m: inbox["rush"].append(m.to_xml()),
        "books": lambda m: inbox["books"].append(m.text()),
    }
    fragments = MultiQueryEngine(queries, collect_events=True)
    stream = (event for _ in range(6) for event in make_order(rng))
    routed = {name: 0 for name in queries}
    failures = 0
    for name, match in fragments.run(stream):
        try:
            callbacks[name](match)
            routed[name] += 1
        except Exception as error:  # noqa: BLE001 - isolate the subscriber
            failures += 1
            print(f"  subscriber {name!r} failed: {error}")
    print(f"  delivered: {routed} (failures: {failures})")
    print(f"  book titles seen: {inbox['books']}")

if __name__ == "__main__":
    main()
