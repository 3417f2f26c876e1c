"""A schema-aware streaming pipeline.

Combines the substrates around the SPEX core into the pipeline a
production deployment would run:

1. a **DTD** describes the feed;
2. **schema analysis** prunes subscriptions that can never match any
   valid document (dead-query detection);
3. the surviving subscriptions compile into **one shared-prefix
   network**;
4. incoming documents stream through the **validator** into the network —
   one pass, depth-bounded memory, progressive results.

Run with::

    python examples/schema_pipeline.py
"""

from repro.baselines.shared_network import SharedNetworkEngine
from repro.dtd import DocumentGenerator, DtdValidator, SchemaAnalyzer, parse_dtd

FEED_DTD = """
<!DOCTYPE feed [
  <!ELEMENT feed (order+)>
  <!ELEMENT order (customer, item+, rush?)>
  <!ELEMENT customer (name, region?)>
  <!ELEMENT item (sku, quantity)>
  <!ELEMENT name (#PCDATA)>
  <!ELEMENT region (#PCDATA)>
  <!ELEMENT sku (#PCDATA)>
  <!ELEMENT quantity (#PCDATA)>
  <!ELEMENT rush EMPTY>
]>
"""

SUBSCRIPTIONS = {
    "rush-orders": "_*.order[rush]",
    "items": "_*.order.item.sku",
    "regional": "_*.order[customer[region]]",
    "legacy-invoices": "_*.invoice.total",       # dead: no <invoice> in the DTD
    "misplaced-sku": "_*.customer.sku",          # dead: sku only under item
}


def main() -> None:
    dtd = parse_dtd(FEED_DTD)
    print(f"DTD: root <{dtd.root}>, {len(dtd.elements)} element types, "
          f"recursive={dtd.is_recursive()}, depth bound={dtd.depth_bound()}")
    print()

    # --- schema analysis prunes dead subscriptions ---------------------
    analyzer = SchemaAnalyzer(dtd)
    verdicts = analyzer.prune(SUBSCRIPTIONS)
    live = {name: q for name, q in SUBSCRIPTIONS.items() if verdicts[name]}
    for name, query in SUBSCRIPTIONS.items():
        state = "live" if verdicts[name] else "DEAD (pruned)"
        print(f"  {name:16s} {query:32s} {state}")
    print()

    # --- shared network over the survivors ------------------------------
    engine = SharedNetworkEngine(live)
    print(f"{len(live)} live subscriptions -> one network of "
          f"{engine.network_degree()} transducers")
    print()

    # --- validate-and-query in a single streaming pass -------------------
    validator = DtdValidator(dtd)
    generator = DocumentGenerator(dtd, seed=42, max_repeat=4)
    counts = {name: 0 for name in live}
    for name, _match in engine.run(validator.stream(generator.events())):
        counts[name] += 1
    print("matches in one generated feed document:")
    for name, count in counts.items():
        print(f"  {name:16s} {count}")
    print()

    # --- the validator rejects schema violations on the fly -------------
    from repro.dtd import DtdValidationError
    from repro.xmlstream import parse_string

    bad = "<feed><order><item><sku>1</sku><quantity>2</quantity></item></order></feed>"
    try:
        for _ in validator.stream(parse_string(bad)):
            pass
    except DtdValidationError as error:
        print(f"invalid document rejected mid-stream: {error}")


if __name__ == "__main__":
    main()
