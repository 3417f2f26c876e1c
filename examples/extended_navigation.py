"""Extended navigation and engine introspection.

Shows the prototype capabilities beyond the core rpeq language (paper
Sec. I): the ``following::`` and ``preceding::`` axes evaluated against a
stream, the shared-prefix multi-query network of the paper's conclusion,
and the transition-table tracer that reproduces the paper's Figs. 4/5/13.

Run with::

    python examples/extended_navigation.py
"""

from repro import SpexEngine
from repro.baselines.shared_network import SharedNetworkEngine
from repro.core.trace import trace_run

# A small change log: entries before/after a marker.
DOCUMENT = (
    "<log>"
    "<entry>old-1</entry>"
    "<entry>old-2</entry>"
    "<release/>"
    "<entry>new-1</entry>"
    "<entry>new-2</entry>"
    "</log>"
)


def main() -> None:
    print("document:", DOCUMENT)
    print()

    # --- following:: — everything after the release marker -----------
    query = "_*.release.following::entry"
    print(f"query: {query}")
    for match in SpexEngine(query).run(DOCUMENT):
        print(f"  -> {match.to_xml()}  (emitted as soon as the entry closed)")
    print()

    # --- preceding:: — everything before it ---------------------------
    query = "_*.release.preceding::entry"
    print(f"query: {query}")
    print("  (candidates buffer until the <release/> context appears)")
    for match in SpexEngine(query).run(DOCUMENT):
        print(f"  -> {match.to_xml()}")
    print()

    # --- axes inside qualifiers ---------------------------------------
    query = "_*.entry[preceding::release]"
    print(f"query: {query}  (entries preceded by a release)")
    print("  ->", [m.to_xml() for m in SpexEngine(query).run(DOCUMENT)])
    print()

    # --- shared-prefix multi-query network -----------------------------
    subscriptions = {
        "all entries": "_*.entry",
        "post-release": "_*.release.following::entry",
        "releases": "_*.release",
    }
    engine = SharedNetworkEngine(subscriptions)
    print(f"{len(engine)} subscriptions in one shared network "
          f"({engine.network_degree()} transducers):")
    for name, matches in engine.evaluate(DOCUMENT).items():
        print(f"  {name:13s} {len(matches)} match(es)")
    print()

    # --- the transition tracer -----------------------------------------
    print("transition table for 'a.c' over the paper's Fig. 1 document")
    print("(compare with the paper's Fig. 4):")
    print()
    print(trace_run("a.c", "<a><a><c/></a><b/><c/></a>"))


if __name__ == "__main__":
    main()
