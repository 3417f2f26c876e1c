"""Many queries in one prefix-shared transducer network (Sec. IX).

The comparison point of experiment E9, not a production path:
production multi-query serving
(:class:`~repro.core.multiquery.MultiQueryEngine`) shares work through
the product DFA of :mod:`repro.core.fastlane`, which this engine
predates, and this one carries its own per-event loop over
:meth:`~repro.core.network.Network.process_event`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..analysis.rewrite import concat_spine
from ..conditions.store import ConditionStore, VariableAllocator
from ..core.clock import as_clock
from ..core.compiler import _Compiler
from ..core.network import Network
from ..core.output_tx import Match, OutputTransducer
from ..core.path_transducers import InputTransducer
from ..limits import ResourceLimits, stream_guard
from ..rpeq.ast import Rpeq
from ..rpeq.parser import parse
from ..xmlstream.events import Event
from ..xmlstream.offsets import StreamCursor
from ..xmlstream.parser import iter_events


class SharedNetworkEngine:
    """Many queries in ONE transducer network with shared prefixes.

    The paper's conclusion: "A single transducer network can be used for
    processing several queries having common subparts. Such a multi-query
    processor could be a corner stone of efficient XSLT and XQuery
    implementations."  This engine implements the prefix variant of that
    idea: queries are flattened into step sequences and inserted into a
    trie; each trie node is compiled once, so queries sharing a prefix
    (``_*.country.name`` / ``_*.country.population`` share ``_*`` and
    ``country``) share the corresponding transducers, and every query
    gets its own output sink hanging off its last trie node.

    Correctness across sinks relies on the condition store's broadcast/
    retain/deferred-release protocol (see
    :class:`repro.conditions.store.ConditionStore`).
    """

    def __init__(
        self,
        queries: Mapping[str, str | Rpeq] | Iterable[str],
        collect_events: bool = False,
        limits: ResourceLimits | None = None,
    ) -> None:
        if isinstance(queries, Mapping):
            items = list(queries.items())
        else:
            items = [(text, text) for text in queries]
        self.queries: dict[str, Rpeq] = {
            query_id: parse(query) if isinstance(query, str) else query
            for query_id, query in items
        }
        self.collect_events = collect_events
        self.limits = limits

    def __len__(self) -> int:
        return len(self.queries)

    def compile(self) -> tuple[Network, dict[str, OutputTransducer]]:
        """Build the shared network; one sink per query."""
        store = ConditionStore()
        allocator = VariableAllocator()
        source = InputTransducer()
        network = Network(source, sink=None, limits=self.limits)
        compiler = _Compiler(network, allocator, store)
        # Trie of compiled step prefixes: maps (id of tape transducer,
        # step AST) -> tape after that step.
        compiled: dict[tuple[int, Rpeq], object] = {}
        sinks: dict[str, OutputTransducer] = {}
        for query_id, expr in self.queries.items():
            tape = source
            for step in concat_spine(expr):
                key = (id(tape), step)
                next_tape = compiled.get(key)
                if next_tape is None:
                    next_tape, _owned = compiler.compile(step, tape)
                    compiled[key] = next_tape
                tape = next_tape
            sink = OutputTransducer(
                store, collect_events=self.collect_events, limits=self.limits
            )
            sink.name = f"OU({query_id})"
            network.add(sink, tape)
            sinks[query_id] = sink
        network.condition_store = store
        network.allocator = allocator
        network.finalize()
        return network, sinks

    def run(self, source: str | Iterable[Event]) -> Iterator[tuple[str, Match]]:
        """One stream pass; yields ``(query_id, match)`` progressively."""
        network, sinks = self.compile()
        cursor = StreamCursor()
        guard = stream_guard(self.limits, cursor, as_clock(None))
        for event in cursor.attach(iter_events(source)):
            if guard is not None:
                guard(event)
            network.process_event(event)
            for query_id, sink in sinks.items():
                while sink.results:
                    yield query_id, sink.results.popleft()

    def evaluate(self, source: str | Iterable[Event]) -> dict[str, list[Match]]:
        """All matches per query, eagerly."""
        results: dict[str, list[Match]] = {query_id: [] for query_id in self.queries}
        for query_id, match in self.run(source):
            results[query_id].append(match)
        return results

    def network_degree(self) -> int:
        """Transducer count of the shared network (vs. sum of singles)."""
        network, _sinks = self.compile()
        return network.degree
