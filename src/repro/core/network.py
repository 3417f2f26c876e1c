"""SPEX transducer networks (paper, Definition 3).

A network is a DAG of transducers with one source (the input transducer)
and one sink (the output transducer).  Because the input transducer
forwards only one stream message at a time, evaluation is a simple pass
over the DAG in topological order once per stream event: each node maps
the concatenated output of its predecessors to its own output list, join
nodes merge two predecessor lists.

The network object also centralizes instrumentation: per-transducer stack
peaks and formula sizes roll up into :class:`NetworkStats` for the
complexity experiments.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..errors import EngineError, ResourceLimitError
from ..limits import ResourceLimits
from ..xmlstream.events import EndElement, Event, StartElement, Text
from ..conditions.store import ConditionStore, VariableAllocator
from .flow_transducers import JoinTransducer
from .messages import Doc, Message
from .optimize import ALL_OPTIMIZATIONS, OptimizationFlags, as_flags
from .output_tx import Match, OutputTransducer
from .path_transducers import InputTransducer
from .transducer import FORWARDS, POPS, Transducer


@dataclass
class NetworkStats:
    """Aggregated instrumentation over a whole network.

    Attributes:
        degree: number of transducers (Lemma V.1: linear in query size).
        events: stream events processed.
        messages: total messages processed across all transducers.
        max_stack: deepest per-transducer stack (≤ stream depth + 1).
        max_formula_size: largest condition formula observed (σ).
    """

    degree: int = 0
    events: int = 0
    messages: int = 0
    max_stack: int = 0
    max_formula_size: int = 0
    per_transducer: dict[str, dict[str, int]] = field(default_factory=dict)


class Network:
    """A wired SPEX network, ready to consume one stream."""

    def __init__(
        self,
        source: InputTransducer,
        sink: OutputTransducer | None = None,
        limits: ResourceLimits | None = None,
        flags: OptimizationFlags | bool | None = None,
    ) -> None:
        """Create a network rooted at ``source``.

        ``sink`` is the network's primary output transducer; multi-sink
        networks (conjunctive queries, Sec. VII) pass ``None`` and drain
        their output transducers directly.  Of ``limits`` the network
        enforces ``max_formula_size`` after every event; the stream
        limits are the driver's (checked against its cursor) and
        the buffer ceilings the output transducer's.  ``flags``
        (:mod:`repro.core.optimize`) selects the per-event driver
        installed at :meth:`finalize` time: the production closure
        (:func:`make_fused_runner`, the default) or, with
        ``production_network`` off, the interpreted reference
        :meth:`process_event`.
        """
        self.source = source
        self.sink = sink
        #: the σ ceiling, or ``None``
        self.max_formula_size = limits.max_formula_size if limits is not None else None
        self.flags = ALL_OPTIMIZATIONS if flags is None else as_flags(flags)
        #: set by the compiler; drives deferred variable release at the
        #: end of every event (see ConditionStore.end_of_event)
        self.condition_store: ConditionStore | None = None
        #: set by the compiler; checkpointed so resuming continues the
        #: condition-variable uid sequence instead of restarting it
        self.allocator: VariableAllocator | None = None
        self._nodes: list[Transducer] = [source]
        self._predecessors: dict[int, list[Transducer]] = {id(source): []}
        self._finalized = False
        self._events = 0
        # Execution plan compiled by finalize(): per node, its index and
        # the indices of its predecessors' output slots.
        self._plan: list[tuple[Transducer, int, int]] = []

    # ------------------------------------------------------------------
    # construction

    def add(self, transducer: Transducer, *predecessors: Transducer) -> Transducer:
        """Insert a transducer downstream of ``predecessors``.

        Nodes must be added in topological order (the compiler does this
        naturally); join transducers take exactly two predecessors, all
        others exactly one.
        """
        if self._finalized:
            raise EngineError("network already finalized")
        expected = 2 if isinstance(transducer, JoinTransducer) else 1
        if len(predecessors) != expected:
            raise EngineError(
                f"{transducer.name} needs {expected} predecessor(s), got "
                f"{len(predecessors)}"
            )
        known = {id(node) for node in self._nodes}
        for predecessor in predecessors:
            if id(predecessor) not in known:
                raise EngineError(
                    f"predecessor {predecessor.name} not in network (nodes "
                    f"must be added in topological order)"
                )
        self._nodes.append(transducer)
        self._predecessors[id(transducer)] = list(predecessors)
        return transducer

    def finalize(self) -> None:
        """Wire the sink and freeze the topology."""
        if self._finalized:
            raise EngineError("network already finalized")
        if self.sink is not None and self.sink not in self._nodes:
            raise EngineError("finalize() requires the sink to be added")
        self._finalized = True
        # Give every node a unique display name for traces.
        counts: dict[str, int] = {}
        for node in self._nodes:
            counts[node.name] = counts.get(node.name, 0) + 1
            if counts[node.name] > 1:
                node.name = f"{node.name}#{counts[node.name]}"
        # Compile the per-event execution plan: (node, left_slot,
        # right_slot) with slot -1 meaning "no predecessor" (the source)
        # and right_slot -1 meaning "single input".
        index_of = {id(node): index for index, node in enumerate(self._nodes)}
        self._plan = []
        for node in self._nodes[1:]:
            predecessors = self._predecessors[id(node)]
            left = index_of[id(predecessors[0])]
            right = index_of[id(predecessors[1])] if len(predecessors) == 2 else -1
            self._plan.append((node, left, right))
        if self.flags.production_network:
            # the instance attribute shadows the reference method
            self.process_event = make_fused_runner(self)  # type: ignore[method-assign]

    def _compile_pass(self, entry: str) -> Callable[[list[Message]], None]:
        """Generate the topological pass of one event class as straight-line code.

        ``entry`` names what drives each node: ``"start"``, ``"end"`` or
        ``"text"`` — the node's entry point for that event class (see
        :mod:`repro.core.transducer`) — or ``"feed"``, the hook-driven
        dispatch, which document boundaries use throughout and the other
        passes fall back to for a node without an entry point.  One
        function whose body is the pass with every callee pre-bound and
        every slot a local variable; unlike ``_plan`` (which mirrors the
        wiring 1:1 and is what the static verifier checks) it leaves out
        what the event class cannot change: a ``FORWARDS`` node's slot is
        an alias of its input, a ``POPS`` node is an inlined checked
        ``stack.pop()``, and a join whose inputs are one slot hands it on.
        """
        names = {-1: "batch"}
        namespace: dict[str, object] = {"EngineError": EngineError}
        lines = ["def _run(batch):"]
        plan = [(self.source, -1, -1), *self._plan]
        for slot, (node, left, right) in enumerate(plan):
            if right >= 0:
                if names[left] == names[right] and node.dedup:
                    names[slot] = names[left]
                    continue
                call, args = node.feed2, f"{names[left]}, {names[right]}"
            else:
                call, args = getattr(node, entry) or node.feed, names[left]
                if call is FORWARDS or call is POPS:
                    if call is POPS:
                        namespace[f"k{slot}"] = node.stack
                        error = f"{node.name}: end tag with empty stack"
                        lines.append(f"    if k{slot}: k{slot}.pop()")
                        lines.append(f"    else: raise EngineError({error!r})")
                    names[slot] = args
                    continue
            namespace[f"f{slot}"] = call
            names[slot] = f"s{slot}"
            lines.append(f"    s{slot} = f{slot}({args})")
        lines.append("    return None")
        exec("\n".join(lines), namespace)  # noqa: S102 - trusted codegen
        return namespace["_run"]  # type: ignore[return-value]

    @property
    def nodes(self) -> list[Transducer]:
        return list(self._nodes)

    @property
    def finalized(self) -> bool:
        """Whether :meth:`finalize` has frozen the topology."""
        return self._finalized

    @property
    def degree(self) -> int:
        """Number of transducers — the paper's network degree."""
        return len(self._nodes)

    @property
    def sinks(self) -> list[OutputTransducer]:
        """All output transducers (one per head variable for CQs)."""
        return [node for node in self._nodes if isinstance(node, OutputTransducer)]

    def predecessors_of(self, node: Transducer) -> list[Transducer]:
        return list(self._predecessors[id(node)])

    def describe(self) -> str:
        """Human-readable wiring, one node per line (used by the CLI)."""
        lines = []
        for node in self._nodes:
            preds = self._predecessors[id(node)]
            arrow = ", ".join(p.name for p in preds) or "(source)"
            lines.append(f"{node.name} <- {arrow}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # execution

    def process_event(self, event: Event) -> list[Match]:
        """Push one stream event through the network; return new matches.

        This method is the *reference* driver — the literal interpreted
        topological pass, fresh messages, no memo — that
        ``production_network=False`` networks run and every differential
        test compares against.  Production networks shadow it with
        :func:`make_fused_runner`'s closure at :meth:`finalize`.

        Raises:
            ResourceLimitError: this event grew a condition formula past
                ``max_formula_size``, or an output transducer past its
                buffer ceilings.
        """
        if not self._finalized:
            raise EngineError("network not finalized")
        self._events += 1
        outputs: list[list[Message]] = [None] * len(self._nodes)  # type: ignore[list-item]
        outputs[0] = self.source.feed([Doc(event)])
        slot = 1
        for node, left, right in self._plan:
            if right >= 0:
                outputs[slot] = node.feed2(outputs[left], outputs[right])
            else:
                outputs[slot] = node.feed(outputs[left])
            slot += 1
        if self.max_formula_size is not None:
            self._guard_formula_size()
        store = self.condition_store
        if store is not None and store._release_pending:
            store.end_of_event()
        sink = self.sink
        if sink is None or not sink.results:
            return []
        matches = list(sink.results)
        sink.results.clear()
        return matches

    def _guard_formula_size(self) -> None:
        """Enforce the σ ceiling after the event's message batch settled."""
        ceiling = self.max_formula_size
        assert ceiling is not None
        for node in self._nodes:
            size = node.stats.max_formula_size
            if size > ceiling:
                raise ResourceLimitError(
                    f"{node.name}: condition formula size {size} exceeds "
                    f"limit {ceiling}",
                    limit="max_formula_size",
                    observed=size,
                )

    def run(self, events: Iterable[Event]) -> Iterator[Match]:
        """Evaluate a whole stream, yielding matches as they complete."""
        for event in events:
            yield from self.process_event(event)

    # ------------------------------------------------------------------
    # the rest of the runner protocol (docs/architecture.md)

    def flush(self) -> list[Match]:
        """Hand over every match decided but not yet delivered."""
        flushed: list[Match] = []
        for sink in self.sinks:
            flushed.extend(sink.results)
            sink.results.clear()
        return flushed

    @property
    def buffered_events(self) -> int:
        """Events held for undetermined candidates, over all sinks."""
        return sum(sink.buffered_events for sink in self.sinks)

    def deactivate(self) -> None:
        """Detach.  A plain network is referenced by nothing but its
        driver, so dropping it is all there is to do."""

    # ------------------------------------------------------------------
    # checkpointing

    def snapshot(self) -> dict:
        """JSON-serializable snapshot of all evaluation state.

        Node states are keyed by the unique display names assigned in
        :meth:`finalize`; since compilation is deterministic for a given
        (query, optimize) pair, the same query always produces the same
        name set — which doubles as an integrity check on restore.  The
        condition store and the variable allocator the compiler attached
        are part of the state and of the snapshot.
        """
        if not self._finalized:
            raise EngineError("cannot snapshot an unfinalized network")
        store, allocator = self.condition_store, self.allocator
        return {
            "nodes": {node.name: node.snapshot() for node in self._nodes},
            "events": self._events,
            "store": store.snapshot() if store is not None else None,
            "allocator": allocator.snapshot() if allocator is not None else None,
        }

    def restore(self, state: dict) -> None:
        """Restore a snapshot into this (freshly compiled) network."""
        if not self._finalized:
            raise EngineError("cannot restore into an unfinalized network")
        nodes = state["nodes"]
        have = {node.name for node in self._nodes}
        if set(nodes) != have:
            missing = set(nodes) ^ have
            raise EngineError(
                f"checkpoint topology mismatch (differing nodes: "
                f"{sorted(missing)}); was the checkpoint taken from the "
                f"same query and compiler settings?"
            )
        for node in self._nodes:
            node.restore(nodes[node.name])
        if self.condition_store is not None:
            self.condition_store.restore(state["store"])
        if self.allocator is not None:
            self.allocator.restore(state["allocator"])
        self._events = int(state["events"])

    def stats(self) -> NetworkStats:
        """Roll up per-transducer instrumentation."""
        stats = NetworkStats(degree=self.degree, events=self._events)
        for node in self._nodes:
            stats.messages += node.stats.messages
            stats.max_stack = max(stats.max_stack, node.stats.max_stack)
            stats.max_formula_size = max(
                stats.max_formula_size, node.stats.max_formula_size
            )
            stats.per_transducer[node.name] = {
                "messages": node.stats.messages,
                "max_stack": node.stats.max_stack,
                "max_formula_size": node.stats.max_formula_size,
                "activations_emitted": node.stats.activations_emitted,
            }
        return stats


_NO_MATCHES: list[Match] = []


def make_fused_runner(network: Network) -> Callable[[Event], list[Match]]:
    """The production per-event driver of a finalized network: one closure.

    A drop-in for :meth:`Network.process_event` with the network's
    configuration resolved once, here, instead of re-branched on every
    event: one generated topological pass per event class
    (:meth:`Network._compile_pass` — start tags, end tags and text each
    visit only the nodes that class can change, through their entry
    points; document boundaries run the hooks), one pooled document
    message (every slot read happens within the event, in topological
    order, so in-place mutation is never observed across events) and —
    only under a ``max_formula_size`` — the σ guard.  Multi-sink
    networks (``sink=None``) drain their sinks themselves and always get
    the shared empty list.
    """
    boundary = network._compile_pass("feed")
    pass_of = {
        StartElement: network._compile_pass("start"),
        EndElement: network._compile_pass("end"),
        Text: network._compile_pass("text"),
    }.get
    store = network.condition_store
    sink = network.sink
    guard_sigma = (
        network._guard_formula_size if network.max_formula_size is not None else None
    )
    doc = Doc(None)  # type: ignore[arg-type]
    batch: list[Message] = [doc]
    set_event = object.__setattr__

    def process_event(event: Event) -> list[Match]:
        network._events += 1
        set_event(doc, "event", event)
        pass_of(event.__class__, boundary)(batch)
        if guard_sigma is not None:
            guard_sigma()
        if store is not None and store._release_pending:
            store.end_of_event()
        if sink is None:
            return _NO_MATCHES
        results = sink.results
        if not results:
            return _NO_MATCHES
        matches = list(results)
        results.clear()
        return matches

    return process_event
