"""Translation of rpeq into SPEX networks — the function ``C`` of Fig. 11.

The translation is compositional and linear-time (Lemma V.1): every rpeq
construct contributes a constant number of transducers::

    C[label]        ->  CH(label)
    C[label+]       ->  CL(label)
    C[label*]       ->  SP --+-> CL(label) -+-> JO          (epsilon bypass)
                              +-------------+
    C[E?]           ->  SP --+-> C[E] ------+-> JO
                              +-------------+
    C[(E1|E2)]      ->  SP --+-> C[E1] -----+-> JO -> UN
                              +-> C[E2] -----+
    C[E1.E2]        ->  C[E2] after C[E1]
    C[E[F]]         ->  C[E] -> VC(q) -> SP --+-> (main) ------------+-> JO
                                               +-> C[F] -> VF(q+) -> VD(q) -+

The input transducer is prepended and the output transducer appended
afterwards, exactly as in Sec. III.9.
"""

from __future__ import annotations

import itertools

from ..conditions.store import ConditionStore, VariableAllocator
from ..errors import CompilationError
from ..rpeq.ast import (
    Concat,
    Empty,
    Following,
    Label,
    OptionalExpr,
    Plus,
    Preceding,
    Qualifier,
    Rpeq,
    Star,
    Union,
)
from .axis_transducers import FollowingTransducer, PrecedingTransducer
from .flow_transducers import JoinTransducer, SplitTransducer, UnionTransducer
from .network import Network
from .optimize import OptimizationFlags, as_flags
from .output_tx import OutputTransducer
from .path_transducers import (
    ChildTransducer,
    ClosureTransducer,
    InputTransducer,
    StarTransducer,
)
from .qualifier_transducers import VariableCreator, VariableDeterminant, VariableFilter
from .transducer import Transducer


class _Compiler:
    """Stateful helper threading the network through the recursion."""

    def __init__(
        self,
        network: Network,
        allocator: VariableAllocator,
        store: ConditionStore,
        optimize: bool = True,
    ) -> None:
        self.network = network
        self.allocator = allocator
        self.store = store
        self.optimize = optimize
        self._qualifier_ids = itertools.count()
        #: pseudo-qualifier ids of preceding-axis speculations; shared
        #: (live) with the determinant/preceding transducers for the
        #: chained-axis pairing fallback
        self.speculation_ids: set[str] = set()

    def compile(
        self,
        expr: Rpeq,
        tape: Transducer,
        branch_head: str | None = None,
    ) -> tuple[Transducer, frozenset[str]]:
        """Extend the network with ``C[expr]`` starting from ``tape``.

        Args:
            branch_head: enclosing qualifier id when compiling inside a
                qualifier condition (``None`` on the main path); the
                preceding-axis transducer switches semantics on it.

        Returns:
            The transducer whose output tape carries the sub-expression's
            results, and the set of qualifier ids allocated inside the
            sub-expression (needed by enclosing qualifier filters).
        """
        net = self.network
        if isinstance(expr, Empty):
            return tape, frozenset()
        if isinstance(expr, Label):
            return net.add(ChildTransducer(expr), tape), frozenset()
        if isinstance(expr, Plus):
            return net.add(ClosureTransducer(expr.label), tape), frozenset()
        if isinstance(expr, Following):
            transducer = FollowingTransducer(
                expr.label, self.store, branch=branch_head is not None
            )
            return net.add(transducer, tape), frozenset()
        if isinstance(expr, Preceding):
            # The preceding transducer speculates with condition
            # variables; their pseudo-qualifier id must be owned by any
            # enclosing qualifier so variable-filters keep them.
            qualifier_id = f"q{next(self._qualifier_ids)}"
            self.speculation_ids.add(qualifier_id)
            transducer = PrecedingTransducer(
                expr.label,
                qualifier_id,
                self.allocator,
                self.store,
                branch_head=branch_head,
                speculation_ids=self.speculation_ids,
            )
            return net.add(transducer, tape), frozenset((qualifier_id,))
        if isinstance(expr, Star):
            if self.optimize:
                # Fused descendant-or-self node; semantically identical
                # to the literal split/closure/join of Fig. 11 (the E10
                # ablation measures the difference).
                return net.add(StarTransducer(expr.label), tape), frozenset()
            split = net.add(SplitTransducer(), tape)
            closure = net.add(ClosureTransducer(expr.label), split)
            join = net.add(JoinTransducer(), closure, split)
            return join, frozenset()
        if isinstance(expr, OptionalExpr):
            split = net.add(SplitTransducer(), tape)
            inner, owned = self.compile(expr.inner, split, branch_head)
            join = net.add(JoinTransducer(), inner, split)
            return join, owned
        if isinstance(expr, Union):
            split = net.add(SplitTransducer(), tape)
            left, left_owned = self.compile(expr.left, split, branch_head)
            right, right_owned = self.compile(expr.right, split, branch_head)
            join = net.add(JoinTransducer(), left, right)
            union = net.add(UnionTransducer(), join)
            return union, left_owned | right_owned
        if isinstance(expr, Concat):
            # Flatten iteratively: concatenation chains grow with the
            # query length (Lemma V.1 workloads reach thousands of
            # steps), so recursing per step would exhaust the stack.
            parts: list[Rpeq] = []
            stack: list[Rpeq] = [expr]
            while stack:
                node = stack.pop()
                if isinstance(node, Concat):
                    stack.append(node.right)
                    stack.append(node.left)
                else:
                    parts.append(node)
            owned = frozenset()
            for part in parts:
                tape, part_owned = self.compile(part, tape, branch_head)
                owned |= part_owned
            return tape, owned
        if isinstance(expr, Qualifier):
            base, base_owned = self.compile(expr.base, tape, branch_head)
            qualifier_id = f"q{next(self._qualifier_ids)}"
            # Following-axis evidence can arrive after the qualified
            # element closes; defer the instance close to </$> then.
            defer_close = any(
                isinstance(node, Following) for node in expr.condition.walk()
            )
            creator = net.add(
                VariableCreator(
                    qualifier_id,
                    self.allocator,
                    self.store,
                    close_at_document_end=defer_close,
                ),
                base,
            )
            split = net.add(SplitTransducer(), creator)
            branch, inner_owned = self.compile(
                expr.condition, split, branch_head=qualifier_id
            )
            owned = frozenset((qualifier_id,)) | inner_owned
            fltr = net.add(VariableFilter(owned, positive=True), branch)
            determinant = net.add(
                VariableDeterminant(qualifier_id, self.speculation_ids), fltr
            )
            join = net.add(JoinTransducer(), split, determinant)
            return join, owned | base_owned
        raise CompilationError(f"cannot compile {type(expr).__name__}")


#: the table above, per construct: a label is its step's one transducer
#: (``CH``, ``CL``, ``DS`` or an axis's), around which ``label*`` adds the
#: literal network's ``SP`` and ``JO``
_TRANSDUCERS: dict[type[Rpeq], int] = {
    Empty: 0, Label: 1, Plus: 0, Following: 0, Preceding: 0, Star: 2,
    OptionalExpr: 2, Union: 3, Concat: 0, Qualifier: 5,
}  # fmt: skip


def translation_degree(expr: Rpeq, optimize: bool | OptimizationFlags = True) -> int:
    """The degree of ``compile_network(expr, optimize=optimize)``'s network,
    counted on the AST: ``IN``, ``OU`` and each construct's transducers."""
    fused = as_flags(optimize).production_network
    return 2 + sum(
        0 if fused and type(node) is Star else _TRANSDUCERS[type(node)]
        for node in expr.walk()
    )


def compile_network(
    expr: Rpeq,
    collect_events: bool = True,
    optimize: bool | OptimizationFlags = True,
    limits=None,
    source: InputTransducer | None = None,
) -> tuple[Network, ConditionStore]:
    """Build a fresh SPEX network for an rpeq query.

    Args:
        expr: the query AST.
        collect_events: whether the output transducer buffers result
            fragments (off: positions only).
        optimize: ``True`` (the production network: fused ``DS``
            closure steps, driven by
            :func:`~repro.core.network.make_fused_runner`), ``False``
            (the literal Fig. 11 translation, interpreted — the oracle
            of the differential tests and the E10 ablation), or an
            :class:`~repro.core.optimize.OptimizationFlags`, of which
            only ``production_network`` matters here.
        limits: optional :class:`repro.limits.ResourceLimits`; arms the
            network's depth/σ/event-budget guards and the output
            transducer's buffer ceilings.
        source: the network's input transducer; defaults to a fresh
            :class:`~repro.core.path_transducers.InputTransducer`.  The
            fast lane passes a
            :class:`~repro.core.path_transducers.DemandInputTransducer`
            to compile the *residual* of a query whose prefix it runs on
            the shared DFA.

    Returns the finalized network and its condition store.  The network
    carries evaluation state, so one network evaluates one stream; the
    engine builds a new network per run (compilation is linear in the
    query, Lemma V.1, so this is cheap).
    """
    flags = as_flags(optimize)
    store = ConditionStore()
    allocator = VariableAllocator()
    if source is None:
        source = InputTransducer()
    sink = OutputTransducer(store, collect_events=collect_events, limits=limits)
    network = Network(source, sink, limits=limits, flags=flags)
    compiler = _Compiler(network, allocator, store, optimize=flags.production_network)
    tape, _owned = compiler.compile(expr, source)
    network.add(sink, tape)
    network.condition_store = store
    #: exposed for checkpointing — resuming a run must continue the
    #: variable uid sequence, not restart it
    network.allocator = allocator
    network.finalize()
    return network, store
