"""Unit tests for the rpeq -> network translation (Fig. 11)."""

import pytest

from repro.core.compiler import compile_network
from repro.core.flow_transducers import JoinTransducer, SplitTransducer, UnionTransducer
from repro.core.output_tx import OutputTransducer
from repro.core.path_transducers import ChildTransducer, ClosureTransducer, InputTransducer
from repro.core.qualifier_transducers import (
    VariableCreator,
    VariableDeterminant,
    VariableFilter,
)
from repro.rpeq.generate import query_family
from repro.rpeq.parser import parse


def kinds(query, optimize=False):
    """Node kinds of the compiled network (literal Fig. 11 by default)."""
    network, _ = compile_network(parse(query), optimize=optimize)
    return [type(node).__name__ for node in network.nodes]


def test_residual_compiles_behind_the_given_source():
    from repro.analysis import split_at_prefix
    from repro.core.path_transducers import DemandInputTransducer

    _prefix, residual = split_at_prefix(parse("_*.a[b].c"))
    source = DemandInputTransducer()
    network, _ = compile_network(residual, collect_events=False, source=source)
    assert network.source is source
    assert [node.name for node in network.nodes] == [
        "IN", "VC(q0)", "SP", "CH(b)", "VF(q0+)", "VD(q0)", "JO", "CH(c)", "OU",
    ]


class TestShapes:
    def test_label_is_child_transducer(self):
        assert kinds("a") == ["InputTransducer", "ChildTransducer", "OutputTransducer"]

    def test_plus_is_closure_transducer(self):
        assert kinds("a+") == ["InputTransducer", "ClosureTransducer", "OutputTransducer"]

    def test_star_adds_bypass(self):
        assert kinds("a*") == [
            "InputTransducer",
            "SplitTransducer",
            "ClosureTransducer",
            "JoinTransducer",
            "OutputTransducer",
        ]

    def test_star_fused_when_optimizing(self):
        assert kinds("a*", optimize=True) == [
            "InputTransducer",
            "StarTransducer",
            "OutputTransducer",
        ]

    def test_optimized_and_literal_agree(self):
        from repro import SpexEngine
        from ..conftest import PAPER_DOC

        for query in ("_*", "_*.c", "a*.c", "_*.a[b].c", "c*"):
            literal = SpexEngine(query, optimize=False).positions(PAPER_DOC)
            fused = SpexEngine(query, optimize=True).positions(PAPER_DOC)
            assert literal == fused, query

    def test_optional_adds_bypass(self):
        assert kinds("a?") == [
            "InputTransducer",
            "SplitTransducer",
            "ChildTransducer",
            "JoinTransducer",
            "OutputTransducer",
        ]

    def test_union_shape(self):
        assert kinds("(a|b)") == [
            "InputTransducer",
            "SplitTransducer",
            "ChildTransducer",
            "ChildTransducer",
            "JoinTransducer",
            "UnionTransducer",
            "OutputTransducer",
        ]

    def test_qualifier_shape_matches_fig_12(self):
        assert kinds("a[b]") == [
            "InputTransducer",
            "ChildTransducer",       # CH(a)
            "VariableCreator",       # VC(q)
            "SplitTransducer",       # SP
            "ChildTransducer",       # CH(b)   (branch)
            "VariableFilter",        # VF(q+)
            "VariableDeterminant",   # VD
            "JoinTransducer",        # JO
            "OutputTransducer",
        ]

    def test_empty_query_is_passthrough(self):
        assert kinds("") == ["InputTransducer", "OutputTransducer"]

    def test_concatenation_chains(self):
        assert kinds("a.b.c").count("ChildTransducer") == 3


class TestLinearity:
    """Lemma V.1: network degree and translation are linear in |query|."""

    def test_degree_linear_in_steps(self):
        degrees = []
        for steps in (4, 8, 16):
            network, _ = compile_network(query_family(steps, 0))
            degrees.append(network.degree)
        assert degrees[2] - degrees[1] == 2 * (degrees[1] - degrees[0])

    def test_degree_linear_with_qualifiers(self):
        degrees = []
        for steps in (4, 8, 16):
            network, _ = compile_network(query_family(steps, steps))
            degrees.append(network.degree)
        assert degrees[2] - degrees[1] == 2 * (degrees[1] - degrees[0])

    def test_constant_nodes_per_construct(self):
        base = compile_network(parse("a"))[0].degree
        one_qualifier = compile_network(parse("a[b]"))[0].degree
        two_qualifiers = compile_network(parse("a[b][b]"))[0].degree
        assert two_qualifiers - one_qualifier == one_qualifier - base


class TestQualifierOwnership:
    def test_nested_qualifier_ids_distinct(self):
        network, _ = compile_network(parse("a[b[c]]"))
        creators = [n for n in network.nodes if isinstance(n, VariableCreator)]
        assert len(creators) == 2
        assert creators[0].qualifier != creators[1].qualifier

    def test_filter_owns_nested_qualifiers(self):
        network, _ = compile_network(parse("a[b[c]]"))
        filters = [n for n in network.nodes if isinstance(n, VariableFilter)]
        owned_sizes = sorted(len(f.owned) for f in filters)
        # The inner filter owns 1 qualifier, the outer owns both.
        assert owned_sizes == [1, 2]


class TestFreshNetworks:
    def test_compilations_are_independent(self):
        expr = parse("_*.a[b]")
        n1, s1 = compile_network(expr)
        n2, s2 = compile_network(expr)
        assert n1 is not n2 and s1 is not s2
        assert {id(t) for t in n1.nodes}.isdisjoint({id(t) for t in n2.nodes})
