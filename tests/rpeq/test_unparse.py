"""Unit and property tests for rendering rpeq back to text."""

import pytest
from hypothesis import given

from repro.errors import ReproError
from repro.rpeq.ast import Concat, Empty, Label, Qualifier, Star, Union
from repro.rpeq.parser import parse
from repro.rpeq.unparse import unparse

from ..conftest import rpeq_queries


class TestUnparse:
    @pytest.mark.parametrize(
        "query",
        [
            "a",
            "_",
            "a+",
            "_*",
            "a?",
            "a.b.c",
            "a|b",
            "a.(b|c)",
            "_*.a[b].c",
            "a[b][c]",
            "a[b[c]]",
            "(a|b).c?",
            "a[b.c|d]",
        ],
    )
    def test_round_trip_examples(self, query):
        assert parse(unparse(parse(query))) == parse(query)

    def test_minimal_parentheses(self):
        assert unparse(parse("a.(b|c)")) == "a.(b|c)"
        assert unparse(parse("(a.b)|c")) == "a.b|c"

    def test_empty_whole_query(self):
        assert unparse(Empty()) == ""

    def test_embedded_empty_rejected(self):
        with pytest.raises(ReproError):
            unparse(Concat(Label("a"), Empty()))

    def test_display_spells_embedded_epsilon(self):
        from repro.rpeq.unparse import display

        residual = Concat(Qualifier(Empty(), Label("b")), Label("c"))
        assert display(residual) == "ε[b].c"
        assert display(Empty()) == "ε"
        assert display(parse("a.(b|c)[d]")) == unparse(parse("a.(b|c)[d]"))

    def test_qualifier_condition_not_parenthesized(self):
        assert unparse(Qualifier(Label("a"), Union(Label("b"), Label("c")))) == "a[b|c]"


class TestRoundTripProperty:
    @given(rpeq_queries())
    def test_parse_unparse_identity(self, expr):
        assert parse(unparse(expr)) == expr
