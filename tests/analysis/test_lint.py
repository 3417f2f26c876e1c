"""Unit tests for the rpeq linter (RPQ0xx diagnostics)."""

import pytest

from repro.analysis import lint_query
from repro.dtd import parse_dtd
from repro.rpeq.ast import Concat, Empty, Label
from repro.rpeq.parser import parse

from ..conftest import simplify

SITE_DTD = parse_dtd(
    """
    <!DOCTYPE site [
      <!ELEMENT site (regions, people?)>
      <!ELEMENT regions (item*)>
      <!ELEMENT item (name, mailbox?)>
      <!ELEMENT mailbox (mail*)>
      <!ELEMENT mail (#PCDATA)>
      <!ELEMENT name (#PCDATA)>
      <!ELEMENT people EMPTY>
    ]>
    """
)


def codes(query, **kwargs):
    return lint_query(query, **kwargs).codes()


class TestStructuralRules:
    def test_clean_query_has_no_findings(self):
        assert codes("a.b.c") == set()

    def test_rpq001_trivially_true_qualifier(self):
        assert "RPQ001" in codes("a[b*]")
        assert "RPQ001" in codes("a[c?]")

    def test_rpq001_not_fired_for_real_filter(self):
        assert "RPQ001" not in codes("a[b]")

    def test_rpq002_redundant_closure_chain(self):
        assert "RPQ002" in codes("a*.a*")
        assert "RPQ002" in codes("a*.a+")

    def test_rpq002_excludes_plus_plus(self):
        # a+.a+ demands length >= 2 and is NOT equivalent to a+.
        assert "RPQ002" not in codes("a+.a+")

    def test_rpq003_identical_branches(self):
        assert "RPQ003" in codes("(b|b)")

    def test_rpq003_wildcard_absorption(self):
        assert "RPQ003" in codes("(_|b)")
        assert "RPQ003" in codes("(_*|b*)")

    def test_rpq003_not_fired_for_disjoint_branches(self):
        assert "RPQ003" not in codes("(a|b)")

    def test_rpq004_duplicate_qualifier(self):
        assert "RPQ004" in codes("a[b][b]")
        assert "RPQ004" not in codes("a[b][c]")

    def test_rpq005_redundant_optional(self):
        assert "RPQ005" in codes("(a*)?")
        assert "RPQ005" not in codes("a?")

    def test_rpq006_epsilon_composition(self):
        query = Concat(Empty(), Label("a"))
        assert "RPQ006" in codes(query)

    def test_rpq007_wildcard_closure_with_qualifier(self):
        assert "RPQ007" in codes("_*.a[b]")
        assert "RPQ007" not in codes("a[b]")

    def test_span_points_at_offending_text(self):
        report = lint_query("c.a[b*]")
        (diag,) = report.by_code("RPQ001")
        assert diag.span is not None
        assert "c.a[b*]"[diag.span.start : diag.span.end] == "a[b*]"

    def test_ast_input_has_no_spans(self):
        report = lint_query(parse("a[b*]"))
        (diag,) = report.by_code("RPQ001")
        assert diag.span is None


class TestDtdRules:
    def test_clean_query_against_dtd(self):
        assert codes("site.regions.item.name", dtd=SITE_DTD) == set()

    def test_rpq010_unsatisfiable_path(self):
        report = lint_query("site.mail", dtd=SITE_DTD)
        assert "RPQ010" in report.codes()
        assert not report.ok

    def test_rpq011_contradictory_qualifier(self):
        # 'people' is EMPTY, so the chain people.item holds at no
        # element type anywhere in the schema.
        report = lint_query("_*.site[people.item]", dtd=SITE_DTD)
        assert "RPQ011" in report.codes()

    def test_rpq012_undeclared_label(self):
        report = lint_query("_*.bogus", dtd=SITE_DTD)
        assert "RPQ012" in report.codes()
        (diag,) = report.by_code("RPQ012")
        assert diag.details["label"] == "bogus"

    def test_satisfiable_qualifier_not_flagged(self):
        assert "RPQ011" not in codes("_*.item[mailbox]", dtd=SITE_DTD)


class TestIdempotence:
    @pytest.mark.parametrize(
        "query",
        ["a[b*]", "a*.a*", "(b|b)", "a[b][b]", "(a*)?", "(_|b)"],
    )
    def test_simplified_query_lints_clean(self, query):
        simplified = simplify(query)
        assert {
            c for c in codes(simplified) if c != "RPQ007"
        } == set(), query
