"""Unit tests for pre-flight analysis and its engine wiring."""

from unittest import mock

import pytest

from repro.analysis import certify_cost, ensure_preflight, lint_query, preflight
from repro.core.compiler import compile_network
from repro.core.engine import SpexEngine
from repro.core.multiquery import MultiQueryEngine
from repro.errors import ReproError, StaticAnalysisError
from repro.limits import ResourceLimits
from repro.rpeq.parser import parse
from repro.workloads import query_corpus

from .test_lint import SITE_DTD

#: certifiably over budget: σ̂ = 2·50 = 100 > 10 (see test_cost.py)
DOOMED = "_*.a[_*.b]"
DOOMED_LIMITS = ResourceLimits(max_depth=50, max_formula_size=10)


class TestPreflight:
    def test_clean_query_passes_all_passes(self):
        report = preflight("_*.a[b]", limits=ResourceLimits(max_depth=20))
        assert report.ok
        assert "COST000" in report.codes()

    def test_over_budget_query_rejected(self):
        report = preflight(DOOMED, limits=DOOMED_LIMITS)
        assert not report.ok
        assert "COST002" in report.codes()

    def test_ensure_raises_with_report_attached(self):
        with pytest.raises(StaticAnalysisError) as excinfo:
            ensure_preflight(DOOMED, limits=DOOMED_LIMITS)
        assert "COST002" in str(excinfo.value)
        assert excinfo.value.report is not None
        assert "COST002" in excinfo.value.report.codes()

    def test_static_analysis_error_is_a_repro_error(self):
        assert issubclass(StaticAnalysisError, ReproError)


class TestEngineWiring:
    def test_engine_runs_preflight_by_default(self):
        engine = SpexEngine("_*.a[b]")
        assert engine.analysis is not None
        assert engine.analysis.ok

    def test_engine_rejects_doomed_query(self):
        with pytest.raises(StaticAnalysisError):
            SpexEngine(DOOMED, limits=DOOMED_LIMITS)

    def test_engine_preflight_opt_out(self):
        engine = SpexEngine(DOOMED, limits=DOOMED_LIMITS, preflight=False)
        assert engine.analysis is None

    def test_multiquery_reports_offending_query_id(self):
        with pytest.raises(StaticAnalysisError) as excinfo:
            MultiQueryEngine(
                {"good": "_*.a[b]", "bad": DOOMED}, limits=DOOMED_LIMITS
            )
        assert "bad" in str(excinfo.value)

    def test_multiquery_collects_reports(self):
        engine = MultiQueryEngine({"one": "_*.a[b]", "two": "a.b"})
        assert set(engine.analysis) == {"one", "two"}
        assert all(report.ok for report in engine.analysis.values())

    def test_multiquery_opt_out(self):
        engine = MultiQueryEngine({"bad": DOOMED}, limits=DOOMED_LIMITS, preflight=False)
        assert engine.analysis is None


def probed(query, limits, dtd):
    """The chain pre-flight replaced: lint, then certify with the degree
    read off a compiled network."""
    report = lint_query(query, dtd=dtd)
    network, _store = compile_network(parse(query), limits=limits)
    certify_cost(parse(query), limits=limits, dtd=dtd, degree=network.degree, report=report)
    return report


class TestNoProbeNetwork:
    def test_preflight_compiles_no_network(self):
        engine = MultiQueryEngine({})
        with mock.patch(
            "repro.core.compiler.compile_network", side_effect=AssertionError
        ):
            for text in query_corpus().values():
                assert preflight(text).ok
            engine.add_query("dfa", "a.b.c")
        assert engine.plans["dfa"].lane == "dfa"
        assert engine.analysis["dfa"].ok

    @pytest.mark.parametrize("dtd", [None, SITE_DTD], ids=["no-dtd", "dtd"])
    @pytest.mark.parametrize(
        "limits", [None, DOOMED_LIMITS, ResourceLimits(max_depth=8, max_formula_size=40)]
    )
    def test_same_report_as_the_probe(self, limits, dtd):
        for text in [*query_corpus().values(), DOOMED]:
            want = probed(text, limits, dtd)
            got = preflight(text, limits=limits, dtd=dtd)
            assert got.to_json() == want.to_json(), text
            if not want.ok:
                with pytest.raises(StaticAnalysisError) as excinfo:
                    ensure_preflight(text, limits=limits, dtd=dtd)
                assert str(excinfo.value) == (
                    f"pre-flight analysis failed: {want.errors[0].render()} "
                    f"({len(want.errors)} error(s) total)"
                )

    def test_multiquery_certifies_the_network_it_runs(self):
        """The literal network's degree, not the fused one's."""
        query = "_*.a[_*.b].c"
        literal = compile_network(parse(query), optimize=False)[0].degree
        assert literal == 16 and SpexEngine(query, optimize=False).network_degree() == 16
        for analysis in (
            MultiQueryEngine({"q": query}, optimize=False).analysis["q"],
            SpexEngine(query, optimize=False).analysis,
        ):
            (certificate,) = analysis.by_code("COST000")
            assert f"degree={literal}," in certificate.message
