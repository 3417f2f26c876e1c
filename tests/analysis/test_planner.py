"""Tests for the execution-lane planner and its refined σ̂ bound."""

import random

import pytest

from repro.analysis import lane_counts, plan_queries, plan_query, split_at_prefix
from repro.analysis.planner import (
    LANE_DFA,
    LANE_HYBRID,
    LANE_NETWORK,
    LANES,
    QueryPlan,
    pure,
)
from repro.baselines import DomEvaluator
from repro.dtd import parse_dtd
from repro.limits import ResourceLimits
from repro.rpeq import Concat, Empty, GeneratorConfig, parse, random_rpeq, unparse
from repro.rpeq.unparse import display
from repro.workloads import query_corpus, random_tree
from repro.xmlstream.tree import build_document

LIMITS = ResourceLimits(max_depth=32)


class TestLanes:
    def test_qualifier_free_query_is_dfa(self):
        plan, report = plan_query("_*.item.name")
        assert plan.lane == LANE_DFA
        assert plan.prefix == "_*.item.name"
        assert plan.qualifiers == 0
        assert "PLAN001" in report.codes()

    def test_selective_prefix_is_hybrid(self):
        plan, report = plan_query("_*.item[payment].name")
        assert plan.lane == LANE_HYBRID
        # The prefix crosses into the qualifier-free base of the first
        # qualified step, where the network takes over.
        assert plan.prefix == "_*.item"
        assert plan.prefix_steps == 2
        assert "PLAN002" in report.codes()

    def test_qualifier_on_closure_is_network(self):
        # The qualifier sits on the wildcard closure itself: no required
        # concrete step before it, nothing selective to gate on.
        plan, report = plan_query("_*[alert].price")
        assert plan.lane == LANE_NETWORK
        assert "PLAN003" in report.codes()

    def test_axis_step_disqualifies_dfa(self):
        plan, _ = plan_query("_*.a.following::b")
        assert plan.lane != LANE_DFA
        assert plan.axis_steps == 1

    def test_wildcard_only_prefix_is_not_selective(self):
        # `_*._[c]` has a pure prefix but no required concrete step.
        plan, _ = plan_query("_*._[c]")
        assert plan.lane == LANE_NETWORK

    def test_plan000_always_emitted(self):
        _, report = plan_query("a.b")
        (diag,) = [d for d in report if d.code == "PLAN000"]
        assert diag.details["plan"]["lane"] == LANE_DFA


class TestSplitAtPrefix:
    """One split: what the planner reports is what the fast lane runs."""

    @pytest.mark.parametrize(
        "query, prefix, residual",
        [
            ("_*.item[mailbox].name", "_*.item", "ε[mailbox].name"),
            ("a[b][c].d", "a", "ε[b][c].d"),
            ("a.b[c]", "a.b", "ε[c]"),
            ("(a|b).c[d].e", "(a|b).c", "ε[d].e"),
            ("a.(b.c)[d]", "a.b.c", "ε[d]"),
            ("a.(b[c]|d).e", "a", "(b[c]|d).e"),
            ("(a[b].c)[d].e", "ε", "(a[b].c)[d].e"),
            ("following::a.b", "ε", "following::a.b"),
            ("a.b.c", "a.b.c", "ε"),
        ],
    )
    def test_split(self, query, prefix, residual):
        head, tail = split_at_prefix(parse(query))
        assert (display(head), display(tail)) == (prefix, residual)
        assert pure(head)

    def test_plan_reports_both_halves(self):
        plan, report = plan_query("_*.item[payment].name")
        assert (plan.prefix, plan.residual) == ("_*.item", "ε[payment].name")
        (diag,) = [d for d in report if d.code == "PLAN002"]
        assert "ε[payment].name" in diag.message
        assert plan_query("a.b")[0].residual is None

    def test_prefix_of_a_union_step_reparses(self):
        plan, _ = plan_query("(a|b).c[d].e")
        assert plan.prefix == "(a|b).c"
        assert parse(plan.prefix) == split_at_prefix(parse(plan.query))[0]

    def test_split_preserves_the_answers(self):
        """``expr ≡ prefix.residual`` on the DOM oracle, random queries."""
        rng = random.Random(20260928)
        config = GeneratorConfig(labels=("a", "b", "c"), max_depth=3)
        documents = [
            build_document(random_tree(seed, elements=40)) for seed in range(3)
        ]

        def answers(expr, document):
            nodes = DomEvaluator(expr).evaluate_document(document)
            return [node.position for node in nodes]

        for _ in range(150):
            query = random_rpeq(rng, config)
            head, tail = split_at_prefix(query)
            if isinstance(head, Empty) or isinstance(tail, Empty):
                continue
            for document in documents:
                assert answers(Concat(head, tail), document) == answers(
                    query, document
                ), unparse(query)


class TestSigmaRefined:
    def test_dfa_lane_pins_sigma_to_one(self):
        # No qualifiers → no condition formulas → σ̂ collapses to 1,
        # however pessimistic the worst-case certificate is.
        plan, _ = plan_query("_*.a.b", limits=LIMITS)
        assert plan.sigma_refined == 1

    def test_refined_never_exceeds_worst(self):
        for text in ("_*.a[b].c", "_*[x].y", "a.b.c", "_*.a[_*.b]"):
            plan, _ = plan_query(text, limits=LIMITS)
            if plan.sigma_worst is not None:
                assert plan.sigma_refined is not None
                assert plan.sigma_refined <= plan.sigma_worst, text

    def test_plan004_reports_strict_improvement(self):
        # The worst-case bound is computed on the original query; the
        # certified rewrite strips the vacuous qualifier and the refined
        # bound drops below it.
        plan, report = plan_query("_*.a[b*]", limits=LIMITS, rewrite=True)
        assert "PLAN004" in report.codes()
        assert plan.sigma_refined < plan.sigma_worst

    def test_rewrite_tightens_the_plan(self):
        # The trivially-true qualifier costs a condition variable; the
        # certified rewrite removes it and the plan lands in the DFA
        # lane with σ̂ = 1.
        before, _ = plan_query("_*.a[b*]", limits=LIMITS)
        after, _ = plan_query("_*.a[b*]", limits=LIMITS, rewrite=True)
        assert before.lane == LANE_HYBRID
        assert after.lane == LANE_DFA
        assert after.rewrite_steps == 1
        assert after.sigma_refined == 1
        assert after.sigma_refined <= (before.sigma_refined or 1)

    def test_uncertified_rewrite_is_discarded(self):
        # DTD with an undeclared element: the valid-document sampler
        # refuses, the schema-dead elimination fails its certificate,
        # and the plan must describe the *original* query.
        dtd = parse_dtd("<!ELEMENT root (a*, q?)> <!ELEMENT a EMPTY>")
        plan, report = plan_query("_*.(a|zz)", dtd=dtd, rewrite=True)
        assert plan.query == "_*.(a|zz)"
        assert plan.rewrite_steps == 0
        assert "RWR090" in report.codes()


class TestCodec:
    def test_round_trip(self):
        plan, _ = plan_query("_*.item[payment].name", limits=LIMITS)
        assert QueryPlan.from_obj(plan.to_obj()) == plan

    def test_round_trip_unbounded(self):
        plan, _ = plan_query("_*[x]._*[y]")
        obj = plan.to_obj()
        assert obj["sigma_worst"] is None
        assert QueryPlan.from_obj(obj) == plan

    def test_rewrite_steps_defaults_for_old_payloads(self):
        plan, _ = plan_query("a.b")
        obj = plan.to_obj()
        del obj["rewrite_steps"]
        assert QueryPlan.from_obj(obj).rewrite_steps == 0

    def test_residual_defaults_for_old_payloads(self):
        plan, _ = plan_query("a[b].c")
        obj = plan.to_obj()
        assert obj["residual"] == "ε[b].c"
        del obj["residual"]
        assert QueryPlan.from_obj(obj).residual is None


class TestCorpus:
    def test_corpus_covers_every_lane(self):
        plans, report = plan_queries(
            query_corpus(), limits=LIMITS, rewrite=True
        )
        counts = lane_counts(plans)
        assert set(counts) == set(LANES)
        for lane in LANES:
            assert counts[lane] >= 1, counts
        assert report.ok

    def test_corpus_refined_bounded_by_worst(self):
        plans, _ = plan_queries(query_corpus(), limits=LIMITS)
        for name, plan in plans.items():
            if plan.sigma_worst is not None:
                assert plan.sigma_refined is not None
                assert plan.sigma_refined <= plan.sigma_worst, name

    def test_lane_counts_always_lists_all_lanes(self):
        assert set(lane_counts({})) == set(LANES)
