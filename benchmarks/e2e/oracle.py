"""The semantics oracle: what each subscription must deliver, by DOM evaluation.

``repro.baselines.dom_eval.DomEvaluator`` materializes the tree and
transcribes the declarative rpeq semantics; it shares no code with the
streaming engine.  It is slow (about a second per query per 300 k events,
and quadratic on ``following::`` from many context nodes), so the check
runs once per invocation, untimed, on inputs an ``ORACLE_DIVISOR``-th the
size, through the same path the workload uses.
"""

from __future__ import annotations

from repro.baselines.dom_eval import DomEvaluator
from repro.rpeq.parser import parse
from repro.xmlstream.parser import parse_file
from repro.xmlstream.tree import Node, build_document

from workloads import Workload


def _fragment(node: Node) -> str:
    """Markup of a subtree, written here so the oracle does not lean on
    the serializer it is checking (generated inputs carry no text)."""
    inner = "".join(_fragment(child) for child in node.children)
    return f"<{node.label}>{inner}</{node.label}>"


def expected_matches(workload: Workload, paths: list[str]) -> dict[str, list[str]]:
    """Per query, the sink lines (minus the query id) a correct run delivers.

    Positions count start tags across the whole stream, as the engine's
    do, so each document's positions are offset by the elements before it.
    """
    evaluators = {
        sub.id: DomEvaluator(parse(sub.query)) for sub in workload.subscriptions
    }
    expected: dict[str, list[str]] = {query_id: [] for query_id in evaluators}
    offset = 0
    for path in paths:
        document = build_document(parse_file(path))
        for query_id, evaluator in evaluators.items():
            for node in evaluator.evaluate_document(document):
                line = f"{node.position + offset}\t{node.label}"
                if workload.collect_events:
                    line += "\t" + _fragment(node)
                expected[query_id].append(line)
        offset += document.size
    return expected
