"""Property tests: unparse/parse round-trips and linter idempotence.

Both properties run over the seeded random-query corpus of
:mod:`repro.rpeq.generate`, the same generator the differential tests
use, so they cover every AST construct the grammar can produce.
"""

import random

from repro.analysis import lint_query
from repro.rpeq.generate import GeneratorConfig, random_rpeq
from repro.rpeq.parser import parse
from repro.rpeq.unparse import unparse

from ..conftest import simplify

SEEDS = range(200)


def corpus():
    for seed in SEEDS:
        yield random_rpeq(random.Random(seed))
    config = GeneratorConfig(allow_qualifiers=False)
    for seed in SEEDS:
        yield random_rpeq(random.Random(seed), config)


class TestRoundTrip:
    def test_unparse_then_parse_is_identity(self):
        for expr in corpus():
            text = unparse(expr)
            assert parse(text) == expr, text


class TestLinterIdempotence:
    def test_simplify_never_introduces_findings(self):
        # Each structural lint rule mirrors one rewrite rule, so the
        # rewritten query's findings are a subset of the original's.
        for expr in corpus():
            before = lint_query(expr).codes()
            after = lint_query(simplify(expr)).codes()
            assert after <= before, unparse(expr)

    def test_linting_is_stable(self):
        for expr in corpus():
            first = lint_query(expr)
            second = lint_query(expr)
            assert first.to_json() == second.to_json()

    def test_simplified_corpus_is_structurally_clean(self):
        structural = {"RPQ001", "RPQ002", "RPQ003", "RPQ004", "RPQ005", "RPQ006"}
        for expr in corpus():
            found = lint_query(simplify(expr)).codes()
            assert not (found & structural), unparse(expr)
