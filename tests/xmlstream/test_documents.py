"""Unit tests for multi-document stream utilities."""

import itertools

import pytest

from repro.errors import StreamError
from repro.xmlstream.documents import concat_documents, count_documents, split_documents
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    Text,
)
from repro.xmlstream.parser import parse_string


def doc(label):
    return [StartDocument(), StartElement(label), EndElement(label), EndDocument()]


class TestSplitDocuments:
    def test_splits_into_envelopes(self):
        stream = doc("a") + doc("b") + doc("c")
        documents = [list(d) for d in split_documents(iter(stream))]
        assert len(documents) == 3
        assert documents[0] == doc("a")
        assert documents[2] == doc("c")

    def test_empty_stream(self):
        assert list(split_documents(iter([]))) == []

    def test_lazy_per_document(self):
        stream = iter(doc("a") + doc("b"))
        documents = split_documents(stream)
        first = next(documents)
        assert isinstance(next(first), StartDocument)
        # Abandon `first` partially consumed; the splitter must still
        # position correctly at the next document.
        second = list(next(documents))
        assert second == doc("b")

    def test_junk_between_documents_rejected(self):
        stream = doc("a") + [Text("junk")] + doc("b")
        documents = split_documents(iter(stream))
        list(next(documents))
        with pytest.raises(StreamError):
            next(documents)

    def test_truncated_document_rejected(self):
        def cut():  # as the parser hands over a truncated file
            yield from doc("a") + [StartDocument(), StartElement("b")]
            raise StreamError("no element found")

        documents = split_documents(cut())
        list(next(documents))
        with pytest.raises(StreamError):
            list(next(documents))

    def test_an_open_last_document_is_a_prefix(self):
        stream = doc("a") + [StartDocument(), StartElement("b")]
        documents = [list(d) for d in split_documents(iter(stream))]
        assert documents == [doc("a"), stream[4:]]

    def test_round_trip_with_concat(self):
        stream = doc("a") + doc("b")
        rebuilt = list(
            concat_documents(list(d) for d in split_documents(iter(stream)))
        )
        assert rebuilt == stream


class TestCountDocuments:
    def test_count(self):
        stream = doc("a") + doc("b") + doc("c")
        assert count_documents(iter(stream)) == 3
        assert count_documents(iter(stream + doc("d")[:2])) == 3  # d is open


class TestFilterStream:
    def test_per_document_verdicts(self):
        from repro.core.multiquery import MultiQueryEngine

        stream = (
            list(parse_string("<order><rush/></order>"))
            + list(parse_string("<order/>"))
            + list(parse_string("<note/>"))
        )
        engine = MultiQueryEngine({"rush": "order.rush", "orders": "order"})
        verdicts = list(engine.filter_stream(iter(stream)))
        assert verdicts == [
            {"rush": True, "orders": True},
            {"rush": False, "orders": True},
            {"rush": False, "orders": False},
        ]

    def test_unbounded_document_feed(self):
        """A never-ending feed of documents is filtered incrementally."""
        from repro.core.multiquery import MultiQueryEngine

        def endless():
            for index in itertools.count():
                label = "order" if index % 2 == 0 else "note"
                yield from parse_string(f"<{label}/>")

        engine = MultiQueryEngine({"orders": "order"})
        verdicts = engine.filter_stream(endless())
        first_four = list(itertools.islice(verdicts, 4))
        assert [v["orders"] for v in first_four] == [True, False, True, False]
