"""Tests for the load harness (small, deterministic scenarios)."""

import pytest

from repro.service.loadgen import (
    LoadConfig,
    load_documents,
    load_subscriptions,
    percentile,
    run_load,
)
from repro.service.server import ServiceConfig
from repro.xmlstream.events import EndDocument, StartDocument


class TestPercentile:
    def test_empty_sample_is_zero(self):
        assert percentile([], 99.0) == 0.0

    def test_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50.0) == 20.0
        assert percentile(values, 100.0) == 40.0
        assert percentile(values, 1.0) == 10.0

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestGenerators:
    def test_documents_deterministic_in_seed(self):
        config = LoadConfig(subscribers=2, documents=3, seed=11)
        assert load_documents(config) == load_documents(config)
        other = LoadConfig(subscribers=2, documents=3, seed=12)
        assert load_documents(config) != load_documents(other)

    def test_documents_are_documents(self):
        for document in load_documents(LoadConfig(subscribers=1, documents=4)):
            assert isinstance(document[0], StartDocument)
            assert isinstance(document[-1], EndDocument)

    def test_subscriptions_partitioned(self):
        config = LoadConfig(subscribers=3, queries_per_subscriber=2)
        per_sub = load_subscriptions(config)
        assert len(per_sub) == 3
        assert all(len(queries) == 2 for queries in per_sub)
        flat = [qid for queries in per_sub for qid, _ in queries]
        assert len(set(flat)) == len(flat)  # no query id collisions

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoadConfig(subscribers=0)
        with pytest.raises(ValueError):
            LoadConfig(subscribers=2, slow_subscribers=2, disconnect_subscribers=1)


class TestRunLoad:
    def test_small_load_drains_cleanly_with_matches(self):
        report, service = run_load(
            LoadConfig(subscribers=4, documents=6, doc_elements=16, seed=5),
            ServiceConfig(tick=0.005, heartbeat_interval=None),
        )
        assert service is not None
        assert report.drained_cleanly
        assert report.documents_sent == 6
        assert report.events_sent > 0
        assert report.total_matches > 0
        assert len(report.latencies) == report.total_matches
        assert report.p50_latency <= report.p99_latency
        assert report.events_per_second > 0
        assert service.stats.documents_ingested == 6
        assert not service.degraded

    def test_chaos_modes_do_not_break_the_run(self):
        report, service = run_load(
            LoadConfig(
                subscribers=5,
                documents=8,
                doc_elements=16,
                seed=9,
                slow_subscribers=1,
                slow_delay=0.001,
                disconnect_subscribers=1,
                disconnect_after_matches=1,
                abusive_producer=True,
                abusive_documents=3,
            ),
            ServiceConfig(tick=0.005, heartbeat_interval=None),
        )
        assert service is not None
        assert report.drained_cleanly
        # the abusive producer's junk all earned wire errors
        assert report.abusive_rejections >= 3
        # and never shifted the honest stream's indices
        assert service.stats.documents_ingested == 8
        disconnected = [s for s in report.subscribers if s.disconnected]
        assert len(disconnected) == 1
        survivors = [s for s in report.subscribers if not s.disconnected]
        assert any(s.matches for s in survivors)

    def test_wal_backed_service_ingests_every_document_sent(self, tmp_path):
        """The producer reads every ``ingested`` ack before it closes: a
        close over unread acks reset the connection under the frames
        still in flight, and 10 of these 400 documents arrived."""
        config = LoadConfig(subscribers=4, documents=400, doc_elements=200)
        report, service = run_load(
            config, ServiceConfig(wal_path=str(tmp_path / "wal"))
        )
        assert service is not None
        assert service.stats.documents_ingested == 400
        assert report.documents_ingested == report.documents_sent == 400
        assert report.drained_cleanly
        plain, _service = run_load(config, ServiceConfig())
        assert plain.documents_ingested == 400
        assert report.total_matches == plain.total_matches
