"""Every metric the benchmark reports: name -> (unit, which way is better).

``BENCHMARK.json`` at the repository root lists the same names; a test
keeps the two in step.  The regression bound of each end-to-end metric
lives in ``BENCHMARK.json`` only.
"""

from __future__ import annotations

#: What a user of the system sees.  Every workload reports all six.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "throughput_ev_s": ("events/s", "higher"),
    "cpu_s_per_mev": ("s/Mev", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "delivery_p50_ms": ("ms", "lower"),
    "delivery_p90_ms": ("ms", "lower"),
}

#: One layer each, from the traced pass.  ``EXACT`` names the counts
#: that depend on the seed alone and must repeat bit for bit.
PER_LAYER: dict[str, tuple[str, str]] = {
    "xmlstream.parser.ev_s": ("events/s", "higher"),
    "xmlstream.parser.busy_s": ("s", "lower"),
    "xmlstream.parser.events": ("count", "lower"),
    "xmlstream.parser.bytes": ("bytes", "lower"),
    "rpeq.parser.busy_s": ("s", "lower"),
    "analysis.planner.busy_s": ("s", "lower"),
    "analysis.preflight.busy_s": ("s", "lower"),
    "core.compiler.busy_s": ("s", "lower"),
    "core.fastlane.dfa.ev_s": ("events/s", "higher"),
    "core.fastlane.hybrid.ev_s": ("events/s", "higher"),
    "core.fastlane.states": ("count", "lower"),
    "core.fastlane.saturated_steps": ("count", "lower"),
    "core.fastlane.demotions": ("count", "lower"),
    "core.network.gated.ev_s": ("events/s", "higher"),
    "core.network.plain.ev_s": ("events/s", "higher"),
    "core.network.reference.ev_s": ("events/s", "higher"),
    "core.network.gate_gain_ratio": ("ratio", "higher"),
    "core.network.messages": ("count", "lower"),
    "core.network.max_stack": ("count", "lower"),
    "core.network.max_formula_size": ("count", "lower"),
    "core.output_tx.emit_delay_events_p50": ("events", "lower"),
    "core.output_tx.emit_delay_events_max": ("events", "lower"),
    "core.output_tx.fragment_bytes": ("bytes", "lower"),
    "core.output_tx.collect_cost_ratio": ("ratio", "lower"),
    "xmlstream.serializer.mb_s": ("MB/s", "higher"),
    "core.multiquery.run.ev_s": ("events/s", "higher"),
    "core.multiquery.serve.ev_s": ("events/s", "higher"),
    "core.multiquery.pump.ev_s": ("events/s", "higher"),
    "core.multiquery.matches": ("count", "higher"),
    "core.shards.ev_s": ("events/s", "higher"),
    "core.shards.overhead_ratio": ("ratio", "lower"),
    "core.shards.spawn_s": ("s", "lower"),
    "core.shards.restarts": ("count", "lower"),
    "service.protocol.decode_ev_s": ("events/s", "higher"),
    "service.protocol.encode_us_per_match": ("us", "lower"),
    "service.protocol.bytes_in": ("bytes", "lower"),
    "service.protocol.bytes_out": ("bytes", "lower"),
    "service.wal.append_us_per_match": ("us", "lower"),
    "service.wal.fsync_ms_p50": ("ms", "lower"),
    "service.wal.bytes_per_match": ("bytes", "lower"),
    "service.server.ingest_ack_ms_p50": ("ms", "lower"),
    "service.server.backlog_docs_max": ("count", "lower"),
    "service.server.cpu_s": ("s", "lower"),
    "service.server.exit_code": ("code", "lower"),
    "service.server.rate40.delivery_p90_ms": ("ms", "lower"),
    "service.server.rate60.delivery_p90_ms": ("ms", "lower"),
    "service.server.sustainable_docs_s": ("docs/s", "higher"),
    "loadgen.late_ms_p99": ("ms", "lower"),
    "loadgen.cpu_s": ("s", "lower"),
    # the two that depend on the workload traced, not on the ladder
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.attributed_share": ("ratio", "higher"),
}

EXACT = frozenset({
    "xmlstream.parser.events",
    "xmlstream.parser.bytes",
    "core.fastlane.states",
    "core.fastlane.saturated_steps",
    "core.fastlane.demotions",
    "core.network.messages",
    "core.network.max_stack",
    "core.network.max_formula_size",
    "core.output_tx.emit_delay_events_p50",
    "core.output_tx.emit_delay_events_max",
    "core.output_tx.fragment_bytes",
    "core.multiquery.matches",
    "core.shards.restarts",
    "service.protocol.bytes_in",
    "service.protocol.bytes_out",
    "service.wal.bytes_per_match",
    "service.server.exit_code",
})
