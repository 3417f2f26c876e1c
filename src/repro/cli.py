"""Command-line interface: ``spex`` (or ``python -m repro``).

Subcommands::

    spex query QUERY [FILE]          evaluate an rpeq against a file/stdin
    spex serve QUERY... [--file F]   multi-query serving with bulkheads,
                                     breakers, deadlines, admission
    spex xpath XPATH [FILE]          same, with an XPath front-end
    spex cq CQ [FILE]                evaluate a conjunctive query
    spex explain QUERY               show the compiled transducer network
    spex analyze [QUERY]             static analysis: lint, verify, certify
    spex stats FILE                  stream statistics (size, depth, labels)

With no FILE, the XML document is read from stdin — so the tool composes
with pipes the way a stream processor should::

    generate_feed | spex query '_*.trade[alert].price'
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Iterable, Iterator

from .core.engine import SpexEngine
from .cq.engine import CqEngine
from .errors import ReproError
from .limits import ResourceLimits
from .rpeq.xpath import xpath_to_rpeq
from .xmlstream.events import Event
from .xmlstream.parser import ParserLimits, iter_documents, parse_file, parse_stream
from .xmlstream.recovery import ErrorReport
from .xmlstream.stats import measure

if TYPE_CHECKING:
    from .core.serving import AdmissionPolicy, ServingPolicy

#: Process exit codes, uniform across every serving mode (in-process,
#: ``--shards N``, ``--listen``): 0 = clean, 1 = fatal error, 2 = usage,
#: 3 = completed but degraded (shed/deadline/quarantine/forced close).
EXIT_OK = 0
EXIT_FATAL = 1
EXIT_USAGE = 2
EXIT_DEGRADED = 3


def _events_from(path: str | None) -> Iterator[Event]:
    if path is None:
        return parse_stream(sys.stdin.buffer)
    return parse_file(path)


def _serve_source(
    files: list[str],
    limits: ParserLimits | None,
    report: ErrorReport | None = None,
) -> str | Iterable[Event]:
    """``spex serve``'s stream: stdin, one file, or the files as one
    stream of documents, where one that fails to parse is a record in
    ``report`` (given where a policy recovers) and the list ends cut."""
    if not files:
        return parse_stream(sys.stdin.buffer, limits=limits)
    if len(files) == 1:
        return files[0]
    return iter_documents(files, limits=limits, report=report)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _limits_from(args: argparse.Namespace) -> ResourceLimits | None:
    max_depth = getattr(args, "max_depth", None)
    max_buffered = getattr(args, "max_buffered", None)
    if max_depth is None and max_buffered is None:
        return None
    return ResourceLimits(max_depth=max_depth, max_buffered_events=max_buffered)


def _cmd_query(args: argparse.Namespace) -> int:
    on_error = getattr(args, "on_error", "strict")
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    resume = getattr(args, "resume", False)
    if getattr(args, "checkpoint_every", None) is not None and checkpoint_dir is None:
        print(
            "error: --checkpoint-every needs --checkpoint-dir to write the "
            "checkpoints to",
            file=sys.stderr,
        )
        return EXIT_USAGE
    supervisor = None
    if checkpoint_dir is not None or resume:
        import os

        from .core.checkpoint import Checkpoint
        from .core.supervisor import (
            CHECKPOINT_FILENAME,
            Supervisor,
            SupervisorConfig,
        )

        if args.file is None:
            print(
                "error: --checkpoint-dir/--resume need a FILE argument "
                "(stdin cannot be re-read on resume)",
                file=sys.stderr,
            )
            return EXIT_USAGE
        if on_error != "strict":
            print(
                "error: checkpointing requires --on-error strict",
                file=sys.stderr,
            )
            return EXIT_USAGE
        if resume and checkpoint_dir is None:
            print(
                "error: --resume needs --checkpoint-dir to find the "
                "checkpoint file",
                file=sys.stderr,
            )
            return EXIT_USAGE
        checkpoint = None
        if resume:
            checkpoint = Checkpoint.load(
                os.path.join(checkpoint_dir, CHECKPOINT_FILENAME)
            )
            # Rebuild the engine exactly as the checkpoint requires, so
            # resume compatibility is guaranteed.
            engine = SpexEngine.from_checkpoint(
                checkpoint, limits=_limits_from(args)
            )
        else:
            engine = SpexEngine(
                args.query, collect_events=not args.count, limits=_limits_from(args)
            )
        config = SupervisorConfig(
            checkpoint_dir=checkpoint_dir,
            checkpoint_every_events=getattr(args, "checkpoint_every", None),
        )
        supervisor = Supervisor(engine, lambda: args.file, config=config)
        matches = supervisor.run(checkpoint)
        report = ErrorReport()
    else:
        engine = SpexEngine(
            args.query, collect_events=not args.count, limits=_limits_from(args)
        )
        report = ErrorReport()
        matches = engine.run(
            _events_from(args.file), on_error=on_error, report=report
        )
    matched = 0
    for match in matches:
        matched += 1
        if not args.count:
            print(f"-- match {matched} (position {match.position}, <{match.label}>)")
            print(match.to_xml())
    if args.count:
        print(matched)
    else:
        print(f"-- {matched} match(es)")
    if getattr(args, "stats", False):
        print("-- engine statistics")
        print(engine.stats.summary())
    if not report.ok:
        print(f"-- recovered: {report.summary()}", file=sys.stderr)
    if supervisor is not None:
        counters = engine.robustness
        summary = supervisor.report
        print(
            f"-- recovery: {summary.connects} connect(s), "
            f"{counters.retries} retr(y/ies), "
            f"{counters.stalls_detected} stall(s), "
            f"{counters.checkpoints_written} checkpoint(s) written, "
            f"{counters.restores} restore(s)",
            file=sys.stderr,
        )
        if summary.last_checkpoint_path is not None:
            print(
                f"-- checkpoint: {summary.last_checkpoint_path} "
                f"(position {supervisor._checkpointed_position})",
                file=sys.stderr,
            )
    return 0


def _report_outcomes(outcomes: dict) -> bool:
    """Print unhealthy/degraded query outcomes to stderr.

    Shared by all three serving modes so their stderr shape and the
    clean/degraded exit-code decision stay uniform.  Returns ``True``
    when anything warranted :data:`EXIT_DEGRADED`.
    """
    degraded = False
    for query_id, outcome in sorted(outcomes.items()):
        # a clean close (unsubscribe, orderly disconnect) is normal
        # lifecycle, not degradation — only flag it if it was forced
        clean = outcome.healthy or (
            outcome.status == "closed" and outcome.code is None
        )
        if clean and not outcome.degraded:
            continue
        degraded = True
        detail = f"--   {query_id}: {outcome.status}"
        if outcome.code is not None:
            detail += f" [{outcome.code}]"
        if outcome.reason is not None:
            detail += f" {outcome.reason}"
        print(detail, file=sys.stderr)
    return degraded


def _cmd_serve(args: argparse.Namespace) -> int:
    from .core.multiquery import MultiQueryEngine
    from .core.serving import AdmissionPolicy, ServingPolicy

    queries: dict[str, str] = {}
    for index, spec in enumerate(args.queries, 1):
        if "=" in spec:
            query_id, _, text = spec.partition("=")
        else:
            query_id, text = f"q{index}", spec
        if query_id in queries:
            print(f"error: duplicate query id {query_id!r}", file=sys.stderr)
            return EXIT_USAGE
        queries[query_id] = text
    if args.listen is None and not queries:
        print(
            "error: at least one QUERY is required (queries arrive over "
            "the wire only in --listen mode)",
            file=sys.stderr,
        )
        return EXIT_USAGE

    admission = None
    if args.admission is not None:
        hard, _, soft = args.admission.partition(":")
        try:
            admission = AdmissionPolicy(
                reject_sigma=int(hard),
                degrade_sigma=int(soft) if soft else None,
                depth_bound=getattr(args, "max_depth", None),
            )
        except ValueError as exc:
            print(f"error: bad --admission value: {exc}", file=sys.stderr)
            return EXIT_USAGE

    priorities: dict[str, int] = {}
    for spec in args.priority or ():
        query_id, _, value = spec.partition("=")
        try:
            if query_id not in queries:
                raise ValueError(query_id)
            priorities[query_id] = int(value)
        except ValueError:
            print(f"error: bad --priority {spec!r} (want ID=N)", file=sys.stderr)
            return EXIT_USAGE

    policy = ServingPolicy(
        quarantine=args.quarantine != "off",
        stream_deadline=(
            args.deadline_ms / 1000.0 if args.deadline_ms is not None else None
        ),
        doc_deadline=(
            args.doc_deadline_ms / 1000.0
            if args.doc_deadline_ms is not None
            else None
        ),
        shed_buffered_events=args.shed_buffered,
        priorities=priorities,
    )
    parser_limits = ParserLimits.default() if args.harden else None
    if args.listen is not None:
        return _serve_listen(args, queries, policy, admission)
    if args.shards > 1:
        return _serve_sharded(args, queries, policy, admission, parser_limits)
    engine = MultiQueryEngine(
        queries,
        collect_events=not args.count,
        limits=_limits_from(args),
        admission=admission,
    )
    report = ErrorReport()
    on_error = args.on_error if args.on_error is not None else "skip"
    recovers = report if on_error != "strict" else None
    matches = engine.serve(
        _serve_source(args.file or [], parser_limits, recovers),
        policy=policy,
        on_error=on_error,
        report=report,
        parser_limits=parser_limits,
    )
    counts: dict[str, int] = {}
    total = 0
    for query_id, match in matches:
        counts[query_id] = counts.get(query_id, 0) + 1
        total += 1
        if not args.count:
            print(
                f"-- {query_id}: match {counts[query_id]} "
                f"(position {match.position}, <{match.label}>)"
            )
            print(match.to_xml())
    if args.count:
        for query_id in queries:
            print(f"{query_id}\t{counts.get(query_id, 0)}")
    else:
        print(f"-- {total} match(es) across {len(queries)} quer(y/ies)")
    serving = engine.serving
    print(f"-- serving: {serving.summary()}", file=sys.stderr)
    degraded_exit = _report_outcomes(serving.outcomes)
    if not report.ok:
        print(f"-- recovered: {report.summary()}", file=sys.stderr)
    return EXIT_DEGRADED if degraded_exit else EXIT_OK


def _serve_listen(
    args: argparse.Namespace,
    queries: dict[str, str],
    policy: ServingPolicy,
    admission: AdmissionPolicy | None,
) -> int:
    """``spex serve --listen HOST:PORT``: the asyncio network frontend."""
    import asyncio
    import signal

    from .service.server import ServiceConfig, SpexService

    if queries:
        print(
            "error: --listen takes queries from subscribers over the "
            "wire, not from the command line",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.shards > 1:
        print("error: --listen and --shards are exclusive", file=sys.stderr)
        return EXIT_USAGE
    if args.file:
        print(
            "error: --listen ingests documents from producer "
            "connections, not --file",
            file=sys.stderr,
        )
        return EXIT_USAGE
    host, sep, port_text = args.listen.rpartition(":")
    try:
        port = int(port_text)
        if not sep or not host or not 0 <= port <= 65535:
            raise ValueError(port_text)
    except ValueError:
        print(
            f"error: bad --listen address {args.listen!r} (want HOST:PORT; "
            "port 0 binds an ephemeral port)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.resume and args.wal_file is None:
        print(
            "error: --resume needs --wal-file (the write-ahead log is "
            "what makes the resume exact)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        config = ServiceConfig(
            host=host,
            port=port,
            serving=policy,
            admission=admission,
            limits=_limits_from(args),
            overflow=args.overflow,
            subscriber_queue=args.queue_size,
            checkpoint_path=args.checkpoint_file,
            checkpoint_every_documents=args.checkpoint_every_docs,
            checkpoint_keep=args.checkpoint_keep,
            wal_path=args.wal_file,
            wal_fsync_documents=args.wal_fsync_docs,
            resume=args.resume,
            max_subscriptions_per_tenant=args.tenant_budget,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    async def _run() -> SpexService:
        service = SpexService(config)
        bound_host, bound_port = await service.start()
        # announced (and flushed) before serving so a supervisor — or a
        # test — can discover an ephemeral port by reading one line
        print(f"-- listening on {bound_host}:{bound_port}", flush=True)
        if service.resumed:
            print(
                f"-- resumed: {service.committed_documents} committed "
                f"document(s), {service.session_count} durable "
                f"session(s)",
                file=sys.stderr,
            )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, service.request_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await service.serve_until_done()
        return service

    try:
        service = asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - handler install raced
        # SIGINT is a drain request, exactly like SIGTERM.  The asyncio
        # handler normally swallows it; this fallback covers the narrow
        # window before it is installed (or platforms without
        # add_signal_handler) — still no traceback, a normalized code.
        print("-- interrupted before a graceful drain could run", file=sys.stderr)
        return EXIT_FATAL
    serving = service.engine.serving
    stats = service.stats
    print(f"-- serving: {serving.summary()}", file=sys.stderr)
    print(
        f"-- service: {stats.connections} connection(s), "
        f"{stats.documents_ingested} document(s) ingested, "
        f"{stats.documents_rejected} rejected, "
        f"{stats.frames_shed} frame(s) shed, "
        f"{stats.forced_disconnects} forced disconnect(s), "
        f"{stats.checkpoints_written} checkpoint(s) written",
        file=sys.stderr,
    )
    degraded_exit = _report_outcomes(serving.outcomes)
    return EXIT_DEGRADED if degraded_exit or service.degraded else EXIT_OK


def _serve_sharded(
    args: argparse.Namespace,
    queries: dict[str, str],
    policy: ServingPolicy,
    admission: AdmissionPolicy | None,
    parser_limits: ParserLimits | None,
) -> int:
    """``spex serve --shards N``: crash-isolated multi-process serving."""
    from .core.shards import ShardCoordinator, ShardConfig

    if args.on_error not in (None, "strict"):
        # Only warn when the user *asked* for a non-strict policy; the
        # serve default (skip) silently becomes strict under shards.
        print(
            "-- shards: per-shard checkpoints require strict parsing; "
            f"--on-error {args.on_error} ignored",
            file=sys.stderr,
        )
    try:
        config = ShardConfig(
            shards=args.shards,
            heartbeat_timeout=args.heartbeat_ms / 1000.0,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    coordinator = ShardCoordinator(
        queries,
        config=config,
        policy=policy,
        collect_events=not args.count,
        limits=_limits_from(args),
        admission=admission,
        parser_limits=parser_limits,
    )
    result = coordinator.run(_serve_source(args.file or [], parser_limits))
    total = 0
    for query_id in queries:
        for index, match in enumerate(result.matches[query_id], 1):
            total += 1
            if not args.count:
                print(
                    f"-- {query_id}: match {index} "
                    f"(position {match.position}, <{match.label}>)"
                )
                print(match.to_xml())
    if args.count:
        for query_id in queries:
            print(f"{query_id}\t{len(result.matches[query_id])}")
    else:
        print(f"-- {total} match(es) across {len(queries)} quer(y/ies)")
    print(f"-- shards: {result.summary()}", file=sys.stderr)
    for entry in result.shard_log:
        print(
            f"--   shard {entry.shard}#{entry.incarnation} "
            f"[{entry.code}] {entry.detail}",
            file=sys.stderr,
        )
    degraded_exit = _report_outcomes(result.report.outcomes)
    return EXIT_DEGRADED if degraded_exit else EXIT_OK


def _cmd_xpath(args: argparse.Namespace) -> int:
    expr = xpath_to_rpeq(args.xpath)
    args.query = expr
    return _cmd_query(args)


def _cmd_cq(args: argparse.Namespace) -> int:
    engine = CqEngine(args.cq, collect_events=not args.count)
    counts: dict[str, int] = {}
    for variable, match in engine.run(_events_from(args.file)):
        counts[variable] = counts.get(variable, 0) + 1
        if not args.count:
            print(f"-- {variable} (position {match.position}, <{match.label}>)")
            print(match.to_xml())
    for variable in engine.query.head:
        print(f"-- {variable}: {counts.get(variable, 0)} binding(s)")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    engine = SpexEngine(args.query)
    print(engine.describe_network())
    print(f"-- network degree: {engine.network_degree()}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .core.trace import trace_run

    print(trace_run(args.query, _events_from(args.file)))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from .analysis import all_codes, preflight, verify_network
    from .core.compiler import compile_network
    from .rpeq.parser import parse

    if args.list_codes:
        for code, info in all_codes().items():
            print(f"{code}  {info.severity.label:<7}  [{info.source}]  {info.title}")
        return 0

    if args.workloads:
        from .workloads import query_corpus

        targets = list(query_corpus().items())
    elif args.query is not None:
        targets = [("query", args.query)]
    else:
        print("error: give a QUERY, --workloads, or --list-codes", file=sys.stderr)
        return EXIT_USAGE

    dtd = None
    if args.dtd is not None:
        from .dtd import parse_dtd

        with open(args.dtd, "r", encoding="utf-8") as handle:
            dtd = parse_dtd(handle.read())

    limits = None
    if args.max_depth is not None or args.max_formula_size is not None:
        limits = ResourceLimits(
            max_depth=args.max_depth, max_formula_size=args.max_formula_size
        )

    if args.rewrite and not args.plan:
        print("error: --rewrite requires --plan", file=sys.stderr)
        return EXIT_USAGE
    if args.check_lanes and not args.plan:
        print("error: --check-lanes requires --plan", file=sys.stderr)
        return EXIT_USAGE
    if args.sample is not None and not args.plan:
        print("error: --sample requires --plan", file=sys.stderr)
        return EXIT_USAGE

    reports = {
        name: preflight(text, limits=limits, dtd=dtd) for name, text in targets
    }
    for name, text in targets:  # the compiler's check, which pre-flight skips
        network, _store = compile_network(parse(text), limits=limits)
        verify_network(network, report=reports[name])
    plans = {}
    if args.plan:
        from .analysis import factor_common_prefixes, lane_counts, plan_query

        for name, text in targets:
            plans[name], _ = plan_query(
                text,
                limits=limits,
                dtd=dtd,
                rewrite=args.rewrite,
                report=reports[name],
            )
        if len(targets) > 1:
            # Shared-prefix groups (RWR010) land on the first report so
            # the JSON stays keyed per query.
            factor_common_prefixes(dict(targets), report=reports[targets[0][0]])
    failed = any(not report.ok for report in reports.values())

    gate_counts: dict[str, tuple[int, int]] = {}
    if args.sample is not None:
        # The gate's selectivity is a property of (query, stream): run
        # the planned lanes over the sample and read the counters.
        from .core.multiquery import MultiQueryEngine

        engine = MultiQueryEngine(
            dict(targets), preflight=False, rewrite=args.rewrite
        )
        for _ in engine.run(args.sample):
            pass
        gate_counts = engine.gate_counts

    lane_problems: list[str] = []
    if args.check_lanes:
        from .analysis import check_lane_coverage

        lane_problems = check_lane_coverage(
            {
                name: {
                    "analysis": report.to_obj(),
                    "plan": plans[name].to_obj(),
                }
                for name, report in reports.items()
            }
        )

    if args.json:
        if args.plan:
            payload = {
                name: {
                    "analysis": report.to_obj(),
                    "plan": plans[name].to_obj(),
                }
                for name, report in reports.items()
            }
            for name, (fed, parked) in gate_counts.items():
                payload[name]["gate"] = {"fed": fed, "parked": parked}
        else:
            payload = {name: report.to_obj() for name, report in reports.items()}
        print(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False))
    else:
        for name, report in reports.items():
            if len(targets) > 1 and (len(report) or not report.ok):
                print(f"== {name}")
            if len(targets) == 1 or len(report) or not report.ok:
                print(report.render())
        if args.plan:
            for name, plan in plans.items():
                sigma = "∞" if plan.sigma_refined is None else plan.sigma_refined
                worst = "∞" if plan.sigma_worst is None else plan.sigma_worst
                line = (
                    f"-- plan {name}: lane={plan.lane} σ̂={sigma} "
                    f"(worst {worst}) prefix={plan.prefix or 'ε'} "
                    f"rewrites={plan.rewrite_steps}"
                )
                if plan.residual is not None:
                    line += f" residual={plan.residual}"
                if name in gate_counts:
                    fed, parked = gate_counts[name]
                    line += f" gate: fed={fed} parked={parked}"
                print(line)
            counts = lane_counts(plans)
            print(
                "-- lanes: "
                + ", ".join(f"{lane}={n}" for lane, n in counts.items())
            )
        clean = sum(1 for report in reports.values() if report.ok)
        print(f"-- {clean}/{len(reports)} quer(y/ies) clean")
    for problem in lane_problems:
        print(f"lane check: {problem}", file=sys.stderr)
    return 1 if failed or lane_problems else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = measure(_events_from(args.file))
    print(f"messages        : {stats.messages}")
    print(f"elements        : {stats.elements}")
    print(f"max depth       : {stats.max_depth}")
    print(f"distinct labels : {stats.distinct_labels}")
    print(f"text bytes      : {stats.text_bytes}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spex",
        description="Streamed evaluation of regular path expressions "
        "with qualifiers against XML streams (SPEX reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="evaluate an rpeq query")
    query.add_argument("query", help="rpeq, e.g. '_*.a[b].c'")
    query.add_argument("file", nargs="?", help="XML file (default: stdin)")
    query.add_argument("--count", action="store_true", help="print only the match count")
    query.add_argument(
        "--stats", action="store_true", help="print the engine's resource profile"
    )
    query.add_argument(
        "--on-error",
        choices=["strict", "skip", "repair"],
        default="strict",
        dest="on_error",
        help="recovery policy for malformed documents: strict aborts "
        "with a nonzero exit (default), skip quarantines the bad "
        "document, repair fixes the stream in flight",
    )
    query.add_argument(
        "--max-depth",
        type=_positive_int,
        metavar="N",
        dest="max_depth",
        help="abort (strict) or skip the document when stream nesting "
        "exceeds N (depth-bomb guard, checked once per event)",
    )
    query.add_argument(
        "--max-buffered",
        type=_positive_int,
        metavar="N",
        dest="max_buffered",
        help="cap the output transducer's event buffer at N events",
    )
    query.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        dest="checkpoint_dir",
        help="run supervised and keep a rolling, atomically-replaced "
        "checkpoint file in DIR (requires FILE; strict mode only)",
    )
    query.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        metavar="N",
        dest="checkpoint_every",
        help="checkpoint every N processed events (with --checkpoint-dir)",
    )
    query.add_argument(
        "--resume",
        action="store_true",
        help="resume from the checkpoint in --checkpoint-dir instead of "
        "re-reading the stream from the start; the query and options "
        "are restored from the checkpoint",
    )
    query.set_defaults(func=_cmd_query)

    serve = sub.add_parser(
        "serve",
        help="evaluate many queries in one pass with bulkhead isolation, "
        "circuit breakers, deadlines and admission control",
        description="Exit codes are uniform across all serving modes "
        "(in-process, --shards N, --listen): 0 clean, 1 fatal, 2 usage, "
        "3 completed but degraded (shed/deadline/quarantine/forced "
        "disconnect).",
    )
    serve.add_argument(
        "queries",
        nargs="*",
        metavar="QUERY",
        help="rpeq queries, optionally named as ID=RPEQ (default ids: "
        "q1, q2, ...); required except with --listen, where subscribers "
        "register queries over the wire",
    )
    serve.add_argument(
        "--file",
        action="append",
        metavar="FILE",
        help="XML document file; repeatable — several files form one "
        "multi-document stream (default: stdin)",
    )
    serve.add_argument(
        "--count", action="store_true", help="print one 'id<TAB>count' line per query"
    )
    serve.add_argument(
        "--on-error",
        choices=["strict", "skip", "repair"],
        default=None,
        dest="on_error",
        help="recovery policy for malformed documents (default: skip — "
        "serving favours survival over strictness; sharded serving "
        "always runs strict)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=_positive_int,
        metavar="MS",
        dest="deadline_ms",
        help="wall-clock budget for the whole pass; expiry detaches every "
        "query with a DEADLINE_STREAM outcome, never a global abort",
    )
    serve.add_argument(
        "--doc-deadline-ms",
        type=_positive_int,
        metavar="MS",
        dest="doc_deadline_ms",
        help="wall-clock budget per document; expired queries rejoin at "
        "the next document boundary",
    )
    serve.add_argument(
        "--admission",
        metavar="SIGMA[:SOFT]",
        help="admission control: reject queries whose certified σ̂ bound "
        "exceeds SIGMA; with :SOFT, queries between SOFT and SIGMA are "
        "admitted with degraded buffer ceilings (uses --max-depth as "
        "the certification depth bound)",
    )
    serve.add_argument(
        "--quarantine",
        choices=["on", "off"],
        default="on",
        help="bulkhead isolation: 'on' (default) quarantines a failing "
        "query and keeps the rest streaming; 'off' lets the failure "
        "propagate",
    )
    serve.add_argument(
        "--shed-buffered",
        type=_positive_int,
        metavar="N",
        dest="shed_buffered",
        help="aggregate buffered-events high-water mark; crossing it "
        "sheds the lowest-priority queries (never the stream)",
    )
    serve.add_argument(
        "--priority",
        action="append",
        metavar="ID=N",
        help="shedding priority for one query (lower is shed first; "
        "default 0); repeatable",
    )
    serve.add_argument(
        "--harden",
        action="store_true",
        help="arm the untrusted-input parser ceilings (entity "
        "amplification, text/attribute/name lengths)",
    )
    serve.add_argument(
        "--max-depth",
        type=_positive_int,
        metavar="N",
        dest="max_depth",
        help="stream depth guard, checked once per event (every query "
        "keeps its lane), and the admission depth bound",
    )
    serve.add_argument(
        "--max-buffered",
        type=_positive_int,
        metavar="N",
        dest="max_buffered",
        help="cap each query's output buffer at N events",
    )
    serve.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        metavar="N",
        help="partition the subscriptions across N crash-isolated worker "
        "processes with supervised restart and poison-pill quarantine "
        "(default: 1 = in-process serving)",
    )
    serve.add_argument(
        "--heartbeat-ms",
        type=_positive_int,
        default=2000,
        metavar="MS",
        dest="heartbeat_ms",
        help="worker silence budget before a shard is declared stalled "
        "and restarted from its checkpoint (default: 2000; only with "
        "--shards > 1)",
    )
    serve.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default=None,
        help="run as a network service: producers push XML event "
        "streams, subscribers register queries and receive matches "
        "over NDJSON/TCP; port 0 binds an ephemeral port (announced "
        "on stdout); SIGTERM drains gracefully",
    )
    serve.add_argument(
        "--overflow",
        choices=["block", "shed_oldest", "disconnect"],
        default="block",
        help="--listen only: default policy when a subscriber's output "
        "queue fills — block (end-to-end backpressure), shed_oldest "
        "(lossy, SHED001 notices), disconnect (SVC006 bye); "
        "subscribers may override per connection",
    )
    serve.add_argument(
        "--queue-size",
        type=_positive_int,
        default=256,
        metavar="N",
        dest="queue_size",
        help="--listen only: default per-subscriber output queue bound "
        "(default: 256)",
    )
    serve.add_argument(
        "--checkpoint-file",
        metavar="FILE",
        dest="checkpoint_file",
        help="--listen only: write a document-boundary checkpoint here "
        "on graceful drain (resumable with the offline engine, or "
        "as a service with --resume)",
    )
    serve.add_argument(
        "--checkpoint-every-docs",
        type=_positive_int,
        default=None,
        metavar="N",
        dest="checkpoint_every_docs",
        help="--listen only: also checkpoint in the background every N "
        "committed documents, without stopping ingestion; needs "
        "--wal-file and --checkpoint-file (default: drain-only)",
    )
    serve.add_argument(
        "--checkpoint-keep",
        type=_positive_int,
        default=1,
        metavar="N",
        dest="checkpoint_keep",
        help="--listen only: checkpoint generations to retain (FILE, "
        "FILE.1, ...); load falls back to the newest one that "
        "verifies (default: 1)",
    )
    serve.add_argument(
        "--wal-file",
        metavar="FILE",
        dest="wal_file",
        help="--listen only: write-ahead match log enabling durable "
        "subscriber sessions (session tokens, per-subscription "
        "sequence numbers, exactly-once resume)",
    )
    serve.add_argument(
        "--wal-fsync-docs",
        type=_positive_int,
        default=1,
        metavar="N",
        dest="wal_fsync_docs",
        help="--listen only: fsync the WAL every N document markers "
        "(default: 1, every document)",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="--listen only: reconstruct the previous run's pump, "
        "subscriptions and durable sessions from --checkpoint-file + "
        "--wal-file before accepting connections",
    )
    serve.add_argument(
        "--tenant-budget",
        type=_positive_int,
        default=None,
        metavar="N",
        dest="tenant_budget",
        help="--listen only: cap concurrent subscriptions per tenant "
        "(excess rejected with SVC009)",
    )
    serve.set_defaults(func=_cmd_serve)

    xpath = sub.add_parser("xpath", help="evaluate a forward-fragment XPath")
    xpath.add_argument("xpath", help="XPath, e.g. '//country[province]/name'")
    xpath.add_argument("file", nargs="?", help="XML file (default: stdin)")
    xpath.add_argument("--count", action="store_true", help="print only the match count")
    xpath.set_defaults(func=_cmd_xpath)

    cq = sub.add_parser("cq", help="evaluate a conjunctive query")
    cq.add_argument("cq", help="e.g. 'q(X3) :- Root(_*.a) X1, X1(b) X2, X1(c) X3'")
    cq.add_argument("file", nargs="?", help="XML file (default: stdin)")
    cq.add_argument("--count", action="store_true", help="print only binding counts")
    cq.set_defaults(func=_cmd_cq)

    explain = sub.add_parser("explain", help="show the compiled network")
    explain.add_argument("query", help="rpeq query")
    explain.set_defaults(func=_cmd_explain)

    trace = sub.add_parser(
        "trace", help="show the per-transducer transition table (Fig. 4/5/13 style)"
    )
    trace.add_argument("query", help="rpeq query")
    trace.add_argument("file", nargs="?", help="XML file (default: stdin)")
    trace.set_defaults(func=_cmd_trace)

    analyze = sub.add_parser(
        "analyze",
        help="static analysis: lint the query, verify the compiled "
        "network, certify the d·σ memory bound (no stream needed)",
    )
    analyze.add_argument("query", nargs="?", help="rpeq query")
    analyze.add_argument(
        "--workloads",
        action="store_true",
        help="analyze the whole built-in workload query corpus instead "
        "of a single query (the CI gate)",
    )
    analyze.add_argument(
        "--dtd", metavar="FILE", help="DTD file to check satisfiability against"
    )
    analyze.add_argument(
        "--json",
        action="store_true",
        help="emit the report(s) as deterministic JSON",
    )
    analyze.add_argument(
        "--list-codes",
        action="store_true",
        dest="list_codes",
        help="print every registered diagnostic code and exit",
    )
    analyze.add_argument(
        "--plan",
        action="store_true",
        help="classify each query into an execution lane (lazy-DFA / "
        "hybrid / full network) with a refined per-query σ̂ bound",
    )
    analyze.add_argument(
        "--rewrite",
        action="store_true",
        help="with --plan: run the certified rewrite engine first; every "
        "applied rule carries a machine-checked equivalence certificate "
        "(a failed certificate is an ERROR and the rewrite is discarded)",
    )
    analyze.add_argument(
        "--check-lanes",
        action="store_true",
        dest="check_lanes",
        help="with --plan: validate the lane invariants CI gates on — "
        "all execution lanes exercised, refined σ̂ within the "
        "worst-case bound, every rewrite certificate discharged "
        "(nonzero exit on any problem)",
    )
    analyze.add_argument(
        "--sample",
        metavar="FILE",
        help="with --plan: run the planned lanes over this XML file and "
        "report, per gated query, how many events its residual network "
        "was fed and how many the DFA head withheld",
    )
    analyze.add_argument(
        "--max-depth",
        type=_positive_int,
        metavar="N",
        dest="max_depth",
        help="certify against a stream-depth bound of N",
    )
    analyze.add_argument(
        "--max-formula-size",
        type=_positive_int,
        metavar="N",
        dest="max_formula_size",
        help="fail if the certified σ bound exceeds N",
    )
    analyze.set_defaults(func=_cmd_analyze)

    stats = sub.add_parser("stats", help="stream statistics")
    stats.add_argument("file", nargs="?", help="XML file (default: stdin)")
    stats.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``spex`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
