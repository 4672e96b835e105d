"""A string-driven front end mirroring the ``rai`` command-line tool.

The real client is "an interactive command line tool used for project job
submissions" (§I).  This class gives examples and tests the same surface::

    cli = RaiCLI(system, client)
    print(cli.run_command("rai run"))
    print(cli.run_command("rai submit"))
    print(cli.run_command("rai ranking"))
    print(cli.run_command("rai history"))
    print(cli.run_command("rai version"))

Output is returned as text (what the student would see in their
terminal).
"""

from __future__ import annotations

import shlex
from typing import List

from repro._version import build_info
from repro.core.client import RaiClient
from repro.core.job import JobKind, JobResult


class RaiCLI:
    """Parses ``rai <subcommand>`` strings and drives a client."""

    SUBCOMMANDS = ("run", "submit", "ranking", "history", "download",
                   "stats", "top", "trace", "slo", "alerts", "events",
                   "shards", "cache", "usage", "cost", "checkpoint",
                   "restore", "version", "help")

    def __init__(self, system, client: RaiClient):
        self.system = system
        self.client = client

    def run_command(self, command_line: str) -> str:
        tokens = shlex.split(command_line)
        if tokens and tokens[0] == "rai":
            tokens = tokens[1:]
        if not tokens:
            return self._help()
        subcommand, *args = tokens
        handler = getattr(self, f"_cmd_{subcommand}", None)
        if handler is None:
            return (f"rai: unknown subcommand {subcommand!r}\n"
                    + self._help())
        return handler(args)

    # -- subcommands ------------------------------------------------------

    def _cmd_run(self, args: List[str]) -> str:
        result = self.system.run(self.client.submit(JobKind.RUN))
        return self._render_result(result)

    def _cmd_submit(self, args: List[str]) -> str:
        result = self.system.run(self.client.submit(JobKind.SUBMIT))
        text = self._render_result(result)
        if result.rank is not None:
            text += f"\nYour team is currently ranked #{result.rank}.\n"
        return text

    def _cmd_ranking(self, args: List[str]) -> str:
        rows = self.client.check_ranking(limit=30)
        if not rows:
            return "No submissions recorded yet.\n"
        lines = [f"{'Rank':>4}  {'Team':<24} {'Time (s)':>10}"]
        for row in rows:
            marker = "  ← you" if row["is_you"] else ""
            lines.append(f"{row['rank']:>4}  {row['team']:<24} "
                         f"{row['internal_time']:>10.3f}{marker}")
        return "\n".join(lines) + "\n"

    def _cmd_history(self, args: List[str]) -> str:
        if not self.client.history:
            return "No jobs submitted in this session.\n"
        lines = [f"{'Job':<12} {'Status':<10} {'Queue(s)':>9} "
                 f"{'Total(s)':>9}"]
        for result in self.client.history:
            queue = (f"{result.queue_wait:.1f}"
                     if result.queue_wait is not None else "-")
            total = (f"{result.turnaround:.1f}"
                     if result.turnaround is not None else "-")
            lines.append(f"{result.job_id:<12} {result.status.value:<10} "
                         f"{queue:>9} {total:>9}")
        return "\n".join(lines) + "\n"

    def _cmd_download(self, args: List[str]) -> str:
        """``rai download [N]`` — fetch the Nth (default last) job's
        /build archive into the local project under ``build/``."""
        finished = [r for r in self.client.history
                    if r.build_url is not None]
        if not finished:
            return "No completed jobs with build output.\n"
        try:
            index = int(args[0]) - 1 if args else len(finished) - 1
            result = finished[index]
        except (ValueError, IndexError):
            return f"rai download: no such job (1..{len(finished)})\n"
        blob = self.client.download_build(result)
        if blob is None:
            return "rai download: build output expired\n"
        from repro.vfs import unpack_tree

        written = unpack_tree(blob, self.client.project_fs,
                              f"/build-{result.job_id}")
        return (f"downloaded {len(blob)} bytes; extracted "
                f"{len(written)} files to build-{result.job_id}/\n")

    def _cmd_stats(self, args: List[str]) -> str:
        """``rai stats`` — operator health snapshot (instructor use)."""
        from repro.core.telemetry import health_report

        return health_report(self.system) + "\n"

    def _cmd_top(self, args: List[str]) -> str:
        """``rai top`` — one-screen scheduler/executor snapshot: queue
        depth and scheduler wait percentiles off the metrics registry, and
        per-worker slot occupancy plus warm-pool hit rates read off the
        workers themselves."""
        import math

        from repro.analysis.report import render_table

        system = self.system
        wait = system.metrics.histogram("sched_queue_wait_seconds")

        def fmt(value) -> str:
            return "-" if value is None or (isinstance(value, float)
                                            and math.isnan(value)) \
                else f"{value:.1f}"

        lines = [
            f"t={system.sim.now:.1f}s  "
            f"queue={system.queue_depth()}  "
            f"in-flight={int(system.metrics.gauge('in_flight').value)}  "
            f"dead-letters={system.broker.dead_letter_count()}",
            f"sched wait: p50={fmt(wait.percentile(50) if wait.count else None)}s  "
            f"p95={fmt(wait.percentile(95) if wait.count else None)}s  "
            f"ewma={fmt(system.shards.max_wait_ewma())}s  "
            f"dispatched={wait.count}",
            f"fleet: slots busy "
            f"{system.fleet_slot_utilization() * 100:.0f}%  "
            f"warm-pool hit rate "
            f"{system.fleet_pool_hit_rate() * 100:.0f}%  "
            f"hits waited "
            f"{sum(w.pool.hits_waited for w in system.workers)}/"
            f"{sum(w.pool.hits for w in system.workers)}  "
            f"filled {sum(w.pool.filled for w in system.workers)}",
        ]
        rows = []
        for worker in system.workers:
            pool = worker.pool
            rows.append([
                worker.id,
                "up" if worker.is_running else "down",
                f"{worker.active_jobs}/{worker.slot_count}",
                f"{worker.utilization() * 100:.0f}%",
                f"{pool.hits}/{pool.hits + pool.misses}",
                f"{pool.hit_rate() * 100:.0f}%",
                pool.pooled_count,
            ])
        table = render_table(
            ["worker", "state", "busy/slots", "util", "pool h/a",
             "hit%", "pooled"],
            rows, title="workers") if rows else "no workers"
        return "\n".join(lines) + "\n\n" + table + "\n"

    def _cmd_trace(self, args: List[str]) -> str:
        """``rai trace [job_id]`` — waterfall + critical path for a job
        (defaults to this client's most recent submission)."""
        from repro.obs.waterfall import find_trace, render_trace_report

        if args:
            target = args[0]
        else:
            submitted = [r for r in self.client.history
                         if r.job_id != "(unassigned)"]
            if not submitted:
                return "No jobs submitted in this session.\n"
            target = submitted[-1].job_id
        if not self.system.tracer.enabled:
            return "rai trace: tracing is disabled on this deployment\n"
        trace = find_trace(self.system.tracer.store, target)
        if trace is None:
            return (f"rai trace: no trace recorded for {target!r} "
                    f"(evicted, or submitted before tracing started?)\n")
        return render_trace_report(trace) + "\n"

    def _cmd_slo(self, args: List[str]) -> str:
        """``rai slo`` — judge every objective now and print burn rates.

        For a burning queue-wait objective the exemplar trace ids of jobs
        that individually blew the bound are listed; each resolves with
        ``rai trace <trace_id>`` (or via its job id).
        """
        from repro.analysis.report import render_table
        from repro.obs.alerts import QUEUE_WAIT_P95_SECONDS

        system = self.system
        system.scraper.sample()
        rows = []
        exemplar_lines: List[str] = []
        for status in system.alerts.statuses(system.sim.now):
            rows.append([
                status.name,
                status.state,
                f"{status.target:.0%}",
                f"{status.fast.burn_rate:.2f}x",
                f"{status.slow.burn_rate:.2f}x",
                int(status.fast.total),
            ])
            for exemplar in status.exemplars:
                trace = system.tracer.store.trace(exemplar.trace_id)
                jobs = ",".join(trace.job_ids) if trace is not None \
                    and trace.job_ids else "?"
                exemplar_lines.append(
                    f"  {status.name}: {exemplar.value:.1f}s over "
                    f"{QUEUE_WAIT_P95_SECONDS:g}s — trace "
                    f"{exemplar.trace_id} (job {jobs})")
        text = render_table(
            ["objective", "state", "target", "burn(fast)", "burn(slow)",
             "events"],
            rows, title=f"SLOs at t={system.sim.now:.0f}s")
        if exemplar_lines:
            text += ("\nexemplars (inspect with rai trace <id>):\n"
                     + "\n".join(exemplar_lines))
        return text + "\n"

    def _cmd_alerts(self, args: List[str]) -> str:
        """``rai alerts`` — evaluate all alert sources and list incidents.

        Active alerts first, then the most recent resolved incidents.
        """
        from repro.analysis.report import render_table

        system = self.system
        system.alerts.check(scrape=True)
        incidents = system.alerts.incidents()
        if not incidents:
            return "No alerts have fired on this deployment.\n"
        rows = []
        ordered = ([a for a in incidents if a.active]
                   + [a for a in reversed(incidents) if not a.active][:10])
        for alert in ordered:
            resolved = ("-" if alert.resolved_at is None
                        else f"{alert.resolved_at:.0f}s")
            rows.append([alert.name, alert.state, alert.severity,
                         f"{alert.fired_at:.0f}s", resolved, alert.summary])
        return render_table(
            ["alert", "state", "severity", "fired", "resolved", "summary"],
            rows, title=f"alerts at t={system.sim.now:.0f}s") + "\n"

    def _cmd_shards(self, args: List[str]) -> str:
        """``rai shards`` — per-partition control-plane snapshot.

        One row per partition: routed/queued/dispatched traffic, steal
        traffic in both directions, and the partition's worker fleet
        (count, occupancy, warm-pool hit rate).  Skew between rows is the
        signal the steal counters and the shard gauges exist to surface.
        """
        from repro.analysis.report import render_table

        system = self.system
        stats = system.shards.stats()
        shard_map = stats["shard_map"]
        rows = []
        for p in stats["partitions"]:
            rows.append([
                p["topic"],
                p["routed"],
                p["queue_depth"],
                p["in_flight"],
                p["dispatched"],
                f"{p['steals_in']}/{p['steals_out']}",
                p["workers"],
                f"{p['occupancy'] * 100:.0f}%",
                f"{p['pool_hit_rate'] * 100:.0f}%",
                f"{p['wait_ewma']:.1f}s",
            ])
        n = shard_map["n_partitions"]
        header = (f"shard map: {n} partition{'s' if n != 1 else ''}, "
                  f"key team→username")
        table = render_table(
            ["partition", "routed", "queued", "in-flt", "dispatched",
             "steal in/out", "workers", "occ", "pool hit", "wait ewma"],
            rows, title=f"shards at t={system.sim.now:.0f}s")
        return header + "\n\n" + table + "\n"

    def _cmd_cache(self, args: List[str]) -> str:
        """``rai cache`` — build-artifact and chunk-fetch cache health.

        Occupancy, hit rates, and the hottest build-cache keys, plus one
        row per worker's chunk fetch cache.  The numbers the incremental
        build path lives or dies by.
        """
        from repro.analysis.report import render_table

        system = self.system
        cache = system.build_cache
        if cache is None:
            lines = ["build cache: disabled on this deployment"]
        else:
            stats = cache.stats()
            lookups = stats["hits"] + stats["misses"]
            lines = [
                f"build cache: {stats['entries']} entries, "
                f"{stats['blobs']} blobs, "
                f"{stats['blob_bytes']}/{stats['max_bytes']} bytes "
                f"({stats['blob_bytes'] / stats['max_bytes'] * 100:.0f}% full)"
                if stats["max_bytes"] else
                f"build cache: {stats['entries']} entries, "
                f"{stats['blobs']} blobs, {stats['blob_bytes']} bytes",
                f"  lookups: {stats['hits']} hits / {stats['misses']} misses "
                f"(hit rate {stats['hit_rate'] * 100:.0f}%), "
                f"{stats['evictions']} evictions, "
                f"{stats['seen_sources']} sources seen",
                f"  lookup cost: {stats['observations']} filesystem "
                f"observations "
                f"({stats['observations'] / max(1, lookups):.1f} per lookup)",
            ]
            top = cache.top_entries()
            if top:
                rows = [[entry["key"], entry["command"][:40], entry["hits"],
                         entry["bytes"], entry["exit_code"]]
                        for entry in top]
                lines.append("")
                lines.append(render_table(
                    ["key", "command", "hits", "bytes", "exit"],
                    rows, title="hottest build-cache entries"))
        worker_rows = []
        for worker in system.workers:
            fetch = worker.fetch_cache_stats()
            worker_rows.append([
                worker.id,
                fetch["entries"],
                f"{fetch['bytes']}/{fetch['budget_bytes']}",
                fetch["hit_bytes"],
                fetch["miss_bytes"],
                f"{fetch['hit_rate'] * 100:.0f}%",
                fetch["evictions"],
            ])
        table = render_table(
            ["worker", "entries", "bytes/budget", "hit B", "miss B",
             "hit%", "evicted"],
            worker_rows, title="chunk fetch caches") if worker_rows \
            else "no workers"
        return "\n".join(lines) + "\n\n" + table + "\n"

    def _cmd_usage(self, args: List[str]) -> str:
        """``rai usage`` — the raw per-tenant meter, ranked by compute.

        What each team consumed (container/GPU seconds, bytes moved and
        stored, docdb/broker traffic) plus what the platform's caches
        saved it — before any pricing.
        """
        from repro.analysis.report import format_bytes, render_table

        meter = self.system.usage
        header = (f"course {meter.course}: {meter.tenant_count()} teams "
                  f"metered, {meter.total_records} records"
                  + ("" if meter.enabled else " (metering disabled)"))
        tenants = sorted(
            meter.tenants.items(),
            key=lambda item: -item[1].get("container_seconds", 0.0))
        if not tenants:
            return header + "\nno usage recorded\n"
        rows = []
        for tenant, res in tenants:
            rows.append([
                tenant,
                f"{res.get('container_seconds', 0.0):.1f}",
                f"{res.get('gpu_seconds', 0.0):.1f}",
                format_bytes(res.get("storage_bytes_uploaded", 0.0)),
                format_bytes(res.get("storage_bytes_downloaded", 0.0)),
                format_bytes(res.get("storage_bytes_stored", 0.0)),
                format_bytes(res.get("storage_bytes_saved_dedup", 0.0)),
                f"{res.get('build_seconds_saved', 0.0):.1f}",
                int(res.get("docdb_ops", 0.0)),
                int(res.get("broker_messages", 0.0)),
            ])
        table = render_table(
            ["team", "cont s", "gpu s", "up", "down", "stored",
             "dedup saved", "build s saved", "docdb", "msgs"],
            rows, title="usage by team")
        return header + "\n\n" + table + "\n"

    def _cmd_cost(self, args: List[str]) -> str:
        """``rai cost`` — priced attribution: who pays for what.

        Settles complete billing windows, then renders tenants ranked by
        attributed fleet cost, the idle/overhead remainder, the
        conservation check, and trace exemplars for the most expensive
        jobs.
        """
        from repro.analysis.report import render_table

        allocator = self.system.cost_allocator
        allocator.refresh()
        report = allocator.report()
        lines = [
            f"course {report['course']} @ t={report['at']:.0f}s: "
            f"fleet ${report['fleet_cost']:.4f} = "
            f"attributed ${report['attributed_cost']:.4f} "
            f"+ idle/overhead ${report['idle_cost']:.4f} "
            f"({report['windows_closed']} windows settled)",
        ]
        if not report["tenants"]:
            lines.append("no attributable usage recorded")
            return "\n".join(lines) + "\n"
        rows = []
        for entry in report["tenants"]:
            rows.append([
                entry["team"],
                f"{entry['container_seconds']:.1f}",
                f"{entry['gpu_seconds']:.1f}",
                f"${entry['cost_usd']:.4f}",
                f"{entry['share'] * 100:.1f}%",
            ])
        lines.append("")
        lines.append(render_table(
            ["team", "cont s", "gpu s", "cost", "share"],
            rows, title="cost by team"))
        exemplars = self.system.usage.top_jobs()
        if exemplars:
            rows = [[job.job_id, job.tenant,
                     f"{job.container_seconds:.1f}",
                     f"{job.gpu_seconds:.1f}",
                     job.trace_id or "-"]
                    for job in exemplars]
            lines.append("")
            lines.append(render_table(
                ["job", "team", "cont s", "gpu s", "trace"],
                rows, title="most expensive jobs (trace exemplars)"))
        return "\n".join(lines) + "\n"

    def _cmd_events(self, args: List[str]) -> str:
        """``rai events [job_id|type|tail N]`` — query the event log."""
        log = self.system.events
        if args and args[0] == "tail":
            n = int(args[1]) if len(args) > 1 else 20
            events = log.tail(n)
        elif args and "." in args[0]:
            events = log.query(prefix=args[0]) if args[0].endswith(".") \
                else log.query(type=args[0])
        elif args:
            events = log.events_for_job(args[0])
        else:
            events = log.tail(20)
        if not events:
            return "No matching events.\n"
        lines = []
        for event in events:
            tags = " ".join(f"{k}={v}" for k, v in event.fields.items())
            link = f" [trace {event.trace_id}]" if event.trace_id else ""
            lines.append(f"t={event.time:>10.1f}  {event.type:<22} "
                         f"{tags}{link}")
        stats = log.stats()
        lines.append(f"({len(events)} shown; {stats['emitted']} emitted, "
                     f"{stats['dropped']} dropped)")
        return "\n".join(lines) + "\n"

    def _cmd_checkpoint(self, args: List[str]) -> str:
        """``rai checkpoint [dir]`` — snapshot the deployment now.

        With a directory argument on a deployment that has no durability
        attached, attaches it first (instructor bootstrap); afterwards a
        bare ``rai checkpoint`` compacts into the same directory.
        """
        system = self.system
        if system.durability is None:
            if not args:
                return ("rai checkpoint: no durability directory attached "
                        "(usage: rai checkpoint <dir>)\n")
            system.attach_durability(args[0], checkpoint=False)
        info = system.checkpoint()
        return (f"✱ checkpoint written to {info['path']}\n"
                f"  {info['documents']} documents, {info['messages']} "
                f"messages, {info['collections']} collections "
                f"({info['bytes']} bytes)\n"
                f"  compacted {info['records_compacted']} WAL records "
                f"in {info['duration_s'] * 1000:.1f}ms\n")

    def _cmd_restore(self, args: List[str]) -> str:
        """``rai restore <dir> [workers]`` — cold-start from a durability
        directory and swap this CLI onto the recovered deployment.

        The client keeps its username/keys (they were snapshotted with
        the keystore), so history and rankings pick up where the dead
        process left off.
        """
        if not args:
            return "usage: rai restore <dir> [workers]\n"
        try:
            num_workers = int(args[1]) if len(args) > 1 else 1
        except ValueError:
            return "usage: rai restore <dir> [workers]\n"
        restored = type(self.system).restore(args[0],
                                             num_workers=num_workers)
        self.system = restored
        self.client = RaiClient(restored, self.client.profile,
                                team=self.client.team)
        replays = restored.events.query(type="durability.replay")
        summary = replays[-1].fields if replays else {}
        submissions = len(restored.db.collection("submissions"))
        return (f"✱ restored deployment from {args[0]} "
                f"(t={restored.sim.now:.1f}s, {num_workers} workers)\n"
                f"  replayed {summary.get('replayed', 0)} WAL records "
                f"({summary.get('torn', 0)} torn), requeued "
                f"{summary.get('requeued', 0)} in-flight jobs, fenced "
                f"{summary.get('fenced', 0)} already-finished\n"
                f"  {submissions} submissions on record; recovery took "
                f"{summary.get('duration_s', 0) * 1000:.1f}ms\n")

    def _cmd_version(self, args: List[str]) -> str:
        info = build_info()
        return (f"rai version {info['version']} "
                f"({info['branch']}@{info['commit']}, "
                f"built {info['build_date']})\n")

    def _cmd_help(self, args: List[str]) -> str:
        return self._help()

    # -- rendering ------------------------------------------------------

    def _help(self) -> str:
        return ("usage: rai <subcommand>\n  " +
                "\n  ".join(self.SUBCOMMANDS) + "\n")

    @staticmethod
    def _render_result(result: JobResult) -> str:
        lines = [f"✱ job {result.job_id}: {result.status.value}"]
        if result.error:
            lines.append(f"✗ {result.error}")
        for _t, stream, text in result.log:
            prefix = "" if stream == "stdout" else "! "
            for line in text.splitlines():
                lines.append(prefix + line)
        if result.build_url:
            lines.append("✱ build output uploaded; use download_build() "
                         "to fetch it")
        if result.turnaround is not None:
            lines.append(f"✱ total turnaround {result.turnaround:.1f}s "
                         f"(queued {result.queue_wait:.1f}s)")
        return "\n".join(lines) + "\n"
