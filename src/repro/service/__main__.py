"""Command line entry point: ``python -m repro.service``.

Boots the advisor service and serves until interrupted; SIGINT/SIGTERM
trigger a graceful shutdown that drains queued and in-flight jobs before the
socket closes (a second signal exits immediately).

Examples::

    python -m repro.service --port 8137 --cache-dir .grid-cache --workers 2
    python -m repro.service --port 0 --trace-dir traces   # ephemeral port

See ``docs/SERVICE.md`` for the endpoint reference and curl walkthrough.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from typing import List, Optional

from repro.service.app import DEFAULT_PORT, create_service

#: Default result-cache root (matches ``python -m repro.grid``, so the
#: service resumes from caches populated by CLI runs and vice versa).
DEFAULT_CACHE_DIR = ".grid-cache"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve the layout advisor over HTTP (stdlib only).",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: %(default)s)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help="TCP port; 0 picks an ephemeral port (default: %(default)s)",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help="result-cache root shared with python -m repro.grid "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache (jobs still dedup in memory)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="job worker threads — concurrent jobs, not HTTP connections "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="write one JSONL trace per compare job into this directory "
        "(readable by python -m repro.obs summary)",
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="bound the job queue at N queued jobs; excess submissions get "
        "429 + Retry-After (default: unbounded)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="force-fail any job running longer than this wall time "
        "(default: no timeout)",
    )
    parser.add_argument(
        "--no-journal",
        action="store_true",
        help="disable the durable job journal (jobs are lost on restart, "
        "as before PR 10)",
    )
    parser.add_argument(
        "--journal-path",
        default=None,
        metavar="PATH",
        help="job journal file (default: <cache-dir>/service-journal.jsonl)",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        metavar="N",
        help="quarantine a job after N consecutive failures until it is "
        'resubmitted with {"force": true} (default: %(default)s)',
    )
    parser.add_argument(
        "--log-requests",
        action="store_true",
        help="echo one access-log line per HTTP request to stderr",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the startup banner"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.max_queue_depth is not None and args.max_queue_depth < 1:
        parser.error("--max-queue-depth must be >= 1")
    if args.job_timeout is not None and args.job_timeout <= 0:
        parser.error("--job-timeout must be > 0")
    if args.breaker_threshold < 1:
        parser.error("--breaker-threshold must be >= 1")
    service = create_service(
        host=args.host,
        port=args.port,
        cache_dir=None if args.no_cache else args.cache_dir,
        workers=args.workers,
        trace_dir=args.trace_dir,
        log_requests=args.log_requests,
        max_queue_depth=args.max_queue_depth,
        job_timeout=args.job_timeout,
        journal=not args.no_journal,
        journal_path=args.journal_path,
        breaker_threshold=args.breaker_threshold,
    )
    if not args.quiet:
        cache = service.config.cache_dir or "(disabled)"
        journal = service.journal.path if service.journal else "(disabled)"
        print(f"advisor service listening on {service.url}")
        print(f"  result cache : {cache}")
        print(f"  job journal  : {journal}")
        if service.registry.recovered:
            print(f"  recovered    : {service.registry.recovered} "
                  f"interrupted job(s) re-enqueued")
        print(f"  job workers  : {service.config.workers}")
        if service.config.max_queue_depth is not None:
            print(f"  queue depth  : {service.config.max_queue_depth}")
        if service.config.job_timeout is not None:
            print(f"  job timeout  : {service.config.job_timeout:g}s")
        if service.config.trace_dir:
            print(f"  traces       : {service.config.trace_dir}/<job>.jsonl")
        print("  endpoints    : POST /v1/recommend /v1/compare /v1/validate; "
              "GET /health[/live|/ready] /v1/jobs[/<id>[?wait=S]]; "
              "DELETE /v1/jobs/<id>")

    interrupted = threading.Event()

    def _handle(signum, frame) -> None:
        if interrupted.is_set():  # second signal: give up on draining
            sys.exit(1)
        interrupted.set()

    signal.signal(signal.SIGINT, _handle)
    signal.signal(signal.SIGTERM, _handle)

    service.serve_in_thread()
    try:
        interrupted.wait()
    finally:
        if not args.quiet:
            print("shutting down: draining in-flight jobs ...")
        service.stop(drain=True)
        if not args.quiet:
            print("bye")
    return 0


if __name__ == "__main__":
    sys.exit(main())
