"""Command-line entry point: ``python -m repro.grid``.

Runs a comparison grid — builtin (``--grid tiny|small|full``) or assembled
from explicit axes (``--algorithms``, ``--workloads``, ``--cost-models``) —
against a persistent result cache and prints the cache accounting followed by
the headline tables.  A second identical invocation is served almost entirely
from the cache; an interrupted run resumes where it stopped.

``--backend measured`` additionally executes every cell's layout on the
vectorized scan executor (``--measured-rows`` rows of seed ``--data-seed``
synthetic data) and appends the estimated-vs-measured agreement tables; see
``docs/EXECUTION.md``.  ``--backend sqlite`` instead materialises every
cell's layout as real SQLite tables (optionally at ``--sqlite-page-size``)
and appends the estimated-vs-engine agreement tables; see
``docs/ENGINE_X.md``.

Failure semantics (``docs/ROBUSTNESS.md``): by default the run *keeps going* —
a cell that exhausts its ``--retries`` budget (or exceeds ``--cell-timeout``,
or loses its worker process) is quarantined as a failure row in the report and
the exit code stays 0 with a failure summary on stderr.  ``--fail-fast``
instead aborts on the first exhausted cell with a non-zero exit code;
completed cells are already in the cache either way.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.exec.backends import available_backends, explicit_settings, get_backend
from repro.grid.runner import run_grid
from repro.grid.spec import (
    BACKENDS,
    BUILTIN_GRIDS,
    ESTIMATED,
    GridError,
    GridExecutionError,
    GridSpec,
    builtin_grid,
)

#: Cache location used when the caller does not pass ``--cache-dir``.
DEFAULT_CACHE_DIR = ".grid-cache"

#: The flag that sets each execution-backend setting.
_SETTING_FLAGS = {
    "rows": "--measured-rows",
    "data_seed": "--data-seed",
    "page_size": "--sqlite-page-size",
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for ``--help`` testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.grid",
        description=(
            "Run a comparison grid (algorithm x workload x cost model) with a "
            "persistent result cache."
        ),
    )
    parser.add_argument(
        "--grid",
        default="small",
        help=f"builtin grid to run ({', '.join(sorted(BUILTIN_GRIDS))}); default: small",
    )
    parser.add_argument(
        "--algorithms",
        help="comma-separated algorithm names overriding the builtin grid's axis",
    )
    parser.add_argument(
        "--workloads",
        help="comma-separated workload ids overriding the builtin grid's axis",
    )
    parser.add_argument(
        "--cost-models",
        help="comma-separated cost model ids overriding the builtin grid's axis",
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="estimated",
        help=(
            "cell backend: 'estimated' (analytical costs only) or an "
            "execution backend, which also runs each layout and reports "
            "estimated-vs-executed agreement (see docs/EXECUTION.md)"
        ),
    )
    parser.add_argument(
        "--measured-rows",
        type=int,
        default=None,
        metavar="N",
        help="measured/sqlite backends: row count tables are materialised at "
        "(default: the executor's default)",
    )
    parser.add_argument(
        "--data-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="measured/sqlite backends: synthetic data seed (default: 0)",
    )
    parser.add_argument(
        "--sqlite-page-size",
        type=int,
        default=None,
        metavar="BYTES",
        help="sqlite backend: engine page size, a power of two in "
        "[512, 65536] (default: 4096)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process pool size for fresh cells (default: 1, in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="run without reading or writing the result cache",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="recompute every cell, overwriting cached entries",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress all non-table output (spec shape, progress lines, "
        "cache accounting, telemetry); only the headline tables are printed",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL trace of the run (spans, events, metrics) to "
        "PATH; inspect it with `python -m repro.obs summary PATH` "
        "(see docs/OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-cell wall-clock budget; an attempt exceeding it has its "
            "worker killed and the cell retried/quarantined (parallel runs "
            "only: serial cells cannot be preempted)"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "extra attempts per failing cell, with capped exponential "
            "backoff and deterministic jitter (default: 0)"
        ),
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=None,
        metavar="SECONDS",
        help="base delay of the retry backoff schedule (default: 0.05)",
    )
    failure_mode = parser.add_mutually_exclusive_group()
    failure_mode.add_argument(
        "--keep-going",
        dest="fail_fast",
        action="store_false",
        help=(
            "quarantine failing cells and finish the grid (default); the "
            "exit code stays 0 and failures are summarised"
        ),
    )
    failure_mode.add_argument(
        "--fail-fast",
        dest="fail_fast",
        action="store_true",
        help="abort with a non-zero exit code on the first cell that "
        "exhausts its attempts",
    )
    parser.set_defaults(fail_fast=False)
    return parser


def _measurement_from_args(args: argparse.Namespace) -> dict:
    """The execution settings given on the command line, checked against
    ``--backend``: each flag needs a backend that has its setting."""
    measurement = explicit_settings(
        rows=args.measured_rows,
        data_seed=args.data_seed,
        page_size=args.sqlite_page_size,
    )
    for key in measurement:
        owners = [
            name for name in available_backends() if key in get_backend(name).defaults
        ]
        if args.backend not in owners:
            raise GridError(
                f"{_SETTING_FLAGS[key]} requires --backend {' or '.join(owners)}"
            )
    return measurement


def _spec_from_args(args: argparse.Namespace) -> GridSpec:
    base = builtin_grid(args.grid)
    overrides = {}
    for axis in ("algorithms", "workloads", "cost_models"):
        raw = getattr(args, axis)
        if raw:
            overrides[axis] = tuple(part.strip() for part in raw.split(",") if part.strip())
    measurement = _measurement_from_args(args)
    if not overrides and args.backend == ESTIMATED:
        return base
    suffixes = [name for name, used in (("custom", bool(overrides)),
                                        (args.backend, args.backend != ESTIMATED))
                if used]
    return GridSpec(
        name="+".join([base.name] + suffixes),
        algorithms=overrides.get("algorithms", base.algorithms),
        workloads=overrides.get("workloads", base.workloads),
        cost_models=overrides.get("cost_models", base.cost_models),
        algorithm_options=dict(
            (name, dict(options)) for name, options in base.algorithm_options
        ),
        backend=args.backend,
        measurement=measurement or None,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Run the grid CLI; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(args)
    except GridError as error:
        parser.error(str(error))
        return 2  # unreachable; parser.error raises SystemExit

    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        parser.error("--cell-timeout must be > 0 seconds")
    if args.cell_timeout is not None and args.workers <= 1:
        print(
            "note: --cell-timeout is only enforced with --workers >= 2 "
            "(serial cells run in-process and cannot be preempted)",
            file=sys.stderr,
        )

    progress = None if args.quiet else lambda line: print(f"  {line}")
    if not args.quiet:
        print(spec.describe())
    run_options = {}
    if args.retry_backoff is not None:
        run_options["retry_backoff"] = args.retry_backoff
    try:
        report = run_grid(
            spec,
            cache_dir=None if args.no_cache else args.cache_dir,
            workers=args.workers,
            refresh=args.refresh,
            progress=progress,
            cell_timeout=args.cell_timeout,
            retries=args.retries,
            fail_fast=args.fail_fast,
            trace=args.trace,
            **run_options,
        )
    except GridExecutionError as error:
        print(f"error: {error}", file=sys.stderr)
        print(
            "fail-fast abort: cells completed before the failure are cached; "
            "rerun to resume (or rerun with --keep-going to quarantine "
            "failures instead)",
            file=sys.stderr,
        )
        return 1
    except GridError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.quiet:
        # Quiet mode prints the headline tables and nothing else; everything
        # diagnostic (accounting, telemetry, warnings) belongs to stderr or
        # the non-quiet path.
        from repro.grid.aggregate import headline_tables

        print(headline_tables(report.results))
    else:
        # GridReport.describe() is the single source of the report format;
        # skip its first line (the spec shape) — printed above before the run
        # started.
        print("\n".join(report.describe().splitlines()[1:]))
        if report.telemetry is not None:
            print(report.telemetry.describe())
    if report.cache_degraded:
        print(
            f"warning: result cache degraded: "
            f"{report.cache_store_failures} store / "
            f"{report.cache_load_failures} load I/O failures — affected "
            f"cells ran cache-less and will be recomputed next run",
            file=sys.stderr,
        )
    if report.failures:
        # Keep-going semantics: the run completed and the tables above carry
        # every successful cell, so the exit code stays 0 — but the failures
        # are summarised loudly on stderr (they also appear in the Failures
        # table and are *not* cached: a rerun retries exactly these cells).
        print(
            f"warning: {report.failed} of {len(report.results)} cells failed "
            f"and were quarantined:",
            file=sys.stderr,
        )
        for result in report.failures:
            print(
                f"  {result.cell.label}: {result.failure.describe()}",
                file=sys.stderr,
            )
    return 0
