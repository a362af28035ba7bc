"""``python -m benchmarks.perf``: run, check and compare the repository benchmark.

One workload, one run::

    python -m benchmarks.perf --workload grid-cold --seed 3 --seconds 20 --trace 0

prints human-readable lines, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  The exit code is 0 only when every output check passed.

The whole benchmark (every workload in its own fresh process, ``--runs``
untraced runs each on seeds ``seed, seed+1, ...``, then one traced run)::

    python -m benchmarks.perf --runs 5 --out benchmarks/perf/results/BENCH_<label>.json

Two result files::

    python -m benchmarks.perf --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import traceback
from typing import Dict, List, Optional

from .common import (
    ROOT,
    SetupError,
    WorkDir,
    fingerprint,
    load_benchmark_spec,
    median,
    require_program,
    spread,
    use_local_tmp,
)

WORKLOADS = ("grid-cold", "grid-resume", "service-fresh", "service-hot")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload once")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default: %(default)s)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass, printing per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes: the small grid and a handful of jobs")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload when running every workload")
    parser.add_argument("--out", help="write the full result document (details included) here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result files against the bounds")
    return parser


def _run_workload(args, spec: Dict[str, object]) -> Dict[str, object]:
    from . import inputs

    seconds = args.seconds or spec["run_seconds"]
    sizes = inputs.sizes_for(seconds, args.quick)
    with WorkDir(args.workload) as work:
        use_local_tmp(work)
        if args.workload.startswith("grid-"):
            from . import workloads_grid

            result = workloads_grid.run(args.workload, args.seed, sizes, bool(args.trace), work)
        elif args.workload == "service-fresh":
            from . import workloads_service

            result = workloads_service.run_fresh(args.seed, sizes, bool(args.trace), work)
        else:
            from . import workloads_service

            result = workloads_service.run_hot(args.seed, sizes, bool(args.trace), work)
    sampled = result.details.get("sampled_peak_rss_mb")
    if sampled is not None and "peak_rss_mb" in result.metrics:
        # The 4 Hz samples can only miss the peak, never exceed it.
        result.details["rss_cross_check_ok"] = sampled <= result.metrics["peak_rss_mb"] * 1.01
    declared = spec["per_layer" if args.trace else "end_to_end"]
    problems = list(result.problems)
    metrics = {}
    for metric in declared:
        value = result.metrics.get(metric["name"])
        if value is None:
            problems.append(f"metric {metric['name']} was not measured")
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "quick": args.quick,
        "trace": args.trace,
        "correct": not problems and result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "problems": problems,
        "metrics": metrics,
        "details": result.details,
        "env": fingerprint(args.seed),
    }
    if args.trace:
        from .layers import CATALOG

        document["layers"] = {
            name: {"module": module, "moves": moves} for name, _, _, module, moves in CATALOG
        }
    return document


def run_one(args, spec: Dict[str, object]) -> int:
    try:
        document = _run_workload(args, spec)
    except Exception:
        traceback.print_exc()
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
    print(f"{document['workload']} seed={document['seed']} trace={document['trace']}: "
          f"{document['attempted']} ops, {document['failed']} failed")
    for problem in document["problems"][:20]:
        print(f"  check failed: {problem}")
    for name, metric in document["metrics"].items():
        print(f"  {name:<36} {metric['value']:>14.4f} {metric['unit']}")
    print(json.dumps({key: document[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if document["correct"] else 1


def run_all(args, spec: Dict[str, object]) -> int:
    """Every workload in a fresh process: ``--runs`` untraced, one traced."""
    seconds = args.seconds or spec["run_seconds"]
    result = {
        "env": fingerprint(args.seed),
        "seconds": seconds,
        "quick": args.quick,
        "workloads": {},
    }
    ok = True
    with WorkDir("all") as work:
        for workload in WORKLOADS:
            entry: Dict[str, object] = {"runs": [], "traced": None}
            plans = [(args.seed + run, 0) for run in range(args.runs)] + [(args.seed, 1)]
            for seed, trace in plans:
                out = work.path / f"{workload}-{seed}-{trace}.json"
                command = [
                    sys.executable, "-m", "benchmarks.perf", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                    "--out", str(out),
                ] + (["--quick"] if args.quick else [])
                completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                if not out.exists():
                    print(f"{workload} seed={seed} trace={trace}: no result "
                          f"(exit {completed.returncode})", file=sys.stderr)
                    ok = False
                    continue
                with open(out, encoding="utf-8") as handle:
                    document = json.load(handle)
                ok = ok and document["correct"]
                status = "ok" if document["correct"] else "FAILED CHECKS"
                print(f"{workload} seed={seed} trace={trace}: {status}", flush=True)
                if trace:
                    entry["traced"] = document
                else:
                    entry["runs"].append(document)
            result["workloads"][workload] = entry
    print(render_summary(result, spec))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, sort_keys=True)
    return 0 if ok else 1


def render_summary(result: Dict[str, object], spec: Dict[str, object]) -> str:
    lines = []
    for workload, entry in result["workloads"].items():
        lines.append(f"\n{workload} ({len(entry['runs'])} untraced runs)")
        for metric in spec["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in entry["runs"]
                      if metric["name"] in run["metrics"]]
            if values:
                lines.append(
                    f"  {metric['name']:<36} {median(values):>12.4f} {metric['unit']:<6}"
                    f" spread {spread(values) * 100:5.1f}% (bound {metric['bound'] * 100:.0f}%)"
                )
        traced = entry["traced"]
        if traced:
            for name, metric in traced["metrics"].items():
                lines.append(f"  {name:<36} {metric['value']:>12.4f} {metric['unit']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.compare:
        from .compare import compare, render

        rows, worse = compare(args.compare[0], args.compare[1], load_benchmark_spec())
        print(render(rows))
        return 1 if worse else 0
    try:
        require_program()
        spec = load_benchmark_spec()
    except (SetupError, OSError) as error:
        print(f"benchmark cannot run here: {error}", file=sys.stderr)
        return 2
    return run_one(args, spec) if args.workload else run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
