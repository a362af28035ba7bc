"""Traced service launcher for the benchmark's traced pass.

``python -m benchmarks.perf.serve --probe-out FILE <service arguments>``
installs the bench-side probes (:mod:`benchmarks.perf.probes`), then runs
``repro.service.__main__.main`` with the remaining arguments, unchanged.
When the service exits (SIGTERM drains it), the probe rows and the
process's ``repro.obs.metrics`` snapshot are written to ``FILE``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .common import require_program
from .probes import Recorder, installed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf.serve")
    parser.add_argument("--probe-out", required=True)
    args, service_args = parser.parse_known_args(argv)
    require_program()
    from repro.obs import metrics as obs_metrics
    from repro.service.__main__ import main as service_main

    recorder = Recorder()
    with installed(recorder, service=True):
        code = service_main(service_args)
    with open(args.probe_out, "w", encoding="utf-8") as handle:
        json.dump({"rows": list(recorder.rows), "metrics": obs_metrics.registry().snapshot()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
