"""Repository benchmark: four seeded workloads from the grid up to HTTP.

``python -m benchmarks.perf`` drives the unmodified program — the library's
``run_grid`` and the ``python -m repro.service`` advisor — with inputs made
from ``--seed``, checks the outputs, and prints every end-to-end metric named
in ``BENCHMARK.json``.  ``--trace 1`` runs a separate pass that wraps the
public callables of each module from outside the program and prints the
per-layer metrics instead.  ``README.md`` next to this file describes the
workloads, the metrics and how to compare two result files.
"""
