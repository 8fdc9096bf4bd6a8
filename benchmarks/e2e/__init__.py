"""End-to-end serving benchmark: four workloads, two clocks, layer spans from outside.

``BENCHMARK.json`` at the repository root is the contract; ``run.py`` is the
program it names (one workload, one process, one JSON result line) and
``python -m benchmarks.e2e`` runs every workload through it and prints the
whole table.  ``README.md`` in this directory is the glossary.
"""
