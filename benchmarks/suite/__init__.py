"""The benchmark of record: four workloads, end-to-end and per-layer.

See ``README.md`` in this directory for what each workload is for and
which layer metric should move which end-to-end number; ``cli.py`` for
how to run it; ``BENCHMARK.json`` at the checkout root for the metric
contract.
"""
