"""The wall-clock ledger: host time per simulated page, layer by layer.

See ``README.md`` in this directory; ``BENCHMARK.json`` at the repo root
names the workloads, metrics, units and bounds.
"""
