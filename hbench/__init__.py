"""Benchmark of the hessiometric package: seeded workloads, independent
oracles and an outside-in tracer.  Run ``python3 hbench/run.py --help``."""
