"""The repository benchmark: three seeded workloads, timed layer by layer.

Run ``python3 perfbench/run.py --help`` from the root of a checkout;
README.md in this directory describes the workloads and metrics.
"""
