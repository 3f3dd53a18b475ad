"""Benchmark for hamclass: census, certify and stream_scan workloads, with a traced mode.

Run from the repository root: `python3 perfbench/run.py --workload census`.
"""
