"""Request-path benchmark for the differential-constraints service stack.

One command (``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``) runs one named workload against the shipped
public API, checks every answer against the scalar ``core`` oracle, and
prints its metrics; ``BENCHMARK.json`` at the repository root names the
declared workloads and the metrics.  See ``perfbench/README.md``.
"""
