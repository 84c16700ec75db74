"""End-to-end and per-layer benchmark of the ``repro`` experiment runner.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; ``perfbench/README.md``
describes the workloads, the metrics and the layer map.
"""
