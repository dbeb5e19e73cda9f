"""The repository benchmark: three HRIS workloads, end-to-end metrics and a
traced per-layer ledger.  Run it with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads and the metric table."""
