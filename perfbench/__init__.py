"""The repository benchmark: served and in-process workloads with a traced
per-layer run.  Start it with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads, metrics and options."""
