"""The repository benchmark: whole-slide files, large objects, a service.

Run one measurement from the repository root::

    python3 perfbench/run.py --workload slide_files --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the separate traced replay and prints the per-layer
metrics.  The last stdout line is always the one JSON result object.
See ``perfbench/NOTES.md`` for the workloads, metrics and known defects.
"""
