"""The repository's benchmark: ``python3 perfbench/run.py --help``.

See ``BENCHMARK.json`` for the workloads and metrics, and ``run.py``
for how a run is put together.
"""
