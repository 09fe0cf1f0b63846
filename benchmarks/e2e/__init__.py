"""End-to-end benchmark of the shipped defaults (see README.md in this directory).

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
runs one workload in this process and prints one JSON result line (the
``BENCHMARK.json`` contract); ``PYTHONPATH=src python -m benchmarks.e2e`` runs
every workload untraced and traced, each in its own subprocess.
"""
