"""The repository benchmark: served ``/predict`` and paper-pipeline workloads.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints one JSON result line; see ``README.md``.
"""
