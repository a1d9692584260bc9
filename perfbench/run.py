"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload predict-unique --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics.  Both check
correctness first: a failed gate exits with status 1 and prints no
result.  Run from the repository root; the program is imported from
``src/`` and its scratch files go to ``.perfbench_work/``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import metrics as declared  # noqa: E402

# One BLAS thread in this process and the server it starts: on a small
# machine the server and the load generator would otherwise contend
# through BLAS worker threads, which mostly adds run-to-run noise.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(declared.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _terminate(signum, frame):
    # Unwind through the `finally` blocks that stop the server process.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(workdir, exist_ok=True)
    traced = bool(args.trace)
    try:
        if args.workload == declared.PIPELINE:
            from perfbench import pipeline

            import_s = time.perf_counter() - _STARTED
            result = pipeline.run(args.seed, args.seconds, traced, workdir, import_s)
        else:
            from perfbench import serving

            result = serving.run(args.workload, args.seed, args.seconds, traced, ROOT, workdir)
    except declared.GateFailure as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 1

    values = dict(result.metrics)
    if traced:
        # A layer the workload does not run reads 0.
        for layer in declared.PER_LAYER:
            values.setdefault(layer.name, 0.0)
    phases = {name: vars(phase) for name, phase in result.phases.items()}
    print(json.dumps({"workload": args.workload, "seed": args.seed, **result.report}))
    print(json.dumps({"phases": phases}))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": phases[result.operations]["attempted"],
                "failed": phases[result.operations]["failed"],
                "metrics": declared.result_metrics(values, traced=traced),
            }
        )
    )
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    os.environ.update(BLAS_THREADS)  # before numpy is first imported
    sys.exit(main())
