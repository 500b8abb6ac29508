"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {features,train,infer} --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics. The lines before it give the same numbers by their
per-workload names, the environment, and any failed check. The exit code
is 1 when a check failed.
"""

import os

# BLAS reads its thread count when numpy loads, so pin it before any import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports numpy, not the program)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "dagam" / "__init__.py").is_file():
        print(f"no dagam package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), SRC)
    print("env " + json.dumps(workloads.environment(ROOT), sort_keys=True))
    for line in result.lines:
        print(line)
    print(json.dumps(result.summary()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
