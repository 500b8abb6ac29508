"""Run the benchmark over several seeds and report how far its figures spread.

Usage, from the root of a checkout:

    python3 bench/collect.py [--workloads features,train,infer] [--seeds 10]
                             [--first-seed 1] [--trace 0] [--record LABEL]

Runs are made one after another, each in its own process, for the
``run_seconds`` of BENCHMARK.json. For every workload and metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, and marks an end-to-end spread above a third of
the metric's bound. ``--record LABEL`` appends the medians and quartiles,
with the environment they came from, to bench/trajectory.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRAJECTORY = BENCH / "trajectory.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, environment line) of one run of bench/run.py."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    for line in lines:
        if " problem: " in line:
            print(line, file=sys.stderr)
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None, help="comma-separated; default: all")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LABEL", help="append the result to bench/trajectory.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    summary, env, steady = {}, None, True
    for workload in names:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        all_correct = True
        for seed in seeds:
            started = time.monotonic()
            result, env = run_once(workload, seed, spec["run_seconds"], args.trace)
            all_correct &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"({time.monotonic() - started:.1f} s)", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        steady &= all_correct
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            mark = ""
            if name in bounds and name != "setup_s" and spread > bounds[name] / 3.0:
                mark = f"  <- above a third of bound {bounds[name]}"
                steady = False
            print(f"  {workload:9s} {name:32s} median {med:12.6g} {units[name]:6s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f}{mark}")
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "unit": units[name]}
    print("steady" if steady else "NOT steady (or a run was not correct)")
    if args.record:
        point = {
            "label": args.record,
            "commit": env["commit"],
            "date": time.strftime("%Y-%m-%d", time.gmtime()),
            "env": env,
            "run_seconds": spec["run_seconds"],
            "seeds": list(seeds),
            "trace": args.trace,
            "workloads": summary,
        }
        points = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        points.append(point)
        TRAJECTORY.write_text(json.dumps(points, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
