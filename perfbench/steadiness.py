"""Run workloads over seeds 1..runs and report each end-to-end metric's spread.

    python3 perfbench/steadiness.py --runs 10 [--workloads lp,solve-small] [--trace 0]

The spread is the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. Runs one
benchmark process at a time; raw results go to perfbench/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit("%s seed %d exited %d" % (workload, seed, proc.returncode))
            result = json.loads(proc.stdout.splitlines()[-1])
            result.update(seed=seed, process_s=took)
            runs.append(result)
            print("%s seed %d: %.1f s, correct=%s attempted=%d failed=%d" % (
                workload, seed, took, result["correct"], result["attempted"], result["failed"]),
                flush=True)
        path = os.path.join(out_dir, "%s-trace%d.json" % (workload, args.trace))
        with open(path, "w") as fh:
            json.dump(runs, fh, indent=1)
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2 or statistics.median(values) == 0:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            bound = bounds.get(name)
            print("  %-28s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f%s" % (
                name, med, q1, q3, (q3 - q1) / med,
                "" if bound is None else " (bound %.2f)" % bound), flush=True)


if __name__ == "__main__":
    main()
