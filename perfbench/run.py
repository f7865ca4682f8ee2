"""Run one perfbench workload; the last line of stdout is the result as JSON.

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 5 --trace 0

Run it from the repository root. With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones (a
per-layer metric that the workload does not reach reads 0). Output checks
that fail are listed on stderr and make "correct" false.
"""

import os

# Pin the BLAS pools to the core count (what users get by default) before
# numpy loads, so that an inherited *_NUM_THREADS setting cannot change them.
_NPROC = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _NPROC

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_convexkit():
    """convexkit from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "convexkit", "__init__.py")):
        raise SystemExit("perfbench: no convexkit sources under %s" % SRC)
    sys.path.insert(0, SRC)
    ck = importlib.import_module("convexkit")
    if os.path.dirname(os.path.dirname(os.path.abspath(ck.__file__))) != SRC:
        raise SystemExit("perfbench: imported convexkit from %s, not %s" % (ck.__file__, SRC))
    importlib.import_module("convexkit.cli")  # imports every convexkit module
    return ck


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ck = import_convexkit()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (have: %s)"
                     % (args.workload, ", ".join(sorted(workloads.WORKLOADS))))
    result = workloads.WORKLOADS[args.workload](ck, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        declared, measured = spec["per_layer"], result.layers
    else:
        declared, measured = spec["end_to_end"], dict(result.e2e)
        measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    names = {m["name"] for m in declared}
    unknown = sorted(set(measured) - names)
    if unknown:
        raise SystemExit("perfbench: metrics missing from BENCHMARK.json: %s" % unknown)
    if not args.trace and set(measured) != names:
        raise SystemExit("perfbench: end-to-end metrics not measured: %s"
                         % sorted(names - set(measured)))
    for error in result.errors:
        print("CHECK FAILED: %s" % error, file=sys.stderr)
    print(json.dumps({
        "correct": not result.errors,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
