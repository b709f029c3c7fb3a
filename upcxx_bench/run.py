#!/usr/bin/env python3
"""Build upcxx_bench from source and run one workload of it.

Run from the repository root:

    python3 upcxx_bench/run.py --workload kv_zipf_mmap --seed 1 --seconds 35 --trace 0

The build goes to $CARGO_TARGET_DIR/upcxx_bench (default
.bench_build/upcxx_bench). The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; metrics holds the
end-to-end metrics named in BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). Build output and the benchmark's own report go to
standard error. Exits non-zero without a result when the build or the run
fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   stdout=sys.stderr, check=True)
    subprocess.run([os.path.join(build_dir, "upcxx_bench_selftest")],
                   stdout=sys.stderr, check=True, timeout=60)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"run.py: unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "upcxx_bench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        sys.exit(f"run.py: build failed: {e}")

    cmd = [os.path.join(build_dir, "upcxx_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--duration", str(args.seconds)]
    if args.trace:
        cmd += ["--trace",
                os.path.join(build_dir, f"trace_{args.workload}.jsonl")]
    # The benchmark pins its own configuration; keep stray runtime knobs out.
    env = {k: v for k, v in os.environ.items() if not k.startswith("UPCXX_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark timed out")
    sys.stderr.write(proc.stdout)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        sys.exit(f"run.py: benchmark exited {proc.returncode} without a result")
    result = json.loads(lines[-1][len("RESULT "):])

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit(f"run.py: benchmark did not report {m['name']} "
                     f"in {m['unit']}")
        value = got["value"]
        if value is None:
            if not args.trace:
                sys.exit(f"run.py: {m['name']} has no value")
            value = 0.0  # a per-layer ratio whose layer did no work
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
