#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench program (and the library it measures) from source
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then
runs one workload. The program's report goes to stdout; the last line
is one JSON object with `correct`, `attempted`, `failed` and `metrics`,
where `metrics` holds the end-to-end metrics BENCHMARK.json names
(--trace 0) or its per-layer metrics (--trace 1). A per-layer metric
whose layer the workload does not run is reported as 0.

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the build or the run broke (then no result line is printed).
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(build_dir, g)) for g in generated):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload}", file=sys.stderr)
        return 2

    out_root = os.path.abspath(os.environ.get(
        "CARGO_TARGET_DIR", os.path.join(REPO, ".bench_build")))
    try:
        binary = build(os.path.join(out_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    trace_dir = os.path.join(out_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: the run timed out", file=sys.stderr)
        return 2
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except (ValueError, IndexError):
        raw = None
    if proc.returncode not in (0, 1) or raw is None:
        sys.stdout.write(proc.stdout)
        print(f"run.py: perfbench exited {proc.returncode} without a result",
              file=sys.stderr)
        return 2
    for line in lines[:-1]:
        print(line)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None and not args.trace:
            print(f"run.py: no value for {m['name']}", file=sys.stderr)
            return 2
        value = 0.0 if got is None else got["value"]
        if not math.isfinite(value) or (got and got["unit"] != m["unit"]):
            print(f"run.py: bad value or unit for {m['name']}",
                  file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}),
          flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
