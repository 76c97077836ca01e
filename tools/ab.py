#!/usr/bin/env python3
"""Alternating A/B pairs of one command on two git revisions.

    python3 tools/ab.py REV_A REV_B [--pairs N] [--work DIR]
                        [--target NAME]... [--fields REGEX] -- CMD...

Each revision is extracted with `git archive` into WORK/<sha12> and
built there in Release (every target, or each --target). CMD then runs
in each extracted tree, N times per side, in the order A B, B A, A B...
so that drift on the host falls on both sides alike. `{pair}` in CMD
becomes the pair's index, e.g. a perfbench seed `--seed 70{pair}`.
perfbench/run.py builds into $CARGO_TARGET_DIR, which is set to
WORK/<sha12>/.bench_build for each side.

A run's result is its whole stdout as one JSON document (google-benchmark
with --benchmark_format=json), else its last line (perfbench/run.py's
result line). Numbers are flattened to dotted names, a list entry by its
"name" (a google-benchmark row) or else its index. For every field both
sides report, the script prints each side's median, the ratio B/A, each
side's IQR/median, the number of pairs in which B read higher, and the
two-sided sign-test p-value of that count (tied pairs left out).

Examples:

    python3 tools/ab.py HEAD~1 HEAD --pairs 10 --target micro_rng -- \\
        python3 perfbench/run.py --workload creditrisk_pipeline \\
        --seed 70{pair} --seconds 20 --trace 0
    python3 tools/ab.py HEAD~1 HEAD --pairs 5 --target micro_rng \\
        --fields 'per_lane' -- build/bench/micro_rng \\
        --benchmark_filter=BM_Kernel --benchmark_format=json

Exit status: 0 on success, 1 when a run failed or printed no result,
2 on usage errors.
"""
import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def extract(rev, work):
    sha = subprocess.run(
        ["git", "-C", REPO, "rev-parse", "--verify", rev + "^{commit}"],
        check=True, capture_output=True, text=True).stdout.strip()
    tree = os.path.join(work, sha[:12])
    marker = os.path.join(tree, ".ab_extracted")
    if not os.path.exists(marker):
        os.makedirs(tree, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", REPO, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise subprocess.CalledProcessError(archive.returncode,
                                                "git archive")
        open(marker, "w").close()
    return sha, tree


def build(tree, targets):
    build_dir = os.path.join(tree, "build")
    subprocess.run(["cmake", "-S", tree, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=subprocess.DEVNULL)
    cmd = ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count()))]
    for t in targets:
        cmd += ["--target", t]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def flatten(obj, prefix, out):
    if isinstance(obj, (bool, int, float)):
        out[prefix] = float(obj)
    elif isinstance(obj, dict):
        for k, v in obj.items():
            flatten(v, f"{prefix}.{k}" if prefix else k, out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            name = v.get("name", i) if isinstance(v, dict) else i
            flatten(v, f"{prefix}.{name}" if prefix else str(name), out)


def result(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        lines = stdout.strip().splitlines()
        return json.loads(lines[-1]) if lines else None


def run(cmd, tree, pair):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    argv = [a.replace("{pair}", str(pair)) for a in cmd]
    proc = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode} "
                           f"in {tree}")
    fields = {}
    try:
        flatten(result(proc.stdout), "", fields)
    except ValueError:
        pass
    if not fields:
        raise RuntimeError(f"{' '.join(argv)} printed no JSON result")
    return fields


def spread(xs):
    """(median, IQR/median) of xs."""
    med = statistics.median(xs)
    if len(xs) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, (q3 - q1) / abs(med)


def sign_test(higher, lower):
    """Two-sided sign-test p-value of `higher` against `lower` pairs."""
    n = higher + lower
    tail = sum(math.comb(n, i) for i in range(min(higher, lower) + 1))
    return min(1.0, 2 * tail / 2 ** n) if n else 1.0


def main():
    argv = sys.argv[1:]
    if "--" not in argv:
        print("ab.py: give the command after --", file=sys.stderr)
        return 2
    cut = argv.index("--")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev_a")
    ap.add_argument("rev_b")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--work", default=os.path.join(REPO, ".ab_build"))
    ap.add_argument("--target", action="append", default=[])
    ap.add_argument("--fields", default="",
                    help="print only the fields this regex finds")
    args = ap.parse_args(argv[:cut])
    cmd = argv[cut + 1:]
    if not cmd or args.pairs < 1:
        ap.print_usage(sys.stderr)
        return 2

    work = os.path.abspath(args.work)
    sides = []
    try:
        for rev in (args.rev_a, args.rev_b):
            sha, tree = extract(rev, work)
            print(f"ab.py: building {rev} ({sha[:12]}) in {tree}",
                  file=sys.stderr)
            build(tree, args.target)
            sides.append(tree)
        runs = ([], [])
        for pair in range(args.pairs):
            order = (0, 1) if pair % 2 == 0 else (1, 0)
            for side in order:
                runs[side].append(run(cmd, sides[side], pair))
            print(f"ab.py: pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    except (OSError, subprocess.CalledProcessError, RuntimeError) as e:
        print(f"ab.py: {e}", file=sys.stderr)
        return 1

    pattern = re.compile(args.fields)
    names = [n for n in runs[0][0]
             if pattern.search(n) and all(n in r for r in runs[0] + runs[1])]
    width = max([len(n) for n in names] + [5])
    print(f"{'field':<{width}}  {'A median':>12}  {'B median':>12}  "
          f"{'B/A':>7}  {'A IQR/med':>9}  {'B IQR/med':>9}  B higher  sign p")
    for n in names:
        a = [r[n] for r in runs[0]]
        b = [r[n] for r in runs[1]]
        (ma, sa), (mb, sb) = spread(a), spread(b)
        ratio = f"{mb / ma:7.3f}" if ma != 0 else f"{'-':>7}"
        higher = sum(y > x for x, y in zip(a, b))
        lower = sum(y < x for x, y in zip(a, b))
        print(f"{n:<{width}}  {ma:12.6g}  {mb:12.6g}  {ratio}  {sa:9.3f}  "
              f"{sb:9.3f}  {higher:>3}/{args.pairs:<4}  "
              f"{sign_test(higher, lower):.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
