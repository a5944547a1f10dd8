#!/usr/bin/env python3
"""The repository benchmark (see perfbench/METRICS.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      Builds perfbench from source into $CARGO_TARGET_DIR (default
      .bench_build), runs one workload and passes its output through: a
      human-readable table, then one JSON result object as the last line.

  python3 perfbench/run.py collect --out FILE [--workloads a,b] [--seeds 1-10]
      Runs every listed workload once per seed, untraced and for
      BENCHMARK.json's run_seconds, and appends each result (with its
      workload, seed and run length) to FILE as one JSON line, then prints
      each end-to-end metric's median and quartile spread against its bound.

  python3 perfbench/run.py compare PARENT CHANGE
      Compares two result sets written by collect (one per commit): one row
      per workload x end-to-end metric with medians, quartiles, pairs won
      (parent and change paired by seed) and a verdict. Refuses sets whose
      seeds or run lengths differ. Exits 1 if any metric got worse by more
      than its bound.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_root):
    """Configures (once) and builds the benchmark; returns the binary."""
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                      "-j", "4"])
        for cmd in steps:
            res = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True,
                                 timeout=BUILD_TIMEOUT_S)
            if res.returncode != 0:
                sys.stderr.write(res.stdout[-4000:])
                # A failed configure must not leave a cache that skips it.
                shutil.rmtree(build_dir, ignore_errors=True)
                raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run_once(binary, build_root, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    work = os.path.join(build_root, "work-%d" % os.getpid())
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--root", ROOT, "--work", work]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
        return res.returncode, res.stdout
    except subprocess.TimeoutExpired:
        return 124, ""
    finally:
        shutil.rmtree(work, ignore_errors=True)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def cmd_run(args):
    root = build_root()
    binary = build(root)
    code, out = run_once(binary, root, args.workload, args.seed, args.seconds,
                         args.trace)
    if code != 0:
        # Keep the diagnostics but never let a failed run end in a result.
        sys.stderr.write(out)
        return code or 1
    sys.stdout.write(out)
    return 0


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread_table(rows, metrics):
    """Median and (q3 - q1) / median per workload x end-to-end metric."""
    lines = []
    for workload in sorted({r["workload"] for r in rows}):
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in rows
                    if r["workload"] == workload and m["name"] in r["metrics"]]
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            frac = (q3 - q1) / med if med else float("inf")
            flag = "" if frac < m["bound"] / 3 else "  <-- >= bound/3"
            lines.append("%-18s %-12s median %-14.6g spread %.4f bound %s%s" % (
                workload, m["name"], med, frac, m["bound"], flag))
    return "\n".join(lines)


def cmd_collect(args):
    s = spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in s["workloads"]])
    seconds = s["run_seconds"]
    root = build_root()
    binary = build(root)
    rows = []
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for w in workloads:
                code, text = run_once(binary, root, w, seed, seconds, 0)
                last = text.strip().splitlines()[-1] if text.strip() else "{}"
                result = json.loads(last) if last.startswith("{") else {}
                if code != 0 or not result.get("correct"):
                    print("FAILED %s seed %d (exit %d)" % (w, seed, code))
                    sys.stdout.write(text[-2000:])
                    return 1
                result.update({"workload": w, "seed": seed,
                               "seconds": seconds})
                out.write(json.dumps(result) + "\n")
                out.flush()
                rows.append(result)
                print("%s seed %d ok" % (w, seed), flush=True)
    print(spread_table(rows, s["end_to_end"]))
    return 0


def load_rows(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def verdict(parent, change, better, bound):
    """The pairs-and-quartiles rule of the choosing-metrics guide."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, _, p_q3 = statistics.quantiles(parent, n=4)
    p_spread = p_q3 - p_q1
    gain = sign * (c_med - p_med)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    too_noisy = p_med == 0 or p_spread / abs(p_med) > bound
    if won >= 0.9 * len(pairs) and gain > p_spread:
        return won, "better"
    if -gain > bound * abs(p_med):
        return won, "unresolved" if too_noisy and not all_worse else "worse"
    if too_noisy and not all_better:
        return won, "unresolved"
    return won, "unchanged"


def by_seed(rows, workload, seconds, path):
    """One workload's rows keyed by seed; refuses mixed run lengths."""
    out = {}
    for r in rows:
        if r["workload"] != workload:
            continue
        if r.get("seconds") != seconds:
            raise SystemExit("%s: %s seed %s ran %s s, not run_seconds %s" % (
                path, workload, r["seed"], r.get("seconds"), seconds))
        if r["seed"] in out:
            raise SystemExit("%s: %s seed %s recorded twice" % (
                path, workload, r["seed"]))
        out[r["seed"]] = r
    return out


def cmd_compare(args):
    s = spec()
    parent, change = load_rows(args.parent), load_rows(args.change)
    worse = 0
    print("%-18s %-12s %-34s %-34s %-7s %-9s %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "won", "delta", "verdict"))
    for w in [x["name"] for x in s["workloads"]]:
        p_rows = by_seed(parent, w, s["run_seconds"], args.parent)
        c_rows = by_seed(change, w, s["run_seconds"], args.change)
        if set(p_rows) != set(c_rows):
            raise SystemExit("%s: the two sets ran different seeds: %s vs %s"
                             % (w, sorted(p_rows), sorted(c_rows)))
        seeds = sorted(p_rows)
        n = len(seeds)
        if n < 2:
            continue
        for m in s["end_to_end"]:
            p = [p_rows[k]["metrics"][m["name"]]["value"] for k in seeds]
            c = [c_rows[k]["metrics"][m["name"]]["value"] for k in seeds]
            won, v = verdict(p, c, m["better"], m["bound"])
            worse += v == "worse"

            def box(vals):
                q1, _, q3 = statistics.quantiles(vals, n=4)
                return "%.5g [%.5g, %.5g]" % (statistics.median(vals), q1, q3)

            pm = statistics.median(p)
            delta = (statistics.median(c) - pm) / pm if pm else float("nan")
            print("%-18s %-12s %-34s %-34s %-7s %-9s %s" % (
                w, m["name"], box(p), box(c), "%d/%d" % (won, n),
                "%+.2f%%" % (100 * delta), v))
    return 1 if worse else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("collect", "compare"):
        ap = argparse.ArgumentParser(prog="run.py " + sys.argv[1])
        if sys.argv[1] == "collect":
            ap.add_argument("--out", required=True)
            ap.add_argument("--workloads", default="")
            ap.add_argument("--seeds", default="1-10")
            return cmd_collect(ap.parse_args(sys.argv[2:]))
        ap.add_argument("parent")
        ap.add_argument("change")
        return cmd_compare(ap.parse_args(sys.argv[2:]))
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return cmd_run(ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
