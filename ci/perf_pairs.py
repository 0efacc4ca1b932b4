#!/usr/bin/env python3
"""Interleaved parent/change perfbench pairs, with the gain and no-regression verdicts.

Usage (from anywhere; both checkouts are full trees of this repository):

    python3 ci/perf_pairs.py --parent ../parent --change . --pairs 10 \\
        --seconds 10 --seed-base 5000 --claim bulk:ops_per_cpu_s

Each checkout builds perfbench into its own CARGO_TARGET_DIR
(<checkout>/.bench_build, or <target-root>/{parent,change} with
--target-root), once, before any timed run. Pair i runs every workload on
both checkouts with seed seed-base + i; even pairs run the parent first, odd
pairs the change first. For every workload and every end-to-end metric that
BENCHMARK.json lists, the report gives each side's median and quartiles and
the change's win count, then two verdicts:

  claim          only for --claim workload:metric pairs: the change wins at
                 least 9 of every 10 pairs (ties count for neither side) and
                 its median beats the parent's by more than the parent's
                 inter-quartile distance;
  no-regression  the change's median is no worse than the parent's by more
                 than the metric's bound (a fraction of the parent's median).
                 Where the parent's own spread is wider than the bound the
                 metric is "unresolved", unless every change run beats every
                 parent run. A larger share of failed operations on any
                 workload is a regression too.

Standard library only. Not part of ci/check.sh: a full run at --seconds 10
takes about pairs x workloads x 2 x 15 s.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def fail(msg):
    print(f"perf_pairs: {msg}", file=sys.stderr)
    sys.exit(1)


def load_benchmark(checkout):
    path = os.path.join(checkout, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def run_once(checkout, target_dir, workload, seed, seconds):
    """One perfbench run; returns its result object (the last stdout line)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"{checkout}: {workload} seed {seed} exited {proc.returncode}")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        fail(f"{checkout}: {workload} seed {seed} printed no result")
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail(f"{checkout}: {workload} seed {seed}: last line is not JSON")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(a, b, higher_is_better):
    return a > b if higher_is_better else a < b


def judge(parent, change, metric, claimed):
    """Summary and verdicts for one workload x metric (paired run lists)."""
    higher = metric["better"] == "higher"
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p, higher))
    losses = sum(1 for p, c in zip(parent, change) if better(p, c, higher))
    spread = p_q3 - p_q1
    gain = (c_med - p_med) if higher else (p_med - c_med)
    rel = gain / p_med if p_med else 0.0
    out = {
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "wins": wins, "losses": losses, "pairs": len(parent),
        "relative_gain": rel,
    }
    worse = -rel
    all_better = (min(change) > max(parent)) if higher else (max(change) < min(parent))
    if worse > metric["bound"]:
        out["no_regression"] = "REGRESSION"
    elif p_med and spread / abs(p_med) > metric["bound"] and not all_better:
        out["no_regression"] = "unresolved"
    else:
        out["no_regression"] = "ok"
    if claimed:
        met = wins * 10 >= 9 * len(parent) and gain > spread
        out["claim"] = "MET" if met else "NOT MET"
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--seed-base", type=int, default=1000,
                    help="pair i uses seed seed-base + i on both sides")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated subset (default: all in BENCHMARK.json)")
    ap.add_argument("--claim", action="append", default=[],
                    help="workload:metric the change claims to improve (repeatable)")
    ap.add_argument("--target-root", default=None,
                    help="build under <root>/parent and <root>/change")
    ap.add_argument("--json", default=None, help="also write the report here")
    args = ap.parse_args()
    if args.pairs < 1:
        fail("--pairs must be >= 1")

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    bench = load_benchmark(sides["change"])
    seconds = args.seconds or bench.get("run_seconds", 10)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        wanted = args.workloads.split(",")
        unknown = set(wanted) - set(workloads)
        if unknown:
            fail(f"unknown workloads: {sorted(unknown)}")
        workloads = wanted
    metrics = bench["end_to_end"]
    names = {m["name"] for m in metrics}
    claims = set()
    for c in args.claim:
        w, _, m = c.partition(":")
        if w not in workloads or m not in names:
            fail(f"--claim {c}: not a workload:end-to-end-metric of this run")
        claims.add((w, m))

    targets = {}
    for side, root in sides.items():
        targets[side] = (os.path.join(os.path.abspath(args.target_root), side)
                         if args.target_root else os.path.join(root, ".bench_build"))
    # Build both before timing anything (the warm-up result is discarded).
    for side, root in sides.items():
        print(f"building {side} ({root}) into {targets[side]}", file=sys.stderr)
        run_once(root, targets[side], workloads[0], 0, 1)

    results = {side: {w: [] for w in workloads} for side in sides}
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                r = run_once(sides[side], targets[side], w, seed, seconds)
                if not r.get("correct", False):
                    fail(f"{side}: {w} seed {seed} reported incorrect output")
                results[side][w].append(r)
                print(f"pair {i + 1}/{args.pairs} seed {seed} {w} {side}: " +
                      " ".join(f"{m['name']}={r['metrics'][m['name']]['value']:.6g}"
                               for m in metrics), file=sys.stderr)

    report = {"pairs": args.pairs, "seconds": seconds, "seed_base": args.seed_base,
              "workloads": {}}
    verdict_ok = True
    print(f"\n{args.pairs} interleaved pairs, --seconds {seconds}, "
          f"seeds {args.seed_base}..{args.seed_base + args.pairs - 1}")
    print(f"{'workload':8} {'metric':14} {'parent median [q1, q3]':36} "
          f"{'change median [q1, q3]':36} {'gain':>7} {'wins':>6}  verdicts")
    for w in workloads:
        row = {}
        p_failed = [r["failed"] / max(1, r["attempted"]) for r in results["parent"][w]]
        c_failed = [r["failed"] / max(1, r["attempted"]) for r in results["change"][w]]
        row["failed_share"] = {"parent": statistics.median(p_failed),
                               "change": statistics.median(c_failed)}
        for m in metrics:
            name = m["name"]
            parent = [r["metrics"][name]["value"] for r in results["parent"][w]]
            change = [r["metrics"][name]["value"] for r in results["change"][w]]
            j = judge(parent, change, m, (w, name) in claims)
            row[name] = j
            verdicts = f"no-regression {j['no_regression']}"
            if "claim" in j:
                verdicts += f", claim {j['claim']}"
                verdict_ok &= j["claim"] == "MET"
            verdict_ok &= j["no_regression"] != "REGRESSION"
            def cell(q):
                return f"{q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]"
            print(f"{w:8} {name:14} {cell(j['parent']):36} {cell(j['change']):36} "
                  f"{100 * j['relative_gain']:>+6.1f}% {j['wins']:>3}/{j['pairs']:<3} "
                  f"{verdicts}")
        if row["failed_share"]["change"] > row["failed_share"]["parent"]:
            print(f"{w:8} failed share rose: {row['failed_share']}")
            verdict_ok = False
        report["workloads"][w] = row
    print("\noverall: " + ("pass" if verdict_ok else "FAIL"))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
    return 0 if verdict_ok else 1


if __name__ == "__main__":
    sys.exit(main())
