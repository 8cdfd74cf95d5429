#!/usr/bin/env python3
"""Spread check and interleaved A/B runs for the DAMQ simulator benchmark.

Both modes read the workloads, metrics, bounds and run length from
BENCHMARK.json at the repository root, run every benchmark run for its
run_seconds, and build the benchmark in release mode under .perfbench-ab/
at the root (ignored by git).

  python3 perfbench/ab.py spread [--runs 10] [--workloads a,b] [--seed 1]
      Runs the working tree's benchmark --runs times per workload, each
      with another seed, and reports each end-to-end metric's median and
      interquartile range as a share of the median, against its bound.
      Both modes read every end-to-end metric from the run's table, so
      the printed-only step figures (cycles_per_sec, step_us_p50,
      step_us_p90) are compared too, against the largest bound in
      BENCHMARK.json.

  python3 perfbench/ab.py ab --base REV [--head REV] [--pairs 10] ...
      Exports REV (and --head, else uses the working tree) into the
      .perfbench-ab/ with `git archive`, overlays this checkout's
      benchmark files on each side so both run identical benchmark code,
      builds both, then runs --pairs pairs per workload, alternating which
      side runs first. Pair i runs both sides on seed --seed + i. For every
      (workload, end-to-end metric) it reports each side's median and
      quartiles and the share of pairs the head side wins (ties count for
      neither). A metric is "unresolved" when either side's spread exceeds
      the metric's bound, a "regression" when the head's median is worse by
      more than the bound, and a "gain" when the head wins at least 9/10 of
      the pairs and the medians differ by more than the base's own
      interquartile range.

Exit status is 0 unless a build or a benchmark run fails (a run that
prints "correct": false counts as failed).
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".perfbench-ab")
BENCH_DIR = "perfbench"
BINARY = "damq-perfbench"


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(tree, target):
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(tree, BENCH_DIR, "Cargo.toml")],
        check=True, env=dict(os.environ, CARGO_TARGET_DIR=target))
    return os.path.join(target, "release", BINARY)


def export_rev(rev, dest):
    """Writes the tree of `rev` to `dest`, then overlays this checkout's
    benchmark files so the benchmark code is the same on both sides."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    shutil.rmtree(os.path.join(dest, BENCH_DIR), ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, BENCH_DIR), os.path.join(dest, BENCH_DIR),
                    ignore=shutil.ignore_patterns("target"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    return subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", rev],
                          check=True, capture_output=True, text=True).stdout.strip()


def run_once(binary, tree, workload, seed, seconds, trace, rev):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PERFBENCH_REV=rev))
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with exit code {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']}/{result['attempted']} failed")
    # The table lines carry every end-to-end metric, including the ones
    # printed only: "<workload> <name> <value> <unit> ...".
    table = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == workload:
            try:
                table[parts[1]] = float(parts[2])
            except ValueError:
                pass
    return table


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def spread_share(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / med if med else float("inf")


def end_to_end(contract):
    """Every end-to-end metric the table prints, with the bound from
    BENCHMARK.json; metrics printed only get the largest bound there."""
    gated = {m["name"]: m for m in contract["end_to_end"]}
    widest = max(m["bound"] for m in contract["end_to_end"])
    printed = [("cycles_per_sec", "higher"), ("step_us_p50", "lower"), ("step_us_p90", "lower")]
    return list(gated.values()) + [
        {"name": n, "better": b, "bound": widest} for n, b in printed if n not in gated]


def workloads_of(contract, arg):
    names = [w["name"] for w in contract["workloads"]]
    if not arg:
        return names
    chosen = arg.split(",")
    unknown = [w for w in chosen if w not in names]
    if unknown:
        raise SystemExit(f"unknown workloads {unknown}; known: {names}")
    return chosen


def cmd_spread(args, contract):
    binary = build(ROOT, os.path.join(SCRATCH, "head-target"))
    rev = os.environ.get("PERFBENCH_REV", "working-tree")
    seconds = contract["run_seconds"]
    report = {}
    for w in workloads_of(contract, args.workloads):
        runs = [run_once(binary, ROOT, w, args.seed + i, seconds, 0, rev) for i in range(args.runs)]
        report[w] = runs
        for m in end_to_end(contract):
            values = [r[m["name"]] for r in runs]
            med, q1, q3 = summary(values)
            share = spread_share(values)
            verdict = "ok" if share < m["bound"] / 3 else ("within bound" if share <= m["bound"] else "TOO WIDE")
            print(f"{w:<12} {m['name']:<15} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {share:.4f} bound {m['bound']} {verdict}", flush=True)
    with open(os.path.join(SCRATCH, "spread.json"), "w") as f:
        json.dump(report, f, indent=1)


def cmd_ab(args, contract):
    sides = {}
    base_tree = os.path.join(SCRATCH, "base")
    sides["base"] = (base_tree, export_rev(args.base, base_tree))
    if args.head:
        head_tree = os.path.join(SCRATCH, "head")
        sides["head"] = (head_tree, export_rev(args.head, head_tree))
    else:
        sides["head"] = (ROOT, "working-tree")
    binaries = {s: build(tree, os.path.join(SCRATCH, f"{s}-target")) for s, (tree, _) in sides.items()}
    seconds = contract["run_seconds"]
    results = {w: {"base": [], "head": []} for w in workloads_of(contract, args.workloads)}
    for i in range(args.pairs):
        order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
        for w in results:
            for side in order:
                tree, rev = sides[side]
                results[w][side].append(run_once(binaries[side], tree, w, args.seed + i, seconds, 0, rev))
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr, flush=True)
    print(f"base {sides['base'][1]}  head {sides['head'][1]}  pairs {args.pairs}  seconds {seconds}")
    for w, by_side in results.items():
        for m in end_to_end(contract):
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            base = [r[name] for r in by_side["base"]]
            head = [r[name] for r in by_side["head"]]
            (bm, bq1, bq3), (hm, hq1, hq3) = summary(base), summary(head)
            wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head)) / len(base)
            worse = (hm - bm) / bm if lower else (bm - hm) / bm
            if max(spread_share(base), spread_share(head)) > bound:
                every_better = max(head) < min(base) if lower else min(head) > max(base)
                verdict = "better in every run" if every_better else "unresolved"
            elif worse > bound:
                verdict = "regression"
            elif wins >= 0.9 and abs(hm - bm) > bq3 - bq1:
                verdict = "gain"
            else:
                verdict = "no change"
            print(f"{w:<12} {name:<15} base {bm:<12.6g} [{bq1:.6g}, {bq3:.6g}]  "
                  f"head {hm:<12.6g} [{hq1:.6g}, {hq3:.6g}]  head wins {wins:.2f}  {verdict}")
    with open(os.path.join(SCRATCH, "ab.json"), "w") as f:
        json.dump({"base": sides["base"][1], "head": sides["head"][1], "results": results}, f, indent=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    spread = sub.add_parser("spread")
    spread.add_argument("--runs", type=int, default=10)
    ab = sub.add_parser("ab")
    ab.add_argument("--base", required=True, help="git revision of the parent side")
    ab.add_argument("--head", help="git revision of the change side (default: the working tree)")
    ab.add_argument("--pairs", type=int, default=10)
    for p in (spread, ab):
        p.add_argument("--workloads", help="comma-separated subset (default: all)")
        p.add_argument("--seed", type=int, default=1, help="first seed; run i uses seed + i")
    args = parser.parse_args()
    os.makedirs(SCRATCH, exist_ok=True)
    contract = load_contract()
    if args.cmd == "spread":
        if args.runs < 2:
            raise SystemExit("--runs must be at least 2")
        cmd_spread(args, contract)
    else:
        if args.pairs < 2:
            raise SystemExit("--pairs must be at least 2")
        cmd_ab(args, contract)


if __name__ == "__main__":
    main()
