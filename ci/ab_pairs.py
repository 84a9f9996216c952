#!/usr/bin/env python3
"""Interleaved A/B pairs of one smpx-bench workload across two checkouts.

    python3 ci/ab_pairs.py PARENT_DIR CHANGE_DIR --workload sharded \\
        --pairs 10 --seconds 20 --seed 31

Pair i runs both checkouts' smpx-bench/run.py at seed SEED+i, the parent
first on even pairs and the change first on odd ones, so a drift in the
machine's speed over the session does not favour either side. Each side
builds into its own CARGO_TARGET_DIR (<checkout>/.bench_build, or
--target-root/{parent,change}); the first pair also pays for the builds,
which run before the timed workload.

Prints one row per pair with every end-to-end metric of both sides, then,
per metric, both sides' medians and quartiles, the median gap, and in how
many pairs the change was better (the direction comes from the change's
BENCHMARK.json). A claimed gain holds when the change wins at least 9 of
10 pairs and its median gap exceeds the parent's interquartile distance;
the `claim` column reads "yes" when both hold.

Exits 1 as soon as a run fails or reads "correct": false (the pairs done
so far are still summarised), 2 on a usage error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def load_metrics(checkout):
    """End-to-end metric names in declaration order, with their direction."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def run_side(checkout, target, args, seed):
    """One run.py invocation; returns (metrics dict, error or None)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, os.path.join("smpx-bench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except ValueError:
        record = None
    if record is None:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, "exit %d, no result record: %s" % (
            proc.returncode, " | ".join(tail))
    metrics = {name: m["value"] for name, m in record["metrics"].items()}
    if record.get("correct") is not True:
        return metrics, "run read \"correct\": %s" % record.get("correct")
    if proc.returncode != 0:
        return metrics, "exit %d" % proc.returncode
    return metrics, None


def quartiles(values):
    """(q1, median, q3) by linear interpolation; a single value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def fmt(v):
    return "%.4g" % v


def summarise(rows, metrics, pairs_run):
    print("\n%-13s %-7s %-32s %-32s %8s %7s %s" % (
        "metric", "better", "parent median [q1, q3]",
        "change median [q1, q3]", "gap", "wins", "claim"))
    for name, better in metrics:
        a = [r[name][0] for r in rows]
        b = [r[name][1] for r in rows]
        aq1, amed, aq3 = quartiles(a)
        bq1, bmed, bq3 = quartiles(b)
        sign = 1 if better == "higher" else -1
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        gap = bmed - amed
        rel = 100.0 * gap / amed if amed else float("nan")
        claim = (wins * 10 >= 9 * len(rows) and sign * gap > 0 and
                 abs(gap) > aq3 - aq1)
        print("%-13s %-7s %-32s %-32s %+7.1f%% %3d/%-3d %s" % (
            name, better,
            "%s [%s, %s]" % (fmt(amed), fmt(aq1), fmt(aq3)),
            "%s [%s, %s]" % (fmt(bmed), fmt(bq1), fmt(bq3)),
            rel, wins, len(rows), "yes" if claim else "no"))
    if len(rows) < pairs_run:
        print("(%d of %d pairs completed)" % (len(rows), pairs_run))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--seed", type=int, required=True,
                    help="seed of the first pair; pair i uses SEED+i")
    ap.add_argument("--target-root",
                    help="build under DIR/parent and DIR/change instead of "
                         "each checkout's .bench_build")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds must be positive")

    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    targets = {}
    for side in SIDES:
        if not os.path.isfile(os.path.join(checkouts[side], "smpx-bench",
                                           "run.py")):
            ap.error("%s has no smpx-bench/run.py" % checkouts[side])
        targets[side] = (os.path.join(os.path.abspath(args.target_root), side)
                         if args.target_root else
                         os.path.join(checkouts[side], ".bench_build"))
    metrics = load_metrics(checkouts["change"])

    header = "pair seed  first  " + "  ".join(
        "%s(parent/change)" % name for name, _ in metrics)
    print("workload %s, %d pairs of %d s, seeds %d..%d" % (
        args.workload, args.pairs, args.seconds, args.seed,
        args.seed + args.pairs - 1))
    print(header, flush=True)
    rows = []
    error = None
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        got = {}
        for side in order:
            values, err = run_side(checkouts[side], targets[side], args, seed)
            if err is not None:
                error = "pair %d (seed %d), %s: %s" % (i, seed, side, err)
                break
            got[side] = values
        if error is not None:
            break
        row = {name: (got["parent"][name], got["change"][name])
               for name, _ in metrics}
        rows.append(row)
        print("%4d %4d  %-6s %s" % (i, seed, order[0], "  ".join(
            "%s/%s" % (fmt(row[name][0]), fmt(row[name][1]))
            for name, _ in metrics)), flush=True)
    if rows:
        summarise(rows, metrics, args.pairs)
    if error is not None:
        print("ab_pairs: " + error, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
