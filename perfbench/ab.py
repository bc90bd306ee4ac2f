#!/usr/bin/env python3
"""Steadiness and A/B runner for the tacsim benchmark.

steady: run each workload repeatedly, one seed per run, and print the
median, the quartiles and the spread (quartile distance / median) of
every end-to-end metric next to its bound from BENCHMARK.json:

    python3 perfbench/ab.py steady --workload mix_8c --runs 10

ab: run interleaved pairs of a parent and a changed checkout, alternating
which side goes first, and judge each end-to-end metric by the rule in
perfbench/README.md ("Claiming a gain"):

    python3 perfbench/ab.py ab --parent ../tacsim-parent --change . \\
        --workload translation_1c --pairs 10

Both subcommands skip the held-back seed (31, and every seed congruent
to it mod 32), which is reserved for confirming a claim afterwards.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_BACK = 31
SEED_VARIANTS = 32


def seeds(count):
    out, s = [], 1
    while len(out) < count:
        if s % SEED_VARIANTS != HELD_BACK:
            out.append(s)
        s += 1
    return out


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seed):
    """One benchmark run in checkout @root, as long as that checkout's
    BENCHMARK.json says; returns its metrics."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(load_spec(root)["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"ab.py: {workload} seed {seed} in {root} failed its "
                 f"correctness check:\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def cmd_steady(args):
    metrics = load_spec(ROOT)["end_to_end"]
    for workload in args.workload:
        runs = [run_once(ROOT, workload, s) for s in seeds(args.runs)]
        print(f"{workload}: {len(runs)} runs")
        for m in metrics:
            med, q1, q3, spread = summary([r[m["name"]] for r in runs])
            ok = "ok" if spread < m["bound"] / 3 else "WIDE"
            print(f"  {m['name']:12s} median {med:.6g} {m['unit']}  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}  "
                  f"bound {m['bound']}  {ok}")


def verdict(m, parent, change):
    lower = m["better"] == "lower"
    p_med, p_q1, p_q3, p_spread = summary(parent)
    c_med = summary(change)[0]
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    worse = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
    if wins >= 0.9 * len(parent) and abs(c_med - p_med) > p_q3 - p_q1:
        return wins, "gain"
    if worse > m["bound"]:
        return wins, "regression"
    if p_spread > m["bound"]:
        better_all = all((c < min(parent)) if lower else (c > max(parent))
                         for c in change)
        return wins, "better in every run" if better_all else "unresolved"
    return wins, "no change beyond bound"


def cmd_ab(args):
    metrics = load_spec(args.change)["end_to_end"]
    for workload in args.workload:
        parent, change = [], []
        for i, s in enumerate(seeds(args.pairs)):
            sides = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                sides.reverse()
            for name, root in sides:
                r = run_once(root, workload, s)
                (parent if name == "parent" else change).append(r)
        print(f"{workload}: {len(parent)} pairs")
        for m in metrics:
            p = [r[m["name"]] for r in parent]
            c = [r[m["name"]] for r in change]
            wins, what = verdict(m, p, c)
            pm, pq1, pq3, _ = summary(p)
            cm, cq1, cq3, _ = summary(c)
            print(f"  {m['name']:12s} parent {pm:.6g} [{pq1:.6g}, {pq3:.6g}]"
                  f"  change {cm:.6g} [{cq1:.6g}, {cq3:.6g}] {m['unit']}"
                  f"  change won {wins}/{len(p)}  {what}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    st = sub.add_parser("steady", help="repeat runs of one checkout")
    st.add_argument("--runs", type=int, default=10)
    ab = sub.add_parser("ab", help="interleaved parent/change pairs")
    ab.add_argument("--parent", required=True)
    ab.add_argument("--change", required=True)
    ab.add_argument("--pairs", type=int, default=10)
    for p in (st, ab):
        p.add_argument("--workload", action="append", required=True)
    args = ap.parse_args()
    if args.cmd == "ab":
        args.parent = os.path.abspath(args.parent)
        args.change = os.path.abspath(args.change)
        cmd_ab(args)
    else:
        cmd_steady(args)


if __name__ == "__main__":
    main()
