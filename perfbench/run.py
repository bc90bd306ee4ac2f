#!/usr/bin/env python3
"""Build and run the tacsim benchmark; print its metrics and a JSON result.

Usage (from the repository root):

    python3 perfbench/run.py --workload translation_1c --seed 1 \\
        --seconds 10 --trace 0

builds the simulator and the driver from source (CMake, into
$CARGO_TARGET_DIR/perfbench-<checkout hash>, or under .bench_build when
CARGO_TARGET_DIR is unset), runs one
closed-loop measurement, prints one "name value unit" line per metric
and, as the last line, a JSON object with the keys correct, attempted,
failed and metrics. It exits non-zero when any point misses its
reference. --trace 1 prints the per-layer metrics instead of the
end-to-end ones. See perfbench/README.md.

    python3 perfbench/run.py --regen-reference

re-runs every workload and input variant and rewrites
perfbench/reference.tsv (only for changes that mean to alter simulated
behaviour).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.tsv")
BINARY_TIMEOUT_S = 170
TIMED_BUILD_TYPES = ("Release", "RelWithDebInfo")
# Printed beside the gated metrics: the timings before host-probe
# scaling, and the median probe time itself.
UNSCALED = ("wall_s", "sim_kips", "probe_ms")


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    """Build tree of this checkout. Checkouts that share one
    CARGO_TARGET_DIR (a parent and a change in an A/B run) each get
    their own tree, so none compiles another's sources."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    tag = hashlib.sha256(HERE.encode()).hexdigest()[:12]
    return os.path.join(ROOT, target, "perfbench-" + tag)


def build():
    """Configure (once) and build the driver; returns the binary path."""
    out = build_dir()
    jobs = str(min(nproc(), 4))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "tacsim-bench")


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_driver(binary, args):
    work = os.path.join(build_dir(), "work", f"{args.workload}-{args.seed}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", REFERENCE, "--work-dir", work]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=BINARY_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"run.py: tacsim-bench failed (exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-reference", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")
    if args.regen_reference:
        subprocess.run([binary, "--regen-reference", REFERENCE,
                        "--work-dir", os.path.join(build_dir(), "work")],
                       check=True)
        return 0
    if not args.workload:
        ap.error("--workload is required")

    code, report = run_driver(binary, args)
    host = report["host"]
    if host["build_type"] not in TIMED_BUILD_TYPES:
        sys.exit(f"run.py: refusing timings from a {host['build_type']} "
                 "build")

    wanted = metric_names(args.trace)
    metrics = {name: report["metrics"][name] for name in wanted
               if name in report["metrics"]}
    missing = [name for name in wanted if name not in metrics]
    attempted, failed = report["attempted"], report["failed"]

    print(f"host: nproc={host['nproc']} compiler={host['compiler']} "
          f"build_type={host['build_type']} loadavg={host['loadavg']}")
    print(f"workload={report['workload']} seed={report['seed']} "
          f"variant={report['variant']} trace={report['trace']} "
          f"points={report['points']} passes={report['passes']} "
          f"jobs={report['jobs']}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    unscaled = [f"{name} {report['metrics'][name]['value']:.6g} "
                f"{report['metrics'][name]['unit']}"
                for name in UNSCALED if name in report["metrics"]]
    if unscaled:
        print("unscaled (not gated): " + ", ".join(unscaled))
    walls = report["pass_wall_s"]
    if len(walls) >= 2:
        print(f"pass wall: fastest {min(walls):.6g} s, median "
              f"{statistics.median(walls):.6g} s, p90 "
              f"{statistics.quantiles(walls, n=10)[-1]:.6g} s over "
              f"{len(walls)} passes")
    print(f"failed_frac {failed / max(attempted, 1):.6g} fraction "
          f"({failed} of {attempted} points)")
    for err in report["errors"]:
        print(f"error: {err}")
    for name in missing:
        print(f"error: metric {name} was not reported")

    correct = code == 0 and failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
