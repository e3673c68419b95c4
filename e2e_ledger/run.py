#!/usr/bin/env python3
"""Builds and runs the end-to-end ledger benchmark (see README.md here).

One workload, as the benchmark contract runs it (from the repository root):

    python3 e2e_ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

All workloads, one end-to-end table (exit 1 if any answer fails its check):

    python3 e2e_ledger/run.py --all [--seed N] [--seconds S]

Regenerate BENCHMARK.json at the repository root from the tables below and
the metric names a short traced run prints:

    python3 e2e_ledger/run.py --write-manifest

The benchmark is built from the sources next to this directory into
.bench_build/e2e_ledger with CMake (Release).  Build output goes to stderr;
the last line of standard output is the benchmark's JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2e_ledger")
BINARY = os.path.join(BUILD, "e2e_ledger")
RUN_TIMEOUT_S = 170

RUN_SECONDS = 20

# The gated workloads, in BENCHMARK.json order.  serve_hit and solve_dist are
# measured in traced runs only (see README.md, "Noise"); --workload accepts
# them too.
WORKLOADS = [
    ("serve_stream",
     "service round trips over AF_UNIX: misses cycle nu 12/14/16 and all four "
     "landscape kinds, every other request a bit-identical cache hit"),
    ("study_batch8",
     "error-threshold studies: rounds of 8 random nu=16 landscapes sharing "
     "(nu, p), each batch exactly 8 wide through the m=8 panel kernels"),
    ("solve_serial",
     "the paper's shifted power iteration on Fmmp at nu=18: facade loop, "
     "IterationDriver, single-vector kernels; checks solve_dist against it"),
]
UNGATED = ["serve_hit", "solve_dist"]

# Bounds are the share by which a later change may worsen the median.  On
# the shared four-core reference host, ten 12-second runs of one workload
# spread (IQR / median) by up to 0.14 on the timing metrics; see README.md.
END_TO_END = [
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]

HIGHER_IS_BETTER = ("gbps", "_frac", "hit_ratio", "rounds_per_s", "overlap_ratio",
                    "batch_width")


def fail(message):
    sys.stderr.write("e2e_ledger: %s\n" % message)
    sys.exit(2)


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no quasispecies sources next to the benchmark (missing %s)" % needed)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "--target", "e2e_ledger", "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: %s" % " ".join(step))


def run(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def better(name):
    return "higher" if any(key in name for key in HIGHER_IS_BETTER) else "lower"


def write_manifest():
    code, out = run(WORKLOADS[0][0], 1, 2, 1)
    if code != 0:
        fail("traced run failed; manifest not written")
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    manifest = {
        "command": ["python3", "e2e_ledger/run.py"],
        "paths": ["e2e_ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": m["unit"], "better": better(n)}
                      for n, m in metrics.items()],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")


def run_all(seed, seconds):
    failed = False
    rows = []
    for name, _ in WORKLOADS:
        code, out = run(name, seed, seconds, 0)
        sys.stderr.write(out)
        result = json.loads(out.strip().splitlines()[-1])
        failed |= code != 0 or not result["correct"]
        rows.append((name, result))
    print("%-14s %8s %s" % ("workload", "failed", "  ".join(n for n, *_ in END_TO_END)))
    for name, result in rows:
        values = "  ".join("%.4g %s" % (result["metrics"][n]["value"], u)
                           for n, u, *_ in END_TO_END)
        print("%-14s %8d %s" % (name, result["failed"], values))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS] + UNGATED)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args()
    if not (args.all or args.write_manifest or args.workload):
        parser.error("one of --workload, --all or --write-manifest is required")

    build()
    if args.write_manifest:
        write_manifest()
        return 0
    if args.all:
        return run_all(args.seed, args.seconds)
    code, out = run(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
