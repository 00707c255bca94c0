#!/usr/bin/env python3
"""Runs one workload of the TGCRN benchmark and prints its result.

    python3 perfbench/run.py --workload train-metro --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt compiles ../src with the repository's
Release flags) into $CARGO_TARGET_DIR, default .bench_build; later runs
only rebuild what changed. The benchmark's self-tests run after every
build.

Standard output: a table of every metric with its unit and sample count,
the environment stamp, the run's notes and failures, and as the last line
one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics (the traced run also writes its spans to
.bench_results/). Every run is appended, with its stamp and sample counts,
to .bench_results/ledger.jsonl; compare.py diffs two such ledgers.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-metro", "train-city-topk", "serve-fleet")
TRAIN_WORKLOADS = ("train-metro", "train-city-topk")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; runs its self-tests."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = "Ninja" if shutil.which("ninja") else "Unix Makefiles"
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-G", generator,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                   check=True, stdout=sys.stderr, timeout=60)
    return os.path.join(build_dir, "tgcrn_perfbench")


def source_digest():
    """sha256 over the program and benchmark sources (the checkout the
    benchmark runs in is not a git repository, so this names the code)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              check=True, capture_output=True,
                              text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ next to perfbench/; run from a full checkout")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir, "perfbench")
    binary = build(build_dir)

    results_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(results_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(
            results_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=175)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        log("perfbench: %s exited with %d" % (binary, proc.returncode))
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    failures = list(result["errors"])
    failed = result["failed"]
    stamp = dict(result["stamp"], commit=commit(), source=source_digest())
    if args.workload in TRAIN_WORKLOADS:
        # The fixed-seed loss trajectory must match the one recorded for
        # this ISA: bitwise reproducibility is the repository's contract.
        want = golden.get(stamp["isa"], {}).get(args.workload)
        if want != result["golden"]:
            failed += 1
            failures.append("golden digest %s != recorded %s for isa %s" %
                            (result["golden"], want, stamp["isa"]))
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if (got is None or got["unit"] != m["unit"]
                or not isinstance(got["value"], (int, float))):
            failed += 1
            failures.append("metric %s missing, not a number or in the "
                            "wrong unit" % m["name"])
            continue
        metrics[m["name"]] = got

    print("workload %s  seed %d  trace %s" %
          (args.workload, args.seed, args.trace))
    print("%-36s %16s %-6s %8s" % ("metric", "value", "unit", "samples"))
    for name, m in metrics.items():
        print("%-36s %16.6g %-6s %8d" %
              (name, m["value"], m["unit"], m["samples"]))
    print("attempted %d  failed %d" % (result["attempted"], failed))
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for note in result["notes"]:
        print("note: " + note)
    for failure in failures:
        print("FAILED: " + failure)

    correct = failed == 0 and result["attempted"] > 0
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace == "1",
              "correct": correct, "attempted": result["attempted"],
              "failed": failed, "stamp": stamp, "metrics": metrics}
    with open(os.path.join(results_dir, "ledger.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
