#!/usr/bin/env python3
"""CADMC end-to-end benchmark.

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
CADMC libraries from ../src), runs one workload and prints its metrics. The
last stdout line is the JSON result; every metric it carries is checked
against BENCHMARK.json by name and unit.

    python3 perfbench/run.py --workload edge_frame --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (relative to the repository root),
default .bench_build.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY = "cadmc_perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"CADMC sources not found under {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    jobs = str(os.cpu_count() or 1)

    def cmake(*args):
        return subprocess.run(["cmake", *args], stdout=sys.stderr, stderr=sys.stderr).returncode

    configure = ["-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not (build_dir / "CMakeCache.txt").is_file() and cmake(*configure) != 0:
        fail("cmake configure failed")
    if cmake("--build", str(build_dir), "--target", BINARY, "-j", jobs) != 0:
        fail("build failed")
    return build_dir / BINARY


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(binary, workload, seed, seconds, trace, extra=()):
    """Runs the benchmark program; returns (stdout lines before the result, result dict)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} timed out after {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra_names = sorted(set(got) - set(want))
        wrong_units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"{workload}: metric set differs from BENCHMARK.json: missing={missing} "
             f"unexpected={extra_names} wrong_units={wrong_units}")
    return lines[:-1], result


def self_test(binary):
    """Short smoke runs: every metric printed with its unit, clean runs pass
    their checks, and injected failures raise the error rate."""
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    problems = []

    def check(label, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            problems.append(label)

    for workload in workloads:
        for trace in (0, 1):
            _, result = run(binary, workload, 7, 3, trace, ["--setup-reps", "1"])
            check(f"{workload} trace={trace}: all metrics, correct, no failures",
                  result["correct"] and result["failed"] == 0 and result["attempted"] > 0)
    for workload, inject in (("edge_frame", "corrupt"), ("cloud_conv_suffix", "corrupt"),
                             ("cloud_conv_suffix", "shed")):
        _, result = run(binary, workload, 7, 3, 0, ["--setup-reps", "1", "--inject", inject])
        check(f"{workload} --inject {inject}: error rate "
              f"{result['failed']}/{result['attempted']} > 0", result["failed"] > 0)
        if inject == "corrupt":
            check(f"{workload} --inject corrupt: flagged incorrect", not result["correct"])
    if problems:
        fail(f"self-test failed: {problems}")
    print("perfbench self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.self_test:
        self_test(binary)
        return
    if not args.workload:
        parser.error("--workload is required")
    lines, result = run(binary, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
