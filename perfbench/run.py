#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the staq library from src/ plus the perfbench
binary) in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; build output
goes to stderr. The binary's stdout is passed through unchanged: its last
line is the result object. Result documents and span dumps land in
.bench_out/. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170
# Every workload the binary runs. whatif_serve is not in BENCHMARK.json (see
# README.md) but stays runnable by name, so the self-test covers it too.
WORKLOADS = ("exact_sweep", "ssr_budget", "whatif_serve")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the staq sources (src/) are not in this checkout")
        return None
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "perfbench")


def declared_metrics():
    """Metric name -> unit for trace 0 and trace 1, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_metrics(result, expected):
    """Returns a list of problems: metric names or units off BENCHMARK.json."""
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    problems = [f"missing metric {n}" for n in expected if n not in got]
    problems += [f"unexpected metric {n}" for n in got if n not in expected]
    problems += [f"metric {n} has unit {got[n]}, expected {u}"
                 for n, u in expected.items() if n in got and got[n] != u]
    return problems


def run_binary(binary, argv):
    """Runs the binary; returns (exit code, stdout text)."""
    try:
        done = subprocess.run([binary] + argv + ["--out", OUT_DIR],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"the binary exceeded {RUN_TIMEOUT_S} s")
        return 1, ""
    return done.returncode, done.stdout


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def run(args):
    binary = build()
    if binary is None:
        return 1
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, stdout = run_binary(binary, argv)
    result = last_json(stdout)
    if result is None:
        sys.stderr.write(stdout)
        log("the binary printed no result")
        return 1
    end_to_end, per_layer = declared_metrics()
    problems = check_metrics(result, per_layer if args.trace else end_to_end)
    if problems:
        sys.stderr.write(stdout)
        for problem in problems:
            log(problem)
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


def selftest():
    """Tiny-scale check of every workload: each emits every named metric
    with its unit in both modes, a perturbed answer is rejected, and SSR
    answers repeat exactly across two runs with one seed."""
    binary = build()
    if binary is None:
        return 1
    end_to_end, per_layer = declared_metrics()
    failures = []
    seed = 7
    for workload in WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            argv = ["--workload", workload, "--seed", str(seed), "--seconds",
                    "2", "--trace", str(trace), "--tiny"]
            code, stdout = run_binary(binary, argv)
            result = last_json(stdout)
            name = f"{workload} trace {trace}"
            if code != 0 or result is None or not result.get("correct"):
                failures.append(f"{name}: run failed (exit {code})")
                continue
            failures += [f"{name}: {p}" for p in check_metrics(result, expected)]
        code, stdout = run_binary(binary, ["--workload", workload, "--seed",
                                           str(seed), "--seconds", "2",
                                           "--trace", "0", "--tiny",
                                           "--perturb"])
        result = last_json(stdout)
        if code == 0 or result is None or result.get("correct") is not False:
            failures.append(f"{workload}: a perturbed answer was not rejected")
    digests = []
    for _ in range(2):
        run_binary(binary, ["--workload", "ssr_budget", "--seed", str(seed),
                            "--seconds", "2", "--trace", "0", "--tiny"])
        with open(os.path.join(OUT_DIR, f"ssr_budget-{seed}-trace0.json")) as f:
            digests.append(json.load(f)["digest"])
    if not digests[0] or digests[0] != digests[1]:
        failures.append(f"ssr_budget: answers differ across runs {digests}")
    for failure in failures:
        log("FAIL " + failure)
    log("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
