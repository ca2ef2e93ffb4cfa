#!/usr/bin/env python3
"""grw performance benchmark.

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
library from the checkout's src/), makes the fixture once, and measures one
workload in its own process:

    python3 perfbench/run.py --workload estimate-srw2css --seed 1 \
        --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the separate traced
pass and prints the per-layer metrics. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics. The line before
it ("env: {...}") records the build and host the numbers came from.

--workload all runs every workload, each in its own process, and prints a
table of every metric by name.

Everything the benchmark writes lives under .bench_build/ in the checkout:
the build, the fixture (reused by later runs), results and span files.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

WORKLOADS = ["estimate-srw2css", "estimate-srw3", "outofcore-b50", "serve-mix"]

# The fixture graph is the same for every run: the seed argument drives the
# requests, not the graph, so runs with different seeds differ only in what
# they ask and every run after the first reuses the fixture.
FIXTURE_SEED = 1

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
BINARY = os.path.join(BUILD, "grw_perfbench")

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False)
    if proc.returncode != 0:
        with open(log_path) as log:
            tail = log.read()[-4000:]
        fail(f"{' '.join(cmd[:3])} failed:\n{tail}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the library sources (CMakeLists.txt, src/) are not next to "
             "perfbench/; run from a full checkout", code=2)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(WORK, "configure.log"), BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", BUILD, "-j", jobs],
               os.path.join(WORK, "build.log"), BUILD_TIMEOUT_S)


def cmake_cache():
    values = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith(("#", "//")) or "=" not in line:
                continue
            key, value = line.rstrip("\n").split("=", 1)
            values[key.split(":")[0]] = value
    return values


def read_text(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return ""


def llc_size():
    best = (0, "")
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = read_text(os.path.join(base, entry, "level"))
        if level.isdigit() and int(level) > best[0]:
            best = (int(level), read_text(os.path.join(base, entry, "size")))
    return best[1] or "unknown"


def cpu_model():
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def git_sha():
    # The checkout may not be a repository; never look above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment():
    cache = cmake_cache()
    options = {k: v for k, v in sorted(cache.items())
               if k.startswith("GRW_") and v.upper() in
               ("ON", "OFF", "TRUE", "FALSE", "1", "0")}
    for option in ("GRW_FAULT_INJECTION", "GRW_TSAN"):
        if options.get(option, "OFF").upper() in ("ON", "TRUE", "1"):
            fail(f"{option} is on in {BUILD}: such a build is a different "
                 "program; reconfigure without it", code=3)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = compiler
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "llc": llc_size(),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "grw_options": options,
        "git_sha": git_sha(),
    }


def fixture():
    path = os.path.join(WORK, "fixtures", f"seed-{FIXTURE_SEED}")
    if os.path.isfile(os.path.join(path, "READY")):
        return path
    staging = f"{path}.tmp.{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    run_logged([BINARY, "fixture", "--seed", str(FIXTURE_SEED),
                "--out", staging],
               os.path.join(WORK, "fixture.log"), RUN_TIMEOUT_S)
    open(os.path.join(staging, "READY"), "w").close()
    shutil.rmtree(path, ignore_errors=True)
    os.rename(staging, path)
    return path


def measure(workload, seed, seconds, trace, fixture_dir):
    """Runs one workload in its own process; returns the parsed result."""
    cmd = [BINARY, "trace" if trace else "run", "--workload", workload,
           "--fixture", fixture_dir, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        traces = os.path.join(WORK, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(traces, f"{workload}.spans")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{workload} exited {proc.returncode} without a result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload} printed a malformed result: {lines[-1]}")
    return result


def save(workload, seed, trace, env, result):
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(results, name), "w") as out:
        json.dump({"workload": workload, "seed": seed, "trace": trace,
                   "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                   "env": env, "result": result}, out, indent=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    env = environment()
    fixture_dir = fixture()
    print("env: " + json.dumps(env, sort_keys=True), flush=True)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        result = measure(workload, args.seed, args.seconds, args.trace,
                         fixture_dir)
        save(workload, args.seed, args.trace, env, result)
        results[workload] = result

    if args.workload != "all":
        result = results[args.workload]
        print(json.dumps(result), flush=True)
        sys.exit(0 if result["correct"] else 1)

    print(f"{'workload':18} {'metric':36} {'value':>16} unit")
    for workload, result in results.items():
        attempted, failed = result["attempted"], result["failed"]
        print(f"{workload:18} {'failed_frac':36} "
              f"{failed / max(attempted, 1):16.6g} ratio")
        for name, metric in result["metrics"].items():
            print(f"{workload:18} {name:36} {metric['value']:16.6g} "
                  f"{metric['unit']}")
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": {}}), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
