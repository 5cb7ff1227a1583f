#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics (see README.md).

    python3 htbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the library and the workload runner
into .bench_build/ on first use, runs the workload, records the result
with a host manifest under .bench_build/results/, prints one line per
metric and, as the last line, the JSON object
{"correct", "attempted", "failed", "metrics"}. Exits 1 without a result
when the build or the run fails, and 1 after the result when a simulated
outcome is wrong.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(BUILD_DIR, "htbench_run")
RUN_TIMEOUT_S = 170


def fail(message):
    print("htbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then let the build tool bring htbench_run up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under %s; run from a full checkout" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT, env=env) != 0:
                fail("configure failed, see " + log_path)
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD_DIR, "--target", "htbench_run", "-j", jobs]
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT, env=env) != 0:
            fail("build failed, see " + log_path)


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.splitlines()[0].strip() if out.strip() else "unknown"


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def manifest(build_type):
    """Where the numbers came from: host, toolchain, build and revision."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")) and shutil.which("git"):
        sha = first_line(["git", "-C", ROOT, "rev-parse", "HEAD"])
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = first_line([compiler, "--version"]) if compiler != "unknown" else "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "compiler": compiler,
        "compiler_version": version,
        "build_type": build_type,
        "git_sha": sha,
        "kernel": platform.release(),
        "python": platform.python_version(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    stamp = "%s-s%d-t%d-%d" % (args.workload, args.seed, args.trace, time.time_ns())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(BUILD_ROOT, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(BUILD_ROOT, "traces", stamp + ".json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("workload run failed with exit code %d" % proc.returncode)
    result = json.loads(lines[-1])

    record = {"manifest": manifest(result["build_type"]), "result": result}
    os.makedirs(os.path.join(BUILD_ROOT, "results"), exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "results", stamp + ".json"), "w") as f:
        json.dump(record, f, indent=1)

    print("htbench %s seed=%d trace=%d: %d untraced + %d traced reps in %.1f s, %s" % (
        args.workload, args.seed, args.trace, result["reps"], result["traced_reps"],
        result["elapsed_s"], "correct" if result["correct"] else "WRONG"))
    print("  host scale %.4f (median probe %.6f s on cpu %d; times are in reference-host seconds)"
          % (result["host_scale"], result["probe_s"], result["cpu"]))
    host = record["manifest"]
    print("  host: %s x%s, %s, %s, git %s" % (host["cpu_model"], host["nproc"],
                                             host["compiler_version"], host["build_type"],
                                             host["git_sha"][:12]))
    for violation in result["violations"]:
        print("  violation: " + violation)
    for name, m in result["metrics"].items():
        print("  %-28s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
