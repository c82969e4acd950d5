#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see BENCHMARK.json).

Run from the repository root:

    python3 perfbench/run.py --workload covered_sql --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ (the mdw library from src/ plus the
sql_bench program) into .bench_build/, then runs sql_bench and relays its
output; the last line of stdout is the result JSON. paged_sql gets a
fresh segment directory under .bench_build/ that is removed on exit, so
every run writes its segments instead of reusing a previous run's.
--trace 1 also writes the spans to .bench_build/traces/<workload>.tsv.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and returns (returncode, stdout).

    The whole group (the build's compilers included) is killed if cmd
    times out or this script exits early, so nothing outlives the run.
    """
    proc = subprocess.Popen(cmd, start_new_session=True, text=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{cmd[0]} exceeded {timeout} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out


def build():
    """Configures and builds the benchmark; build output -> stderr."""
    if not os.path.isdir("src") or not os.path.isfile("perfbench/CMakeLists.txt"):
        fail("run from the repository root: src/ and perfbench/ are required")
    steps = [["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)]]
    # Configure once; the build step re-runs it when a CMakeLists changes.
    if not any(os.path.isfile(os.path.join(BUILD_DIR, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.insert(0, ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                         *generator, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        code, _ = run_group(step, BUILD_TIMEOUT_S, stdout=sys.stderr,
                            stderr=sys.stderr)
        if code != 0:
            fail("build failed: " + " ".join(step))


def source_id():
    """The git commit when run inside a repository, else a digest of src/."""
    if os.path.exists(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so the cleanup below still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build()
    os.makedirs(os.path.join(BUILD_DIR, "tmp"), exist_ok=True)
    os.makedirs(os.path.join(BUILD_DIR, "traces"), exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=os.path.join(BUILD_DIR, "tmp"))
    cmd = [os.path.join(BUILD_DIR, "sql_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--store-dir", store_dir, "--commit", source_id()]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD_DIR, "traces", f"{args.workload}.tsv")]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if code != 0:
        fail(f"sql_bench exited with {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("sql_bench printed no result line")
    if set(result) != RESULT_KEYS:
        fail("malformed result line")
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
