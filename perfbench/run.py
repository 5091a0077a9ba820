#!/usr/bin/env python3
"""Builds the natbench harness from source and runs one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The harness (perfbench/harness) links the library through the repository's
own CMake build; the build tree lives in $CARGO_TARGET_DIR/natbench (default
.bench_build/natbench, relative to the repository root) and is reused
across runs.  The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full record (provenance, sample counts, details).  --self-test builds and
runs the harness's own unit tests instead.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(REPO, target, "natbench")


def build(target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(REPO, needed)):
            fail(f"no {needed} at {REPO}: the benchmark builds the library from source")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        jobs = str(os.cpu_count() or 1)
        subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def source_id():
    """Git commit when there is one, plus a hash of every input file."""
    digest = hashlib.sha256()
    roots = [os.path.join(REPO, "CMakeLists.txt"), os.path.join(REPO, "src"), BENCH_DIR]
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
        for parent, _, names in os.walk(root):
            files.extend(os.path.join(parent, name) for name in names
                         if not name.endswith(".pyc"))
    for path in sorted(files):
        digest.update(os.path.relpath(path, REPO).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    ident = f"tree:{digest.hexdigest()[:16]}"
    if os.path.isdir(os.path.join(REPO, ".git")) and shutil.which("git"):
        sha = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
        if sha:
            ident = f"git:{sha} {ident}"
    return ident


def catalog(trace):
    """Metric names BENCHMARK.json promises for this kind of run, if present."""
    path = os.path.join(REPO, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_harness(binary, args):
    """Runs the harness in its own session and temp dir; never leaves a process behind."""
    tmp_base = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp_base, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_base)
    env = dict(os.environ)
    # Relative, so Unix socket paths stay short wherever the checkout is.
    env["TMPDIR"] = os.path.relpath(tmp, REPO)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--source-id", source_id()]
    process = subprocess.Popen(command, cwd=REPO, env=env, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)  # stray dist workers, if any
        except ProcessLookupError:
            pass
        shutil.rmtree(tmp, ignore_errors=True)
    if process.returncode != 0:
        fail(f"{args.workload} exited with {process.returncode}", 1)
    return stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        tests = build("natbench_tests")
        sys.exit(subprocess.run([tests], cwd=REPO).returncode)
    if not args.workload:
        fail("--workload is required")

    stdout = run_harness(build("natbench"), args)
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("the harness printed no result line", 1)
    expected = catalog(args.trace == 1)
    if expected is not None and list(result["metrics"]) != expected:
        fail("the harness's metrics do not match BENCHMARK.json", 1)
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
