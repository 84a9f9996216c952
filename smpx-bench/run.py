#!/usr/bin/env python3
"""smpx-bench entry point: builds the benchmark binary from this checkout's
sources, runs one workload, and prints its result record as the last line
of stdout.

    python3 smpx-bench/run.py --workload offline --seed 1 --seconds 10 --trace 0

Workloads: offline, multi, sharded, serve (see README.md next to this
file). The build goes to $CARGO_TARGET_DIR/smpx-bench (default
.bench_build/smpx-bench); per-run scratch files live next to it and are
removed when the run ends; a traced run leaves its span file in
<build dir>/../smpx-bench-traces/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline", "multi", "sharded", "serve")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print("smpx-bench: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group, killing the whole group on
    timeout. Returns (returncode or None on timeout, stdout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None
    return proc.returncode, out


def build(build_dir, env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "smpx_bench"])
    for cmd in steps:
        rc, _ = run_group(cmd, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr,
                          stderr=sys.stderr)
        if rc != 0:
            fail(3, "build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "smpx_bench")


def source_digest():
    """Digest of the sources the binary is built from (the checkout is not
    necessarily a git repository)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", os.path.basename(HERE)):
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = sorted(os.path.join(d, f)
                           for d, _, names in os.walk(path) for f in names)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return r.stdout.strip() if r.returncode == 0 else "none"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """The last stdout line must be the result record with exactly the
    metrics BENCHMARK.json declares for this mode."""
    try:
        result = json.loads(line)
    except ValueError:
        fail(4, "last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(4, "result record has keys %s" % sorted(result))
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != declared_metrics(trace):
        fail(4, "reported metrics differ from BENCHMARK.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    build_dir = os.path.join(base, "smpx-bench")
    work = os.path.join(base, "smpx-bench-work", str(os.getpid()))
    traces = os.path.join(base, "smpx-bench-traces")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        exe = build(build_dir, env)
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               # Relative: unix socket paths are limited to ~100 bytes.
               "--workdir", os.path.relpath(work, ROOT),
               "--trace-file", os.path.join(
                   traces, "%s-seed%d.json" % (args.workload, args.seed)),
               "--sha", git_sha(), "--src-digest", source_digest()]
        rc, out = run_group(cmd, RUN_TIMEOUT_S, env=env,
                            stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if rc is None:
        fail(5, "workload run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    if rc == 0:
        check_result(lines[-1], args.trace == 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    if rc != 0:
        fail(rc if rc > 0 else 6, "workload exited with status %d" % rc)


if __name__ == "__main__":
    main()
