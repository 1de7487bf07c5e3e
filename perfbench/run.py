#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the analysis library, taj-cli and
the perfbench harness binary from source (Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload in a private directory under .perfbench_work/, and relays the
harness's stdout, whose last line is the JSON result. Everything it writes
stays inside the checkout. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite-cold", "suite-warm", "serve-mix", "batch-jobs")
# A run must end within 180 s; the build of a fresh checkout is exempt.
RUN_LIMIT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir, env):
    """Configures (once) and builds the harness; returns its directory."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE) not in f.read():
                shutil.rmtree(build_dir)  # configured for another checkout
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                     env=env, cwd=ROOT)
            except OSError as e:
                die("cannot run %s: %s" % (cmd[0], e), 1)
            if rc != 0:
                log.flush()
                with open(log_path, errors="replace") as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die("build failed (%s)" % " ".join(cmd), 1)
    return build_dir


def reap_group(pgid, timeout_s=5.0):
    """Kills whatever is left in the harness's process group and waits until
    the group is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    end = time.monotonic() + timeout_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--expected", default=os.path.join(HERE, "webapp.expected"),
                    help="reference flows of one webapp copy")
    ap.add_argument("--expect-tp", type=int, default=None,
                    help="suite workloads: classify() true positives every "
                         "pass must reproduce")
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        die("--seed must be >= 0 and --seconds in [1, 60]")

    for need in ("src/CMakeLists.txt", "tools/CMakeLists.txt",
                 "examples/webapp.taj"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s is missing: run from a full checkout" % need)
    if shutil.which("cmake") is None:
        die("cmake not found", 1)

    work_root = os.path.join(ROOT, ".perfbench_work")
    tmp = os.path.join(work_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = build(os.path.join(ROOT, target, "perfbench"), env)

    # Relative paths keep the daemon's socket path short.
    run_dir = os.path.join(".perfbench_work", "run-%d" % os.getpid())
    shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ".", "--cli", os.path.join(build_dir, "taj_tools",
                                                "taj-cli"),
           "--work", run_dir, "--expected", args.expected]
    if args.expect_tp is not None:
        cmd += ["--expect-tp", str(args.expect_tp)]

    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        out = None
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    reap_group(proc.pid)
    shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    if out is None:
        die("workload did not finish within %d s" % RUN_LIMIT_S, 1)

    lines = out.decode("utf-8", errors="replace").splitlines()
    try:
        res = json.loads(lines[-1])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
        die("harness exited %d without a result" % proc.returncode, 1)
    print("\n".join(lines))
    print("perfbench: %s seed %d done in %.1f s" %
          (args.workload, args.seed, time.monotonic() - start),
          file=sys.stderr)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
