#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload warm-hits|cold-fill|paper-table1 \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds spivbench and spiv-serve
from source (RelWithDebInfo) into $CARGO_TARGET_DIR or .bench_build, then
runs one workload; the last line of standard output is the JSON result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def source_stamp():
    """Git commit when available, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def build(build_dir):
    env = dict(os.environ)
    log = sys.stderr
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    jobs = str(max(1, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", build_dir, "-j", jobs,
                "--target", "spivbench", "spiv-serve"]
    for cmd in (configure, compile_):
        if subprocess.run(cmd, stdout=log, stderr=log, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["warm-hits", "cold-fill", "paper-table1"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite perfbench/reference from this run")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: run from a full checkout")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    build(build_dir)

    # Unix socket paths are short; keep the work dir relative to the root.
    work_dir = os.path.relpath(os.path.join(target, "run"), ROOT)
    cmd = [os.path.join(build_dir, "spivbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--serve-bin", os.path.join(build_dir, "spiv", "service", "spiv-serve"),
           "--reference-dir", os.path.join(HERE, "reference"),
           "--work-dir", work_dir,
           "--commit", source_stamp()]
    if args.record_reference:
        cmd.append("--record-reference")
    # The benchmark pins every knob itself; inherited SPIV_* settings
    # (jobs, cache dir, trace file, solver choice) would skew it.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPIV_")}
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, cwd=ROOT, env=env,
                            timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.exit(rc)


if __name__ == "__main__":
    main()
