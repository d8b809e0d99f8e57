#!/usr/bin/env python3
"""Build and run the mpx benchmark.

    python3 mpxbench/run.py --workload mesh-mem --seed 1 --seconds 10 --trace 0
    python3 mpxbench/run.py --selftest

Configures and builds the benchmark package (mpxbench/CMakeLists.txt, which
builds the library from the repository root) in .bench_build/ at the
repository root, then runs the benchmark from the repository root. Build
output goes to stderr, so the benchmark's last stdout line stays the result
JSON. Exits non-zero without a result when the build or the run fails.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
RUN_TIMEOUT_S = 170


def log(msg):
    print("mpxbench: " + msg, file=sys.stderr, flush=True)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log("library sources not found beside " + HERE)
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_digest():
    """Digest of the library and benchmark sources: identifies the code in
    checkouts that are not git repositories."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "src")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main(argv):
    selftest = argv == ["--selftest"]
    target = "mpxbench_selftest" if selftest else "mpxbench"
    if not build(target):
        return 1
    env = dict(os.environ, MPXBENCH_GIT_SHA=git_sha(),
               MPXBENCH_SRC_DIGEST=src_digest())
    cmd = [os.path.join(BUILD, target)] + ([] if selftest else argv)
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("run exceeded %d s; stopped" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
