#!/usr/bin/env python3
"""Builds the REED benchmark from this checkout, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The library is compiled from the checkout's own src/ into .bench_build/ (see
perfbench/CMakeLists.txt); build output goes to stderr. The last line of
stdout is the run's JSON result, printed by reed_bench. The exit code is
reed_bench's: 0 when every operation and oracle passed.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "reed_bench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds reed_bench; raises on failure."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no REED sources next to perfbench/ (expected src/)")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "reed_bench",
                    "-j", "4"], stdout=sys.stderr, check=True)


def run_bench(args, timeout=RUN_TIMEOUT_S, capture=False):
    """Runs reed_bench with `args` from the checkout root and waits for it.

    Returns (exit code, stdout or None). The child is killed if it outlives
    `timeout` or if this process is told to stop.
    """
    cmd = [BINARY, "--work-dir", os.path.join(BUILD, "runs"),
           "--trace-dir", os.path.join(BUILD, "traces"), *args]
    child = subprocess.Popen(cmd, cwd=ROOT,
                             stdout=subprocess.PIPE if capture else None)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"reed_bench timed out after {timeout} s", file=sys.stderr)
        return 124, None
    return child.returncode, out.decode() if capture else None


def main():
    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    code, _ = run_bench(sys.argv[1:])
    return code


if __name__ == "__main__":
    sys.exit(main())
