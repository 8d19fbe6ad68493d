#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 hpvbench/run.py --workload sim-pubsub --seed 42 --seconds 40 \
        --trace 0

Run from the root of a checkout. The first run configures and builds
hpvbench/ (the hyparview library from ../src plus the hpvbench binary) in
$CARGO_TARGET_DIR/hpvbench, default .bench_build/hpvbench; later runs only
check that the build is current. Build output goes to stderr, so the last
line of stdout is always the benchmark's summary JSON. Exits non-zero, with
no summary, when the checkout holds no sources to build.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"hpvbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the sources the benchmark builds (names and bytes)."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    to_stderr = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       timeout=BUILD_TIMEOUT_S, **to_stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "hpvbench",
                    "-j", "4"], check=True, timeout=BUILD_TIMEOUT_S,
                   **to_stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no sources to build next to {os.path.basename(HERE)}/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "hpvbench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    cmd = [os.path.join(build_dir, "hpvbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--source-digest", source_digest()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        fail("benchmark run did not finish")
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
