#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload chaos-ii --seed 1 --seconds 45 --trace 0

Configures and builds perfbench/ (the driver plus the project libraries
from src/) into the build directory on first use, then runs one workload.
The last line of standard output is the result JSON. The build directory is
$CARGO_TARGET_DIR when set, else .bench_build, relative to the current
directory; the trace export of a traced run goes there too.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# A run must end within 180 s; leave room for the build check around it.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the driver; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "sentobench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def git_commit():
    if not (ROOT / ".git").exists():  # not a checkout of its own
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["chaos-ii", "fleet-ingest"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--seed-offset", type=int, default=0,
                        help="shift every scenario seed (held-out seed ranges)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seed_offset < 0 or args.seconds < 0:
        parser.error("--seed, --seed-offset and --seconds must be >= 0")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"project sources not found under {ROOT / 'src'}; "
            "run from a full checkout")
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = build_dir.resolve()
    if not build(build_dir):
        return 2

    cmd = [str(build_dir / "sentobench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--seed-offset", str(args.seed_offset),
           "--commit", git_commit(), "--work-dir", str(build_dir)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        # subprocess.run kills and reaps the driver if it overruns.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"sentobench exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1


if __name__ == "__main__":
    sys.exit(main())
