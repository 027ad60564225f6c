#!/usr/bin/env python3
"""Build and run the patchsec end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --workload all --seed 1          # every gated workload in turn
    python3 e2ebench/run.py --workload steady_sweep --selfcheck

Run it from the repository root.  The first call configures and builds a
Release binary (the patchsec libraries plus e2ebench/src) under
$CARGO_TARGET_DIR, default .bench_build; later calls only rebuild what
changed.  Build output goes to stderr, so the last stdout line of a run is its
result object.  See e2ebench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The workloads BENCHMARK.json gates on; "all" runs these.
WORKLOADS = ["steady_sweep", "transient_waves"]
# Runs only when named: too host-sensitive to gate on (see README.md).
MANUAL_WORKLOADS = ["hot_mixed"]


def build(build_dir: Path) -> Path:
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "e2ebench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "e2ebench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + MANUAL_WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="check that the seed fixes the request stream and the work counts")
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "e2ebench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1

    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(build_dir / "out")]
        if args.selfcheck:
            cmd.append("--selfcheck")
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
