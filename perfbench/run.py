#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <paper_check|campaign|metro_trace> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds `perfbench/` (a package of its
own that depends on the repository crates by path) into
$CARGO_TARGET_DIR, or `perfbench/target` when that is unset, then runs
the binary from the root, where it reads `goldens/` and `corpus/`. The
binary's last stdout line is the result: one JSON object with `correct`,
`attempted`, `failed` and `metrics`. The exit code is the binary's, or
non-zero without a result when the repository sources are missing or the
build fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"
# The binary reads these from the repository root; without them there is
# nothing to build or check.
REQUIRED = ["Cargo.toml", "crates/bench/Cargo.toml", "goldens", "corpus"]
# Every run must end well inside three minutes; a workload that has not
# finished by then is stuck, not slow.
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper_check", "campaign", "metro_trace"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"run.py: repository sources missing under {ROOT}: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    target = Path(os.environ.get("CARGO_TARGET_DIR") or PACKAGE / "target")
    if not target.is_absolute():
        target = ROOT / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(PACKAGE / "Cargo.toml")],
        cwd=ROOT, env={**os.environ, "CARGO_TARGET_DIR": str(target)},
        stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    cmd = [str(target / "release" / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--state-dir", str(target)]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
