#!/usr/bin/env python3
"""Judge a change against a base revision with paired perfbench runs.

    python3 scripts/bench_pairs.py --base REV [--pairs N] [--seconds S]

The change is the working tree this script sits in. The base is checked
out into a temporary `git worktree` (no network needed) and both are
built into their own `CARGO_TARGET_DIR`: the base into the temporary
directory, the change into `$CARGO_TARGET_DIR` or `perfbench/target`.
Then, for every workload in `BENCHMARK.json`, pair i (seeds 1..N) runs
`perfbench/run.py --trace 0` once per side, the base first in odd pairs
and the change first in even ones, so a drift in host load falls on both
sides alike.

For every end-to-end metric in `BENCHMARK.json` it prints each side's
median and interquartile range (IQR), the change's wins of N pairs, and
one verdict, using the metric's `better` direction and `bound`:

    worse       the change's median is worse than the base's by more
                than bound x the base's median
    better      the change wins at least 9/10 of the pairs (ties count
                for neither), and its median is better by more than the
                base's IQR and by at least 2% of the base's median
    unresolved  the base's IQR is wider than bound x the base's median
    same        none of the above

It exits 1 when a metric reads worse, when any run exits non-zero,
prints no result line, lacks a metric or reports `correct: false`, or
when the change fails more checks than the base; 2 on a usage error.
The worktree and the base's build are removed on every exit.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# "better" needs at least WIN_NUM/WIN_DEN of the pairs won.
WIN_NUM, WIN_DEN = 9, 10
# ... and a median gain of at least this share of the base median: a
# near-deterministic metric has an IQR near 0, so a sub-1% gap with every
# pair won would otherwise read better on unchanged code.
MIN_GAIN = 0.02

Summary = namedtuple(
    "Summary", "base_median base_iqr change_median change_iqr wins pairs verdict")


def quartiles(xs):
    """(first quartile, median, third quartile), linearly interpolated."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def judge(base, change, better, bound):
    """Summarises one metric's paired samples (pair i is base[i],
    change[i]) and gives its verdict."""
    sign = 1.0 if better == "lower" else -1.0

    def gain(b, c):  # > 0 when c is better than b
        return sign * (b - c)

    wins = sum(1 for b, c in zip(base, change) if gain(b, c) > 0)
    b1, b_med, b3 = quartiles(base)
    c1, c_med, c3 = quartiles(change)
    base_iqr = b3 - b1
    if -gain(b_med, c_med) > bound * abs(b_med):
        verdict = "worse"
    elif (WIN_DEN * wins >= WIN_NUM * len(base) and gain(b_med, c_med) > base_iqr
          and gain(b_med, c_med) >= MIN_GAIN * abs(b_med)):
        verdict = "better"
    elif base_iqr > bound * abs(b_med):
        verdict = "unresolved"
    else:
        verdict = "same"
    return Summary(b_med, base_iqr, c_med, c3 - c1, wins, len(base), verdict)


def parse_run(returncode, stdout, metrics):
    """The result of one perfbench run and the problem with it, if any:
    (result, None) for a good run, (result or None, why) otherwise."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        return None, f"exit {returncode}, no result line"
    if returncode != 0:
        return result, f"exit {returncode}"
    if result.get("correct") is not True:
        return result, (f"correct: false ({result.get('failed')} of "
                        f"{result.get('attempted')} checks failed)")
    missing = [m for m in metrics if m not in result["metrics"]]
    if missing:
        return result, f"no {', '.join(missing)}"
    return result, None


def gate(summaries, problems, base_failed, change_failed):
    """Why the gate fails (empty when it passes). `summaries` maps
    (workload, metric) to a Summary; `problems` lists failed runs;
    `*_failed` are checks failed summed over each side's runs."""
    reasons = [f"{w} {m} is worse" for (w, m), s in summaries.items() if s.verdict == "worse"]
    reasons += problems
    if change_failed > base_failed:
        reasons.append(f"the change fails {change_failed} checks, the base {base_failed}")
    return reasons


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_child(cmd, cwd, target, **kw):
    """Runs `cmd` in its own process group with `target` as the cargo
    target directory; the whole group is killed if this script is
    interrupted."""
    env = {**os.environ, "CARGO_TARGET_DIR": str(target)}
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


class Side:
    def __init__(self, name, tree, target):
        self.name, self.tree, self.target = name, tree, target
        self.results = {}  # workload -> list of results, one per pair
        self.failed_checks = 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--pairs", type=int, default=10, help="paired runs per workload")
    ap.add_argument("--seconds", type=float,
                    help="budget of one run (default: BENCHMARK.json run_seconds)")
    args = ap.parse_args()
    if args.pairs < 1 or (args.seconds is not None and not args.seconds > 0):
        ap.error("--pairs and --seconds must be positive")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    try:
        base_rev = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError:
        ap.error(f"--base {args.base} is not a commit")

    # A SIGTERM ends the script the same way Ctrl-C does: through the
    # `finally` below, which removes the worktree.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs."))
    try:
        try:
            git("worktree", "add", "--detach", str(tmp / "base"), base_rev)
        except subprocess.CalledProcessError as e:
            print(f"bench_pairs: FAIL: git worktree add: {e.stderr.strip()}", file=sys.stderr)
            return 1
        change_target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / "perfbench" / "target")
        sides = [Side(f"base {base_rev[:10]}", tmp / "base", tmp / "target"),
                 Side("change", ROOT, ROOT / change_target)]
        for side in sides:
            print(f"building {side.name} in {side.tree}", file=sys.stderr)
            code, _ = run_child(["cargo", "build", "--release", "--offline", "--quiet",
                                 "--manifest-path", "perfbench/Cargo.toml"],
                                side.tree, side.target, stdout=sys.stderr)
            if code != 0:
                print(f"bench_pairs: FAIL: {side.name} does not build", file=sys.stderr)
                return 1
        return compare(sides, workloads, metrics, args.pairs, seconds, bench["command"])
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(tmp / "base")], cwd=ROOT,
                       capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


def compare(sides, workloads, metrics, pairs, seconds, command):
    problems = []
    for workload in workloads:
        for seed in range(1, pairs + 1):
            for side in (sides if seed % 2 else sides[::-1]):
                cmd = [*command, "--workload", workload, "--seed", str(seed),
                       "--seconds", repr(seconds), "--trace", "0"]
                code, out = run_child(cmd, side.tree, side.target, stdout=subprocess.PIPE,
                                      text=True)
                result, problem = parse_run(code, out, metrics)
                if result is not None:
                    side.results.setdefault(workload, []).append(result)
                    side.failed_checks += int(result.get("failed", 0))
                if problem:
                    problems.append(f"{side.name} {workload} seed {seed}: {problem}")
                wall = (result or {}).get("metrics", {}).get("wall_s", {}).get("value")
                print(f"{workload} seed {seed} {side.name}: wall_s {wall} {problem or ''}",
                      file=sys.stderr)

    summaries = {}
    base, change = sides
    print(f"{pairs} pairs per workload, seeds 1-{pairs}, {seconds:g} s per run; "
          f"{base.name} vs {change.name}")
    for workload in workloads:
        print(f"\n{workload}\n  {'metric':<13}{'base median':>13}{'IQR':>10}"
              f"{'change median':>15}{'IQR':>10}{'wins':>8}  verdict")
        b_runs, c_runs = base.results.get(workload, []), change.results.get(workload, [])
        for name, m in metrics.items():
            b = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            if len(b) != pairs or len(c) != pairs:
                print(f"  {name:<13}{'(runs failed)':>13}")
                continue
            s = judge(b, c, m["better"], m["bound"])
            summaries[(workload, name)] = s
            print(f"  {name:<13}{s.base_median:>13.4g}{s.base_iqr:>10.3g}"
                  f"{s.change_median:>15.4g}{s.change_iqr:>10.3g}"
                  f"{f'{s.wins}/{s.pairs}':>8}  {s.verdict}")
    reasons = gate(summaries, problems, base.failed_checks, change.failed_checks)
    print(f"\nchecks failed: base {base.failed_checks}, change {change.failed_checks}")
    for reason in reasons:
        print(f"FAIL: {reason}")
    print("gate: " + ("FAIL" if reasons else "pass"))
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main())
