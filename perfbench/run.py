#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <bugbase|synth|fleet> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. Builds two release binaries of the
`perfbench` package into $CARGO_TARGET_DIR (default `.bench_build`): one
with the flight recorder on and one with `gist-obs/metrics-off`. The
untraced run (`--trace 0`) prints the end-to-end metrics. The traced run
(`--trace 1`) prints the per-layer metrics, writes its spans next to the
binaries, and adds `obs.recorder_overhead_pct` from an on/off/off/on A/B
of the two binaries on the same workload, repeated twice. The last line of standard
output is one JSON object; progress and the readable report go to
standard error. Exits non-zero, printing no result, if a build or run
fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Seconds a single benchmark process may take before it is killed.
CHILD_TIMEOUT_S = 160
# Share of --seconds each recorder A/B arm measures.
AB_SHARE = 0.08
# Recorder A/B arm order: two on/off/off/on blocks, so a drift in host
# speed lands on both binaries alike.
AB_ORDER = ("on", "off", "off", "on") * 2
# One malloc arena: with glibc's default per-thread arenas the fleet
# workload's peak RSS swings between 15 and 23 MB from run to run,
# depending on which pool thread lands in which arena. A fixed mmap
# threshold (glibc's initial one): with the default sliding threshold,
# whether a large buffer (a journal drain is ~0.6 MB on bugbase) comes
# from the heap or from mmap depends on what was freed before it, and
# peak RSS jumped by ~0.7 MB in some runs of the same seed.
BENCH_ENV = dict(os.environ, MALLOC_ARENA_MAX="1",
                 MALLOC_MMAP_THRESHOLD_="131072")


def build(target_dir, metrics_off):
    """Builds one variant and copies it aside; returns the copy's path."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if metrics_off:
        cmd += ["--features", "metrics-off"]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    name = "perfbench-recorder-" + ("off" if metrics_off else "on")
    dest = os.path.join(target_dir, name)
    shutil.copy2(os.path.join(target_dir, "release", "perfbench"), dest)
    return dest


def run(binary, args):
    """Runs the benchmark binary; returns its parsed last stdout line."""
    try:
        done = subprocess.run([binary] + args, cwd=ROOT, env=BENCH_ENV,
                              stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench: {os.path.basename(binary)} exited {done.returncode}")
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["bugbase", "synth", "fleet"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    target_dir = os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    on = build(target_dir, metrics_off=False)
    off = build(target_dir, metrics_off=True)

    common = ["--workload", a.workload, "--seed", str(a.seed)]
    if not a.trace:
        result = run(on, common + ["--seconds", str(a.seconds), "--trace", "0"])
    else:
        spans = os.path.join(target_dir, f"perfbench-spans-{a.workload}-{a.seed}")
        result = run(on, common + ["--seconds", str(a.seconds), "--trace", "1",
                                   "--spans", spans])
        # Recorder A/B: the same workload with the recorder on and
        # compiled out, in AB_ORDER; the median over each binary's arms of
        # the arm's best round time.
        arm_s = str(max(1.0, a.seconds * AB_SHARE))
        binaries = {"on": on, "off": off}
        rounds = {"on": [], "off": []}
        for arm in AB_ORDER:
            r = run(binaries[arm], common + ["--seconds", arm_s, "--ab"])
            rounds[arm].append(r["metrics"]["round_ms"]["value"])
            result["attempted"] += r["attempted"]
            result["failed"] += r["failed"]
            result["correct"] = result["correct"] and r["correct"]
        on_ms, off_ms = statistics.median(rounds["on"]), statistics.median(rounds["off"])
        print(f"  recorder A/B round ms: on {rounds['on']} off {rounds['off']}",
              file=sys.stderr)
        result["metrics"]["obs.recorder_overhead_pct"] = {
            "value": (on_ms / off_ms - 1.0) * 100.0, "unit": "%"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
