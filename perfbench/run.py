#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) built in release mode into $CARGO_TARGET_DIR
(default .bench_build). Each workload runs in its own process, so its
peak memory is its own. For a single workload the last stdout line is
the JSON result; `--workload all` runs every workload in turn and ends
with a summary table. Exits non-zero if the build fails or any run
fails a correctness check.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["sim-4c-chrome", "sim-16c-noc-lru", "serve-mixed-chrome"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
# A run stops starting rounds after 100 s; anything past this is a hang.
RUN_TIMEOUT_S = 170
# Sources the benchmark is built from, hashed into the revision when the
# checkout is not a git repository.
SOURCE_GLOBS = ["Cargo.toml", "Cargo.lock", "crates/**/*.rs", "crates/**/Cargo.toml",
                "perfbench/Cargo.toml", "perfbench/Cargo.lock", "perfbench/src/*.rs"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def revision(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            dirty = subprocess.run(["git", "status", "--porcelain", "--", "crates", "perfbench"],
                                   cwd=root, capture_output=True, text=True, timeout=10)
            return out.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    files = sorted({p for g in SOURCE_GLOBS for p in root.glob(g) if p.is_file()})
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(root, target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(root / "perfbench" / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=880)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    exe = target / "release" / "perfbench"
    return exe if exe.is_file() else None


def run_one(exe, root, target, rev, workload, seed, seconds, trace):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--revision", rev,
           "--out-dir", str(target / "perfbench-results")]
    try:
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 1, [], None
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"{workload}: no result line (exit code {done.returncode})")
        return done.returncode or 1, lines, None
    return done.returncode, lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out for checking claims")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    exe = build(root, target)
    if exe is None:
        sys.exit(1)
    rev = revision(root)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    summary = []
    for w in workloads:
        code, lines, result = run_one(exe, root, target, rev, w, args.seed, args.seconds,
                                      args.trace)
        status = status or code
        if len(workloads) == 1:
            if result is None:
                # Relay diagnostics, but never a result line that is not one.
                for line in lines:
                    print(line, file=sys.stderr)
            else:
                print("\n".join(lines), flush=True)
            continue
        print("\n".join(lines[:-1]) if result else "\n".join(lines), flush=True)
        summary.append((w, result))
    if summary:
        print("\nworkload              correct  attempted  failed")
        for w, result in summary:
            if result is None:
                print(f"{w:<21} {'-':>7}")
            else:
                print(f"{w:<21} {str(result['correct']):>7} {result['attempted']:>10} "
                      f"{result['failed']:>7}")
    sys.exit(status)


if __name__ == "__main__":
    main()
