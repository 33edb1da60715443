#!/usr/bin/env python3
"""Build and run the LPPA benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <fleet|churn|wire129> --seed <n> \
        --seconds <s> --trace <0|1>

Builds the benchmark package (release, offline) into ``$CARGO_TARGET_DIR``
(default ``.bench_build``), then runs it with a pinned environment: every
``LPPA_*`` variable removed and ``LPPA_THREADS=1`` set, so each timed unit
runs on one thread and no ambient knob switches a backend, fault profile
or kernel. The benchmark's standard output is passed through; its last
line is the JSON result. Exits nonzero, printing no result, if the build
fails (for example when the repository's crates are missing).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BINARY = "lppa-perfbench"


def build(env):
    """Builds the release binary; returns its path or None on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"error: build failed: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("error: build failed", file=sys.stderr)
        return None
    path = os.path.join(env["CARGO_TARGET_DIR"], "release", BINARY)
    return path if os.path.isfile(path) else None


def pinned_env():
    """The caller's environment without any LPPA_* knob, plus LPPA_THREADS=1."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LPPA_")}
    env["LPPA_THREADS"] = "1"
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["CARGO_TARGET_DIR"] = os.path.abspath(env["CARGO_TARGET_DIR"])
    return env


def main(argv):
    env = pinned_env()
    binary = build(env)
    if binary is None:
        return 2
    seconds = 60.0
    if "--seconds" in argv:
        try:
            seconds = float(argv[argv.index("--seconds") + 1])
        except (IndexError, ValueError):
            pass
    try:
        done = subprocess.run([binary] + argv, env=env, timeout=seconds + 150)
    except subprocess.TimeoutExpired:
        print("error: benchmark timed out", file=sys.stderr)
        return 4
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
