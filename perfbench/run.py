#!/usr/bin/env python3
"""Build and run the pmdebugger end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload detect-memcached --seed 1 --seconds 30 --trace 0

The script builds the benchmark (a Go module of its own in this directory
that imports the repository's packages) into the build directory, then runs
it with the given arguments. The benchmark prints a metric table and, as its
last line, one JSON object with the correctness tally and the metrics.

Everything the build writes (Go's build cache, temporary files, the binary)
stays inside the build directory: $CARGO_TARGET_DIR when it is set, else
.bench_build, relative to the repository root. The script exits non-zero
without printing a result when the repository's sources are missing or the
build or the run fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def go_env(build):
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("HOME", "home"), ("XDG_CONFIG_HOME", "home/.config"),
                     ("XDG_CACHE_HOME", "home/.cache")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOPROXY="off", GOFLAGS="", GOTOOLCHAIN="local",
               GOWORK="off", GOENV="off", GOTELEMETRY="off", CGO_ENABLED="0")
    return env


def commit():
    """The repository's HEAD, when the root is a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    # A SIGTERM ends the script through SystemExit, which makes
    # subprocess.run kill and reap its child before the script exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (os.path.isfile(os.path.join(ROOT, "go.mod"))
            and os.path.isdir(os.path.join(ROOT, "internal"))):
        fail(f"no pmdebugger sources (go.mod, internal/) in {ROOT}")
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = os.path.join(build, "perfbench")
    env = go_env(build)
    try:
        made = subprocess.run(["go", "build", "-trimpath", "-buildvcs=false", "-o", binary, "."],
                              cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"build: {err}")
    if made.returncode != 0:
        fail(f"build failed with exit code {made.returncode}")

    try:
        ran = subprocess.run([binary, *sys.argv[1:], "--commit", commit()],
                             cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S}s")
    except OSError as err:
        fail(f"run: {err}")
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
