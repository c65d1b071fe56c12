#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload loop-real --seed 1 --seconds 10 --trace 0

The Go program in perfbench/ is built from the checkout's own sources, with
every Go cache and temporary file kept under .bench_build/ in the checkout.
Its output is passed through unchanged; the last line is the JSON result.
Exits non-zero, without a result, when the checkout has no mlq sources.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench-bin")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        # Keep the go command's own config and telemetry files in the checkout.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    return env


def source_digest():
    """SHA-256 over the Go sources and module files the binary is built from."""
    h = hashlib.sha256()
    for top in ("internal", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "testdata")
            for name in sorted(filenames):
                if name.endswith(".go") and not name.endswith("_test.go") or name == "go.mod":
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    with open(os.path.join(ROOT, "go.mod"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "internal")):
        sys.stderr.write("perfbench: %s holds no mlq module to benchmark\n" % ROOT)
        return 2
    env = go_env()
    for d in (env["GOCACHE"], env["GOTMPDIR"], env["XDG_CONFIG_HOME"]):
        os.makedirs(d, exist_ok=True)
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=BENCH, env=env,
                           stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE"] = source_digest()
    args = [BINARY, "--workdir", os.path.join(BUILD, "run")] + sys.argv[1:]
    try:
        run = subprocess.run(args, cwd=ROOT, env=env, timeout=175)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 2
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
