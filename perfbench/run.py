#!/usr/bin/env python3
"""Builds and runs the outside-in benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

The benchmark is the `perfbench` package next to this file (a cargo
workspace of its own with path dependencies on ../crates). It is built
in release mode into $CARGO_TARGET_DIR (default `.bench_build`). The
run's stdout is passed through; its last line is the result object,
checked here against the metric names and units in BENCHMARK.json.
The exit code is the benchmark's own: non-zero when the build fails,
the result is malformed, or any output failed verification.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The run itself must end within 180 s; the build before it may not.
RUN_TIMEOUT_S = 170
SOURCES = ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench")
SKIP_DIRS = {"target", ".bench_build", ".bench_out", "__pycache__"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over the sources the benchmark builds, so that results
    are compared only between identical trees (a checkout may not be a
    git repository)."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in SKIP_DIRS)
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def output_of(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def build(env):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "perfbench")


def check_result(line, trace):
    """The result object must name exactly the metrics BENCHMARK.json
    lists for this kind of run, with the same units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("last line is not a JSON object")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics {got} do not match BENCHMARK.json {want}")


def main(argv):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = build(env)
    env["PERFBENCH_RUSTC"] = output_of(["rustc", "--version"]) or "unknown"
    commit = output_of(["git", "rev-parse", "HEAD"])
    env["PERFBENCH_COMMIT"] = (f"git {commit} " if commit else "") + f"src {source_digest()}"
    try:
        proc = subprocess.run(
            [binary] + argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if "--workload" in argv and proc.returncode in (0, 1):
        if not lines:
            fail("no output")
        check_result(lines[-1], argv[argv.index("--trace") + 1] == "1")
    print(proc.stdout, end="")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
