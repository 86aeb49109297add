#!/usr/bin/env python3
"""Build and run the Helios benchmark.

    python3 perfbench/run.py --workload pipeline|sched|fleet --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The benchmark is the Rust package in this
directory; it is built in release mode into $CARGO_TARGET_DIR (default
.bench_build) from the sources in the checkout, offline. Every other
argument goes to the benchmark binary, whose last line of standard output
is the JSON result. The run is stamped with the git commit when the
checkout is a git repository, and otherwise with a digest of the sources.
In smoke mode the script also checks that the metric names the binary
prints are exactly the ones BENCHMARK.json declares.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench")
SKIP_DIRS = {"target", "out", ".bench_build"}


def source_id():
    """The commit being measured, or a digest of its sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
            files += [os.path.join(base, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "source-" + h.hexdigest()[:16]


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]}


def smoke(binary, commit):
    """Run every workload small, both ways, and compare metric names."""
    done = subprocess.run(
        [binary, "--smoke", "--commit", commit],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    end_to_end, per_layer = declared_metrics()
    ok = done.returncode == 0
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith('{"correct"')]
    for i, result in enumerate(results):
        want = per_layer if i % 2 else end_to_end
        if set(result["metrics"]) != want:
            print("smoke: metric names differ from BENCHMARK.json:", sorted(set(result["metrics"]) ^ want))
            ok = False
    if len(results) != 6:
        print(f"smoke: expected 6 results, got {len(results)}")
        ok = False
    print("smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    args = sys.argv[1:]
    binary = build()
    commit = source_id()
    if "--smoke" in args:
        return smoke(binary, commit)
    done = subprocess.run([binary, *args, "--commit", commit], cwd=ROOT)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
