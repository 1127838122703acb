#!/usr/bin/env python3
"""The wormserve verdict ledger.

Usage, from the root of a checkout:

    python3 ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `wormledger` package in this directory (release profile, into
$CARGO_TARGET_DIR, default `.bench_build`), runs the workload once in a
child process of its own, and prints two lines on standard output: the
full ledger record (provenance and raw samples), then the result object
`{"correct", "attempted", "failed", "metrics"}`. The record is also
written under `<target>/ledger/`. See README.md in this directory.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-corpus", "fabric-scale", "cyclic-refute", "sim-traffic"]
# The child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150
# Address-space cap for the child: a runaway job fails its own run
# instead of exhausting a machine shared with other work.
CHILD_MEMORY_BYTES = 6 << 30


def log(msg):
    print(f"ledger: {msg}", file=sys.stderr, flush=True)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ["crates", "corpus", "shims", os.path.basename(HERE)]:
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".wspec", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    started = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        return None
    log(f"build checked in {time.monotonic() - started:.1f} s")
    return os.path.join(target, "release", "wormledger")


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_BYTES, CHILD_MEMORY_BYTES))


def run_child(binary, args, work, spans):
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", work,
    ]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, preexec_fn=limit_memory
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"child exited with {proc.returncode}"
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, ValueError):
        return None, "child printed no result"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    target = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    )
    binary = build(target)
    if binary is None:
        log("build failed")
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    records = os.path.join(target, "ledger")
    work = os.path.join(target, "ledger-work", f"{tag}-{os.getpid()}")
    os.makedirs(records, exist_ok=True)
    spans = os.path.join(records, f"{tag}-spans.json") if args.trace else None
    try:
        child, error = run_child(binary, args, work, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if child is None:
        # A crashed, killed or runaway child fails this run only.
        log(error)
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    else:
        metrics = child["metrics"]
        finite = all(
            isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
            for m in metrics.values()
        )
        result = {
            "correct": child["failed"] == 0 and finite,
            "attempted": child["attempted"],
            "failed": child["failed"],
            "metrics": metrics,
        }
        for reason in child.get("failures", []):
            log(f"failure: {reason}")

    record = {
        "provenance": {
            "git_rev": command_output(["git", "rev-parse", "HEAD"]),
            "source_sha256": source_digest(),
            "rustc": command_output(["rustc", "-V"]),
            "nproc": len(os.sched_getaffinity(0)),
            "jobs": child and child.get("jobs"),
            "samples_per_phase": child
            and {k: len(v) for k, v in child.get("samples", {}).items()},
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "error": error,
        "child": child,
        "result": result,
    }
    line = json.dumps(record, sort_keys=True)
    with open(os.path.join(records, f"{tag}.json"), "w") as f:
        f.write(line + "\n")
    print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
