#!/usr/bin/env python3
"""Builds and runs the PTStore host-time benchmark.

    python3 perfbench/run.py --workload <forkstress|c1m|modelcheck> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The harness is built from its own manifest
(perfbench/Cargo.toml) into $CARGO_TARGET_DIR (default .bench_build). The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it start with `#`.
Each run also writes perfbench/out/result-<workload>-seed<n>-trace<t>.json,
which carries the host fingerprint that compare.py checks, and a traced run
writes its spans to perfbench/out/trace-<workload>-seed<n>.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("forkstress", "c1m", "modelcheck")
# The harness must finish inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "third_party", BENCH.name):
        for dirpath, dirnames, filenames in os.walk(ROOT / top):
            dirnames[:] = sorted(d for d in dirnames if d not in ("out", "target", "__pycache__"))
            files.extend(Path(dirpath) / f for f in sorted(filenames))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def fingerprint():
    """The host and build a result came from. compare.py refuses to compare
    results whose `host` parts differ."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True,
                               check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rustc = "unknown"
    commit = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, check=True).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    return {
        "host": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu,
            "rustc": rustc,
            "profile": "release (perfbench/Cargo.toml)",
        },
        "git_commit": commit,
        "source_digest": source_digest(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        print(f"run.py: no program sources next to {BENCH.name}/; run from a full checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(target / "release" / "ptstore-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", str(out_dir / f"trace-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: harness exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: harness exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])

    fp = fingerprint()
    print("# fingerprint: " + json.dumps(fp, sort_keys=True))
    for line in lines[:-1]:
        print(line)
    record = {
        "fingerprint": fp,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "detail": [line[2:] for line in lines[:-1]],
        "result": result,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
