#!/usr/bin/env python3
"""Compares two sets of benchmark results written by run.py.

    python3 perfbench/compare.py --base perfbench-base/out --new perfbench/out \
        [--allow-cross-host]

Each side is a directory of result-*.json files (or a list of files). Results
are grouped by workload and traced-ness; for every metric the script prints
each side's median and quartiles and the change of the medians. For an
end-to-end metric it marks the change WORSE when it exceeds the bound that
BENCHMARK.json fixes, and UNRESOLVED when the base's own quartile spread is
wider than that bound.

The two sides must come from the same host: results whose fingerprint `host`
parts differ (nproc, CPU model, rustc, build profile) are refused with exit
code 3. --allow-cross-host compares them anyway and flags every line.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    files = []
    for p in map(Path, paths):
        files.extend(sorted(p.glob("result-*.json")) if p.is_dir() else [p])
    return [json.loads(f.read_text()) for f in files]


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    ap.add_argument("--allow-cross-host", action="store_true")
    args = ap.parse_args()

    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("compare.py: no result files", file=sys.stderr)
        return 2
    hosts = {json.dumps(r["fingerprint"]["host"], sort_keys=True) for r in base + new}
    flag = ""
    if len(hosts) > 1:
        if not args.allow_cross_host:
            print("compare.py: refusing to compare results from different hosts:", file=sys.stderr)
            for h in sorted(hosts):
                print("  " + h, file=sys.stderr)
            return 3
        flag = " [CROSS-HOST]"
        print("FLAGGED: results come from different hosts; differences may not be the code's")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    groups = sorted({(r["workload"], r["trace"]) for r in base + new})
    for workload, trace in groups:
        pick = lambda rs: [r for r in rs if (r["workload"], r["trace"]) == (workload, trace)]
        b, n = pick(base), pick(new)
        if not b or not n:
            continue
        print(f"== {workload} trace={trace}: {len(b)} base runs, {len(n)} new runs{flag}")
        for name in b[0]["result"]["metrics"]:
            bv = [r["result"]["metrics"][name]["value"] for r in b if name in r["result"]["metrics"]]
            nv = [r["result"]["metrics"][name]["value"] for r in n if name in r["result"]["metrics"]]
            if not bv or not nv:
                continue
            bq1, bmed, bq3 = summary(bv)
            nq1, nmed, nq3 = summary(nv)
            change = (nmed - bmed) / bmed if bmed else 0.0
            verdict = ""
            if name in bounds:
                bound = bounds[name]["bound"]
                worse = change if bounds[name]["better"] == "lower" else -change
                if bmed and (bq3 - bq1) / bmed > bound:
                    verdict = "UNRESOLVED"
                elif worse > bound:
                    verdict = "WORSE"
                else:
                    verdict = "ok"
            print(f"  {name:32} base {bmed:.6g} [{bq1:.6g}..{bq3:.6g}]  "
                  f"new {nmed:.6g} [{nq1:.6g}..{nq3:.6g}]  {change:+.2%} {verdict}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
