#!/usr/bin/env python3
"""Smoke test of the benchmark: runs every workload to its end, untraced
and traced, with a one-second run length, and checks each result line
against BENCHMARK.json.

Usage, from the root of the repository:

    python3 perfbench/smoke.py [--seed <n>]

A workload still makes its minimum number of rounds, so the whole smoke
takes about two minutes. Exits non-zero on the first bad result.
"""

import argparse
import json
import os
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", default="1")
    args = ap.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace, declared in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            cmd = bench["command"] + [
                "--workload", w["name"], "--seed", args.seed, "--seconds", "1", "--trace", trace,
            ]
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.exit(f"{w['name']} trace {trace}: exit {p.returncode}\n{p.stderr[-2000:]}")
            r = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            problems = []
            if set(r) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"keys {sorted(r)}")
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                problems.append(f"correct {r['correct']} failed {r['failed']}/{r['attempted']}")
            if got != want:
                problems.append(f"metrics {got} != declared {want}")
            if problems:
                sys.exit(f"{w['name']} trace {trace}: " + "; ".join(problems) + "\n" + p.stderr[-2000:])
            print(f"ok {w['name']} trace {trace}: {r['attempted']} requests")


if __name__ == "__main__":
    main()
