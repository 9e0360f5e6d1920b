#!/usr/bin/env python3
"""Smoke test for the benchmark: every named metric is emitted with its unit.

Run from the repository root (about a minute):

    python3 perfbench/smoke.py [--seed N]

Runs each workload for one second untraced and traced, then checks that
the result line has exactly the contract's keys, that the end-to-end and
per-layer metrics are exactly those `BENCHMARK.json` names, with the same
units, that the scenario metrics and run facts are printed, that every
output was correct, and that the deterministic counters shared by the two
runs of a seed are identical. Exits non-zero on the first problem.
"""

import json
import math
import subprocess
import sys

SCENARIO = {
    "build_run": {"exec_steps_per_s": "1/s", "sim_cycles": "cycles"},
    "edit_loop": {"warm_ms_p50": "ms", "warm_ms_p90": "ms", "edit_ms_p50": "ms", "edit_ms_p90": "ms"},
    "daemon": {"request_ms_p50": "ms", "request_ms_p90": "ms", "requests_per_s": "1/s", "daemon_rss_mb": "MB"},
}
EVERY_SCENARIO = {
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "compile_lines_per_s": "lines/s",
    "cal_ms": "ms",
    "setup_s": "s",
    "failed_share": "share",
}
FACTS = ("host_cpus", "commit", "rustc", "samples", "load", "seed")


def run(bench, workload, seed, trace):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if out.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    tagged = {}
    for line in lines[:-1]:
        if line.startswith("# perfbench "):
            tag, body = line[len("# perfbench "):].split(" ", 1)
            tagged[tag] = json.loads(body)
    return json.loads(lines[-1]), tagged


def check_metrics(where, metrics, spec, nonzero):
    want = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(want):
        sys.exit(f"{where}: metric names differ: missing {set(want) - set(metrics)}, extra {set(metrics) - set(want)}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != want[name]:
            sys.exit(f"{where}: {name} is {m}, want unit {want[name]}")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            sys.exit(f"{where}: {name} is not a finite number: {m['value']}")
        if nonzero and m["value"] == 0:
            sys.exit(f"{where}: {name} is 0")


def main():
    seed = int(sys.argv[sys.argv.index("--seed") + 1]) if "--seed" in sys.argv else 1
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        workload = w["name"]
        counters = []
        for trace in (0, 1):
            where = f"{workload} trace={trace}"
            result, tagged = run(bench, workload, seed, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                sys.exit(f"{where}: result keys are {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                sys.exit(f"{where}: not correct: {result['attempted']} attempted, {result['failed']} failed")
            spec = bench["per_layer"] if trace else bench["end_to_end"]
            check_metrics(where, result["metrics"], spec, nonzero=not trace)
            report = tagged.get("report", {})
            for name, unit in {**SCENARIO[workload], **EVERY_SCENARIO}.items():
                if report.get(name, {}).get("unit") != unit:
                    sys.exit(f"{where}: scenario metric {name} missing or not in {unit}")
            if report["failed_share"]["value"] != 0:
                sys.exit(f"{where}: failed_share is {report['failed_share']['value']}")
            missing = [k for k in FACTS if k not in tagged.get("facts", {})]
            if missing:
                sys.exit(f"{where}: run facts missing {missing}")
            counters.append(tagged.get("counters", {}))
        shared = set(counters[0]) & set(counters[1])
        drift = {k: (counters[0][k], counters[1][k]) for k in shared if counters[0][k] != counters[1][k]}
        if not shared or drift:
            sys.exit(f"{workload}: deterministic counters drifted between runs: {drift}")
        print(f"{workload}: ok ({len(shared)} counters repeat exactly)")
    print("smoke: ok")


if __name__ == "__main__":
    main()
