"""Toy-scale smoke run of the benchmark.

    python3 perfbench/smoke.py

Runs a tiny version of every workload, untraced and traced, in one Spark
session, and checks that BENCHMARK.json names exactly the workloads and
metrics the benchmark defines, that every named metric is emitted with its
unit, and that the toy jobs pass their output checks. Exits 1 on a mismatch.
"""
from __future__ import annotations

import json
import math
import sys

from run import ROOT, prepare_environment, run_benchmark, start_spark, stop_spark


def check_manifest(spec, workloads, end_to_end, per_layer) -> list[str]:
    problems = []
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    if declared != {w.name: w.why for w in workloads.values()}:
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for key, ours in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        theirs = [(m["name"], m["unit"]) for m in spec[key]]
        if theirs != list(ours):
            problems.append(f"BENCHMARK.json {key} differs from metrics.py")
    return problems


def check_contract(label, contract, expected) -> list[str]:
    problems = []
    if set(contract) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(contract)}")
    if not contract["correct"] or contract["failed"] or contract["attempted"] < 1:
        problems.append(f"{label}: correct={contract['correct']} "
                        f"failed={contract['failed']}/{contract['attempted']}")
    got = {k: v["unit"] for k, v in contract["metrics"].items()}
    if got != dict(expected):
        problems.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ set(dict(expected)))}")
    for name, m in contract["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{label}: {name} = {m['value']!r}")
    json.dumps(contract, allow_nan=False)
    return problems


def main() -> int:
    prepare_environment()
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_manifest(spec, WORKLOADS, END_TO_END, PER_LAYER)
    spark, start_s = start_spark()
    try:
        for wl in WORKLOADS.values():
            for trace, expected in ((False, END_TO_END), (True, PER_LAYER)):
                record = run_benchmark(spark, wl.toy(), seed=0, seconds=0,
                                       trace=trace, spark_start_s=start_s,
                                       min_jobs=1)
                label = f"{wl.name} trace={int(trace)}"
                found = check_contract(label, record["contract"], expected)
                found += [f"{label}: {e}" for e in record["fixed_work_errors"]]
                print(label, "ok" if not found else "FAILED")
                problems += found
    finally:
        stop_spark(spark)
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
