"""Seconds-long self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload at its smoke size, untraced and traced, and checks that
each run is correct, that every metric listed in BENCHMARK.json is emitted
with its unit, that point-queries alone reports per-call latency, and that
traced and untraced repetitions give the reference digest, which shows the
tracing wrappers do not change any answer.
"""

from __future__ import annotations

import json
import sys

from run import LATENCY_UNITS, ROOT, result_line, run_workload
from workloads import WORKLOADS


def check(workload: str, trace: int, spec: dict) -> list[str]:
    res = run_workload(workload, seed=0, seconds=0, trace=trace, size="smoke")
    problems = []
    if not res["correct"]:
        problems += [f"incorrect run: {line}" for line in res["mismatches"] + res["errors"]]
    emitted = json.loads(result_line(res, trace))["metrics"]
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    for metric in listed:
        got = emitted.get(metric["name"])
        if got is None:
            problems.append(f"metric {metric['name']} not emitted")
        elif got["unit"] != metric["unit"]:
            problems.append(f"metric {metric['name']} has unit {got['unit']}, not {metric['unit']}")
    unlisted = set(emitted) - {m["name"] for m in listed}
    if unlisted:
        problems.append(f"metrics not listed in BENCHMARK.json: {sorted(unlisted)}")
    want_latency = set(LATENCY_UNITS) if workload == "point-queries" else set()
    if set(res["latency"]) != want_latency:
        problems.append(f"latency metrics {sorted(res['latency'])}, want {sorted(want_latency)}")
    if res["missing"]:
        problems.append(f"traced functions missing: {res['missing']}")
    want = [res["digest"]]
    if res["digests"]["untraced"] != want:
        problems.append(f"untraced digests {res['digests']['untraced']} != reference {want}")
    if trace and res["digests"]["traced"] != want:
        problems.append(f"traced digests {res['digests']['traced']} != reference {want}")
    return [f"{workload} trace={trace}: {p}" for p in problems]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems += check(workload, trace, spec)
            print(f"checked {workload} trace={trace}", file=sys.stderr)
    for line in problems:
        print(line)
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
