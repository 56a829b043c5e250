"""eosieve benchmark: three single-process workloads, timed end to end, with
an outside-in traced mode for per-layer numbers.

    python3 perfbench/run.py --workload point-queries --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Every repetition runs in a fresh interpreter (``worker.py``) with all
``EOS_`` environment variables removed, so caches start cold as they do for
a CLI user and no stray setting changes the workload.  Repetitions run
until ``--seconds`` is spent (at least MIN_REPS of them); each metric is
the median over repetitions.  With ``--trace 1`` untraced and traced
repetitions alternate: the per-layer numbers come from the traced ones and
``trace.overhead_s`` is the difference of the two medians of ``job_s``.

Times are scaled to a reference host speed (see ``pace.py``): the worker
measures the host's speed over the job itself and reports its times net of
the calibration and scaled by it; ``setup_s`` is scaled by the same
repetition's factor.  The report also prints the raw wall time.

Every call's answer is checked against ``reference.json``; any mismatch or
failed call makes the run incorrect and the exit code 1.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = {0: 3, 1: 4}
# A run must end within 180 s; no repetition starts that could end past this.
HARD_LIMIT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
# Per-query latency, printed for point-queries only: a batch repetition
# holds just 3 or 7 commands, so their percentiles would be pieces of job_s.
LATENCY_UNITS = {"call_p50_ms": "ms", "call_p99_ms": "ms"}


class BenchError(Exception):
    pass


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def run_rep(workload: str, seed: int, size: str, traced: bool, timeout: float) -> dict:
    """One repetition in a fresh interpreter; adds its setup_s."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("EOS_")}
    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--size", size,
        "--trace", str(int(traced)),
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    rep = json.loads(lines[-1])
    rep["setup_s"] = (rep["ready"] - spawned) * rep["scale"]
    rep["traced"] = traced
    return rep


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    reference = workloads.load_reference()
    calls = workloads.make_inputs(workload, seed, size, reference)
    expected = workloads.expected_answers(workload, calls, reference)
    expected_digest = workloads.digest(expected)

    reps: list[dict] = []
    start = time.monotonic()
    while True:
        rep_start = time.monotonic()
        traced = bool(trace) and len(reps) % 2 == 1
        timeout = HARD_LIMIT_S + 20 - (rep_start - start)
        reps.append(run_rep(workload, seed, size, traced, timeout))
        now = time.monotonic()
        last = now - rep_start
        if now - start + last > HARD_LIMIT_S:
            break
        if len(reps) >= MIN_REPS[trace] and now - start + last > seconds:
            break
    if trace and len(reps) < 2:
        raise BenchError(f"{workload}: no time left for a traced repetition")

    mismatches = []
    for rep in reps:
        rep["digest"] = workloads.digest(rep["answers"])
        for i, (got, want) in enumerate(zip(rep["answers"], expected)):
            line = f"call {i} {calls[i]}: got {got}, want {want}"
            if got != want and line not in mismatches and len(mismatches) < 5:
                mismatches.append(line)
    untraced = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    attempted = sum(len(r["answers"]) for r in reps)
    failed = sum(len(r["errors"]) for r in reps)
    correct = all(r["digest"] == expected_digest for r in reps) and failed == 0

    def med(rows, key):
        return statistics.median(r[key] for r in rows)

    job_s = med(untraced, "job_s")
    end_to_end = {
        "setup_s": med(untraced, "setup_s"),
        "job_s": job_s,
        "cpu_s": med(untraced, "cpu_s"),
        "peak_rss_mb": med(untraced, "peak_rss_mb"),
    }
    latency = {}
    if workload == "point-queries":
        for name, q in (("call_p50_ms", 50), ("call_p99_ms", 99)):
            latency[name] = 1000 * statistics.median(percentile(r["latencies"], q) for r in untraced)
    per_layer = {}
    missing = []
    if traced_reps:
        for name in tracer.metric_names():
            per_layer[name] = statistics.median(r["trace"]["values"][name] for r in traced_reps)
        per_layer["trace.overhead_s"] = med(traced_reps, "job_s") - job_s
        missing = traced_reps[0]["trace"]["missing"]
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "calls": calls,
        "reps": len(reps),
        "untraced_reps": len(untraced),
        "digest": expected_digest,
        "digests": {
            "untraced": sorted({r["digest"] for r in untraced}),
            "traced": sorted({r["digest"] for r in traced_reps}),
        },
        "mismatches": mismatches,
        "errors": sorted({e for r in reps for e in r["errors"]})[:5],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "latency": latency,
        "raw": {"job_wall_s": med(untraced, "job_wall_s"), "scale": med(untraced, "scale")},
        "per_layer": per_layer,
        "missing": missing,
    }


def describe_inputs(workload: str, calls: list) -> dict:
    if workload == "point-queries":
        strata: dict[str, int] = {}
        for kind, args in calls:
            key = f"{kind} n={args[0]}"
            strata[key] = strata.get(key, 0) + 1
        return {"calls_per_rep": len(calls), "strata": strata}
    return {"calls_per_rep": len(calls), "commands": [" ".join(argv) for argv in calls]}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def print_report(res: dict, trace: int) -> None:
    info = {"workload": res["workload"], "seed": res["seed"], "size": res["size"]}
    info.update(describe_inputs(res["workload"], res["calls"]))
    print("inputs " + json.dumps(info))
    status = "ok" if res["correct"] else "MISMATCH"
    print(
        f"{res['workload']}: {res['reps']} repetitions ({res['untraced_reps']} untraced), "
        f"digest {res['digest'][:16]} {status}"
    )
    for line in res["mismatches"] + res["errors"]:
        print("  " + line)
    for name, value in res["end_to_end"].items():
        print(f"  {name:<14} {value:12.4f} {END_TO_END_UNITS[name]}")
    for name, value in res["latency"].items():
        note = f"  ({len(res['calls'])} calls per repetition, median over {res['untraced_reps']})"
        print(f"  {name:<14} {value:12.4f} {LATENCY_UNITS[name]}{note}")
    print(f"  {'job_wall_s':<14} {res['raw']['job_wall_s']:12.4f} s  (raw wall time)")
    print(f"  {'scale':<14} {res['raw']['scale']:12.4f}    (reference / host speed)")
    ratio = res["failed"] / res["attempted"]
    print(f"  {'fail_ratio':<14} {ratio:12.4f} ratio  ({res['failed']} of {res['attempted']} calls)")
    if trace:
        for name, value in res["per_layer"].items():
            if name.endswith(".calls") and value == 0:
                continue
            if name.endswith(".self_s") and res["per_layer"][name[:-7] + ".calls"] == 0:
                continue
            print(f"  {name:<56} {value:14.4f} {unit_of(name)}")
        if res["missing"]:
            print("  missing: " + ", ".join(res["missing"]))


def result_line(res: dict, trace: int) -> str:
    metrics = res["per_layer"] if trace else res["end_to_end"]
    return json.dumps(
        {
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eosieve" / "__init__.py").is_file():
        print(f"error: no eosieve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not workloads.REFERENCE_PATH.is_file():
        print(f"error: missing {workloads.REFERENCE_PATH}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine_info()))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace, "bench")
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_report(res, args.trace)
        print(result_line(res, args.trace))
        all_correct &= res["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
