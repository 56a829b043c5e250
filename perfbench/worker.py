"""One repetition of one workload, in a fresh interpreter.

Run by ``run.py``; not meant to be called by hand.  Prints one JSON line:
the moment its inputs were ready (``time.monotonic``, which is system-wide,
so the parent can subtract its spawn time), the job's wall and CPU time,
peak RSS, per-call latencies and answers, and the per-layer trace when
tracing is on.  A ``pace.Pacer`` runs beside the job; every time the worker
reports (job, CPU, latency, self time) is net of its calibration slices and
scaled to the reference host speed, and ``scale`` is the factor it used.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return max(
        resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024


def run_cli(eosieve, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = eosieve.cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return out.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import eosieve
    import eosieve.cli
    import workloads
    from pace import Pacer

    if Path(eosieve.__file__).resolve().parent != SRC / "eosieve":
        raise SystemExit(f"imported eosieve from {eosieve.__file__}, not from {SRC}")
    pacer = Pacer(workloads.PACE_KIND[args.workload])
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(clock=pacer.clock)
        tracer.install()
    reference = workloads.load_reference()
    calls = workloads.make_inputs(args.workload, args.seed, args.size, reference)
    ready = time.monotonic()

    answers: list[str] = []
    latencies: list[float] = []
    errors: list[str] = []
    cpu0 = _cpu_seconds()
    job0 = time.perf_counter()
    pacer.start()
    for call in calls:
        start = pacer.clock()
        try:
            if args.workload == "point-queries":
                answer = workloads.canonical(workloads.run_query(eosieve, *call))
            else:
                answer = workloads.report_digest(run_cli(eosieve, call))
        except (Exception, SystemExit) as exc:  # a failed call is counted, not fatal
            answer = f"error: {type(exc).__name__}: {exc}"
            errors.append(f"{call}: {answer}")
        latencies.append(pacer.clock() - start)
        answers.append(answer)
    pacer.stop()
    job_wall_s = time.perf_counter() - job0
    cpu_s = _cpu_seconds() - cpu0
    scale = pacer.scale()

    trace = tracer.report() if tracer else None
    if trace:
        for name in trace["values"]:
            if name.endswith(".self_s"):
                trace["values"][name] *= scale
    result = {
        "ready": ready,
        "scale": scale,
        "job_wall_s": job_wall_s,
        "job_s": (job_wall_s - pacer.wall) * scale,
        "cpu_s": (cpu_s - pacer.cpu) * scale,
        "peak_rss_mb": _peak_rss_mb(),
        "latencies": [t * scale for t in latencies],
        "answers": answers,
        "errors": errors,
        "trace": trace,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
