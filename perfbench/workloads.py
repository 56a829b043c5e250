"""Workload definitions shared by run.py, worker.py and make_reference.py.

This module imports nothing from eosieve: the orchestrator uses it to lay
out inputs and expected answers without loading the library, and the
worker passes the library package in when it runs a query.

Three workloads:

- ``exceptional-scan``: ``experiment exceptional`` through ``cli.main``.
  Dominated by per-radicand saturation at the primes dividing n.
- ``sieve-scan``: the range experiments through ``cli.main``, all at one
  range bound.  Dominated by full-range numpy arrays and the P_g loop.
- ``point-queries``: one closed-loop client issuing independent library
  calls drawn from a fixed pool; the same order arithmetic per item, plus
  factorization and GF(q) elimination.

The seed shapes point-queries only: it draws a fixed number of items from
every stratum of the pool and fixes their order, so it never changes how
much work a run does.  The batch workloads are exhaustive range scans with
nothing to draw, and they run in a fixed order: the first command to need
the large prime table pays for building it, so a seeded order would move
the per-command latencies with the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("exceptional-scan", "sieve-scan", "point-queries")
# The calibration slice (pace.py) matching the work each workload does.
PACE_KIND = {"exceptional-scan": "python", "sieve-scan": "numpy", "point-queries": "python"}
SIZES = ("bench", "smoke")

# "bench" is half the ranges first proposed (n=4 to 10^4, n=6 to 2000,
# n=8 to 500), so that one timed run holds several cold repetitions;
# "smoke" is a seconds-long size for the self-check.
_EXCEPTIONAL = {
    "bench": ((4, 5000), (6, 1000), (8, 250)),
    "smoke": ((4, 600), (6, 200), (8, 200)),
}

_SIEVE_X = {"bench": 30_000_000, "smoke": 100_000}

# Queries drawn per stratum of the pool; the pool holds POOL_FACTOR times
# the bench count of every stratum.
STRATA = {
    ("invariants", 4): 200,
    ("invariants", 6): 150,
    ("invariants", 8): 100,
    ("invariants", 12): 50,
    ("trinomial", 4): 60,
    ("trinomial", 5): 60,
    ("trinomial", 6): 60,
    ("scaled", 4): 100,
    ("scaled", 5): 50,
    ("twist", 4): 80,
    ("twist", 5): 40,
    ("thin", 4): 100,
    ("thin", 6): 50,
    ("coset", 4): 60,
    ("coset", 6): 30,
}
POOL_FACTOR = 2
SMOKE_DIVISOR = 20
COSET_TRIALS = 200


def batch_commands(workload: str, size: str) -> list[list[str]]:
    """CLI argument vectors of a batch workload, in definition order."""
    if workload == "exceptional-scan":
        return [
            ["experiment", "exceptional", "--n", str(n), "--x-max", str(x), "--workers", "1"]
            for n, x in _EXCEPTIONAL[size]
        ]
    if workload == "sieve-scan":
        x = str(_SIEVE_X[size])
        return [
            ["experiment", "alpha-density", "--n", "4", "--x-max", x],
            ["experiment", "alpha-density", "--n", "6", "--x-max", x],
            ["experiment", "pg-free", "--g", "4", "--N", "6", "--x-max", x],
            ["experiment", "mertens", "--g", "4", "--N", "6", "--x-max", x],
            ["density", "4", "6", "--budget", x],
            ["pset", "4", "6", "--limit", x],
            ["family", "thin", "--n", "4", "--c", "2", "--limit", x],
        ]
    raise ValueError(f"{workload} is not a batch workload")


def item_key(item) -> str:
    """Identity of a pool item: its kind and arguments."""
    return json.dumps(item[:2], separators=(",", ":"))


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def make_inputs(workload: str, seed: int, size: str, reference: dict) -> list:
    """The calls of one repetition, in order.

    Batch workloads give CLI argument vectors, the same for every seed;
    point-queries gives pool items ``[kind, args]``.
    """
    if workload == "point-queries":
        rng = random.Random(f"{workload}:{seed}")
        by_stratum: dict[tuple[str, int], list] = {}
        for kind, args, _answer in reference["pool"]:
            by_stratum.setdefault((kind, args[0]), []).append([kind, args])
        items = []
        for stratum, count in STRATA.items():
            if size == "smoke":
                count = max(1, count // SMOKE_DIVISOR)
            items.extend(rng.sample(by_stratum[stratum], count))
        rng.shuffle(items)
        return items
    return batch_commands(workload, size)


def expected_answers(workload: str, calls: list, reference: dict) -> list[str]:
    """The reference answer of every call, rendered as the worker renders it."""
    if workload == "point-queries":
        answers = {item_key(item): item[2] for item in reference["pool"]}
        return [canonical(answers[item_key(item)]) for item in calls]
    return [reference["batch"][" ".join(argv)] for argv in calls]


def canonical(answer) -> str:
    return json.dumps(answer, separators=(",", ":"))


def digest(answers: list[str]) -> str:
    """sha256 over the answers of one repetition, in call order."""
    return hashlib.sha256("\n".join(answers).encode()).hexdigest()


_VERSION_FIELD = re.compile(r'"version": "[^"]*"')


def report_digest(text: str) -> str:
    """sha256 of a CLI report, with the library version masked.

    The version string is not an answer; masking it keeps a version bump
    from failing the gate.
    """
    return hashlib.sha256(_VERSION_FIELD.sub('"version": "*"', text, count=1).encode()).hexdigest()


def run_query(E, kind: str, args: list):
    """One point query, mirroring what the CLI subcommand does for one
    parameter; returns the canonical tuple of primitive answers.

    Library functions are looked up on the package at call time so that
    tracing wrappers installed after import are the ones called.
    """
    if kind == "invariants":
        n, m = args
        inv = E.pure_index(n, m)
        cert = E.obstruction_certificate(n, m)
        return [inv.g, inv.alpha_monogenic, None if cert is None else [cert.q, cert.witness]]
    if kind == "trinomial":
        n, t = args
        if not E.in_Tn(n, t):
            raise ValueError(f"t = {t} is not in T_{n}")
        E.trinomial_data(n, t).verify_against_resultant()
        return [E.trinomial_monogenic_check(n, t)]
    if kind == "twist":
        n, c, t = args
        return [E.twist_index_check(n, c, t)]
    if kind == "thin":
        n, c, q = args
        if not E.thin_Pn_member(n, c, q):
            raise ValueError(f"q = {q} is not a thin-family member")
        rep = E.thin_family_check(n, c, q)
        return [rep.alpha_monogenic_of_q, rep.distinguished_index]
    if kind == "scaled":
        n, coeffs, t = args
        rep = E.scaled_family_scan(E.ScaledFamily(n, tuple(coeffs)), t, t)
        return [
            [list(x) for x in rep.index_values],
            [list(x) for x in rep.kummer_nontrivial],
            list(rep.unresolved),
            [list(x) for x in rep.out_of_bound],
        ]
    if kind == "coset":
        n, m, q, seed = args
        rep = E.local_coset_check(n, m, q, COSET_TRIALS, seed)
        return [rep.failures, rep.base_class]
    raise ValueError(f"unknown query kind {kind}")
