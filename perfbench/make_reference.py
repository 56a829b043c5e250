"""Rebuild perfbench/reference.json: the point-query pool with its answers,
and the report digest of every batch command.

    python3 perfbench/make_reference.py

The pool comes from a fixed-seed stdlib generator.  Radicands are +/- a
product of 1 to 3 distinct primes below 5000, so they are squarefree by
construction; family parameters are drawn at random and kept when the
library's own admissibility predicate accepts them.  Answers are those of
the library in this checkout, so run this only on a commit whose outputs
are the reference.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import sys

from run import ROOT, git_commit
from workloads import (
    POOL_FACTOR,
    REFERENCE_PATH,
    SIZES,
    STRATA,
    batch_commands,
    report_digest,
    run_query,
)

POOL_SEED = 20260217
RADICAND_PRIMES_BELOW = 5000
SCALED_COEFFS = {4: ((1, 1, 0, 0), (1, 0, 1, 0), (2, 1, 0, 1)), 5: ((1, 1, 0, 0, 0), (1, 0, 0, 1, 0))}
TWIST_C = {4: (2, 3), 5: (2,)}
THIN_C = {4: (2, 3), 6: (2,)}


def _draw(E, rng: random.Random, primes: list[int], kind: str, n: int):
    """One candidate argument list for the stratum, or None to redraw."""
    if kind in ("invariants", "coset"):
        factors = rng.sample(primes, rng.randint(1, 3))
        m = math.prod(factors) * rng.choice((1, -1))
        if kind == "invariants":
            return [n, m]
        N = n * (n - 1) // 2
        qs = [q for q in factors if N % q]
        return [n, m, rng.choice(qs), rng.randrange(2**32)] if qs else None
    if kind == "trinomial":
        t = rng.randint(-3000, 3000)
        return [n, t] if abs(t) > 1 and E.in_Tn(n, t) else None
    if kind == "twist":
        c = rng.choice(TWIST_C[n])
        t = rng.randint(2, 3000)
        return [n, c, t] if math.gcd(t, c) == 1 and E.in_Tn(n, t) else None
    if kind == "thin":
        c = rng.choice(THIN_C[n])
        q = rng.choice(primes)
        return [n, c, q] if E.thin_Pn_member(n, c, q) else None
    if kind == "scaled":
        coeffs = rng.choice(SCALED_COEFFS[n])
        t = rng.randint(-2000, 2000)
        return [n, list(coeffs), t] if E.in_T_hsf(E.ScaledFamily(n, coeffs), t) else None
    raise ValueError(kind)


def build_pool(E) -> list:
    rng = random.Random(POOL_SEED)
    primes = E.prime_sieve(RADICAND_PRIMES_BELOW - 1)
    pool = []
    for (kind, n), count in STRATA.items():
        seen = set()
        while len(seen) < POOL_FACTOR * count:
            args = _draw(E, rng, primes, kind, n)
            if args is None or json.dumps(args) in seen:
                continue
            seen.add(json.dumps(args))
            pool.append([kind, args, run_query(E, kind, args)])
    return pool


def main() -> int:
    for name in [k for k in os.environ if k.startswith("EOS_")]:
        del os.environ[name]
    sys.path.insert(0, str(ROOT / "src"))
    import eosieve
    import eosieve.cli
    from worker import run_cli

    import numpy

    batch = {}
    for size in SIZES:
        for workload in ("exceptional-scan", "sieve-scan"):
            for argv in batch_commands(workload, size):
                batch[" ".join(argv)] = report_digest(run_cli(eosieve, argv))
                print("reference:", " ".join(argv), file=sys.stderr)
    pool = build_pool(eosieve)
    reference = {
        "made_with": {
            "commit": git_commit(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "pool_seed": POOL_SEED,
        },
        "batch": batch,
        "pool": pool,
    }
    # one pool item per line keeps diffs of the reference readable
    head = json.dumps({k: v for k, v in reference.items() if k != "pool"}, indent=1)
    items = ",\n".join(json.dumps(item, separators=(",", ":")) for item in pool)
    REFERENCE_PATH.write_text(f'{head[:-2]},\n "pool": [\n{items}\n]\n}}\n', encoding="utf-8")
    print(f"wrote {len(pool)} pool items and {len(batch)} batch digests", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
