"""Command-line frontend.

Subcommands wrap the library operations one to one and emit deterministic
JSON or CSV reports that embed the input parameters and library version.
Each leaf subcommand has one runner in RUNNERS that returns the report's
params, its fields (a dict, or a function that builds it when only the
JSON report needs the work) and its CSV rows (an iterable, a function that
yields the CSV text in pieces, or None for JSON-only commands); one handler
builds the envelope and writes the report as the rows arrive.  A runner resolves
only the settings it reads, each from its flag, then its EOS_-prefixed
environment variable, then its default.
Exit codes: 0 success, 2 usage or precondition violation, 3 internal
consistency failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction

from . import __version__
from .arith import is_probable_prime, is_squarefree, prime_divisors
from .errors import ConsistencyError, EnumerationLimitError
from .experiments import (
    alpha_density,
    exceptional_scan,
    logpower_fit,
    mertens_sum,
    pg_free_counts,
)
from .families import (
    ScaledFamily,
    in_Tn,
    scaled_family_scan,
    thin_Pn_member,
    thin_family_check,
    thin_member_density,
    trinomial_data,
    trinomial_monogenic_check,
    twist_index_check,
)
from .obstruction import _certificate, _pg_table, estimate_delta, local_coset_check
from .purefield import pure_index

ENV_PREFIX = "EOS_"
# P_g members per pset CSV chunk: each chunk is written as one piece of text
_PSET_CHUNK = 1 << 14


def _setting(args, name: str, default, cast=int):
    """The flag ``--name``, else ``EOS_<NAME>`` cast from text, else the default."""
    value = getattr(args, name)
    if value is not None:
        return value
    raw = os.environ.get(ENV_PREFIX + name.upper())
    return default if raw is None else cast(raw)


def _parse_checkpoints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise ValueError(f"bad checkpoint list {text!r}") from exc


def _range(args) -> tuple[int, tuple[int, ...]]:
    """x_max and the checkpoint ladder of a range experiment.

    Without checkpoints the ladder is the distinct values >= 2 among
    x_max/1000, x_max/100, x_max/10 and x_max; the library validates it.
    """
    x_max = _setting(args, "x_max", 10**6)
    checkpoints = _setting(args, "checkpoints", (), _parse_checkpoints)
    if not checkpoints:
        ladder = (x_max // 1000, x_max // 100, x_max // 10, x_max)
        checkpoints = tuple(sorted({x for x in ladder if x >= 2}))
        if len(checkpoints) < 3:
            raise ValueError("x_max too small for a default checkpoint ladder")
    return x_max, checkpoints


def _fraction_payload(fr: Fraction) -> dict:
    return {
        "numerator": fr.numerator,
        "denominator": fr.denominator,
        "value": fr.numerator / fr.denominator,
    }


def _strictly_decreasing(seq) -> bool:
    return all(b < a for a, b in zip(seq, seq[1:]))


def _run_invariants(args):
    n, m = args.n, args.m
    if n < 2 or abs(m) <= 1:
        raise ValueError("requires n >= 2 and |m| > 1")
    if not is_squarefree(m):
        raise ValueError("m not squarefree")
    inv = pure_index(n, m)
    cert = _certificate(n, m, inv.g)
    fields = {
        "n": n,
        "m": m,
        "irreducible": True,
        "squarefree": True,
        "alpha_monogenic": inv.alpha_monogenic,
        "g": inv.g,
        "disc": inv.power_disc,
        "certificate": cert.to_json_dict() if cert else None,
    }
    return {"n": n, "m": m}, fields, None


def _run_pset(args):
    limit = _setting(args, "limit", 1000)
    _, members = _pg_table(args.g, args.N, limit)
    params = {"g": args.g, "N": args.N, "limit": limit}

    def csv_text():
        for i in range(0, len(members), _PSET_CHUNK):
            yield "\n".join(map(str, members[i : i + _PSET_CHUNK].tolist())) + "\n"

    return params, lambda: {"primes": members.tolist()}, csv_text


def _run_density(args):
    budget = _setting(args, "budget", 10**6)
    kd = estimate_delta(args.g, args.N, budget)
    params = {"g": args.g, "N": args.N, "budget": budget}
    return params, asdict(kd) | {"delta": _fraction_payload(kd.delta)}, None


def _run_coset(args):
    seed = _setting(args, "seed", 0)
    if not -(2**63) <= seed < 2**63:
        raise ValueError("seed must fit in 64 bits")
    report = local_coset_check(args.n, args.m, args.q, args.trials, seed)
    params = {"n": args.n, "m": args.m, "q": args.q, "trials": args.trials, "seed": seed}
    return params, asdict(report), None


def _run_alpha_density(args):
    x_max, checkpoints = _range(args)
    rep = alpha_density(args.n, x_max, checkpoints)
    xs, counts = rep.checkpoints.xs, rep.checkpoints.counts
    rel_err = abs(rep.densities[-1] - rep.target) / rep.target
    params = {
        "n": args.n,
        "x_max": x_max,
        "checkpoints": checkpoints,
        "tolerance": args.tolerance,
    }
    fields = {
        "xs": xs,
        "counts": counts,
        "densities": rep.densities,
        "target": rep.target,
        "rel_err_final": rel_err,
        "pass": rel_err <= args.tolerance,
    }
    return params, fields, [("X", "count", "density"), *zip(xs, counts, rep.densities)]


def _run_pg_free(args):
    x_max, checkpoints = _range(args)
    cp = pg_free_counts(args.g, args.N, x_max, checkpoints)
    ratios = [c / x for c, x in zip(cp.counts, cp.xs)]
    fit = logpower_fit(cp) if all(c > 0 for c in cp.counts) else None
    params = {
        "g": args.g,
        "N": args.N,
        "x_max": x_max,
        "checkpoints": checkpoints,
    }
    fields = {
        "xs": cp.xs,
        "counts": cp.counts,
        "ratios": ratios,
        "fit": asdict(fit) if fit else None,
        "pass": _strictly_decreasing(ratios),
    }
    return params, fields, [("X", "count", "ratio"), *zip(cp.xs, cp.counts, ratios)]


def _run_mertens(args):
    x_max, checkpoints = _range(args)
    if args.target_delta is not None and not args.target_delta > 0:
        raise ValueError("target-delta must be > 0")
    rep = mertens_sum(args.g, args.N, x_max, checkpoints)
    verdict = None
    if args.target_delta is not None:
        verdict = abs(rep.slope - args.target_delta) / args.target_delta <= 0.25
    params = {
        "g": args.g,
        "N": args.N,
        "x_max": x_max,
        "checkpoints": checkpoints,
        "target_delta": args.target_delta,
    }
    fields = {
        "xs": rep.xs,
        "sums": rep.sums,
        "slope": rep.slope,
        "intercept": rep.intercept,
        "pass": verdict,
    }
    return params, fields, [("X", "sum"), *zip(rep.xs, rep.sums)]


def _run_exceptional(args):
    x_max, checkpoints = _range(args)
    # accepted, validated and echoed; the scan runs in one process
    workers = _setting(args, "workers", 1)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    rep = exceptional_scan(args.n, x_max, checkpoints)
    rows = [
        asdict(row) | {"ratios": row.ratios, "decreasing": _strictly_decreasing(row.ratios)}
        for row in rep.rows
    ]
    params = {
        "n": args.n,
        "x_max": x_max,
        "checkpoints": checkpoints,
        "workers": workers,
    }
    fields = {
        "xs": rep.xs,
        "rows": rows,
        "pass": all(r["decreasing"] for r in rows) if rows else None,
    }
    csv_rows = [("g", "X", "total", "pg_free", "ratio")] + [
        (row.g, *cells)
        for row in rep.rows
        for cells in zip(rep.xs, row.totals, row.pg_free, row.ratios)
    ]
    return params, fields, csv_rows


def _run_trinomial(args):
    members = [t for t in range(args.t_min, args.t_max + 1) if abs(t) > 1 and in_Tn(args.n, t)]
    failures = []
    for t in members:
        trinomial_data(args.n, t).verify_against_resultant()
        if not trinomial_monogenic_check(args.n, t):
            failures.append(t)
    params = {"n": args.n, "t_min": args.t_min, "t_max": args.t_max}
    fields = {
        "members": len(members),
        "failures": failures,
        "all_monogenic": not failures,
    }
    return params, fields, [("t", "monogenic"), *((t, t not in failures) for t in members)]


def _run_twist(args):
    if args.c < 2:  # gcd(t, c) = 1 would never hold for c = 0, so the search would not end
        raise ValueError("c must be >= 2")
    expected = args.c ** (args.n * (args.n - 1) // 2)
    checks = []
    t = 2
    while len(checks) < args.values:
        if math.gcd(t, args.c) == 1 and in_Tn(args.n, t):
            checks.append({"t": t, "index": twist_index_check(args.n, args.c, t)})
        t += 1
    params = {"n": args.n, "c": args.c, "values": args.values}
    fields = {
        "expected": expected,
        "checks": checks,
        "all_match": all(v["index"] == expected for v in checks),
    }
    return params, fields, [("t", "index"), *(v.values() for v in checks)]


def _run_thin(args):
    limit = _setting(args, "limit", 10**4)
    members, nprimes, ratio = thin_member_density(args.n, args.c, limit)
    expected = 1.0
    for p in prime_divisors(args.n):
        expected *= 1 - 1 / p
    checks = []
    q = 2
    while len(checks) < args.sample and q <= limit:
        if is_probable_prime(q) and thin_Pn_member(args.n, args.c, q):
            rep = thin_family_check(args.n, args.c, q)
            checks.append(
                {
                    "q": q,
                    "alpha_monogenic": rep.alpha_monogenic_of_q,
                    "index": rep.distinguished_index,
                }
            )
        q += 1
    params = {"n": args.n, "c": args.c, "limit": limit, "sample": args.sample}
    fields = {
        "members": members,
        "primes": nprimes,
        "ratio": ratio,
        "expected_ratio": expected,
        "checks": checks,
    }
    return params, fields, [("q", "alpha_monogenic", "index"), *(c.values() for c in checks)]


def _run_scaled(args):
    coeffs = tuple(int(x) for x in args.coeffs.split(","))
    family = ScaledFamily(args.n, coeffs)
    rep = scaled_family_scan(family, args.t_min, args.t_max, args.candidate_bound)
    params = {
        "n": args.n,
        "coeffs": coeffs,
        "t_min": args.t_min,
        "t_max": args.t_max,
        "candidate_bound": args.candidate_bound,
    }
    fields = {
        "index_values": rep.index_values,
        "kummer_nontrivial": rep.kummer_nontrivial,
        "unresolved": rep.unresolved,
        "out_of_bound": rep.out_of_bound,
        "hypotheses_hold": all(flag for _, flag in rep.kummer_nontrivial),
    }
    return params, fields, [("g", "count"), *rep.index_values]


# leaf subcommand (the experiment or family name where there is one) -> runner
RUNNERS = {
    "invariants": _run_invariants,
    "pset": _run_pset,
    "density": _run_density,
    "coset": _run_coset,
    "alpha-density": _run_alpha_density,
    "pg-free": _run_pg_free,
    "mertens": _run_mertens,
    "exceptional": _run_exceptional,
    "trinomial": _run_trinomial,
    "twist": _run_twist,
    "thin": _run_thin,
    "scaled": _run_scaled,
}


def _run(args) -> int:
    """Run one leaf subcommand and write its report as JSON or CSV.

    ``pset`` defaults to CSV, every other command to JSON; the JSON-only
    commands write JSON whatever the format.  CSV rows stream through
    ``csv.writer``; every cell is an int, float, bool or plain header
    string, which it writes exactly as ``str`` does.
    """
    fmt = _setting(args, "format", "csv" if args.command == "pset" else "json", str)
    if fmt not in ("json", "csv"):
        raise ValueError("format must be json or csv")
    out = _setting(args, "out", None, str)
    name = getattr(args, "name", None)
    params, fields, csv_rows = RUNNERS[name or args.command](args)
    text = None
    if fmt != "csv" or csv_rows is None:
        report = {"command": args.command, "version": __version__, "params": params}
        if name:
            report["name"] = name
        if callable(fields):
            fields = fields()
        text = json.dumps(report | fields, sort_keys=True, indent=2) + "\n"
    with (
        open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout)
    ) as fh:
        if text is not None:
            fh.write(text)
        elif callable(csv_rows):
            fh.writelines(csv_rows())
        else:
            csv.writer(fh, lineterminator="\n").writerows(csv_rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eosieve",
        description="Power-basis indices, obstruction primes, and density experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)

    p = sub.add_parser("invariants", help="index, criterion, and certificate for (n, m)")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    add_common(p)

    p = sub.add_parser("pset", help="obstruction primes P_g up to a limit")
    p.add_argument("g", type=int)
    p.add_argument("N", type=int)
    p.add_argument("--limit", type=int, default=None)
    add_common(p)

    p = sub.add_parser("density", help="empirical Chebotarev density of P_g")
    p.add_argument("g", type=int)
    p.add_argument("N", type=int)
    p.add_argument("--budget", type=int, default=None)
    add_common(p)

    p = sub.add_parser("coset", help="randomized local single-coset check")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--trials", type=int, default=1000)
    add_common(p)

    p = sub.add_parser("experiment", help="density experiments")
    p.add_argument(
        "name", choices=("alpha-density", "pg-free", "mertens", "exceptional")
    )
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--g", type=int, default=4)
    p.add_argument("--N", type=int, default=6)
    p.add_argument("--x-max", dest="x_max", type=int, default=None)
    p.add_argument("--checkpoints", type=_parse_checkpoints, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=0.01)
    p.add_argument("--target-delta", type=float, default=None)
    add_common(p)

    p = sub.add_parser("family", help="trinomial, twist, thin, and scaled families")
    p.add_argument("name", choices=("trinomial", "twist", "thin", "scaled"))
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--c", type=int, default=2)
    p.add_argument("--t-min", dest="t_min", type=int, default=-200)
    p.add_argument("--t-max", dest="t_max", type=int, default=200)
    p.add_argument("--values", type=int, default=10)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--sample", type=int, default=10)
    p.add_argument("--coeffs", default="1,1,0,0")
    p.add_argument("--candidate-bound", dest="candidate_bound", type=int, default=None)
    add_common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (EnumerationLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
