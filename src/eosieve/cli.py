"""Command-line frontend.

Subcommands wrap the library operations one to one and emit deterministic
JSON or CSV reports that embed the input parameters and library version.
COMMANDS has one row per leaf subcommand with the arguments it reads; the
parser is built from it, so a leaf accepts only its own flags plus --format
and --out, and the report's params are those arguments, each resolved from
its flag, then (for ENV_SETTINGS) its EOS_-prefixed environment variable,
then its default.  A runner takes the params (it may normalise a value in
place before it is echoed) and returns the report's fields (a dict, or a
function that builds it when only the JSON report needs the work) and its
CSV rows (an iterable, a function that yields the CSV text in pieces, or
None for JSON-only commands); one handler builds the envelope and writes
the report as the rows arrive.
Exit codes: 0 success, 2 usage or precondition violation, 3 internal
consistency failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import asdict
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import __version__
from .arith import prime_divisors
from .errors import ConsistencyError
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
# the settings that fall back to EOS_<NAME> when their flag is not given
ENV_SETTINGS = frozenset(
    ("limit", "budget", "x_max", "checkpoints", "seed", "workers", "format", "out")
)
# P_g members per pset CSV chunk: each chunk is written as one piece of text
_PSET_CHUNK = 1 << 14
# 10, 100, ..., 10^9: an ascending array splits at these into runs of members
# of one decimal width, 1 to 10 digits
_DECIMAL_EDGES = 10 ** np.arange(1, 10, dtype=np.int64)


def _setting(args, name: str, default, cast):
    """The flag ``--name``, else ``EOS_<NAME>`` cast from text when the
    setting is in ENV_SETTINGS, else the default."""
    value = getattr(args, name)
    if value is not None:
        return value
    raw = os.environ.get(ENV_PREFIX + name.upper()) if name in ENV_SETTINGS else None
    return default if raw is None else cast(raw)


def _parse_checkpoints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise ValueError(f"bad checkpoint list {text!r}") from exc


def _ladder(params) -> tuple[int, tuple[int, ...]]:
    """x_max and the checkpoint ladder of a range experiment.

    Without checkpoints the ladder, echoed in params, is the distinct values
    >= 2 among x_max/1000, x_max/100, x_max/10 and x_max; the library
    validates it.
    """
    x_max = params["x_max"]
    if not params["checkpoints"]:
        ladder = (x_max // 1000, x_max // 100, x_max // 10, x_max)
        params["checkpoints"] = tuple(sorted({x for x in ladder if x >= 2}))
        if len(params["checkpoints"]) < 3:
            raise ValueError("x_max too small for a default checkpoint ladder")
    return x_max, params["checkpoints"]


def _fraction_payload(fr: Fraction) -> dict:
    return {
        "numerator": fr.numerator,
        "denominator": fr.denominator,
        "value": fr.numerator / fr.denominator,
    }


def _strictly_decreasing(seq) -> bool:
    return all(b < a for a, b in zip(seq, seq[1:]))


def _run_invariants(p):
    n, m = p["n"], p["m"]
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
    return fields, None


def _decimal_lines(values: np.ndarray) -> str:
    """The members of a strictly ascending integer array in [0, 10^10), one
    decimal line each, as ``str`` writes them.

    Members of one decimal width form a contiguous run, found with one
    searchsorted against _DECIMAL_EDGES.  Each run fills a (width + 1, count)
    uint8 block, a row per digit from np.divmod by 10 and a row of newlines,
    read out member by member.  The text is then checked: a chunk that is
    not strictly ascending, or whose first or last line is not ``str`` of
    that member (a member out of range), raises ConsistencyError.
    """
    if np.any(values[1:] <= values[:-1]):
        raise ConsistencyError("pset members are not strictly ascending")
    bounds = [0, *np.searchsorted(values, _DECIMAL_EDGES).tolist(), len(values)]
    runs = []
    for width, (i, j) in enumerate(zip(bounds, bounds[1:]), 1):
        if i == j:
            continue
        block = np.empty((width + 1, j - i), dtype=np.uint8)
        rest = values[i:j]
        for row in range(width - 1, -1, -1):
            rest, block[row] = np.divmod(rest, 10)
        block[:width] += ord("0")
        block[width] = ord("\n")
        runs.append(block.T.tobytes())
    text = b"".join(runs).decode("ascii")
    if len(values) and (
        text[: text.find("\n")] != str(int(values[0]))
        or text.rsplit("\n", 2)[-2] != str(int(values[-1]))
    ):
        raise ConsistencyError("pset lines do not match their members")
    return text


def _run_pset(p):
    """P_g up to the limit: JSON lists the members, CSV writes one line per
    member, _PSET_CHUNK members at a time through _decimal_lines."""
    _, members = _pg_table(p["g"], p["N"], p["limit"])

    def csv_text():
        for i in range(0, len(members), _PSET_CHUNK):
            yield _decimal_lines(members[i : i + _PSET_CHUNK])

    return lambda: {"primes": members.tolist()}, csv_text


def _run_density(p):
    kd = estimate_delta(p["g"], p["N"], p["budget"])
    return asdict(kd) | {"delta": _fraction_payload(kd.delta)}, None


def _run_coset(p):
    if not -(2**63) <= p["seed"] < 2**63:
        raise ValueError("seed must fit in 64 bits")
    return asdict(local_coset_check(p["n"], p["m"], p["q"], p["trials"], p["seed"])), None


def _run_alpha_density(p):
    x_max, checkpoints = _ladder(p)
    rep = alpha_density(p["n"], x_max, checkpoints)
    xs, counts = rep.checkpoints.xs, rep.checkpoints.counts
    rel_err = abs(rep.densities[-1] - rep.target) / rep.target
    fields = {
        "xs": xs,
        "counts": counts,
        "densities": rep.densities,
        "target": rep.target,
        "rel_err_final": rel_err,
        "pass": rel_err <= p["tolerance"],
    }
    return fields, [("X", "count", "density"), *zip(xs, counts, rep.densities)]


def _run_pg_free(p):
    x_max, checkpoints = _ladder(p)
    cp = pg_free_counts(p["g"], p["N"], x_max, checkpoints)
    ratios = [c / x for c, x in zip(cp.counts, cp.xs)]
    fit = logpower_fit(cp) if all(c > 0 for c in cp.counts) else None
    fields = {
        "xs": cp.xs,
        "counts": cp.counts,
        "ratios": ratios,
        "fit": asdict(fit) if fit else None,
        "pass": _strictly_decreasing(ratios),
    }
    return fields, [("X", "count", "ratio"), *zip(cp.xs, cp.counts, ratios)]


def _run_mertens(p):
    x_max, checkpoints = _ladder(p)
    target = p["target_delta"]
    if target is not None and not target > 0:
        raise ValueError("target-delta must be > 0")
    rep = mertens_sum(p["g"], p["N"], x_max, checkpoints)
    fields = {
        "xs": rep.xs,
        "sums": rep.sums,
        "slope": rep.slope,
        "intercept": rep.intercept,
        "pass": None if target is None else abs(rep.slope - target) / target <= 0.25,
    }
    return fields, [("X", "sum"), *zip(rep.xs, rep.sums)]


def _run_exceptional(p):
    x_max, checkpoints = _ladder(p)
    # accepted, validated and echoed; the scan runs in one process
    if p["workers"] < 1:
        raise ValueError("workers must be >= 1")
    rep = exceptional_scan(p["n"], x_max, checkpoints)
    rows = [
        asdict(row) | {"ratios": row.ratios, "decreasing": _strictly_decreasing(row.ratios)}
        for row in rep.rows
    ]
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
    return fields, csv_rows


def _run_trinomial(p):
    n = p["n"]
    members = [t for t in range(p["t_min"], p["t_max"] + 1) if abs(t) > 1 and in_Tn(n, t)]
    failures = []
    for t in members:
        trinomial_data(n, t).verify_against_resultant()
        if not trinomial_monogenic_check(n, t):
            failures.append(t)
    fields = {
        "members": len(members),
        "failures": failures,
        "all_monogenic": not failures,
    }
    return fields, [("t", "monogenic"), *((t, t not in failures) for t in members)]


def _run_twist(p):
    n, c = p["n"], p["c"]
    if c < 2:  # gcd(t, c) = 1 would never hold for c = 0, so the search would not end
        raise ValueError("c must be >= 2")
    expected = c ** (n * (n - 1) // 2)
    checks = []
    t = 2
    while len(checks) < p["values"]:
        if math.gcd(t, c) == 1 and in_Tn(n, t):
            checks.append({"t": t, "index": twist_index_check(n, c, t)})
        t += 1
    fields = {
        "expected": expected,
        "checks": checks,
        "all_match": all(v["index"] == expected for v in checks),
    }
    return fields, [("t", "index"), *(v.values() for v in checks)]


def _run_thin(p):
    n, c, limit = p["n"], p["c"], p["limit"]
    members, nprimes, ratio = thin_member_density(n, c, limit)
    expected = 1.0
    for prime in prime_divisors(n):
        expected *= 1 - 1 / prime
    checks = []
    q = 2
    while len(checks) < p["sample"] and q <= limit:
        if thin_Pn_member(n, c, q):
            rep = thin_family_check(n, c, q)
            checks.append(
                {
                    "q": q,
                    "alpha_monogenic": rep.alpha_monogenic_of_q,
                    "index": rep.distinguished_index,
                }
            )
        q += 1
    fields = {
        "members": members,
        "primes": nprimes,
        "ratio": ratio,
        "expected_ratio": expected,
        "checks": checks,
    }
    return fields, [("q", "alpha_monogenic", "index"), *(c.values() for c in checks)]


def _run_scaled(p):
    p["coeffs"] = coeffs = tuple(int(x) for x in p["coeffs"].split(","))
    rep = scaled_family_scan(
        ScaledFamily(p["n"], coeffs), p["t_min"], p["t_max"], p["candidate_bound"]
    )
    fields = {
        "index_values": rep.index_values,
        "kummer_nontrivial": rep.kummer_nontrivial,
        "unresolved": rep.unresolved,
        "out_of_bound": rep.out_of_bound,
        "hypotheses_hold": all(flag for _, flag in rep.kummer_nontrivial),
    }
    return fields, [("g", "count"), *rep.index_values]


class Leaf(NamedTuple):
    """One leaf subcommand: its parent subcommand (None for a top-level one),
    help text, runner, integer positionals, and flags, each setting name
    (``x_max`` is ``--x-max``) mapped to its type and default."""

    group: str | None
    help: str
    runner: Callable
    positionals: tuple[str, ...]
    flags: dict


_RANGE = {"x_max": (int, 10**6), "checkpoints": (_parse_checkpoints, ())}
# leaf subcommand (the experiment or family name where there is one) -> row
COMMANDS = {
    "invariants": Leaf(
        None, "index, criterion, and certificate for (n, m)", _run_invariants, ("n", "m"), {}
    ),
    "pset": Leaf(
        None, "obstruction primes P_g up to a limit", _run_pset, ("g", "N"), {"limit": (int, 1000)}
    ),
    "density": Leaf(
        None, "empirical Chebotarev density of P_g", _run_density, ("g", "N"),
        {"budget": (int, 10**6)},
    ),
    "coset": Leaf(
        None, "randomized local single-coset check", _run_coset, ("n", "m", "q"),
        {"trials": (int, 1000), "seed": (int, 0)},
    ),
    "alpha-density": Leaf(
        "experiment", "density of maximal power orders against its Euler product",
        _run_alpha_density, (), {"n": (int, 4), **_RANGE, "tolerance": (float, 0.01)},
    ),
    "pg-free": Leaf(
        "experiment", "counts of P_g-free integers and their log-power fit", _run_pg_free, (),
        {"g": (int, 4), "N": (int, 6), **_RANGE},
    ),
    "mertens": Leaf(
        "experiment", "partial sums of 1/q over P_g against log log X", _run_mertens, (),
        {"g": (int, 4), "N": (int, 6), **_RANGE, "target_delta": (float, None)},
    ),
    "exceptional": Leaf(
        "experiment", "P_g-free radicands of each nontrivial index value", _run_exceptional, (),
        {"n": (int, 4), **_RANGE, "workers": (int, 1)},
    ),
    "trinomial": Leaf(
        "family", "monogenicity of x^n + tx + t over a range of t", _run_trinomial, (),
        {"n": (int, 4), "t_min": (int, -200), "t_max": (int, 200)},
    ),
    "twist": Leaf(
        "family", "the fixed-index twist: index c^N for the scaled generator", _run_twist, (),
        {"n": (int, 4), "c": (int, 2), "values": (int, 10)},
    ),
    "thin": Leaf(
        "family", "census of the thin family of prime radicands", _run_thin, (),
        {"n": (int, 4), "c": (int, 2), "limit": (int, 10**4), "sample": (int, 10)},
    ),
    "scaled": Leaf(
        "family", "index values of a scaled Eisenstein family x^n + t h(x)", _run_scaled, (),
        {"n": (int, 4), "coeffs": (str, "1,1,0,0"), "t_min": (int, -200), "t_max": (int, 200),
         "candidate_bound": (int, None)},
    ),
}
GROUPS = {
    "experiment": "density experiments",
    "family": "trinomial, twist, thin, and scaled families",
}


def _run(args) -> int:
    """Run one leaf subcommand and write its report as JSON or CSV.

    ``pset`` defaults to CSV, every other command to JSON; the JSON-only
    commands write JSON whatever the format.  CSV rows stream through
    ``csv.writer``; every cell is an int, float, bool or plain header
    string, which it writes exactly as ``str`` does.
    """
    leaf = COMMANDS[args.leaf]
    fmt = _setting(args, "format", "csv" if args.leaf == "pset" else "json", str)
    if fmt not in ("json", "csv"):
        raise ValueError("format must be json or csv")
    out = _setting(args, "out", None, str)
    params = {name: getattr(args, name) for name in leaf.positionals}
    for name, (cast, default) in leaf.flags.items():
        params[name] = _setting(args, name, default, cast)
    fields, csv_rows = leaf.runner(params)
    text = None
    if fmt != "csv" or csv_rows is None:
        report = {"command": leaf.group or args.leaf, "version": __version__, "params": params}
        if leaf.group:
            report["name"] = args.leaf
        if callable(fields):
            fields = fields()
        text = json.dumps(report | fields, sort_keys=True, indent=2) + "\n"
    try:
        sink = open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:  # a missing directory, a directory, no permission
        raise ValueError(f"cannot write the report: {exc}") from exc
    with sink as fh:
        if text is not None:
            fh.write(text)
        elif callable(csv_rows):
            fh.writelines(csv_rows())
        else:
            csv.writer(fh, lineterminator="\n").writerows(csv_rows)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every leaf in COMMANDS, built once per process.

    main parses every argv with this one instance, so callers must not add
    to it.
    """
    parser = argparse.ArgumentParser(
        prog="eosieve",
        description="Power-basis indices, obstruction primes, and density experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for name, leaf in COMMANDS.items():
        sub = commands
        if leaf.group:
            if leaf.group not in groups:
                group = commands.add_parser(leaf.group, help=GROUPS[leaf.group])
                groups[leaf.group] = group.add_subparsers(dest="name", required=True)
            sub = groups[leaf.group]
        p = sub.add_parser(name, help=leaf.help, description=leaf.help)
        p.set_defaults(leaf=name)
        for arg in leaf.positionals:
            p.add_argument(arg, type=int)
        # every flag defaults to None, so _setting can tell an unset flag
        for arg, (cast, _) in leaf.flags.items():
            p.add_argument("--" + arg.replace("_", "-"), dest=arg, type=cast)
        p.add_argument("--format", choices=("json", "csv"))
        p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
