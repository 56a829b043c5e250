"""Command-line frontend.

Subcommands wrap the library operations one to one and emit deterministic
JSON or CSV reports that embed the input parameters and library version.
Configuration precedence is flags, then EOS_-prefixed environment variables,
then defaults.  Exit codes: 0 success, 2 usage or precondition violation,
3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

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
from .obstruction import _certificate, enumerate_Pg, estimate_delta, local_coset_check
from .purefield import binomial_irreducible, pure_index

ENV_PREFIX = "EOS_"


@dataclass(frozen=True)
class RunConfig:
    """Deterministic run parameters shared by the scan-style subcommands."""

    seed: int = 0
    x_max: int = 10**6
    checkpoints: tuple[int, ...] = ()
    prime_budget: int = 10**6
    output_format: str = "json"
    output_path: str | None = None
    workers: int = 1

    def __post_init__(self):
        if self.output_format not in ("json", "csv"):
            raise ValueError("format must be json or csv")
        if self.checkpoints:
            if any(b <= a for a, b in zip(self.checkpoints, self.checkpoints[1:])):
                raise ValueError("checkpoints must be strictly ascending")
            if self.checkpoints[-1] > self.x_max:
                raise ValueError("checkpoints must not exceed x_max")
        if not -(2**63) <= self.seed < 2**63:
            raise ValueError("seed must fit in 64 bits")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


def _resolve(flag_value, env_name: str, default, cast):
    if flag_value is not None:
        return flag_value
    raw = _env(env_name)
    if raw is not None:
        return cast(raw)
    return default


def _parse_checkpoints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise ValueError(f"bad checkpoint list {text!r}") from exc


def _default_checkpoints(x_max: int) -> tuple[int, ...]:
    ladder = [x_max // 1000, x_max // 100, x_max // 10, x_max]
    out = []
    for x in ladder:
        if x >= 2 and x not in out:
            out.append(x)
    if len(out) < 3:
        raise ValueError("x_max too small for a default checkpoint ladder")
    return tuple(out)


def _config_from_args(args) -> RunConfig:
    x_max = _resolve(getattr(args, "x_max", None), "X_MAX", 10**6, int)
    raw_cp = _resolve(getattr(args, "checkpoints", None), "CHECKPOINTS", None, str)
    checkpoints = (
        _parse_checkpoints(raw_cp) if isinstance(raw_cp, str) else (raw_cp or ())
    )
    if not checkpoints:
        checkpoints = _default_checkpoints(x_max)
    return RunConfig(
        seed=_resolve(getattr(args, "seed", None), "SEED", 0, int),
        x_max=x_max,
        checkpoints=checkpoints,
        prime_budget=_resolve(getattr(args, "budget", None), "BUDGET", 10**6, int),
        output_format=_resolve(getattr(args, "format", None), "FORMAT", "json", str),
        output_path=_resolve(getattr(args, "out", None), "OUT", None, str),
        workers=_resolve(getattr(args, "workers", None), "WORKERS", os.cpu_count() or 1, int),
    )


def _fraction_payload(fr: Fraction) -> dict:
    return {
        "numerator": fr.numerator,
        "denominator": fr.denominator,
        "value": fr.numerator / fr.denominator,
    }


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out_path: str | None) -> None:
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out_path)


def _emit_csv(rows: list[list], out_path: str | None) -> None:
    text = "".join(",".join(str(x) for x in row) + "\n" for row in rows)
    _emit(text, out_path)


def _envelope(command: str, params: dict) -> dict:
    return {"command": command, "version": __version__, "params": params}


def _cmd_invariants(args) -> int:
    cfg = _config_from_args(args)
    n, m = args.n, args.m
    if n < 2 or abs(m) <= 1:
        raise ValueError("requires n >= 2 and |m| > 1")
    if not is_squarefree(m):
        raise ValueError("m not squarefree")
    if not binomial_irreducible(n, m):
        raise ValueError(f"x^{n} - ({m}) is reducible over Q")
    inv = pure_index(n, m)
    cert = _certificate(n, m, inv.g)
    payload = _envelope("invariants", {"n": n, "m": m})
    payload.update(
        {
            "n": n,
            "m": m,
            "irreducible": True,
            "squarefree": True,
            "alpha_monogenic": inv.alpha_monogenic,
            "g": inv.g,
            "disc": inv.power_disc,
            "certificate": cert.to_json_dict() if cert else None,
        }
    )
    _emit_json(payload, cfg.output_path)
    return 0


def _cmd_pset(args) -> int:
    cfg = _config_from_args(args)
    limit = _resolve(args.limit, "LIMIT", 1000, int)
    primes = enumerate_Pg(args.g, args.N, limit)
    fmt = args.format or ("csv" if _env("FORMAT") is None else _env("FORMAT"))
    if fmt == "json":
        payload = _envelope("pset", {"g": args.g, "N": args.N, "limit": limit})
        payload["primes"] = primes
        _emit_json(payload, cfg.output_path)
    else:
        _emit_csv([[q] for q in primes], cfg.output_path)
    return 0


def _cmd_density(args) -> int:
    cfg = _config_from_args(args)
    kd = estimate_delta(args.g, args.N, cfg.prime_budget)
    payload = _envelope("density", {"g": args.g, "N": args.N, "budget": cfg.prime_budget})
    payload.update(
        {
            "g": kd.g,
            "N": kd.N,
            "h": kd.h,
            "d": kd.d,
            "b": kd.b,
            "nontrivial": kd.nontrivial,
            "l_over_k": kd.l_over_k,
            "delta": _fraction_payload(kd.delta),
        }
    )
    _emit_json(payload, cfg.output_path)
    return 0


def _cmd_coset(args) -> int:
    cfg = _config_from_args(args)
    report = local_coset_check(args.n, args.m, args.q, args.trials, cfg.seed)
    payload = _envelope(
        "coset",
        {"n": args.n, "m": args.m, "q": args.q, "trials": args.trials, "seed": cfg.seed},
    )
    payload.update(
        {
            "n": report.n,
            "m": report.m,
            "q": report.q,
            "trials": report.trials,
            "failures": report.failures,
            "base_class": report.base_class,
            "seed": report.seed,
        }
    )
    _emit_json(payload, cfg.output_path)
    return 0


def _strictly_decreasing(seq) -> bool:
    return all(b < a for a, b in zip(seq, seq[1:]))


def _cmd_experiment(args) -> int:
    cfg = _config_from_args(args)
    name = args.name
    payload = _envelope("experiment", {})
    payload["name"] = name
    if name == "alpha-density":
        rep = alpha_density(args.n, cfg.x_max, cfg.checkpoints)
        rel_err = abs(rep.densities[-1] - rep.target) / rep.target
        payload["params"] = {
            "n": args.n,
            "x_max": cfg.x_max,
            "checkpoints": list(cfg.checkpoints),
            "tolerance": args.tolerance,
        }
        payload.update(
            {
                "xs": list(rep.checkpoints.xs),
                "counts": list(rep.checkpoints.counts),
                "densities": list(rep.densities),
                "target": rep.target,
                "rel_err_final": rel_err,
                "pass": rel_err <= args.tolerance,
            }
        )
        csv_rows = [["X", "count", "density"]] + [
            [x, c, d]
            for x, c, d in zip(rep.checkpoints.xs, rep.checkpoints.counts, rep.densities)
        ]
    elif name == "pg-free":
        cp = pg_free_counts(args.g, args.N, cfg.x_max, cfg.checkpoints)
        ratios = [c / x for c, x in zip(cp.counts, cp.xs)]
        fit = logpower_fit(cp) if all(c > 0 for c in cp.counts) else None
        payload["params"] = {
            "g": args.g,
            "N": args.N,
            "x_max": cfg.x_max,
            "checkpoints": list(cfg.checkpoints),
        }
        payload.update(
            {
                "xs": list(cp.xs),
                "counts": list(cp.counts),
                "ratios": ratios,
                "fit": None
                if fit is None
                else {
                    "exponent": fit.exponent,
                    "constant": fit.constant,
                    "rms_residual": fit.rms_residual,
                    "window": list(fit.window),
                },
                "pass": _strictly_decreasing(ratios),
            }
        )
        csv_rows = [["X", "count", "ratio"]] + [
            [x, c, r] for x, c, r in zip(cp.xs, cp.counts, ratios)
        ]
    elif name == "mertens":
        rep = mertens_sum(args.g, args.N, cfg.x_max, cfg.checkpoints)
        payload["params"] = {
            "g": args.g,
            "N": args.N,
            "x_max": cfg.x_max,
            "checkpoints": list(cfg.checkpoints),
            "target_delta": args.target_delta,
        }
        verdict = None
        if args.target_delta is not None:
            verdict = abs(rep.slope - args.target_delta) / args.target_delta <= 0.25
        payload.update(
            {
                "xs": list(rep.xs),
                "sums": list(rep.sums),
                "slope": rep.slope,
                "intercept": rep.intercept,
                "pass": verdict,
            }
        )
        csv_rows = [["X", "sum"]] + [[x, s] for x, s in zip(rep.xs, rep.sums)]
    elif name == "exceptional":
        rep = exceptional_scan(args.n, cfg.x_max, cfg.checkpoints, workers=cfg.workers)
        rows_payload = []
        for row in rep.rows:
            rows_payload.append(
                {
                    "g": row.g,
                    "totals": list(row.totals),
                    "pg_free": list(row.pg_free),
                    "ratios": list(row.ratios),
                    "decreasing": _strictly_decreasing(row.ratios),
                }
            )
        payload["params"] = {
            "n": args.n,
            "x_max": cfg.x_max,
            "checkpoints": list(cfg.checkpoints),
            "workers": cfg.workers,
        }
        payload.update(
            {
                "xs": list(rep.xs),
                "rows": rows_payload,
                "pass": all(r["decreasing"] for r in rows_payload) if rows_payload else None,
            }
        )
        csv_rows = [["g", "X", "total", "pg_free", "ratio"]]
        for row in rep.rows:
            for x, t, f, r in zip(rep.xs, row.totals, row.pg_free, row.ratios):
                csv_rows.append([row.g, x, t, f, r])
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown experiment {name}")
    if cfg.output_format == "csv":
        _emit_csv(csv_rows, cfg.output_path)
    else:
        _emit_json(payload, cfg.output_path)
    return 0


def _cmd_family(args) -> int:
    cfg = _config_from_args(args)
    name = args.name
    payload = _envelope("family", {})
    payload["name"] = name
    if name == "trinomial":
        t_lo, t_hi = args.t_min, args.t_max
        members = [t for t in range(t_lo, t_hi + 1) if abs(t) > 1 and in_Tn(args.n, t)]
        failures = []
        for t in members:
            trinomial_data(args.n, t).verify_against_resultant()
            if not trinomial_monogenic_check(args.n, t):
                failures.append(t)
        payload["params"] = {"n": args.n, "t_min": t_lo, "t_max": t_hi}
        payload.update(
            {
                "members": len(members),
                "failures": failures,
                "all_monogenic": not failures,
            }
        )
        csv_rows = [["t", "monogenic"]] + [[t, t not in failures] for t in members]
    elif name == "twist":
        expected = args.c ** (args.n * (args.n - 1) // 2)
        values = []
        t = 2
        while len(values) < args.values:
            if math.gcd(t, args.c) == 1 and in_Tn(args.n, t):
                values.append({"t": t, "index": twist_index_check(args.n, args.c, t)})
            t += 1
        payload["params"] = {"n": args.n, "c": args.c, "values": args.values}
        payload.update(
            {
                "expected": expected,
                "checks": values,
                "all_match": all(v["index"] == expected for v in values),
            }
        )
        csv_rows = [["t", "index"]] + [[v["t"], v["index"]] for v in values]
    elif name == "thin":
        limit = _resolve(args.limit, "LIMIT", 10**4, int)
        members, nprimes, ratio = thin_member_density(args.n, args.c, limit)
        expected = 1.0
        for p in prime_divisors(args.n):
            expected *= 1 - 1 / p
        checks = []
        count = 0
        q = 2
        while count < args.sample and q <= limit:
            if is_probable_prime(q) and thin_Pn_member(args.n, args.c, q):
                rep = thin_family_check(args.n, args.c, q)
                checks.append(
                    {
                        "q": q,
                        "alpha_monogenic": rep.alpha_monogenic_of_q,
                        "index": rep.distinguished_index,
                    }
                )
                count += 1
            q += 1
        payload["params"] = {"n": args.n, "c": args.c, "limit": limit, "sample": args.sample}
        payload.update(
            {
                "members": members,
                "primes": nprimes,
                "ratio": ratio,
                "expected_ratio": expected,
                "checks": checks,
            }
        )
        csv_rows = [["q", "alpha_monogenic", "index"]] + [
            [c["q"], c["alpha_monogenic"], c["index"]] for c in checks
        ]
    elif name == "scaled":
        coeffs = tuple(int(x) for x in args.coeffs.split(","))
        family = ScaledFamily(args.n, coeffs)
        rep = scaled_family_scan(family, args.t_min, args.t_max, args.candidate_bound)
        payload["params"] = {
            "n": args.n,
            "coeffs": list(coeffs),
            "t_min": args.t_min,
            "t_max": args.t_max,
            "candidate_bound": args.candidate_bound,
        }
        payload.update(
            {
                "index_values": [list(x) for x in rep.index_values],
                "kummer_nontrivial": [list(x) for x in rep.kummer_nontrivial],
                "unresolved": list(rep.unresolved),
                "out_of_bound": [list(x) for x in rep.out_of_bound],
                "hypotheses_hold": all(flag for _, flag in rep.kummer_nontrivial),
            }
        )
        csv_rows = [["g", "count"]] + [[g, c] for g, c in rep.index_values]
    else:  # pragma: no cover
        raise ValueError(f"unknown family {name}")
    if cfg.output_format == "csv":
        _emit_csv(csv_rows, cfg.output_path)
    else:
        _emit_json(payload, cfg.output_path)
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
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("pset", help="obstruction primes P_g up to a limit")
    p.add_argument("g", type=int)
    p.add_argument("N", type=int)
    p.add_argument("--limit", type=int, default=None)
    add_common(p)
    p.set_defaults(handler=_cmd_pset)

    p = sub.add_parser("density", help="empirical Chebotarev density of P_g")
    p.add_argument("g", type=int)
    p.add_argument("N", type=int)
    p.add_argument("--budget", type=int, default=None)
    add_common(p)
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("coset", help="randomized local single-coset check")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--trials", type=int, default=1000)
    add_common(p)
    p.set_defaults(handler=_cmd_coset)

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
    p.set_defaults(handler=_cmd_experiment)

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
    p.set_defaults(handler=_cmd_family)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except EnumerationLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
