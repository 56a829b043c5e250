import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from importlib import resources

import jsonschema
import numpy as np
import pytest

from eosieve import cli, experiments
from eosieve.cli import main
from eosieve.errors import ConsistencyError
from eosieve.experiments import ExceptionalScanReport
from eosieve.purefield import pure_poly


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def _schema(name):
    ref = resources.files("eosieve") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text(encoding="utf-8"))


def _validate(payload, schema_name):
    jsonschema.validate(payload, _schema(schema_name))


# sha256 of each report with the version value masked, captured before the
# CLI became table-driven; every leaf subcommand in JSON and, where it has
# one, CSV (JSON-only commands ignore --format csv)
GOLDEN = [
    ("invariants 4 13", "0ffa07ac3b8462f8edb6c767863f36fad8acdb24e3461eb184cc910dc95910ab"),
    ("invariants 4 13 --format csv", "0ffa07ac3b8462f8edb6c767863f36fad8acdb24e3461eb184cc910dc95910ab"),
    ("pset 4 6 --limit 100", "cbefdcd8e053a1124d460abb196b8709bc8af1c8d569f95df06699bd2cd2b365"),
    ("pset 4 6 --limit 100 --format json", "57cce26d82bb43cdeb5384a86784737dba3f3b5273f0504ae25eef842708b84f"),
    ("density 4 6 --budget 200000", "bcffd18a57dc4dfd0638e4f5dee20a5d93d3d461fb8e5fe836d39c10f7cf4648"),
    ("coset 4 13 13 --trials 200 --seed 0", "b2dd4d1bba697c248462b6ca0b674bb089ddd07eafeeeb929cbdce953cba5f88"),
    ("experiment alpha-density --n 4 --x-max 20000", "bff7397899fd0652cb13f065f7d42c5afb7d67c0a1f07f33a6c36de68edbc9a5"),
    ("experiment alpha-density --n 4 --x-max 20000 --format csv", "c1c4603e1636b3cb69f44532e9633cfe7e297028c58be213f24fe80fbd0fe1f7"),
    ("experiment pg-free --g 4 --N 6 --x-max 100000", "e44028dd8abde42a1db377de943d75a27c9d9bfd7d691d559597add5dd585d2b"),
    ("experiment pg-free --g 4 --N 6 --x-max 100000 --format csv", "6a9ca2bb14c9ac905f849e5ac51614d3ca5c00b00ff0697b3b8bb66cfc700b7d"),
    ("experiment mertens --g 4 --N 6 --x-max 100000 --target-delta 0.1667", "76f6ce3e18aded5188e23cca4dd9cad17920cf9f2a10c76e85a3618ad279f976"),
    ("experiment mertens --g 4 --N 6 --x-max 100000 --target-delta 0.1667 --format csv", "bd9b1098124430d30324366af4d9de9bc1a88fe4c72b773616231e76ee7c8248"),
    ("experiment mertens --g 4 --N 6 --x-max 100000", "6b1c807231272f65fc06a13b18c042c94cbe162196166864af6fc04834fc43d5"),
    ("experiment exceptional --n 4 --x-max 3000 --checkpoints 300,1000,3000 --workers 1", "977f976c5f06d18f92578aa9b2f55f7e73c4197e195df42136c2e0c67c96111e"),
    ("experiment exceptional --n 4 --x-max 3000 --checkpoints 300,1000,3000 --workers 1 --format csv", "f61eac2843363cf8671b54e167aff2308cdd2148069341fddb0a1d43bc21ef3a"),
    ("family trinomial --n 4 --t-min -60 --t-max 60", "85eb974260dc040810c5e923c50be8296556e36d8439713db9afdc17e63408af"),
    ("family trinomial --n 4 --t-min -60 --t-max 60 --format csv", "b6c7fd45bcc0b9343191c19d23091351d49a344c5a2198c3145dfede2d7647a6"),
    ("family twist --n 4 --c 2 --values 4", "d95de2bb91de5b5da3a910f71f40d7bd3fe9626fd6bba7db4ed08a5466a27428"),
    ("family twist --n 4 --c 2 --values 4 --format csv", "a672f0cc6d2e7fbb0308fd2e5d68fc874c5b505fe25bbe4d146f175fa3d411c4"),
    ("family thin --n 4 --c 2 --limit 3000 --sample 4", "306bf9fa09f0f64b9ffe1dce2a504fb0b207ee2accd8c95ae33bc15f342db7fc"),
    ("family thin --n 4 --c 2 --limit 3000 --sample 4 --format csv", "5145a9270cdbec71208255dbac6e4266165d1054f7f4f1f06f8830b98a8b02af"),
    ("family scaled --n 4 --t-min -25 --t-max 25", "1a46b3eefaac279203e78c12fa1711c4565406ce02687492822a7e923d8f3a2f"),
    ("family scaled --n 4 --t-min -25 --t-max 25 --format csv", "17a631282a98db6b362fb1cde323b3de0d1155c07133f50713ddd17f63303e37"),
    # captured before the criterion masks became periodic and the P_g test
    # vectorized: two primes divide n (a period L = 36), a composite N, and
    # g = 2^70 + 3, which does not fit in int64
    ("experiment alpha-density --n 6 --x-max 20000", "288bf086321445c77612dad97338a1de33efe6722c2fa0952b2b9ca9435a1ad7"),
    ("experiment alpha-density --n 6 --x-max 20000 --format csv", "7a4b0bc0aeed8f75424c5485feb2b0d00a7966a6d590b1c28308a517593896df"),
    ("experiment alpha-density --n 12 --x-max 50000", "be088052ca289fbd2f2d8fd7230930ff2a557b7d7b3b3bf4301ffb138e7bd8fb"),
    ("experiment alpha-density --n 12 --x-max 50000 --format csv", "89be4f717bd94c26bdeb622fdcc4c3a0dc8a0bed09ece234262674643123e614"),
    ("pset 12 66 --limit 100000 --format json", "972c9264c512c1fb0a8b27f9c6a8d81dbf6ffea08311b649d4431f8c2e8c04ba"),
    ("pset 1180591620717411303427 6 --limit 100000", "341dab185dc6e2a05894a020503f2567422b43a07a75fa3212094f0ac8f941f5"),
    # captured while g(m) was still computed by saturation and the coset
    # trials ran one at a time: negative radicands, m = 1 mod p^(v_p(n)+1)
    # (26, -74; 197; 55, -26; 73, -71; 33, -31), degrees up to 16, a quartic
    # coset longer than one block of trials, a sextic coset, and an n = 13
    # scan (168 residue classes)
    ("invariants 5 7", "f2c00492750eadeda8ca7b59c2ccf49eb27d7e4847cad61a46b9acc95faf7745"),
    ("invariants 5 26", "268f931b832cc6235bcc212f9f753c4af080cc4ca2beef3b06dfbfbfe898f373"),
    ("invariants 5 -74", "e4a38bb997d26bae9dfdeddeec88fa27597835c874d50886c4e1505b5ec3be05"),
    ("invariants 7 197", "7c4d2d0d852a4aa2ff2cec0a35e4ccadb6b36601e747ac496aa153313fadd81e"),
    ("invariants 7 -5", "bbba9a787bcc13593c46947043c6cb5ce44c22bb2982dbaff8c26ce70c5cdc41"),
    ("invariants 9 55", "e37825dda5198f0c850ff7eee118079edb146f78ee3155b470c97b983fd36d05"),
    ("invariants 9 -26", "e672309815f1a07efd96687c89a9ae0d032bfb3b4ae10e6e241b8bbc8cce6fd8"),
    ("invariants 9 10", "675d3056745e546aef71902939fc59306cd4d7add12bbc1262bfcca29043f5c8"),
    ("invariants 12 73", "85ab62ec91fcdb12b7814f1426b9b4a7ce7f7582378abf227c0524e7e41e4b43"),
    ("invariants 12 -71", "f72897360c3f72a183a966353cf51d3addd2aab735e5029e33326c97c54ab4b1"),
    ("invariants 12 35", "10f07d22f13c432578fb795b5807db1e86d90e1b40757ad4a58f58c2bf206a4e"),
    ("invariants 16 33", "d3a94a1406f5a26002e7adf14de1adfa8908a30cf7b52a84a7a5dc9111aa65d8"),
    ("invariants 16 -31", "3417be7b16bea2f717a675aae56c4e09b948e2452b27127ab1f47884949faac6"),
    ("invariants 16 -7", "d1297aa872c2bd66c2d633a8cad59244f45feb2b4e516b562db3dcfd3f30eb38"),
    ("coset 4 13 13 --trials 1000 --seed 0", "b2f6add97686ca1ab56be4d59e4a2364ecfca6a6d6719ee453051252a8e98be2"),
    ("coset 6 -35 7 --trials 300 --seed 5", "e39daf48639846aba02bd0bda4255127bfc0d7c4d12ebd0c49497a7ec055aeec"),
    ("experiment exceptional --n 13 --x-max 300 --checkpoints 50,100,300", "a78fda8bb32212dae59b00399a3a513b3bd7aedf2272bd8df3cc3a831eb186ca"),
    # captured while the saturation round still raised x to p^k and ran its
    # GF(2) kernels through the list elimination: long p = 2 chains and
    # class confirmations at n = 16, kernels of 64 columns at n = 64
    ("experiment exceptional --n 16 --x-max 1000", "e118ce623aa279167ebf6829f6b9e6f390030bfff1da8964e06c7b2a28daafe3"),
    ("invariants 64 3", "35f29e0cdda43c07bb3344c78bd581828786ecdc80e8776e73501e636d981a85"),
    # captured while a priori bounds with a factor 2^n chose the dtype of
    # order coordinates, which ran these two partly on dtype object
    ("invariants 81 2", "94ecd36f72a0bcc9f2b6204f9b8d94fc055c789407ba23ee8de08f16b8992890"),
    ("invariants 48 129", "830827a759d87c621a6af9253c2486d900338353990c8775e73c2a327a9b5359"),
    # captured while pset wrote its CSV with str: 13,082 members in one
    # chunk, widths 2 to 6; and a prime radicand above psi_13, which
    # factorize accepts on the Miller-Rabin test alone
    ("pset 4 6 --limit 1000000", "407a3ee9cf0254043a0dfdd80f3e44da53e6679500548a5d26a61648dfe4999c"),
    ("invariants 4 1000000000000000000000000000057", "e9033b8ba574688dbcd41684338fb264c0c94bea16d238e7e9bafa487ada40c3"),
    # captured while factorize walked every prime up to min(sqrt(n), 10^6):
    # an 80-bit prime radicand below psi_13, and a scaled family whose
    # discriminants leave large prime cofactors
    ("invariants 4 1208925819614629174706189", "fef564c84a428930bd1f84a298fa14e05ade4d56c7d6a33084668498ae3d836f"),
    ("family scaled --n 4 --coeffs 2,1,0,1 --t-min -1889 --t-max -1703", "bfd7f71188697d18756a9f76b06397d5bf09bce1fda2e28333ad50612a3b298b"),
    # captured while every p-saturation of x^n - m started from Z[theta],
    # where these took 14 s and 3 s
    ("invariants 81 10", "3d97a0679c0e6f0cf07db9c17a67359668d0c920037e7e66869e2f9afefe7433"),
    ("experiment exceptional --n 32 --x-max 1000", "8bd202b289953b6a50168852e24b2c620e78b177adb5fc9e7f185711ad011aa4"),
    # captured while only x^n - m saturated from a tower, where these took
    # 1.0 s and 1.2 s: f = F(x^2) with p = 2 not dividing f(0) at odd t
    ("family scaled --n 8 --coeffs 1,0,0,0,1,0,0,0 --t-min -300 --t-max 300", "90350c440ee0a0a26458c3da5330551813b0e5f440ff73919be302102dd84320"),
    ("family scaled --n 16 --coeffs 1,0,1,0,0,0,0,0,1,0,0,0,0,0,0,0 --t-min 2 --t-max 40", "65ccc6387dbbd3c37ecf4d6e4634842c2aceb1f525da59de0f026c17fbdd03a6"),
    # captured while Dedekind's criterion returned a verdict and a full round
    # built the first enlargement: a squarefree composite degree, and 3^3,
    # where x^27 - m at 3 starts from the tower of x^9 - m
    ("experiment exceptional --n 30 --x-max 1000", "643f3b2e505ad3b4623912e4742d576d71dda790188059cc219e15af513836fc"),
    ("experiment exceptional --n 27 --x-max 1000", "ea2de2445a52c606511002a3afc4bc6cab235b470b3c51c20acaa51628cbda7f"),
]
_VERSION_FIELD = re.compile(r'"version": "[^"]*"')


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[argv for argv, _ in GOLDEN])
def test_reports_match_golden(capsys, monkeypatch, argv, digest):
    for name in list(os.environ):
        if name.startswith("EOS_"):
            monkeypatch.delenv(name)
    rc, out = _run(capsys, argv.split())
    assert rc == 0
    masked = _VERSION_FIELD.sub('"version": "*"', out, count=1)
    assert hashlib.sha256(masked.encode()).hexdigest() == digest


def test_invariants_golden_m13(capsys):
    rc, out = _run(capsys, ["invariants", "4", "13"])
    assert rc == 0
    payload = json.loads(out)
    _validate(payload, "invariants")
    assert payload["g"] == 4
    assert payload["alpha_monogenic"] is False
    assert payload["certificate"]["q"] == 13
    assert payload["certificate"]["witness"] == 3


def test_invariants_saturates_once_per_class(capsys, monkeypatch):
    import eosieve.orders as orders
    import eosieve.purefield as purefield

    _, plain = _run(capsys, ["invariants", "4", "13"])
    purefield._class_index.cache_clear()
    monkeypatch.setattr(orders, "_confirmed", Counter())
    saturated = []
    p_saturate = orders.p_saturate

    def counting(order, p):
        saturated.append((order.poly, p))
        return p_saturate(order, p)

    monkeypatch.setattr(orders, "p_saturate", counting)
    rc, out = _run(capsys, ["invariants", "4", "13"])
    assert rc == 0 and out == plain
    # 13 = 5 mod 8, and the least squarefree member of that class is -3
    assert saturated == [(pure_poly(4, -3), 2)]
    # x^4 + 3 starts from its tower, the first at degree 4 in this (fresh)
    # count, so the start from Dedekind's order confirms it
    assert orders._confirmed[4, "tower"] == 1
    saturated.clear()
    rc, out = _run(capsys, ["invariants", "4", "13"])
    assert rc == 0 and out == plain
    assert saturated == []


def test_invariants_golden_m2(capsys):
    rc, out = _run(capsys, ["invariants", "4", "2"])
    assert rc == 0
    payload = json.loads(out)
    _validate(payload, "invariants")
    assert payload["g"] == 1 and payload["certificate"] is None


def test_invariants_at_degree_two_has_no_certificate(capsys):
    # N = 1 leaves P_g empty, also when g(5) = 2
    rc, out = _run(capsys, ["invariants", "2", "5"])
    assert rc == 0
    payload = json.loads(out)
    _validate(payload, "invariants")
    assert payload["g"] == 2 and payload["certificate"] is None


def test_invariants_rejects_non_squarefree(capsys):
    rc = main(["invariants", "4", "12"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "squarefree" in captured.err


def test_invariants_rejects_minus_four(capsys):
    # x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2): pure_index checks
    # irreducibility before squarefreeness
    rc = main(["invariants", "4", "-4"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "reducible" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("invariants 1 5", "requires n >= 2 and |m| > 1"),
        ("invariants 4 1", "requires n >= 2 and |m| > 1"),
        ("invariants 4 12", "m = 12 is not squarefree"),
        ("invariants 4 -4", "x^4 - (-4) is reducible over Q"),
    ],
)
def test_invariants_precondition_violations_exit_2(capsys, argv, message):
    rc = main(argv.split())
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_pset_csv_matches_example(capsys):
    rc, out = _run(capsys, ["pset", "4", "6", "--limit", "40"])
    assert rc == 0
    assert out == "13\n37\n"


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_pset_below_the_first_candidate_is_empty(capsys, limit):
    rc = main(["pset", "4", "6", "--limit", limit])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (0, "", "")


def test_pset_csv_is_the_same_on_stdout_and_in_the_out_file(capsys, tmp_path):
    from eosieve.obstruction import enumerate_Pg

    argv = ["pset", "4", "6", "--limit", "1000000"]
    rc, out = _run(capsys, argv)
    assert rc == 0
    primes = enumerate_Pg(4, 6, 10**6)
    assert len(primes) > 3 * 4096  # many rows, streamed one at a time
    assert out == "".join(f"{q}\n" for q in primes)
    target = tmp_path / "pset.csv"
    assert main(argv + ["--out", str(target)]) == 0
    assert target.read_bytes() == out.encode()


# every edge of the decimal widths, from 0 to the largest uint32
_WIDTH_EDGES = sorted({0, 2**32 - 1} | {10**k + d for k in range(1, 10) for d in (-1, 0, 1)})


@pytest.mark.parametrize("dtype", [np.uint32, np.int64])
def test_pset_writer_matches_str(dtype):
    values = np.array(_WIDTH_EDGES, dtype=dtype)
    # the text pset wrote per chunk before the writer: one str line per member
    assert cli._decimal_lines(values) == "\n".join(map(str, _WIDTH_EDGES)) + "\n"
    assert cli._decimal_lines(values[:0]) == ""
    for i in range(len(values)):
        assert cli._decimal_lines(values[i : i + 1]) == f"{_WIDTH_EDGES[i]}\n"
        assert cli._decimal_lines(values[i:]) == "".join(f"{x}\n" for x in _WIDTH_EDGES[i:])


@pytest.mark.parametrize(
    "values",
    [
        [5, 3],
        [3, 3],
        # right first and last lines: only the order check catches these
        [5, 100, 7, 200],
        [7, 10, 99, 10, 1000],
        # a member below 0 or above 10 digits
        [-1, 5],
        [1, 10**10],
    ],
)
def test_pset_writer_refuses_what_it_cannot_write(values):
    with pytest.raises(ConsistencyError):
        cli._decimal_lines(np.array(values, dtype=np.int64))


def test_a_pset_writer_failure_exits_3(capsys, monkeypatch):
    table = (0, np.array([13, 7], dtype=np.uint32))
    monkeypatch.setattr(cli, "_pg_table", lambda g, N, limit: table)
    rc = main(["pset", "4", "6", "--limit", "40"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert "not strictly ascending" in captured.err


def test_csv_cells_are_written_as_str_writes_them(capsys, monkeypatch, tmp_path):
    rows = [
        ("g", "count"),
        (-7, 2**64 + 1, -(2**70) - 3),
        (0.1, 1 / 3, 1e22, -1.5e-300),
        (float("nan"), float("inf"), float("-inf")),
        (True, False),
    ]
    leaf = cli.COMMANDS["pset"]._replace(runner=lambda params: ({}, iter(rows)))
    monkeypatch.setitem(cli.COMMANDS, "pset", leaf)
    expected = "".join(",".join(map(str, r)) + "\n" for r in rows)
    rc, out = _run(capsys, ["pset", "4", "6"])
    assert rc == 0
    assert out == expected
    target = tmp_path / "cells.csv"
    assert main(["pset", "4", "6", "--out", str(target)]) == 0
    assert target.read_bytes() == expected.encode()


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_an_out_path_that_cannot_be_opened_exits_2(capsys, monkeypatch, tmp_path, where):
    target = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
    rc = main(["pset", "4", "6", "--limit", "40", "--out", str(target)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: cannot write the report: ")
    assert str(target) in captured.err
    # the same through EOS_OUT
    monkeypatch.setenv("EOS_OUT", str(target))
    assert main(["pset", "4", "6", "--limit", "40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not (tmp_path / "missing").exists()


def test_json_report_is_the_same_on_stdout_and_in_the_out_file(capsys, tmp_path):
    argv = ["coset", "4", "13", "13", "--trials", "50"]
    rc, out = _run(capsys, argv)
    assert rc == 0
    target = tmp_path / "coset.json"
    assert main(argv + ["--out", str(target)]) == 0
    assert target.read_bytes() == out.encode()


def test_pset_json_schema(capsys):
    rc, out = _run(capsys, ["pset", "4", "6", "--limit", "100", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    _validate(payload, "pset")
    assert payload["primes"] == [13, 37, 61, 73, 97]


def test_density_json(capsys):
    rc, out = _run(capsys, ["density", "4", "6", "--budget", "200000"])
    assert rc == 0
    payload = json.loads(out)
    _validate(payload, "density")
    assert payload["l_over_k"] == 3
    assert payload["delta"]["numerator"] == 1 and payload["delta"]["denominator"] == 6


def test_coset_json(capsys):
    rc, out = _run(capsys, ["coset", "4", "13", "13", "--trials", "200", "--seed", "0"])
    assert rc == 0
    payload = json.loads(out)
    _validate(payload, "coset")
    assert payload["failures"] == 0 and payload["trials"] == 200


def test_experiment_alpha_density_json(capsys):
    rc, out = _run(
        capsys,
        ["experiment", "alpha-density", "--n", "4", "--x-max", "20000"],
    )
    assert rc == 0
    payload = json.loads(out)
    _validate(payload, "experiment")
    assert payload["pass"] is True


def test_experiment_pg_free_json(capsys):
    rc, out = _run(
        capsys,
        ["experiment", "pg-free", "--g", "4", "--N", "6", "--x-max", "100000"],
    )
    assert rc == 0
    payload = json.loads(out)
    _validate(payload, "experiment")
    assert payload["pass"] is True


def test_experiment_mertens_json(capsys):
    rc, out = _run(
        capsys,
        [
            "experiment",
            "mertens",
            "--g",
            "4",
            "--N",
            "6",
            "--x-max",
            "100000",
            "--target-delta",
            str(1 / 6),
        ],
    )
    assert rc == 0
    payload = json.loads(out)
    _validate(payload, "experiment")
    assert payload["pass"] is True


def test_experiment_exceptional_json(capsys):
    rc, out = _run(
        capsys,
        [
            "experiment",
            "exceptional",
            "--n",
            "4",
            "--x-max",
            "3000",
            "--checkpoints",
            "300,1000,3000",
            "--workers",
            "1",
        ],
    )
    assert rc == 0
    payload = json.loads(out)
    _validate(payload, "experiment")
    assert {row["g"] for row in payload["rows"]} >= {4}


def test_experiment_exceptional_never_reads_members(capsys, monkeypatch):
    def unread(report):
        raise AssertionError("the CLI read ExceptionalScanReport.members")

    monkeypatch.setattr(ExceptionalScanReport, "members", property(unread))
    argv = ["experiment", "exceptional", "--n", "4", "--x-max", "3000"]
    rc, out = _run(capsys, argv + ["--format", "csv"])
    assert rc == 0
    rc, out = _run(capsys, argv)
    assert rc == 0 and json.loads(out)["rows"]


def test_experiment_exceptional_at_degree_2(capsys):
    # N = n(n-1)/2 = 1: P_g is empty, so every radicand of index 2 is P_g-free
    rc, out = _run(capsys, ["experiment", "exceptional", "--n", "2", "--x-max", "1000"])
    assert rc == 0
    (row,) = json.loads(out)["rows"]
    assert row["g"] == 2 and row["totals"][-1] > 0
    assert row["pg_free"] == row["totals"]


def test_alpha_density_count_guard_exits_3(capsys, monkeypatch):
    # a Moebius count off by one at k = 1 (m = -1 meets the n = 4 criterion)
    counts = experiments._pattern_counts

    def with_k_1(weights, xs):
        return counts(weights, xs) + int(weights[1 % len(weights)]) * (np.asarray(xs) >= 1)

    monkeypatch.setattr(experiments, "_pattern_counts", with_k_1)
    rc = main(["experiment", "alpha-density", "--n", "4", "--x-max", "10000"])
    captured = capsys.readouterr()
    assert rc == 3 and "window recount" in captured.err


def test_family_reports_validate(capsys):
    cases = [
        ["family", "trinomial", "--n", "4", "--t-min", "-60", "--t-max", "60"],
        ["family", "twist", "--n", "4", "--c", "2", "--values", "4"],
        ["family", "thin", "--n", "4", "--c", "2", "--limit", "3000", "--sample", "4"],
        ["family", "scaled", "--n", "4", "--coeffs", "1,1,0,0", "--t-min", "-25", "--t-max", "25"],
    ]
    for argv in cases:
        rc, out = _run(capsys, argv)
        assert rc == 0, argv
        payload = json.loads(out)
        _validate(payload, "family")


def test_family_trinomial_all_monogenic(capsys):
    rc, out = _run(capsys, ["family", "trinomial", "--n", "4", "--t-min", "-80", "--t-max", "80"])
    payload = json.loads(out)
    assert payload["all_monogenic"] is True and payload["members"] > 10


def test_byte_identical_reruns(capsys, tmp_path):
    argv = ["experiment", "pg-free", "--g", "4", "--N", "6", "--x-max", "50000"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    coset = ["coset", "4", "13", "13", "--trials", "300", "--seed", "42"]
    assert main(coset + ["--out", str(first)]) == 0
    assert main(coset + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_env_precedence(capsys, monkeypatch):
    monkeypatch.setenv("EOS_LIMIT", "40")
    rc, out = _run(capsys, ["pset", "4", "6"])
    assert rc == 0
    assert out == "13\n37\n"
    # flag beats the environment
    rc, out = _run(capsys, ["pset", "4", "6", "--limit", "14"])
    assert out == "13\n"


def test_workers_default_does_not_depend_on_the_host(capsys, monkeypatch):
    monkeypatch.delenv("EOS_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    argv = ["experiment", "exceptional", "--n", "4", "--x-max", "3000"]
    rc, out = _run(capsys, argv + ["--checkpoints", "300,1000,3000"])
    assert rc == 0
    assert json.loads(out)["params"]["workers"] == 1


def test_unread_x_max_does_not_fail_invariants(capsys, monkeypatch):
    _, plain = _run(capsys, ["invariants", "4", "13"])
    monkeypatch.setenv("EOS_X_MAX", "10")
    rc, out = _run(capsys, ["invariants", "4", "13"])
    assert rc == 0
    assert out == plain


def test_unread_checkpoints_do_not_fail_pset(capsys, monkeypatch):
    monkeypatch.setenv("EOS_CHECKPOINTS", "5,3")
    rc, out = _run(capsys, ["pset", "4", "6", "--limit", "40"])
    assert rc == 0
    assert out == "13\n37\n"


@pytest.mark.parametrize("ladder", ["5,3,1000", "10,100,2000", "10,100", "1,100,1000"])
def test_bad_checkpoint_ladder_is_a_usage_error(capsys, ladder):
    argv = ["experiment", "alpha-density", "--x-max", "1000", "--checkpoints", ladder]
    assert main(argv) == 2
    assert "checkpoints" in capsys.readouterr().err


def test_csv_emission(capsys):
    rc, out = _run(
        capsys,
        ["experiment", "alpha-density", "--n", "4", "--x-max", "10000", "--format", "csv"],
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "X,count,density"
    assert len(lines) >= 4


def test_invariants_negative_radicand(capsys):
    rc, out = _run(capsys, ["invariants", "4", "-3"])
    assert rc == 0
    payload = json.loads(out)
    _validate(payload, "invariants")
    assert payload["m"] == -3 and payload["alpha_monogenic"] is False


@pytest.mark.parametrize("c", ["0", "1"])
def test_twist_rejects_c_below_2_before_searching(capsys, c):
    # gcd(t, 0) = t, so with c = 0 the search for parameters would never end
    rc = main(["family", "twist", "--c", c, "--values", "3"])
    assert rc == 2
    assert "c must be >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["0", "-0.1"])
def test_mertens_rejects_a_target_delta_that_is_not_positive(capsys, target):
    argv = ["experiment", "mertens", "--x-max", "20000", "--target-delta", target]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "target-delta must be > 0" in captured.err


@pytest.mark.parametrize("n", ["-4", "0", "1"])
@pytest.mark.parametrize("name", ["alpha-density", "exceptional"])
def test_range_experiments_reject_degrees_below_2(capsys, name, n):
    rc = main(["experiment", name, "--n", n, "--x-max", "1000"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "degree must be >= 2" in captured.err


@pytest.mark.parametrize(
    "flags, message",
    [(["--limit", "1"], "limit >= 2"), (["--c", "100000000000000000000"], "2^63")],
)
def test_thin_rejects_an_empty_range_and_an_oversized_c(capsys, flags, message):
    rc = main(["family", "thin", *flags])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert message in captured.err


def test_exit_code_usage_error():
    assert main(["density", "64", "6", "--budget", "200000"]) == 2


def test_exit_code_internal_consistency(monkeypatch, capsys):
    import eosieve.cli as cli_mod
    from eosieve.errors import ConsistencyError

    def boom(*args, **kwargs):
        raise ConsistencyError("brute force disagrees with closed form")

    monkeypatch.setattr(cli_mod, "pure_index", boom)
    rc = main(["invariants", "4", "13"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "consistency" in captured.err


@pytest.mark.skipif(sys.platform != "linux", reason="threads are counted in /proc")
@pytest.mark.parametrize("preset", [None, "2"])
def test_import_leaves_openblas_one_thread_unless_told_otherwise(preset):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = (
        "import os, eosieve; "
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    threads, setting = proc.stdout.split()
    if preset is None:
        assert (threads, setting) == ("1", "1")
    else:
        assert setting == preset


# commands whose n-sized work (coset blocks, the Sylvester resultant) came
# before any table; each now refuses as soon as its polynomial is built
_REFUSED_BEFORE_WORK = [
    "coset 420 11 11 --trials 10 --seed 0",
    "family trinomial --n 300 --t-min 5 --t-max 7",
    pytest.param(
        "family scaled --n 300 --coeffs " + ",".join(["1"] + ["0"] * 299) + " --t-min 2 --t-max 3",
        id="family scaled --n 300 --coeffs 1,0,...,0 --t-min 2 --t-max 3",
    ),
]


# Each must be refused before any table is built: under the limit, a
# (420, 420, 420) int64 table alone (565 MiB) fails with a MemoryError.
@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is Linux's")
@pytest.mark.parametrize(
    "argv",
    [
        "invariants 420 11",
        "invariants 1000 3",
        "experiment exceptional --n 420 --x-max 1000",
        *_REFUSED_BEFORE_WORK,
    ],
)
def test_high_degree_is_refused_within_a_memory_limit(argv):
    import resource

    def limit_address_space():  # in the child only
        resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))  # 1.5 GiB

    env = {k: v for k, v in os.environ.items() if not k.startswith("EOS_")}
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "eosieve.cli", *argv.split()],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        preexec_fn=limit_address_space,
    )
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert "Traceback" not in proc.stderr
    assert re.fullmatch(r"error: degree \d+ needs tables above the 128 MiB budget\n", proc.stderr)


@pytest.mark.parametrize("argv", _REFUSED_BEFORE_WORK)
def test_high_degree_is_refused_before_any_n_sized_work(capsys, monkeypatch, argv):
    from eosieve import families, obstruction

    def n_sized_work(*args):
        raise AssertionError("n-sized work ran before the refusal")

    monkeypatch.setattr(obstruction, "_power_matrices", n_sized_work)
    monkeypatch.setattr(families, "poly_disc_resultant", n_sized_work)
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: degree \d+ needs tables above the 128 MiB budget\n", captured.err)


def test_running_out_of_memory_is_a_typed_refusal(capsys, monkeypatch):
    def out_of_memory(params):
        raise MemoryError("Unable to allocate 128. MiB for an array with shape (65536, 256)")

    leaf = cli.COMMANDS["invariants"]
    monkeypatch.setitem(cli.COMMANDS, "invariants", leaf._replace(runner=out_of_memory))
    assert main(["invariants", "4", "13"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: out of memory: Unable to allocate 128. MiB for an array with shape (65536, 256)\n"
    )


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "eosieve.cli", "invariants", "4", "13"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["g"] == 4


@pytest.mark.parametrize(
    "argv",
    [
        "invariants 4 13 --seed 1",
        "pset 4 6 --workers 2",
        "density 4 6 --limit 40",
        "coset 4 13 13 --workers 2",
        "experiment alpha-density --budget 5",
        "experiment pg-free --n 6",
        "experiment exceptional --seed 1",
        "family trinomial --c 3",
        "family scaled --limit 40",
        # a flag before the leaf name belongs to no leaf
        "experiment --n 6 alpha-density",
    ],
)
def test_a_leaf_rejects_a_flag_it_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err or "invalid choice" in captured.err


# a quick invocation of every leaf, with JSON output
_LEAF_ARGV = {
    "invariants": "invariants 4 13",
    "pset": "pset 4 6 --limit 40 --format json",
    "density": "density 4 6 --budget 100000",
    "coset": "coset 4 13 13 --trials 20",
    "alpha-density": "experiment alpha-density --x-max 3000",
    "pg-free": "experiment pg-free --x-max 3000",
    "mertens": "experiment mertens --x-max 3000",
    "exceptional": "experiment exceptional --x-max 3000",
    "trinomial": "family trinomial --t-min -20 --t-max 20",
    "twist": "family twist --values 2",
    "thin": "family thin --limit 300 --sample 2",
    "scaled": "family scaled --t-min -10 --t-max 10",
}


def _leaf_parsers(parser, path=()):
    """(argv prefix, parser) of every leaf below an argparse parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, (*path, name))


def test_every_leaf_echoes_exactly_the_arguments_it_accepts(capsys, monkeypatch):
    for name in list(os.environ):
        if name.startswith("EOS_"):
            monkeypatch.delenv(name)
    leaves = dict(_leaf_parsers(cli.build_parser()))
    assert {path[-1] for path in leaves} == set(_LEAF_ARGV)
    for path, parser in leaves.items():
        argv = _LEAF_ARGV[path[-1]].split()
        assert tuple(argv[: len(path)]) == path
        accepted = {
            a.dest
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction) and a.dest not in ("format", "out")
        }
        rc, out = _run(capsys, argv)
        assert rc == 0, path
        assert set(json.loads(out)["params"]) == accepted, path


def test_argparse_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
